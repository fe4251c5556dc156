//! RNS (residue-number-system) polynomial multiplication over a
//! composite modulus of 2..=4 machine-friendly primes.
//!
//! For coefficient moduli wider than one machine-friendly prime (real
//! BGV/BFV deployments use 100+-bit `Q`), the ring splits into
//! independent channels `Z_{q_i}`; each channel runs its own NTT — on
//! CryptoPIM, in its own superbank, in parallel — and the results
//! recombine by Garner's mixed-radix CRT. The basis bookkeeping lives
//! in [`modmath::crt::RnsBasis`]; this module stacks one
//! [`NttMultiplier`] per residue channel on top of it.

use crate::negacyclic::{NttMultiplier, PolyMultiplier};
use crate::poly::Polynomial;
use crate::Result;
use modmath::crt::RnsBasis;
use modmath::Error;

/// A negacyclic multiplier over `Z_Q[x]/(x^n + 1)` with `Q = Π q_i`.
///
/// # Example
///
/// ```
/// use ntt::rns::RnsMultiplier;
///
/// # fn main() -> Result<(), ntt::Error> {
/// let mult = RnsMultiplier::new(1024, &[12289, 40961])?;
/// assert_eq!(mult.modulus(), 12289u128 * 40961);
/// let x = {
///     let mut c = vec![0u128; 1024];
///     c[1] = 1;
///     c
/// };
/// let x2 = mult.multiply(&x, &x)?;
/// assert_eq!(x2[2], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RnsMultiplier {
    n: usize,
    basis: RnsBasis,
    channels: Vec<NttMultiplier>,
}

impl RnsMultiplier {
    /// Builds a multiplier for degree `n` over `Π moduli`. Every prime
    /// must support a length-`n` negacyclic NTT.
    ///
    /// # Errors
    ///
    /// Propagates basis-validation errors ([`Error::BasisSize`],
    /// [`Error::NotPrime`], [`Error::NotCoprime`],
    /// [`Error::BasisOverflow`], [`Error::NoRootOfUnity`]) plus
    /// channel-construction failures.
    pub fn new(n: usize, moduli: &[u64]) -> Result<Self> {
        let basis = RnsBasis::for_degree(n, moduli)?;
        Self::with_basis(n, basis)
    }

    /// Builds a multiplier from an already-validated basis.
    ///
    /// # Errors
    ///
    /// Propagates channel-construction failures (e.g. an unsupported
    /// degree).
    pub fn with_basis(n: usize, basis: RnsBasis) -> Result<Self> {
        let channels = basis
            .moduli()
            .iter()
            .map(|&q| NttMultiplier::for_degree_modulus(n, q))
            .collect::<Result<Vec<_>>>()?;
        Ok(RnsMultiplier { n, basis, channels })
    }

    /// Discovers `k` ascending NTT-friendly primes above `floor` for
    /// degree `n` and builds the multiplier.
    ///
    /// # Errors
    ///
    /// Propagates basis and channel-construction failures.
    pub fn with_discovered_basis(n: usize, k: usize, floor: u64) -> Result<Self> {
        let basis = RnsBasis::discover(n, k, floor)?;
        Self::with_basis(n, basis)
    }

    /// Two-channel convenience around
    /// [`RnsMultiplier::with_discovered_basis`].
    ///
    /// # Errors
    ///
    /// Propagates basis and channel-construction failures.
    pub fn with_discovered_primes(n: usize, floor: u64) -> Result<Self> {
        Self::with_discovered_basis(n, 2, floor)
    }

    /// The ring degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The composite modulus `Π q_i`.
    #[inline]
    pub fn modulus(&self) -> u128 {
        self.basis.modulus()
    }

    /// The residue-channel moduli, in construction order.
    pub fn channel_moduli(&self) -> &[u64] {
        self.basis.moduli()
    }

    /// The underlying residue basis.
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    fn check_len(&self, a: &[u128], b: &[u128]) -> Result<()> {
        if a.len() != self.n || b.len() != self.n {
            return Err(Error::InvalidDegree { n: a.len() });
        }
        Ok(())
    }

    fn split_operand(&self, x: &[u128], lane: usize) -> Result<Polynomial> {
        let mut buf = vec![0u64; self.n];
        self.basis.split_lane_into(x, lane, &mut buf);
        Polynomial::from_canonical_coeffs(buf, self.basis.moduli()[lane])
    }

    /// Multiplies two polynomials with coefficients below `Q`, running
    /// the residue channels sequentially (the baseline the sharded
    /// service pipeline is measured against).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] on a length mismatch.
    pub fn multiply(&self, a: &[u128], b: &[u128]) -> Result<Vec<u128>> {
        self.check_len(a, b)?;
        let lanes = self
            .channels
            .iter()
            .enumerate()
            .map(|(i, chan)| {
                let ai = self.split_operand(a, i)?;
                let bi = self.split_operand(b, i)?;
                Ok(chan.multiply(&ai, &bi)?.into_coeffs())
            })
            .collect::<Result<Vec<Vec<u64>>>>()?;
        let lane_refs: Vec<&[u64]> = lanes.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![0u128; self.n];
        self.basis.combine_into(&lane_refs, &mut out);
        Ok(out)
    }
}

/// Schoolbook negacyclic multiplication over a `u128` modulus — the
/// oracle for the RNS path. Quadratic; test sizes only.
#[allow(clippy::needless_range_loop)] // paired i/j indexing mirrors the math
pub fn schoolbook_u128(a: &[u128], b: &[u128], modulus: u128) -> Vec<u128> {
    let n = a.len();
    assert_eq!(n, b.len());
    // Guard against overflow: operands must keep a·b + acc within u128.
    // Π q_i < 2^63 in all oracle comparisons, so products are < 2^126.
    assert!(modulus < 1 << 63, "oracle limited to moduli below 2^63");
    let mut out = vec![0u128; n];
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        for j in 0..n {
            let prod = (a[i] * b[j]) % modulus;
            let k = i + j;
            if k < n {
                out[k] = (out[k] + prod) % modulus;
            } else {
                out[k - n] = (out[k - n] + modulus - prod) % modulus;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use modmath::primes;

    fn rand_vec(n: usize, modulus: u128, seed: u64) -> Vec<u128> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state as u128) % modulus
            })
            .collect()
    }

    #[test]
    fn matches_schoolbook_oracle_k2_to_k4() {
        for k in 2..=4 {
            let moduli = [7681u64, 12289, 40961, 65537];
            let mult = RnsMultiplier::new(64, &moduli[..k]).unwrap();
            let q = mult.modulus();
            let a = rand_vec(64, q, 1);
            let b = rand_vec(64, q, 2);
            assert_eq!(
                mult.multiply(&a, &b).unwrap(),
                schoolbook_u128(&a, &b, q),
                "k = {k}"
            );
        }
    }

    #[test]
    fn wide_modulus_actually_used() {
        // A coefficient above every single prime must survive intact:
        // x · 1 = x.
        let mult = RnsMultiplier::new(64, &[12289, 40961]).unwrap();
        let q = mult.modulus();
        assert!(q > 1 << 28, "composite modulus is wide: {q}");
        let mut a = vec![0u128; 64];
        a[0] = q - 1; // larger than any prime alone
        let mut one = vec![0u128; 64];
        one[0] = 1;
        let c = mult.multiply(&a, &one).unwrap();
        assert_eq!(c[0], q - 1);
    }

    #[test]
    fn discovered_basis_works() {
        let mult = RnsMultiplier::with_discovered_basis(256, 3, 1 << 14).unwrap();
        let m = mult.channel_moduli();
        assert_eq!(m.len(), 3);
        assert!(m[0] > 1 << 14 && m.windows(2).all(|w| w[0] < w[1]));
        for &q in m {
            assert!(primes::supports_negacyclic_ntt(q, 256));
        }
        let q = mult.modulus();
        let a = rand_vec(256, q, 5);
        // Spot identity: multiply by x shifts negacyclically.
        let mut x = vec![0u128; 256];
        x[1] = 1;
        let shifted = mult.multiply(&a, &x).unwrap();
        assert_eq!(shifted[1], a[0]);
        assert_eq!(shifted[0], (q - a[255]) % q);
    }

    #[test]
    fn degree_mismatch_errors() {
        let mult = RnsMultiplier::new(64, &[12289, 40961]).unwrap();
        assert!(mult.multiply(&[0; 32], &[0; 64]).is_err());
    }

    #[test]
    fn channel_requirements_enforced() {
        // 17 is prime but does not support a length-64 negacyclic NTT.
        assert!(matches!(
            RnsMultiplier::new(64, &[12289, 17]),
            Err(Error::NoRootOfUnity { q: 17, .. })
        ));
        // Composite channel.
        assert!(matches!(
            RnsMultiplier::new(64, &[12289, 40962]),
            Err(Error::NotPrime { q: 40962 })
        ));
        // Too few channels.
        assert!(matches!(
            RnsMultiplier::new(64, &[12289]),
            Err(Error::BasisSize { k: 1 })
        ));
    }
}
