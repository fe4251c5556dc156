//! Chinese-remainder (RNS) composition of coprime prime moduli.
//!
//! Production homomorphic-encryption libraries (e.g. SEAL) represent
//! wide coefficient moduli as a residue number system over several
//! NTT-friendly primes, so every transform stays in machine words — the
//! natural multi-lane extension of CryptoPIM, where each residue channel
//! maps to its own softbank. [`RnsBasis`] is the k-residue composition
//! (k ∈ 2..=4) used by `ntt::rns` and the service's wide multiply.
//!
//! Recombination uses Garner's mixed-radix algorithm: the digits are
//! computed entirely in `u64` mulmods against precomputed pairwise
//! inverses, and only the final Horner accumulation touches `u128`, so
//! every intermediate stays below the composite modulus `Q ≤ u128::MAX`
//! — no 256-bit arithmetic and no overflow anywhere on the way up.

use crate::{primes, zq, Error};

/// Largest supported number of RNS residue channels.
pub const MAX_RNS_CHANNELS: usize = 4;

/// A k-residue RNS basis over distinct primes (k ∈ 2..=4), with
/// precomputed Garner constants for overflow-safe recombination and
/// division-free residue extraction.
///
/// # Example
///
/// ```
/// use modmath::crt::RnsBasis;
///
/// # fn main() -> Result<(), modmath::Error> {
/// let basis = RnsBasis::new(&[7681, 12289, 40961])?;
/// let x = 123_456_789_012u128 % basis.modulus();
/// let residues = basis.split(x);
/// assert_eq!(basis.combine(&residues), x);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsBasis {
    moduli: Vec<u64>,
    /// `∏ q_i` (validated to fit `u128`).
    modulus: u128,
    /// `(q_i mod q_j)⁻¹ mod q_j` for `i < j`, rows flattened:
    /// entry `(i, j)` lives at `j·(j−1)/2 + i`.
    garner_inv: Vec<u64>,
    /// `⌊2^64 / q_i⌋` — Barrett constant for the division-free residue
    /// fast path (only used when `q_i < 2^31`).
    mu: Vec<u64>,
    /// `2^64 mod q_i`.
    r64: Vec<u64>,
}

/// One lazy Barrett step: reduces `x` to `[0, 2q)` for `q < 2^63`,
/// using `µ = ⌊2^64/q⌋` (same bound argument as
/// [`crate::barrett::mul_lazy_mu`]).
#[inline]
fn lazy_reduce(x: u64, mu: u64, q: u64) -> u64 {
    let h = ((mu as u128 * x as u128) >> 64) as u64;
    x.wrapping_sub(h.wrapping_mul(q))
}

impl RnsBasis {
    /// Builds a basis from distinct primes.
    ///
    /// # Errors
    ///
    /// * [`Error::BasisSize`] unless `2 <= moduli.len() <= 4`.
    /// * [`Error::NotPrime`] if any modulus is composite (primality is
    ///   what guarantees the pairwise inverses exist).
    /// * [`Error::NotCoprime`] on duplicate moduli.
    /// * [`Error::BasisOverflow`] when `∏ q_i` exceeds `u128`.
    pub fn new(moduli: &[u64]) -> Result<Self, Error> {
        let k = moduli.len();
        if !(2..=MAX_RNS_CHANNELS).contains(&k) {
            return Err(Error::BasisSize { k });
        }
        for &q in moduli {
            if !primes::is_prime(q) {
                return Err(Error::NotPrime { q });
            }
        }
        for j in 1..k {
            for i in 0..j {
                if moduli[i] == moduli[j] {
                    return Err(Error::NotCoprime {
                        a: moduli[i],
                        b: moduli[j],
                    });
                }
            }
        }
        let mut modulus: u128 = 1;
        for &q in moduli {
            modulus = modulus.checked_mul(q as u128).ok_or(Error::BasisOverflow)?;
        }
        let mut garner_inv = Vec::with_capacity(k * (k - 1) / 2);
        for j in 1..k {
            for i in 0..j {
                // Distinct primes, so q_i mod q_j ≠ 0 and the inverse exists.
                garner_inv.push(zq::inv(moduli[i] % moduli[j], moduli[j])?);
            }
        }
        let mu = moduli
            .iter()
            .map(|&q| ((1u128 << 64) / q as u128) as u64)
            .collect();
        let r64 = moduli
            .iter()
            .map(|&q| ((1u128 << 64) % q as u128) as u64)
            .collect();
        Ok(RnsBasis {
            moduli: moduli.to_vec(),
            modulus,
            garner_inv,
            mu,
            r64,
        })
    }

    /// Builds a basis and additionally requires every channel to support
    /// a length-`n` negacyclic NTT (`2n | q_i − 1`), which is what the
    /// residue-sharded multiply pipeline needs.
    ///
    /// # Errors
    ///
    /// As [`RnsBasis::new`], plus [`Error::NoRootOfUnity`] for channels
    /// without a `2n`-th root of unity.
    pub fn for_degree(n: usize, moduli: &[u64]) -> Result<Self, Error> {
        let basis = Self::new(moduli)?;
        for &q in moduli {
            if !primes::supports_negacyclic_ntt(q, n) {
                return Err(Error::NoRootOfUnity {
                    q,
                    order: 2 * n as u64,
                });
            }
        }
        Ok(basis)
    }

    /// Discovers `k` ascending NTT-friendly primes above `floor` for
    /// degree `n` (chaining [`primes::find_ntt_prime`]) and builds the
    /// basis over them.
    ///
    /// # Errors
    ///
    /// As [`RnsBasis::new`]; a failed prime search (practically
    /// unreachable) surfaces as [`Error::NoRootOfUnity`].
    pub fn discover(n: usize, k: usize, floor: u64) -> Result<Self, Error> {
        if !(2..=MAX_RNS_CHANNELS).contains(&k) {
            return Err(Error::BasisSize { k });
        }
        let mut moduli = Vec::with_capacity(k);
        let mut above = floor;
        for _ in 0..k {
            let q = primes::find_ntt_prime(n, above).ok_or(Error::NoRootOfUnity {
                q: above,
                order: 2 * n as u64,
            })?;
            moduli.push(q);
            above = q;
        }
        Self::for_degree(n, &moduli)
    }

    /// The residue moduli, in basis order.
    #[inline]
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of residue channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.moduli.len()
    }

    /// The composite modulus `Q = ∏ q_i`.
    #[inline]
    pub fn modulus(&self) -> u128 {
        self.modulus
    }

    /// `x mod q_lane`, division-free for engine-sized moduli.
    ///
    /// For `q < 2^31` this runs three lazy Barrett steps on the two
    /// 64-bit limbs (`x = hi·2^64 + lo`); wider moduli fall back to the
    /// hardware divider.
    #[inline]
    pub fn residue(&self, x: u128, lane: usize) -> u64 {
        let q = self.moduli[lane];
        if q >= 1 << 31 {
            return (x % q as u128) as u64;
        }
        let mu = self.mu[lane];
        let lo = x as u64;
        let hi = (x >> 64) as u64;
        // hi·2^64 ≡ hi·(2^64 mod q); each lazy step leaves < 2q, and
        // (2q)·(q) < 2^63 keeps the products in u64 for q < 2^31.
        let hi_r = {
            let t = lazy_reduce(hi, mu, q);
            let t = t - q * u64::from(t >= q);
            lazy_reduce(t * self.r64[lane], mu, q)
        };
        let lo_r = lazy_reduce(lo, mu, q);
        let mut s = hi_r + lo_r; // < 4q < 2^33
        while s >= q {
            s -= q;
        }
        s
    }

    /// Splits one wide coefficient into all its residues.
    pub fn split(&self, x: u128) -> Vec<u64> {
        (0..self.channels()).map(|i| self.residue(x, i)).collect()
    }

    /// Splits a coefficient slice into one lane: `out[i] = xs[i] mod q_lane`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xs.len()` or `lane` is out of range.
    pub fn split_lane_into(&self, xs: &[u128], lane: usize, out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "lane buffer length mismatch");
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.residue(x, lane);
        }
    }

    /// Garner recombination of one residue vector (`residues[i] mod q_i`)
    /// into the canonical value mod `Q`.
    ///
    /// The mixed-radix digits are computed purely in `u64` mulmods; the
    /// final Horner pass accumulates `x = v_0 + q_0(v_1 + q_1(v_2 + …))`,
    /// whose every partial value is below `Q ≤ u128::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the channel count.
    #[inline]
    pub fn combine(&self, residues: &[u64]) -> u128 {
        assert_eq!(residues.len(), self.channels(), "residue count mismatch");
        let k = self.channels();
        let mut v = [0u64; MAX_RNS_CHANNELS];
        for j in 0..k {
            let qj = self.moduli[j];
            let mut t = residues[j] % qj;
            let row = j * j.saturating_sub(1) / 2;
            for (i, &vi) in v.iter().enumerate().take(j) {
                t = zq::mul(zq::sub(t, vi % qj, qj), self.garner_inv[row + i], qj);
            }
            v[j] = t;
        }
        let mut x = v[k - 1] as u128;
        for j in (0..k - 1).rev() {
            x = x * self.moduli[j] as u128 + v[j] as u128;
        }
        x
    }

    /// Vectorized recombination: `out[i] = combine(lanes[0][i], …)`.
    ///
    /// Processes the coefficient index space in cache-sized chunks so
    /// the `k` lane arrays stream instead of thrashing — this is the
    /// host-side join step of the wide-job pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len()` differs from the channel count or any
    /// lane's length differs from `out.len()`.
    pub fn combine_into(&self, lanes: &[&[u64]], out: &mut [u128]) {
        assert_eq!(lanes.len(), self.channels(), "lane count mismatch");
        for lane in lanes {
            assert_eq!(lane.len(), out.len(), "lane length mismatch");
        }
        const CHUNK: usize = 512;
        let k = self.channels();
        let mut start = 0;
        while start < out.len() {
            let end = (start + CHUNK).min(out.len());
            for idx in start..end {
                let mut residues = [0u64; MAX_RNS_CHANNELS];
                for (r, lane) in residues[..k].iter_mut().zip(lanes) {
                    *r = lane[idx];
                }
                out[idx] = self.combine(&residues[..k]);
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn combine_respects_every_residue() {
        let basis = RnsBasis::new(&[7681, 12289]).unwrap();
        let x = basis.combine(&[5, 9]);
        assert_eq!(x % 7681, 5);
        assert_eq!(x % 12289, 9);
        assert!(x < basis.modulus());
    }

    #[test]
    fn arithmetic_is_componentwise() {
        // (a·b) mod Q decomposes into component products.
        let basis = RnsBasis::new(&[7681, 12289]).unwrap();
        let a = 1_000_003u128 % basis.modulus();
        let b = 77_777u128;
        let prod = (a * b) % basis.modulus();
        let (ra, rb) = (basis.split(a), basis.split(b));
        let p1 = zq::mul(ra[0], rb[0], 7681);
        let p2 = zq::mul(ra[1], rb[1], 12289);
        assert_eq!(basis.combine(&[p1, p2]), prod);
    }

    #[test]
    fn rns_basis_roundtrip_k2_to_k4() {
        let bases = [
            RnsBasis::new(&[12289, 40961]).unwrap(),
            RnsBasis::new(&[7681, 12289, 40961]).unwrap(),
            RnsBasis::new(&[7681, 12289, 40961, 786433]).unwrap(),
        ];
        for basis in &bases {
            for x in [
                0u128,
                1,
                12288,
                12289,
                40961,
                503316479,
                503316480,
                basis.modulus() - 1,
                basis.modulus() / 2,
            ] {
                let x = x % basis.modulus();
                let residues = basis.split(x);
                assert_eq!(basis.combine(&residues), x, "k = {}", basis.channels());
                for (i, &r) in residues.iter().enumerate() {
                    assert_eq!(r as u128, x % basis.moduli()[i] as u128);
                }
            }
        }
    }

    #[test]
    fn rns_basis_rejects_bad_inputs_with_typed_errors() {
        assert!(matches!(
            RnsBasis::new(&[12289]),
            Err(Error::BasisSize { k: 1 })
        ));
        assert!(matches!(
            RnsBasis::new(&[7681, 12289, 40961, 786433, 65537]),
            Err(Error::BasisSize { k: 5 })
        ));
        assert!(matches!(
            RnsBasis::new(&[12288, 40961]),
            Err(Error::NotPrime { q: 12288 })
        ));
        assert!(matches!(
            RnsBasis::new(&[12289, 40962]),
            Err(Error::NotPrime { q: 40962 })
        ));
        assert!(matches!(
            RnsBasis::new(&[12289, 40961, 12289]),
            Err(Error::NotCoprime { a: 12289, b: 12289 })
        ));
        // Four near-2^64 primes: the product needs 255+ bits.
        assert!(matches!(
            RnsBasis::new(&[
                18446744073709551557,
                18446744073709551533,
                18446744073709551521,
                18446744073709551437,
            ]),
            Err(Error::BasisOverflow)
        ));
        // NTT-friendliness is enforced by for_degree, not new: 17 − 1 is
        // not divisible by 2·256.
        assert!(RnsBasis::new(&[17, 40961]).is_ok());
        assert!(matches!(
            RnsBasis::for_degree(256, &[17, 40961]),
            Err(Error::NoRootOfUnity { q: 17, .. })
        ));
    }

    #[test]
    fn rns_combine_at_extreme_moduli() {
        // Four primes just below 2^32: the product sits just below the
        // u128 ceiling (≈ 2^127.99), the hardest case for the Horner
        // accumulation. Residues at q_i − 1 recombine to Q − 1.
        let moduli = [4294967291u64, 4294967279, 4294967231, 4294967197];
        let basis = RnsBasis::new(&moduli).unwrap();
        assert!(
            basis.modulus() > u128::MAX / 2,
            "product should be near the ceiling"
        );
        let tops: Vec<u64> = moduli.iter().map(|&q| q - 1).collect();
        assert_eq!(basis.combine(&tops), basis.modulus() - 1);
        for x in [
            0u128,
            1,
            basis.modulus() - 1,
            basis.modulus() - 2,
            u128::MAX % basis.modulus(),
        ] {
            assert_eq!(basis.combine(&basis.split(x)), x);
        }
        // Two huge primes (above 2^63): exercises the wide-modulus
        // residue fallback path as well.
        let big = RnsBasis::new(&[18446744073709551557, 9223372036854775837]).unwrap();
        let tops: Vec<u64> = big.moduli().iter().map(|&q| q - 1).collect();
        assert_eq!(big.combine(&tops), big.modulus() - 1);
        for x in [0u128, 1, big.modulus() - 1, u128::MAX % big.modulus()] {
            assert_eq!(big.combine(&big.split(x)), x);
        }
    }

    #[test]
    fn rns_combine_into_matches_scalar() {
        let basis = RnsBasis::new(&[7681, 12289, 40961]).unwrap();
        let n = 1500usize; // not a multiple of the chunk size
        let xs: Vec<u128> = (0..n)
            .map(|i| (i as u128 * 0x9e3779b97f4a7c15) % basis.modulus())
            .collect();
        let mut lanes: Vec<Vec<u64>> = vec![vec![0; n]; 3];
        for (lane, buf) in lanes.iter_mut().enumerate() {
            basis.split_lane_into(&xs, lane, buf);
        }
        let lane_refs: Vec<&[u64]> = lanes.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![0u128; n];
        basis.combine_into(&lane_refs, &mut out);
        assert_eq!(out, xs);
    }

    #[test]
    fn rns_discover_finds_ascending_ntt_friendly_primes() {
        let basis = RnsBasis::discover(1024, 3, 1 << 14).unwrap();
        assert_eq!(basis.channels(), 3);
        let m = basis.moduli();
        assert!(m.windows(2).all(|w| w[0] < w[1]));
        for &q in m {
            assert!(primes::supports_negacyclic_ntt(q, 1024), "q = {q}");
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(x in any::<u128>()) {
            let basis = RnsBasis::new(&[12289, 786433]).unwrap();
            let x = x % basis.modulus();
            prop_assert_eq!(basis.combine(&basis.split(x)), x);
        }

        #[test]
        fn prop_rns_roundtrip(x in any::<u128>(), k in 2usize..=4) {
            let moduli = [7681u64, 12289, 40961, 786433];
            let basis = RnsBasis::new(&moduli[..k]).unwrap();
            let x = x % basis.modulus();
            prop_assert_eq!(basis.combine(&basis.split(x)), x);
        }

        #[test]
        fn prop_rns_residue_matches_division(x in any::<u128>(), lane in 0usize..3) {
            let basis = RnsBasis::new(&[7681, 536903681, 1073479681]).unwrap();
            prop_assert_eq!(
                basis.residue(x, lane) as u128,
                x % basis.moduli()[lane] as u128
            );
        }
    }
}
