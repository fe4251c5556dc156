//! Algorithm 1: the NTT-based negacyclic polynomial multiplier.
//!
//! The negacyclic product in `Z_q[x]/(x^n + 1)` is computed as
//!
//! ```text
//! c = φ̄ ⊙ INTT( NTT(φ ⊙ a) ⊙ NTT(φ ⊙ b) )
//! ```
//!
//! where `φ ⊙ a` scales coefficient `i` by `φ^i` (the 2n-th root of
//! unity) and `φ̄` by `φ^{-i}`; the `n⁻¹` factor of the inverse transform
//! is folded into the post-scaling, mirroring the hardware pipeline where
//! that multiply shares the `c̄_i φ^{-i}` block.
//!
//! [`NttMultiplier`] computes it with the [`crate::merged`] kernels,
//! which fold both scalings into their twiddles; [`crate::gs`] keeps the
//! literal pipeline's transform as the oracle they are checked against.
//!
//! [`PolyMultiplier`] is the object-safe trait the RLWE layer and the
//! PIM-backed accelerator both implement, so schemes can swap backends.

use crate::poly::Polynomial;
use crate::{merged, Result};
use modmath::params::ParamSet;
use modmath::roots::NttTables;
use modmath::{bitrev, shoup, zq, Error};

/// Anything that can multiply two polynomials in `Z_q[x]/(x^n + 1)`.
///
/// Implemented by [`NttMultiplier`] (software reference),
/// `schoolbook`-based oracles, and the PIM-backed accelerator in the
/// `cryptopim` crate.
pub trait PolyMultiplier {
    /// The ring degree this multiplier is configured for.
    fn degree(&self) -> usize;

    /// The coefficient modulus.
    fn modulus(&self) -> u64;

    /// Multiplies `a · b` in `Z_q[x]/(x^n + 1)`.
    ///
    /// # Errors
    ///
    /// Implementations return [`Error::InvalidDegree`] when the operands
    /// do not match the configured degree, and
    /// [`Error::ModulusMismatch`] when one is reduced modulo another
    /// modulus.
    fn multiply(&self, a: &Polynomial, b: &Polynomial) -> Result<Polynomial>;

    /// Multiplies two *independent* products `a0 · b0` and `a1 · b1`.
    ///
    /// Protocol ops (PKE encrypt, SHE plaintext multiply, sign/verify)
    /// contain pairs of products with no data dependency between them;
    /// routing them through this hook lets batch-forming backends pack
    /// both into the same hardware batch. The default implementation
    /// simply multiplies sequentially, so every existing backend keeps
    /// bit-identical behaviour.
    ///
    /// # Errors
    ///
    /// Same contract as [`PolyMultiplier::multiply`]; the first failing
    /// product's error is returned.
    fn multiply_pair(
        &self,
        a0: &Polynomial,
        b0: &Polynomial,
        a1: &Polynomial,
        b1: &Polynomial,
    ) -> Result<(Polynomial, Polynomial)> {
        Ok((self.multiply(a0, b0)?, self.multiply(a1, b1)?))
    }
}

/// The software NTT-based multiplier (Algorithm 1).
///
/// # Example
///
/// ```
/// use modmath::params::ParamSet;
/// use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
/// use ntt::poly::Polynomial;
///
/// # fn main() -> Result<(), ntt::Error> {
/// let params = ParamSet::for_degree(256)?;
/// let mult = NttMultiplier::new(&params)?;
/// let x = {
///     let mut c = vec![0u64; 256];
///     c[1] = 1;
///     Polynomial::from_coeffs(c, params.q)?
/// };
/// let x2 = mult.multiply(&x, &x)?;
/// assert_eq!(x2.coeff(2), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NttMultiplier {
    tables: NttTables,
}

impl NttMultiplier {
    /// Builds a multiplier for the given parameter set.
    ///
    /// # Errors
    ///
    /// Propagates table-construction failures (bad degree, unfriendly
    /// modulus).
    pub fn new(params: &ParamSet) -> Result<Self> {
        Ok(NttMultiplier {
            tables: NttTables::new(params)?,
        })
    }

    /// Builds a multiplier for an explicit `(n, q)` pair.
    ///
    /// # Errors
    ///
    /// Same as [`NttMultiplier::new`].
    pub fn for_degree_modulus(n: usize, q: u64) -> Result<Self> {
        Ok(NttMultiplier {
            tables: NttTables::for_degree_modulus(n, q)?,
        })
    }

    /// The precomputed twiddle tables (shared with the PIM mapping).
    pub fn tables(&self) -> &NttTables {
        &self.tables
    }

    /// Forward negacyclic transform: returns `NTT(φ ⊙ a)` in natural
    /// order, canonical. Exposed so the frequency-domain representation
    /// can be cached across multiplications (C-INTERMEDIATE).
    ///
    /// This is a view over the merged kernel every multiply runs:
    /// [`forward_batch`] leaves spectrum value `X[k]` at index
    /// `rev(k)`, so one bit-reversal permutation and one normalization
    /// yield the natural-order canonical spectrum.
    ///
    /// [`forward_batch`]: NttMultiplier::forward_batch
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] on a length mismatch.
    pub fn forward(&self, a: &Polynomial) -> Result<Vec<u64>> {
        let n = self.tables.degree();
        if a.degree_bound() != n {
            return Err(Error::InvalidDegree {
                n: a.degree_bound(),
            });
        }
        let q = self.tables.modulus();
        let mut spec = a.coeffs().to_vec();
        reduce_words(&mut spec, q);
        merged::forward_lazy_batch_in_place(&mut spec, &self.tables);
        bitrev::permute_in_place(&mut spec);
        shoup::normalize_slice(&mut spec, q);
        Ok(spec)
    }

    /// Inverse negacyclic transform of a natural-order frequency-domain
    /// vector: `φ̄ ⊙ INTT(spec)` with the `n⁻¹` folded in — the inverse
    /// of [`forward`], as a view over [`inverse_batch`]. Words need not
    /// be canonical: any `u64` stands for its residue mod `q`.
    ///
    /// [`forward`]: NttMultiplier::forward
    /// [`inverse_batch`]: NttMultiplier::inverse_batch
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] on a length mismatch.
    pub fn inverse(&self, mut spec: Vec<u64>) -> Result<Polynomial> {
        let n = self.tables.degree();
        if spec.len() != n {
            return Err(Error::InvalidDegree { n: spec.len() });
        }
        let q = self.tables.modulus();
        reduce_words(&mut spec, q);
        bitrev::permute_in_place(&mut spec);
        merged::inverse_batch_in_place(&mut spec, &self.tables);
        Polynomial::from_canonical_coeffs(spec, q)
    }

    /// Pointwise product of two frequency-domain vectors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] on a length mismatch.
    pub fn pointwise(&self, a: &[u64], b: &[u64]) -> Result<Vec<u64>> {
        if a.len() != self.tables.degree() || b.len() != self.tables.degree() {
            return Err(Error::InvalidDegree { n: a.len() });
        }
        let q = self.tables.modulus();
        Ok(a.iter().zip(b).map(|(&x, &y)| zq::mul(x, y, q)).collect())
    }

    /// Batch forward transform over a flat buffer of stacked
    /// natural-order polynomials (`data.len()` a positive multiple of
    /// the degree), **in place**, leaving each block in the merged
    /// kernels' internal frequency domain: bit-reversed order, lazy
    /// `[0, 2q)` values.
    ///
    /// The batch kernels walk the twiddle tables once per stage for the
    /// whole batch, so B stacked transforms cost close to B× the inner
    /// loop of one — not B full table walks. The output layout is only
    /// meaningful to [`pointwise_batch`] / [`inverse_batch`]; use
    /// [`forward`] for cache-friendly natural-order spectra.
    ///
    /// [`pointwise_batch`]: NttMultiplier::pointwise_batch
    /// [`inverse_batch`]: NttMultiplier::inverse_batch
    /// [`forward`]: NttMultiplier::forward
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] when `data.len()` is not a
    /// positive multiple of the degree.
    pub fn forward_batch(&self, data: &mut [u64]) -> Result<()> {
        self.check_batch(data.len())?;
        merged::forward_lazy_batch_in_place(data, &self.tables);
        Ok(())
    }

    /// Batch inverse of [`forward_batch`]'s frequency domain: each block
    /// comes back in natural order, canonical, with `φ̄` and `n⁻¹`
    /// applied — the finished negacyclic coefficients.
    ///
    /// [`forward_batch`]: NttMultiplier::forward_batch
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] when `data.len()` is not a
    /// positive multiple of the degree.
    pub fn inverse_batch(&self, data: &mut [u64]) -> Result<()> {
        self.check_batch(data.len())?;
        merged::inverse_batch_in_place(data, &self.tables);
        Ok(())
    }

    /// Batch pointwise product in the merged frequency domain:
    /// `a[i] ← a[i]·b[i] mod q`, lazy in and out.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] on a length mismatch or when the
    /// length is not a positive multiple of the degree.
    pub fn pointwise_batch(&self, a: &mut [u64], b: &[u64]) -> Result<()> {
        self.check_batch(a.len())?;
        if a.len() != b.len() {
            return Err(Error::InvalidDegree { n: b.len() });
        }
        merged::pointwise_lazy_in_place(a, b, self.tables.modulus());
        Ok(())
    }

    fn check_batch(&self, len: usize) -> Result<()> {
        let n = self.tables.degree();
        if len == 0 || !len.is_multiple_of(n) {
            return Err(Error::InvalidDegree { n: len });
        }
        Ok(())
    }
}

/// Reduces `words` to canonical residues mod `q` in place, as
/// [`Polynomial::from_coeffs`] does: one comparison sweep, and the `%`
/// sweep only when some word is out of range. The merged kernels take
/// lazy `< 2q` input only, and their `u32` lanes would truncate wider
/// words.
fn reduce_words(words: &mut [u64], q: u64) {
    if words.iter().any(|&w| w >= q) {
        for w in words.iter_mut() {
            *w %= q;
        }
    }
}

impl PolyMultiplier for NttMultiplier {
    fn degree(&self) -> usize {
        self.tables.degree()
    }

    fn modulus(&self) -> u64 {
        self.tables.modulus()
    }

    fn multiply(&self, a: &Polynomial, b: &Polynomial) -> Result<Polynomial> {
        let n = self.tables.degree();
        if a.degree_bound() != n || b.degree_bound() != n {
            return Err(Error::InvalidDegree {
                n: a.degree_bound(),
            });
        }
        a.expect_modulus(self.tables.modulus())?;
        b.expect_modulus(self.tables.modulus())?;
        // Merged-twiddle pipeline: no φ-scaling passes, no bit-reversal
        // permutations — both spectra stay in the same bit-reversed lazy
        // domain, where the pointwise product commutes with the
        // permutation, so the canonical output is bit-identical to the
        // natural-order Algorithm-1 pipeline's.
        let mut fa = a.coeffs().to_vec();
        let mut fb = b.coeffs().to_vec();
        merged::forward_lazy_batch_in_place(&mut fa, &self.tables);
        merged::forward_lazy_batch_in_place(&mut fb, &self.tables);
        merged::pointwise_lazy_in_place(&mut fa, &fb, self.tables.modulus());
        merged::inverse_batch_in_place(&mut fa, &self.tables);
        Polynomial::from_canonical_coeffs(fa, self.tables.modulus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schoolbook;
    use proptest::prelude::*;

    fn mult(n: usize) -> NttMultiplier {
        let p = ParamSet::for_degree(n).unwrap();
        NttMultiplier::new(&p).unwrap()
    }

    fn rand_poly(n: usize, q: u64, seed: u64) -> Polynomial {
        // Simple deterministic LCG; tests don't need crypto randomness.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let coeffs: Vec<u64> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 16) % q
            })
            .collect();
        Polynomial::from_coeffs(coeffs, q).unwrap()
    }

    #[test]
    fn matches_schoolbook_small_degrees() {
        for (n, q) in [(4usize, 7681u64), (8, 7681), (16, 12289), (32, 12289)] {
            let m = NttMultiplier::for_degree_modulus(n, q).unwrap();
            for seed in 0..5 {
                let a = rand_poly(n, q, seed * 2 + 1);
                let b = rand_poly(n, q, seed * 2 + 2);
                assert_eq!(
                    m.multiply(&a, &b).unwrap(),
                    schoolbook::multiply(&a, &b).unwrap(),
                    "n = {n}, seed = {seed}"
                );
            }
        }
    }

    #[test]
    fn matches_schoolbook_paper_degrees() {
        for n in [256usize, 512, 1024] {
            let m = mult(n);
            let q = m.modulus();
            let a = rand_poly(n, q, 11);
            let b = rand_poly(n, q, 13);
            assert_eq!(
                m.multiply(&a, &b).unwrap(),
                schoolbook::multiply(&a, &b).unwrap(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn he_degrees_roundtrip() {
        // Schoolbook at 32k is too slow; validate via x·x^k identities
        // and forward/inverse roundtrips instead.
        for n in [2048usize, 32768] {
            let m = mult(n);
            let q = m.modulus();
            let a = rand_poly(n, q, 17);
            let spec = m.forward(&a).unwrap();
            let back = m.inverse(spec).unwrap();
            assert_eq!(back, a, "n = {n}");

            // x^{n/2} · x^{n/2} = x^n = −1.
            let mut h = vec![0u64; n];
            h[n / 2] = 1;
            let h = Polynomial::from_coeffs(h, q).unwrap();
            let sq = m.multiply(&h, &h).unwrap();
            assert_eq!(sq.coeff(0), q - 1, "n = {n}");
            assert!(sq.coeffs()[1..].iter().all(|&c| c == 0), "n = {n}");
        }
    }

    #[test]
    fn inverse_reduces_out_of_range_words() {
        // Any u64 word stands for its residue: words at q, 2q − 1, 2q
        // and near u64::MAX must give the polynomial of the reduced
        // spectrum, on the u32 lanes and on the u64 lanes.
        let wide_q = {
            let mut q = (1u64 << 30) + 1;
            while !modmath::primes::is_prime(q) {
                q += 512;
            }
            q
        };
        for q in [7681u64, wide_q] {
            let m = NttMultiplier::for_degree_modulus(256, q).unwrap();
            let canonical = rand_poly(256, q, 29).coeffs().to_vec();
            let spec: Vec<u64> = canonical
                .iter()
                .enumerate()
                .map(|(i, &x)| match i % 4 {
                    0 => x + q,
                    1 => 2 * q - 1,
                    2 => x + 2 * q,
                    _ => x + (u64::MAX - x) / q * q,
                })
                .collect();
            assert!(spec.iter().all(|&w| w >= q));
            assert!(spec.iter().skip(3).step_by(4).all(|&w| w > u64::MAX - q));
            let reduced: Vec<u64> = spec.iter().map(|&w| w % q).collect();
            assert_eq!(
                m.inverse(spec).unwrap(),
                m.inverse(reduced).unwrap(),
                "q = {q}"
            );
        }
    }

    #[test]
    fn multiply_by_one() {
        let m = mult(256);
        let q = m.modulus();
        let a = rand_poly(256, q, 3);
        let mut one = vec![0u64; 256];
        one[0] = 1;
        let one = Polynomial::from_coeffs(one, q).unwrap();
        assert_eq!(m.multiply(&a, &one).unwrap(), a);
    }

    #[test]
    fn degree_mismatch_errors() {
        let m = mult(256);
        let a = Polynomial::zero(128, m.modulus()).unwrap();
        let b = Polynomial::zero(256, m.modulus()).unwrap();
        assert!(m.multiply(&a, &b).is_err());
        assert!(m.forward(&a).is_err());
        assert!(m.inverse(vec![0; 128]).is_err());
        assert!(m.pointwise(&[0; 128], &[0; 256]).is_err());
    }

    #[test]
    fn foreign_modulus_operands_are_refused() {
        // Operands reduced mod q = 786433 on a q = 7681 multiplier: the
        // kernels would return a product mod 7681 of the wrong ring.
        let m = mult(256);
        let foreign = rand_poly(256, 786433, 5);
        let native = rand_poly(256, m.modulus(), 6);
        let refused = Err(Error::ModulusMismatch {
            expected: 7681,
            found: 786433,
        });
        assert_eq!(m.multiply(&foreign, &native), refused);
        assert_eq!(m.multiply(&native, &foreign), refused);
        assert_eq!(m.multiply(&foreign, &foreign), refused);
    }

    #[test]
    fn trait_object_usable() {
        let m = mult(256);
        let dyn_mult: &dyn PolyMultiplier = &m;
        assert_eq!(dyn_mult.degree(), 256);
        assert_eq!(dyn_mult.modulus(), 7681);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_matches_schoolbook(
            a in proptest::collection::vec(0u64..12289, 64),
            b in proptest::collection::vec(0u64..12289, 64),
        ) {
            let m = NttMultiplier::for_degree_modulus(64, 12289).unwrap();
            let pa = Polynomial::from_coeffs(a, 12289).unwrap();
            let pb = Polynomial::from_coeffs(b, 12289).unwrap();
            prop_assert_eq!(
                m.multiply(&pa, &pb).unwrap(),
                schoolbook::multiply(&pa, &pb).unwrap()
            );
        }

        #[test]
        fn prop_frequency_domain_is_multiplicative(
            a in proptest::collection::vec(0u64..7681, 32),
            b in proptest::collection::vec(0u64..7681, 32),
        ) {
            // forward(a·b) == forward(a) ⊙ forward(b)
            let m = NttMultiplier::for_degree_modulus(32, 7681).unwrap();
            let pa = Polynomial::from_coeffs(a, 7681).unwrap();
            let pb = Polynomial::from_coeffs(b, 7681).unwrap();
            let prod = m.multiply(&pa, &pb).unwrap();
            let lhs = m.forward(&prod).unwrap();
            let rhs = m.pointwise(&m.forward(&pa).unwrap(), &m.forward(&pb).unwrap()).unwrap();
            prop_assert_eq!(lhs, rhs);
        }
    }
}
