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
//! [`PolyMultiplier`] is the object-safe trait the RLWE layer and the
//! PIM-backed accelerator both implement, so schemes can swap backends.

use crate::poly::Polynomial;
use crate::{gs, merged, Result};
use modmath::params::ParamSet;
use modmath::roots::NttTables;
use modmath::{bitrev, shoup, zq, Error};
use std::time::Instant;

/// Wall-clock split of a batch multiply, reported by
/// [`NttMultiplier::multiply_batch_into`] so callers can attribute time
/// to transform work vs pointwise work without re-instrumenting the
/// kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPhaseTiming {
    /// Nanoseconds spent in forward + inverse transforms.
    pub transform_ns: u64,
    /// Nanoseconds spent in the pointwise product pass.
    pub pointwise_ns: u64,
}

impl BatchPhaseTiming {
    /// Accumulates another timing split into this one.
    pub fn accumulate(&mut self, other: BatchPhaseTiming) {
        self.transform_ns += other.transform_ns;
        self.pointwise_ns += other.pointwise_ns;
    }
}

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
    /// do not match the configured degree.
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
    /// order. Exposed so the frequency-domain representation can be
    /// cached across multiplications (C-INTERMEDIATE).
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
        let phi = self.tables.phi_powers();
        let phi_shoup = self.tables.phi_powers_shoup();
        // Lazy hot path: the φ pre-scaling leaves values in [0, 2q),
        // which is exactly what the lazy kernel accepts, and the GS
        // kernel's bit-reversal permutation is folded into the same
        // pass as a scatter. One normalization at the end restores
        // canonical form.
        let bits = bitrev::log2_exact(n).expect("degree is a power of two");
        let mut data = vec![0u64; n];
        for (i, &c) in a.coeffs().iter().enumerate() {
            data[bitrev::reverse_bits(i, bits)] = shoup::mul_lazy(c, phi[i], phi_shoup[i], q);
        }
        gs::gs_kernel_lazy_in_place(
            &mut data,
            self.tables.omega_powers(),
            self.tables.omega_powers_shoup(),
            q,
        );
        shoup::normalize_slice(&mut data, q);
        Ok(data)
    }

    /// Inverse negacyclic transform of a frequency-domain vector:
    /// `φ̄ ⊙ INTT(spec)` with the `n⁻¹` folded in.
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
        // Lazy inverse: kernel output stays in [0, 2q); the fused
        // φ^{-i}·n⁻¹ Shoup multiply performs the post-scaling and the
        // final normalization in one pass.
        bitrev::permute_in_place(&mut spec);
        gs::gs_kernel_lazy_in_place(
            &mut spec,
            self.tables.omega_inv_powers(),
            self.tables.omega_inv_powers_shoup(),
            q,
        );
        let fused = self.tables.phi_inv_n_inv_powers();
        let fused_shoup = self.tables.phi_inv_n_inv_powers_shoup();
        for (i, c) in spec.iter_mut().enumerate() {
            *c = shoup::mul(*c, fused[i], fused_shoup[i], q);
        }
        Polynomial::from_coeffs(spec, q)
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

    /// Batch-fused negacyclic multiply: `out[k] = a[k] · b[k]` for each
    /// stacked polynomial pair, walking every twiddle table once per
    /// stage across the whole batch. `a` and `b` are consumed as
    /// scratch (left in an unspecified state); `out` receives canonical
    /// natural-order products. No allocation.
    ///
    /// Returns the wall-clock [`BatchPhaseTiming`] split.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] on a length mismatch or when the
    /// length is not a positive multiple of the degree.
    pub fn multiply_batch_into(
        &self,
        a: &mut [u64],
        b: &mut [u64],
        out: &mut [u64],
    ) -> Result<BatchPhaseTiming> {
        self.check_batch(a.len())?;
        if a.len() != b.len() || a.len() != out.len() {
            return Err(Error::InvalidDegree { n: b.len() });
        }
        let t0 = Instant::now();
        merged::forward_lazy_batch_in_place(a, &self.tables);
        merged::forward_lazy_batch_in_place(b, &self.tables);
        let t1 = Instant::now();
        merged::pointwise_lazy(a, b, out, self.tables.modulus());
        let t2 = Instant::now();
        merged::inverse_batch_in_place(out, &self.tables);
        let t3 = Instant::now();
        Ok(BatchPhaseTiming {
            transform_ns: (t1 - t0).as_nanos() as u64 + (t3 - t2).as_nanos() as u64,
            pointwise_ns: (t2 - t1).as_nanos() as u64,
        })
    }

    /// Allocating convenience wrapper around
    /// [`NttMultiplier::multiply_batch_into`] for `Polynomial` slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] on a length mismatch between the
    /// operand slices or any operand and the configured degree.
    pub fn multiply_batch(&self, a: &[Polynomial], b: &[Polynomial]) -> Result<Vec<Polynomial>> {
        if a.len() != b.len() || a.is_empty() {
            return Err(Error::InvalidDegree { n: a.len() });
        }
        let n = self.tables.degree();
        let q = self.tables.modulus();
        for p in a.iter().chain(b) {
            if p.degree_bound() != n {
                return Err(Error::InvalidDegree {
                    n: p.degree_bound(),
                });
            }
        }
        let mut fa: Vec<u64> = a.iter().flat_map(|p| p.coeffs().iter().copied()).collect();
        let mut fb: Vec<u64> = b.iter().flat_map(|p| p.coeffs().iter().copied()).collect();
        let mut out = vec![0u64; fa.len()];
        self.multiply_batch_into(&mut fa, &mut fb, &mut out)?;
        out.chunks_exact(n)
            .map(|c| Polynomial::from_canonical_coeffs(c.to_vec(), q))
            .collect()
    }

    fn check_batch(&self, len: usize) -> Result<()> {
        let n = self.tables.degree();
        if len == 0 || !len.is_multiple_of(n) {
            return Err(Error::InvalidDegree { n: len });
        }
        Ok(())
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
        // Merged-twiddle pipeline: no φ-scaling passes, no bit-reversal
        // permutations — both spectra stay in the same bit-reversed lazy
        // domain, where the pointwise product commutes with the
        // permutation, so the canonical output is bit-identical to the
        // classic pipeline's.
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
