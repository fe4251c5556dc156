//! Data organization: Algorithm 1's constants laid out for the PIM
//! datapath (paper §III-B.1/B.2).
//!
//! Two hardware facts shape the layout:
//!
//! * **Bit-reversal is free.** A vector lives one-element-per-row, so
//!   `bitrev()` is just a permuted row write — no cycles.
//! * **Every multiplication is followed by a Montgomery REDC**
//!   (`x ↦ x·R⁻¹ mod q`). To make REDC produce the *intended* product,
//!   all constant multiplicands are stored pre-scaled by `R`:
//!   `REDC(a · cR) = a·c`. The second input polynomial is carried in
//!   Montgomery form through its whole forward transform (established by
//!   pre-scaling its φ constants by `R²`), so that the point-wise
//!   multiplication `REDC(Â · B̂R) = Â·B̂` lands back in normal form.
//!   This costs nothing: it only changes which constants are written
//!   into the data columns at configuration time.

use modmath::params::ParamSet;
use modmath::roots::NttTables;
use modmath::zq;
use pim::reduce::{Reducer, ReductionStyle};
use pim::Result;
use std::sync::OnceLock;

/// Precomputed, hardware-ready constant vectors for one parameter set.
///
/// The `R`-scaled vectors feed only the row datapath (an armed write
/// path, the bank simulation); they are built on first use,
/// so a fleet serving through the merged-kernel fast path never holds
/// them.
#[derive(Debug, Clone)]
pub struct NttMapping {
    params: ParamSet,
    tables: NttTables,
    reducer: Reducer,
    scaled: OnceLock<Scaled>,
}

/// The `R`-scaled constant vectors.
#[derive(Debug, Clone)]
struct Scaled {
    /// Forward twiddles `ω^i`, bit-reversed order, scaled by `R`.
    twiddle_fwd: Vec<u64>,
    /// Inverse twiddles `ω^{-i}`, bit-reversed order, scaled by `R`.
    twiddle_inv: Vec<u64>,
    /// First input's pre-multiply constants: `φ^i · R`.
    phi_a: Vec<u64>,
    /// Second input's pre-multiply constants: `φ^i · R²` (establishes
    /// Montgomery form).
    phi_b: Vec<u64>,
    /// Post-multiply constants: `φ^{-i} · n⁻¹ · R` (folds the inverse
    /// transform's scaling into the same block).
    phi_post: Vec<u64>,
}

impl Scaled {
    fn build(tables: &NttTables, reducer: &Reducer) -> Scaled {
        let q = tables.modulus();
        let scale = |v: u64| reducer.to_mont(v);
        let n_inv = tables.n_inv();
        Scaled {
            twiddle_fwd: tables.omega_powers().iter().map(|&w| scale(w)).collect(),
            twiddle_inv: tables
                .omega_inv_powers()
                .iter()
                .map(|&w| scale(w))
                .collect(),
            phi_a: tables.phi_powers().iter().map(|&p| scale(p)).collect(),
            // φ·R²: scale twice — REDC(b · φR²) = b·φ·R (Montgomery form).
            phi_b: tables
                .phi_powers()
                .iter()
                .map(|&p| scale(scale(p)))
                .collect(),
            phi_post: tables
                .phi_inv_powers()
                .iter()
                .map(|&p| scale(zq::mul(p, n_inv, q)))
                .collect(),
        }
    }
}

impl NttMapping {
    /// Builds the mapping for a parameter set, using the given reduction
    /// style for cost accounting (the CryptoPIM accelerator uses
    /// [`ReductionStyle::CryptoPim`]; baselines pass other styles).
    ///
    /// # Errors
    ///
    /// Fails when the modulus has no specialized reduction sequence or
    /// the degree admits no NTT.
    pub fn new(params: &ParamSet, style: ReductionStyle) -> Result<Self> {
        Ok(NttMapping {
            params: *params,
            tables: NttTables::new(params)?,
            reducer: Reducer::new(params.q, style)?,
            scaled: OnceLock::new(),
        })
    }

    /// The `R`-scaled vectors, built by the first caller.
    fn scaled(&self) -> &Scaled {
        self.scaled
            .get_or_init(|| Scaled::build(&self.tables, &self.reducer))
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// The underlying twiddle tables (unscaled).
    #[inline]
    pub fn tables(&self) -> &NttTables {
        &self.tables
    }

    /// The reduction engine (functional + cost).
    #[inline]
    pub fn reducer(&self) -> &Reducer {
        &self.reducer
    }

    /// Forward twiddles (bit-reversed order, `×R`).
    #[inline]
    pub fn twiddle_fwd(&self) -> &[u64] {
        &self.scaled().twiddle_fwd
    }

    /// Inverse twiddles (bit-reversed order, `×R`).
    #[inline]
    pub fn twiddle_inv(&self) -> &[u64] {
        &self.scaled().twiddle_inv
    }

    /// The forward twiddles stage `stage` actually consumes: block `b`
    /// of the stage (rows `[b·2^{stage+1}, (b+1)·2^{stage+1})`) uses
    /// factor `b`, so the stage reads exactly the length-`n/2^{stage+1}`
    /// prefix of the bit-reversed table.
    #[inline]
    pub fn twiddle_fwd_stage(&self, stage: u32) -> &[u64] {
        &self.twiddle_fwd()[..self.params.n >> (stage + 1)]
    }

    /// Per-stage slice of the inverse twiddles (see
    /// [`NttMapping::twiddle_fwd_stage`]).
    #[inline]
    pub fn twiddle_inv_stage(&self, stage: u32) -> &[u64] {
        &self.twiddle_inv()[..self.params.n >> (stage + 1)]
    }

    /// `φ^i · R` for the first input.
    #[inline]
    pub fn phi_a(&self) -> &[u64] {
        &self.scaled().phi_a
    }

    /// `φ^i · R²` for the second input.
    #[inline]
    pub fn phi_b(&self) -> &[u64] {
        &self.scaled().phi_b
    }

    /// `φ^{-i} · n⁻¹ · R` for the output block.
    #[inline]
    pub fn phi_post(&self) -> &[u64] {
        &self.scaled().phi_post
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping(n: usize) -> NttMapping {
        let p = ParamSet::for_degree(n).unwrap();
        NttMapping::new(&p, ReductionStyle::CryptoPim).unwrap()
    }

    #[test]
    fn scaled_constants_are_built_on_first_use_only() {
        let m = mapping(256);
        assert!(
            m.scaled.get().is_none(),
            "construction builds nothing R-scaled"
        );
        assert_eq!(m.phi_post().len(), 256);
        assert!(m.scaled.get().is_some());
    }

    #[test]
    fn scaled_constants_redc_back_to_originals() {
        let m = mapping(256);
        let red = m.reducer();
        for i in 0..128 {
            assert_eq!(
                red.montgomery(m.twiddle_fwd()[i]),
                m.tables().omega_powers()[i],
                "REDC(wR) = w at slot {i}"
            );
        }
        for i in 0..256 {
            assert_eq!(red.montgomery(m.phi_a()[i]), m.tables().phi_powers()[i]);
            // REDC(φR²) = φR = to_mont(φ).
            assert_eq!(
                red.montgomery(m.phi_b()[i]),
                red.to_mont(m.tables().phi_powers()[i])
            );
        }
    }

    #[test]
    fn post_constants_fold_n_inverse() {
        let m = mapping(64).tables().clone();
        let p = ParamSet::for_degree(64).unwrap();
        let map = NttMapping::new(&p, ReductionStyle::CryptoPim).unwrap();
        let q = p.q;
        for i in 0..64 {
            let expect = zq::mul(m.phi_inv_powers()[i], m.n_inv(), q);
            assert_eq!(map.reducer().montgomery(map.phi_post()[i]), expect);
        }
    }

    #[test]
    fn stage_slices_cover_exactly_the_consumed_factors() {
        let m = mapping(256);
        for stage in 0..8u32 {
            let len = 256usize >> (stage + 1);
            assert_eq!(m.twiddle_fwd_stage(stage).len(), len, "stage {stage}");
            assert_eq!(m.twiddle_inv_stage(stage).len(), len, "stage {stage}");
            assert_eq!(m.twiddle_fwd_stage(stage), &m.twiddle_fwd()[..len]);
            assert_eq!(m.twiddle_inv_stage(stage), &m.twiddle_inv()[..len]);
        }
        // The last stage uses a single factor: ω⁰ in Montgomery form.
        assert_eq!(m.twiddle_fwd_stage(7), &[m.reducer().to_mont(1)]);
    }

    #[test]
    fn all_paper_degrees_map() {
        for n in modmath::params::PAPER_DEGREES {
            let m = mapping(n);
            assert_eq!(m.twiddle_fwd().len(), n / 2);
            assert_eq!(m.phi_a().len(), n);
            assert_eq!(m.phi_b().len(), n);
            assert_eq!(m.phi_post().len(), n);
            assert_eq!(m.params().n, n);
        }
    }

    #[test]
    fn unsupported_modulus_fails() {
        // Any NTT-friendly prime below 2^31 maps since the generalized
        // reducers landed, so the rejection path needs a prime past the
        // 31-bit ceiling (2147483777 = 2^31 + 129 ≡ 1 mod 128).
        let p = ParamSet::custom(64, 2_147_483_777, 32).unwrap();
        assert!(NttMapping::new(&p, ReductionStyle::CryptoPim).is_err());
    }

    #[test]
    fn off_table_ntt_friendly_prime_maps() {
        // The flip side: a small odd NTT-friendly prime outside the
        // paper table (257 at n = 64) is now a valid configuration.
        let p = ParamSet::custom(64, 257, 16).unwrap();
        assert!(NttMapping::new(&p, ReductionStyle::CryptoPim).is_ok());
    }
}
