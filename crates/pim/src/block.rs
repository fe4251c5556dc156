//! The PIM-enabled memory block: a 512×512 ReRAM crossbar executing
//! vector-wide arithmetic (paper §III-B/C, Fig. 2).
//!
//! A block stores one `N`-bit value per row (data columns) and uses the
//! remaining columns as processing scratch. Every operation is
//! row-parallel: its cycle count is independent of how many rows
//! participate, while its energy scales with the active rows.
//!
//! Functional results are computed with word arithmetic; cycles come
//! from the gate-validated closed forms in [`crate::cost`] and energy
//! from [`crate::energy`]. The gate-level engine ([`crate::logic`])
//! cross-validates this in the test suite.

use crate::reduce::Reducer;
use crate::stats::Tally;
use crate::{cost, energy, PimError, Result, BLOCK_DIM};

/// Which multiplier microprogram a block uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiplierKind {
    /// CryptoPIM's optimized multiplier: `6.5N² − 11.5N + 3` cycles.
    CryptoPim,
    /// The baseline multiplier of Haj-Ali et al. \[35\]:
    /// `13N² − 14N + 6` cycles.
    HajAli,
}

impl MultiplierKind {
    /// Cycle cost of one vector-wide multiplication at width `n`.
    pub fn cycles(self, n: u32) -> u64 {
        match self {
            MultiplierKind::CryptoPim => cost::mul_cycles(n),
            MultiplierKind::HajAli => cost::mul_cycles_baseline(n),
        }
    }
}

/// One PIM-enabled memory block.
///
/// # Example
///
/// ```
/// use pim::block::MemoryBlock;
///
/// # fn main() -> Result<(), pim::PimError> {
/// let mut block = MemoryBlock::new(16)?;
/// let sums = block.add(&[1, 2, 3], &[10, 20, 30])?;
/// assert_eq!(sums, vec![11, 22, 33]);
/// assert_eq!(block.tally().cycles, 6 * 16 + 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemoryBlock {
    bitwidth: u32,
    rows: usize,
    tally: Tally,
}

impl MemoryBlock {
    /// Creates a standard 512-row block with an `N`-bit datapath.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnsupportedBitwidth`] unless `2 ≤ N ≤ 32` and
    /// `N` is even (products must fit the 64-bit word engine and the
    /// multiplier formula is specified for even widths).
    pub fn new(bitwidth: u32) -> Result<Self> {
        Self::with_rows(bitwidth, BLOCK_DIM)
    }

    /// Creates a block with a custom row count (used in tests and by the
    /// tail lane of a softbank when `n` is not a multiple of 512).
    ///
    /// # Errors
    ///
    /// Same as [`MemoryBlock::new`].
    pub fn with_rows(bitwidth: u32, rows: usize) -> Result<Self> {
        if !(2..=32).contains(&bitwidth) || !bitwidth.is_multiple_of(2) {
            return Err(PimError::UnsupportedBitwidth { width: bitwidth });
        }
        Ok(MemoryBlock {
            bitwidth,
            rows,
            tally: Tally::new(),
        })
    }

    /// The datapath width `N`.
    #[inline]
    pub fn bitwidth(&self) -> u32 {
        self.bitwidth
    }

    /// Rows in this block (vector capacity).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The accumulated cycle/energy tally of this block.
    #[inline]
    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// Resets the tally.
    pub fn reset_tally(&mut self) {
        self.tally = Tally::new();
    }

    fn check_operands(&self, a: &[u64], b: &[u64]) -> Result<()> {
        if a.len() != b.len() {
            return Err(PimError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        self.check_vector(a)
    }

    fn check_vector(&self, a: &[u64]) -> Result<()> {
        if a.len() > self.rows {
            return Err(PimError::VectorTooLong {
                len: a.len(),
                rows: self.rows,
            });
        }
        Ok(())
    }

    fn charge_compute(&mut self, cycles: u64, rows: usize) {
        self.tally.cycles += cycles;
        self.tally.compute_cycles += cycles;
        self.tally.energy_pj += energy::compute_energy_pj(cycles, rows);
    }

    fn charge_reduce(&mut self, cycles: u64, rows: usize) {
        self.tally.cycles += cycles;
        self.tally.reduce_cycles += cycles;
        self.tally.energy_pj += energy::compute_energy_pj(cycles, rows);
    }

    /// Charges the cycle/energy cost of a vector addition on `rows`
    /// rows without computing data. Cost-only twin of
    /// [`MemoryBlock::add`], for executions whose data path runs
    /// elsewhere (e.g. the engine's plan replay): charging the same op
    /// sequence in the same order reproduces the sequential tally
    /// bit-for-bit, because every charge depends only on the datapath
    /// width and the active row count — never on operand values.
    pub fn charge_add(&mut self, rows: usize) {
        self.charge_compute(cost::add_cycles(self.bitwidth), rows);
    }

    /// Cost-only twin of [`MemoryBlock::sub_plus_q`].
    pub fn charge_sub_plus_q(&mut self, rows: usize) {
        self.charge_compute(cost::sub_cycles(self.bitwidth), rows);
    }

    /// Cost-only twin of [`MemoryBlock::mul`].
    pub fn charge_mul(&mut self, rows: usize, kind: MultiplierKind) {
        self.charge_compute(kind.cycles(self.bitwidth), rows);
    }

    /// Cost-only twin of [`MemoryBlock::barrett`].
    pub fn charge_barrett(&mut self, rows: usize, reducer: &Reducer) {
        self.charge_reduce(reducer.barrett_cycles_for(self.bitwidth), rows);
    }

    /// Cost-only twin of [`MemoryBlock::montgomery`].
    pub fn charge_montgomery(&mut self, rows: usize, reducer: &Reducer) {
        self.charge_reduce(reducer.montgomery_cycles_for(self.bitwidth), rows);
    }

    /// Cost-only twin of [`MemoryBlock::mul_montgomery`].
    pub fn charge_mul_montgomery(&mut self, rows: usize, kind: MultiplierKind, reducer: &Reducer) {
        self.charge_mul(rows, kind);
        self.charge_montgomery(rows, reducer);
    }

    /// Charges one full Gentleman–Sande NTT stage: add + Barrett on the
    /// low side, sub + mul + REDC on the high side, each on `rows` rows
    /// (`n/2` for a degree-`n` transform). The charge order matches the
    /// engine's historical op sequence, so replaying this tally
    /// reproduces per-stage energy bit-for-bit.
    pub fn charge_ntt_stage(&mut self, rows: usize, kind: MultiplierKind, reducer: &Reducer) {
        self.charge_add(rows);
        self.charge_barrett(rows, reducer);
        self.charge_sub_plus_q(rows);
        self.charge_mul(rows, kind);
        self.charge_montgomery(rows, reducer);
    }

    /// Raw vector addition (no reduction): `a[i] + b[i]`, an `N+1`-bit
    /// result. Costs `6N + 1` cycles.
    ///
    /// # Errors
    ///
    /// Length mismatch or capacity overflow.
    pub fn add(&mut self, a: &[u64], b: &[u64]) -> Result<Vec<u64>> {
        self.check_operands(a, b)?;
        self.charge_add(a.len());
        Ok(a.iter().zip(b).map(|(&x, &y)| x + y).collect())
    }

    /// Butterfly subtraction: `a[i] + q − b[i]` (adding `q` keeps the
    /// result non-negative, as the 2's-complement hardware path does).
    /// Costs `7N + 1` cycles.
    ///
    /// # Errors
    ///
    /// Length mismatch or capacity overflow.
    pub fn sub_plus_q(&mut self, a: &[u64], b: &[u64], q: u64) -> Result<Vec<u64>> {
        self.check_operands(a, b)?;
        self.charge_sub_plus_q(a.len());
        Ok(a.iter().zip(b).map(|(&x, &y)| x + q - y).collect())
    }

    /// Raw vector multiplication: `a[i] · b[i]`, a `2N`-bit result.
    /// Costs `6.5N² − 11.5N + 3` or `13N² − 14N + 6` cycles depending on
    /// the multiplier kind.
    ///
    /// # Errors
    ///
    /// Length mismatch or capacity overflow.
    pub fn mul(&mut self, a: &[u64], b: &[u64], kind: MultiplierKind) -> Result<Vec<u64>> {
        self.check_operands(a, b)?;
        self.charge_mul(a.len(), kind);
        Ok(a.iter().zip(b).map(|(&x, &y)| x * y).collect())
    }

    /// Post-addition Barrett reduction of every element (input `< 2q`).
    /// Cost comes from the reducer's style (Table I for CryptoPIM).
    ///
    /// # Errors
    ///
    /// Capacity overflow.
    pub fn barrett(&mut self, a: &[u64], reducer: &Reducer) -> Result<Vec<u64>> {
        self.check_vector(a)?;
        self.charge_barrett(a.len(), reducer);
        Ok(a.iter().map(|&x| reducer.barrett(x)).collect())
    }

    /// Post-multiplication Montgomery reduction: maps each `2N`-bit
    /// product `p` to `p · R⁻¹ mod q`.
    ///
    /// # Errors
    ///
    /// Capacity overflow.
    pub fn montgomery(&mut self, a: &[u64], reducer: &Reducer) -> Result<Vec<u64>> {
        self.check_vector(a)?;
        self.charge_montgomery(a.len(), reducer);
        Ok(a.iter().map(|&x| reducer.montgomery(x)).collect())
    }

    /// Fused multiply-by-constants + Montgomery reduce, the workhorse of
    /// the twiddle/φ-scaling blocks: returns `REDC(a[i] · c[i])`.
    ///
    /// # Errors
    ///
    /// Length mismatch or capacity overflow.
    pub fn mul_montgomery(
        &mut self,
        a: &[u64],
        c: &[u64],
        kind: MultiplierKind,
        reducer: &Reducer,
    ) -> Result<Vec<u64>> {
        let prod = self.mul(a, c, kind)?;
        self.montgomery(&prod, reducer)
    }

    /// Absorbs an external tally (e.g. a switch transfer) into this
    /// block's accounting.
    pub fn absorb(&mut self, t: &Tally) {
        self.tally.absorb(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReductionStyle;

    fn reducer(q: u64) -> Reducer {
        Reducer::new(q, ReductionStyle::CryptoPim).unwrap()
    }

    #[test]
    fn add_then_barrett_is_modular_addition() {
        let q = 12289;
        let red = reducer(q);
        let mut blk = MemoryBlock::new(16).unwrap();
        let a = vec![12288, 5000, 0, 12288];
        let b = vec![12288, 9000, 0, 1];
        let raw = blk.add(&a, &b).unwrap();
        let reduced = blk.barrett(&raw, &red).unwrap();
        for i in 0..a.len() {
            assert_eq!(reduced[i], (a[i] + b[i]) % q);
        }
        assert_eq!(
            blk.tally().cycles,
            cost::add_cycles(16) + cost::barrett_cycles(q).unwrap()
        );
    }

    #[test]
    fn sub_plus_q_then_barrett_is_modular_subtraction() {
        let q = 7681;
        let red = reducer(q);
        let mut blk = MemoryBlock::new(16).unwrap();
        let a = vec![0, 5, 7680, 1000];
        let b = vec![1, 5, 0, 7000];
        let raw = blk.sub_plus_q(&a, &b, q).unwrap();
        let reduced = blk.barrett(&raw, &red).unwrap();
        for i in 0..a.len() {
            assert_eq!(reduced[i], (a[i] + q - b[i]) % q);
        }
    }

    #[test]
    fn mul_montgomery_with_prescaled_constant() {
        // Constants are stored pre-scaled by R, so REDC(a · cR) = a·c.
        let q = 12289u64;
        let red = reducer(q);
        let mut blk = MemoryBlock::new(16).unwrap();
        let a = vec![1u64, 2, 7000, 12288];
        let c = [3u64, 5, 11, 12288];
        let c_scaled: Vec<u64> = c.iter().map(|&x| red.to_mont(x)).collect();
        let out = blk
            .mul_montgomery(&a, &c_scaled, MultiplierKind::CryptoPim, &red)
            .unwrap();
        for i in 0..a.len() {
            assert_eq!(out[i], a[i] * c[i] % q, "i = {i}");
        }
    }

    #[test]
    fn cycle_accounting_matches_cost_model() {
        let q = 786433;
        let red = reducer(q);
        let mut blk = MemoryBlock::new(32).unwrap();
        let a = vec![1u64; 100];
        let _ = blk.mul(&a, &a, MultiplierKind::CryptoPim).unwrap();
        assert_eq!(blk.tally().compute_cycles, cost::mul_cycles(32));
        let _ = blk.montgomery(&a, &red).unwrap();
        assert_eq!(
            blk.tally().reduce_cycles,
            cost::montgomery_cycles(q).unwrap()
        );
        let before = blk.tally().cycles;
        let _ = blk.mul(&a, &a, MultiplierKind::HajAli).unwrap();
        assert_eq!(blk.tally().cycles - before, cost::mul_cycles_baseline(32));
    }

    #[test]
    fn energy_scales_with_rows_not_cycles_alone() {
        let mut small = MemoryBlock::new(16).unwrap();
        let mut large = MemoryBlock::new(16).unwrap();
        let _ = small.add(&[1; 10], &[2; 10]).unwrap();
        let _ = large.add(&[1; 100], &[2; 100]).unwrap();
        // Same cycles (row-parallel), 10× the energy.
        assert_eq!(small.tally().cycles, large.tally().cycles);
        assert!((large.tally().energy_pj / small.tally().energy_pj - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_and_length_checks() {
        let mut blk = MemoryBlock::with_rows(16, 4).unwrap();
        assert!(matches!(
            blk.add(&[1; 5], &[1; 5]),
            Err(PimError::VectorTooLong { .. })
        ));
        assert!(matches!(
            blk.add(&[1; 2], &[1; 3]),
            Err(PimError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn bitwidth_validation() {
        assert!(MemoryBlock::new(16).is_ok());
        assert!(MemoryBlock::new(32).is_ok());
        assert!(matches!(
            MemoryBlock::new(0),
            Err(PimError::UnsupportedBitwidth { .. })
        ));
        assert!(MemoryBlock::new(33).is_err());
        assert!(MemoryBlock::new(15).is_err(), "odd widths unsupported");
        assert!(MemoryBlock::new(64).is_err());
    }

    #[test]
    fn default_block_is_512_rows() {
        let blk = MemoryBlock::new(16).unwrap();
        assert_eq!(blk.rows(), 512);
        assert_eq!(blk.bitwidth(), 16);
    }

    #[test]
    fn reset_tally() {
        let mut blk = MemoryBlock::new(16).unwrap();
        let _ = blk.add(&[1], &[2]).unwrap();
        assert!(blk.tally().cycles > 0);
        blk.reset_tally();
        assert_eq!(blk.tally(), Tally::new());
    }

    #[test]
    fn charge_twins_match_real_ops_bit_for_bit() {
        let q = 12289;
        let red = reducer(q);
        let a = vec![7u64; 96];
        let mut real = MemoryBlock::new(16).unwrap();
        let _ = real.add(&a, &a).unwrap();
        let _ = real.barrett(&a, &red).unwrap();
        let _ = real.sub_plus_q(&a, &a, q).unwrap();
        let _ = real
            .mul_montgomery(&a, &a, MultiplierKind::CryptoPim, &red)
            .unwrap();
        let mut ghost = MemoryBlock::new(16).unwrap();
        ghost.charge_add(96);
        ghost.charge_barrett(96, &red);
        ghost.charge_sub_plus_q(96);
        ghost.charge_mul_montgomery(96, MultiplierKind::CryptoPim, &red);
        assert_eq!(real.tally(), ghost.tally());
        // f64 energy must match to the last bit, not just approximately:
        // the engine's bit-exact plan replay depends on it.
        assert_eq!(
            real.tally().energy_pj.to_bits(),
            ghost.tally().energy_pj.to_bits()
        );
    }

    /// Cross-validation: the word-level block op agrees bit-for-bit with
    /// the gate-level engine, and both match the closed-form cycle count.
    #[test]
    fn word_level_matches_gate_level() {
        use crate::logic::{from_columns, to_columns, GateEngine};
        let width = 16u32;
        let a: Vec<u64> = (0..256u64).map(|i| (i * 37) & 0xFFFF).collect();
        let b: Vec<u64> = (0..256u64).map(|i| (i * 91 + 5) & 0xFFFF).collect();

        let mut blk = MemoryBlock::new(width).unwrap();
        let word_sums = blk.add(&a, &b).unwrap();

        let mut eng = GateEngine::new();
        let cols = eng.add_words(
            &to_columns(&a, width as usize),
            &to_columns(&b, width as usize),
            width as usize,
        );
        let gate_sums = from_columns(&cols);

        assert_eq!(word_sums, gate_sums);
        assert_eq!(blk.tally().cycles, eng.trace().cycles());
    }
}
