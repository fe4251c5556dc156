//! The pipeline organizations of Fig. 4 and the analytic performance
//! model behind Fig. 5 / Table II.
//!
//! Each vector-wide operation lives in a memory block; blocks chain into
//! a pipeline. Three organizations are compared in the paper (16-bit,
//! n = 256 stage latencies in parentheses):
//!
//! * [`Organization::AreaEfficient`] (2700 cycles) — a whole butterfly
//!   and both of its reductions share one block.
//! * [`Organization::Naive`] (1756 cycles) — computation and modulo in
//!   separate blocks; the subtract feeding the multiplier handles the
//!   unreduced double-width intermediate, costing `7·(2N)+1`.
//! * [`Organization::CryptoPim`] (1643 cycles) — the paper's final
//!   design: `[sub → mul]` in one block and
//!   `[Montgomery → add/sub → Barrett]` combined in the next.
//!
//! Pipelined latency is `depth × stage`, where the critical stage is the
//! multiply block; throughput is one multiplication per stage time.
//! Non-pipelined execution runs the area-efficient chain sequentially
//! (fewest blocks and transfers — what one would build without
//! pipelining), which is what produces the paper's 29 % / 59.7 % latency
//! overheads and ≈ 1.6 % energy overhead of pipelining.
//!
//! This module is purely analytic — it never touches the worker pool or
//! the scratch arenas; those belong to the functional engine
//! (`crate::engine`, `pim::par`).

use crate::mapping::NttMapping;
use modmath::params::ParamSet;
use pim::block::MultiplierKind;
use pim::reduce::Reducer;
use pim::{cost, energy, Result, CYCLE_TIME_NS};

/// A pipeline organization from Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Organization {
    /// Fig. 4a: butterfly + reductions in one block per NTT stage.
    AreaEfficient,
    /// Fig. 4b: every operation in its own block, no stage fusion.
    Naive,
    /// Fig. 4c: the CryptoPIM organization (two blocks per NTT stage).
    CryptoPim,
}

impl std::fmt::Display for Organization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Organization::AreaEfficient => "area-efficient",
            Organization::Naive => "naive",
            Organization::CryptoPim => "CryptoPIM",
        };
        f.write_str(name)
    }
}

/// Latency/throughput/energy figures for one execution mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeReport {
    /// End-to-end latency for one polynomial multiplication, µs.
    pub latency_us: f64,
    /// Multiplications per second (one superbank).
    pub throughput: f64,
    /// Energy per multiplication, µJ.
    pub energy_uj: f64,
    /// Total cycles on the critical path.
    pub cycles: u64,
}

/// The analytic pipeline model for one parameter set.
#[derive(Debug, Clone)]
pub struct PipelineModel {
    params: ParamSet,
    reducer: Reducer,
    multiplier: MultiplierKind,
}

impl PipelineModel {
    /// Builds the model from a mapping (shares its reducer/cost style).
    pub fn new(mapping: &NttMapping) -> Self {
        PipelineModel {
            params: *mapping.params(),
            reducer: mapping.reducer().clone(),
            multiplier: MultiplierKind::CryptoPim,
        }
    }

    /// Selects the multiplier microprogram the model costs with (the
    /// BP-1 baseline uses \[35\]'s).
    pub fn with_multiplier(mut self, multiplier: MultiplierKind) -> Self {
        self.multiplier = multiplier;
        self
    }

    /// Builds the model directly from a parameter set with the standard
    /// CryptoPIM reduction style.
    ///
    /// # Errors
    ///
    /// Fails for moduli without a specialized reduction sequence.
    pub fn for_params(params: &ParamSet) -> Result<Self> {
        Ok(PipelineModel {
            params: *params,
            reducer: Reducer::new(params.q, pim::reduce::ReductionStyle::CryptoPim)?,
            multiplier: MultiplierKind::CryptoPim,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// The critical stage latency (cycles) under an organization.
    ///
    /// For the CryptoPIM organization this reproduces the paper's quoted
    /// 1643 (16-bit) and 6611 (32-bit) values: the multiply block plus
    /// the butterfly subtract (`7N`) and the switch transfer (`3N`).
    pub fn stage_latency(&self, org: Organization) -> u64 {
        let n = self.params.bitwidth;
        let mul = self.multiplier.cycles(n);
        match org {
            Organization::CryptoPim => mul + 10 * n as u64,
            Organization::Naive => {
                // Unfused: the subtract ahead of the multiplier works on
                // the unreduced 2N-bit intermediate.
                cost::sub_cycles(2 * n) + mul + cost::switch_transfer_cycles(n)
            }
            Organization::AreaEfficient => {
                cost::sub_cycles(n)
                    + mul
                    + self.reducer.montgomery_cycles_for(n)
                    + cost::add_cycles(n)
                    + self.reducer.barrett_cycles_for(n)
                    + cost::switch_transfer_cycles(n)
            }
        }
    }

    /// Pipeline depth (stages on the critical path) for degree `n` under
    /// an organization. In the CryptoPIM organization each NTT stage is
    /// two blocks and each scaling phase (ψ-pre, point-wise, ψ-post) is
    /// two blocks: `4·log2(n) + 6`. The area-efficient organization
    /// fuses each of those pairs: `2·log2(n) + 3`. The naive
    /// organization splits each NTT stage over five blocks
    /// (sub, mul, REDC, add, Barrett) and scaling over two:
    /// `10·log2(n) + 6`.
    pub fn depth(&self, org: Organization) -> u64 {
        let log_n = self.params.log2_n() as u64;
        match org {
            Organization::CryptoPim => 4 * log_n + 6,
            Organization::AreaEfficient => 2 * log_n + 3,
            Organization::Naive => 10 * log_n + 6,
        }
    }

    /// Blocks per bank (the paper's §III-D count: one bank carries one
    /// input polynomial's share of the chain — half the total blocks).
    pub fn blocks_per_bank(&self, org: Organization) -> u64 {
        // Total blocks: forward chains are duplicated per input.
        let log_n = self.params.log2_n() as u64;
        let total = match org {
            Organization::CryptoPim => 2 * (2 * log_n + 2) + 2 + (2 * log_n + 2),
            Organization::AreaEfficient => 2 * (log_n + 1) + 1 + (log_n + 1),
            Organization::Naive => 2 * (5 * log_n + 2) + 2 + (5 * log_n + 2),
        };
        total.div_ceil(2)
    }

    /// Total compute+reduce cycles of one full multiplication (the sum
    /// over every block's work — what the non-pipelined design executes
    /// sequentially and what both designs pay in energy).
    fn work_profile(&self) -> WorkProfile {
        let n = self.params.bitwidth;
        let log_n = self.params.log2_n() as u64;
        let mul_redc = self.multiplier.cycles(n) + self.reducer.montgomery_cycles_for(n);
        let stage = cost::add_cycles(n)
            + self.reducer.barrett_cycles_for(n)
            + cost::sub_cycles(n)
            + mul_redc;
        // Critical-path compute: premul (parallel banks → counted once),
        // forward stages (parallel), point-wise, inverse, post-multiply.
        let critical = mul_redc * 3 + stage * 2 * log_n;
        // Total work for energy: both forward chains count.
        let work_row_cycles = mul_redc * 4 + stage * 3 * log_n;
        WorkProfile {
            critical_compute: critical,
            total_work: work_row_cycles,
        }
    }

    /// Performance of the pipelined design (organization `org`): latency
    /// is depth × stage; throughput is one result per stage time.
    pub fn pipelined(&self, org: Organization) -> ModeReport {
        let stage = self.stage_latency(org);
        let depth = self.depth(org);
        let cycles = stage * depth;
        let latency_us = cycles as f64 * CYCLE_TIME_NS / 1000.0;
        let throughput = 1e9 / (stage as f64 * CYCLE_TIME_NS);
        ModeReport {
            latency_us,
            throughput,
            energy_uj: self.energy_uj(self.transfer_count(org)),
            cycles,
        }
    }

    /// Performance of the non-pipelined design: the area-efficient chain
    /// executed sequentially; one multiplication at a time.
    pub fn non_pipelined(&self) -> ModeReport {
        let n = self.params.bitwidth;
        let log_n = self.params.log2_n() as u64;
        let xfer = cost::switch_transfer_cycles(n);
        let scale_block = self.multiplier.cycles(n) + self.reducer.montgomery_cycles_for(n) + xfer;
        let stage_block = self.stage_latency(Organization::AreaEfficient);
        // Critical path: pre-scale, log n forward stages (two inputs in
        // parallel banks), point-wise, log n inverse stages, post-scale.
        let cycles = 3 * scale_block + 2 * log_n * stage_block;
        let latency_us = cycles as f64 * CYCLE_TIME_NS / 1000.0;
        ModeReport {
            latency_us,
            throughput: 1e6 / latency_us,
            energy_uj: self.energy_uj(self.transfer_count(Organization::AreaEfficient)),
            cycles,
        }
    }

    /// Inter-block transfers in one full multiplication under `org`
    /// (every block hands its result to the next through a switch).
    fn transfer_count(&self, org: Organization) -> u64 {
        let log_n = self.params.log2_n() as u64;
        match org {
            Organization::CryptoPim => 2 * (2 * log_n + 2) + 2 + (2 * log_n + 2),
            Organization::AreaEfficient => 2 * (log_n + 1) + 1 + (log_n + 1),
            Organization::Naive => 2 * (5 * log_n + 2) + 2 + (5 * log_n + 2),
        }
    }

    /// Energy of one multiplication: all compute work (identical across
    /// organizations — "the total amount of logic is the same") plus the
    /// organization's transfer energy (what makes pipelining ≈ 1.6 %
    /// more expensive).
    fn energy_uj(&self, transfers: u64) -> f64 {
        let n_rows = self.params.n;
        let wp = self.work_profile();
        // NTT-stage blocks activate n/2 rows per side; scale blocks
        // activate n rows. `total_work` already folds the per-phase op
        // cycles; row-weight them here.
        let n = self.params.bitwidth;
        let log_n = self.params.log2_n() as u64;
        let mul_redc = self.multiplier.cycles(n) + self.reducer.montgomery_cycles_for(n);
        let stage = cost::add_cycles(n)
            + self.reducer.barrett_cycles_for(n)
            + cost::sub_cycles(n)
            + mul_redc;
        let scale_energy = energy::compute_energy_pj(mul_redc * 4, n_rows);
        let stage_energy = energy::compute_energy_pj(stage * 3 * log_n, n_rows / 2);
        let xfer_energy =
            transfers as f64 * energy::transfer_energy_pj(n_rows, self.params.bitwidth);
        let _ = wp; // profile retained for the cross-check tests
        (scale_energy + stage_energy + xfer_energy) / 1e6
    }

    /// The engine-trace total for cross-checking the analytic model
    /// against the functional executor.
    pub fn expected_engine_compute_cycles(&self) -> u64 {
        self.work_profile().total_work
    }
}

#[derive(Debug, Clone, Copy)]
struct WorkProfile {
    #[allow(dead_code)]
    critical_compute: u64,
    total_work: u64,
}

/// Evaluates `(pipelined, non_pipelined)` reports for every degree,
/// fanning the independent model evaluations across host threads
/// (`threads`, see [`pim::par::Threads`]). Results are in input order
/// and identical to a sequential sweep for any worker count.
///
/// # Errors
///
/// Fails on the first degree without paper parameters or a specialized
/// reduction sequence.
pub fn sweep_reports(
    degrees: &[usize],
    org: Organization,
    threads: pim::par::Threads,
) -> Result<Vec<(ModeReport, ModeReport)>> {
    let workers = threads.resolve().min(degrees.len().max(1));
    pim::par::map_jobs(degrees, workers, |&n| {
        let params = ParamSet::for_degree(n)?;
        let model = PipelineModel::for_params(&params)?;
        Ok((model.pipelined(org), model.non_pipelined()))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::NttMapping;
    use pim::reduce::ReductionStyle;

    fn model(n: usize) -> PipelineModel {
        let p = ParamSet::for_degree(n).unwrap();
        PipelineModel::for_params(&p).unwrap()
    }

    #[test]
    fn parallel_sweep_matches_sequential_sweep() {
        use pim::par::Threads;
        let degrees: Vec<usize> = modmath::params::PAPER_DEGREES.to_vec();
        let seq = sweep_reports(&degrees, Organization::CryptoPim, Threads::Fixed(1)).unwrap();
        let par = sweep_reports(&degrees, Organization::CryptoPim, Threads::Fixed(4)).unwrap();
        assert_eq!(par, seq);
        assert_eq!(seq.len(), degrees.len());
        // Spot-check ordering: entry i really is degree i's report.
        let direct = model(degrees[2]).pipelined(Organization::CryptoPim);
        assert_eq!(seq[2].0, direct);
    }

    #[test]
    fn sweep_propagates_bad_degree_errors() {
        use pim::par::Threads;
        assert!(sweep_reports(&[256, 300], Organization::CryptoPim, Threads::Fixed(2)).is_err());
    }

    #[test]
    fn paper_stage_latencies_fig4() {
        // 16-bit, n = 256 (q = 7681): the three quoted values.
        let m = model(256);
        assert_eq!(m.stage_latency(Organization::AreaEfficient), 2700);
        assert_eq!(m.stage_latency(Organization::Naive), 1756);
        assert_eq!(m.stage_latency(Organization::CryptoPim), 1643);
    }

    #[test]
    fn paper_stage_latency_32bit() {
        // Table II implies 6611 cycles for the 32-bit stage.
        let m = model(2048);
        assert_eq!(m.stage_latency(Organization::CryptoPim), 6611);
    }

    #[test]
    fn paper_pipelined_latencies_table2() {
        // (n, paper latency µs) — ours must land within 0.1 %.
        let cases = [
            (256usize, 68.67),
            (512, 75.90),
            (1024, 83.12),
            (2048, 363.60),
            (4096, 392.69),
            (8192, 421.78),
            (16384, 450.87),
            (32768, 479.95),
        ];
        for (n, paper) in cases {
            let got = model(n).pipelined(Organization::CryptoPim).latency_us;
            let err = (got - paper).abs() / paper;
            assert!(err < 1e-3, "n = {n}: got {got:.2}, paper {paper}");
        }
    }

    #[test]
    fn paper_pipelined_throughput_table2() {
        // 553311/s for 16-bit, 137511/s for 32-bit.
        for (n, paper) in [(256usize, 553311.0), (1024, 553311.0), (32768, 137511.0)] {
            let got = model(n).pipelined(Organization::CryptoPim).throughput;
            let err: f64 = (got - paper).abs() / paper;
            assert!(err < 1e-3, "n = {n}: got {got:.0}, paper {paper}");
        }
    }

    #[test]
    fn depth_formula() {
        assert_eq!(model(256).depth(Organization::CryptoPim), 38);
        assert_eq!(model(512).depth(Organization::CryptoPim), 42);
        assert_eq!(model(32768).depth(Organization::CryptoPim), 66);
        assert_eq!(model(256).depth(Organization::AreaEfficient), 19);
    }

    #[test]
    fn blocks_per_bank_32k_is_49() {
        // §III-D: "A 32k NTT pipeline has 49 blocks. Hence, each bank has
        // 49 memory blocks."
        assert_eq!(model(32768).blocks_per_bank(Organization::CryptoPim), 49);
    }

    #[test]
    fn pipelining_overhead_shape() {
        // Fig. 5: ≈29 % latency overhead for 16-bit degrees, ≈59.7 % for
        // 32-bit; large throughput gains in both.
        let mut small = Vec::new();
        let mut large = Vec::new();
        for n in modmath::params::PAPER_DEGREES {
            let m = model(n);
            let p = m.pipelined(Organization::CryptoPim);
            let np = m.non_pipelined();
            let overhead = p.latency_us / np.latency_us - 1.0;
            let gain = p.throughput / np.throughput;
            assert!(overhead > 0.0, "pipelining must cost latency at n = {n}");
            assert!(gain > 10.0, "pipelining must boost throughput at n = {n}");
            if n <= 1024 {
                small.push(overhead);
            } else {
                large.push(overhead);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let s = avg(&small);
        let l = avg(&large);
        assert!(
            (0.15..0.45).contains(&s),
            "16-bit overhead ≈ 29 % (paper); got {s:.3}"
        );
        assert!(
            (0.45..0.75).contains(&l),
            "32-bit overhead ≈ 59.7 % (paper); got {l:.3}"
        );
        assert!(l > s, "32-bit pipelines are less balanced");
    }

    #[test]
    fn pipelining_energy_overhead_is_small() {
        // Fig. 5 discussion: pipelining costs ≈ 1.6 % more energy
        // (extra block-to-block transfers only).
        for n in modmath::params::PAPER_DEGREES {
            let m = model(n);
            let p = m.pipelined(Organization::CryptoPim).energy_uj;
            let np = m.non_pipelined().energy_uj;
            let overhead = p / np - 1.0;
            assert!(overhead > 0.0, "n = {n}");
            assert!(overhead < 0.05, "n = {n}: overhead {overhead:.4}");
        }
    }

    #[test]
    fn organization_ordering_matches_fig4() {
        for n in [256usize, 1024, 8192] {
            let m = model(n);
            let a = m.stage_latency(Organization::AreaEfficient);
            let b = m.stage_latency(Organization::Naive);
            let c = m.stage_latency(Organization::CryptoPim);
            assert!(a > b, "area-efficient slowest, n = {n}");
            assert!(b > c, "CryptoPIM fastest, n = {n}");
        }
    }

    #[test]
    fn throughput_constant_within_bitwidth() {
        let t16: Vec<f64> = [256usize, 512, 1024]
            .iter()
            .map(|&n| model(n).pipelined(Organization::CryptoPim).throughput)
            .collect();
        assert!(t16.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6));
        let t32: Vec<f64> = [2048usize, 32768]
            .iter()
            .map(|&n| model(n).pipelined(Organization::CryptoPim).throughput)
            .collect();
        assert!((t32[0] - t32[1]).abs() < 1e-6);
        assert!(t16[0] > t32[0], "16-bit pipelines are faster");
    }

    #[test]
    fn energy_grows_with_degree() {
        let mut last = 0.0;
        for n in modmath::params::PAPER_DEGREES {
            let e = model(n).pipelined(Organization::CryptoPim).energy_uj;
            assert!(e > last, "energy must grow with n (n = {n})");
            last = e;
        }
    }

    #[test]
    fn model_from_mapping_matches_for_params() {
        let p = ParamSet::for_degree(512).unwrap();
        let mapping = NttMapping::new(&p, ReductionStyle::CryptoPim).unwrap();
        let via_mapping = PipelineModel::new(&mapping);
        let direct = PipelineModel::for_params(&p).unwrap();
        assert_eq!(
            via_mapping.pipelined(Organization::CryptoPim).cycles,
            direct.pipelined(Organization::CryptoPim).cycles
        );
    }
}
