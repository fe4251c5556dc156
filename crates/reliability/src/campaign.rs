//! Seeded fault-injection campaigns over the recover-or-quarantine
//! serving stack.
//!
//! A campaign sweeps a grid of cells — fault kind × injection rate ×
//! polynomial degree — and each cell makes two passes over the same
//! seeded job stream:
//!
//! 1. **Serving pass.** A fresh one-bank [`Service`] with the cell's
//!    [`FaultPlan`] armed serves every job under the *sound*
//!    [`CheckPolicy::Recompute`] referee, and every answer the service
//!    did return is held against the fault-free direct engine path,
//!    bit for bit. The safety claim under test is exactly the serving
//!    layer's contract: a corrupt product never leaves `wait()` — it
//!    is either detected-and-retried, surfaced as
//!    [`service::ServiceError::FaultUnrecovered`], or refused outright
//!    by a quarantined fleet. [`CellResult::wrong`] counts the
//!    violations (served products that differ from the reference) and
//!    must be 0.
//! 2. **Screen pass.** The same plan (fresh write epochs) drives a
//!    direct accelerator under the cheap probabilistic
//!    [`CheckPolicy::Residue`] screen, measuring how many of the
//!    fault-corrupted products the `O(n)`-per-point check actually
//!    flags ([`CellResult::screen_detected`] out of
//!    [`CellResult::screen_corrupted`]). Transform-domain faults
//!    concentrate the error in few NTT bins and routinely escape a
//!    few-point screen — see `cryptopim::check` — which is why the
//!    serving pass uses the referee and the screen's coverage is
//!    *reported*, not assumed.
//!
//! Everything is derived from [`CampaignConfig::seed`]: fault sites,
//! residue points, transient firings, and the job stream. Cells run on
//! a single bank with jobs submitted serially, so the operation
//! epochs the transient/wear-out processes key on replay exactly —
//! rerunning a campaign reproduces every count.

use crate::plan::{FaultKind, FaultPlan};
use cryptopim::accelerator::CryptoPim;
use cryptopim::check::CheckPolicy;
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use ntt::negacyclic::PolyMultiplier;
use ntt::rns::RnsMultiplier;
use pim::fault::{layout, splitmix64, Injector};
use service::workload::{generate_hot_jobs, generate_jobs};
use service::{
    Backpressure, ProtocolJob, ProtocolKind, ProtocolOutput, Service, ServiceConfig, ServiceError,
    ServiceStats,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fault families a campaign can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// Permanent stuck-at-0 cells.
    StuckAt0,
    /// Permanent stuck-at-1 cells.
    StuckAt1,
    /// Transient per-write single-bit flips.
    Transient,
    /// Endurance wear-out: cells stick at 0 halfway through the cell's
    /// job budget.
    WearOut,
}

impl CampaignKind {
    /// Stable short label (JSON field values, report rows).
    pub fn label(&self) -> &'static str {
        match self {
            CampaignKind::StuckAt0 => "stuck0",
            CampaignKind::StuckAt1 => "stuck1",
            CampaignKind::Transient => "transient",
            CampaignKind::WearOut => "wearout",
        }
    }
}

/// Campaign grid and per-cell serving parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every cell derives its own sites/points/jobs seed.
    pub seed: u64,
    /// Degrees swept (paper-table degrees).
    pub degrees: Vec<usize>,
    /// Fault kinds swept.
    pub kinds: Vec<CampaignKind>,
    /// Injection rates swept. For permanent/wear-out kinds this is the
    /// fraction of pipeline words carrying a faulty bit; for transient
    /// it is the per-write flip probability.
    pub rates: Vec<f64>,
    /// Jobs served per cell.
    pub jobs_per_cell: usize,
    /// Residue evaluation points per product in the screen pass (the
    /// serving pass always uses the sound recompute referee).
    pub check_points: u8,
    /// Execution attempts per job before `FaultUnrecovered`.
    pub max_attempts: u32,
    /// Consecutive faulted batches that quarantine the bank.
    pub quarantine_after: u32,
    /// When non-zero, each cell's `a` operands are drawn from a pool of
    /// this many reused keys and the service runs with a hot-operand
    /// transform cache of the same capacity — the campaign then also
    /// proves the *cached* datapath serves zero wrong answers under
    /// injected faults. 0 (the default) leaves the cache off.
    pub hot_keys: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC0FFEE,
            degrees: vec![256, 1024],
            kinds: vec![
                CampaignKind::StuckAt0,
                CampaignKind::StuckAt1,
                CampaignKind::Transient,
                CampaignKind::WearOut,
            ],
            rates: vec![1e-4, 1e-3],
            jobs_per_cell: 24,
            check_points: 3,
            max_attempts: 3,
            quarantine_after: 3,
            hot_keys: 0,
        }
    }
}

/// Outcome of one campaign cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Fault family injected.
    pub kind: CampaignKind,
    /// Polynomial degree served.
    pub degree: usize,
    /// Injection rate (see [`CampaignConfig::rates`]).
    pub rate: f64,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs served with a product (all verified against the reference).
    pub served: usize,
    /// Served products that differed from the fault-free reference —
    /// escaped corruptions. The whole point: this must be 0.
    pub wrong: usize,
    /// Jobs failed as `FaultUnrecovered` after exhausting attempts.
    pub unrecovered: usize,
    /// Jobs refused (`Overloaded`) by a degraded/quarantined fleet.
    pub refused: usize,
    /// Jobs failed with any other error (must be 0).
    pub failed: usize,
    /// Corrupt products flagged by the serving pass's recompute referee.
    pub detected: u64,
    /// Detected-fault retries.
    pub retries: u64,
    /// Jobs that recovered on a retry.
    pub recovered: u64,
    /// Banks quarantined by the cell's end.
    pub quarantined_banks: usize,
    /// Wall-clock of the checked, fault-injected service run, seconds.
    pub service_wall_s: f64,
    /// Wall-clock of the fault-free direct reference run, seconds.
    pub direct_wall_s: f64,
    /// Screen pass: products the fault plan actually corrupted
    /// (referee'd against the fault-free reference).
    pub screen_corrupted: usize,
    /// Screen pass: corrupted products the residue check flagged.
    pub screen_detected: usize,
    /// Hot-operand cache hits during the serving pass (0 when
    /// [`CampaignConfig::hot_keys`] is 0).
    pub hot_hits: u64,
    /// Full scheduler statistics at the cell's shutdown. The headline
    /// counters above are copies of its fields; consumers wanting the
    /// whole picture (occupancy, latency quantiles, batch shapes)
    /// serialize this via [`ServiceStats::to_json`].
    pub stats: ServiceStats,
}

impl CellResult {
    /// Fraction of corrupted products the residue screen caught in this
    /// cell (1.0 when the fault plan corrupted nothing).
    pub fn residue_coverage(&self) -> f64 {
        if self.screen_corrupted == 0 {
            1.0
        } else {
            self.screen_detected as f64 / self.screen_corrupted as f64
        }
    }
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-cell results, grid order (kind, degree, rate).
    pub cells: Vec<CellResult>,
    /// Total serving-pass referee detections.
    pub detected: u64,
    /// Total escaped corruptions (served ≠ reference) — must be 0.
    pub wrong: usize,
    /// Serving-pass detections over result-corrupting activations that
    /// reached a served-or-detected verdict:
    /// `detected / (detected + wrong)`, 1.0 when nothing corrupted.
    /// Under the sound recompute referee this is 1.0 by construction;
    /// `wrong > 0` would mean the referee itself is broken.
    pub detection_coverage: f64,
    /// Screen pass, aggregated: fraction of fault-corrupted products
    /// the probabilistic residue check flagged (1.0 when no product
    /// was corrupted). Expect high values for coefficient-domain fault
    /// mixes and as low as `≈ check_points/n` for single-bin
    /// transform-domain faults.
    pub residue_coverage: f64,
    /// Checked-and-recovered serving wall-clock over the fault-free
    /// direct path: the price of the reliability machinery.
    pub recovery_overhead: f64,
}

impl CampaignReport {
    /// True when no corrupt product escaped and nothing failed for
    /// non-fault reasons.
    pub fn is_sound(&self) -> bool {
        self.wrong == 0 && self.cells.iter().all(|c| c.failed == 0)
    }
}

/// Builds the fault plan for one cell.
fn cell_plan(kind: CampaignKind, rate: f64, n: usize, q: u64, jobs: usize, seed: u64) -> FaultPlan {
    let log_n = n.trailing_zeros();
    let blocks = layout::blocks(log_n);
    let bits = (64 - q.leading_zeros()) as u8;
    let words = f64::from(blocks) * n as f64;
    let sites = ((rate * words).round() as usize).max(1);
    match kind {
        CampaignKind::StuckAt0 => {
            FaultPlan::seeded(seed, FaultKind::StuckAt0, sites, 0, blocks, n as u32, bits)
        }
        CampaignKind::StuckAt1 => {
            FaultPlan::seeded(seed, FaultKind::StuckAt1, sites, 0, blocks, n as u32, bits)
        }
        CampaignKind::WearOut => FaultPlan::seeded(
            seed,
            FaultKind::WearOut {
                write_budget: (jobs as u64 / 2).max(1),
            },
            sites,
            0,
            blocks,
            n as u32,
            bits,
        ),
        CampaignKind::Transient => FaultPlan::new(seed).with_transient(rate, u32::from(bits)),
    }
}

/// Runs one cell: serve the seeded stream through a one-bank
/// referee-checked service under the cell's fault plan, hold every
/// answer against the fault-free direct path, then measure the residue
/// screen's detection rate on the same stream.
fn run_cell(config: &CampaignConfig, kind: CampaignKind, degree: usize, rate: f64) -> CellResult {
    let cell_seed = splitmix64(
        config.seed
            ^ splitmix64(
                (kind.label().len() as u64) << 48
                    | (degree as u64) << 20
                    | rate.to_bits() >> 44
                    | u64::from(kind.label().as_bytes()[0]),
            ),
    );
    let params = ParamSet::for_degree(degree).expect("campaign degree is a paper degree");
    let jobs = if config.hot_keys > 0 {
        generate_hot_jobs(cell_seed, config.jobs_per_cell, &[degree], config.hot_keys)
    } else {
        generate_jobs(cell_seed, config.jobs_per_cell, &[degree])
    };

    // Fault-free reference (and the overhead baseline).
    let reference_acc = CryptoPim::new(&params).expect("paper parameters");
    let t = Instant::now();
    let reference: Vec<ProtocolOutput> = jobs
        .iter()
        .map(|(a, b)| reference_acc.multiply(a, b).expect("fault-free multiply"))
        .map(ProtocolOutput::Product)
        .collect();
    let direct_wall_s = t.elapsed().as_secs_f64();

    let plan = Arc::new(cell_plan(
        kind,
        rate,
        degree,
        params.q,
        config.jobs_per_cell,
        cell_seed,
    ));
    let ops: Vec<ProtocolJob> = jobs
        .iter()
        .map(|(a, b)| ProtocolJob::Mul {
            a: a.clone(),
            b: b.clone(),
        })
        .collect();
    let run = serve_cell(
        &ops,
        &reference,
        plan.clone(),
        config.max_attempts,
        config.quarantine_after,
        config.hot_keys,
    );
    let stats = run.stats;

    // Screen pass: same plan on fresh write epochs, direct datapath,
    // probabilistic residue check — how good is the cheap screen?
    let screen_acc = CryptoPim::new(&params)
        .expect("paper parameters")
        .with_write_path(Some(plan.bank_writes(0)))
        .with_check(CheckPolicy::residue(config.check_points, cell_seed));
    let (mut screen_corrupted, mut screen_detected) = (0, 0);
    for (k, (a, b)) in jobs.iter().enumerate() {
        match screen_acc.multiply_product(a, b) {
            Ok(product) => {
                // The residue identity is exact, so a passed check can
                // still hide a transform-domain escape — the reference
                // is the referee here.
                if ProtocolOutput::Product(product) != reference[k] {
                    screen_corrupted += 1;
                }
            }
            Err(pim::PimError::CorruptResult(_)) => {
                screen_corrupted += 1;
                screen_detected += 1;
            }
            Err(e) => panic!("screen pass failed outside the check: {e}"),
        }
    }

    CellResult {
        kind,
        degree,
        rate,
        jobs: config.jobs_per_cell,
        served: run.served,
        wrong: run.wrong,
        unrecovered: run.unrecovered,
        refused: run.refused,
        failed: run.failed,
        detected: stats.faults_detected,
        retries: stats.retries,
        recovered: stats.recovered,
        quarantined_banks: stats.quarantined_banks,
        service_wall_s: run.wall_s,
        direct_wall_s,
        screen_corrupted,
        screen_detected,
        hot_hits: stats.hot_hits,
        stats,
    }
}

/// Runs the full campaign grid.
pub fn run(config: &CampaignConfig) -> CampaignReport {
    assert!(
        !config.degrees.is_empty() && !config.kinds.is_empty() && !config.rates.is_empty(),
        "campaign grid must be non-empty"
    );
    let mut cells = Vec::new();
    for &kind in &config.kinds {
        for &degree in &config.degrees {
            for &rate in &config.rates {
                cells.push(run_cell(config, kind, degree, rate));
            }
        }
    }
    let detected: u64 = cells.iter().map(|c| c.detected).sum();
    let wrong: usize = cells.iter().map(|c| c.wrong).sum();
    let service_wall: f64 = cells.iter().map(|c| c.service_wall_s).sum();
    let direct_wall: f64 = cells.iter().map(|c| c.direct_wall_s).sum();
    let screen_corrupted: usize = cells.iter().map(|c| c.screen_corrupted).sum();
    let screen_detected: usize = cells.iter().map(|c| c.screen_detected).sum();
    CampaignReport {
        detection_coverage: if detected == 0 && wrong == 0 {
            1.0
        } else {
            detected as f64 / (detected as f64 + wrong as f64)
        },
        residue_coverage: if screen_corrupted == 0 {
            1.0
        } else {
            screen_detected as f64 / screen_corrupted as f64
        },
        recovery_overhead: if direct_wall > 0.0 {
            service_wall / direct_wall
        } else {
            0.0
        },
        cells,
        detected,
        wrong,
    }
}

/// Configuration of one **wide-modulus** campaign cell: seeded
/// transient faults injected while RNS-decomposed jobs stream through
/// the residue-sharded pipeline.
#[derive(Debug, Clone)]
pub struct WideCellConfig {
    /// Master seed for fault sites and the wide job stream.
    pub seed: u64,
    /// Polynomial degree served.
    pub degree: usize,
    /// Residue channels (`k`) of the discovered basis; 2..=4.
    pub channels: usize,
    /// Wide jobs served.
    pub jobs: usize,
    /// Per-write transient flip probability. One engine execution makes
    /// thousands of writes, so useful rates sit well below the narrow
    /// campaign's: around `1e-5` a fault lands every few lane
    /// executions and retries recover; at `1e-3` every attempt is
    /// corrupt and the lane can only exhaust its attempts.
    pub rate: f64,
    /// Execution attempts per residue-lane job before
    /// `FaultUnrecovered`.
    pub max_attempts: u32,
    /// Consecutive faulted batches that quarantine the bank.
    pub quarantine_after: u32,
}

impl Default for WideCellConfig {
    fn default() -> Self {
        WideCellConfig {
            seed: 0xC0FFEE,
            degree: 256,
            channels: 2,
            jobs: 24,
            rate: 1e-5,
            max_attempts: 3,
            quarantine_after: 10,
        }
    }
}

/// Outcome of one wide-modulus cell.
#[derive(Debug, Clone)]
pub struct WideCellResult {
    /// Residue channels of the basis actually used.
    pub channels: usize,
    /// Degree served.
    pub degree: usize,
    /// Injection rate.
    pub rate: f64,
    /// Wide jobs submitted.
    pub jobs: usize,
    /// Wide jobs whose recombined product came back.
    pub served: usize,
    /// Recombined products differing from the fault-free sequential
    /// residue loop — escaped corruptions. Must be 0.
    pub wrong: usize,
    /// Wide jobs failed as a lane-level `FaultUnrecovered`.
    pub unrecovered: usize,
    /// Wide jobs refused by a quarantine-degraded fleet (a lane came
    /// back `Overloaded`).
    pub refused: usize,
    /// Wide jobs failed with any other error (must be 0).
    pub failed: usize,
    /// Served wide jobs where at least one residue lane needed a retry
    /// — the "corrupt lane fails alone" evidence.
    pub lane_retry_jobs: usize,
    /// Referee detections across all residue-lane executions.
    pub detected: u64,
    /// Lane jobs that recovered on a retry.
    pub recovered: u64,
    /// Full scheduler statistics at shutdown.
    pub stats: ServiceStats,
}

/// Runs one wide-modulus cell: RNS-decomposed jobs stream as
/// `ProtocolJob::WideMul` graph ops through a one-bank referee-checked
/// service while a seeded transient process
/// flips written bits; every recombined product is held against the
/// fault-free sequential residue loop. A fault lands in exactly one
/// residue lane's execution, is detected by the per-lane recompute
/// referee, retried, and recovered — the sibling lanes never rerun and
/// the recombined answer is never wrong.
pub fn run_wide_cell(config: &WideCellConfig) -> WideCellResult {
    let cell_seed = splitmix64(config.seed ^ 0x57_1D_E0_0D ^ (config.degree as u64) << 24);
    let basis = RnsBasis::discover(config.degree, config.channels, 1 << 20)
        .expect("discoverable wide basis");
    let seq = RnsMultiplier::with_basis(config.degree, basis.clone())
        .expect("basis fits the campaign degree");
    let q_wide = basis.modulus();
    let draw_wide = |salt: u64| -> Vec<u128> {
        (0..config.degree as u64)
            .map(|i| {
                let hi = splitmix64(cell_seed ^ (salt << 40) ^ i) as u128;
                let lo = splitmix64(cell_seed ^ (salt << 40) ^ i ^ 0xABCD) as u128;
                (hi << 64 | lo) % q_wide
            })
            .collect()
    };
    let pairs: Vec<(Vec<u128>, Vec<u128>)> = (0..config.jobs as u64)
        .map(|j| (draw_wide(2 * j + 1), draw_wide(2 * j + 2)))
        .collect();
    let reference: Vec<ProtocolOutput> = pairs
        .iter()
        .map(|(a, b)| {
            ProtocolOutput::WideProduct(seq.multiply(a, b).expect("fault-free sequential loop"))
        })
        .collect();
    let jobs: Vec<ProtocolJob> = pairs
        .into_iter()
        .map(|(a, b)| ProtocolJob::WideMul {
            a,
            b,
            basis: basis.clone(),
        })
        .collect();

    // Bit flips bounded by the narrowest lane's word width stay
    // meaningful for every residue channel.
    let bits = basis
        .moduli()
        .iter()
        .map(|q| 64 - q.leading_zeros())
        .min()
        .expect("non-empty basis");
    let plan = Arc::new(FaultPlan::new(cell_seed).with_transient(config.rate, bits));
    let run = serve_cell(
        &jobs,
        &reference,
        plan,
        config.max_attempts,
        config.quarantine_after,
        0,
    );

    WideCellResult {
        channels: basis.moduli().len(),
        degree: config.degree,
        rate: config.rate,
        jobs: config.jobs,
        served: run.served,
        wrong: run.wrong,
        unrecovered: run.unrecovered,
        refused: run.refused,
        failed: run.failed,
        lane_retry_jobs: run.retried,
        detected: run.stats.faults_detected,
        recovered: run.stats.recovered,
        stats: run.stats,
    }
}

/// Configuration of one **protocol** campaign cell: seeded transient
/// faults injected while full RLWE protocol ops (KEM encaps/decaps,
/// signing, homomorphic multiply) stream through the job-graph layer.
#[derive(Debug, Clone)]
pub struct ProtocolCellConfig {
    /// Master seed for fault sites and the scripted op stream.
    pub seed: u64,
    /// Ring degree of every op.
    pub degree: usize,
    /// Protocol ops served (kinds rotate Encaps → Decaps → Sign →
    /// SHE-Mul).
    pub ops: usize,
    /// Per-write transient flip probability. Protocol ops run several
    /// engine executions each, so useful rates sit around `1e-4`: a
    /// fault lands in some node every few ops and that node's retries
    /// recover it.
    pub rate: f64,
    /// Execution attempts per graph node before `FaultUnrecovered`.
    pub max_attempts: u32,
    /// Consecutive faulted batches that quarantine the bank.
    pub quarantine_after: u32,
}

impl Default for ProtocolCellConfig {
    fn default() -> Self {
        ProtocolCellConfig {
            seed: 0xC0FFEE,
            degree: 256,
            ops: 24,
            rate: 1e-4,
            max_attempts: 6,
            quarantine_after: 10,
        }
    }
}

/// Outcome of one protocol cell.
#[derive(Debug, Clone)]
pub struct ProtocolCellResult {
    /// Degree served.
    pub degree: usize,
    /// Injection rate.
    pub rate: f64,
    /// Protocol ops submitted.
    pub ops: usize,
    /// Ops whose typed output came back.
    pub served: usize,
    /// Served outputs differing from the fault-free direct host path —
    /// escaped corruptions. Must be 0.
    pub wrong: usize,
    /// Ops failed as a node-level `FaultUnrecovered`.
    pub unrecovered: usize,
    /// Ops refused by a quarantine-degraded fleet.
    pub refused: usize,
    /// Ops failed with any other error (must be 0).
    pub failed: usize,
    /// Served ops where some graph node needed a retry — the "a fault
    /// retries one node, not the whole op" evidence.
    pub node_retry_ops: usize,
    /// Referee detections across all node executions.
    pub detected: u64,
    /// Node jobs that recovered on a retry.
    pub recovered: u64,
    /// Full scheduler statistics at shutdown.
    pub stats: ServiceStats,
}

/// Runs one protocol cell: scripted protocol ops stream through a
/// one-bank referee-checked service while a seeded transient process
/// flips written bits; every typed output is held against the
/// fault-free [`ProtocolJob::run_direct`] path. A fault lands in one
/// graph node's execution, is detected by the per-node recompute
/// referee, and retried alone — the op's other nodes never rerun and
/// the op's output is never wrong.
pub fn run_protocol_cell(config: &ProtocolCellConfig) -> ProtocolCellResult {
    let cell_seed = splitmix64(config.seed ^ 0x9A0B_0C0D ^ (config.degree as u64) << 24);
    const KINDS: [ProtocolKind; 4] = [
        ProtocolKind::Encaps,
        ProtocolKind::Decaps,
        ProtocolKind::Sign,
        ProtocolKind::SheMul,
    ];
    let jobs: Vec<ProtocolJob> = (0..config.ops)
        .map(|i| {
            let kind = KINDS[i % KINDS.len()];
            ProtocolJob::scripted(kind, config.degree, splitmix64(cell_seed ^ i as u64))
                .expect("scripted scenario at a paper degree")
        })
        .collect();
    let reference: Vec<_> = jobs
        .iter()
        .map(|j| j.run_direct().expect("fault-free direct path"))
        .collect();

    let q = ParamSet::for_degree(config.degree).expect("paper degree").q;
    let bits = 64 - q.leading_zeros();
    let plan = Arc::new(FaultPlan::new(cell_seed).with_transient(config.rate, bits));
    let run = serve_cell(
        &jobs,
        &reference,
        plan,
        config.max_attempts,
        config.quarantine_after,
        0,
    );

    ProtocolCellResult {
        degree: config.degree,
        rate: config.rate,
        ops: config.ops,
        served: run.served,
        wrong: run.wrong,
        unrecovered: run.unrecovered,
        refused: run.refused,
        failed: run.failed,
        node_retry_ops: run.retried,
        detected: run.stats.faults_detected,
        recovered: run.stats.recovered,
        stats: run.stats,
    }
}

/// What serving one cell's op stream saw.
struct CellRun {
    served: usize,
    wrong: usize,
    unrecovered: usize,
    refused: usize,
    failed: usize,
    /// Served ops where some multiply node needed a retry.
    retried: usize,
    /// Wall-clock of the serving loop, seconds.
    wall_s: f64,
    stats: ServiceStats,
}

/// Serves `jobs` one at a time through a fresh one-bank, one-executor
/// referee-checked service with `plan` armed (and a hot-operand cache of
/// `hot_capacity`, 0 for none), holding each typed output against
/// `reference` and classifying each failure by the error of the node
/// that failed. Serial submit → wait keeps batches single-job and the
/// operation epochs replayable.
fn serve_cell(
    jobs: &[ProtocolJob],
    reference: &[ProtocolOutput],
    plan: Arc<FaultPlan>,
    max_attempts: u32,
    quarantine_after: u32,
    hot_capacity: usize,
) -> CellRun {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        backpressure: Backpressure::Block,
        linger: Duration::ZERO,
        check: CheckPolicy::Recompute,
        max_attempts,
        quarantine_after,
        injector: Some(plan),
        hot_capacity,
        ..ServiceConfig::default()
    });
    let (mut served, mut wrong, mut unrecovered, mut refused, mut failed, mut retried) =
        (0, 0, 0, 0, 0, 0);
    let t = Instant::now();
    for (job, want) in jobs.iter().zip(reference) {
        let outcome = svc
            .submit_protocol(job.clone())
            .and_then(|ticket| ticket.wait());
        match outcome {
            Ok(done) => {
                served += 1;
                wrong += usize::from(done.output != *want);
                retried += usize::from(done.attempts > 1);
            }
            Err(e) => {
                let cause = match e {
                    ServiceError::ProtocolNode { error, .. } => *error,
                    other => other,
                };
                match cause {
                    ServiceError::FaultUnrecovered { .. } => unrecovered += 1,
                    ServiceError::Overloaded { .. } => refused += 1,
                    _ => failed += 1,
                }
            }
        }
    }
    CellRun {
        served,
        wrong,
        unrecovered,
        refused,
        failed,
        retried,
        wall_s: t.elapsed().as_secs_f64(),
        stats: svc.shutdown(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
        CampaignConfig {
            seed: 77,
            degrees: vec![256],
            kinds: vec![CampaignKind::StuckAt1, CampaignKind::Transient],
            rates: vec![1e-3],
            jobs_per_cell: 6,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_is_sound_and_deterministic() {
        let a = run(&tiny());
        assert!(a.is_sound(), "escaped corruption: {a:?}");
        assert_eq!(a.wrong, 0);
        assert_eq!(a.cells.len(), 2);
        for c in &a.cells {
            assert_eq!(
                c.served + c.unrecovered + c.refused,
                c.jobs,
                "every job accounted for: {c:?}"
            );
        }
        let b = run(&tiny());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(
                (x.served, x.wrong, x.unrecovered, x.refused, x.detected),
                (y.served, y.wrong, y.unrecovered, y.refused, y.detected),
                "replay diverged at {} n={} rate={}",
                x.kind.label(),
                x.degree,
                x.rate
            );
            assert_eq!(
                (x.screen_corrupted, x.screen_detected),
                (y.screen_corrupted, y.screen_detected),
                "screen pass replay diverged at {} n={} rate={}",
                x.kind.label(),
                x.degree,
                x.rate
            );
            assert!(x.screen_detected <= x.screen_corrupted);
        }
    }

    #[test]
    fn hot_cached_cell_stays_sound_and_actually_hits() {
        // The cached datapath under injected faults: reused `a` keys
        // drive the hot-operand cache, and the campaign's own referee
        // still holds every served product bit-exact against the
        // fault-free reference. A stale or corrupt cached transform
        // would show up here as `wrong > 0`.
        let report = run(&CampaignConfig {
            seed: 123,
            kinds: vec![CampaignKind::Transient, CampaignKind::StuckAt1],
            degrees: vec![256],
            rates: vec![1e-3],
            jobs_per_cell: 24,
            hot_keys: 4,
            ..CampaignConfig::default()
        });
        assert!(report.is_sound(), "cached path served wrong: {report:?}");
        assert_eq!(report.wrong, 0);
        let hits: u64 = report.cells.iter().map(|c| c.hot_hits).sum();
        assert!(hits > 0, "hot cache never exercised: {:?}", report.cells);
    }

    #[test]
    fn low_rate_transients_never_serve_wrong() {
        // The regression that motivated the recompute referee: rare
        // transient flips land in single NTT bins (pointwise block,
        // stage outputs) and slip past a few-point residue screen. The
        // serving pass must stay sound regardless of what the screen
        // coverage turns out to be.
        let report = run(&CampaignConfig {
            seed: 99,
            kinds: vec![CampaignKind::Transient],
            degrees: vec![256],
            rates: vec![5e-5],
            jobs_per_cell: 48,
            ..CampaignConfig::default()
        });
        assert!(report.is_sound(), "escaped corruption: {report:?}");
        assert_eq!(report.wrong, 0);
        assert_eq!(report.detection_coverage, 1.0);
        let cell = &report.cells[0];
        assert!(cell.screen_detected <= cell.screen_corrupted);
        assert!(cell.residue_coverage() <= 1.0);
    }

    #[test]
    fn wide_cell_recovers_faulted_lanes_without_wrong_recombination() {
        let config = WideCellConfig {
            seed: 31,
            jobs: 24,
            ..WideCellConfig::default()
        };
        let result = run_wide_cell(&config);
        assert_eq!(result.wrong, 0, "escaped wide corruption: {result:?}");
        assert_eq!(result.failed, 0, "non-fault failure: {result:?}");
        assert!(result.detected >= 1, "seeded faults must trip the referee");
        assert!(result.recovered >= 1, "detected faults must recover");
        assert!(result.lane_retry_jobs >= 1, "a lane retried alone");
        assert_eq!(
            result.served + result.unrecovered + result.refused + result.failed,
            result.jobs
        );
        // Deterministic: the same seed replays the same counts.
        let again = run_wide_cell(&config);
        assert_eq!(
            (
                result.served,
                result.wrong,
                result.detected,
                result.recovered
            ),
            (again.served, again.wrong, again.detected, again.recovered)
        );
    }

    #[test]
    fn clean_wide_cell_detects_nothing() {
        let result = run_wide_cell(&WideCellConfig {
            rate: 0.0,
            jobs: 4,
            ..WideCellConfig::default()
        });
        assert_eq!(result.served, 4);
        assert_eq!(result.wrong, 0);
        assert_eq!(result.detected, 0);
        assert_eq!(result.lane_retry_jobs, 0);
    }

    #[test]
    fn protocol_cell_recovers_node_faults_without_wrong_outputs() {
        let config = ProtocolCellConfig {
            seed: 31,
            ops: 24,
            ..ProtocolCellConfig::default()
        };
        let result = run_protocol_cell(&config);
        assert_eq!(result.wrong, 0, "escaped protocol corruption: {result:?}");
        assert_eq!(result.failed, 0, "non-fault failure: {result:?}");
        assert!(result.detected >= 1, "seeded faults must trip the referee");
        assert!(result.recovered >= 1, "detected faults must recover");
        assert!(
            result.node_retry_ops >= 1,
            "some op's node retried alone: {result:?}"
        );
        assert_eq!(
            result.served + result.unrecovered + result.refused + result.failed,
            result.ops
        );
        // Deterministic: the same seed replays the same counts.
        let again = run_protocol_cell(&config);
        assert_eq!(
            (
                result.served,
                result.wrong,
                result.detected,
                result.recovered,
                result.node_retry_ops
            ),
            (
                again.served,
                again.wrong,
                again.detected,
                again.recovered,
                again.node_retry_ops
            )
        );
    }

    #[test]
    fn clean_protocol_cell_detects_nothing() {
        let result = run_protocol_cell(&ProtocolCellConfig {
            rate: 0.0,
            ops: 4,
            ..ProtocolCellConfig::default()
        });
        assert_eq!(result.served, 4);
        assert_eq!(result.wrong, 0);
        assert_eq!(result.detected, 0);
        assert_eq!(result.node_retry_ops, 0);
    }

    #[test]
    fn clean_campaign_detects_nothing() {
        // Rate 0 still arms the permanent planner with one site via the
        // max(1) floor, so use a transient-only grid at rate 0.
        let report = run(&CampaignConfig {
            kinds: vec![CampaignKind::Transient],
            degrees: vec![256],
            rates: vec![0.0],
            jobs_per_cell: 4,
            ..CampaignConfig::default()
        });
        assert_eq!(report.detected, 0);
        assert_eq!(report.wrong, 0);
        assert_eq!(report.detection_coverage, 1.0);
        assert_eq!(report.residue_coverage, 1.0);
        assert!(report.is_sound());
        assert_eq!(report.cells[0].served, 4);
        assert_eq!(report.cells[0].screen_corrupted, 0);
        assert_eq!(report.cells[0].screen_detected, 0);
    }
}
