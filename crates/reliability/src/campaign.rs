//! Seeded fault-injection campaigns over the recover-or-quarantine
//! serving stack.
//!
//! A campaign sweeps a grid of cells — fault kind × polynomial degree ×
//! injection rate — over one [`CellWorkload`]: raw multiplies, wide
//! RNS multiplies, or scripted protocol ops. Each cell makes one or two
//! passes over its seeded op stream:
//!
//! 1. **Serving pass.** A fresh one-bank [`Service`] with the cell's
//!    [`FaultPlan`] armed serves every op under the *sound*
//!    [`CheckPolicy::Recompute`] referee, and every output it returned
//!    is held bit for bit against an independent fault-free reference:
//!    the direct [`CryptoPim`] datapath, the sequential
//!    [`RnsMultiplier`] residue loop, or [`ProtocolJob::run_direct`].
//!    A corrupt output must never leave `wait()` — its node is
//!    detected-and-retried, surfaced as
//!    [`service::ServiceError::FaultUnrecovered`], or refused by a
//!    quarantined fleet. [`CellResult::wrong`] counts the violations
//!    and must be 0.
//! 2. **Screen pass** (raw cells only). The same plan (fresh write
//!    epochs) drives a direct accelerator under the cheap probabilistic
//!    [`CheckPolicy::Residue`] screen, measuring how many corrupted
//!    products the `O(n)`-per-point check flags ([`Screen`]).
//!    Transform-domain faults concentrate in few NTT bins and routinely
//!    escape a few-point screen (see `cryptopim::check`), which is why
//!    serving uses the referee and the screen is *reported*, not
//!    assumed.
//!
//! Everything is derived from [`CampaignConfig::seed`]: fault sites,
//! residue points, transient firings, and the op stream. Cells run on
//! a single bank with ops submitted serially, so the operation epochs
//! the transient/wear-out processes key on replay exactly — rerunning
//! a campaign reproduces every count.

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
use std::time::Instant;

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

/// The op stream every cell of a campaign serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// Raw multiplies, each one [`ProtocolJob::Mul`].
    Raw {
        /// When non-zero, `a` operands come from this many reused keys
        /// and the service runs a hot-operand cache of this capacity, so
        /// the cell also proves the *cached* datapath serves no wrong
        /// answer. 0 leaves the cache off.
        hot_keys: usize,
    },
    /// Wide multiplies, each one [`ProtocolJob::WideMul`] whose residue
    /// lanes run as its nodes. One engine execution makes thousands of
    /// writes, so useful transient rates sit around `1e-5`; at `1e-3`
    /// every attempt is corrupt and a lane only exhausts its attempts.
    Wide {
        /// Residue channels (`k`) of the basis; 2..=4.
        channels: usize,
    },
    /// Scripted protocol ops rotating Encaps → Decaps → Sign → SHE-Mul.
    /// A fault lands in one graph node and is retried alone. Ops run
    /// several engine executions each, so useful transient rates sit
    /// around `1e-4`.
    Protocols,
}

impl CellWorkload {
    /// Stable short label (JSON field values, report headers).
    pub fn label(&self) -> &'static str {
        match self {
            CellWorkload::Raw { .. } => "raw",
            CellWorkload::Wide { .. } => "wide",
            CellWorkload::Protocols => "protocols",
        }
    }
}

/// Campaign grid and per-cell serving parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every cell derives its own sites/points/ops seed.
    pub seed: u64,
    /// Degrees swept (paper-table degrees).
    pub degrees: Vec<usize>,
    /// Fault kinds swept.
    pub kinds: Vec<CampaignKind>,
    /// Injection rates swept. For permanent/wear-out kinds this is the
    /// fraction of pipeline words carrying a faulty bit; for transient
    /// it is the per-write flip probability.
    pub rates: Vec<f64>,
    /// Ops served per cell.
    pub jobs_per_cell: usize,
    /// Residue evaluation points per product in the raw screen pass
    /// (the serving pass always uses the sound recompute referee).
    pub check_points: u8,
    /// Execution attempts per multiply node before `FaultUnrecovered`.
    pub max_attempts: u32,
    /// Consecutive faulted batches that quarantine the bank.
    pub quarantine_after: u32,
    /// The op stream every cell serves.
    pub workload: CellWorkload,
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
            workload: CellWorkload::Raw { hot_keys: 0 },
        }
    }
}

/// What the residue screen saw in one raw cell's screen pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Screen {
    /// Products the fault plan actually corrupted (referee'd against the
    /// fault-free reference).
    pub corrupted: usize,
    /// Corrupted products the residue check flagged.
    pub detected: usize,
}

impl Screen {
    /// Fraction of corrupted products the screen caught (1.0 when the
    /// fault plan corrupted nothing).
    pub fn coverage(&self) -> f64 {
        if self.corrupted == 0 {
            1.0
        } else {
            self.detected as f64 / self.corrupted as f64
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
    /// Ops submitted.
    pub jobs: usize,
    /// Ops whose output came back (all held against the reference).
    pub served: usize,
    /// Served outputs that differed from the fault-free reference —
    /// escaped corruptions. The whole point: this must be 0.
    pub wrong: usize,
    /// Ops failed as a node-level `FaultUnrecovered` after exhausting
    /// attempts.
    pub unrecovered: usize,
    /// Ops refused (`Overloaded`) by a degraded/quarantined fleet.
    pub refused: usize,
    /// Ops failed with any other error (must be 0).
    pub failed: usize,
    /// Served ops where some multiply node needed a retry — for wide
    /// and protocol ops, the "a fault retries one node, not the whole
    /// op" evidence.
    pub retried: usize,
    /// Wall-clock of the checked, fault-injected service run, seconds.
    pub service_wall_s: f64,
    /// Wall-clock of the fault-free reference run, seconds.
    pub direct_wall_s: f64,
    /// The screen pass; measured on raw cells only.
    pub screen: Option<Screen>,
    /// Full scheduler statistics at the cell's shutdown: the referee's
    /// detections (`faults_detected`), `retries`, `recovered` nodes,
    /// `quarantined_banks` and `hot_hits` are read from here.
    pub stats: ServiceStats,
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
    /// Screen passes, aggregated: fraction of fault-corrupted products
    /// the probabilistic residue check flagged (1.0 when no product
    /// was corrupted; `None` when no cell ran a screen). Expect high
    /// values for coefficient-domain fault mixes and as low as
    /// `≈ check_points/n` for single-bin transform-domain faults.
    pub residue_coverage: Option<f64>,
    /// Checked-and-recovered serving wall-clock over the fault-free
    /// reference path: the price of the reliability machinery.
    pub recovery_overhead: f64,
}

impl CampaignReport {
    /// True when no corrupt output escaped and nothing failed for
    /// non-fault reasons.
    pub fn is_sound(&self) -> bool {
        self.wrong == 0 && self.cells.iter().all(|c| c.failed == 0)
    }
}

/// Builds the fault plan for one cell; `bits` is the word width faults
/// flip within.
fn cell_plan(
    kind: CampaignKind,
    rate: f64,
    n: usize,
    bits: u32,
    jobs: usize,
    seed: u64,
) -> FaultPlan {
    let log_n = n.trailing_zeros();
    let blocks = layout::blocks(log_n);
    let words = f64::from(blocks) * n as f64;
    let sites = ((rate * words).round() as usize).max(1);
    let seeded = |kind| FaultPlan::seeded(seed, kind, sites, 0, blocks, n as u32, bits as u8);
    match kind {
        CampaignKind::StuckAt0 => seeded(FaultKind::StuckAt0),
        CampaignKind::StuckAt1 => seeded(FaultKind::StuckAt1),
        CampaignKind::WearOut => seeded(FaultKind::WearOut {
            write_budget: (jobs as u64 / 2).max(1),
        }),
        CampaignKind::Transient => FaultPlan::new(seed).with_transient(rate, bits),
    }
}

/// One cell's seeded op stream and its fault-free reference.
struct CellStream {
    /// Seed of the cell's fault plan, residue points and ops.
    seed: u64,
    ops: Vec<ProtocolJob>,
    reference: Vec<ProtocolOutput>,
    /// Wall-clock of computing `reference`, seconds.
    direct_wall_s: f64,
    /// Word width the cell's faults flip bits within.
    bits: u32,
}

/// Builds one cell's op stream for the configured workload, with each
/// reference computed by a path independent of the service.
fn cell_stream(
    config: &CampaignConfig,
    kind: CampaignKind,
    degree: usize,
    rate: f64,
) -> CellStream {
    let n = config.jobs_per_cell;
    match config.workload {
        CellWorkload::Raw { hot_keys } => {
            let seed = splitmix64(
                config.seed
                    ^ splitmix64(
                        (kind.label().len() as u64) << 48
                            | (degree as u64) << 20
                            | rate.to_bits() >> 44
                            | u64::from(kind.label().as_bytes()[0]),
                    ),
            );
            let params = ParamSet::for_degree(degree).expect("campaign degree is a paper degree");
            let pairs = if hot_keys > 0 {
                generate_hot_jobs(seed, n, &[degree], hot_keys)
            } else {
                generate_jobs(seed, n, &[degree])
            };
            let direct = CryptoPim::new(&params).expect("paper parameters");
            let t = Instant::now();
            let reference = pairs
                .iter()
                .map(|(a, b)| direct.multiply(a, b).expect("fault-free multiply"))
                .map(ProtocolOutput::Product)
                .collect();
            CellStream {
                seed,
                direct_wall_s: t.elapsed().as_secs_f64(),
                reference,
                ops: pairs
                    .into_iter()
                    .map(|(a, b)| ProtocolJob::Mul { a, b })
                    .collect(),
                bits: 64 - params.q.leading_zeros(),
            }
        }
        CellWorkload::Wide { channels } => {
            let seed = splitmix64(config.seed ^ 0x57_1D_E0_0D ^ (degree as u64) << 24);
            let basis =
                RnsBasis::discover(degree, channels, 1 << 20).expect("discoverable wide basis");
            let seq = RnsMultiplier::with_basis(degree, basis.clone())
                .expect("basis fits the campaign degree");
            let q_wide = basis.modulus();
            let draw_wide = |salt: u64| -> Vec<u128> {
                (0..degree as u64)
                    .map(|i| {
                        let hi = splitmix64(seed ^ (salt << 40) ^ i) as u128;
                        let lo = splitmix64(seed ^ (salt << 40) ^ i ^ 0xABCD) as u128;
                        (hi << 64 | lo) % q_wide
                    })
                    .collect()
            };
            let pairs: Vec<(Vec<u128>, Vec<u128>)> = (0..n as u64)
                .map(|j| (draw_wide(2 * j + 1), draw_wide(2 * j + 2)))
                .collect();
            let t = Instant::now();
            let reference = pairs
                .iter()
                .map(|(a, b)| seq.multiply(a, b).expect("fault-free sequential loop"))
                .map(ProtocolOutput::WideProduct)
                .collect();
            let direct_wall_s = t.elapsed().as_secs_f64();
            // Bit flips bounded by the narrowest lane's word width stay
            // meaningful for every residue channel.
            let bits = basis
                .moduli()
                .iter()
                .map(|q| 64 - q.leading_zeros())
                .min()
                .expect("non-empty basis");
            CellStream {
                seed,
                ops: pairs
                    .into_iter()
                    .map(|(a, b)| ProtocolJob::WideMul {
                        a,
                        b,
                        basis: basis.clone(),
                    })
                    .collect(),
                reference,
                direct_wall_s,
                bits,
            }
        }
        CellWorkload::Protocols => {
            let seed = splitmix64(config.seed ^ 0x9A0B_0C0D ^ (degree as u64) << 24);
            const KINDS: [ProtocolKind; 4] = [
                ProtocolKind::Encaps,
                ProtocolKind::Decaps,
                ProtocolKind::Sign,
                ProtocolKind::SheMul,
            ];
            let ops: Vec<ProtocolJob> = (0..n)
                .map(|i| {
                    let kind = KINDS[i % KINDS.len()];
                    ProtocolJob::scripted(kind, degree, splitmix64(seed ^ i as u64))
                        .expect("scripted scenario at a paper degree")
                })
                .collect();
            let t = Instant::now();
            let reference = ops
                .iter()
                .map(|op| op.run_direct().expect("fault-free direct path"))
                .collect();
            let q = ParamSet::for_degree(degree).expect("paper degree").q;
            CellStream {
                seed,
                ops,
                reference,
                direct_wall_s: t.elapsed().as_secs_f64(),
                bits: 64 - q.leading_zeros(),
            }
        }
    }
}

/// Runs one cell: serve the seeded stream one op at a time through a
/// fresh one-bank, one-executor referee-checked service under the
/// cell's fault plan, hold every output against the fault-free
/// reference and classify each failure by the error of the node that
/// failed; then, for raw multiplies, measure the residue screen's
/// detection rate on the same stream. Serial submit → wait keeps
/// batches single-job and the operation epochs replayable.
fn run_cell(config: &CampaignConfig, kind: CampaignKind, degree: usize, rate: f64) -> CellResult {
    let stream = cell_stream(config, kind, degree, rate);
    let plan = Arc::new(cell_plan(
        kind,
        rate,
        degree,
        stream.bits,
        config.jobs_per_cell,
        stream.seed,
    ));
    let svc = Service::start(ServiceConfig {
        workers: 1,
        backpressure: Backpressure::Block,
        check: CheckPolicy::Recompute,
        max_attempts: config.max_attempts,
        quarantine_after: config.quarantine_after,
        injector: Some(plan.clone()),
        hot_capacity: match config.workload {
            CellWorkload::Raw { hot_keys } => hot_keys,
            _ => 0,
        },
        ..ServiceConfig::default()
    });
    let (mut served, mut wrong, mut unrecovered, mut refused, mut failed, mut retried) =
        (0, 0, 0, 0, 0, 0);
    let t = Instant::now();
    for (op, want) in stream.ops.iter().zip(&stream.reference) {
        match svc.submit_protocol(op.clone()).and_then(|t| t.wait()) {
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
    let service_wall_s = t.elapsed().as_secs_f64();
    let stats = svc.shutdown();

    // Screen pass: same plan on fresh write epochs, direct datapath,
    // probabilistic residue check — how good is the cheap screen?
    let screen = matches!(config.workload, CellWorkload::Raw { .. }).then(|| {
        let params = ParamSet::for_degree(degree).expect("paper degree");
        let screen_acc = CryptoPim::new(&params)
            .expect("paper parameters")
            .with_write_path(Some(plan.bank_writes(0)))
            .with_check(CheckPolicy::residue(config.check_points, stream.seed));
        let mut screen = Screen {
            corrupted: 0,
            detected: 0,
        };
        for (op, want) in stream.ops.iter().zip(&stream.reference) {
            let ProtocolJob::Mul { a, b } = op else {
                unreachable!("raw cells serve multiplies")
            };
            match screen_acc.multiply_product(a, b) {
                // The residue identity is exact, so a passed check can
                // still hide a transform-domain escape — the reference
                // is the referee here.
                Ok(product) => {
                    screen.corrupted += usize::from(ProtocolOutput::Product(product) != *want)
                }
                Err(pim::PimError::CorruptResult(_)) => {
                    screen.corrupted += 1;
                    screen.detected += 1;
                }
                Err(e) => panic!("screen pass failed outside the check: {e}"),
            }
        }
        screen
    });

    CellResult {
        kind,
        degree,
        rate,
        jobs: config.jobs_per_cell,
        served,
        wrong,
        unrecovered,
        refused,
        failed,
        retried,
        service_wall_s,
        direct_wall_s: stream.direct_wall_s,
        screen,
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
    let detected: u64 = cells.iter().map(|c| c.stats.faults_detected).sum();
    let wrong: usize = cells.iter().map(|c| c.wrong).sum();
    let service_wall: f64 = cells.iter().map(|c| c.service_wall_s).sum();
    let direct_wall: f64 = cells.iter().map(|c| c.direct_wall_s).sum();
    let residue_coverage = cells
        .iter()
        .filter_map(|c| c.screen)
        .reduce(|x, y| Screen {
            corrupted: x.corrupted + y.corrupted,
            detected: x.detected + y.detected,
        })
        .map(|s| s.coverage());
    CampaignReport {
        detection_coverage: if detected == 0 && wrong == 0 {
            1.0
        } else {
            detected as f64 / (detected as f64 + wrong as f64)
        },
        residue_coverage,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One soundness row per workload: a raw grid, and the wide and
    /// protocol cells at rates where faults land and recover.
    fn sound_rows() -> [CampaignConfig; 3] {
        let one_cell = |seed, rate, jobs_per_cell, workload| CampaignConfig {
            seed,
            degrees: vec![256],
            kinds: vec![CampaignKind::Transient],
            rates: vec![rate],
            jobs_per_cell,
            quarantine_after: 10,
            workload,
            ..CampaignConfig::default()
        };
        [
            CampaignConfig {
                seed: 77,
                degrees: vec![256],
                kinds: vec![CampaignKind::StuckAt1, CampaignKind::Transient],
                rates: vec![1e-3],
                jobs_per_cell: 6,
                ..CampaignConfig::default()
            },
            one_cell(31, 1e-5, 24, CellWorkload::Wide { channels: 2 }),
            CampaignConfig {
                max_attempts: 6,
                ..one_cell(31, 1e-4, 24, CellWorkload::Protocols)
            },
        ]
    }

    #[test]
    fn campaign_is_sound_and_deterministic() {
        for config in sound_rows() {
            let raw = matches!(config.workload, CellWorkload::Raw { .. });
            let label = config.workload.label();
            let a = run(&config);
            assert!(a.is_sound(), "escaped corruption: {a:?}");
            assert_eq!(a.wrong, 0);
            assert_eq!(a.cells.len(), config.kinds.len());
            for c in &a.cells {
                assert_eq!(
                    c.served + c.unrecovered + c.refused + c.failed,
                    c.jobs,
                    "every {label} op accounted for: {c:?}"
                );
                assert_eq!(c.screen.is_some(), raw, "only raw cells screen");
                if let Some(s) = c.screen {
                    assert!(s.detected <= s.corrupted);
                }
                if !raw {
                    // A fault lands in one residue lane or graph node,
                    // is detected, and that node alone retries.
                    assert_eq!(c.failed, 0, "non-fault failure: {c:?}");
                    assert!(
                        c.stats.faults_detected >= 1,
                        "seeded {label} faults must trip the referee"
                    );
                    assert!(
                        c.stats.recovered >= 1,
                        "detected {label} faults must recover"
                    );
                    assert!(c.retried >= 1, "some {label} op retried a node: {c:?}");
                }
            }
            let b = run(&config);
            for (x, y) in a.cells.iter().zip(&b.cells) {
                assert_eq!(
                    (
                        x.served,
                        x.wrong,
                        x.unrecovered,
                        x.refused,
                        x.stats.faults_detected,
                        x.stats.recovered,
                        x.retried,
                        x.screen
                    ),
                    (
                        y.served,
                        y.wrong,
                        y.unrecovered,
                        y.refused,
                        y.stats.faults_detected,
                        y.stats.recovered,
                        y.retried,
                        y.screen
                    ),
                    "{label} replay diverged at {} n={} rate={}",
                    x.kind.label(),
                    x.degree,
                    x.rate
                );
            }
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
            workload: CellWorkload::Raw { hot_keys: 4 },
            ..CampaignConfig::default()
        });
        assert!(report.is_sound(), "cached path served wrong: {report:?}");
        assert_eq!(report.wrong, 0);
        let hits: u64 = report.cells.iter().map(|c| c.stats.hot_hits).sum();
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
        let screen = report.cells[0].screen.expect("raw cells screen");
        assert!(screen.detected <= screen.corrupted);
        assert!(screen.coverage() <= 1.0);
    }

    #[test]
    fn clean_campaign_detects_nothing() {
        // Rate 0 still arms the permanent planner with one site via the
        // max(1) floor, so use a transient-only grid at rate 0.
        for workload in [
            CellWorkload::Raw { hot_keys: 0 },
            CellWorkload::Wide { channels: 2 },
            CellWorkload::Protocols,
        ] {
            let raw = matches!(workload, CellWorkload::Raw { .. });
            let report = run(&CampaignConfig {
                kinds: vec![CampaignKind::Transient],
                degrees: vec![256],
                rates: vec![0.0],
                jobs_per_cell: 4,
                workload,
                ..CampaignConfig::default()
            });
            let cell = &report.cells[0];
            assert_eq!(report.detected, 0, "{workload:?}");
            assert_eq!(report.wrong, 0);
            assert_eq!(report.detection_coverage, 1.0);
            assert!(report.is_sound());
            assert_eq!(cell.served, 4);
            assert_eq!(cell.retried, 0);
            assert_eq!(report.residue_coverage, raw.then_some(1.0));
            let want_screen = Screen {
                corrupted: 0,
                detected: 0,
            };
            assert_eq!(cell.screen, raw.then_some(want_screen));
        }
    }
}
