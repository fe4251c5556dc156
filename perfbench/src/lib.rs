//! The repository's benchmark: three closed-loop workloads driven
//! through the public `service` and `net` APIs, every output checked
//! against an independent oracle, end-to-end metrics from an untraced
//! run and per-layer metrics from a separate traced run.
//!
//! `README.md` in this directory lists the workloads, each metric's
//! definition and target, and the baseline medians.

mod drive;
mod layers;
pub mod metrics;
mod trace;
pub mod workload;

use cryptopim::phase::{self, PhaseSnapshot};
use drive::{OpSample, ProtoServe, Stop, TcpServe, Window};
use layers::Modeled;
use metrics::{median, metric, quantile, ratio, sorted, Metric};
use modmath::crt::RnsBasis;
use net::wire::Frame;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use service::{ProtocolJob, ProtocolKind, ProtocolOutput, ServiceStats};
use std::time::{Duration, Instant};
use trace::Spans;
use workload::{fnv64, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Samples that must lie beyond each sub-window's p99.
pub const MIN_TAIL_SAMPLES: usize = 10;
/// Length of the sub-windows whose medians the end-to-end timings are.
const SUB_WINDOW_S: f64 = 2.0;
/// Pairs the per-layer replays run on.
const REPLAY_PAIRS: usize = 16;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// What one invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every served output matched its oracle and no op failed.
    pub correct: bool,
    /// At least [`MIN_TAIL_SAMPLES`] latencies lie beyond the p99.
    pub tail_ok: bool,
    /// Ops in the timed window.
    pub attempted: u64,
    /// Of those, ops that failed or mismatched.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable detail: sample counts, ratio bases, trace file.
    pub notes: Vec<String>,
    /// Fingerprint of the generated op set.
    pub op_set: u64,
}

impl Outcome {
    /// The value of a named metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one invocation.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::ProtoReuse => run_proto(cfg, false),
        Workload::ProtoChurn => run_proto(cfg, true),
        Workload::Mul4096Tcp => run_tcp(cfg),
    }
}

/// Scheduler counters accumulated over the traced chunks.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    completed: u64,
    batches: u64,
    hot_hits: u64,
    hot_misses: u64,
    retries: u64,
    faults_detected: u64,
    wide_completed: u64,
}

impl Counters {
    fn add_delta(&mut self, after: &ServiceStats, before: &ServiceStats) {
        self.completed += after.completed - before.completed;
        self.batches += after.batches - before.batches;
        self.hot_hits += after.hot_hits - before.hot_hits;
        self.hot_misses += after.hot_misses - before.hot_misses;
        self.retries += after.retries - before.retries;
        self.faults_detected += after.faults_detected - before.faults_detected;
        self.wide_completed += after.wide_completed - before.wide_completed;
    }
}

/// The traced run's timed window, split into alternating traced and
/// untraced chunks (traced, untraced, untraced, traced) so the two
/// rates share the same drift.
struct Split {
    traced: Window,
    untraced: Window,
    counters: Counters,
    phase: PhaseSnapshot,
}

fn split_run<S>(
    serve: &mut S,
    run: impl Fn(&mut S, Stop, Option<Instant>) -> (Window, Spans),
    stats: impl Fn(&S) -> ServiceStats,
    seconds: f64,
    epoch: Instant,
    spans: &mut Spans,
) -> Split {
    let chunk = Stop::After(Duration::from_secs_f64(seconds / 4.0));
    let mut split = Split {
        traced: Window::default(),
        untraced: Window::default(),
        counters: Counters::default(),
        phase: PhaseSnapshot::default(),
    };
    for traced in [true, false, false, true] {
        let target = if traced {
            &mut split.traced
        } else {
            &mut split.untraced
        };
        let (stats_before, phase_before) = (stats(serve), phase::snapshot());
        let (w, s) = run(serve, chunk, traced.then_some(epoch));
        if traced {
            split.phase.add(&phase::snapshot().since(&phase_before));
            split.counters.add_delta(&stats(serve), &stats_before);
            spans.extend(s);
        }
        target.samples.extend(w.samples);
        target.elapsed_s += w.elapsed_s;
        target.quota_rejects += w.quota_rejects;
        target.wait_timeouts += w.wait_timeouts;
    }
    split
}

/// The last of [`SETUPS`] timed set-ups, and what they measured.
struct SetUp<S> {
    kept: S,
    setup_s: Vec<f64>,
    /// The kept set-up's warm-up pass.
    warm: Window,
    warm_failed: u64,
}

/// Sets up [`SETUPS`] times: `start` generates the inputs and starts the
/// service, `warm` serves one pass over the pool, and every set-up but
/// the last is stopped again.
fn set_up<S>(
    mut start: impl FnMut() -> S,
    mut warm: impl FnMut(&mut S) -> Window,
    stop: impl Fn(S),
) -> SetUp<S> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut warm_failed = 0;
    loop {
        let t0 = Instant::now();
        let mut kept = start();
        let pass = warm(&mut kept);
        setup_s.push(t0.elapsed().as_secs_f64());
        warm_failed += failures(&pass.samples);
        if setup_s.len() == SETUPS {
            return SetUp {
                kept,
                setup_s,
                warm: pass,
                warm_failed,
            };
        }
        stop(kept);
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn failures(samples: &[OpSample]) -> u64 {
    samples.iter().filter(|s| !s.ok).count() as u64
}

/// Untraced-run metrics, in `BENCHMARK.json` order.
fn end_to_end(
    w: &Window,
    setup_s: &[f64],
    modeled_per_op: Modeled,
    op_set: u64,
    warm_failed: u64,
    mut notes: Vec<String>,
) -> Outcome {
    let attempted = w.samples.len() as u64;
    let failed = failures(&w.samples);
    let ok_ops = (attempted - failed) as f64;
    // Each sub-window yields a rate, a p50 and a p99 from its own
    // samples; the run reports their medians, so a host hiccup shorter
    // than half the window does not move the result. Ops finishing
    // after the last whole sub-window count only towards `attempted`.
    let (subs, sub_s) = if w.elapsed_s < 2.0 * SUB_WINDOW_S {
        (1, w.elapsed_s)
    } else {
        ((w.elapsed_s / SUB_WINDOW_S) as usize, SUB_WINDOW_S)
    };
    let mut buckets: Vec<Vec<&OpSample>> = vec![Vec::new(); subs];
    for s in &w.samples {
        if let Some(b) = buckets.get_mut((s.end_s / sub_s) as usize) {
            b.push(s);
        }
    }
    let (mut rates, mut p50s, mut p99s, mut beyond) = (vec![], vec![], vec![], usize::MAX);
    for b in &buckets {
        let lat = sorted(b.iter().map(|s| s.latency_us));
        let p99 = quantile(&lat, 0.99);
        rates.push(b.iter().filter(|s| s.ok).count() as f64 / sub_s);
        p50s.push(quantile(&lat, 0.50));
        p99s.push(p99);
        beyond = beyond.min(lat.iter().filter(|&&v| v > p99).count());
    }
    let (rate, p50, p99) = (median(rates), median(p50s), median(p99s));
    notes.push(format!(
        "latency: {} samples in {subs} sub-windows of {sub_s:.2} s (fewest {}), \
         at least {beyond} beyond each sub-window's p99; medians p50 {p50:.1} us, p99 {p99:.1} us",
        w.samples.len(),
        buckets.iter().map(Vec::len).min().unwrap_or(0)
    ));
    notes.push(format!(
        "setup: {} set-ups [{}] s",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Outcome {
        correct: failed == 0 && warm_failed == 0 && attempted > 0,
        tail_ok: beyond >= MIN_TAIL_SAMPLES,
        attempted: attempted.max(1),
        failed,
        metrics: vec![
            metric("ops_per_s", rate, "1/s"),
            metric("latency_p50_us", p50, "us"),
            metric("latency_p99_us", p99, "us"),
            metric("verified_ratio", ratio(ok_ops, attempted as f64), "ratio"),
            metric("setup_s", median(setup_s.iter().copied()), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            metric(
                "modeled_pim_us_per_op",
                modeled_per_op.latency_us,
                "modeled_us",
            ),
            metric(
                "modeled_pim_uj_per_op",
                modeled_per_op.energy_uj,
                "modeled_uJ",
            ),
        ],
        notes,
        op_set,
    }
}

/// Everything the per-layer table needs beyond the split window.
struct LayerInputs {
    frames: [f64; 3],
    leaf_mults_per_op: f64,
    direct_op_us: f64,
    hotcache: [f64; 2],
    engine_batch_ns: f64,
    check: [f64; 3],
    check_direct_compare_ns: f64,
    ntt: [f64; 3],
    recombine_ns: f64,
    pim_per_mult: Modeled,
}

/// Traced-run metrics, in `BENCHMARK.json` order.
fn per_layer(split: &Split, li: &LayerInputs, notes: &mut Vec<String>) -> Vec<Metric> {
    let t = &split.traced;
    let c = &split.counters;
    let ops = t.samples.len() as f64;
    let overhead = sorted(t.samples.iter().map(|s| s.latency_us - s.service_us));
    let queue = sorted(t.samples.iter().map(|s| s.queue_us));
    let lookups = (c.hot_hits + c.hot_misses) as f64;
    let jobs = c.completed as f64;
    let traced_rate = ratio(ops, t.elapsed_s);
    let untraced_rate = ratio(
        split.untraced.samples.len() as f64,
        split.untraced.elapsed_s,
    );
    notes.push(format!(
        "traced chunks: {} ops in {:.3} s ({traced_rate:.1} ops/s); untraced chunks: {} ops in {:.3} s ({untraced_rate:.1} ops/s)",
        t.samples.len(),
        t.elapsed_s,
        split.untraced.samples.len(),
        split.untraced.elapsed_s
    ));
    notes.push(format!(
        "hotcache.hit_ratio base: {} hits / {} lookups; scheduler: {} leaf jobs in {} batches; net.overhead over {} samples",
        c.hot_hits,
        c.hot_hits + c.hot_misses,
        c.completed,
        c.batches,
        overhead.len()
    ));
    vec![
        metric("net.overhead_p50_us", quantile(&overhead, 0.50), "us"),
        metric("net.overhead_p99_us", quantile(&overhead, 0.99), "us"),
        metric("net.frame_encode_ns", li.frames[0], "ns"),
        metric("net.frame_decode_ns", li.frames[1], "ns"),
        metric("net.bytes_per_op", li.frames[2], "bytes"),
        metric("net.quota_rejects", t.quota_rejects as f64, "count"),
        metric("net.wait_timeouts", t.wait_timeouts as f64, "count"),
        metric("scheduler.queue_p50_us", quantile(&queue, 0.50), "us"),
        metric(
            "scheduler.occupancy",
            ratio(jobs, c.batches as f64),
            "jobs/batch",
        ),
        metric(
            "scheduler.batches_per_op",
            ratio(c.batches as f64, ops),
            "batches/op",
        ),
        metric("scheduler.retries", c.retries as f64, "count"),
        metric(
            "scheduler.faults_detected",
            c.faults_detected as f64,
            "count",
        ),
        metric("graph.leaf_mults_per_op", li.leaf_mults_per_op, "mults/op"),
        metric("graph.direct_op_us", li.direct_op_us, "us"),
        metric(
            "hotcache.hit_ratio",
            ratio(c.hot_hits as f64, lookups),
            "ratio",
        ),
        metric("hotcache.lookups_per_op", ratio(lookups, ops), "lookups/op"),
        metric("hotcache.lookup_ns", li.hotcache[0], "ns"),
        metric("hotcache.insert_ns", li.hotcache[1], "ns"),
        metric(
            "engine.ns_per_job",
            ratio(split.phase.engine_ns as f64, jobs),
            "ns",
        ),
        metric("engine.batch_ns_per_job", li.engine_batch_ns, "ns"),
        metric("check.transform_ns_per_job", li.check[0], "ns"),
        metric("check.pointwise_ns_per_job", li.check[1], "ns"),
        metric("check.compare_ns_per_job", li.check[2], "ns"),
        metric(
            "check.direct_compare_ns_per_job",
            li.check_direct_compare_ns,
            "ns",
        ),
        metric("ntt.forward_ns", li.ntt[0], "ns"),
        metric("ntt.inverse_ns", li.ntt[1], "ns"),
        metric("ntt.pointwise_ns", li.ntt[2], "ns"),
        metric("crt.recombine_ns_per_wide", li.recombine_ns, "ns"),
        metric(
            "pim.modeled_cycles_per_mult",
            li.pim_per_mult.cycles,
            "cycles",
        ),
        metric(
            "pim.modeled_uj_per_mult",
            li.pim_per_mult.energy_uj,
            "modeled_uJ",
        ),
        metric("trace.slowdown", ratio(untraced_rate, traced_rate), "ratio"),
    ]
}

/// Writes the spans and finishes a traced outcome.
fn traced_outcome(
    cfg: &Config,
    split: &Split,
    li: &LayerInputs,
    spans: &Spans,
    op_set: u64,
    warm_failed: u64,
    mut notes: Vec<String>,
) -> Outcome {
    let metrics = per_layer(split, li, &mut notes);
    let path = trace::trace_path(cfg.workload.name(), cfg.seed);
    match trace::write(&path, spans) {
        Ok(()) => notes.push(format!(
            "trace: {} spans in {}",
            spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("trace: not written to {}: {e}", path.display())),
    }
    let all: Vec<&OpSample> = split
        .traced
        .samples
        .iter()
        .chain(&split.untraced.samples)
        .collect();
    let failed = all.iter().filter(|s| !s.ok).count() as u64;
    Outcome {
        correct: failed == 0 && warm_failed == 0 && !all.is_empty(),
        tail_ok: true,
        attempted: (all.len() as u64).max(1),
        failed,
        metrics,
        notes,
        op_set,
    }
}

fn run_proto(cfg: &Config, churn: bool) -> Outcome {
    let epoch = Instant::now();
    let params = workload::proto_params();
    // Oracles: the direct host path of every op, before any timing.
    let jobs = workload::proto_ops(cfg.seed, churn);
    let started = Instant::now();
    let expected: Vec<ProtocolOutput> = jobs
        .iter()
        .map(|j| j.run_direct().expect("direct execution"))
        .collect();
    let direct_op_us = started.elapsed().as_secs_f64() * 1e6 / jobs.len() as f64;
    let op_set = fnv64(
        jobs.iter()
            .zip(&expected)
            .map(|(j, o)| ((j.kind() as u64) << 56) ^ o.digest()),
    );
    drop(jobs);

    let SetUp {
        kept: (mut serve, jobs),
        setup_s,
        warm,
        warm_failed,
    } = set_up(
        || {
            let jobs = workload::proto_ops(cfg.seed, churn);
            (ProtoServe::start(workload::PROTO_HOT_CAPACITY), jobs)
        },
        |(serve, jobs)| serve.run(jobs, &expected, Stop::Pass, None).0,
        |(serve, _)| serve.shutdown(),
    );
    let mut nodes = vec![0u32; expected.len()];
    for s in &warm.samples {
        nodes[s.idx] = s.nodes;
    }

    // Modeled PIM cost: each leaf at its own ring.
    let main = layers::modeled(&params);
    let basis = workload::wide_basis();
    let wide: Vec<Modeled> = basis
        .moduli()
        .iter()
        .map(|&q| layers::modeled(&layers::ring_params(params.n, q)))
        .collect();
    let (mut total, mut leaves) = (Modeled::ZERO, 0.0);
    for (job, &n) in jobs.iter().zip(&nodes) {
        total = if job.kind() == ProtocolKind::WideMul {
            wide.iter().fold(total, |acc, &m| acc.plus(m, 1.0))
        } else {
            total.plus(main, f64::from(n))
        };
        leaves += f64::from(n);
    }
    let per_op = Modeled::ZERO.plus(total, 1.0 / jobs.len() as f64);
    let notes = vec![format!(
        "{}: seed {}, {} ops in pool, op set {op_set:016x}",
        cfg.workload.name(),
        cfg.seed,
        jobs.len()
    )];

    if !cfg.trace {
        let dur = Duration::from_secs_f64(cfg.seconds);
        let (w, _) = serve.run(&jobs, &expected, Stop::After(dur), None);
        serve.shutdown();
        return end_to_end(&w, &setup_s, per_op, op_set, warm_failed, notes);
    }

    let mut spans = Spans::new();
    let split = split_run(
        &mut serve,
        |s, stop, ep| s.run(&jobs, &expected, stop, ep),
        ProtoServe::stats,
        cfg.seconds,
        epoch,
        &mut spans,
    );
    serve.shutdown();

    let leaf: Vec<Vec<(Polynomial, Polynomial)>> = jobs
        .iter()
        .map(|j| layers::leaf_pairs(j, &params))
        .collect();
    let main_pairs: Vec<(Polynomial, Polynomial)> = leaf
        .iter()
        .flatten()
        .filter(|(a, _)| a.modulus() == params.q)
        .take(REPLAY_PAIRS)
        .cloned()
        .collect();
    let a_stream: Vec<&Polynomial> = leaf.iter().flatten().map(|(a, _)| a).collect();
    let occupancy = ratio(
        split.counters.completed as f64,
        split.counters.batches as f64,
    );
    let frames: Vec<Vec<Frame>> = jobs
        .iter()
        .zip(&expected)
        .enumerate()
        .map(|(i, (job, out))| {
            let job_id = i as u64 + 1;
            vec![
                Frame::SubmitProtocol {
                    job_id,
                    kind: job.kind(),
                    n: params.n as u64,
                    seed: i as u64,
                },
                Frame::Submitted { job_id },
                Frame::Wait {
                    job_id,
                    timeout_ms: 10_000,
                },
                Frame::ProtocolDone {
                    job_id,
                    kind: job.kind(),
                    digest: out.digest(),
                    nodes: nodes[i],
                    attempts: 1,
                    queue_us: 100,
                    service_us: 1_000,
                },
            ]
        })
        .collect();
    let li = LayerInputs {
        frames: layers::frame_ns(&frames, &mut spans, epoch),
        leaf_mults_per_op: leaves / jobs.len() as f64,
        direct_op_us,
        hotcache: layers::hotcache_ns(&a_stream, workload::PROTO_HOT_CAPACITY, &mut spans, epoch),
        engine_batch_ns: layers::engine_batch_ns(&main_pairs, occupancy, &mut spans, epoch),
        // Served unchecked: the referee's cost on these leaves, replayed.
        check: layers::check_batch_ns(&main_pairs, occupancy, &mut spans, epoch),
        check_direct_compare_ns: layers::check_direct_compare_ns(&main_pairs, &mut spans, epoch),
        ntt: layers::ntt_ns(&main_pairs, &mut spans, epoch),
        recombine_ns: ratio(
            split.phase.recombine_ns as f64,
            split.counters.wide_completed as f64,
        ),
        pim_per_mult: Modeled::ZERO.plus(total, 1.0 / leaves),
    };
    traced_outcome(cfg, &split, &li, &spans, op_set, warm_failed, notes)
}

fn run_tcp(cfg: &Config) -> Outcome {
    let epoch = Instant::now();
    let params = workload::mul_params();
    // Oracles: the software NTT product of every pair, before any timing.
    let pairs = workload::mul_pairs(cfg.seed);
    let soft = NttMultiplier::new(&params).expect("paper parameters");
    let expected: Vec<Polynomial> = pairs
        .iter()
        .map(|(a, b)| soft.multiply(a, b).expect("software product"))
        .collect();
    let op_set = fnv64(
        pairs
            .iter()
            .flat_map(|(a, b)| a.coeffs().iter().chain(b.coeffs()).copied()),
    );
    drop(pairs);

    let SetUp {
        kept: (mut serve, pairs),
        setup_s,
        warm_failed,
        ..
    } = set_up(
        || (TcpServe::start(), workload::mul_pairs(cfg.seed)),
        |(serve, pairs)| serve.run(pairs, &expected, Stop::Pass, None).0,
        |(serve, _)| serve.shutdown(),
    );
    let per_op = layers::modeled(&params);
    let notes = vec![format!(
        "{}: seed {}, {} pairs in pool, op set {op_set:016x}",
        cfg.workload.name(),
        cfg.seed,
        pairs.len()
    )];

    if !cfg.trace {
        let dur = Duration::from_secs_f64(cfg.seconds);
        let (w, _) = serve.run(&pairs, &expected, Stop::After(dur), None);
        serve.shutdown();
        return end_to_end(&w, &setup_s, per_op, op_set, warm_failed, notes);
    }

    let mut spans = Spans::new();
    let split = split_run(
        &mut serve,
        |s, stop, ep| s.run(&pairs, &expected, stop, ep),
        TcpServe::stats,
        cfg.seconds,
        epoch,
        &mut spans,
    );
    serve.shutdown();

    let sample = &pairs[..REPLAY_PAIRS];
    let occupancy = ratio(
        split.counters.completed as f64,
        split.counters.batches as f64,
    );
    let frames: Vec<Vec<Frame>> = pairs
        .iter()
        .zip(&expected)
        .enumerate()
        .map(|(i, ((a, b), prod))| {
            let job_id = i as u64 + 1;
            vec![
                Frame::Submit {
                    job_id,
                    q: params.q,
                    a: a.coeffs().to_vec(),
                    b: b.coeffs().to_vec(),
                },
                Frame::Submitted { job_id },
                Frame::Wait {
                    job_id,
                    timeout_ms: 10_000,
                },
                Frame::Done {
                    job_id,
                    q: params.q,
                    product: prod.coeffs().to_vec(),
                    queue_us: 100,
                    service_us: 1_000,
                    attempts: 1,
                },
            ]
        })
        .collect();
    let jobs = split.counters.completed as f64;
    // No wide ops are served here: recombine is replayed at this degree
    // over residue lanes of the workload's own operands.
    let basis = RnsBasis::discover(params.n, 2, 1 << 20).expect("basis exists at n = 4096");
    let lanes: Vec<Vec<Vec<u64>>> = sample
        .iter()
        .map(|(a, _)| {
            let wide: Vec<u128> = a.coeffs().iter().map(|&c| u128::from(c)).collect();
            (0..basis.channels())
                .map(|lane| {
                    let mut out = vec![0u64; params.n];
                    basis.split_lane_into(&wide, lane, &mut out);
                    out
                })
                .collect()
        })
        .collect();
    let direct_jobs: Vec<ProtocolJob> = sample
        .iter()
        .map(|(a, b)| ProtocolJob::Mul {
            a: a.clone(),
            b: b.clone(),
        })
        .collect();
    let a_stream: Vec<&Polynomial> = pairs.iter().map(|(a, _)| a).collect();
    let li = LayerInputs {
        frames: layers::frame_ns(&frames, &mut spans, epoch),
        leaf_mults_per_op: 1.0,
        direct_op_us: layers::direct_op_us(&direct_jobs, &mut spans, epoch),
        hotcache: layers::hotcache_ns(&a_stream, workload::PROTO_HOT_CAPACITY, &mut spans, epoch),
        engine_batch_ns: layers::engine_batch_ns(sample, occupancy, &mut spans, epoch),
        // Served Recompute-checked: the referee's own phase counters.
        check: [
            ratio(split.phase.check_transform_ns as f64, jobs),
            ratio(split.phase.check_pointwise_ns as f64, jobs),
            ratio(split.phase.check_compare_ns as f64, jobs),
        ],
        check_direct_compare_ns: layers::check_direct_compare_ns(sample, &mut spans, epoch),
        ntt: layers::ntt_ns(sample, &mut spans, epoch),
        recombine_ns: layers::recombine_ns(&basis, &lanes, &mut spans, epoch),
        pim_per_mult: per_op,
    };
    traced_outcome(cfg, &split, &li, &spans, op_set, warm_failed, notes)
}
