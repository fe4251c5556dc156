//! The load driver: one seeded workload, served over one transport,
//! every op verified against the software oracle, summed into one
//! report.
//!
//! A run is a [`Transport`] (an in-process [`Service`] or a TCP
//! [`Client`] per load client) × a [`Workload`] (raw multiplies, or a
//! weighted protocol mix with key churn). The op stream comes from
//! [`service::workload`], so a seed names the same operands on both
//! transports. Each op's expected output is computed with
//! [`ProtocolJob::run_direct`] — the software NTT — before the timed
//! window opens.
//!
//! Arrival is `clients` threads, each keeping up to `window` ops
//! outstanding (window 1 is a closed loop), optionally paced so op `i`
//! is not submitted before `i / rate` seconds into the run. Client `c`
//! serves ops `c, c + clients, c + 2·clients, …` of the one shared
//! stream, so a run serves exactly `ops` ops.
//!
//! Latency is client-observed, submit to output, with exact samples
//! (not log buckets) on both transports.

use crate::client::{Client, NetError};
use crate::wire::ErrorCode;
use service::phase::{self, PhaseSnapshot};
use service::workload::{self, ProtocolMix};
use service::{
    ProtocolJob, ProtocolKind, ProtocolOutput, ProtocolTicket, Service, ServiceConfig, ServiceStats,
};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Where ops are served.
#[derive(Debug, Clone)]
pub enum Transport {
    /// A [`Service`] started for the run and drained after it.
    InProcess(ServiceConfig),
    /// A running server; every load client opens its own connection.
    Tcp {
        /// The server's listening address.
        addr: SocketAddr,
        /// Tenant token sent in `Hello`.
        token: String,
        /// Per-`Wait` timeout sent to the server. Timed-out waits are
        /// retried (and counted): the job is still in flight.
        wait_timeout_ms: u32,
    },
}

/// What is served.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Raw multiplies: narrow ones as `ProtocolJob::Mul` and wide ones
    /// as `ProtocolJob::WideMul` ops through `Service::submit_protocol`,
    /// or `Client::submit` over TCP (narrow only).
    Raw {
        /// When non-zero, `a` operands come from this many reused keys.
        hot_keys: usize,
        /// Seeded fraction (`0.0..=1.0`) of wide RNS-decomposed jobs.
        wide: f64,
        /// Residue channels of the wide jobs' basis (2..=4).
        wide_channels: usize,
    },
    /// A protocol mix; every op, `mul` included, goes through
    /// `Service::submit_protocol`.
    Protocols {
        /// The weighted kind mix.
        mix: ProtocolMix,
        /// Key lifetime in ops: `0` reuses one key pool for the run,
        /// `K > 0` regenerates every pool after K ops.
        key_churn: usize,
    },
}

/// One driver run.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Seed of the op stream.
    pub seed: u64,
    /// Ops served, exactly.
    pub ops: usize,
    /// Degree mix; each op draws uniformly from it.
    pub degrees: Vec<usize>,
    /// Concurrent load clients, one thread each.
    pub clients: usize,
    /// Ops each client keeps outstanding (1 = closed loop). Over TCP
    /// it is capped at the tenant quota.
    pub window: usize,
    /// Paced arrivals per second across all clients; `None` submits as
    /// fast as the window allows.
    pub rate: Option<f64>,
    /// What is served.
    pub workload: Workload,
    /// Where it is served.
    pub transport: Transport,
}

/// Why a run could not be carried out.
#[derive(Debug)]
pub enum DriveError {
    /// The transport cannot carry the workload: the wire carries raw
    /// multiplies as narrow `(q, a, b)` frames only.
    Unsupported(&'static str),
    /// A load client could not connect or authenticate.
    Connect(NetError),
    /// The post-run `Stats` verb failed or its `"service"` object did
    /// not parse.
    Stats(String),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Unsupported(what) => write!(f, "{what} cannot be served over TCP"),
            DriveError::Connect(e) => write!(f, "cannot connect: {e}"),
            DriveError::Stats(detail) => write!(f, "Stats verb: {detail}"),
        }
    }
}

impl std::error::Error for DriveError {}

/// Op outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops in the stream.
    pub ops: usize,
    /// Ops that resolved to an output.
    pub ok: usize,
    /// Ops that resolved to an error.
    pub failed: usize,
    /// Ops refused at admission (in process, under `Reject`
    /// backpressure or a quarantined fleet).
    pub rejected: usize,
    /// Outputs that differed from the software oracle (must be 0).
    pub mismatches: usize,
    /// Summed [`service::ProtocolCompleted::host_us`] of the served
    /// ops, ns. Only ops served in process report it; 0 over TCP.
    pub host_ns: u64,
}

impl Tally {
    /// Mean graph host time per served op, µs.
    pub fn mean_host_us(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.host_ns as f64 / self.ok as f64 / 1e3
        }
    }
}

/// Outcome of one driver run.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// Outcomes over the whole stream.
    pub total: Tally,
    /// Outcomes per kind present in the stream, in kind order.
    pub per_kind: Vec<(ProtocolKind, Tally)>,
    /// TCP `QuotaExceeded` refusals absorbed by collecting and retrying.
    pub quota_rejected: u64,
    /// TCP `Overloaded` refusals absorbed by backing off and retrying.
    pub shed: u64,
    /// TCP `WaitTimeout` refusals absorbed by waiting again.
    pub wait_timeouts: u64,
    /// Ops whose output took more than one execution attempt.
    pub recovered: u64,
    /// In process: jobs admitted but never completed after the drain
    /// (must be 0). Over TCP the server is not drained, so 0.
    pub dropped: u64,
    /// Wall-clock of the serving window, seconds.
    pub wall_s: f64,
    /// Served ops per second.
    pub throughput: f64,
    /// Client-observed latency quantiles, µs.
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Worst latency, µs.
    pub max_us: u64,
    /// Per-phase time recorded in this process during the window.
    pub phase: PhaseSnapshot,
    /// Scheduler statistics: from the drain in process, from the
    /// `Stats` verb over TCP.
    pub stats: ServiceStats,
    /// Over TCP, the `Stats` verb's whole JSON document.
    pub server_json: Option<String>,
}

impl DriveReport {
    /// Every op accounted for, none failed, none wrong, none dropped.
    pub fn is_clean(&self) -> bool {
        let t = &self.total;
        t.failed == 0 && t.mismatches == 0 && self.dropped == 0 && t.ok + t.rejected == t.ops
    }

    /// Wide (RNS-decomposed) ops in the stream.
    pub fn wide_ops(&self) -> usize {
        self.per_kind
            .iter()
            .filter(|(k, _)| *k == ProtocolKind::WideMul)
            .map(|(_, t)| t.ops)
            .sum()
    }
}

/// One op and its oracle output.
struct Op {
    job: ProtocolJob,
    expected: ProtocolOutput,
}

enum Outcome {
    Served { matches: bool, host_ns: u64 },
    Failed,
    Rejected,
}

/// A load client's end of the transport.
enum Conn<'a> {
    Local(&'a Service),
    Remote {
        client: Client,
        wait_timeout_ms: u32,
    },
}

enum Pending {
    Local(ProtocolTicket),
    Remote(u64),
}

struct InFlight {
    op: usize,
    pending: Pending,
    submitted: Instant,
}

/// What one load client saw.
#[derive(Default)]
struct ClientRun {
    outcomes: Vec<(usize, Outcome)>,
    latencies: Vec<u64>,
    quota_rejected: u64,
    shed: u64,
    wait_timeouts: u64,
    recovered: u64,
}

/// Admission verdicts a client acts on.
enum Refusal {
    /// TCP quota full: collect an outstanding op, then retry.
    Quota,
    /// TCP server overloaded: back off, then retry.
    Overloaded,
    /// The op is settled without an output.
    Final(Outcome),
}

impl Conn<'_> {
    fn submit(&mut self, op: usize, job: &ProtocolJob) -> Result<Pending, Refusal> {
        match self {
            Conn::Local(service) => service
                .submit_protocol(job.clone())
                .map(Pending::Local)
                .map_err(|_| Refusal::Final(Outcome::Rejected)),
            Conn::Remote { client, .. } => {
                let ProtocolJob::Mul { a, b } = job else {
                    unreachable!("TCP workloads are narrow multiplies")
                };
                let id = op as u64 + 1;
                match client.submit(id, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec()) {
                    Ok(()) => Ok(Pending::Remote(id)),
                    Err(e) => Err(match e.code() {
                        Some(ErrorCode::QuotaExceeded) => Refusal::Quota,
                        Some(ErrorCode::Overloaded) => Refusal::Overloaded,
                        _ => Refusal::Final(Outcome::Failed),
                    }),
                }
            }
        }
    }

    /// Blocks for an op's output and returns whether it equals
    /// `expected`, with the op's worst execution attempt count and its
    /// graph host time in ns (0 over TCP); `Err` when the op failed.
    fn wait(
        &mut self,
        pending: Pending,
        expected: &ProtocolOutput,
        wait_timeouts: &mut u64,
    ) -> Result<(bool, u32, u64), ()> {
        match pending {
            Pending::Local(t) => t.wait().map(|d| {
                let host_ns = (d.host_us * 1e3) as u64;
                (d.output == *expected, d.attempts, host_ns)
            }),
            Pending::Remote(id) => {
                let Conn::Remote {
                    client,
                    wait_timeout_ms,
                } = self
                else {
                    unreachable!("remote tickets live on remote connections")
                };
                loop {
                    match client.wait(id, (*wait_timeout_ms).max(1)) {
                        // Compared raw, never rebuilt into a Polynomial:
                        // that would reduce a non-canonical coefficient
                        // (`c + q`) into a false match, or panic on q = 0.
                        Ok(d) => {
                            let matches = matches!(expected, ProtocolOutput::Product(p)
                                if p.modulus() == d.q && p.coeffs() == d.product);
                            return Ok((matches, d.attempts, 0));
                        }
                        // Flow control, not failure: the job still runs.
                        Err(e) if e.code() == Some(ErrorCode::WaitTimeout) => *wait_timeouts += 1,
                        Err(_) => return Err(()),
                    }
                }
            }
        }
        .map_err(|_| ())
    }
}

impl ClientRun {
    /// Waits out the oldest in-flight op and verifies it. Returns false
    /// when nothing was in flight.
    fn collect_one(
        &mut self,
        conn: &mut Conn<'_>,
        inflight: &mut VecDeque<InFlight>,
        ops: &[Op],
    ) -> bool {
        let Some(f) = inflight.pop_front() else {
            return false;
        };
        let outcome = match conn.wait(f.pending, &ops[f.op].expected, &mut self.wait_timeouts) {
            Ok((matches, attempts, host_ns)) => {
                self.latencies
                    .push(f.submitted.elapsed().as_micros() as u64);
                if attempts > 1 {
                    self.recovered += 1;
                }
                Outcome::Served { matches, host_ns }
            }
            Err(()) => Outcome::Failed,
        };
        self.outcomes.push((f.op, outcome));
        true
    }
}

/// Serves ops `first, first + stride, …` over one connection.
fn client_loop(
    mut conn: Conn<'_>,
    ops: &[Op],
    first: usize,
    stride: usize,
    window: usize,
    pace: Option<(Instant, f64)>,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    for i in (first..ops.len()).step_by(stride) {
        if let Some((start, rate)) = pace {
            let target = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(sleep) = target.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
        }
        loop {
            let submitted = Instant::now();
            match conn.submit(i, &ops[i].job) {
                Ok(pending) => {
                    inflight.push_back(InFlight {
                        op: i,
                        pending,
                        submitted,
                    });
                    break;
                }
                Err(Refusal::Quota) => {
                    run.quota_rejected += 1;
                    // Nothing of ours to collect: another connection of
                    // this tenant holds the quota.
                    if !run.collect_one(&mut conn, &mut inflight, ops) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                Err(Refusal::Overloaded) => {
                    run.shed += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(Refusal::Final(outcome)) => {
                    run.outcomes.push((i, outcome));
                    break;
                }
            }
        }
        while inflight.len() >= window {
            run.collect_one(&mut conn, &mut inflight, ops);
        }
    }
    while run.collect_one(&mut conn, &mut inflight, ops) {}
    run
}

/// Whether the TCP transport can carry `workload`: the wire carries raw
/// multiplies as narrow `(q, a, b)` frames only.
///
/// # Errors
///
/// [`DriveError::Unsupported`] for a wide blend or a protocol mix.
pub fn tcp_carries(workload: &Workload) -> Result<(), DriveError> {
    match workload {
        Workload::Protocols { .. } => Err(DriveError::Unsupported("a protocol mix")),
        Workload::Raw { wide, .. } if *wide > 0.0 => Err(DriveError::Unsupported("a wide blend")),
        Workload::Raw { .. } => Ok(()),
    }
}

/// Runs the driver: generates the stream, computes every expected
/// output, serves the stream over the transport and reports.
///
/// # Errors
///
/// [`DriveError::Unsupported`] for a wide blend or a protocol mix over
/// TCP; [`DriveError::Connect`] when a load client cannot connect or
/// authenticate; [`DriveError::Stats`] when the post-run `Stats` verb
/// fails or does not parse.
///
/// # Panics
///
/// Panics when the workload names an unsupported degree (see
/// [`service::workload`]).
pub fn run(config: &DriveConfig) -> Result<DriveReport, DriveError> {
    if let Transport::Tcp { .. } = config.transport {
        tcp_carries(&config.workload)?;
    }
    let jobs = match &config.workload {
        Workload::Raw {
            hot_keys,
            wide,
            wide_channels,
        } => {
            let basis =
                (*wide > 0.0).then(|| workload::wide_basis(&config.degrees, *wide_channels));
            workload::generate_raw_jobs(
                config.seed,
                config.ops,
                &config.degrees,
                *hot_keys,
                *wide,
                basis.as_ref(),
            )
        }
        Workload::Protocols { mix, key_churn } => workload::generate_protocol_ops(
            config.seed,
            config.ops,
            &config.degrees,
            mix,
            *key_churn,
        ),
    };
    let ops: Vec<Op> = jobs
        .into_iter()
        .map(|job| {
            let expected = job.run_direct().expect("seeded ops run directly");
            Op { job, expected }
        })
        .collect();
    let clients = config.clients.clamp(1, ops.len().max(1));

    // The timed window: one scoped thread per connection.
    let serve = |conns: Vec<Conn<'_>>, window: usize| {
        let before = phase::snapshot();
        let start = Instant::now();
        let pace = config.rate.map(|rate| (start, rate.max(1e-3)));
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(c, conn)| {
                    let ops = &ops;
                    scope.spawn(move || client_loop(conn, ops, c, clients, window, pace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load client"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        (runs, wall_s, phase::snapshot().since(&before))
    };

    let window = config.window.max(1);
    let (runs, wall_s, phase, stats, dropped, server_json) = match &config.transport {
        Transport::InProcess(service_config) => {
            let service = Service::start(service_config.clone());
            let conns = (0..clients).map(|_| Conn::Local(&service)).collect();
            let (runs, wall_s, phase) = serve(conns, window);
            let stats = service.shutdown();
            let dropped = stats.admitted.saturating_sub(stats.completed);
            (runs, wall_s, phase, stats, dropped, None)
        }
        Transport::Tcp {
            addr,
            token,
            wait_timeout_ms,
        } => {
            // Connect every client before the window opens, so a dead or
            // refusing server is one typed error, not a half-run.
            let mut quota = u32::MAX;
            let mut conns = Vec::with_capacity(clients);
            for _ in 0..clients {
                let (client, _, q) = Client::connect(addr, token).map_err(DriveError::Connect)?;
                quota = quota.min(q);
                conns.push(Conn::Remote {
                    client,
                    wait_timeout_ms: *wait_timeout_ms,
                });
            }
            let (runs, wall_s, phase) = serve(conns, window.min(quota.max(1) as usize));
            let doc = Client::connect(addr, token)
                .and_then(|(mut client, _, _)| client.stats_json())
                .map_err(|e| DriveError::Stats(e.to_string()))?;
            let stats = extract_object(&doc, "service")
                .and_then(ServiceStats::from_json)
                .ok_or_else(|| DriveError::Stats("unparseable service object".into()))?;
            (runs, wall_s, phase, stats, 0, Some(doc))
        }
    };
    Ok(report(
        &ops,
        runs,
        wall_s,
        phase,
        stats,
        dropped,
        server_json,
    ))
}

fn report(
    ops: &[Op],
    runs: Vec<ClientRun>,
    wall_s: f64,
    phase: PhaseSnapshot,
    stats: ServiceStats,
    dropped: u64,
    server_json: Option<String>,
) -> DriveReport {
    let mut outcomes: Vec<Option<Outcome>> = ops.iter().map(|_| None).collect();
    let mut latencies = Vec::with_capacity(ops.len());
    let (mut quota_rejected, mut shed, mut wait_timeouts, mut recovered) = (0, 0, 0, 0);
    for run in runs {
        for (i, outcome) in run.outcomes {
            outcomes[i] = Some(outcome);
        }
        latencies.extend(run.latencies);
        quota_rejected += run.quota_rejected;
        shed += run.shed;
        wait_timeouts += run.wait_timeouts;
        recovered += run.recovered;
    }
    let mut total = Tally::default();
    let mut per_kind = [Tally::default(); ProtocolKind::COUNT];
    for (op, outcome) in ops.iter().zip(&outcomes) {
        let outcome = outcome.as_ref().expect("every op settles");
        for t in [&mut total, &mut per_kind[op.job.kind() as usize]] {
            t.ops += 1;
            match outcome {
                Outcome::Served { matches, host_ns } => {
                    t.ok += 1;
                    t.mismatches += usize::from(!matches);
                    t.host_ns += host_ns;
                }
                Outcome::Failed => t.failed += 1,
                Outcome::Rejected => t.rejected += 1,
            }
        }
    }
    let per_kind = ProtocolKind::ALL
        .into_iter()
        .zip(per_kind)
        .filter(|(_, t)| t.ops > 0)
        .collect();
    latencies.sort_unstable();
    let quantile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = (p * (latencies.len() - 1) as f64).round() as usize;
        latencies[rank.min(latencies.len() - 1)] as f64
    };
    DriveReport {
        total,
        per_kind,
        quota_rejected,
        shed,
        wait_timeouts,
        recovered,
        dropped,
        wall_s,
        throughput: if wall_s > 0.0 {
            total.ok as f64 / wall_s
        } else {
            0.0
        },
        p50_us: quantile(0.50),
        p95_us: quantile(0.95),
        p99_us: quantile(0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        phase,
        stats,
        server_json,
    }
}

/// Extracts the balanced-brace JSON object under `"key"` from `text`.
///
/// Dependency-free helper for pulling the `"service"` object out of a
/// `Stats` reply so it can be handed to [`ServiceStats::from_json`].
/// String-escape-aware; returns `None` when the key is missing or
/// unbalanced.
pub fn extract_object<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = &text[at..];
    let open = rest.find('{')?;
    // Nothing but whitespace and a colon may sit between key and brace.
    if !rest[..open].chars().all(|c| c == ':' || c.is_whitespace()) {
        return None;
    }
    let bytes = rest.as_bytes();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt::poly::Polynomial;
    use service::{Backpressure, CheckPolicy};

    fn raw(hot_keys: usize, wide: f64, wide_channels: usize) -> Workload {
        Workload::Raw {
            hot_keys,
            wide,
            wide_channels,
        }
    }

    fn in_process(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            linger: Duration::from_micros(200),
            ..ServiceConfig::default()
        }
    }

    fn drive(
        seed: u64,
        ops: usize,
        degrees: &[usize],
        clients: usize,
        workload: Workload,
        service: ServiceConfig,
    ) -> DriveReport {
        run(&DriveConfig {
            seed,
            ops,
            degrees: degrees.to_vec(),
            clients,
            window: 1,
            rate: None,
            workload,
            transport: Transport::InProcess(service),
        })
        .expect("in-process runs always start")
    }

    #[test]
    fn extract_object_finds_nested_and_escaped() {
        let doc = r#"{"a": 1, "service": {"x": {"y": 2}, "s": "br{ace\"}"}, "b": 3}"#;
        let obj = extract_object(doc, "service").unwrap();
        assert_eq!(obj, r#"{"x": {"y": 2}, "s": "br{ace\"}"}"#);
        assert!(extract_object(doc, "missing").is_none());
        assert!(extract_object(r#"{"service": [1]}"#, "service").is_none());
        assert!(extract_object(r#"{"service": {"open": 1"#, "service").is_none());
    }

    #[test]
    fn closed_loop_run_is_clean() {
        let report = drive(11, 24, &[256, 512], 3, raw(0, 0.0, 2), in_process(2));
        assert_eq!(report.total.ok, 24);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.stats.admitted, 24);
        assert!(report.p99_us >= report.p50_us && report.max_us > 0);
        assert!(report.phase.engine_ns > 0, "engine phase recorded");
        // (No zero-assertions on the referee phases here: the counters
        // are process-wide, and a checked run in a sibling test thread
        // may legitimately bump them inside this window.)
    }

    #[test]
    fn wide_blend_run_is_clean_and_bit_exact() {
        let report = drive(23, 24, &[256], 3, raw(0, 0.4, 3), in_process(2));
        assert_eq!(report.total.ok, 24);
        assert!(report.is_clean(), "{report:?}");
        let wide = report.wide_ops();
        assert!(wide > 0, "blend produced wide jobs");
        assert_eq!(report.stats.wide_submitted, wide as u64);
        assert_eq!(report.stats.wide_completed, wide as u64);
        assert_eq!(report.stats.wide_failed, 0);
        assert_eq!(
            report.stats.wide_latency_samples, wide as u64,
            "every wide job lands in the wide histogram"
        );
        assert!(report.stats.wide_p50_us > 0.0);
        // Each wide job admits 3 residue-lane jobs; narrow jobs admit 1.
        assert_eq!(report.stats.admitted as usize, (24 - wide) + 3 * wide);
    }

    #[test]
    fn recompute_checked_run_records_referee_phases() {
        let report = drive(
            19,
            16,
            &[256],
            2,
            raw(0, 0.0, 2),
            ServiceConfig {
                check: CheckPolicy::Recompute,
                ..in_process(2)
            },
        );
        assert!(report.is_clean(), "{report:?}");
        let split = &report.phase;
        assert!(split.engine_ns > 0, "engine phase");
        assert!(split.check_transform_ns > 0, "transform phase");
        assert!(split.check_pointwise_ns > 0, "pointwise phase");
        assert!(split.check_compare_ns > 0, "compare phase");
    }

    #[test]
    fn hot_key_stream_hits_the_cache() {
        let report = drive(
            13,
            32,
            &[256],
            2,
            raw(4, 0.0, 2),
            ServiceConfig {
                workers: 1,
                check: CheckPolicy::Recompute,
                hot_capacity: 8,
                ..in_process(1)
            },
        );
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.total.ok, 32);
        assert_eq!(report.total.mismatches, 0, "cached products stay bit-exact");
        assert!(
            report.stats.hot_hits > 0,
            "reused keys must hit the cache: {:?}",
            report.stats
        );
    }

    #[test]
    fn paced_reject_sheds_load_without_drops() {
        // Arrivals far above what a tiny queue and one bank can take,
        // with the whole stream allowed outstanding: some jobs must be
        // rejected, but every admitted one completes.
        let report = run(&DriveConfig {
            seed: 5,
            ops: 60,
            degrees: vec![256],
            clients: 1,
            window: 60,
            rate: Some(1e6),
            workload: raw(0, 0.0, 2),
            transport: Transport::InProcess(ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                backpressure: Backpressure::Reject,
                linger: Duration::from_millis(2),
                ..ServiceConfig::default()
            }),
        })
        .unwrap();
        let t = report.total;
        assert_eq!(t.ok + t.rejected + t.failed, 60);
        assert!(t.rejected > 0, "the tiny queue sheds load");
        assert_eq!(report.dropped, 0, "admitted jobs never vanish");
        assert_eq!(report.stats.rejected as usize, t.rejected);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn mixed_run_is_clean_and_reused_keys_hit_the_cache() {
        let leg = |key_churn: usize| {
            drive(
                21,
                32,
                &[256],
                3,
                Workload::Protocols {
                    mix: ProtocolMix::standard(),
                    key_churn,
                },
                ServiceConfig {
                    hot_capacity: 32,
                    ..in_process(2)
                },
            )
        };
        let reuse = leg(0);
        assert!(reuse.is_clean(), "{reuse:?}");
        assert_eq!(reuse.total.ok, 32);
        assert!(
            reuse.stats.hot_hits > 0,
            "reused keys hit: {:?}",
            reuse.stats
        );
        let lanes: Vec<&str> = reuse
            .stats
            .protocol
            .iter()
            .filter(|l| l.submitted > 0)
            .map(|l| l.kind)
            .collect();
        for kind in ["encaps", "sign", "she_mul", "mul"] {
            assert!(lanes.contains(&kind), "kind {kind} served; lanes {lanes:?}");
        }
        for lane in &reuse.stats.protocol {
            assert_eq!(
                lane.completed + lane.failed,
                lane.submitted,
                "{}",
                lane.kind
            );
            if lane.completed > 0 {
                assert!(lane.p50_us > 0.0, "{} latency recorded", lane.kind);
            }
        }
        // Per-kind tallies cover the stream and match the service lanes.
        for (kind, t) in &reuse.per_kind {
            let lane = reuse
                .stats
                .protocol
                .iter()
                .find(|l| l.kind == kind.as_str())
                .expect("served kind has a lane");
            assert_eq!(lane.completed as usize, t.ok, "{kind}");
        }
        // Same stream shape under full key churn: still clean, but the
        // cache hit rate collapses relative to reuse.
        let churn = leg(1);
        assert!(churn.is_clean(), "{churn:?}");
        assert!(
            reuse.stats.hot_hit_rate() > churn.stats.hot_hit_rate(),
            "reuse {:.3} must beat churn {:.3}",
            reuse.stats.hot_hit_rate(),
            churn.stats.hot_hit_rate()
        );
    }

    /// A one-tenant TCP server that multiplies correctly in software,
    /// then passes each `Done` frame's `(q, product)` through `tamper`.
    fn tampering_server(tamper: fn(&mut u64, &mut Vec<u64>)) -> SocketAddr {
        use crate::wire::{read_frame, write_frame, Frame};
        use std::io::{BufReader, BufWriter, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stats = Service::start(in_process(1)).shutdown().to_json();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let stats = stats.clone();
                std::thread::spawn(move || {
                    let mut r = BufReader::new(stream.try_clone().unwrap());
                    let mut w = BufWriter::new(stream);
                    let mut done = std::collections::HashMap::new();
                    while let Ok(frame) = read_frame(&mut r) {
                        let reply = match frame {
                            Frame::Hello { .. } => Frame::HelloOk {
                                tenant: "t".into(),
                                quota: 8,
                            },
                            Frame::Submit { job_id, q, a, b } => {
                                let job = ProtocolJob::Mul {
                                    a: Polynomial::from_coeffs(a, q).unwrap(),
                                    b: Polynomial::from_coeffs(b, q).unwrap(),
                                };
                                let Ok(ProtocolOutput::Product(p)) = job.run_direct() else {
                                    unreachable!("a multiply yields a product")
                                };
                                let (mut q, mut product) = (p.modulus(), p.coeffs().to_vec());
                                tamper(&mut q, &mut product);
                                done.insert(job_id, (q, product));
                                Frame::Submitted { job_id }
                            }
                            Frame::Wait { job_id, .. } => {
                                let (q, product) = done.remove(&job_id).unwrap();
                                Frame::Done {
                                    job_id,
                                    q,
                                    product,
                                    queue_us: 0,
                                    service_us: 0,
                                    attempts: 1,
                                }
                            }
                            Frame::Stats => Frame::StatsJson {
                                json: format!("{{\"service\": {stats}}}"),
                            },
                            _ => return,
                        };
                        if write_frame(&mut w, &reply).is_err() || w.flush().is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn drive_tcp(addr: SocketAddr) -> DriveReport {
        run(&DriveConfig {
            seed: 3,
            ops: 6,
            degrees: vec![256],
            clients: 2,
            window: 2,
            rate: None,
            workload: raw(0, 0.0, 2),
            transport: Transport::Tcp {
                addr,
                token: "t".into(),
                wait_timeout_ms: 1_000,
            },
        })
        .expect("the server answers")
    }

    #[test]
    fn tcp_products_are_compared_raw() {
        // Control: the untampered server is verified clean.
        let honest = drive_tcp(tampering_server(|_, _| {}));
        assert!(honest.is_clean(), "{honest:?}");
        assert_eq!(honest.total.ok, 6);
        // A congruent but non-canonical product (c + q) is wrong on the
        // wire, and so is a zero modulus: both are served mismatches,
        // never a match and never a panic.
        let lazy = drive_tcp(tampering_server(|q, p| p[0] += *q));
        let zero_q = drive_tcp(tampering_server(|q, _| *q = 0));
        for report in [lazy, zero_q] {
            assert_eq!(report.total.ok, 6, "{report:?}");
            assert_eq!(report.total.mismatches, 6, "{report:?}");
            assert!(!report.is_clean());
        }
    }

    #[test]
    fn tcp_refuses_wide_and_protocol_workloads() {
        let tcp = Transport::Tcp {
            addr: "127.0.0.1:1".parse().unwrap(),
            token: "t".into(),
            wait_timeout_ms: 1,
        };
        for workload in [
            raw(0, 0.25, 2),
            Workload::Protocols {
                mix: ProtocolMix::standard(),
                key_churn: 0,
            },
        ] {
            let err = run(&DriveConfig {
                seed: 1,
                ops: 4,
                degrees: vec![256],
                clients: 1,
                window: 1,
                rate: None,
                workload,
                transport: tcp.clone(),
            })
            .unwrap_err();
            assert!(matches!(err, DriveError::Unsupported(_)), "{err}");
        }
    }
}
