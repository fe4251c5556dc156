//! `cli` — command-line driver for the CryptoPIM simulator.
//!
//! ```text
//! cargo run -p cryptopim-bench --bin cli -- simulate --degree 1024
//! cargo run -p cryptopim-bench --bin cli -- simulate --degree 4096 --org naive
//! cargo run -p cryptopim-bench --bin cli -- baseline --design bp2
//! cargo run -p cryptopim-bench --bin cli -- verify --degree 512 --threads 4
//! cargo run -p cryptopim-bench --bin cli -- montecarlo --samples 2000 --variation 15
//! cargo run -p cryptopim-bench --bin cli -- bench --json [--threads N] [--degrees 256,1024] [--out PATH]
//! cargo run -p cryptopim-bench --bin cli -- bench --compare OLD.json NEW.json
//! cargo run -p cryptopim-bench --bin cli -- serve-loadgen --seed 7 --ops 1024 --clients 4
//! cargo run -p cryptopim-bench --bin cli -- serve --listen 127.0.0.1:7681 --token secret
//! cargo run -p cryptopim-bench --bin cli -- serve-loadgen --tcp --clients 64 --window 4 --ops 1024
//! cargo run -p cryptopim-bench --bin cli -- serve-loadgen --protocols kem:40,sign:30,she:20,mul:10
//! cargo run -p cryptopim-bench --bin cli -- fault-campaign --seed 9 --rates 1e-4,1e-3
//! cargo run -p cryptopim-bench --bin cli -- --json              # shorthand for bench --json
//! ```
//!
//! `bench --json` writes `BENCH_<date>T<hhmmss>.json` (or `--out PATH`)
//! in the working directory: median ns/op for the software NTT and the
//! functional accelerator at the paper degrees, plus the RNG seed, the
//! worker count, and the git commit. The timestamped default keeps
//! same-day snapshots from clobbering each other; committed baselines
//! (like `BENCH_2026-08-07.json`) are written with an explicit `--out`.
//! `bench --compare` diffs two such snapshots and exits non-zero when
//! any common benchmark regressed by more than 10 %; `--filter A,B`
//! restricts the diff to ids containing one of the substrings — the CI
//! `bench-smoke` job gates hard on
//! `poly_multiply,engine_multiply,engine_batch,rns_seq,proto_encaps,proto_sign`
//! against the committed baseline.
//!
//! `serve-loadgen` runs the `net::drive` load driver: a seeded workload
//! (raw multiplies, a wide blend, or a protocol mix) served in process
//! or over loopback TCP (`--tcp`), every op bit-verified against the
//! software NTT. It prints one report — exact client-observed latency
//! quantiles, per-kind outcomes, flow-control counters, scheduler
//! stats — optionally writes it as JSON, and exits non-zero on any
//! mismatch, failure or dropped job, or when `--min-occupancy` /
//! `--max-p99-us` fails. The CI `service-smoke`, `net-smoke` and
//! `protocol-smoke` jobs rely on that.
//!
//! `serve` binds the `net` crate's TCP front end (wire format:
//! DESIGN.md §15) and serves until an operator client sends the
//! `Shutdown` verb.
//!
//! `fault-campaign` sweeps seeded fault injections (kind × rate ×
//! degree) through the recover-or-quarantine serving stack under the
//! sound recompute referee, verifies every served product bit-exactly
//! against the fault-free path, measures the residue screen's empirical
//! coverage, and exits non-zero if any corrupt product was served — the
//! CI `fault-smoke` job relies on that.

use baselines::bp::PimDesign;
use cryptopim::accelerator::CryptoPim;
use cryptopim::batch;
use cryptopim::check::CheckPolicy;
use cryptopim::pipeline::Organization;
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use net::drive::{self, DriveConfig, Transport, Workload};
use net::server::{Server, ServerConfig, TenantConfig};
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use ntt::rns::RnsMultiplier;
use pim::block::MultiplierKind;
use pim::device::DeviceParams;
use pim::fault::splitmix64;
use pim::par::Threads;
use pim::reduce::ReductionStyle;
use pim::variation::{run_monte_carlo, MonteCarloConfig};
use reliability::campaign::{
    self, CampaignConfig, CampaignKind, ProtocolCellConfig, WideCellConfig,
};
use service::{Backpressure, ProtocolJob, ProtocolKind, ProtocolMix, ServiceConfig};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: cli <command> [options]\n\
         \n\
         commands:\n\
         \x20 simulate    --degree N [--org cryptopim|naive|area]   performance report\n\
         \x20 baseline    --design bp1|bp2|bp3|cryptopim [--degree N] Fig.6 design point\n\
         \x20 verify      [--degree N] [--threads N]                  functional check vs software NTT\n\
         \x20 montecarlo  [--samples N] [--variation PCT]             device robustness study\n\
         \x20 bench       [--json] [--seed N] [--threads N] [--degrees A,B] [--out PATH]\n\
         \x20                                                         host-side ns/op benchmarks\n\
         \x20 bench       --compare OLD.json NEW.json [--filter A,B] [--limit PCT]\n\
         \x20                                                         diff two snapshots; exit 1 past the regression limit (default 10 %)\n\
         \x20 rns-bench   [--degree N] [--channels K] [--fleet F]     modeled fleet-sharded wide multiply vs the\n\
         \x20             [--jobs N] [--seed N] [--json] [--out PATH] sequential residue loop; bit-verified\n\
         \x20             [--min-speedup X]                           exit 1 below the modeled fleet speedup gate\n\
         \x20 serve-loadgen [--seed N] [--ops N] [--degrees A,B]      seeded load driver; every op bit-verified\n\
         \x20             [--clients C] [--window W] [--rate R]        C clients × W outstanding, paced at R ops/s\n\
         \x20             [--workers S] [--queue-cap N]               S banks, S backstop executors\n\
         \x20             [--backpressure block|reject]\n\
         \x20             [--check off|residue[:points[:seed]]|recompute]\n\
         \x20             [--hot-keys K] [--hot-capacity N]            reuse K seeded `a` keys; hot cache size\n\
         \x20             [--wide R] [--wide-channels K]              blend fraction R of wide RNS jobs (WideMul graph ops)\n\
         \x20             [--protocols kem:40,sign:30,she:20,mul:10]  serve a protocol mix instead of raw multiplies\n\
         \x20             [--key-churn K]                             fresh keys every K ops (0 = reuse all run)\n\
         \x20             [--tcp] [--quota N] [--wait-timeout-ms N]   over loopback TCP (narrow raw multiplies only)\n\
         \x20             [--connect ADDR --token T]                  drive an external server (default: in-process)\n\
         \x20             [--min-occupancy X] [--max-p99-us X]        exit 1 on mismatch/failure/drop or a failed gate\n\
         \x20             [--json] [--out PATH]\n\
         \x20 serve       --listen ADDR --token T [--quota N]         TCP front end; serves until Shutdown\n\
         \x20             [--op-token T] [--max-conns N] [--max-wait-ms N]\n\
         \x20             [--workers S] [--queue-cap N] [--check ...]\n\
         \x20 fault-campaign [--seed N] [--degrees A,B] [--rates R1,R2]\n\
         \x20             [--kinds stuck0,stuck1,transient,wearout]\n\
         \x20             [--jobs N] [--points P] [--max-attempts N]\n\
         \x20             [--quarantine-after N] [--hot-keys K]\n\
         \x20             [--wide] [--wide-channels K] [--wide-rate R] add the wide-modulus residue-lane cell\n\
         \x20             [--protocols] [--protocol-rate R]            add the protocol job-graph cell\n\
         \x20             [--json] [--out PATH]\n\
         \x20                                                         seeded fault sweep; exit 1 if a corrupt product was served\n\
         \n\
         --threads N pins how many workers whole job chunks fan out over\n\
         (default: CRYPTOPIM_THREADS or the machine's available\n\
         parallelism; a single job runs on one thread; results are\n\
         identical for any worker count)\n"
    );
    std::process::exit(2);
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_degree(args: &[String], default: usize) -> usize {
    match opt(args, "--degree") {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid --degree: {v}");
            std::process::exit(2);
        }),
    }
}

fn parse_threads(args: &[String]) -> Threads {
    match opt(args, "--threads") {
        None => Threads::Auto,
        Some(v) => match v.parse::<usize>() {
            Ok(k) if k >= 1 => Threads::Fixed(k),
            _ => {
                eprintln!("invalid --threads: {v}");
                std::process::exit(2);
            }
        },
    }
}

/// Median ns/op of `f`, sized so each sample runs for at least ~2 ms.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f(); // warmup + estimate
    let start = Instant::now();
    f();
    let est = start.elapsed().as_nanos().max(1);
    let iters = (2_000_000 / est).clamp(1, 10_000) as usize;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no external deps).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Now as `YYYY-MM-DDThhmmss` UTC — default snapshot filenames carry
/// the time of day so same-day runs never clobber each other.
fn utc_timestamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!(
        "{}T{:02}{:02}{:02}",
        today_utc(),
        (secs / 3600) % 24,
        (secs / 60) % 60,
        secs % 60
    )
}

/// The commit a snapshot was actually taken at: `git rev-parse --short
/// HEAD` *at run time*, with a `-dirty` suffix when the working tree
/// has uncommitted changes. The suffix matters for provenance — a
/// snapshot recorded before its code lands would otherwise claim the
/// previous commit reproduced numbers it never produced.
fn git_commit() -> String {
    let head = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string());
    let Some(head) = head.filter(|s| !s.is_empty()) else {
        return "unknown".to_string();
    };
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

/// Extracts `(id, ns_per_op)` pairs from a `bench --json` snapshot.
///
/// A deliberately minimal scan (the files are machine-written by this
/// binary, and the workspace carries no JSON dependency): each bench
/// entry is the `"id"` string literal followed by the `"ns_per_op"`
/// number.
fn parse_bench_json(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"id\"") {
        rest = &rest[pos + 4..];
        let Some(open) = rest.find('"') else { break };
        let Some(close) = rest[open + 1..].find('"') else {
            break;
        };
        let id = rest[open + 1..open + 1 + close].to_string();
        rest = &rest[open + 1 + close..];
        let Some(key) = rest.find("\"ns_per_op\"") else {
            break;
        };
        let after = rest[key + 11..].trim_start_matches([':', ' ']);
        let end = after
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(after.len());
        if let Ok(ns) = after[..end].parse::<f64>() {
            out.push((id, ns));
        }
        rest = &after[end..];
    }
    out
}

/// Regression threshold for `bench --compare`.
const REGRESSION_LIMIT_PCT: f64 = 10.0;

/// Result of diffing two benchmark snapshots — computed apart from
/// printing/exiting so the edge cases (zero/NaN baselines, one-sided
/// benchmarks) are unit-testable.
#[derive(Debug)]
struct CompareOutcome {
    /// Per-benchmark table rows, in new-snapshot order then gone rows.
    lines: Vec<String>,
    /// Entries skipped because a ns/op value was unusable.
    warnings: Vec<String>,
    /// Benchmarks actually compared (present and valid in both).
    compared: usize,
    /// Worst (most positive) delta among compared benchmarks.
    worst: Option<(f64, String)>,
}

/// Diffs two parsed snapshots. Entries whose ns/op is zero, negative,
/// or non-finite (a hand-edited or truncated snapshot) are skipped
/// with a warning instead of producing an infinite/NaN ratio;
/// benchmarks present in only one snapshot are reported as
/// `new` / `gone` rather than silently ignored.
fn compare_snapshots(old: &[(String, f64)], new: &[(String, f64)]) -> CompareOutcome {
    let usable = |ns: f64| ns.is_finite() && ns > 0.0;
    let mut out = CompareOutcome {
        lines: Vec::new(),
        warnings: Vec::new(),
        compared: 0,
        worst: None,
    };
    for (id, new_ns) in new {
        let Some((_, old_ns)) = old.iter().find(|(o, _)| o == id) else {
            out.lines
                .push(format!("{id:<24} {:>12} {new_ns:>12.0} {:>9}", "-", "new"));
            continue;
        };
        if !usable(*old_ns) || !usable(*new_ns) {
            out.warnings.push(format!(
                "skipping {id}: unusable ns/op (old {old_ns}, new {new_ns})"
            ));
            continue;
        }
        let delta_pct = (new_ns - old_ns) / old_ns * 100.0;
        out.lines.push(format!(
            "{id:<24} {old_ns:>12.0} {new_ns:>12.0} {delta_pct:>+8.1}%"
        ));
        out.compared += 1;
        if out.worst.as_ref().is_none_or(|(w, _)| delta_pct > *w) {
            out.worst = Some((delta_pct, id.clone()));
        }
    }
    for (id, old_ns) in old {
        if !new.iter().any(|(n, _)| n == id) {
            out.lines
                .push(format!("{id:<24} {old_ns:>12.0} {:>12} {:>9}", "-", "gone"));
        }
    }
    out
}

/// `bench --compare OLD NEW [--filter A,B]`: prints per-benchmark
/// deltas over the common ids and exits 1 when any regressed by more
/// than `limit` percent (default [`REGRESSION_LIMIT_PCT`]). With
/// `--filter`, only ids containing one of the comma-separated
/// substrings participate; `--limit PCT` widens the gate where the
/// measuring host is too jittery for the 10 % default (the 1-core CI
/// container swings ±30-40 % run to run even on end-to-end series).
fn run_compare(old_path: &str, new_path: &str, filter: Option<&str>, limit: f64) {
    let load = |path: &str| -> Vec<(String, f64)> {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let benches = parse_bench_json(&text);
        if benches.is_empty() {
            eprintln!("{path}: no benchmark entries found");
            std::process::exit(2);
        }
        benches
    };
    let mut old = load(old_path);
    let mut new = load(new_path);
    if let Some(filter) = filter {
        let needles: Vec<&str> = filter.split(',').map(str::trim).collect();
        let keep = |id: &str| needles.iter().any(|needle| id.contains(needle));
        old.retain(|(id, _)| keep(id));
        new.retain(|(id, _)| keep(id));
        if old.is_empty() && new.is_empty() {
            eprintln!("--filter {filter} matches no benchmarks in either snapshot");
            std::process::exit(2);
        }
    }

    let outcome = compare_snapshots(&old, &new);
    println!(
        "{:<24} {:>12} {:>12} {:>9}",
        "benchmark", "old ns/op", "new ns/op", "delta"
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    for warning in &outcome.warnings {
        eprintln!("warning: {warning}");
    }
    if outcome.compared == 0 {
        eprintln!("no comparable benchmarks between {old_path} and {new_path}");
        std::process::exit(2);
    }
    match outcome.worst {
        Some((pct, id)) if pct > limit => {
            eprintln!("REGRESSION: {id} slowed by {pct:.1}% (limit {limit:.0}%)");
            std::process::exit(1);
        }
        Some((pct, id)) => {
            println!("worst delta: {id} at {pct:+.1}% (limit {limit:.0}%) — OK");
        }
        None => unreachable!("compared > 0 implies a worst delta"),
    }
}

fn parse_degrees(args: &[String]) -> Vec<usize> {
    match opt(args, "--degrees") {
        None => vec![256, 1024, 4096],
        Some(v) => {
            let degrees: Vec<usize> = v
                .split(',')
                .map(|s| {
                    s.trim().parse().unwrap_or_else(|_| {
                        eprintln!("invalid --degrees entry: {s}");
                        std::process::exit(2);
                    })
                })
                .collect();
            if degrees.is_empty() {
                eprintln!("--degrees needs at least one degree");
                std::process::exit(2);
            }
            degrees
        }
    }
}

fn run_bench(args: &[String]) {
    if args.iter().any(|a| a == "--compare") {
        let pos = args.iter().position(|a| a == "--compare").expect("present");
        let (Some(old_path), Some(new_path)) = (args.get(pos + 1), args.get(pos + 2)) else {
            eprintln!("--compare needs two snapshot paths");
            std::process::exit(2);
        };
        let limit = opt(args, "--limit")
            .map(|v| {
                v.parse::<f64>().unwrap_or_else(|_| {
                    eprintln!("--limit wants a percentage, got {v}");
                    std::process::exit(2);
                })
            })
            .unwrap_or(REGRESSION_LIMIT_PCT);
        if !limit.is_finite() || limit <= 0.0 {
            eprintln!("--limit must be a positive percentage, got {limit}");
            std::process::exit(2);
        }
        run_compare(old_path, new_path, opt(args, "--filter").as_deref(), limit);
        return;
    }
    let threads = parse_threads(args);
    let workers = threads.resolve();
    let json = args.iter().any(|a| a == "--json");
    let seed: u64 = match opt(args, "--seed") {
        None => 7,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid --seed: {v}");
            std::process::exit(2);
        }),
    };
    let mut results: Vec<(String, f64)> = Vec::new();

    for n in parse_degrees(args) {
        // Degrees past the paper table (65536) fall back to the largest
        // paper modulus, 786433 = 3·2^18 + 1, whose 2^19-smooth order
        // supports negacyclic transforms up to n = 2^18.
        let params = ParamSet::for_degree(n)
            .or_else(|_| ParamSet::custom(n, 786433, 32))
            .expect("bench degree");
        let q = params.q;
        let sw = NttMultiplier::new(&params).expect("bench parameters");
        let operand = |salt: u64| {
            Polynomial::from_coeffs(
                (0..n as u64)
                    .map(|i| splitmix64(seed ^ (salt << 32) ^ i) % q)
                    .collect(),
                q,
            )
            .expect("valid degree")
        };
        let (a, b) = (operand(1), operand(2));

        results.push((
            format!("ntt_forward/{n}"),
            time_ns(|| {
                std::hint::black_box(sw.forward(std::hint::black_box(&a)).unwrap());
            }),
        ));
        // Inverse kernel on a warm in-place buffer (batch API, B = 1):
        // canonical output is valid lazy input, so repeated calls keep
        // transforming in-range data with no per-iteration copy.
        let mut inv_buf = a.coeffs().to_vec();
        sw.forward_batch(&mut inv_buf).expect("degree-n buffer");
        results.push((
            format!("ntt_inverse/{n}"),
            time_ns(|| {
                sw.inverse_batch(std::hint::black_box(&mut inv_buf))
                    .expect("degree-n buffer");
            }),
        ));
        results.push((
            format!("poly_multiply/{n}"),
            time_ns(|| {
                std::hint::black_box(sw.multiply(&a, &b).unwrap());
            }),
        ));
        // Batch-fused multiply as the Recompute referee runs it: B jobs
        // share one twiddle-table walk per stage. Every output is valid
        // lazy input, so repeated calls need no per-iteration copy.
        // ns/op is normalized PER JOB so the series reads directly
        // against poly_multiply/{n}.
        const BATCH: usize = 4;
        let mut ba: Vec<u64> = (0..BATCH).flat_map(|_| a.coeffs().to_vec()).collect();
        let mut bb: Vec<u64> = (0..BATCH).flat_map(|_| b.coeffs().to_vec()).collect();
        results.push((
            format!("ntt_batch/{BATCH}x{n}"),
            time_ns(|| {
                let (ba, bb) = (std::hint::black_box(&mut ba), std::hint::black_box(&mut bb));
                sw.forward_batch(ba).unwrap();
                sw.forward_batch(bb).unwrap();
                sw.pointwise_batch(ba, bb).unwrap();
                sw.inverse_batch(ba).unwrap();
            }) / BATCH as f64,
        ));

        // Wide multiply: one k-channel RNS job under the product of
        // discovered NTT-friendly primes, run as the sequential residue
        // loop (split → per-lane multiply → combine, one lane after
        // another). Per-job ns, so it reads directly against
        // `poly_multiply/{n}`.
        const RNS_CHANNELS: usize = 2;
        if let Ok(rns) = RnsMultiplier::with_discovered_basis(n, RNS_CHANNELS, 1 << 20) {
            let q_wide = rns.modulus();
            let wide_operand = |salt: u64| -> Vec<u128> {
                (0..n as u64)
                    .map(|i| {
                        let hi = splitmix64(seed ^ (salt << 32) ^ i) as u128;
                        let lo = splitmix64(seed ^ (salt << 32) ^ i ^ 0x5EED) as u128;
                        (hi << 64 | lo) % q_wide
                    })
                    .collect()
            };
            let wide_jobs: Vec<(Vec<u128>, Vec<u128>)> = (0..BATCH as u64)
                .map(|i| (wide_operand(30 + i), wide_operand(40 + i)))
                .collect();
            results.push((
                format!("rns_seq/{n}x{RNS_CHANNELS}"),
                time_ns(|| {
                    for (wa, wb) in &wide_jobs {
                        std::hint::black_box(rns.multiply(wa, wb).unwrap());
                    }
                }) / BATCH as f64,
            ));
        }

        // Full protocol ops on the host datapath: one KEM encapsulation
        // (five negacyclic multiplies behind re-encryption-ready
        // coins) and one lattice signature (rejection-sampled, so the
        // attempt count — fixed by the seed — is part of the cost).
        // Per-op ns; these are the series the protocol job-graph layer
        // accelerates, so a regression here moves every served op.
        // KEM needs a 256-bit message, hence the degree floor.
        if n >= 256 && ParamSet::for_degree(n).is_ok() {
            let encaps =
                ProtocolJob::scripted(ProtocolKind::Encaps, n, seed).expect("paper degree");
            results.push((
                format!("proto_encaps/{n}"),
                time_ns(|| {
                    std::hint::black_box(encaps.run_direct().unwrap());
                }),
            ));
            let sign = ProtocolJob::scripted(ProtocolKind::Sign, n, seed).expect("paper degree");
            results.push((
                format!("proto_sign/{n}"),
                time_ns(|| {
                    std::hint::black_box(sign.run_direct().unwrap());
                }),
            ));
        }

        // The functional engine models hardware provisioned for the
        // paper's degrees; skip the series where no architecture exists
        // (e.g. the 65536 NTT-coverage point).
        if let Ok(acc) = CryptoPim::new(&params) {
            let acc = acc.with_threads(threads);
            results.push((
                format!("engine_multiply/{n}"),
                time_ns(|| {
                    std::hint::black_box(acc.multiply_with_trace(&a, &b).unwrap());
                }),
            ));
            // Batch-fused engine path: B jobs share one StagePlan walk
            // over the pooled scratch slab. Per-job ns, so the series
            // reads directly against engine_multiply/{n}.
            let pairs: Vec<(Polynomial, Polynomial)> = (0..BATCH as u64)
                .map(|i| (operand(10 + i), operand(20 + i)))
                .collect();
            results.push((
                format!("engine_batch/{BATCH}x{n}"),
                time_ns(|| {
                    std::hint::black_box(
                        batch::multiply_batch_products(&acc, std::hint::black_box(&pairs)).unwrap(),
                    );
                }) / BATCH as f64,
            ));
        }
    }

    println!("{:<24} {:>14}", "benchmark", "ns/op (median)");
    for (id, ns) in &results {
        println!("{id:<24} {ns:>14.0}");
    }
    println!("workers: {workers}");

    if json {
        let path = opt(args, "--out").unwrap_or_else(|| format!("BENCH_{}.json", utc_timestamp()));
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"date\": \"{}\",\n", today_utc()));
        out.push_str(&format!("  \"commit\": \"{}\",\n", git_commit()));
        out.push_str(&format!("  \"seed\": {seed},\n"));
        out.push_str(&format!("  \"workers\": {workers},\n"));
        out.push_str("  \"benches\": [\n");
        for (i, (id, ns)) in results.iter().enumerate() {
            let sep = if i + 1 == results.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"id\": \"{id}\", \"ns_per_op\": {ns:.0}}}{sep}\n"
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write benchmark JSON");
        println!("wrote {path}");
    }
}

/// `rns-bench`: the modeled residue-sharded wide-modulus multiply
/// against the sequential residue loop, bit-verified, with the host
/// wall-clock of the loop alongside.
///
/// The host runs every residue lane on the same cores, so the fleet's
/// concurrency is invisible in wall-clock: the honest parallel-speedup
/// number comes from the pipeline model. The **sequential** modeled
/// latency is the sum of the per-lane pipelined latencies (one
/// superbank executes the k lanes back to back); the **sharded**
/// latency is the makespan of the same lanes placed greedily
/// (longest-first) on `--fleet` superbanks, which run concurrently by
/// construction — they share no banks, blocks, or wordlines. Every
/// job's product is bit-compared against the `O(n²)` schoolbook oracle
/// before any number is reported; `--min-speedup` gates on the modeled
/// speedup.
fn run_rns_bench(args: &[String]) {
    let parse_num = |name: &str, default: u64| -> u64 {
        match opt(args, name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid {name}: {v}");
                std::process::exit(2);
            }),
        }
    };
    let n = parse_num("--degree", 4096) as usize;
    let channels = parse_num("--channels", 2).clamp(2, 4) as usize;
    let fleet = parse_num("--fleet", 2).max(1) as usize;
    let jobs = parse_num("--jobs", 8).max(1) as usize;
    let seed = parse_num("--seed", 7);

    let basis = RnsBasis::discover(n, channels, 1 << 20).unwrap_or_else(|e| {
        eprintln!("no {channels}-prime NTT-friendly basis at n = {n}: {e}");
        std::process::exit(2);
    });
    let rns = RnsMultiplier::with_basis(n, basis.clone()).expect("discovered basis fits");
    let q_wide = basis.modulus();
    println!(
        "rns-bench: n = {n}, k = {channels} residue channels {:?}, \
         wide modulus {q_wide} ({} bits), fleet {fleet}, {jobs} jobs, seed {seed}",
        basis.moduli(),
        128 - q_wide.leading_zeros()
    );

    let wide_operand = |salt: u64| -> Vec<u128> {
        (0..n as u64)
            .map(|i| {
                let hi = splitmix64(seed ^ (salt << 32) ^ i) as u128;
                let lo = splitmix64(seed ^ (salt << 32) ^ i ^ 0x5EED) as u128;
                (hi << 64 | lo) % q_wide
            })
            .collect()
    };
    let pairs: Vec<(Vec<u128>, Vec<u128>)> = (0..jobs as u64)
        .map(|i| (wide_operand(2 * i + 1), wide_operand(2 * i + 2)))
        .collect();

    // Bit-verification before any timing: every job's sequential
    // residue-loop product against the schoolbook oracle, whenever the
    // wide modulus fits the oracle's headroom.
    let oracle_fits = q_wide < 1 << 63;
    let mismatches = if oracle_fits {
        pairs
            .iter()
            .filter(|(a, b)| {
                rns.multiply(a, b).expect("sequential loop")
                    != ntt::rns::schoolbook_u128(a, b, q_wide)
            })
            .count()
    } else {
        0
    };
    if mismatches > 0 {
        eprintln!(
            "FAILED: {mismatches} of {jobs} sequential products differ from the schoolbook oracle"
        );
        std::process::exit(1);
    }
    if oracle_fits {
        println!("verified: {jobs} sequential products == schoolbook oracle");
    } else {
        println!("unverified: the wide modulus exceeds the schoolbook oracle's headroom");
    }

    // Host wall-clock, per job (median over repeated passes).
    let wall_seq_ns = time_ns(|| {
        for (a, b) in &pairs {
            std::hint::black_box(rns.multiply(a, b).unwrap());
        }
    }) / jobs as f64;

    // Modeled fleet latency from the pipeline model: per-lane pipelined
    // latency at (n, q_i), summed for the sequential loop, scheduled
    // longest-first over the fleet for the sharded path.
    let lane_latency_us: Vec<f64> = basis
        .moduli()
        .iter()
        .map(|&q| {
            let bits = if q < 1 << 16 { 16 } else { 32 };
            let params = ParamSet::custom(n, q, bits).expect("lane parameters");
            CryptoPim::new(&params)
                .expect("lane architecture")
                .report()
                .expect("lane report")
                .pipelined
                .latency_us
        })
        .collect();
    let modeled_seq_us: f64 = lane_latency_us.iter().sum();
    let mut bank_load = vec![0.0f64; fleet.min(channels)];
    let mut lanes_desc = lane_latency_us.clone();
    lanes_desc.sort_by(|a, b| b.partial_cmp(a).expect("finite latency"));
    for lane in lanes_desc {
        let min = bank_load
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).expect("finite load"))
            .expect("fleet >= 1");
        *min += lane;
    }
    let modeled_sharded_us = bank_load.iter().cloned().fold(0.0f64, f64::max);
    let modeled_speedup = modeled_seq_us / modeled_sharded_us;

    println!("host wall-clock: sequential {wall_seq_ns:.0} ns/job (one core runs all lanes)");
    println!(
        "modeled fleet:   per-lane {lane_latency_us:?} µs; sequential {modeled_seq_us:.2} µs, \
         sharded over {fleet} superbanks {modeled_sharded_us:.2} µs → {modeled_speedup:.2}× per job"
    );

    if args.iter().any(|a| a == "--json") {
        let path =
            opt(args, "--out").unwrap_or_else(|| format!("BENCH_rns_{}.json", utc_timestamp()));
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"date\": \"{}\",\n", today_utc()));
        out.push_str(&format!("  \"commit\": \"{}\",\n", git_commit()));
        out.push_str(&format!("  \"seed\": {seed},\n"));
        out.push_str(&format!("  \"degree\": {n},\n"));
        out.push_str(&format!("  \"channels\": {channels},\n"));
        out.push_str(&format!("  \"fleet\": {fleet},\n"));
        out.push_str(&format!("  \"jobs\": {jobs},\n"));
        out.push_str(&format!(
            "  \"moduli\": [{}],\n",
            basis
                .moduli()
                .iter()
                .map(|q| q.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("  \"wide_modulus\": \"{q_wide}\",\n"));
        out.push_str(&format!("  \"verified\": {oracle_fits},\n"));
        out.push_str(&format!("  \"wall_seq_ns_per_job\": {wall_seq_ns:.0},\n"));
        out.push_str(&format!(
            "  \"modeled_lane_latency_us\": [{}],\n",
            lane_latency_us
                .iter()
                .map(|l| format!("{l:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("  \"modeled_seq_us\": {modeled_seq_us:.3},\n"));
        out.push_str(&format!(
            "  \"modeled_sharded_us\": {modeled_sharded_us:.3},\n"
        ));
        out.push_str(&format!("  \"modeled_speedup\": {modeled_speedup:.3}\n"));
        out.push_str("}\n");
        std::fs::write(&path, out).expect("write rns-bench JSON");
        println!("wrote {path}");
    }

    if let Some(min) = opt(args, "--min-speedup") {
        let min: f64 = min.parse().unwrap_or_else(|_| {
            eprintln!("invalid --min-speedup");
            std::process::exit(2);
        });
        if modeled_speedup < min {
            eprintln!(
                "FAILED: modeled fleet speedup {modeled_speedup:.2}× below required {min:.2}×"
            );
            std::process::exit(1);
        }
    }
}

/// Parses `--check off | residue[:points[:seed]] | recompute`,
/// returning the policy and the raw argument for report labels.
fn parse_check_policy(args: &[String], default_seed: u64) -> (CheckPolicy, String) {
    let check_arg = opt(args, "--check").unwrap_or_else(|| "off".into());
    let check = match check_arg.as_str() {
        "off" => CheckPolicy::Disabled,
        "recompute" => CheckPolicy::Recompute,
        other => {
            let mut parts = other.split(':');
            if parts.next() != Some("residue") {
                eprintln!("unknown check policy: {other}");
                std::process::exit(2);
            }
            let points: u8 = parts.next().map_or(Ok(3), str::parse).unwrap_or_else(|_| {
                eprintln!("invalid residue point count in --check {other}");
                std::process::exit(2);
            });
            let pt_seed: u64 = parts
                .next()
                .map_or(Ok(default_seed), str::parse)
                .unwrap_or_else(|_| {
                    eprintln!("invalid residue seed in --check {other}");
                    std::process::exit(2);
                });
            CheckPolicy::residue(points, pt_seed)
        }
    };
    (check, check_arg)
}

/// `serve-loadgen`: the load driver behind one flag parser. Serves a
/// seeded workload — raw multiplies (narrow, hot-key, wide blend) or a
/// protocol mix — in process or over loopback TCP, bit-verifies every
/// op against the software oracle, prints and optionally writes one
/// report, and exits 1 on any mismatch, failure or drop, or when a
/// `--min-occupancy` / `--max-p99-us` gate fails. Flags the chosen
/// transport cannot honour exit 2.
fn run_serve_loadgen(args: &[String]) {
    let parse_num = |name: &str, default: u64| -> u64 {
        match opt(args, name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid {name}: {v}");
                std::process::exit(2);
            }),
        }
    };
    let parse_f64 = |name: &str| -> Option<f64> {
        opt(args, name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid {name}: {v}");
                std::process::exit(2);
            })
        })
    };
    let refuse = |why: &str| -> ! {
        eprintln!("serve-loadgen: {why}");
        std::process::exit(2);
    };
    let tcp = args.iter().any(|a| a == "--tcp");
    let seed = parse_num("--seed", 7);
    let ops = parse_num("--ops", parse_num("--jobs", 1024)) as usize;
    let degrees = if opt(args, "--degrees").is_some() {
        parse_degrees(args)
    } else {
        vec![256, 512, 1024]
    };
    if let Some(&n) = degrees.iter().find(|&&n| ParamSet::for_degree(n).is_err()) {
        refuse(&format!("degree {n} has no paper parameter set"));
    }
    let clients = parse_num("--clients", 4).max(1) as usize;
    let window = parse_num("--window", 1).max(1) as usize;
    let rate = parse_f64("--rate");
    let workers = parse_num("--workers", 2).max(1) as usize;
    let queue_cap = parse_num("--queue-cap", 4096).max(1) as usize;
    let backpressure = match opt(args, "--backpressure").as_deref() {
        None | Some("block") => Backpressure::Block,
        Some("reject") => Backpressure::Reject,
        Some(other) => refuse(&format!("unknown backpressure policy: {other}")),
    };
    let (check, check_arg) = parse_check_policy(args, seed);
    let hot_keys = parse_num("--hot-keys", 0) as usize;
    let hot_capacity = parse_num("--hot-capacity", hot_keys as u64) as usize;
    let wide = parse_f64("--wide").unwrap_or(0.0);
    if !(0.0..=1.0).contains(&wide) {
        refuse(&format!(
            "invalid --wide (need a fraction in 0..=1): {wide}"
        ));
    }
    let wide_channels = parse_num("--wide-channels", 2).clamp(2, 4) as usize;
    let workload = match opt(args, "--protocols") {
        None => Workload::Raw {
            hot_keys,
            wide,
            wide_channels,
        },
        Some(spec) => Workload::Protocols {
            mix: ProtocolMix::parse(&spec)
                .unwrap_or_else(|e| refuse(&format!("invalid --protocols: {e}"))),
            key_churn: parse_num("--key-churn", 0) as usize,
        },
    };
    let min_occupancy = parse_f64("--min-occupancy");
    let max_p99_us = parse_f64("--max-p99-us");
    let service = ServiceConfig {
        workers,
        queue_capacity: queue_cap,
        backpressure,
        check,
        hot_capacity,
        ..ServiceConfig::default()
    };

    // TCP: a self-contained run against an in-process server on an
    // ephemeral loopback port, or --connect to an external `serve`.
    let mut server = None;
    let transport = if tcp {
        if let Err(e) = drive::tcp_carries(&workload) {
            refuse(&format!("--tcp: {e}"));
        }
        let quota = parse_num("--quota", (clients * window) as u64).max(1) as usize;
        let wait_timeout_ms =
            parse_num("--wait-timeout-ms", 10_000).min(u64::from(u32::MAX)) as u32;
        let token = opt(args, "--token").unwrap_or_else(|| "loadgen".into());
        let addr = match opt(args, "--connect") {
            Some(external) => external
                .parse()
                .unwrap_or_else(|e| refuse(&format!("invalid --connect {external}: {e}"))),
            None => {
                let started = Server::start(
                    "127.0.0.1:0",
                    ServerConfig {
                        tenants: vec![TenantConfig::new("loadgen", &token, quota)],
                        max_connections: clients + 8,
                        max_wait: Duration::from_millis(u64::from(wait_timeout_ms)),
                        service: service.clone(),
                    },
                )
                .unwrap_or_else(|e| {
                    eprintln!("cannot bind loopback: {e}");
                    std::process::exit(1);
                });
                server.insert(started).local_addr()
            }
        };
        Transport::Tcp {
            addr,
            token,
            wait_timeout_ms,
        }
    } else {
        Transport::InProcess(service)
    };
    let config = DriveConfig {
        seed,
        ops,
        degrees,
        clients,
        window,
        rate,
        workload,
        transport,
    };
    let transport_label = match &config.transport {
        Transport::InProcess(_) => "in-process".to_string(),
        Transport::Tcp { addr, .. } => format!("tcp {addr}"),
    };
    let workload_label = match &config.workload {
        Workload::Raw { .. } if wide > 0.0 => {
            format!("raw, wide blend {wide} × {wide_channels} channels")
        }
        Workload::Raw { .. } if hot_keys > 0 => format!("raw, {hot_keys} hot keys"),
        Workload::Raw { .. } => "raw".to_string(),
        Workload::Protocols { key_churn, .. } => format!(
            "protocols [{}], key churn {key_churn}",
            opt(args, "--protocols").unwrap_or_default()
        ),
    };
    println!(
        "serve-loadgen: {transport_label}, {workload_label}; seed {seed}, {ops} ops over n ∈ {:?}, \
         {clients} clients × window {window}{}, {workers} banks + {workers} \
         backstop executors, queue {queue_cap} ({backpressure:?}), \
         check {check_arg}, hot capacity {hot_capacity}",
        config.degrees,
        rate.map_or(String::new(), |r| format!(" at {r} ops/s")),
    );
    let report = drive::run(&config).unwrap_or_else(|e| {
        eprintln!("FAILED: {e}");
        std::process::exit(1);
    });
    if let Some(server) = server {
        server.shutdown();
    }

    let t = &report.total;
    println!(
        "served: {} ok, {} rejected, {} failed, {} mismatches of {} ops in {:.3} s → {:.0} ops/s",
        t.ok, t.rejected, t.failed, t.mismatches, t.ops, report.wall_s, report.throughput
    );
    for (kind, k) in &report.per_kind {
        println!(
            "  {:<8} {} ops: {} ok, {} rejected, {} failed, {} mismatches; host {:.1} µs/op",
            kind.as_str(),
            k.ops,
            k.ok,
            k.rejected,
            k.failed,
            k.mismatches,
            k.mean_host_us(),
        );
    }
    println!(
        "client-observed latency: p50 {:.0} µs, p95 {:.0} µs, p99 {:.0} µs, max {} µs",
        report.p50_us, report.p95_us, report.p99_us, report.max_us
    );
    println!(
        "flow control: {} quota rejects, {} sheds, {} wait timeouts, {} fault-recovered",
        report.quota_rejected, report.shed, report.wait_timeouts, report.recovered
    );
    println!("{}", report.stats);
    let p = &report.phase;
    if p.engine_ns + p.check_total_ns() + p.recombine_ns > 0 {
        println!(
            "phases: engine {:.1} ms, check transform {:.1} ms, pointwise {:.1} ms, \
             compare {:.1} ms, recombine {:.1} ms",
            p.engine_ns as f64 / 1e6,
            p.check_transform_ns as f64 / 1e6,
            p.check_pointwise_ns as f64 / 1e6,
            p.check_compare_ns as f64 / 1e6,
            p.recombine_ns as f64 / 1e6,
        );
    }

    if args.iter().any(|a| a == "--json") {
        let path =
            opt(args, "--out").unwrap_or_else(|| format!("BENCH_loadgen_{}.json", utc_timestamp()));
        let tally = |t: &drive::Tally| {
            format!(
                "\"ops\": {}, \"ok\": {}, \"rejected\": {}, \"failed\": {}, \"mismatches\": {}, \
                 \"mean_host_us\": {:.1}",
                t.ops,
                t.ok,
                t.rejected,
                t.failed,
                t.mismatches,
                t.mean_host_us()
            )
        };
        let per_kind: Vec<String> = report
            .per_kind
            .iter()
            .map(|(kind, k)| format!("    {{ \"kind\": \"{kind}\", {} }}", tally(k)))
            .collect();
        let list = |xs: &[usize]| {
            xs.iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"date\": \"{}\",\n", today_utc()));
        out.push_str(&format!("  \"commit\": \"{}\",\n", git_commit()));
        out.push_str(&format!("  \"transport\": \"{transport_label}\",\n"));
        out.push_str(&format!("  \"workload\": \"{workload_label}\",\n"));
        out.push_str(&format!("  \"seed\": {seed},\n"));
        out.push_str(&format!("  \"degrees\": [{}],\n", list(&config.degrees)));
        out.push_str(&format!("  \"clients\": {clients},\n"));
        out.push_str(&format!("  \"window\": {window},\n"));
        out.push_str(&format!(
            "  \"rate\": {},\n",
            rate.map_or("null".to_string(), |r| r.to_string())
        ));
        out.push_str(&format!("  \"workers\": {workers},\n"));
        out.push_str(&format!("  \"queue_capacity\": {queue_cap},\n"));
        out.push_str(&format!("  \"check\": \"{check_arg}\",\n"));
        out.push_str(&format!("  \"hot_capacity\": {hot_capacity},\n"));
        out.push_str(&format!("  \"total\": {{ {} }},\n", tally(t)));
        out.push_str(&format!(
            "  \"per_kind\": [\n{}\n  ],\n",
            per_kind.join(",\n")
        ));
        out.push_str(&format!("  \"wide_ops\": {},\n", report.wide_ops()));
        out.push_str(&format!("  \"dropped\": {},\n", report.dropped));
        out.push_str(&format!(
            "  \"quota_rejected\": {},\n",
            report.quota_rejected
        ));
        out.push_str(&format!("  \"shed\": {},\n", report.shed));
        out.push_str(&format!("  \"wait_timeouts\": {},\n", report.wait_timeouts));
        out.push_str(&format!("  \"recovered\": {},\n", report.recovered));
        out.push_str(&format!("  \"wall_s\": {:.3},\n", report.wall_s));
        out.push_str(&format!("  \"throughput\": {:.1},\n", report.throughput));
        out.push_str(&format!("  \"p50_us\": {:.1},\n", report.p50_us));
        out.push_str(&format!("  \"p95_us\": {:.1},\n", report.p95_us));
        out.push_str(&format!("  \"p99_us\": {:.1},\n", report.p99_us));
        out.push_str(&format!("  \"max_us\": {},\n", report.max_us));
        out.push_str(&format!(
            "  \"hot_hit_rate\": {:.4},\n",
            report.stats.hot_hit_rate()
        ));
        out.push_str(&format!(
            "  \"phase\": {{ \"engine_ns\": {}, \"check_transform_ns\": {}, \
             \"check_pointwise_ns\": {}, \"check_compare_ns\": {}, \"recombine_ns\": {} }},\n",
            p.engine_ns,
            p.check_transform_ns,
            p.check_pointwise_ns,
            p.check_compare_ns,
            p.recombine_ns
        ));
        // The same serializer the net crate's Stats verb uses; over TCP
        // the server's whole Stats document rides along verbatim.
        out.push_str(&format!(
            "  \"service_stats\": {},\n",
            report.stats.to_json()
        ));
        out.push_str(&format!(
            "  \"server\": {}\n",
            report.server_json.as_deref().map_or("null", str::trim)
        ));
        out.push_str("}\n");
        std::fs::write(&path, out).expect("write loadgen JSON");
        println!("wrote {path}");
    }

    let mut sound = true;
    if !report.is_clean() {
        eprintln!(
            "FAILED: {} mismatches, {} failed, {} dropped; {} of {} ops served",
            t.mismatches, t.failed, report.dropped, t.ok, t.ops
        );
        sound = false;
    }
    // In process the stats are the drained service's, so every counter
    // identity must hold exactly.
    if !tcp {
        if let Err(e) = report.stats.check_drained() {
            eprintln!("FAILED: service counters do not balance: {e}");
            sound = false;
        }
    }
    if let Some(min) = min_occupancy {
        if report.stats.mean_occupancy < min {
            eprintln!(
                "FAILED: mean occupancy {:.2} below required {min:.2} — concurrent ops are \
                 not sharing batches",
                report.stats.mean_occupancy
            );
            sound = false;
        }
    }
    if let Some(max) = max_p99_us {
        if report.p99_us > max {
            eprintln!(
                "FAILED: client-observed p99 {:.0} µs above the {max:.0} µs gate",
                report.p99_us
            );
            sound = false;
        }
    }
    if !sound {
        std::process::exit(1);
    }
}

/// `fault-campaign`: seeded fault-injection sweep over the
/// recover-or-quarantine serving stack. Prints a per-cell table and the
/// aggregate coverage/overhead, optionally writes a `BENCH_faults_*`
/// JSON snapshot, and exits 1 when the campaign is unsound (a corrupt
/// product was served, or a job failed outside the fault machinery).
fn run_fault_campaign(args: &[String]) {
    let parse_num = |name: &str, default: u64| -> u64 {
        match opt(args, name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid {name}: {v}");
                std::process::exit(2);
            }),
        }
    };
    let defaults = CampaignConfig::default();
    let seed = parse_num("--seed", defaults.seed);
    let jobs = parse_num("--jobs", defaults.jobs_per_cell as u64).max(1) as usize;
    let points = parse_num("--points", u64::from(defaults.check_points)).min(255) as u8;
    let max_attempts = parse_num("--max-attempts", u64::from(defaults.max_attempts)) as u32;
    let quarantine_after =
        parse_num("--quarantine-after", u64::from(defaults.quarantine_after)) as u32;
    let degrees = if opt(args, "--degrees").is_some() {
        parse_degrees(args)
    } else {
        defaults.degrees.clone()
    };
    let kinds = match opt(args, "--kinds") {
        None => defaults.kinds.clone(),
        Some(v) => v
            .split(',')
            .map(|s| match s.trim() {
                "stuck0" => CampaignKind::StuckAt0,
                "stuck1" => CampaignKind::StuckAt1,
                "transient" => CampaignKind::Transient,
                "wearout" => CampaignKind::WearOut,
                other => {
                    eprintln!("unknown fault kind: {other}");
                    std::process::exit(2);
                }
            })
            .collect(),
    };
    let rates: Vec<f64> = match opt(args, "--rates") {
        None => defaults.rates.clone(),
        Some(v) => v
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("invalid --rates entry: {s}");
                    std::process::exit(2);
                })
            })
            .collect(),
    };

    let hot_keys = parse_num("--hot-keys", 0) as usize;

    let config = CampaignConfig {
        seed,
        degrees: degrees.clone(),
        kinds,
        rates,
        jobs_per_cell: jobs,
        check_points: points,
        max_attempts,
        quarantine_after,
        hot_keys,
    };
    println!(
        "fault-campaign: seed {seed}, {jobs} jobs/cell over n ∈ {degrees:?}, \
         {} kinds × {} rates, {points}-point screen, \
         {max_attempts} attempts, quarantine after {quarantine_after}, hot keys {hot_keys}",
        config.kinds.len(),
        config.rates.len()
    );
    let report = campaign::run(&config);

    println!(
        "{:<10} {:>6} {:>8} {:>6} {:>6} {:>6} {:>7} {:>9} {:>8} {:>10} {:>5} {:>13}",
        "kind",
        "n",
        "rate",
        "served",
        "wrong",
        "unrec",
        "refused",
        "detected",
        "retries",
        "recovered",
        "quar",
        "screen"
    );
    for c in &report.cells {
        println!(
            "{:<10} {:>6} {:>8.0e} {:>6} {:>6} {:>6} {:>7} {:>9} {:>8} {:>10} {:>5} {:>6}/{:<6}",
            c.kind.label(),
            c.degree,
            c.rate,
            c.served,
            c.wrong,
            c.unrecovered,
            c.refused,
            c.detected,
            c.retries,
            c.recovered,
            c.quarantined_banks,
            c.screen_detected,
            c.screen_corrupted,
        );
    }
    println!(
        "referee detection coverage: {:.3} ({} detected, {} wrong)",
        report.detection_coverage, report.detected, report.wrong
    );
    println!(
        "residue screen coverage:    {:.3} (probabilistic {points}-point check, measured)",
        report.residue_coverage
    );
    println!(
        "recovery overhead:          {:.2}× over the fault-free direct path",
        report.recovery_overhead
    );
    let hot_hits: u64 = report.cells.iter().map(|c| c.hot_hits).sum();
    if hot_keys > 0 {
        println!("hot cache hits:             {hot_hits} (reused-key workload, cache capacity {hot_keys})");
    }

    if args.iter().any(|a| a == "--json") {
        let path =
            opt(args, "--out").unwrap_or_else(|| format!("BENCH_faults_{}.json", utc_timestamp()));
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"date\": \"{}\",\n", today_utc()));
        out.push_str(&format!("  \"commit\": \"{}\",\n", git_commit()));
        out.push_str(&format!("  \"seed\": {seed},\n"));
        out.push_str(&format!("  \"jobs_per_cell\": {jobs},\n"));
        out.push_str(&format!("  \"check_points\": {points},\n"));
        out.push_str(&format!("  \"max_attempts\": {max_attempts},\n"));
        out.push_str(&format!("  \"quarantine_after\": {quarantine_after},\n"));
        out.push_str(&format!("  \"hot_keys\": {hot_keys},\n"));
        out.push_str(&format!("  \"hot_hits\": {hot_hits},\n"));
        out.push_str(&format!(
            "  \"detection_coverage\": {:.4},\n",
            report.detection_coverage
        ));
        out.push_str(&format!(
            "  \"residue_coverage\": {:.4},\n",
            report.residue_coverage
        ));
        out.push_str(&format!(
            "  \"recovery_overhead\": {:.4},\n",
            report.recovery_overhead
        ));
        out.push_str(&format!("  \"detected\": {},\n", report.detected));
        out.push_str(&format!("  \"wrong\": {},\n", report.wrong));
        out.push_str("  \"cells\": [\n");
        for (i, c) in report.cells.iter().enumerate() {
            let sep = if i + 1 == report.cells.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"kind\": \"{}\", \"degree\": {}, \"rate\": {:e}, \"jobs\": {}, \
                 \"served\": {}, \"wrong\": {}, \"unrecovered\": {}, \"refused\": {}, \
                 \"detected\": {}, \"retries\": {}, \"recovered\": {}, \
                 \"quarantined_banks\": {}, \"screen_corrupted\": {}, \
                 \"screen_detected\": {}, \"residue_coverage\": {:.4}, \
                 \"hot_hits\": {}, \"stats\": {}}}{sep}\n",
                c.kind.label(),
                c.degree,
                c.rate,
                c.jobs,
                c.served,
                c.wrong,
                c.unrecovered,
                c.refused,
                c.detected,
                c.retries,
                c.recovered,
                c.quarantined_banks,
                c.screen_corrupted,
                c.screen_detected,
                c.residue_coverage(),
                c.hot_hits,
                c.stats.to_json(),
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write fault-campaign JSON");
        println!("wrote {path}");
    }

    // --wide: one extra cell streams RNS-decomposed wide jobs, each one
    // `WideMul` graph op, through the residue-sharded pipeline under
    // seeded transient faults. The
    // claim gated here is the per-lane checking story: a fault lands in
    // one residue lane, is detected and retried alone, and the
    // recombined product is never wrong.
    if args.iter().any(|a| a == "--wide") {
        let wide_channels = parse_num("--wide-channels", 2).clamp(2, 4) as usize;
        let wide_rate = match opt(args, "--wide-rate") {
            None => 1e-5,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid --wide-rate: {v}");
                std::process::exit(2);
            }),
        };
        let wide_degree = *degrees.first().expect("non-empty degrees");
        let wide = campaign::run_wide_cell(&WideCellConfig {
            seed,
            degree: wide_degree,
            channels: wide_channels,
            jobs,
            rate: wide_rate,
            max_attempts,
            quarantine_after,
        });
        println!(
            "wide cell: n = {}, k = {} lanes, rate {:.0e}: {} served, {} wrong, \
             {} unrecovered, {} refused, {} detected, {} recovered, {} jobs with a lane retry",
            wide.degree,
            wide.channels,
            wide.rate,
            wide.served,
            wide.wrong,
            wide.unrecovered,
            wide.refused,
            wide.detected,
            wide.recovered,
            wide.lane_retry_jobs
        );
        if wide.wrong > 0 || wide.failed > 0 {
            eprintln!(
                "FAILED: wide cell unsound — {} wrong recombined products, {} non-fault failures",
                wide.wrong, wide.failed
            );
            std::process::exit(1);
        }
        if wide_rate > 0.0 && (wide.detected < 1 || wide.recovered < 1) {
            eprintln!(
                "FAILED: wide cell proved nothing — {} detected, {} recovered at rate {wide_rate:e}",
                wide.detected, wide.recovered
            );
            std::process::exit(1);
        }
    }

    // --protocols: one extra cell streams full protocol ops (KEM,
    // signing, SHE) through the job-graph layer under seeded transient
    // faults. The claim gated here is per-node fault isolation: a fault
    // lands in one graph node, is detected and retried alone, and the
    // op's typed output is never wrong.
    if args.iter().any(|a| a == "--protocols") {
        let proto_rate = match opt(args, "--protocol-rate") {
            None => 1e-4,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid --protocol-rate: {v}");
                std::process::exit(2);
            }),
        };
        let proto_degree = *degrees.first().expect("non-empty degrees");
        let proto = campaign::run_protocol_cell(&ProtocolCellConfig {
            seed,
            degree: proto_degree,
            ops: jobs,
            rate: proto_rate,
            max_attempts: max_attempts.max(6),
            quarantine_after,
        });
        println!(
            "protocol cell: n = {}, rate {:.0e}: {} served, {} wrong, {} unrecovered, \
             {} refused, {} detected, {} recovered, {} ops with a node retry",
            proto.degree,
            proto.rate,
            proto.served,
            proto.wrong,
            proto.unrecovered,
            proto.refused,
            proto.detected,
            proto.recovered,
            proto.node_retry_ops
        );
        if proto.wrong > 0 || proto.failed > 0 {
            eprintln!(
                "FAILED: protocol cell unsound — {} wrong typed outputs, {} non-fault failures",
                proto.wrong, proto.failed
            );
            std::process::exit(1);
        }
        if proto_rate > 0.0 && (proto.detected < 1 || proto.recovered < 1) {
            eprintln!(
                "FAILED: protocol cell proved nothing — {} detected, {} recovered at rate {proto_rate:e}",
                proto.detected, proto.recovered
            );
            std::process::exit(1);
        }
    }

    if !report.is_sound() {
        eprintln!(
            "FAILED: campaign unsound — {} corrupt products served, {} non-fault failures",
            report.wrong,
            report.cells.iter().map(|c| c.failed).sum::<usize>()
        );
        std::process::exit(1);
    }
    // A hot-keyed campaign that never hit the cache proved nothing
    // about the cached datapath — fail loudly instead of passing
    // vacuously (the CI fault-smoke hot cell relies on this).
    if hot_keys > 0 && hot_hits == 0 {
        eprintln!("FAILED: --hot-keys {hot_keys} requested but the hot cache was never hit");
        std::process::exit(1);
    }
}

/// `serve`: binds the TCP front end on `--listen` and serves until an
/// operator client sends the `Shutdown` verb (or the process is
/// killed). Wire format: DESIGN.md §15.
fn run_serve(args: &[String]) {
    let parse_num = |name: &str, default: u64| -> u64 {
        match opt(args, name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid {name}: {v}");
                std::process::exit(2);
            }),
        }
    };
    let listen = opt(args, "--listen").unwrap_or_else(|| "127.0.0.1:7681".into());
    let Some(token) = opt(args, "--token") else {
        eprintln!("serve requires --token (the tenant auth token)");
        std::process::exit(2);
    };
    let quota = parse_num("--quota", 64).max(1) as usize;
    let workers = parse_num("--workers", 2).max(1) as usize;
    let queue_cap = parse_num("--queue-cap", 4096).max(2) as usize;
    let max_conns = parse_num("--max-conns", 256).max(1) as usize;
    let max_wait_ms = parse_num("--max-wait-ms", 30_000).max(1);
    let hot_keys = parse_num("--hot-keys", 0) as usize;
    let (check, check_arg) = parse_check_policy(args, 0);

    // The --token tenant can stop the server; --op-token adds a
    // separate operator identity when the serving tenant shouldn't
    // hold that capability.
    let mut tenants = vec![TenantConfig {
        name: "default".into(),
        token: token.clone(),
        quota,
        may_shutdown: opt(args, "--op-token").is_none(),
    }];
    if let Some(op) = opt(args, "--op-token") {
        tenants.push(TenantConfig {
            name: "operator".into(),
            token: op,
            quota: 1,
            may_shutdown: true,
        });
    }

    let config = ServerConfig {
        tenants,
        max_connections: max_conns,
        max_wait: Duration::from_millis(max_wait_ms),
        service: ServiceConfig {
            workers,
            queue_capacity: queue_cap,
            check,
            hot_capacity: hot_keys,
            ..ServiceConfig::default()
        },
    };
    let server = Server::start(listen.as_str(), config).unwrap_or_else(|e| {
        eprintln!("cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    println!(
        "serving on {} — {workers} banks, queue {queue_cap}, \
         quota {quota}/tenant, {max_conns} connections max, check {check_arg}; \
         send the Shutdown verb to stop",
        server.local_addr()
    );
    let stats = server.wait();
    println!("drained; final scheduler state:\n{stats}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };

    match command.as_str() {
        // `cli -- --json` is shorthand for `cli -- bench --json`.
        "bench" | "--json" => {
            run_bench(&args);
            return;
        }
        "rns-bench" => {
            run_rns_bench(&args);
            return;
        }
        "serve-loadgen" => {
            run_serve_loadgen(&args);
            return;
        }
        "serve" => {
            run_serve(&args);
            return;
        }
        "fault-campaign" => {
            run_fault_campaign(&args);
            return;
        }
        _ => {}
    }

    match command.as_str() {
        "simulate" => {
            let n = parse_degree(&args, 1024);
            let org = match opt(&args, "--org").as_deref() {
                None | Some("cryptopim") => Organization::CryptoPim,
                Some("naive") => Organization::Naive,
                Some("area") => Organization::AreaEfficient,
                Some(other) => {
                    eprintln!("unknown organization: {other}");
                    std::process::exit(2);
                }
            };
            let params = ParamSet::for_degree(n).unwrap_or_else(|e| {
                eprintln!("bad degree: {e}");
                std::process::exit(2);
            });
            let acc = CryptoPim::with_configuration(
                &params,
                org,
                MultiplierKind::CryptoPim,
                ReductionStyle::CryptoPim,
            )
            .expect("paper parameters");
            println!("{}", acc.report().expect("report"));
        }
        "baseline" => {
            let n = parse_degree(&args, 1024);
            let design = match opt(&args, "--design").as_deref() {
                Some("bp1") => PimDesign::Bp1,
                Some("bp2") => PimDesign::Bp2,
                Some("bp3") => PimDesign::Bp3,
                None | Some("cryptopim") => PimDesign::CryptoPim,
                Some(other) => {
                    eprintln!("unknown design: {other}");
                    std::process::exit(2);
                }
            };
            let params = ParamSet::for_degree(n).unwrap_or_else(|e| {
                eprintln!("bad degree: {e}");
                std::process::exit(2);
            });
            let latency = design.latency_us(&params).expect("paper parameters");
            println!(
                "{design} at n = {n}: non-pipelined latency {latency:.2} µs \
                 (multiplier: {:?}, reduction: {:?})",
                design.multiplier(),
                design.reduction()
            );
        }
        "verify" => {
            let n = parse_degree(&args, 1024);
            let params = ParamSet::for_degree(n).unwrap_or_else(|e| {
                eprintln!("bad degree: {e}");
                std::process::exit(2);
            });
            let acc = CryptoPim::new(&params)
                .expect("paper parameters")
                .with_threads(parse_threads(&args));
            let sw = NttMultiplier::new(&params).expect("paper parameters");
            let a = Polynomial::from_coeffs(
                (0..n as u64).map(|i| i * 31 % params.q).collect(),
                params.q,
            )
            .expect("valid degree");
            let b = Polynomial::from_coeffs(
                (0..n as u64).map(|i| (i * 17 + 5) % params.q).collect(),
                params.q,
            )
            .expect("valid degree");
            let ok = acc.multiply(&a, &b).expect("pim") == sw.multiply(&a, &b).expect("sw");
            println!(
                "n = {n}: PIM datapath vs software NTT: {}",
                if ok { "OK" } else { "MISMATCH" }
            );
            if !ok {
                std::process::exit(1);
            }
        }
        "montecarlo" => {
            let samples = opt(&args, "--samples")
                .map(|v| v.parse().expect("numeric --samples"))
                .unwrap_or(5000);
            let variation = opt(&args, "--variation")
                .map(|v| v.parse::<f64>().expect("numeric --variation") / 100.0)
                .unwrap_or(0.10);
            let r = run_monte_carlo(
                &DeviceParams::nominal(),
                &MonteCarloConfig {
                    samples,
                    variation,
                    ..MonteCarloConfig::default()
                },
            );
            println!(
                "{samples} samples at {:.0} % variation: max margin reduction {:.1} %, {} failures",
                variation * 100.0,
                r.max_margin_reduction * 100.0,
                r.failures
            );
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(&str, f64)]) -> Vec<(String, f64)> {
        entries
            .iter()
            .map(|(id, ns)| (id.to_string(), *ns))
            .collect()
    }

    #[test]
    fn parse_bench_json_extracts_pairs() {
        let text = r#"{
          "benches": [
            { "id": "ntt_1024", "ns_per_op": 1234.5 },
            { "id": "mult_256", "ns_per_op": 99 }
          ]
        }"#;
        assert_eq!(
            parse_bench_json(text),
            snap(&[("ntt_1024", 1234.5), ("mult_256", 99.0)])
        );
    }

    #[test]
    fn parse_bench_json_tolerates_truncation_and_noise() {
        // Truncated mid-entry: the complete entry still parses.
        let text = r#""id": "a", "ns_per_op": 10.0, "id": "b", "ns_per"#;
        assert_eq!(parse_bench_json(text), snap(&[("a", 10.0)]));
        // No entries at all.
        assert!(parse_bench_json("{}").is_empty());
        // Unparseable number is dropped, later entries survive.
        let text = r#""id": "a", "ns_per_op": oops, "id": "b", "ns_per_op": 7"#;
        assert_eq!(parse_bench_json(text), snap(&[("b", 7.0)]));
    }

    #[test]
    fn compare_skips_zero_and_nonfinite_baselines() {
        let old = snap(&[("zeroed", 0.0), ("nan", f64::NAN), ("ok", 100.0)]);
        let new = snap(&[("zeroed", 50.0), ("nan", 50.0), ("ok", 105.0)]);
        let out = compare_snapshots(&old, &new);
        assert_eq!(out.compared, 1);
        assert_eq!(out.warnings.len(), 2);
        assert!(out.warnings.iter().any(|w| w.contains("zeroed")));
        assert!(out.warnings.iter().any(|w| w.contains("nan")));
        let (worst, id) = out.worst.expect("one comparable benchmark");
        assert_eq!(id, "ok");
        assert!((worst - 5.0).abs() < 1e-9);
    }

    #[test]
    fn compare_reports_one_sided_benchmarks() {
        let old = snap(&[("gone_bench", 10.0), ("shared", 10.0)]);
        let new = snap(&[("shared", 10.0), ("new_bench", 20.0)]);
        let out = compare_snapshots(&old, &new);
        assert_eq!(out.compared, 1);
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("new_bench") && l.contains("new")));
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("gone_bench") && l.contains("gone")));
    }

    #[test]
    fn compare_with_no_overlap_counts_zero() {
        let old = snap(&[("a", 10.0)]);
        let new = snap(&[("b", 20.0)]);
        let out = compare_snapshots(&old, &new);
        assert_eq!(out.compared, 0);
        assert!(out.worst.is_none());
        assert_eq!(out.lines.len(), 2); // one "new" + one "gone" row
    }

    #[test]
    fn compare_flags_worst_regression() {
        let old = snap(&[("fast", 100.0), ("slow", 100.0)]);
        let new = snap(&[("fast", 90.0), ("slow", 130.0)]);
        let out = compare_snapshots(&old, &new);
        assert_eq!(out.compared, 2);
        let (pct, id) = out.worst.expect("comparable benchmarks");
        assert_eq!(id, "slow");
        assert!(pct > REGRESSION_LIMIT_PCT);
    }
}
