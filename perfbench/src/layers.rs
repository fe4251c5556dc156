//! Per-layer instruments that run outside the timed window: timed
//! calls into one layer's public functions, replayed on the workload's
//! own inputs, and the simulator's modeled PIM cost.

use crate::trace::{Span, Spans};
use cryptopim::accelerator::CryptoPim;
use cryptopim::check::CheckPolicy;
use cryptopim::hotcache::HotCache;
use cryptopim::{batch, phase};
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use net::wire::{self, Frame};
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use pim::par::Threads;
use service::ProtocolJob;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Least time each replay keeps repeating its calls for, so short calls
/// are averaged over many repetitions.
const REPLAY_MIN: Duration = Duration::from_millis(60);
/// Cap on repetitions of a replay pass.
const REPLAY_MAX_PASSES: usize = 200;

/// Runs `pass` until [`REPLAY_MIN`] has elapsed (at least once).
fn repeat(mut pass: impl FnMut()) {
    let started = Instant::now();
    for _ in 0..REPLAY_MAX_PASSES {
        pass();
        if started.elapsed() >= REPLAY_MIN {
            break;
        }
    }
}

/// A software multiplier that records every product it is asked for.
struct Recorder {
    inner: NttMultiplier,
    pairs: RefCell<Vec<(Polynomial, Polynomial)>>,
}

impl PolyMultiplier for Recorder {
    fn degree(&self) -> usize {
        self.inner.degree()
    }

    fn modulus(&self) -> u64 {
        self.inner.modulus()
    }

    fn multiply(&self, a: &Polynomial, b: &Polynomial) -> ntt::Result<Polynomial> {
        self.pairs.borrow_mut().push((a.clone(), b.clone()));
        self.inner.multiply(a, b)
    }
}

/// The leaf multiplies of a protocol op, in the order the op issues
/// them, found by running its `rlwe` host code on a recording
/// multiplier. Wide ops contribute one pair per residue lane.
pub fn leaf_pairs(job: &ProtocolJob, params: &ParamSet) -> Vec<(Polynomial, Polynomial)> {
    let rec = Recorder {
        inner: NttMultiplier::new(params).expect("paper parameters"),
        pairs: RefCell::new(Vec::new()),
    };
    let host = "recorded host replay";
    match job {
        ProtocolJob::Mul { a, b } => return vec![(a.clone(), b.clone())],
        ProtocolJob::WideMul { a, b, basis } => {
            let n = a.len();
            let mut buf = vec![0u64; n];
            let mut lane = |xs: &[u128], i: usize, q: u64| {
                basis.split_lane_into(xs, i, &mut buf);
                Polynomial::from_canonical_coeffs(buf.clone(), q).expect("residues are canonical")
            };
            return basis
                .moduli()
                .iter()
                .enumerate()
                .map(|(i, &q)| (lane(a, i, q), lane(b, i, q)))
                .collect();
        }
        ProtocolJob::Encaps { pk, entropy } => {
            rlwe::kem::encapsulate(pk, &rec, *entropy)
                .map(drop)
                .expect(host);
        }
        ProtocolJob::Decaps { keys, ct } => keys.decapsulate(ct, &rec).map(drop).expect(host),
        ProtocolJob::SheMul { ct, plain } => ct.mul_plaintext(plain, &rec).map(drop).expect(host),
        ProtocolJob::Sign { key, message, seed } => {
            key.sign(message, &rec, *seed).map(drop).expect(host);
        }
        ProtocolJob::Verify {
            key,
            message,
            signature,
        } => key.verify(message, signature, &rec).map(drop).expect(host),
        other => unreachable!("{} is not in the protocol mix", other.kind()),
    }
    rec.pairs.into_inner()
}

/// The parameter set the service runs a leaf at `(n, q)` under.
pub fn ring_params(n: usize, q: u64) -> ParamSet {
    match ParamSet::for_degree(n) {
        Ok(p) if p.q == q => p,
        _ => ParamSet::custom(n, q, if q < 1 << 16 { 16 } else { 32 })
            .expect("every served ring has a parameter set"),
    }
}

/// The simulator's pipelined cost of one multiply at a ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modeled {
    /// Pipelined latency, simulated µs.
    pub latency_us: f64,
    /// Energy, simulated µJ.
    pub energy_uj: f64,
    /// Critical-path cycles.
    pub cycles: f64,
}

impl Modeled {
    /// No cost.
    pub const ZERO: Modeled = Modeled {
        latency_us: 0.0,
        energy_uj: 0.0,
        cycles: 0.0,
    };

    /// `self + times * other`, figure by figure.
    pub fn plus(self, other: Modeled, times: f64) -> Modeled {
        Modeled {
            latency_us: self.latency_us + times * other.latency_us,
            energy_uj: self.energy_uj + times * other.energy_uj,
            cycles: self.cycles + times * other.cycles,
        }
    }
}

/// `CryptoPim::report()` pipelined figures at `params`.
pub fn modeled(params: &ParamSet) -> Modeled {
    let report = CryptoPim::new(params)
        .and_then(|acc| acc.report())
        .expect("served rings have a PIM report")
        .pipelined;
    Modeled {
        latency_us: report.latency_us,
        energy_uj: report.energy_uj,
        cycles: report.cycles as f64,
    }
}

/// Software NTT per-call times at the pairs' ring: forward, inverse
/// and pointwise, ns per call.
pub fn ntt_ns(pairs: &[(Polynomial, Polynomial)], spans: &mut Spans, epoch: Instant) -> [f64; 3] {
    let (n, q) = (pairs[0].0.degree_bound(), pairs[0].0.modulus());
    let mult = NttMultiplier::for_degree_modulus(n, q).expect("served ring");
    let (mut fwd, mut inv, mut pw, mut calls) = (0u128, 0u128, 0u128, 0u64);
    let started = Instant::now();
    repeat(|| {
        for (a, b) in pairs {
            let t0 = Instant::now();
            let fa = mult.forward(a).expect("forward");
            let fb = mult.forward(b).expect("forward");
            let t2 = Instant::now();
            let prod = mult.pointwise(&fa, &fb).expect("pointwise");
            let t3 = Instant::now();
            std::hint::black_box(mult.inverse(prod).expect("inverse"));
            let t4 = Instant::now();
            fwd += (t2 - t0).as_nanos();
            pw += (t3 - t2).as_nanos();
            inv += (t4 - t3).as_nanos();
            calls += 1;
        }
    });
    spans.push(Span::new(
        0,
        "ntt.replay",
        None,
        epoch,
        started,
        Instant::now(),
    ));
    let per = |ns: u128, k: u64| ns as f64 / (k as f64);
    [per(fwd, 2 * calls), per(inv, calls), per(pw, calls)]
}

/// Chunk size for a batch replay at the observed occupancy.
fn chunk_len(occupancy: f64, n: usize) -> usize {
    let lanes = (32_768 / n).max(1);
    (occupancy.round() as usize).clamp(1, lanes)
}

fn accelerator(params: &ParamSet, check: CheckPolicy) -> CryptoPim {
    CryptoPim::new(params)
        .expect("served ring")
        .with_threads(Threads::Fixed(1))
        .with_check(check)
}

/// Runs `batch::multiply_batch_products` over `pairs` in chunks of the
/// observed occupancy, returning ns per job and the phase split.
fn batch_replay(
    pairs: &[(Polynomial, Polynomial)],
    occupancy: f64,
    check: CheckPolicy,
    spans: &mut Spans,
    epoch: Instant,
    name: &'static str,
) -> (f64, phase::PhaseSnapshot, u64) {
    let n = pairs[0].0.degree_bound();
    let acc = accelerator(&ring_params(n, pairs[0].0.modulus()), check);
    let k = chunk_len(occupancy, n);
    let before = phase::snapshot();
    let started = Instant::now();
    let mut jobs = 0u64;
    repeat(|| {
        for chunk in pairs.chunks(k) {
            std::hint::black_box(batch::multiply_batch_products(&acc, chunk).expect("replay"));
            jobs += chunk.len() as u64;
        }
    });
    let elapsed = started.elapsed();
    spans.push(Span::new(0, name, None, epoch, started, Instant::now()));
    let delta = phase::snapshot().since(&before);
    (elapsed.as_nanos() as f64 / jobs as f64, delta, jobs)
}

/// `engine.batch_ns_per_job`: unchecked batch multiply at the observed
/// occupancy, ns per job.
pub fn engine_batch_ns(
    pairs: &[(Polynomial, Polynomial)],
    occupancy: f64,
    spans: &mut Spans,
    epoch: Instant,
) -> f64 {
    batch_replay(
        pairs,
        occupancy,
        CheckPolicy::Disabled,
        spans,
        epoch,
        "engine.replay",
    )
    .0
}

/// Referee phase split per job (transform, pointwise, compare) of a
/// Recompute-checked batch replay at the observed occupancy.
pub fn check_batch_ns(
    pairs: &[(Polynomial, Polynomial)],
    occupancy: f64,
    spans: &mut Spans,
    epoch: Instant,
) -> [f64; 3] {
    let (_, d, jobs) = batch_replay(
        pairs,
        occupancy,
        CheckPolicy::Recompute,
        spans,
        epoch,
        "check.replay",
    );
    let per = |ns: u64| ns as f64 / jobs as f64;
    [
        per(d.check_transform_ns),
        per(d.check_pointwise_ns),
        per(d.check_compare_ns),
    ]
}

/// Referee compare time per job on the single-job direct path,
/// `CryptoPim::multiply_product` under Recompute.
pub fn check_direct_compare_ns(
    pairs: &[(Polynomial, Polynomial)],
    spans: &mut Spans,
    epoch: Instant,
) -> f64 {
    let (n, q) = (pairs[0].0.degree_bound(), pairs[0].0.modulus());
    let acc = accelerator(&ring_params(n, q), CheckPolicy::Recompute);
    let before = phase::snapshot();
    let started = Instant::now();
    let mut jobs = 0u64;
    repeat(|| {
        for (a, b) in pairs {
            std::hint::black_box(acc.multiply_product(a, b).expect("replay"));
            jobs += 1;
        }
    });
    spans.push(Span::new(
        0,
        "check.direct_replay",
        None,
        epoch,
        started,
        Instant::now(),
    ));
    phase::snapshot().since(&before).check_compare_ns as f64 / jobs as f64
}

/// `HotCache::lookup` and `insert` times, ns per call, replaying the
/// workload's stream of `a` operands (what the engine looks up) on a
/// cache of `capacity`. A miss inserts, as the engine does; the operand
/// itself stands in for its image, whose values do not change the cost.
pub fn hotcache_ns(
    a_stream: &[&Polynomial],
    capacity: usize,
    spans: &mut Spans,
    epoch: Instant,
) -> [f64; 2] {
    let cache = HotCache::new(capacity);
    let (mut look, mut looks, mut ins, mut inserts) = (0u128, 0u64, 0u128, 0u64);
    let started = Instant::now();
    repeat(|| {
        for a in a_stream {
            let (n, q, c) = (a.degree_bound(), a.modulus(), a.coeffs());
            let t0 = Instant::now();
            let hit = cache.lookup(n, q, c);
            let t1 = Instant::now();
            look += (t1 - t0).as_nanos();
            looks += 1;
            if hit.is_none() {
                cache.insert(n, q, c, c);
                ins += t1.elapsed().as_nanos();
                inserts += 1;
            }
        }
    });
    spans.push(Span::new(
        0,
        "hotcache.replay",
        None,
        epoch,
        started,
        Instant::now(),
    ));
    [
        look as f64 / looks as f64,
        ins as f64 / inserts.max(1) as f64,
    ]
}

/// Encode and decode times (ns per op, all of an op's frames) and the
/// exact bytes per op, over each op's request and reply frames.
pub fn frame_ns(ops: &[Vec<Frame>], spans: &mut Spans, epoch: Instant) -> [f64; 3] {
    let bytes: usize = ops
        .iter()
        .flatten()
        .map(|f| wire::encode_frame(f).len())
        .sum();
    let (mut enc, mut dec, mut passes) = (0u128, 0u128, 0u64);
    let started = Instant::now();
    repeat(|| {
        for frames in ops {
            for f in frames {
                let t0 = Instant::now();
                let encoded = wire::encode_frame(f);
                let t1 = Instant::now();
                let decoded = wire::read_frame(&mut encoded.as_slice()).expect("round trip");
                let t2 = Instant::now();
                std::hint::black_box(decoded);
                enc += (t1 - t0).as_nanos();
                dec += (t2 - t1).as_nanos();
            }
        }
        passes += 1;
    });
    spans.push(Span::new(
        0,
        "net.frame_replay",
        None,
        epoch,
        started,
        Instant::now(),
    ));
    let ops_done = (ops.len() as u64 * passes) as f64;
    [
        enc as f64 / ops_done,
        dec as f64 / ops_done,
        bytes as f64 / ops.len() as f64,
    ]
}

/// `RnsBasis::combine_into` time per wide product, over residue lanes.
pub fn recombine_ns(
    basis: &RnsBasis,
    lanes: &[Vec<Vec<u64>>],
    spans: &mut Spans,
    epoch: Instant,
) -> f64 {
    let n = lanes[0][0].len();
    let mut out = vec![0u128; n];
    let (mut ns, mut calls) = (0u128, 0u64);
    let started = Instant::now();
    repeat(|| {
        for op in lanes {
            let refs: Vec<&[u64]> = op.iter().map(Vec::as_slice).collect();
            let t0 = Instant::now();
            basis.combine_into(&refs, &mut out);
            ns += t0.elapsed().as_nanos();
            calls += 1;
            std::hint::black_box(&out);
        }
    });
    spans.push(Span::new(
        0,
        "crt.replay",
        None,
        epoch,
        started,
        Instant::now(),
    ));
    ns as f64 / calls as f64
}

/// Mean µs per call of `ProtocolJob::run_direct` over `jobs`.
pub fn direct_op_us(jobs: &[ProtocolJob], spans: &mut Spans, epoch: Instant) -> f64 {
    let started = Instant::now();
    for job in jobs {
        std::hint::black_box(job.run_direct().expect("direct execution"));
    }
    let end = Instant::now();
    spans.push(Span::new(
        0,
        "graph.direct_replay",
        None,
        epoch,
        started,
        end,
    ));
    (end - started).as_secs_f64() * 1e6 / jobs.len() as f64
}
