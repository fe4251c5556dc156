//! Batched multiplication: the user-facing API over superbank packing
//! and pipeline streaming (§III-D).
//!
//! A 32k-provisioned chip processing degree-`n < 32k` polynomials has
//! idle banks; the architecture packs `32k/n` independent
//! multiplications side by side, and the pipeline streams jobs
//! back-to-back. [`multiply_batch`] exposes both: it computes every
//! product functionally and reports the batch's latency and effective
//! throughput from the occupancy simulation.
//!
//! Every multiply — a served batch or one direct job — runs through one
//! chunk function, `chunk_outcomes`: ring check, hot-cache lookup, one
//! fused engine pass, then one check policy. Chunks fan out over the
//! persistent worker pool (`pim::par`) when the accelerator's
//! [`Threads`](pim::par::Threads) policy resolves to more than one
//! worker; each chunk's engine pass runs on its worker's thread and
//! reuses that thread's scratch slabs.

use crate::accelerator::CryptoPim;
use crate::arch::ArchConfig;
use crate::check::{self, CheckPolicy};
use crate::phase;
use crate::schedule::simulate_burst;
use crate::scratch::BatchScratch;
use crate::Result;
use ntt::poly::Polynomial;
use pim::par;
use pim::{PimError, CYCLE_TIME_NS};
use std::borrow::Borrow;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// [`run_jobs`]'s `B·n`-word engine product buffer, kept per thread
    /// so a worker's steady state reuses one buffer instead of
    /// allocating a fresh one for every chunk.
    static PRODUCTS: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// Outcome of a batched run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// The products, in input order.
    pub products: Vec<Polynomial>,
    /// Wall-clock makespan of the batch on the hardware, µs.
    pub makespan_us: f64,
    /// Effective throughput of this batch (multiplications/s),
    /// including pipeline fill and packing.
    pub effective_throughput: f64,
    /// Independent multiplications running side by side.
    pub packed_lanes: usize,
}

/// Multiplies a batch of polynomial pairs on the accelerator.
///
/// Functionally every pair goes through the verified engine; timing
/// comes from the occupancy model — `⌈pairs / lanes⌉` pipeline beats
/// across `lanes` packed superbank slices.
///
/// # Errors
///
/// Propagates per-pair execution failures; [`PimError::EmptyBatch`]
/// when the batch holds zero jobs.
pub fn multiply_batch(acc: &CryptoPim, pairs: &[(Polynomial, Polynomial)]) -> Result<BatchReport> {
    let products = multiply_batch_products(acc, pairs)?;
    let arch = ArchConfig::for_degree(acc.params().n, acc.model(), acc.organization())?;
    let lanes = arch.parallel_multiplications.max(1);
    let jobs_per_lane = pairs.len().div_ceil(lanes);
    let burst = simulate_burst(acc.model(), acc.organization(), jobs_per_lane);
    let makespan_us = burst.makespan_cycles as f64 * CYCLE_TIME_NS / 1000.0 * arch.passes as f64;
    Ok(BatchReport {
        products,
        makespan_us,
        effective_throughput: pairs.len() as f64 / (makespan_us / 1e6),
        packed_lanes: lanes,
    })
}

/// Multiplies a batch of pairs, returning only the products in input
/// order — the serving hot path.
///
/// The analytic burst timing of [`multiply_batch`] (a discrete-event
/// walk of the pipeline occupancy model, tens of µs per call) is
/// skipped: a live service measures batch wall-clock itself, and under
/// low occupancy that fixed cost would be paid for every one- or
/// two-job batch.
///
/// # Errors
///
/// Same as [`multiply_batch`].
pub fn multiply_batch_products(
    acc: &CryptoPim,
    pairs: &[(Polynomial, Polynomial)],
) -> Result<Vec<Polynomial>> {
    multiply_batch_outcomes(acc, pairs)?.into_iter().collect()
}

/// Multiplies a batch of pairs, returning a **per-job** outcome in
/// input order — the fault-aware serving path.
///
/// Where [`multiply_batch_products`] fails the whole batch on the first
/// error, this variant isolates each job's result: under an armed fault
/// injector with a residue [`crate::check::CheckPolicy`], one corrupted
/// lane surfaces as that job's [`PimError::CorruptResult`] while its
/// batch-mates still return their (verified) products. The serving
/// layer retries exactly the failed jobs instead of re-running the
/// whole batch.
///
/// # Errors
///
/// [`PimError::EmptyBatch`] for a zero-job batch; per-job failures are
/// inside the vector, never an outer error.
pub fn multiply_batch_outcomes(
    acc: &CryptoPim,
    pairs: &[(Polynomial, Polynomial)],
) -> Result<Vec<Result<Polynomial>>> {
    if pairs.is_empty() {
        return Err(PimError::EmptyBatch);
    }
    // Whole chunks fan out across host threads (independent superbank
    // slots); each chunk's engine pass runs on its own worker thread.
    // Outcomes land in input order for any worker count.
    let workers = acc.threads().resolve().min(pairs.len());
    let chunk_len = pairs.len().div_ceil(workers).min(MAX_FUSED_JOBS);
    let chunks: Vec<&[(Polynomial, Polynomial)]> = pairs.chunks(chunk_len).collect();
    let outcomes = if workers > 1 && chunks.len() > 1 {
        par::map_jobs(&chunks, workers, |chunk| chunk_outcomes(acc, chunk))
    } else {
        chunks
            .iter()
            .map(|chunk| chunk_outcomes(acc, chunk))
            .collect()
    };
    Ok(outcomes.into_iter().flatten().collect())
}

/// Jobs fused into one engine (and referee) pass. Twiddle-walk
/// amortization saturates after a handful of polynomials, while working
/// memory grows as `4·B·n` words — this caps the memory at a size that
/// stays cache-friendly for every paper degree.
const MAX_FUSED_JOBS: usize = 16;

/// The one multiply path: runs a chunk of at most [`MAX_FUSED_JOBS`]
/// borrowed pairs and returns one outcome per job, in order.
/// [`CryptoPim::multiply_product`] is the chunk of one.
///
/// 1. **Ring check.** A job whose operands do not match the
///    configured degree fails alone with [`PimError::LengthMismatch`],
///    and one with an operand reduced modulo another modulus with
///    [`modmath::Error::ModulusMismatch`]; the rest still run.
/// 2. **Hot-cache lookup** of every job's `a` operand
///    ([`CryptoPim::with_hot_cache`]).
/// 3. **One engine pass** over the chunk (`Engine::multiply_batch`),
///    splicing cached images; the engine itself never checks.
/// 4. **The check policy**: none, a per-job residue screen, or the
///    fused software referee.
///
/// Cache soundness: engine captures are inserted only when the write
/// path is unarmed and the policy is not [`CheckPolicy::Recompute`] (an
/// armed path may have corrupted the image, and a corrupt cached
/// transform reused later would evade even the referee). Under
/// `Recompute` only the referee's own spectra, computed in host memory
/// outside any fault path, are inserted.
pub(crate) fn chunk_outcomes<P: Borrow<Polynomial>>(
    acc: &CryptoPim,
    chunk: &[(P, P)],
) -> Vec<Result<Polynomial>> {
    let (n, q) = (acc.params().n, acc.params().q);
    let check_ring = |a: &Polynomial, b: &Polynomial| -> Result<()> {
        if a.degree_bound() != n || b.degree_bound() != n {
            return Err(PimError::LengthMismatch {
                left: a.degree_bound(),
                right: b.degree_bound(),
            });
        }
        a.expect_modulus(q)?;
        Ok(b.expect_modulus(q)?)
    };
    let jobs: Vec<(&Polynomial, &Polynomial)> = chunk
        .iter()
        .map(|(a, b)| (a.borrow(), b.borrow()))
        .filter(|&(a, b)| check_ring(a, b).is_ok())
        .collect();
    let mut verdicts = if jobs.is_empty() {
        Vec::new()
    } else {
        run_jobs(acc, &jobs)
    }
    .into_iter();
    chunk
        .iter()
        .map(|(a, b)| {
            check_ring(a.borrow(), b.borrow())
                .and_then(|()| verdicts.next().expect("one verdict per fitting job"))
        })
        .collect()
}

/// Steps 2–4 of [`chunk_outcomes`] over jobs of the configured ring.
fn run_jobs(acc: &CryptoPim, jobs: &[(&Polynomial, &Polynomial)]) -> Vec<Result<Polynomial>> {
    let (n, q) = (acc.params().n, acc.params().q);
    let lane = |i: usize| i * n..(i + 1) * n;
    let fail_all =
        |e: PimError| -> Vec<Result<Polynomial>> { jobs.iter().map(|_| Err(e.clone())).collect() };
    let hot = acc.hot_cache();
    let images: Vec<Option<Arc<Vec<u64>>>> = jobs
        .iter()
        .map(|(a, _)| hot.and_then(|h| h.lookup(n, q, a.coeffs())))
        .collect();
    let cached: Vec<Option<&[u64]>> = images
        .iter()
        .map(|img| img.as_deref().map(Vec::as_slice))
        .collect();
    let recompute = matches!(acc.check_policy(), CheckPolicy::Recompute);
    let capture_misses =
        hot.is_some() && !acc.faults_armed() && !recompute && cached.iter().any(Option::is_none);

    let mut inputs = BatchScratch::checkout(2 * jobs.len() * n);
    let (fa, fb) = inputs.words().split_at_mut(jobs.len() * n);
    for (i, (a, b)) in jobs.iter().enumerate() {
        fa[lane(i)].copy_from_slice(a.coeffs());
        fb[lane(i)].copy_from_slice(b.coeffs());
    }
    let mut out = PRODUCTS.take();
    let mut cap = Vec::new();
    let engine_start = Instant::now();
    let run = acc.engine().multiply_batch(
        fa,
        fb,
        &mut out,
        &cached,
        capture_misses.then_some(&mut cap),
    );
    phase::record_engine(engine_start.elapsed());
    if let Err(e) = run {
        return fail_all(e);
    }
    if let (Some(h), true) = (hot, capture_misses) {
        for (i, (a, _)) in jobs.iter().enumerate() {
            if cached[i].is_none() {
                h.insert(n, q, a.coeffs(), &cap[lane(i)]);
            }
        }
    }

    let product = |i: usize| Polynomial::from_canonical_coeffs(out[lane(i)].to_vec(), q);
    let outcomes = match acc.check_policy() {
        CheckPolicy::Disabled => (0..jobs.len())
            .map(|i| product(i).map_err(Into::into))
            .collect(),
        CheckPolicy::Residue { points, seed } => jobs
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let compare_start = Instant::now();
                let verdict = check::verify_product(
                    acc.mapping(),
                    a.coeffs(),
                    b.coeffs(),
                    &out[lane(i)],
                    points,
                    seed,
                );
                phase::record_check(0, 0, compare_start.elapsed().as_nanos() as u64);
                match verdict {
                    Ok(()) => product(i).map_err(Into::into),
                    Err((failed, checked)) => {
                        Err(PimError::CorruptResult(acc.fault_report(failed, checked)))
                    }
                }
            })
            .collect(),
        CheckPolicy::Recompute => {
            // The operands are still in `fa`/`fb` (the engine reads
            // them, never writes); the referee transforms them in place.
            let (transform_ns, pointwise_ns) = match referee_pass(acc, jobs, &cached, fa, fb) {
                Ok(split) => split,
                Err(e) => return fail_all(e.into()),
            };
            let compare_start = Instant::now();
            let verdicts = (0..jobs.len())
                .map(|i| {
                    let (got, want) = (&out[lane(i)], &fa[lane(i)]);
                    if got == want {
                        product(i).map_err(Into::into)
                    } else {
                        let failed = got.iter().zip(want).filter(|(g, w)| g != w).count();
                        Err(PimError::CorruptResult(
                            acc.fault_report(failed as u32, n as u32),
                        ))
                    }
                })
                .collect();
            phase::record_check(
                transform_ns,
                pointwise_ns,
                compare_start.elapsed().as_nanos() as u64,
            );
            verdicts
        }
    };
    PRODUCTS.set(out);
    outcomes
}

/// The [`CheckPolicy::Recompute`] referee: re-derives every product of
/// the chunk in one batch-fused software NTT pass, leaving them in `fa`
/// (natural order, canonical). Cached spectra are spliced in and only
/// miss lanes are forward-transformed (in contiguous runs, so hits
/// genuinely skip work); the full product is still recomputed, so a
/// corrupt engine lane through the cached path is still caught. Miss
/// lanes' spectra populate the hot cache. Returns the wall-clock
/// `(transform_ns, pointwise_ns)` split.
fn referee_pass(
    acc: &CryptoPim,
    jobs: &[(&Polynomial, &Polynomial)],
    cached: &[Option<&[u64]>],
    fa: &mut [u64],
    fb: &mut [u64],
) -> ntt::Result<(u64, u64)> {
    let referee = acc.referee().expect("with_check builds the referee");
    let (n, q) = (acc.params().n, acc.params().q);
    let forward_start = Instant::now();
    for (i, image) in cached.iter().enumerate() {
        // The cached image is the natural-order canonical spectrum; one
        // bit-reversal permutation yields the merged layout, and
        // canonical values are valid `< 2q` lazy inputs.
        if let Some(image) = image {
            let lane = &mut fa[i * n..(i + 1) * n];
            lane.copy_from_slice(image);
            modmath::bitrev::permute_in_place(lane);
        }
    }
    let mut i = 0;
    while i < jobs.len() {
        if cached[i].is_some() {
            i += 1;
            continue;
        }
        let start = i;
        while i < jobs.len() && cached[i].is_none() {
            i += 1;
        }
        referee.forward_batch(&mut fa[start * n..i * n])?;
    }
    referee.forward_batch(fb)?;
    let forward_ns = forward_start.elapsed().as_nanos() as u64;
    if let Some(h) = acc.hot_cache() {
        // Populate the cache from the referee's own spectra — trusted
        // even under armed faults — converted to the engine image form
        // (bit-reversal back to natural order, normalized canonical).
        let mut image = vec![0u64; n];
        for (i, (a, _)) in jobs.iter().enumerate() {
            if cached[i].is_some() {
                continue;
            }
            image.copy_from_slice(&fa[i * n..(i + 1) * n]);
            modmath::bitrev::permute_in_place(&mut image);
            for v in image.iter_mut() {
                *v -= q * u64::from(*v >= q);
            }
            h.insert(n, q, a.coeffs(), &image);
        }
    }
    let pointwise_start = Instant::now();
    referee.pointwise_batch(fa, fb)?;
    let pointwise_ns = pointwise_start.elapsed().as_nanos() as u64;
    let inverse_start = Instant::now();
    referee.inverse_batch(fa)?;
    Ok((
        forward_ns + inverse_start.elapsed().as_nanos() as u64,
        pointwise_ns,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modmath::params::ParamSet;
    use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
    use pim::par::Threads;

    fn pairs(n: usize, q: u64, count: usize) -> Vec<(Polynomial, Polynomial)> {
        (0..count)
            .map(|k| {
                let a = Polynomial::from_coeffs(
                    (0..n as u64).map(|i| (i * 3 + k as u64) % q).collect(),
                    q,
                )
                .unwrap();
                let b = Polynomial::from_coeffs(
                    (0..n as u64)
                        .map(|i| (i * 7 + 2 * k as u64 + 1) % q)
                        .collect(),
                    q,
                )
                .unwrap();
                (a, b)
            })
            .collect()
    }

    #[test]
    fn batch_products_match_reference() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let sw = NttMultiplier::new(&p).unwrap();
        let batch = pairs(256, p.q, 5);
        let report = multiply_batch(&acc, &batch).unwrap();
        assert_eq!(report.products.len(), 5);
        for (i, (a, b)) in batch.iter().enumerate() {
            assert_eq!(report.products[i], sw.multiply(a, b).unwrap(), "pair {i}");
        }
    }

    #[test]
    fn packing_boosts_small_degree_batches() {
        // 64 packed lanes at n = 512: a 256-pair batch needs only four
        // pipeline beats per lane, beating even the *steady-state*
        // single-lane throughput severalfold (and a single-lane burst by
        // far more, since that would also pay fill once per 256 jobs).
        let p = ParamSet::for_degree(512).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let single_steady = acc.report().unwrap().pipelined.throughput;
        let report = multiply_batch(&acc, &pairs(512, p.q, 256)).unwrap();
        assert_eq!(report.packed_lanes, 64);
        assert!(
            report.effective_throughput > 5.0 * single_steady,
            "packed {} vs single-lane steady {}",
            report.effective_throughput,
            single_steady
        );
    }

    #[test]
    fn large_degree_has_one_lane() {
        let p = ParamSet::for_degree(32768).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let report = multiply_batch(&acc, &pairs(32768, p.q, 2)).unwrap();
        assert_eq!(report.packed_lanes, 1);
        assert_eq!(report.products.len(), 2);
    }

    #[test]
    fn parallel_batch_matches_sequential_batch() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = pairs(256, p.q, 9);
        let seq = multiply_batch(
            &CryptoPim::new(&p).unwrap().with_threads(Threads::Fixed(1)),
            &batch,
        )
        .unwrap();
        for workers in [2usize, 4, 8] {
            let par = multiply_batch(
                &CryptoPim::new(&p)
                    .unwrap()
                    .with_threads(Threads::Fixed(workers)),
                &batch,
            )
            .unwrap();
            assert_eq!(par, seq, "workers = {workers}");
        }
    }

    #[test]
    fn empty_batch_errors() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        assert!(matches!(
            multiply_batch(&acc, &[]),
            Err(PimError::EmptyBatch)
        ));
        assert!(matches!(
            multiply_batch_products(&acc, &[]),
            Err(PimError::EmptyBatch)
        ));
    }

    #[test]
    fn products_only_path_matches_full_report() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let batch = pairs(256, p.q, 7);
        let report = multiply_batch(&acc, &batch).unwrap();
        let products = multiply_batch_products(&acc, &batch).unwrap();
        assert_eq!(products, report.products);
    }

    #[test]
    fn recompute_batch_fused_referee_matches_unchecked_products() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = pairs(256, p.q, 9);
        let want = multiply_batch_products(&CryptoPim::new(&p).unwrap(), &batch).unwrap();
        for workers in [1usize, 2, 4] {
            let acc = CryptoPim::new(&p)
                .unwrap()
                .with_threads(Threads::Fixed(workers))
                .with_check(CheckPolicy::Recompute);
            let got: Vec<Polynomial> = multiply_batch_outcomes(&acc, &batch)
                .unwrap()
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    /// Corrupts pointwise-block row-0 stores during exactly one multiply
    /// (`begin_op` counts ops), so one batch lane goes bad.
    #[derive(Debug)]
    struct OneOpBitPath {
        block: u32,
        target_op: u32,
        op: std::sync::atomic::AtomicU32,
    }

    impl pim::fault::WritePath for OneOpBitPath {
        fn armed(&self) -> bool {
            true
        }
        fn begin_op(&self) {
            self.op.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        fn store(&self, block: u32, row: u32, value: u64) -> u64 {
            let current = self.op.load(std::sync::atomic::Ordering::SeqCst);
            if current == self.target_op + 1 && block == self.block && row == 0 {
                value | (1 << 15)
            } else {
                value
            }
        }
        fn bank(&self) -> u32 {
            2
        }
        fn suspect_block(&self) -> Option<u32> {
            Some(self.block)
        }
    }

    #[test]
    fn recompute_batch_isolates_the_corrupt_lane() {
        use std::sync::Arc;
        let p = ParamSet::for_degree(256).unwrap();
        let batch = pairs(256, p.q, 5);
        let clean = multiply_batch_products(&CryptoPim::new(&p).unwrap(), &batch).unwrap();
        // Third job corrupted; q = 7681 < 2^13 so bit 15 always flips.
        let path = OneOpBitPath {
            block: pim::fault::layout::pointwise(8),
            target_op: 2,
            op: std::sync::atomic::AtomicU32::new(0),
        };
        let acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_write_path(Some(Arc::new(path)))
            .with_check(CheckPolicy::Recompute);
        let outcomes = multiply_batch_outcomes(&acc, &batch).unwrap();
        assert_eq!(outcomes.len(), 5);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                match outcome {
                    Err(PimError::CorruptResult(report)) => {
                        assert_eq!(report.bank, 2);
                        assert!(report.failed_points >= 1);
                    }
                    other => panic!("lane 2 should fail, got {other:?}"),
                }
            } else {
                assert_eq!(outcome.as_ref().unwrap(), &clean[i], "lane {i}");
            }
        }
    }

    /// Jobs sharing one hot `a` operand (the protocol key-reuse shape).
    fn hot_pairs(n: usize, q: u64, count: usize) -> Vec<(Polynomial, Polynomial)> {
        let base = pairs(n, q, count);
        let a0 = base[0].0.clone();
        base.into_iter().map(|(_, b)| (a0.clone(), b)).collect()
    }

    #[test]
    fn hot_cache_batch_is_bit_identical_and_hits() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = hot_pairs(256, p.q, 5);
        let want = multiply_batch_products(
            &CryptoPim::new(&p).unwrap().with_threads(Threads::Fixed(1)),
            &batch,
        )
        .unwrap();
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        let acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_hot_cache(Some(Arc::clone(&hot)));
        // First pass: all lanes of the chunk are looked up before the
        // engine runs, so they miss together and the key is inserted.
        assert_eq!(multiply_batch_products(&acc, &batch).unwrap(), want);
        assert_eq!(hot.hits(), 0);
        assert_eq!(hot.misses(), 5);
        assert_eq!(hot.len(), 1);
        // Second pass: every lane hits, products stay bit-identical.
        assert_eq!(multiply_batch_products(&acc, &batch).unwrap(), want);
        assert_eq!(hot.hits(), 5);
    }

    #[test]
    fn hot_cache_recompute_batch_is_bit_identical_and_hits() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = hot_pairs(256, p.q, 5);
        let want = multiply_batch_products(
            &CryptoPim::new(&p).unwrap().with_threads(Threads::Fixed(1)),
            &batch,
        )
        .unwrap();
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        let acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_check(CheckPolicy::Recompute)
            .with_hot_cache(Some(Arc::clone(&hot)));
        assert_eq!(multiply_batch_products(&acc, &batch).unwrap(), want);
        assert_eq!(hot.len(), 1, "referee spectra populate the cache");
        assert_eq!(multiply_batch_products(&acc, &batch).unwrap(), want);
        assert_eq!(hot.hits(), 5);
    }

    #[test]
    fn recompute_catches_corrupt_lane_through_cached_path() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = hot_pairs(256, p.q, 5);
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        // Prime the cache through a clean recompute run.
        let clean_acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_check(CheckPolicy::Recompute)
            .with_hot_cache(Some(Arc::clone(&hot)));
        let clean: Vec<Polynomial> = multiply_batch_outcomes(&clean_acc, &batch)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert!(!hot.is_empty());
        // Third op corrupted; every lane now takes the cached-hit engine
        // path, whose pointwise stores still route through the faulty
        // write path — the referee must reject exactly lane 2.
        let path = OneOpBitPath {
            block: pim::fault::layout::pointwise(8),
            target_op: 2,
            op: std::sync::atomic::AtomicU32::new(0),
        };
        let armed = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_write_path(Some(Arc::new(path)))
            .with_check(CheckPolicy::Recompute)
            .with_hot_cache(Some(Arc::clone(&hot)));
        let before_hits = hot.hits();
        let outcomes = multiply_batch_outcomes(&armed, &batch).unwrap();
        assert!(
            hot.hits() > before_hits,
            "armed run must exercise the cached path"
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                match outcome {
                    Err(PimError::CorruptResult(report)) => {
                        assert_eq!(report.bank, 2);
                        assert!(report.failed_points >= 1);
                    }
                    other => panic!("cached lane 2 should fail, got {other:?}"),
                }
            } else {
                assert_eq!(outcome.as_ref().unwrap(), &clean[i], "lane {i}");
            }
        }
    }

    #[test]
    fn armed_fused_batch_never_inserts_engine_captures() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = hot_pairs(256, p.q, 3);
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        // Unchecked armed run: the corrupted engine image must not
        // become a cache entry (it would poison every later hit).
        let path = OneOpBitPath {
            block: pim::fault::layout::pointwise(8),
            target_op: 0,
            op: std::sync::atomic::AtomicU32::new(0),
        };
        let armed = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_write_path(Some(Arc::new(path)))
            .with_hot_cache(Some(Arc::clone(&hot)));
        multiply_batch_products(&armed, &batch).unwrap();
        assert!(hot.is_empty(), "armed captures must never be inserted");
    }

    #[test]
    fn mixed_degree_batch_fails_only_the_mismatched_lanes() {
        let p = ParamSet::for_degree(256).unwrap();
        let sw = NttMultiplier::new(&p).unwrap();
        let mut jobs = hot_pairs(256, p.q, 6);
        let short = pairs(128, p.q, 1).remove(0);
        jobs[1].0 = short.0.clone();
        jobs[4].1 = short.1;
        let policies = [
            CheckPolicy::Disabled,
            CheckPolicy::residue(3, 9),
            CheckPolicy::Recompute,
        ];
        for check in policies {
            for cached in [false, true] {
                let hot = cached.then(|| Arc::new(crate::hotcache::HotCache::new(8)));
                let acc = CryptoPim::new(&p)
                    .unwrap()
                    .with_threads(Threads::Fixed(1))
                    .with_check(check)
                    .with_hot_cache(hot.clone());
                // Twice, so the cached run also serves hits.
                for round in 0..2 {
                    let outcomes = multiply_batch_outcomes(&acc, &jobs).unwrap();
                    assert_eq!(outcomes.len(), jobs.len());
                    for (i, ((a, b), outcome)) in jobs.iter().zip(&outcomes).enumerate() {
                        let at = format!("lane {i}, {check:?}, cached {cached}, round {round}");
                        if i == 1 || i == 4 {
                            assert!(
                                matches!(
                                    outcome,
                                    Err(PimError::LengthMismatch { left, right })
                                        if *left == a.degree_bound() && *right == b.degree_bound()
                                ),
                                "{at}: {outcome:?}"
                            );
                        } else {
                            assert_eq!(
                                outcome.as_ref().unwrap(),
                                &sw.multiply(a, b).unwrap(),
                                "{at}"
                            );
                        }
                    }
                }
                if let Some(hot) = hot {
                    assert!(hot.hits() > 0, "{check:?}: second round must hit");
                }
            }
        }
    }

    #[test]
    fn multiply_product_uses_the_hot_cache_bit_identically() {
        let p = ParamSet::for_degree(256).unwrap();
        let sw = NttMultiplier::new(&p).unwrap();
        let (a, b) = pairs(256, p.q, 1).remove(0);
        let want = sw.multiply(&a, &b).unwrap();
        for check in [CheckPolicy::Disabled, CheckPolicy::Recompute] {
            let hot = Arc::new(crate::hotcache::HotCache::new(8));
            let acc = CryptoPim::new(&p)
                .unwrap()
                .with_check(check)
                .with_hot_cache(Some(Arc::clone(&hot)));
            let miss = acc.multiply_product(&a, &b).unwrap();
            assert_eq!((hot.misses(), hot.len()), (1, 1), "{check:?}: miss inserts");
            let hit = acc.multiply_product(&a, &b).unwrap();
            assert_eq!(hot.hits(), 1, "{check:?}: second call hits");
            assert_eq!(miss, want, "{check:?}");
            assert_eq!(hit, want, "{check:?}");
        }
    }

    #[test]
    fn armed_multiply_product_never_inserts_engine_captures() {
        let p = ParamSet::for_degree(256).unwrap();
        let (a, b) = pairs(256, p.q, 1).remove(0);
        let clean = CryptoPim::new(&p)
            .unwrap()
            .multiply_product(&a, &b)
            .unwrap();
        let armed = |check: CheckPolicy, hot: &Arc<crate::hotcache::HotCache>| {
            let path = OneOpBitPath {
                block: pim::fault::layout::pointwise(8),
                target_op: 0,
                op: std::sync::atomic::AtomicU32::new(0),
            };
            CryptoPim::new(&p)
                .unwrap()
                .with_write_path(Some(Arc::new(path)))
                .with_check(check)
                .with_hot_cache(Some(Arc::clone(hot)))
        };
        // Unchecked: the corrupt product is served, but its engine image
        // must not become a cache entry.
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        let served = armed(CheckPolicy::Disabled, &hot)
            .multiply_product(&a, &b)
            .unwrap();
        assert_ne!(served, clean, "the fault really corrupts the product");
        assert!(hot.is_empty(), "armed captures must never be inserted");
        // Recompute: the corrupt job is rejected, and only the referee's
        // spectrum is inserted — a later hit serves the clean product.
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        match armed(CheckPolicy::Recompute, &hot).multiply_product(&a, &b) {
            Err(PimError::CorruptResult(report)) => assert_eq!(report.bank, 2),
            other => panic!("expected CorruptResult, got {other:?}"),
        }
        assert_eq!(hot.len(), 1, "referee spectrum populates the cache");
        let reuse = CryptoPim::new(&p)
            .unwrap()
            .with_hot_cache(Some(Arc::clone(&hot)));
        assert_eq!(reuse.multiply_product(&a, &b).unwrap(), clean);
        assert_eq!(hot.hits(), 1);
    }

    #[test]
    fn recompute_batch_records_phase_split() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_check(CheckPolicy::Recompute);
        let before = phase::snapshot();
        multiply_batch_outcomes(&acc, &pairs(256, p.q, 4)).unwrap();
        let delta = phase::snapshot().since(&before);
        assert!(delta.engine_ns > 0, "engine phase must be recorded");
        assert!(
            delta.check_transform_ns > 0,
            "transform phase must be recorded"
        );
        assert!(
            delta.check_pointwise_ns > 0,
            "pointwise phase must be recorded"
        );
        assert!(delta.check_compare_ns > 0, "compare phase must be recorded");
    }

    #[test]
    fn makespan_grows_sublinearly_within_one_fill() {
        // Doubling the batch within the packed capacity costs far less
        // than double the makespan (pipeline streaming).
        let p = ParamSet::for_degree(512).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let small = multiply_batch(&acc, &pairs(512, p.q, 8)).unwrap();
        let large = multiply_batch(&acc, &pairs(512, p.q, 64)).unwrap();
        assert!(large.makespan_us < small.makespan_us * 1.01);
    }

    /// Seeded hot batch (every job shares its `a`), batch width `count`.
    fn seeded_hot_pairs(
        n: usize,
        q: u64,
        count: usize,
        seed: u64,
    ) -> Vec<(Polynomial, Polynomial)> {
        let mut state = seed | 1;
        let mut draw = || -> Vec<u64> {
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 11) % q
                })
                .collect()
        };
        let a = Polynomial::from_coeffs(draw(), q).unwrap();
        (0..count)
            .map(|_| (a.clone(), Polynomial::from_coeffs(draw(), q).unwrap()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Cache-hit and cache-miss serving must be bit-identical even
        /// under an armed fault plan: a primed (clean) cache entry never
        /// masks a corrupt result — the referee still isolates exactly
        /// the faulted lane, and every other lane matches the fault-free
        /// run whether its forward transform was cached or not.
        #[test]
        fn prop_cached_path_never_masks_faults(
            batch in 2usize..=6,
            target in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let target = target % batch;
            let p = ParamSet::for_degree(256).unwrap();
            let jobs = seeded_hot_pairs(256, p.q, batch, seed);
            let clean = multiply_batch_products(
                &CryptoPim::new(&p).unwrap().with_threads(Threads::Fixed(1)),
                &jobs,
            )
            .unwrap();
            let hot = Arc::new(crate::hotcache::HotCache::new(4));
            // Prime the cache from a clean recompute pass (referee
            // spectra), then serve the same batch with one op faulted.
            let prime = CryptoPim::new(&p)
                .unwrap()
                .with_threads(Threads::Fixed(1))
                .with_check(CheckPolicy::Recompute)
                .with_hot_cache(Some(Arc::clone(&hot)));
            multiply_batch_products(&prime, &jobs).unwrap();
            proptest::prop_assert!(!hot.is_empty());
            let path = OneOpBitPath {
                block: pim::fault::layout::pointwise(8),
                target_op: target as u32,
                op: std::sync::atomic::AtomicU32::new(0),
            };
            let armed = CryptoPim::new(&p)
                .unwrap()
                .with_threads(Threads::Fixed(1))
                .with_write_path(Some(Arc::new(path)))
                .with_check(CheckPolicy::Recompute)
                .with_hot_cache(Some(Arc::clone(&hot)));
            let before_hits = hot.hits();
            let outcomes = multiply_batch_outcomes(&armed, &jobs).unwrap();
            proptest::prop_assert!(hot.hits() > before_hits, "cached path exercised");
            for (i, outcome) in outcomes.iter().enumerate() {
                if i == target {
                    proptest::prop_assert!(
                        matches!(outcome, Err(PimError::CorruptResult(_))),
                        "faulted lane {} must be rejected, got {:?}",
                        i,
                        outcome
                    );
                } else {
                    proptest::prop_assert_eq!(
                        outcome.as_ref().unwrap(),
                        &clean[i],
                        "lane {} must match the fault-free product",
                        i
                    );
                }
            }
        }
    }
}
