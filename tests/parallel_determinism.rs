//! Determinism regression: fanning whole job chunks out across host
//! threads must be invisible — the same per-job outcomes (products and
//! typed failures) and the same batch report for any worker count,
//! under every check policy, with and without a hot-operand cache.
//!
//! This is the contract that makes `--threads N` safe to default on: a
//! chunk's engine pass runs on one thread and every job's accounting is
//! replayed from its own plan, so only wall-clock time depends on the
//! worker count (see `pim::par` and DESIGN.md §9).

use cryptopim::accelerator::CryptoPim;
use cryptopim::batch::{multiply_batch, multiply_batch_outcomes};
use cryptopim::check::CheckPolicy;
use cryptopim::hotcache::HotCache;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use pim::par::Threads;
use pim::PimError;
use std::sync::Arc;

/// The paper's (degree, modulus) pairs: 7681 (Table I row 1), 12289,
/// and 786433.
const PAPER_CASES: [(usize, u64); 3] = [(256, 7681), (1024, 12289), (4096, 786433)];

fn rand_vec(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 16) % q
        })
        .collect()
}

/// `count` jobs whose `a` operands come from a pool of two keys (the
/// protocol key-reuse shape, so a cache sees hits) and whose `b`
/// operands are fresh.
fn jobs(n: usize, q: u64, count: u64, seed: u64) -> Vec<(Polynomial, Polynomial)> {
    let poly = |s: u64| Polynomial::from_coeffs(rand_vec(n, q, s), q).expect("valid");
    (0..count)
        .map(|k| (poly(seed + k % 2), poly(seed + 100 + k)))
        .collect()
}

fn accelerator(params: &ParamSet, threads: Threads, check: CheckPolicy, cached: bool) -> CryptoPim {
    CryptoPim::new(params)
        .expect("paper parameters")
        .with_threads(threads)
        .with_check(check)
        .with_hot_cache(cached.then(|| Arc::new(HotCache::new(4))))
}

fn outcomes(
    acc: &CryptoPim,
    pairs: &[(Polynomial, Polynomial)],
) -> Vec<Result<Polynomial, PimError>> {
    multiply_batch_outcomes(acc, pairs).expect("non-empty batch")
}

#[test]
fn chunk_fanout_is_identical_for_every_policy_and_cache() {
    let policies = [
        CheckPolicy::Disabled,
        CheckPolicy::residue(4, 11),
        CheckPolicy::Recompute,
    ];
    for (n, q) in PAPER_CASES {
        let params = ParamSet::for_degree(n).expect("paper degree");
        assert_eq!(params.q, q, "paper modulus for n = {n}");
        let soft = NttMultiplier::new(&params).expect("paper parameters");
        let pairs = jobs(n, q, 6, 0xC0FFEE ^ n as u64);
        let want: Vec<Polynomial> = pairs
            .iter()
            .map(|(a, b)| soft.multiply(a, b).expect("software product"))
            .collect();
        for check in policies {
            for cached in [false, true] {
                let at = format!("n = {n}, {check:?}, cached = {cached}");
                let reference = outcomes(
                    &accelerator(&params, Threads::Fixed(1), check, cached),
                    &pairs,
                );
                let products: Vec<Polynomial> = reference
                    .iter()
                    .map(|r| r.clone().expect("fault-free job"))
                    .collect();
                assert_eq!(products, want, "{at}");
                for workers in [2usize, 4] {
                    let acc = accelerator(&params, Threads::Fixed(workers), check, cached);
                    assert_eq!(
                        outcomes(&acc, &pairs),
                        reference,
                        "{at}, workers = {workers}"
                    );
                }
            }
        }
    }
}

#[test]
fn auto_threads_match_pinned_sequential() {
    // Whatever Auto resolves to on this machine (including the
    // CRYPTOPIM_THREADS env override), outcomes must not change.
    let (n, q) = PAPER_CASES[2];
    let params = ParamSet::for_degree(n).expect("paper degree");
    let pairs = jobs(n, q, 5, 7);
    for check in [CheckPolicy::Disabled, CheckPolicy::Recompute] {
        let seq = outcomes(
            &accelerator(&params, Threads::Fixed(1), check, false),
            &pairs,
        );
        let auto = outcomes(&accelerator(&params, Threads::Auto, check, false), &pairs);
        assert_eq!(auto, seq, "{check:?}");
    }
}

#[test]
fn persistent_pool_stays_deterministic_over_many_multiplies() {
    // 100 back-to-back batches per worker count, all fanned out through
    // the persistent pool: every outcome must equal the one-thread run,
    // and the pool must not grow (regions reuse parked workers instead
    // of spawning).
    let (n, q) = PAPER_CASES[0];
    let params = ParamSet::for_degree(n).expect("paper degree");
    let seq = accelerator(&params, Threads::Fixed(1), CheckPolicy::Disabled, false);

    for workers in [2usize, 4, 8] {
        let par = accelerator(
            &params,
            Threads::Fixed(workers),
            CheckPolicy::Disabled,
            false,
        );
        // Prime the pool to its high-water mark for this worker count.
        outcomes(&par, &jobs(n, q, 8, 0xA5));
        let pool_before = pim::par::pool_threads();
        for round in 0..100u64 {
            let pairs = jobs(n, q, 8, 0x5EED_0000 + 1000 * round);
            assert_eq!(
                outcomes(&par, &pairs),
                outcomes(&seq, &pairs),
                "workers = {workers}, round = {round}"
            );
        }
        assert_eq!(
            pim::par::pool_threads(),
            pool_before,
            "pool must reuse its workers, not spawn per batch (workers = {workers})"
        );
    }
}

#[test]
fn parallel_batch_report_is_identical() {
    let (n, q) = PAPER_CASES[0];
    let params = ParamSet::for_degree(n).expect("paper degree");
    let pairs: Vec<(Polynomial, Polynomial)> = (0..12u64)
        .map(|k| {
            (
                Polynomial::from_coeffs(rand_vec(n, q, 100 + k), q).expect("valid"),
                Polynomial::from_coeffs(rand_vec(n, q, 200 + k), q).expect("valid"),
            )
        })
        .collect();
    let seq = multiply_batch(
        &CryptoPim::new(&params)
            .expect("paper parameters")
            .with_threads(Threads::Fixed(1)),
        &pairs,
    )
    .expect("sequential batch");
    for workers in [2usize, 4, 8] {
        let par = multiply_batch(
            &CryptoPim::new(&params)
                .expect("paper parameters")
                .with_threads(Threads::Fixed(workers)),
            &pairs,
        )
        .expect("parallel batch");
        assert_eq!(par, seq, "workers = {workers}");
    }
}
