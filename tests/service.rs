//! Integration tests for the batch-forming job scheduler: correctness
//! of the served products against the direct engine path, determinism
//! across fleet sizes, backpressure behaviour under overload, and the
//! shutdown-drains-all guarantee.

use std::collections::HashMap;
use std::time::Duration;

use cryptopim::accelerator::CryptoPim;
use modmath::params::ParamSet;
use ntt::negacyclic::PolyMultiplier;
use ntt::poly::Polynomial;
use proptest::prelude::*;
use service::workload::generate_jobs;
use service::{Backpressure, Service, ServiceConfig, ServiceError};

/// Multiplies every job pair one at a time on the verified engine,
/// caching one accelerator per degree.
fn direct_products(jobs: &[(Polynomial, Polynomial)]) -> Vec<Polynomial> {
    let mut accs: HashMap<usize, CryptoPim> = HashMap::new();
    jobs.iter()
        .map(|(a, b)| {
            let n = a.degree_bound();
            let acc = accs.entry(n).or_insert_with(|| {
                let p = ParamSet::for_degree(n).expect("valid degree");
                CryptoPim::new(&p).expect("paper parameters")
            });
            acc.multiply(a, b).expect("direct multiply")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any randomized mixed-degree job stream served through the
    /// scheduler yields products bit-identical to the direct
    /// `CryptoPim::multiply` path, regardless of how the batch former
    /// grouped the jobs.
    #[test]
    fn served_products_match_direct_path(
        seed in 0u64..1_000_000,
        jobs in 8usize..40,
    ) {
        let stream = generate_jobs(seed, jobs, &[64, 128, 256]);
        let expected = direct_products(&stream);
        let svc = Service::start(ServiceConfig {
            workers: 2,
            linger: Duration::from_micros(200),
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = stream
            .iter()
            .map(|(a, b)| svc.submit(a.clone(), b.clone()).expect("admitted"))
            .collect();
        for (ticket, want) in tickets.into_iter().zip(expected) {
            let done = ticket.wait().expect("job completes");
            prop_assert_eq!(done.product, want);
        }
        svc.shutdown();
    }
}

/// Fleet size is a throughput knob, not a correctness knob: the same
/// stream served by 1, 2, or 4 superbank workers produces identical
/// products, and every admitted job completes.
#[test]
fn products_identical_across_fleet_sizes() {
    let stream = generate_jobs(11, 48, &[64, 128, 256]);
    let expected = direct_products(&stream);
    for workers in [1, 2, 4] {
        let svc = Service::start(ServiceConfig {
            workers,
            linger: Duration::from_micros(200),
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = stream
            .iter()
            .map(|(a, b)| svc.submit(a.clone(), b.clone()).expect("admitted"))
            .collect();
        for (ticket, want) in tickets.into_iter().zip(expected.iter()) {
            let done = ticket.wait().expect("job completes");
            assert_eq!(&done.product, want, "fleet of {workers} diverged");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 48, "fleet of {workers} lost jobs");
        assert_eq!(stats.rejected, 0);
    }
}

/// With the `Reject` policy a full queue surfaces the typed
/// `Overloaded` error synchronously, and the already-admitted jobs
/// still complete.
#[test]
fn reject_policy_surfaces_typed_overload() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        backpressure: Backpressure::Reject,
        // Hour-long linger + saturated fleet: queued partials cannot
        // flush (eager needs an idle worker), so the overload on the
        // third queued submit is deterministic.
        linger: Duration::from_secs(3600),
        ..ServiceConfig::default()
    });
    let p = ParamSet::for_degree(1024).expect("valid degree");
    let mk = |c: u64| Polynomial::from_coeffs(vec![c % p.q; 1024], p.q).expect("valid poly");
    // Occupy the lone worker so subsequent jobs stay queued. A 32k job
    // forms a full single-lane batch inline (popped immediately, so it
    // never counts against the queue bound) and runs long enough in
    // debug mode to outlast the submits below.
    let q32 = ParamSet::for_degree(32768).expect("valid degree").q;
    let big = |c: u64| Polynomial::from_coeffs(vec![c % q32; 32768], q32).expect("valid poly");
    let blocker = svc.submit(big(9), big(10)).expect("admitted");
    while svc.stats().in_flight == 0 && !blocker.is_done() {
        std::thread::yield_now();
    }
    let t1 = svc.submit(mk(1), mk(2)).expect("first admitted");
    let t2 = svc.submit(mk(3), mk(4)).expect("second admitted");
    let err = match svc.submit(mk(5), mk(6)) {
        Err(e) => e,
        Ok(_) => panic!("third queued submit should hit the full queue"),
    };
    assert!(
        matches!(err, ServiceError::Overloaded { capacity: 2 }),
        "unexpected error: {err:?}"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 3);
    blocker.wait().expect("admitted job completes");
    t1.wait().expect("admitted job completes");
    t2.wait().expect("admitted job completes");
}

/// With the `Block` policy, concurrent submitters pushing far more
/// jobs than the queue holds never lose one: every submit eventually
/// admits, every ticket resolves, and the products stay correct.
#[test]
fn block_policy_never_drops_under_overload() {
    const CLIENTS: usize = 4;
    const JOBS_PER_CLIENT: usize = 40;
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 4,
        backpressure: Backpressure::Block,
        linger: Duration::from_micros(100),
        ..ServiceConfig::default()
    });
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let svc = &svc;
            s.spawn(move || {
                let stream = generate_jobs(client as u64, JOBS_PER_CLIENT, &[64, 128]);
                let expected = direct_products(&stream);
                let tickets: Vec<_> = stream
                    .into_iter()
                    .map(|(a, b)| svc.submit(a, b).expect("Block admits eventually"))
                    .collect();
                for (ticket, want) in tickets.into_iter().zip(expected) {
                    assert_eq!(ticket.wait().expect("job completes").product, want);
                }
            });
        }
    });
    let stats = svc.shutdown();
    assert_eq!(stats.admitted, (CLIENTS * JOBS_PER_CLIENT) as u64);
    assert_eq!(stats.completed, stats.admitted, "Block policy dropped jobs");
    assert_eq!(stats.rejected, 0);
}

/// Shutdown flushes every pending partial batch before the workers
/// exit: no admitted ticket is ever left unresolved, even when the
/// linger deadline would not have fired for a minute.
#[test]
fn shutdown_drains_every_admitted_job() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 1024,
        backpressure: Backpressure::Block,
        linger: Duration::from_secs(60),
        ..ServiceConfig::default()
    });
    let stream = generate_jobs(3, 30, &[64, 256]);
    let expected = direct_products(&stream);
    let tickets: Vec<_> = stream
        .iter()
        .map(|(a, b)| svc.submit(a.clone(), b.clone()).expect("admitted"))
        .collect();
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 30);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
    for (ticket, want) in tickets.into_iter().zip(expected) {
        assert!(ticket.is_done(), "shutdown returned before draining");
        assert_eq!(ticket.wait().expect("drained, not dropped").product, want);
    }
}
