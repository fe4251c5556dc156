//! Integration tests for the batch-forming job scheduler: correctness
//! of the served products against the direct engine path, determinism
//! across fleet sizes, backpressure behaviour under overload, and the
//! shutdown-drains-all guarantee. Every multiply is submitted the one
//! way the service takes it, as a `ProtocolJob::Mul` op.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cryptopim::accelerator::CryptoPim;
use modmath::params::ParamSet;
use ntt::negacyclic::PolyMultiplier;
use ntt::poly::Polynomial;
use pim::fault::{Injector, WritePath};
use proptest::prelude::*;
use service::workload::generate_jobs;
use service::{
    Backpressure, ProtocolJob, ProtocolOutput, ProtocolTicket, Service, ServiceConfig,
    ServiceError, ServiceStats,
};

/// Submits `a · b` as a one-node `Mul` op.
fn submit(svc: &Service, a: Polynomial, b: Polynomial) -> Result<ProtocolTicket, ServiceError> {
    svc.submit_protocol(ProtocolJob::Mul { a, b })
}

/// Shuts `svc` down and checks that its drained counters balance.
fn drained(svc: Service) -> ServiceStats {
    let stats = svc.shutdown();
    if let Err(e) = stats.check_drained() {
        panic!("{e}\n{stats}");
    }
    stats
}

/// The product a `Mul` op's ticket resolves to.
fn product(ticket: ProtocolTicket) -> Polynomial {
    match ticket.wait().expect("job completes").output {
        ProtocolOutput::Product(p) => p,
        other => panic!("a Mul op yields a product, not {other:?}"),
    }
}

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
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = stream
            .iter()
            .map(|(a, b)| submit(&svc, a.clone(), b.clone()).expect("admitted"))
            .collect();
        for (ticket, want) in tickets.into_iter().zip(expected) {
            prop_assert_eq!(product(ticket), want);
        }
        drained(svc);
    }
}

/// Fleet size is a throughput knob, not a correctness knob: the same
/// stream served by 1, 2, or 4 superbanks produces identical
/// products, and every admitted job completes.
#[test]
fn products_identical_across_fleet_sizes() {
    let stream = generate_jobs(11, 48, &[64, 128, 256]);
    let expected = direct_products(&stream);
    for workers in [1, 2, 4] {
        let svc = Service::start(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = stream
            .iter()
            .map(|(a, b)| submit(&svc, a.clone(), b.clone()).expect("admitted"))
            .collect();
        for (ticket, want) in tickets.into_iter().zip(expected.iter()) {
            assert_eq!(&product(ticket), want, "fleet of {workers} diverged");
        }
        let stats = drained(svc);
        assert_eq!(stats.completed, 48, "fleet of {workers} lost jobs");
        assert_eq!(stats.rejected, 0);
    }
}

/// Injector whose banks all wait at `begin_op` until the test opens the
/// gate, so a batch holds its bank for exactly as long as the test
/// needs. Armed only while the gate is closed.
#[derive(Debug, Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

#[derive(Debug)]
struct GatePath {
    bank: u32,
    gate: Arc<Gate>,
}

#[derive(Debug, Default)]
struct GateInjector(Arc<Gate>);

impl GateInjector {
    fn open(&self) {
        *self.0.open.lock().unwrap() = true;
        self.0.opened.notify_all();
    }
}

/// Opens the gate when dropped, so a failed assertion never leaves a
/// bank held while the service drains.
struct OpenOnDrop(Arc<GateInjector>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

impl Injector for GateInjector {
    fn bank_writes(&self, bank: u32) -> Arc<dyn WritePath> {
        Arc::new(GatePath {
            bank,
            gate: Arc::clone(&self.0),
        })
    }
}

impl WritePath for GatePath {
    fn armed(&self) -> bool {
        !*self.gate.open.lock().unwrap()
    }
    fn begin_op(&self) {
        let open = self.gate.open.lock().unwrap();
        drop(self.gate.opened.wait_while(open, |open| !*open).unwrap());
    }
    fn store(&self, _block: u32, _row: u32, value: u64) -> u64 {
        value
    }
    fn bank(&self) -> u32 {
        self.bank
    }
    fn suspect_block(&self) -> Option<u32> {
        None
    }
}

/// With the `Reject` policy, ops admitted past `queue_capacity`
/// unclaimed ones surface the typed `Overloaded` error synchronously,
/// counted in `rejected`, and the already-admitted ops still complete.
#[test]
fn reject_policy_surfaces_typed_overload() {
    let gate = Arc::new(GateInjector::default());
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        backpressure: Backpressure::Reject,
        injector: Some(gate.clone()),
        ..ServiceConfig::default()
    });
    let gate = OpenOnDrop(gate);
    let p = ParamSet::for_degree(1024).expect("valid degree");
    let mk = |c: u64| Polynomial::from_coeffs(vec![c % p.q; 1024], p.q).expect("valid poly");
    // An op nobody waits for is the lone executor's once the waiter
    // grace has passed; its leaf then holds the lone bank at the closed
    // gate, so no thread can claim the ops submitted next.
    let blocker = submit(&svc, mk(9), mk(10)).expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(60);
    while svc.stats().in_flight == 0 {
        assert!(Instant::now() < deadline, "no executor took the blocker");
        std::thread::yield_now();
    }
    let t1 = submit(&svc, mk(1), mk(2)).expect("first admitted");
    let t2 = submit(&svc, mk(3), mk(4)).expect("second admitted");
    let err = match submit(&svc, mk(5), mk(6)) {
        Err(e) => e,
        Ok(_) => panic!("a third unclaimed op should hit the op bound"),
    };
    assert!(
        matches!(err, ServiceError::Overloaded { capacity: 2 }),
        "unexpected error: {err:?}"
    );
    assert_eq!(svc.stats().rejected, 1);
    drop(gate);
    let stats = drained(svc);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 3);
    product(blocker);
    product(t1);
    product(t2);
}

/// With the `Block` policy, concurrent submitters pushing 40× more ops
/// than the op bound holds never lose one: every submit eventually
/// admits, every ticket resolves, and the products stay correct.
#[test]
fn block_policy_never_drops_under_overload() {
    const CLIENTS: usize = 4;
    const JOBS_PER_CLIENT: usize = 40;
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 4,
        backpressure: Backpressure::Block,
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
                    .map(|(a, b)| submit(svc, a, b).expect("Block admits eventually"))
                    .collect();
                for (ticket, want) in tickets.into_iter().zip(expected) {
                    assert_eq!(product(ticket), want);
                }
            });
        }
    });
    let stats = drained(svc);
    assert_eq!(stats.admitted, (CLIENTS * JOBS_PER_CLIENT) as u64);
    assert_eq!(stats.completed, stats.admitted, "Block policy dropped jobs");
    assert_eq!(stats.rejected, 0);
}

/// Shutdown runs every queued partial batch before the executors
/// exit: no admitted ticket is ever left unresolved.
#[test]
fn shutdown_drains_every_admitted_job() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 1024,
        backpressure: Backpressure::Block,
        ..ServiceConfig::default()
    });
    let stream = generate_jobs(3, 30, &[64, 256]);
    let expected = direct_products(&stream);
    let tickets: Vec<_> = stream
        .iter()
        .map(|(a, b)| submit(&svc, a.clone(), b.clone()).expect("admitted"))
        .collect();
    let stats = drained(svc);
    assert_eq!(stats.completed, 30);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
    for (ticket, want) in tickets.into_iter().zip(expected) {
        assert!(ticket.is_done(), "shutdown returned before draining");
        assert_eq!(product(ticket), want, "drained, not dropped");
    }
}
