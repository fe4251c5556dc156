//! Suite-level reliability integration: seeded [`FaultPlan`]s driving
//! the recover-or-quarantine serving stack end to end — the real
//! injector (not test stubs) through the real scheduler, refereed
//! against the fault-free software path.

use cryptopim::check::CheckPolicy;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use pim::fault::{layout, CellAddr};
use reliability::campaign::{self, CampaignConfig, CampaignKind, CellWorkload};
use reliability::plan::{FaultKind, FaultPlan};
use service::{
    ProtocolCompleted, ProtocolJob, ProtocolOutput, Service, ServiceConfig, ServiceError,
};
use std::sync::Arc;

/// Serves `a · b` as a one-node `Mul` op, unwrapping a failed node to
/// its inner error.
fn multiply(svc: &Service, a: &Polynomial, b: &Polynomial) -> Result<Polynomial, ServiceError> {
    let job = ProtocolJob::Mul {
        a: a.clone(),
        b: b.clone(),
    };
    let done = svc.submit_protocol(job).and_then(|t| t.wait());
    match done {
        Ok(ProtocolCompleted {
            output: ProtocolOutput::Product(p),
            ..
        }) => Ok(p),
        Ok(other) => panic!("a Mul op yields a product: {other:?}"),
        Err(ServiceError::ProtocolNode { error, .. }) => Err(*error),
        Err(e) => Err(e),
    }
}

fn rand_poly(n: usize, q: u64, seed: u64) -> Polynomial {
    let mut state = seed;
    let coeffs: Vec<u64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 16) % q
        })
        .collect();
    Polynomial::from_coeffs(coeffs, q).expect("valid degree")
}

/// A fault plan whose single site corrupts *every* operation on bank 0:
/// stuck-at-1 on bit 15 of a premul word — for q = 7681 < 2^13 that bit
/// is never set in a canonical word, so the OR always lands, and a
/// premul (coefficient-domain) error densely perturbs the product.
fn always_corrupting_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_site(
        CellAddr {
            bank: 0,
            block: layout::premul(),
            row: 3,
            bit: 15,
        },
        FaultKind::StuckAt1,
    )
}

#[test]
fn permanent_fault_exhausts_attempts_then_degrades_to_overloaded() {
    let params = ParamSet::for_degree(256).expect("paper degree");
    let a = rand_poly(256, params.q, 1);
    let b = rand_poly(256, params.q, 2);
    let svc = Service::start(ServiceConfig {
        workers: 1,
        check: CheckPolicy::Recompute,
        max_attempts: 2,
        // Two faulted batches to quarantine, so the retry still runs
        // (quarantining on the first would fail the requeued job as
        // Overloaded before its second attempt).
        quarantine_after: 2,
        injector: Some(Arc::new(always_corrupting_plan(21))),
        ..ServiceConfig::default()
    });
    // The lone bank is permanently faulted: both attempts are detected
    // as corrupt, the job fails, and the bank quarantines.
    let err = multiply(&svc, &a, &b).expect_err("permanently corrupt bank cannot serve");
    assert!(
        matches!(
            err,
            ServiceError::FaultUnrecovered {
                bank: 0,
                attempts: 2
            }
        ),
        "got {err:?}"
    );
    while svc.stats().active_workers > 0 {
        std::thread::yield_now();
    }
    // Every bank quarantined: graceful refusal, never a wrong answer
    // (an op is admitted, and its leaf refused).
    let refused = multiply(&svc, &a, &b).err();
    assert!(
        matches!(refused, Some(ServiceError::Overloaded { .. })),
        "got {refused:?}"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.quarantined_banks, 1);
    assert_eq!(stats.recovered, 0);
    assert!(stats.faults_detected >= 2);
}

#[test]
fn surviving_bank_absorbs_work_bit_exact() {
    let n = 256;
    let params = ParamSet::for_degree(n).expect("paper degree");
    let sw = NttMultiplier::new(&params).expect("paper parameters");
    let svc = Service::start(ServiceConfig {
        workers: 2,
        check: CheckPolicy::Recompute,
        max_attempts: 3,
        quarantine_after: 1,
        injector: Some(Arc::new(always_corrupting_plan(22))),
        ..ServiceConfig::default()
    });
    // Only bank 0 is faulted; with quarantine-after-1 its first detected
    // batch removes it, so every job must eventually complete — served
    // by bank 1, bit-identical to the software reference.
    for k in 0..12u64 {
        let a = rand_poly(n, params.q, 100 + 2 * k);
        let b = rand_poly(n, params.q, 101 + 2 * k);
        let product = multiply(&svc, &a, &b).expect("bank 1 absorbs the fleet's work");
        assert_eq!(product, sw.multiply(&a, &b).expect("software"));
    }
    let stats = svc.shutdown();
    assert!(stats.quarantined_banks <= 1);
    // Scheduling decides whether bank 0 ever claimed a batch, but the
    // accounting must cohere either way.
    if stats.faults_detected > 0 {
        assert_eq!(stats.quarantined_banks, 1);
        assert!(stats.recovered >= 1, "retried jobs recovered on bank 1");
    }
    assert_eq!(stats.completed, 12);
}

#[test]
fn campaign_smoke_is_sound_and_replays() {
    let cfg = CampaignConfig {
        seed: 5,
        degrees: vec![256],
        kinds: vec![CampaignKind::StuckAt1, CampaignKind::Transient],
        rates: vec![1e-3],
        jobs_per_cell: 8,
        workload: CellWorkload::Raw { hot_keys: 0 },
        ..CampaignConfig::default()
    };
    let r1 = campaign::run(&cfg);
    let r2 = campaign::run(&cfg);
    assert!(r1.is_sound(), "{r1:?}");
    assert_eq!(r1.wrong, 0);
    assert_eq!(r1.detection_coverage, 1.0);
    assert_eq!(r1.detected, r2.detected, "campaign must replay exactly");
    for (x, y) in r1.cells.iter().zip(&r2.cells) {
        assert_eq!(
            (x.served, x.wrong, x.unrecovered, x.refused),
            (y.served, y.wrong, y.unrecovered, y.refused)
        );
        assert_eq!(x.screen, y.screen);
        assert!(x.screen.is_some(), "raw cells carry a screen");
    }
}
