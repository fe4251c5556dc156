//! Integration tests for the protocol job-graph layer: every RLWE
//! protocol op served through the batch-forming fleet must be
//! bit-identical to the direct `crates/rlwe` execution of the same
//! inputs, for any fleet size — and an injected fault in one graph node
//! must recover without failing the protocol op.

use cryptopim::check::CheckPolicy;
use modmath::params::ParamSet;
use ntt::negacyclic::NttMultiplier;
use proptest::prelude::*;
use reliability::plan::FaultPlan;
use service::{
    Backpressure, ProtocolJob, ProtocolKind, ProtocolOutput, Service, ServiceConfig, ServiceStats,
};
use std::sync::Arc;

/// Shuts `svc` down and checks that its drained counters balance.
fn drained(svc: Service) -> ServiceStats {
    let stats = svc.shutdown();
    if let Err(e) = stats.check_drained() {
        panic!("{e}\n{stats}");
    }
    stats
}

fn fleet(workers: usize) -> Service {
    Service::start(ServiceConfig {
        workers,
        backpressure: Backpressure::Block,
        ..ServiceConfig::default()
    })
}

/// All protocol kinds, as served scenarios.
const KINDS: [ProtocolKind; 10] = ProtocolKind::ALL;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every protocol kind, served through the graph layer at fleet
    /// sizes 1, 2, and 4, produces output bit-identical to the direct
    /// host execution of the same scripted scenario. This is the
    /// correctness contract of the whole layer: batching, caching, and
    /// pairing change scheduling, never values.
    #[test]
    fn served_protocols_bit_identical_to_direct(seed in 0u64..100_000) {
        for workers in [1usize, 2, 4] {
            let svc = fleet(workers);
            let jobs: Vec<ProtocolJob> = KINDS
                .iter()
                .map(|&k| ProtocolJob::scripted(k, 256, seed).expect("scripted"))
                .collect();
            let expected: Vec<ProtocolOutput> = jobs
                .iter()
                .map(|j| j.run_direct().expect("direct"))
                .collect();
            // Submit everything up front so different ops' inner
            // multiplies interleave in the former.
            let tickets: Vec<_> = jobs
                .into_iter()
                .map(|j| svc.submit_protocol(j).expect("admitted"))
                .collect();
            for ((ticket, want), kind) in tickets.into_iter().zip(&expected).zip(KINDS) {
                let done = ticket.wait().expect("protocol op completes");
                prop_assert_eq!(&done.output, want, "kind {} fleet {}", kind, workers);
                prop_assert!(done.nodes >= 1);
            }
            drained(svc);
        }
    }
}

/// Decapsulation through the graph recovers the exact shared secret the
/// encapsulation (also through the graph) produced — the full KEM
/// handshake across two served ops.
#[test]
fn kem_handshake_through_graph_recovers_shared_secret() {
    let svc = fleet(2);
    // Scripted Decaps builds keys + a matching ciphertext from one
    // seed; reproduce the sender side host-side to learn the secret the
    // served decapsulation must recover.
    let decaps = ProtocolJob::scripted(ProtocolKind::Decaps, 256, 77).expect("scripted");
    let sender_secret = match &decaps {
        ProtocolJob::Decaps { keys, .. } => {
            let params = ParamSet::for_degree(256).expect("paper degree");
            let ntt = NttMultiplier::new(&params).expect("paper parameters");
            rlwe::kem::encapsulate(keys.public(), &ntt, 77u64.wrapping_add(3))
                .expect("host encapsulate")
                .shared_secret
        }
        _ => unreachable!(),
    };
    let served = svc
        .submit_protocol(decaps)
        .expect("admitted")
        .wait()
        .expect("served decaps");
    assert_eq!(
        served.output,
        ProtocolOutput::SharedSecret(sender_secret),
        "served decapsulation recovers the sender's shared secret"
    );
    assert_ne!(sender_secret, [0u8; 32], "secret is non-trivial");
    drained(svc);
}

/// Sign then Verify through the graph round-trips: a signature produced
/// by a served Sign op verifies under a served Verify op.
#[test]
fn sign_verify_round_trips_through_graph() {
    let svc = fleet(2);
    let sign = ProtocolJob::scripted(ProtocolKind::Sign, 256, 33).expect("scripted");
    let (key, message) = match &sign {
        ProtocolJob::Sign { key, message, .. } => (key.clone(), message.clone()),
        _ => unreachable!(),
    };
    let signed = svc
        .submit_protocol(sign)
        .expect("admitted")
        .wait()
        .expect("served sign");
    let ProtocolOutput::Signature { signature, .. } = signed.output else {
        panic!("sign yields a signature");
    };
    let verified = svc
        .submit_protocol(ProtocolJob::Verify {
            key: key.verify_key(),
            message: message.clone(),
            signature: signature.clone(),
        })
        .expect("admitted")
        .wait()
        .expect("served verify");
    assert_eq!(verified.output, ProtocolOutput::Verdict(true));
    // Tampered message must fail verification (served).
    let mut tampered = message;
    tampered[0] ^= 1;
    let rejected = svc
        .submit_protocol(ProtocolJob::Verify {
            key: key.verify_key(),
            message: tampered,
            signature,
        })
        .expect("admitted")
        .wait()
        .expect("served verify of tampered message");
    assert_eq!(rejected.output, ProtocolOutput::Verdict(false));
    drained(svc);
}

/// SHE-Mul through the graph matches the plaintext product: decrypting
/// the served homomorphic product yields the product of the plaintexts.
#[test]
fn she_mul_through_graph_matches_plaintext_product() {
    let job = ProtocolJob::scripted(ProtocolKind::SheMul, 256, 55).expect("scripted");
    let direct = job.run_direct().expect("direct she");
    let svc = fleet(2);
    let served = svc
        .submit_protocol(job)
        .expect("admitted")
        .wait()
        .expect("served she");
    assert_eq!(served.output, direct);
    assert_eq!(served.nodes, 2, "u·p and v·p, paired");
    drained(svc);
}

/// Cross-tenant batching: many concurrent protocol ops at one ring pack
/// their inner multiplies into shared batches — realized occupancy on
/// the multiply substrate exceeds one job per batch.
#[test]
fn concurrent_protocol_ops_share_batches() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        backpressure: Backpressure::Block,
        ..ServiceConfig::default()
    });
    let jobs: Vec<ProtocolJob> = (0..12)
        .map(|i| {
            let kind = [
                ProtocolKind::Encaps,
                ProtocolKind::PkeEncrypt,
                ProtocolKind::SheMul,
                ProtocolKind::Verify,
            ][i % 4];
            ProtocolJob::scripted(kind, 256, 900 + i as u64).expect("scripted")
        })
        .collect();
    let expected: Vec<ProtocolOutput> = jobs
        .iter()
        .map(|j| j.run_direct().expect("direct"))
        .collect();
    let tickets: Vec<_> = jobs
        .into_iter()
        .map(|j| svc.submit_protocol(j).expect("admitted"))
        .collect();
    for (ticket, want) in tickets.into_iter().zip(expected) {
        assert_eq!(ticket.wait().expect("completes").output, want);
    }
    let stats = drained(svc);
    assert!(
        stats.mean_occupancy > 1.0,
        "inner multiplies of concurrent ops pack together (mean occupancy {})",
        stats.mean_occupancy
    );
}

/// A transiently faulted fleet still serves every protocol op with the
/// exact direct-path output: a detected fault in one graph node retries
/// that node alone, and the op's ticket resolves `Ok` with
/// `attempts > 1` somewhere along the campaign — never a wrong answer.
#[test]
fn injected_node_fault_recovers_without_failing_protocol_op() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        check: CheckPolicy::Recompute,
        max_attempts: 6,
        quarantine_after: u32::MAX,
        injector: Some(Arc::new(FaultPlan::new(4242).with_transient(1e-4, 2))),
        backpressure: Backpressure::Block,
        ..ServiceConfig::default()
    });
    let mut worst_attempts = 1;
    for i in 0..24u64 {
        let kind = [
            ProtocolKind::Encaps,
            ProtocolKind::Decaps,
            ProtocolKind::Sign,
            ProtocolKind::SheMul,
        ][(i % 4) as usize];
        let job = ProtocolJob::scripted(kind, 256, 3000 + i).expect("scripted");
        let want = job.run_direct().expect("direct");
        let done = svc
            .submit_protocol(job)
            .expect("admitted")
            .wait()
            .expect("transient faults recover; the op never fails");
        assert_eq!(
            done.output, want,
            "op {i} ({kind}) bit-identical under faults"
        );
        worst_attempts = worst_attempts.max(done.attempts);
    }
    let stats = drained(svc);
    assert!(
        stats.faults_detected >= 1,
        "campaign injected at least one detected fault"
    );
    assert!(
        worst_attempts > 1,
        "some node recovered via retry (worst attempts {worst_attempts})"
    );
}
