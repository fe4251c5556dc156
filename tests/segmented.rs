//! Degrees beyond the 32k-provisioned hardware: §III-D's "divides the
//! inputs into segments of 32k and iteratively uses the hardware". The
//! arithmetic is one big negacyclic multiplication (q = 786433 admits
//! transforms up to 128k); the hardware runs it in multiple passes.

use cryptopim::accelerator::CryptoPim;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use service::{ProtocolJob, ProtocolOutput, Service, ServiceConfig};

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

#[test]
fn degree_65536_multiplies_correctly_in_two_passes() {
    let params = ParamSet::custom(65536, 786433, 32).expect("NTT-friendly");
    let acc = CryptoPim::new(&params).expect("parameters");
    let sw = NttMultiplier::new(&params).expect("parameters");
    let a = rand_poly(65536, params.q, 1);
    let b = rand_poly(65536, params.q, 2);
    assert_eq!(
        acc.multiply(&a, &b).expect("pim"),
        sw.multiply(&a, &b).expect("software")
    );

    let report = acc.report().expect("report");
    assert_eq!(report.arch.passes, 2);
    assert_eq!(
        report.arch.banks_per_softbank, 64,
        "hardware stays 32k-sized"
    );
    // Throughput halves relative to the native 32k row.
    let native = CryptoPim::new(&ParamSet::for_degree(32768).expect("degree"))
        .expect("parameters")
        .report()
        .expect("report");
    let ratio = native.pipelined.throughput / report.pipelined.throughput;
    assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    assert!(report.pipelined.latency_us > native.pipelined.latency_us);
}

#[test]
fn degree_65536_serves_through_the_scheduler() {
    // The scheduler's parameter resolver covers segmented degrees
    // (q = 786433) too, so >32k jobs ride the same submit→batch→wait
    // pipeline as paper-table degrees.
    let params = ParamSet::custom(65536, 786433, 32).expect("NTT-friendly");
    let sw = NttMultiplier::new(&params).expect("parameters");
    let a = rand_poly(65536, params.q, 5);
    let b = rand_poly(65536, params.q, 6);
    let svc = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let want = sw.multiply(&a, &b).expect("software");
    let done = svc
        .submit_protocol(ProtocolJob::Mul { a, b })
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(done.output, ProtocolOutput::Product(want));
    assert_eq!(done.attempts, 1);
    let stats = svc.shutdown();
    assert_eq!(
        stats.batches, stats.completed,
        "a 2-pass degree packs no lane-mates"
    );
    assert_eq!(stats.completed, 1);
}

#[test]
fn segmented_latency_scales_with_passes() {
    let l = |n: usize| {
        let p = ParamSet::custom(n, 786433, 32).expect("NTT-friendly");
        CryptoPim::new(&p)
            .expect("parameters")
            .report()
            .expect("report")
            .pipelined
            .latency_us
    };
    let l64 = l(65536);
    let l128 = l(131072);
    // Four passes vs two, with slightly deeper transforms.
    assert!(l128 > 1.9 * l64, "l128 = {l128}, l64 = {l64}");
}
