//! Cross-crate tests for the residue-sharded wide-modulus pipeline:
//! the sequential residue loop and the schoolbook oracle must agree
//! bit-for-bit for every channel count,
//! and the fleet-sharded path through the scheduler must be a pure
//! throughput knob — same products for any worker count.

use std::time::Duration;

use modmath::crt::RnsBasis;
use ntt::rns::{self, RnsMultiplier};
use proptest::prelude::*;
use service::{ProtocolJob, ProtocolOutput, Service, ServiceConfig};

/// Basis discovery floor: primes of at least ~20 bits per lane, so a
/// k-lane basis carries a ~20k-bit wide modulus.
const FLOOR: u64 = 1 << 20;

fn splitmix64(seed: &mut u64) {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
}

fn next_u64(seed: &mut u64) -> u64 {
    splitmix64(seed);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic wide-operand pair: coefficients drawn uniformly below
/// the wide modulus from a splitmix64 stream (hi/lo composition so
/// every u128 bit is exercised).
fn wide_operands(seed: u64, n: usize, q: u128) -> (Vec<u128>, Vec<u128>) {
    let mut state = seed ^ 0x005E_ED0F_1DE5;
    let draw = |state: &mut u64| {
        let hi = next_u64(state) as u128;
        let lo = next_u64(state) as u128;
        ((hi << 64) | lo) % q
    };
    let a = (0..n).map(|_| draw(&mut state)).collect();
    let b = (0..n).map(|_| draw(&mut state)).collect();
    (a, b)
}

/// A wide multiply as the service serves it: one `WideMul` graph op.
fn wide_job(a: &[u128], b: &[u128], basis: &RnsBasis) -> ProtocolJob {
    ProtocolJob::WideMul {
        a: a.to_vec(),
        b: b.to_vec(),
        basis: basis.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sequential residue loop and (whenever the wide modulus fits
    /// the oracle's u128 headroom) the schoolbook negacyclic product
    /// agree bit-for-bit for every channel count in the supported 2..=4
    /// range.
    #[test]
    fn sharded_matches_sequential_and_schoolbook(
        seed in 0u64..1_000_000,
        k in 2usize..=4,
        deg_idx in 0usize..3,
    ) {
        let n = [256usize, 512, 1024][deg_idx];
        let mult = RnsMultiplier::with_discovered_basis(n, k, FLOOR)
            .expect("NTT-friendly basis exists at every paper degree");
        let q = mult.modulus();
        let (a, b) = wide_operands(seed, n, q);
        let sequential = mult.multiply(&a, &b).expect("sequential loop");
        if q < 1u128 << 63 {
            prop_assert_eq!(&sequential, &rns::schoolbook_u128(&a, &b, q));
        }
    }

    /// The fleet-sharded path — a `WideMul` graph op decomposing a wide
    /// job into residue-lane sub-jobs through the batch former — recombines
    /// to exactly the sequential residue loop's product (and the
    /// schoolbook oracle's, when the modulus fits).
    #[test]
    fn fleet_sharded_wide_multiply_matches_oracles(
        seed in 0u64..1_000_000,
        k in 2usize..=4,
    ) {
        let n = 256usize;
        let basis = RnsBasis::discover(n, k, FLOOR).expect("basis");
        let mult = RnsMultiplier::with_basis(n, basis.clone()).expect("multiplier");
        let q = basis.modulus();
        let (a, b) = wide_operands(seed, n, q);
        let expected = mult.multiply(&a, &b).expect("sequential loop");
        let svc = Service::start(ServiceConfig {
            workers: 2,
            linger: Duration::from_micros(200),
            ..ServiceConfig::default()
        });
        let done = svc
            .submit_protocol(wide_job(&a, &b, &basis))
            .expect("admitted")
            .wait()
            .expect("recombines");
        prop_assert_eq!(&done.output, &ProtocolOutput::WideProduct(expected.clone()));
        prop_assert_eq!(done.nodes as usize, k);
        if q < 1u128 << 63 {
            prop_assert_eq!(&expected, &rns::schoolbook_u128(&a, &b, q));
        }
        svc.shutdown();
    }
}

/// Fleet size is a throughput knob for wide jobs too: the same wide
/// stream served by 1, 2, or 4 superbanks recombines to
/// identical products, and every wide job completes.
#[test]
fn wide_products_identical_across_fleet_sizes() {
    let n = 256usize;
    let basis = RnsBasis::discover(n, 3, FLOOR).expect("basis");
    let mult = RnsMultiplier::with_basis(n, basis.clone()).expect("multiplier");
    let jobs: Vec<_> = (0..12u64)
        .map(|i| wide_operands(0xFEED ^ i, n, basis.modulus()))
        .collect();
    let expected: Vec<_> = jobs
        .iter()
        .map(|(a, b)| mult.multiply(a, b).expect("sequential loop"))
        .collect();
    for workers in [1usize, 2, 4] {
        let svc = Service::start(ServiceConfig {
            workers,
            linger: Duration::from_micros(200),
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = jobs
            .iter()
            .map(|(a, b)| {
                svc.submit_protocol(wide_job(a, b, &basis))
                    .expect("admitted")
            })
            .collect();
        for (ticket, want) in tickets.into_iter().zip(expected.iter()) {
            let done = ticket.wait().expect("recombines");
            assert_eq!(
                done.output,
                ProtocolOutput::WideProduct(want.clone()),
                "fleet of {workers} diverged"
            );
        }
        let stats = svc.shutdown();
        assert_eq!(
            stats.wide_completed, 12,
            "fleet of {workers} lost wide jobs"
        );
        assert_eq!(stats.wide_failed, 0);
        // Every residue lane rode the ordinary narrow path.
        assert_eq!(stats.admitted, 12 * 3, "fleet of {workers} lane accounting");
    }
}

/// One deterministic smoke at the paper's largest degree with the
/// 2-channel basis the fleet bench gates on: the recombined product
/// from the scheduler equals the sequential residue loop's.
#[test]
fn paper_degree_wide_smoke() {
    let n = 4096usize;
    let basis = RnsBasis::discover(n, 2, FLOOR).expect("basis");
    let mult = RnsMultiplier::with_basis(n, basis.clone()).expect("multiplier");
    let (a, b) = wide_operands(0xD15C0, n, basis.modulus());
    let expected = mult.multiply(&a, &b).expect("sequential loop");
    let svc = Service::start(ServiceConfig {
        workers: 2,
        linger: Duration::from_micros(200),
        ..ServiceConfig::default()
    });
    let done = svc
        .submit_protocol(wide_job(&a, &b, &basis))
        .expect("admitted")
        .wait()
        .expect("recombines");
    assert_eq!(done.output, ProtocolOutput::WideProduct(expected));
    svc.shutdown();
}
