//! Oracle coverage for the merged kernels. Two merged forwards, the
//! lazy pointwise product and the merged inverse must equal three
//! references that share no kernel code with them —
//!
//! * the schoolbook negacyclic product,
//! * the by-definition DFT (`φ`-twisted cyclic DFT, `n⁻¹`, `φ̄`),
//! * the paper's Algorithm 1 over the strict Algorithm-2 kernel
//!   (`gs::forward` / `gs::inverse`: `φ` pre-scaling, bit reversal,
//!   canonical `zq` butterflies, `n⁻¹`, `φ̄` post-scaling) —
//!
//! at every paper `(n, q)`, at the worst-case half-width modulus (the
//! largest NTT-friendly `q < 2^30`) and at a `q ≥ 2^30`. The two `O(n²)`
//! oracles run up to `n = 2048`; the Algorithm-1 oracle covers every
//! degree. Operands enter the merged path both canonical and as lazy
//! `[0, 2q)` representatives. The natural-order views
//! `NttMultiplier::{forward, inverse}` are checked against the same
//! Algorithm-1 oracle.

use modmath::params::ParamSet;
use modmath::roots::{MergedTwiddles, NttTables};
use modmath::zq;
use ntt::negacyclic::NttMultiplier;
use ntt::poly::Polynomial;
use ntt::{dft, gs, merged, schoolbook};
use proptest::prelude::*;

/// Largest degree the `O(n²)` oracles are run at.
const QUADRATIC_ORACLE_MAX_N: usize = 2048;

fn draw(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) % q
        })
        .collect()
}

/// Adds `q` to every coefficient whose seeded bit is set: the same
/// residues as lazy `[0, 2q)` representatives.
fn lazify(a: &[u64], q: u64, seed: u64) -> Vec<u64> {
    a.iter()
        .enumerate()
        .map(|(i, &c)| c + q * ((seed.rotate_left(i as u32 % 64) ^ i as u64) & 1))
        .collect()
}

/// The merged multiply exactly as the hot paths run it.
fn merged_multiply(a: &[u64], b: &[u64], t: &NttTables) -> Vec<u64> {
    let (mut fa, mut fb) = (a.to_vec(), b.to_vec());
    merged::forward_lazy_batch_in_place(&mut fa, t);
    merged::forward_lazy_batch_in_place(&mut fb, t);
    merged::pointwise_lazy_in_place(&mut fa, &fb, t.modulus());
    merged::inverse_batch_in_place(&mut fa, t);
    fa
}

/// `φ ⊙ a`, canonical.
fn twist(a: &[u64], t: &NttTables) -> Vec<u64> {
    let q = t.modulus();
    a.iter()
        .zip(t.phi_powers())
        .map(|(&c, &p)| zq::mul(c, p, q))
        .collect()
}

/// Algorithm 1's forward over the strict kernel: `NTT(φ ⊙ a)`, natural
/// order, canonical.
fn algorithm1_forward(a: &[u64], t: &NttTables) -> Vec<u64> {
    let mut spec = twist(a, t);
    gs::forward(&mut spec, t);
    spec
}

/// `φ̄ ⊙ INTT(NTT(φ ⊙ a) ⊙ NTT(φ ⊙ b))` over the strict kernel.
fn algorithm1_multiply(a: &[u64], b: &[u64], t: &NttTables) -> Vec<u64> {
    let q = t.modulus();
    let (fa, fb) = (algorithm1_forward(a, t), algorithm1_forward(b, t));
    let mut prod: Vec<u64> = fa
        .iter()
        .zip(&fb)
        .map(|(&x, &y)| zq::mul(x, y, q))
        .collect();
    gs::inverse(&mut prod, t);
    prod.iter()
        .zip(t.phi_inv_powers())
        .map(|(&c, &p)| zq::mul(c, p, q))
        .collect()
}

/// `φ̄ ⊙ IDFT(DFT(φ ⊙ a) ⊙ DFT(φ ⊙ b))` by definition.
fn dft_multiply(a: &[u64], b: &[u64], t: &NttTables) -> Vec<u64> {
    let q = t.modulus();
    let (fa, fb) = (
        dft::dft(&twist(a, t), t.omega(), q),
        dft::dft(&twist(b, t), t.omega(), q),
    );
    let prod: Vec<u64> = fa
        .iter()
        .zip(&fb)
        .map(|(&x, &y)| zq::mul(x, y, q))
        .collect();
    dft::idft(&prod, t.omega(), q)
        .iter()
        .zip(t.phi_inv_powers())
        .map(|(&c, &p)| zq::mul(c, p, q))
        .collect()
}

fn check_against_oracles(n: usize, q: u64, seed: u64) {
    let m = NttMultiplier::for_degree_modulus(n, q).expect("NTT-friendly (n, q)");
    let t = m.tables();
    let (a, b) = (draw(n, q, seed), draw(n, q, seed ^ 0x9e37_79b9));
    let merged = merged_multiply(&a, &b, t);
    assert!(
        merged.iter().all(|&c| c < q),
        "canonical output, n = {n}, q = {q}"
    );
    assert_eq!(
        merged_multiply(&lazify(&a, q, seed), &lazify(&b, q, !seed), t),
        merged,
        "lazy operands, n = {n}, q = {q}"
    );

    assert_eq!(
        merged,
        algorithm1_multiply(&a, &b, t),
        "Algorithm 1 over the strict GS kernel, n = {n}, q = {q}"
    );

    if n <= QUADRATIC_ORACLE_MAX_N {
        let (pa, pb) = (
            Polynomial::from_coeffs(a.clone(), q).unwrap(),
            Polynomial::from_coeffs(b.clone(), q).unwrap(),
        );
        let school = schoolbook::multiply(&pa, &pb).unwrap();
        assert_eq!(merged, school.coeffs(), "schoolbook, n = {n}, q = {q}");
        assert_eq!(merged, dft_multiply(&a, &b, t), "DFT, n = {n}, q = {q}");
    }
}

/// `NttMultiplier::forward` is the natural-order canonical spectrum of
/// the Algorithm-1 oracle, and `inverse` undoes it.
fn check_views_against_oracle(n: usize, q: u64, seed: u64) {
    let m = NttMultiplier::for_degree_modulus(n, q).expect("NTT-friendly (n, q)");
    let a = draw(n, q, seed);
    let pa = Polynomial::from_coeffs(a.clone(), q).unwrap();
    let spec = m.forward(&pa).unwrap();
    assert_eq!(
        spec,
        algorithm1_forward(&a, m.tables()),
        "forward view, n = {n}, q = {q}"
    );
    assert_eq!(
        m.inverse(spec).unwrap(),
        pa,
        "inverse view, n = {n}, q = {q}"
    );
}

/// The largest prime `q < 2^30` with `q ≡ 1 (mod 2n)` — every `[0, 4q)`
/// intermediate of the `u32`-lane kernels is as close to `2^32` as it
/// gets.
fn worst_case_half_modulus(n: usize) -> u64 {
    let limit = modmath::shoup::HALF_MODULUS_LIMIT;
    let step = 2 * n as u64;
    let mut q = limit - 1 - (limit - 2) % step;
    while !modmath::primes::is_prime(q) {
        q -= step;
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn merged_multiply_matches_oracles_at_paper_parameters(seed in 0u64..u64::MAX) {
        for p in ParamSet::paper_sweep() {
            check_against_oracles(p.n, p.q, seed);
        }
    }

    #[test]
    fn merged_multiply_matches_oracles_at_worst_case_half_modulus(seed in 0u64..u64::MAX) {
        for n in [256usize, 4096] {
            let q = worst_case_half_modulus(n);
            prop_assert!(q < modmath::shoup::HALF_MODULUS_LIMIT);
            check_against_oracles(n, q, seed);
        }
    }
}

/// The smallest prime `q ≥ 2^30` with `q ≡ 1 (mod 2n)`: the first
/// modulus that leaves the `u32` lanes for the `u64` WideMul kernels.
fn smallest_wide_modulus(n: usize) -> u64 {
    let step = 2 * n as u64;
    let mut q = modmath::shoup::HALF_MODULUS_LIMIT + 1;
    while !modmath::primes::is_prime(q) {
        q += step;
    }
    let t = NttTables::for_degree_modulus(n, q).unwrap();
    assert!(
        matches!(t.merged_twiddles(), MergedTwiddles::Wide { .. }),
        "u64 tables"
    );
    q
}

#[test]
fn smallest_wide_modulus_matches_oracles() {
    // The product must not notice the change of lane width.
    let n = 256usize;
    check_against_oracles(n, smallest_wide_modulus(n), 11);
}

#[test]
fn natural_order_views_match_the_algorithm1_oracle() {
    for (k, p) in ParamSet::paper_sweep().into_iter().enumerate() {
        check_views_against_oracle(p.n, p.q, k as u64 + 1);
    }
    for n in [256usize, 4096] {
        check_views_against_oracle(n, worst_case_half_modulus(n), 7);
        check_views_against_oracle(n, smallest_wide_modulus(n), 9);
    }
}
