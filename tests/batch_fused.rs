//! Batch-fused transform correctness: the fused `B`-polynomial sequence
//! the Recompute referee runs (`forward_batch` on both operand slabs,
//! `pointwise_batch`, `inverse_batch`) walks each twiddle table once per
//! stage for the whole batch, and must be **bit-identical** to running
//! the single-polynomial multiply `B` times — for every batch width the
//! serving layer forms and every paper modulus.
//!
//! Also pins the lazy-bound contract at its worst case: the half-width
//! Shoup path is taken for every `q < 2^30`, so the largest NTT-friendly
//! modulus under that limit maximizes every `[0, 4q)` intermediate. The
//! kernels' debug asserts (inputs `< 2q`) are live in this binary — a
//! bound excursion aborts the test rather than wrapping silently.

use modmath::roots::NttTables;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use ntt::schoolbook;
use proptest::prelude::*;

/// Splits flat coefficient vectors into B pairs, multiplies them both
/// ways, and requires exact equality.
fn check_batch_matches_sequential(n: usize, q: u64, batch: usize, a: Vec<u64>, b: Vec<u64>) {
    let m = NttMultiplier::for_degree_modulus(n, q).expect("compatible (n, q)");
    let split = |flat: &[u64]| -> Vec<Polynomial> {
        (0..batch)
            .map(|i| Polynomial::from_coeffs(flat[i * n..(i + 1) * n].to_vec(), q).unwrap())
            .collect()
    };
    let (aps, bps) = (split(&a), split(&b));
    let (mut fa, mut fb) = (a[..batch * n].to_vec(), b[..batch * n].to_vec());
    m.forward_batch(&mut fa).expect("batch forward");
    m.forward_batch(&mut fb).expect("batch forward");
    m.pointwise_batch(&mut fa, &fb).expect("batch pointwise");
    m.inverse_batch(&mut fa).expect("batch inverse");
    for i in 0..batch {
        let sequential = m.multiply(&aps[i], &bps[i]).expect("sequential multiply");
        assert_eq!(
            fa[i * n..(i + 1) * n],
            *sequential.coeffs(),
            "n = {n}, q = {q}, B = {batch}, job {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batch_fused_matches_sequential_q7681_n256(
        batch in 1usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = seeded_coeffs(256, 7681, 8, seed);
        check_batch_matches_sequential(256, 7681, batch, a, b);
    }

    #[test]
    fn batch_fused_matches_sequential_q12289_n256(
        batch in 1usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = seeded_coeffs(256, 12289, 8, seed);
        check_batch_matches_sequential(256, 12289, batch, a, b);
    }

    #[test]
    fn batch_fused_matches_sequential_q786433_n256(
        batch in 1usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = seeded_coeffs(256, 786433, 8, seed);
        check_batch_matches_sequential(256, 786433, batch, a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batch_fused_matches_sequential_q12289_n1024(
        batch in 1usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = seeded_coeffs(1024, 12289, 8, seed);
        check_batch_matches_sequential(1024, 12289, batch, a, b);
    }

    #[test]
    fn batch_fused_matches_sequential_q786433_n4096(
        batch in 1usize..=4,
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = seeded_coeffs(4096, 786433, 4, seed);
        check_batch_matches_sequential(4096, 786433, batch, a, b);
    }
}

/// Deterministic coefficient streams (proptest drives the seed; the
/// expansion avoids generating 8·4096-element vectors through the
/// strategy machinery).
fn seeded_coeffs(n: usize, q: u64, max_batch: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut state = seed | 1;
    let mut draw = |len: usize| -> Vec<u64> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) % q
            })
            .collect()
    };
    let a = draw(max_batch * n);
    let b = draw(max_batch * n);
    (a, b)
}

/// The largest NTT-friendly modulus below the half-width Shoup limit
/// (`2^30`) for degree `n` — the worst case for every `[0, 4q)` lazy
/// intermediate on the vectorized path.
fn worst_case_half_modulus(n: usize) -> u64 {
    let limit = 1u64 << 30;
    let step = 2 * n as u64;
    let mut q = limit - ((limit - 1) % step);
    while q > step {
        if NttTables::for_degree_modulus(n, q).is_ok() {
            return q;
        }
        q -= step;
    }
    panic!("no NTT-friendly modulus under 2^30 for n = {n}");
}

#[test]
fn worst_case_modulus_stays_in_lazy_bounds() {
    // q just under 2^30: products `t·w` and sums `a + 2q − t` sit as
    // close to the u32/u64 cliffs as the half-width path ever gets.
    // Debug asserts in the kernels verify every inter-stage value is
    // `< 2q`; the schoolbook oracle verifies the answers.
    let n = 256usize;
    let q = worst_case_half_modulus(n);
    assert!(q < 1 << 30 && q > (1 << 30) - 4 * n as u64 * 20, "q = {q}");
    let m = NttMultiplier::for_degree_modulus(n, q).expect("friendly modulus");
    // Extremal operands: all coefficients at q − 1.
    let max = Polynomial::from_coeffs(vec![q - 1; n], q).unwrap();
    let prod = m.multiply(&max, &max).expect("worst-case multiply");
    assert_eq!(prod, schoolbook::multiply(&max, &max).unwrap());
    // And a mixed stream, fused across a batch.
    let (a, b) = seeded_coeffs(n, q, 8, 0xDEADBEEF);
    check_batch_matches_sequential(n, q, 8, a, b);
}

#[test]
fn worst_case_modulus_roundtrips_at_larger_degree() {
    let n = 4096usize;
    let q = worst_case_half_modulus(n);
    let m = NttMultiplier::for_degree_modulus(n, q).expect("friendly modulus");
    let (a, _) = seeded_coeffs(n, q, 1, 99);
    let pa = Polynomial::from_coeffs(a, q).unwrap();
    let spec = m.forward(&pa).expect("forward");
    assert_eq!(m.inverse(spec).expect("inverse"), pa);
    // x^{n/2} squared is −1: exercises the negacyclic wrap at the
    // extremal modulus.
    let mut h = vec![0u64; n];
    h[n / 2] = q - 1;
    let h = Polynomial::from_coeffs(h, q).unwrap();
    let sq = m.multiply(&h, &h).unwrap();
    assert_eq!(sq.coeff(0), q - 1);
    assert!(sq.coeffs()[1..].iter().all(|&c| c == 0));
}
