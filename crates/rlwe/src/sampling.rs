//! Polynomial samplers: uniform and centered binomial.
//!
//! RLWE schemes draw the public polynomial `a` uniformly from `R_q` and
//! secrets/noise from a narrow centered distribution. Kyber and NewHope
//! both use the centered binomial distribution `CBD_η` (difference of two
//! η-bit Hamming weights), which we reproduce here.

use modmath::params::ParamSet;
use ntt::poly::{signed_residue, Polynomial};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples a uniformly random element of `R_q`.
///
/// # Panics
///
/// Panics if the parameter degree is not a valid polynomial length
/// (cannot happen for validated [`ParamSet`]s).
pub fn uniform(params: &ParamSet, rng: &mut StdRng) -> Polynomial {
    let coeffs: Vec<u64> = (0..params.n).map(|_| rng.gen_range(0..params.q)).collect();
    Polynomial::from_coeffs(coeffs, params.q).expect("validated parameters")
}

/// Samples from the centered binomial distribution `CBD_η` in each
/// coefficient: `Σ_{i<η} (b_i − b'_i)`, values in `[−η, η]`.
///
/// Each coefficient takes two draws and is written as its residue
/// straight into the polynomial, with no signed intermediate vector.
///
/// # Panics
///
/// Panics if `eta == 0` or `eta > 16`.
pub fn centered_binomial(params: &ParamSet, eta: u32, rng: &mut StdRng) -> Polynomial {
    assert!(eta > 0 && eta <= 16, "eta out of range");
    let (mask, q) = ((1u32 << eta) - 1, params.q);
    let coeffs = (0..params.n)
        .map(|_| {
            let a = rng.gen::<u32>() & mask;
            let b = rng.gen::<u32>() & mask;
            signed_residue(a.count_ones() as i64 - b.count_ones() as i64, q)
        })
        .collect();
    Polynomial::from_canonical_coeffs(coeffs, q).expect("validated parameters")
}

/// A seeded RNG for reproducible protocol runs.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ParamSet {
        ParamSet::for_degree(1024).unwrap()
    }

    #[test]
    fn uniform_covers_range() {
        let p = params();
        let mut rng = seeded_rng(1);
        let poly = uniform(&p, &mut rng);
        assert_eq!(poly.degree_bound(), 1024);
        assert!(poly.coeffs().iter().all(|&c| c < p.q));
        // A uniform sample of 1024 residues spans a wide range whp.
        let max = poly.coeffs().iter().max().unwrap();
        let min = poly.coeffs().iter().min().unwrap();
        assert!(max - min > p.q / 2);
    }

    #[test]
    fn cbd_values_bounded_by_eta() {
        let p = params();
        let mut rng = seeded_rng(2);
        for eta in [1u32, 2, 4, 8] {
            let poly = centered_binomial(&p, eta, &mut rng);
            for c in poly.to_centered() {
                assert!(
                    c.unsigned_abs() <= eta as u64,
                    "eta = {eta}, coefficient {c}"
                );
            }
        }
    }

    #[test]
    fn cbd_is_roughly_centered() {
        let p = params();
        let mut rng = seeded_rng(3);
        let poly = centered_binomial(&p, 2, &mut rng);
        let mean: f64 = poly.to_centered().iter().map(|&c| c as f64).sum::<f64>() / p.n as f64;
        assert!(mean.abs() < 0.2, "sample mean {mean}");
    }

    #[test]
    fn cbd_variance_is_eta_over_two() {
        let p = params();
        let mut rng = seeded_rng(4);
        let eta = 4u32;
        let poly = centered_binomial(&p, eta, &mut rng);
        let var: f64 = poly
            .to_centered()
            .iter()
            .map(|&c| (c * c) as f64)
            .sum::<f64>()
            / p.n as f64;
        let expect = eta as f64 / 2.0;
        assert!(
            (var - expect).abs() < expect * 0.3,
            "variance {var} vs expected {expect}"
        );
    }

    /// Reference CBD: a signed coefficient vector mapped through
    /// `from_signed_coeffs`. The sampler must equal it draw for draw.
    fn cbd_via_signed_vector(params: &ParamSet, eta: u32, rng: &mut StdRng) -> Polynomial {
        let coeffs: Vec<i64> = (0..params.n)
            .map(|_| {
                let a: u32 = rng.gen::<u32>() & ((1 << eta) - 1);
                let b: u32 = rng.gen::<u32>() & ((1 << eta) - 1);
                a.count_ones() as i64 - b.count_ones() as i64
            })
            .collect();
        Polynomial::from_signed_coeffs(&coeffs, params.q).unwrap()
    }

    #[test]
    fn fused_cbd_matches_the_signed_vector_construction() {
        let mut qs: Vec<u64> = ParamSet::paper_sweep().iter().map(|p| p.q).collect();
        qs.dedup();
        // q ≤ 16 makes |c| ≥ q reachable, so the rem_euclid fallback runs.
        qs.extend([3, 5, 17]);
        for q in qs {
            let p = ParamSet { q, ..params() };
            for eta in 1..=16 {
                let (mut fused, mut reference) = (seeded_rng(eta as u64), seeded_rng(eta as u64));
                let got = centered_binomial(&p, eta, &mut fused);
                assert_eq!(
                    got,
                    cbd_via_signed_vector(&p, eta, &mut reference),
                    "q {q} eta {eta}"
                );
                assert_eq!(
                    fused.gen::<u64>(),
                    reference.gen::<u64>(),
                    "same draws consumed"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_sample() {
        let p = params();
        let a = uniform(&p, &mut seeded_rng(9));
        let b = uniform(&p, &mut seeded_rng(9));
        let c = uniform(&p, &mut seeded_rng(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "eta out of range")]
    fn eta_zero_panics() {
        centered_binomial(&params(), 0, &mut seeded_rng(1));
    }
}
