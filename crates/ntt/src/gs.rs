//! The Gentleman–Sande in-place NTT of the paper's Algorithm 2.
//!
//! Structure (faithful to the published loop):
//!
//! * `log2 n` stages; at stage `i` the butterfly distance is `2^i`
//!   (doubling), so the transform consumes **bit-reversed** input and
//!   produces **natural-order** output.
//! * The Gentleman–Sande butterfly: `A[j] ← T + A[j']`,
//!   `A[j'] ← W · (T − A[j'])` — the twiddle multiplies *after* the
//!   subtract (decimation-in-frequency style).
//! * The twiddle for the pair starting at `j` is `twiddle[j >> (i+1)]`
//!   where the table holds the `n/2` powers of `ω` in **bit-reversed
//!   order** (Algorithm 1's precompute step stores `w^i, w^-i` reversed).
//!
//! The inverse transform is the same kernel run with the `ω^-1` table
//! followed by an `n⁻¹` scaling (callers usually fold that scaling into
//! the `φ^-i` post-multiply; [`inverse`] keeps it explicit).
//!
//! This strict kernel — canonical values in and out, every butterfly
//! reduced with [`zq`] arithmetic — is the repository's independent
//! transform oracle: it shares no lazy-reduction or twiddle-merging code
//! with [`crate::merged`], the kernels every multiply runs on.

use modmath::roots::NttTables;
use modmath::{bitrev, zq};

/// Runs the Gentleman–Sande kernel in place.
///
/// `data` must be in bit-reversed order; on return it holds the transform
/// in natural order. `twiddle` must contain the `n/2` stage twiddles in
/// bit-reversed order (`twiddle[t] = ω^{rev(t)}`), exactly the layout of
/// [`NttTables::omega_powers`].
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two of at least 2, or if
/// `twiddle.len() != data.len() / 2`.
pub fn gs_kernel_in_place(data: &mut [u64], twiddle: &[u64], q: u64) {
    let n = data.len();
    let log_n = bitrev::log2_exact(n).expect("length must be a power of two");
    assert!(n >= 2, "transform length must be at least 2");
    assert_eq!(twiddle.len(), n / 2, "twiddle table must have n/2 entries");

    for i in 0..log_n {
        let dist = 1usize << i;
        // Enumerate the lower index j of every butterfly pair: all j with
        // bit i clear. (This matches the paper's idx → (st, j, j')
        // arithmetic without the garbled bit tricks.)
        for idx in 0..n / 2 {
            let st = idx & (dist - 1);
            let j = ((idx & !(dist - 1)) << 1) | st;
            let jp = j + dist;
            let w = twiddle[j >> (i + 1)];
            let t = data[j];
            data[j] = zq::add(t, data[jp], q);
            data[jp] = zq::mul(w, zq::sub(t, data[jp], q), q);
        }
    }
}

/// Forward cyclic NTT: canonical natural-order input, canonical
/// natural-order output.
///
/// Applies the bit-reversal permutation (free in CryptoPIM — it is a row
/// write permutation), then the strict GS kernel with the forward
/// twiddles.
///
/// # Panics
///
/// Panics if `data.len() != tables.degree()`.
pub fn forward(data: &mut [u64], tables: &NttTables) {
    assert_eq!(data.len(), tables.degree(), "length mismatch");
    bitrev::permute_in_place(data);
    gs_kernel_in_place(data, tables.omega_powers(), tables.modulus());
}

/// Inverse cyclic NTT: canonical natural-order input, canonical
/// natural-order output, including the `n⁻¹` scaling.
///
/// # Panics
///
/// Panics if `data.len() != tables.degree()`.
pub fn inverse(data: &mut [u64], tables: &NttTables) {
    assert_eq!(data.len(), tables.degree(), "length mismatch");
    let q = tables.modulus();
    bitrev::permute_in_place(data);
    gs_kernel_in_place(data, tables.omega_inv_powers(), q);
    for c in data.iter_mut() {
        *c = zq::mul(*c, tables.n_inv(), q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;
    use modmath::params::ParamSet;
    use proptest::prelude::*;

    fn tables(n: usize) -> NttTables {
        let p = ParamSet::for_degree(n).unwrap();
        NttTables::new(&p).unwrap()
    }

    fn tables_nq(n: usize, q: u64) -> NttTables {
        NttTables::for_degree_modulus(n, q).unwrap()
    }

    #[test]
    fn forward_matches_dft_oracle_small() {
        for n in [2usize, 4, 8, 16, 32, 64] {
            let t = tables_nq(n, 7681);
            let a: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 7) % 7681).collect();
            let mut fast = a.clone();
            forward(&mut fast, &t);
            let oracle = dft::dft(&a, t.omega(), 7681);
            assert_eq!(fast, oracle, "n = {n}");
        }
    }

    #[test]
    fn forward_matches_dft_oracle_paper_sizes() {
        for n in [256usize, 512, 1024] {
            let t = tables(n);
            let q = t.modulus();
            let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 3 * i + 1) % q).collect();
            let mut fast = a.clone();
            forward(&mut fast, &t);
            let oracle = dft::dft(&a, t.omega(), q);
            assert_eq!(fast, oracle, "n = {n}");
        }
    }

    #[test]
    fn forward_matches_dft_oracle_at_extreme_moduli() {
        // The oracle must hold wherever the merged kernels run: at the
        // largest NTT-friendly q below 2^30 (the u32-lane limit) and up
        // to 2^62 (the u64-lane limit).
        let n = 64usize;
        let step = 2 * n as u64;
        for limit in [1u64 << 30, 1 << 62] {
            let mut q = limit - 1 - (limit - 2) % step;
            while !modmath::primes::is_prime(q) {
                q -= step;
            }
            let t = tables_nq(n, q);
            let a: Vec<u64> = (0..n as u64)
                .map(|i| if i % 3 == 0 { q - 1 } else { (i * 7919) % q })
                .collect();
            let mut fast = a.clone();
            forward(&mut fast, &t);
            assert_eq!(fast, dft::dft(&a, t.omega(), q), "q = {q}");
            inverse(&mut fast, &t);
            assert_eq!(fast, a, "roundtrip, q = {q}");
        }
    }

    #[test]
    fn inverse_undoes_forward() {
        for n in [4usize, 64, 256, 1024, 4096] {
            let t = tables(n);
            let q = t.modulus();
            let a: Vec<u64> = (0..n as u64).map(|i| (i * 997 + 12) % q).collect();
            let mut data = a.clone();
            forward(&mut data, &t);
            inverse(&mut data, &t);
            assert_eq!(data, a, "n = {n}");
        }
    }

    #[test]
    fn forward_of_delta_is_constant() {
        let t = tables(256);
        let mut a = vec![0u64; 256];
        a[0] = 1;
        forward(&mut a, &t);
        assert!(a.iter().all(|&c| c == 1));
    }

    #[test]
    fn kernel_rejects_bad_twiddle_len() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0u64; 8];
            gs_kernel_in_place(&mut data, &[1, 2], 17);
        });
        assert!(result.is_err());
    }

    #[test]
    fn convolution_theorem_cyclic() {
        // NTT(a) ⊙ NTT(b) = NTT(a ⊛ b) for the *cyclic* convolution.
        let n = 64;
        let t = tables_nq(n, 7681);
        let q = t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i + 1) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (3 * i + 2) % q).collect();
        // Cyclic convolution by definition.
        let mut conv = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let k = (i + j) % n;
                conv[k] = zq::add(conv[k], zq::mul(ai, bj, q), q);
            }
        }
        let mut fa = a.clone();
        let mut fb = b.clone();
        forward(&mut fa, &t);
        forward(&mut fb, &t);
        let mut prod: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| zq::mul(x, y, q))
            .collect();
        inverse(&mut prod, &t);
        assert_eq!(prod, conv);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_roundtrip_random(coeffs in proptest::collection::vec(0u64..12289, 512)) {
            let t = tables(512);
            let mut data = coeffs.clone();
            forward(&mut data, &t);
            inverse(&mut data, &t);
            prop_assert_eq!(data, coeffs);
        }

        #[test]
        fn prop_linearity(
            a in proptest::collection::vec(0u64..7681, 256),
            b in proptest::collection::vec(0u64..7681, 256),
        ) {
            let t = tables(256);
            let q = t.modulus();
            let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| zq::add(x, y, q)).collect();
            let mut fa = a.clone();
            let mut fb = b.clone();
            let mut fsum = sum.clone();
            forward(&mut fa, &t);
            forward(&mut fb, &t);
            forward(&mut fsum, &t);
            for k in 0..256 {
                prop_assert_eq!(fsum[k], zq::add(fa[k], fb[k], q));
            }
        }
    }
}
