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
//! # Lazy reduction
//!
//! The hot path is [`gs_kernel_lazy_in_place`]: coefficients stay in
//! `[0, 2q)` between stages, the butterfly sum pays one conditional
//! subtraction of `2q`, the difference path computes `a − b + 2q ∈
//! (0, 4q)` and feeds it straight into a Shoup multiply (valid for any
//! `u64` input, result back in `[0, 2q)`; see [`modmath::shoup`]). A
//! single normalization pass at the end of the transform restores
//! canonical form. [`gs_kernel_in_place`] remains the strict
//! canonical-in/canonical-out kernel for cross-checks.
//!
//! # Kernel shape
//!
//! The lazy kernel is written for the autovectorizer, not the paper's
//! index arithmetic:
//!
//! * **Branch-free butterflies.** The conditional subtraction is a mask
//!   ([`shoup::lazy_sub_2q`]), so the inner loops contain no
//!   data-dependent branches and no `%`.
//! * **Radix-4 (merged two-stage) passes.** Stages `i` and `i+1` are
//!   fused: each `4·2^i`-element chunk loads its three twiddles once and
//!   runs four butterflies per iteration, halving twiddle-table walks
//!   and loop overhead. When `log2 n` is odd the leftover radix-2 stage
//!   runs last (distance `n/2`, a single chunk — the most vectorizable
//!   stage). The per-element operation sequence is unchanged, so lazy
//!   values stay bit-identical to the classic stage-by-stage schedule.
//! * **Half-width multiplies for small moduli.** For
//!   `q < `[`shoup::HALF_MODULUS_LIMIT`] (every paper modulus) the
//!   butterfly uses [`shoup::mul_lazy_half`]: three 32×32→64 multiplies
//!   that SSE2/AVX2 can lower to packed `pmuludq`, instead of two
//!   128-bit-producing multiplies. The half-width companion is the high
//!   word of the regular Shoup table, so no extra tables are carried.
//!   Intermediate *representatives* may differ from the wide path, but
//!   every value stays in `[0, 2q)` and residues are identical, so all
//!   canonical (normalized) outputs are bit-identical.

use modmath::roots::NttTables;
use modmath::{bitrev, shoup, zq};

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

/// Runs the Gentleman–Sande kernel in place with lazy reduction.
///
/// Same butterfly schedule as [`gs_kernel_in_place`], but coefficients
/// are only kept in `[0, 2q)`: the sum path conditionally subtracts
/// `2q`, the difference path forms `a − b + 2q ∈ (0, 4q)` and reduces it
/// through the Shoup multiply. Inputs must be below `2q` (canonical
/// values qualify); outputs are below `2q` and callers normalize once at
/// the end (e.g. via [`modmath::shoup::normalize_slice`]).
///
/// `twiddle_shoup` must hold the Shoup companions of `twiddle`, exactly
/// the layout of [`NttTables::omega_powers_shoup`].
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two of at least 2, or if the
/// twiddle tables do not have `data.len() / 2` entries each.
pub fn gs_kernel_lazy_in_place(data: &mut [u64], twiddle: &[u64], twiddle_shoup: &[u64], q: u64) {
    let n = data.len();
    let log_n = bitrev::log2_exact(n).expect("length must be a power of two");
    assert!(n >= 2, "transform length must be at least 2");
    assert_eq!(twiddle.len(), n / 2, "twiddle table must have n/2 entries");
    assert_eq!(
        twiddle_shoup.len(),
        n / 2,
        "Shoup table must have n/2 entries"
    );
    let two_q = q << 1;
    debug_assert!(data.iter().all(|&c| c < two_q), "inputs must be < 2q");

    if q < shoup::HALF_MODULUS_LIMIT {
        simd::run_gs_half(data, twiddle, twiddle_shoup, log_n, HalfBfly { q, two_q });
    } else {
        run_gs(data, twiddle, twiddle_shoup, log_n, WideBfly { q, two_q });
    }
}

/// Runtime-dispatched compilations of the half-width kernel.
///
/// The half-width butterfly is pure 32×32→64 arithmetic, which the loop
/// vectorizer only lowers to packed multiplies (`vpmuludq`) when wide
/// enough registers make it profitable. `#[target_feature]` recompiles
/// the *same* generic passes with the AVX-512/AVX2 cost models; the
/// arithmetic is identical, so results are bit-identical across paths
/// and the portable scalar build remains the fallback (and the only
/// path off x86-64).
mod simd {
    #[allow(unused_imports)]
    use super::{run_gs, HalfBfly};

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn run_gs_half_avx512(
        data: &mut [u64],
        twiddle: &[u64],
        twiddle_shoup: &[u64],
        log_n: u32,
        bf: HalfBfly,
    ) {
        run_gs(data, twiddle, twiddle_shoup, log_n, bf);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_gs_half_avx2(
        data: &mut [u64],
        twiddle: &[u64],
        twiddle_shoup: &[u64],
        log_n: u32,
        bf: HalfBfly,
    ) {
        run_gs(data, twiddle, twiddle_shoup, log_n, bf);
    }

    pub(super) fn run_gs_half(
        data: &mut [u64],
        twiddle: &[u64],
        twiddle_shoup: &[u64],
        log_n: u32,
        bf: HalfBfly,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                // SAFETY: feature presence checked at runtime just above.
                unsafe { run_gs_half_avx512(data, twiddle, twiddle_shoup, log_n, bf) };
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence checked at runtime just above.
                unsafe { run_gs_half_avx2(data, twiddle, twiddle_shoup, log_n, bf) };
                return;
            }
        }
        run_gs(data, twiddle, twiddle_shoup, log_n, bf);
    }
}

/// One lazy GS butterfly strategy. Both implementations take lazy inputs
/// `a, b < 2q` and return lazy outputs `< 2q`: the sum path is a masked
/// conditional subtraction of `2q`, the difference path a Shoup multiply
/// of `a − b + 2q ∈ (0, 4q)`.
trait Butterfly: Copy {
    fn eval(self, a: u64, b: u64, w: u64, ws: u64) -> (u64, u64);
}

/// Full-width butterfly: exactly the classic `shoup::mul_lazy` sequence,
/// valid for any `q ≤ 2^62`. Lazy values are bit-identical to the
/// pre-radix-4 kernel (the masked subtract computes the same value as
/// the old branch).
#[derive(Clone, Copy)]
struct WideBfly {
    q: u64,
    two_q: u64,
}

impl Butterfly for WideBfly {
    #[inline(always)]
    fn eval(self, a: u64, b: u64, w: u64, ws: u64) -> (u64, u64) {
        debug_assert!(a < self.two_q && b < self.two_q, "lazy inputs must be < 2q");
        let s = shoup::lazy_sub_2q(a + b, self.two_q); // a + b < 4q
        let d = shoup::mul_lazy(a + self.two_q - b, w, ws, self.q);
        (s, d)
    }
}

/// Half-width butterfly for `q < 2^30`: three 32×32→64 multiplies via
/// [`shoup::mul_lazy_half`]. `ws` is the *full* 64-bit Shoup companion;
/// its high word is the half-width companion (loop-invariant shift, the
/// compiler hoists it out of the butterfly loop).
#[derive(Clone, Copy)]
struct HalfBfly {
    q: u64,
    two_q: u64,
}

impl Butterfly for HalfBfly {
    #[inline(always)]
    fn eval(self, a: u64, b: u64, w: u64, ws: u64) -> (u64, u64) {
        debug_assert!(a < self.two_q && b < self.two_q, "lazy inputs must be < 2q");
        let s = shoup::lazy_sub_2q(a + b, self.two_q); // a + b < 4q < 2^32
        let d = shoup::mul_lazy_half(a + self.two_q - b, w, ws >> 32, self.q);
        (s, d)
    }
}

/// Full transform: radix-4 passes over stage pairs, with the leftover
/// radix-2 stage (odd `log2 n`) run last — at distance `n/2` it is a
/// single chunk with one twiddle, the most vectorizer-friendly stage.
#[inline(always)]
fn run_gs<B: Butterfly>(
    data: &mut [u64],
    twiddle: &[u64],
    twiddle_shoup: &[u64],
    log_n: u32,
    bf: B,
) {
    let mut i = 0;
    while i + 2 <= log_n {
        radix4_pass(data, twiddle, twiddle_shoup, i, bf);
        i += 2;
    }
    if i < log_n {
        radix2_pass(data, twiddle, twiddle_shoup, i, bf);
    }
}

/// Merged stages `i` and `i+1` over chunks of `4·2^i` coefficients.
///
/// Chunk `c` covers the stage-`i` blocks `2c` and `2c+1` (twiddles
/// `twiddle[2c]`, `twiddle[2c+1]`) and the stage-`i+1` block `c`
/// (twiddle `twiddle[c]`) — the bit-reversed table layout makes all
/// three reads sequential-ish. Four butterflies per iteration, three
/// twiddle loads per chunk instead of per stage walk.
#[inline(always)]
fn radix4_pass<B: Butterfly>(
    data: &mut [u64],
    twiddle: &[u64],
    twiddle_shoup: &[u64],
    stage: u32,
    bf: B,
) {
    let d = 1usize << stage;
    for (c, chunk) in data.chunks_exact_mut(4 * d).enumerate() {
        let (w0, ws0) = (twiddle[2 * c], twiddle_shoup[2 * c]);
        let (w1, ws1) = (twiddle[2 * c + 1], twiddle_shoup[2 * c + 1]);
        let (w2, ws2) = (twiddle[c], twiddle_shoup[c]);
        let (lo, hi) = chunk.split_at_mut(2 * d);
        let (q0, q1) = lo.split_at_mut(d);
        let (q2, q3) = hi.split_at_mut(d);
        for (((x0, x1), x2), x3) in q0
            .iter_mut()
            .zip(q1.iter_mut())
            .zip(q2.iter_mut())
            .zip(q3.iter_mut())
        {
            // Stage i: pairs (q0, q1) and (q2, q3).
            let (a0, a1) = bf.eval(*x0, *x1, w0, ws0);
            let (b0, b1) = bf.eval(*x2, *x3, w1, ws1);
            // Stage i+1 (distance 2d): pairs (q0, q2) and (q1, q3).
            let (y0, y2) = bf.eval(a0, b0, w2, ws2);
            let (y1, y3) = bf.eval(a1, b1, w2, ws2);
            *x0 = y0;
            *x1 = y1;
            *x2 = y2;
            *x3 = y3;
        }
    }
}

/// One classic radix-2 stage, chunked and branch-free.
#[inline(always)]
fn radix2_pass<B: Butterfly>(
    data: &mut [u64],
    twiddle: &[u64],
    twiddle_shoup: &[u64],
    stage: u32,
    bf: B,
) {
    let d = 1usize << stage;
    for (chunk, (&w, &ws)) in data
        .chunks_exact_mut(2 * d)
        .zip(twiddle.iter().zip(twiddle_shoup))
    {
        let (lo, hi) = chunk.split_at_mut(d);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (s, t) = bf.eval(*a, *b, w, ws);
            *a = s;
            *b = t;
        }
    }
}

/// Forward cyclic NTT: natural-order input, natural-order output.
///
/// Applies the bit-reversal permutation (free in CryptoPIM — it is a row
/// write permutation), then the lazy GS kernel with the forward
/// twiddles, then one normalization pass.
///
/// # Panics
///
/// Panics if `data.len() != tables.degree()`.
pub fn forward(data: &mut [u64], tables: &NttTables) {
    assert_eq!(data.len(), tables.degree(), "length mismatch");
    let q = tables.modulus();
    bitrev::permute_in_place(data);
    gs_kernel_lazy_in_place(data, tables.omega_powers(), tables.omega_powers_shoup(), q);
    shoup::normalize_slice(data, q);
}

/// Inverse cyclic NTT: natural-order input, natural-order output,
/// including the `n⁻¹` scaling (applied as a Shoup multiply fused with
/// the final normalization).
///
/// # Panics
///
/// Panics if `data.len() != tables.degree()`.
pub fn inverse(data: &mut [u64], tables: &NttTables) {
    assert_eq!(data.len(), tables.degree(), "length mismatch");
    let q = tables.modulus();
    bitrev::permute_in_place(data);
    gs_kernel_lazy_in_place(
        data,
        tables.omega_inv_powers(),
        tables.omega_inv_powers_shoup(),
        q,
    );
    let (n_inv, n_inv_shoup) = (tables.n_inv(), tables.n_inv_shoup());
    for c in data.iter_mut() {
        *c = shoup::mul(*c, n_inv, n_inv_shoup, q);
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
    fn lazy_kernel_matches_strict_kernel() {
        for (n, q) in [(8usize, 7681u64), (64, 12289), (256, 786433)] {
            let t = tables_nq(n, q);
            let data: Vec<u64> = (0..n as u64).map(|i| (i * 7919 + 13) % q).collect();

            let mut strict = data.clone();
            gs_kernel_in_place(&mut strict, t.omega_powers(), q);

            let mut lazy = data.clone();
            gs_kernel_lazy_in_place(&mut lazy, t.omega_powers(), t.omega_powers_shoup(), q);
            assert!(lazy.iter().all(|&c| c < 2 * q), "lazy outputs below 2q");
            modmath::shoup::normalize_slice(&mut lazy, q);

            assert_eq!(lazy, strict, "n = {n}, q = {q}");
        }
    }

    #[test]
    fn lazy_kernel_accepts_noncanonical_inputs() {
        // Values in [q, 2q) must transform to the same residues as their
        // canonical counterparts.
        let n = 64;
        let q = 12289;
        let t = tables_nq(n, q);
        let canonical: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % q).collect();
        let shifted: Vec<u64> = canonical.iter().map(|&c| c + q).collect();

        let mut a = canonical.clone();
        gs_kernel_lazy_in_place(&mut a, t.omega_powers(), t.omega_powers_shoup(), q);
        modmath::shoup::normalize_slice(&mut a, q);

        let mut b = shifted;
        gs_kernel_lazy_in_place(&mut b, t.omega_powers(), t.omega_powers_shoup(), q);
        modmath::shoup::normalize_slice(&mut b, q);

        assert_eq!(a, b);
    }

    /// Largest prime `q ≡ 1 (mod 2n)` at or below `limit`.
    fn ntt_prime_below(limit: u64, two_n: u64) -> u64 {
        let mut q = limit - ((limit - 1) % two_n);
        while !modmath::primes::is_prime(q) {
            q -= two_n;
        }
        q
    }

    #[test]
    fn lazy_kernel_worst_case_half_width_modulus() {
        // The largest NTT-friendly prime below the half-width limit:
        // butterfly sums approach 4q < 2^32 and the 32×32→64 multiply
        // operands approach their bounds. Inputs at the lazy maximum
        // 2q − 1 stress the [0, 4q) intermediate range.
        let n = 64usize;
        let q = ntt_prime_below(shoup::HALF_MODULUS_LIMIT - 1, 2 * n as u64);
        assert!(q < shoup::HALF_MODULUS_LIMIT);
        let t = tables_nq(n, q);
        let data: Vec<u64> = (0..n as u64)
            .map(|i| {
                if i % 3 == 0 {
                    2 * q - 1
                } else {
                    (i * 7919) % (2 * q)
                }
            })
            .collect();

        let mut lazy = data.clone();
        gs_kernel_lazy_in_place(&mut lazy, t.omega_powers(), t.omega_powers_shoup(), q);
        assert!(lazy.iter().all(|&c| c < 2 * q), "outputs stay below 2q");
        modmath::shoup::normalize_slice(&mut lazy, q);

        let mut strict: Vec<u64> = data.iter().map(|&c| c % q).collect();
        gs_kernel_in_place(&mut strict, t.omega_powers(), q);
        assert_eq!(lazy, strict);
    }

    #[test]
    fn lazy_kernel_worst_case_wide_modulus() {
        // A prime near 2^62 forces the full-width butterfly path and the
        // extreme end of the u64 headroom analysis (sums just below 4q).
        let n = 64usize;
        let q = ntt_prime_below(1 << 62, 2 * n as u64);
        assert!(q >= shoup::HALF_MODULUS_LIMIT);
        let t = tables_nq(n, q);
        let data: Vec<u64> = (0..n as u64)
            .map(|i| {
                if i % 3 == 0 {
                    2 * q - 1
                } else {
                    (i * 7919) % (2 * q)
                }
            })
            .collect();

        let mut lazy = data.clone();
        gs_kernel_lazy_in_place(&mut lazy, t.omega_powers(), t.omega_powers_shoup(), q);
        assert!(lazy.iter().all(|&c| c < 2 * q), "outputs stay below 2q");
        modmath::shoup::normalize_slice(&mut lazy, q);

        let mut strict: Vec<u64> = data.iter().map(|&c| c % q).collect();
        gs_kernel_in_place(&mut strict, t.omega_powers(), q);
        assert_eq!(lazy, strict);
    }

    #[test]
    fn lazy_kernel_all_small_sizes_match_strict() {
        // Covers every radix-4/radix-2 pass combination: even and odd
        // log2 n, including the degenerate n = 2 (pure radix-2).
        for n in [2usize, 4, 8, 16, 32, 64, 128] {
            let t = tables_nq(n, 7681);
            let q = 7681u64;
            let data: Vec<u64> = (0..n as u64).map(|i| (i * 131 + 7) % q).collect();

            let mut strict = data.clone();
            gs_kernel_in_place(&mut strict, t.omega_powers(), q);

            let mut lazy = data.clone();
            gs_kernel_lazy_in_place(&mut lazy, t.omega_powers(), t.omega_powers_shoup(), q);
            modmath::shoup::normalize_slice(&mut lazy, q);
            assert_eq!(lazy, strict, "n = {n}");
        }
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
