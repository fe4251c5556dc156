//! Shoup precomputed-quotient multiplication and the lazy-reduction
//! helpers built on it.
//!
//! For a *fixed* multiplicand `w < q` (a twiddle factor, a `φ` power, a
//! cached spectrum value), precompute once
//!
//! ```text
//! w' = ⌊w · 2^64 / q⌋
//! ```
//!
//! and every subsequent product `w · t mod q` costs two 64×64→high/low
//! multiplies and one subtraction — no `u128` division, no `%`:
//!
//! ```text
//! h = ⌊w'·t / 2^64⌋          (the high word of w'·t)
//! r = w·t − h·q   (mod 2^64)
//! ```
//!
//! # Bounds argument
//!
//! Writing `w·2^64 = w'·q + r₀` with `0 ≤ r₀ < q`:
//!
//! * `h ≤ w'·t/2^64 ≤ w·t/q`, so `r = w·t − h·q ≥ 0`.
//! * `h > w'·t/2^64 − 1`, so
//!   `r < q + r₀·t/2^64 < q + q·t/2^64 ≤ 2q` for any `t < 2^64`.
//!
//! Hence [`mul_lazy`] returns a value in `[0, 2q)` for **any** `u64`
//! argument `t` — canonical inputs are *not* required — provided
//! `q ≤ 2^62` ([`zq::MAX_MODULUS`]) so that `2q` (and the `4q`-bounded
//! sums the lazy NTT butterflies form) fit in a `u64`. This is what lets
//! the NTT keep coefficients unnormalized in `[0, 2q)` between stages and
//! pay for a single conditional subtraction at the very end.

use crate::zq;

/// Precomputes the Shoup companion `⌊w · 2^64 / q⌋` for a fixed
/// multiplicand `w`.
///
/// # Panics
///
/// Debug-panics if `w` is not canonical or `q` exceeds
/// [`zq::MAX_MODULUS`].
#[inline]
pub fn precompute(w: u64, q: u64) -> u64 {
    debug_assert!(w < q, "multiplicand must be canonical");
    debug_assert!(q <= zq::MAX_MODULUS, "modulus too large for Shoup");
    (((w as u128) << 64) / q as u128) as u64
}

/// Precomputes Shoup companions for a whole table of canonical values.
pub fn precompute_table(ws: &[u64], q: u64) -> Vec<u64> {
    ws.iter().map(|&w| precompute(w, q)).collect()
}

/// Lazy Shoup product: `w · t mod q`, returned in `[0, 2q)`.
///
/// `w` must be canonical with companion `w_shoup`; `t` may be **any**
/// `u64` (see the module-level bounds argument).
#[inline]
pub fn mul_lazy(t: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let h = ((w_shoup as u128 * t as u128) >> 64) as u64;
    w.wrapping_mul(t).wrapping_sub(h.wrapping_mul(q))
}

/// Largest modulus (exclusive) for which the half-width Shoup path
/// ([`mul_lazy_half`]) is valid: `q < 2^30` keeps every intermediate of
/// the 32×32→64 schedule in range (see [`mul_lazy_half`]'s bounds
/// argument). All three paper moduli are far below this.
pub const HALF_MODULUS_LIMIT: u64 = 1 << 30;

/// Precomputes the *half-width* Shoup companion `⌊w · 2^32 / q⌋`.
///
/// Identity worth knowing: this is exactly [`precompute`]`(w, q) >> 32`
/// (floor division composes), so kernels that already carry the 64-bit
/// companion table can derive the half-width companion with one shift
/// instead of a second table.
///
/// # Panics
///
/// Debug-panics if `w` is not canonical or `q >=`
/// [`HALF_MODULUS_LIMIT`].
#[inline]
pub fn precompute_half(w: u64, q: u64) -> u64 {
    debug_assert!(w < q, "multiplicand must be canonical");
    debug_assert!(
        q < HALF_MODULUS_LIMIT,
        "modulus too large for half-width Shoup"
    );
    (w << 32) / q
}

/// Half-width lazy Shoup product: `w · t mod q` in `[0, 2q)`, using only
/// 32×32→64 multiplies.
///
/// Requires `t < 2^32`, canonical `w`, and `q <` [`HALF_MODULUS_LIMIT`].
/// With `w' = ⌊w·2^32/q⌋` the same floor argument as [`mul_lazy`] gives
/// `r = w·t − ⌊w'·t/2^32⌋·q ∈ [0, q + q·t/2^32) ⊂ [0, 2q)`. Every
/// intermediate fits a `u64`: `w'·t < 2^62`, `w·t < 2^62`, `h·q < 2^60`.
/// The three multiplies have both operands below `2^32`, which is what
/// lets the autovectorizer lower them to packed 32×32→64 multiplies
/// (`pmuludq`) instead of full 64-bit products.
#[inline]
pub fn mul_lazy_half(t: u64, w: u64, w_shoup_half: u64, q: u64) -> u64 {
    debug_assert!(t < 1 << 32, "half-width Shoup requires t < 2^32");
    debug_assert!(w < q && q < HALF_MODULUS_LIMIT);
    // The explicit u32 round-trips are lossless under the documented
    // bounds; they are what lets LLVM prove each product is a
    // 32×32→64 widening multiply (the `pmuludq` pattern) instead of a
    // full 64×64 multiply, which SSE2/AVX2 cannot vectorize.
    let h = (widen32(w_shoup_half) * widen32(t)) >> 32;
    (widen32(w) * widen32(t)).wrapping_sub(widen32(h) * widen32(q))
}

/// Lossless `u64 → u32 → u64` round-trip for values known `< 2^32`,
/// making the 32-bit range visible to the optimizer.
#[inline(always)]
fn widen32(x: u64) -> u64 {
    debug_assert!(x < 1 << 32);
    x as u32 as u64
}

/// Branch-free conditional subtraction: maps `[0, 4q) → [0, 2q)` via a
/// mask instead of a branch, keeping butterfly loops free of
/// unpredictable control flow so they stay autovectorizable.
#[inline]
pub fn lazy_sub_2q(a: u64, two_q: u64) -> u64 {
    debug_assert!(a < 2 * two_q, "input must be in [0, 4q)");
    let mask = ((a >= two_q) as u64).wrapping_neg();
    a - (two_q & mask)
}

/// Reduces a value known to lie in `[0, 2q)` to canonical `[0, q)`.
#[inline]
pub fn reduce_2q(a: u64, q: u64) -> u64 {
    debug_assert!(a < 2 * q, "input must be in [0, 2q)");
    if a >= q {
        a - q
    } else {
        a
    }
}

/// Normalizes a slice of `[0, 2q)` values to canonical form in place.
#[inline]
pub fn normalize_slice(data: &mut [u64], q: u64) {
    for c in data.iter_mut() {
        *c = reduce_2q(*c, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_MODULI: [u64; 3] = [7681, 12289, 786433];

    #[test]
    fn matches_plain_mul_canonical_inputs() {
        for q in PAPER_MODULI {
            for w in (0..q).step_by((q / 97) as usize + 1) {
                let ws = precompute(w, q);
                for t in (0..q).step_by((q / 89) as usize + 1) {
                    assert_eq!(
                        reduce_2q(mul_lazy(t, w, ws, q), q),
                        zq::mul(w, t, q),
                        "q={q} w={w} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn lazy_result_below_2q_for_extreme_t() {
        for q in PAPER_MODULI {
            let w = q - 1;
            let ws = precompute(w, q);
            for t in [0u64, 1, q - 1, q, 2 * q - 1, u64::MAX] {
                let r = mul_lazy(t, w, ws, q);
                assert!(r < 2 * q, "q={q} t={t} r={r}");
                assert_eq!(r % q, ((w as u128 * t as u128) % q as u128) as u64);
            }
        }
    }

    #[test]
    fn large_modulus_near_limit() {
        // A prime just under 2^62 exercises the headroom analysis.
        let q = (1u64 << 62) - 57;
        assert!(crate::primes::is_prime(q));
        let w = q - 2;
        let ws = precompute(w, q);
        for t in [1u64, q - 1, 2 * q - 1, u64::MAX] {
            let r = mul_lazy(t, w, ws, q);
            assert!(r < 2 * q);
            assert_eq!(r % q, ((w as u128 * t as u128) % q as u128) as u64);
        }
    }

    #[test]
    fn table_precompute_matches_scalar() {
        let q = 12289;
        let ws: Vec<u64> = (0..64).map(|i| (i * 191) % q).collect();
        let duals = precompute_table(&ws, q);
        for (i, &w) in ws.iter().enumerate() {
            assert_eq!(duals[i], precompute(w, q));
        }
    }

    #[test]
    fn half_width_companion_is_shifted_full_companion() {
        for q in PAPER_MODULI {
            for w in (0..q).step_by((q / 61) as usize + 1) {
                assert_eq!(precompute_half(w, q), precompute(w, q) >> 32, "q={q} w={w}");
            }
        }
    }

    #[test]
    fn half_width_lazy_matches_residue_and_bound() {
        for q in PAPER_MODULI {
            let w = q - 1;
            let ws = precompute_half(w, q);
            for t in [0u64, 1, q - 1, q, 2 * q - 1, (1 << 32) - 1] {
                let r = mul_lazy_half(t, w, ws, q);
                assert!(r < 2 * q, "q={q} t={t} r={r}");
                assert_eq!(r % q, ((w as u128 * t as u128) % q as u128) as u64);
            }
        }
    }

    #[test]
    fn half_width_worst_case_modulus() {
        // Largest prime below the half-width limit stresses the
        // intermediate bounds (w·t and w'·t both approach 2^62).
        let q = (1u64 << 30) - 35;
        assert!(crate::primes::is_prime(q));
        let w = q - 1;
        let ws = precompute_half(w, q);
        for t in [1u64, q - 1, 2 * q - 1, (1 << 32) - 1] {
            let r = mul_lazy_half(t, w, ws, q);
            assert!(r < 2 * q);
            assert_eq!(r % q, ((w as u128 * t as u128) % q as u128) as u64);
        }
    }

    #[test]
    fn lazy_sub_2q_matches_branchy() {
        let q = 786433u64;
        for a in [0, q - 1, q, 2 * q - 1, 2 * q, 3 * q, 4 * q - 1] {
            let expect = if a >= 2 * q { a - 2 * q } else { a };
            assert_eq!(lazy_sub_2q(a, 2 * q), expect, "a={a}");
        }
    }

    #[test]
    fn normalize_slice_canonicalizes() {
        let q = 7681;
        let mut data = vec![0, q - 1, q, q + 5, 2 * q - 1];
        normalize_slice(&mut data, q);
        assert_eq!(data, vec![0, q - 1, 0, 5, q - 1]);
    }
}
