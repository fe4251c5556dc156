//! Merged-twiddle negacyclic transforms — the host-side hot path.
//!
//! The classic Algorithm-1 pipeline spends two full passes per operand
//! on the `φ ⊙ a` pre-scaling (plus a bit-reversal permutation) and one
//! on the `φ̄` post-scaling. The merged formulation (Longa–Naehrig
//! style) folds the `φ` powers *into the butterfly twiddles*:
//!
//! * **Forward**: Cooley–Tukey butterflies over the merged forward
//!   table ([`NttTables::merged_twiddles`], `ψ^{rev(i)}`), natural-order
//!   input, **bit-reversed** lazy output. No pre-scaling pass, no
//!   permutation.
//! * **Inverse**: Gentleman–Sande butterflies over the merged inverse
//!   table (`ψ^{-rev(i)}`), bit-reversed lazy input,
//!   natural-order **canonical** output; only the `n⁻¹` factor survives
//!   as a final fused scale-and-normalize pass.
//!
//! Pointwise products commute with any fixed permutation, so a
//! multiply that keeps *both* spectra in the same bit-reversed domain
//! produces exactly the canonical product of the natural-order pipeline
//! — bit-identical, since canonical representatives are unique.
//!
//! The kernels are branch-free lazy `[0, 2q)` butterflies in radix-4
//! (merged two-stage) passes, stage-outer across a batch so one
//! twiddle-table walk serves every polynomial, and are compiled three
//! times (AVX-512, AVX2, portable) behind runtime feature detection so
//! the autovectorizer can use wide registers without a portability
//! cost.
//!
//! # Lanes
//!
//! For `q < 2^30` ([`shoup::HALF_MODULUS_LIMIT`], every paper modulus)
//! the kernels run on **`u32` lanes**: the caller's `u64` buffer is
//! packed in place into `u32`s at the front of its own bytes, transformed,
//! and widened back — no scratch, no allocation. Twiddles come from the
//! `u32` tables [`NttTables`] builds once for such moduli
//! ([`MergedTwiddles::Half`]). Larger moduli up to `2^62` run the same
//! generic passes on `u64` lanes with the 128-bit Shoup multiply
//! ([`MergedTwiddles::Wide`]).
//!
//! # Lazy bounds
//!
//! Butterfly inputs are `< 2q`. The CT butterfly computes
//! `v = w·b mod⁻ 2q` then `a + v < 4q` and `a + 2q − v < 4q`, both
//! folded back to `< 2q`; the GS butterfly sums to `< 4q` (folded) and
//! feeds `a + 2q − b < 4q` into a Shoup multiply. No intermediate ever
//! reaches `4q`, so for `q < 2^30` every lane value fits a `u32`
//! (`4q < 2^32`). The half-width Shoup multiply takes the high word of
//! one 32×32→64 product, `h = ⌊w'·t/2^32⌋` with `w' = ⌊w·2^32/q⌋`, and
//! forms `r = w·t − h·q` in wrapping `u32` arithmetic: the exact `r` lies
//! in `[0, 2q) ⊂ [0, 2^32)` (see [`shoup::mul_lazy_half`]), so its value
//! mod `2^32` *is* `r`, bit for bit what the 64-bit evaluation gives.
//!
//! # Short-stride passes
//!
//! A radix-4 pass over chunks of `4d` coefficients zips four contiguous
//! `d`-long streams, which widens into full vectors only while
//! `d ≥ 16`. Every forward transform ends with a `d = 4` and a `d = 1`
//! pass (the inverse starts with their mirrors, `t = 1` then `t = 4`),
//! so those get loops of their own: the `d = 1` pass walks quartets
//! with the twiddles as a contiguous and a stride-2 stream (the shape
//! LLVM's interleaved-access vectorizer widens), and the `d = 4` pass
//! gathers four 16-coefficient chunks into four 16-lane arrays (a 4×4
//! transpose of 4-lane blocks), runs the butterflies lane-wise, and
//! stores the blocks back. The butterfly sequence per coefficient is
//! unchanged, so outputs are bit-identical to a plain stage-by-stage
//! schedule.

use core::array::from_fn;
use core::ops::{Add, Sub};
use modmath::roots::{MergedTwiddles, NttTables, Twiddles};
use modmath::{barrett, shoup};

/// One lane type and its lazy modular arithmetic (`w` fixed with its
/// Shoup companion).
trait LazyMul: Copy {
    /// Lane word: `u32` on the half-width path, `u64` on the wide one.
    type W: Copy + Default + PartialOrd + Add<Output = Self::W> + Sub<Output = Self::W>;
    fn two_q(self) -> Self::W;
    /// `w · t mod q` in `[0, 2q)` for `t < 4q`.
    fn mul(self, t: Self::W, w: Self::W, ws: Self::W) -> Self::W;
    /// `[0, 4q) → [0, 2q)`, branch-free.
    fn fold(self, a: Self::W) -> Self::W;
    /// `[0, 2q) → [0, q)`, branch-free.
    fn canon(self, a: Self::W) -> Self::W;
}

/// `u64` lanes with the full-width (`u128`-producing) Shoup multiply,
/// any `q ≤ 2^62`.
#[derive(Clone, Copy)]
struct WideMul {
    q: u64,
    two_q: u64,
}

impl LazyMul for WideMul {
    type W = u64;
    #[inline(always)]
    fn two_q(self) -> u64 {
        self.two_q
    }
    #[inline(always)]
    fn mul(self, t: u64, w: u64, ws: u64) -> u64 {
        shoup::mul_lazy(t, w, ws, self.q)
    }
    #[inline(always)]
    fn fold(self, a: u64) -> u64 {
        shoup::lazy_sub_2q(a, self.two_q)
    }
    #[inline(always)]
    fn canon(self, a: u64) -> u64 {
        let mask = ((a >= self.q) as u64).wrapping_neg();
        a - (self.q & mask)
    }
}

/// `u32` lanes with the half-width Shoup multiply, `q < 2^30`; `ws` is
/// the companion `⌊w·2^32/q⌋`.
#[derive(Clone, Copy)]
struct HalfMul {
    q: u32,
    two_q: u32,
}

impl LazyMul for HalfMul {
    type W = u32;
    #[inline(always)]
    fn two_q(self) -> u32 {
        self.two_q
    }
    #[inline(always)]
    fn mul(self, t: u32, w: u32, ws: u32) -> u32 {
        let h = ((u64::from(ws) * u64::from(t)) >> 32) as u32;
        w.wrapping_mul(t).wrapping_sub(h.wrapping_mul(self.q))
    }
    #[inline(always)]
    fn fold(self, a: u32) -> u32 {
        // `a − 2q` wraps above `a` exactly when `a < 2q`.
        a.min(a.wrapping_sub(self.two_q))
    }
    #[inline(always)]
    fn canon(self, a: u32) -> u32 {
        a.min(a.wrapping_sub(self.q))
    }
}

/// CT butterfly on lazy values: `(a + w·b, a − w·b)`, both `< 2q`.
#[inline(always)]
fn ct_bfly<M: LazyMul>(a: M::W, b: M::W, w: M::W, ws: M::W, m: M) -> (M::W, M::W) {
    debug_assert!(a < m.two_q() && b < m.two_q(), "lazy inputs must be < 2q");
    let v = m.mul(b, w, ws);
    (m.fold(a + v), m.fold(a + m.two_q() - v))
}

/// GS butterfly on lazy values: `(a + b, w·(a − b))`, both `< 2q`.
#[inline(always)]
fn gs_bfly<M: LazyMul>(a: M::W, b: M::W, w: M::W, ws: M::W, m: M) -> (M::W, M::W) {
    debug_assert!(a < m.two_q() && b < m.two_q(), "lazy inputs must be < 2q");
    (m.fold(a + b), m.mul(a + m.two_q() - b, w, ws))
}

/// One direction's transform of an `n`-point polynomial batch.
struct Plan<'a, M: LazyMul> {
    n: usize,
    log_n: u32,
    tw: &'a [M::W],
    tws: &'a [M::W],
    n_inv: M::W,
    n_inv_shoup: M::W,
    mul: M,
}

impl<'a, M: LazyMul> Plan<'a, M> {
    fn new(t: &NttTables, tw: &'a Twiddles<M::W>, n_inv: M::W, n_inv_shoup: M::W, mul: M) -> Self {
        Plan {
            n: t.degree(),
            log_n: t.degree().trailing_zeros(),
            tw: &tw.w,
            tws: &tw.shoup,
            n_inv,
            n_inv_shoup,
            mul,
        }
    }
}

/// Merged forward stages `m` and `2m` in one radix-4 pass.
///
/// Chunk `c` (one stage-`m` block of `4d` coefficients, `d = n/(4m)`)
/// uses `tw[m + c]` for the distance-`2d` butterflies and
/// `tw[2m + 2c]`, `tw[2m + 2c + 1]` for the distance-`d` butterflies of
/// its two half-blocks.
#[inline(always)]
fn fwd_radix4<M: LazyMul>(data: &mut [M::W], tw: &[M::W], tws: &[M::W], m_blocks: usize, mul: M) {
    let n = data.len();
    let d = n / (4 * m_blocks);
    for (c, chunk) in data.chunks_exact_mut(4 * d).enumerate() {
        let (w0, ws0) = (tw[m_blocks + c], tws[m_blocks + c]);
        let (w1, ws1) = (tw[2 * m_blocks + 2 * c], tws[2 * m_blocks + 2 * c]);
        let (w2, ws2) = (tw[2 * m_blocks + 2 * c + 1], tws[2 * m_blocks + 2 * c + 1]);
        let (lo, hi) = chunk.split_at_mut(2 * d);
        let (q0, q1) = lo.split_at_mut(d);
        let (q2, q3) = hi.split_at_mut(d);
        for (((x0, x1), x2), x3) in q0
            .iter_mut()
            .zip(q1.iter_mut())
            .zip(q2.iter_mut())
            .zip(q3.iter_mut())
        {
            // Stage m (distance 2d): pairs (q0, q2) and (q1, q3).
            let (a0, a2) = ct_bfly(*x0, *x2, w0, ws0, mul);
            let (a1, a3) = ct_bfly(*x1, *x3, w0, ws0, mul);
            // Stage 2m (distance d): pairs (q0, q1) and (q2, q3).
            let (y0, y1) = ct_bfly(a0, a1, w1, ws1, mul);
            let (y2, y3) = ct_bfly(a2, a3, w2, ws2, mul);
            *x0 = y0;
            *x1 = y1;
            *x2 = y2;
            *x3 = y3;
        }
    }
}

/// [`fwd_radix4`] at `d = 4` (`n ≥ 64`): each step gathers four
/// 16-coefficient chunks into four 16-lane arrays (array `k` holds
/// quarter `k` of every chunk), runs the butterflies lane-wise with
/// each chunk's twiddles repeated over its four lanes, and stores the
/// 4-lane blocks back.
#[inline(always)]
fn fwd_radix4_d4<M: LazyMul>(
    data: &mut [M::W],
    tw: &[M::W],
    tws: &[M::W],
    m_blocks: usize,
    mul: M,
) {
    let m = m_blocks;
    let steps = data.as_chunks_mut::<64>().0.iter_mut();
    let (w0s, ws0s) = (
        tw[m..2 * m].as_chunks::<4>().0,
        tws[m..2 * m].as_chunks::<4>().0,
    );
    let (w12s, ws12s) = (
        tw[2 * m..4 * m].as_chunks::<8>().0,
        tws[2 * m..4 * m].as_chunks::<8>().0,
    );
    for ((((x, w0), ws0), w12), ws12) in steps.zip(w0s).zip(ws0s).zip(w12s).zip(ws12s) {
        let mut v: [[M::W; 16]; 4] = from_fn(|k| from_fn(|l| x[16 * (l / 4) + 4 * k + l % 4]));
        let w0: [M::W; 16] = from_fn(|l| w0[l / 4]);
        let ws0: [M::W; 16] = from_fn(|l| ws0[l / 4]);
        let w1: [M::W; 16] = from_fn(|l| w12[2 * (l / 4)]);
        let ws1: [M::W; 16] = from_fn(|l| ws12[2 * (l / 4)]);
        let w2: [M::W; 16] = from_fn(|l| w12[2 * (l / 4) + 1]);
        let ws2: [M::W; 16] = from_fn(|l| ws12[2 * (l / 4) + 1]);
        for l in 0..16 {
            let (a0, a2) = ct_bfly(v[0][l], v[2][l], w0[l], ws0[l], mul);
            let (a1, a3) = ct_bfly(v[1][l], v[3][l], w0[l], ws0[l], mul);
            let (y0, y1) = ct_bfly(a0, a1, w1[l], ws1[l], mul);
            let (y2, y3) = ct_bfly(a2, a3, w2[l], ws2[l], mul);
            [v[0][l], v[1][l], v[2][l], v[3][l]] = [y0, y1, y2, y3];
        }
        store_blocks(x, &v);
    }
}

/// Scatters four 16-lane arrays back as 4-lane blocks: block `c` of
/// array `k` lands at `16c + 4k` — the inverse of the `d = 4` gather.
/// Whole-block copies keep the arrays in registers.
#[inline(always)]
fn store_blocks<W: Copy>(x: &mut [W; 64], v: &[[W; 16]; 4]) {
    for (k, vk) in v.iter().enumerate() {
        for (c, block) in vk.as_chunks::<4>().0.iter().enumerate() {
            x[16 * c + 4 * k..16 * c + 4 * k + 4].copy_from_slice(block);
        }
    }
}

/// [`fwd_radix4`] at `d = 1` (`m = n/4`): one quartet per chunk, the
/// first twiddle a contiguous stream and the other two a stride-2
/// stream.
#[inline(always)]
fn fwd_radix4_d1<M: LazyMul>(
    data: &mut [M::W],
    tw: &[M::W],
    tws: &[M::W],
    m_blocks: usize,
    mul: M,
) {
    let m = m_blocks;
    let quartets = data.as_chunks_mut::<4>().0.iter_mut();
    let (w12s, ws12s) = (
        tw[2 * m..4 * m].as_chunks::<2>().0,
        tws[2 * m..4 * m].as_chunks::<2>().0,
    );
    for ((((x, &w0), &ws0), w12), ws12) in quartets
        .zip(&tw[m..2 * m])
        .zip(&tws[m..2 * m])
        .zip(w12s)
        .zip(ws12s)
    {
        let (a0, a2) = ct_bfly(x[0], x[2], w0, ws0, mul);
        let (a1, a3) = ct_bfly(x[1], x[3], w0, ws0, mul);
        let (y0, y1) = ct_bfly(a0, a1, w12[0], ws12[0], mul);
        let (y2, y3) = ct_bfly(a2, a3, w12[1], ws12[1], mul);
        *x = [y0, y1, y2, y3];
    }
}

/// One forward CT stage with `m_blocks` blocks (radix-2).
#[inline(always)]
fn fwd_radix2<M: LazyMul>(data: &mut [M::W], tw: &[M::W], tws: &[M::W], m_blocks: usize, mul: M) {
    let n = data.len();
    let t = n / (2 * m_blocks);
    for (c, chunk) in data.chunks_exact_mut(2 * t).enumerate() {
        let (w, ws) = (tw[m_blocks + c], tws[m_blocks + c]);
        let (lo, hi) = chunk.split_at_mut(t);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (s, d) = ct_bfly(*a, *b, w, ws, mul);
            *a = s;
            *b = d;
        }
    }
}

/// Merged inverse stages with `h` then `h/2` blocks in one radix-4 pass.
///
/// Chunk `c` (`4t` coefficients, `t = n/(2h)`) covers the stage-`h`
/// blocks `2c`, `2c+1` (`tw[h + 2c]`, `tw[h + 2c + 1]`) and the
/// stage-`h/2` block `c` (`tw[h/2 + c]`).
#[inline(always)]
fn inv_radix4<M: LazyMul>(data: &mut [M::W], tw: &[M::W], tws: &[M::W], h_blocks: usize, mul: M) {
    let n = data.len();
    let t = n / (2 * h_blocks);
    for (c, chunk) in data.chunks_exact_mut(4 * t).enumerate() {
        let (w0, ws0) = (tw[h_blocks + 2 * c], tws[h_blocks + 2 * c]);
        let (w1, ws1) = (tw[h_blocks + 2 * c + 1], tws[h_blocks + 2 * c + 1]);
        let (w2, ws2) = (tw[h_blocks / 2 + c], tws[h_blocks / 2 + c]);
        let (lo, hi) = chunk.split_at_mut(2 * t);
        let (q0, q1) = lo.split_at_mut(t);
        let (q2, q3) = hi.split_at_mut(t);
        for (((x0, x1), x2), x3) in q0
            .iter_mut()
            .zip(q1.iter_mut())
            .zip(q2.iter_mut())
            .zip(q3.iter_mut())
        {
            // Stage h (distance t): pairs (q0, q1) and (q2, q3).
            let (a0, a1) = gs_bfly(*x0, *x1, w0, ws0, mul);
            let (a2, a3) = gs_bfly(*x2, *x3, w1, ws1, mul);
            // Stage h/2 (distance 2t): pairs (q0, q2) and (q1, q3).
            let (y0, y2) = gs_bfly(a0, a2, w2, ws2, mul);
            let (y1, y3) = gs_bfly(a1, a3, w2, ws2, mul);
            *x0 = y0;
            *x1 = y1;
            *x2 = y2;
            *x3 = y3;
        }
    }
}

/// [`inv_radix4`] at `t = 4` (`n ≥ 64`), in the gathered 16-lane shape
/// of [`fwd_radix4_d4`].
#[inline(always)]
fn inv_radix4_t4<M: LazyMul>(
    data: &mut [M::W],
    tw: &[M::W],
    tws: &[M::W],
    h_blocks: usize,
    mul: M,
) {
    let h = h_blocks;
    let steps = data.as_chunks_mut::<64>().0.iter_mut();
    let (w01s, ws01s) = (
        tw[h..2 * h].as_chunks::<8>().0,
        tws[h..2 * h].as_chunks::<8>().0,
    );
    let (w2s, ws2s) = (
        tw[h / 2..h].as_chunks::<4>().0,
        tws[h / 2..h].as_chunks::<4>().0,
    );
    for ((((x, w01), ws01), w2), ws2) in steps.zip(w01s).zip(ws01s).zip(w2s).zip(ws2s) {
        let mut v: [[M::W; 16]; 4] = from_fn(|k| from_fn(|l| x[16 * (l / 4) + 4 * k + l % 4]));
        let w0: [M::W; 16] = from_fn(|l| w01[2 * (l / 4)]);
        let ws0: [M::W; 16] = from_fn(|l| ws01[2 * (l / 4)]);
        let w1: [M::W; 16] = from_fn(|l| w01[2 * (l / 4) + 1]);
        let ws1: [M::W; 16] = from_fn(|l| ws01[2 * (l / 4) + 1]);
        let w2: [M::W; 16] = from_fn(|l| w2[l / 4]);
        let ws2: [M::W; 16] = from_fn(|l| ws2[l / 4]);
        for l in 0..16 {
            let (a0, a1) = gs_bfly(v[0][l], v[1][l], w0[l], ws0[l], mul);
            let (a2, a3) = gs_bfly(v[2][l], v[3][l], w1[l], ws1[l], mul);
            let (y0, y2) = gs_bfly(a0, a2, w2[l], ws2[l], mul);
            let (y1, y3) = gs_bfly(a1, a3, w2[l], ws2[l], mul);
            [v[0][l], v[1][l], v[2][l], v[3][l]] = [y0, y1, y2, y3];
        }
        store_blocks(x, &v);
    }
}

/// [`inv_radix4`] at `t = 1` (`h = n/2`): one quartet per chunk, the
/// first two twiddles a stride-2 stream and the third a contiguous one.
#[inline(always)]
fn inv_radix4_t1<M: LazyMul>(
    data: &mut [M::W],
    tw: &[M::W],
    tws: &[M::W],
    h_blocks: usize,
    mul: M,
) {
    let h = h_blocks;
    let quartets = data.as_chunks_mut::<4>().0.iter_mut();
    let (w01s, ws01s) = (
        tw[h..2 * h].as_chunks::<2>().0,
        tws[h..2 * h].as_chunks::<2>().0,
    );
    for ((((x, w01), ws01), &w2), &ws2) in quartets
        .zip(w01s)
        .zip(ws01s)
        .zip(&tw[h / 2..h])
        .zip(&tws[h / 2..h])
    {
        let (a0, a1) = gs_bfly(x[0], x[1], w01[0], ws01[0], mul);
        let (a2, a3) = gs_bfly(x[2], x[3], w01[1], ws01[1], mul);
        let (y0, y2) = gs_bfly(a0, a2, w2, ws2, mul);
        let (y1, y3) = gs_bfly(a1, a3, w2, ws2, mul);
        *x = [y0, y1, y2, y3];
    }
}

/// One inverse GS stage with `h_blocks` blocks (radix-2).
#[inline(always)]
fn inv_radix2<M: LazyMul>(data: &mut [M::W], tw: &[M::W], tws: &[M::W], h_blocks: usize, mul: M) {
    let n = data.len();
    let t = n / (2 * h_blocks);
    for (c, chunk) in data.chunks_exact_mut(2 * t).enumerate() {
        let (w, ws) = (tw[h_blocks + c], tws[h_blocks + c]);
        let (lo, hi) = chunk.split_at_mut(t);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (s, d) = gs_bfly(*a, *b, w, ws, mul);
            *a = s;
            *b = d;
        }
    }
}

/// Forward merged transform of every stacked polynomial, stage-outer.
///
/// When `log2 n` is odd the leftover radix-2 stage runs *first*
/// (`m = 1`: one block of length `n`, a single twiddle — the most
/// vectorizable stage); radix-4 pairs cover the rest, ending with the
/// `d = 4` and `d = 1` passes.
#[inline(always)]
fn run_forward<M: LazyMul>(data: &mut [M::W], p: &Plan<M>) {
    let (n, tw, tws, mul) = (p.n, p.tw, p.tws, p.mul);
    let mut m = 1usize;
    if p.log_n % 2 == 1 {
        for poly in data.chunks_exact_mut(n) {
            fwd_radix2(poly, tw, tws, m, mul);
        }
        m = 2;
    }
    while m < n {
        let d = n / (4 * m);
        for poly in data.chunks_exact_mut(n) {
            match d {
                1 => fwd_radix4_d1(poly, tw, tws, m, mul),
                4 if n >= 64 => fwd_radix4_d4(poly, tw, tws, m, mul),
                _ => fwd_radix4(poly, tw, tws, m, mul),
            }
        }
        m *= 4;
    }
}

/// Inverse merged transform stages (no final scale), stage-outer.
///
/// The `t = 1` and `t = 4` passes come first; the leftover radix-2
/// stage (odd `log2 n`) is the last one (`h = 1`: one block of length
/// `n`), mirroring the forward direction.
#[inline(always)]
fn run_inverse<M: LazyMul>(data: &mut [M::W], p: &Plan<M>) {
    let (n, tw, tws, mul) = (p.n, p.tw, p.tws, p.mul);
    let mut h = n / 2;
    while h >= 2 {
        let t = n / (2 * h);
        for poly in data.chunks_exact_mut(n) {
            match t {
                1 => inv_radix4_t1(poly, tw, tws, h, mul),
                4 if n >= 64 => inv_radix4_t4(poly, tw, tws, h, mul),
                _ => inv_radix4(poly, tw, tws, h, mul),
            }
        }
        h /= 4;
    }
    if h == 1 {
        for poly in data.chunks_exact_mut(n) {
            inv_radix2(poly, tw, tws, 1, mul);
        }
    }
}

/// Fused `n⁻¹` scale and normalization: lazy in, canonical out,
/// branch-free.
#[inline(always)]
fn scale_n_inv<M: LazyMul>(data: &mut [M::W], p: &Plan<M>) {
    for c in data.iter_mut() {
        *c = p.mul.canon(p.mul.mul(*c, p.n_inv, p.n_inv_shoup));
    }
}

/// Transform direction.
#[derive(Clone, Copy)]
enum Dir {
    Forward,
    Inverse,
}

impl Dir {
    /// The direction's member of a forward/inverse pair.
    fn pick<T>(self, forward: T, inverse: T) -> T {
        match self {
            Dir::Forward => forward,
            Dir::Inverse => inverse,
        }
    }
}

#[inline(always)]
fn run_dir<M: LazyMul>(dir: Dir, data: &mut [M::W], p: &Plan<M>) {
    match dir {
        Dir::Forward => run_forward(data, p),
        Dir::Inverse => {
            run_inverse(data, p);
            scale_n_inv(data, p);
        }
    }
}

/// Coefficients packed or unpacked per step of [`narrow`] / [`widen`]:
/// one 512-bit register of `u32`s, small enough to stay in registers.
const LANE_BLOCK: usize = 16;

/// Views a `u64` buffer's bytes as twice as many `u32` lanes.
#[inline(always)]
fn lanes32(data: &mut [u64]) -> &mut [u32] {
    // SAFETY: the view covers exactly `data`'s bytes (`2·len` u32s in
    // `8·len` bytes), `u32` needs no more alignment than `u64`, every
    // bit pattern is a valid `u32`, and the returned slice reborrows
    // `data` mutably, so nothing else can reach those bytes while it
    // lives.
    unsafe { core::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<u32>(), 2 * data.len()) }
}

/// Packs every value of `data` (each `< 2^32`) into `u32` lane `i` of
/// [`lanes32`]`(data)`, in place. Lane `i` overlaps `u64` slot `i/2`;
/// walking blocks upward, each block is read whole before it is written,
/// and it only ever overwrites slots an earlier block already read.
#[inline(always)]
fn narrow(data: &mut [u64]) {
    let len = data.len();
    let full = len - len % LANE_BLOCK;
    let mut block = [0u32; LANE_BLOCK];
    for k in (0..full).step_by(LANE_BLOCK) {
        for (b, &d) in block.iter_mut().zip(&data[k..k + LANE_BLOCK]) {
            *b = d as u32;
        }
        lanes32(data)[k..k + LANE_BLOCK].copy_from_slice(&block);
    }
    for (b, &d) in block.iter_mut().zip(&data[full..]) {
        *b = d as u32;
    }
    lanes32(data)[full..len].copy_from_slice(&block[..len - full]);
}

/// Inverse of [`narrow`]: widens `u32` lane `i` back into `u64` slot `i`.
/// Slot `i` covers lanes `2i` and `2i + 1`, so blocks walk downward:
/// each is read whole before it is written, over lanes a later block
/// already read.
#[inline(always)]
fn widen(data: &mut [u64]) {
    let len = data.len();
    let full = len - len % LANE_BLOCK;
    let mut block = [0u32; LANE_BLOCK];
    block[..len - full].copy_from_slice(&lanes32(data)[full..len]);
    for (d, &b) in data[full..].iter_mut().zip(&block) {
        *d = u64::from(b);
    }
    let mut k = full;
    while k > 0 {
        k -= LANE_BLOCK;
        block.copy_from_slice(&lanes32(data)[k..k + LANE_BLOCK]);
        for (d, &b) in data[k..k + LANE_BLOCK].iter_mut().zip(&block) {
            *d = u64::from(b);
        }
    }
}

/// The half-width transform: narrow in place, run on `u32` lanes,
/// widen back.
#[inline(always)]
fn run_half(dir: Dir, data: &mut [u64], p: &Plan<HalfMul>) {
    narrow(data);
    let len = data.len();
    run_dir(dir, &mut lanes32(data)[..len], p);
    widen(data);
}

/// Runtime-dispatched compilations of [`run_half`].
///
/// The `u32`-lane butterflies are pure 32×32→64 arithmetic, which the
/// loop vectorizer only lowers to packed multiplies (`vpmuludq`) when
/// wide enough registers make it profitable. `#[target_feature]`
/// recompiles the *same* generic passes with the AVX-512/AVX2 cost
/// models; the arithmetic is identical, so results are bit-identical
/// across compilations, and the portable build remains the fallback
/// (and the only path off x86-64).
mod simd {
    use super::{run_half, Dir, HalfMul, Plan};

    /// # Safety
    ///
    /// The host must support AVX-512F, AVX-512DQ and AVX-512VL.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn run_half_avx512(dir: Dir, data: &mut [u64], p: &Plan<HalfMul>) {
        run_half(dir, data, p);
    }

    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_half_avx2(dir: Dir, data: &mut [u64], p: &Plan<HalfMul>) {
        run_half(dir, data, p);
    }

    #[cfg(target_arch = "x86_64")]
    fn has_avx512() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }

    #[cfg(target_arch = "x86_64")]
    fn has_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Runs the best compilation the host supports.
    pub(super) fn run_half_dispatched(dir: Dir, data: &mut [u64], p: &Plan<HalfMul>) {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                // SAFETY: feature presence checked at runtime just above.
                unsafe { run_half_avx512(dir, data, p) };
                return;
            }
            if has_avx2() {
                // SAFETY: feature presence checked at runtime just above.
                unsafe { run_half_avx2(dir, data, p) };
                return;
            }
        }
        run_half(dir, data, p);
    }

    /// A compilation of [`run_half`].
    #[cfg(test)]
    #[derive(Clone, Copy, Debug)]
    pub(super) enum Isa {
        Portable,
        Avx2,
        Avx512,
    }

    /// Runs one named compilation; `false` (nothing run) when the host
    /// lacks its features.
    #[cfg(test)]
    pub(super) fn run_half_as(isa: Isa, dir: Dir, data: &mut [u64], p: &Plan<HalfMul>) -> bool {
        match isa {
            Isa::Portable => run_half(dir, data, p),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: feature presence checked at runtime in the guard.
            Isa::Avx2 if has_avx2() => unsafe { run_half_avx2(dir, data, p) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: feature presence checked at runtime in the guard.
            Isa::Avx512 if has_avx512() => unsafe { run_half_avx512(dir, data, p) },
            _ => return false,
        }
        true
    }
}

/// The half-width plan and lane arithmetic for one direction (`q < 2^30`).
fn half_plan<'a>(t: &'a NttTables, tw: &'a Twiddles<u32>) -> Plan<'a, HalfMul> {
    let q = t.modulus() as u32;
    let mul = HalfMul { q, two_q: 2 * q };
    Plan::new(t, tw, t.n_inv() as u32, (t.n_inv_shoup() >> 32) as u32, mul)
}

fn dispatch(dir: Dir, data: &mut [u64], tables: &NttTables) {
    let n = tables.degree();
    let q = tables.modulus();
    assert!(
        !data.is_empty() && data.len().is_multiple_of(n),
        "batch buffer must be a positive multiple of n"
    );
    debug_assert!(data.iter().all(|&c| c < 2 * q), "inputs must be < 2q");
    match tables.merged_twiddles() {
        MergedTwiddles::Half { forward, inverse } => {
            simd::run_half_dispatched(dir, data, &half_plan(tables, dir.pick(forward, inverse)));
        }
        MergedTwiddles::Wide { forward, inverse } => {
            let mul = WideMul { q, two_q: 2 * q };
            let p = Plan::new(
                tables,
                dir.pick(forward, inverse),
                tables.n_inv(),
                tables.n_inv_shoup(),
                mul,
            );
            run_dir(dir, data, &p);
        }
    }
}

/// Batch forward merged negacyclic transform in place: every `n`-length
/// block of `data` is one natural-order input (`< 2q`; canonical
/// qualifies), transformed stage-outer across the whole batch (one
/// twiddle walk per batch) into **bit-reversed** lazy output `< 2q`.
///
/// Each block's output is `NTT(φ ⊙ a)` with spectrum value `X[k]`
/// stored at index `rev(k)`; normalizing and permuting yields exactly
/// `NttMultiplier::forward`'s result. A single polynomial is a batch of
/// one.
///
/// # Panics
///
/// Panics if `data.len()` is not a positive multiple of
/// `tables.degree()`.
pub fn forward_lazy_batch_in_place(data: &mut [u64], tables: &NttTables) {
    dispatch(Dir::Forward, data, tables);
}

/// Batch inverse merged negacyclic transform in place: every `n`-length
/// block is one bit-reversed lazy spectrum (`< 2q`), returned in natural
/// order, **canonical** — the full `φ̄ ⊙ INTT(·)` with `n⁻¹` folded into
/// the final fused pass.
///
/// # Panics
///
/// Panics if `data.len()` is not a positive multiple of
/// `tables.degree()`.
pub fn inverse_batch_in_place(data: &mut [u64], tables: &NttTables) {
    dispatch(Dir::Inverse, data, tables);
}

/// Lazy pointwise product in place: `a[i] ← a[i]·b[i] mod q ∈ [0, 2q)`
/// for lazy operands (`< 2q`).
///
/// For `q < 2^31` this is a Barrett multiply with the precomputed
/// `µ = ⌊2^64/q⌋` — no `u128` remainder. Larger moduli fall back to
/// normalizing the operands and a `u128` widening multiply.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn pointwise_lazy_in_place(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    if q < 1 << 31 {
        let mu = barrett::precompute_mu(q);
        for (x, &y) in a.iter_mut().zip(b) {
            *x = barrett::mul_lazy_mu(*x, y, mu, q);
        }
    } else {
        for (x, &y) in a.iter_mut().zip(b) {
            let xc = shoup::reduce_2q(*x, q);
            let yc = shoup::reduce_2q(y, q);
            *x = ((xc as u128 * yc as u128) % q as u128) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modmath::{bitrev, zq};

    fn tables(n: usize, q: u64) -> NttTables {
        NttTables::for_degree_modulus(n, q).unwrap()
    }

    fn lcg(n: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 16) % q
            })
            .collect()
    }

    /// The largest prime `q < limit` with `q ≡ 1 (mod 2n)`.
    fn ntt_prime_below(limit: u64, n: usize) -> u64 {
        let step = 2 * n as u64;
        let mut q = limit - 1 - (limit - 2) % step;
        while !modmath::primes::is_prime(q) {
            q -= step;
        }
        q
    }

    /// The smallest prime `q ≥ limit` with `q ≡ 1 (mod 2n)`.
    fn ntt_prime_from(limit: u64, n: usize) -> u64 {
        let step = 2 * n as u64;
        let mut q = limit + 1 + (step - (limit % step)) % step;
        while !modmath::primes::is_prime(q) {
            q += step;
        }
        q
    }

    /// The natural-order reference spectrum via the existing pipeline:
    /// `NTT(φ ⊙ a)`, canonical.
    fn reference_forward(a: &[u64], t: &NttTables) -> Vec<u64> {
        let q = t.modulus();
        let mut data: Vec<u64> = a
            .iter()
            .enumerate()
            .map(|(i, &c)| zq::mul(c, t.phi_powers()[i], q))
            .collect();
        crate::gs::forward(&mut data, t);
        data
    }

    /// The merged forward as plain radix-2 CT stages on `u64` values,
    /// with the lazy Shoup multiply the modulus calls for (half-width
    /// below `2^30`, full-width above). Radix-4 passes only regroup these
    /// butterflies, so the kernels' *lazy* outputs must equal this
    /// model's bit for bit.
    fn stagewise_forward(a: &[u64], t: &NttTables) -> Vec<u64> {
        let (n, q) = (t.degree(), t.modulus());
        let two_q = 2 * q;
        let bits = n.trailing_zeros();
        let tw: Vec<u64> = (0..n)
            .map(|i| t.phi_powers()[bitrev::reverse_bits(i, bits)])
            .collect();
        let tws = shoup::precompute_table(&tw, q);
        let mul = |x: u64, i: usize| {
            if q < shoup::HALF_MODULUS_LIMIT {
                shoup::mul_lazy_half(x, tw[i], tws[i] >> 32, q)
            } else {
                shoup::mul_lazy(x, tw[i], tws[i], q)
            }
        };
        let mut x = a.to_vec();
        let mut m = 1;
        while m < n {
            let half = n / (2 * m);
            for c in 0..m {
                for j in 2 * c * half..(2 * c + 1) * half {
                    let (u, v) = (x[j], mul(x[j + half], m + c));
                    x[j] = shoup::lazy_sub_2q(u + v, two_q);
                    x[j + half] = shoup::lazy_sub_2q(u + two_q - v, two_q);
                }
            }
            m *= 2;
        }
        x
    }

    #[test]
    fn merged_forward_matches_reference_spectrum() {
        for (n, q) in [
            (2usize, 7681u64),
            (4, 7681),
            (8, 7681),
            (16, 12289),
            (64, 12289),
            (256, 786433),
            (512, 786433),
        ] {
            let t = tables(n, q);
            let a = lcg(n, q, 42);
            let reference = reference_forward(&a, &t);

            let mut merged = a.clone();
            forward_lazy_batch_in_place(&mut merged, &t);
            assert!(merged.iter().all(|&c| c < 2 * q), "lazy outputs < 2q");
            assert_eq!(merged, stagewise_forward(&a, &t), "n = {n}, q = {q}");
            shoup::normalize_slice(&mut merged, q);
            bitrev::permute_in_place(&mut merged);
            assert_eq!(merged, reference, "n = {n}, q = {q}");
        }
    }

    #[test]
    fn smallest_modulus_above_half_limit_takes_the_wide_path() {
        // The first NTT-friendly q ≥ 2^30 must route to the u64-lane
        // WideMul kernels (the u32 tables do not exist for it) and still
        // produce the full-width stage model's lazy output.
        for n in [64usize, 1024] {
            let q = ntt_prime_from(shoup::HALF_MODULUS_LIMIT, n);
            let t = tables(n, q);
            assert!(matches!(t.merged_twiddles(), MergedTwiddles::Wide { .. }));
            let a = lcg(n, q, 7);
            let mut merged = a.clone();
            forward_lazy_batch_in_place(&mut merged, &t);
            assert_eq!(merged, stagewise_forward(&a, &t), "n = {n}, q = {q}");
            inverse_batch_in_place(&mut merged, &t);
            assert_eq!(merged, a, "roundtrip n = {n}, q = {q}");
        }
    }

    #[test]
    fn merged_forward_wide_path_matches_reference() {
        // A modulus near 2^62 exercises WideMul at its headroom limit.
        let n = 64usize;
        let mut q = (1u64 << 62) - ((1u64 << 62) - 1) % (2 * n as u64);
        while !modmath::primes::is_prime(q) {
            q -= 2 * n as u64;
        }
        assert!(q >= shoup::HALF_MODULUS_LIMIT);
        let t = tables(n, q);
        let a = lcg(n, q, 7);
        let reference = reference_forward(&a, &t);
        let mut merged = a.clone();
        forward_lazy_batch_in_place(&mut merged, &t);
        assert_eq!(merged, stagewise_forward(&a, &t));
        shoup::normalize_slice(&mut merged, q);
        bitrev::permute_in_place(&mut merged);
        assert_eq!(merged, reference);
    }

    #[test]
    fn merged_inverse_undoes_merged_forward() {
        for (n, q) in [(4usize, 7681u64), (8, 7681), (64, 12289), (1024, 786433)] {
            let t = tables(n, q);
            let a = lcg(n, q, 5);
            let mut data = a.clone();
            forward_lazy_batch_in_place(&mut data, &t);
            inverse_batch_in_place(&mut data, &t);
            assert_eq!(data, a, "n = {n}, q = {q}");
        }
    }

    #[test]
    fn merged_inverse_output_is_canonical() {
        let n = 256usize;
        let q = 786433u64;
        let t = tables(n, q);
        // Feed worst-case lazy inputs (just below 2q).
        let mut data: Vec<u64> = (0..n as u64).map(|i| 2 * q - 1 - (i % 7)).collect();
        inverse_batch_in_place(&mut data, &t);
        assert!(data.iter().all(|&c| c < q), "canonical outputs");
    }

    #[test]
    fn batch_matches_sequential_transforms() {
        for (n, q) in [(128usize, 12289u64), (32, 7681), (2, 7681)] {
            let t = tables(n, q);
            for b in 1..=4usize {
                let flat: Vec<u64> = lcg(b * n, 2 * q, b as u64 + 1);
                let mut batch = flat.clone();
                forward_lazy_batch_in_place(&mut batch, &t);
                let mut seq = flat.clone();
                for poly in seq.chunks_exact_mut(n) {
                    forward_lazy_batch_in_place(poly, &t);
                }
                assert_eq!(batch, seq, "forward n = {n}, b = {b}");

                let mut batch_inv = batch.clone();
                inverse_batch_in_place(&mut batch_inv, &t);
                for poly in seq.chunks_exact_mut(n) {
                    inverse_batch_in_place(poly, &t);
                }
                assert_eq!(batch_inv, seq, "inverse n = {n}, b = {b}");
                let canonical: Vec<u64> = flat.iter().map(|&c| c % q).collect();
                assert_eq!(batch_inv, canonical, "roundtrip n = {n}, b = {b}");
            }
        }
    }

    #[test]
    fn every_compilation_agrees_bit_for_bit() {
        // The portable, AVX2 and AVX-512 compilations of the u32-lane
        // transform must produce identical words for identical inputs —
        // each one the host can run, at odd and even log2 n, every
        // paper modulus that fits the degree plus the worst-case half
        // modulus, on random inputs and on inputs pinned at the lazy
        // extreme 2q − 1.
        use simd::{run_half_as, Isa};
        let mut ran = [0usize; 3];
        for log_n in 1..=12u32 {
            let n = 1usize << log_n;
            let mut moduli = vec![ntt_prime_below(shoup::HALF_MODULUS_LIMIT, n)];
            moduli.extend(
                [7681u64, 12289, 786433]
                    .into_iter()
                    .filter(|q| (q - 1).is_multiple_of(2 * n as u64)),
            );
            for q in moduli {
                let t = tables(n, q);
                for batch in [1usize, 3] {
                    let inputs = [
                        lcg(batch * n, 2 * q, u64::from(log_n)),
                        vec![2 * q - 1; batch * n],
                    ];
                    for input in inputs {
                        for dir in [Dir::Forward, Dir::Inverse] {
                            let MergedTwiddles::Half { forward, inverse } = t.merged_twiddles()
                            else {
                                panic!("q = {q} is below the half-width limit");
                            };
                            let tw = if let Dir::Forward = dir {
                                forward
                            } else {
                                inverse
                            };
                            let plan = half_plan(&t, tw);
                            let mut portable = input.clone();
                            assert!(run_half_as(Isa::Portable, dir, &mut portable, &plan));
                            ran[0] += 1;
                            for (slot, isa) in [(1, Isa::Avx2), (2, Isa::Avx512)] {
                                let mut out = input.clone();
                                if run_half_as(isa, dir, &mut out, &plan) {
                                    ran[slot] += 1;
                                    assert_eq!(
                                        out, portable,
                                        "{isa:?} n = {n}, q = {q}, B = {batch}"
                                    );
                                }
                            }
                            if let Dir::Forward = dir {
                                let model: Vec<u64> = input
                                    .chunks_exact(n)
                                    .flat_map(|poly| stagewise_forward(poly, &t))
                                    .collect();
                                assert_eq!(portable, model, "stage model n = {n}, q = {q}");
                            }
                        }
                    }
                }
            }
        }
        assert!(ran[0] > 0);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(ran[1], ran[0], "AVX2 ran on every case");
        }
    }

    #[test]
    fn lane_packing_roundtrips_in_place() {
        for len in [1usize, 2, 15, 16, 17, 64, 100] {
            let words: Vec<u64> = (0..len as u64)
                .map(|i| (u64::from(u32::MAX) - i * 977) & 0xffff_ffff)
                .collect();
            let mut data = words.clone();
            narrow(&mut data);
            let lanes: Vec<u64> = lanes32(&mut data)[..len]
                .iter()
                .map(|&w| u64::from(w))
                .collect();
            assert_eq!(lanes, words, "narrow, len = {len}");
            widen(&mut data);
            assert_eq!(data, words, "widen, len = {len}");
        }
    }

    #[test]
    fn pointwise_lazy_in_place_matches_canonical() {
        let q = 786433u64;
        let a: Vec<u64> = (0..256u64).map(|i| (i * 1337) % (2 * q)).collect();
        let b: Vec<u64> = (0..256u64).map(|i| (i * 7331 + 5) % (2 * q)).collect();
        let mut out = a.clone();
        pointwise_lazy_in_place(&mut out, &b, q);
        for i in 0..256 {
            assert!(out[i] < 2 * q);
            assert_eq!(
                out[i] % q,
                ((a[i] as u128 * b[i] as u128) % q as u128) as u64
            );
        }
    }
}
