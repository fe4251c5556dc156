//! Barrett reduction: generic and the paper's shift-add specializations.
//!
//! The paper (Algorithm 3) replaces the division in Barrett reduction with
//! fixed shift-and-add sequences for the three NTT moduli, because a fixed
//! shift is free in a bit-addressable PIM (it is just a column selection).
//! The sequences are *partial* reductions: applied after an addition
//! (input `< 2q`) they return a value `< 2q` that is congruent to the input
//! and at most one conditional subtraction away from canonical. This module
//! implements:
//!
//! * [`BarrettReducer`] — a generic word-level Barrett reducer for any
//!   modulus, used by the software NTT baselines.
//! * [`shift_add_reduce`] — the exact shift-add sequences of Algorithm 3,
//!   plus [`ShiftAddBarrett`] which records the primitive-operation trace
//!   the PIM simulator uses for cycle accounting. Moduli beyond the
//!   paper's three (RNS residue primes in particular) get a trace derived
//!   from the modulus' non-adjacent form, so any NTT-friendly prime below
//!   `2^31` can run on the engine with faithful cycle accounting.
//!
//! # Paper fidelity notes
//!
//! For `q = 7681` the paper prints `(u<<13) − (u<<9) − u` = `u·7679` for
//! the quotient-times-modulus step, which subtracts `u·(q − 2)` and leaves
//! a result congruent to `a + 2u`, not `a`. The correct constant is
//! `u·q = u·7681 = (u<<13) − (u<<9) + u`; we implement the corrected
//! sequence (same shift/add count, so the cycle model is unaffected) and
//! keep a regression test documenting the erratum. The `q = 12289` and
//! `q = 786433` Barrett rows are correct as printed.

use crate::Error;

/// The three moduli with specialized shift-add sequences in Algorithm 3.
pub const SPECIALIZED_MODULI: [u64; 3] = [7681, 12289, 786433];

/// Number of nonzero digits in the non-adjacent form (NAF) of `v`.
///
/// The NAF is the sparsest signed-digit representation, so it counts
/// exactly the add/subtract operations a shift-add multiplier needs to
/// form `u·v` from shifted copies of `u` — the same bookkeeping the
/// paper does by hand for its three moduli.
pub(crate) fn naf_nonzero_count(mut v: u64) -> u32 {
    let mut count = 0;
    while v != 0 {
        if v & 1 == 1 {
            // Digit is ±1: choose the sign that clears the next bit too.
            if v & 3 == 3 {
                v = v.wrapping_add(1);
            } else {
                v = v.wrapping_sub(1);
            }
            count += 1;
        }
        v >>= 1;
    }
    count
}

/// A primitive operation in a shift-add reduction sequence, as the PIM
/// hardware would execute it. Shifts are free (column selection); adds and
/// subtracts cost cycles proportional to their operand bit-width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftAddOp {
    /// In-memory addition of two operands of the given bit-width.
    Add {
        /// Bit-width of the addition actually performed.
        width: u32,
    },
    /// In-memory subtraction (2's complement add) of the given bit-width.
    Sub {
        /// Bit-width of the subtraction actually performed.
        width: u32,
    },
}

/// Generic word-level Barrett reducer for an arbitrary modulus `q < 2^31`.
///
/// Precomputes `m = floor(2^k / q)` with `k = 2·ceil(log2 q)` and reduces
/// any `a < q^2` with two multiplications and at most two conditional
/// subtractions.
///
/// # Example
///
/// ```
/// use modmath::barrett::BarrettReducer;
///
/// # fn main() -> Result<(), modmath::Error> {
/// let red = BarrettReducer::new(12289)?;
/// assert_eq!(red.reduce(12289 * 12288 + 17), 17);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrettReducer {
    q: u64,
    /// floor(2^k / q)
    m: u128,
    k: u32,
}

impl BarrettReducer {
    /// Creates a reducer for modulus `q`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ModulusTooLarge`] when `q >= 2^31` (the reducer is
    /// specified for inputs up to `q^2`, which must fit in `u64`).
    pub fn new(q: u64) -> Result<Self, Error> {
        if q == 0 || q >= 1 << 31 {
            return Err(Error::ModulusTooLarge { q });
        }
        let bits = 64 - q.leading_zeros();
        let k = 2 * bits;
        let m = (1u128 << k) / q as u128;
        Ok(BarrettReducer { q, m, k })
    }

    /// The modulus this reducer was built for.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Reduces `a` (any value `< q^2`) to its canonical residue.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        debug_assert!(
            (a as u128) < self.q as u128 * self.q as u128 * 4,
            "input out of specified range"
        );
        let quot = ((a as u128 * self.m) >> self.k) as u64;
        let mut r = a - quot * self.q;
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Modular multiplication using this reducer.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce(a * b)
    }
}

/// Precomputes the 64-bit Barrett constant `µ = ⌊2^64 / q⌋` used by
/// [`mul_lazy_mu`]. Valid for any `q ≥ 2`.
#[inline]
pub fn precompute_mu(q: u64) -> u64 {
    debug_assert!(q >= 2, "modulus must be at least 2");
    ((1u128 << 64) / q as u128) as u64
}

/// Lazy Barrett product: `a · b mod q` in `[0, 2q)` without `u128`
/// division, for operands whose full product fits a `u64`.
///
/// With `µ = ⌊2^64/q⌋` and `x = a·b < 2^64`, the quotient estimate
/// `h = ⌊µ·x / 2^64⌋` satisfies `h ≤ x/q` and `h > x/q − x/2^64 − 1`,
/// so `r = x − h·q ∈ [0, q + q·x/2^64) ⊂ [0, 2q)`. Unlike the Shoup
/// form, *neither* operand needs a precomputed companion — this is the
/// pointwise-stage workhorse, where both operands are spectrum values.
///
/// Requires `a·b < 2^64` (e.g. lazy `[0, 2q)` operands with `q < 2^31`).
#[inline]
pub fn mul_lazy_mu(a: u64, b: u64, mu: u64, q: u64) -> u64 {
    debug_assert!(
        (a as u128) * (b as u128) < 1 << 64,
        "operand product must fit u64"
    );
    let x = a * b;
    let h = ((mu as u128 * x as u128) >> 64) as u64;
    x.wrapping_sub(h.wrapping_mul(q))
}

/// Applies the paper's shift-add Barrett sequence for `q`, returning the
/// *partial* result exactly as the hardware sequence produces it (no final
/// conditional subtraction).
///
/// The sequences are specified for post-addition inputs, `a < 2q`; for that
/// range the result is congruent to `a (mod q)` and `< 2q`.
///
/// Moduli other than the three specialized ones take the generic
/// single-step arm: with `qbits = ⌈log2 q⌉` and input `a < 2q`, the
/// quotient estimate `u = a >> qbits` is 0 or 1, so `a − u·q` is one
/// shift-add multiply away — the same structure the paper's sequences
/// have, derived at runtime instead of by hand.
///
/// # Errors
///
/// Returns [`Error::ModulusTooLarge`] when `q < 2` or `q ≥ 2^31` (the
/// shift-add datapath is specified for sub-word moduli).
#[inline]
pub fn shift_add_reduce_partial(a: u64, q: u64) -> Result<u64, Error> {
    let r = match q {
        12289 => {
            // u ← ((a<<2) + a) >> 16 ;  u ← (u<<13) + (u<<12) + u ;  a − u
            let u = ((a << 2) + a) >> 16;
            let uq = (u << 13) + (u << 12) + u; // u · 12289
            a - uq
        }
        7681 => {
            // u ← a >> 13 ;  u ← (u<<13) − (u<<9) + u ;  a − u
            //
            // Erratum: the paper prints `(u<<13) − (u<<9) − u` = u·7679,
            // which subtracts u·(q−2) and leaves the result incongruent
            // (off by 2u). The corrected constant is u·q = u·7681.
            let u = a >> 13;
            let uq = (u << 13) - (u << 9) + u; // u · 7681 = u · q
            a - uq
        }
        786433 => {
            // u ← a >> 20 ;  u ← (u<<19) + (u<<18) + u ;  a − u
            let u = a >> 20;
            let uq = (u << 19) + (u << 18) + u; // u · 786433
            a - uq
        }
        _ => {
            if !(2..1 << 31).contains(&q) {
                return Err(Error::ModulusTooLarge { q });
            }
            // u ← a >> qbits is 0 or 1 for a < 2q (2^qbits > q), and
            // u·q ≤ q < a whenever u = 1, so the subtraction never wraps.
            let qbits = 64 - q.leading_zeros();
            let u = a >> qbits;
            a - u * q
        }
    };
    Ok(r)
}

/// Full shift-add Barrett reduction: the paper's sequence (or the
/// generic single-step arm for unspecialized moduli) followed by
/// conditional subtractions down to the canonical range.
///
/// # Errors
///
/// Returns [`Error::ModulusTooLarge`] when `q < 2` or `q ≥ 2^31`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), modmath::Error> {
/// for a in 0..2 * 12289 {
///     let r = modmath::barrett::shift_add_reduce(a, 12289)?;
///     assert_eq!(r, a % 12289);
/// }
/// # Ok(())
/// # }
/// ```
#[inline]
pub fn shift_add_reduce(a: u64, q: u64) -> Result<u64, Error> {
    let mut r = shift_add_reduce_partial(a, q)?;
    while r >= q {
        r -= q;
    }
    Ok(r)
}

/// A shift-add Barrett reducer that also exposes the primitive-operation
/// trace, so the PIM simulator can account cycles for it.
///
/// The trace lists every in-memory add/subtract the sequence performs,
/// with the bit-width each one actually needs (the paper computes "only
/// the necessary bit-wise computations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftAddBarrett {
    q: u64,
    trace: Vec<ShiftAddOp>,
}

impl ShiftAddBarrett {
    /// Builds the reducer and its operation trace for modulus `q`.
    ///
    /// The three paper moduli use the hand-derived traces of Algorithm 3.
    /// Any other modulus `2 ≤ q < 2^31` gets a trace derived from the
    /// non-adjacent form of `q`: forming `u·q` takes `nnz(q) − 1`
    /// add/subtract steps over shifted copies of `u`, then one subtract
    /// for `a − u·q` and one conditional canonical subtract — exactly the
    /// structure of the specialized sequences (for `q = 786433` the
    /// derived trace matches the printed one operation for operation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ModulusTooLarge`] when `q < 2` or `q ≥ 2^31`.
    pub fn new(q: u64) -> Result<Self, Error> {
        let trace = match q {
            12289 => vec![
                // ((a<<2) + a): a < 2q fits in 15 bits, shifted operand 17 bits.
                ShiftAddOp::Add { width: 17 },
                // (u<<13) + (u<<12): u ≤ 1 here, but the vector-wide datapath
                // is provisioned for the worst case width of u·q ≤ 2q (15 bits).
                ShiftAddOp::Add { width: 15 },
                // (..) + u
                ShiftAddOp::Add { width: 15 },
                // a − u·q
                ShiftAddOp::Sub { width: 15 },
                // conditional canonical subtraction
                ShiftAddOp::Sub { width: 14 },
            ],
            7681 => vec![
                // (u<<13) − (u<<9)
                ShiftAddOp::Sub { width: 14 },
                // (..) − u
                ShiftAddOp::Sub { width: 14 },
                // a − u·(q−2)
                ShiftAddOp::Sub { width: 14 },
                // conditional canonical subtraction
                ShiftAddOp::Sub { width: 13 },
            ],
            786433 => vec![
                // (u<<19) + (u<<18)
                ShiftAddOp::Add { width: 21 },
                // (..) + u
                ShiftAddOp::Add { width: 21 },
                // a − u·q
                ShiftAddOp::Sub { width: 21 },
                // conditional canonical subtraction
                ShiftAddOp::Sub { width: 20 },
            ],
            _ => {
                if !(2..1 << 31).contains(&q) {
                    return Err(Error::ModulusTooLarge { q });
                }
                let qbits = 64 - q.leading_zeros();
                let mut trace = Vec::new();
                // Form u·q from shifted copies of u: one add/sub per
                // nonzero NAF digit beyond the first. The datapath is
                // provisioned for the worst case u·q ≤ 2q (qbits + 1).
                for _ in 1..naf_nonzero_count(q) {
                    trace.push(ShiftAddOp::Add { width: qbits + 1 });
                }
                // a − u·q
                trace.push(ShiftAddOp::Sub { width: qbits + 1 });
                // conditional canonical subtraction
                trace.push(ShiftAddOp::Sub { width: qbits });
                trace
            }
        };
        Ok(ShiftAddBarrett { q, trace })
    }

    /// The modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// The primitive-operation trace (for PIM cycle accounting).
    #[inline]
    pub fn trace(&self) -> &[ShiftAddOp] {
        &self.trace
    }

    /// Reduces `a < 2q` to canonical form.
    ///
    /// # Panics
    ///
    /// Debug-panics when `a >= 2q` (outside the specified input range).
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        debug_assert!(a < 2 * self.q, "shift-add Barrett is specified for a < 2q");
        shift_add_reduce(a, self.q).expect("modulus validated at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generic_barrett_matches_naive_all_moduli() {
        for q in [3u64, 17, 7681, 12289, 786433, (1 << 30) + 3] {
            let red = BarrettReducer::new(q).unwrap();
            // Sweep a sparse grid over [0, q^2).
            let step = (q * q / 4096).max(1);
            let mut a = 0u64;
            while a < q * q {
                assert_eq!(red.reduce(a), a % q, "q = {q}, a = {a}");
                a += step;
            }
            // Edges.
            assert_eq!(red.reduce(0), 0);
            assert_eq!(red.reduce(q - 1), q - 1);
            assert_eq!(red.reduce(q), 0);
            assert_eq!(red.reduce(q * q - 1), (q * q - 1) % q);
        }
    }

    #[test]
    fn generic_barrett_rejects_huge_modulus() {
        assert!(BarrettReducer::new(1 << 31).is_err());
        assert!(BarrettReducer::new(0).is_err());
    }

    #[test]
    fn generic_barrett_mul() {
        let red = BarrettReducer::new(7681).unwrap();
        for a in (0..7681).step_by(97) {
            for b in (0..7681).step_by(89) {
                assert_eq!(red.mul(a, b), (a * b) % 7681);
            }
        }
    }

    #[test]
    fn shift_add_exhaustive_post_addition_range() {
        // The hardware applies this after additions: input < 2q.
        for q in SPECIALIZED_MODULI {
            for a in 0..2 * q {
                let r = shift_add_reduce(a, q).unwrap();
                assert_eq!(r, a % q, "q = {q}, a = {a}");
                let partial = shift_add_reduce_partial(a, q).unwrap();
                assert_eq!(partial % q, a % q, "partial congruence, q = {q}, a = {a}");
                assert!(partial < 2 * q, "partial bound, q = {q}, a = {a}");
            }
        }
    }

    #[test]
    fn mu_lazy_matches_residue_and_bound() {
        for q in [3u64, 17, 7681, 12289, 786433, (1 << 31) - 1] {
            let mu = precompute_mu(q);
            let lazy_max = 2 * q - 1;
            for a in [0u64, 1, q - 1, q, lazy_max] {
                for b in [0u64, 1, q - 1, q, lazy_max] {
                    let r = mul_lazy_mu(a, b, mu, q);
                    assert!(r < 2 * q, "q={q} a={a} b={b} r={r}");
                    assert_eq!(r % q, (a as u128 * b as u128 % q as u128) as u64);
                }
            }
        }
    }

    /// Demonstrates the erratum: the q = 7681 sequence exactly as printed
    /// (`u·7679`) is not congruent to `a mod q` once the quotient estimate
    /// is nonzero.
    #[test]
    fn printed_7681_sequence_is_incongruent() {
        let q = 7681u64;
        let printed = |a: u64| -> u64 {
            let u = a >> 13;
            a - ((u << 13) - (u << 9) - u)
        };
        // a = 8192: u = 1, printed result 513, true residue 511.
        assert_eq!(printed(8192) % q, 513);
        assert_eq!(8192 % q, 511);
    }

    #[test]
    fn shift_add_rejects_out_of_range_moduli() {
        assert!(matches!(
            shift_add_reduce(5, 1),
            Err(Error::ModulusTooLarge { q: 1 })
        ));
        assert!(shift_add_reduce(5, 1 << 31).is_err());
        assert!(ShiftAddBarrett::new(0).is_err());
        assert!(ShiftAddBarrett::new(1 << 31).is_err());
    }

    #[test]
    fn shift_add_generic_arm_exhaustive() {
        // Unspecialized moduli (RNS residue primes among them) take the
        // generic single-step arm; check it over the full input contract.
        for q in [17u64, 40961, 65537, 786433 + 12 * 8192, 1073479681] {
            let step = (2 * q / 65536).max(1);
            let mut a = 0u64;
            while a < 2 * q {
                let r = shift_add_reduce(a, q).unwrap();
                assert_eq!(r, a % q, "q = {q}, a = {a}");
                let partial = shift_add_reduce_partial(a, q).unwrap();
                assert_eq!(partial % q, a % q, "partial congruence q = {q} a = {a}");
                assert!(partial < 2 * q, "partial bound q = {q} a = {a}");
                a += step;
            }
            assert_eq!(shift_add_reduce(2 * q - 1, q).unwrap(), q - 1);
        }
    }

    #[test]
    fn naf_count_matches_hand_derivations() {
        // 786433 = 2^20 − 2^18 + 1, 7681 = 2^13 − 2^9 + 1, 12289 = 2^13 + 2^12 + 1.
        assert_eq!(naf_nonzero_count(786433), 3);
        assert_eq!(naf_nonzero_count(7681), 3);
        assert_eq!(naf_nonzero_count(12289), 3);
        assert_eq!(naf_nonzero_count(0), 0);
        assert_eq!(naf_nonzero_count(1), 1);
        assert_eq!(naf_nonzero_count(7), 2); // 8 − 1
    }

    #[test]
    fn generic_trace_matches_specialized_structure_for_786433() {
        // The derived trace for 786433 must equal the printed one, so the
        // cycle model is identical whichever arm produced it.
        let specialized = ShiftAddBarrett::new(786433).unwrap();
        let qbits = 20u32;
        let derived: Vec<ShiftAddOp> = (1..naf_nonzero_count(786433))
            .map(|_| ShiftAddOp::Add { width: qbits + 1 })
            .chain([
                ShiftAddOp::Sub { width: qbits + 1 },
                ShiftAddOp::Sub { width: qbits },
            ])
            .collect();
        assert_eq!(specialized.trace(), &derived[..]);
    }

    #[test]
    fn shift_add_barrett_reducer_traces_nonempty() {
        for q in SPECIALIZED_MODULI {
            let red = ShiftAddBarrett::new(q).unwrap();
            assert!(!red.trace().is_empty());
            assert_eq!(red.modulus(), q);
            assert_eq!(red.reduce(2 * q - 1), (2 * q - 1) % q);
        }
    }

    proptest! {
        #[test]
        fn prop_generic_barrett(q in 2u64..(1 << 31), a in any::<u64>()) {
            let red = BarrettReducer::new(q).unwrap();
            let a = a % (q * q);
            prop_assert_eq!(red.reduce(a), a % q);
        }

        #[test]
        fn prop_shift_add_congruent(idx in 0usize..3, a in any::<u64>()) {
            let q = SPECIALIZED_MODULI[idx];
            let a = a % (2 * q);
            prop_assert_eq!(shift_add_reduce(a, q).unwrap(), a % q);
        }
    }
}
