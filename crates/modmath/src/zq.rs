//! Word-level arithmetic in `Z_q` and the [`Zq`] element type.
//!
//! All free functions take the modulus explicitly and operate on canonical
//! representatives in `[0, q)`. Products are computed through `u128` so any
//! modulus below 2^62 is safe.

use crate::Error;

/// Largest modulus supported by the word-level routines.
pub const MAX_MODULUS: u64 = 1 << 62;

/// Adds two canonical residues modulo `q`.
///
/// # Panics
///
/// Debug-panics if `a` or `b` is not canonical (`>= q`).
#[inline]
pub fn add(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q, "operands must be canonical");
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `b` from `a` modulo `q`.
///
/// # Panics
///
/// Debug-panics if `a` or `b` is not canonical (`>= q`).
#[inline]
pub fn sub(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q, "operands must be canonical");
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Multiplies two canonical residues modulo `q` via a 128-bit product.
#[inline]
pub fn mul(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q, "operands must be canonical");
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Negates `a` modulo `q`.
#[inline]
pub fn neg(a: u64, q: u64) -> u64 {
    debug_assert!(a < q, "operand must be canonical");
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Computes `base^exp mod q` by square-and-multiply.
pub fn pow(base: u64, mut exp: u64, q: u64) -> u64 {
    debug_assert!(q > 0);
    let mut base = base % q;
    let mut acc: u64 = 1 % q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base, q);
        }
        base = mul(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Computes the modular inverse of `a` modulo `q` with the extended
/// Euclidean algorithm. Works for any modulus, prime or not, as long as
/// `gcd(a, q) = 1`.
///
/// # Errors
///
/// Returns [`Error::NotInvertible`] when `gcd(a, q) != 1` (including
/// `a == 0`).
pub fn inv(a: u64, q: u64) -> Result<u64, Error> {
    let a = a % q;
    if a == 0 {
        return Err(Error::NotInvertible { value: a, q });
    }
    // Extended Euclid on (q, a), tracking only the coefficient of `a`.
    let (mut old_r, mut r) = (q as i128, a as i128);
    let (mut old_t, mut t) = (0i128, 1i128);
    while r != 0 {
        let quot = old_r / r;
        (old_r, r) = (r, old_r - quot * r);
        (old_t, t) = (t, old_t - quot * t);
    }
    if old_r != 1 {
        return Err(Error::NotInvertible { value: a, q });
    }
    let mut res = old_t % q as i128;
    if res < 0 {
        res += q as i128;
    }
    Ok(res as u64)
}

/// An element of `Z_q`, carrying its modulus.
///
/// [`Zq`] is a convenience wrapper for code that manipulates a handful of
/// residues; bulk kernels (NTT butterflies, PIM vector ops) use the free
/// functions on raw `u64` slices instead.
///
/// # Example
///
/// ```
/// use modmath::zq::Zq;
///
/// let a = Zq::new(5, 17);
/// let b = Zq::new(13, 17);
/// assert_eq!((a + b).value(), 1);
/// assert_eq!((a * b).value(), 65 % 17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Zq {
    value: u64,
    q: u64,
}

impl Zq {
    /// Creates a new element, reducing `value` into `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `q > MAX_MODULUS`.
    pub fn new(value: u64, q: u64) -> Self {
        assert!(q > 0, "modulus must be nonzero");
        assert!(q <= MAX_MODULUS, "modulus too large");
        Zq {
            value: value % q,
            q,
        }
    }

    /// The canonical representative in `[0, q)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.value
    }

    /// The modulus.
    #[inline]
    pub fn modulus(self) -> u64 {
        self.q
    }

    /// `self^exp`.
    pub fn pow(self, exp: u64) -> Self {
        Zq {
            value: pow(self.value, exp, self.q),
            q: self.q,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInvertible`] when no inverse exists.
    pub fn inv(self) -> Result<Self, Error> {
        Ok(Zq {
            value: inv(self.value, self.q)?,
            q: self.q,
        })
    }
}

impl std::fmt::Display for Zq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (mod {})", self.value, self.q)
    }
}

macro_rules! zq_binop {
    ($trait:ident, $method:ident, $func:path) => {
        impl std::ops::$trait for Zq {
            type Output = Zq;

            fn $method(self, rhs: Zq) -> Zq {
                assert_eq!(self.q, rhs.q, "mismatched moduli");
                Zq {
                    value: $func(self.value, rhs.value, self.q),
                    q: self.q,
                }
            }
        }
    };
}

zq_binop!(Add, add, add);
zq_binop!(Sub, sub, sub);
zq_binop!(Mul, mul, mul);

impl std::ops::Neg for Zq {
    type Output = Zq;

    fn neg(self) -> Zq {
        Zq {
            value: neg(self.value, self.q),
            q: self.q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 12289;

    #[test]
    fn add_wraps() {
        assert_eq!(add(Q - 1, 1, Q), 0);
        assert_eq!(add(Q - 1, Q - 1, Q), Q - 2);
        assert_eq!(add(0, 0, Q), 0);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(sub(0, 1, Q), Q - 1);
        assert_eq!(sub(5, 5, Q), 0);
        assert_eq!(sub(3, 7, Q), Q - 4);
    }

    #[test]
    fn mul_matches_naive() {
        for a in (0..Q).step_by(997) {
            for b in (0..Q).step_by(1009) {
                assert_eq!(mul(a, b, Q), (a * b) % Q);
            }
        }
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(pow(2, 10, Q), 1024);
        assert_eq!(pow(3, 0, Q), 1);
        assert_eq!(pow(0, 5, Q), 0);
        // Fermat: a^(q-1) = 1 for prime q.
        assert_eq!(pow(7, Q - 1, Q), 1);
    }

    #[test]
    fn pow_modulus_one() {
        assert_eq!(pow(5, 3, 1), 0);
    }

    #[test]
    fn inv_roundtrip() {
        for a in 1..2000u64 {
            let ai = inv(a, Q).expect("prime modulus: everything invertible");
            assert_eq!(mul(a, ai, Q), 1, "a = {a}");
        }
    }

    #[test]
    fn inv_zero_fails() {
        assert!(matches!(inv(0, Q), Err(Error::NotInvertible { .. })));
    }

    #[test]
    fn inv_composite_modulus() {
        // gcd(4, 12) = 4: not invertible.
        assert!(inv(4, 12).is_err());
        // gcd(5, 12) = 1: invertible.
        let i = inv(5, 12).unwrap();
        assert_eq!((5 * i) % 12, 1);
    }

    #[test]
    fn neg_involution() {
        for a in 0..100 {
            assert_eq!(neg(neg(a, Q), Q), a);
        }
    }

    #[test]
    fn zq_ops() {
        let a = Zq::new(Q + 5, Q);
        assert_eq!(a.value(), 5);
        let b = Zq::new(Q - 1, Q);
        assert_eq!((a + b).value(), 4);
        assert_eq!((a - b).value(), 6);
        assert_eq!((a * b).value(), mul(5, Q - 1, Q));
        assert_eq!((-a).value(), Q - 5);
        assert_eq!(a.pow(2).value(), 25);
        assert_eq!((a.inv().unwrap() * a).value(), 1);
    }

    #[test]
    #[should_panic(expected = "mismatched moduli")]
    fn zq_mixed_moduli_panics() {
        let _ = Zq::new(1, 17) + Zq::new(1, 19);
    }

    #[test]
    fn zq_display_nonempty() {
        let s = format!("{}", Zq::new(3, 17));
        assert!(s.contains('3') && s.contains("17"));
    }
}
