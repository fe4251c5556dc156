//! Polynomials over `Z_q[x]/(x^n + 1)`.

use modmath::{zq, Error};

/// A polynomial with coefficients in `Z_q`, of degree below `n`
/// (`n` a power of two), i.e. an element of `Z_q[x]/(x^n + 1)`.
///
/// Coefficients are stored in natural order: `coeffs[i]` is the
/// coefficient of `x^i`, always canonical in `[0, q)`.
///
/// # Example
///
/// ```
/// use ntt::poly::Polynomial;
///
/// # fn main() -> Result<(), ntt::Error> {
/// let p = Polynomial::from_coeffs(vec![3, 1, 4, 1], 17)?;
/// assert_eq!(p.coeff(2), 4);
/// let q = p.clone() + p.clone();
/// assert_eq!(q.coeff(2), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Polynomial {
    coeffs: Vec<u64>,
    q: u64,
}

/// `c mod q` in `[0, q)`, equal to `c.rem_euclid(q as i64)`. Samplers
/// produce `|c| < q`, which takes the branch-free `c + (q & (c >> 63))`
/// (the arithmetic shift is all ones exactly when `c < 0`) instead of a
/// 64-bit division per coefficient; any other `c` falls back to
/// `rem_euclid`. Samplers write their draws through it straight into a
/// canonical coefficient vector ([`Polynomial::from_canonical_coeffs`]).
#[inline]
pub fn signed_residue(c: i64, q: u64) -> u64 {
    let qi = q as i64;
    if qi > 0 && c.unsigned_abs() < q {
        c.wrapping_add(qi & (c >> 63)) as u64
    } else {
        c.rem_euclid(qi) as u64
    }
}

impl Polynomial {
    /// The zero polynomial of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] when `n` is not a power of two
    /// of at least 2.
    pub fn zero(n: usize, q: u64) -> Result<Self, Error> {
        if !n.is_power_of_two() || n < 2 {
            return Err(Error::InvalidDegree { n });
        }
        Ok(Polynomial {
            coeffs: vec![0; n],
            q,
        })
    }

    /// Builds a polynomial from coefficients, reducing each into `[0, q)`.
    ///
    /// The coefficients are compared against `q` first and the `%` sweep
    /// runs only if some coefficient is not canonical, so canonical input
    /// (the common case: operands off the wire or out of another
    /// polynomial) costs one compare per coefficient, not one division.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] when the length is not a power of
    /// two of at least 2.
    pub fn from_coeffs(mut coeffs: Vec<u64>, q: u64) -> Result<Self, Error> {
        let n = coeffs.len();
        if !n.is_power_of_two() || n < 2 {
            return Err(Error::InvalidDegree { n });
        }
        if coeffs.iter().any(|&c| c >= q) {
            for c in &mut coeffs {
                *c %= q;
            }
        }
        Ok(Polynomial { coeffs, q })
    }

    /// Builds a polynomial from coefficients that are already canonical
    /// (`< q`), skipping the reduction pass of [`from_coeffs`].
    ///
    /// For hot paths (e.g. wrapping engine output, which is canonical
    /// by construction) where the O(n) `%` sweep is measurable.
    /// Canonicity is the caller's contract — debug builds assert it.
    ///
    /// [`from_coeffs`]: Polynomial::from_coeffs
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] when the length is not a power
    /// of two of at least 2.
    pub fn from_canonical_coeffs(coeffs: Vec<u64>, q: u64) -> Result<Self, Error> {
        let n = coeffs.len();
        if !n.is_power_of_two() || n < 2 {
            return Err(Error::InvalidDegree { n });
        }
        debug_assert!(
            coeffs.iter().all(|&c| c < q),
            "from_canonical_coeffs requires coefficients in [0, q)"
        );
        Ok(Polynomial { coeffs, q })
    }

    /// Builds a polynomial from signed coefficients (e.g. sampled noise),
    /// mapping negatives to `q − |c|`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] when the length is invalid.
    pub fn from_signed_coeffs(coeffs: &[i64], q: u64) -> Result<Self, Error> {
        let mapped = coeffs.iter().map(|&c| signed_residue(c, q)).collect();
        Polynomial::from_coeffs(mapped, q)
    }

    /// The ring degree `n` (number of coefficients; all polynomials in
    /// the ring have degree strictly below this).
    #[inline]
    pub fn degree_bound(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Checks that the polynomial is reduced modulo `q`: a multiplier
    /// configured for `q` would otherwise return a product in the
    /// wrong ring.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ModulusMismatch`] when the moduli differ.
    pub fn expect_modulus(&self, q: u64) -> Result<(), Error> {
        if self.q == q {
            Ok(())
        } else {
            Err(Error::ModulusMismatch {
                expected: q,
                found: self.q,
            })
        }
    }

    /// The coefficient of `x^i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[inline]
    pub fn coeff(&self, i: usize) -> u64 {
        self.coeffs[i]
    }

    /// All coefficients in natural order.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Consumes the polynomial, returning its coefficient vector.
    #[inline]
    pub fn into_coeffs(self) -> Vec<u64> {
        self.coeffs
    }

    /// Maps each coefficient to its centered representative in
    /// `(−q/2, q/2]`, useful for decoding noisy RLWE payloads.
    pub fn to_centered(&self) -> Vec<i64> {
        self.centered().collect()
    }

    /// The centered representatives of [`to_centered`], in order, without
    /// collecting them.
    ///
    /// [`to_centered`]: Polynomial::to_centered
    pub fn centered(&self) -> impl Iterator<Item = i64> + '_ {
        let (q, half) = (self.q, self.q / 2);
        self.coeffs.iter().map(move |&c| {
            if c > half {
                c as i64 - q as i64
            } else {
                c as i64
            }
        })
    }

    /// Multiplies every coefficient by the scalar `s`.
    pub fn scale(&self, s: u64) -> Polynomial {
        let s = s % self.q;
        Polynomial {
            coeffs: self.coeffs.iter().map(|&c| zq::mul(c, s, self.q)).collect(),
            q: self.q,
        }
    }

    /// True if every coefficient is zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }
}

impl std::fmt::Display for Polynomial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Polynomial(n = {}, q = {}, [{} …])",
            self.coeffs.len(),
            self.q,
            self.coeffs
                .iter()
                .take(4)
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// `Add` and `Sub` write into the left operand's buffer, so a chain like
/// `a·r + e₁ + m` allocates nothing beyond its product.
impl std::ops::Add for Polynomial {
    type Output = Polynomial;

    fn add(mut self, rhs: Polynomial) -> Polynomial {
        assert_eq!(self.q, rhs.q, "mismatched moduli");
        assert_eq!(self.coeffs.len(), rhs.coeffs.len(), "mismatched degrees");
        let q = self.q;
        for (a, &b) in self.coeffs.iter_mut().zip(&rhs.coeffs) {
            *a = zq::add(*a, b, q);
        }
        self
    }
}

impl std::ops::Sub for Polynomial {
    type Output = Polynomial;

    fn sub(mut self, rhs: Polynomial) -> Polynomial {
        assert_eq!(self.q, rhs.q, "mismatched moduli");
        assert_eq!(self.coeffs.len(), rhs.coeffs.len(), "mismatched degrees");
        let q = self.q;
        for (a, &b) in self.coeffs.iter_mut().zip(&rhs.coeffs) {
            *a = zq::sub(*a, b, q);
        }
        self
    }
}

impl std::ops::Neg for Polynomial {
    type Output = Polynomial;

    fn neg(self) -> Polynomial {
        let q = self.q;
        Polynomial {
            coeffs: self.coeffs.iter().map(|&c| zq::neg(c, q)).collect(),
            q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        let p = Polynomial::from_coeffs(vec![20, 17, 0, 1], 17).unwrap();
        assert_eq!(p.coeffs(), &[3, 0, 0, 1]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Skipping the sweep on canonical input changes nothing: any
        /// mix of canonical and non-canonical coefficients, including
        /// none of either, reduces exactly like the unconditional `%`.
        #[test]
        fn prop_from_coeffs_reduces_exactly(
            q in 1u64..u64::MAX,
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 64),
            canonical_mask in proptest::prelude::any::<u64>(),
        ) {
            let coeffs: Vec<u64> = raw
                .iter()
                .enumerate()
                .map(|(i, &c)| if canonical_mask >> i & 1 == 1 { c % q } else { c })
                .collect();
            let expected: Vec<u64> = coeffs.iter().map(|&c| c % q).collect();
            let p = Polynomial::from_coeffs(coeffs, q).unwrap();
            proptest::prop_assert_eq!(p.coeffs(), &expected[..]);
            let canonical = Polynomial::from_coeffs(expected.clone(), q).unwrap();
            proptest::prop_assert_eq!(canonical.coeffs(), &expected[..]);
        }
    }

    #[test]
    fn invalid_lengths() {
        assert!(Polynomial::zero(0, 17).is_err());
        assert!(Polynomial::zero(1, 17).is_err());
        assert!(Polynomial::zero(3, 17).is_err());
        assert!(Polynomial::from_coeffs(vec![1, 2, 3], 17).is_err());
    }

    #[test]
    fn canonical_construction_skips_reduction() {
        let p = Polynomial::from_canonical_coeffs(vec![3, 0, 16, 1], 17).unwrap();
        assert_eq!(p.coeffs(), &[3, 0, 16, 1]);
        assert!(Polynomial::from_canonical_coeffs(vec![1, 2, 3], 17).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "requires coefficients in [0, q)")]
    fn canonical_construction_asserts_canonicity() {
        let _ = Polynomial::from_canonical_coeffs(vec![17, 0, 0, 0], 17);
    }

    #[test]
    fn signed_residue_is_rem_euclid() {
        let mut qs: Vec<u64> = modmath::params::PAPER_DEGREES
            .iter()
            .map(|&n| modmath::params::ParamSet::for_degree(n).unwrap().q)
            .collect();
        qs.dedup();
        // Beyond the paper: the largest fast-path modulus and one past
        // it, where `q as i64` is negative and the fallback must run.
        qs.extend([17, i64::MAX as u64, i64::MAX as u64 + 2]);
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for q in qs {
            let qi = q as i64;
            let mut cases = vec![
                0,
                1,
                -1,
                qi.wrapping_sub(1),
                1i64.wrapping_sub(qi),
                qi,
                qi.wrapping_neg(),
                i64::MIN,
                i64::MAX,
            ];
            for _ in 0..2000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Alternately anywhere in i64 and inside (−q, q).
                let r = x as i64;
                cases.push(r);
                cases.push(r % qi.max(1));
            }
            for c in cases {
                assert_eq!(
                    signed_residue(c, q),
                    c.rem_euclid(qi) as u64,
                    "c = {c}, q = {q}"
                );
            }
        }
    }

    /// The in-place `Add`/`Sub` and the `centered` iterator equal
    /// per-coefficient reference formulas collected into fresh vectors,
    /// at q = 17 and every paper q, including the values on both sides
    /// of q/2.
    #[test]
    fn in_place_ops_and_centered_match_the_allocating_formulas() {
        let mut qs: Vec<u64> = modmath::params::PAPER_DEGREES
            .iter()
            .map(|&n| modmath::params::ParamSet::for_degree(n).unwrap().q)
            .collect();
        qs.dedup();
        qs.push(17);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for q in qs {
            let mut draw = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % q
            };
            let mut a: Vec<u64> = (0..256).map(|_| draw()).collect();
            let b: Vec<u64> = (0..256).map(|_| draw()).collect();
            a[..6].copy_from_slice(&[0, 1, q / 2, q / 2 + 1, q - 1, q - 2]);
            let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| zq::add(x, y, q)).collect();
            let diff: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| zq::sub(x, y, q)).collect();
            let centered: Vec<i64> = a
                .iter()
                .map(|&c| {
                    if c > q / 2 {
                        c as i64 - q as i64
                    } else {
                        c as i64
                    }
                })
                .collect();
            let pa = Polynomial::from_coeffs(a, q).unwrap();
            let pb = Polynomial::from_coeffs(b, q).unwrap();
            assert_eq!(pa.to_centered(), centered, "q = {q}");
            assert_eq!(pa.centered().collect::<Vec<_>>(), centered, "q = {q}");
            assert_eq!((pa.clone() + pb.clone()).coeffs(), &sum[..], "q = {q}");
            assert_eq!((pa - pb).coeffs(), &diff[..], "q = {q}");
        }
    }

    #[test]
    fn signed_construction() {
        let p = Polynomial::from_signed_coeffs(&[-1, -17, 2, 0], 17).unwrap();
        assert_eq!(p.coeffs(), &[16, 0, 2, 0]);
    }

    #[test]
    fn centered_roundtrip() {
        let p = Polynomial::from_signed_coeffs(&[-3, 3, 0, -8], 17).unwrap();
        assert_eq!(p.to_centered(), vec![-3, 3, 0, -8]);
    }

    #[test]
    fn add_sub_neg() {
        let q = 17;
        let a = Polynomial::from_coeffs(vec![1, 2, 3, 4], q).unwrap();
        let b = Polynomial::from_coeffs(vec![16, 16, 16, 16], q).unwrap();
        let s = a.clone() + b.clone();
        assert_eq!(s.coeffs(), &[0, 1, 2, 3]);
        let d = a.clone() - b.clone();
        assert_eq!(d.coeffs(), &[2, 3, 4, 5]);
        let n = -a.clone();
        assert_eq!(n.coeffs(), &[16, 15, 14, 13]);
        assert!((a.clone() - a).is_zero());
    }

    #[test]
    fn scale_matches_repeated_add() {
        let q = 17;
        let a = Polynomial::from_coeffs(vec![1, 2, 3, 4], q).unwrap();
        let tripled = a.scale(3);
        assert_eq!(tripled.coeffs(), &[3, 6, 9, 12]);
        assert_eq!(a.scale(0).coeffs(), &[0, 0, 0, 0]);
        assert_eq!(a.scale(q).coeffs(), &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "mismatched moduli")]
    fn add_mixed_moduli_panics() {
        let a = Polynomial::zero(4, 17).unwrap();
        let b = Polynomial::zero(4, 19).unwrap();
        let _ = a + b;
    }

    #[test]
    fn display_is_nonempty() {
        let p = Polynomial::zero(4, 17).unwrap();
        assert!(!format!("{p}").is_empty());
    }
}
