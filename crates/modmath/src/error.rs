use std::fmt;

/// Errors produced by the `modmath` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The requested polynomial degree is not a power of two, or is outside
    /// the supported range.
    InvalidDegree {
        /// The offending degree.
        n: usize,
    },
    /// The modulus does not satisfy `q ≡ 1 (mod 2n)`, so no 2n-th root of
    /// unity exists and the negacyclic NTT is undefined.
    NoRootOfUnity {
        /// Modulus that was checked.
        q: u64,
        /// Required multiplicative order.
        order: u64,
    },
    /// The modulus is not prime (required for inverses via Fermat).
    NotPrime {
        /// The composite modulus.
        q: u64,
    },
    /// A value that must be invertible modulo `q` is not (e.g. 0).
    NotInvertible {
        /// The non-invertible value.
        value: u64,
        /// The modulus.
        q: u64,
    },
    /// No shift-add reduction sequence is defined for this modulus; only
    /// q ∈ {7681, 12289, 786433} are specialized by the paper.
    UnsupportedModulus {
        /// The modulus without a specialized sequence.
        q: u64,
    },
    /// The modulus is too large for the word-level arithmetic used here.
    ModulusTooLarge {
        /// The oversized modulus.
        q: u64,
    },
    /// An RNS basis needs between 2 and 4 residue channels.
    BasisSize {
        /// The rejected channel count.
        k: usize,
    },
    /// Two RNS basis moduli share a common factor, so the Chinese
    /// remainder map is not a bijection (for prime moduli this means a
    /// duplicate).
    NotCoprime {
        /// One offending modulus.
        a: u64,
        /// The other offending modulus.
        b: u64,
    },
    /// The product of the RNS basis moduli overflows `u128`, the widest
    /// composite modulus the combine arithmetic supports.
    BasisOverflow,
    /// An operand is reduced modulo a different modulus than the one
    /// the operation is configured for.
    ModulusMismatch {
        /// The configured modulus.
        expected: u64,
        /// The operand's modulus.
        found: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidDegree { n } => {
                write!(f, "degree {n} is not a supported power of two")
            }
            Error::NoRootOfUnity { q, order } => {
                write!(f, "no element of order {order} exists modulo {q}")
            }
            Error::NotPrime { q } => write!(f, "modulus {q} is not prime"),
            Error::NotInvertible { value, q } => {
                write!(f, "{value} is not invertible modulo {q}")
            }
            Error::UnsupportedModulus { q } => {
                write!(f, "no specialized shift-add reduction for modulus {q}")
            }
            Error::ModulusTooLarge { q } => {
                write!(f, "modulus {q} exceeds the supported word size")
            }
            Error::BasisSize { k } => {
                write!(f, "RNS basis needs 2..=4 residue channels, got {k}")
            }
            Error::NotCoprime { a, b } => {
                write!(f, "RNS basis moduli {a} and {b} are not coprime")
            }
            Error::BasisOverflow => {
                write!(f, "product of RNS basis moduli overflows u128")
            }
            Error::ModulusMismatch { expected, found } => {
                write!(
                    f,
                    "operand modulus {found} differs from the configured {expected}"
                )
            }
        }
    }
}

impl std::error::Error for Error {}
