//! Reference Number Theoretic Transform library.
//!
//! This crate is the *software* (word-level) implementation of the
//! polynomial arithmetic that CryptoPIM accelerates. It serves three
//! roles in the reproduction:
//!
//! 1. the correctness oracle the PIM simulator is verified against,
//! 2. the CPU baseline measured in the Table II comparison, and
//! 3. the arithmetic backend of the RLWE example schemes.
//!
//! Modules:
//!
//! * [`poly`] — the [`poly::Polynomial`] type over `Z_q[x]/(x^n + 1)`.
//! * [`gs`] — the Gentleman–Sande in-place NTT of the paper's
//!   Algorithm 2 (bit-reversed input, natural output, stage-doubling
//!   butterfly distance, bit-reversed twiddle table) in strict canonical
//!   arithmetic: the transform oracle.
//! * [`merged`] — merged-twiddle (`ψ`-folded) CT/GS kernels: the
//!   scale-free, permute-free hot path the multiplier runs on.
//! * [`negacyclic`] — the full NTT-based negacyclic multiplier of
//!   Algorithm 1, plus the [`negacyclic::PolyMultiplier`] trait that lets
//!   callers swap in the PIM-backed multiplier.
//! * [`schoolbook`] — the O(n²) negacyclic multiplier used as the oracle.
//! * [`dft`] — an O(n²) DFT-by-definition oracle for transform tests.
//! * [`karatsuba`] — the sub-quadratic multiplier between schoolbook
//!   and NTT, for the software crossover measurement and as an oracle.
//! * [`rns`] — residue-number-system multiplication over several
//!   NTT-friendly primes for moduli wider than one machine word.
//!
//! There is one software multiply path: [`merged`] kernels under
//! [`negacyclic::NttMultiplier`], one job or a stacked batch.
//!
//! # Example
//!
//! ```
//! use modmath::params::ParamSet;
//! use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
//! use ntt::poly::Polynomial;
//!
//! # fn main() -> Result<(), ntt::Error> {
//! let params = ParamSet::for_degree(256)?;
//! let mult = NttMultiplier::new(&params)?;
//! let a = Polynomial::from_coeffs(vec![1; 256], params.q)?;
//! let b = Polynomial::from_coeffs(vec![2; 256], params.q)?;
//! let c = mult.multiply(&a, &b)?;
//! assert_eq!(c.degree_bound(), 256);
//! # Ok(())
//! # }
//! ```

pub mod dft;
pub mod gs;
pub mod karatsuba;
pub mod merged;
pub mod negacyclic;
pub mod poly;
pub mod rns;
pub mod schoolbook;

/// Errors from this crate are the shared `modmath` error type: every
/// failure mode (bad degree, unfriendly modulus, …) originates there.
pub use modmath::Error;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, Error>;
