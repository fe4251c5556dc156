//! CryptoPIM: the paper's contribution — an NTT-based polynomial
//! multiplier mapped onto ReRAM processing-in-memory hardware.
//!
//! The crate layers four concerns:
//!
//! * [`mapping`] — how Algorithm 1's data and constants are laid out in
//!   memory blocks: bit-reversal as a free write permutation, twiddles in
//!   bit-reversed order pre-scaled into Montgomery form so every
//!   in-memory multiplication can be followed by a plain REDC.
//! * [`engine`] — the functional executor: runs a real polynomial
//!   multiplication through [`pim::block::MemoryBlock`] operations,
//!   producing both the product (verified against the software NTT) and
//!   an operation-level cycle/energy trace.
//! * [`pipeline`] — the three pipeline organizations of Fig. 4
//!   (area-efficient, naive, CryptoPIM) and the analytic latency /
//!   throughput / energy model for pipelined and non-pipelined execution.
//! * [`arch`] — the configurable architecture of §III-D: banks,
//!   softbanks, superbanks, multi-pair packing for small degrees and
//!   iterative segmentation above 32k.
//!
//! The top-level entry point is [`accelerator::CryptoPim`], which
//! implements [`ntt::negacyclic::PolyMultiplier`] so RLWE schemes can use
//! the accelerator as a drop-in backend.
//!
//! # Example
//!
//! ```
//! use cryptopim::accelerator::CryptoPim;
//! use modmath::params::ParamSet;
//! use ntt::poly::Polynomial;
//!
//! # fn main() -> Result<(), cryptopim::PimError> {
//! let params = ParamSet::for_degree(256)?;
//! let acc = CryptoPim::new(&params)?;
//! let a = Polynomial::from_coeffs(vec![1; 256], params.q)?;
//! let b = Polynomial::from_coeffs(vec![2; 256], params.q)?;
//! let product = acc.multiply_product(&a, &b)?;
//! let report = acc.report()?;
//! assert_eq!(product.degree_bound(), 256);
//! assert!(report.pipelined.latency_us > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod accelerator;
pub mod arch;
pub mod area;
pub mod batch;
pub mod check;
pub mod engine;
pub mod exchange;
pub mod hotcache;
pub mod mapping;
pub mod phase;
pub mod pipeline;
pub mod plan;
pub mod report;
pub mod schedule;
pub mod scratch;

pub use pim::PimError;

/// Convenience result alias (shared with the `pim` substrate).
pub type Result<T> = std::result::Result<T, PimError>;
