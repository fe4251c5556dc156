//! Comparison baselines for the CryptoPIM evaluation.
//!
//! * [`bp`] — the three PIM baselines of §IV-C / Fig. 6: BP-1 uses the
//!   operations of Haj-Ali et al. \[35\] on CryptoPIM's architecture, BP-2
//!   swaps in CryptoPIM's multiplier, BP-3 additionally converts the
//!   reductions to shift-and-add. All three are real configurations of
//!   the same simulator, so they compute correct products too.
//! * [`cpu`] — the X86 software baseline of Table II: the paper's gem5
//!   measurements as reference data, a fitted analytic cost model, and a
//!   native timing harness for the software NTT.
//! * [`fpga`] — the published FPGA numbers of \[19\] used in Table II
//!   (n ∈ {256, 512, 1024}).

pub mod bp;
pub mod cpu;
pub mod fpga;

pub use pim::PimError;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PimError>;
