//! `cryptopim-service` — a multi-tenant, batch-forming job scheduler
//! that turns the CryptoPIM accelerator into a long-running server.
//!
//! The paper's throughput story (§III-D) is that a 32k-provisioned chip
//! packs `32k/n` independent degree-`n` multiplications side by side
//! and streams jobs back-to-back through the pipeline. The core crate
//! exposes that as the one-shot, caller-assembles-the-batch
//! [`cryptopim::batch::multiply_batch`]; this crate supplies the
//! serving discipline around it:
//!
//! * [`Service::submit_protocol`] — the one request path (a raw
//!   product is the one-node [`ProtocolJob::Mul`] op) behind a bounded
//!   queue with a configurable [`Backpressure`] policy (`Block` or
//!   `Reject`), so overload degrades gracefully instead of OOMing;
//! * a **batch former** that groups pending jobs by `(n, q)` parameter
//!   key and flushes when a group reaches the packed-lane capacity
//!   (`32k/n`, from [`cryptopim::arch::ArchConfig`]) *or* a max-linger
//!   deadline expires — the latency/occupancy trade-off of the paper's
//!   packing model, made explicit as [`ServiceConfig::linger`];
//! * a fleet of virtual **superbanks**, each claimed for one batch at a
//!   time by a thread running an op (its waiter or one of the
//!   `workers` backstop executors, the only threads the service
//!   spawns) while that op's leaf multiplies are unresolved, all
//!   through the verified engine path, so every product is
//!   bit-identical to a direct `CryptoPim::multiply`;
//! * graceful [`Service::shutdown`] that drains every admitted job;
//! * [`Service::stats`] — queue depth, admission counters, realized
//!   packed-lane occupancy, and p50/p95/p99 job latency from a
//!   fixed-bucket histogram, with
//!   [`ServiceStats::check_invariants`] for its counter identities.
//!
//! The [`workload`] module generates the seeded, deterministic op
//! streams — raw multiplies and protocol mixes — that the load driver
//! (`net::drive`, behind `cli serve-loadgen`), the fault campaign and
//! the integration suites submit.
//!
//! # Example
//!
//! ```
//! use service::{ProtocolJob, ProtocolOutput, Service, ServiceConfig};
//! use modmath::params::ParamSet;
//! use ntt::poly::Polynomial;
//!
//! let svc = Service::start(ServiceConfig::default());
//! let q = ParamSet::for_degree(256).unwrap().q;
//! let a = Polynomial::from_coeffs(vec![1; 256], q).unwrap();
//! let b = Polynomial::from_coeffs(vec![2; 256], q).unwrap();
//! let ticket = svc.submit_protocol(ProtocolJob::Mul { a, b }).unwrap();
//! let done = ticket.wait().unwrap(); // runs the op on this thread
//! let ProtocolOutput::Product(product) = done.output else { unreachable!() };
//! assert_eq!(product.degree_bound(), 256);
//! let stats = svc.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

pub mod error;
pub mod graph;
pub mod scheduler;
pub mod stats;
mod ticket;
pub mod workload;

/// The referee policy [`ServiceConfig::check`] selects.
pub use cryptopim::check::CheckPolicy;
/// The per-phase time counters, re-exported so front ends can report a
/// run window's engine/referee split without depending on the core
/// crate.
pub use cryptopim::phase;
pub use error::ServiceError;
pub use graph::{ProtocolCompleted, ProtocolJob, ProtocolKind, ProtocolOutput, ProtocolTicket};
pub use scheduler::{Backpressure, Service, ServiceConfig};
pub use stats::{LatencyHistogram, ProtocolLaneStats, ServiceStats};
pub use ticket::Ticket;
pub use workload::ProtocolMix;

/// Convenience result alias for service operations.
pub type Result<T> = std::result::Result<T, ServiceError>;
