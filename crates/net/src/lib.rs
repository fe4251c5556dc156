//! TCP front end for the CryptoPIM scheduler.
//!
//! Everything below `crates/service` speaks Rust types in one process;
//! this crate puts a socket in front of it so the scheduler serves
//! remote callers. Four modules:
//!
//! - [`wire`] — the versioned, checksummed, length-prefixed binary
//!   frame format and its typed decode errors. Hostile bytes produce
//!   a [`wire::WireError`], never a panic or an unbounded allocation.
//! - [`server`] — a std-only TCP server (no async runtime): bounded
//!   acceptor, thread-per-connection handlers, per-tenant auth tokens
//!   and outstanding-job quotas layered over the scheduler's `Reject`
//!   backpressure, and a `Stats` verb exposing scheduler + net
//!   counters as JSON.
//! - [`client`] — a blocking client speaking the same frames, with
//!   server refusals surfaced as typed [`client::NetError::Server`]
//!   values.
//! - [`drive`] — the load driver: a seeded workload served over an
//!   in-process `Service` or over TCP clients, every op bit-verified
//!   against the software oracle, with exact client-observed latency
//!   quantiles. It lives here because this is the one crate that sees
//!   both transports. Backs `cli serve-loadgen`.
//!
//! The wire format is specified in `DESIGN.md` §15; the README's
//! "Networking" section has the two-command quickstart.

pub mod client;
pub mod drive;
pub mod server;
pub mod wire;

pub use client::{Client, DoneJob, NetError};
pub use drive::{DriveConfig, DriveError, DriveReport, Transport, Workload};
pub use server::{Server, ServerConfig, TenantConfig};
pub use wire::{ErrorCode, Frame, JobState, WireError};
