//! Typed failures of the serving layer.
//!
//! Admission failures ([`ServiceError::Overloaded`],
//! [`ServiceError::ShuttingDown`], [`ServiceError::UnsupportedJob`]) are
//! returned synchronously from [`crate::Service::submit_protocol`];
//! execution failures surface asynchronously through the op's
//! [`crate::ProtocolTicket`]. An op's failed leaf keeps its own error
//! inside [`ServiceError::ProtocolNode`], so a front end classifies a
//! raw multiply (the one-node [`crate::ProtocolJob::Mul`]) and any other
//! op by the same inner variant; the TCP server maps both through one
//! `ServiceError → ErrorCode` function. A job lost to a panic inside the service resolves with
//! [`ServiceError::Internal`] rather than leaving its waiter hanging.

use pim::PimError;
use std::fmt;

/// Errors produced by the job scheduler.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// A bounded admission queue is full and the service runs the
    /// [`crate::Backpressure::Reject`] policy, or every bank is
    /// quarantined. The op or job was **not** admitted; the caller may
    /// retry later.
    Overloaded {
        /// Configured admission capacity
        /// ([`crate::ServiceConfig::queue_capacity`]).
        capacity: usize,
    },
    /// The service is draining for shutdown and admits no new jobs.
    ShuttingDown,
    /// The job's `(n, q)` pair has no accelerator configuration (the
    /// degree is outside the paper table, or the modulus does not match
    /// the paper's assignment for that degree).
    UnsupportedJob {
        /// Degree of the submitted pair.
        n: usize,
        /// Modulus of the submitted pair.
        q: u64,
    },
    /// The operands of one submitted pair disagree in degree.
    PairMismatch {
        /// Degree of the left operand.
        left: usize,
        /// Degree of the right operand.
        right: usize,
    },
    /// An accelerator-level failure while executing the formed batch.
    Pim(PimError),
    /// [`crate::Ticket::wait_timeout`] gave up before the job
    /// completed. The job is still queued or executing — the ticket
    /// stays valid and a later wait can still collect the result. This
    /// is what lets a network front end bound how long one job may
    /// occupy a connection-handler thread.
    WaitTimeout {
        /// The timeout that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// Residue checking flagged the job's product as corrupt on every
    /// one of its execution attempts
    /// ([`crate::ServiceConfig::max_attempts`]). The corrupt products
    /// were discarded — a wrong answer is never returned — and the
    /// faulting bank is a quarantine candidate. Note that a fully
    /// quarantined fleet surfaces as [`ServiceError::Overloaded`], not
    /// as this variant: the job was refused, not executed.
    FaultUnrecovered {
        /// Bank that executed (and corrupted) the final attempt.
        bank: u32,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// One NTT-multiply node of a protocol job graph failed; the parent
    /// [`crate::ProtocolTicket`] fails as a whole but the error names
    /// the node (in the op's multiply order) so callers can see *which*
    /// inner product broke. A detected fault in a node retries that
    /// node alone through the ordinary batch machinery — this variant
    /// surfaces only when the node itself failed terminally. A wide
    /// multiply's nodes are its residue lanes, in basis order.
    ProtocolNode {
        /// Index of the failed multiply node within the protocol op.
        node: usize,
        /// The node's coefficient modulus.
        q: u64,
        /// The node's underlying failure.
        error: Box<ServiceError>,
    },
    /// A host-side step of a protocol op failed (rejection-sampling
    /// exhaustion, a ring too small for the KEM message, an operand
    /// mismatch inside the op) — nothing was wrong with the accelerator
    /// path.
    ProtocolHost {
        /// Human-readable description of the host-op failure.
        detail: String,
    },
    /// The job was lost inside the service: the batch or executor
    /// holding it unwound before producing a result. The ticket
    /// resolves with this instead of hanging; the job's bank is
    /// released and the service keeps serving.
    Internal {
        /// Human-readable description of what was lost.
        detail: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { capacity } => {
                write!(
                    f,
                    "admission queue full ({capacity} jobs) or every bank quarantined; job rejected"
                )
            }
            ServiceError::ShuttingDown => {
                write!(f, "service is shutting down; job rejected")
            }
            ServiceError::UnsupportedJob { n, q } => {
                write!(f, "no accelerator configuration for n = {n}, q = {q}")
            }
            ServiceError::PairMismatch { left, right } => {
                write!(f, "pair operand degrees differ: {left} vs {right}")
            }
            ServiceError::Pim(e) => write!(f, "accelerator failure: {e}"),
            ServiceError::WaitTimeout { timeout_ms } => {
                write!(
                    f,
                    "job not complete within {timeout_ms} ms; ticket still valid"
                )
            }
            ServiceError::FaultUnrecovered { bank, attempts } => {
                write!(
                    f,
                    "corrupt product on bank {bank} persisted through {attempts} attempts; result discarded"
                )
            }
            ServiceError::ProtocolNode { node, q, error } => {
                write!(f, "protocol graph node {node} (q = {q}) failed: {error}")
            }
            ServiceError::ProtocolHost { detail } => {
                write!(f, "protocol host op failed: {detail}")
            }
            ServiceError::Internal { detail } => write!(f, "internal service error: {detail}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Pim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PimError> for ServiceError {
    fn from(e: PimError) -> Self {
        ServiceError::Pim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(ServiceError::Overloaded { capacity: 8 }
            .to_string()
            .contains("8 jobs"));
        assert!(ServiceError::ShuttingDown.to_string().contains("shutting"));
        assert!(ServiceError::UnsupportedJob { n: 100, q: 17 }
            .to_string()
            .contains("n = 100"));
        assert!(ServiceError::PairMismatch { left: 4, right: 8 }
            .to_string()
            .contains("4 vs 8"));
        assert!(ServiceError::Pim(PimError::EmptyBatch)
            .to_string()
            .contains("zero jobs"));
        assert!(ServiceError::WaitTimeout { timeout_ms: 250 }
            .to_string()
            .contains("250 ms"));
        assert!(ServiceError::FaultUnrecovered {
            bank: 3,
            attempts: 2
        }
        .to_string()
        .contains("bank 3"));
        let node = ServiceError::ProtocolNode {
            node: 1,
            q: 12289,
            error: Box::new(ServiceError::FaultUnrecovered {
                bank: 0,
                attempts: 3,
            }),
        };
        assert!(node.to_string().contains("node 1"));
        assert!(node.to_string().contains("12289"));
        assert!(node.to_string().contains("bank 0"));
        assert!(ServiceError::ProtocolHost {
            detail: "rejection sampling exhausted".into()
        }
        .to_string()
        .contains("rejection sampling"));
        assert!(ServiceError::Internal {
            detail: "batch unwound".into()
        }
        .to_string()
        .contains("batch unwound"));
    }

    #[test]
    fn pim_source_is_chained() {
        use std::error::Error;
        let e = ServiceError::Pim(PimError::EmptyBatch);
        assert!(e.source().is_some());
        assert!(ServiceError::ShuttingDown.source().is_none());
    }
}
