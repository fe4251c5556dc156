//! The one completion handle of the serving layer: a [`Ticket`] is the
//! waiting side of a one-shot result slot, and a crate-private
//! [`Fulfiller`] is its writing side. A raw multiply resolves a
//! [`crate::JobTicket`] (`Ticket<CompletedJob>`), a protocol op a
//! [`crate::ProtocolTicket`] (`Ticket<ProtocolCompleted>`); both wait,
//! time out and poll through this one implementation.

use crate::error::ServiceError;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Slot<T> {
    result: Mutex<Option<Result<T, ServiceError>>>,
    done: Condvar,
}

/// Handle to one submitted job or op. Obtain the result with
/// [`Ticket::wait`] or [`Ticket::wait_timeout`].
pub struct Ticket<T> {
    slot: Arc<Slot<T>>,
}

/// The writing side of a [`Ticket`]: whoever executes the job resolves
/// it exactly once, consuming the fulfiller.
pub(crate) struct Fulfiller<T> {
    slot: Arc<Slot<T>>,
}

/// A fresh, unresolved ticket and the fulfiller that resolves it.
pub(crate) fn ticket<T>() -> (Ticket<T>, Fulfiller<T>) {
    let slot = Arc::new(Slot {
        result: Mutex::new(None),
        done: Condvar::new(),
    });
    (
        Ticket {
            slot: Arc::clone(&slot),
        },
        Fulfiller { slot },
    )
}

impl<T> Fulfiller<T> {
    /// Stores the result and wakes every waiter.
    pub(crate) fn fulfil(self, result: Result<T, ServiceError>) {
        *self.slot.result.lock().expect("ticket poisoned") = Some(result);
        self.slot.done.notify_all();
    }
}

impl<T> Ticket<T> {
    /// Blocks until the job completes, returning its result and
    /// latency breakdown (or the typed failure).
    pub fn wait(self) -> Result<T, ServiceError> {
        let mut slot = self.slot.result.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.slot.done.wait(slot).expect("ticket poisoned");
        }
    }

    /// Blocks for at most `timeout`, returning the result if it
    /// resolved in time or [`ServiceError::WaitTimeout`] otherwise.
    ///
    /// Unlike [`wait`](Ticket::wait) this borrows the ticket, so a
    /// timed-out wait can be retried later — the job keeps executing
    /// and its eventual result stays claimable. This is the primitive
    /// the TCP front end builds on: a remote client's `Wait` verb can
    /// never wedge a connection-handler thread forever. A successful
    /// call *takes* the result; a second wait on the same ticket then
    /// behaves as if the job never completed (it times out).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<T, ServiceError> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.result.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ServiceError::WaitTimeout {
                    timeout_ms: timeout.as_millis() as u64,
                });
            }
            slot = self
                .slot
                .done
                .wait_timeout(slot, remaining)
                .expect("ticket poisoned")
                .0;
        }
    }

    /// Whether the job has completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.slot.result.lock().expect("ticket poisoned").is_some()
    }
}

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &self.is_done())
            .finish()
    }
}
