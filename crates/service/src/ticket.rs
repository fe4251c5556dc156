//! The one completion handle of the serving layer: a [`Ticket`] is the
//! waiting side of a one-shot result slot, and a crate-private
//! [`Fulfiller`] is its writing side. An op resolves a
//! [`crate::ProtocolTicket`] (`Ticket<ProtocolCompleted>`). Leaf
//! multiplies have no ticket: a batch stores their results in the
//! scheduler state by leaf id, where their round takes them.
//!
//! A ticket always resolves: a fulfiller dropped without a result — the
//! thread running the op unwound — resolves its slot with
//! [`ServiceError::Internal`], so no waiter can hang on an orphaned op.
//!
//! A ticket may also carry its op's queued work ([`Claim`]): a waiting
//! thread then runs the op itself if no other thread has claimed it
//! yet, instead of sleeping until one does.

use crate::error::ServiceError;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct Slot<T> {
    result: Mutex<Option<Result<T, ServiceError>>>,
    done: Condvar,
}

/// Queued work a waiter may run on its own thread.
pub(crate) trait Claim: Send + Sync {
    /// Runs the work on the calling thread if no thread has claimed it
    /// yet; returns at once otherwise.
    fn run_if_unclaimed(&self);
}

/// Handle to one submitted job or op. Obtain the result with
/// [`Ticket::wait`] or [`Ticket::wait_timeout`].
pub struct Ticket<T> {
    slot: Arc<Slot<T>>,
    /// The job's queued work, which a waiter runs itself when it is
    /// still unclaimed; `None` when no waiter may run it.
    work: Option<Arc<dyn Claim>>,
}

/// The writing side of a [`Ticket`]: whoever executes the job resolves
/// it exactly once, consuming the fulfiller. Dropping it unresolved
/// resolves the ticket with [`ServiceError::Internal`].
pub(crate) struct Fulfiller<T> {
    /// `None` once [`Fulfiller::fulfil`] has stored the result.
    slot: Option<Arc<Slot<T>>>,
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
            work: None,
        },
        Fulfiller { slot: Some(slot) },
    )
}

impl<T> Fulfiller<T> {
    /// Stores the result and wakes every waiter.
    pub(crate) fn fulfil(mut self, result: Result<T, ServiceError>) {
        if let Some(slot) = self.slot.take() {
            slot.resolve(result);
        }
    }
}

impl<T> Drop for Fulfiller<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.resolve(Err(ServiceError::Internal {
                detail: "job dropped without a result: the thread running it unwound".into(),
            }));
        }
    }
}

impl<T> Slot<T> {
    fn resolve(&self, result: Result<T, ServiceError>) {
        // Poison-tolerant: a fulfiller may drop while its thread unwinds.
        *self.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.done.notify_all();
    }
}

impl<T> Ticket<T> {
    /// Attaches the job's queued work, so a waiter runs it itself when
    /// no other thread has claimed it yet.
    pub(crate) fn with_work(mut self, work: Arc<dyn Claim>) -> Ticket<T> {
        self.work = Some(work);
        self
    }

    fn run_if_unclaimed(&self) {
        if let Some(work) = &self.work {
            work.run_if_unclaimed();
        }
    }

    fn lock(&self) -> MutexGuard<'_, Option<Result<T, ServiceError>>> {
        // Poison-tolerant, like `Slot::resolve`: the slot holds a plain
        // value that no panicking holder can leave half-written.
        self.slot
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the job completes, returning its result and
    /// latency breakdown (or the typed failure). A protocol op still
    /// queued is first claimed and run on the calling thread.
    pub fn wait(self) -> Result<T, ServiceError> {
        self.run_if_unclaimed();
        let mut slot = self.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .slot
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
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
    ///
    /// Like `wait`, it first runs a still-queued protocol op on the
    /// calling thread; the call then returns that op's result even when
    /// running it took longer than `timeout`.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<T, ServiceError> {
        let deadline = Instant::now() + timeout;
        self.run_if_unclaimed();
        let mut slot = self.lock();
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
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Whether the job has completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.lock().is_some()
    }
}

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &self.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Work that resolves its ticket when run, counting its runs.
    struct Resolve {
        fulfiller: Mutex<Option<Fulfiller<u32>>>,
        runs: std::sync::atomic::AtomicU32,
    }

    impl Claim for Resolve {
        fn run_if_unclaimed(&self) {
            if let Some(f) = self.fulfiller.lock().unwrap().take() {
                self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                f.fulfil(Ok(9));
            }
        }
    }

    #[test]
    fn a_waiter_runs_unclaimed_work_before_it_sleeps() {
        let (t, f) = ticket::<u32>();
        let work = Arc::new(Resolve {
            fulfiller: Mutex::new(Some(f)),
            runs: Default::default(),
        });
        let t = t.with_work(Arc::clone(&work) as Arc<dyn Claim>);
        assert!(!t.is_done(), "polling never runs the work");
        // A zero timeout still returns: the wait ran the work itself.
        assert_eq!(t.wait_timeout(Duration::ZERO), Ok(9));
        assert_eq!(
            t.wait_timeout(Duration::from_millis(1)),
            Err(ServiceError::WaitTimeout { timeout_ms: 1 })
        );
        drop(t);
        assert_eq!(work.runs.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn dropped_fulfiller_resolves_internal_and_fulfilled_one_does_not() {
        let (t, f) = ticket::<u32>();
        assert!(!t.is_done());
        drop(f);
        assert!(t.is_done(), "an orphaned slot resolves at once");
        assert!(matches!(
            t.wait_timeout(Duration::from_secs(5)),
            Err(ServiceError::Internal { .. })
        ));

        // A fulfilled result is the one that resolves; once a wait took
        // it the slot reads as never completed, not as Internal.
        let (t, f) = ticket::<u32>();
        f.fulfil(Ok(7));
        assert_eq!(t.wait_timeout(Duration::from_secs(5)), Ok(7));
        assert_eq!(
            t.wait_timeout(Duration::from_millis(1)),
            Err(ServiceError::WaitTimeout { timeout_ms: 1 })
        );

        // A waiter blocked on another thread wakes when its fulfiller
        // is dropped by an unwinding thread.
        let (t, f) = ticket::<u32>();
        let waiter = std::thread::spawn(move || t.wait_timeout(Duration::from_secs(30)));
        let unwound = std::thread::spawn(move || {
            let _held = f;
            panic!("batch unwound");
        })
        .join();
        assert!(unwound.is_err());
        assert!(matches!(
            waiter.join().expect("waiter returns"),
            Err(ServiceError::Internal { .. })
        ));
    }
}
