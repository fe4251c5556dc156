//! The scheduler core: bounded admission → batch former → superbank
//! fleet.
//!
//! ```text
//!  submit(a, b) ──► admission queue ──► batch forming ──► formed-batch
//!   (bounded,        (jobs grouped       (flush on full,    queue
//!    Block/Reject)    by (n, q))          idle bank,          │
//!          ▲                              or linger)          ▼
//!          │                                  │       worker threads
//!  protocol op ───── run_leaves: idle bank? ──┘       claim a bank
//!  (its waiter or     yes → claim it, run the              │
//!   an executor)      eager batch inline ──► run_batch ◄───┘
//!                                           (S superbanks, one
//!  Ticket::wait ◄──── ticket fulfillment ◄── batch each at a time)
//! ```
//!
//! Batch forming is mostly *synchronous*: full groups and — whenever a
//! bank is idle — partial groups flush on the submitting thread, and a
//! worker finding a free bank self-serves the oldest pending partial. The
//! dedicated former thread handles only the one decision that needs a
//! clock, sealing saturated-fleet partials at their linger deadline.
//!
//! **Banks are claimed, not owned.** The `S` superbanks live in the
//! shared state, each with its accelerators and its fault-injector
//! write path. A bank runs one batch at a time for whichever thread
//! claimed it under the state lock: a worker thread draining the formed
//! queue, or the thread running a protocol op (its waiter or a graph
//! executor) whose eager flush found the bank idle — that thread runs
//! its own leaf batch ([`run_leaves`]) instead of handing it to a worker
//! and sleeping until the worker wakes it, so a protocol leaf round
//! costs no thread handoff. Both runners share one
//! claim/release path and one `run_batch`; the batches themselves are
//! formed exactly as before. At most `S` batches run at once, whoever
//! runs them.
//!
//! Everything is plain `std` — one mutex-guarded state struct plus
//! three condvars (`admit` for backpressure waiters, `former` for the
//! batch-forming thread, `work` for the worker threads), matching the
//! no-deps style of `pim::pool`.
//!
//! **Correctness contract.** Batching is a pure throughput mechanism:
//! every product is computed by the verified engine path
//! ([`cryptopim::batch::multiply_batch_products`] → `Engine`), each job
//! independently of its batch-mates, so products are bit-identical to a
//! direct [`CryptoPim::multiply`] of the same pair for any fleet size,
//! linger setting, or arrival order. `tests/service.rs` pins this with
//! a randomized mixed-degree proptest and a fleet-size determinism
//! sweep.

use crate::error::ServiceError;
use crate::stats::{LatencyHistogram, ProtocolLaneStats, ServiceStats};
use crate::ticket::{ticket, Fulfiller, Ticket};
use cryptopim::accelerator::CryptoPim;
use cryptopim::arch::ArchConfig;
use cryptopim::batch::multiply_batch_outcomes;
use cryptopim::check::CheckPolicy;
use cryptopim::hotcache::HotCache;
use modmath::params::ParamSet;
use modmath::primes;
use ntt::poly::Polynomial;
use pim::fault::{Injector, WritePath};
use pim::par::Threads;
use pim::PimError;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What `submit` does when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the submitting thread until space frees (no job is ever
    /// dropped; overload turns into submitter latency).
    Block,
    /// Fail fast with [`ServiceError::Overloaded`] (the caller owns the
    /// retry policy; overload turns into rejections, never into
    /// unbounded memory).
    Reject,
}

/// Tunables of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Virtual superbanks in the fleet, and the worker threads that
    /// drain formed batches onto them. A bank runs one batch at a time,
    /// single-threaded (the fleet itself is the parallelism), on
    /// whichever thread claimed it: a worker, or the thread running a
    /// protocol op's own leaf batch. The banks are therefore the
    /// host-thread budget for engine work, whichever thread runs them.
    pub workers: usize,
    /// Admission-queue bound: jobs admitted but not yet dispatched
    /// (pending in the former plus formed-but-unclaimed).
    pub queue_capacity: usize,
    /// Policy when the queue is full.
    pub backpressure: Backpressure,
    /// How long a partial batch may wait for batch-mates before it is
    /// flushed anyway. Batch forming is work-conserving: while the
    /// fleet has an idle bank and nothing queued, partial batches
    /// flush immediately regardless of this setting — linger only
    /// delays jobs once every bank is busy, which is exactly when
    /// waiting buys packed-lane occupancy (§III-D) for free. Larger
    /// values trade saturated-load latency for occupancy.
    pub linger: Duration,
    /// Result-integrity policy every bank applies to every product
    /// ([`CheckPolicy::Residue`] enables the cheap probabilistic
    /// residue screen, [`CheckPolicy::Recompute`] the sound software
    /// referee; the default [`CheckPolicy::Disabled`] is the historical
    /// unchecked hot path). With checking on, a detected-corrupt
    /// product never reaches a ticket: the job is retried up to
    /// [`ServiceConfig::max_attempts`] times and otherwise fails with
    /// [`ServiceError::FaultUnrecovered`].
    pub check: CheckPolicy,
    /// Execution attempts per job before a detected-corrupt result is
    /// surfaced as [`ServiceError::FaultUnrecovered`] (min 1). Retries
    /// requeue the job at the front of the formed queue, so transient
    /// faults recover with one extra batch trip.
    pub max_attempts: u32,
    /// Consecutive faulted batches after which a bank is
    /// quarantined — removed from the fleet for the service's lifetime
    /// (min 1). When every bank is quarantined the service degrades
    /// gracefully: queued jobs fail and new submissions return
    /// [`ServiceError::Overloaded`], never a wrong answer.
    pub quarantine_after: u32,
    /// Optional fault injector (campaigns and tests): each bank routes
    /// its block writes through [`Injector::bank_writes`]`(bank_index)`. `None` — the default
    /// and the production setting — leaves the write path untouched.
    pub injector: Option<Arc<dyn Injector>>,
    /// Capacity of the fleet-wide hot-operand transform cache
    /// ([`cryptopim::hotcache::HotCache`]): protocol-style workloads
    /// that reuse `a` operands (public/evaluation keys) skip the
    /// operand's forward NTT on both the engine and the `Recompute`
    /// referee path when it hits. `0` (the default) disables the cache.
    /// The cache is shared across workers and invalidated whenever a
    /// bank is quarantined.
    pub hot_capacity: usize,
    /// Graph executor threads for protocol ops submitted through
    /// [`Service::submit_protocol`] (min 1). An op normally runs on the
    /// thread that waits for it ([`crate::ProtocolTicket`]'s `wait` or
    /// `wait_timeout` claims it while it is still queued), so this bounds
    /// only the ops no waiter is running: those queued behind another
    /// unclaimed op (a client's window, concurrent submitters), those
    /// whose waiter has not come within the grace bound, and the queue
    /// drained at shutdown. An executor runs one op at a time — its host
    /// ops (sampling, additions, hashing) inline and every NTT multiply
    /// through the batch former as an ordinary leaf job, running the
    /// formed batch itself when a bank is idle.
    pub protocol_workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 4096,
            backpressure: Backpressure::Block,
            linger: Duration::from_micros(500),
            check: CheckPolicy::Disabled,
            max_attempts: 3,
            quarantine_after: 3,
            injector: None,
            hot_capacity: 0,
            protocol_workers: 2,
        }
    }
}

/// Batch-formation key: jobs are only packed with same-parameter jobs.
pub(crate) type ParamKey = (usize, u64);

/// A fulfilled job, returned by [`JobTicket::wait`].
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The product, bit-identical to a direct engine multiply.
    pub product: Polynomial,
    /// Time from submission to dispatch onto a bank (queueing plus
    /// batch-forming linger), µs.
    pub queue_us: f64,
    /// Wall-clock execution time of the batch this job rode in, µs.
    pub service_us: f64,
    /// Jobs packed into that batch (realized occupancy).
    pub batch_jobs: usize,
    /// Packed-lane capacity of the hardware at this degree (`32k/n`).
    pub packed_lanes: usize,
    /// Execution attempts this job took (1 = first try; > 1 means a
    /// detected-corrupt result was retried and the job *recovered*).
    pub attempts: u32,
}

/// Handle to one submitted multiply. Obtain the result with
/// [`Ticket::wait`].
pub type JobTicket = Ticket<CompletedJob>;

struct Job {
    a: Polynomial,
    b: Polynomial,
    ticket: Fulfiller<CompletedJob>,
    submitted: Instant,
    /// Execution attempts so far, counting the upcoming one (starts
    /// at 1; bumped on each detected-fault requeue).
    attempts: u32,
}

struct Group {
    jobs: Vec<Job>,
    oldest: Instant,
}

struct FormedBatch {
    key: ParamKey,
    jobs: Vec<Job>,
}

/// Why a group left the pending map for the formed queue.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushCause {
    /// Reached the packed-lane capacity.
    Full,
    /// Oldest job hit the linger deadline with the fleet saturated.
    Linger,
    /// A bank was idle with nothing queued — waiting would have
    /// wasted hardware, so the partial batch shipped immediately.
    Eager,
}

/// One virtual superbank: its accelerators and its view of the fault
/// injector. A bank runs one batch at a time, for whichever thread
/// claimed it ([`Shared::claim_bank`]).
pub(crate) struct Bank {
    /// One accelerator per `(n, q)`, built on first use. Only the
    /// bank's claimant locks it, so the lock is never contended; a
    /// contended lock is a claim bug and fails its batch.
    accelerators: Mutex<HashMap<ParamKey, CryptoPim>>,
    /// Each bank gets its own write-path view from the injector, so
    /// wear-out epochs age per bank, not per fleet.
    writes: Option<Arc<dyn WritePath>>,
}

impl Bank {
    /// The bank's accelerators, for its claimant. A batch that unwound
    /// while running poisoned the lock and may have left an engine
    /// half-way through an op, so the next claimant rebuilds them from
    /// empty.
    ///
    /// # Panics
    ///
    /// When another thread holds them: the bank was claimed twice.
    fn accelerators(&self) -> MutexGuard<'_, HashMap<ParamKey, CryptoPim>> {
        match self.accelerators.try_lock() {
            Ok(map) => map,
            Err(TryLockError::Poisoned(poisoned)) => {
                self.accelerators.clear_poison();
                let mut map = poisoned.into_inner();
                map.clear();
                map
            }
            Err(TryLockError::WouldBlock) => panic!("bank claimed by two threads at once"),
        }
    }
}

/// A bank claimed for one dispatched batch. `run_batch` releases it in
/// the critical section that counts the batch; if the batch unwinds
/// first, dropping the claim releases the bank, counts the batch as a
/// faulted one against the bank's quarantine streak, and only then drops
/// the batch's fulfillers, which resolve as [`ServiceError::Internal`].
struct Claim<'a> {
    shared: &'a Shared,
    bank: usize,
    jobs: usize,
    /// Claimed by the submitter that will run the batch itself.
    inline: bool,
    /// The batch's tickets while its engine runs, so an unwind resolves
    /// them after the batch is counted, never before.
    tickets: Vec<Fulfiller<CompletedJob>>,
    released: bool,
}

impl<'a> Claim<'a> {
    /// Puts `jobs` in flight on the claimed `bank`.
    fn new(shared: &'a Shared, st: &mut State, bank: usize, jobs: usize, inline: bool) -> Self {
        st.in_flight += jobs;
        Claim {
            shared,
            bank,
            jobs,
            inline,
            tickets: Vec::new(),
            released: false,
        }
    }

    fn release(&mut self, st: &mut State) {
        self.released = true;
        st.bank_busy[self.bank] = false;
        st.in_flight -= self.jobs;
        // A worker releasing its bank loops and takes queued work
        // itself; a submitter returns to its own op, so it hands any
        // queued work to a worker.
        if self.inline && !(st.formed.is_empty() && st.pending.is_empty()) {
            self.shared.work.notify_one();
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.release(&mut st);
            st.completed += self.jobs as u64;
            // An unwound batch is a faulted one: a bank whose engine or
            // write path panics on every op leaves the fleet like one
            // that corrupts every product.
            self.shared.score_bank(&mut st, self.bank, true);
        }
        // Counted first, so a waiter that sees the error also sees its
        // job in `ServiceStats`.
        self.tickets.clear();
    }
}

pub(crate) struct State {
    pending: HashMap<ParamKey, Group>,
    pending_jobs: usize,
    formed: VecDeque<FormedBatch>,
    formed_jobs: usize,
    in_flight: usize,
    /// Per-bank claim flag: the bank is running a batch (for the
    /// work-conserving flush decision: idle capacity = active banks −
    /// busy − formed).
    bank_busy: Vec<bool>,
    shutdown: bool,
    /// Set by the batch former once every pending group has been
    /// flushed during shutdown; workers exit only after this, so no
    /// admitted job is ever stranded.
    drained: bool,
    admitted: u64,
    rejected: u64,
    completed: u64,
    batches: u64,
    full_batches: u64,
    lingered_batches: u64,
    eager_batches: u64,
    /// Batches run by the submitter that formed them.
    inline_batches: u64,
    occupancy_jobs: u64,
    faults_detected: u64,
    retries: u64,
    recovered: u64,
    /// Per-bank run of consecutive faulted batches (reset by any clean
    /// batch on that bank) — the quarantine trigger.
    bank_streak: Vec<u32>,
    /// Banks removed from the fleet after `quarantine_after`
    /// consecutive faulted batches.
    quarantined: Vec<bool>,
    /// Banks still serving (fleet size minus quarantined banks).
    active_banks: usize,
    /// Every bank quarantined: queued jobs failed, new submissions
    /// refused with `Overloaded`.
    degraded: bool,
    hist: LatencyHistogram,
    /// Per-kind protocol lane accumulators, indexed by
    /// [`crate::graph::ProtocolKind`] discriminant.
    pub(crate) proto_lanes: Vec<ProtoLane>,
}

/// Per-kind protocol counters (one per [`crate::graph::ProtocolKind`]).
#[derive(Debug, Default)]
pub(crate) struct ProtoLane {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) hist: LatencyHistogram,
}

pub(crate) struct Shared {
    pub(crate) state: Mutex<State>,
    /// The started configuration (workers/attempts/quarantine already
    /// clamped); `run_batch` reads its check policy here.
    pub(crate) cfg: ServiceConfig,
    /// The superbanks, claimed per batch under the state lock.
    banks: Vec<Bank>,
    /// Fleet-wide hot-operand transform cache (`None` when
    /// [`ServiceConfig::hot_capacity`] is 0).
    hot: Option<Arc<HotCache>>,
    /// Space freed in the admission queue (Block-mode submitters wait).
    admit: Condvar,
    /// Deadline scheduling for the former (first pending group under a
    /// saturated fleet, or shutdown).
    former: Condvar,
    /// Formed batches or a freed bank (worker threads wait).
    work: Condvar,
    /// Protocol ops waiting for their waiter or a graph executor.
    pub(crate) proto: Mutex<crate::graph::ProtoQueue>,
    /// Protocol work for an executor, or the last waiter-run op done
    /// during shutdown (graph executors and shutdown wait).
    pub(crate) proto_work: Condvar,
}

impl Shared {
    /// Seals the pending group of `key` into a batch and counts it.
    fn form_locked(st: &mut State, key: ParamKey, cause: FlushCause) -> Option<FormedBatch> {
        let group = st.pending.remove(&key)?;
        let count = group.jobs.len();
        st.pending_jobs -= count;
        st.batches += 1;
        st.occupancy_jobs += count as u64;
        match cause {
            FlushCause::Full => st.full_batches += 1,
            FlushCause::Linger => st.lingered_batches += 1,
            FlushCause::Eager => st.eager_batches += 1,
        }
        Some(FormedBatch {
            key,
            jobs: group.jobs,
        })
    }

    /// Seals the pending group of `key` onto the formed queue.
    fn flush_locked(&self, st: &mut State, key: ParamKey, cause: FlushCause) {
        if let Some(batch) = Self::form_locked(st, key, cause) {
            st.formed_jobs += batch.jobs.len();
            st.formed.push_back(batch);
        }
    }

    /// Banks the fleet could put to work right now beyond what the
    /// formed queue will already occupy (quarantined banks excluded).
    fn idle_capacity(&self, st: &State) -> usize {
        let busy = st.bank_busy.iter().filter(|&&b| b).count();
        st.active_banks.saturating_sub(busy + st.formed.len())
    }

    /// Scores a finished batch against its bank's quarantine streak:
    /// `quarantine_after` consecutive faulted batches retire the bank;
    /// a clean batch resets the streak.
    fn score_bank(&self, st: &mut State, bank: usize, faulted: bool) {
        if !faulted {
            st.bank_streak[bank] = 0;
            return;
        }
        st.bank_streak[bank] += 1;
        if st.bank_streak[bank] >= self.cfg.quarantine_after && !st.quarantined[bank] {
            st.quarantined[bank] = true;
            st.active_banks -= 1;
            // Epoch bump: transforms the quarantined bank may have
            // produced must never be replayed from the cache.
            if let Some(hot) = &self.hot {
                hot.bump_epoch();
            }
            if st.active_banks == 0 {
                degrade(self, st);
            }
            // Wake Block-mode submitters (capacity changed or degraded)
            // and idle workers (requeued work may need a new bank).
            self.admit.notify_all();
            self.work.notify_all();
        }
    }

    /// The one claim path of worker threads and blocking submitters:
    /// marks the first free, unquarantined bank busy.
    fn claim_bank(&self, st: &mut State) -> Option<usize> {
        let bank = (0..self.banks.len()).find(|&b| !st.bank_busy[b] && !st.quarantined[b])?;
        st.bank_busy[bank] = true;
        Some(bank)
    }
}

/// Resolves the parameter set a `(n, q)` job runs under, or `None` when
/// the pair is unsupported. Paper-table degrees take the paper's
/// modulus assignment on the specialized fast path, and additionally
/// accept any NTT-friendly prime below `2^31` — the residue lanes of
/// wide (RNS-decomposed) jobs run under discovered primes and ride the
/// engine's generic-modulus datapath. Degrees above the native 32k
/// (which segment across hardware passes, §III-D) are accepted only
/// with the paper's large-degree modulus — the only specialized modulus
/// whose `q − 1` keeps the `2n | q − 1` NTT divisibility at those
/// sizes.
pub(crate) fn params_for(n: usize, q: u64) -> Option<ParamSet> {
    if let Ok(p) = ParamSet::for_degree(n) {
        if p.q == q {
            return Some(p);
        }
        if q < 1 << 31 && primes::is_prime(q) && primes::supports_negacyclic_ntt(q, n) {
            let bitwidth = if q < 1 << 16 { 16 } else { 32 };
            return ParamSet::custom(n, q, bitwidth).ok();
        }
        return None;
    }
    if n > CryptoPim::max_native_degree() && q == SEGMENTED_Q {
        return ParamSet::custom(n, q, 32).ok();
    }
    None
}

/// Modulus serving segmented (> 32k) degrees: the paper's large-degree
/// assignment `3·2^18 + 1`.
const SEGMENTED_Q: u64 = 786_433;

/// A long-running, multi-tenant serving front end for the accelerator.
///
/// See the [module docs](self) for the pipeline shape. Construct with
/// [`Service::start`], submit with [`Service::submit`], observe with
/// [`Service::stats`], stop with [`Service::shutdown`] (or drop — the
/// destructor drains too).
pub struct Service {
    shared: Arc<Shared>,
    config: ServiceConfig,
    former: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    proto_workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the batch former and the worker fleet.
    pub fn start(config: ServiceConfig) -> Service {
        let config = ServiceConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            max_attempts: config.max_attempts.max(1),
            quarantine_after: config.quarantine_after.max(1),
            protocol_workers: config.protocol_workers.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: HashMap::new(),
                pending_jobs: 0,
                formed: VecDeque::new(),
                formed_jobs: 0,
                in_flight: 0,
                bank_busy: vec![false; config.workers],
                shutdown: false,
                drained: false,
                admitted: 0,
                rejected: 0,
                completed: 0,
                batches: 0,
                full_batches: 0,
                lingered_batches: 0,
                eager_batches: 0,
                inline_batches: 0,
                occupancy_jobs: 0,
                faults_detected: 0,
                retries: 0,
                recovered: 0,
                bank_streak: vec![0; config.workers],
                quarantined: vec![false; config.workers],
                active_banks: config.workers,
                degraded: false,
                hist: LatencyHistogram::default(),
                proto_lanes: (0..crate::graph::ProtocolKind::COUNT)
                    .map(|_| ProtoLane::default())
                    .collect(),
            }),
            cfg: config.clone(),
            banks: (0..config.workers)
                .map(|bank| Bank {
                    accelerators: Mutex::new(HashMap::new()),
                    writes: config.injector.as_ref().map(|i| i.bank_writes(bank as u32)),
                })
                .collect(),
            hot: (config.hot_capacity > 0).then(|| Arc::new(HotCache::new(config.hot_capacity))),
            admit: Condvar::new(),
            former: Condvar::new(),
            work: Condvar::new(),
            proto: Mutex::new(crate::graph::ProtoQueue::default()),
            proto_work: Condvar::new(),
        });
        let former = {
            let shared = Arc::clone(&shared);
            let linger = config.linger;
            std::thread::Builder::new()
                .name("cryptopim-svc-former".into())
                .spawn(move || former_loop(&shared, linger))
                .expect("spawn batch former")
        };
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cryptopim-svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn superbank worker")
            })
            .collect();
        let proto_workers = (0..config.protocol_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cryptopim-svc-proto-{i}"))
                    .spawn(move || crate::graph::proto_worker_loop(&shared))
                    .expect("spawn protocol executor")
            })
            .collect();
        Service {
            shared,
            config,
            former: Some(former),
            workers,
            proto_workers,
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared scheduler state (for the protocol graph layer).
    pub(crate) fn shared_ref(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Submits one multiplication job; the returned ticket resolves to
    /// the product once a superbank has executed the batch the
    /// job was packed into.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::PairMismatch`] — operand degrees differ.
    /// * [`ServiceError::UnsupportedJob`] — no parameter set for the
    ///   pair's `(n, q)`: outside the paper table and not a segmented
    ///   (> 32k) degree under the large-degree modulus.
    /// * [`ServiceError::Overloaded`] — queue full under
    ///   [`Backpressure::Reject`], or every bank quarantined.
    /// * [`ServiceError::ShuttingDown`] — submitted during drain.
    pub fn submit(&self, a: Polynomial, b: Polynomial) -> Result<JobTicket, ServiceError> {
        admit_leaves(&self.shared, vec![(a, b)], None)
            .map(|mut tickets| tickets.remove(0))
            .map_err(|(_, e)| e)
    }

    /// A point-in-time snapshot of queue depth, counters, occupancy,
    /// and latency percentiles.
    pub fn stats(&self) -> ServiceStats {
        let st = self.shared.state.lock().expect("service state poisoned");
        snapshot(&st, self.shared.hot.as_deref())
    }

    /// Graceful shutdown: stops admitting, flushes every pending
    /// partial batch, waits for the fleet to drain all in-flight jobs,
    /// and returns the final statistics. Every ticket issued before the
    /// call resolves.
    pub fn shutdown(mut self) -> ServiceStats {
        self.drain_and_join();
        let st = self.shared.state.lock().expect("service state poisoned");
        snapshot(&st, self.shared.hot.as_deref())
    }

    fn drain_and_join(&mut self) {
        // Drain the protocol ops *first*, while the batch fleet is still
        // accepting leaf submits: every queued protocol op runs to
        // completion (its leaf multiplies still admit and execute), so a
        // ProtocolTicket issued before shutdown always resolves. The
        // executors claim what no waiter has; then the ops waiters claimed
        // finish.
        {
            let mut pq = self
                .shared
                .proto
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            pq.shutdown = true;
        }
        self.shared.proto_work.notify_all();
        for handle in self.proto_workers.drain(..) {
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("protocol executor panicked");
            }
        }
        {
            let mut pq = self
                .shared
                .proto
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while pq.helping > 0 {
                pq = self
                    .shared
                    .proto_work
                    .wait(pq)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.shutdown = true;
        }
        self.shared.former.notify_all();
        self.shared.work.notify_all();
        self.shared.admit.notify_all();
        if let Some(handle) = self.former.take() {
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("batch former panicked");
            }
        }
        for handle in self.workers.drain(..) {
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("superbank worker panicked");
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

/// Validates one leaf pair, resolving its batch-formation key and the
/// packed-lane capacity at its degree.
pub(crate) fn validate_leaf(
    a: &Polynomial,
    b: &Polynomial,
) -> Result<(ParamKey, usize), ServiceError> {
    let n = a.degree_bound();
    if b.degree_bound() != n {
        return Err(ServiceError::PairMismatch {
            left: n,
            right: b.degree_bound(),
        });
    }
    let Some(params) = params_for(n, a.modulus()) else {
        return Err(ServiceError::UnsupportedJob { n, q: a.modulus() });
    };
    if b.modulus() != params.q {
        return Err(ServiceError::UnsupportedJob { n, q: b.modulus() });
    }
    let lanes = ArchConfig::packed_lanes(n).expect("validated degree");
    Ok(((n, params.q), lanes))
}

/// The blocking leaf entry of a running protocol op: admits `pairs` as
/// [`admit_leaves`] does, and when the eager flush finds an idle bank
/// the caller claims it and runs the batch itself, then collects its
/// results — already resolved, unless a job was requeued for a retry.
/// Only when every bank is busy do the leaves queue for a worker and
/// the caller waits; pairs admitted one by one claim only on the last
/// admission, and earlier ones go to workers. The batch is the one the
/// eager flush would have handed a worker: the same jobs, checks,
/// retries and quarantine.
///
/// # Errors
///
/// As [`admit_leaves`]; an admitted pair's execution failure is its
/// own entry in the returned vector.
pub(crate) fn run_leaves(
    shared: &Shared,
    pairs: Vec<(Polynomial, Polynomial)>,
) -> Result<Vec<Result<CompletedJob, ServiceError>>, (usize, ServiceError)> {
    let mut inline = None;
    // A bank is claimed only by an admission that succeeded last.
    let tickets = admit_leaves(shared, pairs, Some(&mut inline))?;
    if let Some((claim, batch)) = inline {
        run_claimed(shared, claim, batch);
    }
    Ok(tickets.into_iter().map(Ticket::wait).collect())
}

/// A bank claimed by a blocking submitter and the batch it will run.
type InlineBatch<'a> = (Claim<'a>, FormedBatch);

/// Leaf admission behind [`Service::submit`] and [`run_leaves`]. Every
/// pair is validated before any is admitted. Pairs that share one
/// `(n, q)` key are admitted under a *single* state-lock acquisition,
/// so they land in the same formation group and a flushed batch
/// carries them together — how a protocol op's independent inner
/// products ride one batch. When the keys differ, or the queue cannot
/// hold every pair at once, each pair is admitted on its own, in order.
///
/// With `inline` set, the eager flush of the call's last admission
/// claims its idle bank into it instead of queueing the batch for a
/// worker. Earlier pairs admitted one by one hand their batches to
/// workers, so no bank is held while a later pair waits for queue
/// space.
///
/// # Errors
///
/// The index of the first pair that failed validation or admission,
/// with its error. Pairs admitted before it stay queued and execute
/// harmlessly, their tickets discarded.
fn admit_leaves<'a>(
    shared: &'a Shared,
    pairs: Vec<(Polynomial, Polynomial)>,
    mut inline: Option<&mut Option<InlineBatch<'a>>>,
) -> Result<Vec<JobTicket>, (usize, ServiceError)> {
    let keys = pairs
        .iter()
        .enumerate()
        .map(|(i, (a, b))| validate_leaf(a, b).map_err(|e| (i, e)))
        .collect::<Result<Vec<_>, _>>()?;
    let Some(&(key, lanes)) = keys.first() else {
        return Ok(Vec::new());
    };
    let count = pairs.len();
    if count > 1 && (keys.iter().any(|k| k.0 != key) || count > shared.cfg.queue_capacity) {
        let mut tickets = Vec::with_capacity(count);
        for (i, pair) in pairs.into_iter().enumerate() {
            // A claimed bank is never held across a blocking admission:
            // only the last pair, after which nothing waits, may claim.
            let claim = if i + 1 == count { inline.take() } else { None };
            let mut one = admit_leaves(shared, vec![pair], claim).map_err(|(_, e)| (i, e))?;
            tickets.append(&mut one);
        }
        return Ok(tickets);
    }
    let (tickets, fulfillers): (Vec<JobTicket>, Vec<_>) = (0..count).map(|_| ticket()).unzip();
    let mut st = shared.state.lock().expect("service state poisoned");
    loop {
        if st.shutdown {
            return Err((0, ServiceError::ShuttingDown));
        }
        if st.degraded {
            // Graceful degradation: with the whole fleet quarantined no
            // admitted job could ever execute, so even Block-mode
            // submitters are turned away.
            st.rejected += count as u64;
            return Err((
                0,
                ServiceError::Overloaded {
                    capacity: shared.cfg.queue_capacity,
                },
            ));
        }
        if st.pending_jobs + st.formed_jobs + count <= shared.cfg.queue_capacity {
            break;
        }
        match shared.cfg.backpressure {
            Backpressure::Reject => {
                st.rejected += count as u64;
                return Err((
                    0,
                    ServiceError::Overloaded {
                        capacity: shared.cfg.queue_capacity,
                    },
                ));
            }
            Backpressure::Block => {
                st = shared.admit.wait(st).expect("service state poisoned");
            }
        }
    }
    let now = Instant::now();
    st.admitted += count as u64;
    st.pending_jobs += count;
    let pending_was_empty = st.pending.is_empty();
    for ((a, b), ticket) in pairs.into_iter().zip(fulfillers) {
        let group = st.pending.entry(key).or_insert_with(|| Group {
            jobs: Vec::with_capacity(lanes),
            oldest: now,
        });
        if group.jobs.is_empty() {
            group.oldest = now;
        }
        group.jobs.push(Job {
            a,
            b,
            ticket,
            submitted: now,
            attempts: 1,
        });
        if group.jobs.len() >= lanes {
            // Full-occupancy batch: flush immediately, no linger paid.
            // (A multi-job call crossing the lane boundary splits here,
            // never overfilling a batch past the packed-lane capacity.)
            shared.flush_locked(&mut st, key, FlushCause::Full);
            shared.work.notify_one();
        }
    }
    if st.pending.contains_key(&key) {
        if shared.idle_capacity(&st) > 0 {
            // Work-conserving fast path: an idle bank means waiting
            // cannot buy occupancy, so the partial ships straight from
            // the submitting thread — no batch-former hop. A blocking
            // submitter claims the bank and runs the batch itself; any
            // other hands it to a worker.
            match inline {
                Some(slot @ None) => {
                    let bank = shared
                        .claim_bank(&mut st)
                        .expect("idle capacity means a free bank");
                    let batch = Shared::form_locked(&mut st, key, FlushCause::Eager)
                        .expect("pending group");
                    st.inline_batches += 1;
                    // The batch left the admission queue.
                    shared.admit.notify_all();
                    let claim = Claim::new(shared, &mut st, bank, batch.jobs.len(), true);
                    *slot = Some((claim, batch));
                }
                _ => {
                    shared.flush_locked(&mut st, key, FlushCause::Eager);
                    shared.work.notify_one();
                }
            }
        } else if pending_was_empty {
            // Fleet saturated and this is the first pending group: the
            // former must schedule its linger deadline. Any later job
            // or group has a strictly later deadline, so the former's
            // existing timed sleep already covers those — the saturated
            // steady state submits without a single wakeup.
            shared.former.notify_one();
        }
    }
    drop(st);
    Ok(tickets)
}

fn snapshot(st: &State, hot: Option<&HotCache>) -> ServiceStats {
    // The wide lane is the `WideMul` protocol lane.
    let wide = &st.proto_lanes[crate::graph::ProtocolKind::WideMul as usize];
    ServiceStats {
        queue_depth: st.pending_jobs + st.formed_jobs,
        in_flight: st.in_flight,
        admitted: st.admitted,
        rejected: st.rejected,
        completed: st.completed,
        batches: st.batches,
        full_batches: st.full_batches,
        lingered_batches: st.lingered_batches,
        eager_batches: st.eager_batches,
        inline_batches: st.inline_batches,
        mean_occupancy: if st.batches == 0 {
            0.0
        } else {
            st.occupancy_jobs as f64 / st.batches as f64
        },
        faults_detected: st.faults_detected,
        retries: st.retries,
        recovered: st.recovered,
        quarantined_banks: st.quarantined.iter().filter(|&&b| b).count(),
        active_workers: st.active_banks,
        hot_hits: hot.map_or(0, HotCache::hits),
        hot_misses: hot.map_or(0, HotCache::misses),
        latency_samples: st.hist.count(),
        p50_us: st.hist.quantile_us(0.50).unwrap_or(0.0),
        p95_us: st.hist.quantile_us(0.95).unwrap_or(0.0),
        p99_us: st.hist.quantile_us(0.99).unwrap_or(0.0),
        wide_submitted: wide.submitted,
        wide_completed: wide.completed,
        wide_failed: wide.failed,
        wide_latency_samples: wide.hist.count(),
        wide_p50_us: wide.hist.quantile_us(0.50).unwrap_or(0.0),
        wide_p95_us: wide.hist.quantile_us(0.95).unwrap_or(0.0),
        wide_p99_us: wide.hist.quantile_us(0.99).unwrap_or(0.0),
        protocol: st
            .proto_lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| ProtocolLaneStats {
                kind: crate::graph::ProtocolKind::from_index(i)
                    .expect("lane index is a kind")
                    .as_str(),
                submitted: lane.submitted,
                completed: lane.completed,
                failed: lane.failed,
                latency_samples: lane.hist.count(),
                p50_us: lane.hist.quantile_us(0.50).unwrap_or(0.0),
                p95_us: lane.hist.quantile_us(0.95).unwrap_or(0.0),
                p99_us: lane.hist.quantile_us(0.99).unwrap_or(0.0),
            })
            .collect(),
    }
}

/// The batch-forming thread, reduced to the one decision that needs a
/// clock: sealing groups at their linger deadline. The work-conserving
/// eager flushes happen synchronously elsewhere — on the submitting
/// thread when a bank is idle at arrival, and in the worker loop when a
/// worker finds a free bank with partials pending — so the saturated steady state runs
/// without a former hop per batch. On shutdown it flushes everything
/// and marks the state drained so workers can exit.
fn former_loop(shared: &Shared, linger: Duration) {
    let mut st = shared.state.lock().expect("service state poisoned");
    loop {
        if st.shutdown {
            let keys: Vec<ParamKey> = st.pending.keys().copied().collect();
            for key in keys {
                shared.flush_locked(&mut st, key, FlushCause::Linger);
            }
            st.drained = true;
            shared.work.notify_all();
            return;
        }
        let now = Instant::now();
        let expired: Vec<ParamKey> = st
            .pending
            .iter()
            .filter(|(_, g)| now.duration_since(g.oldest) >= linger)
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            // A sealed group queues behind in-flight batches even when
            // every bank is busy: the deadline closes the batch to
            // further packing, it does not wait for idle capacity.
            shared.flush_locked(&mut st, key, FlushCause::Linger);
            shared.work.notify_one();
        }
        let next_deadline = st.pending.values().map(|g| g.oldest + linger).min();
        st = match next_deadline {
            None => shared.former.wait(st).expect("service state poisoned"),
            Some(deadline) => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                shared
                    .former
                    .wait_timeout(st, timeout)
                    .expect("service state poisoned")
                    .0
            }
        };
    }
}

/// One worker thread: whenever batches are queued and a bank is free,
/// claims the bank and runs the oldest formed batch on it — or, with
/// nothing formed, self-serves the oldest pending partial. Exits once
/// the state is drained for shutdown.
fn worker_loop(shared: &Shared) {
    loop {
        let (claim, batch) = {
            let mut st = shared.state.lock().expect("service state poisoned");
            loop {
                if !(st.formed.is_empty() && st.pending.is_empty()) {
                    if let Some(bank) = shared.claim_bank(&mut st) {
                        if st.formed.is_empty() {
                            // Self-serve: a bank is idle, so by the
                            // work-conserving rule the oldest pending
                            // partial ships now, with no former hop and
                            // no condvar wake.
                            let key = *st
                                .pending
                                .iter()
                                .min_by_key(|(_, g)| g.oldest)
                                .map(|(k, _)| k)
                                .expect("pending non-empty");
                            shared.flush_locked(&mut st, key, FlushCause::Eager);
                        }
                        let batch = st.formed.pop_front().expect("formed non-empty");
                        st.formed_jobs -= batch.jobs.len();
                        // Dispatch freed admission-queue space.
                        shared.admit.notify_all();
                        let claim = Claim::new(shared, &mut st, bank, batch.jobs.len(), false);
                        break (claim, batch);
                    }
                }
                // Work still formed here at shutdown has no free bank;
                // the executors were joined first, so the banks' holders
                // are workers, which take it when they finish.
                if st.shutdown && st.drained {
                    return;
                }
                st = shared.work.wait(st).expect("service state poisoned");
            }
        };
        run_claimed(shared, claim, batch);
    }
}

/// Runs a dispatched batch on its claimed bank — the one execution path
/// of worker threads and blocking submitters. A panic inside the batch
/// stops here: the claim's drop has released the bank, the batch's
/// tickets resolve as [`ServiceError::Internal`], and the caller keeps
/// serving.
fn run_claimed(shared: &Shared, claim: Claim<'_>, batch: FormedBatch) {
    // The default panic hook has already reported the panic; what is
    // left to do was done by the claim's and the fulfillers' drops.
    let _ = panic::catch_unwind(AssertUnwindSafe(|| run_batch(shared, claim, batch)));
}

/// Executes one formed batch on its claimed bank: per-job outcomes,
/// detected-fault retry bookkeeping, the bank's release, and the
/// quarantine decision.
fn run_batch(shared: &Shared, mut claim: Claim<'_>, batch: FormedBatch) {
    let bank = claim.bank;
    let dispatch = Instant::now();
    let count = batch.jobs.len();
    let key = batch.key;
    let mut pairs = Vec::with_capacity(count);
    let mut timing = Vec::with_capacity(count);
    for job in batch.jobs {
        pairs.push((job.a, job.b));
        timing.push((job.submitted, job.attempts));
        claim.tickets.push(job.ticket);
    }

    let mut accelerators = shared.banks[bank].accelerators();
    let acc = match accelerators.entry(key) {
        std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
        std::collections::hash_map::Entry::Vacant(e) => params_for(key.0, key.1)
            .ok_or(PimError::Math(modmath::Error::InvalidDegree { n: key.0 }))
            .and_then(|p| CryptoPim::new(&p))
            // Workers run their engine sequentially: the fleet supplies
            // the host parallelism, and nested fan-out would let worker
            // counts contend for the same cores.
            .map(|acc| {
                e.insert(
                    acc.with_threads(Threads::Fixed(1))
                        .with_check(shared.cfg.check)
                        .with_write_path(shared.banks[bank].writes.clone())
                        .with_hot_cache(shared.hot.clone()),
                )
            }),
    };
    // Per-job outcomes: batch wall-clock is measured right here, so the
    // analytic burst simulation of `multiply_batch` (a fixed tens-of-µs
    // cost per batch, painful at low occupancy) is skipped, and one
    // corrupt lane fails alone instead of failing its batch-mates.
    let outcome = acc.and_then(|acc| multiply_batch_outcomes(acc, &pairs));
    drop(accelerators);
    // The engine ran without unwinding: the bookkeeping below takes the
    // tickets back from the claim.
    let metas = std::mem::take(&mut claim.tickets)
        .into_iter()
        .zip(timing)
        .map(|(ticket, (submitted, attempts))| (ticket, submitted, attempts));
    let done = Instant::now();
    let service_us = done.duration_since(dispatch).as_secs_f64() * 1e6;
    let lanes = ArchConfig::packed_lanes(key.0).expect("validated at submit");

    let mut requeue: Vec<Job> = Vec::new();
    let mut fulfilled_at: Vec<Instant> = Vec::with_capacity(count);
    let mut results: Vec<(Fulfiller<CompletedJob>, Result<CompletedJob, ServiceError>)> =
        Vec::with_capacity(count);
    let mut faults = 0u64;
    let mut recovered = 0u64;

    match outcome {
        Ok(outcomes) => {
            for ((result, (a, b)), (ticket, submitted, attempts)) in
                outcomes.into_iter().zip(pairs).zip(metas)
            {
                match result {
                    Ok(product) => {
                        if attempts > 1 {
                            recovered += 1;
                        }
                        fulfilled_at.push(submitted);
                        results.push((
                            ticket,
                            Ok(CompletedJob {
                                product,
                                queue_us: dispatch.duration_since(submitted).as_secs_f64() * 1e6,
                                service_us,
                                batch_jobs: count,
                                packed_lanes: lanes,
                                attempts,
                            }),
                        ));
                    }
                    Err(PimError::CorruptResult(report)) => {
                        faults += 1;
                        if attempts < shared.cfg.max_attempts {
                            // Requeue at the front: the retry beats any
                            // newly formed work, bounding its added
                            // latency to one batch trip per attempt.
                            requeue.push(Job {
                                a,
                                b,
                                ticket,
                                submitted,
                                attempts: attempts + 1,
                            });
                        } else {
                            fulfilled_at.push(submitted);
                            results.push((
                                ticket,
                                Err(ServiceError::FaultUnrecovered {
                                    bank: report.bank,
                                    attempts,
                                }),
                            ));
                        }
                    }
                    Err(e) => {
                        fulfilled_at.push(submitted);
                        results.push((ticket, Err(ServiceError::Pim(e))));
                    }
                }
            }
        }
        Err(e) => {
            for (ticket, submitted, _) in metas {
                fulfilled_at.push(submitted);
                results.push((ticket, Err(ServiceError::Pim(e.clone()))));
            }
        }
    }

    let retried = requeue.len();
    {
        let mut st = shared.state.lock().expect("service state poisoned");
        claim.release(&mut st);
        st.completed += (count - retried) as u64;
        st.faults_detected += faults;
        st.retries += retried as u64;
        st.recovered += recovered;
        for submitted in &fulfilled_at {
            st.hist
                .record_us(done.duration_since(*submitted).as_micros() as u64);
        }
        if !requeue.is_empty() {
            st.formed_jobs += retried;
            st.formed.push_front(FormedBatch { key, jobs: requeue });
            shared.work.notify_one();
        }
        shared.score_bank(&mut st, bank, faults > 0);
    }
    // Results reach their tickets only once the batch is counted and
    // the state lock is released, so a waiter that sees its result also
    // sees it in `ServiceStats`, and wakes without contending for the
    // lock.
    for (ticket, result) in results {
        ticket.fulfil(result);
    }
}

/// Last bank quarantined: fail everything queued (no bank can ever run
/// it) and refuse future submissions — the service still answers, it
/// just answers `Overloaded`. It never returns a wrong product.
fn degrade(shared: &Shared, st: &mut State) {
    st.degraded = true;
    let capacity = shared.cfg.queue_capacity;
    for batch in st.formed.drain(..) {
        for job in batch.jobs {
            job.ticket
                .fulfil(Err(ServiceError::Overloaded { capacity }));
            st.completed += 1;
        }
    }
    st.formed_jobs = 0;
    for (_, group) in st.pending.drain() {
        for job in group.jobs {
            job.ticket
                .fulfil(Err(ServiceError::Overloaded { capacity }));
            st.completed += 1;
        }
    }
    st.pending_jobs = 0;
    shared.former.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ProtocolJob, ProtocolOutput};
    use modmath::crt::RnsBasis;
    use pim::fault::{Injector, WritePath as WritePathTrait};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Test injector: bank 0 corrupts bit 15 of the first premul write
    /// for its first `bad_ops` operations (`u64::MAX` = forever); other
    /// banks are clean. At the test degrees `q < 2^13`, so OR-ing bit 15
    /// always changes the stored word, and `2^15 mod q ≠ 0` keeps the
    /// corruption alive through re-canonicalization — every faulted op
    /// yields a wrong product.
    #[derive(Debug)]
    struct StuckBitInjector {
        bad_ops: u64,
    }

    #[derive(Debug)]
    struct StuckBitPath {
        bank: u32,
        bad_ops: u64,
        epoch: AtomicU64,
    }

    impl Injector for StuckBitInjector {
        fn bank_writes(&self, bank: u32) -> Arc<dyn WritePathTrait> {
            Arc::new(StuckBitPath {
                bank,
                bad_ops: if bank == 0 { self.bad_ops } else { 0 },
                epoch: AtomicU64::new(0),
            })
        }
    }

    impl WritePathTrait for StuckBitPath {
        fn armed(&self) -> bool {
            self.bad_ops > 0
        }
        fn begin_op(&self) {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        fn store(&self, block: u32, row: u32, value: u64) -> u64 {
            if block == 0 && row == 0 && self.epoch.load(Ordering::Relaxed) <= self.bad_ops {
                value | (1 << 15)
            } else {
                value
            }
        }
        fn bank(&self) -> u32 {
            self.bank
        }
        fn suspect_block(&self) -> Option<u32> {
            Some(0)
        }
    }

    fn poly(n: usize, q: u64, seed: u64) -> Polynomial {
        Polynomial::from_coeffs(
            (0..n as u64).map(|i| (i * 31 + seed * 7 + 1) % q).collect(),
            q,
        )
        .unwrap()
    }

    #[test]
    fn single_job_round_trip() {
        let svc = Service::start(ServiceConfig::default());
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let (a, b) = (poly(256, p.q, 1), poly(256, p.q, 2));
        let direct = acc.multiply(&a, &b).unwrap();
        let done = svc
            .submit(a, b)
            .expect("admitted")
            .wait()
            .expect("executed");
        assert_eq!(done.product, direct);
        assert_eq!(done.packed_lanes, 64);
        assert!(done.batch_jobs >= 1);
        assert!(done.queue_us >= 0.0 && done.service_us > 0.0);
        let stats = svc.shutdown();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn full_batch_flushes_without_linger() {
        // 64 lanes at n = 256: with the lone worker saturated (so the
        // eager path cannot drain singles) and an hour-long linger, 64
        // same-key jobs must still flush — as one full batch.
        let (svc, gate) = gated(ServiceConfig {
            workers: 1,
            linger: Duration::from_secs(3600),
            ..ServiceConfig::default()
        });
        let blockers = saturate_one_worker(&svc, 2);
        let q = ParamSet::for_degree(256).unwrap().q;
        let tickets: Vec<JobTicket> = (0..64)
            .map(|k| {
                svc.submit(poly(256, q, k), poly(256, q, k + 100))
                    .expect("admitted")
            })
            .collect();
        gate.open();
        for t in tickets {
            let done = t.wait().expect("executed");
            assert_eq!(done.batch_jobs, 64, "full-occupancy batch");
        }
        for b in blockers {
            b.wait().expect("executed");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.batches, 3, "two blocker batches plus one full batch");
        assert_eq!(
            stats.full_batches, 3,
            "32k blockers are full single-lane batches"
        );
        assert_eq!(stats.eager_batches, 0);
        assert_eq!(stats.lingered_batches, 0);
    }

    #[test]
    fn idle_fleet_flushes_partials_eagerly() {
        // A lone job with an hour-long linger and an idle fleet must
        // not wait: the work-conserving former ships it immediately.
        let svc = Service::start(ServiceConfig {
            linger: Duration::from_secs(3600),
            ..ServiceConfig::default()
        });
        let q = ParamSet::for_degree(512).unwrap().q;
        let t = svc
            .submit(poly(512, q, 3), poly(512, q, 4))
            .expect("admitted");
        let done = t.wait().expect("executed");
        assert_eq!(done.batch_jobs, 1, "lone job shipped eagerly");
        let stats = svc.shutdown();
        assert_eq!(stats.eager_batches, 1);
        assert_eq!(stats.lingered_batches, 0);
    }

    /// Test injector: every bank's ops wait at `begin_op` until the test
    /// opens the gate, so a batch holds its bank for exactly as long as
    /// the test needs rather than for however long its multiply takes.
    /// The paths are armed only while the gate is closed: once it opens,
    /// banks run the fast datapath again.
    #[derive(Debug, Default)]
    struct GateInjector {
        gate: Arc<Gate>,
    }

    #[derive(Debug, Default)]
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
    }

    #[derive(Debug)]
    struct GatePath {
        bank: u32,
        gate: Arc<Gate>,
    }

    impl GateInjector {
        fn open(&self) {
            *self.gate.open.lock().unwrap() = true;
            self.gate.opened.notify_all();
        }
    }

    impl Injector for GateInjector {
        fn bank_writes(&self, bank: u32) -> Arc<dyn WritePathTrait> {
            Arc::new(GatePath {
                bank,
                gate: Arc::clone(&self.gate),
            })
        }
    }

    impl WritePathTrait for GatePath {
        fn armed(&self) -> bool {
            !*self.gate.open.lock().unwrap()
        }
        fn begin_op(&self) {
            let open = self.gate.open.lock().unwrap();
            drop(self.gate.opened.wait_while(open, |open| !*open).unwrap());
        }
        fn store(&self, _block: u32, _row: u32, value: u64) -> u64 {
            value
        }
        fn bank(&self) -> u32 {
            self.bank
        }
        fn suspect_block(&self) -> Option<u32> {
            None
        }
    }

    /// Starts `config` with every bank behind a closed [`GateInjector`].
    fn gated(config: ServiceConfig) -> (Service, Arc<GateInjector>) {
        let gate = Arc::new(GateInjector::default());
        let svc = Service::start(ServiceConfig {
            injector: Some(gate.clone()),
            ..config
        });
        (svc, gate)
    }

    /// Occupies the single worker of a [`gated`] `svc` until the test
    /// opens the gate, so more work can be submitted underneath it.
    /// Degree-32k jobs have exactly one packed lane, so each submit
    /// forms a *full* batch inline (no former involvement); the first
    /// one's batch holds the lone bank at the closed gate, and the rest
    /// wait on the formed queue behind it.
    fn saturate_one_worker(svc: &Service, count: usize) -> Vec<JobTicket> {
        let q = ParamSet::for_degree(32768).unwrap().q;
        let tickets: Vec<JobTicket> = (0..count as u64)
            .map(|k| {
                svc.submit(poly(32768, q, k), poly(32768, q, k + 9))
                    .expect("admitted")
            })
            .collect();
        // Wait until the first batch is actually on the worker. The
        // second condition is a hang-safe escape: if the blockers
        // somehow drained first, the caller's premise assertions fail
        // loudly instead of this loop spinning forever.
        while svc.stats().in_flight == 0 && tickets.iter().any(|t| !t.is_done()) {
            std::thread::yield_now();
        }
        tickets
    }

    #[test]
    fn wait_timeout_expires_then_collects() {
        // A job stuck behind a saturated single worker times out on a
        // short wait with a typed error, stays claimable, and resolves
        // to the correct product on a later (patient) wait.
        let (svc, gate) = gated(ServiceConfig {
            workers: 1,
            linger: Duration::from_nanos(1),
            ..ServiceConfig::default()
        });
        let blockers = saturate_one_worker(&svc, 2);
        let p = ParamSet::for_degree(256).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let direct = CryptoPim::new(&p)
            .unwrap()
            .multiply(&poly(256, p.q, 1), &poly(256, p.q, 2))
            .unwrap();
        let ticket = svc
            .submit(poly(256, p.q, 1), poly(256, p.q, 2))
            .expect("admitted");
        let err = ticket
            .wait_timeout(Duration::from_millis(1))
            .expect_err("worker still busy with 32k blockers");
        assert_eq!(err, ServiceError::WaitTimeout { timeout_ms: 1 });
        gate.open();
        let done = ticket
            .wait_timeout(Duration::from_secs(300))
            .expect("eventually served");
        assert_eq!(done.product, direct);
        // The successful wait took the result: the ticket now reads as
        // never-completed and a further short wait times out again.
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(1)).err(),
            Some(ServiceError::WaitTimeout { timeout_ms: 1 })
        );
        for b in blockers {
            b.wait().expect("executed");
        }
        svc.shutdown();
    }

    #[test]
    fn linger_holds_partials_while_fleet_saturated() {
        let (svc, gate) = gated(ServiceConfig {
            workers: 1,
            linger: Duration::from_nanos(1),
            ..ServiceConfig::default()
        });
        let blockers = saturate_one_worker(&svc, 2);
        // With the worker busy, this partial cannot flush eagerly; the
        // already-expired linger deadline flushes it on the former's
        // next wakeup instead. The bank stays held until that flush has
        // formed a third batch (or a minute has passed, which fails the
        // assertion below rather than hanging).
        let q = ParamSet::for_degree(1024).unwrap().q;
        let t = svc
            .submit(poly(1024, q, 5), poly(1024, q, 6))
            .expect("admitted");
        let deadline = Instant::now() + Duration::from_secs(60);
        while svc.stats().batches < 3 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        gate.open();
        t.wait().expect("executed");
        for b in blockers {
            b.wait().expect("executed");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.lingered_batches, 1, "{stats}");
    }

    #[test]
    fn reject_policy_returns_typed_error() {
        let (svc, gate) = gated(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            backpressure: Backpressure::Reject,
            linger: Duration::from_secs(3600),
            ..ServiceConfig::default()
        });
        // Saturate the worker so the next job stays queued: eager
        // flushing needs idle capacity, and the linger is an hour.
        // One blocker only — its batch forms inline and is popped by
        // the worker, so it never counts against the queue bound.
        let blockers = saturate_one_worker(&svc, 1);
        let q = ParamSet::for_degree(1024).unwrap().q;
        let first = svc
            .submit(poly(1024, q, 1), poly(1024, q, 2))
            .expect("fits the queue");
        let second = svc.submit(poly(1024, q, 3), poly(1024, q, 4));
        assert_eq!(second.err(), Some(ServiceError::Overloaded { capacity: 1 }));
        let stats = svc.stats();
        assert_eq!(stats.rejected, 1);
        gate.open();
        drop(first);
        drop(blockers);
        let final_stats = svc.shutdown();
        assert_eq!(final_stats.admitted, 2);
        assert_eq!(final_stats.completed, 2, "drained on shutdown");
    }

    #[test]
    fn invalid_jobs_fail_synchronously() {
        let svc = Service::start(ServiceConfig::default());
        let q = ParamSet::for_degree(256).unwrap().q;
        assert_eq!(
            svc.submit(poly(256, q, 1), poly(512, 12289, 1)).err(),
            Some(ServiceError::PairMismatch {
                left: 256,
                right: 512
            })
        );
        // Valid ring, but 17 − 1 = 16 has no order-512 subgroup: no
        // negacyclic NTT exists at this degree, so no lane (wide or
        // narrow) can run it.
        let wrong_q = Polynomial::from_coeffs(vec![1; 256], 17).unwrap();
        assert_eq!(
            svc.submit(wrong_q.clone(), wrong_q).err(),
            Some(ServiceError::UnsupportedJob { n: 256, q: 17 })
        );
        let stats = svc.shutdown();
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn off_table_ntt_friendly_primes_are_served() {
        // Residue lanes of wide jobs run under discovered primes, not
        // the paper-table assignment; the scheduler must serve them
        // bit-exact through the generic-modulus engine path.
        let svc = Service::start(ServiceConfig::default());
        let q = modmath::primes::find_ntt_prime(256, 1 << 20).unwrap();
        let p = ParamSet::custom(256, q, 32).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let direct = CryptoPim::new(&p)
            .unwrap()
            .multiply(&poly(256, q, 1), &poly(256, q, 2))
            .unwrap();
        let done = svc
            .submit(poly(256, q, 1), poly(256, q, 2))
            .expect("admitted")
            .wait()
            .expect("executed");
        assert_eq!(done.product, direct);
        svc.shutdown();
    }

    #[test]
    fn wide_job_rejects_unsupported_basis_before_queueing() {
        let svc = Service::start(ServiceConfig::default());
        // Valid basis over primes that are not NTT-friendly at n = 256.
        let basis = RnsBasis::new(&[17, 23]).unwrap();
        let wide = |a: &[u128], b: &[u128], basis: &RnsBasis| {
            svc.submit_protocol(ProtocolJob::WideMul {
                a: a.to_vec(),
                b: b.to_vec(),
                basis: basis.clone(),
            })
        };
        let a = vec![1u128; 256];
        assert_eq!(
            wide(&a, &a, &basis).err(),
            Some(ServiceError::UnsupportedJob { n: 256, q: 17 })
        );
        let b = vec![1u128; 128];
        let basis_ok = RnsBasis::discover(256, 2, 1 << 20).unwrap();
        assert_eq!(
            wide(&a, &b, &basis_ok).err(),
            Some(ServiceError::PairMismatch {
                left: 256,
                right: 128
            })
        );
        let stats = svc.shutdown();
        assert_eq!(stats.admitted, 0, "nothing queued for a rejected basis");
        assert_eq!(stats.wide_submitted, 0);
    }

    #[test]
    fn wide_lane_fault_recovers_without_wrong_recombination() {
        // Bank 0 corrupts its first operation: exactly one residue lane
        // of the wide job is detected, retried, and recovered — and the
        // recombined product still matches the sequential reference.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            check: CheckPolicy::Recompute,
            max_attempts: 3,
            quarantine_after: 10,
            injector: Some(Arc::new(StuckBitInjector { bad_ops: 1 })),
            ..ServiceConfig::default()
        });
        let n = 256;
        let basis = RnsBasis::discover(n, 2, 1 << 20).unwrap();
        let seq = ntt::rns::RnsMultiplier::with_basis(n, basis.clone()).unwrap();
        let q = basis.modulus();
        let a: Vec<u128> = (0..n as u128).map(|i| (i * 131 + 7) % q).collect();
        let b: Vec<u128> = (0..n as u128).map(|i| (i * 13 + 29) % q).collect();
        let want = seq.multiply(&a, &b).unwrap();
        let done = svc
            .submit_protocol(ProtocolJob::WideMul { a, b, basis })
            .expect("admitted")
            .wait()
            .expect("faulted lane recovered");
        assert_eq!(
            done.output,
            ProtocolOutput::WideProduct(want),
            "no wrong recombined answer"
        );
        assert!(done.attempts > 1, "the faulted lane retried");
        let stats = svc.shutdown();
        assert_eq!(stats.faults_detected, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.wide_completed, 1);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let svc = Service::start(ServiceConfig::default());
        // Reach into the shared state the way shutdown does, then try
        // to submit: drop-based shutdown makes this race-free to test
        // only via the consuming API, so use two services.
        let q = ParamSet::for_degree(256).unwrap().q;
        let stats = svc.shutdown();
        assert_eq!(stats.admitted, 0);
        let svc2 = Service::start(ServiceConfig::default());
        {
            let mut st = svc2.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        assert_eq!(
            svc2.submit(poly(256, q, 1), poly(256, q, 2)).err(),
            Some(ServiceError::ShuttingDown)
        );
    }

    #[test]
    fn transient_fault_is_detected_retried_and_recovered() {
        // Bank 0 corrupts exactly its first operation; the residue
        // check catches it, the job requeues, and attempt 2 runs clean.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            check: CheckPolicy::residue(4, 0xFEED),
            max_attempts: 3,
            quarantine_after: 10,
            injector: Some(Arc::new(StuckBitInjector { bad_ops: 1 })),
            ..ServiceConfig::default()
        });
        let p = ParamSet::for_degree(256).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let direct = CryptoPim::new(&p)
            .unwrap()
            .multiply(&poly(256, p.q, 1), &poly(256, p.q, 2))
            .unwrap();
        let done = svc
            .submit(poly(256, p.q, 1), poly(256, p.q, 2))
            .expect("admitted")
            .wait()
            .expect("recovered on retry");
        assert_eq!(done.product, direct, "recovered product is bit-exact");
        assert_eq!(done.attempts, 2);
        let stats = svc.shutdown();
        assert_eq!(stats.faults_detected, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.quarantined_banks, 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn permanent_fault_quarantines_and_degrades() {
        // One worker, permanently corrupt: attempts exhaust into
        // FaultUnrecovered, the bank quarantines, and the degraded
        // service turns new submissions away instead of lying.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            check: CheckPolicy::residue(4, 0xBEEF),
            max_attempts: 2,
            quarantine_after: 2,
            injector: Some(Arc::new(StuckBitInjector { bad_ops: u64::MAX })),
            ..ServiceConfig::default()
        });
        let q = ParamSet::for_degree(256).unwrap().q;
        let err = svc
            .submit(poly(256, q, 1), poly(256, q, 2))
            .expect("admitted")
            .wait()
            .expect_err("corruption persists through every attempt");
        assert_eq!(
            err,
            ServiceError::FaultUnrecovered {
                bank: 0,
                attempts: 2
            }
        );
        // Quarantine bookkeeping lands just after ticket fulfillment;
        // wait for it before probing the degraded admission path.
        while svc.stats().active_workers > 0 {
            std::thread::yield_now();
        }
        let refused = svc.submit(poly(256, q, 3), poly(256, q, 4)).err();
        assert!(
            matches!(refused, Some(ServiceError::Overloaded { .. })),
            "degraded fleet refuses instead of corrupting: {refused:?}"
        );
        let stats = svc.shutdown();
        assert_eq!(stats.faults_detected, 2, "both attempts flagged");
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.quarantined_banks, 1);
        assert_eq!(stats.active_workers, 0);
    }

    #[test]
    fn surviving_banks_absorb_a_quarantined_banks_work() {
        // Two banks, only bank 0 faulty, hair-trigger quarantine: every
        // job must still come back with the correct product — retries
        // migrate to the clean bank once bank 0 is out.
        let svc = Service::start(ServiceConfig {
            workers: 2,
            check: CheckPolicy::residue(4, 0xACE),
            max_attempts: 3,
            quarantine_after: 1,
            injector: Some(Arc::new(StuckBitInjector { bad_ops: u64::MAX })),
            ..ServiceConfig::default()
        });
        let p = ParamSet::for_degree(256).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let acc = CryptoPim::new(&p).unwrap();
        for k in 0..8u64 {
            let (a, b) = (poly(256, p.q, k), poly(256, p.q, k + 50));
            let direct = acc.multiply(&a, &b).unwrap();
            let done = svc.submit(a, b).expect("admitted").wait().expect("served");
            assert_eq!(done.product, direct, "job {k}");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 8);
        assert!(stats.quarantined_banks <= 1);
        assert!(stats.active_workers >= 1);
        assert_eq!(
            stats.faults_detected, stats.recovered,
            "every detected fault was recovered: {stats}"
        );
    }

    #[test]
    fn hot_cache_serves_reused_keys_bit_exact() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            hot_capacity: 8,
            ..ServiceConfig::default()
        });
        let p = ParamSet::for_degree(256).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let acc = CryptoPim::new(&p).unwrap();
        let a = poly(256, p.q, 9);
        for k in 0..6u64 {
            let b = poly(256, p.q, k + 40);
            let direct = acc.multiply(&a, &b).unwrap();
            let done = svc
                .submit(a.clone(), b)
                .expect("admitted")
                .wait()
                .expect("served");
            assert_eq!(done.product, direct, "job {k}");
        }
        let stats = svc.shutdown();
        assert!(stats.hot_hits >= 1, "reused key must hit: {stats}");
        assert!(stats.hot_misses >= 1, "first sight of the key misses");
    }

    #[test]
    fn mixed_keys_never_share_a_batch() {
        let svc = Service::start(ServiceConfig {
            linger: Duration::from_millis(1),
            ..ServiceConfig::default()
        });
        let q256 = ParamSet::for_degree(256).unwrap().q;
        let q512 = ParamSet::for_degree(512).unwrap().q;
        let t1 = svc
            .submit(poly(256, q256, 1), poly(256, q256, 2))
            .expect("admitted");
        let t2 = svc
            .submit(poly(512, q512, 1), poly(512, q512, 2))
            .expect("admitted");
        let d1 = t1.wait().expect("executed");
        let d2 = t2.wait().expect("executed");
        assert_eq!(d1.product.degree_bound(), 256);
        assert_eq!(d2.product.degree_bound(), 512);
        let stats = svc.shutdown();
        assert_eq!(stats.batches, 2, "parameter keys form separate batches");
    }

    /// Direct engine product of one pair, the oracle of the tests below.
    fn direct(a: &Polynomial, b: &Polynomial) -> Polynomial {
        use ntt::negacyclic::PolyMultiplier;
        let p = params_for(a.degree_bound(), a.modulus()).unwrap();
        CryptoPim::new(&p).unwrap().multiply(a, b).unwrap()
    }

    /// Test injector: bank 0 panics mid-store in its first `bad_ops`
    /// operations (`u64::MAX` = forever); other banks are clean.
    #[derive(Debug)]
    struct PanicInjector {
        bad_ops: u64,
    }

    #[derive(Debug)]
    struct PanicPath {
        bank: u32,
        bad_ops: u64,
        ops: AtomicU64,
    }

    impl Injector for PanicInjector {
        fn bank_writes(&self, bank: u32) -> Arc<dyn WritePathTrait> {
            Arc::new(PanicPath {
                bank,
                bad_ops: if bank == 0 { self.bad_ops } else { 0 },
                ops: AtomicU64::new(0),
            })
        }
    }

    impl WritePathTrait for PanicPath {
        fn armed(&self) -> bool {
            true
        }
        fn begin_op(&self) {
            self.ops.fetch_add(1, Ordering::Relaxed);
        }
        fn store(&self, _block: u32, _row: u32, value: u64) -> u64 {
            assert!(
                self.ops.load(Ordering::Relaxed) > self.bad_ops,
                "injected write-path panic on bank {}",
                self.bank
            );
            value
        }
        fn bank(&self) -> u32 {
            self.bank
        }
        fn suspect_block(&self) -> Option<u32> {
            None
        }
    }

    #[test]
    fn panic_in_an_inline_batch_resolves_its_tickets_and_frees_the_bank() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            injector: Some(Arc::new(PanicInjector { bad_ops: 1 })),
            ..ServiceConfig::default()
        });
        let q = ParamSet::for_degree(256).unwrap().q;
        let pairs: Vec<(Polynomial, Polynomial)> = (0..2u64)
            .map(|k| (poly(256, q, k), poly(256, q, k + 20)))
            .collect();
        // The idle bank is claimed by this thread, and its first store
        // panics: both jobs of the batch resolve with a typed error
        // instead of hanging, and the bank is free again.
        let results = run_leaves(&svc.shared, pairs.clone()).expect("admitted");
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(matches!(r, Err(ServiceError::Internal { .. })), "{r:?}");
        }
        let stats = svc.stats();
        assert_eq!(stats.inline_batches, 1, "{stats}");
        assert_eq!(stats.in_flight, 0, "{stats}");
        assert_eq!(stats.completed, 2, "{stats}");
        // The bank rebuilds its engine and serves the same pairs
        // bit-exact, inline and through a worker.
        let again = run_leaves(&svc.shared, pairs.clone()).expect("admitted");
        for (r, (a, b)) in again.into_iter().zip(&pairs) {
            assert_eq!(r.expect("served").product, direct(a, b));
        }
        let (a, b) = pairs[0].clone();
        let want = direct(&a, &b);
        let done = svc.submit(a, b).expect("admitted").wait().expect("served");
        assert_eq!(done.product, want);
        // Shutdown joins every thread: none of them died with the batch.
        let stats = svc.shutdown();
        assert_eq!(stats.inline_batches, 2, "{stats}");
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.completed, 5);
    }

    #[test]
    fn bank_that_panics_on_every_op_is_quarantined() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            quarantine_after: 1,
            injector: Some(Arc::new(PanicInjector { bad_ops: u64::MAX })),
            ..ServiceConfig::default()
        });
        let q = ParamSet::for_degree(256).unwrap().q;
        let pairs: Vec<(Polynomial, Polynomial)> = (0..2u64)
            .map(|k| (poly(256, q, k), poly(256, q, k + 30)))
            .collect();
        // On an idle fleet the worker claims bank 0, whose batch unwinds.
        // The waiter sees its job counted and the bank retired.
        let (a, b) = pairs[0].clone();
        let lost = svc.submit(a, b).expect("admitted").wait();
        assert!(
            matches!(lost, Err(ServiceError::Internal { .. })),
            "{lost:?}"
        );
        let stats = svc.stats();
        assert_eq!(stats.in_flight, 0, "{stats}");
        assert_eq!(stats.completed, 1, "{stats}");
        assert_eq!(stats.quarantined_banks, 1, "{stats}");
        // Bank 1 serves everything after, inline and on a worker.
        let results = run_leaves(&svc.shared, pairs.clone()).expect("admitted");
        for (r, (a, b)) in results.into_iter().zip(&pairs) {
            assert_eq!(r.expect("served").product, direct(a, b));
        }
        let (a, b) = pairs[1].clone();
        let want = direct(&a, &b);
        let done = svc.submit(a, b).expect("admitted").wait().expect("served");
        assert_eq!(done.product, want);
        let stats = svc.shutdown();
        assert_eq!(stats.quarantined_banks, 1, "{stats}");
        assert_eq!(stats.completed, 4, "{stats}");
    }

    /// Test injector whose write paths check bank exclusivity: each
    /// records the thread that began its current op and asserts on
    /// every store that the same thread is storing. A bank run by two
    /// threads at once trips the assert, which fails that batch's jobs.
    #[derive(Debug, Default)]
    struct OwnerCheckInjector {
        banks_seen: AtomicU64,
    }

    #[derive(Debug)]
    struct OwnerCheckPath {
        bank: u32,
        owner: Mutex<Option<std::thread::ThreadId>>,
    }

    impl Injector for OwnerCheckInjector {
        fn bank_writes(&self, bank: u32) -> Arc<dyn WritePathTrait> {
            self.banks_seen
                .fetch_max(u64::from(bank) + 1, Ordering::Relaxed);
            Arc::new(OwnerCheckPath {
                bank,
                owner: Mutex::new(None),
            })
        }
    }

    impl WritePathTrait for OwnerCheckPath {
        fn armed(&self) -> bool {
            true
        }
        fn begin_op(&self) {
            *self.owner.lock().unwrap() = Some(std::thread::current().id());
        }
        fn store(&self, _block: u32, _row: u32, value: u64) -> u64 {
            assert_eq!(
                *self.owner.lock().unwrap(),
                Some(std::thread::current().id()),
                "bank {} run by two threads at once",
                self.bank
            );
            value
        }
        fn bank(&self) -> u32 {
            self.bank
        }
        fn suspect_block(&self) -> Option<u32> {
            None
        }
    }

    /// Serves `raw` raw multiplies from one thread (several outstanding
    /// at once) and `proto` protocol ops from two, concurrently, and
    /// checks every output bit-exact against its direct oracle.
    fn serve_mixed(svc: &Service, raw: u64, proto: u64) {
        use crate::graph::ProtocolKind;
        let q = ParamSet::for_degree(256).unwrap().q;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let pairs: Vec<(Polynomial, Polynomial)> = (0..raw)
                    .map(|k| (poly(256, q, k), poly(256, q, k + 500)))
                    .collect();
                for chunk in pairs.chunks(4) {
                    let tickets: Vec<JobTicket> = chunk
                        .iter()
                        .map(|(a, b)| svc.submit(a.clone(), b.clone()).expect("admitted"))
                        .collect();
                    for (t, (a, b)) in tickets.into_iter().zip(chunk) {
                        assert_eq!(t.wait().expect("served").product, direct(a, b));
                    }
                }
            });
            for client in 0..2u64 {
                scope.spawn(move || {
                    let kinds = [
                        ProtocolKind::Encaps,
                        ProtocolKind::Sign,
                        ProtocolKind::SheMul,
                        ProtocolKind::Mul,
                    ];
                    for i in 0..proto {
                        let kind = kinds[(i as usize + client as usize) % kinds.len()];
                        let job = ProtocolJob::scripted(kind, 256, 10 * i + client).unwrap();
                        let want = job.run_direct().unwrap();
                        let done = svc.submit_protocol(job).unwrap().wait();
                        assert_eq!(done.expect("served").output, want, "{kind}");
                    }
                });
            }
        });
    }

    #[test]
    fn banks_run_one_batch_at_a_time_whoever_claims_them() {
        // Every batch runs on a claimed bank and every lane of it calls
        // its bank's `begin_op`, so with no bank ever run by two threads
        // at once, at most `workers` batches run at a time.
        for workers in [1, 2, 4] {
            let injector = Arc::new(OwnerCheckInjector::default());
            let svc = Service::start(ServiceConfig {
                workers,
                injector: Some(injector.clone()),
                ..ServiceConfig::default()
            });
            // A lone op finds every bank idle and runs inline; then the
            // executors and the worker threads contend.
            serve_mixed(&svc, 0, 1);
            serve_mixed(&svc, 16, 6);
            let stats = svc.shutdown();
            assert_eq!(injector.banks_seen.load(Ordering::Relaxed), workers as u64);
            assert!(stats.inline_batches > 0, "workers {workers}: {stats}");
            assert!(
                stats.inline_batches < stats.batches,
                "raw jobs ran on workers: {stats}"
            );
            assert_eq!(
                stats.full_batches + stats.lingered_batches + stats.eager_batches,
                stats.batches
            );
            assert_eq!(stats.in_flight, 0);
            assert_eq!(stats.admitted, stats.completed);
        }
    }

    #[test]
    fn inline_batches_count_only_submitter_run_batches() {
        use crate::graph::ProtocolKind;
        let balanced = |stats: &ServiceStats| {
            stats.full_batches + stats.lingered_batches + stats.eager_batches == stats.batches
        };
        // Protocol ops only: the executors run their own leaf batches.
        let svc = Service::start(ServiceConfig::default());
        serve_mixed(&svc, 0, 4);
        let job = ProtocolJob::scripted(ProtocolKind::WideMul, 256, 3).unwrap();
        let want = job.run_direct().unwrap();
        assert_eq!(
            svc.submit_protocol(job).unwrap().wait().unwrap().output,
            want
        );
        let stats = svc.shutdown();
        assert!(stats.inline_batches > 0, "{stats}");
        assert!(balanced(&stats), "{stats}");
        // Raw multiplies only: every batch runs on a worker thread.
        let svc = Service::start(ServiceConfig::default());
        serve_mixed(&svc, 24, 0);
        let stats = svc.shutdown();
        assert!(stats.batches > 0);
        assert_eq!(stats.inline_batches, 0, "{stats}");
        assert!(balanced(&stats), "{stats}");
    }

    #[test]
    fn leaf_rounds_finish_under_a_full_block_queue_on_one_bank() {
        use crate::graph::ProtocolKind;
        use std::sync::mpsc;
        // Pairs admitted one by one — more pairs than the queue holds,
        // or a wide op's residue lanes, whose keys differ — must not
        // hold a bank while a later pair waits for queue space: with
        // one bank nothing else could drain the queue.
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let svc = Service::start(ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                backpressure: Backpressure::Block,
                ..ServiceConfig::default()
            });
            let q = ParamSet::for_degree(256).unwrap().q;
            let pairs: Vec<(Polynomial, Polynomial)> = (0..3u64)
                .map(|k| (poly(256, q, k), poly(256, q, k + 40)))
                .collect();
            let results = run_leaves(&svc.shared, pairs.clone()).expect("admitted");
            for (r, (a, b)) in results.into_iter().zip(&pairs) {
                assert_eq!(r.expect("served").product, direct(a, b));
            }
            // Raw submitters keep the queue full while wide ops run.
            std::thread::scope(|scope| {
                for client in 0..3u64 {
                    let svc = &svc;
                    scope.spawn(move || {
                        for k in 0..100u64 {
                            let seed = 1000 * (client + 1) + k;
                            let (a, b) = (poly(256, q, seed), poly(256, q, seed + 500));
                            let want = direct(&a, &b);
                            let t = svc.submit(a, b).expect("admitted");
                            assert_eq!(t.wait().expect("served").product, want);
                        }
                    });
                }
                for client in 0..2u64 {
                    let svc = &svc;
                    scope.spawn(move || {
                        for i in 0..20 {
                            let job =
                                ProtocolJob::scripted(ProtocolKind::WideMul, 256, 2 * i + client)
                                    .unwrap();
                            let want = job.run_direct().unwrap();
                            let out = svc.submit_protocol(job).unwrap().wait();
                            assert_eq!(out.expect("served").output, want);
                        }
                    });
                }
            });
            done.send(svc.shutdown()).unwrap();
        });
        let stats = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("leaf rounds and raw load finish on one bank");
        assert_eq!(stats.in_flight, 0, "{stats}");
        assert_eq!(stats.admitted, stats.completed, "{stats}");
    }

    /// [`StuckBitInjector`] that keeps the write paths it hands out, so
    /// a test can read how many ops each bank began.
    #[derive(Debug, Default)]
    struct RecordingInjector {
        paths: Mutex<Vec<Arc<StuckBitPath>>>,
    }

    impl Injector for RecordingInjector {
        fn bank_writes(&self, bank: u32) -> Arc<dyn WritePathTrait> {
            let path = Arc::new(StuckBitPath {
                bank,
                bad_ops: if bank == 0 { u64::MAX } else { 0 },
                epoch: AtomicU64::new(0),
            });
            self.paths.lock().unwrap().push(Arc::clone(&path));
            path
        }
    }

    impl RecordingInjector {
        fn ops_begun(&self, bank: u32) -> u64 {
            let paths = self.paths.lock().unwrap();
            let path = paths.iter().find(|p| p.bank == bank).expect("bank path");
            path.epoch.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn bank_quarantined_by_an_inline_batch_is_never_claimed_again() {
        use crate::graph::ProtocolKind;
        let injector = Arc::new(RecordingInjector::default());
        let svc = Service::start(ServiceConfig {
            workers: 2,
            check: CheckPolicy::Recompute,
            max_attempts: 3,
            quarantine_after: 1,
            injector: Some(injector.clone()),
            ..ServiceConfig::default()
        });
        // The op's executor finds both banks idle and claims the first,
        // bank 0, whose corrupt product quarantines it; the retry runs
        // on bank 1.
        let job = ProtocolJob::scripted(ProtocolKind::Mul, 256, 1).unwrap();
        let want = job.run_direct().unwrap();
        let done = svc.submit_protocol(job).unwrap().wait().expect("recovered");
        assert_eq!(done.output, want);
        assert_eq!(done.attempts, 2);
        let stats = svc.stats();
        assert_eq!(stats.inline_batches, 1, "{stats}");
        assert_eq!(stats.quarantined_banks, 1, "{stats}");
        assert_eq!(stats.faults_detected, 1, "{stats}");
        let bank0_ops = injector.ops_begun(0);
        assert_eq!(bank0_ops, 1, "one job ran on bank 0");
        // Later work, inline and on workers, is served by bank 1 alone
        // and never lands on bank 0.
        serve_mixed(&svc, 8, 4);
        assert_eq!(
            injector.ops_begun(0),
            bank0_ops,
            "quarantined bank reclaimed"
        );
        let stats = svc.shutdown();
        assert_eq!(stats.active_workers, 1);
        assert_eq!(stats.faults_detected, 1, "{stats}");
    }
}
