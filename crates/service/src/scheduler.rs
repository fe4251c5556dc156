//! The scheduler core: leaf admission → batch forming → superbank
//! fleet, all run by the threads whose leaves they are.
//!
//! ```text
//!  protocol op ── run_leaves: admit the round's ──► one queue of groups, oldest first
//!  (its waiter or  leaf pairs under one lock        (a pair joins the newest open
//!   a backstop          │                            group of its (n, q); retries
//!   executor)           │                            at the front)     │
//!       ▲               ▼                                              │
//!       │   loop until the round's leaves resolve: free bank and queued work?
//!       │     yes → claim the bank, run the front group ◄──────────────┘
//!       │     no  → park until a batch resolves a leaf of the round, or a
//!       │           finished round hands over a free bank
//!       └──── the round's leaf results
//! ```
//!
//! Every multiply reaches the batch former as a leaf of a protocol op
//! ([`crate::graph`]), a raw product being the one-node
//! [`crate::ProtocolJob::Mul`], and the thread running that op sits in
//! `run_leaves` until its leaves resolve. That thread is the one that
//! runs batches: after admitting its pairs it loops, and in each pass it
//! either claims a free bank for the oldest queued group or parks. The
//! batch it runs may be its own or another op's; a leaf of another op
//! that it resolves wakes that op's thread. No thread exists only to
//! run batches or to keep a clock.
//!
//! **Forming.** Queued jobs wait in one queue of groups, oldest first.
//! A pair joins the newest group of its `(n, q)` key while that group is
//! below the packed-lane capacity, and otherwise opens a group at the
//! back; reaching capacity is the only seal, and admission reads no
//! clock. A free bank takes the front group as it stands: a *full*
//! batch if it reached capacity, an *eager* one otherwise. A
//! detected-fault retry goes to the front as a group that takes no new
//! job.
//!
//! **Banks are claimed, not owned.** The `S` superbanks live in the
//! shared state, each with its accelerators and its fault-injector
//! write path. A bank runs one batch at a time for whichever thread
//! claimed it under the state lock, so at most `S` batches run at once.
//!
//! **Wake-ups.** Each leaf job carries its owner's [`Thread`]. A batch's
//! results are stored under the state lock, then the batch's runner
//! unparks the owners of its jobs, and no one else. A round that ends
//! while work is still queued and a bank is free unparks one parked
//! owner to take it; a runner whose own round is still open takes that
//! work itself and wakes no one. The park token makes the race between
//! a pass's check and its park harmless. The state lock is never held
//! while an engine runs.
//!
//! **Why the leaf queue needs no bound of its own.** Leaves come only
//! from running ops, at most [`modmath::crt::MAX_RNS_CHANNELS`] per
//! round, and a thread running an op has one round open at a time. So
//! the queued leaves never outnumber four times the threads running
//! ops: the waiters that claimed an op, plus the `workers` backstop
//! executors. The op admission bound ([`ServiceConfig::queue_capacity`])
//! is the one bound. For the same reason no group waits on a deadline:
//! a saturated service queues at the op bound, and a group that waits
//! for a free bank packs whatever joins it meanwhile.
//!
//! **Correctness contract.** Batching is a pure throughput mechanism:
//! every product is computed by the verified engine path
//! ([`cryptopim::batch::multiply_batch_products`] → `Engine`), each job
//! independently of its batch-mates, so products are bit-identical to a
//! direct [`CryptoPim::multiply`](ntt::negacyclic::PolyMultiplier::multiply)
//! of the same pair for any fleet size or arrival order.
//! `tests/service.rs` pins this with a randomized mixed-degree proptest
//! and a fleet-size determinism sweep.

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
use std::thread::{JoinHandle, Thread, ThreadId};
use std::time::Instant;

/// What op admission does once [`ServiceConfig::queue_capacity`] ops
/// are admitted and not yet claimed by a waiter or an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the submitting thread until a claim frees a slot (no op is
    /// ever dropped; overload turns into submitter latency).
    Block,
    /// Fail fast with [`ServiceError::Overloaded`] (the caller owns the
    /// retry policy; overload turns into rejections, never into
    /// unbounded memory).
    Reject,
}

/// Tunables of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Virtual superbanks in the fleet, and the backstop graph executors
    /// that run the ops no waiter claimed. A bank runs one batch at a
    /// time, single-threaded (the fleet itself is the parallelism), on
    /// whichever op thread claimed it — a waiter or an executor — so the
    /// banks are the host-thread budget for engine work. An executor
    /// runs one op at a time: its host ops (sampling, additions, hashing)
    /// inline and its NTT multiplies as leaf rounds. It takes an op
    /// queued behind another unclaimed op (a client's window, concurrent
    /// submitters) at once, any other once its waiter has not come
    /// within the waiter grace, and the queue drained at shutdown.
    pub workers: usize,
    /// Op admission bound: protocol ops admitted but not yet claimed by
    /// a waiter or an executor. The leaf queue needs no bound of its own
    /// (module docs).
    pub queue_capacity: usize,
    /// Policy when the op queue is full.
    pub backpressure: Backpressure,
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
    /// requeue the job at the front of the batch queue, so transient
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
    /// The cache is shared across banks and invalidated whenever a
    /// bank is quarantined.
    pub hot_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 4096,
            backpressure: Backpressure::Block,
            check: CheckPolicy::Disabled,
            max_attempts: 3,
            quarantine_after: 3,
            injector: None,
            hot_capacity: 0,
        }
    }
}

/// Batch-formation key: jobs are only packed with same-parameter jobs.
pub(crate) type ParamKey = (usize, u64);

/// A fulfilled leaf job, returned by its [`JobTicket`].
#[derive(Debug, Clone)]
pub(crate) struct CompletedJob {
    /// The product, bit-identical to a direct engine multiply.
    pub(crate) product: Polynomial,
    /// Execution attempts this job took (1 = first try; > 1 means a
    /// detected-corrupt result was retried and the job *recovered*).
    pub(crate) attempts: u32,
}

/// Handle to one admitted leaf multiply. Leaf tickets are resolved
/// only under the state lock, so a round reads whether it is done
/// there without a race.
pub(crate) type JobTicket = Ticket<CompletedJob>;

struct Job {
    a: Polynomial,
    b: Polynomial,
    ticket: Fulfiller<CompletedJob>,
    /// The thread whose round the job belongs to, unparked once the job
    /// resolves.
    owner: Thread,
    submitted: Instant,
    /// Execution attempts so far, counting the upcoming one (starts
    /// at 1; bumped on each detected-fault requeue).
    attempts: u32,
}

/// Queued same-key jobs, run as one batch by the bank that claims them.
struct Group {
    key: ParamKey,
    jobs: Vec<Job>,
    /// The thread whose admission opened the group; `None` for a retry,
    /// which takes no new job.
    opener: Option<ThreadId>,
}

/// One virtual superbank: its accelerators and its view of the fault
/// injector. A bank runs one batch at a time, for whichever thread
/// claimed it ([`Shared::claim_work`]).
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

/// A bank claimed for one batch. `run_batch` releases it in the
/// critical section that counts the batch; if the batch unwinds first,
/// dropping the claim releases the bank, counts the batch as a faulted
/// one against the bank's quarantine streak, and resolves the batch's
/// tickets as [`ServiceError::Internal`] in that same critical section.
struct Claim<'a> {
    shared: &'a Shared,
    bank: usize,
    jobs: usize,
    /// The batch's tickets and their owners while its engine runs, so an
    /// unwind resolves them after the batch is counted, never before.
    tickets: Vec<(Fulfiller<CompletedJob>, Thread)>,
    released: bool,
}

impl<'a> Claim<'a> {
    /// Puts `jobs` in flight on the claimed `bank`.
    fn new(shared: &'a Shared, st: &mut State, bank: usize, jobs: usize) -> Self {
        st.in_flight += jobs;
        Claim {
            shared,
            bank,
            jobs,
            tickets: Vec::new(),
            released: false,
        }
    }

    fn release(&mut self, st: &mut State) {
        self.released = true;
        st.bank_busy[self.bank] = false;
        st.in_flight -= self.jobs;
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        let owners: Vec<Thread> = {
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
            // Counted first, so a waiter that sees the error also sees
            // its job in `ServiceStats`.
            self.tickets
                .drain(..)
                .map(|(ticket, owner)| {
                    drop(ticket);
                    owner
                })
                .collect()
        };
        owners.iter().for_each(Thread::unpark);
    }
}

pub(crate) struct State {
    /// Groups waiting for a bank, oldest first.
    queue: VecDeque<Group>,
    queued_jobs: usize,
    in_flight: usize,
    /// Per-bank claim flag: the bank is running a batch.
    bank_busy: Vec<bool>,
    /// Round owners parked with leaves unresolved, oldest first: a
    /// round that ends with work queued and a bank free unparks the
    /// first.
    parked: VecDeque<Thread>,
    shutdown: bool,
    admitted: u64,
    /// Ops refused under `Reject`, and leaf jobs refused by a degraded
    /// fleet.
    pub(crate) rejected: u64,
    completed: u64,
    batches: u64,
    full_batches: u64,
    eager_batches: u64,
    /// Batches run by the thread that opened their group.
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
    /// Protocol ops waiting for their waiter or a graph executor.
    pub(crate) proto: Mutex<crate::graph::ProtoQueue>,
    /// Protocol work for an executor, or the last waiter-run op done
    /// during shutdown (graph executors and shutdown wait).
    pub(crate) proto_work: Condvar,
    /// A queued op was claimed or shutdown began (Block-mode op
    /// submitters wait).
    pub(crate) proto_space: Condvar,
}

impl Shared {
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
        }
    }

    /// The first bank neither running a batch nor quarantined.
    fn free_bank(&self, st: &State) -> Option<usize> {
        (0..self.banks.len()).find(|&b| !st.bank_busy[b] && !st.quarantined[b])
    }

    /// The one claim path: when a bank is free and work is queued, marks
    /// the bank busy and takes the front group. A retry group is not
    /// counted again as a batch.
    fn claim_work(&self, st: &mut State, me: ThreadId) -> Option<(Claim<'_>, Group)> {
        if st.queue.is_empty() {
            return None;
        }
        let bank = self.free_bank(st)?;
        let group = st.queue.pop_front().expect("queued work");
        let count = group.jobs.len();
        st.queued_jobs -= count;
        if let Some(opener) = group.opener {
            st.batches += 1;
            st.occupancy_jobs += count as u64;
            if count >= lanes(group.key) {
                st.full_batches += 1;
            } else {
                st.eager_batches += 1;
            }
            if opener == me {
                st.inline_batches += 1;
            }
        }
        st.bank_busy[bank] = true;
        let claim = Claim::new(self, st, bank, count);
        Some((claim, group))
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
/// [`Service::start`], submit with [`Service::submit_protocol`], observe with
/// [`Service::stats`], stop with [`Service::shutdown`] (or drop — the
/// destructor drains too).
pub struct Service {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the fleet and its `workers` backstop graph executors.
    pub fn start(config: ServiceConfig) -> Service {
        let config = ServiceConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            max_attempts: config.max_attempts.max(1),
            quarantine_after: config.quarantine_after.max(1),
            ..config
        };
        let workers = config.workers;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                queued_jobs: 0,
                in_flight: 0,
                bank_busy: vec![false; workers],
                parked: VecDeque::new(),
                shutdown: false,
                admitted: 0,
                rejected: 0,
                completed: 0,
                batches: 0,
                full_batches: 0,
                eager_batches: 0,
                inline_batches: 0,
                occupancy_jobs: 0,
                faults_detected: 0,
                retries: 0,
                recovered: 0,
                bank_streak: vec![0; workers],
                quarantined: vec![false; workers],
                active_banks: workers,
                degraded: false,
                hist: LatencyHistogram::default(),
                proto_lanes: (0..crate::graph::ProtocolKind::COUNT)
                    .map(|_| ProtoLane::default())
                    .collect(),
            }),
            banks: (0..workers)
                .map(|bank| Bank {
                    accelerators: Mutex::new(HashMap::new()),
                    writes: config.injector.as_ref().map(|i| i.bank_writes(bank as u32)),
                })
                .collect(),
            hot: (config.hot_capacity > 0).then(|| Arc::new(HotCache::new(config.hot_capacity))),
            cfg: config,
            proto: Mutex::new(crate::graph::ProtoQueue::default()),
            proto_work: Condvar::new(),
            proto_space: Condvar::new(),
        });
        let executors = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cryptopim-svc-proto-{i}"))
                    .spawn(move || crate::graph::proto_worker_loop(&shared))
                    .expect("spawn protocol executor")
            })
            .collect();
        Service { shared, executors }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    /// The shared scheduler state (for the protocol graph layer).
    pub(crate) fn shared_ref(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// A point-in-time snapshot of queue depth, counters, occupancy,
    /// and latency percentiles.
    pub fn stats(&self) -> ServiceStats {
        let st = self.shared.state.lock().expect("service state poisoned");
        snapshot(&st, self.shared.hot.as_deref())
    }

    /// Graceful shutdown: stops admitting, runs every queued op to
    /// completion, and returns the final statistics. Every ticket issued
    /// before the call resolves.
    pub fn shutdown(mut self) -> ServiceStats {
        self.drain_and_join();
        let st = self.shared.state.lock().expect("service state poisoned");
        snapshot(&st, self.shared.hot.as_deref())
    }

    fn drain_and_join(&mut self) {
        // Every queued protocol op runs to completion while leaf
        // admission is still open, so a ProtocolTicket issued before
        // shutdown always resolves: the executors claim what no waiter
        // has, then the ops waiters claimed finish. Every leaf belongs to
        // one of those ops' rounds, so once they are done the leaf queue
        // is empty and closing it strands nothing.
        {
            let mut pq = self
                .shared
                .proto
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            pq.shutdown = true;
        }
        self.shared.proto_work.notify_all();
        self.shared.proto_space.notify_all();
        for handle in self.executors.drain(..) {
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
        self.shared
            .state
            .lock()
            .expect("service state poisoned")
            .shutdown = true;
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

/// Validates one leaf pair, resolving its batch-formation key.
pub(crate) fn validate_leaf(a: &Polynomial, b: &Polynomial) -> Result<ParamKey, ServiceError> {
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
    Ok((n, params.q))
}

/// The packed-lane capacity of a batch of `key`'s jobs: `32k/n`
/// (§III-D).
fn lanes((n, _): ParamKey) -> usize {
    ArchConfig::packed_lanes(n).expect("validated degree")
}

/// One leaf round of a running protocol op: admits `pairs` under one
/// state-lock acquisition — pairs of one `(n, q)` key join one group up
/// to its capacity, so an op's independent inner products ride one
/// batch — then runs
/// queued batches on the calling thread until every pair has resolved
/// (module docs).
///
/// # Errors
///
/// The index of the first pair that failed validation, or
/// [`ServiceError::ShuttingDown`] / [`ServiceError::Overloaded`] (a
/// degraded fleet) at index 0; nothing is admitted then. An admitted
/// pair's execution failure is its own entry in the returned vector.
pub(crate) fn run_leaves(
    shared: &Shared,
    pairs: Vec<(Polynomial, Polynomial)>,
) -> Result<Vec<Result<CompletedJob, ServiceError>>, (usize, ServiceError)> {
    let (st, round) = admit(shared, pairs, &std::thread::current())?;
    run_round(shared, st, &round);
    Ok(round.into_iter().map(Ticket::wait).collect())
}

/// Leaf admission behind [`run_leaves`]: validates every pair, then
/// queues them all for `owner`, returning the state lock so the round's
/// first pass runs in the same critical section.
fn admit<'a>(
    shared: &'a Shared,
    pairs: Vec<(Polynomial, Polynomial)>,
    owner: &Thread,
) -> Result<(MutexGuard<'a, State>, Vec<JobTicket>), (usize, ServiceError)> {
    let keys = pairs
        .iter()
        .enumerate()
        .map(|(i, (a, b))| validate_leaf(a, b).map_err(|e| (i, e)))
        .collect::<Result<Vec<_>, _>>()?;
    let count = pairs.len();
    let (tickets, fulfillers): (Vec<JobTicket>, Vec<_>) = (0..count).map(|_| ticket()).unzip();
    let mut st = shared.state.lock().expect("service state poisoned");
    if st.shutdown {
        return Err((0, ServiceError::ShuttingDown));
    }
    if st.degraded {
        // Graceful degradation: with the whole fleet quarantined no
        // admitted job could ever execute.
        st.rejected += count as u64;
        return Err((
            0,
            ServiceError::Overloaded {
                capacity: shared.cfg.queue_capacity,
            },
        ));
    }
    let now = Instant::now();
    st.admitted += count as u64;
    st.queued_jobs += count;
    let opener = std::thread::current().id();
    for (((a, b), ticket), key) in pairs.into_iter().zip(fulfillers).zip(keys) {
        let job = Job {
            a,
            b,
            ticket,
            owner: owner.clone(),
            submitted: now,
            attempts: 1,
        };
        let capacity = lanes(key);
        // Only the newest group of a key can be open: an older one is
        // full or a retry. A round crossing the lane boundary opens a
        // new group, never overfilling one past the capacity.
        match st.queue.iter_mut().rev().find(|g| g.key == key) {
            Some(group) if group.opener.is_some() && group.jobs.len() < capacity => {
                group.jobs.push(job);
            }
            _ => {
                let mut jobs = Vec::with_capacity(capacity);
                jobs.push(job);
                st.queue.push_back(Group {
                    key,
                    jobs,
                    opener: Some(opener),
                });
            }
        }
    }
    Ok((st, tickets))
}

/// The round loop: until every ticket of `round` has resolved, claims a
/// free bank for queued work and runs it, or parks. A round that ends
/// with work queued and a bank free unparks one parked owner to take
/// it.
fn run_round<'a>(shared: &'a Shared, mut st: MutexGuard<'a, State>, round: &[JobTicket]) {
    let me = std::thread::current();
    loop {
        if round.iter().all(Ticket::is_done) {
            // Hand-off: queued work and a free bank go to a parked owner,
            // woken outside the lock.
            let free = !st.queue.is_empty() && shared.free_bank(&st).is_some();
            let next = if free { st.parked.pop_front() } else { None };
            drop(st);
            if let Some(next) = next {
                next.unpark();
            }
            return;
        }
        if let Some((claim, batch)) = shared.claim_work(&mut st, me.id()) {
            drop(st);
            run_claimed(shared, claim, batch);
            st = shared.state.lock().expect("service state poisoned");
        } else {
            st.parked.push_back(me.clone());
            drop(st);
            std::thread::park();
            st = shared.state.lock().expect("service state poisoned");
            // Woken by a batch or by a hand-off, which already removed it.
            st.parked.retain(|t| t.id() != me.id());
        }
    }
}

fn snapshot(st: &State, hot: Option<&HotCache>) -> ServiceStats {
    // The wide lane is the `WideMul` protocol lane.
    let wide = &st.proto_lanes[crate::graph::ProtocolKind::WideMul as usize];
    ServiceStats {
        queue_depth: st.queued_jobs,
        in_flight: st.in_flight,
        admitted: st.admitted,
        rejected: st.rejected,
        completed: st.completed,
        batches: st.batches,
        full_batches: st.full_batches,
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

/// Runs a claimed batch on its bank. A panic inside the batch stops
/// here: the claim's drop has released the bank, the batch's tickets
/// resolve as [`ServiceError::Internal`], and the caller keeps serving.
fn run_claimed(shared: &Shared, claim: Claim<'_>, batch: Group) {
    // The default panic hook has already reported the panic; what is
    // left to do was done by the claim's and the fulfillers' drops.
    let _ = panic::catch_unwind(AssertUnwindSafe(|| run_batch(shared, claim, batch)));
}

/// Executes one claimed group as a batch on its bank: per-job outcomes,
/// detected-fault retry bookkeeping, the bank's release, the
/// quarantine decision, and the wake-up of the owners it resolved.
fn run_batch(shared: &Shared, mut claim: Claim<'_>, batch: Group) {
    let bank = claim.bank;
    let count = batch.jobs.len();
    let key = batch.key;
    let mut pairs = Vec::with_capacity(count);
    let mut timing = Vec::with_capacity(count);
    for job in batch.jobs {
        pairs.push((job.a, job.b));
        timing.push((job.submitted, job.attempts));
        claim.tickets.push((job.ticket, job.owner));
    }

    let mut accelerators = shared.banks[bank].accelerators();
    let acc = match accelerators.entry(key) {
        std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
        std::collections::hash_map::Entry::Vacant(e) => params_for(key.0, key.1)
            .ok_or(PimError::Math(modmath::Error::InvalidDegree { n: key.0 }))
            .and_then(|p| CryptoPim::new(&p))
            // Banks run their engine sequentially: the fleet supplies
            // the host parallelism, and nested fan-out would let bank
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
        .map(|((ticket, owner), (submitted, attempts))| (ticket, owner, submitted, attempts));
    let done = Instant::now();

    let mut requeue: Vec<Job> = Vec::new();
    // Ticket, owner, submit time and result of each job the batch resolves.
    let mut results = Vec::with_capacity(count);
    let mut faults = 0u64;
    let mut recovered = 0u64;

    match outcome {
        Ok(outcomes) => {
            for ((result, (a, b)), (ticket, owner, submitted, attempts)) in
                outcomes.into_iter().zip(pairs).zip(metas)
            {
                let result = match result {
                    Ok(product) => {
                        if attempts > 1 {
                            recovered += 1;
                        }
                        Ok(CompletedJob { product, attempts })
                    }
                    Err(PimError::CorruptResult(report)) => {
                        faults += 1;
                        if attempts < shared.cfg.max_attempts {
                            // Requeue at the front: the retry beats any
                            // queued group, bounding its added latency
                            // to one batch trip per attempt.
                            requeue.push(Job {
                                a,
                                b,
                                ticket,
                                owner,
                                submitted,
                                attempts: attempts + 1,
                            });
                            continue;
                        }
                        Err(ServiceError::FaultUnrecovered {
                            bank: report.bank,
                            attempts,
                        })
                    }
                    Err(e) => Err(ServiceError::Pim(e)),
                };
                results.push((ticket, owner, submitted, result));
            }
        }
        Err(e) => {
            for (ticket, owner, submitted, _) in metas {
                results.push((ticket, owner, submitted, Err(ServiceError::Pim(e.clone()))));
            }
        }
    }

    let retried = requeue.len();
    let owners: Vec<Thread> = {
        let mut st = shared.state.lock().expect("service state poisoned");
        claim.release(&mut st);
        st.completed += (count - retried) as u64;
        st.faults_detected += faults;
        st.retries += retried as u64;
        st.recovered += recovered;
        if !requeue.is_empty() {
            st.queued_jobs += retried;
            st.queue.push_front(Group {
                key,
                jobs: requeue,
                opener: None,
            });
        }
        shared.score_bank(&mut st, bank, faults > 0);
        // Results reach their tickets only once the batch is counted, so
        // a waiter that sees its result also sees it in `ServiceStats`;
        // and under the lock, so a round reads its tickets there.
        results
            .into_iter()
            .map(|(ticket, owner, submitted, result)| {
                st.hist
                    .record_us(done.duration_since(submitted).as_micros() as u64);
                ticket.fulfil(result);
                owner
            })
            .collect()
    };
    // Owners wake outside the lock, so they do not contend for it.
    let me = std::thread::current().id();
    for owner in owners.iter().filter(|o| o.id() != me) {
        owner.unpark();
    }
}

/// Last bank quarantined: fail everything queued (no bank can ever run
/// it) and refuse future submissions — the service still answers, it
/// just answers `Overloaded`. It never returns a wrong product.
fn degrade(shared: &Shared, st: &mut State) {
    st.degraded = true;
    let capacity = shared.cfg.queue_capacity;
    let jobs: Vec<Job> = st.queue.drain(..).flat_map(|group| group.jobs).collect();
    st.completed += jobs.len() as u64;
    st.queued_jobs = 0;
    for job in jobs {
        job.ticket
            .fulfil(Err(ServiceError::Overloaded { capacity }));
        job.owner.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ProtocolJob, ProtocolOutput};
    use modmath::crt::RnsBasis;
    use pim::fault::{Injector, WritePath as WritePathTrait};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

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

    /// Admits one raw leaf pair on the calling thread and hands its round
    /// to a spawned thread, which runs it as an op's thread would and
    /// then resolves the returned ticket. The runner did not open the
    /// leaf's group, so no batch it runs counts as inline. Admission
    /// errors return synchronously.
    fn submit(svc: &Service, a: Polynomial, b: Polynomial) -> Result<JobTicket, ServiceError> {
        let (done, fulfiller) = ticket();
        let (hand, handed) = std::sync::mpsc::channel::<Vec<JobTicket>>();
        let shared = Arc::clone(&svc.shared);
        let runner = std::thread::spawn(move || {
            if let Ok(round) = handed.recv() {
                run_round(&shared, shared.state.lock().unwrap(), &round);
                let leaf = round.into_iter().next().expect("one leaf");
                fulfiller.fulfil(leaf.wait());
            }
        });
        let (st, round) = admit(&svc.shared, vec![(a, b)], runner.thread()).map_err(|(_, e)| e)?;
        drop(st);
        hand.send(round).expect("the runner waits for its round");
        Ok(done)
    }

    /// Shuts `svc` down and checks the drained counters.
    fn drained(svc: Service) -> ServiceStats {
        let stats = svc.shutdown();
        stats.check_drained().expect("drained counters balance");
        stats
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
        let done = submit(&svc, a, b)
            .expect("admitted")
            .wait()
            .expect("executed");
        assert_eq!(done.product, direct);
        assert_eq!(
            ArchConfig::packed_lanes(done.product.degree_bound()),
            Ok(64)
        );
        let stats = drained(svc);
        assert_eq!((stats.batches, stats.mean_occupancy), (1, 1.0));
        assert_eq!(stats.latency_samples, 1, "submit → fulfil recorded");
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn full_batch_flushes_at_capacity() {
        // 64 lanes at n = 256: with the lone bank saturated (so the
        // eager path cannot drain singles), 64 same-key jobs fill one
        // group and run as one full batch.
        let (svc, gate) = gated(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let blockers = saturate_one_bank(&svc, 2);
        let q = ParamSet::for_degree(256).unwrap().q;
        let tickets: Vec<JobTicket> = (0..64)
            .map(|k| submit(&svc, poly(256, q, k), poly(256, q, k + 100)).expect("admitted"))
            .collect();
        gate.open();
        for t in tickets {
            t.wait().expect("executed");
        }
        for b in blockers {
            b.wait().expect("executed");
        }
        let stats = drained(svc);
        assert_eq!(stats.batches, 3, "two blocker batches plus one full batch");
        assert_eq!(
            stats.mean_occupancy,
            (1.0 + 1.0 + 64.0) / 3.0,
            "the 64 jobs rode one full-occupancy batch"
        );
        assert_eq!(
            stats.full_batches, 3,
            "32k blockers are full single-lane batches"
        );
        assert_eq!(stats.eager_batches, 0);
    }

    #[test]
    fn idle_fleet_flushes_partials_eagerly() {
        // A lone job on an idle fleet must not wait for batch-mates: its
        // own thread takes the free bank at once.
        let svc = Service::start(ServiceConfig::default());
        let q = ParamSet::for_degree(512).unwrap().q;
        let t = submit(&svc, poly(512, q, 3), poly(512, q, 4)).expect("admitted");
        t.wait().expect("executed");
        let stats = drained(svc);
        assert_eq!(stats.batches, 1, "lone job shipped eagerly");
        assert_eq!(stats.eager_batches, 1);
    }

    /// Test injector: every bank's ops wait at `begin_op` until the test
    /// permits them or opens the gate, so a batch holds its bank for
    /// exactly as long as the test needs rather than for however long
    /// its multiply takes. The paths are armed only until the gate
    /// opens: then banks run the fast datapath again.
    #[derive(Debug, Default)]
    struct GateInjector {
        gate: Arc<Gate>,
    }

    #[derive(Debug, Default)]
    struct Gate {
        /// Ops that may still begin; `u64::MAX` once the gate is open.
        permits: Mutex<u64>,
        changed: Condvar,
    }

    #[derive(Debug)]
    struct GatePath {
        bank: u32,
        gate: Arc<Gate>,
    }

    impl GateInjector {
        fn open(&self) {
            self.permit(u64::MAX);
        }

        /// Lets `ops` more ops (one per batch lane) begin.
        fn permit(&self, ops: u64) {
            let mut permits = self.gate.permits.lock().unwrap();
            *permits = permits.saturating_add(ops);
            self.gate.changed.notify_all();
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
            *self.gate.permits.lock().unwrap() != u64::MAX
        }
        fn begin_op(&self) {
            let permits = self.gate.permits.lock().unwrap();
            let mut permits = self.gate.changed.wait_while(permits, |p| *p == 0).unwrap();
            if *permits != u64::MAX {
                *permits -= 1;
            }
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

    /// Occupies the single bank of a [`gated`] `svc` until the test
    /// opens the gate, so more work can be submitted underneath it.
    /// Degree-32k jobs have exactly one packed lane, so each submit
    /// opens a group that is full at once; the first one claimed holds
    /// the lone bank at the closed gate, and the rest wait in the queue
    /// behind it.
    fn saturate_one_bank(svc: &Service, count: usize) -> Vec<JobTicket> {
        let q = ParamSet::for_degree(32768).unwrap().q;
        let tickets: Vec<JobTicket> = (0..count as u64)
            .map(|k| submit(svc, poly(32768, q, k), poly(32768, q, k + 9)).expect("admitted"))
            .collect();
        // Wait until the first batch is actually on the bank. The
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
        // A job stuck behind a saturated single bank times out on a
        // short wait with a typed error, stays claimable, and resolves
        // to the correct product on a later (patient) wait.
        let (svc, gate) = gated(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let blockers = saturate_one_bank(&svc, 2);
        let p = ParamSet::for_degree(256).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let direct = CryptoPim::new(&p)
            .unwrap()
            .multiply(&poly(256, p.q, 1), &poly(256, p.q, 2))
            .unwrap();
        let ticket = submit(&svc, poly(256, p.q, 1), poly(256, p.q, 2)).expect("admitted");
        let err = ticket
            .wait_timeout(Duration::from_millis(1))
            .expect_err("bank still busy with 32k blockers");
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
        drained(svc);
    }

    #[test]
    fn saturated_fleet_packs_a_waiting_group() {
        let (svc, gate) = gated(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let blocker = saturate_one_bank(&svc, 1);
        // With the bank busy, the first partial cannot run eagerly, so
        // the second same-key job joins its group.
        let q = ParamSet::for_degree(1024).unwrap().q;
        let tickets: Vec<JobTicket> = (0..2)
            .map(|k| submit(&svc, poly(1024, q, k), poly(1024, q, k + 5)).expect("admitted"))
            .collect();
        assert_eq!(
            svc.stats().queue_depth,
            2,
            "both partials queue in one group"
        );
        gate.open();
        for t in tickets.into_iter().chain(blocker) {
            t.wait().expect("executed");
        }
        let stats = drained(svc);
        assert_eq!(stats.batches, 2, "the blocker, then one packed batch");
        assert_eq!(stats.mean_occupancy, (1.0 + 2.0) / 2.0, "{stats}");
        assert_eq!(stats.eager_batches, 1, "{stats}");
    }

    #[test]
    fn oldest_group_runs_first_across_keys() {
        let (svc, gate) = gated(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let blocker = saturate_one_bank(&svc, 1);
        // Under the held bank, a partial n = 256 group queues first,
        // then an n = 32k group that is full with its one job.
        let q256 = ParamSet::for_degree(256).unwrap().q;
        let q32k = ParamSet::for_degree(32768).unwrap().q;
        let older = submit(&svc, poly(256, q256, 1), poly(256, q256, 2)).expect("admitted");
        let newer = submit(&svc, poly(32768, q32k, 3), poly(32768, q32k, 4)).expect("admitted");
        assert_eq!(svc.stats().queue_depth, 2);
        // The blocker's one lane runs; the next batch claimed then holds
        // the bank at the gate, so the queue stands still.
        gate.permit(1);
        let deadline = Instant::now() + Duration::from_secs(300);
        while !blocker[0].is_done() || svc.stats().in_flight == 0 {
            assert!(Instant::now() < deadline, "no second batch claimed");
            std::thread::yield_now();
        }
        let stats = svc.stats();
        assert_eq!((stats.queue_depth, stats.in_flight), (1, 1), "{stats}");
        assert_eq!(
            (stats.full_batches, stats.eager_batches),
            (1, 1),
            "the older partial group runs before the newer full one: {stats}"
        );
        gate.open();
        for t in [older, newer].into_iter().chain(blocker) {
            t.wait().expect("executed");
        }
        let stats = drained(svc);
        assert_eq!((stats.full_batches, stats.eager_batches), (2, 1), "{stats}");
    }

    #[test]
    fn reject_policy_returns_typed_error() {
        // The op bound at two capacities: the op past it surfaces the
        // typed overload synchronously, and the admitted ones still
        // complete.
        for capacity in [1, 2] {
            let (svc, gate) = gated(ServiceConfig {
                workers: 1,
                queue_capacity: capacity,
                backpressure: Backpressure::Reject,
                ..ServiceConfig::default()
            });
            let q = ParamSet::for_degree(1024).unwrap().q;
            let mul = |k: u64| ProtocolJob::Mul {
                a: poly(1024, q, 2 * k),
                b: poly(1024, q, 2 * k + 1),
            };
            // An op nobody waits for is the lone executor's once the
            // waiter grace has passed; its leaf then holds the lone bank
            // at the closed gate, so the ops submitted next stay
            // unclaimed and count against the bound.
            let blocker = svc.submit_protocol(mul(50)).expect("admitted");
            let deadline = Instant::now() + Duration::from_secs(60);
            while svc.stats().in_flight == 0 {
                assert!(Instant::now() < deadline, "no executor took the blocker");
                std::thread::yield_now();
            }
            let admitted: Vec<_> = (0..capacity as u64)
                .map(|k| svc.submit_protocol(mul(k)).expect("fits the queue"))
                .collect();
            let over = svc.submit_protocol(mul(49));
            assert_eq!(over.err(), Some(ServiceError::Overloaded { capacity }));
            let stats = svc.stats();
            assert_eq!(stats.rejected, 1);
            gate.open();
            let final_stats = drained(svc);
            assert_eq!(final_stats.admitted, capacity as u64 + 1);
            assert_eq!(
                final_stats.completed,
                capacity as u64 + 1,
                "drained on shutdown"
            );
            for t in std::iter::once(blocker).chain(admitted) {
                t.wait().expect("admitted job completes");
            }
        }
    }

    #[test]
    fn invalid_jobs_fail_synchronously() {
        let svc = Service::start(ServiceConfig::default());
        let q = ParamSet::for_degree(256).unwrap().q;
        assert_eq!(
            submit(&svc, poly(256, q, 1), poly(512, 12289, 1)).err(),
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
            submit(&svc, wrong_q.clone(), wrong_q).err(),
            Some(ServiceError::UnsupportedJob { n: 256, q: 17 })
        );
        let stats = drained(svc);
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
        let done = submit(&svc, poly(256, q, 1), poly(256, q, 2))
            .expect("admitted")
            .wait()
            .expect("executed");
        assert_eq!(done.product, direct);
        drained(svc);
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
        let stats = drained(svc);
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
        let stats = drained(svc);
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
        let stats = drained(svc);
        assert_eq!(stats.admitted, 0);
        let svc2 = Service::start(ServiceConfig::default());
        {
            let mut st = svc2.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        assert_eq!(
            submit(&svc2, poly(256, q, 1), poly(256, q, 2)).err(),
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
        let done = submit(&svc, poly(256, p.q, 1), poly(256, p.q, 2))
            .expect("admitted")
            .wait()
            .expect("recovered on retry");
        assert_eq!(done.product, direct, "recovered product is bit-exact");
        assert_eq!(done.attempts, 2);
        let stats = drained(svc);
        assert_eq!(stats.faults_detected, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.quarantined_banks, 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn permanent_fault_quarantines_and_degrades() {
        // One bank, permanently corrupt: attempts exhaust into
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
        let err = submit(&svc, poly(256, q, 1), poly(256, q, 2))
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
        let refused = submit(&svc, poly(256, q, 3), poly(256, q, 4)).err();
        assert!(
            matches!(refused, Some(ServiceError::Overloaded { .. })),
            "degraded fleet refuses instead of corrupting: {refused:?}"
        );
        let stats = drained(svc);
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
            let done = submit(&svc, a, b)
                .expect("admitted")
                .wait()
                .expect("served");
            assert_eq!(done.product, direct, "job {k}");
        }
        let stats = drained(svc);
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
            let done = submit(&svc, a.clone(), b)
                .expect("admitted")
                .wait()
                .expect("served");
            assert_eq!(done.product, direct, "job {k}");
        }
        let stats = drained(svc);
        assert!(stats.hot_hits >= 1, "reused key must hit: {stats}");
        assert!(stats.hot_misses >= 1, "first sight of the key misses");
    }

    #[test]
    fn mixed_keys_never_share_a_batch() {
        let svc = Service::start(ServiceConfig::default());
        let q256 = ParamSet::for_degree(256).unwrap().q;
        let q512 = ParamSet::for_degree(512).unwrap().q;
        let t1 = submit(&svc, poly(256, q256, 1), poly(256, q256, 2)).expect("admitted");
        let t2 = submit(&svc, poly(512, q512, 1), poly(512, q512, 2)).expect("admitted");
        let d1 = t1.wait().expect("executed");
        let d2 = t2.wait().expect("executed");
        assert_eq!(d1.product.degree_bound(), 256);
        assert_eq!(d2.product.degree_bound(), 512);
        let stats = drained(svc);
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
        // bit-exact, inline and for a round another thread opened.
        let again = run_leaves(&svc.shared, pairs.clone()).expect("admitted");
        for (r, (a, b)) in again.into_iter().zip(&pairs) {
            assert_eq!(r.expect("served").product, direct(a, b));
        }
        let (a, b) = pairs[0].clone();
        let want = direct(&a, &b);
        let done = submit(&svc, a, b)
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(done.product, want);
        // Shutdown joins every thread: none of them died with the batch.
        let stats = svc.shutdown();
        stats.check_drained().expect("drained counters balance");
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
        // On an idle fleet the runner claims bank 0, whose batch unwinds.
        // The waiter sees its job counted and the bank retired.
        let (a, b) = pairs[0].clone();
        let lost = submit(&svc, a, b).expect("admitted").wait();
        assert!(
            matches!(lost, Err(ServiceError::Internal { .. })),
            "{lost:?}"
        );
        let stats = svc.stats();
        assert_eq!(stats.in_flight, 0, "{stats}");
        assert_eq!(stats.completed, 1, "{stats}");
        assert_eq!(stats.quarantined_banks, 1, "{stats}");
        // Bank 1 serves everything after, inline and for another opener.
        let results = run_leaves(&svc.shared, pairs.clone()).expect("admitted");
        for (r, (a, b)) in results.into_iter().zip(&pairs) {
            assert_eq!(r.expect("served").product, direct(a, b));
        }
        let (a, b) = pairs[1].clone();
        let want = direct(&a, &b);
        let done = submit(&svc, a, b)
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(done.product, want);
        let stats = svc.shutdown();
        stats.check_drained().expect("drained counters balance");
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
                        .map(|(a, b)| submit(svc, a.clone(), b.clone()).expect("admitted"))
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
            // op threads and the raw leaves' runners contend.
            serve_mixed(&svc, 0, 1);
            serve_mixed(&svc, 16, 6);
            let stats = svc.shutdown();
            stats.check_drained().expect("drained counters balance");
            assert_eq!(injector.banks_seen.load(Ordering::Relaxed), workers as u64);
            assert!(stats.inline_batches > 0, "workers {workers}: {stats}");
            assert!(
                stats.inline_batches < stats.batches,
                "raw jobs ran on workers: {stats}"
            );
            assert_eq!(stats.full_batches + stats.eager_batches, stats.batches);
            assert_eq!(stats.in_flight, 0);
            assert_eq!(stats.admitted, stats.completed);
        }
    }

    #[test]
    fn inline_batches_count_only_submitter_run_batches() {
        use crate::graph::ProtocolKind;
        let balanced =
            |stats: &ServiceStats| stats.full_batches + stats.eager_batches == stats.batches;
        // Protocol ops only: the op threads run their own leaf batches.
        let svc = Service::start(ServiceConfig::default());
        serve_mixed(&svc, 0, 4);
        let job = ProtocolJob::scripted(ProtocolKind::WideMul, 256, 3).unwrap();
        let want = job.run_direct().unwrap();
        assert_eq!(
            svc.submit_protocol(job).unwrap().wait().unwrap().output,
            want
        );
        let stats = drained(svc);
        assert!(stats.inline_batches > 0, "{stats}");
        assert!(balanced(&stats), "{stats}");
        // Raw leaves only: each runs on a thread that did not open its
        // group.
        let svc = Service::start(ServiceConfig::default());
        serve_mixed(&svc, 24, 0);
        let stats = drained(svc);
        assert!(stats.batches > 0);
        assert_eq!(stats.inline_batches, 0, "{stats}");
        assert!(balanced(&stats), "{stats}");
    }

    #[test]
    fn leaf_rounds_finish_under_a_full_block_queue_on_one_bank() {
        use crate::graph::ProtocolKind;
        use std::sync::mpsc;
        // A round's pairs — more of them than the op queue holds, or a
        // wide op's residue lanes, whose keys differ — are admitted under
        // one lock with no leaf bound to wait on, so with one bank and a
        // one-op queue every round still finishes.
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
                            let t = submit(svc, a, b).expect("admitted");
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
        stats.check_drained().expect("drained counters balance");
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
        // Later work, inline and for other openers, is served by bank 1 alone
        // and never lands on bank 0.
        serve_mixed(&svc, 8, 4);
        assert_eq!(
            injector.ops_begun(0),
            bank0_ops,
            "quarantined bank reclaimed"
        );
        let stats = svc.shutdown();
        stats.check_drained().expect("drained counters balance");
        assert_eq!(stats.active_workers, 1);
        assert_eq!(stats.faults_detected, 1, "{stats}");
    }
}
