//! The protocol job-graph layer: full RLWE protocol ops served through
//! the batch-forming fleet.
//!
//! ```text
//!  submit_protocol(job) ──► proto queue ──┬─► its waiter (Ticket::wait or
//!                           (bounded; one │   wait_timeout) runs it, or
//!                            claim flag   └─► one of the `workers` backstop
//!                            per op)          executors, once no waiter
//!                                             claimed it within WAITER_GRACE,
//!                                             or at once when it queued
//!                                             behind an unclaimed op
//!                                             │ host ops (sampling,
//!                                             │ additions, hashing)
//!                                             ▼
//!                     leaf NTT multiplies ──► scheduler::run_leaves: the
//!                     (one round at a time)   running thread runs queued
//!                                             batches on free banks until
//!                                             its round resolves, or parks
//! ```
//!
//! **Who runs an op.** A queued op is claimed exactly once, through one
//! flag on the queued op, by whichever thread gets there first: its own
//! waiter, which then runs the op on its thread instead of sleeping
//! until an executor wakes it, or a graph executor. A closed-loop client
//! submits and waits at once, so its op runs on its own thread and no
//! executor is woken for it. Executors run the ops no waiter has come
//! for: one queued behind another unclaimed op (a client's window, or a
//! concurrent submitter) at once, any other after `WAITER_GRACE` (a
//! dropped ticket, or a waiter that is late). Every op runs through the
//! same `run_protocol`, with the same unwind guard and stats.
//!
//! **Admission.** At most [`crate::ServiceConfig::queue_capacity`] ops
//! may be admitted and not yet claimed; past that, a `Block` submitter
//! waits for a claim and a `Reject` one gets a counted
//! [`ServiceError::Overloaded`]. This is the one admission bound: a
//! claimed op's leaves are admitted at once (a degraded fleet refuses
//! them at the op's wait), and the leaves queued at any moment are at
//! most four per running op (`scheduler` module docs). An op with no
//! waiter starts within `WAITER_GRACE` once one of the `workers`
//! executors is free.
//!
//! A typed [`ProtocolJob`] (KeyGen / PKE-Enc/Dec / Encaps / Decaps /
//! SHE-Mul / Sign / Verify — plus the trivial one-node `Mul` and k-lane
//! `WideMul` graphs that re-express the raw lanes on the same
//! substrate) compiles into a small DAG of NTT-multiply nodes joined by
//! cheap host ops, all implemented in `crates/rlwe` against the
//! pluggable [`PolyMultiplier`] trait. The thread running the op runs
//! the host ops inline and routes every multiply node through the
//! ordinary `(n, q)` batch former as a leaf job. Each leaf round is one
//! blocking `scheduler::run_leaves` call, in which the running thread
//! itself runs queued batches — its own or another op's, checks,
//! retries and quarantine included — whenever a bank is free, and parks
//! while every bank is busy. So:
//!
//! * **Cross-tenant batching** — inner products of *different* protocol
//!   ops (different tenants, different kinds) pack into the same
//!   hardware batches whenever their rings match, and the independent
//!   product pairs inside one op ([`PolyMultiplier::multiply_pair`])
//!   are admitted under one lock so they ride one batch together.
//! * **Hot-operand reuse** — repeated public keys and evaluation keys
//!   hit the fleet-wide transform cache exactly like hot `a` operands
//!   of raw multiplies.
//! * **Per-node fault isolation** — each multiply node inherits the
//!   [`CheckPolicy`](cryptopim::check::CheckPolicy) retry/quarantine
//!   machinery individually: a detected fault retries *one node*, not
//!   the whole protocol op, and a terminal node failure surfaces as
//!   [`ServiceError::ProtocolNode`] naming the node (a wide multiply's
//!   nodes are its residue lanes).
//!
//! **Correctness contract.** The graph layer changes *where* multiplies
//! execute, never *what* they compute: the executor drives the exact
//! `crates/rlwe` code paths through a service-backed multiplier whose
//! products are bit-identical to the direct engine path, so every
//! protocol output equals the direct `crates/rlwe` execution of the
//! same inputs for any fleet size or arrival order. `tests/protocol.rs`
//! pins this per kind across fleet sizes {1, 2, 4}.

use crate::error::ServiceError;
use crate::scheduler::{self, Backpressure, Service, Shared};
use crate::ticket::{ticket, Claim, Fulfiller, Ticket};
use cryptopim::phase;
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use rlwe::kem::{self, Encapsulated, KemKeyPair, MESSAGE_BITS};
use rlwe::pke::{Ciphertext, KeyPair, PublicKey, SecretKey};
use rlwe::sampling;
use rlwe::serialize;
use rlwe::she::HomCiphertext;
use rlwe::signature::{Signature, SigningKey, VerifyKey};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant};

/// The protocol kinds servable through
/// [`Service::submit_protocol`]. The discriminant doubles as the wire
/// code of the `SubmitProtocol` frame and as the per-kind stats index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ProtocolKind {
    /// One raw negacyclic product: a one-node graph, the service's only
    /// narrow multiply.
    Mul = 0,
    /// One wide (RNS-decomposed) product over `Q = Π q_i`: a k-lane
    /// graph whose residue lanes ride the ordinary `(n, q_i)` batch
    /// former and recombine on the host — the service's only wide
    /// multiply.
    WideMul = 1,
    /// RLWE PKE key generation (1 multiply).
    KeyGen = 2,
    /// PKE encryption (2 independent multiplies).
    PkeEncrypt = 3,
    /// PKE decryption (1 multiply).
    PkeDecrypt = 4,
    /// KEM encapsulation (2 independent multiplies).
    Encaps = 5,
    /// KEM decapsulation with the FO re-encryption check (3 multiplies).
    Decaps = 6,
    /// Somewhat-homomorphic plaintext product (2 independent
    /// multiplies).
    SheMul = 7,
    /// GLP signing with rejection sampling (3 multiplies per attempt).
    Sign = 8,
    /// GLP verification (2 independent multiplies).
    Verify = 9,
}

impl ProtocolKind {
    /// Number of kinds (stats lanes).
    pub const COUNT: usize = 10;

    /// Every kind, in discriminant order.
    pub const ALL: [ProtocolKind; ProtocolKind::COUNT] = [
        ProtocolKind::Mul,
        ProtocolKind::WideMul,
        ProtocolKind::KeyGen,
        ProtocolKind::PkeEncrypt,
        ProtocolKind::PkeDecrypt,
        ProtocolKind::Encaps,
        ProtocolKind::Decaps,
        ProtocolKind::SheMul,
        ProtocolKind::Sign,
        ProtocolKind::Verify,
    ];

    /// Stable snake_case name (stats keys, CLI mix specs).
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolKind::Mul => "mul",
            ProtocolKind::WideMul => "wide_mul",
            ProtocolKind::KeyGen => "keygen",
            ProtocolKind::PkeEncrypt => "pke_enc",
            ProtocolKind::PkeDecrypt => "pke_dec",
            ProtocolKind::Encaps => "encaps",
            ProtocolKind::Decaps => "decaps",
            ProtocolKind::SheMul => "she_mul",
            ProtocolKind::Sign => "sign",
            ProtocolKind::Verify => "verify",
        }
    }

    /// The kind at stats-lane `index`.
    pub fn from_index(index: usize) -> Option<ProtocolKind> {
        ProtocolKind::ALL.get(index).copied()
    }

    /// Decodes a wire code (the discriminant).
    pub fn from_u8(code: u8) -> Option<ProtocolKind> {
        ProtocolKind::from_index(code as usize)
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed protocol op, compiled by the graph executor into NTT-multiply
/// leaf nodes plus host ops.
#[derive(Debug, Clone)]
pub enum ProtocolJob {
    /// Raw product `a · b` (one-node graph).
    Mul {
        /// Left operand.
        a: Polynomial,
        /// Right operand.
        b: Polynomial,
    },
    /// Wide product over `Q = Π q_i` (k-lane graph).
    WideMul {
        /// Left operand (coefficients below the basis modulus).
        a: Vec<u128>,
        /// Right operand.
        b: Vec<u128>,
        /// The residue basis.
        basis: RnsBasis,
    },
    /// Generate a PKE key pair.
    KeyGen {
        /// Ring parameters.
        params: ParamSet,
        /// Sampling seed.
        seed: u64,
    },
    /// Encrypt `bits` under `pk`.
    PkeEncrypt {
        /// Recipient public key.
        pk: PublicKey,
        /// Message bits (≤ n).
        bits: Vec<u8>,
        /// Encryption-randomness seed.
        seed: u64,
    },
    /// Decrypt `ct` under `sk`.
    PkeDecrypt {
        /// Recipient secret key.
        sk: SecretKey,
        /// The ciphertext.
        ct: Ciphertext,
    },
    /// Encapsulate a fresh shared secret to `pk`.
    Encaps {
        /// Recipient public key.
        pk: PublicKey,
        /// Message-choice entropy.
        entropy: u64,
    },
    /// Decapsulate `ct` (FO re-encryption check, implicit rejection).
    Decaps {
        /// The recipient's KEM key pair.
        keys: Box<KemKeyPair>,
        /// The ciphertext.
        ct: Ciphertext,
    },
    /// Homomorphic plaintext product `ct · plain`.
    SheMul {
        /// The homomorphic ciphertext.
        ct: HomCiphertext,
        /// The public plaintext polynomial.
        plain: Polynomial,
    },
    /// Sign `message` (Fiat–Shamir with aborts).
    Sign {
        /// The signing key.
        key: Box<SigningKey>,
        /// The message.
        message: Vec<u8>,
        /// Masking-randomness seed.
        seed: u64,
    },
    /// Verify `signature` over `message`.
    Verify {
        /// The verification key.
        key: VerifyKey,
        /// The message.
        message: Vec<u8>,
        /// The signature.
        signature: Signature,
    },
}

/// The typed result of a protocol op.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolOutput {
    /// [`ProtocolJob::Mul`]: the product.
    Product(Polynomial),
    /// [`ProtocolJob::WideMul`]: the recombined wide product.
    WideProduct(Vec<u128>),
    /// [`ProtocolJob::KeyGen`]: the generated pair.
    KeyPair(Box<KeyPair>),
    /// [`ProtocolJob::PkeEncrypt`]: the ciphertext.
    Ciphertext(Ciphertext),
    /// [`ProtocolJob::PkeDecrypt`]: the recovered bits.
    Bits(Vec<u8>),
    /// [`ProtocolJob::Encaps`]: ciphertext plus sender secret.
    Encapsulated(Encapsulated),
    /// [`ProtocolJob::Decaps`]: the recovered shared secret.
    SharedSecret([u8; kem::SHARED_SECRET_BYTES]),
    /// [`ProtocolJob::SheMul`]: the product ciphertext.
    SheCiphertext(HomCiphertext),
    /// [`ProtocolJob::Sign`]: the signature and how many
    /// rejection-sampling attempts it took.
    Signature {
        /// The accepted signature.
        signature: Signature,
        /// Rejection-sampling attempts (1 = accepted first try).
        sign_attempts: u32,
    },
    /// [`ProtocolJob::Verify`]: whether the signature verified.
    Verdict(bool),
}

impl ProtocolOutput {
    /// A 64-bit FNV-1a digest over the output's canonical byte encoding
    /// — what the TCP front end returns in `ProtocolDone` frames so
    /// remote clients can bit-compare a served op against a local
    /// reference without shipping megabytes of polynomials.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match self {
            ProtocolOutput::Product(p) => {
                eat(&[1]);
                eat(&serialize::polynomial_to_bytes(p));
            }
            ProtocolOutput::WideProduct(v) => {
                eat(&[2]);
                for &c in v {
                    eat(&c.to_le_bytes());
                }
            }
            ProtocolOutput::KeyPair(kp) => {
                // Public half only: the digest may travel over the wire
                // and must not become a secret-key oracle.
                eat(&[3]);
                eat(&serialize::polynomial_to_bytes(kp.public().a()));
                eat(&serialize::polynomial_to_bytes(kp.public().b()));
            }
            ProtocolOutput::Ciphertext(ct) => {
                eat(&[4]);
                eat(&serialize::ciphertext_to_bytes(ct));
            }
            ProtocolOutput::Bits(bits) => {
                eat(&[5]);
                eat(bits);
            }
            ProtocolOutput::Encapsulated(enc) => {
                eat(&[6]);
                eat(&serialize::ciphertext_to_bytes(&enc.ciphertext));
                eat(&enc.shared_secret);
            }
            ProtocolOutput::SharedSecret(ss) => {
                eat(&[7]);
                eat(ss);
            }
            ProtocolOutput::SheCiphertext(hc) => {
                eat(&[8]);
                eat(&serialize::ciphertext_to_bytes(hc.inner()));
                eat(&hc.additions.to_le_bytes());
            }
            ProtocolOutput::Signature {
                signature,
                sign_attempts,
            } => {
                eat(&[9]);
                eat(&serialize::polynomial_to_bytes(signature.z1()));
                eat(&serialize::polynomial_to_bytes(signature.z2()));
                eat(signature.challenge());
                eat(&sign_attempts.to_le_bytes());
            }
            ProtocolOutput::Verdict(ok) => {
                eat(&[10, u8::from(*ok)]);
            }
        }
        h
    }
}

/// A fulfilled protocol op, returned by [`ProtocolTicket::wait`].
#[derive(Debug, Clone)]
pub struct ProtocolCompleted {
    /// The typed output, bit-identical to the direct `crates/rlwe`
    /// execution of the same job.
    pub output: ProtocolOutput,
    /// NTT-multiply leaf nodes the op compiled into (Sign counts every
    /// rejection-sampling attempt's nodes).
    pub nodes: u32,
    /// Worst per-node execution attempts (1 = every node clean on its
    /// first try; > 1 means some node recovered from a detected fault).
    pub attempts: u32,
    /// Time from submission to the op starting to run, on its waiter or
    /// a graph executor, µs.
    pub queue_us: f64,
    /// End-to-end op time (submit → output ready), µs.
    pub service_us: f64,
    /// The running thread's time on this op outside its leaf rounds,
    /// µs: sampling, additions, hashing, encoding — the op's "graph host
    /// ops" share of `service_us`. A leaf round counts whole, from
    /// admission to results, including the engine time of the batches
    /// the thread ran itself.
    pub host_us: f64,
}

/// Handle to one submitted protocol op. Obtain the result with
/// [`Ticket::wait`], which runs the op on the calling thread if no graph
/// executor has claimed it yet.
pub type ProtocolTicket = Ticket<ProtocolCompleted>;

/// One protocol op, taken by the thread that runs it.
pub(crate) struct ProtoTask {
    job: ProtocolJob,
    kind: ProtocolKind,
    ticket: Fulfiller<ProtocolCompleted>,
}

/// How long a queued op is left to its own waiter before a graph
/// executor takes it, unless another unclaimed op is queued ahead of it.
/// A closed-loop client waits right after it submits, so its op runs on
/// its own thread and no executor is woken for it; an op whose waiter
/// comes late or never (a dropped ticket, or one further back in a
/// client's window) still starts within this bound once an executor is
/// free.
pub(crate) const WAITER_GRACE: Duration = Duration::from_millis(1);

/// The protocol-op queue: typed protocol ops waiting for their waiter
/// or a free graph executor to claim them. Kept apart from the leaf
/// queue: an op holds no slot here while its leaves run. An op a
/// waiter claimed stays queued until an enqueue or an executor drops
/// it. Its lock is poison-tolerant:
/// every update is one push, pop, flag or counter step, so a panic
/// cannot leave it half-updated.
#[derive(Default)]
pub(crate) struct ProtoQueue {
    queue: VecDeque<Arc<QueuedOp>>,
    pub(crate) shutdown: bool,
    /// Ops their waiters claimed and are running now; shutdown waits for
    /// them as it joins the executors.
    pub(crate) helping: usize,
    /// Ops ever queued (the grace clock's activity test).
    enqueued: u64,
    /// Ops admitted and not yet claimed: the admission bound's count.
    unclaimed: usize,
    /// `Block` submitters waiting for a claim to free a slot.
    blocked: usize,
    /// An executor sleeps on the grace clock, so an enqueue need not
    /// wake one.
    watching: bool,
}

/// One queued protocol op, shared by the proto queue and the op's
/// ticket. Its waiter and the graph executors race to claim it through
/// one flag; whoever wins runs it through [`run_protocol`], and the
/// others leave it alone.
pub(crate) struct QueuedOp {
    /// Set by the first claim; only that claim takes the task. The flag
    /// publishes no data (the task sits behind its own mutex), so its
    /// `Acquire` loads pair with the claiming swap only for the answer.
    claimed: AtomicBool,
    submitted: Instant,
    /// The op, until the winning claim takes it.
    task: Mutex<Option<ProtoTask>>,
    /// The service, for a waiter that runs the op. Weak, so a ticket
    /// kept past shutdown does not keep the fleet alive; by then an
    /// executor has claimed the op anyway.
    shared: Weak<Shared>,
}

impl QueuedOp {
    fn is_claimed(&self) -> bool {
        self.claimed.load(Ordering::Acquire)
    }

    /// Claims the op for the calling thread: `Some` for exactly one
    /// caller, however many race.
    fn claim(&self) -> Option<ProtoTask> {
        if self.claimed.swap(true, Ordering::AcqRel) {
            return None;
        }
        let task = self
            .task
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        Some(task.expect("the winning claim takes the op"))
    }
}

impl Claim for QueuedOp {
    /// The waiter's claim. It is made under the proto-queue lock and
    /// counted in `ProtoQueue::helping` until the op has run, so
    /// shutdown waits for a waiter-run op as it joins the executors.
    fn run_if_unclaimed(&self) {
        if self.is_claimed() {
            return;
        }
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let task = {
            let mut pq = shared.proto.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(task) = pq.claim(self, &shared.proto_space) else {
                return;
            };
            pq.helping += 1;
            task
        };
        let _helping = Helping(&shared);
        run_protocol(&shared, task, self.submitted);
    }
}

/// Uncounts a waiter-run op from `ProtoQueue::helping` once it has run
/// (or unwound), waking a shutdown that waits for it.
struct Helping<'a>(&'a Shared);

impl Drop for Helping<'_> {
    fn drop(&mut self) {
        let mut pq = self.0.proto.lock().unwrap_or_else(PoisonError::into_inner);
        pq.helping -= 1;
        if pq.helping == 0 && pq.shutdown {
            self.0.proto_work.notify_all();
        }
    }
}

impl ProtocolJob {
    /// The job's kind (stats lane, wire code).
    pub fn kind(&self) -> ProtocolKind {
        match self {
            ProtocolJob::Mul { .. } => ProtocolKind::Mul,
            ProtocolJob::WideMul { .. } => ProtocolKind::WideMul,
            ProtocolJob::KeyGen { .. } => ProtocolKind::KeyGen,
            ProtocolJob::PkeEncrypt { .. } => ProtocolKind::PkeEncrypt,
            ProtocolJob::PkeDecrypt { .. } => ProtocolKind::PkeDecrypt,
            ProtocolJob::Encaps { .. } => ProtocolKind::Encaps,
            ProtocolJob::Decaps { .. } => ProtocolKind::Decaps,
            ProtocolJob::SheMul { .. } => ProtocolKind::SheMul,
            ProtocolJob::Sign { .. } => ProtocolKind::Sign,
            ProtocolJob::Verify { .. } => ProtocolKind::Verify,
        }
    }

    /// The `(n, q)` ring the job's multiply nodes run under (the first
    /// lane's ring for wide jobs).
    pub fn ring(&self) -> (usize, u64) {
        match self {
            ProtocolJob::Mul { a, .. } => (a.degree_bound(), a.modulus()),
            ProtocolJob::WideMul { a, basis, .. } => {
                (a.len(), basis.moduli().first().copied().unwrap_or(0))
            }
            ProtocolJob::KeyGen { params, .. } => (params.n, params.q),
            ProtocolJob::PkeEncrypt { pk, .. } => (pk.params().n, pk.params().q),
            ProtocolJob::PkeDecrypt { sk, .. } => (sk.params().n, sk.params().q),
            ProtocolJob::Encaps { pk, .. } => (pk.params().n, pk.params().q),
            ProtocolJob::Decaps { keys, .. } => {
                (keys.public().params().n, keys.public().params().q)
            }
            ProtocolJob::SheMul { ct, .. } => (ct.inner().u.degree_bound(), ct.inner().u.modulus()),
            ProtocolJob::Sign { key, .. } => (key.params().n, key.params().q),
            ProtocolJob::Verify { key, .. } => (key.params().n, key.params().q),
        }
    }

    /// Synchronous admission validation: every ring the job's multiply
    /// nodes will run under must have an accelerator configuration,
    /// every operand must live in the job's ring, and host-op
    /// preconditions that would otherwise panic (KEM message capacity)
    /// or fail deep inside the executor are checked here.
    fn validate(&self) -> Result<(), ServiceError> {
        match self {
            ProtocolJob::Mul { a, b } => {
                scheduler::validate_leaf(a, b)?;
            }
            ProtocolJob::WideMul { a, b, basis } => {
                if a.len() != b.len() {
                    return Err(ServiceError::PairMismatch {
                        left: a.len(),
                        right: b.len(),
                    });
                }
                for &q in basis.moduli() {
                    if scheduler::params_for(a.len(), q).is_none() {
                        return Err(ServiceError::UnsupportedJob { n: a.len(), q });
                    }
                }
            }
            _ => {
                let (n, q) = self.ring();
                if scheduler::params_for(n, q).is_none() {
                    return Err(ServiceError::UnsupportedJob { n, q });
                }
                for p in self.ring_operands() {
                    if p.degree_bound() != n {
                        return Err(ServiceError::PairMismatch {
                            left: n,
                            right: p.degree_bound(),
                        });
                    }
                    if p.modulus() != q {
                        return Err(ServiceError::UnsupportedJob { n, q: p.modulus() });
                    }
                }
                let kem = matches!(
                    self,
                    ProtocolJob::Encaps { .. } | ProtocolJob::Decaps { .. }
                );
                if kem && n < MESSAGE_BITS {
                    return Err(ServiceError::ProtocolHost {
                        detail: format!("ring degree {n} below the {MESSAGE_BITS}-bit KEM message"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The polynomials a job carries besides its keys: ciphertexts,
    /// plaintexts and signatures, which may come from any ring. (Keys
    /// are built only by their `generate`, so their polynomials share
    /// the ring [`ProtocolJob::ring`] reads from them.) Polynomial
    /// arithmetic panics on a ring mismatch, so
    /// [`ProtocolJob::validate`] checks each one at admission.
    fn ring_operands(&self) -> Vec<&Polynomial> {
        match self {
            ProtocolJob::PkeDecrypt { ct, .. } | ProtocolJob::Decaps { ct, .. } => {
                vec![&ct.u, &ct.v]
            }
            ProtocolJob::SheMul { ct, plain } => vec![&ct.inner().u, &ct.inner().v, plain],
            ProtocolJob::Verify { signature, .. } => vec![signature.z1(), signature.z2()],
            _ => Vec::new(),
        }
    }

    /// Builds a deterministic, self-contained job of `kind` at degree
    /// `n` from `seed`: keys, messages, and ciphertexts are derived
    /// host-side with the software NTT (bit-identical to the engine),
    /// so the same `(kind, n, seed)` triple always denotes the same op.
    /// This is what the TCP `SubmitProtocol` frame and the fault
    /// campaign's protocol cell speak: a scenario reference small enough
    /// for the wire.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnsupportedJob`] when `n` has no paper parameter
    /// set; [`ServiceError::ProtocolHost`] when the degree cannot carry
    /// the kind (KEM kinds below 256) or scenario construction fails.
    pub fn scripted(kind: ProtocolKind, n: usize, seed: u64) -> Result<ProtocolJob, ServiceError> {
        let params =
            ParamSet::for_degree(n).map_err(|_| ServiceError::UnsupportedJob { n, q: 0 })?;
        let host = |e: rlwe::RlweError| ServiceError::ProtocolHost {
            detail: format!("scripted scenario construction failed: {e}"),
        };
        let ntt = software_multiplier(&params).map_err(|e| host(e.into()))?;
        let ntt = &*ntt;
        if matches!(kind, ProtocolKind::Encaps | ProtocolKind::Decaps) && n < MESSAGE_BITS {
            return Err(ServiceError::ProtocolHost {
                detail: format!("ring degree {n} below the {MESSAGE_BITS}-bit KEM message"),
            });
        }
        let bits = |salt: u64| -> Vec<u8> {
            (0..n)
                .map(|i| {
                    let x = (i as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(seed ^ salt);
                    ((x >> 32) & 1) as u8
                })
                .collect()
        };
        let message = seed.to_be_bytes().to_vec();
        Ok(match kind {
            ProtocolKind::Mul => {
                let mut rng = sampling::seeded_rng(seed);
                let a = sampling::uniform(&params, &mut rng);
                let b = sampling::uniform(&params, &mut rng);
                ProtocolJob::Mul { a, b }
            }
            ProtocolKind::WideMul => {
                let basis =
                    RnsBasis::discover(n, 2, 1 << 20).map_err(|e| ServiceError::ProtocolHost {
                        detail: format!("no wide basis at n = {n}: {e}"),
                    })?;
                let big_q = basis.modulus();
                let mut x = seed ^ 0x5DEECE66D;
                let mut draw = || {
                    // splitmix64 per coefficient, reduced below Q.
                    let mut next = || {
                        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut z = x;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        z ^ (z >> 31)
                    };
                    ((u128::from(next()) << 64) | u128::from(next())) % big_q
                };
                let a: Vec<u128> = (0..n).map(|_| draw()).collect();
                let b: Vec<u128> = (0..n).map(|_| draw()).collect();
                ProtocolJob::WideMul { a, b, basis }
            }
            ProtocolKind::KeyGen => ProtocolJob::KeyGen { params, seed },
            ProtocolKind::PkeEncrypt => {
                let keys = KeyPair::generate(&params, ntt, seed).map_err(host)?;
                ProtocolJob::PkeEncrypt {
                    pk: keys.public().clone(),
                    bits: bits(1),
                    seed: seed.wrapping_add(2),
                }
            }
            ProtocolKind::PkeDecrypt => {
                let keys = KeyPair::generate(&params, ntt, seed).map_err(host)?;
                let ct = keys
                    .public()
                    .encrypt_bits(&bits(1), ntt, seed.wrapping_add(2))
                    .map_err(host)?;
                ProtocolJob::PkeDecrypt {
                    sk: keys.secret().clone(),
                    ct,
                }
            }
            ProtocolKind::Encaps => {
                let keys = KemKeyPair::generate(&params, ntt, seed).map_err(host)?;
                ProtocolJob::Encaps {
                    pk: keys.public().clone(),
                    entropy: seed.wrapping_add(3),
                }
            }
            ProtocolKind::Decaps => {
                let keys = KemKeyPair::generate(&params, ntt, seed).map_err(host)?;
                let enc =
                    kem::encapsulate(keys.public(), ntt, seed.wrapping_add(3)).map_err(host)?;
                ProtocolJob::Decaps {
                    keys: Box::new(keys),
                    ct: enc.ciphertext,
                }
            }
            ProtocolKind::SheMul => {
                let keys = KeyPair::generate(&params, ntt, seed).map_err(host)?;
                let ct =
                    rlwe::she::encrypt(&keys, &bits(1), ntt, seed.wrapping_add(4)).map_err(host)?;
                // Sparse public polynomial: 1 + x^5 + x^(n/2).
                let mut pc = vec![0u64; n];
                pc[0] = 1;
                pc[5 % n] = 1;
                pc[n / 2] = 1;
                let plain = Polynomial::from_coeffs(pc, params.q).map_err(|e| host(e.into()))?;
                ProtocolJob::SheMul { ct, plain }
            }
            ProtocolKind::Sign => {
                let key = SigningKey::generate(&params, ntt, seed).map_err(host)?;
                ProtocolJob::Sign {
                    key: Box::new(key),
                    message,
                    seed: seed.wrapping_add(5),
                }
            }
            ProtocolKind::Verify => {
                let key = SigningKey::generate(&params, ntt, seed).map_err(host)?;
                let (signature, _) = key
                    .sign(&message, ntt, seed.wrapping_add(5))
                    .map_err(host)?;
                ProtocolJob::Verify {
                    key: key.verify_key(),
                    message,
                    signature,
                }
            }
        })
    }

    /// Executes the job directly on the host with the software NTT —
    /// the bit-identity oracle the proptests, the load driver, and the
    /// CI smoke gates compare served outputs against.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnsupportedJob`] when a ring has no parameter
    /// set; [`ServiceError::ProtocolHost`] when the rlwe op itself
    /// fails.
    pub fn run_direct(&self) -> Result<ProtocolOutput, ServiceError> {
        let (n, q) = self.ring();
        let host = |e: rlwe::RlweError| ServiceError::ProtocolHost {
            detail: format!("direct execution failed: {e}"),
        };
        let mult_for = |n: usize, q: u64| -> Result<Arc<NttMultiplier>, ServiceError> {
            let params =
                scheduler::params_for(n, q).ok_or(ServiceError::UnsupportedJob { n, q })?;
            software_multiplier(&params).map_err(|_| ServiceError::UnsupportedJob { n, q })
        };
        Ok(match self {
            ProtocolJob::Mul { a, b } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Product(ntt.multiply(a, b).map_err(|e| host(e.into()))?)
            }
            ProtocolJob::WideMul { a, b, basis } => {
                // Sequential residue loop: split, multiply, recombine.
                let mut lanes: Vec<Polynomial> = Vec::with_capacity(basis.channels());
                for (pa, pb) in residue_pairs(a, b, basis) {
                    let ntt = mult_for(n, pa.modulus())?;
                    lanes.push(ntt.multiply(&pa, &pb).map_err(|e| host(e.into()))?);
                }
                let lane_refs: Vec<&[u64]> = lanes.iter().map(Polynomial::coeffs).collect();
                let mut out = vec![0u128; n];
                basis.combine_into(&lane_refs, &mut out);
                ProtocolOutput::WideProduct(out)
            }
            ProtocolJob::KeyGen { params, seed } => {
                let ntt = mult_for(params.n, params.q)?;
                ProtocolOutput::KeyPair(Box::new(
                    KeyPair::generate(params, &*ntt, *seed).map_err(host)?,
                ))
            }
            ProtocolJob::PkeEncrypt { pk, bits, seed } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Ciphertext(pk.encrypt_bits(bits, &*ntt, *seed).map_err(host)?)
            }
            ProtocolJob::PkeDecrypt { sk, ct } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Bits(sk.decrypt_bits(ct, &*ntt).map_err(host)?)
            }
            ProtocolJob::Encaps { pk, entropy } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Encapsulated(kem::encapsulate(pk, &*ntt, *entropy).map_err(host)?)
            }
            ProtocolJob::Decaps { keys, ct } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::SharedSecret(keys.decapsulate(ct, &*ntt).map_err(host)?)
            }
            ProtocolJob::SheMul { ct, plain } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::SheCiphertext(ct.mul_plaintext(plain, &*ntt).map_err(host)?)
            }
            ProtocolJob::Sign { key, message, seed } => {
                let ntt = mult_for(n, q)?;
                let (signature, sign_attempts) = key.sign(message, &*ntt, *seed).map_err(host)?;
                ProtocolOutput::Signature {
                    signature,
                    sign_attempts,
                }
            }
            ProtocolJob::Verify {
                key,
                message,
                signature,
            } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Verdict(key.verify(message, signature, &*ntt).map_err(host)?)
            }
        })
    }
}

/// The software multiplier of a ring, built once per `(n, q)` and shared
/// for the life of the process: building one costs about as much as a
/// protocol op (33 µs of tables at n = 1024), and [`ProtocolJob::run_direct`]
/// and [`ProtocolJob::scripted`] run on every TCP `SubmitProtocol` and
/// every oracle op of a load run. The tables depend on `n` and `q` only.
fn software_multiplier(params: &ParamSet) -> ntt::Result<Arc<NttMultiplier>> {
    type Table = Mutex<HashMap<(usize, u64), Arc<NttMultiplier>>>;
    static TABLE: OnceLock<Table> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (params.n, params.q);
    if let Some(ntt) = table
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return Ok(Arc::clone(ntt));
    }
    let built = Arc::new(NttMultiplier::new(params)?);
    Ok(Arc::clone(
        table
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(built),
    ))
}

impl Service {
    /// Submits a typed protocol op; the returned ticket resolves to the
    /// op's typed output once the thread running it — the ticket's waiter
    /// or a graph executor — has driven its multiply nodes through the
    /// batch-forming fleet and finished the host ops.
    ///
    /// # Errors
    ///
    /// Synchronously: [`ServiceError::UnsupportedJob`] /
    /// [`ServiceError::PairMismatch`] when some node's ring has no
    /// accelerator configuration, [`ServiceError::ProtocolHost`] for
    /// host-op preconditions (e.g. a KEM ring below 256),
    /// [`ServiceError::Overloaded`] past the op bound under `Reject`, and
    /// [`ServiceError::ShuttingDown`] during drain. Asynchronously (via
    /// the ticket): [`ServiceError::ProtocolNode`] attributing a
    /// terminal node failure, or [`ServiceError::ProtocolHost`].
    pub fn submit_protocol(&self, job: ProtocolJob) -> Result<ProtocolTicket, ServiceError> {
        submit_protocol_shared(self.shared_ref(), job)
    }
}

pub(crate) fn submit_protocol_shared(
    shared: &Arc<Shared>,
    job: ProtocolJob,
) -> Result<ProtocolTicket, ServiceError> {
    job.validate()?;
    enqueue(shared, job)
}

/// Queues a validated job behind the op bound (module docs,
/// *Admission*). The returned ticket carries the queued op, so its
/// waiter runs the op itself unless an executor claimed it first.
fn enqueue(shared: &Arc<Shared>, job: ProtocolJob) -> Result<ProtocolTicket, ServiceError> {
    let kind = job.kind();
    let (ticket, fulfiller) = ticket();
    let op = Arc::new(QueuedOp {
        claimed: AtomicBool::new(false),
        submitted: Instant::now(),
        task: Mutex::new(Some(ProtoTask {
            job,
            kind,
            ticket: fulfiller,
        })),
        shared: Arc::downgrade(shared),
    });
    let capacity = shared.cfg.queue_capacity;
    let wake = {
        let mut pq = shared.proto.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if pq.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            if pq.unclaimed < capacity {
                break;
            }
            if shared.cfg.backpressure == Backpressure::Reject {
                drop(pq);
                let mut st = shared.state.lock().expect("service state poisoned");
                st.rejected += 1;
                return Err(ServiceError::Overloaded { capacity });
            }
            pq.blocked += 1;
            pq = shared
                .proto_space
                .wait(pq)
                .unwrap_or_else(PoisonError::into_inner);
            pq.blocked -= 1;
        }
        while pq.queue.front().is_some_and(|op| op.is_claimed()) {
            pq.queue.pop_front();
        }
        // An unclaimed op ahead means its waiter has not come yet (a
        // window, or a concurrent submitter): this one is an executor's
        // at once. Otherwise wake one only if none keeps the grace clock.
        let wake = !pq.queue.is_empty() || !pq.watching;
        // Counted before any thread can claim the op, so no snapshot
        // shows it completed but not submitted.
        shared
            .state
            .lock()
            .expect("service state poisoned")
            .proto_lanes[kind as usize]
            .submitted += 1;
        pq.queue.push_back(Arc::clone(&op));
        pq.enqueued += 1;
        pq.unclaimed += 1;
        wake
    };
    if wake {
        shared.proto_work.notify_one();
    }
    Ok(ticket.with_work(op))
}

/// What a graph executor does next.
enum Next {
    /// Claim and run this op.
    Run(Arc<QueuedOp>),
    /// Nothing is runnable; the oldest unclaimed op, if any, becomes
    /// runnable at this instant.
    Idle(Option<Instant>),
    /// Shut down with nothing unclaimed: exit.
    Exit,
}

impl ProtoQueue {
    /// Claims `op` for the calling thread ([`QueuedOp::claim`]) and frees
    /// its admission slot, waking a blocked submitter on `space`.
    fn claim(&mut self, op: &QueuedOp, space: &Condvar) -> Option<ProtoTask> {
        let task = op.claim()?;
        self.unclaimed -= 1;
        if self.blocked > 0 {
            space.notify_one();
        }
        Some(task)
    }

    /// Drops claimed ops and dequeues the first runnable one: any
    /// unclaimed op during shutdown, else one that waited out
    /// [`WAITER_GRACE`] or has an older unclaimed op ahead of it.
    fn next_for_executor(&mut self, now: Instant) -> Next {
        self.queue.retain(|op| !op.is_claimed());
        let runnable =
            |i: usize, op: &QueuedOp| self.shutdown || i > 0 || op.submitted + WAITER_GRACE <= now;
        let Some(i) = self
            .queue
            .iter()
            .enumerate()
            .position(|(i, op)| runnable(i, op))
        else {
            return match self.queue.front() {
                Some(op) => Next::Idle(Some(op.submitted + WAITER_GRACE)),
                None if self.shutdown => Next::Exit,
                None => Next::Idle(None),
            };
        };
        Next::Run(self.queue.remove(i).expect("position is in range"))
    }
}

/// One graph executor, the service's only thread loop: claims queued
/// protocol ops that no waiter has claimed, runs their host ops inline,
/// and runs every multiply node as a leaf round. Exits once the queue
/// is drained *and* shutdown was signaled — every ticket issued before
/// shutdown resolves.
pub(crate) fn proto_worker_loop(shared: &Arc<Shared>) {
    let lock = || shared.proto.lock().unwrap_or_else(PoisonError::into_inner);
    // The enqueue count at this executor's last grace tick.
    let mut seen = u64::MAX;
    let mut pq = lock();
    loop {
        let now = Instant::now();
        match pq.next_for_executor(now) {
            Next::Run(op) => {
                let task = pq
                    .claim(&op, &shared.proto_space)
                    .expect("claims are made under the queue lock");
                drop(pq);
                run_protocol(shared, task, op.submitted);
                pq = lock();
            }
            Next::Exit => return,
            // One executor keeps the grace clock while ops arrive: it
            // sleeps until the oldest unclaimed op is due, or for one
            // grace period when none is queued, and stops once a period
            // passes with nothing submitted. The others sleep until woken.
            Next::Idle(due) if !pq.watching && (due.is_some() || pq.enqueued != seen) => {
                seen = pq.enqueued;
                pq.watching = true;
                let until = due.unwrap_or(now + WAITER_GRACE);
                pq = shared
                    .proto_work
                    .wait_timeout(pq, until.saturating_duration_since(now))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                pq.watching = false;
            }
            Next::Idle(_) => {
                pq = shared
                    .proto_work
                    .wait(pq)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

fn run_protocol(shared: &Arc<Shared>, task: ProtoTask, submitted: Instant) {
    let picked_up = Instant::now();
    let queue_us = picked_up.duration_since(submitted).as_secs_f64() * 1e6;
    // A host op that panics despite admission validation resolves its
    // own ticket with a typed error; the executor keeps serving.
    let result = panic::catch_unwind(AssertUnwindSafe(|| execute_job(shared, task.job)))
        .unwrap_or_else(|payload| {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string payload".into());
            Err(ServiceError::ProtocolHost {
                detail: format!("host op panicked: {what}"),
            })
        });
    let executed = picked_up.elapsed();
    let service_us = submitted.elapsed().as_secs_f64() * 1e6;
    {
        let mut st = shared.state.lock().expect("service state poisoned");
        let lane = &mut st.proto_lanes[task.kind as usize];
        match &result {
            Ok(_) => {
                lane.completed += 1;
                lane.hist.record_us(service_us as u64);
            }
            Err(_) => lane.failed += 1,
        }
    }
    let result = result.map(|done| ProtocolCompleted {
        output: done.output,
        nodes: done.nodes,
        attempts: done.attempts,
        queue_us,
        service_us,
        host_us: executed.saturating_sub(done.leaf_wait).as_secs_f64() * 1e6,
    });
    task.ticket.fulfil(result);
}

/// What [`execute_job`] produced: the output, its node accounting, and
/// how long the running thread spent in leaf rounds (running batches,
/// or parked while another thread ran them).
struct Executed {
    output: ProtocolOutput,
    nodes: u32,
    attempts: u32,
    leaf_wait: Duration,
}

/// Wraps a leaf failure with its node attribution.
fn node_err(node: usize, q: u64, error: ServiceError) -> ServiceError {
    ServiceError::ProtocolNode {
        node,
        q,
        error: Box::new(error),
    }
}

/// Splits a wide job's operands into one residue pair per basis
/// channel, in basis order.
fn residue_pairs(a: &[u128], b: &[u128], basis: &RnsBasis) -> Vec<(Polynomial, Polynomial)> {
    let mut buf = vec![0u64; a.len()];
    let mut residue = |x: &[u128], lane: usize, q: u64| {
        basis.split_lane_into(x, lane, &mut buf);
        Polynomial::from_canonical_coeffs(buf.clone(), q).expect("residues are canonical mod q")
    };
    basis
        .moduli()
        .iter()
        .enumerate()
        .map(|(lane, &q)| (residue(a, lane, q), residue(b, lane, q)))
        .collect()
}

/// Runs a wide job's residue lanes as one leaf round, so lanes of the
/// same `(n, q_i)` ride one batch, and CRT-recombines their products on
/// the host. Returns the product and the most attempts any lane took. A
/// lane refused at admission or failed in execution fails the job as
/// [`ServiceError::ProtocolNode`] naming the lane.
fn run_wide(
    shared: &Shared,
    a: &[u128],
    b: &[u128],
    basis: &RnsBasis,
) -> Result<(Vec<u128>, u32), ServiceError> {
    let lane_err = |lane: usize, error| node_err(lane, basis.moduli()[lane], error);
    let lanes = scheduler::run_leaves(shared, residue_pairs(a, b, basis))
        .map_err(|(lane, error)| lane_err(lane, error))?;
    let mut products = Vec::with_capacity(lanes.len());
    let mut attempts = 1;
    for (lane, result) in lanes.into_iter().enumerate() {
        let done = result.map_err(|error| lane_err(lane, error))?;
        attempts = attempts.max(done.attempts);
        products.push(done.product);
    }
    let t = Instant::now();
    let lane_refs: Vec<&[u64]> = products.iter().map(Polynomial::coeffs).collect();
    let mut product = vec![0u128; a.len()];
    basis.combine_into(&lane_refs, &mut product);
    phase::record_recombine(t.elapsed());
    Ok((product, attempts))
}

fn execute_job(shared: &Arc<Shared>, job: ProtocolJob) -> Result<Executed, ServiceError> {
    let svc = SvcMult::new(shared, job.ring().1);
    match job {
        ProtocolJob::Mul { a, b } => {
            let out = svc.leaf(a, b).map_err(Into::into);
            svc.settle(out, ProtocolOutput::Product)
        }
        ProtocolJob::WideMul { a, b, basis } => {
            let started = Instant::now();
            let (product, attempts) = run_wide(shared, &a, &b, &basis)?;
            Ok(Executed {
                output: ProtocolOutput::WideProduct(product),
                nodes: basis.channels() as u32,
                attempts,
                leaf_wait: started.elapsed(),
            })
        }
        ProtocolJob::KeyGen { params, seed } => {
            let out = KeyPair::generate(&params, &svc, seed);
            svc.settle(out, |kp| ProtocolOutput::KeyPair(Box::new(kp)))
        }
        ProtocolJob::PkeEncrypt { pk, bits, seed } => {
            let out = pk.encrypt_bits(&bits, &svc, seed);
            svc.settle(out, ProtocolOutput::Ciphertext)
        }
        ProtocolJob::PkeDecrypt { sk, ct } => {
            let out = sk.decrypt_bits(&ct, &svc);
            svc.settle(out, ProtocolOutput::Bits)
        }
        ProtocolJob::Encaps { pk, entropy } => {
            let out = kem::encapsulate(&pk, &svc, entropy);
            svc.settle(out, ProtocolOutput::Encapsulated)
        }
        ProtocolJob::Decaps { keys, ct } => {
            let out = keys.decapsulate(&ct, &svc);
            svc.settle(out, ProtocolOutput::SharedSecret)
        }
        ProtocolJob::SheMul { ct, plain } => {
            let out = ct.mul_plaintext(&plain, &svc);
            svc.settle(out, ProtocolOutput::SheCiphertext)
        }
        ProtocolJob::Sign { key, message, seed } => {
            let out = key.sign(&message, &svc, seed);
            svc.settle(out, |(signature, sign_attempts)| {
                ProtocolOutput::Signature {
                    signature,
                    sign_attempts,
                }
            })
        }
        ProtocolJob::Verify {
            key,
            message,
            signature,
        } => {
            let out = key.verify(&message, &signature, &svc);
            svc.settle(out, ProtocolOutput::Verdict)
        }
    }
}

/// The service-backed multiplier: every [`PolyMultiplier::multiply`] a
/// protocol op performs becomes one leaf node through the shared batch
/// former, and [`PolyMultiplier::multiply_pair`] admits both products
/// under one lock so they pack into the same batch. Each is one blocking
/// `run_leaves` round, run on this thread while a bank is free. Failures are
/// stashed with their node index; the placeholder `modmath` error
/// returned to the rlwe code merely aborts the op and never escapes —
/// [`SvcMult::settle`] converts the stash into
/// [`ServiceError::ProtocolNode`].
struct SvcMult<'a> {
    shared: &'a Arc<Shared>,
    q: u64,
    /// Leaf nodes submitted so far (the node index space).
    nodes: Cell<u32>,
    /// Worst per-node execution attempts seen.
    attempts: Cell<u32>,
    /// First leaf failure: (node index, underlying error).
    failure: RefCell<Option<(usize, ServiceError)>>,
    /// The ring degree, discovered lazily from the first operand (the
    /// rlwe layer guarantees every multiply of one op shares the ring).
    degree: Cell<usize>,
    /// Time spent in leaf rounds, admission to results.
    leaf_wait: Cell<Duration>,
}

impl<'a> SvcMult<'a> {
    fn new(shared: &'a Arc<Shared>, q: u64) -> SvcMult<'a> {
        SvcMult {
            shared,
            q,
            nodes: Cell::new(0),
            attempts: Cell::new(1),
            failure: RefCell::new(None),
            degree: Cell::new(0),
            leaf_wait: Cell::new(Duration::ZERO),
        }
    }

    fn waited_since(&self, started: Instant) {
        self.leaf_wait.set(self.leaf_wait.get() + started.elapsed());
    }

    fn stash(&self, node: usize, error: ServiceError) -> modmath::Error {
        let mut failure = self.failure.borrow_mut();
        if failure.is_none() {
            *failure = Some((node, error));
        }
        // Placeholder abort signal for the rlwe layer; settle() always
        // reports the stashed failure instead.
        modmath::Error::InvalidDegree { n: 0 }
    }

    /// One leaf node `a · b`: one blocking `run_leaves` round.
    fn leaf(&self, a: Polynomial, b: Polynomial) -> ntt::Result<Polynomial> {
        self.degree.set(a.degree_bound());
        let node = self.nodes.get() as usize;
        self.nodes.set(self.nodes.get() + 1);
        let started = Instant::now();
        let done = scheduler::run_leaves(self.shared, vec![(a, b)])
            .map_err(|(_, e)| e)
            .and_then(|mut results| results.remove(0));
        self.waited_since(started);
        match done {
            Ok(done) => {
                self.absorb(&done);
                Ok(done.product)
            }
            Err(e) => Err(self.stash(node, e)),
        }
    }

    fn absorb(&self, done: &scheduler::CompletedJob) {
        self.attempts.set(self.attempts.get().max(done.attempts));
    }

    /// Converts the finished rlwe result into the graph result: on
    /// success the wrapped output plus node/attempt/leaf-wait
    /// accounting, on failure the stashed per-node attribution (or a
    /// host-op error when no leaf failed).
    fn settle<T>(
        self,
        out: Result<T, rlwe::RlweError>,
        wrap: impl FnOnce(T) -> ProtocolOutput,
    ) -> Result<Executed, ServiceError> {
        match out {
            Ok(v) => Ok(Executed {
                output: wrap(v),
                nodes: self.nodes.get(),
                attempts: self.attempts.get(),
                leaf_wait: self.leaf_wait.get(),
            }),
            Err(e) => match self.failure.into_inner() {
                Some((node, error)) => Err(node_err(node, self.q, error)),
                None => Err(ServiceError::ProtocolHost {
                    detail: e.to_string(),
                }),
            },
        }
    }
}

impl PolyMultiplier for SvcMult<'_> {
    fn degree(&self) -> usize {
        self.degree.get()
    }

    fn modulus(&self) -> u64 {
        self.q
    }

    fn multiply(&self, a: &Polynomial, b: &Polynomial) -> ntt::Result<Polynomial> {
        self.leaf(a.clone(), b.clone())
    }

    fn multiply_pair(
        &self,
        a0: &Polynomial,
        b0: &Polynomial,
        a1: &Polynomial,
        b1: &Polynomial,
    ) -> ntt::Result<(Polynomial, Polynomial)> {
        self.degree.set(a0.degree_bound());
        let node = self.nodes.get() as usize;
        self.nodes.set(self.nodes.get() + 2);
        let pairs = vec![(a0.clone(), b0.clone()), (a1.clone(), b1.clone())];
        let started = Instant::now();
        let results = scheduler::run_leaves(self.shared, pairs);
        self.waited_since(started);
        let (r0, r1) = match results {
            Ok(mut results) => {
                let r1 = results.pop().expect("two results");
                (results.pop().expect("two results"), r1)
            }
            Err((i, e)) => return Err(self.stash(node + i, e)),
        };
        match (r0, r1) {
            (Ok(d0), Ok(d1)) => {
                self.absorb(&d0);
                self.absorb(&d1);
                Ok((d0.product, d1.product))
            }
            (Err(e), _) => Err(self.stash(node, e)),
            (_, Err(e)) => Err(self.stash(node + 1, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backpressure, ServiceConfig};

    fn service(workers: usize) -> Service {
        Service::start(ServiceConfig {
            workers,
            backpressure: Backpressure::Block,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_u8(kind as u8), Some(kind));
            assert_eq!(ProtocolKind::from_index(kind as usize), Some(kind));
            assert!(!kind.as_str().is_empty());
        }
        assert_eq!(ProtocolKind::from_u8(ProtocolKind::COUNT as u8), None);
        // Names are distinct (they key the stats JSON).
        let mut names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProtocolKind::COUNT);
    }

    #[test]
    fn scripted_jobs_are_deterministic_and_serve_bit_identically() {
        let svc = service(2);
        for kind in [
            ProtocolKind::Mul,
            ProtocolKind::KeyGen,
            ProtocolKind::Encaps,
        ] {
            let job = ProtocolJob::scripted(kind, 256, 42).expect("scripted");
            let again = ProtocolJob::scripted(kind, 256, 42).expect("scripted");
            let direct = job.run_direct().expect("direct");
            assert_eq!(direct, again.run_direct().expect("direct"), "{kind}");
            assert_eq!(direct.digest(), again.run_direct().unwrap().digest());
            let served = svc
                .submit_protocol(job)
                .expect("admitted")
                .wait()
                .expect("served");
            assert_eq!(served.output, direct, "{kind}");
            assert!(served.nodes >= 1);
            assert_eq!(served.attempts, 1);
        }
        let stats = svc.shutdown();
        let lane = |k: ProtocolKind| &stats.protocol[k as usize];
        assert_eq!(lane(ProtocolKind::Mul).completed, 1);
        assert_eq!(lane(ProtocolKind::KeyGen).completed, 1);
        assert_eq!(lane(ProtocolKind::Encaps).completed, 1);
        assert_eq!(lane(ProtocolKind::Decaps).submitted, 0);
    }

    #[test]
    fn unsupported_rings_are_refused_synchronously() {
        let svc = service(1);
        // Composite modulus: no negacyclic NTT exists, so no
        // accelerator configuration.
        let p = Polynomial::zero(8, 91).unwrap();
        let err = svc
            .submit_protocol(ProtocolJob::Mul { a: p.clone(), b: p })
            .expect_err("unsupported");
        assert!(matches!(err, ServiceError::UnsupportedJob { n: 8, .. }));
        // KEM below the message capacity is a host-precondition error,
        // not a panic in the executor.
        let err = ProtocolJob::scripted(ProtocolKind::Encaps, 64, 1).expect_err("too small");
        assert!(matches!(err, ServiceError::ProtocolHost { .. }));
        drop(svc);
    }

    /// One job per kind whose ciphertext, plaintext or signature lives
    /// in another ring than its key.
    fn mismatched_operand_jobs() -> Vec<ProtocolJob> {
        let foreign = Polynomial::zero(256, 12289).unwrap();
        let with_foreign_v = |ct: &Ciphertext| Ciphertext {
            u: ct.u.clone(),
            v: foreign.clone(),
        };
        let mut jobs = Vec::new();
        let ProtocolJob::PkeDecrypt { sk, ct } =
            ProtocolJob::scripted(ProtocolKind::PkeDecrypt, 256, 1).unwrap()
        else {
            unreachable!()
        };
        jobs.push(ProtocolJob::PkeDecrypt {
            sk,
            ct: with_foreign_v(&ct),
        });
        let ProtocolJob::Decaps { keys, ct } =
            ProtocolJob::scripted(ProtocolKind::Decaps, 256, 1).unwrap()
        else {
            unreachable!()
        };
        jobs.push(ProtocolJob::Decaps {
            keys,
            ct: with_foreign_v(&ct),
        });
        let ProtocolJob::SheMul { ct, plain } =
            ProtocolJob::scripted(ProtocolKind::SheMul, 256, 1).unwrap()
        else {
            unreachable!()
        };
        jobs.push(ProtocolJob::SheMul {
            ct: HomCiphertext::fresh(with_foreign_v(ct.inner())),
            plain,
        });
        // A signature made under q = 12289, checked by an n = 256 key.
        let wide_q = ParamSet::custom(256, 12289, 16).unwrap();
        let ntt = NttMultiplier::new(&wide_q).unwrap();
        let (signature, _) = SigningKey::generate(&wide_q, &ntt, 1)
            .unwrap()
            .sign(b"m", &ntt, 2)
            .unwrap();
        let ProtocolJob::Verify { key, message, .. } =
            ProtocolJob::scripted(ProtocolKind::Verify, 256, 1).unwrap()
        else {
            unreachable!()
        };
        jobs.push(ProtocolJob::Verify {
            key,
            message,
            signature,
        });
        jobs
    }

    #[test]
    fn mismatched_operands_are_refused_at_admission() {
        let svc = service(1);
        for job in mismatched_operand_jobs() {
            let kind = job.kind();
            let err = svc.submit_protocol(job).expect_err("foreign operand");
            assert!(
                matches!(
                    err,
                    ServiceError::UnsupportedJob { n: 256, q: 12289 }
                        | ServiceError::PairMismatch { .. }
                ),
                "{kind}: {err}"
            );
            // The executor is untouched: a valid op of the kind serves.
            let job = ProtocolJob::scripted(kind, 256, 2).unwrap();
            let direct = job.run_direct().unwrap();
            let served = svc.submit_protocol(job).unwrap().wait().unwrap();
            assert_eq!(served.output, direct, "{kind}");
        }
        drop(svc);
    }

    #[test]
    fn host_op_panic_resolves_its_ticket_and_the_executor_survives() {
        // Bypass admission so the host ops meet the foreign operand: a
        // panic (or a leaf error) must resolve the ticket with a typed
        // error, and the one executor thread must keep serving.
        let svc = service(1);
        for job in mismatched_operand_jobs() {
            let kind = job.kind();
            let ticket = enqueue(svc.shared_ref(), job).unwrap();
            match ticket.wait_timeout(Duration::from_secs(3)) {
                // `v − u·s` under two moduli panics in `Polynomial::sub`.
                Err(ServiceError::ProtocolHost { detail })
                    if matches!(kind, ProtocolKind::PkeDecrypt | ProtocolKind::Decaps) =>
                {
                    assert!(detail.contains("panicked"), "{kind}: {detail}");
                }
                // The others stop at a leaf's ring check or the norm bound.
                Err(ServiceError::ProtocolNode { .. }) if kind == ProtocolKind::SheMul => {}
                Ok(done) if kind == ProtocolKind::Verify => {
                    assert_eq!(done.output, ProtocolOutput::Verdict(false));
                }
                other => panic!("{kind}: {other:?}"),
            }
            let job = ProtocolJob::scripted(kind, 256, 2).unwrap();
            let direct = job.run_direct().unwrap();
            let served = svc
                .submit_protocol(job)
                .unwrap()
                .wait_timeout(Duration::from_secs(3))
                .unwrap();
            assert_eq!(served.output, direct, "{kind}");
        }
        // Shutdown joins the executor without a "panicked" abort.
        let stats = svc.shutdown();
        for kind in [
            ProtocolKind::PkeDecrypt,
            ProtocolKind::Decaps,
            ProtocolKind::SheMul,
            ProtocolKind::Verify,
        ] {
            let lane = &stats.protocol[kind as usize];
            assert_eq!(lane.failed + lane.completed, 2, "{kind}");
        }
    }

    #[test]
    fn host_time_excludes_leaf_waits() {
        let svc = service(1);
        let job = ProtocolJob::scripted(ProtocolKind::Encaps, 256, 3).unwrap();
        let done = svc.submit_protocol(job).unwrap().wait().unwrap();
        assert!(done.host_us > 0.0);
        assert!(done.host_us <= done.service_us - done.queue_us + 1.0);
        drop(svc);
    }

    #[test]
    fn wide_mul_graph_matches_sequential_loop() {
        let n = 256;
        let basis = RnsBasis::discover(n, 3, 1 << 20).unwrap();
        let seq = ntt::rns::RnsMultiplier::with_basis(n, basis.clone()).unwrap();
        let q = basis.modulus();
        let wide_operand = |seed: u128| -> Vec<u128> {
            (0..n as u128).map(|i| (i * i * 977 + seed) % q).collect()
        };
        let (a, b) = (wide_operand(3), wide_operand(11));
        let want = ProtocolOutput::WideProduct(seq.multiply(&a, &b).unwrap());
        let job = ProtocolJob::WideMul { a, b, basis };
        assert_eq!(job.run_direct().expect("direct"), want);
        let svc = service(2);
        let served = svc
            .submit_protocol(job)
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(served.output, want, "recombined == sequential residue loop");
        assert_eq!(served.nodes, 3);
        let stats = svc.shutdown();
        assert_eq!(stats.protocol[ProtocolKind::WideMul as usize].completed, 1);
        assert_eq!(stats.wide_submitted, 1);
        assert_eq!(stats.wide_completed, 1, "wide graphs ride the wide lane");
        assert_eq!(stats.wide_failed, 0);
        assert_eq!(stats.wide_latency_samples, 1);
        assert_eq!(stats.admitted, 3, "one narrow job per residue lane");
    }

    /// Waiters and a lone executor race for the same ops: submitters
    /// keep a window of three ops in flight and collect them by `wait`,
    /// `wait_timeout` or polling, so the executor takes the ops queued
    /// behind an unclaimed one while the waiters run the rest. Every op
    /// must run exactly once: each output equals `run_direct`, and the
    /// lanes count each op once.
    #[test]
    fn waiters_and_executor_run_each_op_exactly_once() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let kinds = [
            ProtocolKind::Mul,
            ProtocolKind::Encaps,
            ProtocolKind::SheMul,
            ProtocolKind::Verify,
        ];
        let (submitters, per_submitter) = (4u64, 12u64);
        std::thread::scope(|scope| {
            for t in 0..submitters {
                let svc = &svc;
                scope.spawn(move || {
                    let collect = |(ticket, direct, i): (ProtocolTicket, ProtocolOutput, u64)| {
                        let done = match i % 3 {
                            0 => ticket.wait(),
                            1 => loop {
                                match ticket.wait_timeout(Duration::from_micros(50)) {
                                    Err(ServiceError::WaitTimeout { .. }) => continue,
                                    other => break other,
                                }
                            },
                            _ => {
                                // Polling never runs the op: an executor must.
                                let deadline = Instant::now() + Duration::from_secs(10);
                                while !ticket.is_done() {
                                    assert!(Instant::now() < deadline, "no executor ran the op");
                                    std::thread::yield_now();
                                }
                                ticket.wait()
                            }
                        };
                        assert_eq!(done.expect("served").output, direct);
                    };
                    let mut window = std::collections::VecDeque::new();
                    for i in 0..per_submitter {
                        let kind = kinds[((t + i) % 4) as usize];
                        let job = ProtocolJob::scripted(kind, 256, 1000 * t + i).unwrap();
                        let direct = job.run_direct().unwrap();
                        window.push_back((svc.submit_protocol(job).unwrap(), direct, i));
                        if window.len() == 3 {
                            collect(window.pop_front().unwrap());
                        }
                    }
                    window.into_iter().for_each(collect);
                });
            }
        });
        let stats = svc.shutdown();
        let (mut submitted, mut completed) = (0, 0);
        for kind in ProtocolKind::ALL {
            let lane = &stats.protocol[kind as usize];
            assert_eq!(lane.submitted, lane.completed + lane.failed, "{kind}");
            assert_eq!(lane.failed, 0, "{kind}");
            submitted += lane.submitted;
            completed += lane.completed;
        }
        assert_eq!(submitted, submitters * per_submitter);
        assert_eq!(completed, submitters * per_submitter);
    }

    /// A ticket dropped without a wait leaves its op to an executor,
    /// which starts it once the waiter grace has passed: it runs and is
    /// counted while the service keeps serving, not only at shutdown.
    #[test]
    fn dropped_tickets_op_still_runs_and_is_counted() {
        let svc = service(1);
        let job = ProtocolJob::scripted(ProtocolKind::Encaps, 256, 5).unwrap();
        drop(svc.submit_protocol(job).unwrap());
        let lane = |svc: &Service| svc.stats().protocol[ProtocolKind::Encaps as usize].clone();
        let deadline = Instant::now() + Duration::from_secs(10);
        while lane(&svc).completed == 0 {
            assert!(Instant::now() < deadline, "the dropped op never ran");
            std::thread::sleep(WAITER_GRACE);
        }
        let stats = svc.shutdown();
        let lane = &stats.protocol[ProtocolKind::Encaps as usize];
        assert_eq!((lane.submitted, lane.completed, lane.failed), (1, 1, 0));
    }

    /// `wait_timeout` runs a still-queued op on the calling thread, so
    /// even a zero timeout returns the op's output. An executor may win
    /// the claim now and then (a waiter descheduled past the grace), so
    /// the test asks for one helped op among a few tries.
    #[test]
    fn wait_timeout_runs_a_queued_op_on_the_caller() {
        let svc = service(1);
        let helped = (0..20).any(|seed| {
            let job = ProtocolJob::scripted(ProtocolKind::Sign, 256, seed).unwrap();
            let direct = job.run_direct().unwrap();
            let ticket = svc.submit_protocol(job).unwrap();
            match ticket.wait_timeout(Duration::ZERO) {
                Ok(done) => {
                    assert_eq!(done.output, direct);
                    true
                }
                Err(ServiceError::WaitTimeout { .. }) => {
                    assert_eq!(ticket.wait().unwrap().output, direct);
                    false
                }
                Err(e) => panic!("{e}"),
            }
        });
        assert!(helped, "no zero-timeout wait ran its own op");
        drop(svc);
    }

    /// The executor's choice, step by step: an op alone in the queue is
    /// left to its waiter until the grace has passed, one queued behind
    /// an unclaimed op is runnable at once, claimed ops are dropped
    /// unrun, and shutdown makes every unclaimed op runnable.
    #[test]
    fn executors_take_only_ops_no_waiter_runs() {
        let queued = |age: Duration| {
            let p = Polynomial::zero(8, 17).unwrap();
            let (_ticket, fulfiller) = ticket();
            Arc::new(QueuedOp {
                claimed: AtomicBool::new(false),
                submitted: Instant::now() - age,
                task: Mutex::new(Some(ProtoTask {
                    job: ProtocolJob::Mul { a: p.clone(), b: p },
                    kind: ProtocolKind::Mul,
                    ticket: fulfiller,
                })),
                shared: Weak::new(),
            })
        };
        let is =
            |next: Next, op: &Arc<QueuedOp>| matches!(next, Next::Run(o) if Arc::ptr_eq(&o, op));
        let mut pq = ProtoQueue::default();
        let (first, second) = (queued(Duration::ZERO), queued(Duration::ZERO));
        pq.queue.push_back(Arc::clone(&first));
        let now = Instant::now();
        assert!(matches!(pq.next_for_executor(now), Next::Idle(Some(_))));
        pq.queue.push_back(Arc::clone(&second));
        assert!(
            is(pq.next_for_executor(now), &second),
            "behind an unclaimed op"
        );
        assert!(first.claim().is_some(), "the waiter's claim wins");
        assert!(first.claim().is_none(), "a claim succeeds once");
        assert!(matches!(pq.next_for_executor(now), Next::Idle(None)));
        assert!(pq.queue.is_empty(), "claimed ops are dropped");
        let stale = queued(2 * WAITER_GRACE);
        pq.queue.push_back(Arc::clone(&stale));
        assert!(
            is(pq.next_for_executor(Instant::now()), &stale),
            "past the grace"
        );
        let young = queued(Duration::ZERO);
        pq.queue.push_back(Arc::clone(&young));
        pq.shutdown = true;
        assert!(
            is(pq.next_for_executor(Instant::now()), &young),
            "shutdown drains"
        );
        assert!(matches!(pq.next_for_executor(Instant::now()), Next::Exit));
    }

    #[test]
    fn shutdown_resolves_queued_protocol_ops() {
        let svc = service(1);
        let tickets: Vec<ProtocolTicket> = (0..4)
            .map(|i| {
                let job = ProtocolJob::scripted(ProtocolKind::KeyGen, 256, 100 + i).unwrap();
                svc.submit_protocol(job).expect("admitted")
            })
            .collect();
        let stats = svc.shutdown();
        for t in tickets {
            t.wait().expect("resolved at shutdown");
        }
        assert_eq!(stats.protocol[ProtocolKind::KeyGen as usize].completed, 4);
    }
}
