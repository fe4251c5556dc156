//! The TCP server: a bounded acceptor, thread-per-connection frame
//! handlers, tenant auth/quotas, and fair admission over the
//! scheduler's `Reject` backpressure.
//!
//! ## Threading model
//!
//! Plain `std` throughout (the workspace has no async runtime and no
//! registry access): one acceptor thread plus one handler thread per
//! live connection, the same shape as the scheduler's fixed fleet. The
//! acceptor is *bounded* — past
//! [`ServerConfig::max_connections`] it answers a typed
//! [`ErrorCode::TooManyConnections`] frame and closes instead of
//! spawning, so a connection flood degrades into typed refusals, not
//! thread exhaustion. Handler threads can never wedge: admission uses
//! the scheduler's `Reject` policy (forced at
//! [`Server::start`], whatever the config said), and `Wait` blocks
//! through [`service::Ticket::wait_timeout`] capped by
//! [`ServerConfig::max_wait`].
//!
//! ## Tenancy, quotas, and fairness
//!
//! Every connection must open with `Hello { token }`; the token
//! resolves to a configured [`TenantConfig`]. Each tenant has an
//! *outstanding-job quota*: jobs submitted but not yet collected
//! (across all of the tenant's connections). A `Submit` past the quota
//! is refused with [`ErrorCode::QuotaExceeded`] — a typed reject, never
//! a hang and never a dropped job. Because every tenant's quota is
//! clamped below the scheduler's admission capacity, the quota is also
//! the fair-queuing mechanism: no tenant can occupy the whole admission
//! queue, so a greedy tenant saturating its quota leaves capacity that
//! lighter tenants can always claim (max-min fair sharing of queue
//! slots, pinned by `tests/net.rs`). Outstanding slots are released
//! when a result is collected, when a job fails, or when the
//! submitting connection goes away.

use crate::wire::{
    encode_version_refusal, write_frame, Codec, ErrorCode, Frame, JobState, WireError,
};
use ntt::poly::Polynomial;
use service::{
    Backpressure, JobTicket, ProtocolJob, ProtocolKind, ProtocolTicket, Service, ServiceConfig,
    ServiceError, ServiceStats,
};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One configured tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Display name (echoed in `HelloOk` and the stats document).
    pub name: String,
    /// Auth token presented in `Hello`.
    pub token: String,
    /// Maximum outstanding (submitted, not yet collected) jobs across
    /// all of this tenant's connections. Clamped at start to
    /// `min(quota, queue_capacity - 1)` so one tenant can never own
    /// the entire admission queue — that clamp is the fair-queuing
    /// guarantee.
    pub quota: usize,
    /// Whether this tenant may issue the `Shutdown` verb.
    pub may_shutdown: bool,
}

impl TenantConfig {
    /// Convenience constructor for the common no-shutdown tenant.
    pub fn new(name: &str, token: &str, quota: usize) -> TenantConfig {
        TenantConfig {
            name: name.to_string(),
            token: token.to_string(),
            quota,
            may_shutdown: false,
        }
    }
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Authorized tenants (at least one; `Server::start` refuses an
    /// empty list — an unauthenticated multiply service is not a thing
    /// this crate offers).
    pub tenants: Vec<TenantConfig>,
    /// Bounded-acceptor limit on live connections.
    pub max_connections: usize,
    /// Server-side cap on any single `Wait` verb's block, whatever
    /// timeout the client asked for.
    pub max_wait: Duration,
    /// The scheduler under the socket. `backpressure` is forced to
    /// [`Backpressure::Reject`] at start: a network submitter must get
    /// a typed refusal, never park a handler thread on a full queue.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tenants: Vec::new(),
            max_connections: 256,
            max_wait: Duration::from_secs(30),
            service: ServiceConfig::default(),
        }
    }
}

struct TenantState {
    cfg: TenantConfig,
    outstanding: AtomicUsize,
    submitted: AtomicU64,
    completed: AtomicU64,
    quota_rejected: AtomicU64,
    shed: AtomicU64,
}

struct NetShared {
    service: Service,
    tenants: Vec<TenantState>,
    max_wait: Duration,
    stop: AtomicBool,
    live: AtomicUsize,
    /// Read-half clones of live connections, for shutdown unblocking.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    accepted: AtomicU64,
    refused: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    decode_errors: AtomicU64,
    auth_failures: AtomicU64,
}

impl NetShared {
    /// The server's full statistics document: net-layer counters,
    /// per-tenant admission state, and the scheduler's own
    /// [`ServiceStats::to_json`] object under `"service"`. The net keys
    /// are deliberately distinct from every service key so
    /// `ServiceStats::from_json` works on the whole document.
    fn stats_json(&self) -> String {
        let mut tenants = String::new();
        for (i, t) in self.tenants.iter().enumerate() {
            let sep = if i + 1 == self.tenants.len() {
                ""
            } else {
                ", "
            };
            tenants.push_str(&format!(
                "{{\"name\": \"{}\", \"tenant_quota\": {}, \"tenant_outstanding\": {}, \
                 \"tenant_submitted\": {}, \"tenant_completed\": {}, \
                 \"tenant_quota_rejected\": {}, \"tenant_shed\": {}}}{sep}",
                t.cfg.name,
                t.cfg.quota,
                t.outstanding.load(Ordering::Relaxed),
                t.submitted.load(Ordering::Relaxed),
                t.completed.load(Ordering::Relaxed),
                t.quota_rejected.load(Ordering::Relaxed),
                t.shed.load(Ordering::Relaxed),
            ));
        }
        format!(
            "{{\"proto_version\": {}, \"connections_live\": {}, \"connections_accepted\": {}, \
             \"connections_refused\": {}, \"frames_in\": {}, \"frames_out\": {}, \
             \"decode_errors\": {}, \"auth_failures\": {}, \"tenants\": [{tenants}], \
             \"service\": {}}}",
            crate::wire::VERSION,
            self.live.load(Ordering::Relaxed),
            self.accepted.load(Ordering::Relaxed),
            self.refused.load(Ordering::Relaxed),
            self.frames_in.load(Ordering::Relaxed),
            self.frames_out.load(Ordering::Relaxed),
            self.decode_errors.load(Ordering::Relaxed),
            self.auth_failures.load(Ordering::Relaxed),
            self.service.stats().to_json(),
        )
    }
}

/// A running TCP front end. Bind with [`Server::start`], stop with
/// [`Server::shutdown`] (or [`Server::wait`] to serve until a
/// `Shutdown` frame arrives).
pub struct Server {
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
    addr: std::net::SocketAddr,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and the scheduler fleet.
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        if config.tenants.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a server needs at least one tenant",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Non-blocking accept + short park: the acceptor must notice
        // the stop flag without a wake-up connection.
        listener.set_nonblocking(true)?;
        let service_cfg = ServiceConfig {
            // Typed refusals, never a parked handler thread.
            backpressure: Backpressure::Reject,
            ..config.service
        };
        let queue_capacity = service_cfg.queue_capacity.max(1);
        let tenants = config
            .tenants
            .into_iter()
            .map(|mut cfg| {
                // The fair-share clamp: no tenant's quota may cover the
                // whole admission queue.
                cfg.quota = cfg.quota.clamp(1, queue_capacity.saturating_sub(1).max(1));
                TenantState {
                    cfg,
                    outstanding: AtomicUsize::new(0),
                    submitted: AtomicU64::new(0),
                    completed: AtomicU64::new(0),
                    quota_rejected: AtomicU64::new(0),
                    shed: AtomicU64::new(0),
                }
            })
            .collect();
        let shared = Arc::new(NetShared {
            service: Service::start(service_cfg),
            tenants,
            max_wait: config.max_wait.max(Duration::from_millis(1)),
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            auth_failures: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            let max_connections = config.max_connections.max(1);
            std::thread::Builder::new()
                .name("cryptopim-net-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, max_connections))
                .expect("spawn acceptor")
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            addr: local,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Point-in-time scheduler statistics (the `Stats` verb adds the
    /// net-layer counters on top of this).
    pub fn stats(&self) -> ServiceStats {
        self.shared.service.stats()
    }

    /// The full `Stats`-verb JSON document, server-side.
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// True once a `Shutdown` frame (or [`Server::shutdown`]) has
    /// stopped admission.
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Serves until a `Shutdown` frame flips the stop flag, then
    /// drains and returns the final scheduler statistics.
    pub fn wait(self) -> ServiceStats {
        while !self.shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.shutdown()
    }

    /// Stops accepting, unblocks and joins every connection handler,
    /// drains the scheduler, and returns its final statistics.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock handler threads parked in read_frame.
        for (_, stream) in self.shared.conns.lock().expect("conns").iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handlers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.shared.handlers.lock().expect("handlers"));
        for h in handlers {
            let _ = h.join();
        }
        // All spawned threads are joined, so this Arc is the last one;
        // unwrap it to consume the service for a draining shutdown.
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.service.shutdown(),
            Err(shared) => {
                // Unreachable in practice; degrade to a snapshot (the
                // service still drains on drop).
                shared.service.stats()
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NetShared>, max_connections: usize) {
    let mut next_conn_id: u64 = 0;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                // The listener is non-blocking; accepted sockets must
                // not inherit that.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                if shared.live.load(Ordering::SeqCst) >= max_connections {
                    // Bounded acceptor: typed refusal, then close.
                    shared.refused.fetch_add(1, Ordering::Relaxed);
                    let mut stream = stream;
                    let _ = write_frame(
                        &mut stream,
                        &Frame::Error {
                            code: ErrorCode::TooManyConnections,
                            job_id: 0,
                            detail: format!("connection limit {max_connections} reached"),
                        },
                    );
                    continue;
                }
                let conn_id = next_conn_id;
                next_conn_id += 1;
                shared.live.fetch_add(1, Ordering::SeqCst);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().expect("conns").insert(conn_id, clone);
                }
                let handler = {
                    let shared = Arc::clone(shared);
                    std::thread::Builder::new()
                        .name(format!("cryptopim-net-conn-{conn_id}"))
                        .spawn(move || {
                            handle_connection(&shared, conn_id, stream);
                            shared.conns.lock().expect("conns").remove(&conn_id);
                            shared.live.fetch_sub(1, Ordering::SeqCst);
                        })
                };
                match handler {
                    Ok(h) => shared.handlers.lock().expect("handlers").push(h),
                    Err(_) => {
                        // Spawn failed: roll the bookkeeping back.
                        shared.conns.lock().expect("conns").remove(&conn_id);
                        shared.live.fetch_sub(1, Ordering::SeqCst);
                        shared.refused.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Per-connection session state.
struct Session {
    /// Index into `shared.tenants` once authenticated.
    tenant: Option<usize>,
    /// Requests submitted on this connection and not yet collected, by
    /// job id. `Submit` and `SubmitProtocol` share this one id space,
    /// and each entry holds one slot of the tenant's outstanding quota.
    jobs: HashMap<u64, Outstanding>,
}

/// One uncollected request: a raw multiply or a protocol op.
enum Outstanding {
    Mul(JobTicket),
    Protocol(ProtocolKind, ProtocolTicket),
}

impl Outstanding {
    fn is_done(&self) -> bool {
        match self {
            Outstanding::Mul(ticket) => ticket.is_done(),
            Outstanding::Protocol(_, ticket) => ticket.is_done(),
        }
    }

    /// Waits up to `timeout` and renders the result as this variant's
    /// completion frame.
    fn wait_timeout(&self, job_id: u64, timeout: Duration) -> Result<Frame, ServiceError> {
        Ok(match self {
            Outstanding::Mul(ticket) => {
                let done = ticket.wait_timeout(timeout)?;
                Frame::Done {
                    job_id,
                    q: done.product.modulus(),
                    product: done.product.into_coeffs(),
                    queue_us: done.queue_us as u64,
                    service_us: done.service_us as u64,
                    attempts: done.attempts,
                }
            }
            Outstanding::Protocol(kind, ticket) => {
                let done = ticket.wait_timeout(timeout)?;
                Frame::ProtocolDone {
                    job_id,
                    kind: *kind,
                    digest: done.output.digest(),
                    nodes: done.nodes,
                    attempts: done.attempts,
                    queue_us: done.queue_us as u64,
                    service_us: done.service_us as u64,
                }
            }
        })
    }
}

/// What the dispatcher wants done after replying.
enum After {
    Keep,
    Close,
}

fn handle_connection(shared: &Arc<NetShared>, _conn_id: u64, stream: TcpStream) {
    let mut session = Session {
        tenant: None,
        jobs: HashMap::new(),
    };
    let reader = stream.try_clone();
    let run = |session: &mut Session| -> io::Result<()> {
        let Ok(read_half) = reader else {
            return Ok(());
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        let mut codec = Codec::default();
        loop {
            let frame = match codec.read_frame(&mut reader) {
                Ok(f) => f,
                Err(e) if e.is_disconnect() => return Ok(()),
                Err(WireError::Io(e)) => return Err(e),
                Err(WireError::BadVersion(peer_version)) => {
                    // A v1/v2 peer gets a typed refusal in its own
                    // envelope and checksum, so its strict envelope
                    // check still lets it decode why it was turned
                    // away; any other version byte gets a plain close.
                    shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                    if let Some(reply) = encode_version_refusal(peer_version) {
                        let _ = writer.write_all(&reply);
                        let _ = writer.flush();
                    }
                    return Ok(());
                }
                Err(e) => {
                    // Protocol violation: answer one typed error frame,
                    // then drop the connection. Never a panic.
                    shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = codec.write_frame(
                        &mut writer,
                        &Frame::Error {
                            code: ErrorCode::Malformed,
                            job_id: 0,
                            detail: e.to_string(),
                        },
                    );
                    let _ = writer.flush();
                    return Ok(());
                }
            };
            shared.frames_in.fetch_add(1, Ordering::Relaxed);
            let (reply, after) = dispatch(shared, session, frame);
            codec.write_frame(&mut writer, &reply)?;
            writer.flush()?;
            shared.frames_out.fetch_add(1, Ordering::Relaxed);
            if matches!(after, After::Close) {
                return Ok(());
            }
        }
    };
    let _ = run(&mut session);
    // Connection teardown releases the tenant's uncollected slots —
    // the jobs themselves keep executing and their tickets resolve
    // unobserved, but the quota must not leak.
    if let Some(t) = session.tenant {
        shared.tenants[t]
            .outstanding
            .fetch_sub(session.jobs.len(), Ordering::SeqCst);
    }
}

fn error(code: ErrorCode, job_id: u64, detail: impl Into<String>) -> Frame {
    Frame::Error {
        code,
        job_id,
        detail: detail.into(),
    }
}

fn dispatch(shared: &Arc<NetShared>, session: &mut Session, frame: Frame) -> (Frame, After) {
    match frame {
        Frame::Hello { token } => match shared.tenants.iter().position(|t| t.cfg.token == token) {
            Some(i) => {
                session.tenant = Some(i);
                let cfg = &shared.tenants[i].cfg;
                (
                    Frame::HelloOk {
                        tenant: cfg.name.clone(),
                        quota: cfg.quota as u32,
                    },
                    After::Keep,
                )
            }
            None => {
                shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                (
                    error(ErrorCode::BadToken, 0, "unknown tenant token"),
                    After::Close,
                )
            }
        },
        // Every other verb requires authentication first.
        _ if session.tenant.is_none() => (
            error(ErrorCode::AuthRequired, 0, "Hello must come first"),
            After::Close,
        ),
        Frame::Submit { job_id, q, a, b } => (
            admit(shared, session, job_id, |service| {
                let (a, b) = operands(q, a, b)?;
                service.submit(a, b).map(Outstanding::Mul)
            }),
            After::Keep,
        ),
        Frame::SubmitProtocol {
            job_id,
            kind,
            n,
            seed,
        } => (
            admit(shared, session, job_id, |service| {
                let job = scenario(kind, n, seed)?;
                service
                    .submit_protocol(job)
                    .map(|ticket| Outstanding::Protocol(kind, ticket))
            }),
            After::Keep,
        ),
        Frame::Wait { job_id, timeout_ms } => {
            (wait(shared, session, job_id, timeout_ms), After::Keep)
        }
        Frame::Status { job_id } => {
            let state = match session.jobs.get(&job_id) {
                Some(job) if job.is_done() => JobState::Done,
                Some(_) => JobState::Pending,
                None => JobState::Unknown,
            };
            (Frame::StatusOk { job_id, state }, After::Keep)
        }
        Frame::Stats => (
            Frame::StatsJson {
                json: shared.stats_json(),
            },
            After::Keep,
        ),
        Frame::Shutdown => {
            let tenant = &shared.tenants[session.tenant.expect("authenticated")];
            if tenant.cfg.may_shutdown {
                shared.stop.store(true, Ordering::SeqCst);
                (Frame::ShutdownOk, After::Keep)
            } else {
                (
                    error(
                        ErrorCode::NotPermitted,
                        0,
                        format!("tenant {} lacks the shutdown capability", tenant.cfg.name),
                    ),
                    After::Keep,
                )
            }
        }
        // Server-to-client frames arriving at the server are protocol
        // violations.
        other => (
            error(
                ErrorCode::Malformed,
                0,
                format!("unexpected {} frame from a client", other.name()),
            ),
            After::Close,
        ),
    }
}

/// The one admission step of `Submit` and `SubmitProtocol`: refuse
/// during drain or on an id still outstanding as either kind, take one
/// slot of the tenant's quota, then let `start` build and submit the
/// request. A refusal after the take gives the slot back.
fn admit(
    shared: &NetShared,
    session: &mut Session,
    job_id: u64,
    start: impl FnOnce(&Service) -> Result<Outstanding, ServiceError>,
) -> Frame {
    let tenant = &shared.tenants[session.tenant.expect("authenticated")];
    if shared.stop.load(Ordering::SeqCst) {
        return error(ErrorCode::ShuttingDown, job_id, "server is draining");
    }
    if session.jobs.contains_key(&job_id) {
        return error(
            ErrorCode::DuplicateJob,
            job_id,
            "job id already outstanding on this connection",
        );
    }
    // Per-tenant admission quota, taken optimistically and rolled back
    // on any downstream refusal.
    let quota = tenant.cfg.quota;
    if tenant
        .outstanding
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
            (cur < quota).then_some(cur + 1)
        })
        .is_err()
    {
        tenant.quota_rejected.fetch_add(1, Ordering::Relaxed);
        return error(
            ErrorCode::QuotaExceeded,
            job_id,
            format!("outstanding quota {quota} exhausted; collect results first"),
        );
    }
    match start(&shared.service) {
        Ok(job) => {
            tenant.submitted.fetch_add(1, Ordering::Relaxed);
            session.jobs.insert(job_id, job);
            Frame::Submitted { job_id }
        }
        Err(e) => {
            tenant.outstanding.fetch_sub(1, Ordering::SeqCst);
            if matches!(e, ServiceError::Overloaded { .. }) {
                tenant.shed.fetch_add(1, Ordering::Relaxed);
            }
            error_frame(job_id, &e)
        }
    }
}

/// `Submit`'s operands as ring elements mod `q`.
fn operands(q: u64, a: Vec<u64>, b: Vec<u64>) -> Result<(Polynomial, Polynomial), ServiceError> {
    let ring = |coeffs: Vec<u64>| {
        let n = coeffs.len();
        if q == 0 {
            // from_coeffs would divide by zero; a remote peer must get
            // a typed frame for that, not a panicked handler thread.
            return Err(ServiceError::UnsupportedJob { n, q });
        }
        Polynomial::from_coeffs(coeffs, q).map_err(|_| ServiceError::UnsupportedJob { n, q })
    };
    Ok((ring(a)?, ring(b)?))
}

/// `SubmitProtocol`'s scripted scenario, materialised server-side.
fn scenario(kind: ProtocolKind, n: u64, seed: u64) -> Result<ProtocolJob, ServiceError> {
    let n = usize::try_from(n).unwrap_or(usize::MAX);
    // A hostile degree must become a typed frame before any scenario
    // materialisation: cap it at the largest ring any parameter set
    // covers so key generation stays bounded.
    if n == 0 || n > (1 << 20) {
        return Err(ServiceError::UnsupportedJob { n, q: 0 });
    }
    ProtocolJob::scripted(kind, n, seed)
}

/// `Wait`: block up to the client's timeout capped by `max_wait`, so a
/// remote peer can never occupy this handler thread longer than that,
/// plus the run of one protocol op: a wait runs its still-queued op on
/// this thread when no graph executor has claimed it.
/// A timeout leaves the request claimable; any other outcome collects
/// it and releases its quota slot.
fn wait(shared: &NetShared, session: &mut Session, job_id: u64, timeout_ms: u32) -> Frame {
    let Some(job) = session.jobs.get(&job_id) else {
        return error(
            ErrorCode::UnknownJob,
            job_id,
            "not outstanding on this connection",
        );
    };
    let timeout = Duration::from_millis(u64::from(timeout_ms)).min(shared.max_wait);
    let result = job.wait_timeout(job_id, timeout);
    if let Err(e @ ServiceError::WaitTimeout { .. }) = &result {
        // Flow control, not failure: the ticket stays claimable.
        return error_frame(job_id, e);
    }
    session.jobs.remove(&job_id);
    let tenant = &shared.tenants[session.tenant.expect("authenticated")];
    tenant.outstanding.fetch_sub(1, Ordering::SeqCst);
    match result {
        Ok(done) => {
            tenant.completed.fetch_add(1, Ordering::Relaxed);
            done
        }
        Err(e) => error_frame(job_id, &e),
    }
}

/// The typed refusal for a service error: `Error` with
/// [`error_code`] and the error's own description.
fn error_frame(job_id: u64, e: &ServiceError) -> Frame {
    error(error_code(e), job_id, e.to_string())
}

/// The one `ServiceError → ErrorCode` mapping, for admission refusals
/// and execution failures of raw multiplies and protocol ops alike. A
/// failed protocol node (a wide multiply's residue lane among them)
/// answers with its inner error's code, so a refusal inside a graph reads the same as the refusal of
/// a raw multiply.
fn error_code(e: &ServiceError) -> ErrorCode {
    match e {
        ServiceError::Overloaded { .. } => ErrorCode::Overloaded,
        ServiceError::ShuttingDown => ErrorCode::ShuttingDown,
        ServiceError::UnsupportedJob { .. }
        | ServiceError::PairMismatch { .. }
        | ServiceError::ProtocolHost { .. } => ErrorCode::Unsupported,
        ServiceError::FaultUnrecovered { .. } => ErrorCode::FaultUnrecovered,
        ServiceError::WaitTimeout { .. } => ErrorCode::WaitTimeout,
        ServiceError::ProtocolNode { error, .. } => error_code(error),
        _ => ErrorCode::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_errors_map_to_internal_inside_graphs_too() {
        let internal = ServiceError::Internal {
            detail: "batch unwound".into(),
        };
        assert_eq!(error_code(&internal), ErrorCode::Internal);
        let node = ServiceError::ProtocolNode {
            node: 1,
            q: 7681,
            error: Box::new(internal),
        };
        assert_eq!(error_code(&node), ErrorCode::Internal);
    }
}
