//! Integration tests for the TCP front end: products served over a
//! real loopback socket must be bit-identical to the software NTT,
//! tenant quotas must refuse with typed frames (never hang, never
//! corrupt), and hostile bytes on the wire must never take the server
//! down.

use net::client::{Client, NetError};
use net::drive::{self, DriveConfig, DriveError, DriveReport, Transport, Workload};
use net::server::{Server, ServerConfig, TenantConfig};
use net::wire::{self, ErrorCode, Frame, JobState};
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use pim::fault::{Injector, WritePath};
use service::workload::generate_jobs;
use service::{ServiceConfig, ServiceStats};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use std::time::Instant;

fn start_server(tenants: Vec<TenantConfig>, service: ServiceConfig) -> Server {
    Server::start(
        "127.0.0.1:0",
        ServerConfig {
            tenants,
            service,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn one_tenant(quota: usize) -> Vec<TenantConfig> {
    vec![TenantConfig::new("alpha", "alpha-token", quota)]
}

/// Jobs submitted over TCP come back bit-identical to the software
/// NTT, and `Status` tracks the job's lifecycle.
#[test]
fn served_over_tcp_matches_software_ntt() {
    let server = start_server(one_tenant(64), ServiceConfig::default());
    let addr = server.local_addr();
    let (mut client, tenant, quota) = Client::connect(addr, "alpha-token").expect("hello");
    assert_eq!(tenant, "alpha");
    assert!(quota >= 1);

    let jobs = generate_jobs(11, 12, &[64, 128, 256]);
    let mult_256 = NttMultiplier::for_degree_modulus(256, jobs[0].0.modulus()).ok();
    let _ = mult_256; // multipliers are built per-job below
    for (id, (a, b)) in jobs.into_iter().enumerate() {
        let id = id as u64 + 1;
        let expected = NttMultiplier::for_degree_modulus(a.degree_bound(), a.modulus())
            .expect("params")
            .multiply(&a, &b)
            .expect("software NTT");
        assert_eq!(client.status(id).expect("status"), JobState::Unknown);
        client
            .submit(id, a.modulus(), a.into_coeffs(), b.into_coeffs())
            .expect("submit");
        let state = client.status(id).expect("status");
        assert!(matches!(state, JobState::Pending | JobState::Done));
        let done = client.wait(id, 30_000).expect("wait");
        assert_eq!(done.q, expected.modulus());
        assert_eq!(done.product, expected.clone().into_coeffs());
        // Collected jobs are forgotten: waiting again is UnknownJob.
        let again = client.wait(id, 1_000).unwrap_err();
        assert_eq!(again.code(), Some(ErrorCode::UnknownJob));
    }
    server.shutdown();
}

/// Quota exhaustion is a typed `QuotaExceeded` frame; collecting a
/// result frees the slot and the connection keeps working.
#[test]
fn quota_exhaustion_is_typed_and_recoverable() {
    let server = start_server(one_tenant(2), ServiceConfig::default());
    let (mut client, _, quota) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    assert_eq!(quota, 2);

    let jobs = generate_jobs(3, 3, &[64]);
    for (i, (a, b)) in jobs.iter().take(2).enumerate() {
        client
            .submit(
                i as u64,
                a.modulus(),
                a.coeffs().to_vec(),
                b.coeffs().to_vec(),
            )
            .expect("within quota");
    }
    // Third submit exceeds the outstanding quota (results not yet
    // collected even if the jobs already ran).
    let (a, b) = &jobs[2];
    let refused = client
        .submit(2, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap_err();
    assert_eq!(refused.code(), Some(ErrorCode::QuotaExceeded));

    // Collect one; the freed slot admits the refused job.
    client.wait(0, 30_000).expect("collect");
    client
        .submit(2, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .expect("slot freed");
    client.wait(1, 30_000).expect("collect");
    client.wait(2, 30_000).expect("collect");
    server.shutdown();
}

/// A tenant that saturates its quota cannot starve another tenant:
/// quotas cap each tenant's share of the admission queue.
#[test]
fn greedy_tenant_cannot_starve_light_tenant() {
    let tenants = vec![
        TenantConfig::new("greedy", "greedy-token", 4),
        TenantConfig::new("light", "light-token", 4),
    ];
    let server = start_server(
        tenants,
        ServiceConfig {
            queue_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();
    let (mut greedy, _, _) = Client::connect(addr, "greedy-token").unwrap();
    let jobs = generate_jobs(5, 6, &[64]);
    // Greedy fills its whole quota and is then refused.
    for (i, (a, b)) in jobs.iter().take(4).enumerate() {
        greedy
            .submit(
                i as u64,
                a.modulus(),
                a.coeffs().to_vec(),
                b.coeffs().to_vec(),
            )
            .expect("greedy within quota");
    }
    let (a, b) = &jobs[4];
    let refused = greedy
        .submit(9, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap_err();
    assert_eq!(refused.code(), Some(ErrorCode::QuotaExceeded));
    // The light tenant still gets through.
    let (mut light, _, _) = Client::connect(addr, "light-token").unwrap();
    let (a, b) = &jobs[5];
    light
        .submit(1, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .expect("light tenant admitted despite greedy saturation");
    light.wait(1, 30_000).expect("light result");
    server.shutdown();
}

/// Wrong tokens and pre-auth verbs get typed refusals and a closed
/// connection, not service.
#[test]
fn bad_token_and_preauth_verbs_are_refused() {
    let server = start_server(one_tenant(4), ServiceConfig::default());
    let addr = server.local_addr();

    let err = Client::connect(addr, "wrong-token").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadToken));

    // A Submit before Hello is AuthRequired and the connection drops.
    let mut raw = TcpStream::connect(addr).unwrap();
    wire::write_frame(
        &mut raw,
        &Frame::Submit {
            job_id: 1,
            q: 7681,
            a: vec![1, 2],
            b: vec![3, 4],
        },
    )
    .unwrap();
    let reply = wire::read_frame(&mut raw).unwrap();
    match reply {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::AuthRequired),
        other => panic!("expected Error frame, got {}", other.name()),
    }
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server should close after refusal");
    server.shutdown();
}

/// Garbage on the socket — bad magic, bad version, oversized length
/// prefixes, mid-frame disconnects, a zero modulus — never takes the
/// server down; a well-behaved client still gets served afterwards.
#[test]
fn hostile_bytes_do_not_kill_the_server() {
    let server = start_server(one_tenant(4), ServiceConfig::default());
    let addr = server.local_addr();

    // Bad magic.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"HTTP/1.1 GET /\r\n\r\n").unwrap();
    let _ = s.read(&mut [0u8; 64]);
    drop(s);

    // Right magic, wrong version.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"CPIM\x63\x01\x00\x00\x00\x00").unwrap();
    let _ = s.read(&mut [0u8; 64]);
    drop(s);

    // Oversized length prefix (1 GiB claimed payload).
    let mut s = TcpStream::connect(addr).unwrap();
    let mut evil = Vec::from(wire::MAGIC);
    evil.push(wire::VERSION);
    evil.push(1); // Hello tag
    evil.extend_from_slice(&(1u32 << 30).to_le_bytes());
    s.write_all(&evil).unwrap();
    let _ = s.read(&mut [0u8; 64]);
    drop(s);

    // Mid-frame disconnect: a valid header, then hang up.
    let mut s = TcpStream::connect(addr).unwrap();
    let good = wire::encode_frame(&Frame::Hello {
        token: "alpha-token".into(),
    });
    s.write_all(&good[..good.len() / 2]).unwrap();
    drop(s);

    // Authenticated but hostile submit: modulus zero must be a typed
    // refusal, not a panicked handler.
    let (mut hostile, _, _) = Client::connect(addr, "alpha-token").unwrap();
    let err = hostile.submit(1, 0, vec![1, 2], vec![3, 4]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Unsupported));
    // Non-power-of-two degree is refused the same way.
    let err = hostile
        .submit(1, 7681, vec![1, 2, 3], vec![4, 5, 6])
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Unsupported));

    // After all of that, an honest client gets a bit-exact product.
    let (mut client, _, _) = Client::connect(addr, "alpha-token").unwrap();
    let (a, b) = generate_jobs(21, 1, &[128]).pop().unwrap();
    let expected = NttMultiplier::for_degree_modulus(128, a.modulus())
        .unwrap()
        .multiply(&a, &b)
        .unwrap();
    client
        .submit(7, a.modulus(), a.into_coeffs(), b.into_coeffs())
        .expect("submit after hostile traffic");
    let done = client
        .wait(7, 30_000)
        .expect("served after hostile traffic");
    assert_eq!(done.product, expected.into_coeffs());
    server.shutdown();
}

/// Test injector state: every bank's ops wait at `begin_op` until the
/// test opens the gate, so a multiply holds its bank for exactly as
/// long as the test needs.
#[derive(Debug, Default)]
struct Gate {
    open: Mutex<bool>,
    opened: std::sync::Condvar,
}

#[derive(Debug)]
struct GatePath {
    bank: u32,
    gate: Arc<Gate>,
}

#[derive(Debug)]
struct GateInjector(Arc<Gate>);

/// Opens the gate when dropped, so a failed assertion never leaves a
/// bank held while the server drains.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        *self.0.open.lock().unwrap() = true;
        self.0.opened.notify_all();
    }
}

impl Injector for GateInjector {
    fn bank_writes(&self, bank: u32) -> Arc<dyn WritePath> {
        Arc::new(GatePath {
            bank,
            gate: Arc::clone(&self.0),
        })
    }
}

impl WritePath for GatePath {
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

/// A `Wait` that times out returns a typed `WaitTimeout` frame and the
/// job stays claimable by a later `Wait`.
#[test]
fn wait_timeout_over_tcp_keeps_job_claimable() {
    let gate = Arc::new(Gate::default());
    let server = start_server(
        one_tenant(8),
        ServiceConfig {
            workers: 1,
            injector: Some(Arc::new(GateInjector(Arc::clone(&gate)))),
            ..ServiceConfig::default()
        },
    );
    // Declared after the server, so it opens the gate before the server
    // drains.
    let gate = OpenOnDrop(gate);
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();

    // The one bank's write path is gated shut, so neither the blocker
    // nor the probe can finish before the test opens it, whichever
    // thread claims them.
    let mut jobs = generate_jobs(31, 2, &[64]);
    let (a, b) = jobs.pop().unwrap();
    let (blocker_a, blocker_b) = jobs.pop().unwrap();
    let expected = NttMultiplier::for_degree_modulus(64, a.modulus())
        .unwrap()
        .multiply(&a, &b)
        .unwrap();
    client
        .submit(
            100,
            blocker_a.modulus(),
            blocker_a.into_coeffs(),
            blocker_b.into_coeffs(),
        )
        .expect("blocker admitted");
    client
        .submit(7, a.modulus(), a.into_coeffs(), b.into_coeffs())
        .expect("probe admitted");

    // A zero-timeout Wait only polls, and the probe cannot be done.
    let err = client.wait(7, 0).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::WaitTimeout));
    // Still claimable — and correct — once the bank runs again.
    drop(gate);
    let done = client.wait(7, 120_000).expect("probe completes");
    assert_eq!(done.product, expected.into_coeffs());
    client.wait(100, 120_000).expect("blocker completes");
    server.shutdown();
}

/// The `Stats` verb returns JSON whose embedded `"service"` object
/// round-trips through `ServiceStats::from_json`.
#[test]
fn stats_verb_json_is_parseable() {
    let server = start_server(one_tenant(16), ServiceConfig::default());
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    for (i, (a, b)) in generate_jobs(41, 4, &[64]).into_iter().enumerate() {
        client
            .submit(i as u64, a.modulus(), a.into_coeffs(), b.into_coeffs())
            .unwrap();
        client.wait(i as u64, 30_000).unwrap();
    }
    let doc = client.stats_json().expect("stats");
    let service_obj = drive::extract_object(&doc, "service").expect("service object");
    let stats = ServiceStats::from_json(service_obj).expect("parseable service stats");
    assert!(stats.completed >= 4, "completed={}", stats.completed);
    // The net layer's own counters are present too.
    for key in [
        "connections_accepted",
        "frames_in",
        "tenant_outstanding",
        "tenant_completed",
    ] {
        assert!(doc.contains(key), "missing {key} in {doc}");
    }
    server.shutdown();
}

/// `Shutdown` is capability-gated: ordinary tenants get `NotPermitted`,
/// an operator tenant stops the server.
#[test]
fn shutdown_is_capability_gated() {
    let tenants = vec![
        TenantConfig::new("user", "user-token", 4),
        TenantConfig {
            name: "operator".into(),
            token: "op-token".into(),
            quota: 4,
            may_shutdown: true,
        },
    ];
    let server = start_server(tenants, ServiceConfig::default());
    let addr = server.local_addr();

    let (mut user, _, _) = Client::connect(addr, "user-token").unwrap();
    let err = user.shutdown_server().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotPermitted));
    assert!(!server.is_stopping());

    let (mut op, _, _) = Client::connect(addr, "op-token").unwrap();
    op.shutdown_server().expect("operator may stop the server");
    // wait() observes the stop flag, drains, and returns final stats.
    let stats = server.wait();
    assert_eq!(stats.in_flight, 0);
}

/// The bounded acceptor refuses connections past the limit with a
/// typed frame instead of spawning without bound.
#[test]
fn acceptor_is_bounded() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            tenants: one_tenant(4),
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let (_held, _, _) = Client::connect(addr, "alpha-token").expect("first connection");
    // The refusal may race the live-count update; poll briefly.
    let mut refused = None;
    for _ in 0..50 {
        match Client::connect(addr, "alpha-token") {
            Err(e) if e.code() == Some(ErrorCode::TooManyConnections) => {
                refused = Some(e);
                break;
            }
            Ok(extra) => drop(extra),
            Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        refused.and_then(|e| e.code()),
        Some(ErrorCode::TooManyConnections)
    );
    server.shutdown();
}

/// Reusing an outstanding job id on one connection is a typed
/// `DuplicateJob` refusal.
#[test]
fn duplicate_job_id_is_refused() {
    let server = start_server(one_tenant(8), ServiceConfig::default());
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    let (a, b) = generate_jobs(51, 1, &[64]).pop().unwrap();
    client
        .submit(3, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap();
    let err = client
        .submit(3, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DuplicateJob));
    client.wait(3, 30_000).unwrap();
    server.shutdown();
}

fn narrow() -> Workload {
    Workload::Raw {
        hot_keys: 0,
        wide: 0.0,
        wide_channels: 2,
    }
}

fn tcp_drive(
    addr: std::net::SocketAddr,
    token: &str,
    seed: u64,
    ops: usize,
    degrees: &[usize],
    clients: usize,
    window: usize,
) -> Result<DriveReport, DriveError> {
    drive::run(&DriveConfig {
        seed,
        ops,
        degrees: degrees.to_vec(),
        clients,
        window,
        rate: None,
        workload: narrow(),
        transport: Transport::Tcp {
            addr,
            token: token.into(),
            wait_timeout_ms: 30_000,
        },
    })
}

/// The load driver over loopback TCP: every product bit-verified, zero
/// mismatches, and the post-run stats document parses.
#[test]
fn tcp_loadgen_verifies_everything() {
    let server = start_server(one_tenant(32), ServiceConfig::default());
    let report = tcp_drive(server.local_addr(), "alpha-token", 17, 32, &[64, 128], 4, 4)
        .expect("healthy server");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.total.ok, 32);
    assert!(report.p99_us >= report.p50_us);
    let doc = report.server_json.as_deref().expect("Stats document");
    let service_obj = drive::extract_object(doc, "service").expect("service object");
    assert_eq!(ServiceStats::from_json(service_obj), Some(report.stats));
    server.shutdown();
}

/// Clients stride one shared stream: 10 ops over 4 clients serve
/// exactly 10, not 4 × ceil(10 / 4).
#[test]
fn tcp_loadgen_serves_exactly_the_requested_ops() {
    let server = start_server(one_tenant(16), ServiceConfig::default());
    let report =
        tcp_drive(server.local_addr(), "alpha-token", 3, 10, &[64], 4, 1).expect("healthy server");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.total.ops, 10);
    assert_eq!(report.total.ok, 10);
    assert_eq!(report.stats.admitted, 10);
    server.shutdown();
}

/// An unreachable server and a wrong token are typed connect errors,
/// never a panic in a client thread.
#[test]
fn tcp_loadgen_reports_connect_failures() {
    let closed = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let err = tcp_drive(closed, "alpha-token", 1, 4, &[64], 2, 1).unwrap_err();
    assert!(matches!(err, DriveError::Connect(_)), "{err}");

    let server = start_server(one_tenant(4), ServiceConfig::default());
    let err = tcp_drive(server.local_addr(), "wrong-token", 1, 4, &[64], 2, 1).unwrap_err();
    match &err {
        DriveError::Connect(e) => assert_eq!(e.code(), Some(ErrorCode::BadToken), "{e}"),
        other => panic!("expected a connect error, got {other}"),
    }
    server.shutdown();
}

/// The same narrow workload served in process and over TCP: identical
/// verified outputs and identical ok counts. Every output of both runs
/// is compared with the oracle output of the one seeded stream, so two
/// clean runs with equal ok counts served identical outputs.
#[test]
fn transports_serve_identical_outputs() {
    let server = start_server(one_tenant(16), ServiceConfig::default());
    let tcp = tcp_drive(
        server.local_addr(),
        "alpha-token",
        29,
        24,
        &[64, 128, 256],
        3,
        2,
    )
    .expect("healthy server");
    server.shutdown();
    let local = drive::run(&DriveConfig {
        seed: 29,
        ops: 24,
        degrees: vec![64, 128, 256],
        clients: 3,
        window: 2,
        rate: None,
        workload: narrow(),
        transport: Transport::InProcess(ServiceConfig::default()),
    })
    .expect("in-process runs always start");
    for report in [&tcp, &local] {
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.total.mismatches, 0);
    }
    assert_eq!(tcp.total.ok, 24);
    assert_eq!(tcp.total.ok, local.total.ok);
}

/// The `NetError` display surface names the code and detail.
#[test]
fn refusals_render_usefully() {
    let e = NetError::Server {
        code: ErrorCode::QuotaExceeded,
        job_id: 9,
        detail: "outstanding quota 2 exhausted".into(),
    };
    let msg = e.to_string();
    assert!(msg.contains("quota"), "{msg}");
    assert!(msg.contains('9'), "{msg}");
}

/// Protocol ops over TCP (wire v2): `SubmitProtocol` serves a scripted
/// scenario through the graph layer, and the returned digest matches a
/// local direct execution of the same `(kind, n, seed)` — a remote
/// bit-identity check without shipping the output.
#[test]
fn protocol_ops_over_tcp_match_direct_digests() {
    use service::{ProtocolJob, ProtocolKind};
    let server = start_server(one_tenant(16), ServiceConfig::default());
    let addr = server.local_addr();
    let (mut client, _, _) = Client::connect(addr, "alpha-token").expect("hello");
    for (i, kind) in [
        ProtocolKind::KeyGen,
        ProtocolKind::Encaps,
        ProtocolKind::Decaps,
        ProtocolKind::Sign,
        ProtocolKind::SheMul,
    ]
    .into_iter()
    .enumerate()
    {
        let id = 100 + i as u64;
        let seed = 4000 + i as u64;
        client
            .submit_protocol(id, kind, 256, seed)
            .expect("protocol submit");
        let done = client.wait_protocol(id, 30_000).expect("protocol done");
        assert_eq!(done.kind, kind);
        let want = ProtocolJob::scripted(kind, 256, seed)
            .expect("scripted")
            .run_direct()
            .expect("direct")
            .digest();
        assert_eq!(done.digest, want, "digest mismatch for {kind}");
        assert!(done.nodes >= 1);
    }
    // Protocol jobs share the id space: a duplicate is refused.
    client
        .submit_protocol(200, service::ProtocolKind::KeyGen, 256, 1)
        .expect("submit");
    let err = client
        .submit_protocol(200, service::ProtocolKind::Sign, 256, 2)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DuplicateJob));
    // ... in both orders across the two submit verbs.
    let (a, b) = generate_jobs(61, 1, &[256]).pop().unwrap();
    let err = client
        .submit(200, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DuplicateJob));
    let _ = client.wait_protocol(200, 30_000).expect("collect");
    client
        .submit(202, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .expect("raw submit");
    let err = client
        .submit_protocol(202, service::ProtocolKind::KeyGen, 256, 4)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DuplicateJob));
    client.wait(202, 30_000).expect("collect raw");
    // A hostile degree is a typed refusal, not a server-side panic.
    let err = client
        .submit_protocol(201, service::ProtocolKind::Encaps, 64, 3)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Unsupported));
    server.shutdown();
}

/// A protocol op whose leaf multiply a degraded (fully quarantined)
/// fleet refused answers `Overloaded`, the same code a raw multiply
/// gets in that state.
#[test]
fn degraded_fleet_refuses_protocol_ops_as_overloaded() {
    use reliability::plan::FaultPlan;
    use service::{CheckPolicy, ProtocolKind};
    use std::sync::Arc;
    let server = start_server(
        one_tenant(8),
        ServiceConfig {
            workers: 1,
            check: CheckPolicy::Recompute,
            max_attempts: 1,
            quarantine_after: 1,
            injector: Some(Arc::new(FaultPlan::new(5).with_transient(1.0, 12))),
            ..ServiceConfig::default()
        },
    );
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    // Every write is corrupted: the one raw op fails its only attempt
    // and quarantines the only bank.
    let (a, b) = generate_jobs(71, 1, &[256]).pop().unwrap();
    client
        .submit(1, a.modulus(), a.into_coeffs(), b.into_coeffs())
        .expect("admitted before the fleet degrades");
    let err = client.wait(1, 30_000).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::FaultUnrecovered));
    client
        .submit_protocol(2, ProtocolKind::Mul, 256, 9)
        .expect("protocol ops queue for the graph executors");
    let err = client.wait_protocol(2, 30_000).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Overloaded), "{err}");
    server.shutdown();
}

/// `Status` reads a protocol op's id from the same table as a raw
/// multiply's: `Pending`/`Done` while outstanding, `Unknown` once
/// collected, and collecting it is counted for the tenant.
#[test]
fn status_tracks_protocol_op_lifecycle() {
    let server = start_server(one_tenant(4), ServiceConfig::default());
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    client
        .submit_protocol(5, service::ProtocolKind::KeyGen, 256, 11)
        .expect("submit");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match client.status(5).expect("status") {
            JobState::Done => break,
            JobState::Pending => {
                assert!(std::time::Instant::now() < deadline, "op never finished");
                std::thread::sleep(Duration::from_millis(2));
            }
            JobState::Unknown => panic!("outstanding op read as Unknown"),
        }
    }
    client.wait_protocol(5, 30_000).expect("collect");
    assert_eq!(client.status(5).expect("status"), JobState::Unknown);
    // Collection balances the tenant's counters.
    let doc = client.stats_json().expect("stats");
    for counter in ["\"tenant_outstanding\": 0,", "\"tenant_completed\": 1,"] {
        assert!(doc.contains(counter), "missing {counter} in {doc}");
    }
    server.shutdown();
}

/// A connection that drops with a raw and a protocol op uncollected
/// gives both quota slots back, so the tenant's next connection can
/// fill its whole quota again.
#[test]
fn dropped_connection_returns_quota_of_both_request_kinds() {
    let server = start_server(one_tenant(2), ServiceConfig::default());
    let addr = server.local_addr();
    let jobs = generate_jobs(81, 3, &[256]);
    {
        let (mut first, _, _) = Client::connect(addr, "alpha-token").unwrap();
        let (a, b) = &jobs[0];
        first
            .submit(1, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
            .expect("raw submit");
        first
            .submit_protocol(2, service::ProtocolKind::KeyGen, 256, 3)
            .expect("protocol submit");
    }
    // Teardown runs on the server's handler thread after the drop, so
    // poll until both slots are back.
    let (mut second, _, _) = Client::connect(addr, "alpha-token").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for (id, (a, b)) in jobs[1..].iter().enumerate() {
        loop {
            match second.submit(
                id as u64,
                a.modulus(),
                a.coeffs().to_vec(),
                b.coeffs().to_vec(),
            ) {
                Ok(()) => break,
                Err(e) if e.code() == Some(ErrorCode::QuotaExceeded) => {
                    assert!(std::time::Instant::now() < deadline, "quota never released");
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("submit {id}: {e}"),
            }
        }
    }
    second.wait(0, 30_000).expect("collect");
    second.wait(1, 30_000).expect("collect");
    server.shutdown();
}

/// A peer speaking wire v1 gets one typed `UnsupportedVersion` error —
/// encoded in the v1 envelope so the old client can decode it — instead
/// of a silent close.
#[test]
fn legacy_version_peer_gets_typed_refusal_in_its_own_envelope() {
    legacy_peer_is_refused(1);
}

#[test]
fn v2_peer_gets_typed_refusal_in_its_own_envelope() {
    legacy_peer_is_refused(2);
}

/// A peer speaking a version newer than this build (or one that never
/// existed) gets a plain close: there is no knowing how it frames a
/// reply. The server keeps serving afterwards.
#[test]
fn future_version_peer_gets_a_plain_close() {
    let server = start_server(one_tenant(4), ServiceConfig::default());
    let addr = server.local_addr();
    for version in [0, wire::VERSION + 1, u8::MAX] {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut hello = wire::encode_frame(&Frame::Hello {
            token: "alpha-token".into(),
        });
        hello[4] = version;
        raw.write_all(&hello).unwrap();
        let mut reply = Vec::new();
        raw.read_to_end(&mut reply).unwrap();
        assert!(
            reply.is_empty(),
            "v{version} peer got {} bytes",
            reply.len()
        );
    }
    let (mut client, _, _) = Client::connect(addr, "alpha-token").expect("still serving");
    assert_eq!(client.status(1).unwrap(), JobState::Unknown);
    server.shutdown();
}

/// FNV-1a 64 over (type byte ‖ payload): the checksum a v1 or v2 peer
/// computes on every frame it sends and verifies on every frame it
/// reads. Written out here, independent of the server's code.
fn legacy_fnv1a(tag: u8, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in std::iter::once(&tag).chain(payload) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A v1/v2 peer sends `Hello` in its own envelope; the reply must carry
/// that peer's version byte and verify under that peer's FNV-1a
/// checksum, and its payload must be an `UnsupportedVersion` error.
fn legacy_peer_is_refused(version: u8) {
    let server = start_server(one_tenant(4), ServiceConfig::default());
    let addr = server.local_addr();
    let mut raw = TcpStream::connect(addr).unwrap();
    // The envelope layout is unchanged since v1; only the version byte
    // and the checksum differ.
    let mut hello = wire::encode_frame(&Frame::Hello {
        token: "alpha-token".into(),
    });
    let len = hello.len();
    hello[4] = version;
    let sum = legacy_fnv1a(hello[5], &hello[wire::HEADER_LEN..len - 8]);
    hello[len - 8..].copy_from_slice(&sum.to_le_bytes());
    raw.write_all(&hello).unwrap();

    // Read the reply the way the old peer does: strict envelope check on
    // its own version, then its own checksum, then the payload.
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert!(
        reply.len() > wire::HEADER_LEN + 8,
        "typed reply, not a bare close"
    );
    assert_eq!(&reply[..4], &wire::MAGIC);
    assert_eq!(reply[4], version, "reply speaks the peer's version");
    assert_eq!(reply[5], 13, "an Error frame");
    let payload_len = u32::from_le_bytes(reply[6..10].try_into().unwrap()) as usize;
    assert_eq!(reply.len(), wire::HEADER_LEN + payload_len + 8, "one frame");
    let payload = &reply[wire::HEADER_LEN..wire::HEADER_LEN + payload_len];
    let sum = u64::from_le_bytes(reply[wire::HEADER_LEN + payload_len..].try_into().unwrap());
    assert_eq!(
        sum,
        legacy_fnv1a(reply[5], payload),
        "reply verifies under the peer's own checksum"
    );
    // Error payload (DESIGN §15.2): code u8, job_id u64, detail str.
    assert_eq!(payload[0], ErrorCode::UnsupportedVersion as u8);
    assert_eq!(u64::from_le_bytes(payload[1..9].try_into().unwrap()), 0);
    let detail_len = u32::from_le_bytes(payload[9..13].try_into().unwrap()) as usize;
    assert_eq!(payload.len(), 13 + detail_len);
    let detail = std::str::from_utf8(&payload[13..]).expect("UTF-8 detail");
    assert!(detail.contains(&format!("version {version}")), "{detail}");
    server.shutdown();
}

/// Write path that records the name of the thread beginning each op on
/// its bank, the way the scheduler's owner-recording test injector
/// records thread ids.
#[derive(Debug, Default)]
struct ThreadNames(Arc<Mutex<Vec<String>>>);

#[derive(Debug)]
struct NamePath {
    bank: u32,
    names: Arc<Mutex<Vec<String>>>,
}

impl Injector for ThreadNames {
    fn bank_writes(&self, bank: u32) -> Arc<dyn WritePath> {
        Arc::new(NamePath {
            bank,
            names: Arc::clone(&self.0),
        })
    }
}

impl WritePath for NamePath {
    fn armed(&self) -> bool {
        true
    }
    fn begin_op(&self) {
        let name = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        self.names.lock().unwrap().push(name);
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

/// On an idle one-bank server a `Submit` then `Wait` runs the multiply
/// on the connection's handler thread, which claims the idle bank for
/// its batch itself. A graph executor may
/// win the claim now and then (a `Wait` later than the waiter grace),
/// so the test asks for one op run on the handler among a few.
#[test]
fn a_waited_submit_runs_on_the_handler_thread() {
    let names = ThreadNames::default();
    let recorded = Arc::clone(&names.0);
    let server = start_server(
        one_tenant(4),
        ServiceConfig {
            workers: 1,
            injector: Some(Arc::new(names)),
            ..ServiceConfig::default()
        },
    );
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    for (id, (a, b)) in generate_jobs(91, 8, &[256]).into_iter().enumerate() {
        let id = id as u64;
        client
            .submit(id, a.modulus(), a.into_coeffs(), b.into_coeffs())
            .expect("submit");
        client.wait(id, 30_000).expect("served");
    }
    server.shutdown();
    let names = recorded.lock().unwrap();
    assert_eq!(names.len(), 8, "one op begun per multiply: {names:?}");
    assert!(
        names
            .iter()
            .all(|n| !n.starts_with("cryptopim-svc-worker-")),
        "an idle bank ran a batch on a worker: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("cryptopim-net-conn-")),
        "no batch ran on the handler thread: {names:?}"
    );
}

/// `Done.queue_us + Done.service_us` spans submit → ready on the server,
/// so for every op it is at most the client-observed latency, even for
/// ops that queued behind a window of others.
#[test]
fn done_times_sum_to_at_most_the_client_latency() {
    let server = start_server(one_tenant(8), ServiceConfig::default());
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    let jobs = generate_jobs(93, 16, &[256, 1024]);
    for (w, window) in jobs.chunks(4).enumerate() {
        let mut started = Vec::new();
        for (i, (a, b)) in window.iter().enumerate() {
            let id = (4 * w + i) as u64;
            started.push((id, Instant::now()));
            client
                .submit(id, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
                .expect("submit");
        }
        for (id, t0) in started {
            let done = client.wait(id, 30_000).expect("served");
            let latency_us = t0.elapsed().as_micros() as u64;
            assert!(
                done.queue_us + done.service_us <= latency_us,
                "op {id}: queue {} + service {} µs > client latency {latency_us} µs",
                done.queue_us,
                done.service_us
            );
        }
    }
    server.shutdown();
}
