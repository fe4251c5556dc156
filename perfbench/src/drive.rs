//! Closed-loop drivers: two in-process clients on `Service`, or two TCP
//! connections on `net::Server`. Every output is compared on the client
//! thread with an oracle computed before the timed window.

use crate::trace::{Span, Spans};
use net::{Client, ErrorCode, NetError, Server, ServerConfig, TenantConfig};
use ntt::poly::Polynomial;
use service::{ProtocolJob, ProtocolOutput, Service, ServiceConfig, ServiceStats};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Client threads or connections.
pub const CLIENTS: usize = 2;
/// Jobs each TCP connection keeps outstanding.
pub const TCP_WINDOW: usize = 4;
const TENANT_TOKEN: &str = "perfbench";
/// Well above `CLIENTS * TCP_WINDOW`, so quota refusals mean a bug.
const TENANT_QUOTA: usize = 64;
/// Per-`Wait` timeout; a timed-out wait is retried and counted.
const WAIT_TIMEOUT_MS: u32 = 10_000;

/// One served op as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Index into the workload's op pool.
    pub idx: usize,
    /// Submit → result on the client, µs.
    pub latency_us: f64,
    /// The service's own account of the op's time, µs.
    pub service_us: f64,
    /// Time the op waited in the first queue it met, µs.
    pub queue_us: f64,
    /// Leaf multiplies the op ran.
    pub nodes: u32,
    /// Served without error and equal to the oracle.
    pub ok: bool,
    /// When the result arrived, s after the client's loop started.
    pub end_s: f64,
}

impl OpSample {
    fn failed(idx: usize, latency_us: f64, end_s: f64) -> OpSample {
        OpSample {
            idx,
            latency_us,
            service_us: 0.0,
            queue_us: 0.0,
            nodes: 0,
            ok: false,
            end_s,
        }
    }
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Every pool op exactly once (the warm-up pass).
    Pass,
    /// Until this much time has passed; in-flight ops then finish.
    After(Duration),
}

/// What one closed-loop window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// One sample per op, in no particular order.
    pub samples: Vec<OpSample>,
    /// Wall time from the first submit to the last result, s.
    pub elapsed_s: f64,
    /// `QuotaExceeded` refusals absorbed by waiting and resubmitting.
    pub quota_rejects: u64,
    /// `WaitTimeout` replies absorbed by waiting again.
    pub wait_timeouts: u64,
}

impl Window {
    fn merge(parts: Vec<(Window, Spans)>, elapsed_s: f64) -> (Window, Spans) {
        let mut out = Window {
            elapsed_s,
            ..Window::default()
        };
        let mut spans = Spans::default();
        for (w, s) in parts {
            out.samples.extend(w.samples);
            out.quota_rejects += w.quota_rejects;
            out.wait_timeouts += w.wait_timeouts;
            spans.extend(s);
        }
        (out, spans)
    }
}

/// Pool positions each client works through, carried across windows so
/// consecutive windows continue the cycle instead of restarting it.
fn next_index(client: usize, step: &mut usize, pool: usize) -> usize {
    let idx = (client + CLIENTS * *step) % pool;
    *step += 1;
    idx
}

fn pass_done(client: usize, step: usize, pool: usize) -> bool {
    client + CLIENTS * step >= pool
}

/// The in-process transport: protocol ops through
/// `Service::submit_protocol`.
pub struct ProtoServe {
    service: Service,
    steps: [usize; CLIENTS],
}

impl ProtoServe {
    /// Starts the service: default fleet, hot cache, check off.
    pub fn start(hot_capacity: usize) -> ProtoServe {
        ProtoServe {
            service: Service::start(ServiceConfig {
                hot_capacity,
                ..ServiceConfig::default()
            }),
            steps: [0; CLIENTS],
        }
    }

    /// The service's counters now.
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Drains and stops the service.
    pub fn shutdown(self) {
        self.service.shutdown();
    }

    /// Runs the closed loop over `jobs`, comparing each output with
    /// `expected[idx]`. With `spans`, records the client-side spans.
    pub fn run(
        &mut self,
        jobs: &[ProtocolJob],
        expected: &[ProtocolOutput],
        stop: Stop,
        spans: Option<Instant>,
    ) -> (Window, Spans) {
        if let Stop::Pass = stop {
            self.steps = [0; CLIENTS];
        }
        let service = &self.service;
        let started = Instant::now();
        let parts: Vec<(Window, Spans)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .steps
                .iter_mut()
                .enumerate()
                .map(|(client, step)| {
                    scope.spawn(move || {
                        proto_client(service, jobs, expected, client, step, stop, spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("protocol client thread panicked"))
                .collect()
        });
        Window::merge(parts, started.elapsed().as_secs_f64())
    }
}

fn proto_client(
    service: &Service,
    jobs: &[ProtocolJob],
    expected: &[ProtocolOutput],
    client: usize,
    step: &mut usize,
    stop: Stop,
    epoch: Option<Instant>,
) -> (Window, Spans) {
    let mut window = Window::default();
    let mut spans = Spans::default();
    let started = Instant::now();
    loop {
        match stop {
            Stop::Pass if pass_done(client, *step, jobs.len()) => break,
            Stop::After(d) if started.elapsed() >= d => break,
            _ => {}
        }
        let idx = next_index(client, step, jobs.len());
        let job = jobs[idx].clone();
        let t0 = Instant::now();
        let ticket = service.submit_protocol(job);
        let t1 = Instant::now();
        let done = ticket.and_then(|t| t.wait());
        let t2 = Instant::now();
        let latency_us = (t2 - t0).as_secs_f64() * 1e6;
        let end_s = (t2 - started).as_secs_f64();
        window.samples.push(match done {
            Ok(done) => OpSample {
                idx,
                latency_us,
                service_us: done.service_us,
                queue_us: done.queue_us,
                nodes: done.nodes,
                ok: done.output == expected[idx],
                end_s,
            },
            Err(_) => OpSample::failed(idx, latency_us, end_s),
        });
        if let Some(epoch) = epoch {
            let op = Span::op_id(client, *step);
            spans.push(Span::new(op, "op", None, epoch, t0, t2));
            spans.push(Span::new(
                op,
                "service.submit_protocol",
                Some("op"),
                epoch,
                t0,
                t1,
            ));
            spans.push(Span::new(op, "ticket.wait", Some("op"), epoch, t1, t2));
        }
    }
    (window, spans)
}

/// The TCP transport: raw multiplies through `net::Server`.
pub struct TcpServe {
    server: Server,
    clients: Vec<Client>,
    steps: [usize; CLIENTS],
    next_job: u64,
}

impl TcpServe {
    /// Binds a loopback server (Recompute check, no hot cache) and
    /// connects the clients.
    pub fn start() -> TcpServe {
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                tenants: vec![TenantConfig::new("bench", TENANT_TOKEN, TENANT_QUOTA)],
                service: ServiceConfig {
                    check: cryptopim::check::CheckPolicy::Recompute,
                    hot_capacity: 0,
                    ..ServiceConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind a loopback port");
        let addr = server.local_addr();
        let clients = (0..CLIENTS)
            .map(|_| {
                Client::connect(addr, TENANT_TOKEN)
                    .expect("connect to the loopback server")
                    .0
            })
            .collect();
        TcpServe {
            server,
            clients,
            steps: [0; CLIENTS],
            next_job: 1,
        }
    }

    /// The server's scheduler counters now.
    pub fn stats(&self) -> ServiceStats {
        self.server.stats()
    }

    /// Closes the connections, drains and stops the server.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }

    /// Runs the windowed closed loop over `pairs`, comparing each
    /// product with `expected[idx]`.
    pub fn run(
        &mut self,
        pairs: &[(Polynomial, Polynomial)],
        expected: &[Polynomial],
        stop: Stop,
        spans: Option<Instant>,
    ) -> (Window, Spans) {
        if let Stop::Pass = stop {
            self.steps = [0; CLIENTS];
        }
        // Job ids stay unique per connection across windows.
        let first_job = self.next_job;
        self.next_job += 1 << 32;
        let started = Instant::now();
        let parts: Vec<(Window, Spans)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.steps.iter_mut())
                .enumerate()
                .map(|(client, (conn, step))| {
                    scope.spawn(move || {
                        tcp_client(conn, pairs, expected, client, step, first_job, stop, spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tcp client thread panicked"))
                .collect()
        });
        Window::merge(parts, started.elapsed().as_secs_f64())
    }
}

struct InFlight {
    job_id: u64,
    idx: usize,
    op: u64,
    t0: Instant,
    submitted: Instant,
}

#[allow(clippy::too_many_arguments)] // one client's whole loop state
fn tcp_client(
    conn: &mut Client,
    pairs: &[(Polynomial, Polynomial)],
    expected: &[Polynomial],
    client: usize,
    step: &mut usize,
    mut job_id: u64,
    stop: Stop,
    epoch: Option<Instant>,
) -> (Window, Spans) {
    let mut window = Window::default();
    let mut spans = Spans::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(TCP_WINDOW);
    let started = Instant::now();
    loop {
        while inflight.len() < TCP_WINDOW {
            let more = match stop {
                Stop::Pass => !pass_done(client, *step, pairs.len()),
                Stop::After(d) => started.elapsed() < d,
            };
            if !more {
                break;
            }
            let idx = next_index(client, step, pairs.len());
            let (a, b) = &pairs[idx];
            let (q, a, b) = (a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec());
            let t0 = Instant::now();
            match conn.submit(job_id, q, a, b) {
                Ok(()) => {
                    inflight.push_back(InFlight {
                        job_id,
                        idx,
                        op: Span::op_id(client, *step),
                        t0,
                        submitted: Instant::now(),
                    });
                    job_id += 1;
                }
                Err(NetError::Server {
                    code: ErrorCode::QuotaExceeded,
                    ..
                }) if !inflight.is_empty() => {
                    // Collect before resubmitting this op.
                    window.quota_rejects += 1;
                    *step -= 1;
                    break;
                }
                Err(_) => window.samples.push(OpSample::failed(
                    idx,
                    t0.elapsed().as_secs_f64() * 1e6,
                    started.elapsed().as_secs_f64(),
                )),
            }
        }
        let Some(job) = inflight.pop_front() else {
            break;
        };
        let waited = Instant::now();
        let done = loop {
            match conn.wait(job.job_id, WAIT_TIMEOUT_MS) {
                Err(NetError::Server {
                    code: ErrorCode::WaitTimeout,
                    ..
                }) => window.wait_timeouts += 1,
                other => break other,
            }
        };
        let t2 = Instant::now();
        let latency_us = (t2 - job.t0).as_secs_f64() * 1e6;
        let end_s = (t2 - started).as_secs_f64();
        window.samples.push(match done {
            Ok(done) => OpSample {
                idx: job.idx,
                latency_us,
                service_us: (done.queue_us + done.service_us) as f64,
                queue_us: done.queue_us as f64,
                nodes: 1,
                ok: done.q == expected[job.idx].modulus()
                    && done.product == expected[job.idx].coeffs(),
                end_s,
            },
            Err(_) => OpSample::failed(job.idx, latency_us, end_s),
        });
        if let Some(epoch) = epoch {
            spans.push(Span::new(job.op, "op", None, epoch, job.t0, t2));
            spans.push(Span::new(
                job.op,
                "net.submit",
                Some("op"),
                epoch,
                job.t0,
                job.submitted,
            ));
            spans.push(Span::new(job.op, "net.wait", Some("op"), epoch, waited, t2));
        }
    }
    (window, spans)
}
