//! A small blocking client for the wire protocol.
//!
//! One [`Client`] owns one TCP connection and drives the
//! request/response frame exchange synchronously — exactly what the
//! load generator's closed-loop worker threads and the CLI need.
//! Server-side refusals surface as [`NetError::Server`] carrying the
//! typed [`ErrorCode`], so callers can distinguish quota exhaustion
//! from overload from a genuinely broken peer.

use crate::wire::{Codec, ErrorCode, Frame, JobState, WireError};
use service::ProtocolKind;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum NetError {
    /// Transport or protocol failure (including disconnects).
    Wire(WireError),
    /// The server answered with a typed `Error` frame.
    Server {
        /// The machine-readable refusal code.
        code: ErrorCode,
        /// Job the error refers to (0 when connection-scoped).
        job_id: u64,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The server answered with a frame type the verb does not expect.
    Unexpected(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire failure: {e}"),
            NetError::Server {
                code,
                job_id,
                detail,
            } => {
                write!(f, "server refused (code {code}, job {job_id}): {detail}")
            }
            NetError::Unexpected(name) => write!(f, "unexpected {name} frame"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Wire(WireError::Io(e))
    }
}

impl NetError {
    /// The server-side refusal code, if this is a typed refusal.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            NetError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A successfully collected product, as decoded from a `Done` frame.
#[derive(Debug, Clone)]
pub struct DoneJob {
    /// Modulus of the product ring.
    pub q: u64,
    /// Canonical product coefficients.
    pub product: Vec<u64>,
    /// Microseconds the job queued before an engine took it.
    pub queue_us: u64,
    /// Queue + execution time in microseconds (server-side).
    pub service_us: u64,
    /// Execution attempts (>1 means transparent fault recovery ran).
    pub attempts: u32,
}

/// A completed protocol op, as decoded from a `ProtocolDone` frame.
#[derive(Debug, Clone)]
pub struct DoneProtocol {
    /// The op kind the server ran.
    pub kind: ProtocolKind,
    /// FNV-1a 64 digest of the typed output — compare against
    /// `ProtocolJob::scripted(kind, n, seed).run_direct().digest()`.
    pub digest: u64,
    /// NTT-multiply nodes the op compiled into.
    pub nodes: u32,
    /// Worst per-node execution attempts (>1 = recovered fault).
    pub attempts: u32,
    /// Submission → executor pickup, microseconds (server-side).
    pub queue_us: u64,
    /// End-to-end op latency, microseconds (server-side).
    pub service_us: u64,
}

/// One authenticated connection to a [`crate::server::Server`].
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    codec: Codec,
}

impl Client {
    /// Connects and authenticates in one step; returns the client and
    /// the server-confirmed `(tenant, quota)` pair.
    pub fn connect(
        addr: impl ToSocketAddrs,
        token: &str,
    ) -> Result<(Client, String, u32), NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = Client {
            reader,
            writer,
            codec: Codec::default(),
        };
        let reply = client.call(&Frame::Hello {
            token: token.to_string(),
        })?;
        match reply {
            Frame::HelloOk { tenant, quota } => Ok((client, tenant, quota)),
            other => Err(Self::refusal_or(other, "non-HelloOk")),
        }
    }

    /// Applies a read timeout to the underlying socket (`None` blocks
    /// forever). Useful for adversarial tests; the load generator
    /// leaves it off and relies on server-side `max_wait`.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    fn call(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        self.codec.write_frame(&mut self.writer, frame)?;
        self.writer.flush().map_err(WireError::Io)?;
        Ok(self.codec.read_frame(&mut self.reader)?)
    }

    fn refusal_or(frame: Frame, expected: &'static str) -> NetError {
        match frame {
            Frame::Error {
                code,
                job_id,
                detail,
            } => NetError::Server {
                code,
                job_id,
                detail,
            },
            _ => NetError::Unexpected(expected),
        }
    }

    /// Submits `a * b mod (x^n + 1, q)` under a caller-chosen job id
    /// (unique per connection among outstanding jobs).
    pub fn submit(
        &mut self,
        job_id: u64,
        q: u64,
        a: Vec<u64>,
        b: Vec<u64>,
    ) -> Result<(), NetError> {
        match self.call(&Frame::Submit { job_id, q, a, b })? {
            Frame::Submitted { job_id: echoed } if echoed == job_id => Ok(()),
            other => Err(Self::refusal_or(other, "non-Submitted")),
        }
    }

    /// Blocks (server-side, up to `timeout_ms` capped by the server's
    /// `max_wait`) for the job's product. A [`ErrorCode::WaitTimeout`]
    /// refusal leaves the job claimable by a later `wait`.
    pub fn wait(&mut self, job_id: u64, timeout_ms: u32) -> Result<DoneJob, NetError> {
        match self.call(&Frame::Wait { job_id, timeout_ms })? {
            Frame::Done {
                job_id: echoed,
                q,
                product,
                queue_us,
                service_us,
                attempts,
            } if echoed == job_id => Ok(DoneJob {
                q,
                product,
                queue_us,
                service_us,
                attempts,
            }),
            other => Err(Self::refusal_or(other, "non-Done")),
        }
    }

    /// Submits a scripted protocol op `(kind, n, seed)` under a
    /// caller-chosen job id (same id space as [`Client::submit`]). The
    /// server materialises the deterministic scenario and serves it
    /// through the protocol graph; collect with
    /// [`Client::wait_protocol`].
    pub fn submit_protocol(
        &mut self,
        job_id: u64,
        kind: ProtocolKind,
        n: u64,
        seed: u64,
    ) -> Result<(), NetError> {
        match self.call(&Frame::SubmitProtocol {
            job_id,
            kind,
            n,
            seed,
        })? {
            Frame::Submitted { job_id: echoed } if echoed == job_id => Ok(()),
            other => Err(Self::refusal_or(other, "non-Submitted")),
        }
    }

    /// Blocks (server-side, capped by the server's `max_wait`) for a
    /// protocol op's digest and accounting. A
    /// [`ErrorCode::WaitTimeout`] refusal leaves the op claimable by a
    /// later `wait_protocol`.
    pub fn wait_protocol(
        &mut self,
        job_id: u64,
        timeout_ms: u32,
    ) -> Result<DoneProtocol, NetError> {
        match self.call(&Frame::Wait { job_id, timeout_ms })? {
            Frame::ProtocolDone {
                job_id: echoed,
                kind,
                digest,
                nodes,
                attempts,
                queue_us,
                service_us,
            } if echoed == job_id => Ok(DoneProtocol {
                kind,
                digest,
                nodes,
                attempts,
                queue_us,
                service_us,
            }),
            other => Err(Self::refusal_or(other, "non-ProtocolDone")),
        }
    }

    /// Non-blocking poll of a job's state.
    pub fn status(&mut self, job_id: u64) -> Result<JobState, NetError> {
        match self.call(&Frame::Status { job_id })? {
            Frame::StatusOk {
                job_id: echoed,
                state,
            } if echoed == job_id => Ok(state),
            other => Err(Self::refusal_or(other, "non-StatusOk")),
        }
    }

    /// Fetches the server's statistics document (JSON text; the
    /// embedded `"service"` object parses with
    /// [`service::ServiceStats::from_json`]).
    pub fn stats_json(&mut self) -> Result<String, NetError> {
        match self.call(&Frame::Stats)? {
            Frame::StatsJson { json } => Ok(json),
            other => Err(Self::refusal_or(other, "non-StatsJson")),
        }
    }

    /// Asks the server to drain and stop (requires the tenant's
    /// `may_shutdown` capability).
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.call(&Frame::Shutdown)? {
            Frame::ShutdownOk => Ok(()),
            other => Err(Self::refusal_or(other, "non-ShutdownOk")),
        }
    }
}
