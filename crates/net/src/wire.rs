//! The length-prefixed binary wire protocol (version 3).
//!
//! Every frame on the socket has the same envelope:
//!
//! ```text
//! offset  size  field
//! 0       4     magic        b"CPIM"
//! 4       1     version      3
//! 5       1     frame type   (one tag per Frame variant)
//! 6       4     payload len  u32 LE, capped at MAX_PAYLOAD
//! 10      len   payload      variant-specific, see below
//! 10+len  8     checksum     word-parallel FNV over (type byte ‖ payload), LE
//! ```
//!
//! Payload primitives are all little-endian: `u32`, `u64`, strings as
//! `u32` byte length + UTF-8 bytes, and `u64` vectors as `u32` element
//! count + the elements. Every count is validated against the bytes
//! actually present *before* any allocation, so a hostile length
//! prefix cannot make the decoder reserve gigabytes; a frame that
//! decodes with bytes left over is malformed (no smuggled trailers).
//!
//! Decoding never panics on adversarial input — every failure is a
//! typed [`WireError`], and the server answers one in-band
//! [`ErrorCode::Malformed`] frame before dropping the connection.
//! Versioning is strict: a peer speaking a different `version` byte is
//! rejected at the envelope, before any payload is interpreted. A
//! server recognising an *older* version byte ([`LEGACY_VERSIONS`])
//! answers one typed [`ErrorCode::UnsupportedVersion`] error in the
//! peer's own envelope and checksum ([`encode_version_refusal`]), so
//! the old client decodes why it was turned away; any other version
//! byte gets a plain close.
//!
//! Version 2 added the protocol verbs: `SubmitProtocol` (tag 14) names a
//! scripted RLWE protocol op by `(kind, n, seed)` — small enough for
//! the wire, deterministic enough that client and server agree on the
//! exact inputs — and `ProtocolDone` (tag 15) answers with a 64-bit
//! output digest plus the op's node/attempt/latency accounting, so a
//! remote client can bit-compare a served op against a local reference
//! without shipping megabytes of polynomials.
//!
//! Version 3 keeps every frame byte for byte and changes only the
//! checksum, from byte-serial FNV-1a to a word-parallel FNV (`checksum`),
//! so a 64 KiB operand frame costs memcpy speed instead of hash speed.
//! A connection reads and writes through one [`Codec`], whose buffers
//! are reused frame to frame: encoding sizes the frame exactly and
//! writes it in one pass, and decoding reads the payload into the
//! connection's buffer instead of a fresh allocation per frame.

use service::ProtocolKind;
use std::io::{self, Read, Write};

/// Frame envelope magic.
pub const MAGIC: [u8; 4] = *b"CPIM";

/// Wire-protocol version this build speaks. Strict equality is
/// required; there is no negotiation below it.
pub const VERSION: u8 = 3;

/// Version bytes of earlier protocol revisions: v1 (without the protocol
/// verbs) and v2, both checksummed with byte-serial FNV-1a. A peer
/// speaking one receives a typed
/// [`ErrorCode::UnsupportedVersion`] reply in its own envelope, not a
/// silent close; see [`encode_version_refusal`].
pub const LEGACY_VERSIONS: std::ops::RangeInclusive<u8> = 1..=2;

/// Hard cap on the payload length field. The largest legitimate frame
/// is a `Submit` of two degree-65536 operand vectors (1 MiB of
/// coefficients); 4 MiB leaves headroom without letting a hostile
/// length prefix reserve unbounded memory.
pub const MAX_PAYLOAD: u32 = 4 << 20;

/// Bytes before the payload: magic + version + type + length.
pub const HEADER_LEN: usize = 10;

/// In-band protocol/serving error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// A verb other than `Hello` arrived before authentication.
    AuthRequired = 0,
    /// The `Hello` token matched no configured tenant.
    BadToken = 1,
    /// The tenant's outstanding-job quota is exhausted; collect results
    /// (or wait) and resubmit. This is admission control, not failure.
    QuotaExceeded = 2,
    /// The service's bounded admission queue is full (fleet-wide
    /// backpressure) or the fleet is fully quarantined.
    Overloaded = 3,
    /// The job's `(n, q)` pair has no accelerator configuration, the
    /// operands are mutually inconsistent, or a protocol op's host step
    /// refused its scenario.
    Unsupported = 4,
    /// The job's product was detected corrupt on every execution
    /// attempt and discarded — never served wrong.
    FaultUnrecovered = 5,
    /// The `Wait` deadline expired; the job is still in flight and a
    /// later `Wait` can still collect it.
    WaitTimeout = 6,
    /// `Wait`/`Status` named a job id this connection never submitted
    /// (or already collected).
    UnknownJob = 7,
    /// The peer's bytes did not decode as a protocol frame; the server
    /// closes the connection after sending this.
    Malformed = 8,
    /// The authenticated tenant may not issue this verb (e.g.
    /// `Shutdown` without the shutdown capability).
    NotPermitted = 9,
    /// The server is draining and admits no new work.
    ShuttingDown = 10,
    /// An internal serving failure that is none of the above.
    Internal = 11,
    /// The bounded acceptor is at its connection limit; retry later.
    TooManyConnections = 12,
    /// `Submit` or `SubmitProtocol` reused a job id that is still
    /// outstanding on this connection, as either kind.
    DuplicateJob = 13,
    /// The peer's envelope carried a protocol version this build does
    /// not speak. Sent in the *peer's* envelope when that version is a
    /// known older one (see [`encode_version_refusal`]), so an old
    /// client decodes a typed refusal instead of seeing the connection
    /// vanish.
    UnsupportedVersion = 14,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            0 => AuthRequired,
            1 => BadToken,
            2 => QuotaExceeded,
            3 => Overloaded,
            4 => Unsupported,
            5 => FaultUnrecovered,
            6 => WaitTimeout,
            7 => UnknownJob,
            8 => Malformed,
            9 => NotPermitted,
            10 => ShuttingDown,
            11 => Internal,
            12 => TooManyConnections,
            13 => DuplicateJob,
            14 => UnsupportedVersion,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Where a job sits, as reported by the `Status` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum JobState {
    /// Submitted on this connection, result not yet available.
    Pending = 0,
    /// Result available; a `Wait` will return immediately.
    Done = 1,
    /// Not outstanding on this connection (never submitted, already
    /// collected, or released).
    Unknown = 2,
}

impl JobState {
    fn from_u8(v: u8) -> Option<JobState> {
        Some(match v {
            0 => JobState::Pending,
            1 => JobState::Done,
            2 => JobState::Unknown,
            _ => return None,
        })
    }
}

/// One protocol frame. Client→server verbs are `Hello`, `Submit`,
/// `Wait`, `Status`, `Stats`, `Shutdown`; everything else is a server
/// reply. Every request receives exactly one reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Authenticate the connection with a tenant token. Must be the
    /// first frame; everything else is refused with `AuthRequired`.
    Hello {
        /// The tenant's auth token.
        token: String,
    },
    /// Successful authentication.
    HelloOk {
        /// The tenant name the token resolved to.
        tenant: String,
        /// The tenant's outstanding-job quota.
        quota: u32,
    },
    /// Submit one multiplication job. `a`/`b` are canonical
    /// coefficients of equal length under modulus `q`; the reply is
    /// `Submitted` or a typed `Error`.
    Submit {
        /// Connection-scoped job id, chosen by the client.
        job_id: u64,
        /// Modulus both operands live under.
        q: u64,
        /// Left operand coefficients (length = degree).
        a: Vec<u64>,
        /// Right operand coefficients (same length as `a`).
        b: Vec<u64>,
    },
    /// The job was admitted; collect it with `Wait`.
    Submitted {
        /// Echo of the submitted job id.
        job_id: u64,
    },
    /// Collect a submitted job, blocking server-side up to
    /// `timeout_ms` (further capped by the server's own limit).
    Wait {
        /// Job to collect.
        job_id: u64,
        /// Client-requested maximum block, milliseconds.
        timeout_ms: u32,
    },
    /// A completed job's product and latency breakdown.
    Done {
        /// Echo of the job id.
        job_id: u64,
        /// Modulus of the product.
        q: u64,
        /// Product coefficients, canonical, bit-identical to a direct
        /// engine multiply of the submitted pair.
        product: Vec<u64>,
        /// The `Mul` op's submit → start (on its waiter or an
        /// executor), microseconds.
        queue_us: u64,
        /// The op's start → product ready, microseconds; `queue_us +
        /// service_us` is the server's submit → ready.
        service_us: u64,
        /// Execution attempts the job took (>1 = recovered fault).
        attempts: u32,
    },
    /// Ask where a job sits without blocking.
    Status {
        /// Job to probe.
        job_id: u64,
    },
    /// Non-blocking job state reply.
    StatusOk {
        /// Echo of the job id.
        job_id: u64,
        /// Where the job sits.
        state: JobState,
    },
    /// Request the server's statistics snapshot.
    Stats,
    /// Statistics reply: one JSON document with `"net"` counters and
    /// the scheduler's `"service"` object
    /// (parseable by `ServiceStats::from_json`).
    StatsJson {
        /// The JSON document.
        json: String,
    },
    /// Ask the server to stop accepting and drain (requires the
    /// tenant's shutdown capability).
    Shutdown,
    /// Shutdown acknowledged; the server is draining.
    ShutdownOk,
    /// Typed in-band failure. `job_id` is 0 for connection-scoped
    /// errors (auth, malformed bytes, shutdown refusals).
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Job the error is about, or 0 when connection-scoped.
        job_id: u64,
        /// Human-readable detail (bounded; informational only).
        detail: String,
    },
    /// Submit one scripted RLWE protocol op (v2). The op's inputs are
    /// derived deterministically from `(kind, n, seed)` on the server
    /// (see `service::ProtocolJob::scripted`), so the frame stays tiny
    /// while client and server agree bit-exactly on the scenario. The
    /// reply is `Submitted` or a typed `Error`; collect with `Wait`.
    SubmitProtocol {
        /// Connection-scoped job id, chosen by the client (shared id
        /// space with plain `Submit` jobs).
        job_id: u64,
        /// Which protocol op to run.
        kind: ProtocolKind,
        /// Ring degree of the scenario.
        n: u64,
        /// Scenario seed (keys, messages, randomness).
        seed: u64,
    },
    /// A completed protocol op (v2): the output digest and the graph's
    /// accounting, in place of the output itself.
    ProtocolDone {
        /// Echo of the job id.
        job_id: u64,
        /// Echo of the op kind.
        kind: ProtocolKind,
        /// FNV-1a 64 digest of the typed output
        /// (`service::ProtocolOutput::digest`); bit-compare against a
        /// local `run_direct` of the same `(kind, n, seed)`.
        digest: u64,
        /// NTT-multiply nodes the op compiled into.
        nodes: u32,
        /// Worst per-node execution attempts (>1 = recovered fault).
        attempts: u32,
        /// Submission → the op starting to run, microseconds.
        queue_us: u64,
        /// End-to-end op latency (submit → ready), microseconds.
        service_us: u64,
    },
}

impl Frame {
    fn type_tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloOk { .. } => 2,
            Frame::Submit { .. } => 3,
            Frame::Submitted { .. } => 4,
            Frame::Wait { .. } => 5,
            Frame::Done { .. } => 6,
            Frame::Status { .. } => 7,
            Frame::StatusOk { .. } => 8,
            Frame::Stats => 9,
            Frame::StatsJson { .. } => 10,
            Frame::Shutdown => 11,
            Frame::ShutdownOk => 12,
            Frame::Error { .. } => 13,
            Frame::SubmitProtocol { .. } => 14,
            Frame::ProtocolDone { .. } => 15,
        }
    }

    /// The variant's name, for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::HelloOk { .. } => "HelloOk",
            Frame::Submit { .. } => "Submit",
            Frame::Submitted { .. } => "Submitted",
            Frame::Wait { .. } => "Wait",
            Frame::Done { .. } => "Done",
            Frame::Status { .. } => "Status",
            Frame::StatusOk { .. } => "StatusOk",
            Frame::Stats => "Stats",
            Frame::StatsJson { .. } => "StatsJson",
            Frame::Shutdown => "Shutdown",
            Frame::ShutdownOk => "ShutdownOk",
            Frame::Error { .. } => "Error",
            Frame::SubmitProtocol { .. } => "SubmitProtocol",
            Frame::ProtocolDone { .. } => "ProtocolDone",
        }
    }
}

/// Typed decode/transport failures. `Io` covers transport-level
/// problems (including mid-frame disconnects); everything else is a
/// protocol violation by the peer.
#[derive(Debug)]
pub enum WireError {
    /// The underlying read/write failed (includes mid-frame EOF).
    Io(io::Error),
    /// The envelope did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// The checksum did not match the payload.
    BadChecksum,
    /// The type byte names no known frame.
    UnknownFrameType(u8),
    /// The payload did not decode as its frame type.
    Malformed(&'static str),
}

impl WireError {
    /// True for the clean end-of-stream cases a server treats as "the
    /// client hung up" rather than a protocol violation.
    pub fn is_disconnect(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
            )
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?} (want {MAGIC:02x?})"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v} (this build speaks {VERSION})")
            }
            WireError::Oversized { len } => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV step. For a fixed input `x` it is a bijection of `h` (xor is
/// invertible and `FNV_PRIME` is odd, so multiplication is invertible
/// mod 2^64), and for a fixed `h` it is injective in `x`.
#[inline(always)]
fn fnv_step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// The v3 frame checksum over the type byte followed by the payload:
/// integrity for a trusted transport (it guards against truncation and
/// stream desync, not adversaries).
///
/// The payload's 32-byte blocks feed four independent u64 lanes, one
/// aligned little-endian word each per block, with the FNV step
/// `h = (h ^ word)·P`. The four lanes have no data dependence on each
/// other, so the multiplies overlap and the hash runs at a few bytes
/// per cycle instead of byte-serial FNV-1a's one byte per multiply
/// latency. The type byte, the four lanes, the payload length and the
/// last `len mod 32` payload bytes are then folded, in that order, into
/// one FNV-1a accumulator.
///
/// Detection guarantee: change any one aligned 8-byte payload word, any
/// one tail byte, or the type byte, leaving everything else as it was.
/// The step that consumes the changed input is injective in it, so its
/// output changes; every later step of that lane and of the fold is a
/// bijection of the state for its (unchanged) input, so the difference
/// survives to the result. Every such change — in particular every
/// single-bit flip, which is what byte-serial FNV-1a guaranteed — is
/// therefore always detected. Changes spread over several words are
/// detected with high probability but not always: flipping bit 63 of two
/// words of the same lane cancels, because that flip commutes with the
/// multiply.
fn checksum(type_tag: u8, payload: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    let blocks = payload.chunks_exact(32);
    let tail = blocks.remainder();
    for block in blocks {
        let word = |i: usize| u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().unwrap());
        lanes[0] = fnv_step(lanes[0], word(0));
        lanes[1] = fnv_step(lanes[1], word(1));
        lanes[2] = fnv_step(lanes[2], word(2));
        lanes[3] = fnv_step(lanes[3], word(3));
    }
    let mut h = fnv_step(FNV_OFFSET, u64::from(type_tag));
    for lane in lanes {
        h = fnv_step(h, lane);
    }
    h = fnv_step(h, payload.len() as u64);
    for &b in tail {
        h = fnv_step(h, u64::from(b));
    }
    h
}

/// Byte-serial FNV-1a 64 over the type byte followed by the payload:
/// the checksum of the v1 and v2 envelopes. Only
/// [`encode_version_refusal`] computes it, so an old peer can verify the
/// frame that turns it away.
fn legacy_checksum(type_tag: u8, payload: &[u8]) -> u64 {
    let mut h = fnv_step(FNV_OFFSET, u64::from(type_tag));
    for &b in payload {
        h = fnv_step(h, u64::from(b));
    }
    h
}

/// Where an encoded payload goes. [`encode_payload`] runs once into a
/// byte count, to size the frame exactly, and once into the frame.
trait Sink {
    fn bytes(&mut self, b: &[u8]);
    fn words(&mut self, v: &[u64]);
}

impl Sink for usize {
    fn bytes(&mut self, b: &[u8]) {
        *self += b.len();
    }

    fn words(&mut self, v: &[u64]) {
        *self += 8 * v.len();
    }
}

impl Sink for Vec<u8> {
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }

    fn words(&mut self, v: &[u64]) {
        let start = self.len();
        self.resize(start + 8 * v.len(), 0);
        for (dst, x) in self[start..].chunks_exact_mut(8).zip(v) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }
}

fn put_u8<S: Sink>(out: &mut S, v: u8) {
    out.bytes(&[v]);
}

fn put_u32<S: Sink>(out: &mut S, v: u32) {
    out.bytes(&v.to_le_bytes());
}

fn put_u64<S: Sink>(out: &mut S, v: u64) {
    out.bytes(&v.to_le_bytes());
}

fn put_str<S: Sink>(out: &mut S, s: &str) {
    put_u32(out, s.len() as u32);
    out.bytes(s.as_bytes());
}

fn put_vec<S: Sink>(out: &mut S, v: &[u64]) {
    put_u32(out, v.len() as u32);
    out.words(v);
}

fn encode_payload<S: Sink>(frame: &Frame, p: &mut S) {
    match frame {
        Frame::Hello { token } => put_str(p, token),
        Frame::HelloOk { tenant, quota } => {
            put_str(p, tenant);
            put_u32(p, *quota);
        }
        Frame::Submit { job_id, q, a, b } => {
            put_u64(p, *job_id);
            put_u64(p, *q);
            put_vec(p, a);
            put_vec(p, b);
        }
        Frame::Submitted { job_id } => put_u64(p, *job_id),
        Frame::Wait { job_id, timeout_ms } => {
            put_u64(p, *job_id);
            put_u32(p, *timeout_ms);
        }
        Frame::Done {
            job_id,
            q,
            product,
            queue_us,
            service_us,
            attempts,
        } => {
            put_u64(p, *job_id);
            put_u64(p, *q);
            put_vec(p, product);
            put_u64(p, *queue_us);
            put_u64(p, *service_us);
            put_u32(p, *attempts);
        }
        Frame::Status { job_id } => put_u64(p, *job_id),
        Frame::StatusOk { job_id, state } => {
            put_u64(p, *job_id);
            put_u8(p, *state as u8);
        }
        Frame::Stats | Frame::Shutdown | Frame::ShutdownOk => {}
        Frame::StatsJson { json } => put_str(p, json),
        Frame::Error {
            code,
            job_id,
            detail,
        } => {
            put_u8(p, *code as u8);
            put_u64(p, *job_id);
            put_str(p, detail);
        }
        Frame::SubmitProtocol {
            job_id,
            kind,
            n,
            seed,
        } => {
            put_u64(p, *job_id);
            put_u8(p, *kind as u8);
            put_u64(p, *n);
            put_u64(p, *seed);
        }
        Frame::ProtocolDone {
            job_id,
            kind,
            digest,
            nodes,
            attempts,
            queue_us,
            service_us,
        } => {
            put_u64(p, *job_id);
            put_u8(p, *kind as u8);
            put_u64(p, *digest);
            put_u32(p, *nodes);
            put_u32(p, *attempts);
            put_u64(p, *queue_us);
            put_u64(p, *service_us);
        }
    }
}

/// The one encoder: header, payload and checksum written in one pass
/// into `out` (cleared first), reserved to the frame's exact size.
fn encode_into(frame: &Frame, version: u8, sum: fn(u8, &[u8]) -> u64, out: &mut Vec<u8>) {
    let mut len = 0usize;
    encode_payload(frame, &mut len);
    assert!(
        len as u64 <= u64::from(MAX_PAYLOAD),
        "frame exceeds MAX_PAYLOAD; reject oversized jobs before encoding"
    );
    let tag = frame.type_tag();
    out.clear();
    out.reserve_exact(HEADER_LEN + len + 8);
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(tag);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    encode_payload(frame, out);
    debug_assert_eq!(out.len(), HEADER_LEN + len);
    let sum = sum(tag, &out[HEADER_LEN..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Encodes one frame into its full wire envelope, in a fresh buffer of
/// exactly the frame's size. A connection encodes through
/// [`Codec::write_frame`] instead, which reuses its buffer.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(frame, VERSION, checksum, &mut out);
    out
}

/// The reply to a peer whose envelope carried `peer_version`: for a
/// [`LEGACY_VERSIONS`] peer, one [`ErrorCode::UnsupportedVersion`] error
/// encoded in the peer's own envelope version *and* checksum, or the old
/// client's strict envelope check would reject the very frame telling
/// it why it was refused. `None` for any other version byte (a future
/// revision, or one that never existed): there is no knowing how that
/// peer frames a reply, so it gets a plain close.
pub fn encode_version_refusal(peer_version: u8) -> Option<Vec<u8>> {
    if !LEGACY_VERSIONS.contains(&peer_version) {
        return None;
    }
    let reply = Frame::Error {
        code: ErrorCode::UnsupportedVersion,
        job_id: 0,
        detail: format!(
            "peer speaks protocol version {peer_version}; this server speaks {VERSION}"
        ),
    };
    let mut out = Vec::new();
    encode_into(&reply, peer_version, legacy_checksum, &mut out);
    Some(out)
}

/// Writes one frame (single `write_all`; callers flush their writer).
/// Allocates the frame per call; a connection writes through
/// [`Codec::write_frame`].
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    Codec::default().write_frame(w, frame)
}

/// Reads and validates one frame into a fresh buffer; see
/// [`Codec::read_frame`] for the checks. A connection reads through its
/// own [`Codec`] instead, which reuses the payload buffer.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    Codec::default().read_frame(r)
}

/// A codec buffer past this size is released once its frame is written
/// or decoded, so an idle connection never pins more than 1 MiB per
/// direction (an n=4096 `Submit` is 64 KiB).
const RETAINED_BYTES: usize = 1 << 20;

fn release_if_large(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAINED_BYTES {
        *buf = Vec::new();
    }
}

/// One connection's frame codec: a receive buffer the payload of every
/// frame is read into, and a transmit buffer every frame is encoded
/// into. Both are reused frame to frame, so once a connection has seen
/// its largest frames the codec itself stops allocating; a buffer past
/// 1 MiB is released after its frame instead of kept. A decoded
/// [`Frame`] owns its fields, so the buffers are free again as soon as
/// `read_frame` returns.
#[derive(Debug, Default)]
pub struct Codec {
    rx: Vec<u8>,
    tx: Vec<u8>,
}

impl Codec {
    /// Encodes `frame` into the transmit buffer and writes it with one
    /// `write_all` (callers flush their writer).
    pub fn write_frame<W: Write>(&mut self, w: &mut W, frame: &Frame) -> io::Result<()> {
        encode_into(frame, VERSION, checksum, &mut self.tx);
        let written = w.write_all(&self.tx);
        release_if_large(&mut self.tx);
        written
    }

    /// Reads and validates one frame. Envelope checks run in order —
    /// magic, version, length cap — *before* the payload is read or the
    /// buffer is sized from peer input; the checksum is verified before
    /// the payload is interpreted.
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> Result<Frame, WireError> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        if header[..4] != MAGIC {
            return Err(WireError::BadMagic(header[..4].try_into().unwrap()));
        }
        if header[4] != VERSION {
            return Err(WireError::BadVersion(header[4]));
        }
        let tag = header[5];
        let len = u32::from_le_bytes(header[6..10].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized { len });
        }
        let len = len as usize;
        // Grown, never shrunk (short of the release below): bytes past
        // `len` are stale from an earlier, larger frame and are never
        // looked at.
        if self.rx.len() < len {
            self.rx.resize(len, 0);
        }
        let payload = &mut self.rx[..len];
        r.read_exact(payload)?;
        let mut sum = [0u8; 8];
        r.read_exact(&mut sum)?;
        let frame = if u64::from_le_bytes(sum) == checksum(tag, payload) {
            decode_payload(tag, payload)
        } else {
            Err(WireError::BadChecksum)
        };
        release_if_large(&mut self.rx);
        frame
    }
}

/// Bounds-checked payload cursor: every read validates the remaining
/// byte budget before touching (or allocating for) the data.
struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(WireError::Malformed("truncated payload"))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    fn vec_u64(&mut self) -> Result<Vec<u64>, WireError> {
        let count = self.u32()? as usize;
        // The 8·count byte check happens before the allocation: a
        // hostile count can at most claim what the (already capped)
        // payload physically contains.
        let bytes = self.take(
            count
                .checked_mul(8)
                .ok_or(WireError::Malformed("vector count overflow"))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.off == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor {
        bytes: payload,
        off: 0,
    };
    let frame = match tag {
        1 => Frame::Hello { token: c.string()? },
        2 => Frame::HelloOk {
            tenant: c.string()?,
            quota: c.u32()?,
        },
        3 => Frame::Submit {
            job_id: c.u64()?,
            q: c.u64()?,
            a: c.vec_u64()?,
            b: c.vec_u64()?,
        },
        4 => Frame::Submitted { job_id: c.u64()? },
        5 => Frame::Wait {
            job_id: c.u64()?,
            timeout_ms: c.u32()?,
        },
        6 => Frame::Done {
            job_id: c.u64()?,
            q: c.u64()?,
            product: c.vec_u64()?,
            queue_us: c.u64()?,
            service_us: c.u64()?,
            attempts: c.u32()?,
        },
        7 => Frame::Status { job_id: c.u64()? },
        8 => Frame::StatusOk {
            job_id: c.u64()?,
            state: JobState::from_u8(c.u8()?).ok_or(WireError::Malformed("unknown job state"))?,
        },
        9 => Frame::Stats,
        10 => Frame::StatsJson { json: c.string()? },
        11 => Frame::Shutdown,
        12 => Frame::ShutdownOk,
        13 => Frame::Error {
            code: ErrorCode::from_u8(c.u8()?).ok_or(WireError::Malformed("unknown error code"))?,
            job_id: c.u64()?,
            detail: c.string()?,
        },
        14 => Frame::SubmitProtocol {
            job_id: c.u64()?,
            kind: ProtocolKind::from_u8(c.u8()?)
                .ok_or(WireError::Malformed("unknown protocol kind"))?,
            n: c.u64()?,
            seed: c.u64()?,
        },
        15 => Frame::ProtocolDone {
            job_id: c.u64()?,
            kind: ProtocolKind::from_u8(c.u8()?)
                .ok_or(WireError::Malformed("unknown protocol kind"))?,
            digest: c.u64()?,
            nodes: c.u32()?,
            attempts: c.u32()?,
            queue_us: c.u64()?,
            service_us: c.u64()?,
        },
        other => return Err(WireError::UnknownFrameType(other)),
    };
    c.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let back = read_frame(&mut bytes.as_slice()).expect("own encoding decodes");
        assert_eq!(back, frame);
    }

    #[test]
    fn every_frame_type_round_trips() {
        round_trip(Frame::Hello {
            token: "tenant-token".into(),
        });
        round_trip(Frame::HelloOk {
            tenant: "alice".into(),
            quota: 64,
        });
        round_trip(Frame::Submit {
            job_id: 42,
            q: 12289,
            a: vec![1, 2, 3, 4],
            b: vec![5, 6, 7, 8],
        });
        round_trip(Frame::Submitted { job_id: 42 });
        round_trip(Frame::Wait {
            job_id: 42,
            timeout_ms: 1000,
        });
        round_trip(Frame::Done {
            job_id: 42,
            q: 12289,
            product: vec![9, 8, 7],
            queue_us: 120,
            service_us: 340,
            attempts: 2,
        });
        round_trip(Frame::Status { job_id: 7 });
        round_trip(Frame::StatusOk {
            job_id: 7,
            state: JobState::Pending,
        });
        round_trip(Frame::Stats);
        round_trip(Frame::StatsJson {
            json: "{\"queue_depth\": 0}".into(),
        });
        round_trip(Frame::Shutdown);
        round_trip(Frame::ShutdownOk);
        round_trip(Frame::Error {
            code: ErrorCode::QuotaExceeded,
            job_id: 42,
            detail: "outstanding quota exhausted".into(),
        });
        round_trip(Frame::SubmitProtocol {
            job_id: 42,
            kind: ProtocolKind::Decaps,
            n: 256,
            seed: 7,
        });
        round_trip(Frame::ProtocolDone {
            job_id: 42,
            kind: ProtocolKind::Decaps,
            digest: 0xDEAD_BEEF_CAFE_F00D,
            nodes: 3,
            attempts: 2,
            queue_us: 12,
            service_us: 480,
        });
    }

    // One proptest per frame family: randomized fields must survive
    // encode → decode bit-exactly. (The shim draws each argument from
    // its range strategy; vectors come from `collection::vec`.)
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_hello_round_trips(len in 0usize..64, seed in any::<u64>()) {
            let token: String = (0..len)
                .map(|i| char::from(b'a' + ((seed >> (i % 8)) % 26) as u8))
                .collect();
            round_trip(Frame::Hello { token: token.clone() });
            round_trip(Frame::HelloOk { tenant: token, quota: (seed >> 32) as u32 });
        }

        #[test]
        fn prop_submit_round_trips(
            job_id in any::<u64>(),
            q in 1u64..u64::MAX,
            a in collection::vec(any::<u64>(), 0..64),
            b in collection::vec(any::<u64>(), 0..64),
        ) {
            round_trip(Frame::Submit { job_id, q, a, b });
            round_trip(Frame::Submitted { job_id });
        }

        #[test]
        fn prop_wait_done_round_trips(
            job_id in any::<u64>(),
            timeout_ms in any::<u32>(),
            q in 1u64..u64::MAX,
            product in collection::vec(any::<u64>(), 0..64),
            queue_us in any::<u64>(),
            service_us in any::<u64>(),
            attempts in any::<u32>(),
        ) {
            round_trip(Frame::Wait { job_id, timeout_ms });
            round_trip(Frame::Done { job_id, q, product, queue_us, service_us, attempts });
        }

        #[test]
        fn prop_status_stats_round_trips(job_id in any::<u64>(), state in 0u8..3) {
            round_trip(Frame::Status { job_id });
            round_trip(Frame::StatusOk {
                job_id,
                state: JobState::from_u8(state).unwrap(),
            });
            round_trip(Frame::Stats);
            round_trip(Frame::Shutdown);
            round_trip(Frame::ShutdownOk);
        }

        #[test]
        fn prop_error_round_trips(code in 0u8..15, job_id in any::<u64>(), len in 0usize..128) {
            round_trip(Frame::Error {
                code: ErrorCode::from_u8(code).unwrap(),
                job_id,
                detail: "x".repeat(len),
            });
        }

        #[test]
        fn prop_protocol_frames_round_trip(
            job_id in any::<u64>(),
            kind in 0u8..10,
            n in any::<u64>(),
            seed in any::<u64>(),
            digest in any::<u64>(),
            nodes in any::<u32>(),
            attempts in any::<u32>(),
        ) {
            let kind = ProtocolKind::from_u8(kind).unwrap();
            round_trip(Frame::SubmitProtocol { job_id, kind, n, seed });
            round_trip(Frame::ProtocolDone {
                job_id,
                kind,
                digest,
                nodes,
                attempts,
                queue_us: seed,
                service_us: n,
            });
        }

        #[test]
        fn prop_stats_json_round_trips(len in 0usize..512) {
            round_trip(Frame::StatsJson { json: "{\"k\": 1}".repeat(len / 8) });
        }

        /// Decoding arbitrary bytes never panics: it returns a typed
        /// error or (rarely) a valid frame.
        #[test]
        fn prop_decode_never_panics(bytes in collection::vec(any::<u8>(), 0..256)) {
            let _ = read_frame(&mut bytes.as_slice());
        }

        /// Any single corrupted byte in a valid frame yields a typed
        /// error, never a panic (and never a silently different frame
        /// unless the flip hits a same-length re-encoding, which the
        /// checksum makes effectively impossible).
        #[test]
        fn prop_bit_flips_are_detected(pos_seed in any::<u64>(), bit in 0u8..8) {
            let frame = Frame::Submit {
                job_id: 7,
                q: 12289,
                a: vec![1, 2, 3],
                b: vec![4, 5, 6],
            };
            let mut bytes = encode_frame(&frame);
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << bit;
            // A typed rejection is the expected outcome; decoding may
            // only succeed if the bytes still mean the same frame.
            if let Ok(decoded) = read_frame(&mut bytes.as_slice()) {
                prop_assert_eq!(decoded, frame, "undetected corruption");
            }
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_frame(&Frame::Stats);
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_is_typed() {
        let mut bytes = encode_frame(&Frame::Stats);
        bytes[4] = VERSION + 1;
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::BadVersion(v)) if v == VERSION + 1
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // Claim a u32::MAX payload: the decoder must refuse from the
        // header alone instead of trying to allocate 4 GiB.
        let mut bytes = encode_frame(&Frame::Stats);
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::Oversized { len: u32::MAX })
        ));
    }

    #[test]
    fn hostile_vector_count_is_rejected_before_allocation() {
        // A Submit whose vector count claims 500M elements inside a
        // 30-byte payload: the cursor's budget check fires before any
        // allocation is sized from the count.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // job_id
        put_u64(&mut payload, 12289); // q
        put_u32(&mut payload, 500_000_000); // hostile element count
        let tag = 3u8;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(tag);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let sum = checksum(tag, &payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::Malformed("truncated payload"))
        ));
    }

    #[test]
    fn corrupt_checksum_is_typed() {
        let mut bytes = encode_frame(&Frame::Submitted { job_id: 3 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::BadChecksum)
        ));
    }

    #[test]
    fn unknown_frame_type_is_typed() {
        let tag = 200u8;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(tag);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&checksum(tag, &[]).to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::UnknownFrameType(200))
        ));
    }

    #[test]
    fn truncated_header_and_mid_frame_disconnect_are_io() {
        // Cut the stream inside the header, then inside the payload:
        // both surface as Io(UnexpectedEof) — a disconnect, not a
        // protocol violation (is_disconnect distinguishes them).
        let bytes = encode_frame(&Frame::Hello {
            token: "abcdef".into(),
        });
        for cut in [3, HEADER_LEN + 2] {
            let err = read_frame(&mut &bytes[..cut]).expect_err("truncated");
            assert!(matches!(&err, WireError::Io(_)), "{err:?}");
            assert!(err.is_disconnect());
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        // A Submitted payload with 4 smuggled extra bytes, checksummed
        // correctly: still refused.
        let mut payload = Vec::new();
        put_u64(&mut payload, 9);
        payload.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let tag = 4u8;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(tag);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let sum = checksum(tag, &payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::Malformed("trailing bytes after payload"))
        ));
    }

    #[test]
    fn error_code_and_job_state_cover_their_tags() {
        for v in 0..15 {
            assert!(ErrorCode::from_u8(v).is_some(), "code {v}");
        }
        assert!(ErrorCode::from_u8(15).is_none());
        for v in 0..3 {
            assert!(JobState::from_u8(v).is_some(), "state {v}");
        }
        assert!(JobState::from_u8(3).is_none());
    }

    /// Hand-assemble a correctly checksummed frame from raw parts —
    /// the hostile-bytes fixture for payload-level attacks.
    fn raw_frame(version: u8, tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(version);
        bytes.push(tag);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&checksum(tag, payload).to_le_bytes());
        bytes
    }

    #[test]
    fn hostile_protocol_kind_byte_is_malformed() {
        // A SubmitProtocol whose kind byte names no protocol: typed
        // rejection, not a panic or a mis-decoded op.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // job_id
        payload.push(200); // hostile kind byte
        put_u64(&mut payload, 256); // n
        put_u64(&mut payload, 7); // seed
        let bytes = raw_frame(VERSION, 14, &payload);
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::Malformed("unknown protocol kind"))
        ));
    }

    #[test]
    fn truncated_submit_protocol_payload_is_malformed() {
        // Cut the seed field off a SubmitProtocol payload (checksum
        // recomputed over the truncation, so only the cursor catches it).
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        payload.push(ProtocolKind::Encaps as u8);
        put_u64(&mut payload, 256);
        let bytes = raw_frame(VERSION, 14, &payload);
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::Malformed("truncated payload"))
        ));
    }

    #[test]
    fn trailing_bytes_after_protocol_done_are_malformed() {
        let frame = Frame::ProtocolDone {
            job_id: 9,
            kind: ProtocolKind::Sign,
            digest: 1,
            nodes: 3,
            attempts: 1,
            queue_us: 0,
            service_us: 10,
        };
        let mut payload = Vec::new();
        put_u64(&mut payload, 9);
        payload.push(ProtocolKind::Sign as u8);
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 3);
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 10);
        // Sanity: the clean payload decodes to the frame above...
        let clean = raw_frame(VERSION, 15, &payload);
        assert_eq!(read_frame(&mut clean.as_slice()).unwrap(), frame);
        // ...and one smuggled byte breaks it.
        payload.push(0xFF);
        let bytes = raw_frame(VERSION, 15, &payload);
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::Malformed("trailing bytes after payload"))
        ));
    }

    #[test]
    fn legacy_version_envelope_is_typed_bad_version() {
        // A v1 or v2 peer's frame is refused at the envelope with the
        // version it spoke, before any payload interpretation...
        for v in LEGACY_VERSIONS {
            let mut bytes = encode_frame(&Frame::Stats);
            bytes[4] = v;
            assert!(matches!(
                read_frame(&mut bytes.as_slice()),
                Err(WireError::BadVersion(got)) if got == v
            ));
            // ...and its refusal carries the peer's version byte and the
            // FNV-1a checksum that peer verifies; the payload bytes are
            // version-independent.
            let refusal = encode_version_refusal(v).expect("legacy peers get a reply");
            assert_eq!(refusal[4], v);
            let len = refusal.len();
            let payload = &refusal[HEADER_LEN..len - 8];
            let sum = u64::from_le_bytes(refusal[len - 8..].try_into().unwrap());
            assert_eq!(sum, legacy_checksum(refusal[5], payload));
            assert_ne!(sum, checksum(refusal[5], payload));
            match decode_payload(refusal[5], payload).unwrap() {
                Frame::Error { code, job_id, .. } => {
                    assert_eq!((code, job_id), (ErrorCode::UnsupportedVersion, 0));
                }
                other => panic!("expected Error frame, got {}", other.name()),
            }
        }
        // Version 0 never existed and v4+ is unknown: no reply to frame.
        for v in [0, VERSION + 1, u8::MAX] {
            assert!(encode_version_refusal(v).is_none(), "version {v}");
        }
    }

    #[test]
    fn legacy_checksum_is_fnv1a_64() {
        // Published FNV-1a 64 vectors for "a" and "foobar" (the type
        // byte is the first hashed byte).
        assert_eq!(legacy_checksum(b'a', &[]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(legacy_checksum(b'f', b"oobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn checksum_is_pinned() {
        // The v3 checksum is part of the wire format: a change here
        // breaks every deployed peer, so its values are pinned. The
        // payload lengths cover no block, whole blocks, and a tail.
        let payload: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        let got: Vec<u64> = [0, 31, 32, 64, 100]
            .iter()
            .map(|&len| checksum(3, &payload[..len]))
            .collect();
        assert_eq!(got, PINNED_CHECKSUMS);
    }

    const PINNED_CHECKSUMS: [u64; 5] = [
        0x9276_25e6_20c4_777a,
        0x6372_798f_58e1_e667,
        0xed4e_c901_212d_5fa6,
        0xbe5f_9813_3a95_21ce,
        0x33df_8496_fd38_7616,
    ];

    /// The checksum as its doc comment defines it, word by word: word
    /// `i` of the block region feeds lane `i mod 4`.
    fn spec_checksum(type_tag: u8, payload: &[u8]) -> u64 {
        let blocks_end = payload.len() / 32 * 32;
        let mut lanes = [0u64; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = FNV_OFFSET ^ i as u64;
        }
        for (i, w) in payload[..blocks_end].chunks(8).enumerate() {
            let word = u64::from_le_bytes(w.try_into().unwrap());
            lanes[i % 4] = (lanes[i % 4] ^ word).wrapping_mul(FNV_PRIME);
        }
        let mut fold = vec![u64::from(type_tag)];
        fold.extend(lanes);
        fold.push(payload.len() as u64);
        fold.extend(payload[blocks_end..].iter().map(|&b| u64::from(b)));
        fold.iter()
            .fold(FNV_OFFSET, |h, &x| (h ^ x).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn checksum_matches_its_definition() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..payload.len() {
            for tag in [0, 3, 255] {
                assert_eq!(
                    checksum(tag, &payload[..len]),
                    spec_checksum(tag, &payload[..len]),
                    "len {len}, tag {tag}"
                );
            }
        }
    }

    #[test]
    fn every_single_word_and_tail_byte_change_is_detected() {
        // The doc comment's guarantee, checked exhaustively on a payload
        // with whole blocks and a tail: every aligned word rewritten to
        // several other values, every tail byte to every other value,
        // and every other type byte.
        let payload: Vec<u8> = (0..(3 * 32 + 13) as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        let base = checksum(3, &payload);
        let blocks_end = payload.len() / 32 * 32;
        for w in (0..blocks_end).step_by(8) {
            let orig = u64::from_le_bytes(payload[w..w + 8].try_into().unwrap());
            for delta in [1u64, 1 << 63, u64::MAX, 0x0123_4567_89ab_cdef, orig] {
                let mut p = payload.clone();
                p[w..w + 8].copy_from_slice(&(orig ^ delta).to_le_bytes());
                assert_ne!(checksum(3, &p), base, "word at {w}, delta {delta:#x}");
            }
        }
        for t in blocks_end..payload.len() {
            for v in 0..=255u8 {
                if v == payload[t] {
                    continue;
                }
                let mut p = payload.clone();
                p[t] = v;
                assert_ne!(checksum(3, &p), base, "tail byte {t} = {v}");
            }
        }
        for tag in (0..=255u8).filter(|&t| t != 3) {
            assert_ne!(checksum(tag, &payload), base, "type byte {tag}");
        }
    }

    /// An n=4096 `Submit` frame (64 KiB of operands) and its bytes.
    fn big_submit() -> (Frame, Vec<u8>) {
        let coeffs = |seed: u64| -> Vec<u64> {
            (0..4096u64)
                .map(|i| (i.wrapping_mul(seed) ^ (i >> 3)) % 786_433)
                .collect()
        };
        let frame = Frame::Submit {
            job_id: 99,
            q: 786_433,
            a: coeffs(0x9E37_79B9),
            b: coeffs(0x85EB_CA6B),
        };
        let bytes = encode_frame(&frame);
        (frame, bytes)
    }

    #[test]
    fn large_frame_bit_flips_and_word_rewrites_are_typed_errors() {
        let (frame, clean) = big_submit();
        assert_eq!(read_frame(&mut clean.as_slice()).unwrap(), frame);
        let mut codec = Codec::default();
        let mut check = |bytes: &[u8], what: &str| {
            if let Ok(decoded) = codec.read_frame(&mut &bytes[..]) {
                panic!("{what}: undetected, decoded {}", decoded.name());
            }
        };
        // Every bit of the header and the checksum, the payload's first
        // and last 64 bytes, and a strided sample of the rest (every
        // 61st byte, so every byte offset within a word and a block is
        // hit): each flip is a typed error.
        let len = clean.len();
        let positions = (0..HEADER_LEN + 64)
            .chain((HEADER_LEN + 64..len - 72).step_by(61))
            .chain(len - 72..len);
        for pos in positions {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[pos] ^= 1 << bit;
                check(&bytes, &format!("bit {bit} of byte {pos}"));
            }
        }
        // Single aligned-word rewrites of the payload (the checksum's
        // word grid starts at the payload): every 37th word, to a value
        // that differs in every byte.
        for w in (HEADER_LEN..len - 8 - 7).step_by(8 * 37) {
            let mut bytes = clean.clone();
            let orig = u64::from_le_bytes(bytes[w..w + 8].try_into().unwrap());
            bytes[w..w + 8].copy_from_slice(&(!orig).to_le_bytes());
            check(&bytes, &format!("word at {w}"));
        }
    }

    #[test]
    fn codec_releases_buffers_past_the_retention_cap() {
        // A 2 MiB frame in each direction: decoded and written intact,
        // then neither buffer stays pinned; an n=4096 frame stays.
        let huge = Frame::StatsJson {
            json: "x".repeat(2 << 20),
        };
        let bytes = encode_frame(&huge);
        let mut codec = Codec::default();
        assert_eq!(codec.read_frame(&mut bytes.as_slice()).unwrap(), huge);
        let mut out = Vec::new();
        codec.write_frame(&mut out, &huge).unwrap();
        assert_eq!(out, bytes);
        assert_eq!((codec.rx.capacity(), codec.tx.capacity()), (0, 0));
        let (big, big_bytes) = big_submit();
        assert_eq!(codec.read_frame(&mut big_bytes.as_slice()).unwrap(), big);
        codec.write_frame(&mut std::io::sink(), &big).unwrap();
        assert!(codec.rx.capacity() >= big_bytes.len() - HEADER_LEN - 8);
        assert!(codec.tx.capacity() >= big_bytes.len());
    }

    #[test]
    fn reused_codec_decodes_big_then_small_frames_exactly() {
        let (big, big_bytes) = big_submit();
        let small = Frame::Submit {
            job_id: 1,
            q: 12289,
            a: vec![1, 2, 3, 4],
            b: vec![5, 6, 7, 8],
        };
        let mut stream = big_bytes.clone();
        stream.extend_from_slice(&encode_frame(&small));
        stream.extend_from_slice(&encode_frame(&Frame::Stats));
        stream.extend_from_slice(&big_bytes);
        let mut codec = Codec::default();
        let mut r = stream.as_slice();
        assert_eq!(codec.read_frame(&mut r).unwrap(), big);
        // The small frame reuses the big buffer: its stale tail must not
        // leak into the decode.
        assert_eq!(codec.read_frame(&mut r).unwrap(), small);
        assert_eq!(codec.read_frame(&mut r).unwrap(), Frame::Stats);
        assert_eq!(codec.read_frame(&mut r).unwrap(), big);
        assert!(r.is_empty());
        // The codec's writer emits the same bytes as the allocating
        // encoder, also after a larger frame went through its buffer.
        let mut out = Vec::new();
        codec.write_frame(&mut out, &big).unwrap();
        codec.write_frame(&mut out, &small).unwrap();
        assert_eq!(out[..big_bytes.len()], big_bytes[..]);
        assert_eq!(out[big_bytes.len()..], encode_frame(&small)[..]);
    }
}
