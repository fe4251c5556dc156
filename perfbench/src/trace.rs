//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions, written out as JSON lines when a traced
//! run ends. Nothing here reaches inside the program.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed call: `op` groups the spans of one served op (replayed
/// calls use op 0); `parent` names the enclosing span of the same op.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Op identifier shared by the op's spans.
    pub op: u64,
    /// Span name, `layer.call`.
    pub name: &'static str,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// A span from two instants measured against `epoch`.
    pub fn new(
        op: u64,
        name: &'static str,
        parent: Option<&'static str>,
        epoch: Instant,
        start: Instant,
        end: Instant,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        Span {
            op,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        }
    }

    /// A run-unique op id from a client index and its op counter.
    pub fn op_id(client: usize, step: usize) -> u64 {
        ((client as u64 + 1) << 48) | step as u64
    }
}

/// A span buffer.
pub type Spans = Vec<Span>;

/// Where a traced run writes its spans: under the build directory the
/// benchmark already owns, so runs leave nothing else behind.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .filter(|p| p.is_relative())
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    root.join("perfbench")
        .join(format!("trace-{workload}-{seed}.jsonl"))
}

/// Writes the spans as JSON lines.
///
/// # Errors
///
/// Any I/O error creating the directory or writing the file.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            text,
            "{{\"op\": {}, \"span\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    std::fs::write(path, text)
}
