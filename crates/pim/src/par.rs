//! Deterministic job fan-out across a persistent worker pool.
//!
//! A CryptoPIM superbank packs many independent multiplications side
//! by side. The *simulator* exploits exactly that independence: each
//! batched job (or chunk of jobs) is a pure function of its inputs, so
//! whole jobs fan out across host threads while every job's cycle and
//! energy accounting is replayed from its own plan. The result is a
//! wall-clock speedup with **bit-identical** products and traces. A
//! single job never fans out: its merged-kernel datapath is faster on
//! one thread than split across several.
//!
//! Execution runs on the lazily-initialized persistent pool in
//! [`crate::pool`]: the first parallel region spawns its workers, every
//! later region reuses them, so `Threads::Fixed(k)` pays no OS thread
//! spawn per region (the pre-pool [`std::thread::scope`] design did,
//! tens of µs per scope). Still `std`-only — no external
//! thread-pool dependency — and a panicking worker propagates to the
//! caller instead of deadlocking. Worker counts come from [`Threads`],
//! which reads `CRYPTOPIM_THREADS` (or the machine's available
//! parallelism) unless a caller pins an explicit count.

use std::thread;

pub use crate::pool::pool_threads;

/// Environment variable overriding the auto-detected worker count.
pub const THREADS_ENV: &str = "CRYPTOPIM_THREADS";

/// Worker-count policy for parallel job execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// `CRYPTOPIM_THREADS` if set (and ≥ 1), else the machine's
    /// available parallelism.
    #[default]
    Auto,
    /// Exactly this many workers (clamped to ≥ 1). Used by the
    /// determinism tests and `--threads N`.
    Fixed(usize),
}

impl Threads {
    /// The worker count this policy asks for.
    pub fn resolve(self) -> usize {
        match self {
            Threads::Fixed(k) => k.max(1),
            Threads::Auto => std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&k| k >= 1)
                .unwrap_or_else(|| thread::available_parallelism().map_or(1, |p| p.get())),
        }
    }
}

/// Raw-pointer wrapper that lets disjoint chunk writers share one output
/// buffer across pool threads.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Computes `(0..len).map(f)` with `workers` pool threads, returning
/// results in index order.
///
/// The index range is split into `workers` contiguous chunks; chunk 0
/// runs on the calling thread while chunks 1.. run on pool workers, and
/// every chunk writes directly into its disjoint span of the output — so
/// the result is identical to the sequential map for any worker count.
/// `workers <= 1` short-circuits to a plain loop with zero dispatch.
///
/// # Panics
///
/// Propagates a panic from any worker (produced elements are leaked,
/// never double-dropped).
pub fn map_indexed<T, F>(len: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let workers = workers.min(len);
    let chunk = len.div_ceil(workers);
    let mut out: Vec<T> = Vec::with_capacity(len);
    let base = SendPtr(out.as_mut_ptr());
    let base = &base;
    crate::pool::scope_run(workers, &move |w| {
        let start = w * chunk;
        let end = ((w + 1) * chunk).min(len);
        for i in start..end {
            // SAFETY: the buffer has capacity for `len` writes and the
            // chunks are disjoint, so every slot is written once.
            unsafe { base.0.add(i).write(f(i)) };
        }
    });
    // SAFETY: on success every slot is initialized; on panic
    // `scope_run` propagates before this runs.
    unsafe { out.set_len(len) };
    out
}

/// Maps `f` over a slice of independent jobs with `workers` pool
/// threads, returning results in input order.
///
/// The batched-multiplication analogue of [`map_indexed`]: each job is
/// a packed superbank slot, fanned out across host threads.
pub fn map_jobs<T, R, F>(jobs: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(jobs.len(), workers, |i| f(&jobs[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_matches_sequential_for_any_worker_count() {
        let reference: Vec<u64> = (0..1000).map(|i| (i as u64) * 17 + 3).collect();
        for workers in [1usize, 2, 3, 4, 7, 8, 16, 1000, 2000] {
            let got = map_indexed(1000, workers, |i| (i as u64) * 17 + 3);
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn map_indexed_handles_tiny_and_empty_inputs() {
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 4, |i| i + 10), vec![10]);
        assert_eq!(map_indexed(3, 8, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_jobs_preserves_input_order() {
        let jobs: Vec<String> = (0..57).map(|i| format!("job{i}")).collect();
        let out = map_jobs(&jobs, 4, |j| format!("{j}!"));
        let expect: Vec<String> = (0..57).map(|i| format!("job{i}!")).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn fixed_threads_resolve_clamped() {
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert_eq!(Threads::Fixed(6).resolve(), 6);
        assert!(Threads::Auto.resolve() >= 1);
    }

    #[test]
    fn workers_beyond_len_are_harmless() {
        let got = map_indexed(5, 64, |i| i * i);
        assert_eq!(got, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map_indexed(100, 4, |i| {
                assert!(i != 77, "deliberate worker panic");
                i
            })
        });
        assert!(result.is_err());
    }
}
