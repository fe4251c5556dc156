//! Reusable scratch arenas for the engine hot path.
//!
//! The engine's merged-kernel datapath and `batch::run_jobs` work in
//! [`BatchScratch`] slabs sized per batch; a lane on an armed write
//! path runs the row datapath, which carves four working vectors (two
//! double-buffered transforms) out of a `4n`-word one. Each checkout
//! takes its slab from a thread-local pool and returns it on drop. In
//! the steady state (same shape, same thread) the checkout is a `Vec`
//! pop and the whole multiply performs **zero** heap allocations —
//! asserted by the counting-allocator test in
//! `tests/alloc_steady_state.rs`.
//!
//! Lifetime rules (also documented in DESIGN.md §10):
//!
//! * A slab is checked out per multiply and must not outlive the call
//!   that checked it out — the engine keeps it on the stack.
//! * The pool is thread-local, so pool workers executing batched jobs
//!   each warm their own slabs; there is no cross-thread hand-off and
//!   therefore no locking on the hot path.
//! * Returning to the pool is best-effort: if the thread-local is gone
//!   (thread teardown) the slab is simply freed, never leaked.

use std::cell::RefCell;

/// Slabs retained per thread. Two cover a chunk (its staged operands
/// plus the engine's slab); beyond the bound, extra slabs are freed
/// rather than hoarded.
const MAX_POOLED: usize = 4;

/// Returns a slab to a full-or-not pool, preferring to keep the
/// *largest* slabs: when the pool is at [`MAX_POOLED`], the smallest
/// pooled slab is evicted if the returning one beats it. A workload
/// cycling through degrees (the bench sweep, a mixed-`n` serving fleet)
/// would otherwise fill the pool with small slabs first and then
/// re-allocate + re-zero the expensive large slab on every single call
/// — measured as a ~2× inflation of `engine_batch/4x4096` once the
/// 256/1024 series had run.
fn give_back(pool: &mut Vec<Vec<u64>>, slab: Vec<u64>) {
    if pool.len() < MAX_POOLED {
        pool.push(slab);
        return;
    }
    if let Some(i) = (0..pool.len()).min_by_key(|&i| pool[i].capacity()) {
        if pool[i].capacity() < slab.capacity() {
            pool[i] = slab;
        }
    }
}

thread_local! {
    static POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// A checked-out slab of words for the batch paths: `batch::run_jobs`
/// stages both operands of a `B`-job chunk in one (`2·B·n` words, one
/// `B·n` lane per operand, read by the engine and transformed in place
/// by the software referee), and the engine's merged-kernel datapath
/// transforms its second operand in another (`B·n` words; the first is
/// transformed in the caller's output buffer, where the product lands),
/// or carves an armed lane's four row buffers out of a `4n`-word one.
///
/// Batch sizes vary call to call, so a pooled slab is reused whenever
/// its capacity covers the request (the view is trimmed): a worker
/// thread that has seen its largest batch once reaches a
/// zero-allocation steady state.
#[derive(Debug)]
pub struct BatchScratch {
    slab: Vec<u64>,
    len: usize,
}

impl BatchScratch {
    /// Checks out a slab of `len` words, allocating only when no pooled
    /// slab is large enough.
    ///
    /// A reused slab keeps its previous contents (zeroing it per
    /// checkout is pure memset traffic): every consumer fully overwrites
    /// the words it reads, so treat them as uninitialized.
    pub fn checkout(len: usize) -> BatchScratch {
        let mut slab = POOL
            .with(|p| {
                let mut p = p.borrow_mut();
                // Best fit, so a small batch does not take the slab the
                // next large one needs; failing that, the largest slab
                // is grown, so batch sizes varying call to call leave
                // as many slabs pooled as were ever checked out at
                // once, not one per size.
                let cap = |i: &usize| p[*i].capacity();
                let fit = (0..p.len()).filter(|i| cap(i) >= len).min_by_key(cap);
                fit.or_else(|| (0..p.len()).max_by_key(cap))
                    .map(|i| p.swap_remove(i))
            })
            .unwrap_or_default();
        if slab.len() < len {
            slab.resize(len, 0);
        }
        BatchScratch { slab, len }
    }

    /// The `len` checked-out words.
    pub fn words(&mut self) -> &mut [u64] {
        &mut self.slab[..self.len]
    }
}

impl Drop for BatchScratch {
    fn drop(&mut self) {
        let slab = std::mem::take(&mut self.slab);
        if slab.capacity() == 0 {
            return;
        }
        let _ = POOL.try_with(|p| {
            if let Ok(mut p) = p.try_borrow_mut() {
                give_back(&mut p, slab);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_bounded() {
        let many: Vec<BatchScratch> = (0..2 * MAX_POOLED)
            .map(|_| BatchScratch::checkout(4))
            .collect();
        drop(many);
        assert!(POOL.with(|p| p.borrow().len()) <= MAX_POOLED);
    }

    #[test]
    fn batch_scratch_reuses_capacity_for_smaller_batches() {
        let big_ptr = {
            let s = BatchScratch::checkout(2 * 8 * 64);
            s.slab.as_ptr() as usize
        };
        // A smaller request rides the pooled large slab (trimmed view);
        // contents are unspecified on reuse — consumers overwrite.
        let mut small = BatchScratch::checkout(2 * 2 * 64);
        assert_eq!(small.slab.as_ptr() as usize, big_ptr);
        assert_eq!(small.words().len(), 256);
    }

    #[test]
    fn batch_checkout_is_best_fit_and_grows_on_a_miss() {
        let pooled = || POOL.with(|p| p.borrow().len());
        // A miss grows the pooled slab instead of allocating beside it.
        drop(BatchScratch::checkout(128));
        drop(BatchScratch::checkout(512));
        assert_eq!(pooled(), 1, "one slab, grown");
        // With a large and a small slab pooled, a small request takes
        // the small one and leaves the large one for the next large
        // request.
        let large = BatchScratch::checkout(512);
        let small = BatchScratch::checkout(64);
        let small_ptr = small.slab.as_ptr() as usize;
        drop((large, small));
        let s = BatchScratch::checkout(64);
        assert_eq!(s.slab.as_ptr() as usize, small_ptr);
        assert_eq!(pooled(), 1, "the large slab stays pooled");
    }

    #[test]
    fn batch_scratch_holds_the_requested_words() {
        // Exactly the words asked for and nothing else: a chunk's two
        // staged operands, or the engine's one transformed operand.
        drop(BatchScratch::checkout(2 * 8 * 4096));
        let mut s = BatchScratch::checkout(2 * 8 * 4096);
        assert_eq!(s.slab.len(), 2 * 8 * 4096);
        assert_eq!(s.words().len(), 2 * 8 * 4096);
        let fresh = BatchScratch::checkout(3 * 512);
        assert_eq!(fresh.slab.len(), 3 * 512);
    }

    #[test]
    fn full_pool_keeps_the_largest_slabs() {
        // Fill the batch pool to its bound with small slabs (the state a
        // degree sweep leaves behind)...
        let small: Vec<BatchScratch> = (0..MAX_POOLED)
            .map(|_| BatchScratch::checkout(64))
            .collect();
        drop(small);
        // ...then return a large slab to the now-full pool: it must
        // evict a small slab rather than be freed, so the next large
        // checkout reuses it instead of re-allocating.
        let big_ptr = {
            let s = BatchScratch::checkout(4 * 1024);
            s.slab.as_ptr() as usize
        };
        let s = BatchScratch::checkout(4 * 1024);
        assert_eq!(
            s.slab.as_ptr() as usize,
            big_ptr,
            "large slab must survive a full pool"
        );
    }
}
