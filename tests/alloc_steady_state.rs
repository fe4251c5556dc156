//! Zero-allocation steady state: after warm-up, the engine's multiply
//! loop must not touch the heap at all, and a connection's frame codec
//! allocates nothing beyond the decoded frame's own vectors.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the plan cache, the thread-local scratch pool, and the output
//! vector's capacity, then asserts that further multiplies perform zero
//! allocations and zero deallocations.
//!
//! The counters are **per thread**: the engine runs on the caller's
//! thread, so the measuring thread's own heap operations are exactly
//! what a test must see. Another thread's allocations — a concurrently
//! running test, or an earlier test's thread freeing its thread-local
//! scratch pools as it exits — never land in the window.

use cryptopim::engine::Engine;
use cryptopim::mapping::NttMapping;
use modmath::params::ParamSet;
use net::wire::{self, Codec, Frame};
use ntt::negacyclic::NttMultiplier;
use pim::reduce::ReductionStyle;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized `Cell`s with no destructor: reading or bumping
    // them never allocates and never registers a TLS destructor, so
    // they are safe to touch from inside the global allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: during thread teardown the slot may be gone, and
    // that thread is never a measuring one.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
    counter.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn rand_vec(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 16) % q
        })
        .collect()
}

#[test]
fn steady_state_multiply_is_allocation_free() {
    let n = 1024usize;
    let params = ParamSet::for_degree(n).expect("paper degree");
    let mapping = NttMapping::new(&params, ReductionStyle::CryptoPim).expect("mapping");
    let engine = Engine::new(&mapping);
    let a = rand_vec(n, params.q, 1);
    let b = rand_vec(n, params.q, 2);
    let mut out = Vec::new();

    // Warm-up: builds the cached plan, pools the scratch slab, and gives
    // `out` its capacity. Two rounds so the slab is checked out of the
    // pool (not freshly allocated) at least once before measuring.
    for _ in 0..2 {
        let trace = engine
            .multiply_batch(&a, &b, &mut out, &[], None)
            .expect("warm-up");
        assert!(trace.total().cycles > 0);
    }
    let reference = out.clone();

    let allocs_before = count(&ALLOCS);
    let deallocs_before = count(&DEALLOCS);
    for _ in 0..10 {
        engine
            .multiply_batch(&a, &b, &mut out, &[], None)
            .expect("steady state");
    }
    let allocs = count(&ALLOCS) - allocs_before;
    let deallocs = count(&DEALLOCS) - deallocs_before;

    assert_eq!(out, reference, "products must stay correct");
    assert_eq!(allocs, 0, "steady-state multiply must not allocate");
    assert_eq!(deallocs, 0, "steady-state multiply must not deallocate");
}

/// Heap operations (allocations, deallocations) `f` performs on this
/// thread over ten calls.
fn heap_ops(mut f: impl FnMut()) -> (u64, u64) {
    let allocs_before = count(&ALLOCS);
    let deallocs_before = count(&DEALLOCS);
    for _ in 0..10 {
        f();
    }
    (
        count(&ALLOCS) - allocs_before,
        count(&DEALLOCS) - deallocs_before,
    )
}

/// Degrees the batch-fused guards run at: a NewHope-size and the
/// n = 4096 SEAL-size ring the TCP benchmark serves.
const BATCH_DEGREES: [usize; 2] = [1024, 4096];

#[test]
fn engine_batch_fused_multiply_is_allocation_free() {
    // The batch-fused *engine* path: one `StagePlan` walk over the
    // pooled `2·B·n` scratch slab per batch. After warm-up (plan cache,
    // slab pool, `out` capacity) a whole fused batch — products plus
    // the merged trace — performs zero heap operations, and so does a
    // smaller batch after it (best-fit reuse of the larger slab).
    let batch = 4usize;
    for n in BATCH_DEGREES {
        let params = ParamSet::for_degree(n).expect("paper degree");
        let mapping = NttMapping::new(&params, ReductionStyle::CryptoPim).expect("mapping");
        let engine = Engine::new(&mapping);
        let a: Vec<u64> = (0..batch as u64)
            .flat_map(|j| rand_vec(n, params.q, 10 + j))
            .collect();
        let b: Vec<u64> = (0..batch as u64)
            .flat_map(|j| rand_vec(n, params.q, 20 + j))
            .collect();
        let mut out = Vec::new();

        for _ in 0..2 {
            let trace = engine
                .multiply_batch(&a, &b, &mut out, &[], None)
                .expect("warm-up");
            assert!(trace.total().cycles > 0);
        }
        let reference = out.clone();

        let (allocs, deallocs) = heap_ops(|| {
            engine
                .multiply_batch(&a, &b, &mut out, &[], None)
                .expect("steady state");
        });
        assert_eq!(out, reference, "products must stay correct, n = {n}");
        assert_eq!(
            allocs, 0,
            "batch-fused engine multiply must not allocate, n = {n}"
        );
        assert_eq!(
            deallocs, 0,
            "batch-fused engine multiply must not deallocate, n = {n}"
        );

        let half = batch / 2 * n;
        let (allocs, deallocs) = heap_ops(|| {
            engine
                .multiply_batch(&a[..half], &b[..half], &mut out, &[], None)
                .expect("shrunk batch");
        });
        assert_eq!(out, reference[..half], "shrunk batch products, n = {n}");
        assert_eq!(allocs, 0, "a shrunk batch must not allocate, n = {n}");
        assert_eq!(deallocs, 0, "a shrunk batch must not deallocate, n = {n}");
    }
}

#[test]
fn batch_fused_multiply_is_allocation_free() {
    // The batch-fused referee sequence (`forward_batch` on both operand
    // slabs, `pointwise_batch`, `inverse_batch`) runs entirely in caller
    // buffers — the `u32` lanes of the merged kernels are packed into
    // those same buffers — so once the multiplier and the two B·n slabs
    // exist, a whole batch of transforms, or a smaller batch over
    // prefixes of the slabs, touches the heap zero times.
    let batch = 4usize;
    for n in BATCH_DEGREES {
        let params = ParamSet::for_degree(n).expect("paper degree");
        let q = params.q;
        let m = NttMultiplier::new(&params).expect("paper parameters");
        let a0: Vec<u64> = (0..batch as u64)
            .flat_map(|j| rand_vec(n, q, 3 + j))
            .collect();
        let b0: Vec<u64> = (0..batch as u64)
            .flat_map(|j| rand_vec(n, q, 30 + j))
            .collect();
        let (mut a, mut b) = (a0.clone(), b0.clone());
        let multiply = |a: &mut [u64], b: &mut [u64]| {
            m.forward_batch(a)?;
            m.forward_batch(b)?;
            m.pointwise_batch(a, b)?;
            m.inverse_batch(a)
        };

        // Warm-up (also produces the reference products).
        multiply(&mut a, &mut b).expect("warm-up");
        let reference = a.clone();

        for len in [batch * n, batch / 2 * n] {
            let (allocs, deallocs) = heap_ops(|| {
                a.copy_from_slice(&a0);
                b.copy_from_slice(&b0);
                multiply(&mut a[..len], &mut b[..len]).expect("steady state");
            });
            assert_eq!(
                a[..len],
                reference[..len],
                "products must stay correct, n = {n}, len = {len}"
            );
            assert_eq!(
                allocs, 0,
                "batch-fused multiply must not allocate, n = {n}, len = {len}"
            );
            assert_eq!(
                deallocs, 0,
                "batch-fused multiply must not deallocate, n = {n}, len = {len}"
            );
        }
    }
}

#[test]
fn codec_write_of_done_frame_is_allocation_free() {
    // A server answers every `Wait` with a `Done` frame through its
    // connection's codec: once the transmit buffer has held one frame
    // of the size, encoding and writing another performs zero heap
    // operations.
    let n = 4096usize;
    let params = ParamSet::for_degree(n).expect("paper degree");
    let done = Frame::Done {
        job_id: 7,
        q: params.q,
        product: rand_vec(n, params.q, 5),
        queue_us: 120,
        service_us: 340,
        attempts: 1,
    };
    let mut codec = Codec::default();
    let mut sink = std::io::sink();
    codec.write_frame(&mut sink, &done).expect("warm-up");

    let allocs_before = count(&ALLOCS);
    let deallocs_before = count(&DEALLOCS);
    for _ in 0..10 {
        codec.write_frame(&mut sink, &done).expect("steady state");
    }
    let allocs = count(&ALLOCS) - allocs_before;
    let deallocs = count(&DEALLOCS) - deallocs_before;

    assert_eq!(allocs, 0, "steady-state write_frame must not allocate");
    assert_eq!(deallocs, 0, "steady-state write_frame must not deallocate");
}

#[test]
fn codec_read_of_submit_frame_allocates_only_the_operands() {
    // A server reads every `Submit` through its connection's codec:
    // after the receive buffer has held one frame of the size, a read
    // allocates exactly the two operand vectors the decoded frame owns.
    let n = 4096usize;
    let params = ParamSet::for_degree(n).expect("paper degree");
    let submit = Frame::Submit {
        job_id: 9,
        q: params.q,
        a: rand_vec(n, params.q, 6),
        b: rand_vec(n, params.q, 7),
    };
    let bytes = wire::encode_frame(&submit);
    let mut codec = Codec::default();
    let warm = codec.read_frame(&mut bytes.as_slice()).expect("warm-up");
    assert_eq!(warm, submit);
    drop(warm);

    for _ in 0..10 {
        let allocs_before = count(&ALLOCS);
        let frame = codec
            .read_frame(&mut bytes.as_slice())
            .expect("steady state");
        let allocs = count(&ALLOCS) - allocs_before;
        assert_eq!(allocs, 2, "exactly the two operand vectors");
        assert_eq!(frame, submit);
    }
}
