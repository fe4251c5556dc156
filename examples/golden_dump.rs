//! Dumps the engine's golden traces for the paper cases in the literal
//! format `tests/engine_golden.rs` pins: product FNV-1a-64 hash plus
//! per-phase `(cycles, compute, reduce, transfer, energy bits)`.
//!
//! The pinned constants were recorded from the op-by-op engine that
//! predates the plan-cache hot path; this tool exists to *inspect* a
//! divergence, not to refresh the goldens — a diff is an accounting
//! contract break (see the test's module docs).

use cryptopim::engine::Engine;
use cryptopim::mapping::NttMapping;
use modmath::params::ParamSet;
use pim::reduce::ReductionStyle;

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

fn fnv(xs: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &x in xs {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn main() {
    for (n, q) in [(256usize, 7681u64), (1024, 12289), (4096, 786433)] {
        let params = ParamSet::for_degree(n).unwrap();
        assert_eq!(params.q, q);
        let mapping = NttMapping::new(&params, ReductionStyle::CryptoPim).unwrap();
        let a = rand_vec(n, q, 0xC0FFEE ^ n as u64);
        let b = rand_vec(n, q, 0xBEEF ^ n as u64);
        let mut c = Vec::new();
        let t = Engine::new(&mapping)
            .multiply_batch(&a, &b, &mut c, &[], None)
            .unwrap();
        println!("({n}, {q}, 0x{:016x}, [", fnv(&c));
        for (name, ph) in [
            ("premul", &t.premul),
            ("forward", &t.forward),
            ("pointwise", &t.pointwise),
            ("inverse", &t.inverse),
            ("postmul", &t.postmul),
            ("transfers", &t.transfers),
        ] {
            println!(
                "    // {name}\n    ({}, {}, {}, {}, 0x{:016x}),",
                ph.cycles,
                ph.compute_cycles,
                ph.reduce_cycles,
                ph.transfer_cycles,
                ph.energy_pj.to_bits()
            );
        }
        println!(
            "]),  // total cycles {} energy 0x{:016x}",
            t.total().cycles,
            t.total().energy_pj.to_bits()
        );
    }
}
