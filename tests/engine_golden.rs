//! Golden-trace regression: the engine's products, per-phase tallies,
//! and f64 energy **bits** are pinned to values recorded from the
//! op-by-op engine that predates the plan-cache/scratch-arena hot path.
//!
//! These constants are the acceptance gate for the zero-allocation
//! rewrite: the fused row-centric loops and plan replay must be
//! indistinguishable from the original gather → vector-op → scatter
//! execution in everything but wall-clock time. Regenerate with
//! `cargo run --release --example golden_dump` — but a diff here means
//! the accounting (or the arithmetic) changed, which is a contract
//! break, not a refresh.

use cryptopim::engine::{Engine, EngineTrace};
use cryptopim::mapping::NttMapping;
use modmath::params::ParamSet;
use pim::fault::WritePath;
use pim::reduce::ReductionStyle;
use pim::stats::Tally;

/// `(cycles, compute_cycles, reduce_cycles, transfer_cycles, energy bits)`.
type PhaseGold = (u64, u64, u64, u64, u64);

/// Per paper case: degree, modulus, FNV-1a-64 hash of the product
/// coefficients, and the six phase tallies in trace order.
const GOLDEN: [(usize, u64, u64, [PhaseGold; 6]); 3] = [
    (
        256,
        7681,
        0xf188f5f54e1e1f8e,
        [
            (4332, 2966, 1366, 0, 0x411037c9eecbfb16),
            (42432, 27088, 15344, 0, 0x4133db5a858793df),
            (2166, 1483, 683, 0, 0x410037c9eecbfb16),
            (21216, 13544, 7672, 0, 0x4123db5a858793df),
            (2166, 1483, 683, 0, 0x410037c9eecbfb16),
            (1152, 0, 0, 1152, 0x40e41cac083126e8),
        ],
    ),
    (
        1024,
        12289,
        0x0a8f9b0bb8bfd03b,
        [
            (3888, 2966, 922, 0, 0x412d1c84b5dcc63f),
            (47860, 33860, 14000, 0, 0x415665a0c49ba5e5),
            (1944, 1483, 461, 0, 0x411d1c84b5dcc63f),
            (23930, 16930, 7000, 0, 0x414665a0c49ba5e3),
            (1944, 1483, 461, 0, 0x411d1c84b5dcc63f),
            (1440, 0, 0, 1440, 0x410923d70a3d70a4),
        ],
    ),
    (
        4096,
        786433,
        0x7c8a6c9374982b12,
        [
            (14748, 12582, 2166, 0, 0x416b9b3dd97f62b7),
            (197304, 161016, 36288, 0, 0x419715413a92a308),
            (7374, 6291, 1083, 0, 0x415b9b3dd97f62b6),
            (98652, 80508, 18144, 0, 0x418715413a92a305),
            (7374, 6291, 1083, 0, 0x415b9b3dd97f62b6),
            (3456, 0, 0, 3456, 0x413e2b020c49ba60),
        ],
    ),
];

/// Pinned totals: `(total cycles, total energy bits)` per case.
const GOLDEN_TOTALS: [(u64, u64); 3] = [
    (73464, 0x414342e90ff97248),
    (81006, 0x4164d45886594af6),
    (328908, 0x41a4ffaeab367a11),
];

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

fn fnv1a(values: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &v in values {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Armed but fault-free write path: every store keeps its word, so the
/// engine takes its one-job row datapath instead of the merged kernels
/// and must land on the same golden products.
#[derive(Debug)]
struct RowPath;

impl WritePath for RowPath {
    fn armed(&self) -> bool {
        true
    }
    fn begin_op(&self) {}
    fn store(&self, _block: u32, _row: u32, value: u64) -> u64 {
        value
    }
    fn bank(&self) -> u32 {
        0
    }
    fn suspect_block(&self) -> Option<u32> {
        None
    }
}

fn multiply(engine: Engine, a: &[u64], b: &[u64]) -> (Vec<u64>, EngineTrace) {
    let mut out = Vec::new();
    let trace = engine
        .multiply_batch(a, b, &mut out, &[], None)
        .expect("multiply");
    (out, trace)
}

fn check_phase(name: &str, n: usize, path: &str, tally: &Tally, gold: PhaseGold) {
    assert_eq!(
        (
            tally.cycles,
            tally.compute_cycles,
            tally.reduce_cycles,
            tally.transfer_cycles,
        ),
        (gold.0, gold.1, gold.2, gold.3),
        "{name} cycles: n = {n}, {path}"
    );
    assert_eq!(
        tally.energy_pj.to_bits(),
        gold.4,
        "{name} energy bits: n = {n}, {path}"
    );
}

#[test]
fn engine_trace_matches_pre_plan_golden_data() {
    for (case, &(n, q, product_hash, phases)) in GOLDEN.iter().enumerate() {
        let params = ParamSet::for_degree(n).expect("paper degree");
        assert_eq!(params.q, q, "paper modulus for n = {n}");
        let mapping = NttMapping::new(&params, ReductionStyle::CryptoPim).expect("mapping");
        let a = rand_vec(n, q, 0xC0FFEE ^ n as u64);
        let b = rand_vec(n, q, 0xBEEF ^ n as u64);

        let row_path = RowPath;
        for (path, engine) in [
            ("merged kernels", Engine::new(&mapping)),
            (
                "row datapath",
                Engine::new(&mapping).with_write_path(Some(&row_path)),
            ),
        ] {
            let (c, tr) = multiply(engine, &a, &b);
            assert_eq!(fnv1a(&c), product_hash, "product hash: n = {n}, {path}");
            for (i, (name, t)) in [
                ("premul", &tr.premul),
                ("forward", &tr.forward),
                ("pointwise", &tr.pointwise),
                ("inverse", &tr.inverse),
                ("postmul", &tr.postmul),
                ("transfers", &tr.transfers),
            ]
            .into_iter()
            .enumerate()
            {
                check_phase(name, n, path, t, phases[i]);
            }
            let total = tr.total();
            let (gold_cycles, gold_energy) = GOLDEN_TOTALS[case];
            assert_eq!(total.cycles, gold_cycles, "total cycles: n = {n}");
            assert_eq!(
                total.energy_pj.to_bits(),
                gold_energy,
                "total energy bits: n = {n}, {path}"
            );
        }
    }
}

#[test]
fn transfer_fold_keeps_total_cycles_unchanged() {
    // Satellite regression for folding the per-stage transfer tally into
    // the plan: totals must still equal the closed form
    // 3·log2(n)·switch_transfer_cycles(w) and the pinned golden totals.
    for (case, &(n, _q, _h, _p)) in GOLDEN.iter().enumerate() {
        let params = ParamSet::for_degree(n).expect("paper degree");
        let mapping = NttMapping::new(&params, ReductionStyle::CryptoPim).expect("mapping");
        let a = rand_vec(n, params.q, 0xC0FFEE ^ n as u64);
        let b = rand_vec(n, params.q, 0xBEEF ^ n as u64);
        let (_, tr) = multiply(Engine::new(&mapping), &a, &b);
        let log_n = params.log2_n() as u64;
        let per_stage = pim::cost::switch_transfer_cycles(params.bitwidth);
        assert_eq!(tr.transfers.cycles, 3 * log_n * per_stage, "n = {n}");
        assert_eq!(tr.total().cycles, GOLDEN_TOTALS[case].0, "n = {n}");
    }
}
