//! The benchmark's own check: a seed fixes the op set and every exact
//! count and modeled number; another seed changes the op set.
//!
//! Runs all workloads in one test, one after another: the engine's
//! phase counters are process-wide, so concurrent runs would mix them.
//! Build optimized: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::workload::Workload;
use perfbench::{run, Config, Outcome};

const EXACT_PER_LAYER: [&str; 4] = [
    "graph.leaf_mults_per_op",
    "net.bytes_per_op",
    "pim.modeled_cycles_per_mult",
    "pim.modeled_uj_per_mult",
];
const MODELED_END_TO_END: [&str; 2] = ["modeled_pim_us_per_op", "modeled_pim_uj_per_op"];

fn short(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(&Config {
        workload,
        seed,
        seconds: 1.0,
        trace,
    });
    assert!(
        out.correct,
        "{} seed {seed}: {:?}",
        workload.name(),
        out.notes
    );
    out
}

fn assert_same(a: &Outcome, b: &Outcome, names: &[&str]) {
    for name in names {
        let (x, y) = (a.get(name), b.get(name));
        assert!(x.is_some(), "{name} is reported");
        assert_eq!(x, y, "{name} repeats exactly under the same seed");
    }
}

#[test]
fn a_seed_fixes_the_op_set_and_the_exact_metrics() {
    for workload in Workload::ALL {
        let traced = [short(workload, 7, true), short(workload, 7, true)];
        assert_eq!(traced[0].op_set, traced[1].op_set, "{}", workload.name());
        assert_same(&traced[0], &traced[1], &EXACT_PER_LAYER);

        let untraced = [short(workload, 7, false), short(workload, 7, false)];
        assert_eq!(untraced[0].op_set, traced[0].op_set);
        assert_same(&untraced[0], &untraced[1], &MODELED_END_TO_END);

        let other = short(workload, 8, false);
        assert_ne!(other.op_set, untraced[0].op_set, "{}", workload.name());
    }
}

#[test]
fn reuse_and_churn_share_kinds_and_differ_in_keys() {
    use service::ProtocolJob;
    let keys = |ops: &[ProtocolJob]| -> Vec<Vec<u64>> {
        let mut pks: Vec<Vec<u64>> = ops
            .iter()
            .filter_map(|j| match j {
                ProtocolJob::Encaps { pk, .. } => Some(pk.a().coeffs().to_vec()),
                _ => None,
            })
            .collect();
        pks.sort();
        pks.dedup();
        pks
    };
    let reuse = perfbench::workload::proto_ops(7, false);
    let churn = perfbench::workload::proto_ops(7, true);
    let kinds = |ops: &[ProtocolJob]| ops.iter().map(ProtocolJob::kind).collect::<Vec<_>>();
    assert_eq!(kinds(&reuse), kinds(&churn));
    let encaps = reuse
        .iter()
        .filter(|j| matches!(j, ProtocolJob::Encaps { .. }))
        .count();
    assert_eq!(keys(&reuse).len(), perfbench::workload::REUSED_KEYS);
    assert_eq!(keys(&churn).len(), encaps);
}
