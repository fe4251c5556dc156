//! Every deterministic paper binary prints exactly its committed output.
//!
//! Each table and figure binary is run as built by Cargo, and its stdout
//! must equal `tests/golden/<name>.txt` byte for byte, so a refactor of
//! the models behind them cannot move a reproduced number unnoticed.
//! `algorithms` (host wall clock) and `cli` are not pinned here.
//!
//! After an intended change to a printed number, regenerate a golden
//! file with `cargo run -q -p cryptopim-bench --bin <name> >
//! crates/bench/tests/golden/<name>.txt` and review the diff.

use std::path::Path;
use std::process::Command;

fn assert_prints_golden(name: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let want = std::fs::read(&golden)
        .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", golden.display()));
    if out.stdout != want {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&want);
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name} stdout differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            golden.display(),
            line + 1,
            got.lines().nth(line).unwrap_or("<end of output>"),
            want.lines().nth(line).unwrap_or("<end of output>"),
        );
    }
}

macro_rules! golden_tests {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                assert_prints_golden(
                    stringify!($name),
                    env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                );
            }
        )*
    };
}

golden_tests!(
    table1, fig4, table2, fig5, fig6, verify, ablation, montecarlo, sweep, timeline, endurance,
);
