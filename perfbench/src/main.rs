//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints detail lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an
//! output was wrong or an op failed, 3 when fewer than ten latency
//! samples lie beyond the reported p99, and 2 on bad arguments.

use perfbench::workload::Workload;
use perfbench::{metrics, run, Config};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload proto-reuse|proto-churn|mul4096-tcp --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} is outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("# {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        metrics::result_json(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if !out.correct {
        eprintln!(
            "perfbench: {} of {} ops failed or mismatched",
            out.failed, out.attempted
        );
        ExitCode::from(1)
    } else if !out.tail_ok {
        eprintln!(
            "perfbench: fewer than {} samples beyond p99; run longer",
            perfbench::MIN_TAIL_SAMPLES
        );
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
