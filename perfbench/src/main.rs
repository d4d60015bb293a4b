//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <suite|stream|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root through `BENCHMARK.json`'s command
//! (`cargo run --release --manifest-path perfbench/Cargo.toml -- ...`).
//! One run measures one workload for about `--seconds`, checks every
//! output against a tree-walking-engine reference ([`oracle`]), and
//! prints a host fingerprint line, a detail line, and as the last line
//! one JSON object `{"correct","attempted","failed","metrics"}`.
//! `correct` is false when an answer was wrong or the measurement was
//! invalid (a `serve` ledger that does not balance, or a load generator
//! that fell behind its schedule); the detail line says which.
//! `python3 perfbench/spread.py` runs it over several seeds and reports
//! each metric's run-to-run spread against its bound.
//!
//! With `--trace 0` the metrics are the end-to-end ones
//! ([`metrics::END_TO_END`]), the same names on every workload:
//!
//! | metric | suite, stream | serve |
//! |---|---|---|
//! | `setup_s` | median of repeated input set-up | the same, plus daemon spawn |
//! | `wall_s` | median pass time | first due time to last answer of the fixed-rate phase |
//! | `programs_per_s` | programs / median pass | answered requests / `wall_s` |
//! | `latency_p50_ms`, `latency_p99_ms` | per cell (suite) or per program (stream), median over passes | per request, from its due time |
//! | `max_rate_rps` | programs / fastest pass | highest ladder rate with p99 ≤ 50 ms and no backlog |
//! | `peak_rss_mb` | median of per-pass sampled peaks | sampled peak of the fixed-rate phase |
//! | `ok_rate` | 1 − failed / attempted | the same |
//!
//! `ok_rate` stands for the error rate, which is 0 on a healthy tree and
//! so cannot be a relative bound's base; failures are also reported as
//! `failed` out of `attempted`.
//!
//! With `--trace 1` the workload is replayed layer by layer under
//! in-memory spans ([`trace`]) and the metrics are the per-layer ones
//! ([`metrics::PER_LAYER`]); a layer the workload does not pass through
//! reads 0 and is named on the detail line. The spans are written to
//! `.perfbench/trace-<workload>-<seed>.json`. A traced run replays its
//! workload once, whatever `--seconds` says.
//!
//! Seeds: [`DEFAULT_SEED`] is the seed for day-to-day runs;
//! [`HELD_OUT_SEED`] is kept back for confirming a claimed gain on inputs
//! the change was not tuned on. The `suite` inputs are the fixed PERFECT
//! suite and do not depend on the seed.

mod host;
mod loadgen;
mod metrics;
mod oracle;
#[cfg(test)]
mod selftest;
mod serve;
mod stats;
mod stream;
mod suite;
mod trace;

use metrics::Values;
use std::time::{Duration, Instant};

/// Seed for ordinary runs.
pub const DEFAULT_SEED: u64 = 2011;
/// Seed reserved for confirming a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["suite", "stream", "serve"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Set-ups repeated in a run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Answers checked against the reference.
    pub attempted: u64,
    /// Answers that were wrong, refused or missing.
    pub failed: u64,
    pub metrics: Values,
    /// Human-readable remarks printed on the detail line.
    pub notes: Vec<String>,
    /// False when the measurement itself is not trustworthy (the load
    /// generator fell behind its schedule, or a ledger did not balance).
    pub valid: bool,
}

/// Run `setup` [`SETUPS`] times and return the median wall time in
/// seconds.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(setup());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                cfg.seconds = Duration::from_secs(s.max(1));
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };

    let (workers, verify_threads) = match cfg.workload.as_str() {
        "suite" => {
            let o = suite::options();
            (o.effective_workers(), o.effective_verify_threads())
        }
        "stream" => {
            let o = stream::options();
            (o.effective_workers(), o.effective_verify_threads())
        }
        _ => {
            let o = serve::options();
            (
                o.workers,
                ipp_core::DriverOptions::default().effective_verify_threads(),
            )
        }
    };
    println!(
        "{{\"host\":{}}}",
        host::fingerprint_json(workers, verify_threads)
    );

    let out = if cfg.trace {
        trace::run(&cfg)
    } else {
        match cfg.workload.as_str() {
            "suite" => suite::run(&cfg),
            "stream" => stream::run(&cfg),
            _ => serve::run(&cfg),
        }
    };

    let vocabulary = if cfg.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|n| ipp_core::phase::quote(n))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"valid\":{},\"notes\":[{}]}}",
        cfg.workload,
        cfg.seed,
        cfg.trace,
        out.valid,
        notes.join(",")
    );
    let metrics_json = match out.metrics.to_json(vocabulary) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    // A run that checked nothing is a failed run, not an empty success.
    let (attempted, failed) = match out.attempted {
        0 => (1, 1),
        n => (n, out.failed),
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics_json}}}",
        out.valid && failed == 0
    );
}
