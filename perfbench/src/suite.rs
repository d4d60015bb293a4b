//! `suite`: `ipp_core::run_suite` over the 12 PERFECT applications × 4
//! inline modes, on the intel8/amd4 cost models, one worker per CPU.
//! The verify layer (threaded run plus race-checked sequential run)
//! dominates; compile is a small share. The suite is fixed, so its
//! inputs do not depend on the seed.

use crate::metrics::Values;
use crate::{oracle, stats, Outcome, RunConfig};
use fruntime::{Engine, Machine};
use ipp_core::{run_suite, DriverOptions, SuiteJob, SuiteOutcome};
use std::time::Instant;

/// Driver options of the workload: `perfect::driver_options` with one
/// worker per CPU the process may use.
pub fn options() -> DriverOptions {
    DriverOptions {
        workers: crate::host::nproc(),
        ..perfect::driver_options(&[Machine::intel8(), Machine::amd4()])
    }
}

/// The inputs: every application parsed, with its annotation registry.
pub fn inputs() -> Vec<SuiteJob> {
    perfect::suite_jobs()
}

/// Per-application answers of one pass: Table II rows, Figure 20 points
/// and failure codes, one digest per application in suite order.
pub fn answers(out: &SuiteOutcome) -> Vec<String> {
    out.apps
        .iter()
        .map(|a| {
            let failures: Vec<(String, &str, &str)> = a
                .failures
                .iter()
                .map(|e| (format!("{:?}", e.mode), e.stage.label(), e.code()))
                .collect();
            oracle::digest(&format!(
                "{}|{:?}|{:?}|{:?}",
                a.name, a.rows, a.fig20, failures
            ))
        })
        .collect()
}

/// Reference answers from the tree-walking engine.
pub fn reference(jobs: &[SuiteJob], opts: &DriverOptions) -> Vec<String> {
    oracle::cached("suite", || {
        let tw = DriverOptions {
            engine: Engine::TreeWalk,
            ..opts.clone()
        };
        answers(&run_suite(jobs, &tw))
    })
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let setup = crate::median_setup(inputs);
    let jobs = inputs();
    let opts = options();

    let mut walls = Vec::new();
    let mut cell_ms = Vec::new();
    let mut passes = Vec::new();
    // The first pass is untimed: it warms lazy set-up and caches, and
    // gives the memory figure. Resident memory keeps creeping up over
    // repeated passes (allocator arenas of the per-chunk threads), so
    // only a pass at a fixed position gives a figure that repeats.
    let (_, peak_rss) = crate::host::with_peak_rss(|| run_suite(&jobs, &opts));
    let t0 = Instant::now();
    while walls.len() < 2 || t0.elapsed() < cfg.seconds {
        let t = Instant::now();
        let out = run_suite(&jobs, &opts);
        walls.push(t.elapsed().as_secs_f64());
        cell_ms.push(
            out.metrics
                .cells
                .iter()
                .map(|c| c.phases.total().as_secs_f64() * 1e3)
                .collect(),
        );
        passes.push(answers(&out));
    }

    let want = reference(&jobs, &opts);
    let attempted = (passes.len() * jobs.len()) as u64;
    let failed = passes
        .iter()
        .map(|got| {
            (0..jobs.len())
                .filter(|&i| got.get(i) != want.get(i))
                .count()
        })
        .sum::<usize>() as u64;

    let apps = jobs.len() as f64;
    let mut m = Values::default();
    m.set("setup_s", setup);
    m.set("wall_s", stats::median(&walls));
    m.set("programs_per_s", apps / stats::median(&walls));
    m.set(
        "latency_p50_ms",
        stats::median_of_percentiles(&cell_ms, 50.0),
    );
    m.set(
        "latency_p99_ms",
        stats::median_of_percentiles(&cell_ms, 99.0),
    );
    m.set("max_rate_rps", apps / stats::mean(&walls));
    m.set("peak_rss_mb", peak_rss);
    m.set(
        "ok_rate",
        1.0 - stats::ratio(failed as f64, attempted as f64),
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
        notes: vec![format!(
            "{} passes {:.3?} s; latency is per-cell compile+verify time ({} cells)",
            walls.len(),
            walls,
            cell_ms.iter().map(Vec::len).sum::<usize>()
        )],
        valid: true,
    }
}
