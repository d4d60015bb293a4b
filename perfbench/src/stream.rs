//! `stream`: `ipp_core::run_stream` over `corpus::stream(seed, 1000)`.
//! Sources are generated in set-up and parsed inside the timed pass.
//! Many small programs make parsing, inlining, parallelization and VM
//! lowering the main cost, the reverse of `suite`.

use crate::metrics::Values;
use crate::{oracle, stats, Outcome, RunConfig};
use corpus::GeneratedProgram;
use fruntime::Engine;
use ipp_core::{run_stream, DriverOptions, StreamOutcome, SuiteJob};
use std::cell::RefCell;
use std::time::Instant;

/// Programs per pass.
pub const PROGRAMS: u64 = 1000;

/// Driver options of the workload: library defaults (one worker per
/// available CPU, automatic window).
pub fn options() -> DriverOptions {
    DriverOptions::default()
}

/// The inputs: `PROGRAMS` generated sources, unparsed.
pub fn inputs(seed: u64) -> Vec<GeneratedProgram> {
    corpus::stream(seed, PROGRAMS).collect()
}

/// Parse one generated program into a driver job. The corpus contract is
/// that every program parses; a failure is a generator bug.
pub fn job(g: &GeneratedProgram) -> SuiteJob {
    g.job()
        .unwrap_or_else(|e| panic!("corpus program {} does not parse: {e}", g.name))
}

/// One timed pass. Returns the outcome and, per program, the time from
/// the moment the stream drew it to the moment its window's results were
/// folded in (the stream draws window `k + 1` only after window `k` is
/// done).
pub fn pass(programs: &[GeneratedProgram], opts: &DriverOptions) -> (StreamOutcome, Vec<f64>) {
    let drawn: RefCell<Vec<Instant>> = RefCell::new(Vec::with_capacity(programs.len()));
    let jobs = programs.iter().map(|g| {
        drawn.borrow_mut().push(Instant::now());
        job(g)
    });
    let out = run_stream(jobs, opts);
    let end = Instant::now();
    let drawn = drawn.into_inner();
    let window = out.window.max(1);
    let latency_ms = drawn
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let done = drawn.get((i / window + 1) * window).copied().unwrap_or(end);
            done.duration_since(*t).as_secs_f64() * 1e3
        })
        .collect();
    (out, latency_ms)
}

/// Reference summary digest from the tree-walking engine.
pub fn reference(seed: u64, programs: &[GeneratedProgram], opts: &DriverOptions) -> String {
    oracle::cached(&format!("stream-{seed}"), || {
        let tw = DriverOptions {
            engine: Engine::TreeWalk,
            ..opts.clone()
        };
        vec![oracle::digest(
            &run_stream(programs.iter().map(job), &tw).summary.to_json(),
        )]
    })
    .pop()
    .unwrap_or_default()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let setup = crate::median_setup(|| inputs(cfg.seed));
    let programs = inputs(cfg.seed);
    let opts = options();

    let mut walls = Vec::new();
    let mut latency_ms = Vec::new();
    let mut digests = Vec::new();
    // The first pass is untimed: it warms lazy set-up and caches, and
    // gives the memory figure. Resident memory keeps creeping up over
    // repeated passes (allocator arenas of the per-chunk threads), so
    // only a pass at a fixed position gives a figure that repeats.
    let (_, peak_rss) = crate::host::with_peak_rss(|| pass(&programs, &opts));
    let t0 = Instant::now();
    while walls.len() < 2 || t0.elapsed() < cfg.seconds {
        let t = Instant::now();
        let (out, lat) = pass(&programs, &opts);
        walls.push(t.elapsed().as_secs_f64());
        latency_ms.push(lat);
        digests.push(oracle::digest(&out.summary.to_json()));
    }

    let want = reference(cfg.seed, &programs, &opts);
    let attempted = digests.len() as u64;
    let failed = digests.iter().filter(|d| **d != want).count() as u64;

    let n = programs.len() as f64;
    let mut m = Values::default();
    m.set("setup_s", setup);
    m.set("wall_s", stats::median(&walls));
    m.set("programs_per_s", n / stats::median(&walls));
    m.set(
        "latency_p50_ms",
        stats::median_of_percentiles(&latency_ms, 50.0),
    );
    m.set(
        "latency_p99_ms",
        stats::median_of_percentiles(&latency_ms, 99.0),
    );
    m.set("max_rate_rps", n / stats::mean(&walls));
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
            "{} passes of {} programs {:.3?} s; latency is draw-to-window-done per program",
            walls.len(),
            programs.len(),
            walls
        )],
        valid: true,
    }
}
