//! The traced run: per-layer metrics measured from outside the program.
//!
//! The workload's cells are replayed stage by stage through each layer's
//! public functions, in the order `ipp_core::compile_timed` and
//! `ipp_core::verify_with_baseline_using` call them, with the driver's
//! per-program baseline memo and per-source verify dedup. Every call is
//! wrapped in an in-memory span (name, start, end, parent, cell); the
//! spans are written to `.perfbench/trace-<workload>-<seed>.json` at the
//! end. Two probe spans run work the driver does not do, to split a
//! layer: the sequential run without the race checker, and the threaded
//! run with chunks forced inline.
//!
//! Fidelity: each replayed cell must emit source byte-identical to
//! `ipp_core::compile_timed`, its baseline must be `same_observable` with
//! `ipp_core::baseline_run_with`, and its verification verdict must equal
//! `ipp_core::verify_with_baseline_using`'s. Every mismatch is a failed
//! answer. Coverage is the sum of on-path layer self times over the time
//! of the same work done untraced by the single-threaded driver, so a
//! layer the replay does not measure shows up as a gap.

use crate::metrics::Values;
use crate::{serve, stats, stream, suite, Outcome, RunConfig};
use finline::annot::AnnotRegistry;
use finline::{annot_inline, chain, conventional, reverse, AutoGenOptions};
use fir::ast::Program;
use fruntime::{ExecOptions, Machine, ParLoopEvent, RunResult, VmCounters};
use ipp_core::service::{
    evaluate_request_metered, evaluate_tournament_metered, request_key, RequestCache,
};
use ipp_core::{CellConfig, DriverOptions, InlineMode, PhaseTimings, PipelineOptions};
use server::admission::{AdmissionQueue, TokenBuckets};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the tracer's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The cell (request) the span belongs to; spans of one cell share it.
    pub cell: u32,
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    cell: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            cell: self.cell,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack
            .truncate(self.stack.iter().position(|&i| i == idx).unwrap_or(0));
        self.spans[idx].end = self.now();
        out
    }

    /// Self time of every span: its duration minus the part its
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Summed self time of the spans named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Summed duration of the spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .sum()
    }

    pub fn to_json(&self) -> String {
        let spans: Vec<String> =
            self.spans
                .iter()
                .map(|s| {
                    format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
                    s.name,
                    s.start,
                    s.end,
                    s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
                    s.cell
                )
                })
                .collect();
        format!("{{\"spans\":[{}]}}", spans.join(",\n"))
    }
}

/// Layer spans on the driver's path (counted in coverage), in call
/// order. `fir.parse` is on the path only where the pass parses.
const ON_PATH: &[&str] = &[
    "fir.normalize",
    "finline.autogen",
    "finline.inline",
    "fpar.parallelize",
    "finline.reverse",
    "fir.print",
    "fruntime.baseline",
    "fruntime.lower",
    "fruntime.exec_seq_checked",
    "fruntime.exec_threaded",
    "fruntime.cost_model",
];
/// Spans of work the driver does not do, run to split a layer.
const PROBES: &[&str] = &["probe.exec_seq", "probe.exec_threaded_inline"];

/// A program as text, the way every workload receives it.
struct SourceProgram {
    name: String,
    source: String,
    annotations: String,
}

/// A parsed program and its annotation registry.
struct Parsed {
    program: Program,
    registry: AnnotRegistry,
}

/// One cell to replay: a program and a configuration column.
struct Cell {
    program: usize,
    config: CellConfig,
}

/// What the verification gates decided, compared field by field.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    matches_original: bool,
    parallel_consistent: bool,
    races: usize,
    total_ops: u64,
    par_events: Vec<ParLoopEvent>,
    vm: VmCounters,
}

/// Replay output of one cell.
#[derive(Default)]
struct Replayed {
    source: Option<String>,
    verdict: Option<Result<Verdict, String>>,
}

/// Counters the replay accumulates.
#[derive(Default)]
struct Counts {
    loops_total: u64,
    loops_parallel: u64,
    vm: VmCounters,
    threaded_mismatch: u64,
}

fn parse(p: &SourceProgram) -> Result<Parsed, String> {
    let program = fir::parse(&p.source).map_err(|e| e.to_string())?;
    let registry = if p.annotations.trim().is_empty() {
        AnnotRegistry::default()
    } else {
        AnnotRegistry::parse(&p.annotations).map_err(|e| e.to_string())?
    };
    Ok(Parsed { program, registry })
}

/// `ipp_core::compile_timed`, stage by stage.
fn compile_replay(
    tr: &mut Tracer,
    input: &Program,
    annotations: &AnnotRegistry,
    opts: &PipelineOptions,
    counts: &mut Counts,
) -> (Program, String) {
    let mut p = input.clone();
    tr.span("fir.normalize", |_| fir::fold::normalize_program(&mut p));
    let mut derived = None;
    match opts.mode {
        InlineMode::None => {}
        InlineMode::Conventional => {
            tr.span("finline.inline", |_| {
                conventional::inline_program(&mut p, &opts.heuristics)
            });
        }
        InlineMode::Annotation => {
            tr.span("finline.inline", |_| {
                annot_inline::apply(&mut p, annotations)
            });
        }
        InlineMode::AutoAnnot => {
            let rep = tr.span("finline.autogen", |_| {
                chain::generate_with_chains(&p, annotations, &AutoGenOptions::default())
            });
            tr.span("finline.inline", |_| {
                annot_inline::apply(&mut p, &rep.registry)
            });
            derived = Some(rep.registry);
        }
    }
    let report = tr.span("fpar.parallelize", |_| fpar::parallelize(&mut p, &opts.par));
    counts.loops_total += report.decisions.len() as u64;
    counts.loops_parallel += report
        .parallel_ids()
        .iter()
        .filter(|id| !id.is_annotation())
        .count() as u64;
    match opts.mode {
        InlineMode::Annotation => {
            tr.span("finline.reverse", |_| reverse::apply(&mut p, annotations));
        }
        InlineMode::AutoAnnot => {
            let reg = derived.as_ref().unwrap_or(annotations);
            tr.span("finline.reverse", |_| reverse::apply(&mut p, reg));
        }
        _ => {}
    }
    let source = tr.span("fir.print", |_| {
        let s = fir::print_program(&p);
        std::hint::black_box(fir::count_loc(&s));
        s
    });
    (p, source)
}

/// `ipp_core::verify_with_baseline_using` on the bytecode engine, stage
/// by stage, plus the two probes and the cost model.
fn verify_replay(
    tr: &mut Tracer,
    base: &RunResult,
    optimized: &Program,
    opts: &DriverOptions,
    machines: &[Machine],
    counts: &mut Counts,
) -> Result<Verdict, String> {
    let seq_opts = ExecOptions {
        check_races: true,
        max_ops: opts.verify_max_ops,
        ..Default::default()
    };
    let par_opts = ExecOptions {
        threads: opts.effective_verify_threads(),
        max_ops: opts.verify_max_ops,
        ..Default::default()
    };
    let compiled = tr.span("fruntime.lower", |_| fruntime::compile(optimized));
    let seq = tr
        .span("fruntime.exec_seq_checked", |_| {
            fruntime::run_compiled(&compiled, &seq_opts)
        })
        .map_err(|e| e.to_string())?;
    let par = tr
        .span("fruntime.exec_threaded", |_| {
            fruntime::run_compiled(&compiled, &par_opts)
        })
        .map_err(|e| e.to_string())?;
    let unchecked = ExecOptions {
        check_races: false,
        ..seq_opts.clone()
    };
    let inline = ExecOptions {
        spawn_threads: Some(false),
        ..par_opts.clone()
    };
    let seq_plain = tr.span("probe.exec_seq", |_| {
        fruntime::run_compiled(&compiled, &unchecked)
    });
    let par_inline = tr.span("probe.exec_threaded_inline", |_| {
        fruntime::run_compiled(&compiled, &inline)
    });
    let same = |r: &Result<RunResult, fruntime::RtError>| matches!(r, Ok(r) if r.same_observable(&seq, 1e-9));
    if !same(&seq_plain) || !same(&par_inline) {
        counts.threaded_mismatch += 1;
    }
    tr.span("fruntime.cost_model", |_| {
        for m in machines {
            let off = fruntime::tune(&seq.par_events, m);
            std::hint::black_box(fruntime::simulate(seq.total_ops, &seq.par_events, m, &off));
        }
    });
    let mut vm = seq.vm;
    vm.absorb(&par.vm);
    counts.vm.absorb(&vm);
    Ok(Verdict {
        matches_original: base.same_observable(&seq, 1e-12),
        parallel_consistent: seq.same_observable(&par, 1e-9),
        races: seq.races.len(),
        total_ops: seq.total_ops,
        par_events: seq.par_events,
        vm,
    })
}

/// The traced replay of `cells`. Returns per-cell outputs and
/// per-program baselines.
fn replay(
    tr: &mut Tracer,
    programs: &[SourceProgram],
    cells: &[Cell],
    opts: &DriverOptions,
    machines: &[Machine],
    counts: &mut Counts,
) -> (Vec<Replayed>, Vec<Option<Result<RunResult, String>>>) {
    let base_opts = ExecOptions {
        max_ops: opts.verify_max_ops,
        ..Default::default()
    };
    let mut parsed: Vec<Option<Parsed>> = (0..programs.len()).map(|_| None).collect();
    let mut baselines: Vec<Option<Result<RunResult, String>>> = vec![None; programs.len()];
    let mut verified: HashMap<(usize, String), Result<Verdict, String>> = HashMap::new();
    let mut out = Vec::with_capacity(cells.len());
    for (ci, cell) in cells.iter().enumerate() {
        tr.cell = ci as u32;
        let mut rep = Replayed::default();
        let depth = tr.stack.len();
        let r = catch_unwind(AssertUnwindSafe(|| {
            tr.span("cell", |tr| {
                if parsed[cell.program].is_none() {
                    let p = tr.span("fir.parse", |_| parse(&programs[cell.program]));
                    parsed[cell.program] = p.ok();
                }
                let Some(job) = parsed[cell.program].as_ref() else {
                    return;
                };
                let (optimized, source) =
                    compile_replay(tr, &job.program, &job.registry, &cell.config.opts, counts);
                rep.source = Some(source.clone());
                let base = baselines[cell.program].get_or_insert_with(|| {
                    tr.span("fruntime.baseline", |_| {
                        fruntime::run(&job.program, &base_opts).map_err(|e| e.to_string())
                    })
                });
                let base = match base {
                    Ok(b) => b,
                    Err(e) => {
                        rep.verdict = Some(Err(e.clone()));
                        return;
                    }
                };
                let key = (cell.program, source);
                if let Some(v) = verified.get(&key) {
                    rep.verdict = Some(v.clone());
                    return;
                }
                let v = verify_replay(tr, base, &optimized, opts, machines, counts);
                verified.insert(key, v.clone());
                rep.verdict = Some(v);
            })
        }));
        tr.stack.truncate(depth);
        if r.is_err() {
            rep.source = None;
        }
        out.push(rep);
    }
    (out, baselines)
}

/// Compare the replay with the library's own compile and verify.
/// Returns the number of mismatching cells.
fn fidelity(
    programs: &[SourceProgram],
    cells: &[Cell],
    replayed: &[Replayed],
    baselines: &[Option<Result<RunResult, String>>],
    opts: &DriverOptions,
) -> (u64, Vec<String>) {
    let base_opts = ExecOptions {
        max_ops: opts.verify_max_ops,
        engine: opts.engine,
        ..Default::default()
    };
    let par_opts = ExecOptions {
        threads: opts.effective_verify_threads(),
        max_ops: opts.verify_max_ops,
        engine: opts.engine,
        ..Default::default()
    };
    let mut parsed: Vec<Option<Option<Parsed>>> = (0..programs.len()).map(|_| None).collect();
    let mut refs: Vec<Option<Result<RunResult, String>>> = vec![None; programs.len()];
    let mut bad = 0;
    let mut notes = Vec::new();
    for (cell, rep) in cells.iter().zip(replayed) {
        let job = parsed[cell.program].get_or_insert_with(|| parse(&programs[cell.program]).ok());
        let Some(job) = job.as_ref() else {
            // Unparsable input: the replay must not have produced output.
            if rep.source.is_some() {
                bad += 1;
            }
            continue;
        };
        let compiled = ipp_core::compile_timed(
            &job.program,
            &job.registry,
            &cell.config.opts,
            &mut PhaseTimings::default(),
        );
        let Ok(result) = compiled else {
            if rep.source.is_some() {
                bad += 1;
                notes.push(format!(
                    "{} {}: replay compiled, driver did not",
                    programs[cell.program].name, cell.config.label
                ));
            }
            continue;
        };
        if rep.source.as_deref() != Some(result.source.as_str()) {
            bad += 1;
            notes.push(format!(
                "{} {}: replayed source differs from ipp_core::compile",
                programs[cell.program].name, cell.config.label
            ));
            continue;
        }
        let base_ref = refs[cell.program].get_or_insert_with(|| {
            ipp_core::baseline_run_with(&job.program, &base_opts).map_err(|e| e.to_string())
        });
        let base_ok = match (&baselines[cell.program], &*base_ref) {
            (Some(Ok(a)), Ok(b)) => a.same_observable(b, 0.0),
            (Some(Err(a)), Err(b)) => a == b,
            _ => false,
        };
        let want = match &*base_ref {
            Ok(b) => ipp_core::verify_with_baseline_using(b, &result.program, &par_opts)
                .map(|v| Verdict {
                    matches_original: v.matches_original,
                    parallel_consistent: v.parallel_consistent,
                    races: v.races,
                    total_ops: v.total_ops,
                    par_events: v.par_events,
                    vm: v.vm,
                })
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.clone()),
        };
        if !base_ok || rep.verdict.as_ref() != Some(&want) {
            bad += 1;
            notes.push(format!(
                "{} {}: replayed verification differs from ipp_core::verify_with_baseline_using",
                programs[cell.program].name, cell.config.label
            ));
        }
    }
    notes.truncate(5);
    (bad, notes)
}

/// Inputs of the traced run of one workload.
struct Plan {
    programs: Vec<SourceProgram>,
    cells: Vec<Cell>,
    opts: DriverOptions,
    machines: Vec<Machine>,
    /// Whether the workload's timed pass parses (suite jobs are parsed in
    /// set-up).
    parse_on_path: bool,
}

/// The driver's matrix: every program under each default column.
fn matrix(programs: usize) -> Vec<Cell> {
    (0..programs)
        .flat_map(|p| {
            ipp_core::default_configs()
                .into_iter()
                .map(move |config| Cell { program: p, config })
        })
        .collect()
}

fn suite_plan() -> Plan {
    let programs: Vec<SourceProgram> = perfect::all()
        .iter()
        .map(|a| SourceProgram {
            name: a.name.to_string(),
            source: a.source.to_string(),
            annotations: a.annotations.to_string(),
        })
        .collect();
    let cells = matrix(programs.len());
    let opts = suite::options();
    Plan {
        programs,
        cells,
        machines: opts.machines.clone(),
        opts,
        parse_on_path: false,
    }
}

fn stream_plan(seed: u64) -> Plan {
    let programs: Vec<SourceProgram> = stream::inputs(seed)
        .into_iter()
        .map(|g| SourceProgram {
            name: g.name,
            source: g.source,
            annotations: g.annotations,
        })
        .collect();
    let cells = matrix(programs.len());
    Plan {
        programs,
        cells,
        opts: stream::options(),
        machines: Vec::new(),
        parse_on_path: true,
    }
}

/// The serve plan: the requests of the latency phase in order, each its
/// own program (the service path parses and runs the baseline once per
/// request), with the configuration columns that miss a simulated
/// `RequestCache` of the daemon's capacity: one column for an evaluate
/// request, the portfolio's arms for a tournament.
fn serve_plan(reqs: &[corpus::RequestSpec]) -> Plan {
    let sopts = serve::options();
    let mut resident: std::collections::HashSet<u128> = std::collections::HashSet::new();
    let mut order: std::collections::VecDeque<u128> = std::collections::VecDeque::new();
    let mut programs = Vec::new();
    let mut cells = Vec::new();
    for r in reqs {
        let configs = if r.tournament {
            ipp_core::portfolio()
        } else {
            vec![CellConfig::for_mode(
                InlineMode::from_label(r.mode).unwrap_or(InlineMode::None),
            )]
        };
        let mut program = None;
        for config in configs {
            let key = ipp_core::arm_key(
                &config.label,
                &r.source,
                &r.annotations,
                sopts.verify_max_ops,
            );
            if !resident.insert(key) {
                continue;
            }
            order.push_back(key);
            if order.len() > sopts.cache_capacity {
                if let Some(old) = order.pop_front() {
                    resident.remove(&old);
                }
            }
            let program = *program.get_or_insert_with(|| {
                programs.push(SourceProgram {
                    name: r.name.clone(),
                    source: r.source.clone(),
                    annotations: r.annotations.clone(),
                });
                programs.len() - 1
            });
            cells.push(Cell { program, config });
        }
    }
    Plan {
        programs,
        cells,
        opts: serve::driver_options(&sopts),
        machines: ipp_core::tournament::default_machines(),
        parse_on_path: true,
    }
}

/// Per-request in-process service time, served the way the daemon's
/// workers serve it (request cache of the daemon's capacity). Returns
/// (per-request ms, evaluate_request ms, evaluate_tournament ms).
fn service_replay(reqs: &[corpus::RequestSpec]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let sopts = serve::options();
    let opts = serve::driver_options(&sopts);
    let cache = RequestCache::new(sopts.cache_capacity);
    let mut served = Vec::with_capacity(reqs.len());
    let mut evaluate = Vec::new();
    let mut tournament = Vec::new();
    for r in reqs {
        let t = Instant::now();
        if r.tournament {
            let out = evaluate_tournament_metered(
                &r.name,
                &r.source,
                &r.annotations,
                &opts,
                Some(&cache),
            );
            let _ = std::hint::black_box(out);
            tournament.push(t.elapsed().as_secs_f64() * 1e3);
        } else {
            let mode = InlineMode::from_label(r.mode).unwrap_or(InlineMode::None);
            let key = request_key(mode, &r.source, &r.annotations, sopts.verify_max_ops);
            if cache.lookup(key).is_none() {
                let te = Instant::now();
                let (out, _) =
                    evaluate_request_metered(&r.name, &r.source, &r.annotations, mode, &opts);
                evaluate.push(te.elapsed().as_secs_f64() * 1e3);
                cache.insert(key, out.map(Arc::new));
            }
        }
        served.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (served, evaluate, tournament)
}

/// Median microseconds of `f` over `items`.
fn median_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = items
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// The server-layer figures of the serve workload.
fn serve_layers(
    cfg: &RunConfig,
    reqs: &[corpus::RequestSpec],
    (served, evaluate, tournament): (Vec<f64>, Vec<f64>, Vec<f64>),
    m: &mut Values,
    out: &mut Outcome,
) {
    let sopts = serve::options();
    let payloads: Vec<String> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| serve::payload(i, r))
        .collect();

    m.set(
        "service.evaluate_ms_p50",
        stats::percentile(&evaluate, 50.0),
    );
    m.set(
        "service.evaluate_ms_p99",
        stats::percentile(&evaluate, 99.0),
    );
    m.set(
        "service.tournament_ms_p50",
        stats::percentile(&tournament, 50.0),
    );

    // Framing and admission, timed call by call.
    m.set(
        "server.decode_us",
        median_us(&payloads, |p| {
            std::hint::black_box(server::proto::decode_request(p).ok());
        }),
    );
    let dopts = serve::driver_options(&sopts);
    let reports: Vec<Option<Result<ipp_core::RequestReport, ipp_core::TournamentReport>>> = reqs
        .iter()
        .take(64)
        .map(|r| {
            if r.tournament {
                ipp_core::evaluate_tournament(&r.name, &r.source, &r.annotations, &dopts, None)
                    .ok()
                    .map(Err)
            } else {
                let mode = InlineMode::from_label(r.mode).unwrap_or(InlineMode::None);
                ipp_core::evaluate_request(&r.name, &r.source, &r.annotations, mode, &dopts)
                    .ok()
                    .map(Ok)
            }
        })
        .collect();
    m.set(
        "server.encode_us",
        median_us(&reports, |rep| match rep {
            Some(Ok(r)) => {
                std::hint::black_box(server::proto::ok_response("r0", r));
            }
            Some(Err(t)) => {
                std::hint::black_box(server::proto::tournament_response("r0", t));
            }
            None => {}
        }),
    );
    let buckets = TokenBuckets::new(
        sopts.verify_max_ops,
        sopts.client_burst,
        sopts.client_refill_per_sec,
        sopts.max_clients,
    );
    let queue: AdmissionQueue<usize> = AdmissionQueue::new(sopts.queue_capacity);
    m.set(
        "server.admission_us",
        median_us(&payloads, |_| {
            let admitted = buckets.try_admit("perfbench").is_ok() && queue.try_push(0).is_ok();
            std::hint::black_box(admitted && queue.pop().is_some());
        }),
    );

    // The daemon under the latency phase's schedule: client time minus
    // in-process service time is the accept wait, framing and queueing.
    let handle = serve::spawn();
    let addr = handle.addr();
    let shots = crate::loadgen::run(
        addr,
        &payloads,
        serve::FIXED_RATE,
        serve::connections(),
        &|_| false,
    );
    let metrics = serve::fetch_metrics(addr);
    handle.shutdown();
    let overhead: Vec<f64> = shots
        .iter()
        .filter_map(|s| Some(s.service_ms() - served.get(s.index)?))
        .collect();
    m.set("server.overhead_ms_p50", stats::percentile(&overhead, 50.0));
    let late: Vec<f64> = shots
        .iter()
        .filter_map(crate::loadgen::Shot::late_ms)
        .collect();
    m.set("loadgen.late_ms_p99", stats::percentile(&late, 99.0));
    let want = serve::reference(cfg.seed, reqs, &sopts);
    for s in &shots {
        out.attempted += 1;
        let ok =
            matches!(&s.response, Ok(r) if Some(&crate::oracle::digest(r)) == want.get(s.index));
        if !ok {
            out.failed += 1;
        }
    }
    match metrics {
        Ok(sm) => {
            let g = |k: &str| sm.get(k).copied().unwrap_or(0) as f64;
            m.set(
                "service.cache_hit_ratio",
                stats::ratio(g("cache_hits"), g("cache_hits") + g("cache_misses")),
            );
            m.set("server.queue_peak", g("queue_peak"));
            m.set("server.shed", g("shed"));
            m.set("server.throttled", g("throttled"));
            for p in serve::ledger_problems(&sm) {
                out.valid = false;
                out.notes.push(p);
            }
        }
        Err(e) => {
            out.valid = false;
            out.notes.push(format!("metrics fetch failed: {e}"));
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let serve_reqs = (cfg.workload == "serve").then(|| serve::inputs(cfg.seed, serve::FIXED_COUNT));
    let plan = match cfg.workload.as_str() {
        "suite" => suite_plan(),
        "stream" => stream_plan(cfg.seed),
        _ => serve_plan(serve_reqs.as_deref().unwrap_or(&[])),
    };
    let mut m = Values::default();
    let mut out = Outcome {
        valid: true,
        ..Outcome::default()
    };
    let mut not_exercised: Vec<&str> = Vec::new();

    // The same work, untraced, by the single-threaded driver (for serve:
    // the daemon's per-request service path, in process): the base of
    // coverage and tracing overhead, and the source of core counters.
    let single = DriverOptions {
        workers: 1,
        ..plan.opts.clone()
    };
    let mut service = None;
    let jobs = (cfg.workload == "suite").then(suite::inputs);
    let gens = (cfg.workload == "stream").then(|| stream::inputs(cfg.seed));
    let t = Instant::now();
    match cfg.workload.as_str() {
        "suite" => {
            let o = ipp_core::run_suite(jobs.as_deref().unwrap_or(&[]), &single).metrics;
            m.set("core.interp_runs", o.interp_runs as f64);
            m.set("core.baseline_memo_hits", o.baseline_memo_hits as f64);
            m.set(
                "core.verify_cache_hit_ratio",
                stats::ratio(o.verify_cache_hits as f64, o.cells.len() as f64),
            );
        }
        "stream" => {
            let gens = gens.as_deref().unwrap_or(&[]);
            let o = ipp_core::run_stream(gens.iter().map(stream::job), &single).summary;
            m.set("core.interp_runs", o.interp_runs as f64);
            m.set("core.baseline_memo_hits", 0.0);
            out.notes.push(
                "core.baseline_memo_hits: StreamSummary does not report memo hits; 0 is a placeholder"
                    .into(),
            );
            m.set(
                "core.verify_cache_hit_ratio",
                stats::ratio(o.verify_cache_hits as f64, o.cells as f64),
            );
        }
        _ => {
            service = Some(service_replay(serve_reqs.as_deref().unwrap_or(&[])));
            for k in [
                "core.interp_runs",
                "core.baseline_memo_hits",
                "core.verify_cache_hit_ratio",
            ] {
                m.set(k, 0.0);
                not_exercised.push(k);
            }
        }
    }
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;

    // The traced replay.
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let t = Instant::now();
    let (replayed, baselines) = replay(
        &mut tr,
        &plan.programs,
        &plan.cells,
        &plan.opts,
        &plan.machines,
        &mut counts,
    );
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;

    let (bad, notes) = fidelity(
        &plan.programs,
        &plan.cells,
        &replayed,
        &baselines,
        &plan.opts,
    );
    out.attempted += plan.cells.len() as u64;
    out.failed += bad + counts.threaded_mismatch;
    out.notes.extend(notes);
    if counts.threaded_mismatch > 0 {
        out.notes.push(format!(
            "{} cells: unchecked or inline-threaded run not same_observable with the checked run",
            counts.threaded_mismatch
        ));
    }

    for (metric, span) in [
        ("fir.parse_ms", "fir.parse"),
        ("fir.normalize_ms", "fir.normalize"),
        ("fir.print_ms", "fir.print"),
        ("finline.inline_ms", "finline.inline"),
        ("finline.autogen_ms", "finline.autogen"),
        ("finline.reverse_ms", "finline.reverse"),
        ("fpar.parallelize_ms", "fpar.parallelize"),
        ("fruntime.lower_ms", "fruntime.lower"),
        ("fruntime.baseline_ms", "fruntime.baseline"),
        ("fruntime.exec_seq_ms", "probe.exec_seq"),
        ("fruntime.exec_seq_checked_ms", "fruntime.exec_seq_checked"),
        ("fruntime.exec_threaded_ms", "fruntime.exec_threaded"),
        (
            "fruntime.exec_threaded_inline_ms",
            "probe.exec_threaded_inline",
        ),
        ("fruntime.cost_model_ms", "fruntime.cost_model"),
    ] {
        m.set(metric, tr.self_ms(span));
    }
    m.set(
        "fruntime.race_check_ms",
        tr.self_ms("fruntime.exec_seq_checked") - tr.self_ms("probe.exec_seq"),
    );
    m.set(
        "fruntime.spawn_ratio",
        stats::ratio(
            tr.self_ms("fruntime.exec_threaded"),
            tr.self_ms("probe.exec_threaded_inline"),
        ),
    );
    m.set("fpar.loops_total", counts.loops_total as f64);
    m.set("fpar.loops_parallel", counts.loops_parallel as f64);
    m.set("fruntime.insns_retired", counts.vm.insns_retired as f64);
    m.set("fruntime.fused_insns", counts.vm.fused_insns as f64);
    m.set("fruntime.warm_allocs", counts.vm.warm_allocs as f64);

    // Coverage and tracing overhead against the untraced single-threaded
    // pass.
    let mut on_path: Vec<&str> = ON_PATH.to_vec();
    if plan.parse_on_path {
        on_path.push("fir.parse");
    }
    let covered: f64 = on_path.iter().map(|s| tr.self_ms(s)).sum();
    let probes: f64 = PROBES.iter().map(|s| tr.total_ms(s)).sum();
    m.set(
        "trace.coverage_pct",
        100.0 * stats::ratio(covered, untraced_ms),
    );
    m.set(
        "trace.overhead_pct",
        100.0 * stats::ratio(traced_ms - probes - untraced_ms, untraced_ms),
    );

    if let (Some(reqs), Some(service)) = (serve_reqs.as_deref(), service) {
        serve_layers(cfg, reqs, service, &mut m, &mut out);
    } else {
        for k in [
            "service.evaluate_ms_p50",
            "service.evaluate_ms_p99",
            "service.tournament_ms_p50",
            "service.cache_hit_ratio",
            "server.decode_us",
            "server.encode_us",
            "server.admission_us",
            "server.overhead_ms_p50",
            "server.queue_peak",
            "server.shed",
            "server.throttled",
            "loadgen.late_ms_p99",
        ] {
            m.set(k, 0.0);
            not_exercised.push(k);
        }
    }
    if !not_exercised.is_empty() {
        out.notes.push(format!(
            "not on this workload's path, reported as 0: {}",
            not_exercised.join(", ")
        ));
    }
    out.notes.push(format!(
        "{} cells replayed over {} programs; traced {:.1} ms (probes {:.1} ms), untraced single-threaded {:.1} ms",
        plan.cells.len(),
        plan.programs.len(),
        traced_ms,
        probes,
        untraced_ms
    ));

    let path = format!(".perfbench/trace-{}-{}.json", cfg.workload, cfg.seed);
    let written =
        std::fs::create_dir_all(".perfbench").and_then(|_| std::fs::write(&path, tr.to_json()));
    match written {
        Ok(()) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.notes.push(format!("spans not written to {path}: {e}")),
    }
    out.metrics = m;
    out
}
