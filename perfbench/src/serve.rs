//! `serve`: an in-process `server::spawn` daemon with default options,
//! except token buckets that never bind at the offered rates, driven
//! open loop from `corpus::mixed_requests(seed, n, 64, 10)`: a pool of 64
//! programs, so lookups revisit `RequestCache` entries, and about 10%
//! tournaments. Each request uses its own connection, at most `nproc`
//! open at once. The only workload that exercises `server` and
//! `ipp_core::service`.
//!
//! Two phases: a fixed rate of [`FIXED_RATE`] req/s (about half the
//! fresh-connection ceiling) for the latency figures, then a rate ladder
//! for the highest rate whose p99 stays within [`LATENCY_LIMIT_MS`]
//! without a growing backlog.

use crate::loadgen::{self, Shot};
use crate::metrics::Values;
use crate::{oracle, stats, Outcome, RunConfig};
use corpus::RequestSpec;
use fruntime::Engine;
use ipp_core::service::{evaluate_request, evaluate_tournament};
use ipp_core::{DriverOptions, InlineMode};
use server::json::{self, Json};
use server::proto::{self, EvaluateRequest, TournamentRequest};
use server::{ServerHandle, ServerOptions};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Distinct programs the request stream draws from.
pub const POOL: u64 = 64;
/// Share of requests that are portfolio tournaments, in percent.
pub const TOURNAMENT_PERCENT: u64 = 10;
/// Offered rate of the latency phase, requests per second.
pub const FIXED_RATE: f64 = 100.0;
/// The latency limit of the rate ladder, on p99.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Ladder rungs are `FIXED_RATE * RUNG_STEP^k` for `k` in `-K_MAX..=K_MAX`.
const RUNG_STEP: f64 = 1.05;
const K_MAX: i32 = 71;
/// Generator lateness (p99, latency phase) beyond which a run is
/// reported invalid rather than fast or slow: one inter-arrival gap, so
/// an invalid run sent 1% of its requests a whole slot late. Wake-up
/// jitter on a busy host stays well below it.
pub const GENERATOR_LATE_LIMIT_MS: f64 = 1000.0 / FIXED_RATE;
/// Length of one ladder rung.
const RUNG: Duration = Duration::from_secs(2);
/// Client identity of every request.
const CLIENT: &str = "perfbench";

/// Daemon options: the defaults, with token buckets sized so they never
/// bind at any rate the ladder offers.
pub fn options() -> ServerOptions {
    ServerOptions {
        client_burst: 1_000_000,
        client_refill_per_sec: 1e6,
        ..ServerOptions::default()
    }
}

/// The driver options the daemon evaluates requests with
/// (mirrors the daemon's own mapping from its options).
pub fn driver_options(opts: &ServerOptions) -> DriverOptions {
    DriverOptions {
        verify_max_ops: opts.verify_max_ops,
        wall_budget_ms: opts.wall_budget_ms,
        engine: opts.engine,
        ..Default::default()
    }
}

/// Concurrent connections of the load generator.
pub fn connections() -> usize {
    crate::host::nproc()
}

/// Requests of the latency phase: enough that p99 has ten samples
/// beyond it.
pub const FIXED_COUNT: usize = 1000;

/// The request stream: `n` requests, pure in `seed`.
pub fn inputs(seed: u64, n: usize) -> Vec<RequestSpec> {
    corpus::mixed_requests(seed, n as u64, POOL, TOURNAMENT_PERCENT).collect()
}

/// Wire payload of request `i`.
pub fn payload(i: usize, r: &RequestSpec) -> String {
    if r.tournament {
        proto::encode_tournament(&TournamentRequest {
            id: format!("r{i}"),
            client: CLIENT.into(),
            name: r.name.clone(),
            source: r.source.clone(),
            annotations: r.annotations.clone(),
        })
    } else {
        proto::encode_evaluate(&EvaluateRequest {
            id: format!("r{i}"),
            client: CLIENT.into(),
            name: r.name.clone(),
            mode: mode_of(r),
            source: r.source.clone(),
            annotations: r.annotations.clone(),
        })
    }
}

fn mode_of(r: &RequestSpec) -> InlineMode {
    InlineMode::from_label(r.mode).unwrap_or(InlineMode::None)
}

/// The response the daemon must send for request `i`, evaluated with
/// `opts` (the reference passes the tree-walking engine).
pub fn expected_response(i: usize, r: &RequestSpec, opts: &DriverOptions) -> String {
    let id = format!("r{i}");
    let out = if r.tournament {
        evaluate_tournament(&r.name, &r.source, &r.annotations, opts, None)
            .map(|t| proto::tournament_response(&id, &t))
    } else {
        evaluate_request(&r.name, &r.source, &r.annotations, mode_of(r), opts)
            .map(|rep| proto::ok_response(&id, &rep))
    };
    out.unwrap_or_else(|mut e| {
        e.app = r.name.clone();
        proto::error_response(&id, &e)
    })
}

/// Reference response digests, one per request, from the tree-walking
/// engine with no wall-clock budget (a wall-clock timeout is a host
/// condition, never a correct answer).
pub fn reference(seed: u64, reqs: &[RequestSpec], opts: &ServerOptions) -> Vec<String> {
    oracle::cached(&format!("serve-{seed}-{}", reqs.len()), || {
        let tw = DriverOptions {
            engine: Engine::TreeWalk,
            wall_budget_ms: 0,
            ..driver_options(opts)
        };
        // Responses differ only in the echoed id: evaluate each distinct
        // request once, with a placeholder id, and substitute.
        let mut by_content: HashMap<(bool, &str, &str, &str, &str), String> = HashMap::new();
        reqs.iter()
            .enumerate()
            .map(|(i, r)| {
                let key = (
                    r.tournament,
                    r.mode,
                    r.name.as_str(),
                    r.source.as_str(),
                    r.annotations.as_str(),
                );
                let template = by_content
                    .entry(key)
                    .or_insert_with(|| expected_response(0, r, &tw));
                oracle::digest(&template.replacen("\"id\":\"r0\"", &format!("\"id\":\"r{i}\""), 1))
            })
            .collect()
    })
}

/// Spawn the daemon.
pub fn spawn() -> ServerHandle {
    server::spawn(options()).expect("bind the daemon on 127.0.0.1")
}

/// The daemon's `op:"metrics"` counters, by name.
pub fn fetch_metrics(addr: SocketAddr) -> Result<HashMap<String, u64>, String> {
    let resp = loadgen::exchange(addr, "{\"op\":\"metrics\"}")?;
    let doc = json::parse(&resp).map_err(|e| e.to_string())?;
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err(format!("no metrics object in {resp}"));
    };
    Ok(fields
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect())
}

/// Check the ledger of a metrics snapshot: every request lands in one
/// bucket, and the token buckets never bound.
pub fn ledger_problems(m: &HashMap<String, u64>) -> Vec<String> {
    let g = |k: &str| m.get(k).copied().unwrap_or(0);
    let mut problems = Vec::new();
    let settled =
        g("completed_ok") + g("failed") + g("shed") + g("throttled") + g("rejected_draining");
    if g("requests") != settled {
        problems.push(format!(
            "ledger does not balance: requests {} != completed_ok+failed+shed+throttled+rejected_draining {}",
            g("requests"),
            settled
        ));
    }
    if g("throttled") != 0 {
        problems.push(format!("token buckets bound: throttled {}", g("throttled")));
    }
    problems
}

/// Outcome of one ladder rung.
struct Rung {
    pass: bool,
    shots: Vec<Shot>,
}

fn rung(addr: SocketAddr, payloads: &[String], rate: f64) -> Rung {
    let n = ((rate * RUNG.as_secs_f64()).round() as usize).clamp(1, payloads.len());
    // p99 fails once more than 1% of the rung has exceeded the limit.
    let allowed = n / 100;
    let over = std::sync::atomic::AtomicUsize::new(0);
    let give_up = |lat: f64| {
        lat > LATENCY_LIMIT_MS && over.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= allowed
    };
    let shots = loadgen::run(addr, &payloads[..n], rate, connections(), &give_up);
    Rung {
        pass: within_limit(&shots, n),
        shots,
    }
}

/// True when all `n` requests were answered, p99 latency stays within
/// [`LATENCY_LIMIT_MS`], and the backlog did not grow: the last request
/// went out no later than the limit after its due time.
fn within_limit(shots: &[Shot], n: usize) -> bool {
    let lat: Vec<f64> = shots.iter().map(Shot::latency_ms).collect();
    let backlog_ms = shots
        .last()
        .map(|s| s.sent.saturating_sub(s.due).as_secs_f64() * 1e3)
        .unwrap_or(f64::INFINITY);
    shots.len() == n
        && shots.iter().all(|s| s.response.is_ok())
        && stats::percentile(&lat, 99.0) <= LATENCY_LIMIT_MS
        && backlog_ms <= LATENCY_LIMIT_MS
}

fn rate_of(k: i32) -> f64 {
    FIXED_RATE * RUNG_STEP.powi(k)
}

/// Find the highest ladder rate that passes, starting from what the
/// fixed-rate phase showed about `FIXED_RATE` (`k = 0`), within
/// `budget`. Returns the rate and every shot sent.
fn ladder(
    addr: SocketAddr,
    payloads: &[String],
    fixed_pass: bool,
    budget: Duration,
) -> (f64, Vec<Shot>, Vec<String>) {
    let t0 = Instant::now();
    let mut shots = Vec::new();
    let mut log = Vec::new();
    let (mut lo, mut hi) = if fixed_pass {
        (Some(0), None)
    } else {
        (None, Some(0))
    };
    let mut test = |k: i32, shots: &mut Vec<Shot>| {
        let r = rung(addr, payloads, rate_of(k));
        log.push(format!(
            "{:.1}:{}",
            rate_of(k),
            if r.pass { "pass" } else { "fail" }
        ));
        shots.extend(r.shots);
        r.pass
    };
    // Gallop away from the known rung, then bisect.
    let mut k = 0;
    while lo.is_none() || hi.is_none() {
        if t0.elapsed() >= budget {
            break;
        }
        k = if lo.is_some() {
            (k + 16).min(K_MAX)
        } else {
            (k - 16).max(-K_MAX)
        };
        if test(k, &mut shots) {
            lo = Some(k);
            if k == K_MAX {
                break;
            }
        } else {
            hi = Some(k);
            if k == -K_MAX {
                break;
            }
        }
    }
    while let (Some(l), Some(h)) = (lo, hi) {
        if h - l <= 1 || t0.elapsed() >= budget {
            break;
        }
        let mid = (l + h) / 2;
        if test(mid, &mut shots) {
            lo = Some(mid);
        } else {
            hi = Some(mid);
        }
    }
    let best = lo.map(rate_of).unwrap_or(rate_of(-K_MAX) / RUNG_STEP);
    (best, shots, log)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let n_fixed = FIXED_COUNT;
    let n_ladder = (rate_of(K_MAX) * RUNG.as_secs_f64()).ceil() as usize;
    let n_total = n_fixed + n_ladder;
    // Set-up is generating and encoding the requests plus spawning the
    // daemon; shutting the extra daemons down is not timed.
    let setups: Vec<f64> = (0..crate::SETUPS)
        .map(|_| {
            let t = Instant::now();
            let payloads: Vec<String> = inputs(cfg.seed, n_total)
                .iter()
                .enumerate()
                .map(|(i, r)| payload(i, r))
                .collect();
            let handle = spawn();
            let s = t.elapsed().as_secs_f64();
            std::hint::black_box(payloads);
            handle.shutdown();
            s
        })
        .collect();
    let setup = stats::median(&setups);
    let reqs = inputs(cfg.seed, n_total);
    let payloads: Vec<String> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| payload(i, r))
        .collect();
    let handle = spawn();
    let addr = handle.addr();

    let t0 = Instant::now();
    let (fixed, peak_rss) = crate::host::with_peak_rss(|| {
        loadgen::run(
            addr,
            &payloads[..n_fixed],
            FIXED_RATE,
            connections(),
            &|_| false,
        )
    });
    let fixed_wall = fixed
        .iter()
        .map(|s| s.done)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let lat: Vec<f64> = fixed.iter().map(Shot::latency_ms).collect();
    let late: Vec<f64> = fixed.iter().filter_map(Shot::late_ms).collect();
    let fixed_pass = within_limit(&fixed, n_fixed);
    let budget = cfg.seconds.saturating_sub(t0.elapsed());
    let (max_rate, ladder_shots, rung_log) = ladder(addr, &payloads[n_fixed..], fixed_pass, budget);

    let metrics = fetch_metrics(addr);
    handle.shutdown();

    let want = reference(cfg.seed, &reqs, &options());
    let mut notes = Vec::new();
    let mut valid = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (offset, shots) in [(0, &fixed), (n_fixed, &ladder_shots)] {
        for s in shots {
            attempted += 1;
            let ok = matches!(&s.response, Ok(r) if Some(&oracle::digest(r)) == want.get(offset + s.index));
            if !ok {
                failed += 1;
            }
        }
    }
    match &metrics {
        Ok(m) => {
            for p in ledger_problems(m) {
                valid = false;
                notes.push(p);
            }
        }
        Err(e) => {
            valid = false;
            notes.push(format!("metrics fetch failed: {e}"));
        }
    }
    let late_p99 = stats::percentile(&late, 99.0);
    if late_p99 > GENERATOR_LATE_LIMIT_MS {
        valid = false;
        notes.push(format!(
            "invalid: the load generator ran {late_p99:.2} ms late at p99 (limit {GENERATOR_LATE_LIMIT_MS} ms)"
        ));
    }
    notes.push(format!(
        "fixed phase: {} requests at {FIXED_RATE} req/s, generator late p99 {late_p99:.3} ms; ladder {}",
        fixed.len(),
        rung_log.join(" ")
    ));

    let ok_fixed = fixed
        .iter()
        .filter(|s| matches!(&s.response, Ok(r) if r.starts_with("{\"status\":\"ok\"")))
        .count() as f64;
    let mut m = Values::default();
    m.set("setup_s", setup);
    m.set("wall_s", fixed_wall);
    m.set("programs_per_s", ok_fixed / fixed_wall.max(1e-9));
    m.set("latency_p50_ms", stats::percentile(&lat, 50.0));
    m.set("latency_p99_ms", stats::percentile(&lat, 99.0));
    m.set("max_rate_rps", max_rate);
    m.set("peak_rss_mb", peak_rss);
    m.set(
        "ok_rate",
        1.0 - stats::ratio(failed as f64, attempted as f64),
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
        notes,
        valid,
    }
}
