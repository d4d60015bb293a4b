//! Portfolio tournaments on the real 12-application suite: determinism,
//! cache-sharing economics, and the best-of-portfolio guarantee.
//!
//! The tournament report is the committed `tournament.json` artifact and
//! the CI winner-stability gate, so its contract is strict: byte-identical
//! JSON at any worker count, portfolio cost far below arms × the uncached
//! per-configuration cost, and a winner that beats or ties every fixed
//! configuration on every app (argmax over a superset, so this can only
//! fail if scoring itself regresses). The daemon's per-request surfaces
//! (`evaluate_tournament`, `evaluate_request`) must agree with the batch
//! tournament and suite on every app.

use fruntime::Machine;
use ipp_core::driver::DriverOptions;
use ipp_core::service::{evaluate_request, evaluate_tournament};
use ipp_core::tournament::run_tournament;
use ipp_core::{source_key, InlineMode, TournamentOutcome};
use perfect::suite_jobs;
use std::sync::OnceLock;

fn run_at(workers: usize) -> TournamentOutcome {
    let opts = DriverOptions {
        workers,
        machines: vec![Machine::intel8(), Machine::amd4()],
        ..Default::default()
    };
    run_tournament(&suite_jobs(), &opts)
}

#[test]
fn tournament_report_is_byte_identical_across_worker_counts() {
    let base = run_at(1);
    let json = base.to_json();
    for workers in [2, 8] {
        assert_eq!(
            json,
            run_at(workers).to_json(),
            "tournament report diverged at {workers} workers"
        );
    }
}

/// The 2-worker outcome, shared by the tests that only read it.
fn at_two_workers() -> &'static TournamentOutcome {
    static OUT: OnceLock<TournamentOutcome> = OnceLock::new();
    OUT.get_or_init(|| run_at(2))
}

#[test]
fn portfolio_shares_caches_across_arms() {
    let out = at_two_workers();
    let arms = out.arm_labels.len() as u64;
    let apps = out.apps.len() as u64;
    assert_eq!(apps, 12);
    assert_eq!(out.metrics.configs, arms);

    // Uncached, every arm would pay 3 interpreter runs (baseline +
    // sequential + parallel verification). The shared baseline memo and
    // the verify-dedup cache must hold the whole portfolio to at most
    // half of that; per app, strictly under the uncached bill.
    let total: u64 = out.apps.iter().map(|a| a.interp_runs).sum();
    let uncached = 3 * arms * apps;
    assert!(
        total <= uncached / 2,
        "portfolio cost not shared: {total} interpreter runs vs {uncached} uncached"
    );
    for app in &out.apps {
        assert!(
            app.interp_runs < 3 * arms,
            "{}: {} interpreter runs, cache sharing inert",
            app.app,
            app.interp_runs
        );
        assert!(
            app.arms_cached > 0,
            "{}: no arm was served from the verify-dedup cache",
            app.app
        );
    }
    // The driver-level counters agree with the per-app receipts.
    assert_eq!(out.metrics.interp_runs, total);
}

#[test]
fn winner_beats_every_fixed_configuration_everywhere() {
    let out = at_two_workers();
    for app in &out.apps {
        let winner = app
            .winner
            .as_deref()
            .unwrap_or_else(|| panic!("{}: no arm survived verification", app.app));
        for arm in &app.arms {
            if let Some(score) = arm.score_micros {
                assert!(
                    app.winner_score_micros >= score,
                    "{}: winner {winner} ({}) loses to arm {} ({score})",
                    app.app,
                    app.winner_score_micros,
                    arm.arm
                );
            }
        }
        // The four classic modes are all in the portfolio, so the winner
        // dominating every scored arm implies best-of-portfolio >= every
        // fixed configuration. Make the premise explicit:
        for mode in InlineMode::all() {
            assert!(
                app.arms.iter().any(|a| a.arm == mode.label()),
                "{}: portfolio lost fixed arm {}",
                app.app,
                mode.label()
            );
        }
    }
}

#[test]
fn daemon_requests_agree_with_the_batch_tournament_and_suite() {
    let batch = at_two_workers();
    let suite = perfect::evaluate_suite(&[]);
    let opts = DriverOptions::default();
    for ((app, record), eval) in perfect::all().iter().zip(&batch.apps).zip(&suite) {
        assert_eq!(record.app, app.name);
        let t = evaluate_tournament(app.name, app.source, app.annotations, &opts, None)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(t.winner, record.winner, "{}", app.name);
        assert_eq!(
            t.winner_score_micros, record.winner_score_micros,
            "{}",
            app.name
        );
        assert_eq!(t.gained, record.gained, "{}", app.name);
        assert_eq!(t.lost, record.lost, "{}", app.name);
        assert_eq!(t.arms.len(), record.arms.len(), "{}", app.name);
        for (arm, row) in t.arms.iter().zip(&record.arms) {
            let at = format!("{} [{}]", app.name, row.arm);
            assert_eq!(arm.arm, row.arm, "{at}");
            assert_eq!(arm.score_micros, row.score_micros, "{at}");
            assert_eq!(arm.loops_parallel, row.loops_parallel, "{at}");
            assert_eq!(arm.loc, row.loc, "{at}");
            assert_eq!(arm.error, row.error, "{at}");
        }

        assert_eq!(eval.results.len(), InlineMode::all().len(), "{}", app.name);
        for ((mode, result), (_, verify)) in eval.results.iter().zip(&eval.verify) {
            let at = format!("{} [{}]", app.name, mode.label());
            let r = evaluate_request(app.name, app.source, app.annotations, *mode, &opts)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(r.total_ops, verify.total_ops, "{at}");
            assert_eq!(r.races, verify.races, "{at}");
            assert_eq!(r.loc, result.loc, "{at}");
            assert_eq!(r.source_key, source_key(&result.source), "{at}");
        }
    }
}
