//! The benchmark's own checks: inputs are pure in the seed, and the
//! metric vocabulary is well formed and matches `BENCHMARK.json`.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{serve, stream, suite, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
use server::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_use_the_allowed_alphabet_and_are_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name}"
        );
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit} of {name}"
        );
        assert!(seen.insert(*name), "metric {name} declared twice");
    }
}

#[test]
fn vocabulary_matches_benchmark_json() {
    let doc = benchmark_json();
    let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
    assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let declared: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(declared, WORKLOADS);
}

#[test]
fn seeds_are_distinct() {
    assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
}

#[test]
fn suite_inputs_do_not_depend_on_the_seed() {
    let a: Vec<String> = suite::inputs()
        .iter()
        .map(|j| format!("{:?}", j.program))
        .collect();
    let b: Vec<String> = suite::inputs()
        .iter()
        .map(|j| format!("{:?}", j.program))
        .collect();
    assert_eq!(a, b);
    assert_eq!(a.len(), 12);
}

#[test]
fn stream_inputs_are_pure_in_the_seed() {
    let text = |seed| -> Vec<(String, String)> {
        stream::inputs(seed)
            .into_iter()
            .map(|g| (g.source, g.annotations))
            .collect()
    };
    let a = text(DEFAULT_SEED);
    assert_eq!(a.len() as u64, stream::PROGRAMS);
    assert_eq!(a, text(DEFAULT_SEED));
    assert_ne!(a, text(HELD_OUT_SEED));
}

#[test]
fn serve_inputs_are_pure_in_the_seed() {
    let wire = |seed| -> Vec<String> {
        serve::inputs(seed, 300)
            .iter()
            .enumerate()
            .map(|(i, r)| serve::payload(i, r))
            .collect()
    };
    let a = wire(DEFAULT_SEED);
    assert_eq!(a, wire(DEFAULT_SEED));
    assert_ne!(a, wire(HELD_OUT_SEED));
    let reqs = serve::inputs(DEFAULT_SEED, 300);
    let tournaments = reqs.iter().filter(|r| r.tournament).count();
    assert!(
        (10..=60).contains(&tournaments),
        "{tournaments} tournaments in 300"
    );
    let distinct: std::collections::BTreeSet<&str> = reqs.iter().map(|r| r.name.as_str()).collect();
    assert!(distinct.len() as u64 <= serve::POOL);
}

#[test]
fn ledger_check_flags_imbalance_and_throttling() {
    let m = |pairs: &[(&str, u64)]| -> std::collections::HashMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    };
    assert!(
        serve::ledger_problems(&m(&[("requests", 3), ("completed_ok", 2), ("failed", 1)]))
            .is_empty()
    );
    assert_eq!(
        serve::ledger_problems(&m(&[("requests", 3), ("completed_ok", 2)])).len(),
        1
    );
    assert_eq!(
        serve::ledger_problems(&m(&[("requests", 1), ("throttled", 1)])).len(),
        1
    );
}
