//! The metric vocabulary: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` declares the same names; the self-tests keep the two
//! in step.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("programs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fir.parse_ms", "ms"),
    ("fir.normalize_ms", "ms"),
    ("fir.print_ms", "ms"),
    ("finline.inline_ms", "ms"),
    ("finline.autogen_ms", "ms"),
    ("finline.reverse_ms", "ms"),
    ("fpar.parallelize_ms", "ms"),
    ("fpar.loops_total", "count"),
    ("fpar.loops_parallel", "count"),
    ("fruntime.lower_ms", "ms"),
    ("fruntime.baseline_ms", "ms"),
    ("fruntime.exec_seq_ms", "ms"),
    ("fruntime.exec_seq_checked_ms", "ms"),
    ("fruntime.race_check_ms", "ms"),
    ("fruntime.exec_threaded_ms", "ms"),
    ("fruntime.exec_threaded_inline_ms", "ms"),
    ("fruntime.spawn_ratio", "ratio"),
    ("fruntime.insns_retired", "count"),
    ("fruntime.fused_insns", "count"),
    ("fruntime.warm_allocs", "count"),
    ("fruntime.cost_model_ms", "ms"),
    ("core.interp_runs", "count"),
    ("core.baseline_memo_hits", "count"),
    ("core.verify_cache_hit_ratio", "ratio"),
    ("service.evaluate_ms_p50", "ms"),
    ("service.evaluate_ms_p99", "ms"),
    ("service.tournament_ms_p50", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("server.decode_us", "us"),
    ("server.encode_us", "us"),
    ("server.admission_us", "us"),
    ("server.overhead_ms_p50", "ms"),
    ("server.queue_peak", "count"),
    ("server.shed", "count"),
    ("server.throttled", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Metric values of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// `{"name":{"value":v,"unit":u},...}` over `vocabulary`, in its
    /// order. A name never recorded is an error: the result line must
    /// carry every declared metric.
    pub fn to_json(&self, vocabulary: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(vocabulary.len());
        for (name, unit) in vocabulary {
            let v = self
                .0
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", parts.join(",")))
    }
}
