//! Metric names, units and the result line.
//!
//! The names here must match `BENCHMARK.json`; the crate's tests check
//! that the two agree.

use cm_trace::Json;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vm.ns_per_step", "ns/step"),
    ("vm.run_us", "us"),
    ("vm.steps", "count"),
    ("vm.captures", "count"),
    ("vm.reifications", "count"),
    ("vm.fusions", "count"),
    ("vm.copies", "count"),
    ("vm.fusion_ratio", "ratio"),
    ("vm.attachments_pushed", "count"),
    ("vm.allocations", "count"),
    ("vm.collections", "count"),
    ("vm.bytes_live_peak", "bytes"),
    ("sexpr.parse_us", "us"),
    ("sexpr.datums", "count"),
    ("compiler.compile_us", "us"),
    ("compiler.code_instrs", "count"),
    ("core.engine_new_us", "us"),
    ("analysis.verify_us", "us"),
    ("engines.restore_us", "us"),
    ("engines.snapshot_us", "us"),
    ("engines.snapshot_bytes", "bytes"),
    ("engines.checkpoints", "count"),
    ("engines.slice_us", "us"),
    ("engines.queue_wait_ms", "ms"),
    ("engines.worker_busy_frac", "ratio"),
    ("engines.worker_load_jain", "ratio"),
    ("engines.steals", "count"),
    ("engines.migrations", "count"),
    ("bench.trace_ops", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// A name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// What one run produced: the op tally and its metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted (program calls, scripts or tasks).
    pub attempted: u64,
    /// Ops that failed, timed out or returned a wrong result, plus
    /// set-up checks that failed.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub errors: Vec<String>,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one failed op (keeping the first few messages).
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    /// The outcome of a run whose set-up failed: one failed op and no
    /// metrics.
    pub fn setup_failed(mut self, e: String) -> Outcome {
        self.attempted += 1;
        self.fail(format!("set-up: {e}"));
        self
    }

    /// Whether every op was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric called `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }

    /// The result object:
    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::str(unit_of(m.name))),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num(self.attempted)),
            ("failed".into(), Json::num(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// One `name value unit` line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<28} {:>16.6} {}\n",
                m.name,
                m.value,
                unit_of(m.name)
            ));
        }
        out
    }
}

/// The unit of a metric name from either table.
///
/// # Panics
///
/// Panics on a name in neither table: a metric `BENCHMARK.json` does not
/// declare is a bug in this crate.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}
