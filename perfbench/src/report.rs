//! The metric tables and the one-line JSON result.
//!
//! `E2E` and `LAYERS` mirror `BENCHMARK.json`: an untraced run prints every
//! `E2E` metric, a traced run every `LAYERS` metric. A layer a workload does
//! not exercise reports 0 in the traced run (for example the WAL on
//! `analytic`); README.md maps each layer metric to the end-to-end metric
//! and workload it should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("reads_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("index_bytes_per_edge", "B"),
    ("peak_rss_mb", "MB"),
];

/// The query classes of the analytic mix, in mix order, with the layer
/// metric of their execution time.
pub const MIX_CLASSES: &[(&str, &str)] = &[
    ("sq1", "exec.count_ms.sq1"),
    ("sq3", "exec.count_ms.sq3"),
    ("sq6", "exec.count_ms.sq6"),
    ("sq9", "exec.count_ms.sq9"),
    ("sq13", "exec.count_ms.sq13"),
    ("mr1", "exec.count_ms.mr1"),
    ("mr2", "exec.count_ms.mr2"),
    ("path2", "exec.count_ms.path2"),
    ("var3", "exec.count_ms.var3"),
];

/// Per-layer metrics: `(name, unit)`. Measured in the traced run.
pub const LAYERS: &[(&str, &str)] = &[
    ("run.machine_cores", "count"),
    ("run.op_samples", "count"),
    ("run.read_samples", "count"),
    ("run.rss_growth_mb", "MB"),
    ("datagen.generate_s", "s"),
    ("core.primary_build_s", "s"),
    ("core.secondary_build_s", "s"),
    ("core.index_bytes", "B"),
    ("core.flush_ms", "ms"),
    ("storage.open_s", "s"),
    ("storage.wal_append_ms", "ms"),
    ("storage.checkpoint_s", "s"),
    ("storage.recovery_s", "s"),
    ("storage.disk_bytes_per_write", "B"),
    ("parser.parse_us", "us"),
    ("ast.bind_us", "us"),
    ("optimizer.plan_ms", "ms"),
    ("exec.count_ms", "ms"),
    ("exec.collect_ms", "ms"),
    ("exec.count_ms.sq1", "ms"),
    ("exec.count_ms.sq3", "ms"),
    ("exec.count_ms.sq6", "ms"),
    ("exec.count_ms.sq9", "ms"),
    ("exec.count_ms.sq13", "ms"),
    ("exec.count_ms.mr1", "ms"),
    ("exec.count_ms.mr2", "ms"),
    ("exec.count_ms.path2", "ms"),
    ("exec.count_ms.var3", "ms"),
    ("exec.candidates_per_row", "ratio"),
    ("block.share", "ratio"),
    ("runtime.speedup", "ratio"),
    ("engine.pin_us", "us"),
    ("engine.gate_wait_ms", "ms"),
    ("engine.apply_ms", "ms"),
    ("engine.commit_ms", "ms"),
    ("server.bind_ms", "ms"),
    ("server.handle_ms", "ms"),
    ("wire.transport_ms", "ms"),
    ("wire.connect_ms", "ms"),
    ("wire.repeat_share", "ratio"),
    ("repl.bootstrap_s", "s"),
    ("repl.lag_epochs", "epochs"),
    ("repl.lag_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("self.engine_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.storage_ms", "ms"),
    ("self.parser_ms", "ms"),
    ("self.ast_ms", "ms"),
    ("self.optimizer_ms", "ms"),
    ("self.exec_ms", "ms"),
    ("self.server_ms", "ms"),
    ("self.wire_ms", "ms"),
    ("trace.op_mean_ms", "ms"),
    ("trace.untraced_op_mean_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
];

/// What one run found: metric values, operation accounting, and every
/// failed correctness check.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted in the warm-up and timed windows (reads, commits, wire
    /// requests, read-your-writes checks).
    pub attempted: u64,
    /// Attempted operations that returned an error, disconnected or timed
    /// out.
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub wrong: Vec<String>,
}

impl Report {
    /// Records metric `name`, which must be listed in [`E2E`] or [`LAYERS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            E2E.iter().chain(LAYERS).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    /// Adds one operation outcome to the failure accounting.
    pub fn count_op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: every metric of the selected table. A traced run
    /// fills unexercised layers with 0; an untraced run must have measured
    /// every end-to-end metric.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let table = if trace { LAYERS } else { E2E };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".to_owned());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.wrong.is_empty(),
            self.attempted,
            self.failed
        ))
    }
}
