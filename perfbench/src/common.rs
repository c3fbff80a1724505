//! What the three workloads share: the run settings, the generated graph,
//! the traced read path, and the plan statistics of a read mix.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use aplus_datagen::{build_preset, DatasetPreset};
use aplus_graph::Graph;
use aplus_query::ast::Statement;
use aplus_query::plan::Plan;
use aplus_query::{
    ast, block, exec, optimizer, parser, Database, MorselPool, QueryError, QueryGraph, RawRow,
    SharedDatabase,
};

use crate::report::Report;
use crate::stats::{median, status_mb, Samples};
use crate::trace::{Summary, Tracer};

/// Scale divisor of the Orkut preset: 15 000 vertices, 585 500 edges.
pub const SCALE: usize = 200;
/// `G_{i,j}` label counts of the generated graph.
pub const VERTEX_LABELS: usize = 8;
pub const EDGE_LABELS: usize = 2;
/// Setups per run; `setup_s` and the setup-phase layer metrics are their
/// medians.
pub const SETUPS: usize = 5;
/// Equal slices of the untraced window. Each end-to-end latency and rate
/// is the median of its slices' values, so a few seconds of a slower host
/// move one slice, not the result.
pub const SLICES: u32 = 5;

/// Settings of one run, from the command line.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cores: usize,
    /// Scratch space inside the checkout: data directories and span files.
    pub out: PathBuf,
}

impl Run {
    /// The timed windows, each flagged traced or not. An untraced run
    /// measures `seconds` in [`SLICES`] untraced slices. A traced run
    /// splits it: an untraced half, in slices, whose mean operation
    /// latency is the reference for the tracing overhead, then one traced
    /// half.
    pub fn windows(&self) -> Vec<(bool, Duration)> {
        let untraced = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        let slice = Duration::from_secs_f64(untraced / f64::from(SLICES));
        let mut windows = vec![(false, slice); SLICES as usize];
        if self.trace {
            windows.push((true, Duration::from_secs_f64(self.seconds / 2.0)));
        }
        windows
    }

    /// A seed for one input stream, derived from the run seed.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }
}

/// The data set of every workload: the repository's Orkut preset as
/// `G_{8,2}` at [`SCALE`] (15 000 vertices, 585 500 edges, Zipf(0.75)
/// degrees). It is fixed, like the paper's data sets; the run seed drives
/// the request streams. A graph drawn per seed would make the runs
/// disagree by more than any bound: the optimizer's plan for SQ9 alone
/// takes 11 ms on one seed's graph and 330 ms on another's.
pub fn generate_graph() -> Graph {
    build_preset(DatasetPreset::Orkut, SCALE, VERTEX_LABELS, EDGE_LABELS)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Parse, bind and plan through the public layer functions, one span per
/// call: the steps of `Database::prepare`.
fn prepare_traced(
    t: &mut Tracer,
    db: &Database,
    q: &str,
) -> Result<(QueryGraph, Plan), QueryError> {
    exec::check_vertex_domain(db.graph().vertex_count())?;
    let ast = match t.span("parser.parse", |_| parser::parse(q))? {
        Statement::Query(ast) => ast,
        // Not a MATCH: let the engine produce its own error.
        _ => return db.prepare(q),
    };
    let bound = t.span("ast.bind", |_| ast::bind_query(db.graph(), &ast))?;
    let plan = t.span("optimizer.plan", |_| {
        optimizer::optimize(db.graph(), db.store(), &bound)
    })?;
    Ok((bound, plan))
}

/// `SharedDatabase::count`, decomposed into one span per layer call.
pub fn traced_count(t: &mut Tracer, shared: &SharedDatabase, q: &str) -> Result<u64, QueryError> {
    let snap = t.span("engine.pin", |_| shared.snapshot());
    let (bound, plan) = prepare_traced(t, &snap, q)?;
    Ok(t.span("exec.count", |_| {
        snap.count_prepared_parallel(&bound, &plan, shared.pool())
    }))
}

/// `SharedDatabase::collect`, decomposed into one span per layer call.
pub fn traced_collect(
    t: &mut Tracer,
    shared: &SharedDatabase,
    q: &str,
    limit: usize,
) -> Result<Vec<RawRow>, QueryError> {
    let snap = t.span("engine.pin", |_| shared.snapshot());
    let (bound, plan) = prepare_traced(t, &snap, q)?;
    Ok(t.span("exec.collect", |_| {
        snap.collect_prepared_parallel(&bound, &plan, limit, shared.pool())
    }))
}

/// Repetitions per plan and pool size when measuring `runtime.speedup`.
const SPEEDUP_REPS: usize = 2;

/// Records the plan-level layer metrics of a read mix on the current
/// snapshot: `runtime.speedup` (execution at 1 worker ÷ at `cores`
/// workers, same prepared plans), `exec.candidates_per_row` (PROFILE
/// candidates ÷ emitted, deterministic view) and `block.share` (plans the
/// block engine runs).
pub fn plan_stats(rep: &mut Report, shared: &SharedDatabase, queries: &[String], cores: usize) {
    let snap = shared.snapshot();
    let (one, all) = (MorselPool::new(1), MorselPool::new(cores));
    let (mut t_one, mut t_all) = (0.0, 0.0);
    let (mut candidates, mut emitted, mut blocks) = (0u64, 0u64, 0usize);
    for q in queries {
        let Ok((bound, plan)) = snap.prepare(q) else {
            rep.wrong
                .push(format!("plan statistics: cannot prepare {q}"));
            return;
        };
        blocks += usize::from(block::use_block(&plan));
        for _ in 0..SPEEDUP_REPS {
            for (pool, total) in [(&one, &mut t_one), (&all, &mut t_all)] {
                let t = Instant::now();
                std::hint::black_box(snap.count_prepared_parallel(&bound, &plan, pool));
                *total += secs(t);
            }
        }
        if let Ok((_, profile)) = snap.profile_count(q) {
            for level in profile.deterministic_view().levels {
                candidates += level.candidates;
                emitted += level.emitted;
            }
        }
    }
    rep.set("runtime.speedup", t_one / t_all);
    rep.set(
        "exec.candidates_per_row",
        candidates as f64 / emitted.max(1) as f64,
    );
    rep.set("block.share", blocks as f64 / queries.len() as f64);
}

/// Zipf sampler over ranks `0..n` (probability ∝ `1 / (rank + 1)^s`).
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self(cdf)
    }

    pub fn sample(&self, u: f64) -> usize {
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// SplitMix64: the benchmark's input streams (keys, write targets).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Self-time layers and their metrics.
const SELF_LAYERS: &[(&str, &str)] = &[
    ("bench", "self.bench_ms"),
    ("engine", "self.engine_ms"),
    ("core", "self.core_ms"),
    ("storage", "self.storage_ms"),
    ("parser", "self.parser_ms"),
    ("ast", "self.ast_ms"),
    ("optimizer", "self.optimizer_ms"),
    ("exec", "self.exec_ms"),
    ("server", "self.server_ms"),
    ("wire", "self.wire_ms"),
];

/// Records the self time of each layer per primary operation, and the
/// tracing overhead: the traced window's mean operation latency minus the
/// untraced window's. `trace.unattributed_ms` is the part of the traced
/// mean no layer's self time covers.
pub fn report_self_times(rep: &mut Report, s: &Summary, traced_mean: f64, untraced_mean: f64) {
    let mut attributed = 0.0;
    for (layer, metric) in SELF_LAYERS {
        let ms = s.self_ms(layer);
        attributed += ms;
        rep.set(metric, ms);
    }
    for (layer, ms) in s.layers() {
        eprintln!("self time {layer:>10}: {ms:.4} ms per operation");
    }
    rep.set("trace.op_mean_ms", traced_mean);
    rep.set("trace.untraced_op_mean_ms", untraced_mean);
    rep.set("trace.overhead_ms", traced_mean - untraced_mean);
    rep.set("trace.unattributed_ms", traced_mean - attributed);
}

/// Records the mean per-call time of the read-path layers.
pub fn report_read_layers(rep: &mut Report, s: &Summary) {
    let calls: &[(&str, &'static str, f64)] = &[
        ("engine.pin", "engine.pin_us", 1e3),
        ("parser.parse", "parser.parse_us", 1e3),
        ("ast.bind", "ast.bind_us", 1e3),
        ("optimizer.plan", "optimizer.plan_ms", 1.0),
        ("exec.count", "exec.count_ms", 1.0),
        ("exec.collect", "exec.collect_ms", 1.0),
    ];
    for (span, metric, scale) in calls {
        if let Some(ms) = s.mean_ms(span) {
            rep.set(metric, ms * scale);
        }
    }
}

/// Writes the spans of a traced run to `out/spans-<workload>-<seed>.jsonl`.
pub fn save_spans(run: &Run, workload: &str, tracers: &[Tracer]) -> Result<(), String> {
    let path = run.out.join(format!("spans-{workload}-{}.jsonl", run.seed));
    crate::trace::write_spans(&path, tracers)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

/// Timings of one setup, in seconds; steps a workload does not take stay 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// From the start of generation until the first operation could run.
    pub total: f64,
    pub generate: f64,
    pub primary_build: f64,
    pub secondary_build: f64,
    pub durable_open: f64,
    pub bind: f64,
    pub bootstrap: f64,
    pub index_bytes: usize,
    pub live_edges: usize,
}

/// Records the medians over the run's setups: `setup_s` and
/// `index_bytes_per_edge` untraced, the per-step layer metrics traced.
pub fn report_setups(rep: &mut Report, setups: &[SetupTimes]) {
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let last = setups.last().expect("at least one setup");
    eprintln!(
        "setups: {:?} s; graph {} live edges, index {} B",
        setups.iter().map(|s| s.total).collect::<Vec<_>>(),
        last.live_edges,
        last.index_bytes
    );
    rep.set("setup_s", med(|s| s.total));
    rep.set(
        "index_bytes_per_edge",
        last.index_bytes as f64 / last.live_edges as f64,
    );
    rep.set("datagen.generate_s", med(|s| s.generate));
    rep.set("core.primary_build_s", med(|s| s.primary_build));
    rep.set("core.secondary_build_s", med(|s| s.secondary_build));
    rep.set("core.index_bytes", last.index_bytes as f64);
    rep.set("storage.open_s", med(|s| s.durable_open));
    rep.set("server.bind_ms", med(|s| s.bind) * 1e3);
    rep.set("repl.bootstrap_s", med(|s| s.bootstrap));
}

/// One timed slice of a window: the workload's operations and its reads,
/// each with the seconds it was measured over.
pub struct Slice {
    pub ops: Samples,
    pub ops_s: f64,
    pub reads: Samples,
    pub reads_s: f64,
}

impl Slice {
    /// A slice of a read-only workload, whose operation is the read.
    pub fn reads_only(reads: &Samples, elapsed_s: f64) -> Self {
        Self {
            ops: reads.clone(),
            ops_s: elapsed_s,
            reads: reads.clone(),
            reads_s: elapsed_s,
        }
    }
}

/// Records the end-to-end latency metrics of the untraced window: the
/// primary operation (`op_*`) and the reads (`read_*`), which are the
/// same samples on a read-only workload. Each metric is the median of
/// its value over the window's slices.
pub fn report_latencies(rep: &mut Report, slices: &[Slice]) {
    let med = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    rep.set("ops_per_s", med(&|s| s.ops.len() as f64 / s.ops_s));
    rep.set("op_p50_ms", med(&|s| s.ops.pct(0.50)));
    rep.set("op_p95_ms", med(&|s| s.ops.pct(0.95)));
    rep.set("reads_per_s", med(&|s| s.reads.len() as f64 / s.reads_s));
    rep.set("read_p50_ms", med(&|s| s.reads.pct(0.50)));
    rep.set("read_p95_ms", med(&|s| s.reads.pct(0.95)));
    let count = |f: fn(&Slice) -> usize| slices.iter().map(f).sum::<usize>();
    let fewest = |f: fn(&Slice) -> usize| slices.iter().map(f).min().unwrap_or(0);
    let (ops, reads) = (count(|s| s.ops.len()), count(|s| s.reads.len()));
    rep.set("run.op_samples", ops as f64);
    rep.set("run.read_samples", reads as f64);
    println!(
        "# samples: op {ops} read {reads} in {} slice(s), fewest in a slice: op {} read {} (p95 needs >= 200 for >= 10 beyond it)",
        slices.len(),
        fewest(|s| s.ops.len()),
        fewest(|s| s.reads.len())
    );
}

/// Records `peak_rss_mb` as the first timed window starts, after the
/// setups and the warm-up: the peak resident set of serving the data set,
/// its indexes, the durable state and the replica. Returns the resident
/// set at that moment for [`report_rss_growth`].
///
/// The peak at the end of a run is not used: on `write_mix` the resident
/// set keeps growing through the window under copy-on-write churn, by an
/// amount that differs between repeated runs by a third of its median.
pub fn report_peak_rss(rep: &mut Report) -> Result<f64, String> {
    rep.set("peak_rss_mb", status_mb("VmHWM")?);
    status_mb("VmRSS")
}

/// Records `run.rss_growth_mb`: how much the resident set grew from the
/// start of the timed windows (`start_mb`) to their end.
pub fn report_rss_growth(rep: &mut Report, start_mb: f64) -> Result<(), String> {
    rep.set("run.rss_growth_mb", status_mb("VmRSS")? - start_mb);
    Ok(())
}
