//! `write_mix`: a durable primary (`FsyncPolicy::Always`) in a data
//! directory inside the checkout, served on loopback with one replica
//! attached through `attach_replica` and served as a read replica.
//! Background checkpoints are off; one checkpoint is taken after the
//! warm-up, so recovery at the end replays the timed windows' WAL on top
//! of it. (A checkpoint every 128 epochs rewrote the whole graph twice a
//! second, and the commit p95 and peak RSS of repeated runs disagreed by
//! 0.56 and 0.30 of their medians.)
//!
//! One writer thread commits single-edge insert or delete batches
//! (`writer()` → apply → `commit()`), with a `flush` in every 64th batch;
//! its commits are the workload's operations. One reader thread runs
//! pinned 2-hop counts in-process beside it, and every [`RYW_EVERY`]-th
//! read waits on the replica for the latest acknowledged epoch
//! (`Client::wait_for_epoch`). The primary ships its WAL every
//! [`REPL_POLL`], so the replica applies the batches one at a time as
//! they commit.
//!
//! Why: the commit path (writer gate → apply/copy-on-write → WAL append +
//! fsync → publish → replica apply) does all the write work, and the
//! reads beside it show when a write-path gain costs readers, or the
//! reverse.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use aplus_common::{EdgeId, VertexId};
use aplus_query::{
    metric, Database, DurabilityConfig, FsyncPolicy, MetricsSnapshot, MorselPool, QueryError,
    SharedDatabase,
};
use aplus_server::{
    attach_replica, serve, serve_with_role, Client, ReplicaConfig, ReplicaHandle, Role,
    ServerConfig, ServerHandle,
};

use crate::common::{
    generate_graph, plan_stats, report_latencies, report_peak_rss, report_read_layers,
    report_rss_growth, report_self_times, report_setups, save_spans, secs, traced_count, Rng, Run,
    SetupTimes, Slice, SETUPS,
};
use crate::report::Report;
use crate::stats::{dir_bytes, Samples};
use crate::trace::{Summary, Tracer};

/// The writer's pause between commits. Back to back, the writer and the
/// replica applier (whose per-batch copy-on-write costs as much as the
/// commit's) saturate two cores, and the runs flip between a fast and a
/// slow regime: commit rates of repeated runs spread 0.31 of their median.
const WRITER_THINK: Duration = Duration::from_millis(4);
/// Every this many commits, the batch also flushes the update buffers.
const FLUSH_EVERY: u64 = 64;
/// Every this many reads, the reader checks read-your-writes on the replica.
const RYW_EVERY: u64 = 2;
/// How often the primary's server polls its WAL for the replica. At the
/// server's default of 50 ms the replica receives about five batches at
/// once and applies them back to back, each with its own copy-on-write,
/// in a burst beside the writer and the reader; those bursts made the
/// commit rate of repeated runs spread by a quarter of its median.
const REPL_POLL: Duration = Duration::from_millis(5);
/// How long a read-your-writes wait may take before it counts as failed.
const RYW_TIMEOUT: Duration = Duration::from_secs(5);
/// Untimed warm-up before the first window.
const WARMUP: Duration = Duration::from_secs(1);
/// Read texts whose plans feed the plan-level layer metrics.
const PLAN_SAMPLE: usize = 24;
/// Counts every edge; compared across primary, replica and recovery.
const ALL_EDGES: &str = "MATCH a-[r]->b";
const REPL_LAG_PREFIX: &str = "aplus_repl_subscriber_lag";

/// The running system of one setup.
struct Cluster {
    dir: PathBuf,
    primary: SharedDatabase,
    primary_server: ServerHandle,
    replica: SharedDatabase,
    replica_handle: ReplicaHandle,
    replica_server: ServerHandle,
    times: SetupTimes,
}

impl Cluster {
    /// Stops the servers and the applier; the primary's handle is left
    /// for the caller to drop, which joins its checkpointer.
    fn stop(self) -> (PathBuf, SharedDatabase) {
        self.replica_server.shutdown();
        self.replica_handle.shutdown();
        self.primary_server.shutdown();
        drop(self.replica);
        (self.dir, self.primary)
    }
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .fsync(FsyncPolicy::Always)
        .checkpoint_every(0)
}

fn build(run: &Run, dir: PathBuf) -> Result<Cluster, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let graph = generate_graph();
    let generate = secs(t0);
    let replica_graph = graph.clone();
    let t = Instant::now();
    let mut primary_build = 0.0;
    let primary = SharedDatabase::open_durable_with_pool(
        durability(&dir),
        MorselPool::new(run.cores),
        || {
            let t = Instant::now();
            let db = Database::new(graph);
            primary_build = secs(t);
            db
        },
    )
    .map_err(|e| format!("durable open: {e}"))?;
    let durable_open = secs(t) - primary_build;
    let snap = primary.snapshot();
    let (index_bytes, live_edges) = (snap.index_memory_bytes(), snap.graph().live_edge_count());
    drop(snap);
    let t = Instant::now();
    let config = ServerConfig {
        poll_interval: REPL_POLL,
        ..ServerConfig::default()
    };
    let primary_server =
        serve(primary.clone(), "127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let bind = secs(t);
    // The replica starts from the same generated graph at epoch 0 and
    // resumes from the primary's WAL. (A wire bootstrap would ship the
    // whole snapshot as one hex string in a JSON frame, which the vendored
    // JSON parser reads in quadratic time: it does not finish at this
    // graph size.)
    let t = Instant::now();
    let replica_db = Database::new(replica_graph).map_err(|e| format!("replica build: {e}"))?;
    let replica = SharedDatabase::replica_with_pool(replica_db, 0, MorselPool::new(run.cores));
    let replica_handle = attach_replica(
        replica.clone(),
        &primary_server.local_addr().to_string(),
        ReplicaConfig::default(),
    );
    let replica_server = serve_with_role(
        replica.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
        Role::Replica,
    )
    .map_err(|e| format!("replica bind: {e}"))?;
    let bootstrap = secs(t);
    Ok(Cluster {
        dir,
        primary,
        primary_server,
        replica,
        replica_handle,
        replica_server,
        times: SetupTimes {
            total: secs(t0),
            generate,
            primary_build,
            durable_open,
            bind,
            bootstrap,
            index_bytes,
            live_edges,
            ..SetupTimes::default()
        },
    })
}

/// The writer's state across windows: its input stream and the edges it
/// inserted (deletes pick among them, so no operation targets a missing
/// edge).
struct Writer {
    rng: Rng,
    inserted: Vec<EdgeId>,
    commits: u64,
    vertices: u64,
}

/// What the writer saw in one window.
#[derive(Default)]
struct WriterRun {
    ops: Samples,
    attempted: u64,
    failed: u64,
}

impl Writer {
    /// One batch: `writer()`, one insert or delete, a flush every
    /// [`FLUSH_EVERY`] commits, `commit()`.
    fn commit_one(&mut self, t: &mut Tracer, db: &SharedDatabase) -> Result<u64, String> {
        let delete = !self.inserted.is_empty() && self.rng.below(2) == 0;
        let flush = (self.commits + 1).is_multiple_of(FLUSH_EVERY);
        let mut guard = t.span("engine.gate_wait", |_| db.writer());
        let mut deleted = None;
        let applied = t.span("engine.apply", |_| {
            if delete {
                let i = self.rng.below(self.inserted.len() as u64) as usize;
                deleted = Some(i);
                guard.delete_edge(self.inserted[i]).map(|()| None)
            } else {
                let src = self.rng.below(self.vertices) as u32;
                let dst = (src as u64 + 1 + self.rng.below(self.vertices - 1)) % self.vertices;
                let label = if self.rng.below(2) == 0 { "E0" } else { "E1" };
                guard
                    .insert_edge(VertexId(src), VertexId(dst as u32), label, &[])
                    .map(Some)
            }
        });
        let inserted = match applied {
            Ok(e) => e,
            Err(e) => {
                guard.abort();
                return Err(format!("apply: {e}"));
            }
        };
        if flush {
            t.span("core.flush", |_| guard.flush());
        }
        let epoch = t
            .span("engine.commit", |_| guard.commit())
            .map_err(|e| format!("commit: {e}"))?;
        self.commits += 1;
        if let Some(i) = deleted {
            self.inserted.swap_remove(i);
        }
        self.inserted.extend(inserted);
        Ok(epoch)
    }

    fn run(
        &mut self,
        db: &SharedDatabase,
        acked: &AtomicU64,
        stop: &AtomicBool,
        tracer: &mut Tracer,
    ) -> WriterRun {
        let mut out = WriterRun::default();
        while !stop.load(Ordering::SeqCst) {
            let t = Instant::now();
            let result = tracer.root("bench.write", 0, |tr| self.commit_one(tr, db));
            out.attempted += 1;
            match result {
                Ok(epoch) => {
                    out.ops.push(t.elapsed());
                    acked.fetch_max(epoch, Ordering::SeqCst);
                }
                Err(e) => {
                    eprintln!("write failed: {e}");
                    out.failed += 1;
                }
            }
            std::thread::sleep(WRITER_THINK);
        }
        out
    }
}

/// What the reader saw in one window.
#[derive(Default)]
struct ReaderRun {
    reads: Samples,
    lag_ms: Samples,
    lag_epochs: Vec<f64>,
    attempted: u64,
    failed: u64,
    texts: Vec<String>,
}

/// Sum of the primary's per-subscriber replication lag gauges.
fn lag_epochs(m: &MetricsSnapshot) -> f64 {
    m.gauges
        .iter()
        .filter(|(name, _)| name.starts_with(REPL_LAG_PREFIX))
        .map(|(_, v)| *v as f64)
        .sum()
}

fn reader(
    db: &SharedDatabase,
    replica: &mut Client,
    rng: &mut Rng,
    vertices: u64,
    acked: &AtomicU64,
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> ReaderRun {
    let mut out = ReaderRun::default();
    let traced = tracer.is_on();
    let mut n = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let q = format!("MATCH a-[r]->b-[s]->c WHERE a.ID = {}", rng.below(vertices));
        let t = Instant::now();
        let result: Result<u64, QueryError> = tracer.root("bench.read", 0, |tr| {
            if traced {
                traced_count(tr, db, &q)
            } else {
                db.count(&q)
            }
        });
        out.attempted += 1;
        match result {
            Ok(_) => out.reads.push(t.elapsed()),
            Err(e) => {
                eprintln!("read failed: {e}");
                out.failed += 1;
            }
        }
        if out.texts.len() < PLAN_SAMPLE {
            out.texts.push(q);
        }
        n += 1;
        if n.is_multiple_of(RYW_EVERY) {
            let epoch = acked.load(Ordering::SeqCst);
            out.lag_epochs.push(lag_epochs(&db.metrics().snapshot()));
            let t = Instant::now();
            out.attempted += 1;
            match replica.wait_for_epoch(epoch, RYW_TIMEOUT) {
                Ok(_) => out.lag_ms.push(t.elapsed()),
                Err(e) => {
                    eprintln!("read-your-writes wait for epoch {epoch} failed: {e}");
                    out.failed += 1;
                }
            }
        }
    }
    out
}

/// `(sum µs, count)` of a registry histogram.
fn hist(m: &MetricsSnapshot, name: &str) -> (u64, u64) {
    m.histograms
        .get(name)
        .map_or((0, 0), |h| (h.sum_us, h.count))
}

/// Mean ms per observation of histogram `name` between two snapshots.
fn hist_mean_ms(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let ((s0, n0), (s1, n1)) = (hist(before, name), hist(after, name));
    if n1 > n0 {
        (s1 - s0) as f64 / 1e3 / (n1 - n0) as f64
    } else {
        0.0
    }
}

pub fn run(run: &Run, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut cluster: Option<Cluster> = None;
    for i in 0..SETUPS {
        if let Some(old) = cluster.take() {
            let (dir, primary) = old.stop();
            drop(primary);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = run
            .out
            .join(format!("write_mix-{}-{i}", std::process::id()));
        let c = build(run, dir)?;
        setups.push(c.times);
        cluster = Some(c);
    }
    let c = cluster.expect("SETUPS > 0");
    report_setups(rep, &setups);
    let result = measure(run, rep, &c);
    let (dir, primary) = c.stop();
    let outcome = result.and_then(|expected| verify_recovery(run, rep, &dir, primary, expected));
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// The primary's state at the end of the timed windows, which recovery
/// must reproduce.
struct Expected {
    epoch: u64,
    edges: u64,
}

fn measure(run: &Run, rep: &mut Report, c: &Cluster) -> Result<Expected, String> {
    let vertices = c.primary.snapshot().graph().vertex_count() as u64;
    let mut writer = Writer {
        rng: Rng::new(run.stream_seed(1)),
        inserted: Vec::new(),
        commits: 0,
        vertices,
    };
    let mut read_rng = Rng::new(run.stream_seed(2));
    let mut replica = Client::connect(c.replica_server.local_addr())
        .map_err(|e| format!("replica connect: {e}"))?;
    let acked = AtomicU64::new(c.primary.epoch());
    let origin = Instant::now();
    let mut windows = vec![(false, WARMUP)];
    windows.extend(run.windows());
    let mut slices = Vec::new();
    let mut untraced_ops = Samples::default();
    let (mut lag_ms, mut lag_epochs) = (Samples::default(), Vec::new());
    let mut acked_writes = 0;
    let mut read_texts = Vec::new();
    let mut rss_start = f64::NAN;
    for (w, (traced, window)) in windows.into_iter().enumerate() {
        let warmup = w == 0;
        let stop = AtomicBool::new(false);
        let mut wtracer = Tracer::new(traced, origin);
        let mut rtracer = Tracer::new(traced, origin);
        let before = c.primary.metrics().snapshot();
        let start = Instant::now();
        let (wrun, rrun) = std::thread::scope(|s| {
            let w = s.spawn(|| writer.run(&c.primary, &acked, &stop, &mut wtracer));
            let r = s.spawn(|| {
                reader(
                    &c.primary,
                    &mut replica,
                    &mut read_rng,
                    vertices,
                    &acked,
                    &stop,
                    &mut rtracer,
                )
            });
            std::thread::sleep(window);
            stop.store(true, Ordering::SeqCst);
            (
                w.join().expect("writer thread panicked"),
                r.join().expect("reader thread panicked"),
            )
        });
        let elapsed = secs(start);
        let after = c.primary.metrics().snapshot();
        acked_writes += wrun.ops.len() as u64;
        rep.attempted += wrun.attempted + rrun.attempted;
        rep.failed += wrun.failed + rrun.failed;
        if warmup {
            let t = Instant::now();
            c.primary
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
            rep.set("storage.checkpoint_s", secs(t));
            rss_start = report_peak_rss(rep)?;
            continue;
        }
        if !traced {
            // The reader's read-your-writes waits are replication time,
            // reported as `repl.lag_ms`; its read rate excludes them.
            let reads_s = elapsed - rrun.lag_ms.sum() / 1e3;
            untraced_ops.extend(wrun.ops.clone());
            lag_ms.extend(rrun.lag_ms);
            lag_epochs.extend(rrun.lag_epochs);
            if read_texts.is_empty() {
                read_texts = rrun.texts;
            }
            slices.push(Slice {
                ops: wrun.ops,
                ops_s: elapsed,
                reads: rrun.reads,
                reads_s,
            });
            continue;
        }
        let tracers = [wtracer, rtracer];
        let mut summary = Summary::of(&tracers, "bench.write");
        report_read_layers(rep, &summary);
        for (span, metric) in [
            ("engine.gate_wait", "engine.gate_wait_ms"),
            ("engine.apply", "engine.apply_ms"),
            ("engine.commit", "engine.commit_ms"),
            ("core.flush", "core.flush_ms"),
        ] {
            rep.set(metric, summary.mean_ms(span).unwrap_or(0.0));
        }
        // The WAL append (with its fsync) runs inside commit(); the
        // registry's histogram gives its share of the commit's self time.
        let wal = hist_mean_ms(&before, &after, metric::WAL_APPEND_SECONDS);
        rep.set("storage.wal_append_ms", wal);
        summary.reattribute("engine", "storage", wal);
        report_self_times(rep, &summary, wrun.ops.mean(), untraced_ops.mean());
        save_spans(run, "write_mix", &tracers)?;
    }
    report_latencies(rep, &slices);
    rep.set("repl.lag_ms", lag_ms.pct(0.5));
    rep.set(
        "repl.lag_epochs",
        lag_epochs.iter().sum::<f64>() / lag_epochs.len().max(1) as f64,
    );
    println!(
        "# read-your-writes: {} waits, p50 {:.3} ms",
        lag_ms.len(),
        lag_ms.pct(0.5)
    );

    report_rss_growth(rep, rss_start)?;
    // The writer has stopped: the primary publishes its last acknowledged
    // epoch, and the replica must converge to it.
    let epoch = acked.load(Ordering::SeqCst);
    rep.check(c.primary.epoch() == epoch, || {
        format!(
            "primary at epoch {}, last acknowledged {epoch}",
            c.primary.epoch()
        )
    });
    let edges = c.primary.count(ALL_EDGES).map_err(|e| e.to_string())?;
    match replica.wait_for_epoch(epoch, RYW_TIMEOUT) {
        Ok(_) => {
            let replica_edges = replica.count(ALL_EDGES).map_err(|e| e.to_string())?;
            rep.check(replica_edges == edges, || {
                format!("replica counts {replica_edges} edges at epoch {epoch}, primary {edges}")
            });
        }
        Err(e) => rep
            .wrong
            .push(format!("replica never reached epoch {epoch}: {e}")),
    }
    let bytes = dir_bytes(&c.dir).map_err(|e| format!("sizing {}: {e}", c.dir.display()))?;
    rep.set(
        "storage.disk_bytes_per_write",
        bytes as f64 / acked_writes.max(1) as f64,
    );
    println!("# {acked_writes} acknowledged writes, final epoch {epoch}, {bytes} bytes on disk");
    if run.trace {
        plan_stats(rep, &c.primary, &read_texts, run.cores);
        rep.set("run.machine_cores", run.cores as f64);
    }
    Ok(Expected { epoch, edges })
}

/// Reopens the data directory once the primary is gone: recovery must
/// reach the last acknowledged epoch with the same edges.
fn verify_recovery(
    run: &Run,
    rep: &mut Report,
    dir: &Path,
    primary: SharedDatabase,
    expected: Expected,
) -> Result<(), String> {
    // Dropping the last handle joins the checkpointer.
    drop(primary);
    let t = Instant::now();
    let reopened =
        SharedDatabase::open_durable_with_pool(durability(dir), MorselPool::new(run.cores), || {
            Err(QueryError::NoPlan(
                "the data directory was empty".to_owned(),
            ))
        })
        .map_err(|e| format!("recovery: {e}"))?;
    rep.set("storage.recovery_s", secs(t));
    let epoch = reopened.epoch();
    rep.check(epoch == expected.epoch, || {
        format!(
            "recovered epoch {epoch}, last acknowledged {}",
            expected.epoch
        )
    });
    let edges = reopened.count(ALL_EDGES).map_err(|e| e.to_string())?;
    rep.check(edges == expected.edges, || {
        format!("recovered {edges} edges, primary had {}", expected.edges)
    });
    Ok(())
}
