//! `point_wire`: small pinned-root reads over loopback TCP through
//! `aplus_server::Client`, from `min(2, cores)` closed-loop client
//! connections. Each request is `collect(…, 100)` of a 1-hop, 2-hop or
//! `*1..2` pattern from `a.ID = k`, with `k` Zipf-skewed so some query
//! texts repeat (the run reports the repeated share). Each client
//! reconnects every 50 requests and at the start of each slice of the
//! window; the first request on a new connection is timed only into
//! `wire.connect_ms`.
//!
//! Why: execution is a sliver of a read here, while planning and the
//! server/protocol path dominate. Optimizer, plan-reuse and
//! accept/transport changes show up here; `exec` is mostly bypassed.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use aplus_query::{Database, MorselPool, RawRow, SharedDatabase};
use aplus_server::{serve, Client, ClientError, ServerConfig, ServerHandle};

use crate::common::{
    generate_graph, plan_stats, report_latencies, report_peak_rss, report_read_layers,
    report_rss_growth, report_self_times, report_setups, save_spans, secs, traced_collect, Rng,
    Run, SetupTimes, Slice, Zipf, SETUPS,
};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Summary, Tracer};

/// Rows per `collect`.
const LIMIT: usize = 100;
/// Requests per connection, the first of them timed as a connect.
const RECONNECT_EVERY: usize = 50;
/// Zipf exponent of the root key.
const KEY_SKEW: f64 = 0.8;
/// Every this many requests, the rows are kept to compare with in-process
/// `SharedDatabase::collect` after the window.
const VERIFY_EVERY: usize = 25;
/// Untimed warm-up before the first window.
const WARMUP: Duration = Duration::from_secs(1);
/// Distinct query texts whose plans feed the plan-level layer metrics.
const PLAN_SAMPLE: usize = 24;
/// Texts of the traced window replayed in-process to split server time.
const REPLAY_SAMPLE: usize = 200;
const HANDLE_SERIES: &str = "aplus_server_request_seconds{verb=\"collect\"}";

/// Root keys: a seeded permutation of the vertices, ranked by a Zipf draw.
struct Keys {
    zipf: Zipf,
    perm: Vec<usize>,
}

impl Keys {
    fn new(vertices: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut perm: Vec<usize> = (0..vertices).collect();
        rng.shuffle(&mut perm);
        Self {
            zipf: Zipf::new(vertices, KEY_SKEW),
            perm,
        }
    }

    fn query(&self, rng: &mut Rng) -> String {
        let k = self.perm[self.zipf.sample(rng.unit())];
        match rng.below(3) {
            0 => format!("MATCH a-[r]->b WHERE a.ID = {k}"),
            1 => format!("MATCH a-[r]->b-[s]->c WHERE a.ID = {k}"),
            _ => format!("MATCH a-[*1..2]->b WHERE a.ID = {k}"),
        }
    }
}

struct Served {
    shared: SharedDatabase,
    server: ServerHandle,
    times: SetupTimes,
}

fn build(cores: usize) -> Result<Served, String> {
    let t0 = Instant::now();
    let graph = generate_graph();
    let generate = secs(t0);
    let t = Instant::now();
    let db = Database::new(graph).map_err(|e| format!("primary index build: {e}"))?;
    let primary_build = secs(t);
    let (index_bytes, live_edges) = (db.index_memory_bytes(), db.graph().live_edge_count());
    let shared = SharedDatabase::with_pool(db, MorselPool::new(cores));
    let t = Instant::now();
    let server = serve(shared.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let bind = secs(t);
    Ok(Served {
        shared,
        server,
        times: SetupTimes {
            total: secs(t0),
            generate,
            primary_build,
            bind,
            index_bytes,
            live_edges,
            ..SetupTimes::default()
        },
    })
}

/// What one client connection loop saw.
struct ClientRun {
    ops: Samples,
    connects: Samples,
    texts: Vec<String>,
    kept: Vec<(String, Vec<RawRow>)>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

/// One closed-loop client for `window`.
fn client_loop(
    addr: SocketAddr,
    keys: &Keys,
    seed: u64,
    window: Duration,
    traced: bool,
    origin: Instant,
) -> ClientRun {
    let mut rng = Rng::new(seed);
    let mut out = ClientRun {
        ops: Samples::default(),
        connects: Samples::default(),
        texts: Vec::new(),
        kept: Vec::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::new(traced, origin),
    };
    let mut conn: Option<Client> = None;
    let mut on_conn = 0;
    let start = Instant::now();
    while start.elapsed() < window {
        let q = keys.query(&mut rng);
        out.texts.push(q.clone());
        out.attempted += 1;
        let t = Instant::now();
        let result = match conn.as_mut() {
            Some(c) if on_conn < RECONNECT_EVERY => out
                .tracer
                .root("bench.read", 0, |tr| {
                    tr.span("wire.collect", |_| c.collect(&q, LIMIT))
                })
                .inspect(|_| out.ops.push(t.elapsed())),
            _ => {
                // A new connection: Client::connect through the first answer.
                conn = None;
                Client::connect(addr)
                    .map_err(ClientError::Io)
                    .and_then(|mut c| {
                        let rows = c.collect(&q, LIMIT)?;
                        out.connects.push(t.elapsed());
                        conn = Some(c);
                        on_conn = 0;
                        Ok(rows)
                    })
            }
        };
        match result {
            Ok(rows) => {
                on_conn += 1;
                if out.attempted.is_multiple_of(VERIFY_EVERY as u64) || rows.len() > LIMIT {
                    out.kept.push((q, rows));
                }
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                out.failed += 1;
                conn = None;
            }
        }
    }
    out
}

/// Runs `clients` loops in parallel for `window`.
fn window_runs(
    run: &Run,
    served: &Served,
    keys: &Keys,
    stream: u64,
    window: Duration,
    traced: bool,
    origin: Instant,
) -> Vec<ClientRun> {
    let addr = served.server.local_addr();
    let clients = run.cores.min(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let seed = run.stream_seed(stream * 16 + i as u64);
                s.spawn(move || client_loop(addr, keys, seed, window, traced, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Mean server-side handling time of `collect` between two metric
/// snapshots taken over the wire.
fn handle_mean_ms(
    before: &aplus_query::MetricsSnapshot,
    after: &aplus_query::MetricsSnapshot,
) -> Option<f64> {
    let (b, a) = (
        before.histograms.get(HANDLE_SERIES)?,
        after.histograms.get(HANDLE_SERIES)?,
    );
    let n = a.count.checked_sub(b.count).filter(|&n| n > 0)?;
    Some((a.sum_us - b.sum_us) as f64 / 1e3 / n as f64)
}

pub fn run(run: &Run, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..SETUPS {
        if let Some(old) = served.take() {
            old.server.shutdown();
        }
        let s = build(run.cores)?;
        setups.push(s.times);
        served = Some(s);
    }
    let served = served.expect("SETUPS > 0");
    report_setups(rep, &setups);
    let keys = Keys::new(
        served.shared.snapshot().graph().vertex_count(),
        run.stream_seed(1),
    );
    let mut admin =
        Client::connect(served.server.local_addr()).map_err(|e| format!("admin connect: {e}"))?;

    let origin = Instant::now();
    let mut kept = Vec::new();
    for mut r in window_runs(run, &served, &keys, 1, WARMUP, false, origin) {
        rep.attempted += r.attempted;
        rep.failed += r.failed;
        kept.append(&mut r.kept);
    }
    let rss_start = report_peak_rss(rep)?;

    let mut slices = Vec::new();
    let mut untraced = Samples::default();
    let mut untraced_connects = Samples::default();
    let mut texts_seen = Vec::new();
    for (w, (traced, window)) in run.windows().into_iter().enumerate() {
        let before = admin.metrics().map_err(|e| format!("metrics verb: {e}"))?;
        let start = Instant::now();
        let mut runs = window_runs(run, &served, &keys, 2 + w as u64, window, traced, origin);
        let elapsed = secs(start);
        let after = admin.metrics().map_err(|e| format!("metrics verb: {e}"))?;
        let mut ops = Samples::default();
        let mut connects = Samples::default();
        let mut texts = Vec::new();
        for r in &mut runs {
            rep.attempted += r.attempted;
            rep.failed += r.failed;
            ops.extend(std::mem::take(&mut r.ops));
            connects.extend(std::mem::take(&mut r.connects));
            texts.append(&mut r.texts);
            kept.append(&mut r.kept);
        }
        if !traced {
            slices.push(Slice::reads_only(&ops, elapsed));
            untraced.extend(ops);
            untraced_connects.extend(connects);
            texts_seen.append(&mut texts);
            continue;
        }
        // The server's handling splits into layers by replaying a sample of
        // the window's texts in-process through the decomposed read path,
        // after the window so the replays do not compete with it.
        let mut replay = Tracer::new(true, origin);
        for q in texts.iter().take(REPLAY_SAMPLE) {
            let _ = replay.root("bench.replay", 0, |tr| {
                traced_collect(tr, &served.shared, q, LIMIT)
            });
        }
        let mut tracers: Vec<Tracer> = runs.into_iter().map(|r| r.tracer).collect();
        tracers.push(replay);
        let mut summary = Summary::of(&tracers, "bench.read");
        report_read_layers(rep, &summary);
        let rtt = summary.mean_ms("wire.collect").unwrap_or(f64::NAN);
        let handle = handle_mean_ms(&before, &after).unwrap_or(f64::NAN);
        rep.set("server.handle_ms", handle);
        rep.set("wire.transport_ms", rtt - handle);
        // The wire call's time splits into transport (the rest of the round
        // trip), the server's handling, and inside it the layers the
        // in-process replay measured.
        summary.reattribute("wire", "server", handle);
        for (span, layer) in [
            ("engine.pin", "engine"),
            ("parser.parse", "parser"),
            ("ast.bind", "ast"),
            ("optimizer.plan", "optimizer"),
            ("exec.collect", "exec"),
        ] {
            summary.reattribute("server", layer, summary.mean_ms(span).unwrap_or(0.0));
        }
        report_self_times(rep, &summary, ops.mean(), untraced.mean());
        save_spans(run, "point_wire", &tracers)?;
    }
    report_latencies(rep, &slices);
    let distinct = texts_seen.iter().collect::<HashSet<_>>().len();
    let repeat = 1.0 - distinct as f64 / texts_seen.len().max(1) as f64;
    rep.set("wire.repeat_share", repeat);
    rep.set("wire.connect_ms", untraced_connects.pct(0.5));
    println!(
        "# repeated query texts: {:.4} of {} requests; connect p50 {:.3} ms over {} connects",
        repeat,
        texts_seen.len(),
        untraced_connects.pct(0.5),
        untraced_connects.len()
    );

    report_rss_growth(rep, rss_start)?;
    for (q, rows) in &kept {
        let direct = served.shared.collect(q, LIMIT);
        rep.check(direct.as_ref().ok() == Some(rows), || {
            format!("wire rows of {q} differ from SharedDatabase::collect")
        });
    }
    eprintln!(
        "verified {} sampled wire results against in-process collect",
        kept.len()
    );
    if run.trace {
        let mut sample: Vec<String> = Vec::new();
        for t in texts_seen {
            if sample.len() < PLAN_SAMPLE && !sample.contains(&t) {
                sample.push(t);
            }
        }
        plan_stats(rep, &served.shared, &sample, run.cores);
        rep.set("run.machine_cores", run.cores as f64);
    }
    drop(admin);
    served.server.shutdown();
    Ok(())
}
