//! `analytic`: the paper's evaluation queries run in-process through
//! `SharedDatabase::count` on a morsel pool of one worker per core, from
//! one closed-loop client thread cycling a fixed mix.
//!
//! Why: execution does most of the work here (E/I intersection, block vs
//! row engine, var-length BFS, the morsel pool), milliseconds to a second
//! per query against a few milliseconds of planning, with no writes and no
//! wire. Engine, index-layout and parallelism changes show up here.
//!
//! Configuration D + VPt (Table III): the default primary indexes plus
//! `VPt`, with MagicRecs edge times at 5 % selectivity. The seed drives the
//! order of the classes within each cycle of the mix.

use std::time::Instant;

use aplus_bench::datasets::scaled_cap;
use aplus_bench::workloads::{mr, sq};
use aplus_datagen::properties::{add_magicrecs_properties, time_threshold_for_selectivity};
use aplus_query::{Database, MorselPool, SharedDatabase};

use crate::common::{
    generate_graph, plan_stats, report_latencies, report_peak_rss, report_read_layers,
    report_rss_growth, report_self_times, report_setups, save_spans, secs, traced_count, Rng, Run,
    SetupTimes, Slice, EDGE_LABELS, SETUPS, VERTEX_LABELS,
};
use crate::report::{Report, MIX_CLASSES};
use crate::stats::Samples;
use crate::trace::{Summary, Tracer};

const VPT: &str = "CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd \
                   INDEX AS FW PARTITION BY eadj.label SORT BY eadj.time";
/// Share of edges whose `time` passes the MagicRecs predicate.
const SELECTIVITY: f64 = 0.05;
/// Seed of the MagicRecs edge times, as in `tables::run_table3`.
const TIME_SEED: u64 = 0xA11;
/// The mix counts on the data set; every run checks them.
const PINNED: &str = include_str!("../pinned_counts.txt");

/// The mix, in [`MIX_CLASSES`] order: SQ1, SQ3, SQ6, SQ9, SQ13 (labelled,
/// Table II), MR1 and MR2 with `a1` capped as the tables cap MR3,
/// unlabelled PATH2, and a var-length `*1..3` from the first 20 vertices.
fn mix(alpha: i64, cap: u32) -> Vec<String> {
    let sq = |q| sq::query(q, VERTEX_LABELS, EDGE_LABELS, true);
    vec![
        sq(1),
        sq(3),
        sq(6),
        sq(9),
        sq(13),
        mr::query(1, alpha, Some(cap)),
        mr::query(2, alpha, Some(cap)),
        "MATCH a-[r]->b-[s]->c".to_owned(),
        "MATCH a-[:E0*1..3]->b WHERE a.ID < 20".to_owned(),
    ]
}

struct Built {
    shared: SharedDatabase,
    mix: Vec<String>,
    times: SetupTimes,
}

fn build(cores: usize) -> Result<Built, String> {
    let t0 = Instant::now();
    let mut graph = generate_graph();
    let props = add_magicrecs_properties(&mut graph, TIME_SEED);
    let alpha = time_threshold_for_selectivity(&graph, props, SELECTIVITY);
    // The tables cap MR3's a1 at the paper's 10000 of 3M vertices.
    let cap = scaled_cap(&graph, 10_000, 3_000_000).max(20);
    let generate = secs(t0);
    let t = Instant::now();
    let mut db = Database::new(graph).map_err(|e| format!("primary index build: {e}"))?;
    let primary_build = secs(t);
    let t = Instant::now();
    db.ddl(VPT).map_err(|e| format!("VPt build: {e}"))?;
    let secondary_build = secs(t);
    let (index_bytes, live_edges) = (db.index_memory_bytes(), db.graph().live_edge_count());
    let shared = SharedDatabase::with_pool(db, MorselPool::new(cores));
    Ok(Built {
        shared,
        mix: mix(alpha, cap),
        times: SetupTimes {
            total: secs(t0),
            generate,
            primary_build,
            secondary_build,
            index_bytes,
            live_edges,
            ..SetupTimes::default()
        },
    })
}

/// Counts of the whole mix, once.
fn reference_counts(built: &Built) -> Result<Vec<u64>, String> {
    built
        .mix
        .iter()
        .map(|q| built.shared.count(q).map_err(|e| format!("{q}: {e}")))
        .collect()
}

/// Compares the mix counts with the pinned ones.
fn check_pinned(rep: &mut Report, counts: &[u64]) {
    let pinned: Vec<(&str, u64)> = PINNED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (class, n) = l.split_once(' ')?;
            Some((class, n.trim().parse().ok()?))
        })
        .collect();
    rep.check(pinned.len() == MIX_CLASSES.len(), || {
        format!(
            "pinned_counts.txt has {} classes, the mix {}",
            pinned.len(),
            MIX_CLASSES.len()
        )
    });
    for ((class, want), ((mix_class, _), got)) in pinned.iter().zip(MIX_CLASSES.iter().zip(counts))
    {
        rep.check(class == mix_class && want == got, || {
            format!("count of {mix_class} is {got}, pinned {class} = {want}")
        });
    }
}

pub fn run(run: &Run, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let b = build(run.cores)?;
        setups.push(b.times);
        built = Some(b);
    }
    let built = built.expect("SETUPS > 0");
    report_setups(rep, &setups);

    // Reference counts; this pass also warms the caches.
    let reference = reference_counts(&built)?;
    check_pinned(rep, &reference);
    for class in [5, 6] {
        let plan = built
            .shared
            .prepare(&built.mix[class])
            .map_err(|e| e.to_string())?
            .1;
        rep.check(plan.uses_index("VPt"), || {
            format!("{} does not use VPt:\n{plan}", MIX_CLASSES[class].0)
        });
    }
    eprintln!("reference counts: {reference:?}");

    let rss_start = report_peak_rss(rep)?;
    let origin = Instant::now();
    let mut rng = Rng::new(run.stream_seed(1));
    let mut slices = Vec::new();
    let mut untraced = Samples::default();
    let mut order = Vec::new();
    for (traced, window) in run.windows() {
        let mut tracer = Tracer::new(traced, origin);
        let mut lat = Samples::default();
        let start = Instant::now();
        while start.elapsed() < window {
            if order.is_empty() {
                // One cycle of the mix: every class once, in a seeded order.
                order = (0..built.mix.len()).collect();
                rng.shuffle(&mut order);
            }
            let c = order.pop().expect("refilled above");
            let q = &built.mix[c];
            let t = Instant::now();
            let result = tracer.root("bench.read", c, |tr| {
                if traced {
                    traced_count(tr, &built.shared, q)
                } else {
                    built.shared.count(q)
                }
            });
            let took = t.elapsed();
            rep.count_op(result.is_ok());
            match result {
                Ok(n) => {
                    rep.check(n == reference[c], || {
                        format!(
                            "{} counted {n}, expected {}",
                            MIX_CLASSES[c].0, reference[c]
                        )
                    });
                    lat.push(took);
                }
                Err(e) => eprintln!("{}: {e}", MIX_CLASSES[c].0),
            }
        }
        let elapsed = secs(start);
        if !traced {
            slices.push(Slice::reads_only(&lat, elapsed));
            untraced.extend(lat);
            continue;
        }
        let summary = Summary::of(std::slice::from_ref(&tracer), "bench.read");
        report_read_layers(rep, &summary);
        for (c, (_, metric)) in MIX_CLASSES.iter().enumerate() {
            if let Some(ms) = summary.mean_ms_tagged("exec.count", c) {
                rep.set(metric, ms);
            }
        }
        report_self_times(rep, &summary, lat.mean(), untraced.mean());
        save_spans(run, "analytic", &[tracer])?;
    }
    report_latencies(rep, &slices);
    report_rss_growth(rep, rss_start)?;
    if run.trace {
        plan_stats(rep, &built.shared, &built.mix, run.cores);
        rep.set("run.machine_cores", run.cores as f64);
    }
    Ok(())
}
