//! The repository benchmark: three workloads over an Orkut-shaped graph,
//! end-to-end metrics untraced and per-layer metrics in a traced run.
//!
//! ```text
//! aplus_perfbench --workload <analytic|point_wire|write_mix> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable detail goes to stderr; the last line of stdout is the
//! JSON result. README.md documents the workloads and the metric map.

mod analytic;
mod common;
mod point_wire;
mod report;
mod stats;
mod trace;
mod write_mix;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Run;
use report::Report;

/// The workloads: name, why it exists, and its client threads/connections
/// (the morsel pool always has one worker per core).
pub const WORKLOADS: &[(&str, &str, &str)] = &[
    (
        "analytic",
        "paper queries in-process: execution (E/I, block engine, var-length BFS, morsel pool) dominates; no writes, no wire",
        "1 client thread",
    ),
    (
        "point_wire",
        "pinned-root collects over loopback TCP: planning and the server/protocol path dominate; execution is tiny",
        "min(2, cores) client connections, reconnecting every 50 requests",
    ),
    (
        "write_mix",
        "durable single-edge commits (fsync always) with a replica and in-process reads beside the writer",
        "1 writer thread + 1 reader thread (+1 replica connection)",
    ),
];

fn usage() -> String {
    "usage: aplus_perfbench --workload <analytic|point_wire|write_mix> --seed <n> --seconds <s> --trace <0|1>"
        .to_owned()
}

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(usage()),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.iter().any(|(w, ..)| *w == workload) {
        return Err(format!("unknown workload {workload}\n{}", usage()));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let run = Run {
        seed: seed.ok_or_else(usage)?,
        seconds,
        trace: trace.unwrap_or(false),
        cores: stats::machine_cores(),
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    Ok((workload, run))
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (_, why, clients) = WORKLOADS
        .iter()
        .find(|(w, ..)| *w == workload)
        .expect("validated above");
    eprintln!(
        "workload {workload} (seed {}, {} s, trace {}): {why}; {clients}; machine_cores {}",
        run.seed, run.seconds, run.trace, run.cores
    );
    let mut rep = Report::default();
    let outcome = match workload.as_str() {
        "analytic" => analytic::run(&run, &mut rep),
        "point_wire" => point_wire::run(&run, &mut rep),
        _ => write_mix::run(&run, &mut rep),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    for w in rep.wrong.iter().take(20) {
        eprintln!("WRONG: {w}");
    }
    println!(
        "# machine_cores {}; attempted {} failed {} error_rate {}",
        run.cores,
        rep.attempted,
        rep.failed,
        rep.failed as f64 / rep.attempted.max(1) as f64
    );
    match rep.json(run.trace) {
        Ok(line) => {
            println!("{line}");
            if rep.wrong.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
