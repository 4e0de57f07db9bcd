//! End-to-end and per-layer benchmark of the edge-cache-groups library.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--commit <id>]
//! ```
//!
//! Runs one workload in this process, checks every timed call against
//! a 1-thread reference, prints a table of every metric with its unit
//! and direction, and ends with one JSON line: the end-to-end metrics
//! of `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`. Exits non-zero when any call fails or disagrees with the
//! reference. See `README.md` beside this crate for the workloads.

mod common;
mod form;
mod formation;
mod lifecycle;
mod replay;
mod runner;
mod trace;
mod traffic;

use std::process::ExitCode;

use common::{Ctx, Outcome, Set, METRICS};

/// Worker threads of every measured call.
const THREADS: usize = 2;

const WORKLOADS: [&str; 3] = ["form-sdsl-50k", "replay-sdsl-20k", "lifecycle-churn-1k"];

struct Args {
    workload: String,
    ctx: Ctx,
    traced: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut tiny = false;
    let mut commit = "unknown".to_string();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--size" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size must be full or tiny, not {other}")),
                }
            }
            "--commit" => commit = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            tiny,
            threads: THREADS,
        },
        traced: traced.ok_or("--trace is required")?,
        commit,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = &args.ctx;
    match args.workload.as_str() {
        "form-sdsl-50k" => runner::run(&form::Form::new(ctx), ctx, args.traced),
        "replay-sdsl-20k" => runner::run(&replay::Replay::new(ctx), ctx, args.traced),
        "lifecycle-churn-1k" => runner::run(&lifecycle::Lifecycle::new(ctx), ctx, args.traced),
        other => Err(format!("unknown workload {other}")),
    }
}

/// JSON string literal (the strings printed here hold no control bytes
/// other than those escaped).
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mode = if args.traced { "traced" } else { "untraced" };
    let size = if args.ctx.tiny { "tiny" } else { "full" };
    println!(
        "context {{\"workload\": {}, \"nproc\": {nproc}, \"threads\": {}, \"seed\": {}, \
         \"commit\": {}, \"mode\": \"{mode}\", \"size\": \"{size}\", \"seconds\": {}, \
         \"inputs_digest\": \"{:016x}\"}}",
        quote(&args.workload),
        args.ctx.threads,
        args.ctx.seed,
        quote(&args.commit),
        args.ctx.seconds,
        outcome.inputs_digest
    );
    for (key, value) in &outcome.facts {
        println!("{key} {value}");
    }
    for e in &outcome.errors {
        println!("failure {e}");
    }

    let gate = if args.traced {
        Set::Layer
    } else {
        Set::EndToEnd
    };
    for def in METRICS {
        if let Some(v) = outcome.metrics.get(def.name) {
            println!("metric {} {v} {} {}", def.name, def.unit, def.better);
        }
    }

    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for def in METRICS.iter().filter(|d| d.set == gate) {
        match outcome.metrics.get(def.name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(def.name),
                quote(def.unit)
            )),
            _ => missing.push(def.name),
        }
    }
    let correct = outcome.failed == 0 && missing.is_empty();
    if !missing.is_empty() {
        println!("failure metrics not measured: {}", missing.join(", "));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
