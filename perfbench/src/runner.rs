//! The measurement loop every workload shares.
//!
//! Closed loop: one caller makes back-to-back calls of the workload's
//! timed part, each running to completion. An untraced run sets up the
//! inputs several times (median → `setup_s`), computes the
//! 1-thread reference once, then repeats the timed part at the measured
//! thread count until `--seconds` of calls have run (median →
//! `run_s`). A traced run sets up once inside a traced section, then
//! alternates untraced and traced calls, so that the difference of their
//! medians is the tracing overhead. Every call's output is checked
//! against the reference.

use crate::common::{at_threads, median, peak_rss_mb, timed, Calls, Ctx, Metrics, Outcome};
use crate::trace::Tracer;

/// An untraced run sets up at least [`SETUP_REPS`] times and for at
/// least [`SETUP_MIN_S`] seconds, so that a set-up of a few
/// milliseconds still gets a steady median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.5;
/// Fewest timed calls a run makes, whatever `--seconds` says.
const MIN_CALLS: usize = 3;

/// One workload: inputs, the timed part, and its correctness gate.
pub trait Bench {
    type Inputs;
    type Output;

    /// Caches in the workload (`caches_per_s` numerator).
    fn caches(&self) -> usize;

    /// Builds the inputs from the seed, with a span per layer call.
    fn setup(&self, tr: &mut Tracer) -> Result<Self::Inputs, String>;

    /// Fingerprint of the inputs.
    fn digest(&self, inputs: &Self::Inputs) -> u64;

    /// The timed part; with tracing on, a span around each layer call.
    fn call(&self, inputs: &Self::Inputs, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Compares an output with the 1-thread reference.
    fn check(&self, got: &Self::Output, reference: &Self::Output) -> Result<(), String>;

    /// Seconds of the replay call behind `sim_events_per_s`: one the
    /// timed call made, or one the workload makes after it, untimed for
    /// `run_s` and checked against its own 1-thread reference.
    fn replay_s(&self, ctx: &Ctx, inputs: &Self::Inputs, out: &Self::Output)
        -> Result<f64, String>;

    /// Workload metrics from the last checked output. `replay_s` is the
    /// median of [`Bench::replay_s`] over the untraced calls.
    fn finish(
        &self,
        inputs: &Self::Inputs,
        out: &Self::Output,
        replay_s: f64,
        tr: &mut Tracer,
        calls: &mut Calls,
        m: &mut Metrics,
    ) -> Result<(), String>;
}

pub fn run<B: Bench>(b: &B, ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut calls = Calls::default();
    let mut tr = Tracer::new(traced);
    let mut off = Tracer::new(false);
    ecg_par::set_max_threads(Some(ctx.threads));

    let inputs = if traced {
        tr.section(|t| b.setup(t))?
    } else {
        let mut times = Vec::new();
        let mut inputs = None;
        while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
            // Free the previous inputs first: two copies alive at once
            // would raise the peak memory above the workload's own.
            drop(inputs.take());
            let (built, s) = timed(|| b.setup(&mut off));
            times.push(s);
            inputs = Some(built?);
        }
        m.set("setup_s", median(&times));
        m.set("setup_samples", times.len() as f64);
        inputs.expect("at least one set-up")
    };

    let rss_after_setup = peak_rss_mb();
    let (reference, t1) = timed(|| at_threads(1, ctx.threads, || b.call(&inputs, &mut off)));
    let reference = reference.map_err(|e| format!("1-thread reference: {e}"))?;

    let rss_after_reference = peak_rss_mb();
    let mut untraced = Vec::new();
    let mut traced_times = Vec::new();
    let mut replay_times = Vec::new();
    let mut spent = 0.0;
    let mut rounds = 0;
    let mut last = None;
    let min_rounds = if traced { 1 } else { MIN_CALLS };
    while spent < ctx.seconds || rounds < min_rounds {
        rounds += 1;
        let (out, s) = timed(|| b.call(&inputs, &mut off));
        spent += s;
        match out.and_then(|o| b.check(&o, &reference).map(|()| o)) {
            Ok(o) => {
                untraced.push(s);
                calls.record(Ok(()));
                match b.replay_s(ctx, &inputs, &o) {
                    Ok(s) => replay_times.push(s),
                    Err(e) => calls.record(Err(e)),
                }
                last = Some(o);
            }
            Err(e) => calls.record(Err(e)),
        }
        if traced {
            let (out, s) = timed(|| tr.section(|t| b.call(&inputs, t)));
            spent += s;
            let verdict = out.and_then(|o| b.check(&o, &reference));
            if verdict.is_ok() {
                traced_times.push(s);
            }
            calls.record(verdict);
        }
    }
    let last = last.ok_or_else(|| {
        format!(
            "no timed call passed the correctness gate: {}",
            calls.errors.join("; ")
        )
    })?;

    let run_s = median(&untraced);
    m.set("run_s", run_s);
    m.set("run_samples", untraced.len() as f64);
    m.set("caches_per_s", b.caches() as f64 / run_s);
    if replay_times.is_empty() {
        return Err(format!(
            "no replay call passed: {}",
            calls.errors.join("; ")
        ));
    }
    let replay_s = median(&replay_times);
    b.finish(&inputs, &last, replay_s, &mut tr, &mut calls, &mut m)?;

    if traced {
        span_metrics(&tr, &mut m);
        m.set("par.threads", ctx.threads as f64);
        m.set("par.speedup_1t", t1 / run_s);
        m.set("trace.coverage_frac", tr.coverage());
        if !traced_times.is_empty() {
            m.set(
                "trace.overhead_frac",
                (median(&traced_times) - run_s) / run_s,
            );
        }
    }
    m.set(
        "error_rate",
        calls.failed as f64 / calls.attempted.max(1) as f64,
    );
    m.set("peak_rss_mb", peak_rss_mb());

    let mut facts = vec![
        ("caches".to_string(), b.caches().to_string()),
        ("t1_call_s".to_string(), format!("{t1:.4}")),
        (
            "peak_rss_mb_after_setup_reference".to_string(),
            format!("{rss_after_setup:.1} {rss_after_reference:.1}"),
        ),
        (
            "call_s".to_string(),
            untraced
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
    ];
    if traced {
        facts.push(("traced_calls".into(), traced_times.len().to_string()));
        for s in tr.spans() {
            facts.push((
                format!("span {:?}", s.source).to_lowercase(),
                format!(
                    "{}{} start={:.4}s dur={:.6}s",
                    "  ".repeat(s.depth),
                    s.name,
                    s.start_s,
                    s.dur_s
                ),
            ));
        }
    }
    Ok(Outcome {
        metrics: m,
        attempted: calls.attempted,
        failed: calls.failed,
        inputs_digest: b.digest(&inputs),
        facts,
        errors: calls.errors,
    })
}

/// Per-layer times from the spans: the mean over the spans of a name,
/// so a layer called once per timed call reads as its per-call time.
fn span_metrics(tr: &Tracer, m: &mut Metrics) {
    const SPANS: [(&str, &str); 14] = [
        ("topology.oracle_s", "topology.oracle"),
        ("topology.network_s", "topology.network"),
        ("core.landmarks_s", "core.landmarks"),
        ("core.gic_s", "core.gic"),
        ("coords.features_s", "coords.features"),
        ("clustering.kmeans_s", "clustering.kmeans"),
        ("clustering.tree_build_s", "clustering.tree_build"),
        ("workload.generate_s", "workload.generate"),
        ("replay.plan_s", "replay.plan"),
        ("replay.shards_s", "replay.shards"),
        ("replay.merge_s", "replay.merge"),
        ("replay.epochs_s", "replay.epochs"),
        ("lifecycle.supervise_s", "lifecycle.supervise"),
        ("faults.plan_s", "faults.plan"),
    ];
    for (metric, span) in SPANS {
        if let Some(s) = tr.mean(span) {
            m.set(metric, s);
        }
    }
    let topology = m.get("topology.oracle_s").or(m.get("topology.network_s"));
    if let Some(s) = topology {
        m.set("topology.build_s", s);
    }
    if let (Some(s), Some(iters)) = (m.get("clustering.kmeans_s"), m.get("clustering.iterations")) {
        m.set("clustering.s_per_iter", s / iters.max(1.0));
    }
    if let (Some(s), Some(events)) = (m.get("replay.shards_s"), m.get("replay.shard_events")) {
        m.set("replay.ns_per_event", s * 1e9 / events.max(1.0));
    }
}
