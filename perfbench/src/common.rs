//! Metric registry, timing loops and measurements shared by the
//! workloads.

use std::collections::BTreeMap;
use std::time::Instant;

use ecg_replay::ReplayTimings;
use ecg_sim::{GroupMap, LatencyHistogram, SimReport};

use crate::trace::Tracer;

/// Which result line a metric belongs to. Every metric a run measures
/// is printed in its table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Set {
    /// End-to-end, in the result line of an untraced run.
    EndToEnd,
    /// Per-layer, in the result line of a traced run.
    Layer,
    /// In the table only: a value that is 0 on some workload (an error
    /// rate, an idle layer's time) cannot be compared by ratio.
    Table,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub set: Set,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str, set: Set) -> Def {
    Def {
        name,
        unit,
        better,
        set,
    }
}

use Set::{EndToEnd as E, Layer as L, Table as T};

/// Every metric the benchmark can print, with its unit and direction.
pub const METRICS: &[Def] = &[
    def("setup_s", "s", "lower", E),
    def("run_s", "s", "lower", E),
    def("caches_per_s", "caches/s", "higher", E),
    def("sim_events_per_s", "events/s", "higher", E),
    def("peak_rss_mb", "MiB", "lower", E),
    def("gic_ms", "ms", "lower", E),
    def("sim_latency_ms", "ms", "lower", E),
    def("sim_p99_latency_ms", "ms", "lower", E),
    def("group_hit_rate", "fraction", "higher", E),
    def("error_rate", "fraction", "lower", T),
    def("degraded_frac", "fraction", "lower", T),
    def("run_samples", "count", "higher", T),
    def("setup_samples", "count", "higher", T),
    def("topology.build_s", "s", "lower", L),
    def("topology.oracle_s", "s", "lower", T),
    def("topology.network_s", "s", "lower", T),
    def("core.landmarks_s", "s", "lower", L),
    def("core.probes", "count", "lower", L),
    def("core.gic_s", "s", "lower", L),
    def("coords.features_s", "s", "lower", L),
    def("clustering.kmeans_s", "s", "lower", L),
    def("clustering.tree_build_s", "s", "lower", T),
    def("clustering.iterations", "count", "lower", L),
    def("clustering.s_per_iter", "s", "lower", L),
    def("workload.generate_s", "s", "lower", L),
    def("workload.requests", "count", "higher", L),
    def("replay.plan_s", "s", "lower", L),
    def("replay.shards_s", "s", "lower", L),
    def("replay.merge_s", "s", "lower", L),
    def("replay.epochs_s", "s", "lower", T),
    def("replay.shards", "count", "higher", L),
    def("replay.shard_events", "count", "higher", L),
    def("replay.ns_per_event", "ns", "lower", L),
    def("replay.group_size_max", "count", "lower", L),
    def("replay.group_size_max_over_mean", "ratio", "lower", L),
    def("sim.requests", "count", "higher", L),
    def("sim.origin_fetches", "count", "lower", L),
    def("sim.control_messages", "count", "lower", L),
    def("sim.peer_bytes", "bytes", "lower", L),
    def("sim.stale_served", "count", "lower", L),
    def("sim.degraded_frac", "fraction", "lower", L),
    def("lifecycle.supervise_s", "s", "lower", T),
    def("lifecycle.supervise_frac", "fraction", "lower", L),
    def("lifecycle.windows", "count", "higher", L),
    def("lifecycle.epochs", "count", "lower", L),
    def("lifecycle.holds", "count", "higher", L),
    def("lifecycle.repairs", "count", "lower", L),
    def("lifecycle.partial_reforms", "count", "lower", L),
    def("lifecycle.full_reforms", "count", "lower", L),
    def("lifecycle.demoted_frac", "fraction", "lower", L),
    def("faults.plan_s", "s", "lower", T),
    def("faults.crashes", "count", "higher", L),
    def("faults.retirements", "count", "higher", L),
    def("par.threads", "count", "higher", L),
    def("par.speedup_1t", "ratio", "higher", L),
    def("trace.coverage_frac", "fraction", "higher", L),
    def("trace.overhead_frac", "fraction", "lower", L),
];

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|d| d.name == name),
            "metric {name} is not registered"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Fingerprint of the generated inputs: changes with the seed.
    pub inputs_digest: u64,
    /// Free-form `key=value` facts about the run (sizes, spans).
    pub facts: Vec<(String, String)>,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

/// Seed of every workload's topology. The topology is part of a
/// workload's definition, like its size; `--seed` draws everything the
/// workload does on it (formation randomness, catalog, updates, request
/// streams, churn), so runs with different seeds do comparable work.
pub const TOPOLOGY_SEED: u64 = 0x5eed_0f70_b0b0;

/// Benchmark-wide settings from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    /// Worker threads of the measured calls; the reference runs at 1.
    pub threads: usize,
}

impl Ctx {
    /// A seed for input stream `stream`, derived from the run's seed.
    pub fn seed_for(&self, stream: u64) -> u64 {
        ecg_par::derive_seed(self.seed, stream)
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `f` at `threads` worker threads, then restores `restore`.
pub fn at_threads<T>(threads: usize, restore: usize, f: impl FnOnce() -> T) -> T {
    ecg_par::set_max_threads(Some(threads));
    let out = f();
    ecg_par::set_max_threads(Some(restore));
    out
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a sequence of 64-bit words.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Counters of the timed calls: every call is attempted; an `Err` or a
/// failed correctness check is a failure.
#[derive(Default)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Calls {
    /// Records one call's verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Checks a measured value against the 1-thread reference.
pub fn same<T: PartialEq>(what: &str, got: &T, reference: &T) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!("{what} differs from the 1-thread reference"))
    }
}

/// The end-to-end simulated metrics of a report.
pub fn sim_metrics(m: &mut Metrics, report: &SimReport) {
    let rec = &report.metrics;
    m.set("sim_latency_ms", report.average_latency_ms());
    m.set(
        "sim_p99_latency_ms",
        interpolated_percentile(rec.latency_histogram(), 0.99).unwrap_or(0.0),
    );
    m.set("group_hit_rate", rec.group_hit_rate().unwrap_or(0.0));
    m.set(
        "degraded_frac",
        rec.degradation.degraded_fraction().unwrap_or(0.0),
    );
}

/// The `p`-quantile of a latency histogram, interpolated log-linearly
/// by rank inside the bin that holds it.
///
/// `LatencyHistogram::percentile` returns the upper edge of that bin,
/// and the bins of the default layout are 5.6 % wide, so tails of
/// different runs would otherwise read the same edge. The bin's rank
/// range is found by bisection over `percentile` itself.
fn interpolated_percentile(h: &LatencyHistogram, p: f64) -> Option<f64> {
    let upper = h.percentile(p)?;
    let n = h.count();
    let edge_of = |rank: u64| h.percentile((rank as f64 - 0.5) / n as f64);
    let target = ((p * n as f64).ceil() as u64).clamp(1, n);
    // First and last rank whose sample falls in the target's bin.
    let (mut lo, mut hi) = (1, target);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if edge_of(mid) == Some(upper) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if edge_of(mid) == Some(upper) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    // Bin growth factor of the recorder's layout: the upper edges of
    // its first two bins.
    let edge = |value: f64| {
        let mut probe = LatencyHistogram::default();
        probe.record(value);
        probe.percentile(1.0).expect("one sample recorded")
    };
    let first_edge = edge(0.0);
    let growth = edge(first_edge * (1.0 + 1e-9)) / first_edge;
    let within = (target - first) as f64 + 0.5;
    Some(upper / growth * growth.powf(within / (last - first + 1) as f64))
}

/// The per-layer simulator counts of a report.
pub fn sim_counts(m: &mut Metrics, report: &SimReport) {
    let rec = &report.metrics;
    m.set("sim.requests", rec.total_requests() as f64);
    m.set("sim.origin_fetches", report.origin_fetches as f64);
    m.set("sim.control_messages", rec.control_messages as f64);
    m.set("sim.peer_bytes", rec.peer_bytes as f64);
    m.set("sim.stale_served", rec.stale_served as f64);
    m.set(
        "sim.degraded_frac",
        rec.degradation.degraded_fraction().unwrap_or(0.0),
    );
}

/// Largest group, absolute and over the mean: the shard-straggler proxy.
pub fn group_size_stats(m: &mut Metrics, map: &GroupMap) {
    let max = map.groups().iter().map(Vec::len).max().unwrap_or(0) as f64;
    m.set("replay.group_size_max", max);
    m.set(
        "replay.group_size_max_over_mean",
        max / map.mean_group_size(),
    );
}

/// A grouping is valid when it partitions `n` caches into exactly `k`
/// non-empty groups.
pub fn valid_partition(
    n: usize,
    k: usize,
    groups: Vec<Vec<ecg_topology::CacheId>>,
) -> Result<GroupMap, String> {
    if groups.len() != k || groups.iter().any(Vec::is_empty) {
        return Err(format!(
            "expected {k} non-empty groups, got {}",
            groups.len()
        ));
    }
    GroupMap::new(n, groups).map_err(|e| format!("invalid grouping: {e}"))
}

/// Runs a replay call inside a span named `span`, with the stage
/// timings it returns as child spans. Returns the output and the call's
/// wall time in seconds, measured whether or not tracing is on.
pub fn replay_span<T>(
    tr: &mut Tracer,
    span: &'static str,
    call: impl FnOnce() -> Result<T, String>,
    stages: impl Fn(&T) -> ReplayTimings,
) -> Result<(T, f64), String> {
    tr.span(span, |t| {
        let start = t.now();
        let (out, s) = timed(call);
        let out = out?;
        let st = stages(&out);
        t.reported(
            start,
            &[
                ("replay.plan", st.plan_ms),
                ("replay.shards", st.shards_ms),
                ("replay.merge", st.merge_ms),
            ],
        );
        Ok((out, s))
    })
}

/// The lifecycle and fault counts of a workload that runs neither: the
/// layers are idle, so every count is 0.
pub fn idle_lifecycle(m: &mut Metrics) {
    for name in [
        "lifecycle.supervise_frac",
        "lifecycle.windows",
        "lifecycle.epochs",
        "lifecycle.holds",
        "lifecycle.repairs",
        "lifecycle.partial_reforms",
        "lifecycle.full_reforms",
        "lifecycle.demoted_frac",
        "faults.crashes",
        "faults.retirements",
    ] {
        m.set(name, 0.0);
    }
}
