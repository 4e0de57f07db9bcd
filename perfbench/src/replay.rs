//! `replay-sdsl-20k`: streamed, sharded replay over the SDSL grouping
//! of 20 000 caches.
//!
//! Set-up builds the oracle, forms the SDSL grouping (K = 200, so the
//! groups are unequal) and generates the catalog and update log. Timed
//! part: one `replay_streamed_observed` call, 2 requests/s/cache over
//! 48 s of simulated time.

use ecg_sim::GroupMap;
use ecg_topology::{RttSource, SyntheticRtt, SyntheticRttConfig};

use crate::common::TOPOLOGY_SEED;
use crate::common::{
    digest, group_size_stats, idle_lifecycle, same, sim_metrics, valid_partition, Calls, Ctx,
    Metrics,
};
use crate::formation::{self, Formed, Plan};
use crate::runner::Bench;
use crate::trace::Tracer;
use crate::traffic::{Replayed, Traffic};

const THETA: f64 = 1.0;

pub struct Replay {
    n: usize,
    plan: Plan,
    oracle_seed: u64,
    traffic_seed: u64,
    duration_ms: f64,
}

pub struct Inputs {
    oracle: SyntheticRtt,
    formed: Formed,
    map: GroupMap,
    traffic: Traffic,
}

/// A replay's output and the seconds its replay call took.
pub struct Output {
    replayed: Replayed,
    replay_s: f64,
}

impl Replay {
    pub fn new(ctx: &Ctx) -> Self {
        let (n, k, duration_ms) = if ctx.tiny {
            (1_000, 10, 12_000.0)
        } else {
            (20_000, 200, 48_000.0)
        };
        Replay {
            n,
            plan: Plan {
                k,
                theta: Some(THETA),
                seed: ctx.seed_for(2),
            },
            oracle_seed: TOPOLOGY_SEED,
            traffic_seed: ctx.seed_for(3),
            duration_ms,
        }
    }
}

impl Bench for Replay {
    type Inputs = Inputs;
    type Output = Output;

    fn caches(&self) -> usize {
        self.n
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Inputs, String> {
        let oracle = tr.span("topology.oracle", |_| {
            SyntheticRttConfig::default().generate(self.n + 1, self.oracle_seed)
        });
        let formed = if tr.is_on() {
            formation::split(tr, &oracle, self.plan)?
        } else {
            formation::composite(&oracle, self.plan)?
        };
        let map = valid_partition(self.n, self.plan.k, formed.groups.clone())?;
        let traffic = tr.span("workload.inputs", |_| {
            Traffic::generate(self.traffic_seed, self.duration_ms)
        });
        Ok(Inputs {
            oracle,
            formed,
            map,
            traffic,
        })
    }

    fn digest(&self, inputs: &Inputs) -> u64 {
        let rtts = (1..=16).map(|i| inputs.oracle.rtt_ms(0, i).to_bits());
        digest(rtts.chain([inputs.traffic.master, inputs.formed.gic_bits]))
    }

    fn call(&self, inputs: &Inputs, tr: &mut Tracer) -> Result<Output, String> {
        let (replayed, replay_s) = inputs.traffic.replay(tr, &inputs.oracle, &inputs.map)?;
        Ok(Output { replayed, replay_s })
    }

    fn check(&self, got: &Output, reference: &Output) -> Result<(), String> {
        same("merged SimReport", &got.replayed, &reference.replayed)
    }

    fn replay_s(&self, _: &Ctx, _: &Inputs, out: &Output) -> Result<f64, String> {
        Ok(out.replay_s)
    }

    fn finish(
        &self,
        inputs: &Inputs,
        out: &Output,
        replay_s: f64,
        tr: &mut Tracer,
        calls: &mut Calls,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let formed = &inputs.formed;
        idle_lifecycle(m);
        m.set("gic_ms", formed.gic_ms());
        m.set("core.probes", formed.probes as f64);
        m.set("clustering.iterations", formed.iterations as f64);
        let replayed = &out.replayed;
        m.set("sim_events_per_s", replayed.shard_events as f64 / replay_s);
        sim_metrics(m, &replayed.report);
        replayed.counts(m);
        group_size_stats(m, &inputs.map);
        if tr.is_on() {
            // The traced set-up formed the grouping layer by layer; the
            // untraced set-up forms it in one call. They must agree.
            let whole = formation::composite(&inputs.oracle, self.plan)?;
            calls.record(same("split formation", formed, &whole));
            let requests = inputs.traffic.generate_alone(tr, self.n);
            m.set("workload.requests", requests as f64);
        }
        Ok(())
    }
}
