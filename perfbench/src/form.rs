//! `form-sdsl-50k`: SDSL formation of 50 000 caches over a synthetic
//! RTT oracle, plus the group interaction cost of the result.
//!
//! Timed part: `GfCoordinator::form_groups_scaled` and
//! `GroupingOutcome::average_interaction_cost`. The traced call runs
//! the same layers one by one ([`formation::split`]). After timing, the
//! grouping is judged the way the paper judges one: by a short streamed
//! replay that gives its simulated latency and group hit rate.

use std::cell::OnceCell;

use ecg_topology::{RttSource, SyntheticRtt, SyntheticRttConfig};

use crate::common::TOPOLOGY_SEED;
use crate::common::{
    at_threads, digest, group_size_stats, idle_lifecycle, same, sim_metrics, valid_partition,
    Calls, Ctx, Metrics,
};
use crate::formation::{self, Formed, Plan};
use crate::runner::Bench;
use crate::trace::Tracer;
use crate::traffic::{Replayed, Traffic};

const THETA: f64 = 1.0;

pub struct Form {
    n: usize,
    /// The 1-thread evaluation replay, made after the first timed call.
    eval_reference: OnceCell<Replayed>,
    plan: Plan,
    oracle_seed: u64,
    traffic_seed: u64,
    eval_ms: f64,
}

pub struct Inputs {
    oracle: SyntheticRtt,
    traffic: Traffic,
}

impl Form {
    pub fn new(ctx: &Ctx) -> Self {
        let (n, k, eval_ms) = if ctx.tiny {
            (1_500, 15, 3_000.0)
        } else {
            (50_000, 500, 4_000.0)
        };
        Form {
            n,
            eval_reference: OnceCell::new(),
            plan: Plan {
                k,
                theta: Some(THETA),
                seed: ctx.seed_for(2),
            },
            oracle_seed: TOPOLOGY_SEED,
            traffic_seed: ctx.seed_for(3),
            eval_ms,
        }
    }
}

impl Form {
    fn eval_reference(&self) -> &Replayed {
        self.eval_reference
            .get()
            .expect("the evaluation reference is made after the first timed call")
    }
}

impl Bench for Form {
    type Inputs = Inputs;
    type Output = Formed;

    fn caches(&self) -> usize {
        self.n
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Inputs, String> {
        let oracle = tr.span("topology.oracle", |_| {
            SyntheticRttConfig::default().generate(self.n + 1, self.oracle_seed)
        });
        let traffic = tr.span("workload.inputs", |_| {
            Traffic::generate(self.traffic_seed, self.eval_ms)
        });
        Ok(Inputs { oracle, traffic })
    }

    fn digest(&self, inputs: &Inputs) -> u64 {
        let rtts = (1..=16).map(|i| inputs.oracle.rtt_ms(0, i).to_bits());
        digest(rtts.chain([inputs.traffic.master, inputs.traffic.updates.len() as u64]))
    }

    fn call(&self, inputs: &Inputs, tr: &mut Tracer) -> Result<Formed, String> {
        if tr.is_on() {
            formation::split(tr, &inputs.oracle, self.plan)
        } else {
            formation::composite(&inputs.oracle, self.plan)
        }
    }

    fn check(&self, got: &Formed, reference: &Formed) -> Result<(), String> {
        valid_partition(self.n, self.plan.k, got.groups.clone())?;
        same(
            "formation (assignments, GIC bits, landmarks, features)",
            got,
            reference,
        )
    }

    /// One evaluation replay of the formed grouping after each timed
    /// call, so that its timings spread over the run like the calls'.
    fn replay_s(&self, ctx: &Ctx, inputs: &Inputs, out: &Formed) -> Result<f64, String> {
        let map = valid_partition(self.n, self.plan.k, out.groups.clone())?;
        let traffic = &inputs.traffic;
        let mut off = Tracer::new(false);
        if self.eval_reference.get().is_none() {
            let (reference, _) = at_threads(1, ctx.threads, || {
                traffic.replay(&mut off, &inputs.oracle, &map)
            })?;
            let _ = self.eval_reference.set(reference);
        }
        let (got, s) = traffic.replay(&mut off, &inputs.oracle, &map)?;
        same("evaluation replay report", &got, self.eval_reference())?;
        Ok(s)
    }

    fn finish(
        &self,
        inputs: &Inputs,
        out: &Formed,
        replay_s: f64,
        tr: &mut Tracer,
        calls: &mut Calls,
        m: &mut Metrics,
    ) -> Result<(), String> {
        idle_lifecycle(m);
        m.set("gic_ms", out.gic_ms());
        m.set("core.probes", out.probes as f64);
        m.set("clustering.iterations", out.iterations as f64);

        let map = valid_partition(self.n, self.plan.k, out.groups.clone())?;
        group_size_stats(m, &map);
        m.set(
            "sim_events_per_s",
            self.eval_reference().shard_events as f64 / replay_s,
        );
        // One more evaluation replay, traced when tracing is on, for the
        // replay layer's spans.
        let (replayed, _) = tr.section(|t| inputs.traffic.replay(t, &inputs.oracle, &map))?;
        calls.record(same(
            "evaluation replay report",
            &replayed,
            self.eval_reference(),
        ));
        sim_metrics(m, &replayed.report);
        replayed.counts(m);
        if tr.is_on() {
            let requests = inputs.traffic.generate_alone(tr, self.n);
            m.set("workload.requests", requests as f64);
        }
        Ok(())
    }
}
