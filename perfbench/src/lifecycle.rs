//! `lifecycle-churn-1k`: supervised re-formation under churn on a dense
//! transit-stub network of 1 000 caches, then an epoch-by-epoch replay
//! of a materialized sporting-event trace under the fault schedule.
//!
//! Timed part: `FormationSupervisor::run` (SL, K = 125, balanced
//! policy, 10 s windows, 600 s horizon, 12 crashes/h/cache) followed by
//! `replay_epochs_observed`.

use ecg_faults::{ChurnConfig, FaultPlan};
use ecg_lifecycle::{
    FormationSupervisor, FormationTimeline, ReformDecision, ReformPolicy, SupervisorConfig,
};
use ecg_replay::{replay_epochs_observed, ReplayConfig, ReplayEpoch, StreamedWorkload};
use ecg_sim::{FaultKind, FaultSchedule, SimConfig};
use ecg_topology::{EdgeNetwork, OriginPlacement, RttSource, TransitStubConfig};
use ecg_workload::{generate_updates, DocumentCatalog, SportingEventConfig, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::TOPOLOGY_SEED;
use crate::common::{
    digest, group_size_stats, replay_span, same, sim_metrics, Calls, Ctx, Metrics,
};
use crate::formation::{self, Plan};
use crate::runner::Bench;
use crate::trace::Tracer;
use crate::traffic::Replayed;

const STEP_MS: f64 = 10_000.0;
const CRASHES_PER_HOUR_PER_CACHE: f64 = 12.0;
const MEAN_DOWNTIME_MS: f64 = 15_000.0;
const RETIREMENT_FRACTION: f64 = 0.1;
const DOCUMENTS: usize = 1_500;
/// Cache capacity of the simulated edge caches, bytes.
const CACHE_BYTES: u64 = 512 * 1024;

pub struct Lifecycle {
    n: usize,
    plan: Plan,
    horizon_ms: f64,
    network_seed: u64,
    traffic_seed: u64,
    churn_seed: u64,
    supervisor_seed: u64,
}

pub struct Inputs {
    network: EdgeNetwork,
    catalog: DocumentCatalog,
    trace: Vec<TraceEvent>,
    plan: FaultPlan,
    schedule: FaultSchedule,
}

pub struct Output {
    timeline: FormationTimeline,
    replayed: Replayed,
    supervise_s: f64,
    replay_s: f64,
}

impl Lifecycle {
    pub fn new(ctx: &Ctx) -> Self {
        let (n, k, horizon_ms) = if ctx.tiny {
            (120, 12, 120_000.0)
        } else {
            (1_000, 125, 600_000.0)
        };
        Lifecycle {
            n,
            plan: Plan {
                k,
                theta: None,
                seed: ctx.seed_for(2),
            },
            horizon_ms,
            network_seed: TOPOLOGY_SEED,
            traffic_seed: ctx.seed_for(3),
            churn_seed: ctx.seed_for(4),
            supervisor_seed: ctx.seed_for(5),
        }
    }
}

impl Bench for Lifecycle {
    type Inputs = Inputs;
    type Output = Output;

    fn caches(&self) -> usize {
        self.n
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Inputs, String> {
        let network = tr
            .span("topology.network", |_| {
                let mut rng = StdRng::seed_from_u64(self.network_seed);
                let topology = TransitStubConfig::for_caches(self.n).generate(&mut rng);
                EdgeNetwork::place(&topology, self.n, OriginPlacement::TransitNode, &mut rng)
            })
            .map_err(|e| format!("placement: {e}"))?;
        let sporting = SportingEventConfig::default()
            .caches(self.n)
            .documents(DOCUMENTS)
            .duration_ms(self.horizon_ms);
        let (catalog, updates, master) = tr.span("workload.inputs", |_| {
            let mut rng = StdRng::seed_from_u64(self.traffic_seed);
            let catalog = sporting.catalog_config().generate(&mut rng);
            let updates = generate_updates(&catalog, self.horizon_ms, &mut rng);
            (catalog, updates, rng.gen())
        });
        let trace = tr.span("workload.generate", |_| {
            StreamedWorkload::new(sporting.request_config(), master, self.horizon_ms)
                .updates(&updates)
                .materialize_trace(&catalog, self.n)
        });
        let plan = tr.span("faults.plan", |_| {
            ChurnConfig::default()
                .crashes_per_hour_per_cache(CRASHES_PER_HOUR_PER_CACHE)
                .mean_downtime_ms(MEAN_DOWNTIME_MS)
                .retirement_fraction(RETIREMENT_FRACTION)
                .generate(
                    self.n,
                    self.horizon_ms,
                    &mut StdRng::seed_from_u64(self.churn_seed),
                )
        });
        let schedule = plan.schedule();
        Ok(Inputs {
            network,
            catalog,
            trace,
            plan,
            schedule,
        })
    }

    fn digest(&self, inputs: &Inputs) -> u64 {
        let rtt = inputs.network.rtt_matrix();
        let rtts = (1..=16).map(|i| rtt.rtt_ms(0, i).to_bits());
        digest(rtts.chain([inputs.trace.len() as u64, inputs.plan.events().len() as u64]))
    }

    fn call(&self, inputs: &Inputs, tr: &mut Tracer) -> Result<Output, String> {
        let supervisor = FormationSupervisor::new(
            SupervisorConfig::new(self.plan.scheme())
                .step_ms(STEP_MS)
                .policy(ReformPolicy::balanced()),
        );
        let start = tr.now();
        let timeline = tr
            .span("lifecycle.supervise", |_| {
                supervisor.run(
                    &inputs.network,
                    &inputs.schedule,
                    self.horizon_ms,
                    &mut StdRng::seed_from_u64(self.supervisor_seed),
                )
            })
            .map_err(|e| format!("supervisor: {e}"))?;
        let supervise_s = tr.now() - start;
        let epochs: Vec<ReplayEpoch> = timeline
            .epoch_spans()
            .map(|(start, groups)| ReplayEpoch::new(start, groups.clone()))
            .collect();
        let config = ReplayConfig::new()
            .sim(
                SimConfig::default()
                    .cache_capacity_bytes(CACHE_BYTES)
                    .warmup_ms(self.horizon_ms / 6.0),
            )
            .schedule(inputs.schedule.clone());
        let (out, replay_s) = replay_span(
            tr,
            "replay.epochs",
            || {
                replay_epochs_observed(
                    &inputs.network,
                    &epochs,
                    &inputs.catalog,
                    &inputs.trace,
                    &config,
                    None,
                )
                .map_err(|e| format!("epoch replay: {e}"))
            },
            |r| r.timings,
        )?;
        Ok(Output {
            timeline,
            replayed: Replayed {
                report: out.report,
                shards: out.shards,
                shard_events: out.shard_events,
            },
            supervise_s,
            replay_s,
        })
    }

    fn check(&self, got: &Output, reference: &Output) -> Result<(), String> {
        same(
            "timeline JSON",
            &got.timeline.to_json(),
            &reference.timeline.to_json(),
        )?;
        same("epoch SimReport", &got.replayed, &reference.replayed)
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
        _: &mut Calls,
        m: &mut Metrics,
    ) -> Result<(), String> {
        // GIC of every epoch's grouping, weighted by how long it served:
        // the interaction cost the run's clients saw.
        let epochs = out.timeline.epochs();
        let first = &epochs.first().ok_or("the timeline has no epoch")?.groups;
        let gic = tr.span("core.gic", |_| {
            let mut weighted = 0.0;
            for (i, epoch) in epochs.iter().enumerate() {
                let end = epochs.get(i + 1).map_or(self.horizon_ms, |e| e.start_ms);
                let cost = formation::gic(inputs.network.rtt_matrix(), epoch.groups.groups());
                weighted += (end - epoch.start_ms) * cost;
            }
            weighted / (self.horizon_ms - epochs[0].start_ms)
        });
        m.set("gic_ms", gic);
        group_size_stats(m, first);

        let replayed = &out.replayed;
        m.set("sim_events_per_s", replayed.shard_events as f64 / replay_s);
        sim_metrics(m, &replayed.report);
        replayed.counts(m);

        let timeline = &out.timeline;
        m.set("lifecycle.windows", timeline.decisions().len() as f64);
        m.set("lifecycle.epochs", timeline.epochs().len() as f64);
        for (name, decision) in [
            ("lifecycle.holds", ReformDecision::Hold),
            ("lifecycle.repairs", ReformDecision::Repair),
            ("lifecycle.partial_reforms", ReformDecision::PartialReform),
            ("lifecycle.full_reforms", ReformDecision::FullReform),
        ] {
            m.set(name, timeline.decision_count(decision) as f64);
        }
        let is_reform = |d: ReformDecision| {
            matches!(
                d,
                ReformDecision::PartialReform | ReformDecision::FullReform
            )
        };
        let asked = timeline
            .decisions()
            .iter()
            .filter(|r| is_reform(r.decision) || r.demoted_from.is_some_and(is_reform))
            .count();
        let demoted = timeline
            .decisions()
            .iter()
            .filter(|r| r.demoted_from.is_some_and(is_reform))
            .count();
        m.set(
            "lifecycle.demoted_frac",
            if asked > 0 {
                demoted as f64 / asked as f64
            } else {
                0.0
            },
        );
        m.set(
            "lifecycle.supervise_frac",
            out.supervise_s / (out.supervise_s + out.replay_s),
        );
        let events = inputs.plan.events();
        let crashes = events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::CacheDown { .. }))
            .count();
        let retirements = events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::CacheRetire { .. }))
            .count();
        m.set("faults.crashes", crashes as f64);
        m.set("faults.retirements", retirements as f64);

        if tr.is_on() {
            let requests = inputs
                .trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::Request(_)))
                .count();
            m.set("workload.requests", requests as f64);
            // The supervisor's formations run inside its composite call;
            // their layers are timed here alone, on the same network.
            let (probes, iterations) = formation::resilient_split(tr, &inputs.network, self.plan)?;
            m.set("core.probes", probes as f64);
            m.set("clustering.iterations", iterations as f64);
        }
        Ok(())
    }
}
