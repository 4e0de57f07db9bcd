//! Streamed request traffic over a synthetic oracle, as the replay and
//! formation workloads drive it.

use std::hint::black_box;

use ecg_replay::{replay_streamed_observed, ReplayConfig, StreamedWorkload};
use ecg_sim::{GroupMap, SimConfig, SimReport};
use ecg_topology::SyntheticRtt;
use ecg_workload::{
    generate_updates, CatalogConfig, DocumentCatalog, RequestConfig, Update, ZipfSampler,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{replay_span, Metrics};
use crate::trace::Tracer;

/// Requests per second per cache.
const RATE_PER_SEC: f64 = 2.0;
const DOCUMENTS: usize = 1_500;

/// Catalog, update log and request master seed of a streamed replay.
pub struct Traffic {
    pub catalog: DocumentCatalog,
    pub updates: Vec<Update>,
    pub master: u64,
    pub duration_ms: f64,
}

/// What a replay returns that the correctness gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    pub report: SimReport,
    pub shards: usize,
    pub shard_events: u64,
}

impl Replayed {
    /// Per-layer replay and simulator counts.
    pub fn counts(&self, m: &mut Metrics) {
        m.set("replay.shards", self.shards as f64);
        m.set("replay.shard_events", self.shard_events as f64);
        crate::common::sim_counts(m, &self.report);
    }
}

impl Traffic {
    pub fn generate(seed: u64, duration_ms: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = CatalogConfig::default()
            .documents(DOCUMENTS)
            .generate(&mut rng);
        let updates = generate_updates(&catalog, duration_ms, &mut rng);
        let master = rng.gen();
        Traffic {
            catalog,
            updates,
            master,
            duration_ms,
        }
    }

    fn requests() -> RequestConfig {
        RequestConfig::default().rate_per_sec_per_cache(RATE_PER_SEC)
    }

    /// `replay_streamed_observed` of this traffic over `map`, inside a
    /// `replay.call` span. Returns the output and the call's seconds.
    pub fn replay(
        &self,
        tr: &mut Tracer,
        oracle: &SyntheticRtt,
        map: &GroupMap,
    ) -> Result<(Replayed, f64), String> {
        let workload = StreamedWorkload::new(Self::requests(), self.master, self.duration_ms)
            .updates(&self.updates);
        let config =
            ReplayConfig::default().sim(SimConfig::default().warmup_ms(self.duration_ms / 6.0));
        let (out, s) = replay_span(
            tr,
            "replay.call",
            || {
                replay_streamed_observed(oracle, map, &self.catalog, &workload, &config, None)
                    .map_err(|e| format!("replay: {e}"))
            },
            |r| r.timings,
        )?;
        let replayed = Replayed {
            report: out.report,
            shards: out.shards,
            shard_events: out.shard_events,
        };
        Ok((replayed, s))
    }

    /// Generates the request streams the replay generates inside its
    /// shards, alone and in one thread, inside a `workload.generate`
    /// span. Returns the number of requests.
    pub fn generate_alone(&self, tr: &mut Tracer, caches: usize) -> u64 {
        let requests = Self::requests();
        tr.span("workload.generate", |_| {
            let zipf = ZipfSampler::new(self.catalog.len(), requests.zipf_exponent_value());
            let mut count = 0u64;
            for cache in 0..caches {
                for request in requests.stream_cache(&zipf, cache, self.master, self.duration_ms) {
                    black_box(request);
                    count += 1;
                }
            }
            count
        })
    }
}
