//! Group formation, whole and split into its layers.
//!
//! [`composite`] is one call to `GfCoordinator::form_groups_scaled`.
//! [`split`] calls the same three public layer functions in the same
//! RNG order, each inside its own span, so that the traced run measures
//! the program the untraced run measures; [`Formed`] equality between
//! the two is asserted by the callers. [`resilient_split`] does the same
//! for the paper path with resilience, the formation the lifecycle
//! supervisor runs.

use ecg_clustering::{
    average_group_interaction_cost, kmeans_masked_observed, kmeans_variant,
    server_distance_weights, take_tree_build_ms, AssignMode, Initializer, KmeansConfig,
    KmeansVariant,
};
use ecg_coords::{
    build_feature_matrix_par, build_feature_matrix_resilient_observed, FeatureMatrix, ProbeConfig,
    Prober,
};
use ecg_core::{
    select_landmarks_par, select_landmarks_resilient_observed, GfCoordinator, GroupingOutcome,
    LandmarkSelection, LandmarkSelector, ResilienceConfig, SchemeConfig,
};
use ecg_topology::{CacheId, EdgeNetwork, RttSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// Landmarks `L` and PLSet multiplier `M`: the library's defaults,
/// spelled out so the split uses the same.
const LANDMARKS: usize = 25;
const PLSET_MULTIPLIER: usize = 4;
/// The Lloyd iteration cap. Under the library's default of 100, SDSL
/// over 50 000 caches converges after 69–93 iterations for some seeds
/// and stops at the cap for the others, so the work of a run depended
/// on its seed by about a fifth. Every seed measured runs past 50, so
/// under this cap every run does the same number of iterations.
const MAX_ITERATIONS: usize = 50;

/// One formation request: `k` groups, SDSL with `theta` (SL if `None`).
#[derive(Clone, Copy)]
pub struct Plan {
    pub k: usize,
    pub theta: Option<f64>,
    pub seed: u64,
}

impl Plan {
    pub fn scheme(&self) -> SchemeConfig {
        match self.theta {
            Some(theta) => SchemeConfig::sdsl(self.k, theta),
            None => SchemeConfig::sl(self.k),
        }
        .landmarks(LANDMARKS)
        .plset_multiplier(PLSET_MULTIPLIER)
        .selector(LandmarkSelector::GreedyMaxMin)
        .probe(ProbeConfig::default())
        .kmeans_max_iterations(MAX_ITERATIONS)
        .kmeans_assign(AssignMode::Auto)
    }

    fn kmeans_config(&self) -> KmeansConfig {
        KmeansConfig::new(self.k)
            .max_iterations(MAX_ITERATIONS)
            .assign(AssignMode::Auto)
    }

    fn initializer(&self, server_distances: &[f64]) -> Initializer {
        match self.theta {
            Some(theta) => Initializer::Weighted(server_distance_weights(server_distances, theta)),
            None => Initializer::RandomRepresentative,
        }
    }
}

/// Everything a formation returns that the correctness gate compares:
/// the public fields of `GroupingOutcome` plus the GIC bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Formed {
    pub groups: Vec<Vec<CacheId>>,
    pub assignments: Vec<usize>,
    pub landmarks: LandmarkSelection,
    pub server_distances_ms: Vec<f64>,
    pub probes: u64,
    pub iterations: usize,
    pub centers: FeatureMatrix,
    pub points: FeatureMatrix,
    pub gic_bits: u64,
}

impl Formed {
    fn from_outcome(o: GroupingOutcome, gic: f64) -> Self {
        Formed {
            groups: o.groups().to_vec(),
            assignments: o.assignments().to_vec(),
            landmarks: o.landmarks().clone(),
            server_distances_ms: o.server_distances_ms().to_vec(),
            probes: o.probes_sent(),
            iterations: o.kmeans_iterations(),
            centers: o.centers().clone(),
            points: o.points().clone(),
            gic_bits: gic.to_bits(),
        }
    }

    pub fn gic_ms(&self) -> f64 {
        f64::from_bits(self.gic_bits)
    }
}

/// Average group interaction cost of `groups`; cache `i` is node `i + 1`
/// of `source` (node 0 is the origin).
pub fn gic(source: &dyn RttSource, groups: &[Vec<CacheId>]) -> f64 {
    let as_indices: Vec<Vec<usize>> = groups
        .iter()
        .map(|g| g.iter().map(|c| c.index()).collect())
        .collect();
    average_group_interaction_cost(&as_indices, |a, b| source.rtt_ms(a + 1, b + 1))
}

/// `form_groups_scaled` plus the GIC of its grouping, as one call each.
pub fn composite(source: &dyn RttSource, plan: Plan) -> Result<Formed, String> {
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let formed = GfCoordinator::new(plan.scheme())
        .form_groups_scaled(source, &mut rng)
        .map_err(|e| format!("formation: {e}"))?;
    let outcome = formed.outcome;
    let gic = outcome.average_interaction_cost(|a, b| source.rtt_ms(a.index() + 1, b.index() + 1));
    Ok(Formed::from_outcome(outcome, gic))
}

/// The layers of [`composite`], one span each; the KD-tree build time
/// the clustering layer reports is a child span of its call.
pub fn split(tr: &mut Tracer, source: &dyn RttSource, plan: Plan) -> Result<Formed, String> {
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let n = source.node_count() - 1;
    let prober = Prober::new(source, ProbeConfig::default());
    let selection = tr
        .span("core.landmarks", |_| {
            select_landmarks_par(
                &prober,
                LandmarkSelector::GreedyMaxMin,
                LANDMARKS.min(n + 1),
                PLSET_MULTIPLIER,
                &mut rng,
            )
        })
        .map_err(|e| format!("landmarks: {e}"))?;
    let nodes: Vec<usize> = (1..=n).collect();
    let points = tr.span("coords.features", |_| {
        build_feature_matrix_par(&prober, &nodes, &selection.landmarks, &mut rng)
    });
    let server: Vec<f64> = points.iter_rows().map(|row| row[0]).collect();
    let clustering = tr
        .span("clustering.kmeans", |t| {
            let start = t.now();
            let _ = take_tree_build_ms();
            let clustering = kmeans_variant(
                &points,
                plan.kmeans_config(),
                &KmeansVariant::Lloyd,
                &plan.initializer(&server),
                &mut rng,
            );
            t.reported(start, &[("clustering.tree_build", take_tree_build_ms())]);
            clustering
        })
        .map_err(|e| format!("clustering: {e}"))?;
    let groups: Vec<Vec<CacheId>> = clustering
        .clusters()
        .into_iter()
        .map(|members| members.into_iter().map(CacheId).collect())
        .collect();
    let gic = tr.span("core.gic", |_| gic(source, &groups));
    Ok(Formed {
        groups,
        assignments: clustering.assignments().to_vec(),
        landmarks: selection,
        server_distances_ms: server,
        probes: prober.probes_sent(),
        iterations: clustering.iterations(),
        centers: clustering.centers().clone(),
        points,
        gic_bits: gic.to_bits(),
    })
}

/// The fault-free resilient paper-path formation on `network`, split
/// into its landmark, feature and masked-clustering calls. Returns the
/// assignments, probes sent and Lloyd iterations, and checks the
/// assignments against one `form_groups` call with the same seed.
pub fn resilient_split(
    tr: &mut Tracer,
    network: &EdgeNetwork,
    plan: Plan,
) -> Result<(u64, usize), String> {
    let resilience = ResilienceConfig::default();
    let policy = resilience.retry_policy();
    let n = network.cache_count();
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let prober = Prober::new(network.rtt_matrix(), ProbeConfig::default());
    let selection = tr
        .span("core.landmarks", |_| {
            select_landmarks_resilient_observed(
                &prober,
                LandmarkSelector::GreedyMaxMin,
                LANDMARKS.min(n + 1),
                PLSET_MULTIPLIER,
                policy,
                &mut rng,
                None,
            )
        })
        .map_err(|e| format!("landmarks: {e}"))?
        .selection;
    let nodes: Vec<usize> = (1..=n).collect();
    let (points, mask) = tr.span("coords.features", |_| {
        build_feature_matrix_resilient_observed(
            &prober,
            &nodes,
            &selection.landmarks,
            policy,
            &mut rng,
            None,
        )
    });
    if (0..n).any(|i| mask.observed_count(i) < mask.dim()) {
        return Err("fault-free probing left a feature unobserved".into());
    }
    let server: Vec<f64> = points.iter_rows().map(|row| row[0]).collect();
    let clustering = tr
        .span("clustering.kmeans", |_| {
            kmeans_masked_observed(
                &points,
                &mask,
                plan.kmeans_config(),
                &plan.initializer(&server),
                &mut rng,
                None,
            )
        })
        .map_err(|e| format!("clustering: {e}"))?;

    let whole = GfCoordinator::new(plan.scheme().resilience(resilience))
        .form_groups(network, &mut StdRng::seed_from_u64(plan.seed))
        .map_err(|e| format!("formation: {e}"))?;
    if whole.assignments() != clustering.assignments() {
        return Err("split resilient formation differs from form_groups".into());
    }
    Ok((prober.probes_sent(), clustering.iterations()))
}
