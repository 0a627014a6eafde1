//! `local-write-topk`: a raw pool behind an in-process [`LocalService`],
//! one closed-loop caller repeating a write-then-read cycle.
//!
//! Each cycle applies one structural `mutate_batch` ([`INSERTS`] random
//! `InsertEdge` + [`DELETES`] `DeleteEdge` of existing edges), then asks
//! `TopK` k=[`K`] — always a cache miss, since the epoch moved — then
//! [`ESTIMATES`] `Estimate`s of size 1/3/8. Every estimate is checked
//! against the oracle; at teardown the served index must equal, byte for
//! byte, a from-scratch `build_with_deltas` rebuild over the same deltas,
//! and the last `TopK` must equal greedy on that rebuild.
//!
//! [`LocalService`] forwards every call to [`QueryEngine`], so an operation
//! span is the engine call. A traced run replays each operation's layer
//! call right after it on the same inputs, as the operation's child:
//! `DynamicOracle::apply_batch` on a benchmark-owned copy for a batch,
//! `greedy_seed_set` on the engine's snapshot for a `TopK` miss, and
//! `QueryEngine::estimate` for an estimate.

use std::sync::Arc;
use std::time::Instant;

use imdyn::DynamicOracle;
use imgraph::GraphDelta;
use imserve::engine::QueryEngine;
use imserve::index::IndexArtifact;
use imserve::service::{InfluenceService, LocalService};
use imserve::TopKAlgorithm;

use crate::{
    fixture, op, overhead_pct, peak_rss_mb, postings, quantile, reset_peak_rss, rr_vertices,
    scan_sets_per_s, timed_setups, Config, Layers, Outcome, Rng, Tracer, ESTIMATE_SIZES, GRAPH_ID,
    MODEL,
};

/// `TopK` size of every cycle.
pub const K: usize = 50;
/// `InsertEdge`s per batch.
pub const INSERTS: usize = 4;
/// `DeleteEdge`s per batch.
pub const DELETES: usize = 4;
/// `Estimate`s per cycle.
pub const ESTIMATES: usize = 64;
/// Cycles of a traced run (fixed, so its counts repeat exactly).
pub const TRACED_CYCLES: usize = 5;

/// One live deployment.
pub struct Deployment {
    engine: Arc<QueryEngine>,
    service: LocalService,
}

fn setup(config: &Config, layers: &mut Layers) -> Result<Deployment, String> {
    let began = Instant::now();
    let graph = fixture(config.scale, config.seed);
    layers.set("fixture.generate_s", began.elapsed().as_secs_f64());
    let began = Instant::now();
    let artifact = IndexArtifact::build(GRAPH_ID, MODEL, graph, config.scale.pool, config.seed);
    layers.set("sampler.pool_build_s", began.elapsed().as_secs_f64());
    let engine = Arc::new(
        QueryEngine::builder(artifact)
            .build()
            .map_err(|e| format!("engine: {e}"))?,
    );
    let mut service = LocalService::new(Arc::clone(&engine));
    let probe = [0u32];
    let first = service
        .estimate(&probe)
        .map_err(|e| format!("first estimate: {e}"))?;
    let state = engine.state();
    let oracle = state.dynamic.oracle();
    if first.covered != oracle.covered_with(&probe, &mut oracle.scratch()) as u64 {
        return Err("first estimate differs from the oracle".into());
    }
    drop(state);
    Ok(Deployment { engine, service })
}

/// One structural batch: random new edges plus deletions of existing ones
/// (see [`crate::edge_into_random_vertex`]).
fn structural_batch(engine: &QueryEngine, rng: &mut Rng) -> Vec<GraphDelta> {
    let state = engine.state();
    let graph = state.dynamic.mutable_graph();
    let n = graph.num_vertices();
    let mut deltas = Vec::with_capacity(INSERTS + DELETES);
    while deltas.len() < INSERTS {
        let (source, target) = (rng.below(n) as u32, rng.below(n) as u32);
        if source != target {
            deltas.push(GraphDelta::InsertEdge {
                source,
                target,
                probability: 0.05 + 0.9 * rng.unit(),
            });
        }
    }
    let mut picked: Vec<(u32, u32)> = Vec::with_capacity(DELETES);
    while picked.len() < DELETES {
        let edge = crate::edge_into_random_vertex(state.dynamic.graph(), rng);
        if !picked.contains(&edge) {
            picked.push(edge);
        }
    }
    for (source, target) in picked {
        deltas.push(GraphDelta::DeleteEdge { source, target });
    }
    deltas
}

/// What the cycles observed.
#[derive(Default)]
struct Observed {
    topk_us: Vec<f64>,
    estimate_us: Vec<f64>,
}

/// Run up to `cycles` cycles within about `seconds`.
#[allow(clippy::too_many_arguments)]
fn cycles(
    dep: &mut Deployment,
    rng: &mut Rng,
    deltas_applied: &mut Vec<GraphDelta>,
    cycles: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
    copy: &mut Option<DynamicOracle>,
    outcome: &mut Outcome,
    layers: &mut Layers,
) -> Observed {
    let mut seen = Observed::default();
    let began = Instant::now();
    let mut request = deltas_applied.len() as u64 * 1000;
    let mut cycle_s = 0.0;
    for _ in 0..cycles {
        // Start another cycle only if at least half of it fits.
        if began.elapsed().as_secs_f64() + 0.5 * cycle_s > seconds {
            break;
        }
        let cycle_began = Instant::now();
        let deltas = structural_batch(&dep.engine, rng);
        let epoch = dep.engine.epoch();
        request += 1;
        let service = &mut dep.service;
        let (got, _, root) = op(tracer, "op.mutate_batch", request, |_| {
            service.mutate_batch(&deltas)
        });
        outcome.op(
            matches!(&got, Ok(m) if m.applied == deltas.len() && m.epoch == epoch + deltas.len() as u64),
            || format!("mutate_batch: {got:?} at epoch {epoch}"),
        );
        deltas_applied.extend_from_slice(&deltas);
        if let (Some(tracer), Some(copy)) = (tracer, copy.as_mut()) {
            let applied = tracer.time("imdyn.apply_batch", root, request, || {
                copy.apply_batch(&deltas)
            });
            assert!(
                applied.is_ok(),
                "the benchmark copy rejected a batch the engine took"
            );
        }

        request += 1;
        let (selection, micros, root) = op(tracer, "op.top_k", request, |_| {
            service.top_k(K, TopKAlgorithm::Greedy)
        });
        seen.topk_us.push(micros);
        let dynamic = Arc::clone(&dep.engine.state().dynamic);
        let oracle = dynamic.oracle();
        let plausible = matches!(&selection, Ok(s) if s.seeds.len() == K
            && s.spread.to_bits() == oracle.estimate(&s.seeds).to_bits());
        outcome.op(plausible, || format!("top_k({K}) = {selection:?}"));
        if let Some(tracer) = tracer {
            // Greedy straight on the snapshot must pick the identical seeds.
            let greedy = tracer.time("oracle.greedy", root, request, || oracle.greedy_seed_set(K));
            outcome.op(
                matches!(&selection, Ok(s) if s.seeds == greedy.0 && s.spread.to_bits() == greedy.1.to_bits()),
                || format!("top_k {selection:?} differs from greedy {greedy:?}"),
            );
            let graph = tracer.time("imgraph.materialize", 0, request, || {
                dynamic.mutable_graph().materialize()
            });
            assert_eq!(graph.num_edges(), dynamic.graph().num_edges());
        }

        let n = oracle.num_vertices();
        let mut scratch = oracle.scratch();
        let mut engine_scratch = dep.engine.new_scratch();
        for i in 0..ESTIMATES {
            let seeds = rng.seeds(n, ESTIMATE_SIZES[i % ESTIMATE_SIZES.len()]);
            request += 1;
            let (got, micros, root) =
                op(tracer, "op.estimate", request, |_| service.estimate(&seeds));
            seen.estimate_us.push(micros);
            if let Some(tracer) = tracer {
                let replay = tracer.time("engine.estimate", root, request, || {
                    dep.engine.estimate(&seeds, &mut engine_scratch)
                });
                assert!(replay.is_ok(), "the engine refused a replayed estimate");
            }
            let covered = match tracer {
                Some(tracer) => tracer.time("oracle.covered_with", 0, request, || {
                    oracle.covered_with(&seeds, &mut scratch)
                }),
                None => oracle.covered_with(&seeds, &mut scratch),
            } as u64;
            if tracer.is_some() {
                layers.extend(
                    "oracle.postings_per_estimate",
                    &[postings(oracle, &seeds) as f64],
                );
            }
            outcome.op(matches!(&got, Ok(e) if e.covered == covered), || {
                format!("estimate({seeds:?}) = {got:?}, oracle covers {covered}")
            });
        }
        cycle_s = cycle_began.elapsed().as_secs_f64();
    }
    seen
}

/// Run the workload.
///
/// # Errors
///
/// Fails when the deployment cannot be set up.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::new();
    let mut layers = Layers::default();
    let tracer = config.trace.then(Tracer::new);
    let tracer = tracer.as_ref();
    let mut dep = timed_setups(config, &mut outcome, || setup(config, &mut layers))?;
    reset_peak_rss();
    let mut rng = Rng::new(config.seed, 1);
    let mut deltas: Vec<GraphDelta> = Vec::new();
    let mut no_copy = None;

    // Warm-up: one untimed cycle.
    cycles(
        &mut dep,
        &mut rng,
        &mut deltas,
        1,
        f64::INFINITY,
        None,
        &mut no_copy,
        &mut outcome,
        &mut layers,
    );
    let stats_before = dep.engine.stats();
    if let Some(tracer) = tracer {
        let plain = cycles(
            &mut dep,
            &mut rng,
            &mut deltas,
            1,
            f64::INFINITY,
            None,
            &mut no_copy,
            &mut outcome,
            &mut layers,
        );
        let mut copy = Some((*dep.engine.state().dynamic).clone());
        let traced = cycles(
            &mut dep,
            &mut rng,
            &mut deltas,
            TRACED_CYCLES,
            f64::INFINITY,
            Some(tracer),
            &mut copy,
            &mut outcome,
            &mut layers,
        );
        layers.set(
            "trace.overhead_pct",
            overhead_pct(&plain.estimate_us, &traced.estimate_us),
        );
        crate::estimate_latency(&mut layers, &plain.estimate_us);
        let stats_after = dep.engine.stats();
        let hits = (stats_after.topk_cache_hits - stats_before.topk_cache_hits) as f64;
        let misses = (stats_after.topk_cache_misses - stats_before.topk_cache_misses) as f64;
        layers.set("engine.topk_cache_hits", hits);
        layers.set("engine.topk_cache_misses", misses);
        layers.set(
            "engine.topk_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        let copy = copy.expect("copy kept");
        let stats = copy.stats();
        layers.set("imdyn.sets_resampled", stats.sets_resampled as f64);
        layers.set(
            "imdyn.csr_materializations",
            stats.csr_materializations as f64,
        );
        layers.set("imdyn.attribute_patches", stats.attribute_patches as f64);
        drop(copy);
        for (metric, span, scale) in [
            ("engine.mutate_batch_ms", "op.mutate_batch", 1e3),
            ("engine.top_k_miss_ms", "op.top_k", 1e3),
            ("engine.estimate_us", "engine.estimate", 1.0),
            ("oracle.estimate_us", "oracle.covered_with", 1.0),
            ("oracle.greedy_ms", "oracle.greedy", 1e3),
            ("imgraph.materialize_ms", "imgraph.materialize", 1e3),
            ("imdyn.apply_batch_ms", "imdyn.apply_batch", 1e3),
        ] {
            layers.set(metric, tracer.median_micros(span) / scale);
        }
        layers.set(
            "oracle.postings_per_estimate",
            layers.median_of("oracle.postings_per_estimate"),
        );
        let engine = Arc::clone(&dep.engine);
        let stats = engine.stats();
        layers.set("impool.resident_bytes", stats.pool_resident_bytes as f64);
        layers.set("impool.bytes_per_set", stats.pool_bytes_per_set());
        let dynamic = Arc::clone(&engine.state().dynamic);
        layers.set("sampler.rr_vertices", rr_vertices(dynamic.oracle()) as f64);
        layers.set(
            "impool.scan_sets_per_s",
            scan_sets_per_s(tracer, dynamic.oracle()),
        );
        drop(dynamic);
        tracer
            .time("engine.gains", 0, 0, || engine.gains(&[]))
            .map_err(|e| e.to_string())?;
        layers.set(
            "engine.gains_ms",
            tracer.median_micros("engine.gains") / 1e3,
        );
        let hit = tracer.time("engine.top_k_hit", 0, 0, || {
            engine.top_k(K, TopKAlgorithm::Greedy)
        });
        outcome.op(hit.is_ok(), || format!("cached top_k: {hit:?}"));
        layers.set(
            "engine.top_k_hit_us",
            tracer.median_micros("engine.top_k_hit"),
        );
    } else {
        let seen = cycles(
            &mut dep,
            &mut rng,
            &mut deltas,
            usize::MAX,
            config.seconds,
            None,
            &mut no_copy,
            &mut outcome,
            &mut layers,
        );
        outcome.put("topk_p50_ms", quantile(&seen.topk_us, 0.5) / 1e3, "ms");
        outcome.samples.insert("estimate", seen.estimate_us.len());
        outcome.samples.insert("top_k", seen.topk_us.len());
        outcome.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    teardown_check(config, dep, &deltas, &mut outcome)?;
    if let Some(tracer) = tracer {
        let unattributed = tracer.unattributed_pct();
        layers.finish(
            tracer,
            &mut outcome,
            config,
            "local-write-topk",
            unattributed,
        );
    }
    Ok(outcome)
}

/// Invariant 2 at teardown (untimed): the served index equals a
/// from-scratch rebuild over the same delta history, and the cached `TopK`
/// equals greedy on that rebuild. The rebuild regenerates the fixture from
/// the seed, so no copy of the graph lives beside the deployment.
fn teardown_check(
    config: &Config,
    dep: Deployment,
    deltas: &[GraphDelta],
    outcome: &mut Outcome,
) -> Result<(), String> {
    let Deployment {
        engine,
        mut service,
    } = dep;
    let served = service.top_k(K, TopKAlgorithm::Greedy);
    let served_bytes = engine.state().to_artifact().to_bytes();
    drop(service);
    drop(engine);
    let rebuilt = IndexArtifact::build_with_deltas(
        GRAPH_ID,
        MODEL,
        fixture(config.scale, config.seed),
        deltas,
        config.scale.pool,
        config.seed,
    )
    .map_err(|e| format!("rebuild: {e}"))?;
    let rebuilt_bytes = rebuilt.to_bytes();
    outcome.op(served_bytes == rebuilt_bytes, || {
        format!(
            "served index ({} bytes) differs from the build_with_deltas rebuild ({} bytes)",
            served_bytes.len(),
            rebuilt_bytes.len()
        )
    });
    drop((served_bytes, rebuilt_bytes));
    let greedy = rebuilt.oracle.greedy_seed_set(K);
    outcome.op(
        matches!(&served, Ok(s) if s.seeds == greedy.0 && s.spread.to_bits() == greedy.1.to_bits()),
        || format!("final top_k {served:?} differs from greedy on the rebuild {greedy:?}"),
    );
    Ok(())
}
