//! `sharded-tiered`: two tiered shards, each loaded from a real `*.imx`
//! (cold blocks stay on disk) and served by its own reactor, behind a
//! [`ShardedService`] router in the benchmark process.
//!
//! One closed-loop caller repeats: one attribute-only `mutate_batch`
//! ([`BATCH`] `SetProbability`) broadcast to both shards, then `TopK`
//! k=[`K`] — a router-greedy miss that pulls a dense per-vertex
//! `GainVector` from every shard every round — then [`ESTIMATES`]
//! `Estimate`s. Router answers must be bit-identical to a whole-pool
//! [`LocalService`] that received the same batches, at the start and at
//! the end of the run; every estimate in between is checked against the
//! shards' oracles. The reference is built after the measured phase, from a
//! regenerated fixture, so it never lives beside the deployment: the start
//! answers are recorded and checked against it at epoch 0.
//!
//! A traced operation's children are the shard legs the router fans out,
//! so the share of its time they leave unaccounted for is the router's own
//! work (summing gain vectors, picking seeds, spawning the fan-out).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use im_core::PoolLayout;
use imdyn::DynamicOracle;
use imgraph::GraphDelta;
use imserve::engine::QueryEngine;
use imserve::index::IndexArtifact;
use imserve::service::{
    CompactionReport, GainVector, InfluenceService, LocalService, MetricsReport, MutationOutcome,
    ServiceInfo, ServiceResult, ServiceStats, SpreadEstimate, TopKSelection,
};
use imserve::{
    reactor, ReactorConfig, RemoteService, Request, Response, ServerHandle, ShardedService,
    TopKAlgorithm,
};

use crate::{
    attribute_batch, codec, fixture, histogram_delta_mean, histogram_delta_quantile, median, op,
    overhead_pct, peak_rss_mb, postings, probe_sets, quantile, reset_peak_rss, rr_vertices,
    scan_sets_per_s, timed_setups, Config, Layers, Outcome, Rng, Tracer, ESTIMATE_SIZES, GRAPH_ID,
    MODEL,
};

/// Shards of the global pool.
pub const SHARDS: usize = 2;
/// `TopK` size of every cycle.
pub const K: usize = 8;
/// `SetProbability` deltas per batch.
pub const BATCH: usize = 4;
/// `Estimate`s per cycle.
pub const ESTIMATES: usize = 200;
/// Compute threads of each shard's reactor.
pub const COMPUTE_THREADS: usize = 1;
/// Cycles of a traced run (fixed, so its counts repeat exactly).
pub const TRACED_CYCLES: usize = 1;
/// Seconds of measurement one untraced cycle stands for. A cycle takes
/// 7–9 s, so ending on a time limit would make the cycle count flip with
/// host speed; an untraced run does a fixed `seconds / 6` cycles instead.
pub const SECONDS_PER_CYCLE: f64 = 6.0;

fn untraced_cycles(seconds: f64) -> usize {
    (seconds / SECONDS_PER_CYCLE).round().max(1.0) as usize
}

/// What the traced router records about its shard legs. The atomics are
/// `Relaxed`: the benchmark thread stores them before the router call, and
/// the router spawns its fan-out threads inside that call, which orders the
/// stores before the legs' loads.
#[derive(Debug, Default)]
pub struct Legs {
    tracer: Option<Arc<Tracer>>,
    /// Span the legs hang under (the operation in flight).
    parent: AtomicU32,
    request: AtomicU64,
    /// Keep every `GainVector` a shard returns (for the wire-byte count).
    capture: AtomicBool,
    gains: Mutex<Vec<CapturedGains>>,
    /// Shard 0's answer to the last traced batch.
    mutation: Mutex<Option<MutationOutcome>>,
}

/// One captured `gains` leg: its round (seeds selected so far), shard,
/// request and answer.
#[derive(Debug)]
struct CapturedGains {
    round: usize,
    shard: usize,
    selected: Vec<u32>,
    gains: GainVector,
}

/// One shard backend of the router: a [`RemoteService`] whose calls are
/// timed as `shard.*` spans when the run is traced.
#[derive(Debug)]
pub struct ShardClient {
    inner: RemoteService,
    shard: usize,
    legs: Arc<Legs>,
}

impl ShardClient {
    fn leg<T>(&mut self, name: &'static str, f: impl FnOnce(&mut RemoteService) -> T) -> T {
        match self.legs.tracer.as_deref() {
            Some(tracer) => {
                let parent = self.legs.parent.load(Ordering::Relaxed);
                let request = self.legs.request.load(Ordering::Relaxed);
                tracer.time(name, parent, request, || f(&mut self.inner))
            }
            None => f(&mut self.inner),
        }
    }
}

impl InfluenceService for ShardClient {
    fn info(&mut self) -> ServiceResult<ServiceInfo> {
        self.inner.info()
    }
    fn estimate(&mut self, seeds: &[u32]) -> ServiceResult<SpreadEstimate> {
        self.leg("shard.estimate", |s| s.estimate(seeds))
    }
    fn top_k(&mut self, k: usize, algorithm: TopKAlgorithm) -> ServiceResult<TopKSelection> {
        self.inner.top_k(k, algorithm)
    }
    fn gains(&mut self, selected: &[u32]) -> ServiceResult<GainVector> {
        let got = self.leg("shard.gains", |s| s.gains(selected));
        if let Ok(gains) = &got {
            if self.legs.capture.load(Ordering::Relaxed) {
                let mut kept = self.legs.gains.lock().expect("capture lock");
                kept.push(CapturedGains {
                    round: selected.len(),
                    shard: self.shard,
                    selected: selected.to_vec(),
                    gains: gains.clone(),
                });
            }
        }
        got
    }
    fn mutate_batch(&mut self, deltas: &[GraphDelta]) -> ServiceResult<MutationOutcome> {
        let got = self.leg("shard.mutate_batch", |s| s.mutate_batch(deltas));
        if let (Ok(outcome), Some(_), 0) = (&got, &self.legs.tracer, self.shard) {
            *self.legs.mutation.lock().expect("capture lock") = Some(*outcome);
        }
        got
    }
    fn compact(&mut self) -> ServiceResult<CompactionReport> {
        self.inner.compact()
    }
    fn stats(&mut self) -> ServiceResult<ServiceStats> {
        self.leg("shard.stats", RemoteService::stats)
    }
    fn metrics(&mut self) -> ServiceResult<MetricsReport> {
        self.inner.metrics()
    }
    fn set_trace(&mut self, trace: Option<u64>) {
        self.inner.set_trace(trace);
    }
    fn set_deadline(&mut self, deadline: Option<std::time::Duration>) -> ServiceResult<()> {
        self.inner.set_deadline(deadline)
    }
}

/// One live deployment.
pub struct Deployment {
    engines: Vec<Arc<QueryEngine>>,
    router: Option<ShardedService<ShardClient>>,
    handles: Vec<ServerHandle>,
    files: Vec<PathBuf>,
    /// Fixture vertices.
    n: usize,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.router = None;
        for handle in self.handles.drain(..) {
            handle.shutdown();
        }
        self.engines.clear();
        for file in &self.files {
            let _ = std::fs::remove_file(file);
        }
    }
}

impl Deployment {
    fn router(&mut self) -> &mut ShardedService<ShardClient> {
        self.router.as_mut().expect("router lives until drop")
    }

    /// The union spread the shards' oracles give `seeds`, with the union
    /// covered count.
    fn expected(&self, seeds: &[u32], tracer: Option<&Tracer>) -> (f64, u64) {
        let (mut covered, mut pool, mut n) = (0u64, 0u64, 0usize);
        for engine in &self.engines {
            let dynamic = Arc::clone(&engine.state().dynamic);
            let oracle = dynamic.oracle();
            let mut scratch = oracle.scratch();
            covered += match tracer {
                Some(tracer) => tracer.time("oracle.covered_with", 0, 0, || {
                    oracle.covered_with(seeds, &mut scratch)
                }),
                None => oracle.covered_with(seeds, &mut scratch),
            } as u64;
            pool += oracle.pool_size() as u64;
            n = oracle.num_vertices();
        }
        (n as f64 * covered as f64 / pool as f64, covered)
    }
}

fn setup(
    config: &Config,
    layers: &mut Layers,
    legs: &Arc<Legs>,
    generation: u64,
) -> Result<Deployment, String> {
    let began = Instant::now();
    let graph = fixture(config.scale, config.seed);
    layers.set("fixture.generate_s", began.elapsed().as_secs_f64());
    let mut dep = Deployment {
        engines: Vec::new(),
        router: None,
        handles: Vec::new(),
        files: Vec::new(),
        n: graph.num_vertices(),
    };
    let (mut sample_s, mut convert_s) = (0.0, 0.0);
    for index in 0..SHARDS {
        let began = Instant::now();
        let mut artifact = IndexArtifact::build_shard(
            GRAPH_ID,
            MODEL,
            graph.clone(),
            config.scale.pool,
            config.seed,
            index,
            SHARDS,
        );
        sample_s += began.elapsed().as_secs_f64();
        let began = Instant::now();
        artifact.convert_pool_layout(PoolLayout::Tiered);
        let path = config.work_dir.join(format!(
            "shard-{}-{}-{generation}-{index}.imx",
            std::process::id(),
            config.seed
        ));
        dep.files.push(path.clone());
        artifact
            .save(&path)
            .map_err(|e| format!("save {}: {e}", path.display()))?;
        drop(artifact);
        let loaded =
            IndexArtifact::load(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
        convert_s += began.elapsed().as_secs_f64();
        let engine = Arc::new(
            QueryEngine::builder(loaded)
                .build()
                .map_err(|e| format!("engine: {e}"))?,
        );
        let handle = reactor::spawn(
            "127.0.0.1:0",
            Arc::clone(&engine),
            &ReactorConfig {
                compute_threads: COMPUTE_THREADS,
                ..ReactorConfig::default()
            },
        )
        .map_err(|e| format!("reactor: {e}"))?;
        dep.engines.push(engine);
        dep.handles.push(handle);
    }
    layers.set("sampler.pool_build_s", sample_s);
    layers.set("impool.convert_s", convert_s);
    let mut shards = Vec::with_capacity(SHARDS);
    for (shard, handle) in dep.handles.iter().enumerate() {
        shards.push(ShardClient {
            shard,
            inner: RemoteService::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?,
            legs: Arc::clone(legs),
        });
    }
    dep.router = Some(ShardedService::new(shards).map_err(|e| format!("router: {e}"))?);
    let probe = [0u32];
    let first = dep
        .router()
        .estimate(&probe)
        .map_err(|e| format!("first estimate: {e}"))?;
    if first.spread.to_bits() != dep.expected(&probe, None).0.to_bits() {
        return Err("first router estimate differs from the shards' oracles".into());
    }
    Ok(dep)
}

/// A service's answers to the probe estimates and to `TopK` under each of
/// `algorithms`, each as one line that holds every bit the check compares.
fn answers(
    service: &mut impl InfluenceService,
    probes: &[Vec<u32>],
    algorithms: &[TopKAlgorithm],
) -> Vec<String> {
    let mut lines: Vec<String> = probes
        .iter()
        .map(|seeds| match service.estimate(seeds) {
            Ok(e) => format!(
                "estimate({seeds:?}) = {:#x} covered {} of {}",
                e.spread.to_bits(),
                e.covered,
                e.pool
            ),
            Err(e) => format!("estimate({seeds:?}) failed: {e}"),
        })
        .collect();
    for &algorithm in algorithms {
        lines.push(match service.top_k(K, algorithm) {
            Ok(s) => format!(
                "top_k({K}, {algorithm}) = {:?} {:#x}",
                s.seeds,
                s.spread.to_bits()
            ),
            Err(e) => format!("top_k({K}, {algorithm}) failed: {e}"),
        });
    }
    lines
}

/// The router's answers must equal the whole-pool reference's, line for
/// line.
fn compare(router: &[String], whole: &[String], when: &str, outcome: &mut Outcome) {
    for (a, b) in router.iter().zip(whole) {
        outcome.op(a == b && !a.contains("failed"), || {
            format!("{when}: router {a}, whole pool {b}")
        });
    }
}

/// The whole-pool reference: the same fixture, regenerated from the seed,
/// and the same pool, unsharded and raw, in process.
fn reference(config: &Config) -> Result<LocalService, String> {
    let graph = fixture(config.scale, config.seed);
    let whole = IndexArtifact::build(GRAPH_ID, MODEL, graph, config.scale.pool, config.seed);
    let engine = QueryEngine::builder(whole)
        .build()
        .map_err(|e| format!("reference: {e}"))?;
    Ok(LocalService::new(Arc::new(engine)))
}

/// What the cycles observed.
#[derive(Default)]
struct Observed {
    topk_us: Vec<f64>,
    estimate_us: Vec<f64>,
    /// Ids of the traced cycles' `op.top_k` spans.
    topk_spans: Vec<u32>,
}

/// Run `cycles` cycles.
#[allow(clippy::too_many_arguments)]
fn cycles(
    dep: &mut Deployment,
    rng: &mut Rng,
    batches: &mut Vec<Vec<GraphDelta>>,
    cycles: usize,
    tracer: Option<&Tracer>,
    legs: &Legs,
    copy: &mut Option<DynamicOracle>,
    outcome: &mut Outcome,
    layers: &mut Layers,
) -> Observed {
    let mut seen = Observed::default();
    for _ in 0..cycles {
        let deltas = attribute_batch(&dep.engines[0], rng, BATCH);
        let epoch = dep.engines[0].epoch();
        let mut request = batches.len() as u64 * 1000;
        let (got, _, _) = routed(dep, tracer, legs, "op.mutate_batch", request, |r| {
            r.mutate_batch(&deltas)
        });
        outcome.op(
            matches!(&got, Ok(m) if m.applied == BATCH && m.epoch == epoch + BATCH as u64),
            || format!("mutate_batch: {got:?} at epoch {epoch}"),
        );
        if let (Some(tracer), Some(copy)) = (tracer, copy.as_mut()) {
            let applied = tracer.time("imdyn.apply_batch", 0, request, || {
                copy.apply_batch(&deltas)
            });
            assert!(
                applied.is_ok(),
                "the benchmark copy rejected a batch the shards took"
            );
            let shard_outcome = legs.mutation.lock().expect("capture lock").take();
            if let Some(shard_outcome) = shard_outcome {
                let request = Request::MutateBatch {
                    deltas: deltas.clone(),
                };
                layers.push_codec(
                    "mutate_batch",
                    codec(tracer, 0, 0, request, Response::from(shard_outcome)),
                );
            }
        }
        batches.push(deltas);

        request += 1;
        legs.capture.store(
            tracer.is_some() && seen.topk_spans.is_empty(),
            Ordering::Relaxed,
        );
        let (selection, micros, root) = routed(dep, tracer, legs, "op.top_k", request, |r| {
            r.top_k(K, TopKAlgorithm::Greedy)
        });
        legs.capture.store(false, Ordering::Relaxed);
        if tracer.is_some() {
            seen.topk_spans.push(root);
        }
        seen.topk_us.push(micros);
        let plausible = match &selection {
            Ok(s) if s.seeds.len() == K => {
                s.spread.to_bits() == dep.expected(&s.seeds, None).0.to_bits()
            }
            _ => false,
        };
        outcome.op(plausible, || format!("top_k({K}) = {selection:?}"));

        for i in 0..ESTIMATES {
            let seeds = rng.seeds(dep.n, ESTIMATE_SIZES[i % ESTIMATE_SIZES.len()]);
            request += 1;
            let (got, micros, _) = routed(dep, tracer, legs, "op.estimate", request, |r| {
                r.estimate(&seeds)
            });
            seen.estimate_us.push(micros);
            let (spread, covered) = dep.expected(&seeds, tracer);
            outcome.op(
                matches!(&got, Ok(e) if e.spread.to_bits() == spread.to_bits() && e.covered == covered),
                || format!("estimate({seeds:?}) = {got:?}, shards' oracles give {spread}"),
            );
            if let Some(tracer) = tracer {
                let engine = &dep.engines[0];
                let mut scratch = engine.new_scratch();
                let local = tracer.time("engine.estimate", 0, request, || {
                    engine.estimate(&seeds, &mut scratch)
                });
                let request = Request::Estimate {
                    seeds: seeds.clone(),
                };
                layers.push_codec(
                    "estimate",
                    codec(
                        tracer,
                        0,
                        0,
                        request,
                        Response::from(local.expect("in range")),
                    ),
                );
                let postings: u64 = dep
                    .engines
                    .iter()
                    .map(|e| postings(e.state().dynamic.oracle(), &seeds))
                    .sum();
                layers.extend("oracle.postings_per_estimate", &[postings as f64]);
            }
        }
    }
    seen
}

/// One router call as an end-to-end operation; the shard legs it fans out
/// hang under the operation's span.
fn routed<T>(
    dep: &mut Deployment,
    tracer: Option<&Tracer>,
    legs: &Legs,
    name: &'static str,
    request: u64,
    f: impl FnOnce(&mut ShardedService<ShardClient>) -> T,
) -> (T, f64, u32) {
    let router = dep.router();
    let done = op(tracer, name, request, |root| {
        legs.parent.store(root, Ordering::Relaxed);
        legs.request.store(request, Ordering::Relaxed);
        f(router)
    });
    // Legs of router calls outside an operation (checks, stats) are roots.
    legs.parent.store(0, Ordering::Relaxed);
    done
}

/// Run the workload.
///
/// # Errors
///
/// Fails when the deployment cannot be set up.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::new();
    let mut layers = Layers::default();
    let tracer = config.trace.then(|| Arc::new(Tracer::new()));
    let legs = Arc::new(Legs {
        tracer: tracer.clone(),
        ..Legs::default()
    });
    let tracer = tracer.as_deref();
    let mut generation = 0;
    let mut dep = timed_setups(config, &mut outcome, || {
        generation += 1;
        setup(config, &mut layers, &legs, generation)
    })?;

    // The router's answers at epoch 0, checked against the whole-pool
    // reference once the measured phase is over. The start check asks the
    // one-round SingletonRank `TopK`, which also warms the cold tier; the
    // end check adds router greedy.
    let probes = probe_sets(dep.n, config.seed);
    let start_algorithms = [TopKAlgorithm::SingletonRank];
    let at_start = answers(dep.router(), &probes, &start_algorithms);
    reset_peak_rss();

    let mut rng = Rng::new(config.seed, 1);
    let mut batches: Vec<Vec<GraphDelta>> = Vec::new();
    let mut no_copy = None;
    let engine_metrics_before: Vec<MetricsReport> =
        dep.engines.iter().map(|e| e.metrics_report()).collect();
    let router_metrics_before = dep.router().metrics().unwrap_or_default();
    if let Some(tracer) = tracer {
        let plain = cycles(
            &mut dep,
            &mut rng,
            &mut batches,
            1,
            None,
            &legs,
            &mut no_copy,
            &mut outcome,
            &mut layers,
        );
        let mut copy = Some((*dep.engines[0].state().dynamic).clone());
        let traced = cycles(
            &mut dep,
            &mut rng,
            &mut batches,
            TRACED_CYCLES,
            Some(tracer),
            &legs,
            &mut copy,
            &mut outcome,
            &mut layers,
        );
        layers.set(
            "trace.overhead_pct",
            overhead_pct(&plain.estimate_us, &traced.estimate_us),
        );
        crate::estimate_latency(&mut layers, &plain.estimate_us);
        let stats = copy.as_ref().expect("copy kept").stats();
        layers.set("imdyn.sets_resampled", stats.sets_resampled as f64);
        layers.set(
            "imdyn.csr_materializations",
            stats.csr_materializations as f64,
        );
        layers.set("imdyn.attribute_patches", stats.attribute_patches as f64);
        layers.set(
            "imdyn.apply_batch_ms",
            tracer.median_micros("imdyn.apply_batch") / 1e3,
        );
        drop(copy);
        shard_layers(tracer, &legs, &traced.topk_spans, &mut layers);
        let engine_metrics_after: Vec<MetricsReport> =
            dep.engines.iter().map(|e| e.metrics_report()).collect();
        let router_metrics_after = dep.router().metrics().unwrap_or_default();
        server_layers(
            &engine_metrics_before,
            &engine_metrics_after,
            &router_metrics_before,
            &router_metrics_after,
            &mut layers,
        );
        side_layers(tracer, &mut dep, &mut layers, &mut outcome)?;
    } else {
        let seen = cycles(
            &mut dep,
            &mut rng,
            &mut batches,
            untraced_cycles(config.seconds),
            None,
            &legs,
            &mut no_copy,
            &mut outcome,
            &mut layers,
        );
        outcome.put("topk_p50_ms", quantile(&seen.topk_us, 0.5) / 1e3, "ms");
        outcome.samples.insert("estimate", seen.estimate_us.len());
        outcome.samples.insert("top_k", seen.topk_us.len());
        outcome.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    // The reference agrees at epoch 0, receives the same batches, then must
    // agree again.
    let mut whole = reference(config)?;
    let whole_at_start = answers(&mut whole, &probes, &start_algorithms);
    compare(&at_start, &whole_at_start, "epoch 0", &mut outcome);
    for deltas in &batches {
        let applied = whole.mutate_batch(deltas);
        outcome.op(applied.is_ok(), || {
            format!("reference mutate_batch: {applied:?}")
        });
    }
    let algorithms = [TopKAlgorithm::Greedy, TopKAlgorithm::SingletonRank];
    let at_end = answers(dep.router(), &probes, &algorithms);
    let whole_at_end = answers(&mut whole, &probes, &algorithms);
    compare(&at_end, &whole_at_end, "end", &mut outcome);
    if let Some(tracer) = tracer {
        let unattributed = tracer.unattributed_pct();
        layers.finish(tracer, &mut outcome, config, "sharded-tiered", unattributed);
    }
    drop(dep);
    Ok(outcome)
}

/// Router-side figures from the traced `TopK`s: per-leg RTT, rounds, wire
/// bytes and the merge time left after the slowest leg of every round.
fn shard_layers(tracer: &Tracer, legs: &Legs, topk_spans: &[u32], layers: &mut Layers) {
    let spans = tracer.spans();
    layers.set(
        "shard.gains_rtt_ms",
        tracer.median_micros("shard.gains") / 1e3,
    );
    let mut merges = Vec::new();
    let mut rounds = Vec::new();
    for &router_span in topk_spans {
        let Some(router) = spans.iter().find(|s| s.id == router_span) else {
            continue;
        };
        let mut slowest_per_round: Vec<f64> = Vec::new();
        for leg_name in ["shard.stats", "shard.gains", "shard.estimate"] {
            let mut per_shard: Vec<Vec<&crate::trace::Span>> = Vec::new();
            let mut legs: Vec<&crate::trace::Span> = spans
                .iter()
                .filter(|s| s.parent == router_span && s.name == leg_name)
                .collect();
            legs.sort_by_key(|s| s.start);
            // Legs of one fan-out start together; SHARDS consecutive legs
            // make one round.
            for chunk in legs.chunks(SHARDS) {
                per_shard.push(chunk.to_vec());
            }
            if leg_name == "shard.gains" {
                rounds.push(per_shard.len() as f64);
            }
            for round in per_shard {
                slowest_per_round.push(round.iter().map(|s| s.micros()).fold(0.0, f64::max));
            }
        }
        merges.push(router.micros() - slowest_per_round.iter().sum::<f64>());
    }
    layers.set("shard.merge_ms", median(&merges) / 1e3);
    layers.set("shard.rounds", median(&rounds));
    let mut captured = std::mem::take(&mut *legs.gains.lock().expect("capture lock"));
    // Legs of one round land in whichever order the fan-out threads finish.
    captured.sort_by_key(|leg| (leg.round, leg.shard));
    let mut wire = 0.0;
    for CapturedGains {
        selected, gains, ..
    } in captured
    {
        let sample = codec(
            tracer,
            0,
            0,
            Request::Gains { selected },
            Response::from(gains),
        );
        wire += sample.request_bytes + sample.response_bytes;
        layers.push_codec("gains", sample);
    }
    layers.set(
        "shard.wire_bytes_per_topk",
        wire / topk_spans.len().max(1) as f64,
    );
}

/// Server-side figures over the traced phase: shard queue waits, stalls,
/// mutation latency and the router's per-shard RTT histograms.
fn server_layers(
    engines_before: &[MetricsReport],
    engines_after: &[MetricsReport],
    router_before: &MetricsReport,
    router_after: &MetricsReport,
    layers: &mut Layers,
) {
    let mut queue_p99: f64 = 0.0;
    let mut stalls = 0u64;
    let mut mutate = Vec::new();
    for (before, after) in engines_before.iter().zip(engines_after) {
        queue_p99 = queue_p99.max(histogram_delta_quantile(
            before,
            after,
            "imserve_queue_wait_micros",
            0.99,
        ));
        stalls += after.counter("imserve_backpressure_stalls_total")
            - before.counter("imserve_backpressure_stalls_total");
        mutate.push(histogram_delta_mean(
            before,
            after,
            "imserve_request_latency_micros{type=\"mutate_batch\"}",
        ));
    }
    layers.set("reactor.queue_wait_p99_us", queue_p99);
    layers.set("reactor.backpressure_stalls", stalls as f64);
    layers.set("engine.mutate_batch_ms", median(&mutate) / 1e3);
    let mut rtt_p99: f64 = 0.0;
    for shard in 0..SHARDS {
        let name = format!("imserve_shard_rtt_micros{{shard=\"{shard}\"}}");
        rtt_p99 = rtt_p99.max(histogram_delta_quantile(
            router_before,
            router_after,
            &name,
            0.99,
        ));
    }
    layers.set("shard.fanout_rtt_p99_ms", rtt_p99 / 1e3);
}

/// Side measurements on shard 0's engine and the router's stats.
fn side_layers(
    tracer: &Tracer,
    dep: &mut Deployment,
    layers: &mut Layers,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let stats = dep
        .router()
        .stats()
        .map_err(|e| format!("router stats: {e}"))?;
    layers.set("impool.resident_bytes", stats.pool_resident_bytes as f64);
    layers.set("impool.bytes_per_set", stats.pool_bytes_per_set());
    let engine = Arc::clone(&dep.engines[0]);
    let hits_before = engine.stats();
    let rr: u64 = dep
        .engines
        .iter()
        .map(|e| rr_vertices(e.state().dynamic.oracle()))
        .sum();
    layers.set("sampler.rr_vertices", rr as f64);
    let dynamic = Arc::clone(&engine.state().dynamic);
    layers.set(
        "impool.scan_sets_per_s",
        scan_sets_per_s(tracer, dynamic.oracle()),
    );
    let greedy = tracer.time("oracle.greedy", 0, 0, || {
        dynamic.oracle().greedy_seed_set(K)
    });
    layers.set(
        "oracle.greedy_ms",
        tracer.median_micros("oracle.greedy") / 1e3,
    );
    let graph = tracer.time("imgraph.materialize", 0, 0, || {
        dynamic.mutable_graph().materialize()
    });
    assert_eq!(graph.num_edges(), dynamic.graph().num_edges());
    drop((graph, dynamic));
    layers.set(
        "imgraph.materialize_ms",
        tracer.median_micros("imgraph.materialize") / 1e3,
    );
    tracer
        .time("engine.gains", 0, 0, || engine.gains(&[]))
        .map_err(|e| e.to_string())?;
    layers.set(
        "engine.gains_ms",
        tracer.median_micros("engine.gains") / 1e3,
    );
    let miss = tracer.time("engine.top_k_miss", 0, 0, || {
        engine.top_k(K, TopKAlgorithm::Greedy)
    });
    outcome.op(matches!(&miss, Ok(s) if s.seeds == greedy.0), || {
        format!("shard top_k {miss:?} differs from greedy on its snapshot {greedy:?}")
    });
    let hit = tracer.time("engine.top_k_hit", 0, 0, || {
        engine.top_k(K, TopKAlgorithm::Greedy)
    });
    outcome.op(hit.is_ok(), || format!("cached shard top_k: {hit:?}"));
    layers.set(
        "engine.top_k_miss_ms",
        tracer.median_micros("engine.top_k_miss") / 1e3,
    );
    layers.set(
        "engine.top_k_hit_us",
        tracer.median_micros("engine.top_k_hit"),
    );
    // The router never asks a shard for TopK, so over the workload the
    // shard caches saw no lookups: hits and misses stay at their
    // pre-side-measurement values.
    layers.set("engine.topk_cache_hits", hits_before.topk_cache_hits as f64);
    layers.set(
        "engine.topk_cache_misses",
        hits_before.topk_cache_misses as f64,
    );
    let lookups = hits_before.topk_cache_hits + hits_before.topk_cache_misses;
    layers.set(
        "engine.topk_cache_hit_ratio",
        hits_before.topk_cache_hits as f64 / lookups.max(1) as f64,
    );
    layers.set(
        "engine.estimate_us",
        tracer.median_micros("engine.estimate"),
    );
    layers.set(
        "oracle.estimate_us",
        tracer.median_micros("oracle.covered_with"),
    );
    layers.set(
        "oracle.postings_per_estimate",
        layers.median_of("oracle.postings_per_estimate"),
    );
    let leg = tracer.median_micros("shard.estimate");
    let frontend = leg - tracer.median_micros("engine.estimate") - layers.codec_micros("estimate");
    layers.set("frontend.overhead_us", frontend);
    Ok(())
}
