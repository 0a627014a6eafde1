//! `remote-read`: a compressed whole pool behind the reactor front end,
//! read over two protocol-v2 connections.
//!
//! Open loop at [`RATE`] requests/s in total, each latency timed from the
//! request's *scheduled* send: 15 of 16 requests are `Estimate`s (seed
//! sets of size 1/3/8), every 16th is `TopK` k=[`K`], a cache hit because
//! set-up primes it. A tail of [`TAIL_BATCHES`] attribute-only
//! `MutateBatch`es over the wire follows, so the answers are checked after
//! writes too. Every answer is compared bit for bit with the in-process
//! engine's.

use std::sync::Arc;
use std::time::{Duration, Instant};

use im_core::PoolLayout;
use imdyn::DynamicOracle;
use imserve::engine::QueryEngine;
use imserve::index::IndexArtifact;
use imserve::service::{InfluenceService, MetricsReport};
use imserve::{
    reactor, ReactorConfig, RemoteService, Request, Response, ServerHandle, TopKAlgorithm,
};

use crate::{
    attribute_batch, codec, fixture, median, micros_since, op, overhead_pct, peak_rss_mb, postings,
    probe_sets, quantile, reset_peak_rss, rr_vertices, scan_sets_per_s, timed_setups, Config,
    Layers, Outcome, Rng, Tracer, ESTIMATE_SIZES, GRAPH_ID, MODEL,
};

/// Open-loop arrival rate over both connections, requests/s.
pub const RATE: f64 = 2000.0;
/// Client connections (one thread each).
pub const CONNECTIONS: usize = 2;
/// Compute threads of the reactor.
pub const COMPUTE_THREADS: usize = 2;
/// `TopK` size of the cached selection.
pub const K: usize = 8;
/// Untimed open-loop warm-up before the measured phases, seconds (at most
/// a fifth of the run).
pub const WARMUP_S: f64 = 2.0;
/// Deltas per attribute-only batch of the write tail.
pub const BATCH: usize = 4;
/// Batches of the write tail (fixed, so a traced run's counts repeat).
pub const TAIL_BATCHES: usize = 3;
/// The open loop is invalid if the generator fell behind: its schedule
/// slipped, by the last request of the phase, by more than this share of
/// the phase — it delivered under 95 % of the offered rate. Transient host
/// stalls make single requests late (the lag percentiles show them; every
/// latency counts from the scheduled send) without slipping the schedule.
pub const MAX_SLIP_SHARE: f64 = 0.05;

/// One live deployment: the engine, its reactor and the two clients.
pub struct Deployment {
    engine: Arc<QueryEngine>,
    clients: Vec<RemoteService>,
    handle: Option<ServerHandle>,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

fn setup(config: &Config, layers: &mut Layers) -> Result<Deployment, String> {
    let began = Instant::now();
    let graph = fixture(config.scale, config.seed);
    layers.set("fixture.generate_s", began.elapsed().as_secs_f64());
    let began = Instant::now();
    let mut artifact = IndexArtifact::build(GRAPH_ID, MODEL, graph, config.scale.pool, config.seed);
    layers.set("sampler.pool_build_s", began.elapsed().as_secs_f64());
    let began = Instant::now();
    artifact.convert_pool_layout(PoolLayout::Compressed);
    layers.set("impool.convert_s", began.elapsed().as_secs_f64());
    let engine = Arc::new(
        QueryEngine::builder(artifact)
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
    let addr = handle.addr();
    let mut deployment = Deployment {
        engine,
        clients: Vec::new(),
        handle: Some(handle),
    };
    for _ in 0..CONNECTIONS {
        deployment
            .clients
            .push(RemoteService::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    // The first answer: one probe, bit-identical to the in-process oracle.
    let probe = [0u32];
    let remote = deployment.clients[0]
        .estimate(&probe)
        .map_err(|e| format!("first estimate: {e}"))?;
    if remote.spread.to_bits() != expected_spread(&deployment.engine, &probe).to_bits() {
        return Err("first estimate differs from the in-process engine".into());
    }
    Ok(deployment)
}

/// The in-process engine's spread for `seeds`, from its oracle directly.
fn expected_spread(engine: &QueryEngine, seeds: &[u32]) -> f64 {
    let state = engine.state();
    let oracle = state.dynamic.oracle();
    let mut scratch = oracle.scratch();
    let covered = oracle.covered_with(seeds, &mut scratch);
    oracle.num_vertices() as f64 * covered as f64 / oracle.pool_size() as f64
}

/// Compare every probe's remote estimate with the in-process engine.
fn check_probes(dep: &mut Deployment, probes: &[Vec<u32>], outcome: &mut Outcome) {
    for seeds in probes {
        let expected = expected_spread(&dep.engine, seeds);
        let got = dep.clients[0].estimate(seeds);
        outcome.op(
            matches!(&got, Ok(e) if e.spread.to_bits() == expected.to_bits()),
            || format!("probe estimate({seeds:?}): remote {got:?}, in-process {expected}"),
        );
    }
}

/// The request types of the open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Estimate,
    TopK,
    /// A no-op round trip, only in traced phases: the front end's and the
    /// wire's cost under the same schedule as the reads.
    Ping,
}

impl Kind {
    /// Slot `j` of a connection's schedule: every 16th request is a `TopK`;
    /// a traced phase also turns the 8th of every 16 into a `Ping`.
    fn of(j: u64, traced: bool) -> Self {
        match j % 16 {
            15 => Self::TopK,
            7 if traced => Self::Ping,
            _ => Self::Estimate,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Self::Estimate => "op.estimate",
            Self::TopK => "op.top_k",
            Self::Ping => "op.ping",
        }
    }
}

/// What one request of the read mix observed.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    /// From scheduled send to reply.
    latency_us: f64,
    /// How late the generator sent.
    lag_us: f64,
    /// Traced: the round trip less the replayed engine call and codec
    /// round (the whole round trip for a `Ping`); `0` untraced.
    net_us: f64,
}

/// Per-thread results of one phase.
#[derive(Default)]
struct ThreadResult {
    samples: Vec<Sample>,
    /// Lag of the last request sent: how far the schedule slipped.
    slip_us: f64,
    attempted: u64,
    problems: Vec<String>,
    codec: Vec<(&'static str, crate::CodecSample)>,
    postings: Vec<f64>,
}

/// Shared, read-only inputs of one load phase.
#[derive(Clone, Copy)]
struct Phase<'a> {
    engine: &'a QueryEngine,
    /// The primed `TopK` answer every hit must equal.
    topk: &'a (Vec<u32>, f64),
    /// Requests/s over all connections.
    rate: f64,
    seconds: f64,
    stream: u64,
    seed: u64,
    tracer: Option<&'a Tracer>,
}

fn drive(phase: &Phase<'_>, index: usize, client: &mut RemoteService) -> ThreadResult {
    let mut result = ThreadResult::default();
    let mut rng = Rng::new(phase.seed, phase.stream * 16 + index as u64);
    let dynamic = Arc::clone(&phase.engine.state().dynamic);
    let oracle = dynamic.oracle();
    let n = oracle.num_vertices();
    let mut scratch = oracle.scratch();
    let mut engine_scratch = phase.engine.new_scratch();
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / phase.rate);
    // Connections send in turn, evenly spaced.
    let start =
        Instant::now() + Duration::from_millis(1) + interval * index as u32 / CONNECTIONS as u32;
    let end = start + Duration::from_secs_f64(phase.seconds);
    for j in 0u64.. {
        let scheduled = start + interval * j as u32;
        if scheduled >= end {
            break;
        }
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let lag_us = sent.saturating_duration_since(scheduled).as_secs_f64() * 1e6;
        result.slip_us = lag_us;
        let request = (phase.stream << 40) | ((index as u64) << 32) | j;
        let kind = Kind::of(j, phase.tracer.is_some());
        let seeds = match kind {
            Kind::Estimate => rng.seeds(n, ESTIMATE_SIZES[j as usize % ESTIMATE_SIZES.len()]),
            Kind::TopK | Kind::Ping => Vec::new(),
        };
        // Traced: the operation starts at its scheduled send; the generator's
        // lateness is its one child on the path. The engine call and the
        // codec round of the client call are replayed as children after it.
        let root = phase.tracer.map(|tracer| {
            let at = tracer.at(scheduled);
            let root = tracer.open_at(kind.span(), 0, request, at);
            tracer.close(tracer.open_at("loadgen.lag", root.id, request, at));
            root
        });
        result.attempted += 1;
        let got = match kind {
            Kind::Estimate => client.estimate(&seeds).map(Response::from),
            Kind::TopK => client.top_k(K, TopKAlgorithm::Greedy).map(Response::from),
            Kind::Ping => client.connection().call(&Request::Ping),
        };
        let rtt_us = micros_since(sent);
        let latency_us = micros_since(scheduled);
        if let (Some(tracer), Some(root)) = (phase.tracer, root) {
            tracer.close(root);
        }
        let parent = root.map_or(0, |r| r.id);
        let (expected, frame) = match kind {
            Kind::Estimate => {
                let covered = match phase.tracer {
                    Some(tracer) => tracer.time("oracle.covered_with", 0, request, || {
                        oracle.covered_with(&seeds, &mut scratch)
                    }),
                    None => oracle.covered_with(&seeds, &mut scratch),
                };
                let spread = n as f64 * covered as f64 / oracle.pool_size() as f64;
                let ok = matches!(&got, Ok(Response::Estimate { spread: s, covered: c, .. })
                    if s.to_bits() == spread.to_bits() && *c == covered as u64);
                (
                    ok.then_some(())
                        .ok_or(format!("in-process spread {spread}")),
                    Request::Estimate {
                        seeds: seeds.clone(),
                    },
                )
            }
            Kind::TopK => {
                let ok = matches!(&got, Ok(Response::TopK { seeds, spread, .. })
                    if *seeds == phase.topk.0 && spread.to_bits() == phase.topk.1.to_bits());
                (
                    ok.then_some(()).ok_or(format!("expected {:?}", phase.topk)),
                    Request::TopK {
                        k: K,
                        algorithm: TopKAlgorithm::Greedy,
                    },
                )
            }
            Kind::Ping => (
                matches!(&got, Ok(Response::Pong))
                    .then_some(())
                    .ok_or("expected Pong".to_string()),
                Request::Ping,
            ),
        };
        if let Err(why) = expected {
            result
                .problems
                .push(format!("{} #{request}: {got:?}, {why}", kind.span()));
            continue;
        }
        let mut net_us = 0.0;
        if let Some(tracer) = phase.tracer {
            net_us = rtt_us;
            if kind != Kind::Ping {
                let open = tracer.open(
                    if kind == Kind::TopK {
                        "engine.top_k_hit"
                    } else {
                        "engine.estimate"
                    },
                    parent,
                    request,
                );
                let local = match kind {
                    Kind::TopK => phase
                        .engine
                        .top_k(K, TopKAlgorithm::Greedy)
                        .map(Response::from),
                    _ => phase
                        .engine
                        .estimate(&seeds, &mut engine_scratch)
                        .map(Response::from),
                };
                net_us -= tracer.close(open);
                let sample = codec(
                    tracer,
                    parent,
                    request,
                    frame,
                    local.expect("a served answer"),
                );
                net_us -= sample.encode_us + sample.decode_us;
                let name = if kind == Kind::TopK {
                    "top_k"
                } else {
                    "estimate"
                };
                result.codec.push((name, sample));
                if kind == Kind::Estimate {
                    result.postings.push(postings(oracle, &seeds) as f64);
                }
            }
        }
        result.samples.push(Sample {
            kind,
            latency_us,
            lag_us,
            net_us,
        });
    }
    result
}

/// Run one load phase on every connection concurrently.
fn load(
    dep: &mut Deployment,
    phase: &Phase<'_>,
    outcome: &mut Outcome,
    layers: &mut Layers,
) -> Vec<Sample> {
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = dep
            .clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| scope.spawn(move || drive(phase, index, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let slip_us = results.iter().map(|r| r.slip_us).fold(0.0, f64::max);
    if slip_us > MAX_SLIP_SHARE * phase.seconds * 1e6 {
        outcome.fail(format!(
            "open-loop generator fell behind: its schedule slipped {:.0} ms in a {:.1} s phase",
            slip_us / 1e3,
            phase.seconds
        ));
    }
    let mut samples = Vec::new();
    for result in results {
        outcome.attempted += result.attempted;
        outcome.failed += result.problems.len() as u64;
        for problem in result.problems {
            outcome.fail(problem);
        }
        for (op, sample) in result.codec {
            layers.push_codec(op, sample);
        }
        layers.extend("oracle.postings_per_estimate", &result.postings);
        samples.extend(result.samples);
    }
    samples
}

/// `topk_p50_ms` of `remote-read`: the lower quartile of the open-loop
/// phase's `TopK` latencies.
///
/// On the 2-vCPU VM the round trip follows the host's wake-up latency, which
/// comes in episodes: a busy host halves the reactor's capacity for seconds
/// to minutes, and inside such an episode the 2000 req/s schedule backs up
/// and the median climbs. Of ten runs of one build, four had the plain
/// median above 0.8 ms against 0.4 ms for the rest. The lowest decile of
/// 0.5 s window medians read 0.33–0.67 ms over ten runs of another build
/// (episodes with no calm second). Requests that find the reactor idle
/// keep the lower quartile near the unloaded round trip: 0.29–0.36 ms over
/// twelve runs that included such episodes, against 0.32–0.44 ms for the
/// window statistic.
fn quiet_latency(samples: &[Sample]) -> f64 {
    quantile(&latencies(samples, Kind::TopK), 0.25)
}

fn latencies(samples: &[Sample], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.latency_us)
        .collect()
}

/// The traced phase's front-end check. Per read type, the median round
/// trip less the replayed engine call and codec round is the front end's
/// and the wire's share (`frontend.overhead_us` for estimates); it must
/// match the median round trip of the `Ping`s sent on the same schedule,
/// which do no engine work. Returns that front-end median and the
/// residual: Σ over read types of count × (net median − ping median), as a
/// percentage of Σ count × median latency.
fn frontend_check(traced: &[Sample]) -> (f64, f64, f64) {
    let net = |kind: Kind| -> Vec<f64> {
        traced
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.net_us)
            .collect()
    };
    let ping = median(&net(Kind::Ping));
    let (mut total, mut residual) = (0.0, 0.0);
    for kind in [Kind::Estimate, Kind::TopK] {
        let count = net(kind).len() as f64;
        total += count * median(&latencies(traced, kind));
        residual += count * (median(&net(kind)) - ping);
    }
    let pct = if total > 0.0 {
        residual / total * 100.0
    } else {
        0.0
    };
    (median(&net(Kind::Estimate)), ping, pct)
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
    let engine = Arc::clone(&dep.engine);
    let probes = probe_sets(engine.info().num_vertices, config.seed);

    // Prime the TopK cache through the wire and check it against greedy on
    // the engine's snapshot.
    let expected = {
        let dynamic = Arc::clone(&engine.state().dynamic);
        let began = Instant::now();
        let selection = dynamic.oracle().greedy_seed_set(K);
        layers.set("oracle.greedy_ms", began.elapsed().as_secs_f64() * 1e3);
        selection
    };
    if let Some(tracer) = tracer {
        // A traced run primes in-process so the miss is timed at the engine.
        let miss = tracer.time("engine.top_k_miss", 0, 0, || {
            engine.top_k(K, TopKAlgorithm::Greedy)
        });
        outcome.op(miss.is_ok(), || format!("in-process top_k: {miss:?}"));
        layers.set(
            "engine.top_k_miss_ms",
            tracer.median_micros("engine.top_k_miss") / 1e3,
        );
    }
    let primed = dep.clients[0].top_k(K, TopKAlgorithm::Greedy);
    outcome.op(
        matches!(&primed, Ok(s) if s.seeds == expected.0 && s.spread.to_bits() == expected.1.to_bits()),
        || format!("primed top_k {primed:?} differs from greedy {expected:?}"),
    );
    check_probes(&mut dep, &probes, &mut outcome);

    let base = Phase {
        engine: &engine,
        topk: &expected,
        rate: RATE,
        seconds: 0.0,
        stream: 0,
        seed: config.seed,
        tracer: None,
    };
    let phase = |seconds: f64, stream: u64, tracer| Phase {
        seconds,
        stream,
        tracer,
        ..base
    };
    let warmup_s = WARMUP_S.min(0.2 * config.seconds);
    load(
        &mut dep,
        &phase(warmup_s, 1, None),
        &mut outcome,
        &mut Layers::default(),
    );

    let metrics_before: MetricsReport = engine.metrics_report();
    let stats_before = engine.stats();
    let open_s = 0.85 * config.seconds;
    let mut unattributed = 0.0;
    let open = if let Some(tracer) = tracer {
        // Untraced then traced, at the same rate, for trace.overhead_pct.
        let plain = load(
            &mut dep,
            &phase(0.3 * open_s, 2, None),
            &mut outcome,
            &mut layers,
        );
        let traced = load(
            &mut dep,
            &phase(0.7 * open_s, 3, Some(tracer)),
            &mut outcome,
            &mut layers,
        );
        layers.set(
            "trace.overhead_pct",
            overhead_pct(
                &latencies(&plain, Kind::Estimate),
                &latencies(&traced, Kind::Estimate),
            ),
        );
        crate::estimate_latency(&mut layers, &latencies(&plain, Kind::Estimate));
        let (frontend, ping, residual) = frontend_check(&traced);
        layers.set("frontend.overhead_us", frontend);
        layers.set("frontend.ping_rtt_us", ping);
        unattributed = residual;
        [plain, traced].concat()
    } else {
        load(&mut dep, &phase(open_s, 2, None), &mut outcome, &mut layers)
    };
    let metrics_after = engine.metrics_report();
    let stats_after = engine.stats();
    let lags: Vec<f64> = open.iter().map(|s| s.lag_us).collect();
    let lag_p99 = quantile(&lags, 0.99);
    let estimates = latencies(&open, Kind::Estimate);
    if !config.trace {
        outcome.put("topk_p50_ms", quiet_latency(&open) / 1e3, "ms");
        outcome.samples.insert("estimate", estimates.len());
        outcome
            .samples
            .insert("top_k", latencies(&open, Kind::TopK).len());
    }
    check_probes(&mut dep, &probes, &mut outcome);

    // The write tail: attribute-only batches over the wire.
    let mut rng = Rng::new(config.seed, 5);
    let mut copy: Option<DynamicOracle> = tracer.map(|_| (*engine.state().dynamic).clone());
    let tail_metrics_before = engine.metrics_report();
    for request in 0..TAIL_BATCHES as u64 {
        let deltas = attribute_batch(&engine, &mut rng, BATCH);
        let epoch = engine.epoch();
        let client = &mut dep.clients[0];
        let (got, _, root) = op(tracer, "op.mutate_batch", request, |_| {
            client.mutate_batch(&deltas)
        });
        outcome.op(
            matches!(&got, Ok(m) if m.applied == BATCH && m.epoch == epoch + BATCH as u64),
            || format!("mutate_batch: {got:?} at epoch {epoch}"),
        );
        if let (Some(tracer), Some(copy), Ok(outcome)) = (tracer, copy.as_mut(), got) {
            let applied = tracer.time("imdyn.apply_batch", root, request, || {
                copy.apply_batch(&deltas)
            });
            assert!(
                applied.is_ok(),
                "the benchmark copy rejected a batch the engine took"
            );
            let sample = codec(
                tracer,
                root,
                request,
                Request::MutateBatch { deltas },
                Response::from(outcome),
            );
            layers.push_codec("mutate_batch", sample);
        }
    }
    check_probes(&mut dep, &probes, &mut outcome);
    if !config.trace {
        outcome.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    if let (Some(tracer), Some(copy)) = (tracer, copy) {
        let tail_metrics_after = engine.metrics_report();
        layers.set(
            "engine.mutate_batch_ms",
            crate::histogram_delta_mean(
                &tail_metrics_before,
                &tail_metrics_after,
                "imserve_request_latency_micros{type=\"mutate_batch\"}",
            ) / 1e3,
        );
        layers.set(
            "imdyn.apply_batch_ms",
            tracer.median_micros("imdyn.apply_batch") / 1e3,
        );
        let stats = copy.stats();
        layers.set("imdyn.sets_resampled", stats.sets_resampled as f64);
        layers.set(
            "imdyn.csr_materializations",
            stats.csr_materializations as f64,
        );
        layers.set("imdyn.attribute_patches", stats.attribute_patches as f64);
        drop(copy);
        trace_side(tracer, &engine, &mut layers);
        layers.set(
            "engine.topk_cache_hits",
            (stats_after.topk_cache_hits - stats_before.topk_cache_hits) as f64,
        );
        layers.set(
            "engine.topk_cache_misses",
            (stats_after.topk_cache_misses - stats_before.topk_cache_misses) as f64,
        );
        let lookups = (stats_after.topk_cache_hits + stats_after.topk_cache_misses)
            - (stats_before.topk_cache_hits + stats_before.topk_cache_misses);
        layers.set(
            "engine.topk_cache_hit_ratio",
            (stats_after.topk_cache_hits - stats_before.topk_cache_hits) as f64
                / lookups.max(1) as f64,
        );
        layers.set(
            "reactor.queue_wait_p99_us",
            crate::histogram_delta_quantile(
                &metrics_before,
                &metrics_after,
                "imserve_queue_wait_micros",
                0.99,
            ),
        );
        layers.set(
            "reactor.backpressure_stalls",
            (metrics_after.counter("imserve_backpressure_stalls_total")
                - metrics_before.counter("imserve_backpressure_stalls_total")) as f64,
        );
        layers.set("loadgen.lag_p99_us", lag_p99);
        layers.set(
            "engine.estimate_us",
            tracer.median_micros("engine.estimate"),
        );
        layers.set(
            "engine.top_k_hit_us",
            tracer.median_micros("engine.top_k_hit"),
        );
        layers.set(
            "oracle.estimate_us",
            tracer.median_micros("oracle.covered_with"),
        );
        layers.finish(tracer, &mut outcome, config, "remote-read", unattributed);
    }
    drop(dep);
    Ok(outcome)
}

/// Side measurements of the served engine a traced run takes once.
fn trace_side(tracer: &Tracer, engine: &QueryEngine, layers: &mut Layers) {
    let stats = engine.stats();
    layers.set("impool.resident_bytes", stats.pool_resident_bytes as f64);
    layers.set("impool.bytes_per_set", stats.pool_bytes_per_set());
    let dynamic = Arc::clone(&engine.state().dynamic);
    layers.set("sampler.rr_vertices", rr_vertices(dynamic.oracle()) as f64);
    layers.set(
        "impool.scan_sets_per_s",
        scan_sets_per_s(tracer, dynamic.oracle()),
    );
    let gains = tracer.time("engine.gains", 0, 0, || engine.gains(&[]));
    layers.set(
        "engine.gains_ms",
        tracer.median_micros("engine.gains") / 1e3,
    );
    if let Ok(gains) = gains {
        let sample = codec(
            tracer,
            0,
            0,
            Request::Gains {
                selected: Vec::new(),
            },
            Response::from(gains),
        );
        layers.push_codec("gains", sample);
    }
    let graph = tracer.time("imgraph.materialize", 0, 0, || {
        dynamic.mutable_graph().materialize()
    });
    assert_eq!(graph.num_edges(), dynamic.graph().num_edges());
    layers.set(
        "imgraph.materialize_ms",
        tracer.median_micros("imgraph.materialize") / 1e3,
    );
    layers.set(
        "oracle.postings_per_estimate",
        layers.median_of("oracle.postings_per_estimate"),
    );
}
