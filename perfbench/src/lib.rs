//! The serving benchmark: three deployment workloads on the streamed
//! Chung–Lu fixture, each checked for correct answers, with an optional
//! traced run that breaks the end-to-end figures down by layer.
//!
//! Every workload is a function from a [`Config`] to an [`Outcome`]; the
//! binary (`src/main.rs`) only parses arguments and prints the outcome as
//! one JSON line. The layer breakdown times calls into the crates' public
//! functions from here — nothing inside the served program is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use imgraph::InfluenceGraph;
use imserve::index::parse_model;

pub mod local_write;
pub mod remote_read;
pub mod sharded;
pub mod trace;

pub use trace::Tracer;

/// The graph id every workload's index carries.
pub const GRAPH_ID: &str = "chung-lu";
/// The edge-probability model of every workload.
pub const MODEL: &str = "iwc";

/// Fixture and pool dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Fixture vertices.
    pub nodes: usize,
    /// Fixture mean degree.
    pub degree: f64,
    /// RR sets in the (global) pool.
    pub pool: usize,
}

impl Scale {
    /// The benchmark's scale: 10⁶ vertices, mean degree 4, 100 000 RR sets.
    pub const FULL: Scale = Scale {
        nodes: 1_000_000,
        degree: 4.0,
        pool: 100_000,
    };
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fixture and pool size.
    pub scale: Scale,
    /// Seed of the fixture, the pool and every request stream.
    pub seed: u64,
    /// Seconds of measured load.
    pub seconds: f64,
    /// Report the per-layer breakdown instead of the end-to-end metrics.
    pub trace: bool,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Where scratch files (tiered shard indexes, the span dump) go.
    pub work_dir: std::path::PathBuf,
}

impl Config {
    /// A full-scale run of `seconds` at `seed`.
    #[must_use]
    pub fn full(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            scale: Scale::FULL,
            seed,
            seconds,
            trace,
            setups: 2,
            work_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }
}

/// The three workloads.
pub const WORKLOADS: [&str; 3] = ["remote-read", "local-write-topk", "sharded-tiered"];

/// What one run reports: answer checks, op counts and named metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every answer check passed and the run was valid.
    pub correct: bool,
    /// Operations issued (checks included).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Why the run is not correct, one line per problem.
    pub problems: Vec<String>,
    /// Sample counts behind the metrics, printed before the result line.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Outcome {
    /// A fresh outcome, correct until a check fails.
    #[must_use]
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Record a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Count one operation; a failure also fails the run.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.fail(what());
        }
    }

    /// Mark the run incorrect.
    pub fn fail(&mut self, problem: String) {
        self.correct = false;
        if self.problems.len() < 16 {
            self.problems.push(problem);
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload by name.
///
/// # Errors
///
/// Fails on an unknown workload name or when the deployment cannot be set
/// up at all (no port, no scratch directory); answer mismatches are not
/// errors but an incorrect [`Outcome`].
pub fn run(workload: &str, config: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", config.work_dir.display()))?;
    match workload {
        "remote-read" => remote_read::run(config),
        "local-write-topk" => local_write::run(config),
        "sharded-tiered" => sharded::run(config),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The fixture graph with `iwc` probabilities.
#[must_use]
pub fn fixture(scale: Scale, seed: u64) -> InfluenceGraph {
    let model = parse_model(MODEL).expect("iwc is a known model");
    imexp::fixture::ScaleFixture::new(scale.nodes, scale.degree, seed).influence_graph(model)
}

/// SplitMix64: the benchmark's own request-stream generator, seeded per
/// run so the same seed always issues the same requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` and a per-purpose `stream` tag.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct vertices of `0..n`, in draw order.
    pub fn seeds(&mut self, n: usize, k: usize) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(k);
        while out.len() < k.min(n) {
            let v = self.below(n) as u32;
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// An existing edge `(u, v)`: `v` uniform over the vertices with an
/// in-edge, `u` uniform over `v`'s in-neighbours. Drawing the head vertex
/// first keeps the dirty-set work of a batch near its typical size; drawing
/// edges uniformly lands on hub heads so often that batch costs split into
/// two modes 10× apart.
pub fn edge_into_random_vertex(graph: &InfluenceGraph, rng: &mut Rng) -> (u32, u32) {
    let csr = graph.graph();
    loop {
        let v = rng.below(csr.num_vertices()) as u32;
        let sources = csr.in_neighbors(v);
        if !sources.is_empty() {
            return (sources[rng.below(sources.len())], v);
        }
    }
}

/// `size` attribute-only deltas: existing edges re-weighted at random.
#[must_use]
pub fn attribute_batch(
    engine: &imserve::QueryEngine,
    rng: &mut Rng,
    size: usize,
) -> Vec<imgraph::GraphDelta> {
    let state = engine.state();
    let graph = state.dynamic.graph();
    (0..size)
        .map(|_| {
            let (source, target) = edge_into_random_vertex(graph, rng);
            imgraph::GraphDelta::SetProbability {
                source,
                target,
                probability: 0.05 + 0.9 * rng.unit(),
            }
        })
        .collect()
}

/// Estimate seed-set sizes, cycled through in request order.
pub const ESTIMATE_SIZES: [usize; 3] = [1, 3, 8];

/// The fixed probe seed sets of the answer checks.
#[must_use]
pub fn probe_sets(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let n32 = n as u32;
    let mut probes = vec![vec![0], vec![n32 - 1], vec![0, n32 / 2, n32 - 1]];
    let mut rng = Rng::new(seed, 0x7072_6f62); // "prob"
    for i in 0..8 {
        probes.push(rng.seeds(n, ESTIMATE_SIZES[i % 3]));
    }
    probes
}

/// The `q`-quantile of `values`, interpolated linearly between the two
/// closest ranks of a sorted copy (so the median of an even count is the
/// mean of the middle two); `0` when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Microseconds since `start`.
#[must_use]
pub fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Start the window `peak_rss_mb` covers: hand freed heap pages back to the
/// kernel, then reset the process's peak resident set (`VmHWM`) to what is
/// resident now. Workloads call it once set-up is done and nothing but the
/// deployment under test is alive, so the peak is the deployment's under
/// load, not that of set-up transients or of the benchmark's own checks.
/// Where the reset is not possible the peak stays the whole process's.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap memory and
        // is safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets the peak RSS (Linux ≥ 4.0, see proc(5)).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in MiB since the last
/// [`reset_peak_rss`], `0` where `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Time `setups` complete set-ups with `setup`, keep the last deployment
/// and record the median as `setup_s` (the earlier deployments are torn
/// down by dropping them before the next set-up starts).
pub fn timed_setups<T>(
    config: &Config,
    outcome: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(config.setups.max(1));
    let mut kept = None;
    for _ in 0..config.setups.max(1) {
        drop(kept.take());
        let began = Instant::now();
        kept = Some(setup()?);
        times.push(began.elapsed().as_secs_f64());
    }
    if !config.trace {
        outcome.put("setup_s", median(&times), "s");
    }
    Ok(kept.expect("at least one set-up ran"))
}

/// `q`-quantile (µs, log₂-bucket upper bound) of what histogram `name`
/// recorded between two snapshots; `0` when nothing was recorded.
#[must_use]
pub fn histogram_delta_quantile(
    before: &imserve::service::MetricsReport,
    after: &imserve::service::MetricsReport,
    name: &str,
    q: f64,
) -> f64 {
    let Some(late) = after.histogram(name) else {
        return 0.0;
    };
    let early = before.histogram(name);
    let early_at = |i: usize| early.map_or(0, |h| h.buckets.get(i).map_or(h.count, |b| b.count));
    let total = late.count - early.map_or(0, |h| h.count);
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).max(1);
    for (i, bucket) in late.buckets.iter().enumerate() {
        if bucket.count - early_at(i) >= rank {
            return bucket.le as f64;
        }
    }
    late.buckets.last().map_or(0.0, |b| b.le as f64)
}

/// Mean (µs) of what histogram `name` recorded between two snapshots.
#[must_use]
pub fn histogram_delta_mean(
    before: &imserve::service::MetricsReport,
    after: &imserve::service::MetricsReport,
    name: &str,
) -> f64 {
    let Some(late) = after.histogram(name) else {
        return 0.0;
    };
    let (count, sum) = before.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    if late.count == count {
        return 0.0;
    }
    (late.sum - sum) as f64 / (late.count - count) as f64
}

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload's path does not touch reports `0` (no wire on
/// `local-write-topk`, no router outside `sharded-tiered`, …).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fixture.generate_s", "s"),
    ("sampler.pool_build_s", "s"),
    ("sampler.rr_vertices", "count"),
    ("impool.convert_s", "s"),
    ("impool.resident_bytes", "bytes"),
    ("impool.bytes_per_set", "bytes"),
    ("impool.scan_sets_per_s", "1/s"),
    ("oracle.estimate_us", "us"),
    ("oracle.postings_per_estimate", "count"),
    ("oracle.greedy_ms", "ms"),
    ("engine.estimate_us", "us"),
    ("engine.top_k_miss_ms", "ms"),
    ("engine.top_k_hit_us", "us"),
    ("engine.gains_ms", "ms"),
    ("engine.topk_cache_hit_ratio", "ratio"),
    ("engine.topk_cache_hits", "count"),
    ("engine.topk_cache_misses", "count"),
    ("engine.mutate_batch_ms", "ms"),
    ("imgraph.materialize_ms", "ms"),
    ("imdyn.apply_batch_ms", "ms"),
    ("imdyn.sets_resampled", "count"),
    ("imdyn.csr_materializations", "count"),
    ("imdyn.attribute_patches", "count"),
    ("protocol.estimate.encode_us", "us"),
    ("protocol.estimate.decode_us", "us"),
    ("protocol.estimate.request_bytes", "bytes"),
    ("protocol.estimate.response_bytes", "bytes"),
    ("protocol.top_k.encode_us", "us"),
    ("protocol.top_k.decode_us", "us"),
    ("protocol.top_k.request_bytes", "bytes"),
    ("protocol.top_k.response_bytes", "bytes"),
    ("protocol.gains.encode_us", "us"),
    ("protocol.gains.decode_us", "us"),
    ("protocol.gains.request_bytes", "bytes"),
    ("protocol.gains.response_bytes", "bytes"),
    ("protocol.mutate_batch.encode_us", "us"),
    ("protocol.mutate_batch.decode_us", "us"),
    ("protocol.mutate_batch.request_bytes", "bytes"),
    ("protocol.mutate_batch.response_bytes", "bytes"),
    ("frontend.overhead_us", "us"),
    ("frontend.ping_rtt_us", "us"),
    ("reactor.queue_wait_p99_us", "us"),
    ("reactor.backpressure_stalls", "count"),
    ("shard.gains_rtt_ms", "ms"),
    ("shard.rounds", "count"),
    ("shard.wire_bytes_per_topk", "bytes"),
    ("shard.merge_ms", "ms"),
    ("shard.fanout_rtt_p99_ms", "ms"),
    ("loadgen.lag_p99_us", "us"),
    ("estimate_p50_us", "us"),
    ("estimate_p99_us", "us"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The largest share of end-to-end operation time, either way, by which the
/// layer spans of a traced run may fail to add up to the operations before
/// the run fails its own check (see [`Tracer::unattributed_pct`]). Replays
/// are timed apart from the operation they stand for, so the residual
/// carries the host's jitter: on a 2-vCPU VM the same 0.7 s greedy run
/// twice back to back differs by up to 6 %.
pub const UNATTRIBUTED_TOLERANCE_PCT: f64 = 10.0;

/// One encode/decode round of a request and its response frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecSample {
    /// µs to encode the request and the response frame.
    pub encode_us: f64,
    /// µs to decode both frames.
    pub decode_us: f64,
    /// Request line bytes on the wire (newline included).
    pub request_bytes: f64,
    /// Response line bytes on the wire (newline included).
    pub response_bytes: f64,
}

/// Per-layer samples a traced run accumulates before they become metrics.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    codec: BTreeMap<&'static str, Vec<CodecSample>>,
}

impl Layers {
    /// Set a per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Keep raw samples of a per-layer metric.
    pub fn extend(&mut self, name: &'static str, samples: &[f64]) {
        self.samples
            .entry(name)
            .or_default()
            .extend_from_slice(samples);
    }

    /// Median of the raw samples kept under `name`.
    #[must_use]
    pub fn median_of(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| median(s))
    }

    /// Keep one codec sample of `op`.
    pub fn push_codec(&mut self, op: &'static str, sample: CodecSample) {
        self.codec.entry(op).or_default().push(sample);
    }

    /// Median codec time (µs, encode + decode) of one `op`.
    #[must_use]
    pub fn codec_micros(&self, op: &str) -> f64 {
        let totals: Vec<f64> = self
            .codec
            .get(op)
            .map(|samples| samples.iter().map(|s| s.encode_us + s.decode_us).collect())
            .unwrap_or_default();
        median(&totals)
    }

    /// Turn the samples into the traced run's metrics: every name of
    /// [`PER_LAYER`], `trace.unattributed_pct` (the workload's residual, in
    /// percent of operation time), and a failed check when the residual is
    /// beyond [`UNATTRIBUTED_TOLERANCE_PCT`] either way. The spans go to
    /// `trace-<workload>-<seed>.jsonl` in the work directory.
    pub fn finish(
        mut self,
        tracer: &Tracer,
        outcome: &mut Outcome,
        config: &Config,
        workload: &str,
        unattributed: f64,
    ) {
        let dump = config
            .work_dir
            .join(format!("trace-{workload}-{}.jsonl", config.seed));
        if let Err(e) = tracer.write_jsonl(&dump) {
            eprintln!("perfbench: cannot write {}: {e}", dump.display());
        }
        for (op, samples) in &self.codec {
            // Times are medians; byte counts are means, so they stay exact
            // sums over the frames a run sent.
            let pick =
                |f: fn(&CodecSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
            let mean = |f: fn(&CodecSample) -> f64| {
                samples.iter().map(f).sum::<f64>() / samples.len() as f64
            };
            let metrics = [
                ("encode_us", pick(|s| s.encode_us)),
                ("decode_us", pick(|s| s.decode_us)),
                ("request_bytes", mean(|s| s.request_bytes)),
                ("response_bytes", mean(|s| s.response_bytes)),
            ];
            for (suffix, value) in metrics {
                let name = format!("protocol.{op}.{suffix}");
                let unit = unit_of(&name);
                outcome.put(&name, value, unit);
            }
        }
        self.set("trace.unattributed_pct", unattributed);
        if unattributed.abs() > UNATTRIBUTED_TOLERANCE_PCT {
            outcome.fail(format!(
                "trace: the layer spans leave {unattributed:.2}% of operation time \
                 unaccounted for (tolerance ±{UNATTRIBUTED_TOLERANCE_PCT}%)"
            ));
        }
        for (name, unit) in PER_LAYER {
            if !outcome.metrics.contains_key(*name) {
                outcome.put(name, self.values.get(name).copied().unwrap_or(0.0), unit);
            }
        }
    }
}

/// Encode and decode the frames of one request/response pair exactly as
/// the v2 wire carries them, timing each step inside `tracer` as children
/// of span `parent` (`0`: as roots) of operation `request`.
///
/// # Panics
///
/// Panics if a frame fails to round-trip — the codec itself is broken.
pub fn codec(
    tracer: &Tracer,
    parent: u32,
    request: u64,
    frame: imserve::Request,
    response: imserve::Response,
) -> CodecSample {
    use imserve::protocol::{decode, encode, Outcome, RequestFrame, ResponseFrame};
    let frame = RequestFrame::new(1, frame);
    let reply = ResponseFrame {
        v: imserve::PROTOCOL_VERSION,
        id: 1,
        body: Outcome::Ok(response),
    };
    let mut sample = CodecSample::default();
    let open = tracer.open("protocol.encode", parent, request);
    let line = encode(&frame).expect("request frames encode");
    sample.encode_us += tracer.close(open);
    let open = tracer.open("protocol.decode", parent, request);
    let back: RequestFrame = decode(&line).expect("request frames decode");
    sample.decode_us += tracer.close(open);
    let open = tracer.open("protocol.encode", parent, request);
    let reply_line = encode(&reply).expect("response frames encode");
    sample.encode_us += tracer.close(open);
    let open = tracer.open("protocol.decode", parent, request);
    let reply_back: ResponseFrame = decode(&reply_line).expect("response frames decode");
    sample.decode_us += tracer.close(open);
    assert!(
        back == frame && reply_back == reply,
        "codec round trip changed a frame"
    );
    sample.request_bytes = (line.len() + 1) as f64;
    sample.response_bytes = (reply_line.len() + 1) as f64;
    sample
}

fn unit_of(metric: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(name, _)| *name == metric)
        .map_or("count", |(_, unit)| unit)
}

/// Run one end-to-end operation. When tracing, it is an `op.*` root span
/// and `f` gets the root's id (`0` untraced) to hang the layer calls on its
/// path under it. Returns the value, the client-observed latency in µs and
/// the root's id, under which the caller may hang replays of the path's
/// layer calls.
pub fn op<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce(u32) -> T,
) -> (T, f64, u32) {
    let began = Instant::now();
    let Some(tracer) = tracer else {
        let value = f(0);
        return (value, micros_since(began), 0);
    };
    let root = tracer.open(name, 0, request);
    let value = f(root.id);
    tracer.close(root);
    (value, micros_since(began), root.id)
}

/// The whole pool's RR-set vertices: Σ posting-list lengths (every vertex
/// of every RR set appears in exactly one posting list entry).
#[must_use]
pub fn rr_vertices(oracle: &im_core::InfluenceOracle) -> u64 {
    let pool = oracle.pool();
    (0..oracle.num_vertices() as u32)
        .map(|v| pool.posting_len(v) as u64)
        .sum()
}

/// Σ posting-list lengths over `seeds` — the postings an estimate scans.
#[must_use]
pub fn postings(oracle: &im_core::InfluenceOracle, seeds: &[u32]) -> u64 {
    seeds
        .iter()
        .map(|&v| oracle.pool().posting_len(v) as u64)
        .sum()
}

/// Time one full coverage scan (`coverage_gains(&[])`) and return RR sets
/// scanned per second.
pub fn scan_sets_per_s(tracer: &Tracer, oracle: &im_core::InfluenceOracle) -> f64 {
    let open = tracer.open("impool.coverage_scan", 0, 0);
    let (gains, _) = oracle.coverage_gains(&[]);
    let micros = tracer.close(open);
    assert_eq!(gains.len(), oracle.num_vertices());
    oracle.pool_size() as f64 / (micros / 1e6).max(1e-9)
}

/// Client-observed estimate latency of a traced run's untraced phase. It is
/// a per-layer figure, not an end-to-end metric: on the 2-vCPU VM the
/// estimate round trip moves with the host's wake-up latency (the median of
/// ten `sharded-tiered` runs spread by a third of itself), so it carries no
/// bound.
pub fn estimate_latency(layers: &mut Layers, untraced_us: &[f64]) {
    layers.set("estimate_p50_us", quantile(untraced_us, 0.5));
    layers.set("estimate_p99_us", quantile(untraced_us, 0.99));
}

/// `trace.overhead_pct`: how much slower the traced phase's median
/// operation was than the untraced phase's.
#[must_use]
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = median(untraced);
    if base <= 0.0 {
        return 0.0;
    }
    (median(traced) - base) / base * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use imserve::service::{HistogramBucket, HistogramSample, MetricsReport};

    fn report(count: u64, sum: u64, buckets: &[(u64, u64)]) -> MetricsReport {
        MetricsReport {
            histograms: vec![HistogramSample {
                name: "h".into(),
                count,
                sum,
                buckets: buckets
                    .iter()
                    .map(|&(le, count)| HistogramBucket { le, count })
                    .collect(),
            }],
            ..MetricsReport::default()
        }
    }

    #[test]
    fn histogram_deltas_only_see_what_was_recorded_between_snapshots() {
        // Before: 10 samples ≤ 1. After: 10 more, 9 of them in (2, 4], 1 in (4, 8].
        let before = report(10, 10, &[(1, 10)]);
        let after = report(20, 50, &[(1, 10), (2, 10), (4, 19), (8, 20)]);
        assert_eq!(histogram_delta_quantile(&before, &after, "h", 0.5), 4.0);
        assert_eq!(histogram_delta_quantile(&before, &after, "h", 0.99), 8.0);
        assert_eq!(histogram_delta_mean(&before, &after, "h"), 4.0);
        assert_eq!(histogram_delta_quantile(&after, &after, "h", 0.99), 0.0);
        assert_eq!(
            histogram_delta_quantile(&before, &after, "missing", 0.5),
            0.0
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome::new();
        outcome.attempted = 3;
        outcome.put("setup_s", 1.25, "s");
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        outcome.op(false, || "wrong answer".into());
        assert!(!outcome.correct && outcome.failed == 1 && outcome.attempted == 4);
    }

    #[test]
    fn request_streams_repeat_per_seed() {
        let draw = |seed| Rng::new(seed, 1).seeds(1000, 8);
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let seeds = draw(3);
        assert!(seeds.iter().all(|&v| v < 1000));
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len());
    }
}
