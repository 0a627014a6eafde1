//! The benchmark's own tests, on a reduced fixture (20 000 vertices,
//! 4 000 RR sets) so they finish in seconds: every workload answers
//! correctly and reports every named metric, and the traced run's cost
//! counts repeat exactly at one seed and move with the seed.

use perfbench::{Config, Outcome, Scale, PER_LAYER, WORKLOADS};

const SMALL: Scale = Scale {
    nodes: 20_000,
    degree: 4.0,
    pool: 4_000,
};

/// The end-to-end metrics `BENCHMARK.json` lists.
const END_TO_END: [&str; 3] = ["setup_s", "topk_p50_ms", "peak_rss_mb"];

/// Counts that must repeat exactly at one seed.
const REPEATING: [&str; 14] = [
    "sampler.rr_vertices",
    "impool.resident_bytes",
    "imdyn.sets_resampled",
    "imdyn.csr_materializations",
    "imdyn.attribute_patches",
    "protocol.estimate.request_bytes",
    "protocol.estimate.response_bytes",
    "protocol.mutate_batch.request_bytes",
    "protocol.gains.response_bytes",
    "protocol.top_k.response_bytes",
    "shard.rounds",
    "shard.wire_bytes_per_topk",
    "engine.topk_cache_hits",
    "engine.topk_cache_misses",
];

/// Counts that depend on the fixture, so a new seed must move them (on the
/// workloads whose path they lie on, i.e. where they are non-zero).
const SEED_DEPENDENT: [&str; 5] = [
    "sampler.rr_vertices",
    "impool.resident_bytes",
    "protocol.estimate.response_bytes",
    "protocol.mutate_batch.request_bytes",
    "shard.wire_bytes_per_topk",
];

fn config(seed: u64, trace: bool) -> Config {
    Config {
        scale: SMALL,
        seed,
        // A traced `remote-read` checks its front-end residual over its
        // traced open-loop phase (0.6 of the run). At 4 s the residual left
        // its tolerance (-18 %) in three of nine runs of this suite on a
        // 2-vCPU VM; at 8 s six seeds stayed within ±4 %.
        seconds: if trace { 8.0 } else { 4.0 },
        trace,
        setups: 1,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench"),
    }
}

/// Runs take turns: the open-loop generator is timing-sensitive, and two
/// workloads sharing a 2-core host would push it behind schedule.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let outcome = perfbench::run(workload, &config(seed, trace)).expect("workload runs");
    assert!(
        outcome.correct && outcome.failed == 0,
        "{workload} seed {seed} trace {trace}: {:?}",
        outcome.problems
    );
    assert!(outcome.attempted > 0);
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .get(name)
        .map(|(v, _)| *v)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let outcome = run(workload, 3, false);
        for name in END_TO_END {
            let v = value(&outcome, name);
            assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
        }
        assert_eq!(
            outcome.metrics.len(),
            END_TO_END.len(),
            "{workload}: {:?}",
            outcome.metrics.keys()
        );
        let line = outcome.to_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn traced_runs_report_every_layer_and_their_counts_repeat() {
    for workload in WORKLOADS {
        let first = run(workload, 5, true);
        for (name, _) in PER_LAYER {
            let v = value(&first, name);
            assert!(v.is_finite(), "{workload}: {name} = {v}");
        }
        assert_eq!(first.metrics.len(), PER_LAYER.len(), "{workload}");
        let unattributed = value(&first, "trace.unattributed_pct");
        assert!(
            unattributed != 0.0 && unattributed.abs() <= perfbench::UNATTRIBUTED_TOLERANCE_PCT,
            "{workload}: {unattributed}"
        );
        assert!(value(&first, "sampler.rr_vertices") > 0.0, "{workload}");
        let again = run(workload, 5, true);
        for name in REPEATING {
            assert_eq!(
                value(&first, name),
                value(&again, name),
                "{workload}: {name} at one seed"
            );
        }
        let other = run(workload, 6, true);
        for name in SEED_DEPENDENT {
            if value(&first, name) != 0.0 {
                assert_ne!(
                    value(&first, name),
                    value(&other, name),
                    "{workload}: {name} across seeds"
                );
            }
        }
    }
}

#[test]
fn layers_land_on_the_workloads_they_belong_to() {
    let remote = run("remote-read", 7, true);
    assert!(value(&remote, "frontend.overhead_us") > 0.0);
    assert!(value(&remote, "frontend.ping_rtt_us") > 0.0);
    assert_eq!(value(&remote, "engine.topk_cache_hit_ratio"), 1.0);
    assert_eq!(value(&remote, "shard.rounds"), 0.0);
    let local = run("local-write-topk", 7, true);
    assert!(value(&local, "imdyn.csr_materializations") > 0.0);
    assert_eq!(value(&local, "engine.topk_cache_hit_ratio"), 0.0);
    assert_eq!(value(&local, "protocol.estimate.request_bytes"), 0.0);
    let sharded = run("sharded-tiered", 7, true);
    assert_eq!(
        value(&sharded, "shard.rounds"),
        perfbench::sharded::K as f64
    );
    assert!(value(&sharded, "shard.wire_bytes_per_topk") > 0.0);
    assert_eq!(value(&sharded, "imdyn.csr_materializations"), 0.0);
    assert!(value(&sharded, "imdyn.attribute_patches") > 0.0);
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(perfbench::run("no-such-workload", &config(1, false)).is_err());
}
