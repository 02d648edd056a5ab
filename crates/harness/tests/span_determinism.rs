//! Determinism of the derived span layer (PR 9):
//!
//! * re-executing a seed yields a byte-identical span tree and
//!   byte-identical critical paths — the layer is a pure function of the
//!   trace, and the trace is a pure function of the seed;
//! * the `critical_path` metric section is worker-count-invariant and
//!   its 4-shard merge reproduces the unsharded section byte for byte;
//! * every instance's critical-path segments are contiguous and sum
//!   exactly to its raise→resolve latency (the attribution invariant);
//! * deriving spans does not touch the trace: fingerprints before and
//!   after derivation are identical;
//! * the rendered trees and Perfetto exports of 3 × 200 seeds are, byte for
//!   byte, those of the tree that named every span with a `String`
//!   (`tests/golden/span_trees_600.digest`, blessed on that tree).

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::{build_span_tree, critical_paths, trace_event_json, SegmentClass};
use caa_harness::sweep::{sweep, Shard, SweepConfig, SweepReport};
use caa_harness::trace::Hash64;

fn run(seeds: u64, workers: usize, shard: Option<Shard>) -> SweepReport {
    let report = sweep(&SweepConfig {
        start_seed: 0,
        seeds,
        workers,
        check_replay: false,
        shard,
        ..SweepConfig::default()
    });
    assert!(report.all_passed(), "{}", report.summary());
    report
}

#[test]
fn same_seed_derives_byte_identical_spans_and_paths() {
    for seed in [0u64, 7, 42, 99] {
        let config = ScenarioConfig::default();
        let first = execute_in(
            &ScenarioPlan::generate(seed, &config),
            &mut ExecutionArena::default(),
        );
        let second = execute_in(
            &ScenarioPlan::generate(seed, &config),
            &mut ExecutionArena::default(),
        );
        assert_eq!(
            build_span_tree(&first.trace).render(),
            build_span_tree(&second.trace).render(),
            "seed {seed}: span trees must be byte-identical across executions"
        );
        assert_eq!(
            critical_paths(&first.trace),
            critical_paths(&second.trace),
            "seed {seed}: critical paths must be identical across executions"
        );
        assert_eq!(
            trace_event_json(&first.trace, seed),
            trace_event_json(&second.trace, seed),
            "seed {seed}: exported trace-event JSON must be byte-identical"
        );
    }
}

/// `SpanTree::render` shows every name, interval, thread, instance and
/// parent link; `trace_event_json` shows the names JSON-escaped. The golden
/// file was written by the commit before span names stopped being heap
/// strings (`CAA_GOLDEN_BLESS=1` re-blesses; only a deliberate change of
/// the span taxonomy may).
#[test]
fn span_trees_of_600_seeds_render_like_the_string_named_tree() {
    const SEEDS: u64 = 200;
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/span_trees_600.digest"
    );
    let mut digest = String::new();
    for (name, config) in [
        ("default", ScenarioConfig::default()),
        ("object_heavy", ScenarioConfig::object_heavy()),
        ("multi_crash", ScenarioConfig::multi_crash()),
    ] {
        let (mut render, mut json) = (Hash64::default(), Hash64::default());
        let mut spans = 0;
        for seed in 0..SEEDS {
            let trace = execute_in(
                &ScenarioPlan::generate(seed, &config),
                &mut ExecutionArena::default(),
            )
            .trace;
            let tree = build_span_tree(&trace);
            spans += tree.len();
            render.write(tree.render().as_bytes());
            json.write(trace_event_json(&trace, seed).as_bytes());
        }
        digest += &format!(
            "{name} seeds 0..{SEEDS} spans {spans} render {:016x} trace_event_json {:016x}\n",
            render.finish(),
            json.finish(),
        );
    }
    if std::env::var_os("CAA_GOLDEN_BLESS").is_some() {
        std::fs::write(path, &digest).expect("write golden digest");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden digest present (bless once with CAA_GOLDEN_BLESS=1)");
    assert_eq!(digest, golden, "span trees drifted from {path}");
}

#[test]
fn span_derivation_leaves_the_trace_untouched() {
    let artifacts = execute_in(
        &ScenarioPlan::generate(11, &ScenarioConfig::default()),
        &mut ExecutionArena::default(),
    );
    let before = artifacts.trace.render_fingerprint();
    let _ = build_span_tree(&artifacts.trace);
    let _ = critical_paths(&artifacts.trace);
    let _ = trace_event_json(&artifacts.trace, 11);
    assert_eq!(
        artifacts.trace.render_fingerprint(),
        before,
        "deriving spans must be a pure read of the trace"
    );
}

#[test]
fn critical_path_metrics_are_worker_count_invariant() {
    let serial = run(120, 1, None);
    let parallel = run(120, 4, None);
    assert!(
        !serial.metrics.critical_path.is_empty(),
        "sweep must have attributed critical paths"
    );
    assert_eq!(
        serial.metrics.critical_path.to_json(),
        parallel.metrics.critical_path.to_json(),
        "critical-path attribution must not depend on worker scheduling"
    );
}

#[test]
fn four_shard_merge_reproduces_critical_path_section() {
    const SEEDS: u64 = 240;
    let whole = run(SEEDS, 2, None);
    let mut merged = caa_harness::metrics::SweepMetrics::default();
    for index in 0..4 {
        let shard = run(SEEDS, 2, Some(Shard { index, count: 4 }));
        merged.merge(&shard.metrics);
    }
    assert_eq!(
        merged.critical_path.to_json(),
        whole.metrics.critical_path.to_json(),
        "merging the four shards must reproduce the unsharded critical-path section"
    );
}

#[test]
fn segments_partition_latency_across_many_seeds() {
    for seed in 0..48u64 {
        let artifacts = execute_in(
            &ScenarioPlan::generate(seed, &ScenarioConfig::default()),
            &mut ExecutionArena::default(),
        );
        for path in critical_paths(&artifacts.trace) {
            let sum: u64 = path.segments.iter().map(|s| s.end_ns - s.start_ns).sum();
            assert_eq!(
                sum,
                path.resolved_at - path.raised_at,
                "seed {seed}: segment durations must sum exactly to the latency"
            );
            if let (Some(first), Some(last)) = (path.segments.first(), path.segments.last()) {
                assert_eq!(first.start_ns, path.raised_at);
                assert_eq!(last.end_ns, path.resolved_at);
            }
            for pair in path.segments.windows(2) {
                assert_eq!(
                    pair[0].end_ns, pair[1].start_ns,
                    "seed {seed}: segments must be contiguous"
                );
            }
            let class_sum: u64 = SegmentClass::ALL
                .iter()
                .map(|&c| path.class_total_ns(c))
                .sum();
            assert_eq!(class_sum, path.total_ns());
        }
    }
}
