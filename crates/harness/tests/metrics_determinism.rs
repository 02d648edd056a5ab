//! Determinism and merge guarantees of the sweep metrics pipeline:
//!
//! * the virtual-time (`deterministic`) section of a sweep's
//!   `metrics.json` is a pure function of the seed set — two runs of the
//!   same sweep serialize byte-identically, whatever the worker count;
//! * sharding a sweep and merging the shards' metrics reproduces the
//!   unsharded document byte for byte (the `caa merge` contract);
//! * scheduler hand-offs (parks and wakes) are a pure function of the
//!   seed now that a seed's participants run to block one at a time —
//!   executing a seed twice counts the same — and per seed they stay
//!   under the CI ceiling (the ROADMAP's "~57 hand-offs per seed" as a
//!   regression guard rather than prose).

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::metrics::{metrics_json, parse_metrics_json, SweepMetrics};
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::sweep::{sweep, Shard, SweepConfig, SweepReport};

/// Parks-per-seed ceiling for the default scenario at `--workers 1`.
/// Measured ~51–57 since PR 5 (57 exactly over seeds 0–499 since the
/// fiber host); 120 leaves room for the scenario generator to drift while
/// still catching a lost-wakeup regression (which shows up as a multi-x
/// explosion, not a few extra parks).
const HANDOFF_CEILING: u64 = 120;

fn run(seeds: u64, workers: usize, check_replay: bool, shard: Option<Shard>) -> SweepReport {
    let report = sweep(&SweepConfig {
        start_seed: 0,
        seeds,
        workers,
        check_replay,
        shard,
        ..SweepConfig::default()
    });
    assert!(
        report.all_passed(),
        "sweep found violations:\n{}",
        report.summary()
    );
    report
}

/// The shard-stable serialization: everything but the wall-clock
/// section (driver stage timers, and the scheduler counters filed with
/// them).
fn deterministic_json(report: &SweepReport) -> String {
    metrics_json(&report.metrics, report.seeds_run, false)
}

#[test]
fn same_seeds_serialize_byte_identically() {
    let first = run(150, 2, false, None);
    let second = run(150, 2, false, None);
    assert!(
        !first.metrics.deterministic.is_empty(),
        "sweep must have recorded virtual-time metrics"
    );
    assert_eq!(
        deterministic_json(&first),
        deterministic_json(&second),
        "two runs of the same sweep must serialize identical metrics"
    );
}

#[test]
fn worker_count_does_not_change_metrics() {
    let serial = run(150, 1, false, None);
    let parallel = run(150, 4, false, None);
    assert_eq!(
        deterministic_json(&serial),
        deterministic_json(&parallel),
        "metrics must not depend on how seeds are scheduled across workers"
    );
}

#[test]
fn four_shard_merge_equals_unsharded() {
    const SEEDS: u64 = 600;
    const SHARDS: u64 = 4;
    let whole = run(SEEDS, 2, false, None);

    let mut merged = SweepMetrics::default();
    let mut seeds_total = 0;
    for index in 0..SHARDS {
        let shard = run(
            SEEDS,
            2,
            false,
            Some(Shard {
                index,
                count: SHARDS,
            }),
        );
        merged.merge(&shard.metrics);
        seeds_total += shard.seeds_run;
    }
    assert_eq!(
        seeds_total, whole.seeds_run,
        "shards must partition the seed range"
    );
    assert_eq!(
        metrics_json(&merged, seeds_total, false),
        deterministic_json(&whole),
        "merging the four shard documents must reproduce the unsharded one"
    );
}

/// `caa merge`'s parse→merge→serialize path for metrics, in process:
/// round-tripping shard documents through the JSON interchange form and
/// merging the parsed metrics still reproduces the unsharded bytes.
#[test]
fn merge_survives_json_round_trip() {
    const SEEDS: u64 = 300;
    let whole = run(SEEDS, 2, false, None);

    let mut merged = SweepMetrics::default();
    let mut seeds_total = 0;
    for index in 0..2 {
        let shard = run(SEEDS, 2, false, Some(Shard { index, count: 2 }));
        // Serialize with the wall-clock section included, as the sweep
        // writes it; the parse side must carry it without disturbing
        // the deterministic section.
        let doc = metrics_json(&shard.metrics, shard.seeds_run, true);
        let (seeds, parsed) = parse_metrics_json(&doc).expect("shard doc must parse");
        assert_eq!(seeds, shard.seeds_run);
        merged.merge(&parsed);
        seeds_total += seeds;
    }
    assert_eq!(
        metrics_json(&merged, seeds_total, false),
        deterministic_json(&whole),
    );
}

#[test]
fn crash_and_crashfree_latency_quantiles_are_populated() {
    let report = run(400, 2, false, None);
    for label in [
        "resolution_latency_crashfree_ns",
        "resolution_latency_crash_ns",
    ] {
        let hist = report
            .metrics
            .deterministic
            .histogram_named(label)
            .unwrap_or_else(|| panic!("{label} must be registered"));
        assert!(hist.count() > 0, "{label} must have samples over 400 seeds");
        assert!(hist.quantile(50, 100) > 0, "{label} p50 must be nonzero");
        assert!(
            hist.quantile(99, 100) >= hist.quantile(50, 100),
            "{label} quantiles must be ordered"
        );
    }
}

#[test]
fn single_worker_handoffs_stay_under_ceiling() {
    let report = run(100, 1, false, None);
    let parks = report.metrics.wall_clock.counter_value("sched_parks");
    assert!(
        parks > 0,
        "a single-worker sweep must park (virtual time advances)"
    );
    let per_seed = report.metrics.parks_per_seed();
    assert!(
        per_seed <= HANDOFF_CEILING,
        "~{per_seed} parks/seed at one worker exceeds the {HANDOFF_CEILING} ceiling \
         (lost targeted wakeups?)"
    );
}

/// Under `System::run` parks and wakes are a pure function of the seed —
/// and of the host's resume order (registration order, each participant's
/// runnable mark tested when the pass reaches it). The sums below were
/// captured before the host stopped polling those marks under the
/// scheduler lock (PR 14's parent commit): a change to how the host learns
/// who is runnable must leave them standing, or it changed the order in
/// which participants run.
#[test]
fn handoff_counts_are_a_pure_function_of_the_seed() {
    for (name, scenario, expected) in [
        ("default", ScenarioConfig::default(), (2_483, 3_376)),
        (
            "object_heavy",
            ScenarioConfig::object_heavy(),
            (5_677, 6_918),
        ),
        ("multi_crash", ScenarioConfig::multi_crash(), (2_949, 3_889)),
    ] {
        let (mut parks, mut wakes) = (0, 0);
        for seed in 0..50 {
            let plan = ScenarioPlan::generate(seed, &scenario);
            let first = execute_in(&plan, &mut ExecutionArena::default())
                .report
                .sched_stats;
            let second = execute_in(&plan, &mut ExecutionArena::default())
                .report
                .sched_stats;
            assert_eq!(
                first, second,
                "{name} seed {seed}: two executions handed off differently"
            );
            parks += first.parks;
            wakes += first.wakes;
        }
        assert_eq!(
            (parks, wakes),
            expected,
            "{name}: summed (parks, wakes) of seeds 0..50 moved — the resume order changed"
        );
    }
}
