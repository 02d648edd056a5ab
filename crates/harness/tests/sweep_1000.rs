//! The acceptance sweep: ≥1000 seeds explored in well under a minute of
//! wall-clock time (virtual time is simulated), every trace passing the
//! resolution-agreement, Lemma 1, message-complexity, nesting and
//! deterministic-replay oracles, with any violation reported as a
//! replayable seed.

use std::time::Duration;

use caa_harness::sweep::{sweep, SweepConfig};

#[test]
fn thousand_seed_sweep_passes_every_oracle() {
    let report = sweep(&SweepConfig {
        start_seed: 0,
        seeds: 1000,
        workers: 0,
        check_replay: true,
        ..SweepConfig::default()
    });
    assert!(
        report.all_passed(),
        "violating seeds found:\n{}",
        report.summary()
    );
    assert_eq!(report.seeds_run, 1000);
    assert!(
        report.wall < Duration::from_secs(60),
        "sweep took {:?}, budget is 60s",
        report.wall
    );
    // The sweep must actually exercise the protocols, not trivially pass.
    assert!(
        report.trace_entries > 50_000,
        "only {} trace entries recorded",
        report.trace_entries
    );
    assert!(
        report.virtual_secs > 1000.0,
        "only {:.0}s of virtual time simulated",
        report.virtual_secs
    );
}

#[test]
fn violating_seeds_would_be_reported_with_replay_commands() {
    // Exercise the reporting path itself: the summary of a (hypothetical)
    // failure names the seed and a one-command replay. Run one seed and
    // format it as the sweep would.
    let plan = caa_harness::ScenarioPlan::generate(99, &Default::default());
    let result = caa_harness::run_plan_checked(plan, false, &mut Default::default());
    let command = result.replay_command();
    assert_eq!(
        command, "cargo run --release -p caa-bench --bin caa -- replay 99",
        "the command the README gives for replaying one seed"
    );
}
