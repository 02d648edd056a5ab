//! Determinism properties of the harness (satellite of the simulation
//! subsystem): identical seeds yield byte-identical traces across two
//! independent runs, and differing seeds explore differing scenarios and
//! fault schedules.

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};

/// Identical seeds ⇒ byte-identical rendered traces, across independently
/// built systems (fresh networks, fresh action definitions, fresh OS
/// threads).
#[test]
fn identical_seeds_render_byte_identical_traces() {
    let cfg = ScenarioConfig::default();
    for seed in (0..100).map(|i| i * 37 + 5) {
        let plan = ScenarioPlan::generate(seed, &cfg);
        let first = execute_in(&plan, &mut ExecutionArena::default())
            .trace
            .render();
        let second = execute_in(&plan, &mut ExecutionArena::default())
            .trace
            .render();
        assert!(
            first == second,
            "seed {seed} diverged:\n--- first ---\n{first}\n--- second ---\n{second}"
        );
        assert!(!first.is_empty(), "seed {seed} recorded nothing");
    }
}

/// Differing seeds explore differing scenarios: traces differ, and the
/// fault-schedule space is actually covered (schedules differ across seeds
/// and include losses, corruptions and signalling crashes).
#[test]
fn differing_seeds_explore_differing_fault_schedules() {
    let cfg = ScenarioConfig::default();
    let mut traces = std::collections::HashSet::new();
    let mut schedules = std::collections::HashSet::new();
    let (mut losses, mut corruptions, mut crashes) = (0u32, 0u32, 0u32);
    for seed in 0..100 {
        let plan = ScenarioPlan::generate(seed, &cfg);
        for fault in &plan.faults {
            if fault.count == u64::MAX {
                crashes += 1;
            } else if fault.lose {
                losses += 1;
            } else {
                corruptions += 1;
            }
        }
        schedules.insert(format!("{:?}", plan.faults));
        traces.insert(
            execute_in(&plan, &mut ExecutionArena::default())
                .trace
                .render(),
        );
    }
    assert!(
        traces.len() >= 99,
        "only {} distinct traces across 100 seeds",
        traces.len()
    );
    assert!(
        schedules.len() >= 30,
        "only {} distinct fault schedules across 100 seeds",
        schedules.len()
    );
    assert!(losses > 0, "no loss rules explored");
    assert!(corruptions > 0, "no corruption rules explored");
    assert!(crashes > 0, "no signalling crashes explored");
}

/// The plan itself is a pure function of the seed.
#[test]
fn plans_are_pure_functions_of_the_seed() {
    let cfg = ScenarioConfig::default();
    for seed in 0..50 {
        let a = ScenarioPlan::generate(seed, &cfg);
        let b = ScenarioPlan::generate(seed, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
    }
}
