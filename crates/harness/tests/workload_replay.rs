//! Workload-bisection corpus replay (satellite of the coverage-guided
//! fuzz subsystem): a shrunk violation's corpus entry — `workload.txt`
//! reduction steps next to the usual `config.txt`/`trace.txt` — rebuilds
//! the exact 1-minimal plan through [`load_corpus_plan`] and re-executes
//! to byte-identical trace bytes, the same `caa replay --corpus` path fuzz
//! lineage entries take.

use caa_harness::arena::ExecutionArena;
use caa_harness::bisect::{apply_steps, bisect_workload, write_workload_entry, WorkloadOutcome};
use caa_harness::fuzz::load_corpus_plan;
use caa_harness::plan::{ActionPlan, ScenarioConfig, ScenarioPlan};
use caa_harness::sweep::run_plan_checked;

/// A synthetic "violation": some action raises from thread 0 in a plan
/// with at least two threads. Deterministic and cheap, so minimisation
/// exercises the full candidate grammar without executing plans.
fn zero_raise(plan: &ScenarioPlan) -> bool {
    fn has(action: &ActionPlan) -> bool {
        action
            .raise
            .as_ref()
            .is_some_and(|r| r.raisers.iter().any(|&(t, _)| t == 0))
            || action.phases.iter().any(|p| match p {
                caa_harness::plan::Phase::Nested { children } => children.iter().any(has),
                caa_harness::plan::Phase::Compute { .. } => false,
            })
    }
    plan.threads >= 2 && plan.top.iter().any(has)
}

fn rich_seed(config: &ScenarioConfig) -> ScenarioPlan {
    (0..4000)
        .map(|seed| ScenarioPlan::generate(seed, config))
        .find(|p| zero_raise(p) && p.threads >= 3 && p.top.len() >= 2)
        .expect("some seed in 0..4000 exhibits the synthetic violation")
}

#[test]
fn shrunk_workload_entry_replays_byte_exactly_from_disk() {
    let config = ScenarioConfig::default();
    let plan = rich_seed(&config);
    let outcome: WorkloadOutcome =
        bisect_workload(&plan, zero_raise).expect("the violation holds on the unreduced plan");
    assert!(
        !outcome.steps.is_empty(),
        "a rich plan must admit at least one reduction"
    );
    // The recorded steps replay onto the original plan.
    let replayed = apply_steps(&plan, &outcome.steps).expect("recorded steps re-apply");
    assert_eq!(format!("{replayed:?}"), format!("{:?}", outcome.plan));

    // Persist the full entry the way `caa replay --bisect` does:
    // steps + plan description from the bisector, then the scenario
    // config and the minimal plan's trace bytes.
    let dir = std::env::temp_dir().join(format!("caa-workload-replay-{}", std::process::id()));
    let entry = write_workload_entry(&dir, &outcome).expect("persist workload entry");
    std::fs::write(entry.join("config.txt"), config.to_kv()).expect("persist config");
    let mut arena = ExecutionArena::new();
    let recorded = run_plan_checked(outcome.plan.clone(), false, &mut arena)
        .artifacts
        .trace
        .render();
    std::fs::write(entry.join("trace.txt"), &recorded).expect("persist trace");

    // The entry alone — no in-memory state — rebuilds the minimal plan...
    let (loaded, loaded_config) = load_corpus_plan(&entry).expect("load workload entry");
    assert_eq!(format!("{loaded:?}"), format!("{:?}", outcome.plan));
    assert_eq!(loaded_config.to_kv(), config.to_kv());

    // ...and re-executes to the recorded bytes exactly.
    let replay = run_plan_checked(loaded, false, &mut arena)
        .artifacts
        .trace
        .render();
    assert!(
        replay == recorded,
        "workload entry replay diverged:\n--- recorded ---\n{recorded}\n--- replay ---\n{replay}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
