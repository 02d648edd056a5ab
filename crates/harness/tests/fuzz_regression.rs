//! Regression for the coverage-guided loop's first real find (the PR 7
//! nightly shards): `dup_top_action`-mutated plans whose crash-stop dies
//! in an early top action, leaving the survivors to run the duplicated
//! *sequential* top actions without the dead peer. Before round-agnostic
//! suspicion, only the resolution round could evict: a post-crash action
//! that never raised stalled against the dead peer's missing signalling
//! announcements and exit votes, and the compounding recovery skew read
//! as false suspicion with divergent per-thread views. With suspicion in
//! every round, per-instance eviction accounting, and set-based view
//! agreement, the whole scenario class must hold every oracle — and a
//! minimized lineage from the class must keep replaying byte-exactly
//! through the same corpus path (`caa replay --corpus`) as any fuzz find.

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::fuzz::{load_corpus_plan, mutate_plan, Lineage};
use caa_harness::oracle::check_run;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};

/// The first mutation seed at or after `from` whose [`mutate_plan`]
/// applies `mutator` to `plan` — the deterministic way to steer the pure
/// mutation function onto a named edit.
fn mutation_seed_for(plan: &ScenarioPlan, mutator: &str, from: u64) -> u64 {
    (from..from + 100_000)
        .find(|&s| mutate_plan(plan, s).mutator == mutator)
        .unwrap_or_else(|| panic!("no mutation seed applying {mutator} in range"))
}

/// Whether `plan` is in the find's class: a crash-stop scheduled in a top
/// action that still has sequential successors for the survivors to run.
fn in_find_class(plan: &ScenarioPlan) -> bool {
    plan.crashes
        .iter()
        .any(|c| (c.top_action as usize) + 1 < plan.top.len())
}

#[test]
fn post_crash_sequential_top_actions_survive_every_oracle() {
    let config = ScenarioConfig::default();
    let mut arena = ExecutionArena::new();
    let mut covered = 0u64;
    for seed in 0..4000u64 {
        let base = ScenarioPlan::generate(seed, &config);
        if !in_find_class(&base) {
            continue;
        }
        // Compound the skew exactly the way the fuzzer did: duplicate top
        // actions so even more sequential recovery rounds follow the
        // crash (the mutator caps the sequence at four).
        let mut plan = base;
        let mut from = 0;
        while plan.top.len() < 4 {
            let m = mutation_seed_for(&plan, "dup_top_action", from);
            plan = mutate_plan(&plan, m).plan;
            from = m + 1;
        }
        let artifacts = execute_in(&plan, &mut arena);
        let violations = check_run(&artifacts);
        assert!(
            violations.is_empty(),
            "seed {seed} (duplicated to {} top actions): {:?}",
            artifacts.plan.top.len(),
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
        );
        arena.recycle_trace(artifacts.trace);
        covered += 1;
        if covered >= 40 {
            return;
        }
    }
    panic!("find class under-sampled: only {covered} plans in range");
}

#[test]
fn a_minimized_find_lineage_replays_byte_exactly_from_its_corpus_entry() {
    let config = ScenarioConfig::default();
    // Pin the minimal member of the class deterministically: the first
    // crash seed with a post-crash sequential action, plus one
    // `dup_top_action` mutation.
    let (seed, base) = (0..4000u64)
        .find_map(|s| {
            let p = ScenarioPlan::generate(s, &config);
            (in_find_class(&p) && p.top.len() < 4).then_some((s, p))
        })
        .expect("a find-class seed in range");
    let m = mutation_seed_for(&base, "dup_top_action", 0);
    let lineage = Lineage {
        seed,
        mutations: vec![m],
    };
    let plan = lineage.materialize(&config);
    assert!(plan.top.len() > base.top.len(), "mutation must duplicate");
    assert!(in_find_class(&plan));

    let mut arena = ExecutionArena::new();
    let artifacts = execute_in(&plan, &mut arena);
    let violations = check_run(&artifacts);
    assert!(
        violations.is_empty(),
        "the minimized lineage must be fixed: {:?}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
    );

    // Persist the entry the way the fuzz loop lays it out, then reload
    // and re-execute through the `caa replay --corpus` path: the re-derived
    // plan's trace must match the recorded bytes exactly.
    let dir = std::env::temp_dir().join(format!("caa-fuzz-regression-{}", std::process::id()));
    let entry = dir.join(lineage.entry_name());
    std::fs::create_dir_all(&entry).unwrap();
    std::fs::write(entry.join("config.txt"), config.to_kv()).unwrap();
    std::fs::write(entry.join("lineage.txt"), lineage.render()).unwrap();
    std::fs::write(entry.join("trace.txt"), artifacts.trace.render()).unwrap();

    let (reloaded, reloaded_config) = load_corpus_plan(&entry).expect("entry loads");
    let recorded = std::fs::read_to_string(entry.join("trace.txt")).unwrap();
    let replayed = execute_in(&reloaded, &mut ExecutionArena::new());
    assert_eq!(
        replayed.trace.render(),
        recorded,
        "corpus replay diverged for lineage {}",
        lineage.entry_name()
    );
    assert_eq!(reloaded_config.to_kv(), config.to_kv());
    std::fs::remove_dir_all(&dir).ok();
}
