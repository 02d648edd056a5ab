//! Regression for the coverage-guided loop's first real find (the PR 7
//! nightly shards): plans with duplicated top actions (`add top` edits)
//! whose crash-stop dies in an early top action, leaving the survivors to
//! run the duplicated *sequential* top actions without the dead peer.
//! Before round-agnostic suspicion, only the resolution round could
//! evict: a post-crash action that never raised stalled against the dead
//! peer's missing signalling announcements and exit votes, and the
//! compounding recovery skew read as false suspicion with divergent
//! per-thread views. With suspicion in every round, per-instance eviction
//! accounting, and set-based view agreement, the whole scenario class
//! must hold every oracle — and the minimized find, pinned below as
//! committed recipe text, must keep replaying byte-exactly through the
//! same corpus path (`caa replay --corpus`) as any fuzz find.

use caa_harness::arena::ExecutionArena;
use caa_harness::edit::{apply, load_corpus_plan, Edit, Kind, Recipe, Site};
use caa_harness::exec::execute_in;
use caa_harness::oracle::{check_run, Violation};
use caa_harness::plan::{CrashChoice, ScenarioConfig, ScenarioPlan};
use caa_harness::sweep::{run_plan_checked, write_corpus_files};

/// The minimized find: the first default-config seed in the class, with
/// one duplicated top action.
const MINIMIZED_FIND: &str = "seed 58\nadd top a0\n";

/// Whether `plan` is in the find's class: a crash-stop scheduled in a top
/// action that still has sequential successors for the survivors to run.
fn in_find_class(plan: &ScenarioPlan) -> bool {
    plan.crashes
        .iter()
        .any(|c| (c.top_action as usize) + 1 < plan.top.len())
}

fn violations(plan: &ScenarioPlan, arena: &mut ExecutionArena) -> Vec<String> {
    let result = run_plan_checked(plan.clone(), false, arena);
    result.violations.iter().map(ToString::to_string).collect()
}

#[test]
fn post_crash_sequential_top_actions_survive_every_oracle() {
    let config = ScenarioConfig::default();
    let mut arena = ExecutionArena::new();
    let mut covered = 0u64;
    for seed in 0..4000u64 {
        let mut plan = ScenarioPlan::generate(seed, &config);
        if !in_find_class(&plan) {
            continue;
        }
        // Compound the skew the way the fuzzer did: duplicate top actions
        // so even more sequential recovery rounds follow the crash (`add
        // top` caps the sequence at four).
        while plan.top.len() < 4 {
            let last = plan.top[plan.top.len() - 1].name.clone();
            let edit = Edit {
                kind: Kind::Add,
                site: Site::Top(last),
                value: None,
            };
            plan = apply(&plan, &edit).expect("add top applies below four");
        }
        let found = violations(&plan, &mut arena);
        assert!(found.is_empty(), "seed {seed} (4 top actions): {found:?}");
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
    let recipe: Recipe = MINIMIZED_FIND.parse().expect("the pinned recipe parses");
    assert_eq!(
        recipe.to_string(),
        MINIMIZED_FIND,
        "the pin is canonical text"
    );
    let first = (0..4000u64).find(|&s| {
        let p = ScenarioPlan::generate(s, &config);
        in_find_class(&p) && p.top.len() < 4
    });
    assert_eq!(
        first,
        Some(recipe.seed),
        "the pin is the class's first seed"
    );
    let plan = recipe
        .materialize(&config)
        .expect("the pinned recipe applies");
    let base = ScenarioPlan::generate(recipe.seed, &config);
    assert_eq!(plan.top.len(), base.top.len() + 1, "the edit duplicates");
    assert!(in_find_class(&plan));

    let mut arena = ExecutionArena::new();
    let result = run_plan_checked(plan, false, &mut arena);
    let found: Vec<String> = result.violations.iter().map(ToString::to_string).collect();
    assert!(
        found.is_empty(),
        "the minimized find must be fixed: {found:?}"
    );

    // Persist the entry the way the fuzz loop lays it out, then reload
    // and re-execute through the `caa replay --corpus` path: the rebuilt
    // plan's trace must match the recorded bytes exactly.
    let dir = std::env::temp_dir().join(format!("caa-fuzz-regression-{}", std::process::id()));
    let entry = dir.join(recipe.entry_name());
    write_corpus_files(&entry, &config.to_kv(), &recipe, &result).expect("persist entry");
    let (reloaded, reloaded_config, reloaded_recipe) = load_corpus_plan(&entry).expect("loads");
    assert_eq!(reloaded_recipe, recipe);
    assert_eq!(reloaded_config.to_kv(), config.to_kv());
    let recorded = std::fs::read_to_string(entry.join("trace.txt")).unwrap();
    let replayed = run_plan_checked(reloaded, false, &mut arena);
    assert_eq!(
        replayed.artifacts.trace.render(),
        recorded,
        "corpus replay diverged for recipe {}",
        recipe.entry_name()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An open find of the 50k-execution gain gate (`caa fuzz --budget 50000
/// --initial 2000 --batch 256 --baseline`, default config): two crashes
/// and a rejoin in one top action, shrunk by `caa replay --corpus <entry>
/// --bisect` to this 1-minimal recipe.
const OPEN_VIEW_DISAGREEMENT: &str = "\
seed 253
add crash 0 2 0 1248194720 -
add fault 2 toBeSignalled lose - 4 2
add crash 1 1 0 526295310 9897024916
drop fault 0
drop fault 0
drop raise a0.0
drop raiser a0.0.0 0
drop send a0 0 0
drop send a0 0 0
drop listener a0 0 0
drop send a0 1 0
drop listener a0 1 0
drop send a0.0 0 0
drop send a0.0 0 0
drop listener a0.0 0 0
drop eab a0.0 0
drop eab a0.0 0
drop send a0.0.0 0 0
drop send a0.0.0 0 0
drop listener a0.0.0 0 0
drop listener a0.0.0 0 0
drop listener a0.0.0 0 0
drop send a0.0.0 1 0
drop listener a0.0.0 1 0
drop listener a0.0.0 1 0
drop eab a0.0.0 0
";

/// Pins what the oracles say of that find today: the survivors' final
/// removed sets are not inclusion-ordered. Whether the oracle or the
/// runtime is wrong is ROADMAP items 2(d) and 8's to decide (the
/// sanctioned-exception inventory and the executable model); a fix flips
/// this assertion to an empty verdict.
#[test]
fn an_open_multi_crash_rejoin_find_reports_one_view_disagreement() {
    let recipe: Recipe = OPEN_VIEW_DISAGREEMENT
        .parse()
        .expect("the pinned recipe parses");
    assert_eq!(
        recipe.to_string(),
        OPEN_VIEW_DISAGREEMENT,
        "the pin is canonical text"
    );
    let plan = recipe
        .materialize(&ScenarioConfig::default())
        .expect("the pinned recipe applies");
    let artifacts = execute_in(&plan, &mut ExecutionArena::default());
    assert_eq!(
        check_run(&artifacts),
        [Violation::ViewDisagreement {
            action: 0,
            removed_sets: vec![vec![2, 3], vec![0, 2]],
        }]
    );
}

/// The smallest class of the census (ROADMAP item 19): one crash and no
/// rejoin. Default seed 70 103, shrunk by `caa replay 70103 --bisect` to
/// this 1-minimal recipe: thread 4 crash-stops, and a fault rule drops
/// the `toBeSignalled` messages among threads 0, 2 and 3 both ways.
const ONE_CRASH_NO_REJOIN: &str = "\
seed 70103
drop fault 1
drop raise a0
drop phase a0.0 0
drop phase a0.0 0
drop raiser a0.0.0 0
drop raiser a0.0.0 0
drop phase a0.0.0 0
drop phase a0.0.0 0
drop send a0 0 0
drop send a0 0 1
drop listener a0 0 0
drop eab a0.0 0
drop eab a0.0.0 0
drop eab a0.0.0 0
";

/// Pins what the oracles say of that recipe today: two survivors end
/// action 1 with the removed sets {2, 3, 4} and {0, 3, 4}, neither of
/// which includes the other. A fix of item 19(c)'s first class flips this
/// assertion to an empty verdict.
#[test]
fn a_one_crash_no_rejoin_find_reports_one_view_disagreement() {
    let recipe: Recipe = ONE_CRASH_NO_REJOIN
        .parse()
        .expect("the pinned recipe parses");
    assert_eq!(
        recipe.to_string(),
        ONE_CRASH_NO_REJOIN,
        "the pin is canonical text"
    );
    let plan = recipe
        .materialize(&ScenarioConfig::default())
        .expect("the pinned recipe applies");
    assert!(
        matches!(
            plan.crashes[..],
            [CrashChoice {
                rejoin_delay_ns: None,
                ..
            }]
        ),
        "one crash-stop, no rejoin: {:?}",
        plan.crashes
    );
    let artifacts = execute_in(&plan, &mut ExecutionArena::default());
    assert_eq!(
        check_run(&artifacts),
        [Violation::ViewDisagreement {
            action: 1,
            removed_sets: vec![vec![2, 3, 4], vec![0, 3, 4]],
        }]
    );
}
