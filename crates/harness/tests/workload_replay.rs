//! Shrunk-find corpus replay: a shrunk violation is an ordinary corpus
//! entry — `config.txt` plus a `recipe.txt` holding the source recipe and
//! the accepted drops — that rebuilds the exact 1-minimal plan through
//! [`load_corpus_plan`] and re-executes to byte-identical trace bytes, the
//! same `caa replay --corpus` path every other entry takes.

use std::path::{Path, PathBuf};

use caa_harness::arena::ExecutionArena;
use caa_harness::edit::{apply, draw, load_corpus_plan, shrink, Recipe};
use caa_harness::plan::{ActionPlan, Phase, ScenarioConfig, ScenarioPlan};
use caa_harness::rng::Rng;
use caa_harness::sweep::{run_plan_checked, write_corpus_files};

/// A synthetic "violation": some action raises from thread 0 in a plan
/// with at least two threads. Deterministic and cheap, so shrinking
/// exercises the whole drop grammar without executing plans.
fn zero_raise(plan: &ScenarioPlan) -> bool {
    fn has(action: &ActionPlan) -> bool {
        action
            .raise
            .as_ref()
            .is_some_and(|r| r.raisers.iter().any(|&(t, _)| t == 0))
            || action.phases.iter().any(|p| match p {
                Phase::Nested { children } => children.iter().any(has),
                Phase::Compute { .. } => false,
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

/// Shrinks the plan `source` rebuilds and persists the result the way
/// `caa replay --bisect` does: the source recipe plus the accepted drops,
/// written by the one corpus writer under the recipe's entry name.
/// Returns the entry and its recorded trace.
fn shrink_into(dir: &Path, config: &ScenarioConfig, source: &Recipe) -> (PathBuf, String) {
    let plan = source
        .materialize(config)
        .expect("the source recipe applies");
    let shrunk = shrink(&plan, zero_raise).expect("the violation holds on the unreduced plan");
    assert!(!shrunk.edits.is_empty(), "a rich plan admits a reduction");
    let mut recipe = source.clone();
    recipe.edits.extend(shrunk.edits);
    let result = run_plan_checked(shrunk.plan, false, &mut ExecutionArena::new());
    let entry = dir.join(recipe.entry_name());
    write_corpus_files(&entry, &config.to_kv(), &recipe, &result).expect("persist entry");
    (entry, result.artifacts.trace.render())
}

/// The entry alone — no in-memory state — rebuilds its plan and replays
/// the recorded bytes exactly.
fn assert_replays(entry: &Path, recorded: &str, config: &ScenarioConfig) {
    let (loaded, loaded_config, _) = load_corpus_plan(entry).expect("load shrunk entry");
    assert_eq!(loaded_config.to_kv(), config.to_kv());
    let on_disk = std::fs::read_to_string(entry.join("trace.txt")).expect("trace.txt");
    assert_eq!(on_disk, recorded, "{entry:?} holds its own trace");
    let replay = run_plan_checked(loaded, false, &mut ExecutionArena::new());
    let replay = replay.artifacts.trace.render();
    assert!(
        replay == recorded,
        "shrunk entry {entry:?} replay diverged:\n--- recorded ---\n{recorded}\n--- replay ---\n{replay}"
    );
}

#[test]
fn shrunk_workload_entry_replays_byte_exactly_from_disk() {
    let config = ScenarioConfig::default();
    let plan = rich_seed(&config);
    let dir = std::env::temp_dir().join(format!("caa-workload-replay-{}", std::process::id()));
    let (entry, recorded) = shrink_into(&dir, &config, &Recipe::base(plan.seed));
    assert_replays(&entry, &recorded, &config);
    let recipe = std::fs::read_to_string(entry.join("recipe.txt")).expect("recipe.txt");
    assert!(
        recipe.lines().skip(1).all(|l| l.starts_with("drop ")),
        "{recipe}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two fuzz finds from one base seed (their edits differ, their seed does
/// not) shrink into two distinct entries, each replaying its own trace —
/// and shrinking the bare seed afterwards leaves both untouched. Naming
/// every shrink `<seed>-workload` made the second overwrite the first, and
/// a later bare-seed shrink then replayed its drops against the first
/// find's stale edit file.
#[test]
fn two_shrinks_from_one_base_seed_land_in_distinct_entries() {
    let config = ScenarioConfig::default();
    let plan = rich_seed(&config);
    let mut finds = Vec::new();
    for rng_seed in 0u64.. {
        let edit = draw(&plan, &mut Rng::new(rng_seed));
        let edited = apply(&plan, &edit).expect("drawn edits apply");
        let mut recipe = Recipe::base(plan.seed);
        recipe.edits.push(edit);
        if zero_raise(&edited) && finds.iter().all(|f: &Recipe| f.edits != recipe.edits) {
            finds.push(recipe);
        }
        if finds.len() == 2 {
            break;
        }
    }
    let dir = std::env::temp_dir().join(format!("caa-shrink-names-{}", std::process::id()));
    let (first, first_trace) = shrink_into(&dir, &config, &finds[0]);
    let (second, second_trace) = shrink_into(&dir, &config, &finds[1]);
    let (bare, bare_trace) = shrink_into(&dir, &config, &Recipe::base(plan.seed));
    assert_ne!(first, second, "two finds from one base seed share an entry");
    assert!(bare != first && bare != second);
    let seed = plan.seed.to_string();
    for (entry, trace) in [
        (first, first_trace),
        (second, second_trace),
        (bare, bare_trace),
    ] {
        let name = entry
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        assert!(name.starts_with(&format!("{seed}-r")), "{name}");
        assert_replays(&entry, &trace, &config);
    }
    std::fs::remove_dir_all(&dir).ok();
}
