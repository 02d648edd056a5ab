//! Fuzz-loop determinism (satellite of the coverage-guided fuzz
//! subsystem): the whole run — mutated plans, traces, coverage
//! signatures, the rendered coverage document — is a pure function of the
//! [`FuzzConfig`], with the worker count changing wall clock only. This
//! is what makes a nightly fuzz find reportable as a corpus entry (a
//! config plus a recipe) instead of a flaky one-off.

use caa_harness::arena::ExecutionArena;
use caa_harness::edit::{draw, Recipe};
use caa_harness::fuzz::{fuzz, CoverageDoc, FuzzConfig};
use caa_harness::plan::ScenarioConfig;
use caa_harness::rng::Rng;
use caa_harness::sweep::{run_plan_checked, PathCoverage};

fn config(workers: usize) -> FuzzConfig {
    FuzzConfig {
        executions: 128,
        initial_seeds: 40,
        batch: 16,
        workers,
        compare_fresh: true,
        ..FuzzConfig::default()
    }
}

/// The same config at 1 and 4 workers produces byte-identical coverage
/// documents: identical signature maps, counters, violations, baseline.
/// Parent selection happens between generations and batch results commit
/// in child-index order, so parallelism cannot reorder the feedback loop.
#[test]
fn one_and_four_workers_render_identical_coverage_documents() {
    let one = fuzz(&config(1));
    let four = fuzz(&config(4));
    let doc_one = CoverageDoc::from_fuzz(&one).render();
    let doc_four = CoverageDoc::from_fuzz(&four).render();
    assert!(
        doc_one == doc_four,
        "worker count leaked into the coverage document:\n--- 1 worker ---\n{doc_one}\n\
         --- 4 workers ---\n{doc_four}"
    );
    assert_eq!(one.executions, 128);
    assert!(
        one.signatures.len() > 1,
        "the smoke budget must reach more than one path signature"
    );
    // Novelty accounting is part of the deterministic surface too.
    assert_eq!(one.novel_from_mutation, four.novel_from_mutation);
    assert_eq!(one.generations, four.generations);
}

/// Back-to-back runs of the same config are identical — no hidden global
/// state (thread-local RNGs, time-dependent scheduling) survives a run.
#[test]
fn repeated_runs_are_identical() {
    let a = CoverageDoc::from_fuzz(&fuzz(&config(2))).render();
    let b = CoverageDoc::from_fuzz(&fuzz(&config(2))).render();
    assert!(a == b, "two identical fuzz runs diverged:\n{a}\n---\n{b}");
}

/// A recipe's materialised plan executes to byte-identical traces across
/// independent arenas — the execution half of the reproducibility
/// contract (the edit half lives in `fuzz_mutators.rs`).
#[test]
fn lineage_executions_render_byte_identical_traces() {
    let config = ScenarioConfig::default();
    for base_seed in [3u64, 77, 1042] {
        let mut recipe = Recipe::base(base_seed);
        let mut rng = Rng::new(base_seed.wrapping_mul(0x9e37_79b9));
        for _ in 0..4 {
            let plan = recipe.materialize(&config).expect("drawn edits apply");
            recipe.edits.push(draw(&plan, &mut rng));
        }
        let plan = recipe.materialize(&config).expect("drawn edits apply");
        let mut arena_a = ExecutionArena::new();
        let mut arena_b = ExecutionArena::new();
        let a = run_plan_checked(plan.clone(), false, &mut arena_a);
        let b = run_plan_checked(plan, false, &mut arena_b);
        let (ta, tb) = (a.artifacts.trace.render(), b.artifacts.trace.render());
        assert!(
            ta == tb,
            "recipe {} diverged across arenas:\n{ta}\n---\n{tb}",
            recipe.entry_name()
        );
        assert_eq!(
            PathCoverage::from_trace(&a.artifacts.trace).signature(),
            PathCoverage::from_trace(&b.artifacts.trace).signature(),
            "coverage signature diverged"
        );
    }
}
