//! The trace readers' outputs, pinned: for seeds 0–499 of the `default`,
//! `object_heavy` and `multi_crash` spaces, everything the post-run passes
//! derive from a trace — oracle verdicts, the metrics document, path
//! coverage, the Perfetto export (span tree, message arrows, critical-path
//! lanes) and the critical paths themselves — folds to one line of hashes
//! (`hash64`) per space, compared against the committed
//! `tests/golden/readers_1500.digest`.
//!
//! The file was blessed on the commit *before* the readers moved onto the
//! shared `TraceIndex`, so a reader refactor that claims unchanged output
//! keeps it untouched. Two things make the pin bite harder than a clean
//! sweep would:
//!
//! * every seed is also checked against a **tampered plan** (all time
//!   bounds zero, every group a singleton), which makes the Lemma 1,
//!   exit-timeout and message-complexity oracles fire on most instances —
//!   pinning the rendered violations *and their order* (invariants first,
//!   then plan-dependent checks, each by ascending raw instance serial);
//! * the metrics document is hashed without its `resolution_rounds`
//!   histogram, the one metric whose definition is allowed to change.
//!
//! Only a deliberate change of a reader's output may re-bless it:
//!
//! ```text
//! CAA_GOLDEN_BLESS=1 cargo test -p caa-harness --test readers_digest
//! ```

use std::fmt::Write as _;

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::{execute_in, RunArtifacts};
use caa_harness::metrics::{metrics_json, MetricsRecorder};
use caa_harness::oracle::check_run;
use caa_harness::plan::{ActionPlan, Phase, ScenarioConfig, ScenarioPlan};
use caa_harness::spans::{critical_paths, trace_event_json};
use caa_harness::sweep::PathCoverage;
use caa_harness::trace::{hash64, Hash64};

const SEEDS: u64 = 500;

fn singleton_groups(action: &mut ActionPlan) {
    action.group.truncate(1);
    for phase in &mut action.phases {
        if let Phase::Nested { children } = phase {
            children.iter_mut().for_each(singleton_groups);
        }
    }
}

/// The run's plan with every bound the plan-dependent oracles read
/// collapsed: Lemma 1 and the exit timeout to (almost) zero seconds, the
/// §3.3.3 message bound to zero messages.
fn tampered(plan: &ScenarioPlan) -> ScenarioPlan {
    let mut plan = plan.clone();
    plan.t_mmax = 0.0;
    plan.t_reso = 0.0;
    plan.delta = 0.0;
    plan.t_abort = 0.0;
    plan.exit_timeout = 0.0;
    // The Lemma 1 check is skipped for crash and object plans; keep the
    // crash list (it is part of the plan's shape) and let those plans
    // exercise the other two bounds.
    plan.top.iter_mut().for_each(singleton_groups);
    plan
}

fn fold_line(hash: &mut Hash64, text: &str) {
    hash.write(text.as_bytes());
    hash.write(b"\n");
}

/// One space's digest line.
fn space_line(name: &str, scenario: &ScenarioConfig) -> String {
    let mut arena = ExecutionArena::new();
    let mut recorder = MetricsRecorder::new();
    let [mut violations, mut tampered_violations, mut coverage, mut spans, mut paths] =
        std::array::from_fn(|_| Hash64::default());
    let mut tampered_count = 0usize;
    for seed in 0..SEEDS {
        let plan = ScenarioPlan::generate(seed, scenario);
        let artifacts = execute_in(&plan, &mut arena);
        for v in check_run(&artifacts) {
            fold_line(&mut violations, &format!("{seed}: {v}"));
        }
        recorder.record_run(&artifacts);
        fold_line(
            &mut coverage,
            &format!("{:?}", PathCoverage::from_trace(&artifacts.trace)),
        );
        fold_line(&mut spans, &trace_event_json(&artifacts.trace, seed));
        fold_line(
            &mut paths,
            &format!("{:?}", critical_paths(&artifacts.trace)),
        );

        let RunArtifacts {
            plan,
            trace,
            report,
        } = artifacts;
        let bent = RunArtifacts {
            plan: tampered(&plan),
            trace,
            report,
        };
        for v in check_run(&bent) {
            tampered_count += 1;
            fold_line(&mut tampered_violations, &format!("{seed}: {v}"));
        }
        arena.recycle_trace(bent.trace);
    }
    assert!(
        tampered_count > SEEDS as usize,
        "{name}: the tampered plans must trip the plan-dependent oracles \
         ({tampered_count} violations over {SEEDS} seeds)"
    );
    let metrics: String = metrics_json(recorder.metrics(), SEEDS, false)
        .lines()
        .filter(|line| !line.contains("\"resolution_rounds\":"))
        .fold(String::new(), |mut doc, line| {
            let _ = writeln!(doc, "{line}");
            doc
        });
    format!(
        "{name} seeds 0..{SEEDS} violations {:016x} tampered {:016x} metrics {:016x} \
         coverage {:016x} trace_event_json {:016x} critical_paths {:016x}\n",
        violations.finish(),
        tampered_violations.finish(),
        hash64(metrics.as_bytes()),
        coverage.finish(),
        spans.finish(),
        paths.finish(),
    )
}

#[test]
fn readers_of_1500_seeds_match_the_committed_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/readers_1500.digest"
    );
    let digest: String = [
        ("default", ScenarioConfig::default()),
        ("object_heavy", ScenarioConfig::object_heavy()),
        ("multi_crash", ScenarioConfig::multi_crash()),
    ]
    .iter()
    .map(|(name, scenario)| space_line(name, scenario))
    .collect();
    if std::env::var_os("CAA_GOLDEN_BLESS").is_some() {
        std::fs::write(path, &digest).expect("write golden digest");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden digest present (bless once with CAA_GOLDEN_BLESS=1)");
    if golden == digest {
        return;
    }
    // Name the component that moved: the lines share their layout, so a
    // word-by-word comparison points at it.
    let mut moved = Vec::new();
    for (now, was) in digest.lines().zip(golden.lines()) {
        let (now, was): (Vec<&str>, Vec<&str>) = (
            now.split_whitespace().collect(),
            was.split_whitespace().collect(),
        );
        for i in (4..now.len().min(was.len())).step_by(2) {
            if now[i] != was[i] {
                moved.push(format!("{} {}", now[0], now[i - 1]));
            }
        }
    }
    panic!(
        "reader outputs drifted from {path}: {}\n--- golden\n{golden}--- now\n{digest}",
        moved.join(", ")
    );
}
