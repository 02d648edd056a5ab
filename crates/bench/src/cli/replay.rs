//! `caa replay` — re-run one seed (or one persisted corpus entry), print
//! its plan, its full canonical trace, the run's metrics summary and the
//! oracle verdicts. Exit 0 = every oracle passed, 1 = violations (listed).
//!
//! ```text
//! # Regenerate the seed under the default ScenarioConfig. `--spans-out`
//! # additionally exports the run's derived span timeline as Chrome
//! # trace-event JSON (spans, causal-message flow arrows, critical-path
//! # lanes) — open it at https://ui.perfetto.dev:
//! caa replay 42 [--bisect] [--spans-out trace.json]
//!
//! # Replay a persisted corpus entry (the sweep's exact — possibly
//! # custom — config, plus a byte-exact check against the recorded
//! # trace). Fuzz entries carry a lineage.txt; the recorded mutation
//! # seeds re-derive the exact mutated plan before the comparison:
//! caa replay --corpus target/caa-corpus/42
//! ```
//!
//! `--bisect` shrinks a violating plan — chaos schedule, top actions,
//! phases, raises, participants — to a 1-minimal still-violating scenario
//! ([`caa_harness::bisect`]) and persists the reduction steps as
//! `target/caa-corpus/<seed>-workload`, together with the scenario config
//! and the minimal plan's trace bytes, so the shrunk violation rechecks
//! byte-exactly via `caa replay --corpus <entry>`.

use std::io::Write;
use std::path::Path;

use caa_harness::arena::ExecutionArena;
use caa_harness::bisect::{bisect_workload, plan_violates, write_workload_entry};
use caa_harness::fuzz::load_corpus_plan;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::trace_event_json;
use caa_harness::sweep::run_plan_checked;

use super::{usage_error, write_file, Args, Run};

pub(super) fn run(args: &Args, out: &mut dyn Write) -> Run {
    let (plan, config, entry) = match (args.value("--corpus"), args.positional.as_slice()) {
        (Some(entry), []) => {
            // `load_corpus_plan` understands both entry layouts: plain
            // sweep entries (`<seed>[-<config hash>]`, plan regenerated
            // from the seed) and fuzz entries (a `lineage.txt` whose
            // recorded mutation seeds re-derive the exact mutated plan).
            let entry = Path::new(entry);
            let (plan, config) = load_corpus_plan(entry)
                .map_err(|e| usage_error(format!("cannot load corpus entry {entry:?}: {e}")))?;
            writeln!(
                out,
                "replaying corpus entry {} (seed {})",
                entry.display(),
                plan.seed
            )?;
            (plan, config, Some(entry))
        }
        (Some(_), [_, ..]) => return Err(usage_error("give a seed or --corpus, not both")),
        (None, seed) => {
            let seed = match seed.first() {
                Some(raw) => raw
                    .parse()
                    .map_err(|e| usage_error(format!("bad seed {raw:?}: {e}")))?,
                None => 0,
            };
            let config = ScenarioConfig::default();
            (ScenarioPlan::generate(seed, &config), config, None)
        }
    };
    let recorded = entry.and_then(|e| std::fs::read_to_string(e.join("trace.txt")).ok());
    let lineage = entry.and_then(|e| std::fs::read_to_string(e.join("lineage.txt")).ok());

    let seed = plan.seed;
    writeln!(out, "{}", plan.describe())?;
    let mut arena = ExecutionArena::new();
    let result = run_plan_checked(plan.clone(), true, &mut arena);
    let rendered = result.artifacts.trace.render();
    writeln!(out, "{rendered}")?;
    write!(out, "{}", arena.metrics().summary())?;
    let mut ok = true;
    if let Some(path) = args.value("--spans-out") {
        write_file(path, &trace_event_json(&result.artifacts.trace, seed))?;
        writeln!(
            out,
            "span timeline written to {path} (open at https://ui.perfetto.dev)"
        )?;
    }
    if let Some(recorded) = recorded {
        if rendered == recorded {
            writeln!(out, "trace matches the recorded corpus bytes exactly")?;
        } else {
            writeln!(out, "trace DIVERGES from the recorded corpus bytes")?;
            ok = false;
        }
    }
    if result.passed() {
        writeln!(out, "seed {seed}: every oracle passed")?;
        if args.switch("--bisect") {
            writeln!(out, "--bisect: nothing to bisect (no oracle violation)")?;
        }
    } else {
        writeln!(out, "seed {seed}: {} violation(s)", result.violations.len())?;
        for v in &result.violations {
            writeln!(out, "  - {v}")?;
        }
        ok = false;
        if args.switch("--bisect") {
            bisect(&plan, &config, lineage.as_deref(), &mut arena, out)?;
        }
    }
    Ok(i32::from(!ok))
}

/// Shrinks the violating plan to a 1-minimal still-violating scenario and
/// persists the entry (see the module docs).
fn bisect(
    plan: &ScenarioPlan,
    config: &ScenarioConfig,
    lineage: Option<&str>,
    arena: &mut ExecutionArena,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let Some(outcome) = bisect_workload(plan, |candidate| plan_violates(candidate, arena)) else {
        return writeln!(
            out,
            "--bisect: the violation does not reproduce deterministically \
             under the run oracles; nothing minimised"
        );
    };
    writeln!(
        out,
        "--bisect: plan minimised via {} reduction step(s) in {} execution(s)",
        outcome.steps.len(),
        outcome.attempts,
    )?;
    for step in &outcome.steps {
        writeln!(out, "  {}", step.render())?;
    }
    writeln!(out, "minimal plan:\n{}", outcome.plan.describe())?;
    let entry = write_workload_entry(Path::new("target/caa-corpus"), &outcome)?;
    write_file(entry.join("config.txt"), &config.to_kv())?;
    // A fuzz find's steps shrink the *mutated* plan, so the entry must
    // re-derive it the same way.
    if let Some(text) = lineage {
        write_file(entry.join("lineage.txt"), text)?;
    }
    let minimal = run_plan_checked(outcome.plan.clone(), false, arena);
    write_file(entry.join("trace.txt"), &minimal.artifacts.trace.render())?;
    writeln!(out, "  minimised workload written to {}", entry.display())
}
