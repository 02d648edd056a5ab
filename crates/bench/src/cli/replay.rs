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
//! # Replay a persisted corpus entry: its config.txt and recipe.txt (a
//! # base seed plus an edit list) rebuild the exact plan — a sweep's
//! # violating seed, a fuzz find and a shrunk find alike — and the run
//! # is compared byte for byte with the recorded trace:
//! caa replay --corpus target/caa-corpus/42
//! ```
//!
//! `--bisect` shrinks a violating plan — chaos schedule, top actions,
//! phases, raises, participants — to a 1-minimal still-violating scenario
//! ([`caa_harness::edit::shrink`]) and persists it as an ordinary corpus
//! entry, `target/caa-corpus/<seed>-r<hash>`: the source recipe plus the
//! accepted drops, with the config and the minimal plan's trace bytes, so
//! the shrunk violation rechecks byte-exactly via `caa replay --corpus
//! <entry>`. The name hashes the whole recipe, so two shrinks never share
//! an entry.

use std::io::Write;
use std::path::Path;

use caa_harness::arena::ExecutionArena;
use caa_harness::edit::{load_corpus_plan, plan_violates, shrink, Recipe};
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::trace_event_json;
use caa_harness::sweep::{run_plan_checked, write_corpus_files};

use super::{usage_error, write_file, Args, Run};

pub(super) fn run(args: &Args, out: &mut dyn Write) -> Run {
    let (plan, config, recipe, entry) = match (args.value("--corpus"), args.positional.as_slice()) {
        (Some(entry), []) => {
            let entry = Path::new(entry);
            let (plan, config, recipe) = load_corpus_plan(entry)
                .map_err(|e| usage_error(format!("cannot load corpus entry {entry:?}: {e}")))?;
            writeln!(
                out,
                "replaying corpus entry {} (seed {})",
                entry.display(),
                plan.seed
            )?;
            (plan, config, recipe, Some(entry))
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
            let plan = ScenarioPlan::generate(seed, &config);
            (plan, config, Recipe::base(seed), None)
        }
    };
    let recorded = entry.and_then(|e| std::fs::read_to_string(e.join("trace.txt")).ok());

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
            bisect(&plan, &config, recipe, &mut arena, out)?;
        }
    }
    Ok(i32::from(!ok))
}

/// Shrinks the violating plan to a 1-minimal still-violating scenario and
/// persists the entry (see the module docs).
fn bisect(
    plan: &ScenarioPlan,
    config: &ScenarioConfig,
    mut recipe: Recipe,
    arena: &mut ExecutionArena,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let Some(shrunk) = shrink(plan, |candidate| plan_violates(candidate, arena)) else {
        return writeln!(
            out,
            "--bisect: the violation does not reproduce deterministically \
             under the run oracles; nothing minimised"
        );
    };
    writeln!(
        out,
        "--bisect: plan minimised via {} drop(s) in {} execution(s)",
        shrunk.edits.len(),
        shrunk.attempts,
    )?;
    for edit in &shrunk.edits {
        writeln!(out, "  {edit}")?;
    }
    writeln!(out, "minimal plan:\n{}", shrunk.plan.describe())?;
    recipe.edits.extend(shrunk.edits);
    let minimal = run_plan_checked(shrunk.plan, false, arena);
    let entry = Path::new("target/caa-corpus").join(recipe.entry_name());
    write_corpus_files(&entry, &config.to_kv(), &recipe, &minimal)?;
    writeln!(out, "  minimised plan written to {}", entry.display())
}
