//! Golden-trace regression test: pins the byte-exact traces — and in
//! particular the `ObjectAcquired` grant order — of a fixed seed set
//! against a checked-in golden file.
//!
//! The wake-on-release arbitration refactor (and any future scheduler
//! change) must keep every one of these traces byte-identical: grant order
//! and grant *instants* are part of the public determinism contract, so a
//! silent drift here would invalidate every recorded corpus trace. The
//! golden file was generated from the pre-refactor (PR 2) scheduler and is
//! deliberately never regenerated as part of a scheduler change — only a
//! deliberate scenario-model change may re-bless it:
//!
//! ```text
//! CAA_GOLDEN_BLESS=1 cargo test -p caa-harness --test golden_traces
//! ```
//!
//! Each seed's line carries two hashes: `hash`, the trace's fingerprint
//! (what `caa hashes` and the 12k-seed digest print), and `text`, the hash
//! of its rendered text. The fingerprint hashes the rendering's fields, not
//! its digits, so `text` is what keeps `Trace::render` itself pinned: a
//! change to the fingerprint's byte stream moves `hash` alone, a change to
//! the text moves `text` (and, as a rule, `hash`).

use std::fmt::Write as _;

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::trace::{hash64, Trace};

fn acquired_lines(trace: &Trace) -> Vec<String> {
    trace
        .entries()
        .iter()
        .filter_map(|entry| match &entry.kind {
            caa_harness::trace::EntryKind::Runtime(e) => match &e.kind {
                caa_runtime::observe::EventKind::ObjectAcquired { object, .. } => Some(format!(
                    "@{} T{} A{} acquire {object}",
                    entry.at_ns, entry.thread, entry.label
                )),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// One seed's line: its fingerprint, the hash of its text, its length and
/// its grants.
fn seed_line(out: &mut String, seed: u64, trace: &Trace) {
    let _ = writeln!(
        out,
        "seed {seed} hash {:016x} text {:016x} entries {} acquired {}",
        trace.render_fingerprint(),
        hash64(trace.render().as_bytes()),
        trace.len(),
        acquired_lines(trace).len(),
    );
}

/// Renders the golden report: per-seed fingerprints and text hashes for
/// the default and object-heavy configurations, plus the full grant-order
/// listing for a handful of heavily contended seeds.
fn golden_report() -> String {
    let mut out = String::new();
    out.push_str(
        "# golden traces: hash = Trace::render_fingerprint(), text = hash64(Trace::render())\n",
    );

    out.push_str("[default-config]\n");
    for seed in 0..96u64 {
        let plan = ScenarioPlan::generate(seed, &ScenarioConfig::default());
        let artifacts = execute_in(&plan, &mut ExecutionArena::default());
        seed_line(&mut out, seed, &artifacts.trace);
    }

    out.push_str("[object-heavy]\n");
    let heavy = ScenarioConfig::object_heavy();
    for seed in 0..48u64 {
        let plan = ScenarioPlan::generate(seed, &heavy);
        let artifacts = execute_in(&plan, &mut ExecutionArena::default());
        seed_line(&mut out, seed, &artifacts.trace);
    }

    out.push_str("[object-heavy grant order]\n");
    for seed in 0..8u64 {
        let plan = ScenarioPlan::generate(seed, &heavy);
        let artifacts = execute_in(&plan, &mut ExecutionArena::default());
        let _ = writeln!(out, "seed {seed}");
        for line in acquired_lines(&artifacts.trace) {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

#[test]
fn traces_match_the_checked_in_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/traces.golden.txt"
    );
    let report = golden_report();
    if std::env::var_os("CAA_GOLDEN_BLESS").is_some() {
        std::fs::write(path, &report).expect("write golden file");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present (run with CAA_GOLDEN_BLESS=1 once after a deliberate scenario-model change)");
    if golden != report {
        // Line-level diff: the first divergent line tells whether timing
        // (hash) or grant order (acquire lines) drifted.
        for (i, (g, r)) in golden.lines().zip(report.lines()).enumerate() {
            assert_eq!(
                g,
                r,
                "golden trace drift at line {} (scheduler changes must keep traces byte-identical)",
                i + 1
            );
        }
        panic!(
            "golden trace drift: line counts differ ({} golden vs {} now)",
            golden.lines().count(),
            report.lines().count()
        );
    }
}
