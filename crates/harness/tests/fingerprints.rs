//! What a trace fingerprint promises, across a seed sweep: the hash-only
//! sweep path ([`Trace::render_fingerprint`]) and the streaming replay
//! comparison ([`Trace::first_divergence`]) are the hot paths the `caa
//! hashes` gate and the replay oracle stand on. A fingerprint is not the
//! hash of the rendered text (it hashes the same lines with each number as
//! its eight bytes), so what is checked is what the gates rely on: two
//! executions of a seed fingerprint equal, and fingerprints tell traces
//! apart exactly where their renderings do.

use std::collections::HashMap;

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};

/// 120 default, 40 object-heavy and 40 multi-crash seeds.
fn spaces() -> [(ScenarioConfig, std::ops::Range<u64>); 3] {
    [
        (ScenarioConfig::default(), 0..120),
        (ScenarioConfig::object_heavy(), 0..40),
        (ScenarioConfig::multi_crash(), 0..40),
    ]
}

#[test]
fn two_executions_of_a_seed_fingerprint_equal() {
    let mut arena = ExecutionArena::new();
    for (config, seeds) in spaces() {
        for seed in seeds {
            let plan = ScenarioPlan::generate(seed, &config);
            let a = execute_in(&plan, &mut arena);
            // A fresh arena: nothing a warmed one keeps may leak in.
            let b = execute_in(&plan, &mut ExecutionArena::new());
            assert_eq!(
                a.trace.render_fingerprint(),
                b.trace.render_fingerprint(),
                "seed {seed}: two executions fingerprint apart"
            );
            arena.recycle_trace(a.trace);
        }
    }
}

#[test]
fn fingerprints_partition_traces_as_their_renderings_do() {
    let mut arena = ExecutionArena::new();
    let mut by_text: HashMap<String, u64> = HashMap::new();
    let mut by_fingerprint: HashMap<u64, String> = HashMap::new();
    let mut traces = 0;
    for (config, seeds) in spaces() {
        for seed in seeds {
            let run = execute_in(&ScenarioPlan::generate(seed, &config), &mut arena);
            let (text, fingerprint) = (run.trace.render(), run.trace.render_fingerprint());
            // Equal renderings, equal fingerprints; different renderings,
            // different fingerprints.
            let seen = *by_text.entry(text.clone()).or_insert(fingerprint);
            assert_eq!(
                seen, fingerprint,
                "seed {seed}: one rendering, two fingerprints"
            );
            let seen = by_fingerprint
                .entry(fingerprint)
                .or_insert_with(|| text.clone());
            assert_eq!(*seen, text, "seed {seed}: two renderings, one fingerprint");
            arena.recycle_trace(run.trace);
            traces += 1;
        }
    }
    assert_eq!(traces, 200);
    assert_eq!(by_text.len(), by_fingerprint.len());
}

#[test]
fn first_divergence_matches_the_rendered_line_diff() {
    let mut arena = ExecutionArena::new();
    let config = ScenarioConfig::default();
    for seed in 0..40u64 {
        let plan = ScenarioPlan::generate(seed, &config);
        let a = execute_in(&plan, &mut arena);
        let b = execute_in(&plan, &mut arena);
        // Same seed, two executions: renderings are byte-identical even
        // though raw action serials differ (process-global definition
        // ids) — exactly the case the structural fast path must not
        // misreport.
        assert_eq!(a.trace.render(), b.trace.render(), "seed {seed}");
        assert_eq!(a.trace.first_divergence(&b.trace), None, "seed {seed}");
        arena.recycle_trace(b.trace);
        arena.recycle_trace(a.trace);
    }
    // Different seeds: the reported line must be the first rendered
    // difference.
    let a = execute_in(&ScenarioPlan::generate(1, &config), &mut arena);
    let b = execute_in(&ScenarioPlan::generate(2, &config), &mut arena);
    let diverged = a.trace.first_divergence(&b.trace);
    let expected = a
        .trace
        .render()
        .lines()
        .zip(b.trace.render().lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| {
            a.trace
                .render()
                .lines()
                .count()
                .min(b.trace.render().lines().count())
        });
    assert_eq!(diverged, Some(expected));
}
