//! Every metric the harness reports must be able to move.
//!
//! A histogram that never records, or only ever records one value, and a
//! counter that never leaves zero look exactly like healthy metrics in
//! `metrics.json` — until someone draws a conclusion from them (the
//! `resolution_rounds` histogram read `max 1` for nine PRs because it
//! counted the wrong thing). This test runs the three 500-seed acceptance
//! spaces, merges their metrics and requires every registered histogram to
//! hold at least two distinct values and every known counter to be
//! non-zero — unless [`ALLOWED`] names it and says why. An allow-list
//! entry that has come alive fails too, so the list cannot rot.

use caa_harness::metrics::SweepMetrics;
use caa_harness::plan::ScenarioConfig;
use caa_harness::spans::SegmentClass;
use caa_harness::sweep::{sweep, SweepConfig};

/// Metrics known to be degenerate over the union of the acceptance spaces,
/// each with why. Fixing one means deleting its line.
///
/// Two more findings of the ROADMAP item 5 audit are true of the `default`
/// space alone and so do not appear here: `object_wait_ns` is the constant
/// 1 ms retry quantum there (contention in `object_heavy` and
/// `multi_crash` spreads it), and the `suspicion-round` critical-path
/// class only fires in `multi_crash`.
const ALLOWED: &[(&str, &str)] = &[
    (
        "cp_object_wait_ns",
        "ROADMAP item 5 audit, open: the object-wait critical-path class \
         fires in none of the spaces — object operations sit in compute \
         phases, which end before the action's raise phase, so no \
         `ObjectAcquired` closes a window between a raise and its \
         resolution; either the taxonomy or the walk is wrong",
    ),
    (
        "retransmissions",
        "scenario networks set no acknowledgment timeout (only the paper's \
         §5 benches do), so `NetStats` has no retransmission to count",
    ),
];

/// Counters are registered on first use, so a dead one would simply be
/// absent: these are the names `metrics.rs` and `spans.rs` can emit
/// besides the per-class `msg_sent_*` (checked as found).
const COUNTERS: &[&str] = &[
    "seeds_crash",
    "seeds_crashfree",
    "suspicion_resolution",
    "suspicion_signalling",
    "suspicion_exit",
    "retransmissions",
    "cp_total_ns",
    "cp_instances",
];

fn acceptance_metrics() -> SweepMetrics {
    let mut merged = SweepMetrics::default();
    for scenario in [
        ScenarioConfig::default(),
        ScenarioConfig::object_heavy(),
        ScenarioConfig::multi_crash(),
    ] {
        let report = sweep(&SweepConfig {
            seeds: 500,
            scenario,
            check_replay: false,
            corpus_dir: None,
            ..SweepConfig::default()
        });
        assert!(report.all_passed(), "{}", report.summary());
        merged.merge(&report.metrics);
    }
    merged
}

#[test]
fn no_metric_is_empty_or_single_valued_over_the_acceptance_sweeps() {
    let metrics = acceptance_metrics();
    // name → what is wrong with it (`None` = alive).
    let mut verdicts: Vec<(String, Option<String>)> = Vec::new();
    for set in [&metrics.deterministic, &metrics.critical_path] {
        for (name, h) in set.histograms_sorted() {
            let verdict = if h.count() == 0 {
                Some("never recorded".to_owned())
            } else if h.min() == h.max() {
                Some(format!("only ever {} ({} samples)", h.min(), h.count()))
            } else {
                None
            };
            verdicts.push((name.to_owned(), verdict));
        }
    }
    let counter = |name: &str| {
        metrics.deterministic.counter_value(name) + metrics.critical_path.counter_value(name)
    };
    let msg_counters: Vec<&str> = metrics
        .deterministic
        .counters_sorted()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("msg_sent_"))
        .collect();
    assert!(msg_counters.len() >= 8, "{msg_counters:?}");
    let class_counters = SegmentClass::ALL.map(SegmentClass::counter_name);
    for name in COUNTERS.iter().chain(&class_counters).chain(&msg_counters) {
        let dead = (counter(name) == 0).then(|| "never incremented".to_owned());
        verdicts.push(((*name).to_owned(), dead));
    }
    assert!(verdicts.len() >= 30, "the census shrank: {verdicts:?}");

    let mut complaints = Vec::new();
    for (name, verdict) in &verdicts {
        let allowed = ALLOWED.iter().find(|(n, _)| n == name);
        match (verdict, allowed) {
            (Some(what), None) => complaints.push(format!(
                "{name}: {what} — fix the metric, widen a scenario space, or add it to \
                 ALLOWED with the reason"
            )),
            (None, Some(_)) => {
                complaints.push(format!("{name}: is alive now — delete its ALLOWED entry"))
            }
            _ => {}
        }
    }
    for (name, _) in ALLOWED {
        if !verdicts.iter().any(|(n, _)| n == name) {
            complaints.push(format!("{name}: ALLOWED names a metric nobody registers"));
        }
    }
    assert!(complaints.is_empty(), "\n{}", complaints.join("\n"));
}
