//! `caa diff` — compare two `metrics.json` documents and gate on
//! regressions.
//!
//! The attribution counterpart of `caa hashes`: where the hash gate proves
//! *behaviour* is unchanged, this command quantifies how the *profile*
//! moved — histogram quantile deltas (p50/p90/p99), counter ratios, and
//! critical-path segment-share shifts — between a baseline and a
//! candidate document, and exits 1 when a configured threshold is
//! crossed. It is the tool a scheduler or transport rework uses to prove
//! its wins, and the guard CI uses to catch observability-visible
//! regressions.
//!
//! ```text
//! caa diff baseline/metrics.json candidate/metrics.json \
//!     [--max-quantile-pct 10] [--max-counter-pct 20] [--max-cp-shift-pp 5]
//! ```
//!
//! Gating rules (deterministic and `critical_path` sections only — the
//! `wall_clock` section is host-dependent and reported informationally):
//!
//! * **Quantiles** regress when a histogram's p50/p90/p99 *increases* by
//!   more than `--max-quantile-pct` percent over the baseline (latency
//!   drops are wins, never failures).
//! * **Counters** regress when a counter's value moves by more than
//!   `--max-counter-pct` percent in *either* direction (message-count
//!   changes in either direction mean the protocol behaved differently).
//! * **Critical-path shares** regress when a segment class's share of
//!   `cp_total_ns` shifts by more than `--max-cp-shift-pp` percentage
//!   points in either direction.
//!
//! Comparing a document against itself prints zero deltas and exits 0
//! (the tier-1 smoke).

use std::fmt::Write as _;
use std::io::{self, Write};

use caa_harness::metrics::{parse_metrics_json, SweepMetrics};
use caa_telemetry::MetricSet;

use super::{read_file, usage_error, Args, Run};

/// Thresholds, all overridable from the command line.
struct Gates {
    max_quantile_pct: f64,
    max_counter_pct: f64,
    max_cp_shift_pp: f64,
}

fn load(path: &str) -> io::Result<(u64, SweepMetrics)> {
    parse_metrics_json(&read_file(path)?)
        .map_err(|e| usage_error(format!("cannot parse {path}: {e}")))
}

/// Percent change from `base` to `cand` (`+` = increase). `None` when the
/// baseline is 0 and the candidate isn't (an appearance, flagged
/// separately).
fn pct_change(base: u64, cand: u64) -> Option<f64> {
    if base == 0 {
        (cand == 0).then_some(0.0)
    } else {
        Some((cand as f64 - base as f64) / base as f64 * 100.0)
    }
}

/// The names labelling an entry of either listing, sorted.
fn either<'s, A, B>(base: Vec<(&'s str, A)>, cand: Vec<(&'s str, B)>) -> Vec<&'s str> {
    let mut names: Vec<&str> = base.iter().map(|(name, _)| *name).collect();
    names.extend(cand.iter().map(|(name, _)| *name));
    names.sort_unstable();
    names.dedup();
    names
}

/// Compares the quantiles of every histogram present in either set.
/// Returns the number of regressions.
fn diff_histograms(
    out: &mut String,
    label: &str,
    base: &MetricSet,
    cand: &MetricSet,
    gates: &Gates,
) -> u64 {
    let mut regressions = 0;
    for name in either(base.histograms_sorted(), cand.histograms_sorted()) {
        let (Some(b), Some(c)) = (base.histogram_named(name), cand.histogram_named(name)) else {
            let _ = writeln!(
                out,
                "{label} histogram {name}: present in only one document (REGRESSION)"
            );
            regressions += 1;
            continue;
        };
        for (q, num) in [("p50", 50u64), ("p90", 90), ("p99", 99)] {
            let (bv, cv) = (b.quantile(num, 100), c.quantile(num, 100));
            // An appearance (0 -> nonzero) is an unbounded increase; it
            // clears only an infinite (informational) threshold.
            let pct = pct_change(bv, cv).unwrap_or(f64::INFINITY);
            if pct != 0.0 {
                let verdict = if pct > gates.max_quantile_pct {
                    regressions += 1;
                    " (REGRESSION)"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{label} {name} {q}: {bv} -> {cv} ({pct:+.1}%){verdict}"
                );
            }
        }
    }
    regressions
}

/// Compares every counter present in either set. Returns the number of
/// regressions.
fn diff_counters(
    out: &mut String,
    label: &str,
    base: &MetricSet,
    cand: &MetricSet,
    gates: &Gates,
) -> u64 {
    let mut regressions = 0;
    for name in either(base.counters_sorted(), cand.counters_sorted()) {
        let (bv, cv) = (base.counter_value(name), cand.counter_value(name));
        let pct = pct_change(bv, cv).unwrap_or(f64::INFINITY);
        if pct != 0.0 {
            let verdict = if pct.abs() > gates.max_counter_pct {
                regressions += 1;
                " (REGRESSION)"
            } else {
                ""
            };
            let _ = writeln!(out, "{label} {name}: {bv} -> {cv} ({pct:+.1}%){verdict}");
        }
    }
    regressions
}

/// Compares critical-path segment *shares* (each class's percentage of
/// `cp_total_ns`) — the decomposition shape, independent of how many
/// seeds each document covers. Returns the number of regressions.
fn diff_cp_shares(out: &mut String, base: &MetricSet, cand: &MetricSet, gates: &Gates) -> u64 {
    let (bt, ct) = (
        base.counter_value("cp_total_ns"),
        cand.counter_value("cp_total_ns"),
    );
    if bt == 0 || ct == 0 {
        if bt != ct {
            let _ = writeln!(
                out,
                "critical-path total: {bt} -> {ct} (attribution appeared/vanished) (REGRESSION)"
            );
            return 1;
        }
        return 0;
    }
    let mut regressions = 0;
    for class in caa_harness::spans::SegmentClass::ALL {
        let name = class.counter_name();
        let b_share = base.counter_value(name) as f64 / bt as f64 * 100.0;
        let c_share = cand.counter_value(name) as f64 / ct as f64 * 100.0;
        let shift = c_share - b_share;
        if shift != 0.0 {
            let verdict = if shift.abs() > gates.max_cp_shift_pp {
                regressions += 1;
                " (REGRESSION)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "critical-path share {}: {b_share:.1}% -> {c_share:.1}% ({shift:+.1}pp){verdict}",
                class.label(),
            );
        }
    }
    regressions
}

pub(super) fn run(args: &Args, out: &mut dyn Write) -> Run {
    let gates = Gates {
        max_quantile_pct: args.get_or("--max-quantile-pct", 10.0)?,
        max_counter_pct: args.get_or("--max-counter-pct", 20.0)?,
        max_cp_shift_pp: args.get_or("--max-cp-shift-pp", 5.0)?,
    };
    let [baseline_path, candidate_path] = args.positional.as_slice() else {
        return Err(usage_error("give a baseline and a candidate document"));
    };
    let (base_seeds, base) = load(baseline_path)?;
    let (cand_seeds, cand) = load(candidate_path)?;
    let mut report = format!(
        "baseline {baseline_path} ({base_seeds} seeds) vs candidate {candidate_path} \
         ({cand_seeds} seeds)\n"
    );

    let mut regressions = 0;
    for (label, base, cand) in [
        ("deterministic", &base.deterministic, &cand.deterministic),
        ("critical-path", &base.critical_path, &cand.critical_path),
    ] {
        regressions += diff_histograms(&mut report, label, base, cand, &gates);
        regressions += diff_counters(&mut report, label, base, cand, &gates);
    }
    let (base_cp, cand_cp) = (&base.critical_path, &cand.critical_path);
    regressions += diff_cp_shares(&mut report, base_cp, cand_cp, &gates);

    // Wall-clock counters are host facts: print the deltas, never gate.
    if !base.wall_clock.is_empty() || !cand.wall_clock.is_empty() {
        let permissive = Gates {
            max_quantile_pct: f64::INFINITY,
            max_counter_pct: f64::INFINITY,
            max_cp_shift_pp: f64::INFINITY,
        };
        let label = "wall-clock (informational)";
        diff_counters(
            &mut report,
            label,
            &base.wall_clock,
            &cand.wall_clock,
            &permissive,
        );
    }

    if regressions > 0 {
        let _ = writeln!(report, "{regressions} regression(s) beyond thresholds");
    } else {
        let _ = writeln!(
            report,
            "no regressions (thresholds: quantiles +{}%, counters ±{}%, cp shares ±{}pp)",
            gates.max_quantile_pct, gates.max_counter_pct, gates.max_cp_shift_pp
        );
    }
    out.write_all(report.as_bytes())?;
    Ok(i32::from(regressions > 0))
}
