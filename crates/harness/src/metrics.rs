//! Sweep metrics: virtual-time protocol latency distributions plus
//! wall-clock scheduler self-metrics, extracted from recorded traces.
//!
//! The paper reports message *counts*; this module adds the latency
//! axis — how long coordinated recovery actually takes, phase by phase,
//! in **virtual time**. Everything is derived post-run from artifacts the
//! harness already records (the canonical trace, [`NetStats`], the
//! system report), so enabling metrics adds **zero branches to the
//! simulation hot path** and cannot perturb traces: the 12k-seed
//! fingerprint gate holds with metrics on.
//!
//! Two [`MetricSet`]s with different guarantees:
//!
//! * **deterministic** — virtual-time histograms and protocol counters.
//!   Pure functions of the explored seed set: the same sweep serializes
//!   to byte-identical JSON on any machine, and the shard-merged union
//!   (`metrics_merge`) is byte-identical to the unsharded run.
//! * **wall_clock** — facts about the simulator, not the protocol: the
//!   [`SchedStats`] park/wake hand-offs (exact per seed since participants
//!   run as fibers, but a property of the host loop) and the driver's
//!   stage timers. Reported for regression ceilings, excluded from
//!   byte-identity claims, and dropped by `metrics_merge`.

use std::fmt::Write as _;

use caa_runtime::observe::EventKind;
use caa_simnet::{NetStats, SchedStats};
use caa_telemetry::json::{self, Value};
use caa_telemetry::{HistogramHandle, MetricSet};

use crate::exec::RunArtifacts;
use crate::inthash::{IntMap, IntSet};
use crate::spans::{CriticalPathScratch, SegmentClass};
use crate::trace::EntryKind;

/// Schema tag stamped into every `metrics.json` document.
pub const METRICS_SCHEMA: &str = "caa-metrics/v1";

/// Aggregated sweep metrics: the deterministic (virtual-time) set and the
/// wall-clock set, kept apart because only the former is byte-reproducible
/// (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct SweepMetrics {
    /// Virtual-time histograms and protocol counters — byte-deterministic
    /// per seed set.
    pub deterministic: MetricSet,
    /// Raise→resolve critical-path attribution (`cp_*` nanosecond
    /// counters per [`SegmentClass`], plus `cp_total_ns` and
    /// `cp_instances`). Derived from the causal graph in virtual time, so
    /// byte-deterministic and shard-mergeable like `deterministic`.
    pub critical_path: MetricSet,
    /// Scheduler counters (park/wake hand-offs) and driver stage timers
    /// — facts about the simulator, kept out of the byte-identity
    /// claims.
    pub wall_clock: MetricSet,
}

impl SweepMetrics {
    /// Accumulates `other` (e.g. another worker's or shard's metrics).
    /// Associative and commutative in both sets.
    pub fn merge(&mut self, other: &SweepMetrics) {
        self.deterministic.merge(&other.deterministic);
        self.critical_path.merge(&other.critical_path);
        self.wall_clock.merge(&other.wall_clock);
    }

    /// Human-readable block: protocol latency quantiles (virtual time),
    /// per-class message counts in sorted class order, and the scheduler
    /// handoff counters.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut line = |label: &str, name: &str| {
            if let Some(h) = self.deterministic.histogram_named(name) {
                if h.count() > 0 {
                    let _ = writeln!(
                        out,
                        "{label}: p50 {} p90 {} p99 {} max {} (n={})",
                        fmt_ns(h.quantile(50, 100)),
                        fmt_ns(h.quantile(90, 100)),
                        fmt_ns(h.quantile(99, 100)),
                        fmt_ns(h.max()),
                        h.count(),
                    );
                }
            }
        };
        line(
            "resolution latency (crash-free)",
            "resolution_latency_crashfree_ns",
        );
        line(
            "resolution latency (crash plans)",
            "resolution_latency_crash_ns",
        );
        line("exit round duration", "exit_round_ns");
        line("object acquisition wait", "object_wait_ns");
        line("crash detection latency", "crash_detect_ns");
        line("rejoin restart latency", "rejoin_restart_ns");
        line("rejoin catch-up", "rejoin_catchup_ns");
        let suspicions: Vec<String> = ["resolution", "signalling", "exit"]
            .iter()
            .filter_map(|round| {
                let v = self
                    .deterministic
                    .counter_value(&format!("suspicion_{round}"));
                (v > 0).then(|| format!("{round} {v}"))
            })
            .collect();
        if !suspicions.is_empty() {
            let _ = writeln!(out, "suspicion rounds: {}", suspicions.join(" | "));
        }
        if let Some(h) = self.deterministic.histogram_named("signal_fanout") {
            if h.count() > 0 {
                let _ = writeln!(
                    out,
                    "signalling fan-out: p50 {} p99 {} max {} (instances={})",
                    h.quantile(50, 100),
                    h.quantile(99, 100),
                    h.max(),
                    h.count(),
                );
            }
        }
        if let Some(h) = self.deterministic.histogram_named("resolution_rounds") {
            if h.count() > 0 {
                let _ = writeln!(
                    out,
                    "resolution rounds: p50 {} max {} (instances={})",
                    h.quantile(50, 100),
                    h.max(),
                    h.count(),
                );
            }
        }
        let msgs: Vec<String> = self
            .deterministic
            .counters_sorted()
            .into_iter()
            .filter_map(|(name, v)| {
                name.strip_prefix("msg_sent_")
                    .map(|class| format!("{class} {v}"))
            })
            .collect();
        if !msgs.is_empty() {
            let _ = writeln!(out, "messages sent: {}", msgs.join(" | "));
        }
        let cp_total = self.critical_path.counter_value("cp_total_ns");
        if cp_total > 0 {
            let mut shares: Vec<(u64, &'static str)> = SegmentClass::ALL
                .iter()
                .map(|&class| {
                    (
                        self.critical_path.counter_value(class.counter_name()),
                        class.label(),
                    )
                })
                .filter(|&(ns, _)| ns > 0)
                .collect();
            // Top contributors first; label order breaks ties so the line
            // is deterministic.
            shares.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
            let parts: Vec<String> = shares
                .iter()
                .map(|&(ns, label)| format!("{label} {}% ({})", ns * 100 / cp_total, fmt_ns(ns)))
                .collect();
            let _ = writeln!(
                out,
                "critical path ({} instances, {} attributed): {}",
                self.critical_path.counter_value("cp_instances"),
                fmt_ns(cp_total),
                parts.join(" | "),
            );
        }
        let parks = self.wall_clock.counter_value("sched_parks");
        let wakes = self.wall_clock.counter_value("sched_wakes");
        let seeds = self
            .deterministic
            .counter_value("seeds_crashfree")
            .saturating_add(self.deterministic.counter_value("seeds_crash"));
        if parks + wakes > 0 {
            let per_seed = parks.checked_div(seeds).unwrap_or(0);
            let _ = writeln!(
                out,
                "sched handoffs (wall-clock): {parks} parks, {wakes} wakes (~{per_seed} parks/seed)"
            );
        }
        let stages: Vec<String> = [
            ("generate", "stage_generate_ns"),
            ("execute", "stage_execute_ns"),
            ("oracle", "stage_oracle_ns"),
            ("metrics", "stage_metrics_ns"),
            ("mutation", "stage_mutation_ns"),
        ]
        .iter()
        .filter_map(|&(label, name)| {
            let ns = self.wall_clock.counter_value(name);
            (ns > 0).then(|| format!("{label} {}", fmt_ns(ns)))
        })
        .collect();
        if !stages.is_empty() {
            let busy = self.wall_clock.counter_value("worker_busy_ns");
            let busy = if busy > 0 {
                format!(" | workers busy {}", fmt_ns(busy))
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "driver stages (wall-clock): {}{busy}",
                stages.join(" | "),
            );
        }
        out
    }

    /// Park handoffs per explored seed, rounded up — the regression-guard
    /// number (ROADMAP's "~57 hand-offs/seed" as a tracked counter).
    /// 0 when no seed was recorded.
    #[must_use]
    pub fn parks_per_seed(&self) -> u64 {
        let parks = self.wall_clock.counter_value("sched_parks");
        let seeds = self
            .deterministic
            .counter_value("seeds_crashfree")
            .saturating_add(self.deterministic.counter_value("seeds_crash"));
        if seeds == 0 {
            0
        } else {
            parks.div_ceil(seeds)
        }
    }
}

/// Serializes a `metrics.json` document. With `include_wall_clock` the
/// document carries both sets; without it (the `metrics_merge`
/// normalization) only the deterministic set, so merged shard unions
/// compare byte-for-byte against the merged unsharded run.
#[must_use]
pub fn metrics_json(metrics: &SweepMetrics, seeds: u64, include_wall_clock: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
    let _ = writeln!(out, "  \"seeds\": {seeds},");
    let _ = writeln!(out, "  \"deterministic\":");
    metrics.deterministic.write_json(&mut out, "  ");
    let _ = writeln!(out, ",");
    let _ = writeln!(out, "  \"critical_path\":");
    metrics.critical_path.write_json(&mut out, "  ");
    if include_wall_clock {
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "  \"wall_clock\":");
        metrics.wall_clock.write_json(&mut out, "  ");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "}}");
    out
}

/// Parses a `metrics.json` document (either shape — the `wall_clock`
/// section is optional and reads back empty when absent). Returns the
/// seed count and the metrics.
///
/// # Errors
///
/// A human-readable message when the text is not a metrics document.
pub fn parse_metrics_json(text: &str) -> Result<(u64, SweepMetrics), String> {
    let doc = json::parse(text)?;
    json::expect_schema(&doc, METRICS_SCHEMA)?;
    let seeds = doc
        .get("seeds")
        .and_then(Value::as_u64)
        .ok_or("missing \"seeds\"")?;
    let deterministic = MetricSet::from_json_value(
        doc.get("deterministic")
            .ok_or("missing \"deterministic\"")?,
    )?;
    // Optional sections: pre-span documents lack `critical_path`, and
    // merge-normalized documents lack `wall_clock` — both read back empty.
    let optional = |name: &str| match doc.get(name) {
        Some(v) => MetricSet::from_json_value(v),
        None => Ok(MetricSet::new()),
    };
    let critical_path = optional("critical_path")?;
    let wall_clock = optional("wall_clock")?;
    Ok((
        seeds,
        SweepMetrics {
            deterministic,
            critical_path,
            wall_clock,
        },
    ))
}

/// Virtual-time pretty printer for human summaries (never used in
/// serialized output, which stays integer-only).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Pre-registered histogram handles plus reusable correlation scratch: the
/// per-worker metrics recorder stored in
/// [`ExecutionArena`](crate::arena::ExecutionArena). Registration happens
/// once at construction; recording a run is pure handle indexing over
/// warmed scratch maps, so steady-state sweeps add no allocations to the
/// pinned per-seed budget.
#[derive(Debug)]
pub struct MetricsRecorder {
    metrics: SweepMetrics,
    resolution_crashfree: HistogramHandle,
    resolution_crash: HistogramHandle,
    resolution_rounds: HistogramHandle,
    exit_round: HistogramHandle,
    signal_fanout: HistogramHandle,
    object_wait: HistogramHandle,
    crash_detect: HistogramHandle,
    rejoin_restart: HistogramHandle,
    rejoin_catchup: HistogramHandle,
    run_virtual: HistogramHandle,
    // Per-run correlation scratch, cleared (capacity kept) between runs.
    first_raise: IntMap<u64, u64>,
    first_resolved: IntMap<u64, u64>,
    resolved_rounds: IntMap<(u64, u32), u64>,
    rounds_max: IntMap<u64, u64>,
    exit_open: IntMap<(u64, u32), u64>,
    rejoin_open: IntMap<(u64, u32), u64>,
    fanout: IntMap<u64, u64>,
    crashes: Vec<(u32, u64)>,
    detected: IntSet<(u32, u32)>,
    cp_scratch: CriticalPathScratch,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder::new()
    }
}

impl MetricsRecorder {
    /// A recorder with every histogram pre-registered.
    #[must_use]
    pub fn new() -> MetricsRecorder {
        let mut metrics = SweepMetrics::default();
        let det = &mut metrics.deterministic;
        let resolution_crashfree = det.histogram("resolution_latency_crashfree_ns");
        let resolution_crash = det.histogram("resolution_latency_crash_ns");
        let resolution_rounds = det.histogram("resolution_rounds");
        let exit_round = det.histogram("exit_round_ns");
        let signal_fanout = det.histogram("signal_fanout");
        let object_wait = det.histogram("object_wait_ns");
        let crash_detect = det.histogram("crash_detect_ns");
        let rejoin_restart = det.histogram("rejoin_restart_ns");
        let rejoin_catchup = det.histogram("rejoin_catchup_ns");
        let run_virtual = det.histogram("run_virtual_ns");
        MetricsRecorder {
            metrics,
            resolution_crashfree,
            resolution_crash,
            resolution_rounds,
            exit_round,
            signal_fanout,
            object_wait,
            crash_detect,
            rejoin_restart,
            rejoin_catchup,
            run_virtual,
            first_raise: IntMap::default(),
            first_resolved: IntMap::default(),
            resolved_rounds: IntMap::default(),
            rounds_max: IntMap::default(),
            exit_open: IntMap::default(),
            rejoin_open: IntMap::default(),
            fanout: IntMap::default(),
            crashes: Vec::new(),
            detected: IntSet::default(),
            cp_scratch: CriticalPathScratch::new(),
        }
    }

    /// Adds `n` to the wall-clock counter labeled `name` — the hook the
    /// sweep/fuzz drivers use for their stage timers and
    /// worker-utilization counters (never part of byte-identity claims).
    pub fn add_wall(&mut self, name: &str, n: u64) {
        self.metrics.wall_clock.add_named(name, n);
    }

    /// The metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &SweepMetrics {
        &self.metrics
    }

    /// Takes the accumulated metrics, leaving the recorder empty (handles
    /// and scratch capacity intact) — the end-of-worker merge hook.
    #[must_use]
    pub fn take_metrics(&mut self) -> SweepMetrics {
        std::mem::take(&mut self.metrics)
    }

    /// Extracts one run's metrics from its artifacts: a single pass over
    /// the canonical trace plus the report's counters. Purely a read —
    /// the artifacts (and their rendered bytes) are untouched.
    pub fn record_run(&mut self, artifacts: &RunArtifacts) {
        self.first_raise.clear();
        self.first_resolved.clear();
        self.resolved_rounds.clear();
        self.rounds_max.clear();
        self.exit_open.clear();
        self.rejoin_open.clear();
        self.fanout.clear();
        self.crashes.clear();
        self.detected.clear();

        for entry in artifacts.trace.entries() {
            match &entry.kind {
                EntryKind::Runtime(event) => {
                    let serial = event.action.serial();
                    let thread = event.thread.as_u32();
                    let at = entry.at_ns;
                    match &event.kind {
                        EventKind::Raise { .. } => {
                            self.first_raise.entry(serial).or_insert(at);
                        }
                        EventKind::Resolved { .. } => {
                            self.first_resolved.entry(serial).or_insert(at);
                            *self.resolved_rounds.entry((serial, thread)).or_insert(0) += 1;
                        }
                        EventKind::ExitStart { .. } => {
                            self.exit_open.insert((serial, thread), at);
                        }
                        EventKind::Exit { .. } => {
                            if let Some(start) = self.exit_open.remove(&(serial, thread)) {
                                self.metrics
                                    .deterministic
                                    .record(self.exit_round, at.saturating_sub(start));
                            }
                            if let Some(readmitted) = self.rejoin_open.remove(&(serial, thread)) {
                                self.metrics
                                    .deterministic
                                    .record(self.rejoin_catchup, at.saturating_sub(readmitted));
                            }
                        }
                        EventKind::ObjectAcquired { waited_ns, .. } => {
                            self.metrics
                                .deterministic
                                .record(self.object_wait, *waited_ns);
                        }
                        EventKind::Crash => {
                            self.crashes.push((thread, at));
                        }
                        // Only the joiner's own Rejoin event opens the
                        // catch-up window; survivor-side adoptions of the
                        // same readmission are echoes of one handshake.
                        EventKind::Rejoin {
                            thread: rejoiner, ..
                        } if rejoiner.as_u32() == thread => {
                            self.rejoin_open.insert((serial, thread), at);
                            if let Some(&(_, crash_at)) = self
                                .crashes
                                .iter()
                                .rev()
                                .find(|&&(crashed, _)| crashed == thread)
                            {
                                self.metrics
                                    .deterministic
                                    .record(self.rejoin_restart, at.saturating_sub(crash_at));
                            }
                        }
                        EventKind::ResolutionTimeout { .. } => {
                            self.metrics
                                .deterministic
                                .add_named("suspicion_resolution", 1);
                        }
                        EventKind::SignalTimeout { .. } => {
                            self.metrics
                                .deterministic
                                .add_named("suspicion_signalling", 1);
                        }
                        EventKind::ExitTimeout { .. } => {
                            self.metrics.deterministic.add_named("suspicion_exit", 1);
                        }
                        EventKind::ViewChange { removed, .. } => {
                            for &(crashed, crash_at) in &self.crashes {
                                if removed.iter().any(|t| t.as_u32() == crashed)
                                    && self.detected.insert((crashed, thread))
                                {
                                    self.metrics
                                        .deterministic
                                        .record(self.crash_detect, at.saturating_sub(crash_at));
                                }
                            }
                        }
                        _ => {}
                    }
                }
                EntryKind::NetSent(tap) if tap.class == "toBeSignalled" => {
                    *self.fanout.entry(tap.correlation).or_insert(0) += 1;
                }
                _ => {}
            }
        }

        // Fold the per-run correlation maps into the histograms. Map
        // iteration order is arbitrary, which is fine: histogram recording
        // is commutative, and the serialized form is order-independent.
        let crashed_plan = !artifacts.plan.crashes.is_empty();
        let latency_hist = if crashed_plan {
            self.resolution_crash
        } else {
            self.resolution_crashfree
        };
        for (&serial, &resolved_at) in &self.first_resolved {
            if let Some(&raised_at) = self.first_raise.get(&serial) {
                self.metrics
                    .deterministic
                    .record(latency_hist, resolved_at.saturating_sub(raised_at));
            }
        }
        for (&(serial, _), &rounds) in &self.resolved_rounds {
            let max = self.rounds_max.entry(serial).or_insert(0);
            *max = (*max).max(rounds);
        }
        for &rounds in self.rounds_max.values() {
            self.metrics
                .deterministic
                .record(self.resolution_rounds, rounds);
        }
        for &n in self.fanout.values() {
            self.metrics.deterministic.record(self.signal_fanout, n);
        }
        self.metrics
            .deterministic
            .record(self.run_virtual, artifacts.report.elapsed.as_nanos());

        let seed_class = if crashed_plan {
            "seeds_crash"
        } else {
            "seeds_crashfree"
        };
        self.metrics.deterministic.add_named(seed_class, 1);
        self.record_net_stats(&artifacts.report.net_stats);
        self.record_sched_stats(artifacts.report.sched_stats);

        // Critical-path attribution: walk the causal graph once per
        // resolved instance (virtual-time facts only, so the counters
        // stay byte-deterministic and shard-mergeable). Zero-valued
        // classes are skipped so absent segment kinds never register.
        let cp = &mut self.metrics.critical_path;
        self.cp_scratch.extract(&artifacts.trace, |path| {
            for class in SegmentClass::ALL {
                let ns = path.class_total_ns(class);
                if ns > 0 {
                    cp.add_named(class.counter_name(), ns);
                }
            }
            cp.add_named("cp_total_ns", path.total_ns());
            cp.add_named("cp_instances", 1);
        });
    }

    /// Folds per-class message counters into the deterministic set
    /// (`msg_sent_<class>` in the serialized form).
    fn record_net_stats(&mut self, stats: &NetStats) {
        // Cold path only on the first sight of a class label (there are
        // eight); afterwards `add_named` is a map hit, no allocation.
        for (class, sent) in stats.iter_sent() {
            let mut name = String::with_capacity("msg_sent_".len() + class.len());
            name.push_str("msg_sent_");
            name.push_str(class);
            self.metrics.deterministic.add_named(&name, sent);
        }
        if stats.retransmissions() > 0 {
            self.metrics
                .deterministic
                .add_named("retransmissions", stats.retransmissions());
        }
    }

    /// Folds the scheduler handoff counters into the wall-clock set.
    fn record_sched_stats(&mut self, stats: SchedStats) {
        self.metrics
            .wall_clock
            .add_named("sched_parks", stats.parks);
        self.metrics
            .wall_clock
            .add_named("sched_wakes", stats.wakes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ExecutionArena;
    use crate::exec::execute_in;
    use crate::plan::{ScenarioConfig, ScenarioPlan};

    fn record_seed(recorder: &mut MetricsRecorder, seed: u64, scenario: &ScenarioConfig) {
        let mut arena = ExecutionArena::new();
        let plan = ScenarioPlan::generate(seed, scenario);
        let artifacts = execute_in(&plan, &mut arena);
        recorder.record_run(&artifacts);
    }

    #[test]
    fn records_protocol_latencies_and_counters() {
        let mut recorder = MetricsRecorder::new();
        for seed in 0..24 {
            record_seed(&mut recorder, seed, &ScenarioConfig::default());
        }
        let m = recorder.metrics();
        let runs = m.deterministic.histogram_named("run_virtual_ns").unwrap();
        assert_eq!(runs.count(), 24);
        assert!(runs.max() > 0, "virtual time must elapse");
        let latency = m
            .deterministic
            .histogram_named("resolution_latency_crashfree_ns")
            .unwrap();
        let crash_latency = m
            .deterministic
            .histogram_named("resolution_latency_crash_ns")
            .unwrap();
        assert!(
            latency.count() + crash_latency.count() > 0,
            "24 default seeds must resolve at least one exception"
        );
        assert!(m.deterministic.counter_value("msg_sent_Exception") > 0);
        assert!(m.wall_clock.counter_value("sched_parks") > 0);
        // Critical-path attribution: every resolved instance contributes
        // a path whose segments sum to its latency, so the aggregate
        // totals couple exactly to the latency histograms.
        assert_eq!(
            m.critical_path.counter_value("cp_instances"),
            latency.count() + crash_latency.count(),
        );
        assert_eq!(
            u128::from(m.critical_path.counter_value("cp_total_ns")),
            latency.sum() + crash_latency.sum(),
        );
        let class_sum: u64 = crate::spans::SegmentClass::ALL
            .iter()
            .map(|c| m.critical_path.counter_value(c.counter_name()))
            .sum();
        assert_eq!(class_sum, m.critical_path.counter_value("cp_total_ns"));
        let summary = m.summary();
        assert!(summary.contains("messages sent:"), "{summary}");
        assert!(summary.contains("sched handoffs"), "{summary}");
        assert!(summary.contains("critical path ("), "{summary}");
    }

    #[test]
    fn json_round_trips_and_shard_merge_is_byte_identical() {
        let scenario = ScenarioConfig::default();
        let mut whole = MetricsRecorder::new();
        let mut shard_a = MetricsRecorder::new();
        let mut shard_b = MetricsRecorder::new();
        for seed in 0..12 {
            record_seed(&mut whole, seed, &scenario);
            if seed % 2 == 0 {
                record_seed(&mut shard_a, seed, &scenario);
            } else {
                record_seed(&mut shard_b, seed, &scenario);
            }
        }
        let whole = whole.take_metrics();
        let mut merged = shard_a.take_metrics();
        merged.merge(&shard_b.take_metrics());
        // The deterministic sections agree byte-for-byte; the wall-clock
        // sections need not (host-scheduler dependent), which is exactly
        // why the merge normalization drops them.
        assert_eq!(
            metrics_json(&merged, 12, false),
            metrics_json(&whole, 12, false)
        );
        let doc = metrics_json(&whole, 12, true);
        let (seeds, parsed) = parse_metrics_json(&doc).expect("parse own doc");
        assert_eq!(seeds, 12);
        assert_eq!(metrics_json(&parsed, seeds, true), doc);
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(parse_metrics_json("{}").is_err());
        assert!(parse_metrics_json(r#"{"schema": "other/v9", "seeds": 1}"#).is_err());
    }
}
