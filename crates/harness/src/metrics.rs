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
//!   (`caa merge`) is byte-identical to the unsharded run.
//! * **wall_clock** — facts about the simulator, not the protocol: the
//!   [`SchedStats`] park/wake hand-offs (exact per seed since participants
//!   run as fibers, but a property of the host loop) and the driver's
//!   stage timers. Reported for regression ceilings, excluded from
//!   byte-identity claims, and dropped by `caa merge`.

use std::fmt::Write as _;

use caa_runtime::observe::EventKind;
use caa_simnet::{NetStats, SchedStats};
use caa_telemetry::json::{self, Value};
use caa_telemetry::{CounterHandle, HistogramHandle, MetricSet};

use crate::exec::RunArtifacts;
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
                (v > 0).then(|| format!("{round} {}", fmt_count(v)))
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
                    .map(|class| format!("{class} {}", fmt_count(v)))
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
                .map(|&(ns, label)| {
                    format!("{label} {}% ({})", share_pct(ns, cp_total), fmt_ns(ns))
                })
                .collect();
            let _ = writeln!(
                out,
                "critical path ({} instances, {} attributed): {}",
                fmt_count(self.critical_path.counter_value("cp_instances")),
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
        if parks > 0 || wakes > 0 {
            let per_seed = parks.checked_div(seeds).unwrap_or(0);
            let _ = writeln!(
                out,
                "sched handoffs (wall-clock): {} parks, {} wakes (~{per_seed} parks/seed)",
                fmt_count(parks),
                fmt_count(wakes),
            );
        }
        let stage = |label: &str, name: &str| {
            let ns = self.wall_clock.counter_value(name);
            (ns > 0).then(|| format!("{label} {}", fmt_ns(ns)))
        };
        // What `execute` is made of, in the order it happens.
        let execute_parts: Vec<String> = [
            ("build", "stage_execute_build_ns"),
            ("run", "stage_execute_run_ns"),
            ("teardown", "stage_execute_teardown_ns"),
        ]
        .iter()
        .filter_map(|&(label, name)| stage(label, name))
        .collect();
        let stages: Vec<String> = [
            ("generate", "stage_generate_ns"),
            ("execute", "stage_execute_ns"),
            ("oracle", "stage_oracle_ns"),
            ("metrics", "stage_metrics_ns"),
            ("mutation", "stage_mutation_ns"),
        ]
        .iter()
        .filter_map(|&(label, name)| {
            let line = stage(label, name)?;
            Some(if label == "execute" && !execute_parts.is_empty() {
                format!("{line} ({})", execute_parts.join(", "))
            } else {
                line
            })
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
/// document carries both sets; without it (the `caa merge`
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

/// `part` as a whole percentage of `total` (which is not 0), rounded down.
/// The product is taken in `u128`: presume-ƒ timeout slack puts ~2.7 × 10¹⁴
/// virtual ns on the critical path per default seed, so `part * 100`
/// leaves `u64` a little past 600 seeds.
fn share_pct(part: u64, total: u64) -> u64 {
    u64::try_from(u128::from(part) * 100 / u128::from(total)).unwrap_or(u64::MAX)
}

/// `≥` for a counter that sits at `u64::MAX`: counters saturate
/// ([`MetricSet::add`]), so the true value is at least what is printed.
fn saturated(v: u64) -> &'static str {
    if v == u64::MAX {
        "≥"
    } else {
        ""
    }
}

/// A counter as a summary prints it.
fn fmt_count(v: u64) -> String {
    format!("{}{v}", saturated(v))
}

/// Virtual-time pretty printer for human summaries (never used in
/// serialized output, which stays integer-only).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{}{:.2}s", saturated(ns), ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// What one thread has open inside one instance — a cell of the
/// `(instance, thread)` table ([`TraceIndex::cell`](crate::trace::TraceIndex::cell)).
#[derive(Debug, Clone, Default)]
struct ThreadCell {
    /// Start of the thread's open exit round.
    exit_open: Option<u64>,
    /// When the thread, a rejoiner, was readmitted (catch-up runs until
    /// its exit).
    rejoin_open: Option<u64>,
    /// Bounded resolution waits that expired since the thread's last
    /// `Resolved`.
    resolution_timeouts: u64,
}

/// Per-instance tallies of one run.
#[derive(Debug, Clone, Default)]
struct InstanceRow {
    /// `toBeSignalled` messages sent for the instance.
    fanout: u64,
    /// Resolution rounds of the instance's slowest thread.
    rounds: u64,
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
    counters: CounterHandles,
    // Per-run correlation scratch, cleared (capacity kept) between runs:
    // one cell per `(instance, thread)`, one row per instance.
    cells: Vec<ThreadCell>,
    instances: Vec<InstanceRow>,
    crashes: Vec<(u32, u64)>,
    /// `(crashed, observer)` pairs whose detection latency is recorded.
    detected: Vec<(u32, u32)>,
    cp_scratch: CriticalPathScratch,
}

/// A counter resolved to its handle the first time it is added to — one
/// label lookup per recorder, not one per seed — so a counter nothing ever
/// adds to still never registers (and never serializes as a zero).
#[derive(Debug, Default, Clone, Copy)]
struct LazyCounter(Option<CounterHandle>);

impl LazyCounter {
    #[inline]
    fn add(&mut self, set: &mut MetricSet, name: &str, n: u64) {
        let handle = *self.0.get_or_insert_with(|| set.counter(name));
        set.add(handle, n);
    }
}

/// The wall-clock counters the drivers and the recorder add to, by handle
/// ([`MetricsRecorder::add_wall`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallCounter {
    /// `stage_generate_ns`: generating plans.
    StageGenerate,
    /// `stage_execute_ns`: executions, build to teardown.
    StageExecute,
    /// `stage_execute_build_ns`.
    StageExecuteBuild,
    /// `stage_execute_run_ns`.
    StageExecuteRun,
    /// `stage_execute_teardown_ns`.
    StageExecuteTeardown,
    /// `stage_oracle_ns`: oracle checks and replay comparisons.
    StageOracle,
    /// `stage_metrics_ns`: [`MetricsRecorder::record_run`].
    StageMetrics,
    /// `worker_busy_ns`: a worker's wall time spent on seed work.
    WorkerBusy,
    /// `sched_parks`: scheduler park hand-offs.
    SchedParks,
    /// `sched_wakes`: scheduler wake hand-offs.
    SchedWakes,
}

impl WallCounter {
    /// How many there are (`SchedWakes` is the last).
    const COUNT: usize = WallCounter::SchedWakes as usize + 1;

    /// The counter's label in the `wall_clock` section.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WallCounter::StageGenerate => "stage_generate_ns",
            WallCounter::StageExecute => "stage_execute_ns",
            WallCounter::StageExecuteBuild => "stage_execute_build_ns",
            WallCounter::StageExecuteRun => "stage_execute_run_ns",
            WallCounter::StageExecuteTeardown => "stage_execute_teardown_ns",
            WallCounter::StageOracle => "stage_oracle_ns",
            WallCounter::StageMetrics => "stage_metrics_ns",
            WallCounter::WorkerBusy => "worker_busy_ns",
            WallCounter::SchedParks => "sched_parks",
            WallCounter::SchedWakes => "sched_wakes",
        }
    }
}

/// Every counter the recorder adds to per seed, as handles into the three
/// sets of its current [`SweepMetrics`]; started over by
/// [`MetricsRecorder::take_metrics`].
#[derive(Debug, Default)]
struct CounterHandles {
    /// Indexed by [`WallCounter`].
    wall: [LazyCounter; WallCounter::COUNT],
    seeds_crash: LazyCounter,
    seeds_crashfree: LazyCounter,
    suspicion_resolution: LazyCounter,
    suspicion_signalling: LazyCounter,
    suspicion_exit: LazyCounter,
    retransmissions: LazyCounter,
    /// `msg_sent_<class>` by class label, found by the label's address
    /// (a class is a literal) and registered on its first sight — there
    /// are ten.
    msg_sent: Vec<(&'static str, CounterHandle)>,
    /// Parallel to [`SegmentClass::ALL`].
    cp_classes: [LazyCounter; SegmentClass::ALL.len()],
    cp_total: LazyCounter,
    cp_instances: LazyCounter,
}

impl CounterHandles {
    /// The handle of `msg_sent_<class>` in `det`.
    fn msg_sent(&mut self, det: &mut MetricSet, class: &'static str) -> CounterHandle {
        let by_address = |&(c, _): &(&'static str, _)| std::ptr::eq(c, class);
        let known = self.msg_sent.iter().position(by_address);
        let at = known
            .or_else(|| self.msg_sent.iter().position(|&(c, _)| c == class))
            .unwrap_or_else(|| {
                let handle = det.counter(&format!("msg_sent_{class}"));
                self.msg_sent.push((class, handle));
                self.msg_sent.len() - 1
            });
        self.msg_sent[at].1
    }
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
            counters: CounterHandles::default(),
            cells: Vec::new(),
            instances: Vec::new(),
            crashes: Vec::new(),
            detected: Vec::new(),
            cp_scratch: CriticalPathScratch::new(),
        }
    }

    /// Adds `n` to a wall-clock counter — the hook the sweep/fuzz drivers
    /// use for their stage timers and worker-utilization counters (never
    /// part of byte-identity claims). By handle: the label is looked up
    /// once per recorder.
    pub fn add_wall(&mut self, counter: WallCounter, n: u64) {
        self.counters.wall[counter as usize].add(&mut self.metrics.wall_clock, counter.name(), n);
    }

    /// The metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &SweepMetrics {
        &self.metrics
    }

    /// Takes the accumulated metrics, leaving the recorder as a new one
    /// starts — every histogram registered again under the handle it had,
    /// no counter registered yet, scratch capacity intact — so recording
    /// goes on afterwards. The end-of-worker merge hook.
    #[must_use]
    pub fn take_metrics(&mut self) -> SweepMetrics {
        // The counters register on first use, so in the new sets they are
        // not registered yet.
        self.counters = CounterHandles::default();
        std::mem::replace(&mut self.metrics, MetricsRecorder::new().metrics)
    }

    /// Extracts one run's metrics from its artifacts: a single pass over
    /// the canonical trace plus the report's counters. Purely a read —
    /// the artifacts (and their rendered bytes) are untouched.
    pub fn record_run(&mut self, artifacts: &RunArtifacts) {
        let trace = &artifacts.trace;
        let index = trace.index();
        self.cells.clear();
        self.cells.resize(index.cells(), ThreadCell::default());
        self.instances.clear();
        self.instances
            .resize(index.instances().len(), InstanceRow::default());
        self.crashes.clear();
        self.detected.clear();
        let det = &mut self.metrics.deterministic;
        let counters = &mut self.counters;

        for entry in trace.entries() {
            let row = &mut self.instances[entry.label as usize];
            let event = match &entry.kind {
                EntryKind::Runtime(event) => event,
                EntryKind::NetSent(tap) => {
                    row.fanout += u64::from(tap.class == "toBeSignalled");
                    continue;
                }
                _ => continue,
            };
            let thread = entry.thread;
            let at = entry.at_ns;
            let cell = &mut self.cells[index.cell(entry.label, thread)];
            match &event.kind {
                EventKind::Resolved { .. } => {
                    // This thread's resolution took one round plus one
                    // re-run per bounded wait that expired on the way.
                    row.rounds = row.rounds.max(1 + cell.resolution_timeouts);
                    cell.resolution_timeouts = 0;
                }
                EventKind::ExitStart { .. } => cell.exit_open = Some(at),
                EventKind::Exit { .. } => {
                    if let Some(start) = cell.exit_open.take() {
                        det.record(self.exit_round, at.saturating_sub(start));
                    }
                    if let Some(readmitted) = cell.rejoin_open.take() {
                        det.record(self.rejoin_catchup, at.saturating_sub(readmitted));
                    }
                }
                EventKind::ObjectAcquired { waited_ns, .. } => {
                    det.record(self.object_wait, *waited_ns);
                }
                EventKind::Crash => self.crashes.push((thread, at)),
                // Only the joiner's own Rejoin event opens the
                // catch-up window; survivor-side adoptions of the
                // same readmission are echoes of one handshake.
                EventKind::Rejoin {
                    thread: rejoiner, ..
                } if rejoiner.as_u32() == thread => {
                    cell.rejoin_open = Some(at);
                    if let Some(&(_, crash_at)) = self
                        .crashes
                        .iter()
                        .rev()
                        .find(|&&(crashed, _)| crashed == thread)
                    {
                        det.record(self.rejoin_restart, at.saturating_sub(crash_at));
                    }
                }
                EventKind::ResolutionTimeout { .. } => {
                    cell.resolution_timeouts += 1;
                    counters
                        .suspicion_resolution
                        .add(det, "suspicion_resolution", 1);
                }
                EventKind::SignalTimeout { .. } => {
                    counters
                        .suspicion_signalling
                        .add(det, "suspicion_signalling", 1);
                }
                EventKind::ExitTimeout { .. } => {
                    counters.suspicion_exit.add(det, "suspicion_exit", 1);
                }
                EventKind::ViewChange { removed, .. } => {
                    for &(crashed, crash_at) in &self.crashes {
                        if removed.iter().any(|t| t.as_u32() == crashed)
                            && !self.detected.contains(&(crashed, thread))
                        {
                            self.detected.push((crashed, thread));
                            det.record(self.crash_detect, at.saturating_sub(crash_at));
                        }
                    }
                }
                _ => {}
            }
        }

        // Fold the per-instance rows into the histograms.
        let crashed_plan = !artifacts.plan.crashes.is_empty();
        let latency_hist = if crashed_plan {
            self.resolution_crash
        } else {
            self.resolution_crashfree
        };
        for (instance, row) in index.instances().iter().zip(&self.instances) {
            if let Some(resolved) = instance.first_resolved() {
                if let Some(raised) = instance.first_raise() {
                    let entries = trace.entries();
                    det.record(
                        latency_hist,
                        entries[resolved]
                            .at_ns
                            .saturating_sub(entries[raised].at_ns),
                    );
                }
                det.record(self.resolution_rounds, row.rounds);
            }
            if row.fanout > 0 {
                det.record(self.signal_fanout, row.fanout);
            }
        }
        det.record(self.run_virtual, artifacts.report.elapsed.as_nanos());
        if crashed_plan {
            counters.seeds_crash.add(det, "seeds_crash", 1);
        } else {
            counters.seeds_crashfree.add(det, "seeds_crashfree", 1);
        }
        self.record_net_stats(&artifacts.report.net_stats);
        self.record_sched_stats(artifacts.report.sched_stats);

        // Critical-path attribution: walk the causal graph once per
        // resolved instance (virtual-time facts only, so the counters
        // stay byte-deterministic and shard-mergeable). Zero-valued
        // classes are skipped so absent segment kinds never register.
        let cp = &mut self.metrics.critical_path;
        let handles = &mut self.counters;
        self.cp_scratch.extract(&artifacts.trace, |path| {
            for (class, slot) in SegmentClass::ALL.into_iter().zip(&mut handles.cp_classes) {
                let ns = path.class_total_ns(class);
                if ns > 0 {
                    slot.add(cp, class.counter_name(), ns);
                }
            }
            handles.cp_total.add(cp, "cp_total_ns", path.total_ns());
            handles.cp_instances.add(cp, "cp_instances", 1);
        });
    }

    /// Folds per-class message counters into the deterministic set
    /// (`msg_sent_<class>` in the serialized form).
    fn record_net_stats(&mut self, stats: &NetStats) {
        let det = &mut self.metrics.deterministic;
        for (class, sent) in stats.iter_sent() {
            let handle = self.counters.msg_sent(det, class);
            det.add(handle, sent);
        }
        if stats.retransmissions() > 0 {
            self.counters
                .retransmissions
                .add(det, "retransmissions", stats.retransmissions());
        }
    }

    /// Folds the scheduler handoff counters into the wall-clock set.
    fn record_sched_stats(&mut self, stats: SchedStats) {
        self.add_wall(WallCounter::SchedParks, stats.parks);
        self.add_wall(WallCounter::SchedWakes, stats.wakes);
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
    fn resolution_rounds_count_the_reruns_a_timeout_forces() {
        let rounds_of = |seed| {
            let mut recorder = MetricsRecorder::new();
            record_seed(&mut recorder, seed, &ScenarioConfig::default());
            let rounds = recorder
                .metrics()
                .deterministic
                .histogram_named("resolution_rounds")
                .unwrap()
                .clone();
            (rounds.count(), rounds.min(), rounds.max())
        };
        // Seed 3 resolves in two instances; nobody crashes.
        assert_eq!(rounds_of(3), (2, 1, 1));
        // Seed 56: two participants of one instance crash-stop; each
        // survivor's collection wait expires twice (suspecting one, then
        // the other) before the third round resolves — its other two
        // resolved instances take one round each.
        assert_eq!(rounds_of(56), (3, 1, 3));
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
    fn recording_after_a_take_reads_like_a_fresh_recorder() {
        let scenario = ScenarioConfig::default();
        let mut reused = MetricsRecorder::new();
        for seed in 0..6 {
            record_seed(&mut reused, seed, &scenario);
        }
        let first = reused.take_metrics();
        assert_eq!(
            first
                .deterministic
                .histogram_named("run_virtual_ns")
                .map(|h| h.count()),
            Some(6)
        );
        // The ten handles must still name their histograms: a crash plan
        // and crash-free ones, so every one of them is recorded through.
        let mut fresh = MetricsRecorder::new();
        for seed in [1, 3, 7, 9, 56] {
            record_seed(&mut reused, seed, &scenario);
            record_seed(&mut fresh, seed, &scenario);
        }
        assert_eq!(
            metrics_json(reused.metrics(), 5, true),
            metrics_json(fresh.metrics(), 5, true)
        );
        assert_eq!(
            metrics_json(&reused.take_metrics(), 5, false),
            metrics_json(&fresh.take_metrics(), 5, false)
        );
    }

    #[test]
    fn critical_path_shares_survive_ten_thousand_seeds_of_timeout_slack() {
        // 10⁴ default seeds' worth: ~2.7 × 10¹⁴ ns of presume-ƒ slack per
        // seed. `ns * 100` in u64 wrapped from ~665 seeds on ("timeout-slack
        // 0%" in release, a panic in debug).
        let mut metrics = SweepMetrics::default();
        let slack = 2_700_000_000_000_000_000_u64;
        let waits = 200_000_000_000_000_000_u64;
        assert!(slack.checked_mul(100).is_none() && waits.checked_mul(100).is_none());
        let cp = &mut metrics.critical_path;
        cp.add_named(SegmentClass::TimeoutSlack.counter_name(), slack);
        cp.add_named(SegmentClass::MessageWait.counter_name(), waits);
        cp.add_named(SegmentClass::Compute.counter_name(), 1_000);
        cp.add_named("cp_total_ns", slack + waits + 1_000);
        cp.add_named("cp_instances", 25_000);
        let summary = metrics.summary();
        let line = summary
            .lines()
            .find(|l| l.starts_with("critical path ("))
            .expect("a critical-path line");
        assert!(line.contains("timeout-slack 93% ("), "{line}");
        assert!(line.contains("message-wait 6% ("), "{line}");
        assert!(line.contains("compute 0% ("), "{line}");
        assert_eq!(share_pct(u64::MAX, u64::MAX), 100);
        assert_eq!(share_pct(u64::MAX - 1, u64::MAX), 99);
    }

    #[test]
    fn a_saturated_counter_prints_as_a_lower_bound() {
        // 70 000 default seeds' worth of the same slack: past `u64`, so the
        // counters stop at its maximum and the summary says so.
        let mut metrics = SweepMetrics::default();
        let cp = &mut metrics.critical_path;
        for _ in 0..70_000 {
            cp.add_named(
                SegmentClass::TimeoutSlack.counter_name(),
                270_000_000_000_000,
            );
            cp.add_named("cp_total_ns", 270_000_000_001_000);
            cp.add_named("cp_instances", 2);
        }
        let summary = metrics.summary();
        let line = summary
            .lines()
            .find(|l| l.starts_with("critical path ("))
            .expect("a critical-path line");
        assert!(
            line.starts_with("critical path (140000 instances, ≥18446744073.71s attributed)"),
            "{line}"
        );
        assert!(
            line.contains("timeout-slack 100% (≥18446744073.71s)"),
            "{line}"
        );
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(parse_metrics_json("{}").is_err());
        assert!(parse_metrics_json(r#"{"schema": "other/v9", "seeds": 1}"#).is_err());
    }
}
