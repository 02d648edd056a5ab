//! The benchmark's only door into the workspace: every call from `perf/`
//! into `crates/*` is made here, behind benchmark-owned types.
//!
//! Later performance and simplification PRs may not edit `perf/` (a
//! change that claims a gain must be measured by the benchmark it found).
//! This file is therefore the list of public signatures such a PR has to
//! keep — or shim under the same path — for the benchmark to keep
//! building. `perf/README.md` repeats the list; a later *benchmark* issue,
//! not a perf PR, revises it.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use caa_baselines::{CrResolution, Rom96Resolution};
use caa_bench::{
    nested_abort as bench_nested_abort, resolution_messages,
    simultaneous_raise as bench_simultaneous_raise, NestedAbortParams, SimultaneousRaiseParams,
};
use caa_core::exception::{Exception, ExceptionId};
use caa_core::ids::{ActionId, ThreadId};
use caa_core::message::Message;
use caa_core::time::millis;
use caa_exgraph::generate::conjunction_lattice;
use caa_exgraph::ExceptionGraph;
use caa_harness::arena::ExecutionArena;
use caa_harness::exec::{execute_in, RunArtifacts};
use caa_harness::metrics::{metrics_json, MetricsRecorder, SweepMetrics};
use caa_harness::oracle::check_run;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::build_span_tree;
use caa_harness::sweep::{sweep as harness_sweep, PathCoverage, SweepConfig, SweepReport};
use caa_runtime::protocol::{ProtoCtx, ProtoEvent, ResolutionProtocol, ResolverState};
use caa_runtime::{SystemReport, XrrResolution};
use caa_simnet::{Classify, ClockMode, LatencyModel, NetConfig, Network};
use caa_telemetry::Histogram;

/// The scenario space a sweep workload draws its plans from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// `ScenarioConfig::default()` — the acceptance-sweep space.
    Mixed,
    /// `ScenarioConfig::object_heavy()`.
    Objects,
    /// `ScenarioConfig::multi_crash()`.
    Crash,
}

impl Space {
    fn config(self) -> ScenarioConfig {
        match self {
            Space::Mixed => ScenarioConfig::default(),
            Space::Objects => ScenarioConfig::object_heavy(),
            Space::Crash => ScenarioConfig::multi_crash(),
        }
    }
}

/// One op that failed its output check, with enough to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The seed (or scenario index) that failed.
    pub seed: u64,
    /// What was wrong.
    pub what: String,
    /// A command reproducing the failure.
    pub replay: String,
}

/// Virtual-time protocol facts of a set of runs, read from the harness's
/// deterministic metric set. Exactly repeatable for the same seeds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Virt {
    /// Runs the metrics cover.
    pub runs: u64,
    /// Total virtual nanoseconds simulated.
    pub run_ns_sum: u128,
    /// Messages sent, all classes.
    pub msgs: u64,
    /// Crash-free raise→resolve latencies measured.
    pub resolves: u64,
    /// Their sum (ns).
    pub resolve_ns_sum: u128,
    /// Crash-free raise→resolve latency, median (ns).
    pub resolve_p50_ns: u64,
    /// Crash-free raise→resolve latency, 99th percentile (ns).
    pub resolve_p99_ns: u64,
    /// Virtual run length, median (ns).
    pub run_p50_ns: u64,
    /// Crash-plan raise→resolve latency, 90th percentile (ns); 0 when no
    /// crash plan resolved anything.
    pub crash_resolve_p90_ns: u64,
    /// Crash → first view change, median (ns); 0 when nothing crashed.
    pub crash_detect_p50_ns: u64,
}

fn virt_of(metrics: &SweepMetrics) -> Virt {
    let det = &metrics.deterministic;
    let quantile = |name: &str, pct: u64| {
        det.histogram_named(name)
            .filter(|h| h.count() > 0)
            .map_or(0, |h| h.quantile(pct, 100))
    };
    let runs = det.histogram_named("run_virtual_ns");
    let resolves = det.histogram_named("resolution_latency_crashfree_ns");
    Virt {
        runs: runs.map_or(0, Histogram::count),
        run_ns_sum: runs.map_or(0, Histogram::sum),
        msgs: det
            .counters_sorted()
            .into_iter()
            .filter(|(name, _)| name.starts_with("msg_sent_"))
            .map(|(_, n)| n)
            .sum(),
        resolves: resolves.map_or(0, Histogram::count),
        resolve_ns_sum: resolves.map_or(0, Histogram::sum),
        resolve_p50_ns: quantile("resolution_latency_crashfree_ns", 50),
        resolve_p99_ns: quantile("resolution_latency_crashfree_ns", 99),
        run_p50_ns: quantile("run_virtual_ns", 50),
        crash_resolve_p90_ns: quantile("resolution_latency_crash_ns", 90),
        crash_detect_p50_ns: quantile("crash_detect_ns", 50),
    }
}

/// The outcome of one `sweep()` call.
#[derive(Debug)]
pub struct Sweep(SweepReport);

/// Runs `caa_harness::sweep::sweep` over `[start_seed, start_seed + seeds)`
/// with one worker and no replay check. Violating seeds persist a corpus
/// entry under `corpus_dir`, which their replay command points at.
#[must_use]
pub fn sweep(space: Space, start_seed: u64, seeds: u64, corpus_dir: PathBuf) -> Sweep {
    Sweep(harness_sweep(&SweepConfig {
        start_seed,
        seeds,
        workers: 1,
        scenario: space.config(),
        check_replay: false,
        corpus_dir: Some(corpus_dir),
        shard: None,
    }))
}

impl Sweep {
    /// Seeds explored.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.0.seeds_run
    }

    /// The bytes a round's determinism digest is taken over: the
    /// deterministic `metrics.json` sections, the trace-entry total and
    /// the virtual seconds simulated.
    #[must_use]
    pub fn digest_input(&self) -> String {
        format!(
            "{}{}|{:?}",
            metrics_json(&self.0.metrics, self.0.seeds_run, false),
            self.0.trace_entries,
            self.0.virtual_secs,
        )
    }

    /// Seeds that violated an oracle.
    #[must_use]
    pub fn failures(&self) -> Vec<Failure> {
        self.0
            .failures
            .iter()
            .map(|f| Failure {
                seed: f.seed,
                what: f
                    .violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; "),
                replay: f.replay_command(),
            })
            .collect()
    }

    /// The sweep's virtual-time facts.
    #[must_use]
    pub fn virt(&self) -> Virt {
        virt_of(&self.0.metrics)
    }
}

/// A generated scenario plan.
#[derive(Debug)]
pub struct Plan(ScenarioPlan);

/// `ScenarioPlan::generate`.
#[must_use]
pub fn generate(seed: u64, space: Space) -> Plan {
    Plan(ScenarioPlan::generate(seed, &space.config()))
}

/// A per-worker `ExecutionArena`.
#[derive(Debug, Default)]
pub struct Arena(ExecutionArena);

/// One executed plan's artifacts (plan, trace, system report).
#[derive(Debug)]
pub struct Run(RunArtifacts);

/// `exec::execute_in`.
#[must_use]
pub fn execute(plan: &Plan, arena: &mut Arena) -> Run {
    Run(execute_in(&plan.0, &mut arena.0))
}

/// Hands a finished run's trace buffer back to the arena
/// (`ExecutionArena::recycle_trace`).
pub fn recycle(run: Run, arena: &mut Arena) {
    arena.0.recycle_trace(run.0.trace);
}

/// `oracle::check_run`: the violations, rendered (empty = passed).
#[must_use]
pub fn check(run: &Run) -> Vec<String> {
    check_run(&run.0).iter().map(ToString::to_string).collect()
}

/// A standalone `MetricsRecorder`.
#[derive(Debug, Default)]
pub struct Recorder(MetricsRecorder);

impl Recorder {
    /// `MetricsRecorder::record_run`.
    pub fn record(&mut self, run: &Run) {
        self.0.record_run(&run.0);
    }

    /// Virtual-time facts of everything recorded so far.
    #[must_use]
    pub fn virt(&self) -> Virt {
        virt_of(self.0.metrics())
    }
}

/// `PathCoverage::from_trace`: returns the run's shared-object
/// acquisitions.
#[must_use]
pub fn coverage(run: &Run) -> u64 {
    PathCoverage::from_trace(&run.0.trace).object_acquisitions
}

/// `spans::build_span_tree`: returns the number of spans derived.
#[must_use]
pub fn span_tree(run: &Run) -> usize {
    build_span_tree(&run.0.trace).len()
}

/// `Trace::render_fingerprint`.
#[must_use]
pub fn fingerprint(run: &Run) -> u64 {
    run.0.trace.render_fingerprint()
}

/// Per-run counts read from the run's `SystemReport` and trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Trace entries recorded.
    pub entries: u64,
    /// Scheduler condvar waits.
    pub parks: u64,
    /// Scheduler condvar notifies.
    pub wakes: u64,
    /// Messages sent, all classes.
    pub msgs: u64,
    /// Ack-timeout retransmissions.
    pub retransmissions: u64,
    /// Messages lost to fault injection, all classes.
    pub dropped: u64,
    /// Completed coordinated recoveries.
    pub recoveries: u64,
    /// Invocations of the resolution procedure.
    pub resolutions: u64,
    /// Nested actions aborted.
    pub aborts: u64,
    /// Membership view changes applied.
    pub view_changes: u64,
    /// Expired bounded waits (resolution + signalling + exit).
    pub timeouts: u64,
    /// Completed rejoins.
    pub rejoins: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, c: Counts) {
        self.entries += c.entries;
        self.parks += c.parks;
        self.wakes += c.wakes;
        self.msgs += c.msgs;
        self.retransmissions += c.retransmissions;
        self.dropped += c.dropped;
        self.recoveries += c.recoveries;
        self.resolutions += c.resolutions;
        self.aborts += c.aborts;
        self.view_changes += c.view_changes;
        self.timeouts += c.timeouts;
        self.rejoins += c.rejoins;
    }
}

const MESSAGE_CLASSES: [&str; 10] = [
    "Exception",
    "Suspended",
    "Commit",
    "Resolve",
    "ViewChange",
    "JoinRequest",
    "JoinGrant",
    "toBeSignalled",
    "ExitVote",
    "App",
];

fn counts_of(report: &SystemReport, entries: u64) -> Counts {
    let rt = &report.runtime_stats;
    Counts {
        entries,
        parks: report.sched_stats.parks,
        wakes: report.sched_stats.wakes,
        msgs: report.net_stats.total_sent(),
        retransmissions: report.net_stats.retransmissions(),
        dropped: MESSAGE_CLASSES
            .iter()
            .map(|class| report.net_stats.dropped(class))
            .sum(),
        recoveries: rt.recoveries,
        resolutions: rt.resolutions_invoked,
        aborts: rt.aborts,
        view_changes: rt.view_changes,
        timeouts: rt.resolution_timeouts + rt.signal_timeouts + rt.exit_timeouts,
        rejoins: rt.rejoins,
    }
}

/// The counts of one harness run.
#[must_use]
pub fn counts(run: &Run) -> Counts {
    counts_of(&run.0.report, run.0.trace.len() as u64)
}

/// Which resolution algorithm a §5.3 run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The paper's algorithm (`XrrResolution`).
    Xrr98,
    /// Campbell & Randell 1986 (`CrResolution`).
    Cr86,
    /// Romanovsky et al. 1996 (`Rom96Resolution`).
    Rom96,
}

/// What one bare-runtime scenario run of the paper's evaluation produced.
#[derive(Debug, Clone, Copy)]
pub struct PaperRun {
    /// Total (virtual) execution time, the unit of Figures 9 and 12.
    pub virt_s: f64,
    /// Exception + Suspended + Commit + Resolve messages.
    pub resolution_msgs: u64,
    /// Whether every thread completed without a fatal error.
    pub ok: bool,
    /// Scheduler, network and runtime counts (no trace: `entries` is 0).
    pub counts: Counts,
}

fn paper_run(report: &SystemReport) -> PaperRun {
    PaperRun {
        virt_s: report.elapsed_secs(),
        resolution_msgs: resolution_messages(report),
        ok: report.is_ok(),
        counts: counts_of(report, 0),
    }
}

/// `caa_bench::nested_abort` (§5.2, Figure 9) with 20 iterations and the
/// 1.0 s acknowledgment timeout.
#[must_use]
pub fn nested_abort(t_mmax: f64, t_abo: f64, t_reso: f64, seed: u64) -> PaperRun {
    paper_run(&bench_nested_abort(NestedAbortParams {
        t_mmax,
        t_abo,
        t_reso,
        seed,
        ..NestedAbortParams::default()
    }))
}

/// `caa_bench::simultaneous_raise` (§5.3, Figure 12): `n` threads raise
/// at once under `algo`.
#[must_use]
pub fn simultaneous_raise(t_mmax: f64, t_res: f64, n: u32, seed: u64, algo: Algo) -> PaperRun {
    let protocol: Arc<dyn ResolutionProtocol> = match algo {
        Algo::Xrr98 => Arc::new(XrrResolution),
        Algo::Cr86 => Arc::new(CrResolution),
        Algo::Rom96 => Arc::new(Rom96Resolution),
    };
    paper_run(&bench_simultaneous_raise(
        SimultaneousRaiseParams {
            t_mmax,
            t_res,
            n,
            seed,
        },
        protocol,
    ))
}

#[derive(Debug)]
struct Ping;

impl Classify for Ping {
    fn class(&self) -> &'static str {
        "Ping"
    }
}

fn kernel_net() -> Network<Ping> {
    Network::new(NetConfig {
        mode: ClockMode::Virtual,
        latency: LatencyModel::Fixed(millis(1)),
        seed: 1,
        ..NetConfig::default()
    })
}

/// simnet kernel: `round_trips` message round trips between two
/// virtual-clock endpoints, one per OS thread. Each round trip is two
/// deliveries, each a time advance plus a cross-thread wake-up.
///
/// # Panics
///
/// If the simulated network reports a deadlock (a simnet bug).
#[must_use]
pub fn simnet_pingpong(round_trips: u32) -> Duration {
    let net = kernel_net();
    let mut a = net.endpoint("a");
    let mut b = net.endpoint("b");
    let (a_id, b_id) = (a.id(), b.id());
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..round_trips {
                b.recv().expect("ping delivered");
                b.send(a_id, Ping);
            }
            b.retire();
        });
        for _ in 0..round_trips {
            a.send(b_id, Ping);
            a.recv().expect("pong delivered");
        }
        a.retire();
    });
    started.elapsed()
}

/// simnet kernel: `sleeps` virtual 1 ms sleeps on a single endpoint —
/// the time-advance path with nobody else to hand off to.
///
/// # Panics
///
/// If the simulated network reports a deadlock (a simnet bug).
#[must_use]
pub fn simnet_sleep_wake(sleeps: u32) -> Duration {
    let net = kernel_net();
    let ep = net.endpoint("solo");
    let started = Instant::now();
    for _ in 0..sleeps {
        ep.sleep(millis(1)).expect("a lone sleeper always wakes");
    }
    let elapsed = started.elapsed();
    ep.retire();
    elapsed
}

fn primitives(n: usize) -> Vec<ExceptionId> {
    (0..n).map(|i| ExceptionId::new(format!("e{i}"))).collect()
}

fn full_lattice(prims: &[ExceptionId]) -> ExceptionGraph {
    conjunction_lattice(prims, prims.len()).expect("distinct primitives build a lattice")
}

/// runtime kernel: `rounds` complete §3.3.2 resolution rounds among five
/// `XrrResolution` states that all raise, their messages relayed through
/// an in-memory queue until every state holds the resolving exception.
/// No network, no threads, no virtual time.
///
/// # Panics
///
/// If a round ends with a state unresolved (a protocol bug).
#[must_use]
pub fn protocol_round_n5(rounds: u32) -> Duration {
    const N: u32 = 5;
    let prims = primitives(N as usize);
    let graph = full_lattice(&prims);
    let group: Vec<ThreadId> = (0..N).map(ThreadId::new).collect();
    let raised: Vec<Exception> = group
        .iter()
        .zip(&prims)
        .map(|(&t, e)| Exception::new(e.clone()).with_origin(t))
        .collect();
    let ctx = |me: ThreadId| ProtoCtx {
        me,
        action: ActionId::top_level(1),
        group: &group,
        graph: &graph,
    };
    let mut queue: Vec<(ThreadId, Message)> = Vec::new();
    let started = Instant::now();
    for _ in 0..rounds {
        let mut states: Vec<Box<dyn ResolverState>> =
            group.iter().map(|_| XrrResolution.new_state()).collect();
        let mut resolved = 0u32;
        for (i, e) in raised.iter().enumerate() {
            let actions = states[i].on_event(&ctx(group[i]), ProtoEvent::LocalRaise(e));
            resolved += u32::from(actions.resolved.is_some());
            queue.extend(actions.outbound);
        }
        while let Some((to, msg)) = queue.pop() {
            let actions = states[to.index()].on_event(&ctx(to), ProtoEvent::Control(&msg));
            resolved += u32::from(actions.resolved.is_some());
            queue.extend(actions.outbound);
        }
        assert_eq!(black_box(resolved), N, "every state must resolve");
    }
    started.elapsed()
}

/// exgraph kernel: builds the full conjunction lattice over five
/// primitives `builds` times.
#[must_use]
pub fn lattice_build_n5(builds: u32) -> Duration {
    let prims = primitives(5);
    let started = Instant::now();
    for _ in 0..builds {
        black_box(full_lattice(black_box(&prims)));
    }
    started.elapsed()
}

/// exgraph kernel: resolves five concurrently raised exceptions in that
/// lattice `resolves` times.
#[must_use]
pub fn resolve_n5(resolves: u32) -> Duration {
    let prims = primitives(5);
    let graph = full_lattice(&prims);
    let started = Instant::now();
    for _ in 0..resolves {
        black_box(graph.resolve(black_box(&prims)));
    }
    started.elapsed()
}

/// telemetry kernel: `records` `Histogram::record` calls over values
/// spread across the octaves.
#[must_use]
pub fn hist_record(records: u32) -> Duration {
    let mut hist = Histogram::new();
    let mut v: u64 = 1;
    let started = Instant::now();
    for _ in 0..records {
        // A multiplicative walk visits every octave up to ~2^40.
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(black_box(v >> 24));
    }
    black_box(hist.count());
    started.elapsed()
}
