//! The five workloads. Each is a closed loop with one client: a round
//! runs a fixed set of inputs to completion, and every round of a run
//! repeats the same inputs, so rounds are comparable with each other and
//! a round whose outputs differ from the first is a determinism failure.
//!
//! * `mixed`, `objects`, `crash` call the harness's `sweep()` over three
//!   scenario spaces that load the layers in different proportions;
//! * `paper` runs the paper's own §5.2/§5.3 experiments on the bare
//!   runtime, with no harness around them;
//! * `posthoc` runs only the trace readers, over traces made in set-up.
//!
//! `perf/README.md` says why each exists and what it predicts.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::paper_values::{FIG12_TMMAX, FIG12_TRES, FIG9_TABO, FIG9_TMMAX, FIG9_TRESO};
use crate::spans::SpanLog;
use crate::stats::{percentile, Fnv};
use crate::surface::{self, Algo, Arena, Counts, Failure, PaperRun, Recorder, Run, Space, Virt};
use crate::windows;

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `sweep()` over the acceptance-sweep space.
    Mixed,
    /// `sweep()` over the object-heavy space.
    Objects,
    /// `sweep()` over the multi-crash space.
    Crash,
    /// The paper's §5.2/§5.3 experiments on the bare runtime.
    Paper,
    /// The trace readers alone.
    Posthoc,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::Mixed,
        Workload::Objects,
        Workload::Crash,
        Workload::Paper,
        Workload::Posthoc,
    ];

    /// The name `BENCHMARK.json` declares.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::Objects => "objects",
            Workload::Crash => "crash",
            Workload::Paper => "paper",
            Workload::Posthoc => "posthoc",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_sweep(self) -> bool {
        matches!(self, Workload::Mixed | Workload::Objects | Workload::Crash)
    }
}

/// Whether per-layer metric `metric` measures something `workload`
/// exercises. Where it does not, the metric is reported as 0: every run
/// reports every declared name, and this table says which zeros mean
/// "not this workload's layer". It is also the layer-separation claim
/// the name-consistency test checks: an applicable metric may not read 0
/// and an inapplicable one must.
#[must_use]
pub fn applies(metric: &str, workload: Workload) -> bool {
    use Workload::{Crash, Mixed, Objects, Paper, Posthoc};
    let on = |set: &[Workload]| set.contains(&workload);
    if metric == "host.pinned" {
        // 0 is a legitimate reading where the host does not allow pinning.
        return false;
    }
    if metric.starts_with("host.")
        || metric == "trace_overhead_share"
        || ["simnet.pingpong", "simnet.sleep_wake", "runtime.protocol."]
            .iter()
            .any(|kernel| metric.starts_with(kernel))
        || metric.starts_with("exgraph.")
        || metric.starts_with("telemetry.")
    {
        return true;
    }
    match metric {
        // The harness configures no acknowledgment timeout, so its runs
        // never retransmit; the counter is kept for the day they do.
        "simnet.retransmissions_per_seed" => false,
        "simnet.dropped_per_seed"
        | "runtime.view_changes_per_seed"
        | "runtime.timeouts_per_seed"
        | "runtime.rejoins_per_seed" => on(&[Mixed, Crash]),
        // The posthoc traces are mixed plans, crashes included.
        "crash_resolve_virt_p90_s" | "crash_detect_virt_p50_s" => on(&[Mixed, Crash, Posthoc]),
        "harness.oracle.check_us"
        | "harness.oracle.check.share"
        | "harness.metrics.record_us"
        | "harness.metrics.record.share"
        | "harness.sweep.coverage_us"
        | "harness.sweep.coverage.share"
        | "harness.op.self.share"
        | "harness.seed_wall_p50_us"
        | "harness.seed_wall_p90_us"
        | "harness.seed_wall_p99_us"
        | "harness.seed_wall_max_us"
        | "harness.trace.entries_per_seed"
        | "resolve_virt_p50_ms"
        | "resolve_virt_p99_ms"
        | "run_virt_p50_s" => on(&[Mixed, Objects, Crash, Posthoc]),
        // Seed 0 can be the slowest, so its id may legitimately read 0.
        "harness.seed_wall_max_seed" => false,
        "harness.spans.tree_us"
        | "harness.spans.tree.share"
        | "harness.trace.fingerprint_us"
        | "harness.trace.fingerprint.share"
        | "harness.trace.fingerprint_ns_per_entry" => on(&[Posthoc]),
        "virt_s_per_op" => true,
        "fig9_err_max" | "fig12_err_max" => on(&[Paper]),
        // A count of defects: 0 is the healthy reading everywhere.
        "msg_formula_mismatches" | "failed_share" => false,
        _ if metric.starts_with("bench.") || metric.ends_with("_per_run") => on(&[Paper]),
        _ => workload.is_sweep(),
    }
}

/// What one round produced.
#[derive(Debug)]
pub struct Round {
    /// Ops attempted.
    pub ops: u64,
    /// FNV-1a digest of the round's deterministic outputs; equal across
    /// rounds of one run or the round has failed.
    pub digest: u64,
    /// Ops whose outputs were wrong.
    pub failures: Vec<Failure>,
}

/// Virtual-time means of a round: exact for a seed.
#[derive(Debug, Clone, Copy)]
pub struct VirtPerOp {
    /// Mean virtual seconds simulated per op. Where plans crash this is
    /// almost entirely presume-ƒ timeout slack (~3 M virtual seconds per
    /// crash plan, heavy-tailed), so it differs by up to a quarter between
    /// seed windows: reported per layer, not bounded.
    pub run_s: f64,
    /// Mean raise→resolve latency where nothing crashed (virtual ms). Not
    /// touched by that slack, so it moves when the crash-free protocol
    /// does and differs by a few percent between seed windows.
    pub resolve_ms: f64,
    /// Mean messages sent per op, all classes.
    pub msgs: f64,
}

/// A workload's entry points.
pub trait Bench {
    /// Builds whatever the rounds need and discards what an earlier call
    /// built, so set-up can be timed more than once in a run.
    fn set_up(&mut self);

    /// One round with no instrumentation: what the end-to-end pass times.
    fn round(&mut self) -> Round;

    /// One round over the same inputs with a span around every call into
    /// a layer, accumulating the per-layer counts.
    fn traced_round(&mut self, log: &mut SpanLog) -> Round;

    /// What the modelled protocol cost in the last round, as opposed to
    /// what simulating it cost.
    fn virt_per_op(&self) -> VirtPerOp;

    /// The per-layer metrics the traced rounds so far support.
    fn layer_metrics(&self, log: &SpanLog, out: &mut Metrics);
}

/// Seeds per window (see [`crate::windows`]); the largest round of any
/// sweep workload.
const WINDOW_SEEDS: u64 = 3000;

/// The first seed of the vetted window `--seed seed` selects.
fn window_start(clean: &[u64; 64], seed: u64) -> u64 {
    clean[(seed % 64) as usize] * WINDOW_SEEDS
}

/// Builds `workload` for `--seed seed`; `smoke` shrinks every round to a
/// tenth so the whole suite fits a test.
#[must_use]
pub fn build(workload: Workload, seed: u64, smoke: bool, out_dir: PathBuf) -> Box<dyn Bench> {
    let scale = |n: u64| if smoke { n / 10 } else { n };
    let sweep = |space: Space, clean: &[u64; 64], seeds: u64| -> Box<dyn Bench> {
        Box::new(SweepBench {
            space,
            start: window_start(clean, seed),
            seeds: scale(seeds),
            corpus: out_dir.join("corpus"),
            last_virt: Virt::default(),
            traced: SweepTraced::default(),
        })
    };
    match workload {
        Workload::Mixed => sweep(Space::Mixed, &windows::MIXED, 3000),
        Workload::Objects => sweep(Space::Objects, &windows::OBJECTS, 2000),
        Workload::Crash => sweep(Space::Crash, &windows::CRASH, 3000),
        Workload::Paper => Box::new(PaperBench::new(seed % 64, if smoke { 1 } else { 4 })),
        Workload::Posthoc => Box::new(PosthocBench {
            start: window_start(&windows::MIXED, seed),
            traces: scale(2000),
            passes: if smoke { 1 } else { 8 },
            runs: Vec::new(),
            last_virt: Virt::default(),
            entries: 0,
        }),
    }
}

fn virt_per_op(virt: &Virt) -> VirtPerOp {
    let runs = virt.runs.max(1) as f64;
    VirtPerOp {
        run_s: virt.run_ns_sum as f64 / 1e9 / runs,
        resolve_ms: virt.resolve_ns_sum as f64 / 1e6 / virt.resolves.max(1) as f64,
        msgs: virt.msgs as f64 / runs,
    }
}

/// The exact virtual-time metrics, under the names the issue gave them.
fn virt_metrics(virt: &Virt, out: &mut Metrics) {
    out.insert("virt_s_per_op", virt_per_op(virt).run_s);
    out.insert("resolve_virt_p50_ms", virt.resolve_p50_ns as f64 / 1e6);
    out.insert("resolve_virt_p99_ms", virt.resolve_p99_ns as f64 / 1e6);
    out.insert("run_virt_p50_s", virt.run_p50_ns as f64 / 1e9);
    out.insert(
        "crash_resolve_virt_p90_s",
        virt.crash_resolve_p90_ns as f64 / 1e9,
    );
    out.insert(
        "crash_detect_virt_p50_s",
        virt.crash_detect_p50_ns as f64 / 1e9,
    );
}

/// Mean microseconds per op and share of the op span for each layer call,
/// plus the op span's own percentiles and self time.
fn span_metrics(
    log: &SpanLog,
    stages: &[(&'static str, &'static str, &'static str)],
    out: &mut Metrics,
) {
    let mut walls: Vec<(u64, u64)> = log.roots().map(|s| (s.dur_ns(), s.op)).collect();
    if walls.is_empty() {
        return;
    }
    let ops = walls.len() as f64;
    let root_ns: u64 = walls.iter().map(|&(ns, _)| ns).sum();
    let totals = log.child_totals();
    let mut children_ns = 0u64;
    for &(span, us_name, share_name) in stages {
        let ns = totals.get(span).map_or(0, |t| t.ns);
        children_ns += ns;
        out.insert(us_name, ns as f64 / 1e3 / ops);
        out.insert(share_name, ns as f64 / root_ns as f64);
    }
    out.insert(
        "harness.op.self.share",
        root_ns.saturating_sub(children_ns) as f64 / root_ns as f64,
    );
    walls.sort_unstable();
    let sorted: Vec<u64> = walls.iter().map(|&(ns, _)| ns).collect();
    out.insert(
        "harness.seed_wall_p50_us",
        percentile(&sorted, 50) as f64 / 1e3,
    );
    out.insert(
        "harness.seed_wall_p90_us",
        percentile(&sorted, 90) as f64 / 1e3,
    );
    out.insert(
        "harness.seed_wall_p99_us",
        percentile(&sorted, 99) as f64 / 1e3,
    );
    let &(max_ns, max_op) = walls.last().expect("non-empty");
    out.insert("harness.seed_wall_max_us", max_ns as f64 / 1e3);
    out.insert("harness.seed_wall_max_seed", max_op as f64);
}

const GENERATE: &str = "harness.plan.generate";
const EXECUTE: &str = "harness.exec.execute";
const CHECK: &str = "harness.oracle.check";
const RECORD: &str = "harness.metrics.record";
const COVERAGE: &str = "harness.sweep.coverage";
const SPAN_TREE: &str = "harness.spans.tree";
const FINGERPRINT: &str = "harness.trace.fingerprint";

// ------------------------------------------------------------- sweeps

#[derive(Default)]
struct SweepTraced {
    arena: Arena,
    counts: Counts,
    acquisitions: u64,
    ops: u64,
    virt: Virt,
}

struct SweepBench {
    space: Space,
    start: u64,
    seeds: u64,
    corpus: PathBuf,
    last_virt: Virt,
    traced: SweepTraced,
}

impl Bench for SweepBench {
    fn set_up(&mut self) {
        // `sweep()` builds its own per-worker arena on every call; only
        // the traced loop keeps one across rounds, as a sweep worker does
        // across seeds.
        self.traced = SweepTraced::default();
    }

    fn round(&mut self) -> Round {
        let sweep = surface::sweep(self.space, self.start, self.seeds, self.corpus.clone());
        let mut digest = Fnv::default();
        digest.bytes(sweep.digest_input().as_bytes());
        self.last_virt = sweep.virt();
        Round {
            ops: sweep.ops(),
            digest: digest.finish(),
            failures: sweep.failures(),
        }
    }

    fn traced_round(&mut self, log: &mut SpanLog) -> Round {
        let space = self.space;
        let traced = &mut self.traced;
        let mut recorder = Recorder::default();
        let mut failures = Vec::new();
        let mut entries = 0u64;
        for seed in self.start..self.start + self.seeds {
            let root = log.open("seed", seed, None);
            let plan = log.child(GENERATE, root, || surface::generate(seed, space));
            let run = log.child(EXECUTE, root, || surface::execute(&plan, &mut traced.arena));
            let violations = log.child(CHECK, root, || surface::check(&run));
            log.child(RECORD, root, || recorder.record(&run));
            let acquisitions = log.child(COVERAGE, root, || surface::coverage(&run));
            let counts = surface::counts(&run);
            surface::recycle(run, &mut traced.arena);
            log.close(root);
            entries += counts.entries;
            traced.counts += counts;
            traced.acquisitions += acquisitions;
            if !violations.is_empty() {
                failures.push(Failure {
                    seed,
                    what: violations.join("; "),
                    replay: format!("(seed {seed} of the {space:?} space; re-run this workload untraced for a corpus entry)"),
                });
            }
        }
        traced.ops += self.seeds;
        traced.virt = recorder.virt();
        let mut digest = Fnv::default();
        digest.bytes(format!("{:?}", traced.virt).as_bytes());
        digest.word(entries);
        Round {
            ops: self.seeds,
            digest: digest.finish(),
            failures,
        }
    }

    fn virt_per_op(&self) -> VirtPerOp {
        virt_per_op(&self.last_virt)
    }

    fn layer_metrics(&self, log: &SpanLog, out: &mut Metrics) {
        span_metrics(
            log,
            &[
                (
                    GENERATE,
                    "harness.plan.generate_us",
                    "harness.plan.generate.share",
                ),
                (
                    EXECUTE,
                    "harness.exec.execute_us",
                    "harness.exec.execute.share",
                ),
                (
                    CHECK,
                    "harness.oracle.check_us",
                    "harness.oracle.check.share",
                ),
                (
                    RECORD,
                    "harness.metrics.record_us",
                    "harness.metrics.record.share",
                ),
                (
                    COVERAGE,
                    "harness.sweep.coverage_us",
                    "harness.sweep.coverage.share",
                ),
            ],
            out,
        );
        let t = &self.traced;
        let ops = t.ops.max(1) as f64;
        let c = &t.counts;
        let per_seed = [
            ("harness.trace.entries_per_seed", c.entries),
            ("simnet.parks_per_seed", c.parks),
            ("simnet.wakes_per_seed", c.wakes),
            ("simnet.msgs_per_seed", c.msgs),
            ("simnet.retransmissions_per_seed", c.retransmissions),
            ("simnet.dropped_per_seed", c.dropped),
            ("runtime.recoveries_per_seed", c.recoveries),
            ("runtime.resolutions_per_seed", c.resolutions),
            ("runtime.aborts_per_seed", c.aborts),
            ("runtime.view_changes_per_seed", c.view_changes),
            ("runtime.timeouts_per_seed", c.timeouts),
            ("runtime.rejoins_per_seed", c.rejoins),
            ("runtime.objects.acquisitions_per_seed", t.acquisitions),
        ];
        for (name, total) in per_seed {
            out.insert(name, total as f64 / ops);
        }
        // Host time per simulated event: what one park, message or trace
        // entry costs to simulate, all of execute charged to each in turn.
        let execute_us = out.get("harness.exec.execute_us").copied().unwrap_or(0.0);
        let per_event = |total: u64| {
            if total == 0 {
                0.0
            } else {
                execute_us * ops / total as f64
            }
        };
        out.insert("harness.exec.us_per_park", per_event(c.parks));
        out.insert("harness.exec.us_per_msg", per_event(c.msgs));
        out.insert("harness.exec.us_per_entry", per_event(c.entries));
        virt_metrics(&t.virt, out);
    }
}

// -------------------------------------------------------------- paper

#[derive(Debug, Clone, Copy)]
enum Point {
    /// A Figure 9 point and the paper's total for it.
    Fig9 {
        t_mmax: f64,
        t_abo: f64,
        t_reso: f64,
        paper_s: f64,
    },
    /// A Figure 12 point under one algorithm and the paper's total.
    Fig12 {
        t_mmax: f64,
        t_res: f64,
        algo: Algo,
        paper_s: f64,
    },
    /// All `n` threads raise at once: the message count has a closed form.
    Msgs { n: u32, algo: Algo },
}

impl Point {
    fn span(self) -> &'static str {
        match self {
            Point::Fig9 { .. } => "bench.nested_abort",
            Point::Fig12 { algo, .. } | Point::Msgs { algo, .. } => match algo {
                Algo::Xrr98 => "bench.simraise_xrr98",
                Algo::Cr86 => "bench.simraise_cr86",
                Algo::Rom96 => "bench.simraise_rom96",
            },
        }
    }

    /// Seeds are the scenarios' own defaults (42 and 7) moved by the
    /// workload's offset.
    fn run(self, offset: u64) -> PaperRun {
        match self {
            Point::Fig9 {
                t_mmax,
                t_abo,
                t_reso,
                ..
            } => surface::nested_abort(t_mmax, t_abo, t_reso, 42 + offset),
            Point::Fig12 {
                t_mmax,
                t_res,
                algo,
                ..
            } => surface::simultaneous_raise(t_mmax, t_res, 3, 7 + offset, algo),
            Point::Msgs { n, algo } => surface::simultaneous_raise(1.0, 0.3, n, 7 + offset, algo),
        }
    }
}

/// Resolution messages when all `n` participants raise at once (§3.3.3,
/// §5.3): ours `(N+1)(N−1)`, Rom96 `3N(N−1)`, CR86 `N²(N−1)`.
fn predicted_messages(n: u32, algo: Algo) -> u64 {
    let n = u64::from(n);
    match algo {
        Algo::Xrr98 => (n + 1) * (n - 1),
        Algo::Rom96 => 3 * n * (n - 1),
        Algo::Cr86 => n * n * (n - 1),
    }
}

struct PaperBench {
    offset: u64,
    passes: u32,
    points: Vec<Point>,
    /// The last pass's runs, one per point.
    last: Vec<PaperRun>,
    traced_counts: Counts,
    traced_runs: u64,
}

impl PaperBench {
    fn new(offset: u64, passes: u32) -> PaperBench {
        let mut points = Vec::new();
        for &(t_mmax, paper_s) in FIG9_TMMAX {
            points.push(Point::Fig9 {
                t_mmax,
                t_abo: 0.1,
                t_reso: 0.3,
                paper_s,
            });
        }
        for &(t_abo, paper_s) in FIG9_TABO {
            points.push(Point::Fig9 {
                t_mmax: 0.2,
                t_abo,
                t_reso: 0.3,
                paper_s,
            });
        }
        for &(t_reso, paper_s) in FIG9_TRESO {
            points.push(Point::Fig9 {
                t_mmax: 0.2,
                t_abo: 0.1,
                t_reso,
                paper_s,
            });
        }
        for &(t_mmax, ours, cr) in FIG12_TMMAX {
            points.push(Point::Fig12 {
                t_mmax,
                t_res: 0.3,
                algo: Algo::Xrr98,
                paper_s: ours,
            });
            points.push(Point::Fig12 {
                t_mmax,
                t_res: 0.3,
                algo: Algo::Cr86,
                paper_s: cr,
            });
        }
        for &(t_res, ours, cr) in FIG12_TRES {
            points.push(Point::Fig12 {
                t_mmax: 1.0,
                t_res,
                algo: Algo::Xrr98,
                paper_s: ours,
            });
            points.push(Point::Fig12 {
                t_mmax: 1.0,
                t_res,
                algo: Algo::Cr86,
                paper_s: cr,
            });
        }
        for n in 2..=6 {
            for algo in [Algo::Xrr98, Algo::Rom96, Algo::Cr86] {
                points.push(Point::Msgs { n, algo });
            }
        }
        PaperBench {
            offset,
            passes,
            points,
            last: Vec::new(),
            traced_counts: Counts::default(),
            traced_runs: 0,
        }
    }

    fn passes(&mut self, mut log: Option<&mut SpanLog>) -> Round {
        let mut digest = Fnv::default();
        let mut failures = Vec::new();
        for _ in 0..self.passes {
            self.last.clear();
            for (index, &point) in self.points.iter().enumerate() {
                let run = match log.as_deref_mut() {
                    Some(log) => {
                        let span = log.open(point.span(), index as u64, None);
                        let run = point.run(self.offset);
                        log.close(span);
                        self.traced_counts += run.counts;
                        self.traced_runs += 1;
                        run
                    }
                    None => point.run(self.offset),
                };
                digest.word(run.virt_s.to_bits());
                digest.word(run.resolution_msgs);
                let wrong = if !run.ok {
                    Some(String::from("a participant thread failed"))
                } else if let Point::Msgs { n, algo } = point {
                    let predicted = predicted_messages(n, algo);
                    (run.resolution_msgs != predicted).then(|| {
                        format!(
                            "{} resolution messages for N={n} under {algo:?}, closed form says {predicted}",
                            run.resolution_msgs
                        )
                    })
                } else {
                    None
                };
                if let Some(what) = wrong {
                    failures.push(Failure {
                        seed: index as u64,
                        what: format!("{point:?}: {what}"),
                        replay: String::from("re-run this workload with the same --seed"),
                    });
                }
                self.last.push(run);
            }
        }
        Round {
            ops: u64::from(self.passes) * self.points.len() as u64,
            digest: digest.finish(),
            failures,
        }
    }

    /// Max over the points of one figure of |measured / paper − 1|.
    fn fidelity(&self, fig9: bool) -> f64 {
        self.points
            .iter()
            .zip(&self.last)
            .filter_map(|(point, run)| match *point {
                Point::Fig9 { paper_s, .. } if fig9 => Some((run.virt_s / paper_s - 1.0).abs()),
                Point::Fig12 { paper_s, .. } if !fig9 => Some((run.virt_s / paper_s - 1.0).abs()),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

impl Bench for PaperBench {
    fn set_up(&mut self) {
        self.last.clear();
        self.traced_counts = Counts::default();
        self.traced_runs = 0;
    }

    fn round(&mut self) -> Round {
        self.passes(None)
    }

    fn traced_round(&mut self, log: &mut SpanLog) -> Round {
        self.passes(Some(log))
    }

    fn virt_per_op(&self) -> VirtPerOp {
        let runs = self.last.len().max(1) as f64;
        // No trace is recorded here, but §5.3 is itself a raise→resolve
        // measurement: all threads raise at once and the run ends when
        // they have resolved. Its runs under the paper's algorithm stand
        // in for the harness's crash-free latency.
        let resolves: Vec<f64> = self
            .points
            .iter()
            .zip(&self.last)
            .filter_map(|(point, run)| match point {
                Point::Fig12 {
                    algo: Algo::Xrr98, ..
                }
                | Point::Msgs {
                    algo: Algo::Xrr98, ..
                } => Some(run.virt_s),
                _ => None,
            })
            .collect();
        VirtPerOp {
            run_s: self.last.iter().map(|r| r.virt_s).sum::<f64>() / runs,
            resolve_ms: resolves.iter().sum::<f64>() * 1e3 / resolves.len().max(1) as f64,
            msgs: self.last.iter().map(|r| r.counts.msgs).sum::<u64>() as f64 / runs,
        }
    }

    fn layer_metrics(&self, log: &SpanLog, out: &mut Metrics) {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in log.roots() {
            let total = totals.entry(span.name).or_default();
            total.0 += 1;
            total.1 += span.dur_ns();
        }
        for (span, metric) in [
            ("bench.nested_abort", "bench.nested_abort_ms"),
            ("bench.simraise_xrr98", "bench.simraise_xrr98_ms"),
            ("bench.simraise_cr86", "bench.simraise_cr86_ms"),
            ("bench.simraise_rom96", "bench.simraise_rom96_ms"),
        ] {
            if let Some(&(count, ns)) = totals.get(span) {
                out.insert(metric, ns as f64 / 1e6 / count as f64);
            }
        }
        let runs = self.traced_runs.max(1) as f64;
        out.insert(
            "simnet.parks_per_run",
            self.traced_counts.parks as f64 / runs,
        );
        out.insert("simnet.msgs_per_run", self.traced_counts.msgs as f64 / runs);
        out.insert(
            "runtime.resolutions_per_run",
            self.traced_counts.resolutions as f64 / runs,
        );
        out.insert("virt_s_per_op", self.virt_per_op().run_s);
        out.insert("fig9_err_max", self.fidelity(true));
        out.insert("fig12_err_max", self.fidelity(false));
        let mismatches = self
            .points
            .iter()
            .zip(&self.last)
            .filter(|(point, run)| match **point {
                Point::Msgs { n, algo } => run.resolution_msgs != predicted_messages(n, algo),
                _ => false,
            })
            .count();
        out.insert("msg_formula_mismatches", mismatches as f64);
    }
}

// ------------------------------------------------------------ posthoc

struct PosthocBench {
    start: u64,
    traces: u64,
    passes: u32,
    runs: Vec<Run>,
    last_virt: Virt,
    entries: u64,
}

impl PosthocBench {
    fn passes(&mut self, mut log: Option<&mut SpanLog>) -> Round {
        let mut digest = Fnv::default();
        let mut failures = Vec::new();
        for _ in 0..self.passes {
            let mut recorder = Recorder::default();
            // XOR within a pass (order-free), FNV across passes: XOR
            // alone would cancel an even number of identical passes.
            let mut fingerprints = 0u64;
            let mut derived = 0u64;
            for (run, seed) in self.runs.iter().zip(self.start..) {
                let (violations, acquisitions, spans, fingerprint) = match log.as_deref_mut() {
                    Some(log) => {
                        let root = log.open("trace", seed, None);
                        let v = log.child(CHECK, root, || surface::check(run));
                        log.child(RECORD, root, || recorder.record(run));
                        let a = log.child(COVERAGE, root, || surface::coverage(run));
                        let s = log.child(SPAN_TREE, root, || surface::span_tree(run));
                        let f = log.child(FINGERPRINT, root, || surface::fingerprint(run));
                        log.close(root);
                        (v, a, s, f)
                    }
                    None => {
                        let v = surface::check(run);
                        recorder.record(run);
                        (
                            v,
                            surface::coverage(run),
                            surface::span_tree(run),
                            surface::fingerprint(run),
                        )
                    }
                };
                fingerprints ^= fingerprint;
                derived += acquisitions + spans as u64;
                if !violations.is_empty() {
                    failures.push(Failure {
                        seed,
                        what: violations.join("; "),
                        replay: format!("cargo run -p caa-harness --example replay -- {seed}"),
                    });
                }
            }
            self.last_virt = recorder.virt();
            digest.word(fingerprints);
            digest.word(derived);
            digest.bytes(format!("{:?}", self.last_virt).as_bytes());
        }
        Round {
            ops: u64::from(self.passes) * self.runs.len() as u64,
            digest: digest.finish(),
            failures,
        }
    }
}

impl Bench for PosthocBench {
    fn set_up(&mut self) {
        // Drop the previous set first: peak memory is one set, not two.
        self.runs = Vec::new();
        let mut arena = Arena::default();
        self.runs = (self.start..self.start + self.traces)
            .map(|seed| surface::execute(&surface::generate(seed, Space::Mixed), &mut arena))
            .collect();
        self.entries = self.runs.iter().map(|r| surface::counts(r).entries).sum();
    }

    fn round(&mut self) -> Round {
        self.passes(None)
    }

    fn traced_round(&mut self, log: &mut SpanLog) -> Round {
        self.passes(Some(log))
    }

    fn virt_per_op(&self) -> VirtPerOp {
        virt_per_op(&self.last_virt)
    }

    fn layer_metrics(&self, log: &SpanLog, out: &mut Metrics) {
        span_metrics(
            log,
            &[
                (
                    CHECK,
                    "harness.oracle.check_us",
                    "harness.oracle.check.share",
                ),
                (
                    RECORD,
                    "harness.metrics.record_us",
                    "harness.metrics.record.share",
                ),
                (
                    COVERAGE,
                    "harness.sweep.coverage_us",
                    "harness.sweep.coverage.share",
                ),
                (
                    SPAN_TREE,
                    "harness.spans.tree_us",
                    "harness.spans.tree.share",
                ),
                (
                    FINGERPRINT,
                    "harness.trace.fingerprint_us",
                    "harness.trace.fingerprint.share",
                ),
            ],
            out,
        );
        let traces = self.runs.len().max(1) as f64;
        let entries_per_trace = self.entries as f64 / traces;
        out.insert("harness.trace.entries_per_seed", entries_per_trace);
        if let Some(us) = out.get("harness.trace.fingerprint_us").copied() {
            out.insert(
                "harness.trace.fingerprint_ns_per_entry",
                us * 1e3 / entries_per_trace.max(1.0),
            );
        }
        virt_metrics(&self.last_virt, out);
    }
}
