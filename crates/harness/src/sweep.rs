//! Seed-sweep exploration: fan thousands of seeds across OS worker threads,
//! check every oracle on every trace, and report violating seeds for
//! one-command replay.
//!
//! Each seed is an independent, fully deterministic simulation; the sweep
//! is embarrassingly parallel and scales with the host's cores while the
//! simulated time stays virtual. A violating seed reproduces exactly with
//! [`run_plan_checked`] over the plan its seed generates (or `cargo run
//! --release -p caa-bench --bin caa -- replay [--space <name>] <seed>`;
//! `caa sweep [--space <name>] --seeds N` is this module from the command
//! line).
//! Beyond one host, a seed range splits across processes or machines with
//! [`SweepConfig::shard`] (`--shard k/n` on `caa sweep|bench|fuzz|hashes`):
//! shards are disjoint, deterministic and together cover the range exactly.
//! Every sweep also aggregates a [`PathCoverage`] report counting which
//! protocol paths (undo rounds, ƒ cascades, exit races, exit/resolution
//! timeouts, view changes, …) the explored traces actually hit, so untested
//! paths are visible instead of silently assumed covered.
//!
//! This module also owns the tooling's one worker pool, [`run_workers`]:
//! the scoped threads, the atomic ticket, the worker count and the
//! [`Shard`] filter. [`sweep`], the fuzz loop's batches and `caa hashes`
//! each hand it the body one worker runs with its own [`ExecutionArena`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use caa_core::inline::InlineVec;
use caa_runtime::observe::EventKind;

use crate::arena::ExecutionArena;
use crate::edit::Recipe;
use crate::exec::{execute_owned, RunArtifacts};
use crate::metrics::{metrics_json, SweepMetrics, WallCounter};
use crate::oracle::{check_replay, check_run, Violation};
use crate::plan::{ScenarioConfig, ScenarioPlan, Space};
use crate::trace::{hash64, EntryKind, Trace};

/// One shard of a deterministically split seed range: this process
/// explores the seeds whose offset into the range satisfies
/// `offset % count == index`. Every shard of the same range is disjoint,
/// and the union over `index = 0..count` covers the range exactly — so CI
/// jobs or multiple machines can split one sweep without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard number (`< count`).
    pub index: u64,
    /// Total number of shards the range is split into (≥ 1).
    pub count: u64,
}

/// Parses the `k/n` form used by the CLI flags (e.g. `--shard 2/8`); the
/// error is a human-readable description of the malformed value.
impl std::str::FromStr for Shard {
    type Err = String;

    fn from_str(text: &str) -> Result<Shard, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("expected k/n, got {text:?}"))?;
        let shard = Shard {
            index: index
                .trim()
                .parse()
                .map_err(|e| format!("bad index: {e}"))?,
            count: count
                .trim()
                .parse()
                .map_err(|e| format!("bad count: {e}"))?,
        };
        if shard.count == 0 || shard.index >= shard.count {
            return Err(format!(
                "shard index {} out of range for {} shard(s)",
                shard.index, shard.count
            ));
        }
        Ok(shard)
    }
}

/// Configuration of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// First seed (inclusive).
    pub start_seed: u64,
    /// Number of seeds in the (unsharded) range.
    pub seeds: u64,
    /// Worker OS threads; 0 = one per available core.
    pub workers: usize,
    /// Scenario-space bounds.
    pub scenario: ScenarioConfig,
    /// Execute every seed twice and require byte-identical traces.
    pub check_replay: bool,
    /// Where violating seeds persist their corpus entry
    /// (`<dir>/<seed>/` with the scenario config, plan summary, trace
    /// bytes and violations). `None` disables persistence. The default
    /// (`target/caa-corpus`, relative to the working directory) makes
    /// every violating sweep reproducible via `caa replay --corpus <entry>`,
    /// custom [`ScenarioConfig`]s included.
    pub corpus_dir: Option<PathBuf>,
    /// Restrict this process to one shard of the seed range (`None` runs
    /// the whole range). Sharding is deterministic: the same
    /// `(start_seed, seeds, shard)` triple explores the same seeds on any
    /// machine.
    pub shard: Option<Shard>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            start_seed: 0,
            seeds: 1000,
            workers: 0,
            scenario: ScenarioConfig::default(),
            check_replay: true,
            corpus_dir: Some(PathBuf::from("target/caa-corpus")),
            shard: None,
        }
    }
}

/// How the reports spell the `caa` binary in the commands they print.
pub(crate) const CAA: &str = "cargo run --release -p caa-bench --bin caa --";

/// The outcome of one seed.
#[derive(Debug)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// Oracle violations (empty = the seed passed).
    pub violations: Vec<Violation>,
    /// The run's artifacts (plan, trace, report).
    pub artifacts: RunArtifacts,
    /// The persisted corpus entry, when the sweep dumped one (violating
    /// seeds only, and only with [`SweepConfig::corpus_dir`] set).
    pub corpus: Option<PathBuf>,
    /// The named space the sweep generated the seed in (violating seeds
    /// only, and only when [`SweepConfig::scenario`] is a row of
    /// [`SPACES`](crate::plan::SPACES)).
    pub space: Option<Space>,
}

impl SeedResult {
    /// Whether every oracle passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The command reproducing this seed's run and oracle verdicts: from
    /// its persisted corpus entry, which also compares the trace byte for
    /// byte, or else from the bare seed, with `--space` naming its
    /// [`SeedResult::space`] unless that is the default (or unknown).
    #[must_use]
    pub fn replay_command(&self) -> String {
        match (&self.corpus, self.space) {
            (Some(entry), _) => format!("{CAA} replay --corpus {}", entry.display()),
            (None, Some(space)) if !space.is_default() => {
                format!("{CAA} replay --space {} {}", space.name, self.seed)
            }
            (None, _) => format!("{CAA} replay {}", self.seed),
        }
    }
}

/// Persists one violating seed's corpus entry under `<dir>/<seed>/`
/// ([`write_corpus_files`], an unedited recipe).
///
/// Entries never clobber a *different* config's repro: when `<dir>/<seed>`
/// already records another config (two sweeps sharing a corpus dir), the
/// entry lands at `<dir>/<seed>-<config hash>` instead.
fn dump_corpus(
    dir: &Path,
    scenario: &ScenarioConfig,
    result: &SeedResult,
) -> std::io::Result<PathBuf> {
    let kv = scenario.to_kv();
    let mut entry = dir.join(result.seed.to_string());
    match std::fs::read_to_string(entry.join("config.txt")) {
        Ok(existing) if existing != kv => {
            // The config's hash: a stable, collision-resistant-enough
            // discriminator for a handful of configs per corpus dir.
            let hash = hash64(kv.as_bytes());
            entry = dir.join(format!("{}-{:08x}", result.seed, hash as u32));
        }
        _ => {}
    }
    write_corpus_files(&entry, &kv, &Recipe::base(result.seed), result)?;
    Ok(entry)
}

/// Writes a corpus entry into `entry`, creating it: what rebuilds the
/// plan (`config.txt`, `recipe.txt` — [`load_corpus_plan`] reads them
/// back) and what the run produced (plan summary, trace bytes, oracle
/// verdicts). The one writer of the one corpus format: the sweep's
/// violating seeds, the fuzz loop's finds and `caa replay --bisect`'s
/// shrunk plans all go through it.
///
/// [`load_corpus_plan`]: crate::edit::load_corpus_plan
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_corpus_files(
    entry: &Path,
    config_kv: &str,
    recipe: &Recipe,
    result: &SeedResult,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    std::fs::create_dir_all(entry)?;
    std::fs::write(entry.join("config.txt"), config_kv)?;
    std::fs::write(entry.join("recipe.txt"), recipe.to_string())?;
    let mut plan = result.artifacts.plan.describe();
    plan.push('\n');
    std::fs::write(entry.join("plan.txt"), plan)?;
    std::fs::write(entry.join("trace.txt"), result.artifacts.trace.render())?;
    let mut verdicts = String::new();
    for violation in &result.violations {
        let _ = writeln!(verdicts, "{violation}");
    }
    std::fs::write(entry.join("violations.txt"), verdicts)?;
    Ok(())
}

/// Which protocol paths a sweep actually exercised, counted from the
/// recorded traces. Untested paths are visible as zeros: a sweep whose
/// scenario space claims to cover crashes but whose coverage shows
/// `resolution_timeouts == 0` never drove the membership extension at
/// all.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct PathCoverage {
    /// Coordinated recoveries started (RecoveryStart events).
    pub recoveries: u64,
    /// Undo rounds: µ-coordinated `SignalOutcome` conclusions.
    pub undo_outcomes: u64,
    /// ƒ conclusions (coordinated failure outcomes), the ƒ-cascade fuel:
    /// each non-top failure re-raises in the enclosing action.
    pub failure_outcomes: u64,
    /// ƒ outcomes at nesting depth > 1 — actual cascade steps.
    pub failure_cascades: u64,
    /// Exit races: an exit phase interrupted by a recovery trigger
    /// (ExitStart followed by RecoveryStart on the same thread and
    /// instance).
    pub exit_races: u64,
    /// Bounded exit waits that expired (ExitTimeout events).
    pub exit_timeouts: u64,
    /// Bounded resolution waits that expired (ResolutionTimeout events).
    pub resolution_timeouts: u64,
    /// Membership view changes observed (ViewChange events).
    pub view_changes: u64,
    /// Crash-stops observed (Crash events).
    pub crash_stops: u64,
    /// Nested-action abortions (Abort events).
    pub aborts: u64,
    /// Shared-object acquisitions (ObjectAcquired events).
    pub object_acquisitions: u64,
    /// Epoch-numbered rejoins: restarted participants readmitted into a
    /// view (joiner-side Rejoin events; every other member also observes
    /// the readmission, counted once here via the joiner's own event).
    pub rejoins: u64,
}

/// A [`PathCoverage`] counter: its `coverage.json` name and its field.
pub(crate) type Counter = (&'static str, fn(&mut PathCoverage) -> &mut u64);

impl PathCoverage {
    /// The counters in declaration order, each by its `coverage.json` name:
    /// the one place the names are spelled.
    pub(crate) const COUNTERS: [Counter; 12] = [
        ("recoveries", |c| &mut c.recoveries),
        ("undo_outcomes", |c| &mut c.undo_outcomes),
        ("failure_outcomes", |c| &mut c.failure_outcomes),
        ("failure_cascades", |c| &mut c.failure_cascades),
        ("exit_races", |c| &mut c.exit_races),
        ("exit_timeouts", |c| &mut c.exit_timeouts),
        ("resolution_timeouts", |c| &mut c.resolution_timeouts),
        ("view_changes", |c| &mut c.view_changes),
        ("crash_stops", |c| &mut c.crash_stops),
        ("aborts", |c| &mut c.aborts),
        ("object_acquisitions", |c| &mut c.object_acquisitions),
        ("rejoins", |c| &mut c.rejoins),
    ];

    /// Counts one run's protocol-path hits from its canonical trace.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> PathCoverage {
        let mut coverage = PathCoverage::default();
        let index = trace.index();
        // Which `(instance, thread)` cells are inside an exit phase: one
        // bit each, 256 of them inline.
        let mut exiting: InlineVec<u64, 4> = InlineVec::new();
        exiting.extend(std::iter::repeat_n(0, index.cells().div_ceil(64)));
        let exiting = exiting.as_mut_slice();
        for entry in trace.entries() {
            let EntryKind::Runtime(kind) = &entry.kind else {
                continue;
            };
            let cell = index.cell(entry.label, entry.thread);
            let (word, bit) = (cell / 64, 1u64 << (cell % 64));
            match kind {
                EventKind::RecoveryStart { .. } => {
                    coverage.recoveries += 1;
                    coverage.exit_races += u64::from(exiting[word] & bit != 0);
                    exiting[word] &= !bit;
                }
                EventKind::ExitStart { .. } => exiting[word] |= bit,
                EventKind::SignalOutcome { signal } => match signal {
                    caa_core::Signal::Undo => coverage.undo_outcomes += 1,
                    caa_core::Signal::Failure => {
                        coverage.failure_outcomes += 1;
                        // A ƒ below the top level re-raises in the
                        // enclosing action: a cascade step.
                        if index.instances()[entry.label as usize].depth >= 1 {
                            coverage.failure_cascades += 1;
                        }
                    }
                    _ => {}
                },
                EventKind::ExitTimeout { .. } => coverage.exit_timeouts += 1,
                EventKind::ResolutionTimeout { .. } => coverage.resolution_timeouts += 1,
                EventKind::ViewChange { .. } => coverage.view_changes += 1,
                EventKind::Crash => coverage.crash_stops += 1,
                EventKind::Rejoin { thread, .. } if thread.as_u32() == entry.thread => {
                    coverage.rejoins += 1;
                }
                EventKind::Abort { .. } => coverage.aborts += 1,
                EventKind::ObjectAcquired { .. } => coverage.object_acquisitions += 1,
                _ => {}
            }
        }
        coverage
    }

    /// Accumulates another run's counts into this one.
    pub fn merge(&mut self, other: &PathCoverage) {
        let mut other = *other;
        for (_, field) in Self::COUNTERS {
            *field(self) += *field(&mut other);
        }
    }

    /// Packs the run's counters into a 48-bit **protocol-path signature**:
    /// twelve 4-bit log-bucketed fields, one per counter, in the struct's
    /// declaration order. Bucketing (0, 1, 2 exact; then doubling ranges
    /// 3–4, 5–8, 9–16, … capped at bucket 15) keeps the signature space
    /// small enough that distinct signatures mean *qualitatively* different
    /// protocol behaviour — one more object acquisition in a hot loop does
    /// not mint a "novel path", but a first resolution timeout or a second
    /// cascade step does. The fuzz frontier ([`mod@crate::fuzz`]) keys novelty
    /// on this value.
    #[must_use]
    pub fn signature(&self) -> u64 {
        fn bucket(n: u64) -> u64 {
            match n {
                0..=2 => n,
                n => {
                    // 3–4 → 3, 5–8 → 4, 9–16 → 5, … (doubling ranges).
                    let bits = u64::from(64 - (n - 1).leading_zeros());
                    (bits + 1).min(15)
                }
            }
        }
        let mut counts = *self;
        Self::COUNTERS.iter().fold(0u64, |acc, (_, field)| {
            (acc << 4) | bucket(*field(&mut counts))
        })
    }

    /// One-line report, in a stable order.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "recoveries {} | undo {} | failure {} (cascaded {}) | exit races {} | \
             exit timeouts {} | resolution timeouts {} | view changes {} | \
             crashes {} | aborts {} | object acquisitions {} | rejoins {}",
            self.recoveries,
            self.undo_outcomes,
            self.failure_outcomes,
            self.failure_cascades,
            self.exit_races,
            self.exit_timeouts,
            self.resolution_timeouts,
            self.view_changes,
            self.crash_stops,
            self.aborts,
            self.object_acquisitions,
            self.rejoins,
        )
    }
}

/// How many runs hit each distinct protocol-path signature
/// ([`PathCoverage::signature`]). Ordered, so rendering and shard merging
/// are deterministic; merging sums counts per signature.
pub type SignatureMap = BTreeMap<u64, u64>;

/// Sums `other`'s per-signature run counts into `into`.
pub fn merge_signatures(into: &mut SignatureMap, other: &SignatureMap) {
    for (&signature, &count) in other {
        *into.entry(signature).or_insert(0) += count;
    }
}

/// Aggregated outcome of a sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Seeds explored (after shard filtering).
    pub seeds_run: u64,
    /// Full scenario executions performed: with
    /// [`SweepConfig::check_replay`] every seed executes **twice** (run +
    /// replay), so this is `2 × seeds_run` there — the honest denominator
    /// for throughput claims.
    pub executions_run: u64,
    /// Results of the seeds that violated at least one oracle.
    pub failures: Vec<SeedResult>,
    /// Total trace entries recorded across all seeds (primary executions
    /// only; replay traces are compared, then discarded).
    pub trace_entries: u64,
    /// Total virtual time simulated across all seeds, exactly (crash plans
    /// idle through simulated hours, so the sum outgrows a `u64` of
    /// nanoseconds within a few million seeds). Shards add up to the
    /// unsharded sweep's total.
    pub virtual_ns: u128,
    /// [`SweepReport::virtual_ns`] in seconds.
    pub virtual_secs: f64,
    /// Which protocol paths the sweep hit, aggregated over every explored
    /// seed's trace.
    pub coverage: PathCoverage,
    /// Distinct protocol-path signatures hit, with per-signature run
    /// counts. Shards merge exactly: summing the maps of every shard of a
    /// range reproduces the unsharded sweep's map.
    pub signatures: SignatureMap,
    /// Protocol latency distributions (virtual time) and scheduler
    /// self-metrics, aggregated over every explored seed (see
    /// [`crate::metrics`]).
    pub metrics: SweepMetrics,
    /// Exit waits that rejoined participants gave up on, summed over every
    /// explored seed's `RuntimeStats` (primary executions only, like
    /// `trace_entries`).
    pub exit_give_ups: u64,
    /// Suspicion rounds the eviction quorum gate refused, summed likewise.
    pub suspicions_refused: u64,
    /// Messages for not-yet-entered instances dropped from a full retained
    /// list, summed likewise.
    pub retained_dropped: u64,
    /// Wall-clock duration of the sweep.
    pub wall: Duration,
}

impl SweepReport {
    /// Whether every explored seed passed every oracle.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Seeds explored per wall-clock second.
    #[must_use]
    pub fn seeds_per_sec(&self) -> f64 {
        self.seeds_run as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Scenario executions per wall-clock second (counts replay-check
    /// re-executions, which "seeds/s" hides).
    #[must_use]
    pub fn executions_per_sec(&self) -> f64 {
        self.executions_run as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// A human summary, listing replay commands for any violating seed.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "swept {} seeds in {:.2?} ({:.0} seeds/s, {:.0} executions/s over {} executions): \
             {} entries, {:.0}s virtual time, {} failing\n",
            self.seeds_run,
            self.wall,
            self.seeds_per_sec(),
            self.executions_per_sec(),
            self.executions_run,
            self.trace_entries,
            self.virtual_secs,
            self.failures.len(),
        );
        let _ = writeln!(out, "paths hit: {}", self.coverage.summary());
        let _ = writeln!(out, "distinct path signatures: {}", self.signatures.len());
        let _ = writeln!(
            out,
            "runtime give-ups: {} exit give-ups, {} suspicions refused, {} retained messages \
             dropped",
            self.exit_give_ups, self.suspicions_refused, self.retained_dropped,
        );
        out.push_str(&self.metrics.summary());
        for failure in &self.failures {
            let _ = writeln!(
                out,
                "  seed {} ({}): replay with `{}`",
                failure.seed,
                failure.artifacts.plan.describe(),
                failure.replay_command(),
            );
            for violation in &failure.violations {
                let _ = writeln!(out, "    - {violation}");
            }
        }
        out
    }

    /// The sweep's `metrics.json` document: deterministic (virtual-time)
    /// metrics plus the wall-clock scheduler section. For the same seed
    /// range and scenario, the deterministic section is byte-identical on
    /// any machine; `caa merge` over shard documents reproduces the
    /// unsharded document's deterministic section byte-for-byte.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        metrics_json(&self.metrics, self.seeds_run, true)
    }
}

/// Wall-clock duration as nanoseconds for the stage-timer counters
/// (saturating — a stage will not run for 584 years).
pub(crate) fn wall_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs a plan end to end — execute, check every oracle, and, with
/// `check_replay_too`, execute again and compare traces — through a
/// reusable arena: both executions recycle network storage, trace buffers
/// and resolution lattices, and the replay comparison streams line by line
/// instead of rendering two full trace strings. The plan may be one a seed
/// generates or one no seed does (the fuzz loop's edited plans, a corpus
/// entry's recipe); a caller with no arena to keep passes
/// `&mut ExecutionArena::default()`.
#[must_use]
pub fn run_plan_checked(
    plan: ScenarioPlan,
    check_replay_too: bool,
    arena: &mut ExecutionArena,
) -> SeedResult {
    run_plan_from(Instant::now(), plan, check_replay_too, arena)
}

/// [`run_plan_checked`] for a caller that has read the clock already: the
/// plan's work starts at `started`. The stage timers are cut at shared
/// instants — the end of one stage is the start of the next — so a seed
/// reads the clock once per stage boundary, not twice per stage.
fn run_plan_from(
    started: Instant,
    plan: ScenarioPlan,
    check_replay_too: bool,
    arena: &mut ExecutionArena,
) -> SeedResult {
    let seed = plan.seed;
    let (mut artifacts, mut execute, executed) = execute_owned(plan, arena, started);
    let mut violations = check_run(&artifacts);
    let checked = Instant::now();
    let mut oracle = checked - executed;
    arena.metrics_recorder().record_run(&artifacts);
    let mut ended = Instant::now();
    let metrics = ended - checked;
    if check_replay_too {
        // Replay wall time counts as execute, its comparison as oracle. The
        // replay borrows the plan out of the artifacts and hands it back:
        // no clone, and its trace leaves in a recycled buffer.
        let (replay, replay_execute, replayed_at) = execute_owned(artifacts.plan, arena, ended);
        execute += replay_execute;
        artifacts.plan = replay.plan;
        let replayed = replay.trace;
        if let Some(v) = check_replay(&artifacts.trace, &replayed) {
            violations.push(v);
        }
        arena.recycle_trace(replayed);
        ended = Instant::now();
        oracle += ended - replayed_at;
    }
    // `stage_execute_ns` is the whole of the executions; the three parts
    // are measured off the same four instants and sum to it.
    let (build_ns, run_ns, teardown_ns) = (
        wall_ns(execute.build),
        wall_ns(execute.run),
        wall_ns(execute.teardown),
    );
    let recorder = arena.metrics_recorder();
    recorder.add_wall(WallCounter::StageExecute, build_ns + run_ns + teardown_ns);
    recorder.add_wall(WallCounter::StageExecuteBuild, build_ns);
    recorder.add_wall(WallCounter::StageExecuteRun, run_ns);
    recorder.add_wall(WallCounter::StageExecuteTeardown, teardown_ns);
    recorder.add_wall(WallCounter::StageOracle, wall_ns(oracle));
    recorder.add_wall(WallCounter::StageMetrics, wall_ns(metrics));
    SeedResult {
        seed,
        violations,
        artifacts,
        corpus: None,
        space: None,
    }
}

/// Resolves a configured worker count: 0 means one worker per available
/// core. A worker runs its seed's participants on its own thread and never
/// blocks in the kernel, so a second worker per core would only contend.
/// (Worker count never affects traces; it only schedules which seed runs
/// where.)
#[must_use]
pub fn effective_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    }
}

/// The tooling's worker pool. Runs `body` once on each of
/// [`effective_workers`]`(workers)` scoped threads (never more than there
/// are tickets), each with an [`ExecutionArena`] of its own and a supply of
/// tickets: every `next` claims the lowest unclaimed ticket of `0..tickets`
/// that is in `shard`, so each in-shard ticket is handed to exactly one
/// worker. Returns what the bodies returned, one per worker — what a worker
/// accumulated over its tickets is merged by the caller once per worker,
/// not per ticket.
///
/// # Panics
///
/// Re-raises a worker's panic on the calling thread.
pub fn run_workers<R: Send>(
    tickets: u64,
    workers: usize,
    shard: Option<Shard>,
    body: impl Fn(&mut ExecutionArena, &mut dyn Iterator<Item = u64>) -> R + Sync,
) -> Vec<R> {
    let next = AtomicU64::new(0);
    let claim = || loop {
        let ticket = next.fetch_add(1, Ordering::Relaxed);
        if ticket >= tickets {
            return None;
        }
        if shard.is_none_or(|s| ticket % s.count == s.index) {
            return Some(ticket);
        }
    };
    let workers =
        effective_workers(workers).min(usize::try_from(tickets.max(1)).unwrap_or(usize::MAX));
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| body(&mut ExecutionArena::new(), &mut std::iter::from_fn(claim)))
            })
            .collect();
        spawned
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// What one sweep worker accumulated over its seeds.
#[derive(Default)]
struct WorkerTally {
    seeds_run: u64,
    entries: u64,
    virtual_ns: u128,
    coverage: PathCoverage,
    signatures: SignatureMap,
    failures: Vec<SeedResult>,
    metrics: SweepMetrics,
    exit_give_ups: u64,
    suspicions_refused: u64,
    retained_dropped: u64,
}

impl WorkerTally {
    /// Adds `other`'s seeds to this tally.
    fn merge(&mut self, other: WorkerTally) {
        self.seeds_run += other.seeds_run;
        self.entries += other.entries;
        self.virtual_ns += other.virtual_ns;
        self.coverage.merge(&other.coverage);
        merge_signatures(&mut self.signatures, &other.signatures);
        self.failures.extend(other.failures);
        self.metrics.merge(&other.metrics);
        self.exit_give_ups += other.exit_give_ups;
        self.suspicions_refused += other.suspicions_refused;
        self.retained_dropped += other.retained_dropped;
    }
}

/// Explores `config.seeds` seeds across worker threads.
#[must_use]
pub fn sweep(config: &SweepConfig) -> SweepReport {
    let started = Instant::now();
    let per_worker = run_workers(
        config.seeds,
        config.workers,
        config.shard,
        |arena, tickets| {
            let mut tally = WorkerTally::default();
            // Worker utilization: wall time spent on seed work (vs. starved
            // of tickets), cut where one seed ends and the next begins.
            let mut at = Instant::now();
            for i in tickets {
                let plan = ScenarioPlan::generate(config.start_seed + i, &config.scenario);
                let generated = Instant::now();
                arena
                    .metrics_recorder()
                    .add_wall(WallCounter::StageGenerate, wall_ns(generated - at));
                let result = run_plan_from(generated, plan, config.check_replay, arena);
                tally.seeds_run += 1;
                tally.entries += result.artifacts.trace.len() as u64;
                let stats = &result.artifacts.report.runtime_stats;
                tally.exit_give_ups += stats.exit_give_ups;
                tally.suspicions_refused += stats.suspicions_refused;
                tally.retained_dropped += stats.retained_dropped;
                tally.virtual_ns += u128::from(result.artifacts.report.elapsed.as_nanos());
                let run_coverage = PathCoverage::from_trace(&result.artifacts.trace);
                *tally
                    .signatures
                    .entry(run_coverage.signature())
                    .or_insert(0) += 1;
                tally.coverage.merge(&run_coverage);
                if result.passed() {
                    // Done with this trace: hand its buffer back — and with
                    // the plan and the report, dropped here so that the
                    // next seed's first stage does not pay for it.
                    let RunArtifacts {
                        trace,
                        plan,
                        report,
                    } = result.artifacts;
                    arena.recycle_trace(trace);
                    drop((plan, report));
                } else {
                    tally.failures.push(result);
                }
                let done = Instant::now();
                arena
                    .metrics_recorder()
                    .add_wall(WallCounter::WorkerBusy, wall_ns(done - at));
                at = done;
            }
            tally.metrics = arena.take_metrics();
            tally
        },
    );

    let mut total = WorkerTally::default();
    for tally in per_worker {
        total.merge(tally);
    }
    total.failures.sort_by_key(|f| f.seed);
    // Named once per sweep, for the bare-seed replay lines.
    let space = Space::of(&config.scenario);
    for failure in &mut total.failures {
        failure.space = space;
        let Some(dir) = &config.corpus_dir else {
            continue;
        };
        match dump_corpus(dir, &config.scenario, failure) {
            Ok(entry) => failure.corpus = Some(entry),
            Err(e) => eprintln!("corpus dump for seed {} failed: {e}", failure.seed),
        }
    }
    SweepReport {
        seeds_run: total.seeds_run,
        executions_run: total.seeds_run * if config.check_replay { 2 } else { 1 },
        failures: total.failures,
        trace_entries: total.entries,
        virtual_ns: total.virtual_ns,
        virtual_secs: total.virtual_ns as f64 / 1e9,
        coverage: total.coverage,
        signatures: total.signatures,
        metrics: total.metrics,
        exit_give_ups: total.exit_give_ups,
        suspicions_refused: total.suspicions_refused,
        retained_dropped: total.retained_dropped,
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_passes_and_reports() {
        let report = sweep(&SweepConfig {
            seeds: 16,
            workers: 2,
            check_replay: true,
            ..SweepConfig::default()
        });
        assert!(report.all_passed(), "{}", report.summary());
        assert_eq!(report.seeds_run, 16);
        assert!(report.trace_entries > 0);
        assert!(report.summary().contains("swept 16 seeds"));
    }

    #[test]
    fn shards_partition_the_range_deterministically() {
        let base = SweepConfig {
            seeds: 30,
            workers: 2,
            check_replay: false,
            corpus_dir: None,
            ..SweepConfig::default()
        };
        let full = sweep(&base);
        assert_eq!(full.seeds_run, 30);
        let mut sharded_seeds = 0;
        let mut sharded_virtual_ns = 0;
        let mut sharded_coverage = PathCoverage::default();
        let mut sharded_signatures = SignatureMap::new();
        for index in 0..3 {
            let report = sweep(&SweepConfig {
                shard: Some(Shard { index, count: 3 }),
                ..base.clone()
            });
            assert_eq!(report.seeds_run, 10, "shard {index} must cover a third");
            sharded_seeds += report.seeds_run;
            sharded_virtual_ns += report.virtual_ns;
            sharded_coverage.merge(&report.coverage);
            merge_signatures(&mut sharded_signatures, &report.signatures);
        }
        // The union of the shards is exactly the full sweep.
        assert_eq!(sharded_seeds, full.seeds_run);
        assert_eq!(
            sharded_virtual_ns, full.virtual_ns,
            "sharded virtual-time totals must add up to the full sweep's"
        );
        assert!(full.virtual_ns > 0);
        assert_eq!(
            sharded_coverage, full.coverage,
            "sharded coverage must add up to the full sweep's"
        );
        assert_eq!(
            sharded_signatures, full.signatures,
            "sharded signature maps must union to the full sweep's"
        );
    }

    #[test]
    fn tallies_sum_virtual_time_past_a_u64_exactly() {
        // Four workers, each past 2^64 - 1 ns minus a little: the total is
        // four of them, not what a wrapping or saturating u64 would keep.
        let near = u128::from(u64::MAX) - 5;
        let tally = || WorkerTally {
            seeds_run: 1,
            virtual_ns: near,
            ..WorkerTally::default()
        };
        let mut total = tally();
        for _ in 0..3 {
            total.merge(tally());
        }
        assert_eq!(total.seeds_run, 4);
        assert_eq!(total.virtual_ns, 4 * u128::from(u64::MAX) - 20);
    }

    #[test]
    fn signatures_bucket_counts_logarithmically() {
        let a = PathCoverage::default();
        let mut b = PathCoverage::default();
        assert_eq!(a.signature(), b.signature());
        // Doubling-range buckets: 3 and 4 coincide, 4 and 5 differ.
        b.recoveries = 3;
        let sig3 = b.signature();
        b.recoveries = 4;
        assert_eq!(sig3, b.signature());
        b.recoveries = 5;
        assert_ne!(sig3, b.signature());
        // Low counts are exact and field positions are distinct.
        let one_recovery = PathCoverage {
            recoveries: 1,
            ..Default::default()
        };
        let one_abort = PathCoverage {
            aborts: 1,
            ..Default::default()
        };
        assert_ne!(one_recovery.signature(), one_abort.signature());
        assert_ne!(one_recovery.signature(), a.signature());
        // Saturation: astronomically different counts still fit 4 bits.
        let huge = PathCoverage {
            rejoins: u64::MAX,
            ..Default::default()
        };
        assert_eq!(huge.signature() & 0xf, 15);
    }

    #[test]
    fn shard_parses_the_cli_form() {
        let parse = str::parse::<Shard>;
        assert_eq!(parse("2/8"), Ok(Shard { index: 2, count: 8 }));
        assert!(parse("8/8").is_err(), "index must be < count");
        assert!(parse("0/0").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("a/b").is_err());
    }

    #[test]
    fn coverage_reports_protocol_paths() {
        let report = sweep(&SweepConfig {
            seeds: 64,
            workers: 2,
            check_replay: false,
            corpus_dir: None,
            ..SweepConfig::default()
        });
        assert!(report.all_passed(), "{}", report.summary());
        let coverage = report.coverage;
        assert!(coverage.recoveries > 0);
        assert!(coverage.aborts > 0);
        assert!(
            report.summary().contains("paths hit:"),
            "{}",
            report.summary()
        );
        assert!(report.summary().contains(&coverage.summary()));
    }

    #[test]
    fn run_seed_exposes_replay_command() {
        let plan = ScenarioPlan::generate(3, &ScenarioConfig::default());
        let mut result = run_plan_checked(plan, false, &mut ExecutionArena::default());
        assert!(result.replay_command().ends_with("-- replay 3"));
        for (name, line) in [
            ("default", "-- replay 3"),
            ("multi-crash", "-- replay --space multi-crash 3"),
        ] {
            result.space = Some(name.parse().unwrap());
            assert!(result.replay_command().ends_with(line), "{name}");
        }
    }

    #[test]
    fn summary_reports_both_seed_and_execution_throughput() {
        let report = sweep(&SweepConfig {
            seeds: 8,
            workers: 2,
            check_replay: true,
            ..SweepConfig::default()
        });
        // With check_replay every seed executes twice.
        assert_eq!(report.executions_run, 16);
        assert!(report.executions_per_sec() > report.seeds_per_sec());
        assert!(report.summary().contains("over 16 executions"));
    }

    /// The give-ups a multi-crash sweep prints are the sums of what each
    /// seed's run counted.
    #[test]
    fn the_summary_prints_the_give_ups_each_seed_counted() {
        use crate::exec::execute_in;

        let scenario = ScenarioConfig::multi_crash();
        let report = sweep(&SweepConfig {
            seeds: 200,
            workers: 2,
            scenario: scenario.clone(),
            check_replay: false,
            corpus_dir: None,
            ..SweepConfig::default()
        });
        let mut arena = ExecutionArena::default();
        let mut sums = [0; 3];
        for seed in 0..200 {
            let run = execute_in(&ScenarioPlan::generate(seed, &scenario), &mut arena);
            let stats = &run.report.runtime_stats;
            sums[0] += stats.exit_give_ups;
            sums[1] += stats.suspicions_refused;
            sums[2] += stats.retained_dropped;
            arena.recycle_trace(run.trace);
        }
        assert_eq!(
            [
                report.exit_give_ups,
                report.suspicions_refused,
                report.retained_dropped
            ],
            sums
        );
        let line = format!(
            "runtime give-ups: {} exit give-ups, {} suspicions refused, {} retained messages \
             dropped\n",
            sums[0], sums[1], sums[2]
        );
        assert!(report.summary().contains(&line), "{}", report.summary());
        assert!(
            sums[..2].iter().all(|&n| n > 0),
            "{sums:?}: nothing gave up"
        );
    }

    #[test]
    fn the_execute_stage_is_the_sum_of_its_three_named_parts() {
        for check_replay in [false, true] {
            let report = sweep(&SweepConfig {
                seeds: 12,
                workers: 1,
                check_replay,
                ..SweepConfig::default()
            });
            let wall = |name: &str| report.metrics.wall_clock.counter_value(name);
            let parts = [
                wall("stage_execute_build_ns"),
                wall("stage_execute_run_ns"),
                wall("stage_execute_teardown_ns"),
            ];
            assert!(parts.iter().all(|&ns| ns > 0), "{parts:?}");
            assert_eq!(wall("stage_execute_ns"), parts.iter().sum::<u64>());
            let summary = report.metrics.summary();
            for label in ["execute ", "build ", "run ", "teardown "] {
                assert!(summary.contains(label), "{label}: {summary}");
            }
        }
    }

    #[test]
    fn violating_seeds_persist_a_loadable_corpus_entry() {
        let dir = std::env::temp_dir().join(format!("caa-corpus-test-{}", std::process::id()));
        let scenario = ScenarioConfig::object_heavy();
        // Fabricate a violation on a clean seed: corpus persistence is
        // about faithfully dumping whatever failed, not about how.
        let mut arena = ExecutionArena::default();
        let mut result = run_plan_checked(ScenarioPlan::generate(5, &scenario), false, &mut arena);
        result.violations.push(Violation::ThreadFailure {
            thread: "T0".into(),
            error: "injected for the corpus test".into(),
        });
        let entry = dump_corpus(&dir, &scenario, &result).expect("corpus dump");
        assert_eq!(entry, dir.join("5"));

        // The entry reloads through the one corpus path...
        let (plan, loaded, _) = crate::edit::load_corpus_plan(&entry).expect("load entry");
        assert_eq!(format!("{loaded:?}"), format!("{scenario:?}"));
        // ...and the recorded trace bytes reproduce exactly.
        let recorded = std::fs::read_to_string(entry.join("trace.txt")).unwrap();
        let replayed = run_plan_checked(plan, false, &mut arena);
        assert_eq!(
            replayed.artifacts.trace.render(),
            recorded,
            "corpus trace must reproduce byte-exactly from the persisted config"
        );
        let verdicts = std::fs::read_to_string(entry.join("violations.txt")).unwrap();
        assert!(verdicts.contains("injected for the corpus test"));

        result.corpus = Some(entry);
        assert!(result.replay_command().contains("--corpus"));

        // A different config failing on the same seed must not clobber
        // the recorded repro: it lands in a discriminated sibling entry.
        let other = ScenarioConfig::default();
        let plan = ScenarioPlan::generate(5, &other);
        let mut other_result = run_plan_checked(plan, false, &mut arena);
        other_result.violations.push(Violation::ThreadFailure {
            thread: "T0".into(),
            error: "second config".into(),
        });
        let other_entry = dump_corpus(&dir, &other, &other_result).expect("corpus dump");
        assert_ne!(other_entry, dir.join("5"), "must not overwrite seed 5");
        assert!(other_entry
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("5-"));
        assert_eq!(
            std::fs::read_to_string(dir.join("5").join("config.txt")).unwrap(),
            scenario.to_kv(),
            "original entry untouched"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
