//! **caa-fuzz** — coverage-guided scenario exploration: edit corpus
//! plans toward protocol paths fresh-seed sampling starves.
//!
//! Fresh-seed sweeps saturate the common protocol paths quickly and then
//! spend the rest of their budget re-hitting them; the rare combinations
//! (exit races × view changes × object contention, deep ƒ cascades, crash
//! instants straddling round boundaries) stay under-covered because every
//! knob re-rolls independently per seed. This module closes the loop the
//! ROADMAP asks for: it keys **novelty** on the
//! [`PathCoverage::signature`] of each run, keeps a **frontier** of plans
//! whose traces minted novel signatures, and schedules single **edits**
//! of frontier plans ([`draw`]) — small, validity-preserving changes that
//! hold everything else fixed, so one knob moves at a time and the
//! neighbourhood of an interesting scenario actually gets explored.
//!
//! Every plan the loop executes is a [`Recipe`]: its base seed plus the
//! concrete edits drawn on the way, each of which applies only inside
//! [`validate_plan`](crate::plan::validate_plan)'s envelope — so edited
//! plans meet the same oracles as fresh ones, and a find is a protocol bug,
//! never a malformed scenario. A violating plan persists as a corpus entry
//! that `caa replay --corpus` rechecks byte-exactly and `--bisect` shrinks
//! with the same grammar ([`crate::edit`]). Worker count never affects
//! outcomes: parents are picked and edits drawn *between* generations
//! from one rng, and batch results commit in child-index order.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use caa_telemetry::json::{self, Value};

use crate::edit::{apply, draw, Recipe};
use crate::metrics::{SweepMetrics, WallCounter};
use crate::plan::{ScenarioConfig, ScenarioPlan};
use crate::rng::Rng;
use crate::sweep::{
    merge_signatures, run_plan_checked, run_workers, sweep, wall_ns, write_corpus_files,
    PathCoverage, SeedResult, SignatureMap, SweepConfig, SweepReport, CAA,
};

/// Schema tag of `coverage.json` documents ([`CoverageDoc`]).
pub const COVERAGE_SCHEMA: &str = "caa-coverage/v1";

// ---------------------------------------------------------------------------
// The coverage-guided loop.
// ---------------------------------------------------------------------------

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Scenario-space bounds (also persisted with every corpus entry).
    pub scenario: ScenarioConfig,
    /// Total execution budget: generation-0 fresh seeds plus mutated
    /// children, one execution each (two with [`FuzzConfig::check_replay`]
    /// counted as one budget unit, mirroring the sweep's accounting).
    pub executions: u64,
    /// Fresh seeds seeding generation 0 (capped by the budget).
    pub initial_seeds: u64,
    /// First generation-0 seed.
    pub start_seed: u64,
    /// Mutated children per generation. Parent selection and novelty
    /// accounting happen at generation boundaries, so the batch size
    /// trades scheduling freshness against parallel occupancy.
    pub batch: u64,
    /// Seed of the one selection-and-edit stream. Two runs with the
    /// same `(scenario, executions, initial_seeds, start_seed, batch,
    /// fuzz_seed)` are identical regardless of worker count.
    pub fuzz_seed: u64,
    /// Worker OS threads; 0 = one per available core.
    pub workers: usize,
    /// Execute every plan twice and require byte-identical traces.
    pub check_replay: bool,
    /// Where violating plans persist corpus entries (named by
    /// [`Recipe::entry_name`]). `None` disables persistence.
    pub corpus_dir: Option<PathBuf>,
    /// Also run a fresh-seed sweep of the same execution budget and
    /// record its signature map — the baseline the ≥20 %-more-paths
    /// acceptance gate compares against.
    pub compare_fresh: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            scenario: ScenarioConfig::default(),
            executions: 2048,
            initial_seeds: 256,
            start_seed: 0,
            batch: 64,
            fuzz_seed: 0xCAAF_0221,
            workers: 0,
            check_replay: false,
            corpus_dir: None,
            compare_fresh: false,
        }
    }
}

/// One violating plan found by a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzViolation {
    /// The find's full reproduction recipe.
    pub recipe: Recipe,
    /// Rendered oracle violations.
    pub violations: Vec<String>,
    /// The persisted corpus entry, when
    /// [`FuzzConfig::corpus_dir`] was set.
    pub corpus: Option<PathBuf>,
}

/// The fresh-seed baseline a fuzz run compares against
/// ([`FuzzConfig::compare_fresh`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreshBaseline {
    /// Executions the baseline sweep performed.
    pub executions: u64,
    /// Its signature map.
    pub signatures: SignatureMap,
}

/// Aggregated outcome of a fuzz run.
#[derive(Debug)]
pub struct FuzzReport {
    /// The scenario bounds the run explored under.
    pub scenario: ScenarioConfig,
    /// Executions performed (≤ the configured budget).
    pub executions: u64,
    /// Generation-0 fresh seeds executed.
    pub initial_seeds: u64,
    /// Mutated generations executed after generation 0.
    pub generations: u64,
    /// Novel signatures minted by *mutated* children (novelty the fresh
    /// seeds alone did not reach).
    pub novel_from_mutation: u64,
    /// Aggregate protocol-path counters over every execution.
    pub coverage: PathCoverage,
    /// Distinct signatures hit, with per-signature run counts.
    pub signatures: SignatureMap,
    /// Violating recipes, in discovery order.
    pub violations: Vec<FuzzViolation>,
    /// The fresh-seed baseline, when one was run.
    pub fresh: Option<FreshBaseline>,
    /// Sweep metrics aggregated over the fuzz loop's executions (latency
    /// histograms, critical-path attribution, scheduler handoffs, stage
    /// timers). The fresh baseline is excluded — these describe the fuzz
    /// loop itself.
    pub metrics: SweepMetrics,
    /// Wall-clock duration (fuzz loop plus baseline).
    pub wall: Duration,
}

impl FuzzReport {
    /// Percentage gain in distinct signatures over the fresh baseline
    /// (`None` without a baseline).
    #[must_use]
    pub fn gain_pct(&self) -> Option<f64> {
        self.fresh.as_ref().map(|fresh| {
            let fuzzed = self.signatures.len() as f64;
            let baseline = (fresh.signatures.len() as f64).max(1.0);
            (fuzzed - baseline) / baseline * 100.0
        })
    }

    /// A human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "fuzzed {} executions in {:.2?}: {} initial seeds, {} mutated generation(s), \
             {} distinct path signatures ({} minted by mutation), {} violating recipe(s)\n",
            self.executions,
            self.wall,
            self.initial_seeds,
            self.generations,
            self.signatures.len(),
            self.novel_from_mutation,
            self.violations.len(),
        );
        let _ = writeln!(out, "paths hit: {}", self.coverage.summary());
        if let (Some(fresh), Some(gain)) = (&self.fresh, self.gain_pct()) {
            let _ = writeln!(
                out,
                "fresh-seed baseline over {} executions: {} distinct signatures ({gain:+.1}%)",
                fresh.executions,
                fresh.signatures.len(),
            );
        }
        for violation in &self.violations {
            let _ = writeln!(out, "  recipe {}:", violation.recipe.entry_name());
            for v in &violation.violations {
                let _ = writeln!(out, "    - {v}");
            }
            if let Some(entry) = &violation.corpus {
                let _ = writeln!(out, "    replay: {CAA} replay --corpus {}", entry.display());
            }
        }
        out.push_str(&self.metrics.summary());
        out
    }
}

/// One frontier entry: a plan whose trace minted a novel signature, kept
/// around as mutation fodder. Energy grows when its children mint further
/// novelty, so productive neighbourhoods get revisited.
#[derive(Debug)]
struct FrontierEntry {
    recipe: Recipe,
    plan: ScenarioPlan,
    energy: u64,
}

struct ChildOutcome {
    signature: u64,
    coverage: PathCoverage,
    /// Present only for violating runs (the trace is recycled otherwise).
    result: Option<SeedResult>,
}

/// Executes `plans` on the worker pool and returns outcomes **in input
/// order** — the order in which the caller commits them to frontier and
/// novelty state, which is what makes the loop worker-count-invariant.
/// Each worker's metrics fold into `metrics` once the batch is drained.
fn run_batch(
    plans: &[&ScenarioPlan],
    workers: usize,
    check_replay: bool,
    metrics: &mut SweepMetrics,
) -> Vec<ChildOutcome> {
    let per_worker = run_workers(plans.len() as u64, workers, None, |arena, tickets| {
        let mut outcomes = Vec::new();
        for i in tickets {
            let busy = Instant::now();
            let result = run_plan_checked(plans[i as usize].clone(), check_replay, arena);
            let coverage = PathCoverage::from_trace(&result.artifacts.trace);
            let signature = coverage.signature();
            let result = if result.violations.is_empty() {
                arena.recycle_trace(result.artifacts.trace);
                None
            } else {
                Some(result)
            };
            arena
                .metrics_recorder()
                .add_wall(WallCounter::WorkerBusy, wall_ns(busy.elapsed()));
            outcomes.push((
                i,
                ChildOutcome {
                    signature,
                    coverage,
                    result,
                },
            ));
        }
        (outcomes, arena.take_metrics())
    });
    let mut in_order = Vec::with_capacity(plans.len());
    for (outcomes, worker_metrics) in per_worker {
        metrics.merge(&worker_metrics);
        in_order.extend(outcomes);
    }
    in_order.sort_by_key(|&(i, _)| i);
    in_order.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Energy-weighted parent pick over the frontier (insertion order fixed,
/// so the draw is deterministic).
fn pick_parent(frontier: &[FrontierEntry], rng: &mut Rng) -> usize {
    let total: u64 = frontier.iter().map(|e| e.energy).sum();
    let mut point = rng.below(total.max(1));
    for (i, entry) in frontier.iter().enumerate() {
        if point < entry.energy {
            return i;
        }
        point -= entry.energy;
    }
    frontier.len() - 1
}

/// The loop's accumulated state, threaded through [`LoopState::commit`]
/// in child-index order — the single place where outcomes touch novelty
/// accounting, which is what keeps the loop worker-count-invariant.
struct LoopState {
    seen: SignatureMap,
    coverage: PathCoverage,
    frontier: Vec<FrontierEntry>,
    violations: Vec<FuzzViolation>,
    executed: u64,
    novel_from_mutation: u64,
}

impl LoopState {
    fn commit(
        &mut self,
        config: &FuzzConfig,
        recipe: Recipe,
        plan: ScenarioPlan,
        outcome: ChildOutcome,
        parent: Option<usize>,
    ) {
        self.executed += 1;
        self.coverage.merge(&outcome.coverage);
        let novel = !self.seen.contains_key(&outcome.signature);
        *self.seen.entry(outcome.signature).or_insert(0) += 1;
        if novel {
            if let Some(p) = parent {
                self.novel_from_mutation += 1;
                self.frontier[p].energy += 2;
            }
            self.frontier.push(FrontierEntry {
                recipe: recipe.clone(),
                plan,
                energy: 3,
            });
        }
        if let Some(result) = outcome.result {
            let corpus = config.corpus_dir.as_ref().and_then(|dir| {
                let entry = dir.join(recipe.entry_name());
                match write_corpus_files(&entry, &config.scenario.to_kv(), &recipe, &result) {
                    Ok(()) => Some(entry),
                    Err(e) => {
                        eprintln!("corpus dump for recipe {} failed: {e}", recipe.entry_name());
                        None
                    }
                }
            });
            self.violations.push(FuzzViolation {
                recipe,
                violations: result.violations.iter().map(|v| v.to_string()).collect(),
                corpus,
            });
        }
    }
}

/// Runs the coverage-guided loop: generation 0 executes fresh seeds, then
/// every generation mutates energy-weighted frontier parents and promotes
/// children whose traces mint novel [`PathCoverage::signature`]s. Fully
/// deterministic for a fixed config — worker count only changes wall
/// clock (see the module docs).
#[must_use]
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let started = Instant::now();
    let mut state = LoopState {
        seen: SignatureMap::new(),
        coverage: PathCoverage::default(),
        frontier: Vec::new(),
        violations: Vec::new(),
        executed: 0,
        novel_from_mutation: 0,
    };
    let mut metrics = SweepMetrics::default();

    // Generation 0: fresh seeds.
    let initial = config.initial_seeds.min(config.executions).max(1);
    let gen0: Vec<(Recipe, ScenarioPlan)> = (0..initial)
        .map(|i| {
            let seed = config.start_seed + i;
            (
                Recipe::base(seed),
                ScenarioPlan::generate(seed, &config.scenario),
            )
        })
        .collect();
    let outcomes = run_batch(
        &gen0.iter().map(|(_, p)| p).collect::<Vec<_>>(),
        config.workers,
        config.check_replay,
        &mut metrics,
    );
    for ((recipe, plan), outcome) in gen0.into_iter().zip(outcomes) {
        state.commit(config, recipe, plan, outcome, None);
    }

    // Mutated generations: select, draw an edit, execute, commit in order.
    let mut rng = Rng::new(config.fuzz_seed);
    let mut generations = 0u64;
    while state.executed < config.executions && !state.frontier.is_empty() {
        generations += 1;
        let batch = config.batch.max(1).min(config.executions - state.executed);
        let mutation_started = Instant::now();
        let mut children: Vec<(usize, Recipe, ScenarioPlan)> = Vec::with_capacity(batch as usize);
        for _ in 0..batch {
            let parent = pick_parent(&state.frontier, &mut rng);
            let entry = &state.frontier[parent];
            let edit = draw(&entry.plan, &mut rng);
            let Some(plan) = apply(&entry.plan, &edit) else {
                debug_assert!(false, "drawn edit `{edit}` left the validity envelope");
                continue;
            };
            let mut recipe = entry.recipe.clone();
            recipe.edits.push(edit);
            children.push((parent, recipe, plan));
        }
        // Parent selection plus drawing edits is the frontier stage.
        metrics
            .wall_clock
            .add_named("stage_mutation_ns", wall_ns(mutation_started.elapsed()));
        let outcomes = run_batch(
            &children.iter().map(|(_, _, p)| p).collect::<Vec<_>>(),
            config.workers,
            config.check_replay,
            &mut metrics,
        );
        for ((parent, recipe, plan), outcome) in children.into_iter().zip(outcomes) {
            state.commit(config, recipe, plan, outcome, Some(parent));
        }
    }

    let fresh = config.compare_fresh.then(|| {
        let report = sweep(&SweepConfig {
            start_seed: config.start_seed,
            seeds: state.executed,
            workers: config.workers,
            scenario: config.scenario.clone(),
            check_replay: false,
            corpus_dir: None,
            shard: None,
        });
        FreshBaseline {
            executions: report.seeds_run,
            signatures: report.signatures,
        }
    });

    FuzzReport {
        scenario: config.scenario.clone(),
        executions: state.executed,
        initial_seeds: initial,
        generations,
        novel_from_mutation: state.novel_from_mutation,
        coverage: state.coverage,
        signatures: state.seen,
        violations: state.violations,
        fresh,
        metrics,
        wall: started.elapsed(),
    }
}

// ---------------------------------------------------------------------------
// coverage.json: the cross-shard interchange document.
// ---------------------------------------------------------------------------

/// The fuzz-specific section of a [`CoverageDoc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzSection {
    /// Mutated generations executed.
    pub generations: u64,
    /// Generation-0 fresh seeds.
    pub initial_seeds: u64,
    /// Novel signatures minted by mutation.
    pub novel_from_mutation: u64,
    /// Executions of the fresh-seed baseline (0 = no baseline ran).
    pub fresh_executions: u64,
    /// The baseline's signature map — persisted in full, so shard merges
    /// recompute the distinct-signature union exactly instead of summing
    /// per-shard distinct counts (which would overcount shared paths).
    pub fresh_signatures: SignatureMap,
}

/// A `coverage.json` document: what one sweep or fuzz run (or a merged
/// union of shards) covered. Rendering is canonical — sorted keys,
/// integers only, violations sorted — so equal documents are
/// byte-identical, and merging shard documents reproduces the unsharded
/// document byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageDoc {
    /// `"sweep"` or `"fuzz"` — merging mixes modes into `"mixed"`.
    pub mode: String,
    /// Executions covered.
    pub executions: u64,
    /// Aggregate protocol-path counters.
    pub coverage: PathCoverage,
    /// Distinct signatures with run counts.
    pub signatures: SignatureMap,
    /// Rendered violations (sorted on render).
    pub violations: Vec<String>,
    /// Fuzz accounting, when the document came from a fuzz run.
    pub fuzz: Option<FuzzSection>,
}

/// The coverage counters by (alphabetical) wire name.
fn counter_pairs(coverage: &PathCoverage) -> [(&'static str, u64); 12] {
    [
        ("aborts", coverage.aborts),
        ("crash_stops", coverage.crash_stops),
        ("exit_races", coverage.exit_races),
        ("exit_timeouts", coverage.exit_timeouts),
        ("failure_cascades", coverage.failure_cascades),
        ("failure_outcomes", coverage.failure_outcomes),
        ("object_acquisitions", coverage.object_acquisitions),
        ("recoveries", coverage.recoveries),
        ("rejoins", coverage.rejoins),
        ("resolution_timeouts", coverage.resolution_timeouts),
        ("undo_outcomes", coverage.undo_outcomes),
        ("view_changes", coverage.view_changes),
    ]
}

fn set_counter(coverage: &mut PathCoverage, name: &str, value: u64) -> bool {
    match name {
        "aborts" => coverage.aborts = value,
        "crash_stops" => coverage.crash_stops = value,
        "exit_races" => coverage.exit_races = value,
        "exit_timeouts" => coverage.exit_timeouts = value,
        "failure_cascades" => coverage.failure_cascades = value,
        "failure_outcomes" => coverage.failure_outcomes = value,
        "object_acquisitions" => coverage.object_acquisitions = value,
        "recoveries" => coverage.recoveries = value,
        "rejoins" => coverage.rejoins = value,
        "resolution_timeouts" => coverage.resolution_timeouts = value,
        "undo_outcomes" => coverage.undo_outcomes = value,
        "view_changes" => coverage.view_changes = value,
        _ => return false,
    }
    true
}

fn write_signature_map(out: &mut String, map: &SignatureMap, indent: &str) {
    if map.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, (signature, count)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "{indent}  \"{signature:#013x}\": {count}");
    }
    let _ = write!(out, "\n{indent}}}");
}

fn parse_signature_map(value: &Value) -> Result<SignatureMap, String> {
    let mut map = SignatureMap::new();
    for (key, count) in value.as_obj().ok_or("signatures must be an object")? {
        let raw = key.strip_prefix("0x").unwrap_or(key);
        let signature =
            u64::from_str_radix(raw, 16).map_err(|e| format!("bad signature key {key:?}: {e}"))?;
        let count = count
            .as_u64()
            .ok_or_else(|| format!("bad signature count for {key:?}"))?;
        *map.entry(signature).or_insert(0) += count;
    }
    Ok(map)
}

impl CoverageDoc {
    /// The coverage document of a plain sweep.
    #[must_use]
    pub fn from_sweep(report: &SweepReport) -> CoverageDoc {
        let mut violations = Vec::new();
        for failure in &report.failures {
            for v in &failure.violations {
                violations.push(format!("seed {}: {v}", failure.seed));
            }
        }
        CoverageDoc {
            mode: "sweep".into(),
            executions: report.executions_run,
            coverage: report.coverage,
            signatures: report.signatures.clone(),
            violations,
            fuzz: None,
        }
    }

    /// The coverage document of a fuzz run.
    #[must_use]
    pub fn from_fuzz(report: &FuzzReport) -> CoverageDoc {
        let mut violations = Vec::new();
        for find in &report.violations {
            for v in &find.violations {
                violations.push(format!("recipe {}: {v}", find.recipe.entry_name()));
            }
        }
        let (fresh_executions, fresh_signatures) = match &report.fresh {
            Some(fresh) => (fresh.executions, fresh.signatures.clone()),
            None => (0, SignatureMap::new()),
        };
        CoverageDoc {
            mode: "fuzz".into(),
            executions: report.executions,
            coverage: report.coverage,
            signatures: report.signatures.clone(),
            violations,
            fuzz: Some(FuzzSection {
                generations: report.generations,
                initial_seeds: report.initial_seeds,
                novel_from_mutation: report.novel_from_mutation,
                fresh_executions,
                fresh_signatures,
            }),
        }
    }

    /// Serializes the canonical document (see the type docs).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{COVERAGE_SCHEMA}\",");
        out.push_str("  \"mode\": ");
        json::write_str(&mut out, &self.mode);
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "  \"executions\": {},", self.executions);
        let _ = writeln!(out, "  \"counters\": {{");
        let counters = counter_pairs(&self.coverage);
        for (i, (name, value)) in counters.iter().enumerate() {
            let comma = if i + 1 < counters.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {value}{comma}");
        }
        let _ = writeln!(out, "  }},");
        out.push_str("  \"signatures\": ");
        write_signature_map(&mut out, &self.signatures, "  ");
        let _ = writeln!(out, ",");
        let mut violations = self.violations.clone();
        violations.sort();
        if violations.is_empty() {
            let _ = writeln!(out, "  \"violations\": [],");
        } else {
            let _ = writeln!(out, "  \"violations\": [");
            for (i, v) in violations.iter().enumerate() {
                out.push_str("    ");
                json::write_str(&mut out, v);
                let _ = writeln!(out, "{}", if i + 1 < violations.len() { "," } else { "" });
            }
            let _ = writeln!(out, "  ],");
        }
        match &self.fuzz {
            None => {
                let _ = writeln!(out, "  \"fuzz\": null");
            }
            Some(fuzz) => {
                let _ = writeln!(out, "  \"fuzz\": {{");
                let _ = writeln!(out, "    \"generations\": {},", fuzz.generations);
                let _ = writeln!(out, "    \"initial_seeds\": {},", fuzz.initial_seeds);
                let _ = writeln!(
                    out,
                    "    \"novel_from_mutation\": {},",
                    fuzz.novel_from_mutation
                );
                let _ = writeln!(out, "    \"fresh_executions\": {},", fuzz.fresh_executions);
                out.push_str("    \"fresh_signatures\": ");
                write_signature_map(&mut out, &fuzz.fresh_signatures, "    ");
                let _ = writeln!(out);
                let _ = writeln!(out, "  }}");
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a document written by [`CoverageDoc::render`].
    ///
    /// # Errors
    ///
    /// A human-readable message when the text is not a coverage document.
    pub fn parse(text: &str) -> Result<CoverageDoc, String> {
        let doc = json::parse(text)?;
        json::expect_schema(&doc, COVERAGE_SCHEMA)?;
        let mode = match doc.get("mode") {
            Some(Value::Str(s)) => s.clone(),
            other => return Err(format!("bad \"mode\": {other:?}")),
        };
        let executions = doc
            .get("executions")
            .and_then(Value::as_u64)
            .ok_or("missing \"executions\"")?;
        let mut coverage = PathCoverage::default();
        for (name, value) in doc
            .get("counters")
            .and_then(Value::as_obj)
            .ok_or("missing \"counters\"")?
        {
            let value = value
                .as_u64()
                .ok_or_else(|| format!("bad counter {name:?}"))?;
            if !set_counter(&mut coverage, name, value) {
                return Err(format!("unknown counter {name:?}"));
            }
        }
        let signatures =
            parse_signature_map(doc.get("signatures").ok_or("missing \"signatures\"")?)?;
        let mut violations = Vec::new();
        for v in doc
            .get("violations")
            .and_then(Value::as_arr)
            .ok_or("missing \"violations\"")?
        {
            match v {
                Value::Str(s) => violations.push(s.clone()),
                other => return Err(format!("bad violation entry: {other:?}")),
            }
        }
        let fuzz = match doc.get("fuzz") {
            None | Some(Value::Null) => None,
            Some(section) => {
                let field = |name: &str| {
                    section
                        .get(name)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("missing fuzz field {name:?}"))
                };
                Some(FuzzSection {
                    generations: field("generations")?,
                    initial_seeds: field("initial_seeds")?,
                    novel_from_mutation: field("novel_from_mutation")?,
                    fresh_executions: field("fresh_executions")?,
                    fresh_signatures: parse_signature_map(
                        section
                            .get("fresh_signatures")
                            .ok_or("missing fuzz field \"fresh_signatures\"")?,
                    )?,
                })
            }
        };
        Ok(CoverageDoc {
            mode,
            executions,
            coverage,
            signatures,
            violations,
            fuzz,
        })
    }

    /// Unions another document into this one: executions add, counters
    /// sum, signature maps merge per key, violations concatenate (render
    /// sorts them), fuzz sections sum field-wise. Merging a sweep
    /// document into a fuzz one (or vice versa) yields mode `"mixed"`.
    pub fn merge(&mut self, other: &CoverageDoc) {
        if self.mode != other.mode {
            self.mode = "mixed".into();
        }
        self.executions += other.executions;
        self.coverage.merge(&other.coverage);
        merge_signatures(&mut self.signatures, &other.signatures);
        self.violations.extend(other.violations.iter().cloned());
        self.fuzz = match (self.fuzz.take(), &other.fuzz) {
            (None, None) => None,
            (Some(section), None) => Some(section),
            (None, Some(section)) => Some(section.clone()),
            (Some(mut section), Some(incoming)) => {
                section.generations += incoming.generations;
                section.initial_seeds += incoming.initial_seeds;
                section.novel_from_mutation += incoming.novel_from_mutation;
                section.fresh_executions += incoming.fresh_executions;
                merge_signatures(&mut section.fresh_signatures, &incoming.fresh_signatures);
                Some(section)
            }
        };
    }

    /// The human triage document: saturated paths (highest-hit counters),
    /// starved paths (never hit), the fuzz-vs-fresh signature gain, and
    /// every violation with its replay handle. This is what the nightly
    /// CI job uploads.
    #[must_use]
    pub fn triage(&self) -> String {
        let mut out = String::from("# Coverage triage\n\n");
        let _ = writeln!(out, "mode: {}", self.mode);
        let _ = writeln!(out, "executions: {}", self.executions);
        let _ = writeln!(out, "distinct path signatures: {}", self.signatures.len());
        let _ = writeln!(out, "violations: {}", self.violations.len());
        if let Some(fuzz) = &self.fuzz {
            out.push_str("\n## Fuzz vs fresh-seed baseline\n\n");
            let _ = writeln!(
                out,
                "fuzz: {} distinct signatures over {} executions \
                 ({} minted by mutation, {} generations from {} initial seeds)",
                self.signatures.len(),
                self.executions,
                fuzz.novel_from_mutation,
                fuzz.generations,
                fuzz.initial_seeds,
            );
            if fuzz.fresh_executions == 0 {
                out.push_str("fresh baseline: not run\n");
            } else {
                let fuzzed = self.signatures.len() as f64;
                let baseline = (fuzz.fresh_signatures.len() as f64).max(1.0);
                let gain = (fuzzed - baseline) / baseline * 100.0;
                let _ = writeln!(
                    out,
                    "fresh baseline: {} distinct signatures over {} executions",
                    fuzz.fresh_signatures.len(),
                    fuzz.fresh_executions,
                );
                let _ = writeln!(out, "signature gain over fresh seeds: {gain:+.1}%");
            }
        }
        let mut hit: Vec<(&'static str, u64)> = counter_pairs(&self.coverage)
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .collect();
        hit.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out.push_str("\n## Saturated paths (highest-hit counters)\n\n");
        if hit.is_empty() {
            out.push_str("  (none hit at all)\n");
        }
        for (name, value) in &hit {
            let _ = writeln!(out, "  {name}: {value}");
        }
        out.push_str("\n## Starved paths (never hit)\n\n");
        let starved: Vec<&'static str> = counter_pairs(&self.coverage)
            .into_iter()
            .filter(|&(_, v)| v == 0)
            .map(|(name, _)| name)
            .collect();
        if starved.is_empty() {
            out.push_str("  (none — every tracked path was exercised)\n");
        }
        for name in &starved {
            let _ = writeln!(out, "  {name}");
        }
        out.push_str("\n## Violations\n\n");
        if self.violations.is_empty() {
            out.push_str("  (none)\n");
        } else {
            let mut violations = self.violations.clone();
            violations.sort();
            for v in &violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ExecutionArena;

    #[test]
    fn mutation_is_a_pure_function_of_plan_and_seed() {
        let plan = ScenarioPlan::generate(11, &ScenarioConfig::default());
        for seed in 0..50 {
            let a = draw(&plan, &mut Rng::new(seed));
            assert_eq!(a, draw(&plan, &mut Rng::new(seed)));
        }
    }

    #[test]
    fn mutations_actually_change_plans() {
        let plan = ScenarioPlan::generate(11, &ScenarioConfig::default());
        let base = format!("{plan:?}");
        let changed = (0..50)
            .map(|s| apply(&plan, &draw(&plan, &mut Rng::new(s))).expect("drawn edits apply"))
            .filter(|edited| format!("{edited:?}") != base)
            .count();
        assert!(
            changed >= 45,
            "only {changed}/50 mutations changed the plan"
        );
    }

    #[test]
    fn fuzz_loop_is_deterministic_and_finds_novelty() {
        let config = FuzzConfig {
            executions: 96,
            initial_seeds: 32,
            batch: 16,
            workers: 2,
            ..FuzzConfig::default()
        };
        let a = fuzz(&config);
        let b = fuzz(&config);
        assert_eq!(a.executions, 96);
        assert_eq!(a.signatures, b.signatures);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.novel_from_mutation, b.novel_from_mutation);
        assert!(a.generations > 0);
        assert!(
            a.novel_from_mutation > 0,
            "mutation found no novel signature in 64 children:\n{}",
            a.summary()
        );
    }

    #[test]
    fn coverage_doc_round_trips_and_merges() {
        let report = fuzz(&FuzzConfig {
            executions: 24,
            initial_seeds: 16,
            batch: 8,
            workers: 2,
            compare_fresh: true,
            ..FuzzConfig::default()
        });
        let doc = CoverageDoc::from_fuzz(&report);
        let text = doc.render();
        let parsed = CoverageDoc::parse(&text).expect("parse rendered doc");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.render(), text, "render must be canonical");
        let mut merged = doc.clone();
        merged.merge(&doc);
        assert_eq!(merged.executions, 2 * doc.executions);
        assert_eq!(merged.mode, "fuzz");
        let triage = merged.triage();
        assert!(triage.contains("## Saturated paths"), "{triage}");
        assert!(
            triage.contains("signature gain over fresh seeds"),
            "{triage}"
        );
    }

    #[test]
    fn mutated_violations_persist_replayable_corpus_entries() {
        // Force a violation without needing a real protocol bug: fuzz a
        // tiny budget, then fabricate the corpus write path directly.
        let dir = std::env::temp_dir().join(format!("caa-fuzz-corpus-{}", std::process::id()));
        let cfg = ScenarioConfig::default();
        let mut recipe = Recipe::base(11);
        recipe
            .edits
            .push(draw(&ScenarioPlan::generate(11, &cfg), &mut Rng::new(1)));
        let plan = recipe.materialize(&cfg).expect("drawn edits apply");
        let mut arena = ExecutionArena::new();
        let result = run_plan_checked(plan, false, &mut arena);
        let entry = dir.join(recipe.entry_name());
        write_corpus_files(&entry, &cfg.to_kv(), &recipe, &result).expect("corpus files");

        let (loaded, loaded_cfg, loaded_recipe) =
            crate::edit::load_corpus_plan(&entry).expect("load corpus entry");
        assert_eq!(format!("{loaded_cfg:?}"), format!("{cfg:?}"));
        assert_eq!(loaded_recipe, recipe);
        let recorded = std::fs::read_to_string(entry.join("trace.txt")).unwrap();
        let replay = run_plan_checked(loaded, false, &mut arena);
        assert_eq!(
            replay.artifacts.trace.render(),
            recorded,
            "recipe replay must reproduce the recorded trace byte-exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
