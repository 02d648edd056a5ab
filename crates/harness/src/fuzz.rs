//! **caa-fuzz** — coverage-guided scenario exploration: mutate corpus
//! plans toward protocol paths fresh-seed sampling starves.
//!
//! Fresh-seed sweeps saturate the common protocol paths quickly and then
//! spend the rest of their budget re-hitting them; the rare combinations
//! (exit races × view changes × object contention, deep ƒ cascades, crash
//! instants straddling round boundaries) stay under-covered because every
//! knob re-rolls independently per seed. This module closes the loop the
//! ROADMAP asks for: it keys **novelty** on the
//! [`PathCoverage::signature`] of each run, keeps a **frontier** of plans
//! whose traces minted novel signatures, and schedules structured
//! **mutations** of frontier plans — small, validity-preserving edits that
//! hold everything else fixed, so one knob moves at a time and the
//! neighbourhood of an interesting scenario actually gets explored.
//!
//! ## Mutation reproducibility contract
//!
//! [`mutate_plan`] is a **pure function** of `(parent plan, mutation
//! seed)`: the mutation seed feeds a private [`Rng`] stream that picks the
//! mutator and all of its choices. A fuzz find is therefore fully
//! described by its [`Lineage`] — the base scenario seed plus the ordered
//! list of mutation seeds — and [`Lineage::materialize`] rebuilds the
//! exact plan from scratch. Corpus entries persist the lineage
//! (`lineage.txt`), so `caa replay --corpus <entry>` re-derives the mutated
//! plan and rechecks the recorded trace byte-exactly. Worker count never
//! affects outcomes: mutation seeds derive from a global child counter,
//! parents are selected *between* generations on insertion-ordered state,
//! and batch results are committed in child-index order.
//!
//! ## Validity
//!
//! Every mutator preserves the generator's invariants
//! ([`validate_plan`]): the single-object-depth discipline, the timeout
//! hierarchy separation, full-group top actions, disjoint nested groups,
//! raiser-delay bounds. Mutated plans are thus judged by the *same*
//! oracles as fresh ones — a fuzz "finding" is a protocol bug, never a
//! malformed scenario.
//!
//! ## Adding a mutator
//!
//! Write a `fn(&mut ScenarioPlan, &mut Rng) -> bool` that either commits
//! a complete edit (returning `true`) or leaves the plan untouched
//! (returning `false` when inapplicable), append it to [`MUTATORS`], and
//! extend the property test in `tests/fuzz_mutators.rs` if the edit
//! explores a new structural dimension. Mutators run against a clone, so
//! a `false` return after partial work is a correctness bug only for the
//! mutator's own determinism, not for the plan — but keep edits atomic
//! anyway: the retry loop assumes `false` consumed only rng draws.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use caa_telemetry::json::{self, Value};

use crate::metrics::{SweepMetrics, WallCounter};
use crate::plan::{
    gen_subtree, plan_object_depth, rename_subtree, validate_plan, with_action_mut, ActionPlan,
    CrashChoice, FaultChoice, ObjectOp, Phase, RaisePhase, ScenarioConfig, ScenarioPlan,
    VerdictChoice,
};
use crate::rng::Rng;
use crate::sweep::{
    merge_signatures, run_plan_checked, run_workers, sweep, wall_ns, write_corpus_files,
    PathCoverage, SeedResult, SignatureMap, SweepConfig, SweepReport, CAA,
};

/// Schema tag of `coverage.json` documents ([`CoverageDoc`]).
pub const COVERAGE_SCHEMA: &str = "caa-coverage/v1";

// ---------------------------------------------------------------------------
// Lineage: the reproducibility unit of a fuzz find.
// ---------------------------------------------------------------------------

/// How a plan came to be: the base scenario seed plus the ordered mutation
/// seeds applied to it. Together with the [`ScenarioConfig`] this is a
/// complete, byte-exact recipe for the plan ([`Lineage::materialize`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineage {
    /// The base scenario seed ([`ScenarioPlan::generate`]).
    pub seed: u64,
    /// Mutation seeds, applied in order via [`mutate_plan`].
    pub mutations: Vec<u64>,
}

impl Lineage {
    /// An unmutated base seed.
    #[must_use]
    pub fn base(seed: u64) -> Lineage {
        Lineage {
            seed,
            mutations: Vec::new(),
        }
    }

    /// This lineage extended by one more mutation.
    #[must_use]
    pub fn child(&self, mutation_seed: u64) -> Lineage {
        let mut mutations = self.mutations.clone();
        mutations.push(mutation_seed);
        Lineage {
            seed: self.seed,
            mutations,
        }
    }

    /// Rebuilds the exact plan this lineage describes: generate the base
    /// seed under `config`, then replay every mutation seed through the
    /// pure [`mutate_plan`].
    #[must_use]
    pub fn materialize(&self, config: &ScenarioConfig) -> ScenarioPlan {
        let mut plan = ScenarioPlan::generate(self.seed, config);
        for &mutation_seed in &self.mutations {
            plan = mutate_plan(&plan, mutation_seed).plan;
        }
        plan
    }

    /// The persisted line-oriented form (`seed <n>`, then one
    /// `mutate 0x<hex>` line per mutation, in order).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("seed {}\n", self.seed);
        for m in &self.mutations {
            let _ = writeln!(out, "mutate {m:#018x}");
        }
        out
    }

    /// Parses the form written by [`Lineage::render`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the offending line.
    pub fn parse(text: &str) -> Result<Lineage, String> {
        let mut seed: Option<u64> = None;
        let mut mutations = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(s) = line.strip_prefix("seed ") {
                seed = Some(s.trim().parse().map_err(|e| format!("bad seed: {e}"))?);
            } else if let Some(m) = line.strip_prefix("mutate ") {
                let m = m.trim();
                let m = m.strip_prefix("0x").unwrap_or(m);
                mutations
                    .push(u64::from_str_radix(m, 16).map_err(|e| format!("bad mutation: {e}"))?);
            } else {
                return Err(format!("unrecognised lineage line: {line:?}"));
            }
        }
        Ok(Lineage {
            seed: seed.ok_or("lineage has no seed line")?,
            mutations,
        })
    }

    /// The corpus-entry directory name for this lineage: the bare seed
    /// for unmutated plans (the sweep's existing convention), or
    /// `<seed>-m<hash>` for mutated ones — the seed stays in the leading
    /// digits, so every existing seed-parsing consumer keeps working.
    #[must_use]
    pub fn entry_name(&self) -> String {
        if self.mutations.is_empty() {
            return self.seed.to_string();
        }
        let hash = crate::trace::hash64(self.render().as_bytes());
        format!("{}-m{:08x}", self.seed, hash as u32)
    }
}

/// Loads a corpus entry's plan: the persisted [`ScenarioConfig`]
/// (`config.txt`), plus either the [`Lineage`] (`lineage.txt`, fuzz
/// entries) or the seed parsed from the directory name's leading digits
/// (sweep entries). When the entry also records a workload-bisection
/// step sequence (`workload.txt`), the steps replay on top — so a
/// 1-minimal shrunk violation rechecks byte-exactly through the same
/// `caa replay --corpus` path as any other entry. Returns the materialized
/// plan and the config.
///
/// # Errors
///
/// A human-readable message when the entry is unreadable or malformed.
pub fn load_corpus_plan(entry: &Path) -> Result<(ScenarioPlan, ScenarioConfig), String> {
    let config = match std::fs::read_to_string(entry.join("config.txt")) {
        Ok(text) => ScenarioConfig::from_kv(&text)?,
        Err(e) => return Err(format!("cannot read {:?}: {e}", entry.join("config.txt"))),
    };
    let lineage = match std::fs::read_to_string(entry.join("lineage.txt")) {
        Ok(text) => Lineage::parse(&text)?,
        Err(_) => {
            let name = entry
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| format!("corpus entry has no usable name: {entry:?}"))?;
            let digits: String = name.chars().take_while(char::is_ascii_digit).collect();
            let seed = digits
                .parse()
                .map_err(|_| format!("corpus entry name {name:?} does not start with a seed"))?;
            Lineage::base(seed)
        }
    };
    let mut plan = lineage.materialize(&config);
    if let Ok(text) = std::fs::read_to_string(entry.join("workload.txt")) {
        let steps = crate::bisect::parse_steps(&text)?;
        plan = crate::bisect::apply_steps(&plan, &steps).ok_or_else(|| {
            format!("recorded workload steps no longer apply to the entry's plan: {entry:?}")
        })?;
    }
    Ok((plan, config))
}

// ---------------------------------------------------------------------------
// Mutators.
// ---------------------------------------------------------------------------

/// The result of one [`mutate_plan`] application.
#[derive(Debug, Clone)]
pub struct Mutated {
    /// The mutated plan (always [`validate_plan`]-clean).
    pub plan: ScenarioPlan,
    /// Which mutator applied (for triage and tests).
    pub mutator: &'static str,
}

type Mutator = fn(&mut ScenarioPlan, &mut Rng) -> bool;

/// The mutator table, each entry a named validity-preserving plan edit.
/// Order matters only for reproducibility: the mutation seed indexes into
/// this table **modulo its length**, so *any* size change remaps what a
/// recorded mutation seed picks. A persisted lineage therefore replays
/// byte-exactly only under the table that recorded it; regression
/// lineages checked into tests must be re-derived when the table grows
/// (reordering or removing entries is never OK — append and re-pin).
pub const MUTATORS: &[(&str, Mutator)] = &[
    ("shift_raise", shift_raise),
    ("widen_raise", widen_raise),
    ("retarget_raise", retarget_raise),
    ("drop_raise", drop_raise),
    ("add_raise", add_raise),
    ("move_crash", move_crash),
    ("retarget_crash", retarget_crash),
    ("add_crash", add_crash),
    ("drop_crash", drop_crash),
    ("perturb_fault", perturb_fault),
    ("add_fault", add_fault),
    ("drop_fault", drop_fault),
    ("perturb_timing", perturb_timing),
    ("perturb_timeouts", perturb_timeouts),
    ("redepth_top", redepth_top),
    ("regen_child", regen_child),
    ("dup_top_action", dup_top_action),
    ("perturb_compute", perturb_compute),
    ("perturb_object_op", perturb_object_op),
    ("perturb_verdict", perturb_verdict),
    ("toggle_eab", toggle_eab),
    // Appended after the multi-crash/rejoin rework — new entries go below
    // these (append-only keeps old lineages replayable).
    ("add_second_crash", add_second_crash),
    ("add_rejoin", add_rejoin),
    ("drop_rejoin", drop_rejoin),
    ("perturb_rejoin", perturb_rejoin),
];

/// Applies one structured mutation to `plan`, chosen and parameterised by
/// `mutation_seed` alone — a **pure function**, the reproducibility
/// anchor of every fuzz find (see the module docs). Inapplicable picks
/// (e.g. `drop_crash` on a crash-free plan) retry deterministically;
/// always-applicable mutators (`perturb_timing`) guarantee termination.
#[must_use]
pub fn mutate_plan(plan: &ScenarioPlan, mutation_seed: u64) -> Mutated {
    let mut rng = Rng::new(mutation_seed);
    for _ in 0..256 {
        let (name, mutator) = MUTATORS[rng.below(MUTATORS.len() as u64) as usize];
        let mut candidate = plan.clone();
        if mutator(&mut candidate, &mut rng) {
            if let Err(e) = validate_plan(&candidate) {
                // A mutator that emits an invalid plan is a harness bug;
                // fall through to the always-valid fallback in release
                // builds rather than feeding the oracles garbage.
                debug_assert!(false, "mutator {name} broke plan validity: {e}");
                break;
            }
            return Mutated {
                plan: candidate,
                mutator: name,
            };
        }
    }
    let mut candidate = plan.clone();
    let applied = perturb_timing(&mut candidate, &mut rng);
    debug_assert!(applied, "perturb_timing applies to every plan");
    Mutated {
        plan: candidate,
        mutator: "perturb_timing",
    }
}

/// Uniformly picks the preorder index of an action satisfying `pred`.
fn pick_action(
    plan: &ScenarioPlan,
    rng: &mut Rng,
    pred: impl Fn(&ActionPlan) -> bool,
) -> Option<usize> {
    let candidates: Vec<usize> = plan
        .actions()
        .iter()
        .enumerate()
        .filter(|(_, a)| pred(a))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.below(candidates.len() as u64) as usize])
}

/// Raiser delays stay inside the generator's concurrency window: far
/// below the exit-timeout scale, so a delayed raise never reads as a
/// crash.
const RAISE_WINDOW_NS: u64 = 200_000_000;

fn shift_raise(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |a| a.raise.is_some()) else {
        return false;
    };
    with_action_mut(plan, i, |a| {
        let raise = a.raise.as_mut().expect("picked for its raise phase");
        let k = rng.below(raise.raisers.len() as u64) as usize;
        raise.raisers[k].1 = rng.below(RAISE_WINDOW_NS);
    })
    .is_some()
}

fn widen_raise(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |a| {
        a.raise
            .as_ref()
            .is_some_and(|r| r.raisers.len() < a.group.len())
    }) else {
        return false;
    };
    with_action_mut(plan, i, |a| {
        let raisers: Vec<u32> = a
            .raise
            .as_ref()
            .expect("picked for its raise phase")
            .raisers
            .iter()
            .map(|&(t, _)| t)
            .collect();
        let free: Vec<u32> = a
            .group
            .iter()
            .copied()
            .filter(|t| !raisers.contains(t))
            .collect();
        let t = free[rng.below(free.len() as u64) as usize];
        a.raise
            .as_mut()
            .expect("picked for its raise phase")
            .raisers
            .push((t, rng.below(RAISE_WINDOW_NS)));
    })
    .is_some()
}

fn retarget_raise(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |a| {
        a.raise
            .as_ref()
            .is_some_and(|r| r.raisers.len() < a.group.len())
    }) else {
        return false;
    };
    with_action_mut(plan, i, |a| {
        let raisers: Vec<u32> = a
            .raise
            .as_ref()
            .expect("picked for its raise phase")
            .raisers
            .iter()
            .map(|&(t, _)| t)
            .collect();
        let free: Vec<u32> = a
            .group
            .iter()
            .copied()
            .filter(|t| !raisers.contains(t))
            .collect();
        let to = free[rng.below(free.len() as u64) as usize];
        let raise = a.raise.as_mut().expect("picked for its raise phase");
        let k = rng.below(raise.raisers.len() as u64) as usize;
        raise.raisers[k].0 = to;
    })
    .is_some()
}

fn drop_raise(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |a| a.raise.is_some()) else {
        return false;
    };
    with_action_mut(plan, i, |a| {
        let raise = a.raise.as_mut().expect("picked for its raise phase");
        if raise.raisers.len() > 1 {
            let k = rng.below(raise.raisers.len() as u64) as usize;
            raise.raisers.remove(k);
        } else {
            a.raise = None;
        }
    })
    .is_some()
}

fn add_raise(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |a| a.raise.is_none()) else {
        return false;
    };
    with_action_mut(plan, i, |a| {
        let mut pool = a.group.clone();
        let first = pool.remove(rng.below(pool.len() as u64) as usize);
        let mut raisers = vec![(first, rng.below(RAISE_WINDOW_NS))];
        if !pool.is_empty() && rng.chance(0.4) {
            let second = pool[rng.below(pool.len() as u64) as usize];
            raisers.push((second, rng.below(RAISE_WINDOW_NS)));
        }
        a.raise = Some(RaisePhase { raisers });
    })
    .is_some()
}

/// Uniformly picks a crash index. Single-crash plans (everything an old
/// lineage can reach) consume **no** rng draw, so pre-multi-crash
/// lineages keep materializing byte-identically.
fn pick_crash(plan: &ScenarioPlan, rng: &mut Rng) -> Option<usize> {
    match plan.crashes.len() {
        0 => None,
        1 => Some(0),
        n => Some(rng.below(n as u64) as usize),
    }
}

fn move_crash(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(k) = pick_crash(plan, rng) else {
        return false;
    };
    let mut crash = plan.crashes[k];
    if rng.chance(0.5) {
        crash.delay_ns = rng.below(2_000_000_000);
    } else {
        // Snap the crash instant onto a cumulative compute-phase boundary
        // of the crash action (± a small jitter): the instants where the
        // protocol transitions between rounds, which uniform sampling
        // essentially never lands on.
        let action = &plan.top[crash.top_action as usize];
        let mut boundaries = vec![0u64];
        let mut acc = 0u64;
        for phase in &action.phases {
            if let Phase::Compute { dur_ns, .. } = phase {
                acc += dur_ns;
                boundaries.push(acc);
            }
        }
        let boundary = boundaries[rng.below(boundaries.len() as u64) as usize];
        let jitter = rng.below(2_000_000);
        crash.delay_ns = if rng.chance(0.5) {
            boundary.saturating_sub(jitter)
        } else {
            boundary + jitter
        };
    }
    plan.crashes[k] = crash;
    true
}

fn retarget_crash(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(k) = pick_crash(plan, rng) else {
        return false;
    };
    let mut crash = plan.crashes[k];
    if rng.chance(0.5) {
        // Threads already claimed by *other* crashes are off limits (the
        // validator forbids double-crashing a thread). For single-crash
        // plans the free list is every thread in ascending order, so the
        // draw maps to the same thread the pre-multi-crash mutator chose.
        let free: Vec<u32> = (0..plan.threads)
            .filter(|&t| {
                plan.crashes
                    .iter()
                    .enumerate()
                    .all(|(i, c)| i == k || c.thread != t)
            })
            .collect();
        crash.thread = free[rng.below(free.len() as u64) as usize];
    } else {
        crash.top_action = rng.below(plan.top.len() as u64) as u32;
    }
    plan.crashes[k] = crash;
    true
}

fn add_crash(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    if !plan.crashes.is_empty() {
        return false;
    }
    plan.crashes.push(CrashChoice {
        thread: rng.below(u64::from(plan.threads)) as u32,
        top_action: rng.below(plan.top.len() as u64) as u32,
        delay_ns: rng.below(1_500_000_000),
        rejoin_delay_ns: None,
    });
    true
}

fn drop_crash(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(k) = pick_crash(plan, rng) else {
        return false;
    };
    plan.crashes.remove(k);
    true
}

fn add_second_crash(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    // Needs an existing crash, and leaves at least one survivor.
    if plan.crashes.is_empty() || plan.crashes.len() + 1 >= plan.threads as usize {
        return false;
    }
    let free: Vec<u32> = (0..plan.threads)
        .filter(|&t| plan.crashes.iter().all(|c| c.thread != t))
        .collect();
    if free.is_empty() {
        return false;
    }
    plan.crashes.push(CrashChoice {
        thread: free[rng.below(free.len() as u64) as usize],
        top_action: rng.below(plan.top.len() as u64) as u32,
        delay_ns: rng.below(1_500_000_000),
        rejoin_delay_ns: rng.chance(0.5).then(|| rng.below(30_000_000_000)),
    });
    true
}

fn add_rejoin(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let candidates: Vec<usize> = plan
        .crashes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.rejoin_delay_ns.is_none())
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return false;
    }
    let k = candidates[rng.below(candidates.len() as u64) as usize];
    plan.crashes[k].rejoin_delay_ns = Some(rng.below(30_000_000_000));
    true
}

fn drop_rejoin(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let candidates: Vec<usize> = plan
        .crashes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.rejoin_delay_ns.is_some())
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return false;
    }
    let k = candidates[rng.below(candidates.len() as u64) as usize];
    plan.crashes[k].rejoin_delay_ns = None;
    true
}

fn perturb_rejoin(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let candidates: Vec<usize> = plan
        .crashes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.rejoin_delay_ns.is_some())
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return false;
    }
    let k = candidates[rng.below(candidates.len() as u64) as usize];
    // Half the rolls race the restart against detection (inside the
    // signalling-timeout window), half land anywhere in the patience band.
    plan.crashes[k].rejoin_delay_ns = Some(if rng.chance(0.5) {
        rng.below(2_000_000_000)
    } else {
        rng.below(60_000_000_000)
    });
    true
}

fn perturb_fault(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    if plan.faults.is_empty() {
        return false;
    }
    let threads = plan.threads;
    let i = rng.below(plan.faults.len() as u64) as usize;
    let fault = &mut plan.faults[i];
    // Unbounded (signalling-crash) rules stay loss rules with bounded
    // perturbation surface: skip and source only.
    let choices = if fault.count == u64::MAX { 2 } else { 4 };
    match rng.below(choices) {
        0 => fault.skip = rng.below(30),
        1 => {
            fault.src = if rng.chance(0.7) {
                Some(rng.below(u64::from(threads)) as u32)
            } else {
                None
            };
            if fault.count == u64::MAX && fault.src.is_none() {
                // An unbounded rule losing *everyone's* announcements
                // starves the whole signalling plane; keep it pinned.
                fault.src = Some(rng.below(u64::from(threads)) as u32);
            }
        }
        2 => fault.count = rng.range(1, 3),
        _ => fault.lose = !fault.lose,
    }
    true
}

fn add_fault(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    if plan.faults.len() >= 6 {
        return false;
    }
    let unbounded = plan.faults.iter().filter(|f| f.count == u64::MAX).count();
    let make_unbounded = unbounded == 0 && rng.chance(0.2);
    plan.faults.push(FaultChoice {
        class: if make_unbounded || rng.chance(0.5) {
            "toBeSignalled"
        } else {
            "App"
        },
        lose: make_unbounded || rng.chance(0.5),
        src: if make_unbounded || rng.chance(0.7) {
            Some(rng.below(u64::from(plan.threads)) as u32)
        } else {
            None
        },
        skip: rng.below(30),
        count: if make_unbounded {
            u64::MAX
        } else {
            rng.range(1, 3)
        },
    });
    true
}

fn drop_fault(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    if plan.faults.is_empty() {
        return false;
    }
    let i = rng.below(plan.faults.len() as u64) as usize;
    plan.faults.remove(i);
    true
}

fn perturb_timing(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    match rng.below(4) {
        0 => plan.t_mmax = rng.f64_range(0.05, 1.0),
        1 => plan.t_reso = rng.f64_range(0.0, 0.3),
        2 => plan.delta = rng.f64_range(0.0, 0.3),
        _ => plan.t_abort = rng.f64_range(0.0, 0.3),
    }
    true
}

fn perturb_timeouts(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    // Scale the whole hierarchy together: the signalling timeout moves
    // within a safe band (well above any live peer's announcement delay),
    // and the bounded exit/resolution waits keep at least the generator's
    // 10x separation above it — so mutated timeouts stretch or squeeze
    // the protocol's patience without ever suspecting a live peer.
    plan.signal_timeout = rng.f64_range(30.0, 90.0);
    plan.exit_timeout = plan.signal_timeout * rng.f64_range(10.0, 40.0);
    plan.resolution_timeout = plan.signal_timeout * rng.f64_range(10.0, 40.0);
    true
}

/// The single object depth new subtrees may place operations at: the
/// plan's existing depth when any operations exist, an rng-chosen one
/// when the plan has an (unused) object pool, `None` when it has no pool.
fn subtree_object_depth(plan: &ScenarioPlan, rng: &mut Rng, max_depth: usize) -> Option<usize> {
    if plan.objects.is_empty() {
        return None;
    }
    plan_object_depth(plan).or_else(|| Some(rng.below(max_depth as u64 + 1) as usize))
}

fn redepth_top(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let i = rng.below(plan.top.len() as u64) as usize;
    let max_depth = (plan.max_depth() + 1).min(3);
    let object_depth = subtree_object_depth(plan, rng, max_depth);
    let name = plan.top[i].name.clone();
    let group = plan.top[i].group.clone();
    plan.top[i] = gen_subtree(rng, name, group, 0, max_depth, object_depth);
    true
}

fn regen_child(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |a| {
        a.phases.iter().any(|p| matches!(p, Phase::Nested { .. }))
    }) else {
        return false;
    };
    let max_depth = (plan.max_depth() + 1).min(3);
    let object_depth = subtree_object_depth(plan, rng, max_depth);
    with_action_mut(plan, i, |a| {
        let nested: Vec<usize> = a
            .phases
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Phase::Nested { .. }))
            .map(|(p, _)| p)
            .collect();
        let p = nested[rng.below(nested.len() as u64) as usize];
        let Phase::Nested { children } = &mut a.phases[p] else {
            unreachable!("filtered to nested phases");
        };
        let c = rng.below(children.len() as u64) as usize;
        let child = &children[c];
        children[c] = gen_subtree(
            rng,
            child.name.clone(),
            child.group.clone(),
            child.depth,
            max_depth.max(child.depth),
            object_depth,
        );
    })
    .is_some()
}

fn dup_top_action(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    if plan.top.len() >= 4 {
        return false;
    }
    let i = rng.below(plan.top.len() as u64) as usize;
    let mut clone = plan.top[i].clone();
    // Find a fresh root name: duplicated subtrees must keep globally
    // unique action names for handler/exception identities to stay
    // distinct.
    let mut k = plan.top.len();
    while plan.top.iter().any(|a| a.name == format!("a{k}")) {
        k += 1;
    }
    rename_subtree(&mut clone, &format!("a{k}"));
    plan.top.push(clone);
    true
}

fn perturb_compute(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |a| {
        a.phases.iter().any(|p| matches!(p, Phase::Compute { .. }))
    }) else {
        return false;
    };
    with_action_mut(plan, i, |a| {
        let group = a.group.clone();
        let computes: Vec<usize> = a
            .phases
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Phase::Compute { .. }))
            .map(|(p, _)| p)
            .collect();
        let p = computes[rng.below(computes.len() as u64) as usize];
        let Phase::Compute {
            dur_ns,
            sends,
            listeners,
            object_ops,
        } = &mut a.phases[p]
        else {
            unreachable!("filtered to compute phases");
        };
        match rng.below(3) {
            0 => {
                // Re-roll the duration within the generator's band; never
                // below any scheduled object operation's offset.
                let floor = object_ops
                    .iter()
                    .map(|op| op.delay_ns + 1)
                    .max()
                    .unwrap_or(0);
                *dur_ns = ((rng.f64_range(0.02, 0.4) * 1e9) as u64).max(floor);
            }
            1 if group.len() >= 2 => {
                if sends.is_empty() || rng.chance(0.5) {
                    let from = group[rng.below(group.len() as u64) as usize];
                    let peers: Vec<u32> = group.iter().copied().filter(|&t| t != from).collect();
                    let to = peers[rng.below(peers.len() as u64) as usize];
                    sends.push((from, to));
                } else {
                    let k = rng.below(sends.len() as u64) as usize;
                    sends.remove(k);
                }
            }
            _ => {
                let t = group[rng.below(group.len() as u64) as usize];
                if let Some(pos) = listeners.iter().position(|&l| l == t) {
                    listeners.remove(pos);
                } else {
                    listeners.push(t);
                    // Listeners drain the inbox instead of computing:
                    // their scheduled object operations go with them.
                    object_ops.retain(|op| op.thread != t);
                }
            }
        }
    })
    .is_some()
}

fn perturb_object_op(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |a| {
        a.phases.iter().any(|p| match p {
            Phase::Compute { object_ops, .. } => !object_ops.is_empty(),
            Phase::Nested { .. } => false,
        })
    }) else {
        return false;
    };
    with_action_mut(plan, i, |a| {
        let group = a.group.clone();
        let with_ops: Vec<usize> = a
            .phases
            .iter()
            .enumerate()
            .filter(|(_, p)| match p {
                Phase::Compute { object_ops, .. } => !object_ops.is_empty(),
                Phase::Nested { .. } => false,
            })
            .map(|(p, _)| p)
            .collect();
        let p = with_ops[rng.below(with_ops.len() as u64) as usize];
        let Phase::Compute {
            dur_ns,
            listeners,
            object_ops,
            ..
        } = &mut a.phases[p]
        else {
            unreachable!("filtered to compute phases with ops");
        };
        let k = rng.below(object_ops.len() as u64) as usize;
        match rng.below(4) {
            0 => object_ops[k].delay_ns = rng.below(*dur_ns),
            1 => object_ops[k].update = !object_ops[k].update,
            2 => {
                // Contend harder: copy the operation onto another
                // non-listener member (same object — the single-object-
                // per-action rule — same depth by construction).
                let eligible: Vec<u32> = group
                    .iter()
                    .copied()
                    .filter(|t| !listeners.contains(t))
                    .collect();
                if !eligible.is_empty() {
                    let op = ObjectOp {
                        thread: eligible[rng.below(eligible.len() as u64) as usize],
                        delay_ns: rng.below(*dur_ns),
                        object: object_ops[k].object,
                        update: rng.chance(0.7),
                    };
                    object_ops.push(op);
                }
            }
            _ => {
                object_ops.remove(k);
            }
        }
    })
    .is_some()
}

fn perturb_verdict(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |_| true) else {
        return false;
    };
    with_action_mut(plan, i, |a| {
        let k = rng.below(a.verdicts.len() as u64) as usize;
        let roll = rng.unit_f64();
        a.verdicts[k].1 = if roll < 0.40 {
            VerdictChoice::Recovered
        } else if roll < 0.65 {
            VerdictChoice::Undo
        } else if roll < 0.85 {
            VerdictChoice::Signal
        } else {
            VerdictChoice::Fail
        };
    })
    .is_some()
}

fn toggle_eab(plan: &mut ScenarioPlan, rng: &mut Rng) -> bool {
    let Some(i) = pick_action(plan, rng, |a| a.depth > 0) else {
        return false;
    };
    with_action_mut(plan, i, |a| {
        let t = a.group[rng.below(a.group.len() as u64) as usize];
        if let Some(pos) = a.abort_raises_eab.iter().position(|&e| e == t) {
            a.abort_raises_eab.remove(pos);
        } else {
            a.abort_raises_eab.push(t);
        }
    })
    .is_some()
}

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
    /// Master seed of the mutation/selection streams. Two runs with the
    /// same `(scenario, executions, initial_seeds, start_seed, batch,
    /// fuzz_seed)` are identical regardless of worker count.
    pub fuzz_seed: u64,
    /// Worker OS threads; 0 = one per available core.
    pub workers: usize,
    /// Execute every plan twice and require byte-identical traces.
    pub check_replay: bool,
    /// Where violating lineages persist corpus entries (sweep layout plus
    /// `lineage.txt`). `None` disables persistence.
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

/// One violating lineage found by a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzViolation {
    /// The find's full reproduction recipe.
    pub lineage: Lineage,
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
    /// Violating lineages, in discovery order.
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
             {} distinct path signatures ({} minted by mutation), {} violating lineage(s)\n",
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
            let _ = writeln!(out, "  lineage {}:", violation.lineage.entry_name());
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
    lineage: Lineage,
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

/// Derives the mutation seed of global child `index` from the master fuzz
/// seed — a pure function, so any child's mutation replays from its
/// lineage without re-running the loop.
fn derive_mutation_seed(fuzz_seed: u64, index: u64) -> u64 {
    Rng::new(fuzz_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
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
        lineage: Lineage,
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
                lineage: lineage.clone(),
                plan,
                energy: 3,
            });
        }
        if let Some(result) = outcome.result {
            let corpus = config.corpus_dir.as_ref().and_then(|dir| {
                let entry = dir.join(lineage.entry_name());
                let dump = write_corpus_files(&entry, &config.scenario.to_kv(), &result)
                    .and_then(|()| std::fs::write(entry.join("lineage.txt"), lineage.render()));
                match dump {
                    Ok(()) => Some(entry),
                    Err(e) => {
                        eprintln!(
                            "corpus dump for lineage {} failed: {e}",
                            lineage.entry_name()
                        );
                        None
                    }
                }
            });
            self.violations.push(FuzzViolation {
                lineage,
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
    let mut child_index = 0u64;
    let mut metrics = SweepMetrics::default();

    // Generation 0: fresh seeds.
    let initial = config.initial_seeds.min(config.executions).max(1);
    let gen0: Vec<(Lineage, ScenarioPlan)> = (0..initial)
        .map(|i| {
            let seed = config.start_seed + i;
            (
                Lineage::base(seed),
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
    for ((lineage, plan), outcome) in gen0.into_iter().zip(outcomes) {
        state.commit(config, lineage, plan, outcome, None);
    }

    // Mutated generations: select, mutate, execute, commit in order.
    let mut selector = Rng::new(config.fuzz_seed);
    let mut generations = 0u64;
    while state.executed < config.executions && !state.frontier.is_empty() {
        generations += 1;
        let batch = config.batch.max(1).min(config.executions - state.executed);
        let mutation_started = Instant::now();
        let mut children: Vec<(usize, Lineage, ScenarioPlan)> = Vec::with_capacity(batch as usize);
        for _ in 0..batch {
            let parent = pick_parent(&state.frontier, &mut selector);
            let mutation_seed = derive_mutation_seed(config.fuzz_seed, child_index);
            child_index += 1;
            let mutated = mutate_plan(&state.frontier[parent].plan, mutation_seed);
            children.push((
                parent,
                state.frontier[parent].lineage.child(mutation_seed),
                mutated.plan,
            ));
        }
        // Parent selection plus mutation is the frontier stage.
        metrics
            .wall_clock
            .add_named("stage_mutation_ns", wall_ns(mutation_started.elapsed()));
        let outcomes = run_batch(
            &children.iter().map(|(_, _, p)| p).collect::<Vec<_>>(),
            config.workers,
            config.check_replay,
            &mut metrics,
        );
        for ((parent, lineage, plan), outcome) in children.into_iter().zip(outcomes) {
            state.commit(config, lineage, plan, outcome, Some(parent));
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
                violations.push(format!("lineage {}: {v}", find.lineage.entry_name()));
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
        for mutation_seed in 0..50 {
            let a = mutate_plan(&plan, mutation_seed);
            let b = mutate_plan(&plan, mutation_seed);
            assert_eq!(a.mutator, b.mutator);
            assert_eq!(format!("{:?}", a.plan), format!("{:?}", b.plan));
        }
    }

    #[test]
    fn mutations_actually_change_plans() {
        let plan = ScenarioPlan::generate(11, &ScenarioConfig::default());
        let base = format!("{plan:?}");
        let changed = (0..50)
            .filter(|&s| format!("{:?}", mutate_plan(&plan, s).plan) != base)
            .count();
        assert!(
            changed >= 45,
            "only {changed}/50 mutations changed the plan"
        );
    }

    #[test]
    fn lineage_round_trips_and_materializes_deterministically() {
        let lineage = Lineage {
            seed: 42,
            mutations: vec![7, 0xdead_beef, u64::MAX],
        };
        assert_eq!(Lineage::parse(&lineage.render()), Ok(lineage.clone()));
        assert!(Lineage::parse("mutate 0x1").is_err(), "seed line required");
        let cfg = ScenarioConfig::default();
        let a = lineage.materialize(&cfg);
        let b = lineage.materialize(&cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(validate_plan(&a).is_ok());
        assert_eq!(a.seed, 42, "lineage keeps the base seed");
        assert!(lineage.entry_name().starts_with("42-m"));
        assert_eq!(Lineage::base(9).entry_name(), "9");
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
        let lineage = Lineage::base(11).child(derive_mutation_seed(1, 0));
        let cfg = ScenarioConfig::default();
        let plan = lineage.materialize(&cfg);
        let mut arena = ExecutionArena::new();
        let result = run_plan_checked(plan, false, &mut arena);
        let entry = dir.join(lineage.entry_name());
        write_corpus_files(&entry, &cfg.to_kv(), &result).expect("corpus files");
        std::fs::write(entry.join("lineage.txt"), lineage.render()).expect("lineage");

        let (loaded, loaded_cfg) = load_corpus_plan(&entry).expect("load corpus entry");
        assert_eq!(format!("{loaded_cfg:?}"), format!("{cfg:?}"));
        let recorded = std::fs::read_to_string(entry.join("trace.txt")).unwrap();
        let replay = run_plan_checked(loaded, false, &mut arena);
        assert_eq!(
            replay.artifacts.trace.render(),
            recorded,
            "lineage replay must reproduce the recorded trace byte-exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
