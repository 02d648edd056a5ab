//! The scenario model: from a single `u64` seed to a fully determined
//! scenario plan.
//!
//! A [`ScenarioPlan`] fixes everything about one simulated run — the number
//! of participating threads, the latency/resolution/handler timing
//! parameters, a tree of CA actions (nesting structure, role groups,
//! exception graphs, handler verdicts, abortion behaviour), the workload of
//! every role (computation, messaging, shared-object traffic, concurrent
//! raises), the network fault schedule, and optionally one crash-stop
//! participant. Two calls with the same seed yield the identical plan; the
//! executor ([`crate::exec`]) then replays it deterministically on the
//! virtual-time network.
//!
//! ## Shape of generated scenarios
//!
//! Every top-level action is entered by **all** threads at the same virtual
//! time, and each action consists of: zero or more aligned *compute* phases
//! (equal virtual duration for every member, with optional role-to-role
//! messages and shared-object operations at fixed offsets), then optionally
//! one *nested* phase (disjoint sub-groups each entering a child action
//! concurrently), then optionally one *raise* phase (a subset of members
//! raising concurrently within a short window). This alignment discipline
//! keeps entry skew within one message latency, which is what makes the
//! Lemma 1 time-bound oracle sound (see [`crate::oracle`]). Within that
//! shape the space is unbounded: nesting depth, sibling concurrency,
//! raiser sets, verdicts (forward recovery, µ, ƒ, interface signals),
//! abortion-handler exceptions, object contention and fault schedules all
//! vary with the seed.
//!
//! ## Shared-object workloads
//!
//! Each action node uses **at most one** shared object, and all of a
//! plan's objects live at **one seed-chosen nesting depth**. This
//! discipline provably excludes wait-for cycles. A node holds at most one
//! object, and same-depth competitors have disjoint concerns (top-level
//! actions are sequential, nested siblings have disjoint groups), so a
//! holder's completion never depends on a same-depth waiter. The
//! single-depth restriction closes the subtler loops the exploratory
//! sweeps of this scheme actually found: the §3.3.2 *retain-till-entry*
//! rule means a recovery waits for a late member that cannot be
//! interrupted while it blocks on an object at a **shallower** level —
//! with objects at two depths, such a recovery edge can close a cycle
//! through a sibling subtree (and with an *inherited* ancestor object it
//! deadlocks even directly: the late member waits on the very sub-layer
//! the nested action holds while its recovery waits for that member).
//! With one object depth per plan, a late member's pre-entry work is
//! object-free, so it always arrives. Nested transaction layering is
//! still exercised: every access opens layers for the requester's whole
//! action chain on the touched object.
//!
//! Object waits stretch compute phases by the contention they encounter,
//! so plans with object traffic skip the Lemma 1 bound (its entry-skew
//! premise no longer holds); every other oracle, including byte-exact
//! replay, still applies.
//!
//! ## Crash-stop participants
//!
//! A plan may designate threads to **crash-stop** partway into *any*
//! top-level action — including the first of several, and including
//! *several threads* in one plan (at most one crash per thread). Each
//! crashing thread runs its real workload (messages, object operations,
//! raises included) with a scheduled crash instant
//! ([`Ctx::schedule_crash`](caa_runtime::Ctx::schedule_crash)): it dies at
//! the first poll point at or after the instant, wherever the protocol
//! then has it. Nothing is stripped from the crash action's subtree:
//! raises inside it (and in every later action, which the dead thread
//! never enters) are resolved by the membership extension — suspicion is
//! round-agnostic, so whichever bounded wait the silence hits (the
//! resolution collection, the §3.4 signalling gather once the view has
//! already shrunk, or the exit-vote wait) presumes the silent peer
//! crashed, removes it from the view one epoch per suspicion round, and
//! the survivors conclude over the shrunken view. Quiet actions (no
//! raise) conclude through the exit-round suspicion. Historically the
//! crash action had to be flattened to compute-only phases because the
//! resolution collection loop had no crash extension; the
//! `resolution_timeout` lifted that restriction.
//!
//! A crash may additionally schedule a **rejoin**
//! ([`CrashChoice::rejoin_delay_ns`]): the dead thread stays down for the
//! given delay, then restarts and asks the survivors to readmit it
//! ([`Ctx::rejoin`](caa_runtime::Ctx::rejoin)). If a survivor still holds
//! the crash action open, the restart re-enters at the grant's epoch,
//! votes in the current exit round and continues into the remaining top
//! actions; if the group already concluded (or evicted it and moved on
//! past the join window), the restart gives up cleanly and the thread
//! stays down — both outcomes are deterministic functions of the plan.

use caa_core::ids::PartitionId;
use caa_simnet::{FaultPlan, FaultSpec};

use crate::rng::Rng;

/// Knobs bounding the scenario space explored by seed generation.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Minimum number of participating threads (≥ 1).
    pub min_threads: u32,
    /// Maximum number of participating threads.
    pub max_threads: u32,
    /// Maximum nesting depth below the top-level actions (0 = flat).
    pub max_depth: usize,
    /// Maximum number of sequential top-level actions.
    pub max_top_actions: u32,
    /// Whether to generate network fault schedules (message loss and
    /// corruption of signalling/application traffic, signalling crashes).
    pub allow_faults: bool,
    /// Whether to generate shared-object workloads.
    pub allow_objects: bool,
    /// Whether to generate crash-stop participants.
    pub allow_crashes: bool,
    /// Probability that a plan carries a shared-object pool at all
    /// (given `allow_objects`). The default keeps the historical 50/50
    /// mix; raise it toward 1.0 for object-heavy sweeps.
    pub object_chance: f64,
    /// Probability that a plan carries a crash schedule at all (given
    /// `allow_crashes`); the second-crash and rejoin draws stay
    /// conditional on it. The default keeps the historical mix; raise
    /// it toward 1.0 for crash-heavy sweeps
    /// ([`ScenarioConfig::multi_crash`]).
    pub crash_chance: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            min_threads: 2,
            max_threads: 5,
            max_depth: 2,
            max_top_actions: 2,
            allow_faults: true,
            allow_objects: true,
            allow_crashes: true,
            object_chance: 0.5,
            crash_chance: 0.15,
        }
    }
}

impl ScenarioConfig {
    /// The object-heavy configuration used by the arbitration throughput
    /// benchmarks: every plan carries a contended object pool and at least
    /// four participants compete for it. Crash-stops are disabled so the
    /// sweep measures arbitration, not exit-timeout waits.
    #[must_use]
    pub fn object_heavy() -> Self {
        ScenarioConfig {
            min_threads: 4,
            max_threads: 6,
            max_depth: 1,
            max_top_actions: 2,
            allow_faults: false,
            allow_objects: true,
            allow_crashes: false,
            object_chance: 1.0,
            crash_chance: 0.0,
        }
    }

    /// The crash-heavy configuration used by the multi-crash fuzz lanes:
    /// nearly every plan carries a crash schedule (second crashes and
    /// rejoins stay at their conditional rates, so multi-crash and
    /// rejoin-mid-recovery plans appear in bulk), with at least three
    /// participants so a crash always leaves a group behind. Faults and
    /// objects stay on — the interesting finds live in the interactions.
    #[must_use]
    pub fn multi_crash() -> Self {
        ScenarioConfig {
            min_threads: 3,
            crash_chance: 0.9,
            ..ScenarioConfig::default()
        }
    }

    /// Serializes the config as `key=value` lines — the format corpus
    /// entries persist so a violating seed from a *custom* config sweep
    /// replays exactly ([`ScenarioConfig::from_kv`] round-trips it).
    #[must_use]
    pub fn to_kv(&self) -> String {
        format!(
            "min_threads={}\nmax_threads={}\nmax_depth={}\nmax_top_actions={}\n\
             allow_faults={}\nallow_objects={}\nallow_crashes={}\nobject_chance={}\n\
             crash_chance={}\n",
            self.min_threads,
            self.max_threads,
            self.max_depth,
            self.max_top_actions,
            self.allow_faults,
            self.allow_objects,
            self.allow_crashes,
            self.object_chance,
            self.crash_chance,
        )
    }

    /// Parses the `key=value` form written by [`ScenarioConfig::to_kv`].
    /// Missing keys keep their defaults (so old corpus entries survive new
    /// knobs); unknown keys or malformed values are errors.
    ///
    /// # Errors
    ///
    /// A human-readable description of the offending line.
    pub fn from_kv(text: &str) -> Result<ScenarioConfig, String> {
        let mut config = ScenarioConfig::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed config line (expected key=value): {line:?}"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad value for {key}: {e}");
            match key {
                "min_threads" => config.min_threads = value.parse().map_err(|e| bad(&e))?,
                "max_threads" => config.max_threads = value.parse().map_err(|e| bad(&e))?,
                "max_depth" => config.max_depth = value.parse().map_err(|e| bad(&e))?,
                "max_top_actions" => config.max_top_actions = value.parse().map_err(|e| bad(&e))?,
                "allow_faults" => config.allow_faults = value.parse().map_err(|e| bad(&e))?,
                "allow_objects" => config.allow_objects = value.parse().map_err(|e| bad(&e))?,
                "allow_crashes" => config.allow_crashes = value.parse().map_err(|e| bad(&e))?,
                "object_chance" => config.object_chance = value.parse().map_err(|e| bad(&e))?,
                "crash_chance" => config.crash_chance = value.parse().map_err(|e| bad(&e))?,
                other => return Err(format!("unknown config key: {other}")),
            }
        }
        Ok(config)
    }
}

/// How a role's handler concludes for any resolved exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictChoice {
    /// Forward recovery succeeds.
    Recovered,
    /// Request the undo round (µ).
    Undo,
    /// Unrecoverable: signal ƒ.
    Fail,
    /// Signal an interface exception to the enclosing context.
    Signal,
}

/// One network fault rule of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultChoice {
    /// Message class affected (`"toBeSignalled"` or `"App"` — classes whose
    /// loss the protocols tolerate by design; resolution-critical classes
    /// are excluded per Assumption 1).
    pub class: &'static str,
    /// Lose the message (true) or corrupt it in transit (false).
    pub lose: bool,
    /// Restrict to messages sent by this thread, if set. Unpinned rules
    /// (`None`) replay deterministically too: fault budgets are consumed
    /// per directed link as a pure function of per-link sequence numbers
    /// (see `caa_simnet::fault`).
    pub src: Option<u32>,
    /// Matching messages to let through (per link) before the fault starts.
    pub skip: u64,
    /// Matching messages affected per link (`u64::MAX` models a signalling
    /// crash: every announcement from `src` is lost from `skip` onward).
    pub count: u64,
}

/// One shared-object operation of a compute phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectOp {
    /// The thread performing the operation.
    pub thread: u32,
    /// Offset into the phase at which the operation is issued (the
    /// *request* instant; the deterministic arbitration decides the grant).
    pub delay_ns: u64,
    /// Index into [`ScenarioPlan::objects`].
    pub object: u32,
    /// Transactional update (true) or read (false).
    pub update: bool,
}

/// An aligned phase of one action.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Every member spends exactly `dur_ns` of virtual time: `sends` fire
    /// (instantly) at phase start, `listeners` drain their app inbox for
    /// the whole phase, everyone else computes — issuing its `object_ops`
    /// at their fixed offsets along the way.
    Compute {
        /// Phase length in virtual nanoseconds (plus any object-wait time).
        dur_ns: u64,
        /// `(from, to)` application messages sent at phase start.
        sends: Vec<(u32, u32)>,
        /// Threads that listen instead of computing.
        listeners: Vec<u32>,
        /// Shared-object operations, per thread at fixed offsets.
        object_ops: Vec<ObjectOp>,
    },
    /// Disjoint sub-groups of the action's members enter child actions
    /// concurrently; members outside every child group proceed directly.
    Nested {
        /// The concurrently entered child actions.
        children: Vec<ActionPlan>,
    },
}

/// The optional final raise phase of an action.
#[derive(Debug, Clone)]
pub struct RaisePhase {
    /// `(thread, delay_ns)`: each raiser works `delay_ns` into the phase
    /// and then raises its own exception, producing genuinely concurrent
    /// raises when delays are close.
    pub raisers: Vec<(u32, u64)>,
}

/// One designated crash-stop of a plan: the plan-level crash schedule
/// (who dies, in which top-level action, how far in, and whether — and
/// when — the dead process restarts and asks to rejoin). A plan carries
/// any number of these with **distinct threads** (one crash per thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashChoice {
    /// The thread that crash-stops.
    pub thread: u32,
    /// Index into [`ScenarioPlan::top`]: the action during which the
    /// thread dies. Earlier-than-last indices leave whole top actions
    /// that the dead thread never enters (unless it rejoins).
    pub top_action: u32,
    /// How far into that action the crash instant lies.
    pub delay_ns: u64,
    /// Down-time before the restart's epoch-numbered rejoin attempt,
    /// measured from the crash instant; `None` means the thread stays
    /// down forever. The restart targets the action it died in: if no
    /// survivor still holds that instance open when the bounded join
    /// window closes, the restart gives up and the thread stays down.
    pub rejoin_delay_ns: Option<u64>,
}

/// The role thread `thread` plays in every action it is a member of.
#[must_use]
pub fn role_name(thread: u32) -> String {
    format!("r{thread}")
}

/// The name thread `thread` is spawned under.
#[must_use]
pub fn thread_name(thread: u32) -> String {
    format!("T{thread}")
}

/// One CA action of the scenario (a node of the action tree).
#[derive(Debug, Clone)]
pub struct ActionPlan {
    /// Unique name (`a0`, `a0.1`, …) encoding the tree path.
    pub name: String,
    /// Member threads (each playing role [`role_name`]`(thread)`).
    pub group: Vec<u32>,
    /// Nesting depth: top-level actions are 0.
    pub depth: usize,
    /// The aligned phases, in order.
    pub phases: Vec<Phase>,
    /// The optional final raise phase.
    pub raise: Option<RaisePhase>,
    /// Per-member handler verdicts.
    pub verdicts: Vec<(u32, VerdictChoice)>,
    /// Members whose abortion handler raises an `Eab` exception (§3.3.1).
    pub abort_raises_eab: Vec<u32>,
}

impl ActionPlan {
    /// The exception `thread` raises in this action.
    #[must_use]
    pub fn raise_exception(&self, thread: u32) -> String {
        format!("{}_e{thread}", self.name)
    }

    /// The interface exception a `Signal` verdict reports from this action.
    #[must_use]
    pub fn signal_exception(&self) -> String {
        format!("{}_sig", self.name)
    }

    /// The `Eab` exception `thread`'s abortion handler raises.
    #[must_use]
    pub fn eab_exception(&self, thread: u32) -> String {
        format!("{}_eab{thread}", self.name)
    }

    /// Depth of the deepest action in this subtree, relative to this node.
    #[must_use]
    pub fn subtree_depth(&self) -> usize {
        self.phases
            .iter()
            .filter_map(|p| match p {
                Phase::Nested { children } => children.iter().map(|c| 1 + c.subtree_depth()).max(),
                Phase::Compute { .. } => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// This node and every descendant, preorder.
    pub fn walk(&self) -> Vec<&ActionPlan> {
        let mut out = vec![self];
        for phase in &self.phases {
            if let Phase::Nested { children } = phase {
                for child in children {
                    out.extend(child.walk());
                }
            }
        }
        out
    }

    /// Whether this subtree contains any shared-object operation.
    #[must_use]
    pub fn uses_objects(&self) -> bool {
        self.phases.iter().any(|p| match p {
            Phase::Compute { object_ops, .. } => !object_ops.is_empty(),
            Phase::Nested { children } => children.iter().any(ActionPlan::uses_objects),
        })
    }
}

/// A fully determined scenario: everything needed to execute and to check
/// one simulated run. (The default is the empty plan: no thread, no action.)
#[derive(Debug, Clone, Default)]
pub struct ScenarioPlan {
    /// The generating seed.
    pub seed: u64,
    /// Number of participating threads.
    pub threads: u32,
    /// The paper's `Tmmax` (seconds): upper bound of the uniform latency.
    pub t_mmax: f64,
    /// The paper's `Treso` (seconds): cost per resolution invocation.
    pub t_reso: f64,
    /// Handler computation `∆` (seconds) — identical for every role.
    pub delta: f64,
    /// Abortion-handler computation `Tabort` (seconds).
    pub t_abort: f64,
    /// Signalling timeout (seconds); a missing announcement is then ƒ.
    pub signal_timeout: f64,
    /// Exit-protocol timeout (seconds); a missing vote is then a presumed
    /// crash and the action resolves to abortion.
    pub exit_timeout: f64,
    /// Resolution timeout (seconds): the membership extension's bounded
    /// collection wait — a silent peer is then presumed crashed, removed
    /// from the view and resolved as a synthesized crash exception.
    pub resolution_timeout: f64,
    /// The network fault schedule.
    pub faults: Vec<FaultChoice>,
    /// Shared-object names ([`ObjectOp::object`] indexes this).
    pub objects: Vec<String>,
    /// The designated crash-stops, at most one per thread. Empty for
    /// crash-free plans.
    pub crashes: Vec<CrashChoice>,
    /// Sequential top-level actions, each entered by every thread.
    pub top: Vec<ActionPlan>,
}

/// Size of the object pool (all at the plan's single object depth).
const OBJECT_POOL: u32 = 2;

impl ScenarioPlan {
    /// Generates the plan determined by `seed` under `config`.
    #[must_use]
    pub fn generate(seed: u64, config: &ScenarioConfig) -> ScenarioPlan {
        let mut rng = Rng::new(seed);
        let threads = rng.range(
            u64::from(config.min_threads.max(1)),
            u64::from(config.max_threads),
        ) as u32;
        let all: Vec<u32> = (0..threads).collect();
        let t_mmax = rng.f64_range(0.05, 1.0);
        let t_reso = rng.f64_range(0.0, 0.3);
        let delta = rng.f64_range(0.0, 0.3);
        let t_abort = rng.f64_range(0.0, 0.3);

        // All of a plan's objects live at one nesting depth (see the
        // module docs for the cycle-freedom argument). Depth 0 always
        // exists; deeper levels only when the seed generates nesting, so
        // bias toward the top.
        let object_depth: Option<usize> =
            (config.allow_objects && rng.chance(config.object_chance)).then(|| {
                if rng.chance(0.6) {
                    0
                } else {
                    rng.below(config.max_depth as u64 + 1) as usize
                }
            });
        let objects: Vec<String> = if object_depth.is_some() {
            (0..OBJECT_POOL).map(|i| format!("o{i}")).collect()
        } else {
            Vec::new()
        };

        let top_n = rng.range(1, u64::from(config.max_top_actions.max(1)));
        let mut top = Vec::new();
        for i in 0..top_n {
            top.push(gen_action(
                &mut rng,
                format!("a{i}"),
                all.clone(),
                0,
                config.max_depth,
                object_depth,
            ));
        }

        // The crash schedule: any thread, any top action, any instant —
        // and possibly a second crash (distinct thread) plus rejoin
        // instants. The membership extension's round-agnostic suspicion
        // lets raises (and nesting, and the dead threads' own object
        // traffic) coexist with the crashes, so nothing is stripped from
        // the subtree. Every draw beyond the historical three sits
        // *inside* the crash branch: crash-free seeds consume the exact
        // same stream (and thus produce byte-identical plans) as before
        // multi-crash support.
        let mut crashes = Vec::new();
        if config.allow_crashes && rng.chance(config.crash_chance) {
            let first = CrashChoice {
                thread: rng.below(u64::from(threads)) as u32,
                top_action: rng.below(top_n) as u32,
                delay_ns: rng.below(1_500_000_000),
                // Short enough that a granted rejoin re-enters well within
                // the survivors' exit patience (the bounded waits are two
                // orders of magnitude above this scale).
                rejoin_delay_ns: rng.chance(0.35).then(|| rng.below(30_000_000_000)),
            };
            crashes.push(first);
            if threads >= 2 && rng.chance(0.25) {
                // A second crash-stop on a distinct thread.
                let pick = rng.below(u64::from(threads) - 1) as u32;
                crashes.push(CrashChoice {
                    thread: if pick >= first.thread { pick + 1 } else { pick },
                    top_action: rng.below(top_n) as u32,
                    delay_ns: rng.below(1_500_000_000),
                    rejoin_delay_ns: rng.chance(0.35).then(|| rng.below(30_000_000_000)),
                });
            }
        }

        let mut faults = Vec::new();
        if config.allow_faults {
            if rng.chance(0.5) {
                for _ in 0..rng.range(1, 2) {
                    faults.push(FaultChoice {
                        class: if rng.chance(0.5) {
                            "toBeSignalled"
                        } else {
                            "App"
                        },
                        // Corruption faults coexist with crash-stops now:
                        // the corruption exception's recovery resolves the
                        // dead peer's silence through the membership
                        // extension's bounded wait.
                        lose: rng.chance(0.5),
                        src: if rng.chance(0.7) {
                            Some(rng.below(u64::from(threads)) as u32)
                        } else {
                            None // unpinned: per-link budgets replay too
                        },
                        skip: rng.below(30),
                        count: rng.range(1, 2),
                    });
                }
            }
            if rng.chance(0.15) {
                // A signalling crash: from some point on, none of this
                // thread's announcements arrive; peers time out and treat
                // the silence as ƒ (§3.4 crash extension).
                faults.push(FaultChoice {
                    class: "toBeSignalled",
                    lose: true,
                    src: Some(rng.below(u64::from(threads)) as u32),
                    skip: rng.below(10),
                    count: u64::MAX,
                });
            }
        }

        ScenarioPlan {
            seed,
            threads,
            t_mmax,
            t_reso,
            delta,
            t_abort,
            signal_timeout: 60.0,
            // Well above any live participant's achievable exit skew (a
            // thread can lag by a few signalling timeouts when
            // announcements are lost), so only genuine crash-stops trip
            // the bounded wait. Virtual time makes the headroom free.
            exit_timeout: 600.0,
            // Same reasoning for the resolution collection wait: a live
            // peer answers within a handful of latencies (plus the entry
            // skew of the retain-till-entry rule), so only a genuinely
            // dead peer is ever suspected.
            resolution_timeout: 600.0,
            faults,
            objects,
            crashes,
            top,
        }
    }

    /// Depth of the deepest generated action (`nmax` of Lemma 1).
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.top
            .iter()
            .map(ActionPlan::subtree_depth)
            .max()
            .unwrap_or(0)
    }

    /// Every action of the plan, preorder across the top-level sequence.
    pub fn actions(&self) -> Vec<&ActionPlan> {
        self.top.iter().flat_map(ActionPlan::walk).collect()
    }

    /// Whether any action performs shared-object operations. Such plans
    /// skip the Lemma 1 bound: object waits stretch compute phases, so the
    /// aligned-entry premise of the bound no longer holds.
    #[must_use]
    pub fn has_objects(&self) -> bool {
        self.top.iter().any(ActionPlan::uses_objects)
    }

    /// Materialises the plan's fault schedule as a network [`FaultPlan`].
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for f in &self.faults {
            let mut spec = match f.src {
                Some(t) => FaultSpec::from(PartitionId::new(t)),
                None => FaultSpec::any(),
            };
            spec = spec.class(f.class).skip(f.skip).count(f.count);
            plan = if f.lose {
                plan.lose(spec)
            } else {
                plan.corrupt(spec)
            };
        }
        plan
    }

    /// One-paragraph human summary (for violation reports).
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "seed {}: {} threads, {} top actions, depth {}, Tmmax {:.3}s, \
             Treso {:.3}s, ∆ {:.3}s, Tabort {:.3}s, {} fault rule(s), \
             objects {}, crash {}",
            self.seed,
            self.threads,
            self.top.len(),
            self.max_depth(),
            self.t_mmax,
            self.t_reso,
            self.delta,
            self.t_abort,
            self.faults.len(),
            if self.has_objects() { "yes" } else { "no" },
            if self.crashes.is_empty() {
                "no".into()
            } else {
                self.crashes
                    .iter()
                    .map(|c| {
                        let rejoin = match c.rejoin_delay_ns {
                            Some(d) => format!(" rejoin +{:.3}s", d as f64 / 1e9),
                            None => String::new(),
                        };
                        format!(
                            "T{} in a{} @{:.3}s{rejoin}",
                            c.thread,
                            c.top_action,
                            c.delay_ns as f64 / 1e9
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            },
        )
    }
}

/// Checks every structural invariant the generator guarantees by
/// construction — the **validity contract** mutated plans
/// ([`mod@crate::fuzz`]) must also satisfy, so the oracles' premises hold for
/// fuzzed scenarios exactly as they do for fresh-seed ones:
///
/// * every top-level action is entered by **all** threads (the executor
///   assigns every thread a role in every top action);
/// * nested child groups are non-empty, disjoint, subsets of the parent,
///   one level deeper, and names encode the tree path uniquely;
/// * sends/listeners/raisers/verdicts reference group members only, every
///   member has exactly one verdict, and raiser delays stay far below the
///   exit-timeout scale (a raise delayed past the bounded exit wait would
///   read as a crash and trip the false-suspicion oracle);
/// * shared-object operations obey the **single-depth** discipline (the
///   cycle-freedom argument in the module docs), reference pool objects,
///   use at most one object per action, and never run on listeners;
/// * every crash schedule points at a real thread/top action, no thread
///   crashes twice, and rejoin down-times stay inside the readmission
///   window (a longer-down restart would read as a fresh late joiner);
/// * fault rules use protocol-tolerated classes with per-link budgets,
///   with at most two unbounded (signalling-crash) rules;
/// * the timeout hierarchy keeps the §3.4/§3.3.2 bounded waits an order
///   of magnitude above the signalling timeout (the executor then
///   multiplies per nesting level by
///   [`TIMEOUT_SEPARATION`](crate::exec::TIMEOUT_SEPARATION)), so live
///   peers are never suspected.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn validate_plan(plan: &ScenarioPlan) -> Result<(), String> {
    use std::collections::HashSet;
    if plan.threads == 0 {
        return Err("plan has no threads".into());
    }
    if plan.top.is_empty() {
        return Err("plan has no top-level actions".into());
    }
    if plan.top.len() > 8 {
        return Err(format!("{} top-level actions (max 8)", plan.top.len()));
    }
    let all: Vec<u32> = (0..plan.threads).collect();
    let mut names: HashSet<&str> = HashSet::new();
    let mut object_depths: HashSet<usize> = HashSet::new();
    for top in &plan.top {
        if top.group != all {
            return Err(format!(
                "top action {} group {:?} must be all threads 0..{}",
                top.name, top.group, plan.threads
            ));
        }
        if top.depth != 0 {
            return Err(format!("top action {} has depth {}", top.name, top.depth));
        }
        validate_action(top, plan, &mut names, &mut object_depths)?;
    }
    if object_depths.len() > 1 {
        let mut depths: Vec<usize> = object_depths.into_iter().collect();
        depths.sort_unstable();
        return Err(format!(
            "object operations at multiple depths {depths:?} (single-depth discipline)"
        ));
    }
    let mut crashed_threads: HashSet<u32> = HashSet::new();
    for crash in &plan.crashes {
        if crash.thread >= plan.threads {
            return Err(format!("crash thread T{} out of range", crash.thread));
        }
        if !crashed_threads.insert(crash.thread) {
            return Err(format!(
                "thread T{} crash-stops more than once",
                crash.thread
            ));
        }
        if (crash.top_action as usize) >= plan.top.len() {
            return Err(format!(
                "crash top action a{} out of range",
                crash.top_action
            ));
        }
        if crash.delay_ns > 3_600_000_000_000 {
            return Err(format!(
                "crash delay {}ns beyond the idle window",
                crash.delay_ns
            ));
        }
        if crash.rejoin_delay_ns.is_some_and(|d| d > 120_000_000_000) {
            // A restart that stays down longer than the bounded waits can
            // absorb would read as a fresh late joiner to survivors deep
            // in *later* actions; cap the down-time well inside the
            // hierarchy's slack instead.
            return Err(format!(
                "crash rejoin delay {}ns beyond the 120s readmission window",
                crash.rejoin_delay_ns.unwrap_or(0)
            ));
        }
    }
    let mut unbounded = 0usize;
    for (i, fault) in plan.faults.iter().enumerate() {
        if !matches!(fault.class, "toBeSignalled" | "App") {
            return Err(format!(
                "fault {i} targets untolerated class {:?}",
                fault.class
            ));
        }
        if fault.src.is_some_and(|s| s >= plan.threads) {
            return Err(format!("fault {i} pins an out-of-range source"));
        }
        if fault.count == 0 {
            return Err(format!("fault {i} has a zero budget"));
        }
        if fault.count == u64::MAX {
            unbounded += 1;
        }
    }
    if plan.faults.len() > 8 {
        return Err(format!("{} fault rules (max 8)", plan.faults.len()));
    }
    if unbounded > 2 {
        return Err(format!("{unbounded} unbounded fault rules (max 2)"));
    }
    if !(0.01..=2.0).contains(&plan.t_mmax) {
        return Err(format!("t_mmax {} outside [0.01, 2.0]", plan.t_mmax));
    }
    for (name, value) in [
        ("t_reso", plan.t_reso),
        ("delta", plan.delta),
        ("t_abort", plan.t_abort),
    ] {
        if !(0.0..=1.0).contains(&value) {
            return Err(format!("{name} {value} outside [0.0, 1.0]"));
        }
    }
    if plan.signal_timeout < 10.0 {
        return Err(format!("signal timeout {} below 10s", plan.signal_timeout));
    }
    if plan.exit_timeout < 10.0 * plan.signal_timeout {
        return Err(format!(
            "exit timeout {} under 10x the signal timeout {} (hierarchy separation)",
            plan.exit_timeout, plan.signal_timeout
        ));
    }
    if plan.resolution_timeout < 10.0 * plan.signal_timeout {
        return Err(format!(
            "resolution timeout {} under 10x the signal timeout {} (hierarchy separation)",
            plan.resolution_timeout, plan.signal_timeout
        ));
    }
    Ok(())
}

fn validate_action<'p>(
    action: &'p ActionPlan,
    plan: &ScenarioPlan,
    names: &mut std::collections::HashSet<&'p str>,
    object_depths: &mut std::collections::HashSet<usize>,
) -> Result<(), String> {
    use std::collections::HashSet;
    if action.group.is_empty() {
        return Err(format!("action {} has an empty group", action.name));
    }
    if !names.insert(&action.name) {
        return Err(format!("duplicate action name {}", action.name));
    }
    let member = |t: &u32| action.group.contains(t);
    let mut action_objects: HashSet<u32> = HashSet::new();
    for (p, phase) in action.phases.iter().enumerate() {
        match phase {
            Phase::Compute {
                dur_ns,
                sends,
                listeners,
                object_ops,
            } => {
                if !(1_000_000..=10_000_000_000).contains(dur_ns) {
                    return Err(format!(
                        "action {} phase {p}: duration {dur_ns}ns outside [1ms, 10s]",
                        action.name
                    ));
                }
                for &(from, to) in sends {
                    if from == to || !member(&from) || !member(&to) {
                        return Err(format!(
                            "action {} phase {p}: send ({from}, {to}) outside the group",
                            action.name
                        ));
                    }
                }
                let mut seen_listener = HashSet::new();
                for t in listeners {
                    if !member(t) || !seen_listener.insert(*t) {
                        return Err(format!(
                            "action {} phase {p}: bad listener T{t}",
                            action.name
                        ));
                    }
                }
                for op in object_ops {
                    if !member(&op.thread) {
                        return Err(format!(
                            "action {} phase {p}: object op by non-member T{}",
                            action.name, op.thread
                        ));
                    }
                    if listeners.contains(&op.thread) {
                        return Err(format!(
                            "action {} phase {p}: object op by listener T{}",
                            action.name, op.thread
                        ));
                    }
                    if op.delay_ns >= *dur_ns {
                        return Err(format!(
                            "action {} phase {p}: op delay {} past the phase end {}",
                            action.name, op.delay_ns, dur_ns
                        ));
                    }
                    if (op.object as usize) >= plan.objects.len() {
                        return Err(format!(
                            "action {} phase {p}: op references unknown object o{}",
                            action.name, op.object
                        ));
                    }
                    action_objects.insert(op.object);
                    object_depths.insert(action.depth);
                }
            }
            Phase::Nested { children } => {
                if children.is_empty() {
                    return Err(format!(
                        "action {} phase {p}: empty nested phase",
                        action.name
                    ));
                }
                let mut seen: HashSet<u32> = HashSet::new();
                for child in children {
                    if child.depth != action.depth + 1 {
                        return Err(format!(
                            "child {} depth {} under parent depth {}",
                            child.name, child.depth, action.depth
                        ));
                    }
                    if !child.name.starts_with(&format!("{}.", action.name)) {
                        return Err(format!(
                            "child {} name does not extend parent {}",
                            child.name, action.name
                        ));
                    }
                    for t in &child.group {
                        if !member(t) {
                            return Err(format!(
                                "child {} member T{t} outside parent {} group",
                                child.name, action.name
                            ));
                        }
                        if !seen.insert(*t) {
                            return Err(format!(
                                "child groups under {} overlap on T{t}",
                                action.name
                            ));
                        }
                    }
                    validate_action(child, plan, names, object_depths)?;
                }
            }
        }
    }
    if action_objects.len() > 1 {
        return Err(format!(
            "action {} uses {} objects (max 1)",
            action.name,
            action_objects.len()
        ));
    }
    if let Some(raise) = &action.raise {
        if raise.raisers.is_empty() {
            return Err(format!("action {} has an empty raise phase", action.name));
        }
        let mut seen = HashSet::new();
        for &(t, delay_ns) in &raise.raisers {
            if !member(&t) || !seen.insert(t) {
                return Err(format!("action {}: bad raiser T{t}", action.name));
            }
            if delay_ns > 1_000_000_000 {
                return Err(format!(
                    "action {}: raiser T{t} delayed {delay_ns}ns (>1s reads as a crash)",
                    action.name
                ));
            }
        }
    }
    let verdict_threads: HashSet<u32> = action.verdicts.iter().map(|&(t, _)| t).collect();
    let group_threads: HashSet<u32> = action.group.iter().copied().collect();
    if verdict_threads != group_threads || action.verdicts.len() != action.group.len() {
        return Err(format!(
            "action {}: verdicts must cover the group exactly once",
            action.name
        ));
    }
    for t in &action.abort_raises_eab {
        if !member(t) {
            return Err(format!(
                "action {}: Eab raiser T{t} outside the group",
                action.name
            ));
        }
    }
    if action.depth == 0 && !action.abort_raises_eab.is_empty() {
        return Err(format!(
            "top action {} declares abortion-handler exceptions",
            action.name
        ));
    }
    Ok(())
}

/// Applies `f` to the `index`-th action of the plan in the same preorder
/// [`ScenarioPlan::actions`] uses. Returns `None` when `index` is out of
/// range. The mutable cousin of indexing `actions()` — mutators pick a
/// node by deterministic index and edit it in place.
pub fn with_action_mut<R>(
    plan: &mut ScenarioPlan,
    index: usize,
    f: impl FnOnce(&mut ActionPlan) -> R,
) -> Option<R> {
    fn locate<'a>(
        action: &'a mut ActionPlan,
        counter: &mut usize,
        target: usize,
    ) -> Option<&'a mut ActionPlan> {
        if *counter == target {
            return Some(action);
        }
        *counter += 1;
        for phase in &mut action.phases {
            if let Phase::Nested { children } = phase {
                for child in children {
                    if let Some(found) = locate(child, counter, target) {
                        return Some(found);
                    }
                }
            }
        }
        None
    }
    let mut counter = 0;
    for top in &mut plan.top {
        if let Some(found) = locate(top, &mut counter, index) {
            return Some(f(found));
        }
        // `locate` consumed the subtree's indices; continue after it.
    }
    None
}

/// Renames `action`'s whole subtree so its root becomes `new_name`,
/// preserving the path-encoded suffixes (`a0.1` under root `a0` becomes
/// `a2.1` under root `a2`). Used when duplicating a subtree: names must
/// stay globally unique for handler/exception identities to stay distinct.
pub(crate) fn rename_subtree(action: &mut ActionPlan, new_name: &str) {
    fn rewrite(action: &mut ActionPlan, old_prefix: &str, new_prefix: &str) {
        debug_assert!(action.name.starts_with(old_prefix));
        let suffix = action.name[old_prefix.len()..].to_owned();
        action.name = format!("{new_prefix}{suffix}");
        for phase in &mut action.phases {
            if let Phase::Nested { children } = phase {
                for child in children {
                    rewrite(child, old_prefix, new_prefix);
                }
            }
        }
    }
    let old = action.name.clone();
    rewrite(action, &old, new_name);
}

/// Generates a fresh action subtree with the generator's own logic — the
/// re-depth mutator's workhorse: a regenerated subtree is valid by the
/// same construction argument as a fresh plan's.
pub(crate) fn gen_subtree(
    rng: &mut Rng,
    name: String,
    group: Vec<u32>,
    depth: usize,
    max_depth: usize,
    object_depth: Option<usize>,
) -> ActionPlan {
    gen_action(rng, name, group, depth, max_depth, object_depth)
}

/// The single nesting depth at which this plan's shared-object operations
/// live, when any exist.
#[must_use]
pub fn plan_object_depth(plan: &ScenarioPlan) -> Option<usize> {
    plan.actions().iter().find_map(|a| {
        a.phases.iter().find_map(|p| match p {
            Phase::Compute { object_ops, .. } if !object_ops.is_empty() => Some(a.depth),
            _ => None,
        })
    })
}

fn gen_verdict(rng: &mut Rng) -> VerdictChoice {
    let roll = rng.unit_f64();
    if roll < 0.70 {
        VerdictChoice::Recovered
    } else if roll < 0.85 {
        VerdictChoice::Undo
    } else if roll < 0.95 {
        VerdictChoice::Signal
    } else {
        VerdictChoice::Fail
    }
}

fn gen_action(
    rng: &mut Rng,
    name: String,
    group: Vec<u32>,
    depth: usize,
    max_depth: usize,
    object_depth: Option<usize>,
) -> ActionPlan {
    // At most one object per action node, only at the plan's single
    // object depth. See the module docs for the cycle-freedom argument.
    let object: Option<u32> = (object_depth == Some(depth) && rng.chance(0.6))
        .then(|| rng.below(u64::from(OBJECT_POOL)) as u32);

    let mut phases = Vec::new();

    // Aligned compute phases with optional messaging and object traffic.
    for _ in 0..rng.range(0, 2) {
        let dur_ns = (rng.f64_range(0.02, 0.4) * 1e9) as u64;
        let mut sends = Vec::new();
        let mut listeners = Vec::new();
        if group.len() >= 2 {
            for &t in &group {
                if rng.chance(0.35) {
                    let peers: Vec<u32> = group.iter().copied().filter(|&p| p != t).collect();
                    let to = peers[rng.below(peers.len() as u64) as usize];
                    sends.push((t, to));
                }
                if rng.chance(0.3) {
                    listeners.push(t);
                }
            }
        }
        let mut object_ops = Vec::new();
        if let Some(object) = object {
            for &t in &group {
                if !listeners.contains(&t) && rng.chance(0.4) {
                    object_ops.push(ObjectOp {
                        thread: t,
                        delay_ns: rng.below(dur_ns.max(1)),
                        object,
                        update: rng.chance(0.7),
                    });
                }
            }
        }
        phases.push(Phase::Compute {
            dur_ns,
            sends,
            listeners,
            object_ops,
        });
    }

    // Optional nested phase: disjoint sub-groups entered concurrently.
    if depth < max_depth && !group.is_empty() && rng.chance(0.6) {
        let mut pool = group.clone();
        // Deterministic shuffle.
        for i in (1..pool.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            pool.swap(i, j);
        }
        let n_children = if pool.len() >= 3 && rng.chance(0.4) {
            2
        } else {
            1
        };
        let mut children = Vec::new();
        for c in 0..n_children {
            if pool.is_empty() {
                break;
            }
            let take = rng.range(1, pool.len() as u64) as usize;
            let mut sub: Vec<u32> = pool.drain(..take).collect();
            sub.sort_unstable();
            children.push(gen_action(
                rng,
                format!("{name}.{c}"),
                sub,
                depth + 1,
                max_depth,
                object_depth,
            ));
        }
        phases.push(Phase::Nested { children });
    }

    // Optional final raise phase: concurrent raises within a short window.
    let raise = if rng.chance(if depth == 0 { 0.75 } else { 0.5 }) {
        let mut raisers: Vec<(u32, u64)> = Vec::new();
        for &t in &group {
            if rng.chance(0.45) {
                raisers.push((t, rng.below(200_000_000)));
            }
        }
        (!raisers.is_empty()).then_some(RaisePhase { raisers })
    } else {
        None
    };

    let verdicts = group.iter().map(|&t| (t, gen_verdict(rng))).collect();
    let abort_raises_eab = if depth > 0 {
        group.iter().copied().filter(|_| rng.chance(0.5)).collect()
    } else {
        Vec::new()
    };

    ActionPlan {
        name,
        group,
        depth,
        phases,
        raise,
        verdicts,
        abort_raises_eab,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let cfg = ScenarioConfig::default();
        let a = ScenarioPlan::generate(42, &cfg);
        let b = ScenarioPlan::generate(42, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn different_seeds_explore_different_plans() {
        let cfg = ScenarioConfig::default();
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..64 {
            distinct.insert(format!("{:?}", ScenarioPlan::generate(seed, &cfg)));
        }
        assert!(
            distinct.len() > 60,
            "only {} distinct plans",
            distinct.len()
        );
    }

    #[test]
    fn structure_respects_config_bounds() {
        let cfg = ScenarioConfig {
            min_threads: 2,
            max_threads: 4,
            max_depth: 2,
            max_top_actions: 2,
            allow_faults: true,
            allow_objects: true,
            allow_crashes: true,
            object_chance: 0.5,
            crash_chance: 0.15,
        };
        for seed in 0..200 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            assert!((2..=4).contains(&plan.threads), "seed {seed}");
            assert!(plan.max_depth() <= 2, "seed {seed}");
            assert!(plan.top.len() <= 2, "seed {seed}");
            for action in plan.actions() {
                assert!(!action.group.is_empty());
                // Children partition a subset of the parent group.
                for phase in &action.phases {
                    if let Phase::Nested { children } = phase {
                        let mut seen = std::collections::HashSet::new();
                        for child in children {
                            for &t in &child.group {
                                assert!(action.group.contains(&t));
                                assert!(seen.insert(t), "overlapping child groups");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn object_ops_are_well_formed() {
        let cfg = ScenarioConfig::default();
        for seed in 0..300 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            for action in plan.actions() {
                let mut action_objects = std::collections::HashSet::new();
                for phase in &action.phases {
                    if let Phase::Compute {
                        dur_ns,
                        listeners,
                        object_ops,
                        ..
                    } = phase
                    {
                        for op in object_ops {
                            assert!(action.group.contains(&op.thread), "seed {seed}");
                            assert!(!listeners.contains(&op.thread), "seed {seed}");
                            assert!(op.delay_ns < *dur_ns, "seed {seed}");
                            assert!(
                                (op.object as usize) < plan.objects.len(),
                                "seed {seed}: op references unknown object"
                            );
                            action_objects.insert(op.object);
                        }
                    }
                }
                assert!(
                    action_objects.len() <= 1,
                    "seed {seed}: action {} uses {} objects (max 1)",
                    action.name,
                    action_objects.len()
                );
            }
        }
    }

    #[test]
    fn crash_schedules_are_well_formed_and_unrestricted() {
        let cfg = ScenarioConfig::default();
        let mut crashes = 0;
        let (mut earlier, mut raise_in_crash_action, mut corrupt_with_crash) = (0, 0, 0);
        let (mut multi, mut rejoins) = (0, 0);
        for seed in 0..400 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            if plan.crashes.is_empty() {
                continue;
            }
            crashes += 1;
            validate_plan(&plan).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if plan.crashes.len() >= 2 {
                multi += 1;
                assert_ne!(
                    plan.crashes[0].thread, plan.crashes[1].thread,
                    "seed {seed}: one crash per thread"
                );
            }
            rejoins += plan
                .crashes
                .iter()
                .filter(|c| c.rejoin_delay_ns.is_some())
                .count();
            let crash = plan.crashes[0];
            assert!(crash.thread < plan.threads, "seed {seed}");
            assert!(
                (crash.top_action as usize) < plan.top.len(),
                "seed {seed}: crash action index out of range"
            );
            if (crash.top_action as usize) + 1 < plan.top.len() {
                earlier += 1;
            }
            let action = &plan.top[crash.top_action as usize];
            if action
                .walk()
                .iter()
                .any(|a| a.raise.as_ref().is_some_and(|r| !r.raisers.is_empty()))
            {
                raise_in_crash_action += 1;
            }
            if plan.faults.iter().any(|f| !f.lose) {
                corrupt_with_crash += 1;
            }
        }
        assert!(crashes > 30, "crashes too rare: {crashes}/400");
        // The membership extension lifted the historical restrictions:
        // crashes land in earlier top actions, crash subtrees keep their
        // raise phases, and corruption faults coexist with crash-stops.
        assert!(
            earlier > 5,
            "crashes in earlier top actions too rare: {earlier}/{crashes}"
        );
        assert!(
            raise_in_crash_action > 10,
            "raises inside crash actions too rare: {raise_in_crash_action}/{crashes}"
        );
        assert!(
            corrupt_with_crash > 3,
            "corruption faults with crash-stops too rare: {corrupt_with_crash}/{crashes}"
        );
        assert!(multi > 5, "double crashes too rare: {multi}/{crashes}");
        assert!(rejoins > 10, "rejoins too rare: {rejoins}/{crashes}");
    }

    /// Crash-free seeds must generate byte-identical plans before and
    /// after multi-crash support: every new draw sits inside the
    /// crash-drawn branch, so the rest of the stream is undisturbed. The
    /// proxy here (the real gate is the 12k-seed trace-hash diff): the
    /// generator's structural draws for a crash-free seed do not depend on
    /// `allow_crashes` beyond the single branch probe it always made.
    #[test]
    fn crash_free_seeds_keep_their_historical_stream() {
        let on = ScenarioConfig::default();
        for seed in 0..200 {
            let plan = ScenarioPlan::generate(seed, &on);
            if !plan.crashes.is_empty() {
                continue;
            }
            // Re-generate and compare everything downstream of the crash
            // branch (faults are drawn after it — the sensitive part).
            let again = ScenarioPlan::generate(seed, &on);
            assert_eq!(format!("{plan:?}"), format!("{again:?}"), "seed {seed}");
        }
    }

    #[test]
    fn seeds_reach_interesting_features() {
        let cfg = ScenarioConfig::default();
        let (mut nested, mut multi_raise, mut faults, mut crash) = (0, 0, 0, 0);
        let (mut objects, mut unpinned, mut crash_stop) = (0, 0, 0);
        for seed in 0..300 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            if plan.max_depth() > 0 {
                nested += 1;
            }
            if plan
                .actions()
                .iter()
                .any(|a| a.raise.as_ref().is_some_and(|r| r.raisers.len() >= 2))
            {
                multi_raise += 1;
            }
            if !plan.faults.is_empty() {
                faults += 1;
            }
            if plan.faults.iter().any(|f| f.count == u64::MAX) {
                crash += 1;
            }
            if plan.has_objects() {
                objects += 1;
            }
            if plan.faults.iter().any(|f| f.src.is_none()) {
                unpinned += 1;
            }
            if !plan.crashes.is_empty() {
                crash_stop += 1;
            }
        }
        assert!(nested > 100, "nesting too rare: {nested}/300");
        assert!(
            multi_raise > 60,
            "concurrent raises too rare: {multi_raise}/300"
        );
        assert!(faults > 100, "faults too rare: {faults}/300");
        assert!(crash > 10, "signalling crashes too rare: {crash}/300");
        assert!(objects > 40, "object workloads too rare: {objects}/300");
        assert!(
            unpinned > 20,
            "unpinned fault rules too rare: {unpinned}/300"
        );
        assert!(crash_stop > 20, "crash-stops too rare: {crash_stop}/300");
    }
}
