//! Invariant oracles checked against every recorded trace.
//!
//! Each oracle encodes a property the paper proves or measures:
//!
//! * **Resolution agreement** (§3.3.2): every participant of a recovery
//!   commits to the *same* resolving exception.
//! * **Single resolution** (§3.3.3): the resolution procedure runs at most
//!   once per action-instance recovery under the paper's algorithm.
//! * **Lemma 1 time bound**: from the first raise of a recovery to the last
//!   handler completion takes at most
//!   `(2·nmax+3)·Tmmax + nmax·Tabort + (nmax+1)·(Treso+∆max)` (plus one
//!   `Tmmax` of entry skew the scenario shape permits).
//! * **Message complexity** (§3.3.3): an action instance's recovery costs
//!   at most `(N+1)·(N−1)` resolution messages, plus one participant
//!   broadcast (`N−1`) per thread readmitted mid-recovery — a rejoiner
//!   re-announces its state into the ongoing resolution after catch-up.
//! * **Nesting/abortion consistency** (§3.3.1): every action entry is
//!   closed by exactly one exit, abort or crash-stop on the entering
//!   thread — with one sanctioned exception: a crashed participant that
//!   rejoined enters the instance twice (one entry closed by the crash,
//!   the re-entry closed by its exit).
//! * **Exit-timeout bound** (the §3.4 timeout generalised to the exit
//!   protocol): every exit phase — including one abandoned because a peer
//!   crash-stopped — terminates within the plan's exit timeout.
//! * **Membership agreement** (the crash-aware resolution extension):
//!   membership is **set-based** — each thread's view evolves by adopting
//!   removal sets and readmissions, with epoch numbers as per-thread step
//!   counters. The agreement form is therefore a *chain*: the final
//!   removed sets that the instance's threads reached must be pairwise
//!   comparable under inclusion (a thread that exited early — e.g.
//!   evicted — holds a prefix of the survivors' set; genuinely divergent
//!   views are incomparable and flagged). The one sanctioned divergence
//!   is a pair of threads that both finalised with the failure exception
//!   ƒ — each declared coordination broken, so their last views may
//!   legally disagree. And no thread removed as presumed-crashed
//!   went on to complete the action without being readmitted first (no
//!   false suspicion).
//! * **Bounded resolution** (same extension): every started recovery
//!   concludes in a resolution, an enclosing abort or the thread's own
//!   crash — the collection loop never hangs on a dead peer.
//! * **Deterministic replay** (§5.1's repeatability requirement): the same
//!   seed renders the byte-identical trace, object acquisitions included.
//!
//! Plans with shared-object traffic skip the Lemma 1 bound: acquisition
//! waits stretch compute phases, so the aligned-entry premise the bound
//! relies on no longer holds (see [`ScenarioPlan::has_objects`]). Plans
//! with a crash-stop skip it too: the bounded resolution and exit waits
//! stretch recoveries far past the crash-free bound by design.

use std::cell::Cell;
use std::fmt;

use caa_core::inline::InlineVec;
use caa_protocol::protocol;
use caa_runtime::observe::EventKind;
use caa_runtime::SystemReport;

use crate::exec::RunArtifacts;
use crate::plan::{ActionPlan, Phase, ScenarioPlan};
use crate::scratch::{self, reset};
use crate::trace::{Entry, EntryKind, Trace};

/// One oracle violation, carrying enough context to debug the seed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// A participating thread ended with a fatal error (deadlock or
    /// protocol invariant breach).
    ThreadFailure {
        /// The failed thread's name.
        thread: String,
        /// Its error.
        error: String,
    },
    /// Participants of one recovery committed to different resolving
    /// exceptions.
    ResolutionDisagreement {
        /// Canonical action label.
        action: u64,
        /// `(thread, resolved exception)` as observed.
        resolved: Vec<(u32, String)>,
    },
    /// The resolution procedure ran more than once for one instance.
    MultipleResolutions {
        /// Canonical action label.
        action: u64,
        /// Total graph-search invocations observed.
        invocations: u64,
    },
    /// Recovery exceeded the Lemma 1 completion bound.
    Lemma1Exceeded {
        /// Canonical action label.
        action: u64,
        /// Observed first-raise → last-handler-completion time (seconds).
        measured: f64,
        /// The bound (seconds).
        bound: f64,
    },
    /// An instance used more resolution messages than §3.3.3 permits.
    MessageBoundExceeded {
        /// Canonical action label.
        action: u64,
        /// Observed sends of the kinds that count for resolution.
        messages: u64,
        /// The `(N+1)(N−1)` bound.
        bound: u64,
    },
    /// An action entry was not closed by exactly one exit/abort/crash.
    NestingInconsistent {
        /// Canonical action label.
        action: u64,
        /// The offending thread.
        thread: u32,
        /// Enter events observed.
        enters: usize,
        /// Exit events observed.
        exits: usize,
        /// Abort events observed.
        aborts: usize,
        /// Crash-stop events observed.
        crashes: usize,
    },
    /// An exit phase outlived the bounded wait: the time from an
    /// `ExitStart` to the next protocol step on that thread exceeded the
    /// plan's exit timeout.
    ExitTimeoutExceeded {
        /// Canonical action label.
        action: u64,
        /// The offending thread.
        thread: u32,
        /// Observed exit-phase duration (seconds).
        measured: f64,
        /// The bound (seconds).
        bound: f64,
    },
    /// Two executions of the same seed rendered different traces.
    ReplayDiverged {
        /// First line (0-based) at which the renderings differ.
        first_diff_line: usize,
    },
    /// Participants of one instance reached irreconcilable membership
    /// views: under set-based agreement the final removed sets must form
    /// a chain under inclusion (early exits hold prefixes of the
    /// survivors' set), and these do not.
    ViewDisagreement {
        /// Canonical action label.
        action: u64,
        /// The incomparable final removed sets observed across threads.
        removed_sets: Vec<Vec<u32>>,
    },
    /// A thread removed from an instance's membership view as presumed
    /// crashed nevertheless completed the action: the failure detector
    /// suspected a live participant.
    FalseSuspicion {
        /// Canonical action label.
        action: u64,
        /// The falsely suspected thread.
        thread: u32,
    },
    /// A recovery started on some thread but never reached resolution,
    /// abortion or a crash-stop: the collection loop hung instead of
    /// being bounded.
    ResolutionUnterminated {
        /// Canonical action label.
        action: u64,
        /// The thread whose recovery never concluded.
        thread: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ThreadFailure { thread, error } => {
                write!(f, "thread {thread} failed: {error}")
            }
            Violation::ResolutionDisagreement { action, resolved } => {
                write!(f, "action {action}: participants disagree on the resolved exception: {resolved:?}")
            }
            Violation::MultipleResolutions {
                action,
                invocations,
            } => {
                write!(
                    f,
                    "action {action}: resolution procedure ran {invocations} times (max 1)"
                )
            }
            Violation::Lemma1Exceeded {
                action,
                measured,
                bound,
            } => {
                write!(
                    f,
                    "action {action}: recovery took {measured:.6}s, Lemma 1 bound {bound:.6}s"
                )
            }
            Violation::MessageBoundExceeded {
                action,
                messages,
                bound,
            } => {
                write!(
                    f,
                    "action {action}: {messages} resolution messages exceed the rejoin-adjusted (N+1)(N-1) bound {bound}"
                )
            }
            Violation::NestingInconsistent {
                action,
                thread,
                enters,
                exits,
                aborts,
                crashes,
            } => {
                write!(
                    f,
                    "action {action}: thread {thread} entered {enters}x but exited {exits}x / aborted {aborts}x / crashed {crashes}x"
                )
            }
            Violation::ExitTimeoutExceeded {
                action,
                thread,
                measured,
                bound,
            } => {
                write!(
                    f,
                    "action {action}: thread {thread}'s exit phase took {measured:.6}s, timeout bound {bound:.6}s"
                )
            }
            Violation::ReplayDiverged { first_diff_line } => {
                write!(
                    f,
                    "replay diverged from the original trace at line {first_diff_line}"
                )
            }
            Violation::ViewDisagreement {
                action,
                removed_sets,
            } => {
                write!(
                    f,
                    "action {action}: final removed sets are not inclusion-ordered across threads: {removed_sets:?}"
                )
            }
            Violation::FalseSuspicion { action, thread } => {
                write!(
                    f,
                    "action {action}: thread {thread} was presumed crashed but completed the action without rejoining"
                )
            }
            Violation::ResolutionUnterminated { action, thread } => {
                write!(
                    f,
                    "action {action}: thread {thread} started recovery but never resolved, aborted or crashed"
                )
            }
        }
    }
}

/// The Lemma 1 completion bound for this plan's parameters (seconds).
///
/// One extra `Tmmax` covers the entry skew the aligned scenario shape can
/// accumulate across a completed protocol barrier (exit votes arrive within
/// one message latency of each other), and a microsecond absorbs
/// virtual-time rounding.
#[must_use]
pub fn lemma1_bound(plan: &ScenarioPlan) -> f64 {
    let nmax = plan.max_depth() as f64;
    let (t_mmax, t_abort, t_reso) = (plan.t_mmax, plan.t_abort, plan.t_reso);
    protocol::lemma1_bound(nmax, t_mmax, t_abort, t_reso, plan.delta) + t_mmax + 1e-6
}

/// What one thread did inside one instance — a cell of the
/// `(instance, thread)` table ([`TraceIndex::cell`]).
#[derive(Default, Clone)]
struct PerThread {
    enters: usize,
    exits: usize,
    /// Exits whose outcome was `Failed` — an evicted thread finalises so,
    /// which legitimately closes a recovery without a resolution.
    failed_exits: usize,
    aborts: usize,
    crashes: usize,
    recovery_starts: usize,
    resolved: usize,
    /// Start instant of the thread's open exit phase, if it is in one.
    open_exit: Option<u64>,
}

impl PerThread {
    /// Whether the thread took part in the instance at all: the table has
    /// a cell for every pair, and the per-thread oracles only concern the
    /// threads that entered, left or recovered in the instance.
    fn took_part(&self) -> bool {
        self.enters + self.exits + self.aborts + self.crashes + self.recovery_starts + self.resolved
            > 0
    }
}

#[derive(Default, Clone)]
struct InstanceView {
    /// Whether two threads reported different resolving exceptions.
    disagreement: bool,
    invocations: u64,
    last_handler_end_ns: Option<u64>,
    resolution_msgs: u64,
    /// Whether any thread observed a membership step (view change or
    /// readmission): only then do the membership oracles have work.
    membership_changed: bool,
}

/// The per-instance facts of one trace, in tables indexed by the trace's
/// canonical labels. The tables are the calling thread's, refilled for
/// every trace it checks ([`scratch`]): checking a healthy run allocates
/// nothing.
#[derive(Default)]
struct Views {
    instances: Vec<InstanceView>,
    threads: Vec<PerThread>,
    /// Long exit phases in trace order: `(label, thread, seconds)` from an
    /// `ExitStart` to the thread's next protocol step for the instance
    /// (exit, abort, timeout or recovery trigger) — the window the
    /// exit-timeout oracle bounds. Only those longer than the floor the
    /// collector was given; in a healthy run, none.
    long_exits: Vec<(u32, u32, f64)>,
    /// Labels in ascending raw-serial order, the order violations are
    /// reported in (instances of one definition in creation order).
    by_serial: Vec<u32>,
    /// The membership history of the instance under examination.
    membership: Membership,
}

thread_local! {
    static VIEWS: Cell<Views> = Cell::default();
}

/// The exception a `Resolved` entry names.
fn resolved_name(entry: &Entry) -> Option<&str> {
    match &entry.kind {
        EntryKind::Runtime(EventKind::Resolved { exception }) => Some(exception.name()),
        _ => None,
    }
}

/// One pass over the trace's runtime and network events. Exit phases
/// longer than `exit_floor` seconds are kept for the exit-timeout oracle.
fn collect_views(views: &mut Views, trace: &Trace, exit_floor: f64) {
    let index = trace.index();
    let instances = index.instances();
    reset(&mut views.instances, instances.len());
    reset(&mut views.threads, index.cells());
    views.long_exits.clear();
    views.by_serial.clear();
    views.by_serial.extend(0..instances.len() as u32);
    views
        .by_serial
        .sort_unstable_by_key(|&label| instances[label as usize].serial);
    for entry in trace.entries() {
        let view = &mut views.instances[entry.label as usize];
        let kind = match &entry.kind {
            EntryKind::Runtime(kind) => kind,
            EntryKind::NetSent(send) => {
                if send.kind.counts_for_resolution() {
                    view.resolution_msgs += 1;
                }
                continue;
            }
            _ => continue,
        };
        let at = entry.at_ns;
        let counts = &mut views.threads[index.cell(entry.label, entry.thread)];
        // Any later step of the same thread on the same instance closes an
        // open exit phase (exits wait on votes only; nothing else is
        // observed in between).
        if let Some(start) = counts.open_exit.take() {
            let secs = at.saturating_sub(start) as f64 / 1e9;
            if secs > exit_floor {
                views.long_exits.push((entry.label, entry.thread, secs));
            }
        }
        match kind {
            EventKind::Enter { .. } => counts.enters += 1,
            EventKind::Exit { outcome } => {
                counts.exits += 1;
                if matches!(outcome, caa_core::outcome::ActionOutcome::Failed) {
                    counts.failed_exits += 1;
                }
            }
            EventKind::Abort { .. } => counts.aborts += 1,
            EventKind::Crash => counts.crashes += 1,
            EventKind::ExitStart { .. } => counts.open_exit = Some(at),
            EventKind::RecoveryStart { .. } => counts.recovery_starts += 1,
            EventKind::Resolved { exception } => {
                counts.resolved += 1;
                // Against the first one any thread reported.
                let first = instances[entry.label as usize]
                    .first_resolved()
                    .and_then(|first| resolved_name(&trace.entries()[first]));
                view.disagreement |= first != Some(exception.name());
            }
            EventKind::ViewChange { .. } | EventKind::Rejoin { .. } => {
                view.membership_changed = true;
            }
            EventKind::ResolutionInvoked { invocations } => {
                view.invocations += u64::from(*invocations);
            }
            EventKind::HandlerEnd { .. } => {
                view.last_handler_end_ns = Some(view.last_handler_end_ns.map_or(at, |v| v.max(at)));
            }
            _ => {}
        }
    }
}

/// A set of thread ids, ascending and duplicate-free; inline up to the
/// group sizes the scenario spaces reach.
type ThreadSet = InlineVec<u32, 8>;

/// Inserts `t` into `set`.
fn insert_sorted(set: &mut ThreadSet, t: u32) {
    if let Err(at) = set.binary_search(&t) {
        set.insert(at, t);
    }
}

fn is_subset(a: &[u32], b: &[u32]) -> bool {
    a.iter().all(|t| b.binary_search(t).is_ok())
}

/// The membership history of one instance, replayed from its member
/// entries: every observer's final removed set, and who was ever removed
/// or readmitted.
#[derive(Default)]
struct Membership {
    /// Final removed set by observing thread; empty for a thread that
    /// observed no membership step (and so comparable with every other).
    finals: Vec<ThreadSet>,
    removed: ThreadSet,
    readmitted: ThreadSet,
}

impl Membership {
    fn replay(&mut self, trace: &Trace, label: usize) {
        reset(&mut self.finals, trace.index().threads());
        self.removed.clear();
        self.readmitted.clear();
        for &i in trace.index().members(label) {
            let entry = &trace.entries()[i as usize];
            let EntryKind::Runtime(kind) = &entry.kind else {
                continue;
            };
            let set = &mut self.finals[entry.thread as usize];
            match kind {
                EventKind::ViewChange { removed, .. } => {
                    for t in removed.iter().map(|t| t.as_u32()) {
                        insert_sorted(set, t);
                        insert_sorted(&mut self.removed, t);
                    }
                }
                EventKind::Rejoin { thread, .. } => {
                    set.retain(|&t| t != thread.as_u32());
                    insert_sorted(&mut self.readmitted, thread.as_u32());
                }
                _ => {}
            }
        }
    }
}

/// Checks the plan-independent protocol invariants — thread success,
/// resolution agreement, single resolution per instance and
/// nesting/abortion consistency — on any recorded run. Violation `action`
/// fields carry the same dense `A<n>` labels the rendered trace uses.
///
/// Systems driven from a [`ScenarioPlan`] get the plan-dependent Lemma 1
/// and message-complexity checks on top via [`check_run`]; externally
/// built systems (e.g. the production cell) use this directly.
#[must_use]
pub fn check_invariants(report: &SystemReport, trace: &Trace) -> Vec<Violation> {
    scratch::with(&VIEWS, |views| {
        collect_views(views, trace, f64::INFINITY);
        invariant_violations(report, trace, views)
    })
}

fn invariant_violations(report: &SystemReport, trace: &Trace, views: &mut Views) -> Vec<Violation> {
    let index = trace.index();
    let Views {
        instances,
        threads,
        by_serial,
        membership,
        ..
    } = views;
    let mut violations = Vec::new();
    for (name, result) in &report.results {
        if let Err(e) = result {
            // A crash-stop is an *injected* fault, not a failure: the
            // oracles instead check that the survivors coped with it.
            if matches!(e, caa_runtime::RuntimeError::Crashed) {
                continue;
            }
            violations.push(Violation::ThreadFailure {
                thread: name.to_string(),
                error: e.to_string(),
            });
        }
    }
    for &label in by_serial.iter() {
        let view = &instances[label as usize];
        let counts_of = |thread: u32| {
            ((thread as usize) < index.threads()).then(|| &threads[index.cell(label, thread)])
        };
        let action = u64::from(label);

        // Resolution agreement (§3.3.2).
        if view.disagreement {
            violations.push(Violation::ResolutionDisagreement {
                action,
                resolved: index
                    .members(label as usize)
                    .iter()
                    .filter_map(|&i| {
                        let entry = &trace.entries()[i as usize];
                        resolved_name(entry).map(|name| (entry.thread, name.to_owned()))
                    })
                    .collect(),
            });
        }

        // One resolution per recovery, and at most one recovery per
        // instance under the termination model (§3.3.3).
        if view.invocations > 1 {
            violations.push(Violation::MultipleResolutions {
                action,
                invocations: view.invocations,
            });
        }

        // Nesting/abortion consistency (§3.3.1), crash-stops included:
        // every entry is closed by exactly one exit, abort or crash —
        // except that a crashed-then-readmitted participant enters twice
        // (the crash closes the first entry, its exit closes the
        // re-entry), never more.
        for thread in 0..index.threads() as u32 {
            let counts = &threads[index.cell(label, thread)];
            if !counts.took_part() {
                continue;
            }
            let closed = counts.exits + counts.aborts + counts.crashes;
            if counts.enters == 0 || counts.enters != closed || counts.enters > 1 + counts.crashes {
                violations.push(Violation::NestingInconsistent {
                    action,
                    thread,
                    enters: counts.enters,
                    exits: counts.exits,
                    aborts: counts.aborts,
                    crashes: counts.crashes,
                });
            }

            // Bounded-resolution liveness: a started recovery concludes in
            // resolution, an enclosing abort, the thread's own crash, or
            // the ƒ exit of a thread evicted mid-recovery (it finalises
            // Failed without a resolution of its own).
            if counts.recovery_starts > 0
                && counts.resolved + counts.aborts + counts.crashes + counts.failed_exits == 0
            {
                violations.push(Violation::ResolutionUnterminated { action, thread });
            }
        }

        if !view.membership_changed {
            continue;
        }
        membership.replay(trace, label as usize);

        // Membership agreement, set-based: each thread's view evolves by
        // adopting removal sets (∪) and readmissions (−); epoch numbers
        // are per-thread step counters, so agreement is on the *sets* —
        // final removed sets must be pairwise comparable under inclusion
        // (a thread that concluded early holds a prefix of the survivors'
        // view). One sanctioned divergence: a pair of threads that BOTH
        // finalised with the failure exception ƒ. Each declared
        // coordination broken — in a symmetric suspicion race (messages
        // dropped both ways) the two evict each other and step aside
        // before the peer's announcement lands, so their views legally
        // disagree. A ƒ-failed thread must still be comparable with every
        // thread that kept coordinating.
        let failed = |t: u32| counts_of(t).is_some_and(|counts| counts.failed_exits > 0);
        let mut divergent: Vec<&[u32]> = Vec::new();
        for (a, set_a) in (0u32..).zip(&membership.finals) {
            for (b, set_b) in (a + 1..).zip(&membership.finals[a as usize + 1..]) {
                if is_subset(set_a, set_b) || is_subset(set_b, set_a) {
                    continue;
                }
                if failed(a) && failed(b) {
                    continue;
                }
                for set in [set_a, set_b] {
                    if !divergent.contains(&&set[..]) {
                        divergent.push(set);
                    }
                }
            }
        }
        if !divergent.is_empty() {
            divergent.sort_by_key(|s| s.len());
            violations.push(Violation::ViewDisagreement {
                action,
                removed_sets: divergent.into_iter().map(<[u32]>::to_vec).collect(),
            });
        }

        // No false suspicion: a thread that was removed and never
        // readmitted must not have *completed* the action. A genuinely
        // crashed thread closes its entry (if any) with a Crash event; a
        // successful exit proves the thread was alive past the point it
        // was presumed dead and still acted as a member. Sanctioned
        // survivals: the readmitted rejoiner; the self-finalising ƒ exit
        // of an evicted thread (it observed its own eviction and stepped
        // aside); and an evicted thread that *aborts* — its exit votes
        // never come once the peers have moved on, so the abortion
        // handler undoes its work and raises the abortion exception in
        // the enclosing context instead of completing as a member.
        for &thread in membership.removed.iter() {
            if membership.readmitted.binary_search(&thread).is_ok() {
                continue;
            }
            if counts_of(thread)
                .is_some_and(|counts| counts.exits.saturating_sub(counts.failed_exits) > 0)
            {
                violations.push(Violation::FalseSuspicion { action, thread });
            }
        }
    }
    violations
}

/// The plan's action called `name` (names encode the tree path, so they
/// are unique).
fn action_named<'p>(actions: &'p [ActionPlan], name: &str) -> Option<&'p ActionPlan> {
    actions.iter().find_map(|action| {
        if action.name == name {
            return Some(action);
        }
        action.phases.iter().find_map(|phase| match phase {
            Phase::Nested { children } => action_named(children, name),
            Phase::Compute { .. } => None,
        })
    })
}

/// Checks every per-trace oracle against one plan-driven run: the
/// invariants of [`check_invariants`] plus the plan-dependent Lemma 1
/// completion bound and §3.3.3 message-complexity bound.
#[must_use]
pub fn check_run(artifacts: &RunArtifacts) -> Vec<Violation> {
    scratch::with(&VIEWS, |views| run_violations(artifacts, views))
}

fn run_violations(artifacts: &RunArtifacts, views: &mut Views) -> Vec<Violation> {
    let plan = &artifacts.plan;
    let trace = &artifacts.trace;
    let index = trace.index();
    // Exit-timeout bound: no exit phase outlives the bounded wait —
    // crashed peers are resolved to abortion, not waited on forever.
    // The executor separates the bounds hierarchically (each level's
    // wait exceeds its sublevels' total bounded-wait budget, see
    // [`crate::exec::TIMEOUT_SEPARATION`]), so the bound grows with
    // the levels below an instance; the deepest level's is the floor.
    // One `Tabort` of slack: an exit interrupted by an enclosing-level
    // trigger closes on the `Abort` event, which is only emitted after
    // the abortion handler's work.
    let plan_depth = plan.max_depth() as u32;
    let exit_bound = |depth: u32| {
        let levels_below = plan_depth.saturating_sub(depth) as i32;
        plan.exit_timeout * crate::exec::TIMEOUT_SEPARATION.powi(levels_below) + plan.t_abort + 1e-6
    };
    collect_views(views, trace, exit_bound(plan_depth));
    let mut violations = invariant_violations(&artifacts.report, trace, views);

    let bound_secs = lemma1_bound(plan);
    // Object waits stretch compute phases by contention, and a crash-stop
    // stretches recoveries by the bounded resolution wait — either breaks
    // the premises of the Lemma 1 bound, so skip it for such plans (every
    // other oracle still applies).
    let check_lemma1 = !plan.has_objects() && plan.crashes.is_empty();
    for &label in &views.by_serial {
        let view = &views.instances[label as usize];
        let instance = &index.instances()[label as usize];
        let action = u64::from(label);

        // Lemma 1 completion bound.
        if check_lemma1 {
            if let (Some(raise), Some(done)) = (instance.first_raise(), view.last_handler_end_ns) {
                let raise = trace.entries()[raise].at_ns;
                let measured = (done.saturating_sub(raise)) as f64 / 1e9;
                if measured > bound_secs {
                    violations.push(Violation::Lemma1Exceeded {
                        action,
                        measured,
                        bound: bound_secs,
                    });
                }
            }
        }

        let exit_bound = exit_bound(instance.depth);
        for &(_, thread, measured) in views.long_exits.iter().filter(|p| p.0 == label) {
            if measured > exit_bound {
                violations.push(Violation::ExitTimeoutExceeded {
                    action,
                    thread,
                    measured,
                    bound: exit_bound,
                });
            }
        }

        // §3.3.3 message complexity. The paper's (N+1)(N−1) accounting
        // gives each of the N participants one broadcast (its Exception
        // or Suspended announcement, N−1 messages) plus the resolver's
        // Commit broadcast. A participant readmitted *mid-recovery* spent
        // that budget before its crash and must re-announce its state
        // into the ongoing resolution after catching up, so each distinct
        // readmitted thread earns one extra participant broadcast. Plans
        // without rejoins (all crash-free plans included) keep the exact
        // paper bound.
        let planned = instance
            .name
            .as_deref()
            .and_then(|name| action_named(&plan.top, name));
        if let Some(planned) = planned {
            let n = planned.group.len() as u64;
            let base = (n + 1).saturating_mul(n.saturating_sub(1));
            // Readmissions only ever raise the bound: replay the
            // instance's membership only once the paper's is exceeded.
            if view.resolution_msgs > base {
                views.membership.replay(trace, label as usize);
                let readmissions = views.membership.readmitted.len() as u64;
                let bound = base + readmissions.saturating_mul(n.saturating_sub(1));
                if view.resolution_msgs > bound {
                    violations.push(Violation::MessageBoundExceeded {
                        action,
                        messages: view.resolution_msgs,
                        bound,
                    });
                }
            }
        }
    }

    violations
}

/// Compares two renderings of the same seed's trace (deterministic-replay
/// oracle). The comparison streams line by line
/// ([`Trace::first_divergence`]) — byte-for-byte equivalent to comparing
/// [`Trace::render`] outputs, without materialising either string.
#[must_use]
pub fn check_replay(original: &Trace, replay: &Trace) -> Option<Violation> {
    original
        .first_divergence(replay)
        .map(|first_diff_line| Violation::ReplayDiverged { first_diff_line })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ExecutionArena;
    use crate::exec::execute_in;
    use crate::plan::ScenarioConfig;

    #[test]
    fn clean_seeds_pass_every_oracle() {
        let cfg = ScenarioConfig::default();
        for seed in [0, 1, 2, 3] {
            let plan = ScenarioPlan::generate(seed, &cfg);
            let artifacts = execute_in(&plan, &mut ExecutionArena::default());
            let violations = check_run(&artifacts);
            assert!(
                violations.is_empty(),
                "seed {seed} ({}):\n{}\ntrace:\n{}",
                plan.describe(),
                violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n"),
                artifacts.trace.render(),
            );
        }
    }

    #[test]
    fn replay_check_accepts_identical_and_flags_divergent() {
        let cfg = ScenarioConfig::default();
        let plan = ScenarioPlan::generate(5, &cfg);
        let mut arena = ExecutionArena::default();
        let a = execute_in(&plan, &mut arena);
        let b = execute_in(&plan, &mut arena);
        assert_eq!(check_replay(&a.trace, &b.trace), None);
        let other = execute_in(&ScenarioPlan::generate(6, &cfg), &mut arena);
        assert!(check_replay(&a.trace, &other.trace).is_some());
    }
}
