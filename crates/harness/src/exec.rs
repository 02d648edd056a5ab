//! Scenario execution: materialises a [`ScenarioPlan`] into real
//! [`ActionDef`]s, shared objects and participant bodies, runs them on the
//! virtual-time network with a [`TraceRecorder`](crate::trace::TraceRecorder)
//! attached, and returns the run's artifacts.
//!
//! Execution is deterministic end to end: message timing comes from the
//! seeded latency model, object acquisition from the runtime's arbitrated
//! grant order, fault budgets from per-link sequence numbers, and a
//! crash-stop participant dies at its plan-determined virtual instant — so
//! the same plan renders a byte-identical [`Trace`] on every run.

use std::cell::RefCell;
use std::rc::{Rc, Weak};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caa_core::exception::Exception;
use caa_core::inline::InlineVec;
use caa_core::name::Name;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::{secs, VirtualDuration};
use caa_runtime::action::{AbortHandler, Handler};
use caa_runtime::{ActionDef, Ctx, SharedObject, Step, System, SystemReport};
use caa_simnet::LatencyModel;

use crate::arena::{ActionShape, ExecutionArena};
use crate::plan::{
    role_name, thread_name, ActionPlan, ObjectOp, Phase, ScenarioPlan, VerdictChoice,
};
use crate::trace::Trace;

/// Everything produced by one scenario execution.
#[derive(Debug)]
pub struct RunArtifacts {
    /// The executed plan.
    pub plan: ScenarioPlan,
    /// The canonical recorded trace.
    pub trace: Trace,
    /// The system's own report (thread results, counters, elapsed time).
    pub report: SystemReport,
}

/// One action of the plan, compiled: its definition, and what its handlers
/// look up by the thread they find themselves running on. Everything else
/// — durations, sends, listeners, the raise phase — is read from the
/// action's [`ActionPlan`], which the run holds (see [`CompiledPlan`]) and
/// the bodies walk side by side with these nodes.
struct ExecNode {
    def: ActionDef,
    /// The arena's cached shape of the action: the exceptions its members
    /// raise and signal.
    shape: Rc<ActionShape>,
    /// The handler verdict planned for each member that has one.
    verdicts: PerMember<Option<VerdictChoice>>,
    /// The members whose abortion handler raises, with their row of the
    /// shape's `Eab` ids.
    eab_rows: PerMember<usize>,
    /// How many nodes the action's subtree takes in
    /// [`CompiledPlan::nodes`], itself included.
    subtree: u32,
    /// Where the action's phases start in [`CompiledPlan::phase_ops`].
    first_phase: u32,
}

/// A per-member table: `(thread, value)` rows, inline for the group sizes
/// the generator emits.
type PerMember<T> = InlineVec<(u32, T), 8>;

fn of_member<T: Copy + Default>(table: &PerMember<T>, thread: u32) -> Option<T> {
    table
        .iter()
        .find_map(|&(t, value)| (t == thread).then_some(value))
}

/// What a definition is built from besides its action's shape: a cached
/// definition serves any action of the shape that has the same key (see
/// [`ExecutionArena::definition`]).
#[derive(PartialEq)]
pub(crate) struct DefKey {
    signal_timeout: VirtualDuration,
    exit_timeout: VirtualDuration,
    resolution_timeout: VirtualDuration,
    /// The members that get the fallback handler — those a verdict is
    /// planned for — as a bit per position in the group (of at most 64).
    handled: u64,
    /// Whether the members get the abortion handler (nested actions only).
    nested: bool,
}

/// What every participant body and handler of one run shares: the plan,
/// owned for the length of the run, and its compilation — flat tables that
/// an [`ExecutionArena`] keeps between executions and the next one refills,
/// so compiling a plan allocates only what no earlier plan needed.
#[derive(Default)]
pub(crate) struct CompiledPlan {
    plan: ScenarioPlan,
    /// The plan's actions, each followed by its subtree: the top-level
    /// actions in order, an action's children in phase order.
    nodes: Vec<ExecNode>,
    /// Per phase of every node, in node order: its range of `ops`.
    phase_ops: Vec<(u32, u32)>,
    /// The object operations of every compute phase, each phase's sorted by
    /// offset (stably: a thread's own operations keep their plan order).
    ops: Vec<ObjectOp>,
    /// Parallel to [`ScenarioPlan::objects`]; an object is returned to its
    /// initial state for every execution, and made only when a plan names
    /// one no earlier plan did.
    objects: Vec<SharedObject<u64>>,
    /// By thread id, for every thread id a plan has had so far: the role
    /// each thread plays ([`role_name`]; the bodies name one on every send
    /// and entry) and the name it is spawned under ([`thread_name`]).
    roles: Vec<Name>,
    threads: Vec<Name>,
}

/// Where an [`ExecutionArena`] keeps its compiled plan: the last
/// execution's between executions, for the next one to refill, and the
/// running one during `System::run`, for the arena's handler pair to read
/// (see [`Handlers`]).
pub(crate) type PlanSlot = Rc<RefCell<Option<Rc<CompiledPlan>>>>;

/// Per-level separation factor for the crash-detecting bounded waits.
///
/// A live participant of an action at depth `d` can lawfully lag behind
/// its peers by the *sum of every bounded wait below `d`*: a sibling
/// subtree can burn a signalling timeout, an exit timeout and a resolution
/// timeout per nested level before its member resurfaces at depth `d`'s
/// protocol. If all levels shared one bound, a deep cascade would outrun a
/// shallow wait and a live peer would be presumed crashed (survivors then
/// diverge — found by the first crash-schedule sweep). Scaling each
/// level's exit and resolution timeouts by `SEPARATION^(levels below)`
/// keeps every wait two orders of magnitude above its sublevels' total
/// budget; virtual time makes the headroom free. The §3.4 *signalling*
/// timeout is deliberately left unscaled: it fires in crash-free runs too
/// (lost announcements are treated as ƒ), so rescaling it would change
/// crash-free traces.
pub const TIMEOUT_SEPARATION: f64 = 100.0;

impl CompiledPlan {
    /// Compiles `plan` into these tables, in place of what they held.
    fn refill(&mut self, plan: ScenarioPlan, arena: &mut ExecutionArena) {
        self.nodes.clear();
        self.phase_ops.clear();
        self.ops.clear();
        for t in self.roles.len() as u32..plan.threads {
            self.roles.push(role_name(t).into());
            self.threads.push(thread_name(t).into());
        }
        let max_depth = plan.max_depth();
        for action in &plan.top {
            self.compile(action, &plan, max_depth, arena);
        }
        for (at, name) in plan.objects.iter().enumerate() {
            match self.objects.get(at) {
                Some(object) if object.name().as_str() == name => object.reset(0),
                _ => {
                    self.objects.truncate(at);
                    self.objects.push(SharedObject::new(name.as_str(), 0u64));
                }
            }
        }
        self.plan = plan;
    }

    /// Appends `action` and its subtree to the tables.
    fn compile(
        &mut self,
        action: &ActionPlan,
        scenario: &ScenarioPlan,
        max_depth: usize,
        arena: &mut ExecutionArena,
    ) {
        let first_phase = self.phase_ops.len();
        for phase in &action.phases {
            let start = self.ops.len();
            if let Phase::Compute { object_ops, .. } = phase {
                self.ops.extend_from_slice(object_ops);
                self.ops[start..].sort_by_key(|op| op.delay_ns);
            }
            self.phase_ops.push((start as u32, self.ops.len() as u32));
        }

        let levels_below = max_depth.saturating_sub(action.depth) as i32;
        let scale = TIMEOUT_SEPARATION.powi(levels_below);
        let key = DefKey {
            signal_timeout: secs(scenario.signal_timeout),
            exit_timeout: secs(scenario.exit_timeout * scale),
            resolution_timeout: secs(scenario.resolution_timeout * scale),
            handled: action.verdicts.iter().fold(0, |handled, (t, _)| {
                let member = action.group.iter().position(|member| member == t);
                handled | 1u64 << member.expect("a verdict is planned for a member of the group")
            }),
            nested: action.depth > 0,
        };
        // The lattice and the exception ids are pure functions of (action
        // name, group), and so is the definition once the timeouts and the
        // handled members are given: the arena caches them across seeds,
        // turning per-seed graph and definition construction and per-use
        // name formatting into a lookup for the recurring shapes the
        // generator emits.
        let (shape, cached) = arena.definition(action, &key);
        let def = cached.unwrap_or_else(|| {
            let def = build_definition(&shape, action, &key, &self.roles, arena.handlers());
            arena.keep_definition(action, key, &def);
            def
        });
        let at = self.nodes.len();
        self.nodes.push(ExecNode {
            def,
            shape,
            verdicts: action.verdicts.iter().map(|&(t, v)| (t, Some(v))).collect(),
            eab_rows: action
                .group
                .iter()
                .enumerate()
                .filter(|(_, t)| action.abort_raises_eab.contains(t))
                .map(|(row, &t)| (t, row))
                .collect(),
            subtree: 0,
            first_phase: first_phase as u32,
        });
        for phase in &action.phases {
            if let Phase::Nested { children } = phase {
                for child in children {
                    self.compile(child, scenario, max_depth, arena);
                }
            }
        }
        self.nodes[at].subtree = (self.nodes.len() - at) as u32;
    }

    /// The node of the action named `name`.
    fn node_named(&self, name: Option<&str>) -> &ExecNode {
        self.nodes
            .iter()
            .find(|node| Some(node.def.name()) == name)
            .expect("a handler runs inside an action of the running plan")
    }
}

/// Builds the definition of an action of `shape` from `key`: every member
/// a role (named by `roles`, by thread id), one handler pair for all of
/// them.
fn build_definition(
    shape: &ActionShape,
    action: &ActionPlan,
    key: &DefKey,
    roles: &[Name],
    handlers: &Handlers,
) -> ActionDef {
    let mut builder = ActionDef::builder(shape.name)
        .graph_shared(Rc::clone(&shape.graph))
        .signal_timeout(key.signal_timeout)
        .exit_timeout(key.exit_timeout)
        .resolution_timeout(key.resolution_timeout);
    for &t in &action.group {
        builder = builder.role(roles[t as usize], t);
    }
    // One handler of each kind for every role of every action: what
    // differs between members and actions is looked up, in the running
    // plan, by the action and thread the handler finds itself in.
    for (member, &t) in action.group.iter().enumerate() {
        if key.handled & 1u64 << member != 0 {
            let fallback = Rc::clone(&handlers.fallback);
            builder = builder.fallback_handler_shared(roles[t as usize], fallback);
        }
    }
    if key.nested {
        for &t in &action.group {
            let abort = Rc::clone(&handlers.abort);
            builder = builder.abort_handler_shared(roles[t as usize], abort);
        }
    }
    builder
        .build()
        .expect("generated plans declare valid roles")
}

/// The plan running in the arena whose slot `slot` is.
fn running(slot: &Weak<RefCell<Option<Rc<CompiledPlan>>>>) -> Rc<CompiledPlan> {
    slot.upgrade()
        .and_then(|slot| slot.borrow().clone())
        .expect("a handler runs in a plan its arena executes")
}

/// The fallback handler and the abortion handler that every definition an
/// [`ExecutionArena`] builds registers for every role. A handler is shared
/// by every definition of the arena and outlives any one plan, so it
/// captures none: it finds the verdicts and exceptions of the action it
/// runs in through the arena's [`PlanSlot`] — held weakly, because the
/// plan in the slot holds the definitions that hold the handlers.
pub(crate) struct Handlers {
    fallback: Handler,
    abort: AbortHandler,
}

impl Handlers {
    /// The pair that reads the running plan from `slot`.
    pub(crate) fn reading(slot: &PlanSlot) -> Handlers {
        let (for_fallback, for_abort) = (Rc::downgrade(slot), Rc::downgrade(slot));
        Handlers {
            fallback: Rc::new(move |hc| {
                let shared = running(&for_fallback);
                hc.work(secs(shared.plan.delta))?;
                let node = shared.node_named(hc.action_name());
                let choice = of_member(&node.verdicts, hc.thread_id().as_u32())
                    .flatten()
                    .expect("registered for the roles the plan gives a verdict");
                Ok(match choice {
                    VerdictChoice::Recovered => HandlerVerdict::Recovered,
                    VerdictChoice::Undo => HandlerVerdict::Undo,
                    VerdictChoice::Fail => HandlerVerdict::Fail,
                    VerdictChoice::Signal => HandlerVerdict::Signal(node.shape.signal),
                })
            }),
            abort: Rc::new(move |ac| {
                let shared = running(&for_abort);
                ac.work(secs(shared.plan.t_abort))?;
                let node = shared.node_named(ac.action_name());
                Ok(of_member(&node.eab_rows, ac.thread_id().as_u32())
                    .map(|row| Exception::new(node.shape.eabs[row])))
            }),
        }
    }
}

/// Drains the role's app inbox for exactly `dur` of virtual time, so the
/// phase consumes the same duration whether or not messages arrive (the
/// alignment discipline the Lemma 1 oracle relies on).
fn listen(rc: &mut Ctx, dur: VirtualDuration) -> Step<()> {
    let deadline = rc.now().saturating_add(dur);
    loop {
        let remaining = deadline.duration_since(rc.now());
        if remaining.is_zero() {
            return Ok(());
        }
        let _ = rc.recv_app_timeout(remaining)?;
    }
}

/// Computes through one phase, issuing this thread's object operations at
/// their fixed offsets. Acquisition waits extend the phase beyond `dur`
/// (deterministically); the trailing work is clamped to the deadline.
fn compute_with_ops<'a>(
    rc: &mut Ctx,
    dur: VirtualDuration,
    ops: impl Iterator<Item = &'a ObjectOp>,
    objects: &[SharedObject<u64>],
) -> Step<()> {
    let start = rc.now();
    let deadline = start.saturating_add(dur);
    for op in ops {
        let target = start.saturating_add(VirtualDuration::from_nanos(op.delay_ns));
        let lead = target.duration_since(rc.now());
        if !lead.is_zero() {
            rc.work(lead)?;
        }
        let obj = &objects[op.object as usize];
        if op.update {
            rc.update(obj, |v| *v = v.wrapping_add(1))?;
        } else {
            let _ = rc.read(obj, |v| *v)?;
        }
    }
    let rest = deadline.duration_since(rc.now());
    if !rest.is_zero() {
        rc.work(rest)?;
    }
    Ok(())
}

/// Thread `me`'s part of `plan`, the action compiled at `shared.nodes[at]`.
fn body_phases(
    rc: &mut Ctx,
    plan: &ActionPlan,
    at: usize,
    me: u32,
    shared: &CompiledPlan,
) -> Step<()> {
    let node = &shared.nodes[at];
    // Where the next child action's subtree starts.
    let mut next_child = at + 1;
    for (phase, &(first_op, end_op)) in plan
        .phases
        .iter()
        .zip(&shared.phase_ops[node.first_phase as usize..])
    {
        match phase {
            Phase::Compute {
                dur_ns,
                sends,
                listeners,
                ..
            } => {
                let dur = VirtualDuration::from_nanos(*dur_ns);
                for &(from, to) in sends {
                    if from == me {
                        rc.send_to_role(&shared.roles[to as usize], "app", u64::from(to))?;
                    }
                }
                if listeners.contains(&me) {
                    listen(rc, dur)?;
                } else {
                    let my_ops = shared.ops[first_op as usize..end_op as usize]
                        .iter()
                        .filter(|op| op.thread == me);
                    compute_with_ops(rc, dur, my_ops, &shared.objects)?;
                }
            }
            Phase::Nested { children } => {
                let mut mine = None;
                for child in children {
                    let child_at = next_child;
                    next_child += shared.nodes[child_at].subtree as usize;
                    if mine.is_none() && child.group.contains(&me) {
                        mine = Some((child, child_at));
                    }
                }
                if let Some((child, child_at)) = mine {
                    let def = &shared.nodes[child_at].def;
                    rc.enter(def, &shared.roles[me as usize], |cc| {
                        body_phases(cc, child, child_at, me, shared)
                    })
                    .map(|_| ())?;
                }
            }
        }
    }
    if let Some(raise_phase) = &plan.raise {
        match raise_phase.raisers.iter().find(|(t, _)| *t == me) {
            Some(&(_, delay_ns)) => {
                rc.work(VirtualDuration::from_nanos(delay_ns))?;
                let row = plan.group.iter().position(|&t| t == me);
                let mine = node.shape.raises[row.expect("a raiser is a member of its action")];
                rc.raise(Exception::new(mine))?;
            }
            None => {
                // Peers will raise; compute until their recovery interrupts.
                rc.work(secs(30.0))?;
            }
        }
    }
    Ok(())
}

/// Executes `plan` on a fresh virtual-time system, recording a canonical
/// trace. The run is deterministic: the same plan produces byte-identical
/// [`Trace::render`] output on every execution.
///
/// The execution goes through `arena`: the trace recorder and its
/// buffers, the compiled plan's tables and the definitions and resolution
/// lattices of recurring actions are recycled across calls (as network
/// storage is by the runtime's per-thread run pool), so a sweep worker
/// stops paying per-seed setup/teardown allocation. Arena reuse is a pure
/// allocation cache — traces stay byte-identical to a fresh execution's;
/// a caller with no arena to keep passes `&mut ExecutionArena::default()`.
#[must_use]
pub fn execute_in(plan: &ScenarioPlan, arena: &mut ExecutionArena) -> RunArtifacts {
    execute_owned(plan.clone(), arena, Instant::now()).0
}

/// What one execution cost on the wall clock, by stage; the stages add up
/// to the whole of [`execute_owned`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExecuteStages {
    /// Compiling the plan (definitions, shared objects), building the
    /// system and spawning its participants.
    pub(crate) build: Duration,
    /// `System::run`: every participant to completion, and the network
    /// reclaimed.
    pub(crate) run: Duration,
    /// Taking the trace out of the recorder (order check and index) and
    /// the plan out of its compilation.
    pub(crate) teardown: Duration,
}

impl std::ops::AddAssign for ExecuteStages {
    fn add_assign(&mut self, other: ExecuteStages) {
        self.build += other.build;
        self.run += other.run;
        self.teardown += other.teardown;
    }
}

/// [`execute_in`] taking the plan by value (the sweep driver's path): the
/// run's participant bodies share the plan itself, not copies of its
/// parts, and the artifacts get it back once they are gone. The execution
/// starts at `started` — an instant the caller has read already — and says
/// where the wall-clock time went and when it ended.
#[must_use]
pub(crate) fn execute_owned(
    plan: ScenarioPlan,
    arena: &mut ExecutionArena,
    started: Instant,
) -> (RunArtifacts, ExecuteStages, Instant) {
    let slot = Rc::clone(arena.plan_slot());
    // The last execution's tables, unless something still shares them (a
    // participant that never finished).
    let mut compiled = slot
        .take()
        .filter(|compiled| Rc::strong_count(compiled) == 1)
        .unwrap_or_default();
    Rc::get_mut(&mut compiled)
        .expect("a compilation nothing shares")
        .refill(plan, arena);
    let sys = spawn_plan(&compiled, arena);
    slot.replace(Some(compiled));
    let built = Instant::now();
    let report = sys.run();
    let ran = Instant::now();
    let trace = arena.take_trace();
    // Every body ran to its end on its fiber and was dropped there, so
    // the slot's handle is the last one.
    let plan = {
        let mut running = slot.borrow_mut();
        let compiled = running.as_mut().expect("filled above");
        match Rc::get_mut(compiled) {
            Some(compiled) => std::mem::take(&mut compiled.plan),
            None => compiled.plan.clone(),
        }
    };
    let ended = Instant::now();
    let stages = ExecuteStages {
        build: built - started,
        run: ran - built,
        teardown: ended - ran,
    };
    let artifacts = RunArtifacts {
        plan,
        trace,
        report,
    };
    (artifacts, stages, ended)
}

/// Builds the system the compiled plan runs on — recording into the
/// arena's recorder — and spawns its participants.
fn spawn_plan(compiled: &Rc<CompiledPlan>, arena: &mut ExecutionArena) -> System {
    let plan = &compiled.plan;
    let recorder = arena.recorder();
    let mut sys = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(plan.t_mmax)))
        .seed(plan.seed)
        .resolution_delay(secs(plan.t_reso))
        .faults(plan.fault_plan())
        .observer(Arc::clone(&recorder) as _)
        .tap(recorder as _)
        .build();

    for t in 0..plan.threads {
        let shared = Rc::clone(compiled);
        sys.spawn(compiled.threads[t as usize], move |ctx| {
            let my_crash = shared.plan.crashes.iter().find(|c| c.thread == t);
            let role = shared.roles[t as usize].as_str();
            // Where the next top-level action's subtree starts.
            let mut at = 0;
            for (i, action) in shared.plan.top.iter().enumerate() {
                let node = &shared.nodes[at];
                let this = at;
                at += node.subtree as usize;
                match my_crash.filter(|c| i == c.top_action as usize) {
                    Some(c) => {
                        // The designated participant runs its real
                        // workload — raises, messages and object traffic
                        // included — with the crash scheduled at its
                        // plan-determined instant: it dies at the first
                        // poll point at or after it, wherever the
                        // protocol then has it (body, collection,
                        // signalling or exit).
                        let run = ctx.enter(&node.def, role, |rc| {
                            rc.schedule_crash(VirtualDuration::from_nanos(c.delay_ns));
                            body_phases(rc, action, this, t, &shared)
                        });
                        let flow = match run {
                            Err(flow) => flow,
                            Ok(_) => {
                                // The action concluded before the crash
                                // instant (short workload, or a recovery
                                // absorbed the body): the process is
                                // still doomed — idle until the schedule
                                // fires.
                                match ctx.work(secs(3600.0)) {
                                    Err(flow) => flow,
                                    Ok(()) => return ctx.crash_stop(),
                                }
                            }
                        };
                        if !flow.is_crash() {
                            return Err(flow);
                        }
                        // The planned death. Without a planned restart
                        // the thread stays down for good; with one, it
                        // waits out the down-time and asks the survivors
                        // to readmit it (epoch-numbered rejoin). A
                        // restart nobody answers — the group concluded,
                        // or evicted it and moved on past the join
                        // window — gives up and stays down too.
                        let Some(down_ns) = c.rejoin_delay_ns else {
                            return Err(flow);
                        };
                        ctx.restart_after(VirtualDuration::from_nanos(down_ns))?;
                        if ctx.rejoin(&node.def, role)?.is_none() {
                            return Err(flow);
                        }
                        // Readmitted and concluded the crash action as a
                        // member again: continue into the remaining top
                        // actions like any survivor.
                    }
                    None => {
                        ctx.enter(&node.def, role, |rc| {
                            body_phases(rc, action, this, t, &shared)
                        })
                        .map(|_| ())?;
                    }
                }
            }
            Ok(())
        });
    }
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScenarioConfig;

    #[test]
    fn a_simple_seed_executes_cleanly() {
        let plan = ScenarioPlan::generate(1, &ScenarioConfig::default());
        let artifacts = execute_in(&plan, &mut ExecutionArena::default());
        for (i, (name, result)) in artifacts.report.results.iter().enumerate() {
            let planned = plan.crashes.iter().find(|c| c.thread == i as u32);
            match result {
                Ok(()) => assert!(
                    planned.is_none_or(|c| c.rejoin_delay_ns.is_some()),
                    "{name} should have crashed for good"
                ),
                Err(caa_runtime::RuntimeError::Crashed) => {
                    assert!(planned.is_some(), "{name} crashed unplanned");
                }
                Err(e) => panic!("{name} failed: {e}"),
            }
        }
        assert!(!artifacts.trace.is_empty());
        // Top-level entries per thread: survivors enter every top action,
        // a successful rejoiner re-enters its crash action once on top of
        // that, and a thread that stayed down entered at most the actions
        // up to (and including) its crash action.
        let mut enters: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for e in artifacts.trace.runtime_events() {
            if matches!(
                e.kind,
                caa_runtime::observe::EventKind::Enter { depth: 1, .. }
            ) {
                *enters.entry(e.thread.as_u32()).or_default() += 1;
            }
        }
        for t in 0..plan.threads {
            let n = enters.get(&t).copied().unwrap_or(0);
            let planned = plan.crashes.iter().find(|c| c.thread == t);
            let rejoined = planned.is_some() && artifacts.report.results[t as usize].1.is_ok();
            match planned {
                None => assert_eq!(n, plan.top.len(), "T{t}: survivor misses entries"),
                Some(_) if rejoined => {
                    assert_eq!(n, plan.top.len() + 1, "T{t}: rejoiner double-enters once");
                }
                Some(c) => assert!(
                    n <= c.top_action as usize + 1,
                    "T{t}: dead thread entered past its crash action"
                ),
            }
        }
    }

    #[test]
    fn object_scenarios_record_acquisitions() {
        let cfg = ScenarioConfig::default();
        let mut acquisitions = 0usize;
        for seed in 0..40 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            if !plan.has_objects() {
                continue;
            }
            let artifacts = execute_in(&plan, &mut ExecutionArena::default());
            acquisitions += artifacts
                .trace
                .runtime_events()
                .filter(|e| {
                    matches!(
                        e.kind,
                        caa_runtime::observe::EventKind::ObjectAcquired { .. }
                    )
                })
                .count();
        }
        assert!(
            acquisitions > 0,
            "object scenarios must actually acquire objects"
        );
    }

    #[test]
    fn crash_scenarios_terminate_with_the_crash_reported() {
        let cfg = ScenarioConfig::default();
        let (mut found, mut stayed_down, mut readmitted) = (false, 0, 0);
        for seed in 0..60 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            if plan.crashes.is_empty() {
                continue;
            }
            found = true;
            let artifacts = execute_in(&plan, &mut ExecutionArena::default());
            for (i, (name, result)) in artifacts.report.results.iter().enumerate() {
                let planned = plan.crashes.iter().find(|c| c.thread == i as u32);
                match (planned, result) {
                    (None, Ok(())) => {}
                    (None, Err(e)) => panic!("{name} failed unplanned: {e}"),
                    (Some(_), Err(caa_runtime::RuntimeError::Crashed)) => stayed_down += 1,
                    (Some(c), Ok(())) => {
                        assert!(
                            c.rejoin_delay_ns.is_some(),
                            "{name} survived its crash without a planned rejoin"
                        );
                        readmitted += 1;
                    }
                    (Some(_), Err(e)) => panic!("{name} died of {e}, not the planned crash"),
                }
            }
        }
        assert!(found, "no crash seed in range");
        assert!(stayed_down > 0, "no crash stayed down in range");
        assert!(readmitted > 0, "no rejoin was granted in range");
    }
}
