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

use std::sync::Arc;
use std::time::{Duration, Instant};

use caa_core::exception::{Exception, ExceptionId};
use caa_core::inline::InlineVec;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::{secs, VirtualDuration};
use caa_runtime::action::{AbortHandler, Handler};
use caa_runtime::{ActionDef, Ctx, SharedObject, Step, System, SystemReport};
use caa_simnet::LatencyModel;

use crate::arena::ExecutionArena;
use crate::plan::{ActionPlan, ObjectOp, Phase, ScenarioPlan, VerdictChoice};
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

/// One action of the plan, compiled: its definition, and the compiled
/// children of each of its phases. Everything else — durations, sends,
/// listeners, object operations, the raise phase — is read from the
/// action's [`ActionPlan`], which the run holds (see [`CompiledPlan`]) and
/// the bodies walk side by side with this tree.
struct ExecNode {
    def: ActionDef,
    /// Parallel to [`ActionPlan::group`]: the exception each member raises
    /// (shared with the arena's cached shape of the action).
    raises: Arc<[ExceptionId]>,
    /// Parallel to [`ActionPlan::phases`]: a nested phase's children in
    /// plan order, nothing for a compute phase.
    children: Vec<Vec<ExecNode>>,
}

/// A per-member table a handler closure carries: `(thread, value)` rows,
/// inline for the group sizes the generator emits.
type PerMember<T> = InlineVec<(u32, T), 8>;

fn of_member<T: Copy + Default>(table: &PerMember<T>, thread: u32) -> Option<T> {
    table
        .iter()
        .find_map(|&(t, value)| (t == thread).then_some(value))
}

/// What every participant body of one run shares: the plan, owned for the
/// length of the run, its compiled top-level actions (parallel to
/// [`ScenarioPlan::top`]), the shared objects and the role names.
struct CompiledPlan {
    plan: ScenarioPlan,
    nodes: Vec<ExecNode>,
    objects: Vec<SharedObject<u64>>,
    /// `r<t>` by thread id, as the worker's [`ExecutionArena`] interns
    /// them: the bodies name a role on every send and entry.
    roles: Vec<Arc<str>>,
}

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

fn build_node(
    plan: &ActionPlan,
    scenario: &ScenarioPlan,
    max_depth: usize,
    arena: &mut ExecutionArena,
) -> ExecNode {
    // The lattice and the exception ids are pure functions of (action
    // name, group); the arena caches them across seeds, turning per-seed
    // graph construction and per-use name formatting into a lookup for the
    // recurring shapes the generator emits.
    let shape = arena.shape_for(plan);

    let levels_below = max_depth.saturating_sub(plan.depth) as i32;
    let scale = TIMEOUT_SEPARATION.powi(levels_below);
    let mut builder = ActionDef::builder(shape.name)
        .graph_shared(shape.graph)
        .signal_timeout(secs(scenario.signal_timeout))
        .exit_timeout(secs(scenario.exit_timeout * scale))
        .resolution_timeout(secs(scenario.resolution_timeout * scale));
    for &t in &plan.group {
        builder = builder.role(arena.role_name(t), t);
    }
    // One handler closure of each kind per action, shared by its roles:
    // what differs between members is a table row looked up by the thread
    // the handler finds itself running on.
    if !plan.verdicts.is_empty() {
        let delta = secs(scenario.delta);
        let verdicts: PerMember<Option<VerdictChoice>> =
            plan.verdicts.iter().map(|&(t, v)| (t, Some(v))).collect();
        let signal = shape.signal;
        let fallback: Handler = Arc::new(move |hc| {
            hc.work(delta)?;
            let choice = of_member(&verdicts, hc.thread_id().as_u32())
                .flatten()
                .expect("registered for the roles the plan gives a verdict");
            Ok(match choice {
                VerdictChoice::Recovered => HandlerVerdict::Recovered,
                VerdictChoice::Undo => HandlerVerdict::Undo,
                VerdictChoice::Fail => HandlerVerdict::Fail,
                VerdictChoice::Signal => HandlerVerdict::Signal(signal.clone()),
            })
        });
        for &(t, _) in &plan.verdicts {
            builder = builder.fallback_handler_shared(arena.role_name(t), Arc::clone(&fallback));
        }
    }
    if plan.depth > 0 {
        let t_abort = secs(scenario.t_abort);
        // The members whose abortion handler raises, with their row of
        // the shape's `Eab` ids.
        let raisers: PerMember<usize> = plan
            .group
            .iter()
            .enumerate()
            .filter(|(_, t)| plan.abort_raises_eab.contains(t))
            .map(|(row, &t)| (t, row))
            .collect();
        let eabs = shape.eabs;
        let abort: AbortHandler = Arc::new(move |ac| {
            ac.work(t_abort)?;
            Ok(of_member(&raisers, ac.thread_id().as_u32())
                .map(|row| Exception::new(eabs[row].clone())))
        });
        for &t in &plan.group {
            builder = builder.abort_handler_shared(arena.role_name(t), Arc::clone(&abort));
        }
    }
    let def = builder
        .build()
        .expect("generated plans declare valid roles");

    let children = plan
        .phases
        .iter()
        .map(|phase| match phase {
            Phase::Compute { .. } => Vec::new(),
            Phase::Nested { children } => children
                .iter()
                .map(|c| build_node(c, scenario, max_depth, arena))
                .collect(),
        })
        .collect();

    ExecNode {
        def,
        raises: shape.raises,
        children,
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
fn compute_with_ops(
    rc: &mut Ctx,
    dur: VirtualDuration,
    ops: &[&ObjectOp],
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

fn body_phases(
    rc: &mut Ctx,
    plan: &ActionPlan,
    node: &ExecNode,
    me: u32,
    shared: &CompiledPlan,
) -> Step<()> {
    for (phase, compiled) in plan.phases.iter().zip(&node.children) {
        match phase {
            Phase::Compute {
                dur_ns,
                sends,
                listeners,
                object_ops,
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
                    let mut my_ops: Vec<&ObjectOp> =
                        object_ops.iter().filter(|op| op.thread == me).collect();
                    my_ops.sort_by_key(|op| op.delay_ns);
                    compute_with_ops(rc, dur, &my_ops, &shared.objects)?;
                }
            }
            Phase::Nested { children } => {
                let mine = children
                    .iter()
                    .zip(compiled)
                    .find(|(child, _)| child.group.contains(&me));
                if let Some((child, compiled)) = mine {
                    rc.enter(&compiled.def, &shared.roles[me as usize], |cc| {
                        body_phases(cc, child, compiled, me, shared)
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
                let mine = &node.raises[row.expect("a raiser is a member of its action")];
                rc.raise(Exception::new(mine.clone()))?;
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
#[must_use]
pub fn execute(plan: &ScenarioPlan) -> RunArtifacts {
    execute_in(plan, &mut ExecutionArena::new())
}

/// [`execute`] through a per-worker [`ExecutionArena`]: the trace recorder
/// and its buffers and resolution lattices are recycled across calls (as
/// network storage is by the runtime's per-thread run pool, arena or no
/// arena), so a sweep worker stops paying per-seed
/// setup/teardown allocation. Arena reuse is a pure allocation cache —
/// traces stay byte-identical to a fresh execution's.
#[must_use]
pub fn execute_in(plan: &ScenarioPlan, arena: &mut ExecutionArena) -> RunArtifacts {
    execute_owned(plan.clone(), arena).0
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
    /// Taking the trace out of the recorder (sort and index) and dropping
    /// the compiled plan.
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
/// parts, and the artifacts get it back once they are gone. Also says
/// where the wall-clock time went.
#[must_use]
pub(crate) fn execute_owned(
    plan: ScenarioPlan,
    arena: &mut ExecutionArena,
) -> (RunArtifacts, ExecuteStages) {
    let started = Instant::now();
    let max_depth = plan.max_depth();
    let nodes = plan
        .top
        .iter()
        .map(|a| build_node(a, &plan, max_depth, arena))
        .collect();
    let objects = plan
        .objects
        .iter()
        .map(|name| SharedObject::new(name.as_str(), 0u64))
        .collect();
    let roles = (0..plan.threads).map(|t| arena.role_name(t)).collect();
    let compiled = Arc::new(CompiledPlan {
        plan,
        nodes,
        objects,
        roles,
    });
    let sys = spawn_plan(&compiled, arena);
    let built = Instant::now();
    let report = sys.run();
    let ran = Instant::now();
    let trace = arena.take_trace();
    // Every body ran to its end on its fiber and was dropped there, so
    // this handle is the last one.
    let plan = Arc::try_unwrap(compiled).map_or_else(|shared| shared.plan.clone(), |c| c.plan);
    let stages = ExecuteStages {
        build: built - started,
        run: ran - built,
        teardown: ran.elapsed(),
    };
    let artifacts = RunArtifacts {
        plan,
        trace,
        report,
    };
    (artifacts, stages)
}

/// Builds the system the compiled plan runs on — recording into the
/// arena's recorder — and spawns its participants.
fn spawn_plan(compiled: &Arc<CompiledPlan>, arena: &mut ExecutionArena) -> System {
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
        let shared = Arc::clone(compiled);
        sys.spawn(arena.thread_name(t), move |ctx| {
            let my_crash = shared.plan.crashes.iter().find(|c| c.thread == t);
            let role = &*shared.roles[t as usize];
            let actions = shared.plan.top.iter().zip(&shared.nodes);
            for (i, (action, node)) in actions.enumerate() {
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
                            body_phases(rc, action, node, t, &shared)
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
                            body_phases(rc, action, node, t, &shared)
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
        let artifacts = execute(&plan);
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
            let artifacts = execute(&plan);
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
            let artifacts = execute(&plan);
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
