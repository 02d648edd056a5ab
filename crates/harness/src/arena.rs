//! Per-worker execution arenas: allocation reuse across sweep seeds.
//!
//! A sweep explores thousands of independent simulations, each lasting a
//! fraction of a millisecond; before arenas, every seed rebuilt the
//! network (actor slots, per-endpoint delivery heaps, the per-pair link
//! matrix), the trace buffers and each action's resolution lattice from
//! scratch — setup/teardown churn dominating the actual protocol work.
//! An [`ExecutionArena`] is the per-worker recycling bin for the harness's
//! share of it. (The network's share — actor slots with their
//! participants' fiber stacks, mailbox heaps and link rows — is not held
//! here: `caa-runtime` keeps it in a pool of its own per host thread, which
//! [`System::run`](caa_runtime::System::run) refills and the next
//! `SystemBuilder::build` on that thread drains, so a sweep worker's seeds
//! recycle it without the harness handing anything over.)
//!
//! * the **trace recorder and trace buffers**: one
//!   [`TraceRecorder`] records every seed executed through the arena, and
//!   traces handed back by [`ExecutionArena::recycle_trace`] once they
//!   have been checked lend their buffers (entries and index) to the next
//!   seed's trace — a finished trace *leaves in* the buffer it was
//!   recorded in, and the recorder goes on in the recycled one — so once
//!   the buffers have grown to the worker's longest trace, recording and
//!   hand-off allocate and copy nothing. A trace that is *not* handed
//!   back costs three allocations of exactly its entries', member lists'
//!   and instance table's lengths;
//! * the **shape and definition cache**: an action's conjunction lattice
//!   and the exception ids its members raise and signal are pure functions
//!   of its name and group, and so is its whole [`ActionDef`] once the
//!   timeouts and the members with a planned verdict are given — and
//!   scenario generation draws all of those from a small space. The cache
//!   turns per-seed lattice and definition construction and per-use name
//!   formatting into a lookup that formats and hashes no string: a cached
//!   definition is *reissued* ([`ActionDef::reissued`]: the same roles,
//!   graph and handlers under a definition id of its own), which is all
//!   that building it again would have changed;
//! * the **handler pair**: what differs between the handlers of two roles,
//!   actions or seeds is data — a verdict, an exception to return — that
//!   the running plan holds, so one fallback handler and one abortion
//!   handler, made with the arena, serve every definition it ever builds
//!   (they look their data up in the plan the arena is running, which
//!   they find in the arena's plan slot);
//! * the **compiled plan**: the flat tables a plan is compiled into
//!   (actions in preorder, each phase's object operations sorted by
//!   offset), the shared objects and the role and thread names are
//!   *refilled* by each execution, not rebuilt: a table is cleared and
//!   keeps its buffer, an object is reset to its initial state, the names
//!   only grow.
//!
//! Arenas are a pure allocation cache: executing a plan through an arena
//! renders the byte-identical trace a fresh execution renders (the
//! allocation-regression test and the 12k-seed hash gate both pin this).
//! An arena is single-threaded state — each sweep worker owns one.

use std::hash::Hasher as _;
use std::rc::Rc;
use std::sync::Arc;

use caa_core::exception::ExceptionId;
use caa_core::name::Name;
use caa_exgraph::generate::conjunction_lattice;
use caa_exgraph::ExceptionGraph;
use caa_runtime::ActionDef;

use crate::exec::{DefKey, Handlers, PlanSlot};
use crate::inthash::{IntHasher, IntMap};
use crate::metrics::{MetricsRecorder, SweepMetrics};
use crate::plan::ActionPlan;
use crate::trace::{Trace, TraceRecorder};

/// How many recycled traces an arena keeps. An execution uses one; a
/// replay-checked seed uses two in flight. Anything beyond that is dead
/// weight.
const MAX_TRACE_BUFS: usize = 2;

/// What compiling and running an action takes from its name and group
/// alone: the resolution lattice and the interned ids of every exception
/// its members can raise or signal. Shared (`Rc`) between the cache and the
/// compiled plans that use it.
pub(crate) struct ActionShape {
    /// The action's name.
    pub(crate) name: Name,
    /// The group the ids below are parallel to.
    group: Box<[u32]>,
    /// The conjunction lattice over `raises`.
    pub(crate) graph: Rc<ExceptionGraph>,
    /// Parallel to the group: what each member raises
    /// ([`ActionPlan::raise_exception`]).
    pub(crate) raises: Box<[ExceptionId]>,
    /// Parallel to the group: each member's abortion-handler exception
    /// ([`ActionPlan::eab_exception`]).
    pub(crate) eabs: Box<[ExceptionId]>,
    /// What a `Signal` verdict reports ([`ActionPlan::signal_exception`]).
    pub(crate) signal: ExceptionId,
}

impl ActionShape {
    fn of(plan: &ActionPlan) -> ActionShape {
        let ids = |name: &dyn Fn(u32) -> String| -> Box<[ExceptionId]> {
            plan.group.iter().map(|&t| name(t).into()).collect()
        };
        let raises = ids(&|t| plan.raise_exception(t));
        ActionShape {
            name: Name::new(&plan.name),
            group: plan.group.as_slice().into(),
            graph: Rc::new(
                conjunction_lattice(&raises, 2.min(raises.len()))
                    .expect("per-action raise exceptions are nonempty and distinct"),
            ),
            raises,
            eabs: ids(&|t| plan.eab_exception(t)),
            signal: plan.signal_exception().into(),
        }
    }
}

/// One entry of the shape cache: the shape, and the definitions built over
/// it so far.
struct CachedShape {
    shape: Rc<ActionShape>,
    /// Each with what it was built from (a shape meets a handful of keys:
    /// the timeouts scale with the plan's depth). An action is compiled to
    /// a reissue of its definition ([`ActionDef::reissued`]), so every
    /// action of every execution numbers its instances under an id of its
    /// own, exactly as when each was built from scratch.
    defs: Vec<(DefKey, ActionDef)>,
}

/// Reusable execution state for one sweep worker (see the module docs).
///
/// # Examples
///
/// ```
/// use caa_harness::arena::ExecutionArena;
/// use caa_harness::exec::execute_in;
/// use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
///
/// let mut arena = ExecutionArena::new();
/// let plan = ScenarioPlan::generate(7, &ScenarioConfig::default());
/// let first = execute_in(&plan, &mut arena);
/// let first_render = first.trace.render();
/// arena.recycle_trace(first.trace);
/// // The second execution reuses the trace, graph and definition
/// // allocations (and, through the runtime's per-thread pool, the
/// // network's) — and renders the byte-identical trace.
/// let second = execute_in(&plan, &mut arena);
/// assert_eq!(second.trace.render(), first_render);
/// ```
pub struct ExecutionArena {
    /// The recorder attached to every system executed through this arena;
    /// empty between executions.
    recorder: Arc<TraceRecorder>,
    trace_bufs: Vec<Trace>,
    /// Action shapes by the hash of `(action name, group)` — the inputs
    /// that determine an action's declared exceptions. A bucket holds the
    /// shapes that share a hash: one, bar a collision.
    shapes: IntMap<u64, Vec<CachedShape>>,
    /// The one handler pair every definition of this arena registers.
    handlers: Handlers,
    /// The compiled plan, where the handler pair reads it.
    compiled: PlanSlot,
    /// Per-worker metrics recorder: pre-registered histogram handles plus
    /// reusable correlation scratch, so per-seed metric extraction is
    /// allocation-free in steady state (see [`crate::metrics`]).
    metrics: MetricsRecorder,
}

impl std::fmt::Debug for ExecutionArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionArena")
            .field("trace_bufs", &self.trace_bufs.len())
            .field("shapes", &self.shapes.len())
            .finish()
    }
}

impl Default for ExecutionArena {
    /// An empty arena; warms up over the first seed or two.
    fn default() -> ExecutionArena {
        let compiled = PlanSlot::default();
        ExecutionArena {
            recorder: Arc::default(),
            trace_bufs: Vec::new(),
            shapes: IntMap::default(),
            handlers: Handlers::reading(&compiled),
            compiled,
            metrics: MetricsRecorder::default(),
        }
    }
}

impl ExecutionArena {
    /// An empty arena; warms up over the first seed or two.
    #[must_use]
    pub fn new() -> ExecutionArena {
        ExecutionArena::default()
    }

    /// Hands a finished trace's buffers back for the next execution.
    /// Call it once a seed's trace has been checked and is no longer
    /// needed; traces kept alive (violating seeds, golden comparisons)
    /// simply are not recycled.
    pub fn recycle_trace(&mut self, trace: Trace) {
        if self.trace_bufs.len() < MAX_TRACE_BUFS {
            self.trace_bufs.push(trace);
        }
    }

    /// The arena's recorder, to attach to the next execution's system.
    pub(crate) fn recorder(&self) -> Arc<TraceRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Takes the finished execution's trace out of the arena's recorder:
    /// into a recycled trace's buffers if one is available, else into
    /// fresh ones of exactly the needed lengths.
    pub(crate) fn take_trace(&mut self) -> Trace {
        let recycled = self.trace_bufs.pop().unwrap_or_default();
        self.recorder.take_trace_into(recycled)
    }

    /// Where the compiled plan is kept: refilled by each execution, and
    /// read by the handler pair while it runs.
    pub(crate) fn plan_slot(&self) -> &PlanSlot {
        &self.compiled
    }

    /// The cache entry of `plan`'s shape (a pure function of the action's
    /// name and group; everything else about the plan is ignored). Found
    /// without formatting or hashing a string: by a hash of the name's
    /// bytes and the group, verified against both on a hit.
    fn cached_shape(&mut self, plan: &ActionPlan) -> &mut CachedShape {
        let mut hasher = IntHasher::default();
        hasher.write(plan.name.as_bytes());
        for &t in &plan.group {
            // Offset, so that a member is told from a byte of the name.
            hasher.write_u64(u64::from(t) + 256);
        }
        let bucket = self.shapes.entry(hasher.finish()).or_default();
        let known = bucket
            .iter()
            .position(|c| *c.shape.name == *plan.name && *c.shape.group == *plan.group);
        let at = known.unwrap_or_else(|| {
            bucket.push(CachedShape {
                shape: Rc::new(ActionShape::of(plan)),
                defs: Vec::new(),
            });
            bucket.len() - 1
        });
        &mut bucket[at]
    }

    /// `plan`'s shape and, when one was built from `key` for the shape,
    /// that definition reissued.
    pub(crate) fn definition(
        &mut self,
        plan: &ActionPlan,
        key: &DefKey,
    ) -> (Rc<ActionShape>, Option<ActionDef>) {
        let cached = self.cached_shape(plan);
        let built = cached.defs.iter().find(|(built_from, _)| built_from == key);
        let def = built.map(|(_, def)| def.reissued());
        (Rc::clone(&cached.shape), def)
    }

    /// Keeps `def`, just built from `key` for `plan`'s shape, for later
    /// compilations.
    pub(crate) fn keep_definition(&mut self, plan: &ActionPlan, key: DefKey, def: &ActionDef) {
        let defs = &mut self.cached_shape(plan).defs;
        if defs.is_empty() {
            // Most shapes only ever meet one key.
            defs.reserve_exact(1);
        }
        defs.push((key, def.clone()));
    }

    /// The one handler pair this arena's definitions register.
    pub(crate) fn handlers(&self) -> &Handlers {
        &self.handlers
    }

    /// The per-worker metrics recorder (mutable: seed runners record each
    /// explored seed's artifacts through it).
    pub fn metrics_recorder(&mut self) -> &mut MetricsRecorder {
        &mut self.metrics
    }

    /// The metrics accumulated by every seed run through this arena.
    #[must_use]
    pub fn metrics(&self) -> &SweepMetrics {
        self.metrics.metrics()
    }

    /// Takes the accumulated metrics for merging into a sweep-wide set,
    /// leaving the recorder's handles and scratch capacity in place.
    #[must_use]
    pub fn take_metrics(&mut self) -> SweepMetrics {
        self.metrics.take_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape of `plan` — its lattice and exception ids — as cached.
    fn shape_for(arena: &mut ExecutionArena, plan: &ActionPlan) -> Rc<ActionShape> {
        Rc::clone(&arena.cached_shape(plan).shape)
    }

    fn action(name: &str, group: &[u32]) -> ActionPlan {
        ActionPlan {
            name: name.to_owned(),
            group: group.to_vec(),
            depth: 0,
            phases: Vec::new(),
            raise: None,
            verdicts: Vec::new(),
            abort_raises_eab: Vec::new(),
        }
    }

    #[test]
    fn graph_cache_hits_on_same_key() {
        let mut arena = ExecutionArena::new();
        let s1 = shape_for(&mut arena, &action("a0", &[0, 1]));
        let s2 = shape_for(&mut arena, &action("a0", &[0, 1]));
        assert!(
            Rc::ptr_eq(&s1, &s2),
            "same key must share one lattice and one set of ids"
        );
        let s3 = shape_for(&mut arena, &action("a0", &[0, 2]));
        assert!(
            !Rc::ptr_eq(&s1.graph, &s3.graph),
            "different groups, different graphs"
        );
        // Same members under another name: another shape.
        let s4 = shape_for(&mut arena, &action("a1", &[0, 1]));
        assert!(!Rc::ptr_eq(&s1, &s4) && &*s4.name == "a1");
    }

    #[test]
    fn a_shape_names_its_exceptions_as_the_plan_does() {
        let plan = action("a1.0", &[2, 5]);
        let shape = shape_for(&mut ExecutionArena::new(), &plan);
        for (at, &t) in plan.group.iter().enumerate() {
            assert_eq!(shape.raises[at].name(), plan.raise_exception(t));
            assert_eq!(shape.eabs[at].name(), plan.eab_exception(t));
            assert!(shape.graph.contains(&shape.raises[at]));
        }
        assert_eq!(shape.signal.name(), plan.signal_exception());
    }

    #[test]
    fn trace_buffers_recycle_up_to_the_cap() {
        let mut arena = ExecutionArena::new();
        for _ in 0..4 {
            arena.recycle_trace(Trace::default());
        }
        assert!(arena.trace_bufs.len() <= MAX_TRACE_BUFS);
    }
}
