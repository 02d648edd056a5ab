//! Pluggable resolution protocols.
//!
//! The run-time drives concurrent exception handling through a
//! [`ResolutionProtocol`]: the paper's algorithm ([`XrrResolution`], §3.3.2)
//! is the default, and the baseline algorithms it is compared against
//! (Campbell & Randell 1986, Romanovsky et al. 1996) implement the same
//! trait in the `caa-baselines` crate — mirroring how the paper "modelled
//! the CR algorithm by updating our algorithm and kept the rest of the CA
//! action support unchanged" (§5.3).

use std::fmt;

use caa_core::exception::{Exception, ExceptionId};
use caa_core::ids::{ActionId, ThreadId};
use caa_core::inline::InlineVec;
use caa_core::message::{no_removals, Message};
use caa_core::state::ParticipantState;
use caa_exgraph::ExceptionGraph;

use crate::membership::GROUP_INLINE;

/// Static context a resolver state receives with every event.
#[derive(Debug, Clone, Copy)]
pub struct ProtoCtx<'a> {
    /// This participant's thread id.
    pub me: ThreadId,
    /// The action instance being recovered.
    pub action: ActionId,
    /// The threads participating in this recovery, sorted ascending.
    ///
    /// This is the *current membership view*, not necessarily the action's
    /// full group: when the crash-aware extension removes a
    /// presumed-crashed participant (see [`crate::membership`]), subsequent
    /// events see the shrunken view here — quorum and resolver election
    /// range over live members only, while entries recorded for removed
    /// members (their real raises, or synthesized crash exceptions) still
    /// feed the resolution function.
    pub group: &'a [ThreadId],
    /// The action's exception graph.
    pub graph: &'a ExceptionGraph,
}

impl ProtoCtx<'_> {
    /// The other members of the group (everyone but `me`).
    pub fn peers(&self) -> impl Iterator<Item = ThreadId> + '_ {
        let me = self.me;
        self.group.iter().copied().filter(move |&t| t != me)
    }
}

/// An event fed to a [`ResolverState`].
#[derive(Debug)]
pub enum ProtoEvent<'a> {
    /// This thread raised `e` in the action (including an abortion-handler
    /// exception after a nested abort).
    LocalRaise(&'a Exception),
    /// This thread halts normal computation because of exceptions raised by
    /// peers (transition N → S).
    LocalSuspend,
    /// A control message of the recovery protocol arrived.
    Control(&'a Message),
}

/// What a [`ResolverState`] wants done after an event.
#[derive(Debug, Default)]
pub struct ProtoActions {
    /// Messages to send, in order.
    pub outbound: Vec<(ThreadId, Message)>,
    /// How many times the resolution procedure (graph search) was invoked
    /// while processing this event. The driver charges `Treso` virtual time
    /// per invocation and the statistics feed Figure 13(b).
    pub resolve_invocations: u32,
    /// When set, agreement is reached for this thread: every participant
    /// must handle this resolving exception.
    pub resolved: Option<ExceptionId>,
}

/// Per-(thread, action-instance) protocol state.
pub trait ResolverState {
    /// Processes one event; returns messages to send and, eventually, the
    /// resolving exception.
    fn on_event(&mut self, ctx: &ProtoCtx<'_>, event: ProtoEvent<'_>) -> ProtoActions;

    /// Current N/X/S state of this participant, for diagnostics.
    fn participant_state(&self) -> ParticipantState;

    /// The threads whose next protocol message this participant's progress
    /// is currently blocked on: group members with no recorded entry, or —
    /// once every entry is in — the elected resolver whose `Commit` has not
    /// arrived. The membership extension's failure detector turns exactly
    /// this set into crash suspects when the bounded resolution wait
    /// expires.
    ///
    /// The default (for protocols without membership support) reports
    /// nothing, which makes a configured
    /// [`resolution timeout`](crate::ActionDefBuilder::resolution_timeout)
    /// a fatal protocol error on expiry rather than a silent misdiagnosis.
    ///
    /// The set comes back inline (see [`caa_core::inline`]): suspects are
    /// members of one action's group.
    fn waiting_on(&self, ctx: &ProtoCtx<'_>) -> InlineVec<ThreadId, 8> {
        let _ = ctx;
        InlineVec::new()
    }

    /// Applies a membership view change: `ctx.group` is already the
    /// shrunken view, `removed` lists the threads this change removed, and
    /// `synthesized` carries the crash exception synthesized on behalf of
    /// each removed thread that never announced anything (presume-ƒ). The
    /// resolver records the synthesized entries, re-elects over the new
    /// view and — if this participant now holds the quorum and the
    /// election — resolves and commits.
    ///
    /// The default is a no-op: baseline protocols without membership
    /// support ignore view changes (and must not be paired with a
    /// resolution timeout).
    fn on_view_change(
        &mut self,
        ctx: &ProtoCtx<'_>,
        removed: &[ThreadId],
        synthesized: &[Exception],
    ) -> ProtoActions {
        let _ = (ctx, removed, synthesized);
        ProtoActions::default()
    }

    /// Returns the state to what
    /// [`new_state`](ResolutionProtocol::new_state) made it — nothing
    /// recorded, nothing resolved — keeping its allocations, and says
    /// whether it did. A state that answers `true` serves the next action
    /// instance its participant recovers in; one that answers `false` (the
    /// default) is dropped and a new one is made.
    fn reset(&mut self) -> bool {
        false
    }

    /// Takes back the (emptied) `outbound` list of a [`ProtoActions`] this
    /// state returned, once the driver has sent what was in it: a state
    /// that keeps it fills it again for its next broadcast instead of
    /// allocating one. The default drops it.
    fn recycle(&mut self, outbound: Vec<(ThreadId, Message)>) {
        drop(outbound);
    }
}

/// Factory for [`ResolverState`]s — one strategy per system.
pub trait ResolutionProtocol: fmt::Debug {
    /// Short name used in reports (e.g. `"xrr98"`, `"cr86"`).
    fn name(&self) -> &'static str;

    /// Creates the state driving one action instance's recovery at one
    /// participant.
    fn new_state(&self) -> Box<dyn ResolverState>;
}

/// The paper's resolution algorithm (§3.3.2).
///
/// * A thread raising an exception broadcasts `Exception(A, Ti, E)`.
/// * A thread that did not raise but learns of exceptions broadcasts
///   `Suspended(A, Ti, S)` once.
/// * When a thread holds an entry (exception or suspension) from **every**
///   participant and it has *the biggest identifying number among threads in
///   the exceptional state*, it alone resolves the accumulated exceptions
///   through the exception graph and broadcasts `Commit(A, E)`.
///
/// Message complexity: `(N + 1) × (N − 1)` without nesting, independent of
/// how many exceptions were raised concurrently (§3.3.3); the resolution
/// procedure runs exactly once per recovery.
#[derive(Debug, Default, Clone, Copy)]
pub struct XrrResolution;

impl ResolutionProtocol for XrrResolution {
    fn name(&self) -> &'static str {
        "xrr98"
    }

    fn new_state(&self) -> Box<dyn ResolverState> {
        Box::new(XrrState::default())
    }
}

/// One participant's view of the §3.3.2 algorithm: the paper's `LE` list
/// plus its own N/X/S state.
#[derive(Debug, Default)]
struct XrrState {
    state: ParticipantState,
    entries: EntryList,
    resolved: Option<ExceptionId>,
    /// Scratch for the raised set handed to the resolution procedure;
    /// empty between resolutions, its capacity kept across [`reset`]s.
    ///
    /// [`reset`]: ResolverState::reset
    raised: Vec<ExceptionId>,
    /// The outbound list the driver handed back last
    /// ([`ResolverState::recycle`]), for the next event's actions.
    outbound: Vec<(ThreadId, Message)>,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
enum Entry {
    Exception(ExceptionId),
    #[default]
    Suspended,
}

/// The `LE` list: one entry per participant — either the exception it
/// raised or its suspension — sorted by thread, so the raised set reaches
/// the resolution procedure in a deterministic order. Inline in the state
/// up to [`GROUP_INLINE`] participants, like the frame's other tables.
#[derive(Debug, Default)]
struct EntryList(InlineVec<(ThreadId, Entry), GROUP_INLINE>);

impl EntryList {
    fn contains(&self, thread: ThreadId) -> bool {
        self.0.binary_search_by_key(&thread, |(t, _)| *t).is_ok()
    }

    /// Records `thread`'s entry. A recorded one is replaced only when
    /// `overwrite` — a suspension or a synthesized crash never demotes a
    /// raise that was heard.
    fn record(&mut self, thread: ThreadId, entry: Entry, overwrite: bool) {
        match self.0.binary_search_by_key(&thread, |(t, _)| *t) {
            Ok(at) if overwrite => self.0[at].1 = entry,
            Ok(_) => {}
            Err(at) => self.0.insert(at, (thread, entry)),
        }
    }

    /// The entries, ascending by thread.
    fn iter(&self) -> impl Iterator<Item = &(ThreadId, Entry)> {
        self.0.iter()
    }
}

impl XrrState {
    /// The thread elected to perform resolution over the current view:
    /// the biggest identifying number among *live* threads in the
    /// exceptional state (§3.3.2). When a view change left no live
    /// exceptional thread (the only raisers crashed after broadcasting,
    /// so every survivor is merely suspended), the biggest live thread
    /// resolves instead — the crash entries guarantee the raised set is
    /// non-empty, and the rule is a pure function of the shared view, so
    /// every survivor elects the same thread. Crash-free recoveries never
    /// reach the fallback: the group always contains a live raiser.
    fn elected(&self, ctx: &ProtoCtx<'_>) -> Option<ThreadId> {
        let max_exceptional = self
            .entries
            .iter()
            .filter(|(t, e)| ctx.group.contains(t) && matches!(e, Entry::Exception(_)))
            .map(|&(t, _)| t)
            .max();
        max_exceptional.or_else(|| ctx.group.last().copied())
    }

    /// "if Ti has all exceptions, or state S, of other threads within A and
    /// Ti has the biggest identifying number among threads with the state X
    /// then resolve exceptions in LEi; Commit(A, E) ⇒ all Tj in GA".
    ///
    /// Quorum and election range over `ctx.group` — the current membership
    /// view — while the raised set also includes entries recorded for
    /// removed members (their pre-crash raises and synthesized crash
    /// exceptions): a participant crash is just another exception to be
    /// resolved concurrently.
    fn try_resolve(&mut self, ctx: &ProtoCtx<'_>, actions: &mut ProtoActions) {
        if self.resolved.is_some() || actions.resolved.is_some() {
            return;
        }
        if !ctx.group.iter().all(|&t| self.entries.contains(t)) {
            return;
        }
        if self.elected(ctx) != Some(ctx.me) {
            return;
        }
        let raised = self.entries.iter().filter_map(|(_, e)| match e {
            Entry::Exception(id) => Some(*id),
            Entry::Suspended => None,
        });
        self.raised.extend(raised);
        if self.raised.is_empty() {
            return;
        }
        let resolved = ctx.graph.resolve(&self.raised);
        self.raised.clear();
        actions.resolve_invocations += 1;
        for peer in ctx.peers() {
            // The recovery driver fills `view_epoch`/`view_removed` in
            // from the frame's membership before the message leaves —
            // resolver states only know the live group, not its history.
            actions.outbound.push((
                peer,
                Message::Commit {
                    action: ctx.action,
                    from: ctx.me,
                    resolved,
                    view_epoch: 0,
                    view_removed: no_removals(),
                },
            ));
        }
        self.resolved = Some(resolved);
        actions.resolved = Some(resolved);
    }
}

impl XrrState {
    /// Nothing to do yet, over the recycled outbound list.
    fn actions(&mut self) -> ProtoActions {
        ProtoActions {
            outbound: std::mem::take(&mut self.outbound),
            ..ProtoActions::default()
        }
    }
}

impl ResolverState for XrrState {
    fn on_event(&mut self, ctx: &ProtoCtx<'_>, event: ProtoEvent<'_>) -> ProtoActions {
        let mut actions = self.actions();
        match event {
            ProtoEvent::LocalRaise(e) => {
                self.state = ParticipantState::Exceptional;
                self.entries.record(ctx.me, Entry::Exception(*e.id()), true);
                for peer in ctx.peers() {
                    actions.outbound.push((
                        peer,
                        Message::Exception {
                            action: ctx.action,
                            from: ctx.me,
                            exception: e.clone(),
                        },
                    ));
                }
            }
            ProtoEvent::LocalSuspend => {
                if self.state == ParticipantState::Normal {
                    self.state = ParticipantState::Suspended;
                    self.entries.record(ctx.me, Entry::Suspended, true);
                    for peer in ctx.peers() {
                        actions.outbound.push((
                            peer,
                            Message::Suspended {
                                action: ctx.action,
                                from: ctx.me,
                            },
                        ));
                    }
                }
            }
            ProtoEvent::Control(msg) => match msg {
                Message::Exception {
                    from, exception, ..
                } => {
                    self.entries
                        .record(*from, Entry::Exception(*exception.id()), true);
                }
                Message::Suspended { from, .. } => {
                    // Never demote a raised exception to a suspension.
                    self.entries.record(*from, Entry::Suspended, false);
                }
                Message::Commit { resolved, .. } => {
                    self.resolved = Some(*resolved);
                    actions.resolved = Some(*resolved);
                }
                _ => {}
            },
        }
        self.try_resolve(ctx, &mut actions);
        actions
    }

    fn participant_state(&self) -> ParticipantState {
        self.state
    }

    fn waiting_on(&self, ctx: &ProtoCtx<'_>) -> InlineVec<ThreadId, 8> {
        let mut blocked_on = InlineVec::new();
        if self.resolved.is_some() {
            return blocked_on;
        }
        blocked_on.extend(
            ctx.group
                .iter()
                .copied()
                .filter(|&t| !self.entries.contains(t)),
        );
        if blocked_on.is_empty() {
            // Full quorum: the stall can only be the elected resolver's
            // missing Commit.
            blocked_on.extend(self.elected(ctx).filter(|&t| t != ctx.me));
        }
        blocked_on
    }

    fn on_view_change(
        &mut self,
        ctx: &ProtoCtx<'_>,
        removed: &[ThreadId],
        synthesized: &[Exception],
    ) -> ProtoActions {
        let mut actions = self.actions();
        let _ = removed;
        for e in synthesized {
            // A silent peer becomes its synthesized crash exception; a
            // peer that raised before crashing keeps its real exception
            // (never demote a recorded raise).
            let origin = e.origin().expect("synthesized crashes carry their origin");
            self.entries
                .record(origin, Entry::Exception(*e.id()), false);
        }
        self.try_resolve(ctx, &mut actions);
        actions
    }

    fn reset(&mut self) -> bool {
        self.state = ParticipantState::default();
        self.entries.0.clear();
        self.resolved = None;
        true
    }

    fn recycle(&mut self, mut outbound: Vec<(ThreadId, Message)>) {
        outbound.clear();
        self.outbound = outbound;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_exgraph::ExceptionGraphBuilder;

    fn graph() -> ExceptionGraph {
        ExceptionGraphBuilder::new()
            .resolves("e1∩e2", ["e1", "e2"])
            .build()
            .unwrap()
    }

    fn tid(n: u32) -> ThreadId {
        ThreadId::new(n)
    }

    fn ctx<'a>(me: u32, group: &'a [ThreadId], graph: &'a ExceptionGraph) -> ProtoCtx<'a> {
        ProtoCtx {
            me: tid(me),
            action: ActionId::top_level(1),
            group,
            graph,
        }
    }

    /// Drives a set of XrrStates to completion by relaying outbound
    /// messages synchronously; returns each thread's resolved exception and
    /// the total message count by kind.
    fn run_to_completion(
        n: u32,
        raises: &[(u32, &str)],
    ) -> (Vec<ExceptionId>, usize, usize, usize, u32) {
        let group: Vec<ThreadId> = (0..n).map(tid).collect();
        run_group_to_completion(&group, raises)
    }

    /// [`run_to_completion`] over any ascending `group`; `raises` names
    /// raisers by thread id.
    fn run_group_to_completion(
        group: &[ThreadId],
        raises: &[(u32, &str)],
    ) -> (Vec<ExceptionId>, usize, usize, usize, u32) {
        let g = graph();
        let index_of = |thread: ThreadId| group.binary_search(&thread).expect("a group member");
        let mut states: Vec<XrrState> = group.iter().map(|_| XrrState::default()).collect();
        let mut resolved: Vec<Option<ExceptionId>> = vec![None; group.len()];
        let mut queue: Vec<(ThreadId, Message)> = Vec::new();
        let (mut exc, mut susp, mut commit) = (0usize, 0usize, 0usize);
        let mut invocations = 0u32;

        // Raisers raise.
        for &(who, name) in raises {
            let e = Exception::new(name).with_origin(tid(who));
            let c = ctx(who, group, &g);
            let a = states[index_of(tid(who))].on_event(&c, ProtoEvent::LocalRaise(&e));
            invocations += a.resolve_invocations;
            if let Some(r) = a.resolved {
                resolved[index_of(tid(who))] = Some(r);
            }
            queue.extend(a.outbound);
        }
        // Relay until quiescent.
        while let Some((to, msg)) = queue.pop() {
            match msg.kind() {
                caa_core::MessageKind::Exception => exc += 1,
                caa_core::MessageKind::Suspended => susp += 1,
                caa_core::MessageKind::Commit => commit += 1,
                _ => {}
            }
            let idx = index_of(to);
            let c = ctx(to.as_u32(), group, &g);
            // First delivery of an exception to a normal thread suspends it
            // (the runtime driver issues LocalSuspend on the trigger).
            let is_trigger = matches!(msg, Message::Exception { .. })
                && states[idx].participant_state() == ParticipantState::Normal
                && !raises.iter().any(|&(who, _)| who == to.as_u32());
            let a = states[idx].on_event(&c, ProtoEvent::Control(&msg));
            invocations += a.resolve_invocations;
            if let Some(r) = a.resolved {
                resolved[idx] = Some(r);
            }
            queue.extend(a.outbound);
            if is_trigger {
                let a = states[idx].on_event(&c, ProtoEvent::LocalSuspend);
                invocations += a.resolve_invocations;
                if let Some(r) = a.resolved {
                    resolved[idx] = Some(r);
                }
                queue.extend(a.outbound);
            }
        }
        let all: Vec<ExceptionId> = resolved
            .into_iter()
            .map(|r| r.expect("every thread must resolve"))
            .collect();
        (all, exc, susp, commit, invocations)
    }

    #[test]
    fn single_exception_single_thread_group() {
        let g = graph();
        let group = [tid(0)];
        let mut s = XrrState::default();
        let c = ctx(0, &group, &g);
        let e = Exception::new("e1");
        let a = s.on_event(&c, ProtoEvent::LocalRaise(&e));
        assert_eq!(a.resolved, Some(ExceptionId::new("e1")));
        assert!(a.outbound.is_empty(), "no peers, no messages");
        assert_eq!(a.resolve_invocations, 1);
    }

    #[test]
    fn one_exception_three_threads_message_count() {
        // §3.3.3 case 1: one exception, no nesting: (N+1)(N-1) messages =
        // (N-1) Exception + (N-1)^2 Suspended + (N-1) Commit.
        let n = 3;
        let (resolved, exc, susp, commit, inv) = run_to_completion(n, &[(0, "e1")]);
        assert!(resolved.iter().all(|r| r == &ExceptionId::new("e1")));
        assert_eq!(exc, (n as usize) - 1);
        assert_eq!(susp, ((n as usize) - 1) * ((n as usize) - 1));
        assert_eq!(commit, (n as usize) - 1);
        assert_eq!(exc + susp + commit, ((n as usize) + 1) * ((n as usize) - 1));
        assert_eq!(inv, 1, "resolution runs exactly once");
    }

    #[test]
    fn all_raise_three_threads_message_count() {
        // §3.3.3 case 2: all N raise: N(N-1) Exceptions + (N-1) Commits.
        let n = 3usize;
        let (resolved, exc, susp, commit, inv) =
            run_to_completion(n as u32, &[(0, "e1"), (1, "e2"), (2, "e1")]);
        assert_eq!(exc, n * (n - 1));
        assert_eq!(susp, 0);
        assert_eq!(commit, n - 1);
        assert_eq!(exc + susp + commit, (n + 1) * (n - 1));
        assert_eq!(inv, 1);
        // e1 and e2 concurrently resolve to their covering exception.
        assert!(resolved.iter().all(|r| r == &ExceptionId::new("e1∩e2")));
    }

    #[test]
    fn message_counts_hold_past_the_inline_capacity_and_over_sparse_ids() {
        // Twelve participants — more than the `LE` list holds inline — and
        // a group whose ids are nowhere near its positions: §3.3.3's
        // (N+1)(N−1) and the single resolution hold for both.
        let twelve: Vec<ThreadId> = (0..12).map(tid).collect();
        let sparse = [tid(3), tid(70), tid(4000)];
        for (group, raises) in [
            (&twelve[..], &[(4, "e1"), (9, "e2")][..]),
            (&twelve[..], &[(11, "e1")][..]),
            (&sparse[..], &[(70, "e1"), (4000, "e2")][..]),
            (&sparse[..], &[(3, "e2")][..]),
        ] {
            let n = group.len();
            let (resolved, exc, susp, commit, inv) = run_group_to_completion(group, raises);
            let expected = if raises.len() == 2 {
                "e1∩e2"
            } else {
                raises[0].1
            };
            assert!(resolved.iter().all(|r| r == &ExceptionId::new(expected)));
            assert_eq!(exc, raises.len() * (n - 1));
            assert_eq!(susp, (n - raises.len()) * (n - 1));
            assert_eq!(commit, n - 1);
            assert_eq!(exc + susp + commit, (n + 1) * (n - 1));
            assert_eq!(inv, 1, "resolution runs exactly once");
        }
    }

    #[test]
    fn waiting_on_names_the_silent_members_then_the_elected_resolver() {
        let g = graph();
        let group = [tid(3), tid(70), tid(4000)];
        let mut t70 = XrrState::default();
        let c = ctx(70, &group, &g);
        t70.on_event(&c, ProtoEvent::LocalSuspend);
        assert_eq!(&t70.waiting_on(&c)[..], [tid(3), tid(4000)]);
        let raise = |from: u32| Message::Exception {
            action: c.action,
            from: tid(from),
            exception: Exception::new("e1").with_origin(tid(from)),
        };
        t70.on_event(&c, ProtoEvent::Control(&raise(3)));
        assert_eq!(&t70.waiting_on(&c)[..], [tid(4000)]);
        t70.on_event(
            &c,
            ProtoEvent::Control(&Message::Suspended {
                action: c.action,
                from: tid(4000),
            }),
        );
        // Full quorum; T3 is the only exceptional thread, so it resolves.
        assert_eq!(&t70.waiting_on(&c)[..], [tid(3)]);
    }

    #[test]
    fn the_entry_list_answers_like_the_tree_map_it_replaces() {
        use std::collections::BTreeMap;
        let mut rng = proptest::test_runner::TestRng::new(0x1e);
        let entries = [
            Entry::Suspended,
            Entry::Exception(ExceptionId::new("e1")),
            Entry::Exception(ExceptionId::new("e2")),
        ];
        for _ in 0..300 {
            // Sparse ids, up to fourteen of them (past the inline capacity).
            let ids: Vec<ThreadId> = (0..1 + rng.below(14))
                .map(|_| tid(rng.below(5_000) as u32))
                .collect();
            let mut list = EntryList::default();
            let mut tree: BTreeMap<ThreadId, Entry> = BTreeMap::new();
            for _ in 0..rng.below(50) {
                let thread = ids[rng.below(ids.len() as u64) as usize];
                let entry = entries[rng.below(3) as usize].clone();
                if rng.below(2) == 0 {
                    list.record(thread, entry.clone(), true);
                    tree.insert(thread, entry);
                } else {
                    list.record(thread, entry.clone(), false);
                    tree.entry(thread).or_insert(entry);
                }
                let probe = ids[rng.below(ids.len() as u64) as usize];
                assert_eq!(list.contains(probe), tree.contains_key(&probe));
            }
            let listed: Vec<(ThreadId, Entry)> = list.iter().cloned().collect();
            let expected: Vec<(ThreadId, Entry)> = tree.into_iter().collect();
            assert_eq!(listed, expected, "same entries, same (ascending) order");
        }
    }

    #[test]
    fn resolver_is_highest_id_exceptional_thread() {
        let g = graph();
        let group: Vec<ThreadId> = (0..3).map(tid).collect();
        // T0 raises; T2 suspends; T1 raises. Resolver must be T1? No: both
        // T0 and T1 are exceptional, T1 > T0, and T2 is only suspended, so
        // T1 resolves even though T2 has a bigger id.
        let mut t1 = XrrState::default();
        let c1 = ctx(1, &group, &g);
        let e0 = Exception::new("e1").with_origin(tid(0));
        let e1 = Exception::new("e2").with_origin(tid(1));
        t1.on_event(&c1, ProtoEvent::LocalRaise(&e1));
        t1.on_event(
            &c1,
            ProtoEvent::Control(&Message::Exception {
                action: c1.action,
                from: tid(0),
                exception: e0,
            }),
        );
        let a = t1.on_event(
            &c1,
            ProtoEvent::Control(&Message::Suspended {
                action: c1.action,
                from: tid(2),
            }),
        );
        assert_eq!(a.resolved, Some(ExceptionId::new("e1∩e2")));
        assert_eq!(
            a.outbound.len(),
            2,
            "commit goes to both other participants"
        );
        assert!(a
            .outbound
            .iter()
            .all(|(_, m)| matches!(m, Message::Commit { .. })));
    }

    #[test]
    fn non_resolver_waits_for_commit() {
        let g = graph();
        let group: Vec<ThreadId> = (0..2).map(tid).collect();
        let mut t0 = XrrState::default();
        let c0 = ctx(0, &group, &g);
        let e0 = Exception::new("e1").with_origin(tid(0));
        let e1 = Exception::new("e2").with_origin(tid(1));
        t0.on_event(&c0, ProtoEvent::LocalRaise(&e0));
        // T0 has all entries but T1 > T0 is exceptional too: T0 must wait.
        let a = t0.on_event(
            &c0,
            ProtoEvent::Control(&Message::Exception {
                action: c0.action,
                from: tid(1),
                exception: e1,
            }),
        );
        assert!(a.resolved.is_none());
        assert_eq!(a.resolve_invocations, 0);
        // The commit arrives.
        let a = t0.on_event(
            &c0,
            ProtoEvent::Control(&Message::Commit {
                action: c0.action,
                from: tid(1),
                resolved: ExceptionId::new("e1∩e2"),
                view_epoch: 0,
                view_removed: no_removals(),
            }),
        );
        assert_eq!(a.resolved, Some(ExceptionId::new("e1∩e2")));
    }

    #[test]
    fn suspended_never_overwrites_exception() {
        let g = graph();
        let group: Vec<ThreadId> = (0..2).map(tid).collect();
        let mut t1 = XrrState::default();
        let c1 = ctx(1, &group, &g);
        let e0 = Exception::new("e1").with_origin(tid(0));
        t1.on_event(&c1, ProtoEvent::LocalRaise(&Exception::new("e2")));
        t1.on_event(
            &c1,
            ProtoEvent::Control(&Message::Exception {
                action: c1.action,
                from: tid(0),
                exception: e0,
            }),
        );
        // A stray Suspended from T0 (e.g. protocol race) must not erase e1.
        let a = t1.on_event(
            &c1,
            ProtoEvent::Control(&Message::Suspended {
                action: c1.action,
                from: tid(0),
            }),
        );
        // Resolution already happened on the second event; entries intact.
        assert!(
            a.resolved.is_some() || t1.resolved.is_some(),
            "resolution must have completed with both exceptions known"
        );
        assert_eq!(t1.resolved, Some(ExceptionId::new("e1∩e2")));
    }

    #[test]
    fn duplicate_suspend_event_is_idempotent() {
        let g = graph();
        let group: Vec<ThreadId> = (0..3).map(tid).collect();
        let mut t2 = XrrState::default();
        let c2 = ctx(2, &group, &g);
        let a1 = t2.on_event(&c2, ProtoEvent::LocalSuspend);
        assert_eq!(a1.outbound.len(), 2);
        let a2 = t2.on_event(&c2, ProtoEvent::LocalSuspend);
        assert!(a2.outbound.is_empty(), "suspend broadcast happens once");
        assert_eq!(t2.participant_state(), ParticipantState::Suspended);
    }

    #[test]
    fn a_reset_state_resolves_the_next_instance_like_a_new_one() {
        let g = graph();
        let group: Vec<ThreadId> = (0..2).map(tid).collect();
        let c1 = ctx(1, &group, &g);
        let mut recycled = XrrResolution.new_state();
        // One recovery to its end: T1 raises e2, T0 raised e1.
        recycled.on_event(&c1, ProtoEvent::LocalRaise(&Exception::new("e2")));
        let a = recycled.on_event(
            &c1,
            ProtoEvent::Control(&Message::Exception {
                action: c1.action,
                from: tid(0),
                exception: Exception::new("e1").with_origin(tid(0)),
            }),
        );
        assert_eq!(a.resolved, Some(ExceptionId::new("e1∩e2")));
        assert!(recycled.reset(), "the paper's state is reusable");
        // The next one, side by side with a state made for it.
        let mut fresh = XrrResolution.new_state();
        for state in [&mut recycled, &mut fresh] {
            assert_eq!(state.participant_state(), ParticipantState::Normal);
            assert_eq!(&state.waiting_on(&c1)[..], [tid(0), tid(1)]);
            let a = state.on_event(&c1, ProtoEvent::LocalSuspend);
            assert_eq!(a.outbound.len(), 1);
            assert!(a.resolved.is_none());
        }
    }

    #[test]
    fn protocol_reports_name() {
        assert_eq!(XrrResolution.name(), "xrr98");
        let _state = XrrResolution.new_state();
    }
}
