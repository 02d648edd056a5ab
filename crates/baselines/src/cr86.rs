//! The Campbell & Randell (1986) exception-resolution scheme, modelled over
//! the CA-action substrate.
//!
//! §5.3 compares the paper's algorithm against "the CR algorithm in
//! [Campbell & Randell 1986]": the authors "modelled the CR algorithm by
//! updating our algorithm and kept the rest of the CA action support
//! unchanged". This module does the same. The CR scheme has no single
//! resolver and no commit message:
//!
//! * a raiser broadcasts its exception to every peer (N−1 messages);
//! * every receiver *re-broadcasts* each exception it learns first-hand to
//!   all third parties, so that information spreads even when the original
//!   sender fails mid-broadcast — `N(N−1)(N−2)` forwarded copies when all N
//!   raise, giving the O(N³) total message complexity the paper cites;
//! * every thread re-runs the resolution procedure as the exception set
//!   grows — "the resolution procedure is called N × (N − 1) × (N − 2)
//!   times in CR algorithms and only once in our approach" — and decides
//!   locally once it holds everyone's state and all forwarded copies;
//! * with no designated resolver, the group synchronises on the recovery
//!   line by exchanging local decisions (one more `N(N−1)` round) instead
//!   of receiving a single `Commit`.
//!
//! Total: `N(N−1)² + N(N−1) = N²(N−1)` messages — O(N³), against the 1998
//! algorithm's `(N+1)(N−1)`.

use std::collections::{BTreeMap, BTreeSet};

use caa_core::exception::ExceptionId;
use caa_core::ids::ThreadId;
use caa_core::message::Message;
use caa_core::state::ParticipantState;
use caa_runtime::protocol::{
    ProtoActions, ProtoCtx, ProtoEvent, ResolutionProtocol, ResolverState,
};

/// Factory for the CR-1986 baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct CrResolution;

impl ResolutionProtocol for CrResolution {
    fn name(&self) -> &'static str {
        "cr86"
    }

    fn new_state(&self) -> Box<dyn ResolverState> {
        Box::new(CrState::default())
    }
}

#[derive(Debug, Clone)]
enum Entry {
    /// The id travels in `exceptions`; the entry records *that* this thread
    /// raised (completion needs forwarded copies for it).
    Exception(#[allow(dead_code)] ExceptionId),
    Suspended,
}

#[derive(Debug, Default)]
struct CrState {
    state: ParticipantState,
    /// Direct announcement from each thread (exception or suspension).
    direct: BTreeMap<ThreadId, Entry>,
    /// Forwarded copies seen: `(origin, forwarder)` pairs.
    forwarded: BTreeSet<(ThreadId, ThreadId)>,
    resolved: Option<ExceptionId>,
    /// Exceptions accumulated so far (by origin).
    exceptions: BTreeMap<ThreadId, ExceptionId>,
    /// This thread finished collecting and announced its local decision.
    decided: bool,
    /// Threads whose local decisions have been seen. Without a designated
    /// resolver, every thread must check that everyone decided before any
    /// handler starts (the conversation's recovery line).
    agreed: BTreeSet<ThreadId>,
}

/// Stage label of the CR agreement broadcast.
const CR_AGREE: &str = "cr-agree";

impl CrState {
    /// Every thread decides locally once it has a direct entry from every
    /// participant and, for each known exception, forwarded copies from
    /// every third party.
    fn is_complete(&self, ctx: &ProtoCtx<'_>) -> bool {
        if self.direct.len() < ctx.group.len() {
            return false;
        }
        for (&origin, entry) in &self.direct {
            if !matches!(entry, Entry::Exception(_)) {
                continue;
            }
            if origin == ctx.me {
                continue; // nobody forwards my exception back to me
            }
            for &third in ctx.group {
                if third == ctx.me || third == origin {
                    continue;
                }
                if !self.forwarded.contains(&(origin, third)) {
                    return false;
                }
            }
        }
        true
    }

    fn resolve_now(&mut self, ctx: &ProtoCtx<'_>, actions: &mut ProtoActions) {
        let raised: Vec<ExceptionId> = self.exceptions.values().cloned().collect();
        let resolved = ctx.graph.resolve(&raised);
        actions.resolve_invocations += 1;
        self.resolved = Some(resolved);
    }

    fn finish_if_complete(&mut self, ctx: &ProtoCtx<'_>, actions: &mut ProtoActions) {
        if !self.decided && self.is_complete(ctx) {
            self.decided = true;
            if self.resolved.is_none() {
                self.resolve_now(ctx, actions);
            }
            // Announce the local decision: with every thread resolving for
            // itself, the group synchronises on the recovery line by
            // exchanging decisions rather than by a single Commit.
            let decision = self.resolved.expect("resolved above");
            self.agreed.insert(ctx.me);
            for peer in ctx.peers() {
                actions.outbound.push((
                    peer,
                    Message::Resolve {
                        action: ctx.action,
                        from: ctx.me,
                        stage: CR_AGREE,
                        exception: decision,
                    },
                ));
            }
        }
        if self.decided && self.agreed.len() == ctx.group.len() {
            actions.resolved = self.resolved;
        }
    }
}

impl ResolverState for CrState {
    fn on_event(&mut self, ctx: &ProtoCtx<'_>, event: ProtoEvent<'_>) -> ProtoActions {
        let mut actions = ProtoActions::default();
        match event {
            ProtoEvent::LocalRaise(e) => {
                self.state = ParticipantState::Exceptional;
                self.direct.insert(ctx.me, Entry::Exception(*e.id()));
                self.exceptions.insert(ctx.me, *e.id());
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
                    self.direct.insert(ctx.me, Entry::Suspended);
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
                    let origin = exception.origin().unwrap_or(*from);
                    self.exceptions.insert(origin, *exception.id());
                    if *from == origin {
                        // Direct copy: record, re-broadcast to all third
                        // parties (the CR flooding step), and re-resolve.
                        let new_direct =
                            !matches!(self.direct.get(&origin), Some(Entry::Exception(_)));
                        self.direct
                            .insert(origin, Entry::Exception(*exception.id()));
                        for peer in ctx.peers() {
                            if peer != origin {
                                actions.outbound.push((
                                    peer,
                                    Message::Exception {
                                        action: ctx.action,
                                        from: ctx.me,
                                        exception: exception.clone(),
                                    },
                                ));
                            }
                        }
                        if new_direct {
                            self.resolve_now(ctx, &mut actions);
                        }
                    } else {
                        // Forwarded copy: CR re-runs resolution on each.
                        if self.forwarded.insert((origin, *from)) {
                            self.resolve_now(ctx, &mut actions);
                        }
                    }
                }
                Message::Suspended { from, .. } => {
                    self.direct.entry(*from).or_insert(Entry::Suspended);
                }
                Message::Resolve { from, stage, .. } if *stage == CR_AGREE => {
                    self.agreed.insert(*from);
                }
                _ => {}
            },
        }
        self.finish_if_complete(ctx, &mut actions);
        actions
    }

    fn participant_state(&self) -> ParticipantState {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_core::exception::Exception;
    use caa_core::ids::ActionId;
    use caa_exgraph::ExceptionGraphBuilder;

    #[test]
    fn two_threads_decide_after_agreement_round() {
        let graph = ExceptionGraphBuilder::new()
            .resolves("both", ["a", "b"])
            .build()
            .unwrap();
        let group = [ThreadId::new(0), ThreadId::new(1)];
        let action = ActionId::top_level(1);
        let ctx0 = ProtoCtx {
            me: ThreadId::new(0),
            action,
            group: &group,
            graph: &graph,
        };
        let mut s0 = CrState::default();
        let ea = Exception::new("a").with_origin(ThreadId::new(0));
        let eb = Exception::new("b").with_origin(ThreadId::new(1));
        let out = s0.on_event(&ctx0, ProtoEvent::LocalRaise(&ea));
        assert_eq!(out.outbound.len(), 1);
        assert!(out.resolved.is_none());
        let out = s0.on_event(
            &ctx0,
            ProtoEvent::Control(&Message::Exception {
                action,
                from: ThreadId::new(1),
                exception: eb,
            }),
        );
        // Local decision reached; the agreement broadcast goes out but the
        // peer's agreement is still missing.
        assert!(out.resolved.is_none());
        assert_eq!(out.outbound.len(), 1, "agreement broadcast");
        assert!(matches!(out.outbound[0].1, Message::Resolve { .. }));
        let out = s0.on_event(
            &ctx0,
            ProtoEvent::Control(&Message::Resolve {
                action,
                from: ThreadId::new(1),
                stage: CR_AGREE,
                exception: ExceptionId::new("both"),
            }),
        );
        assert_eq!(out.resolved, Some(ExceptionId::new("both")));
    }

    #[test]
    fn waits_for_forwarded_copies_with_three_threads() {
        let graph = ExceptionGraphBuilder::new()
            .resolves("all", ["a", "b", "c"])
            .build()
            .unwrap();
        let group = [ThreadId::new(0), ThreadId::new(1), ThreadId::new(2)];
        let action = ActionId::top_level(1);
        let ctx0 = ProtoCtx {
            me: ThreadId::new(0),
            action,
            group: &group,
            graph: &graph,
        };
        let mut s0 = CrState::default();
        let ea = Exception::new("a").with_origin(ThreadId::new(0));
        let eb = Exception::new("b").with_origin(ThreadId::new(1));
        s0.on_event(&ctx0, ProtoEvent::LocalRaise(&ea));
        // Direct exception from T1: T0 forwards it to T2.
        let out = s0.on_event(
            &ctx0,
            ProtoEvent::Control(&Message::Exception {
                action,
                from: ThreadId::new(1),
                exception: eb.clone(),
            }),
        );
        assert_eq!(out.outbound.len(), 1, "forward T1's exception to T2");
        assert!(out.resolved.is_none());
        // T2 suspends (direct).
        let out = s0.on_event(
            &ctx0,
            ProtoEvent::Control(&Message::Suspended {
                action,
                from: ThreadId::new(2),
            }),
        );
        assert!(
            out.resolved.is_none(),
            "must still wait for T2's forwarded copy of T1's exception"
        );
        // T2 forwards T1's exception: T0's collection completes and its
        // decision is announced to both peers.
        let out = s0.on_event(
            &ctx0,
            ProtoEvent::Control(&Message::Exception {
                action,
                from: ThreadId::new(2),
                exception: eb,
            }),
        );
        assert!(out.resolved.is_none(), "agreement round still pending");
        assert_eq!(
            out.outbound
                .iter()
                .filter(|(_, m)| matches!(m, Message::Resolve { .. }))
                .count(),
            2
        );
        // Both peers agree.
        for from in [1u32, 2] {
            let out = s0.on_event(
                &ctx0,
                ProtoEvent::Control(&Message::Resolve {
                    action,
                    from: ThreadId::new(from),
                    stage: CR_AGREE,
                    exception: ExceptionId::new("a∩b"),
                }),
            );
            if from == 2 {
                assert!(out.resolved.is_some(), "complete after all agreements");
            }
        }
    }

    #[test]
    fn reresolves_on_each_forwarded_copy() {
        // Count invocations for the all-raise N=3 case at one thread:
        // 1 (own raise is not an invocation) — invocations happen on the
        // two direct receipts (set growth) and the two forwarded copies.
        let graph = ExceptionGraphBuilder::new()
            .resolves("all", ["a", "b", "c"])
            .build()
            .unwrap();
        let group = [ThreadId::new(0), ThreadId::new(1), ThreadId::new(2)];
        let action = ActionId::top_level(1);
        let ctx0 = ProtoCtx {
            me: ThreadId::new(0),
            action,
            group: &group,
            graph: &graph,
        };
        let mut s0 = CrState::default();
        let mut invocations = 0;
        let ea = Exception::new("a").with_origin(ThreadId::new(0));
        invocations += s0
            .on_event(&ctx0, ProtoEvent::LocalRaise(&ea))
            .resolve_invocations;
        for (origin, forwarder) in [(1u32, 1u32), (2, 2), (1, 2), (2, 1)] {
            let e = Exception::new(if origin == 1 { "b" } else { "c" })
                .with_origin(ThreadId::new(origin));
            invocations += s0
                .on_event(
                    &ctx0,
                    ProtoEvent::Control(&Message::Exception {
                        action,
                        from: ThreadId::new(forwarder),
                        exception: e,
                    }),
                )
                .resolve_invocations;
        }
        // 2 direct growth re-resolutions + 2 forwarded re-resolutions.
        assert_eq!(invocations, 4);
        assert_eq!(s0.resolved, Some(ExceptionId::new("all")));
    }
}
