//! The Romanovsky, Xu & Randell (1996) resolution algorithm, the paper's
//! own earlier scheme, modelled over the CA-action substrate.
//!
//! §3.3.3: "Our previous algorithm in [Romanovsky et al 1996] could use
//! `nmax × 3N × (N − 1)` messages" — three full exchanges per nesting
//! level, because *every* thread resolves and the group must confirm
//! agreement explicitly (no designated resolver):
//!
//! 1. **Announce**: each thread broadcasts its exception or suspension
//!    (`N(N−1)` messages);
//! 2. **Propose**: once a thread holds all announcements it resolves
//!    locally and broadcasts its proposed resolving exception (`N(N−1)`);
//! 3. **Confirm**: once a thread has seen identical proposals from
//!    everyone it broadcasts a confirmation and decides after collecting
//!    all confirmations (`N(N−1)`).
//!
//! The resolution procedure runs once per thread (N invocations per
//! recovery) — more than the single invocation of the 1998 algorithm but
//! far fewer than CR-1986.

use std::collections::{BTreeMap, BTreeSet};

use caa_core::exception::ExceptionId;
use caa_core::ids::ThreadId;
use caa_core::message::Message;
use caa_core::state::ParticipantState;
use caa_runtime::protocol::{
    ProtoActions, ProtoCtx, ProtoEvent, ResolutionProtocol, ResolverState,
};

const PROPOSE: &str = "propose";
const CONFIRM: &str = "confirm";

/// Factory for the Romanovsky-1996 baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rom96Resolution;

impl ResolutionProtocol for Rom96Resolution {
    fn name(&self) -> &'static str {
        "rom96"
    }

    fn new_state(&self) -> Box<dyn ResolverState> {
        Box::new(Rom96State::default())
    }
}

#[derive(Debug, Default)]
struct Rom96State {
    state: ParticipantState,
    announced: BTreeMap<ThreadId, Option<ExceptionId>>,
    proposals: BTreeMap<ThreadId, ExceptionId>,
    confirms: BTreeSet<ThreadId>,
    my_proposal: Option<ExceptionId>,
    confirmed: bool,
    resolved: Option<ExceptionId>,
}

impl Rom96State {
    fn step(&mut self, ctx: &ProtoCtx<'_>, actions: &mut ProtoActions) {
        // Phase 2: all announcements in → propose once.
        if self.my_proposal.is_none() && self.announced.len() == ctx.group.len() {
            let raised: Vec<ExceptionId> = self.announced.values().flatten().cloned().collect();
            let proposal = ctx.graph.resolve(&raised);
            actions.resolve_invocations += 1;
            self.my_proposal = Some(proposal);
            self.proposals.insert(ctx.me, proposal);
            for peer in ctx.peers() {
                actions.outbound.push((
                    peer,
                    Message::Resolve {
                        action: ctx.action,
                        from: ctx.me,
                        stage: PROPOSE,
                        exception: proposal,
                    },
                ));
            }
        }
        // Phase 3: all proposals in (and identical, by determinism) →
        // confirm once.
        if let Some(proposal) = self
            .my_proposal
            .filter(|_| !self.confirmed && self.proposals.len() == ctx.group.len())
        {
            self.confirmed = true;
            self.confirms.insert(ctx.me);
            for peer in ctx.peers() {
                actions.outbound.push((
                    peer,
                    Message::Resolve {
                        action: ctx.action,
                        from: ctx.me,
                        stage: CONFIRM,
                        exception: proposal,
                    },
                ));
            }
        }
        // Decision: all confirmations in.
        if self.resolved.is_none() && self.confirmed && self.confirms.len() == ctx.group.len() {
            self.resolved = self.my_proposal;
            actions.resolved = self.resolved;
        }
    }
}

impl ResolverState for Rom96State {
    fn on_event(&mut self, ctx: &ProtoCtx<'_>, event: ProtoEvent<'_>) -> ProtoActions {
        let mut actions = ProtoActions::default();
        match event {
            ProtoEvent::LocalRaise(e) => {
                self.state = ParticipantState::Exceptional;
                self.announced.insert(ctx.me, Some(*e.id()));
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
                    self.announced.insert(ctx.me, None);
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
                    self.announced.insert(*from, Some(*exception.id()));
                }
                Message::Suspended { from, .. } => {
                    self.announced.entry(*from).or_insert(None);
                }
                Message::Resolve {
                    from,
                    stage,
                    exception,
                    ..
                } => match *stage {
                    PROPOSE => {
                        self.proposals.insert(*from, *exception);
                    }
                    CONFIRM => {
                        self.confirms.insert(*from);
                    }
                    _ => {}
                },
                _ => {}
            },
        }
        self.step(ctx, &mut actions);
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

    /// Drives two Rom96 states against each other synchronously.
    #[test]
    fn two_threads_run_three_phases() {
        let graph = ExceptionGraphBuilder::new()
            .resolves("both", ["a", "b"])
            .build()
            .unwrap();
        let group = [ThreadId::new(0), ThreadId::new(1)];
        let action = ActionId::top_level(1);
        let mk_ctx = |me: u32| ProtoCtx {
            me: ThreadId::new(me),
            action,
            group: &group,
            graph: &graph,
        };
        let mut s0 = Rom96State::default();
        let mut s1 = Rom96State::default();
        let ea = Exception::new("a").with_origin(ThreadId::new(0));
        let eb = Exception::new("b").with_origin(ThreadId::new(1));

        let mut queue: Vec<(u32, Message)> = Vec::new();
        let push_all = |q: &mut Vec<(u32, Message)>, a: ProtoActions| {
            for (to, m) in a.outbound {
                q.push((to.as_u32(), m));
            }
            a.resolved
        };
        let r0 = push_all(
            &mut queue,
            s0.on_event(&mk_ctx(0), ProtoEvent::LocalRaise(&ea)),
        );
        let r1 = push_all(
            &mut queue,
            s1.on_event(&mk_ctx(1), ProtoEvent::LocalRaise(&eb)),
        );
        assert!(r0.is_none() && r1.is_none());
        let (mut d0, mut d1) = (None, None);
        let mut messages = 0;
        while let Some((to, m)) = queue.pop() {
            messages += 1;
            let r = if to == 0 {
                push_all(&mut queue, s0.on_event(&mk_ctx(0), ProtoEvent::Control(&m)))
            } else {
                push_all(&mut queue, s1.on_event(&mk_ctx(1), ProtoEvent::Control(&m)))
            };
            if to == 0 {
                d0 = d0.or(r);
            } else {
                d1 = d1.or(r);
            }
        }
        assert_eq!(d0, Some(ExceptionId::new("both")));
        assert_eq!(d1, Some(ExceptionId::new("both")));
        // 3 phases × N(N−1) = 3 × 2 = 6 messages.
        assert_eq!(messages, 6);
    }

    #[test]
    fn each_thread_resolves_exactly_once() {
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
        let mut s0 = Rom96State::default();
        let ea = Exception::new("a").with_origin(ThreadId::new(0));
        let eb = Exception::new("b").with_origin(ThreadId::new(1));
        let mut inv = 0;
        inv += s0
            .on_event(&ctx0, ProtoEvent::LocalRaise(&ea))
            .resolve_invocations;
        inv += s0
            .on_event(
                &ctx0,
                ProtoEvent::Control(&Message::Exception {
                    action,
                    from: ThreadId::new(1),
                    exception: eb,
                }),
            )
            .resolve_invocations;
        inv += s0
            .on_event(
                &ctx0,
                ProtoEvent::Control(&Message::Resolve {
                    action,
                    from: ThreadId::new(1),
                    stage: PROPOSE,
                    exception: ExceptionId::new("both"),
                }),
            )
            .resolve_invocations;
        inv += s0
            .on_event(
                &ctx0,
                ProtoEvent::Control(&Message::Resolve {
                    action,
                    from: ThreadId::new(1),
                    stage: CONFIRM,
                    exception: ExceptionId::new("both"),
                }),
            )
            .resolve_invocations;
        assert_eq!(inv, 1, "Rom96 resolves once per thread");
        assert_eq!(s0.resolved, Some(ExceptionId::new("both")));
    }
}
