//! Observation hooks into the CA-action runtime.
//!
//! A [`System`](crate::System) can carry an [`Observer`] (see
//! [`SystemBuilder::observer`](crate::SystemBuilder::observer)) that is
//! invoked synchronously at every protocol-significant step of every
//! participating thread: action entry/exit, raises, recovery, resolution,
//! handler execution, signalling and abortion. The simulation-testing
//! harness (`caa-harness`) builds its structured traces and invariant
//! oracles on these hooks; they are equally useful for ad-hoc diagnostics.
//!
//! Observers run on the participating threads themselves, inside the
//! virtual-time simulation: they must be cheap, must not block on other
//! participants, and must not call back into the observed
//! [`Ctx`](crate::Ctx).
//!
//! Events from one thread arrive in that thread's execution order; events
//! from different threads interleave in arbitrary *wall-clock* order even
//! though their virtual timestamps are deterministic. Consumers that need a
//! canonical order should sort by `(at, thread, per-thread sequence)` as
//! the harness's trace recorder does.

use std::fmt;

use caa_core::exception::{ExceptionId, Signal};
use caa_core::ids::{ActionId, ThreadId};
use caa_core::message::SignalRound;
use caa_core::name::Name;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::VirtualInstant;

/// One observed runtime step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time at which the step happened.
    pub at: VirtualInstant,
    /// The participating thread that performed the step.
    pub thread: ThreadId,
    /// The action instance the step belongs to.
    pub action: ActionId,
    /// What happened.
    pub kind: EventKind,
}

/// The kinds of observable runtime steps.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// The thread entered an action, playing `role` at nesting `depth`
    /// (1 = top level).
    Enter {
        /// Action (definition) name.
        name: Name,
        /// Role the thread performs.
        role: Name,
        /// Nesting depth after entry; top-level actions are depth 1.
        depth: usize,
    },
    /// The action completed with `outcome` (objects committed or rolled
    /// back accordingly and the frame popped).
    Exit {
        /// The outcome the action completed with.
        outcome: ActionOutcome,
    },
    /// The action was aborted by enclosing-level recovery; `eab` is the
    /// abortion-handler exception propagated outward, if any (§3.3.1).
    Abort {
        /// Exception produced by the abortion handler.
        eab: Option<ExceptionId>,
    },
    /// The thread raised `exception` in the action (§3.1).
    Raise {
        /// The raised exception's identity.
        exception: ExceptionId,
    },
    /// The thread started coordinated recovery of the action, either
    /// because it raised (`raised`) or because peers' exceptions suspended
    /// it.
    RecoveryStart {
        /// Whether this thread's own raise started the recovery.
        raised: bool,
    },
    /// The resolution procedure (exception-graph search) ran `invocations`
    /// times on this thread while processing one protocol event.
    ResolutionInvoked {
        /// Number of graph searches performed.
        invocations: u32,
    },
    /// Resolution agreement was reached on this thread: every participant
    /// must handle `exception` (§3.3.2).
    Resolved {
        /// The resolving exception.
        exception: ExceptionId,
    },
    /// The thread began executing its handler for `exception`.
    HandlerStart {
        /// The resolving exception being handled.
        exception: ExceptionId,
    },
    /// The handler finished with `verdict` (termination model, §3.1).
    HandlerEnd {
        /// The handler's verdict.
        verdict: HandlerVerdict,
    },
    /// The signalling algorithm concluded on this thread with `signal`
    /// (§3.4).
    SignalOutcome {
        /// The coordinated signal this thread will act on.
        signal: Signal,
    },
    /// The thread acquired external object `object` for the action (opened
    /// at least one transaction layer). Grant order is deterministic — see
    /// the `caa-runtime` objects module — so these events byte-replay.
    ObjectAcquired {
        /// The object's name.
        object: Name,
        /// Virtual nanoseconds the thread waited for the grant, from
        /// enqueueing the request to acquisition. Deterministic (virtual
        /// time), but deliberately **not rendered** into the trace text:
        /// rendered traces and their fingerprints predate this field and
        /// stay byte-identical.
        waited_ns: u64,
    },
    /// The thread started the exit protocol (vote broadcast) for epoch
    /// `epoch` of the action.
    ExitStart {
        /// The frame's exit epoch (incremented per recovery).
        epoch: u32,
    },
    /// The bounded exit wait expired with votes missing: the thread
    /// suspects the listed peers crashed and initiates a membership view
    /// change, then keeps collecting votes over the shrunken view
    /// (round-agnostic suspicion — see `caa-runtime`'s `membership`
    /// module).
    ExitTimeout {
        /// The frame's exit epoch.
        epoch: u32,
    },
    /// The bounded signalling wait expired with announcements missing: the
    /// thread suspects the listed peers crashed and initiates a membership
    /// view change, then re-collects the round over the shrunken view.
    SignalTimeout {
        /// Which signalling exchange timed out.
        round: SignalRound,
        /// The silent peers whose announcements never arrived.
        suspects: Vec<ThreadId>,
    },
    /// The bounded resolution wait expired: the thread suspects the listed
    /// peers crashed and initiates a membership view change (presume-ƒ —
    /// see `caa-runtime`'s `membership` module).
    ResolutionTimeout {
        /// The silent peers this thread's resolution was blocked on.
        suspects: Vec<ThreadId>,
    },
    /// The thread's membership view of this action advanced to `epoch`,
    /// removing `removed` — either by its own failure detector, by a
    /// peer's `ViewChange` announcement, or by the membership data
    /// piggybacked on a resolver's `Commit`.
    ViewChange {
        /// The new membership epoch.
        epoch: u32,
        /// The threads this change removed from the view.
        removed: Vec<ThreadId>,
    },
    /// The thread crash-stopped inside this action: the frame was
    /// discarded without handlers, messages or an exit.
    Crash,
    /// A restarted participant asked `to` (a survivor of its last known
    /// view) for the current view and state summary (epoch-numbered
    /// rejoin, step 1).
    JoinRequested {
        /// The survivor the request was addressed to.
        to: ThreadId,
    },
    /// The thread's membership view of this action grew to `epoch`,
    /// re-admitting restarted participant `thread` — either by granting
    /// its `JoinRequest` locally or by applying a peer's `JoinGrant`
    /// broadcast. Observed by every member of the new view, including the
    /// rejoiner itself.
    Rejoin {
        /// The new membership epoch.
        epoch: u32,
        /// The re-admitted thread.
        thread: ThreadId,
    },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Enter { name, role, depth } => {
                write!(f, "enter {name} as {role} depth={depth}")
            }
            EventKind::Exit { outcome } => write!(f, "exit {outcome}"),
            EventKind::Abort { eab: Some(e) } => write!(f, "abort eab={e}"),
            EventKind::Abort { eab: None } => f.write_str("abort"),
            EventKind::Raise { exception } => write!(f, "raise {exception}"),
            EventKind::RecoveryStart { raised } => {
                write!(f, "recovery {}", if *raised { "raise" } else { "suspend" })
            }
            EventKind::ResolutionInvoked { invocations } => {
                write!(f, "resolve-invoked x{invocations}")
            }
            EventKind::Resolved { exception } => write!(f, "resolved {exception}"),
            EventKind::HandlerStart { exception } => write!(f, "handler-start {exception}"),
            EventKind::HandlerEnd { verdict } => write!(f, "handler-end {verdict:?}"),
            EventKind::SignalOutcome { signal } => write!(f, "signal {signal:?}"),
            EventKind::ObjectAcquired { object, .. } => write!(f, "object acquire {object}"),
            EventKind::ExitStart { epoch } => write!(f, "exit start e{epoch}"),
            EventKind::ExitTimeout { epoch } => write!(f, "exit timeout e{epoch}"),
            EventKind::ResolutionTimeout { suspects } => {
                f.write_str("resolution timeout suspects")?;
                for t in suspects {
                    write!(f, " {t}")?;
                }
                Ok(())
            }
            EventKind::ViewChange { epoch, removed } => {
                write!(f, "view change v{epoch} -")?;
                for t in removed {
                    write!(f, " {t}")?;
                }
                Ok(())
            }
            EventKind::SignalTimeout { round, suspects } => {
                write!(f, "signal timeout {round} suspects")?;
                for t in suspects {
                    write!(f, " {t}")?;
                }
                Ok(())
            }
            EventKind::Crash => f.write_str("crash-stop"),
            EventKind::JoinRequested { to } => write!(f, "join request {to}"),
            EventKind::Rejoin { epoch, thread } => {
                write!(f, "rejoin v{epoch} + {thread}")
            }
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.at, self.thread, self.action, self.kind
        )
    }
}

/// Receives runtime [`Event`]s from every participating thread.
///
/// Implementations must be thread-safe: one observer may serve the
/// systems of several sweep workers. (Within one system, participants
/// invoke it one at a time, from the thread that called `System::run`.)
pub trait Observer: Send + Sync {
    /// Called synchronously at each observable step.
    ///
    /// The event is handed over **by value**: the runtime builds it for
    /// this call alone and has no further use for it, and the consumer it
    /// was built for — a trace recorder — keeps it. Several
    /// [`EventKind`]s carry member lists; behind a `&Event` a recorder had
    /// to clone each one only for the runtime to drop the original right
    /// after. An observer that only looks at the event ignores the
    /// ownership and lets it drop.
    fn on_event(&self, event: Event);
}

/// The default observer: ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn on_event(&self, _event: Event) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_compactly() {
        let e = Event {
            at: VirtualInstant::EPOCH,
            thread: ThreadId::new(2),
            action: ActionId::top_level(9),
            kind: EventKind::Raise {
                exception: ExceptionId::new("vm_stop"),
            },
        };
        let s = e.to_string();
        assert!(s.contains("raise vm_stop"), "{s}");
    }

    #[test]
    fn noop_observer_is_callable() {
        let e = Event {
            at: VirtualInstant::EPOCH,
            thread: ThreadId::new(0),
            action: ActionId::top_level(1),
            kind: EventKind::RecoveryStart { raised: true },
        };
        NoopObserver.on_event(e);
    }
}
