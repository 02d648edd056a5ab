//! What a run records: one log of every protocol-significant step of
//! every participating thread, and of every message it sent.
//!
//! A [`System`](crate::System) built with
//! [`SystemBuilder::record`](crate::SystemBuilder::record) appends to its
//! [`RunLog`] at every such step — action entry/exit, raises, recovery,
//! resolution, handler execution, signalling, abortion, membership — and
//! at every send, with what the network did with the message (sent, lost
//! or corrupted, as [`Endpoint::send`](caa_simnet::Endpoint::send) reports
//! it). [`System::run`](crate::System::run) hands the log back in the
//! [`SystemReport`](crate::SystemReport). The simulation-testing harness
//! (`caa-harness`) builds its structured traces and invariant oracles from
//! it; it is equally useful for ad-hoc diagnostics. A system built without
//! a log builds no event and reads no clock for one.
//!
//! The participants of a system are fibers of one thread, run one at a
//! time, so they append one at a time: each thread's entries are in its
//! program order, numbered by a per-thread sequence ([`Entry::seq`]), and
//! since virtual time never runs backwards the whole log is in
//! non-decreasing time. Only entries of one instant recorded by different
//! threads can be out of the canonical order `(at, thread, seq)`, which is
//! fully deterministic for a deterministic run.

use std::fmt;

use caa_core::exception::{ExceptionId, Signal};
use caa_core::ids::{ActionId, PartitionId, ThreadId};
use caa_core::message::SignalRound;
use caa_core::name::Name;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::VirtualInstant;
use caa_simnet::{Sent, TapEvent};

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

/// What one log entry records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// A runtime protocol step (entry/exit, raise, resolution, handler,
    /// signalling, abortion).
    Runtime(Event),
    /// A message accepted by the network.
    NetSent(TapEvent),
    /// A message lost by fault injection.
    NetDropped(TapEvent),
    /// A message corrupted by fault injection.
    NetCorrupted(TapEvent),
}

/// One entry of a run's log, and of the trace made from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Virtual timestamp in nanoseconds.
    pub at_ns: u64,
    /// The thread (partition) the entry originates from.
    pub thread: u32,
    /// The canonical label of the entry's action instance: 0 as logged,
    /// assigned when a trace is made from the log (the `A<n>` of the
    /// harness's rendering).
    pub label: u32,
    /// Per-thread sequence number (program order within the thread).
    pub seq: u64,
    /// The recorded step.
    pub kind: EntryKind,
}

impl Entry {
    /// The raw action-instance serial this entry refers to.
    #[must_use]
    pub fn action_serial(&self) -> u64 {
        match &self.kind {
            EntryKind::Runtime(e) => e.action.serial(),
            EntryKind::NetSent(e) | EntryKind::NetDropped(e) | EntryKind::NetCorrupted(e) => {
                e.correlation
            }
        }
    }
}

/// The entry's line of a rendered trace, without its newline.
impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (at_ns, thread, seq, label) = (self.at_ns, self.thread, self.seq, self.label);
        write!(f, "@{at_ns:>12} T{thread} #{seq:<4} A{label} ")?;
        let net = |f: &mut fmt::Formatter<'_>, verb: &str, e: &TapEvent| {
            write!(f, "net {verb} {} {}->{}", e.class, e.src, e.dst)
        };
        match &self.kind {
            EntryKind::Runtime(e) => write!(f, "{}", e.kind),
            EntryKind::NetSent(e) => {
                net(f, "send", e)?;
                write!(f, " seq={} deliver@{}", e.seq, e.deliver_at.as_nanos())
            }
            EntryKind::NetDropped(e) => net(f, "drop", e),
            EntryKind::NetCorrupted(e) => net(f, "corrupt", e),
        }
    }
}

/// The log of one run, in the order its entries were appended (see the
/// module docs).
///
/// A log is reusable: [`RunLog::clear`] empties it and keeps its buffers,
/// so a caller that records run after run through one log — the harness
/// keeps one per sweep worker — stops allocating for it once it has grown
/// to the longest run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunLog {
    entries: Vec<Entry>,
    /// `next_seq[t]`: how many entries thread `t` has appended.
    next_seq: Vec<u64>,
}

impl RunLog {
    /// Appends `kind` as the next entry of the thread it originates from
    /// (a runtime event's thread, a message's sender), at the instant it
    /// happened.
    pub fn push(&mut self, kind: EntryKind) {
        let (at, thread) = match &kind {
            EntryKind::Runtime(e) => (e.at, e.thread.as_u32()),
            EntryKind::NetSent(e) | EntryKind::NetDropped(e) | EntryKind::NetCorrupted(e) => {
                (e.at, e.src.as_u32())
            }
        };
        let t = thread as usize;
        if self.next_seq.len() <= t {
            self.next_seq.resize(t + 1, 0);
        }
        let seq = self.next_seq[t];
        self.next_seq[t] += 1;
        self.entries.push(Entry {
            at_ns: at.as_nanos(),
            thread,
            label: 0,
            seq,
            kind,
        });
    }

    /// Appends what the network did with one message that `src` sent to
    /// `dst` for `action`: a lost message as [`EntryKind::NetDropped`];
    /// any other as [`EntryKind::NetSent`], followed by
    /// [`EntryKind::NetCorrupted`] when fault injection corrupted it.
    pub fn push_send(&mut self, src: PartitionId, dst: PartitionId, action: ActionId, sent: Sent) {
        let event = TapEvent {
            src,
            dst,
            class: sent.class,
            correlation: action.serial(),
            at: sent.at,
            deliver_at: sent.deliver_at,
            seq: sent.seq,
        };
        if sent.lost {
            self.push(EntryKind::NetDropped(event));
        } else if sent.corrupted {
            self.push(EntryKind::NetSent(event.clone()));
            self.push(EntryKind::NetCorrupted(event));
        } else {
            self.push(EntryKind::NetSent(event));
        }
    }

    /// The entries, in the order they were appended.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The entry buffer itself, for whoever turns a finished log into a
    /// trace in place: sorting, labelling, trading the buffer for another.
    /// Follow it with [`RunLog::clear`].
    pub fn entries_mut(&mut self) -> &mut Vec<Entry> {
        &mut self.entries
    }

    /// Empties the log, keeping its buffers: the next run's threads number
    /// their entries from 0 again.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.next_seq.clear();
    }
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
}
