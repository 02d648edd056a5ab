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
//! An [`Entry`] states each fact once: its instant, its thread (a
//! message's sender) and its action instance are the entry's own fields,
//! and its [`EntryKind`] holds only what the step or the message adds — an
//! [`EventKind`], or a message's [`Net`] record. An instance's
//! [`ActionId`] is a fact of the run, not of each entry: the log numbers
//! the instances as they first appear and keeps each id once, in its
//! instance table ([`RunLog::instances`]), and an entry holds the number
//! ([`Entry::label`]). A trace keeps every entry of its run alive, and a
//! post-hoc analysis keeps thousands of traces, so an entry is held to 56
//! bytes: a name or an exception id is one pointer, a message's class is
//! its one-byte [`MessageKind`], and a suspect list is a boxed slice.
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
use caa_core::message::{MessageKind, SignalRound};
use caa_core::name::Name;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::VirtualInstant;
use caa_simnet::Sent;

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
        depth: u32,
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
        suspects: Box<[ThreadId]>,
    },
    /// The bounded resolution wait expired: the thread suspects the listed
    /// peers crashed and initiates a membership view change (presume-ƒ —
    /// see `caa-runtime`'s `membership` module).
    ResolutionTimeout {
        /// The silent peers this thread's resolution was blocked on.
        suspects: Box<[ThreadId]>,
    },
    /// The thread's membership view of this action advanced to `epoch`,
    /// removing `removed` — either by its own failure detector, by a
    /// peer's `ViewChange` announcement, or by the membership data
    /// piggybacked on a resolver's `Commit`.
    ViewChange {
        /// The new membership epoch.
        epoch: u32,
        /// The threads this change removed from the view.
        removed: Box<[ThreadId]>,
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
                for t in suspects.iter() {
                    write!(f, " {t}")?;
                }
                Ok(())
            }
            EventKind::ViewChange { epoch, removed } => {
                write!(f, "view change v{epoch} -")?;
                for t in removed.iter() {
                    write!(f, " {t}")?;
                }
                Ok(())
            }
            EventKind::SignalTimeout { round, suspects } => {
                write!(f, "signal timeout {round} suspects")?;
                for t in suspects.iter() {
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

/// What the network did with one message, as its sender logged it. The
/// sender is the entry's [`Entry::thread`], the send instant its
/// [`Entry::at_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net {
    /// The destination partition.
    pub dst: PartitionId,
    /// The message's kind, which renders as the class label the network
    /// counts it under ([`MessageKind::label`]).
    pub kind: MessageKind,
    /// Scheduled virtual delivery time (equals the send instant for a lost
    /// message).
    pub deliver_at: VirtualInstant,
    /// The message's slot in its link's FIFO sequence. Lost messages
    /// consume a slot too, so `(sender, dst, seq)` identifies every
    /// accepted-or-lost message.
    pub seq: u64,
}

/// What one log entry records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// A runtime protocol step (entry/exit, raise, resolution, handler,
    /// signalling, abortion).
    Runtime(EventKind),
    /// A message accepted by the network.
    NetSent(Net),
    /// A message lost by fault injection.
    NetDropped(Net),
    /// A message corrupted by fault injection.
    NetCorrupted(Net),
}

/// One entry of a run's log, and of the trace made from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Virtual timestamp in nanoseconds.
    pub at_ns: u64,
    /// Per-thread sequence number (program order within the thread).
    pub seq: u32,
    /// The thread (partition) the entry originates from: the step's, or
    /// the message's sender.
    pub thread: u32,
    /// The action instance the entry belongs to — the step's, or the one
    /// the message was sent for — as a dense number: in a log, the
    /// instance's slot in [`RunLog::instances`]; in a trace made from the
    /// log, its canonical label (the `A<n>` of the harness's rendering).
    pub label: u32,
    /// The recorded step.
    pub kind: EntryKind,
}

/// The entry's line of a rendered trace, without its newline.
impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (at_ns, thread, seq, label) = (self.at_ns, self.thread, self.seq, self.label);
        write!(f, "@{at_ns:>12} T{thread} #{seq:<4} A{label} ")?;
        let net = |f: &mut fmt::Formatter<'_>, verb: &str, n: &Net| {
            write!(f, "net {verb} {} node{thread}->{}", n.kind, n.dst)
        };
        match &self.kind {
            EntryKind::Runtime(kind) => write!(f, "{kind}"),
            EntryKind::NetSent(n) => {
                net(f, "send", n)?;
                write!(f, " seq={} deliver@{}", n.seq, n.deliver_at.as_nanos())
            }
            EntryKind::NetDropped(n) => net(f, "drop", n),
            EntryKind::NetCorrupted(n) => net(f, "corrupt", n),
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
    /// The run's action instances, each once, in order of first entry.
    instances: Vec<ActionId>,
    /// Per thread: how many entries it has appended, and the instance of
    /// the last one ([`NO_INSTANCE`] before its first).
    threads: Vec<(u32, u32)>,
}

/// "No instance yet" in [`RunLog`]'s per-thread column.
const NO_INSTANCE: u32 = u32::MAX;

impl RunLog {
    /// Appends `kind` as the next entry of `thread`, which recorded it for
    /// `action` at instant `at`.
    pub fn push(
        &mut self,
        at: VirtualInstant,
        thread: ThreadId,
        action: ActionId,
        kind: EntryKind,
    ) {
        let thread = thread.as_u32();
        let t = thread as usize;
        if self.threads.len() <= t {
            self.threads.resize(t + 1, (0, NO_INSTANCE));
        }
        let (seq, last) = self.threads[t];
        // A thread logs run after run of entries for one instance; only
        // the first of a run searches the table, which holds the run's
        // few instances, the most recent last.
        let label = match self.instances.get(last as usize) {
            Some(known) if known.serial() == action.serial() => last,
            _ => self.instance(action),
        };
        self.threads[t] = (seq + 1, label);
        self.entries.push(Entry {
            at_ns: at.as_nanos(),
            seq,
            thread,
            label,
            kind,
        });
    }

    /// The number of `action`'s instance, entered in the table if this is
    /// its first entry.
    fn instance(&mut self, action: ActionId) -> u32 {
        let at = self
            .instances
            .iter()
            .rposition(|known| known.serial() == action.serial())
            .unwrap_or_else(|| {
                self.instances.push(action);
                self.instances.len() - 1
            });
        u32::try_from(at).expect("instance count fits u32")
    }

    /// Appends what the network did with one message of `kind` that `src`
    /// sent to `dst` for `action`: a lost message as
    /// [`EntryKind::NetDropped`]; any other as [`EntryKind::NetSent`],
    /// followed by [`EntryKind::NetCorrupted`] when fault injection
    /// corrupted it.
    pub fn push_send(
        &mut self,
        src: PartitionId,
        dst: PartitionId,
        action: ActionId,
        kind: MessageKind,
        sent: Sent,
    ) {
        let net = Net {
            dst,
            kind,
            deliver_at: sent.deliver_at,
            seq: sent.seq,
        };
        let mut push = |kind| self.push(sent.at, ThreadId::new(src.as_u32()), action, kind);
        if sent.lost {
            push(EntryKind::NetDropped(net));
        } else {
            push(EntryKind::NetSent(net));
            if sent.corrupted {
                push(EntryKind::NetCorrupted(net));
            }
        }
    }

    /// The entries, in the order they were appended.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The run's action instances, each once, in order of first entry:
    /// an entry's [`Entry::label`] indexes this.
    #[must_use]
    pub fn instances(&self) -> &[ActionId] {
        &self.instances
    }

    /// The entry buffer itself, and the instance table its labels index,
    /// for whoever turns a finished log into a trace in place: sorting,
    /// relabelling, trading the buffer for another. Follow it with
    /// [`RunLog::clear`].
    pub fn parts_mut(&mut self) -> (&mut Vec<Entry>, &[ActionId]) {
        (&mut self.entries, &self.instances)
    }

    /// Empties the log, keeping its buffers: the next run's threads number
    /// their entries, and its instances, from 0 again.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.instances.clear();
        self.threads.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_render_as_trace_lines() {
        let mut log = RunLog::default();
        let action = ActionId::top_level(9);
        log.push(
            VirtualInstant::from_nanos(1_500),
            ThreadId::new(2),
            action,
            EntryKind::Runtime(EventKind::Raise {
                exception: ExceptionId::new("vm_stop"),
            }),
        );
        let sent = |lost, corrupted| Sent {
            at: VirtualInstant::from_nanos(2_000),
            deliver_at: VirtualInstant::from_nanos(if lost { 2_000 } else { 9_000 }),
            seq: 4,
            lost,
            corrupted,
        };
        let (src, dst) = (PartitionId::new(2), PartitionId::new(0));
        let kind = MessageKind::Exception;
        log.push_send(src, dst, action, kind, sent(false, false));
        log.push_send(src, dst, action, kind, sent(true, false));
        log.push_send(src, dst, action, kind, sent(false, true));
        let lines: Vec<String> = log.entries().iter().map(Entry::to_string).collect();
        assert_eq!(
            lines,
            [
                "@        1500 T2 #0    A0 raise vm_stop",
                "@        2000 T2 #1    A0 net send Exception node2->node0 seq=4 deliver@9000",
                "@        2000 T2 #2    A0 net drop Exception node2->node0",
                "@        2000 T2 #3    A0 net send Exception node2->node0 seq=4 deliver@9000",
                "@        2000 T2 #4    A0 net corrupt Exception node2->node0",
            ]
        );
        assert_eq!(log.instances(), [action], "the instance is kept once");
    }

    /// Instances are numbered in order of first entry, whichever thread
    /// logs them, and a thread going back to an older instance finds it.
    #[test]
    fn instances_are_numbered_once_in_order_of_first_entry() {
        let mut log = RunLog::default();
        let (outer, inner) = (ActionId::top_level(70), ActionId::with_depth(3, 1));
        let at = VirtualInstant::EPOCH;
        let steps = [
            (0, outer),
            (1, outer),
            (0, inner),
            (1, inner),
            (1, outer),
            (2, inner),
        ];
        for (thread, action) in steps {
            log.push(
                at,
                ThreadId::new(thread),
                action,
                EntryKind::Runtime(EventKind::Crash),
            );
        }
        let labels: Vec<u32> = log.entries().iter().map(|e| e.label).collect();
        assert_eq!(labels, [0, 0, 1, 1, 0, 1]);
        assert_eq!(log.instances(), [outer, inner]);
        log.clear();
        log.push(
            at,
            ThreadId::new(1),
            inner,
            EntryKind::Runtime(EventKind::Crash),
        );
        assert_eq!((log.entries()[0].label, log.instances()), (0, &[inner][..]));
    }
}
