//! Structured trace recording.
//!
//! A [`TraceRecorder`] implements both the runtime's
//! [`caa_runtime::observe::Observer`] hook and the network's
//! [`caa_simnet::NetTap`] hook, collecting every protocol-level
//! step and every message send/loss/corruption of one simulated run. Events
//! arrive in whatever order the host runs the participants, into one
//! arrival-order buffer behind one mutex (the participants of a system
//! share a thread, so the lock is never contended);
//! [`TraceRecorder::take_trace`] sorts them into the canonical order
//! `(virtual time, thread, per-thread sequence)`, which is fully
//! deterministic for a deterministic run — the same seed renders the same
//! byte-identical trace, which is exactly what the deterministic-replay
//! oracle checks.
//!
//! One recorder serves every seed of a sweep worker (it lives in the
//! worker's [`ExecutionArena`](crate::arena::ExecutionArena)): taking a
//! trace empties the recorder but keeps its buffers, and the trace itself
//! is moved into a recycled entry buffer. Once both have grown to the
//! worker's longest trace, recording and hand-off allocate nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use caa_runtime::observe::{Event, Observer};
use caa_simnet::{NetTap, TapEvent};
use parking_lot::Mutex;

use crate::inthash::IntMap;

/// What one trace entry records.
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

/// One entry of a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Virtual timestamp in nanoseconds.
    pub at_ns: u64,
    /// The thread (partition) the entry originates from.
    pub thread: u32,
    /// Per-thread sequence number (program order within the thread).
    pub seq: u64,
    /// The recorded step.
    pub kind: EntryKind,
}

impl Entry {
    /// The action-instance serial this entry refers to.
    #[must_use]
    pub fn action_serial(&self) -> u64 {
        match &self.kind {
            EntryKind::Runtime(e) => e.action.serial(),
            EntryKind::NetSent(e) | EntryKind::NetDropped(e) | EntryKind::NetCorrupted(e) => {
                e.correlation
            }
        }
    }

    /// Renders one line. `act` is the canonical (run-independent) label of
    /// the entry's action instance: raw instance serials incorporate
    /// process-global definition ids and would differ between two
    /// executions of the same seed.
    fn render(&self, out: &mut String, act: usize) {
        let _ = write!(
            out,
            "@{:>12} T{} #{:<4} A{act} ",
            self.at_ns, self.thread, self.seq
        );
        match &self.kind {
            EntryKind::Runtime(e) => {
                let _ = write!(out, "{}", e.kind);
            }
            EntryKind::NetSent(e) => {
                let _ = write!(
                    out,
                    "net send {} {}->{} seq={} deliver@{}",
                    e.class,
                    e.src,
                    e.dst,
                    e.seq,
                    e.deliver_at.as_nanos()
                );
            }
            EntryKind::NetDropped(e) => {
                let _ = write!(out, "net drop {} {}->{}", e.class, e.src, e.dst);
            }
            EntryKind::NetCorrupted(e) => {
                let _ = write!(out, "net corrupt {} {}->{}", e.class, e.src, e.dst);
            }
        }
        out.push('\n');
    }
}

/// A completed, canonically ordered trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<Entry>,
}

impl Trace {
    /// The entries in canonical order.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Consumes the trace, returning its entry buffer — the recycling hook
    /// for [`crate::arena::ExecutionArena`]: a sweep worker that is done
    /// with a trace hands the allocation back instead of dropping it.
    #[must_use]
    pub fn into_entries(self) -> Vec<Entry> {
        self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The runtime events of the trace, in canonical order.
    pub fn runtime_events(&self) -> impl Iterator<Item = &Event> {
        self.entries.iter().filter_map(|e| match &e.kind {
            EntryKind::Runtime(ev) => Some(ev),
            _ => None,
        })
    }

    /// The network send events of the trace, in canonical order.
    pub fn net_sends(&self) -> impl Iterator<Item = &TapEvent> {
        self.entries.iter().filter_map(|e| match &e.kind {
            EntryKind::NetSent(ev) => Some(ev),
            _ => None,
        })
    }

    /// Dense, run-independent labels for the trace's action instances,
    /// assigned in canonical-order of first appearance — the `A<n>` labels
    /// used by [`Trace::render`] and by oracle violation reports.
    #[must_use]
    pub fn canonical_labels(&self) -> IntMap<u64, usize> {
        let mut canonical: IntMap<u64, usize> = IntMap::default();
        for entry in &self.entries {
            let next = canonical.len();
            canonical.entry(entry.action_serial()).or_insert(next);
        }
        canonical
    }

    /// Renders the whole trace as text: one line per entry, byte-identical
    /// across replays of the same seed. Action-instance serials are
    /// replaced by dense labels assigned in canonical-order of first
    /// appearance ([`Trace::canonical_labels`]), so the rendering is
    /// independent of process-global definition-id state.
    #[must_use]
    pub fn render(&self) -> String {
        let canonical = self.canonical_labels();
        let mut out = String::with_capacity(self.entries.len() * 64);
        for entry in &self.entries {
            entry.render(&mut out, canonical[&entry.action_serial()]);
        }
        out
    }

    /// Streams the FNV-1a 64-bit fingerprint of [`Trace::render`] without
    /// materialising the rendered `String`: each entry renders into one
    /// reusable line buffer and folds into the running hash. By
    /// construction `trace.render_fingerprint() ==
    /// fnv1a64(trace.render().as_bytes())`, so fingerprints from hash-only
    /// sweeps (`trace_hashes`, the golden-trace test, pre/post refactor
    /// gates) stay comparable with fingerprints of rendered traces — at a
    /// fraction of the allocation cost for large traces.
    #[must_use]
    pub fn render_fingerprint(&self) -> u64 {
        let canonical = self.canonical_labels();
        let mut hash: u64 = FNV_OFFSET;
        let mut line = String::with_capacity(96);
        for entry in &self.entries {
            line.clear();
            entry.render(&mut line, canonical[&entry.action_serial()]);
            hash = fnv1a64_fold(hash, line.as_bytes());
        }
        hash
    }

    /// Streaming byte-exact comparison of two traces' renderings: returns
    /// the first (0-based) rendered line at which they differ, or `None`
    /// when the renderings are byte-identical. Equivalent to comparing
    /// [`Trace::render`] outputs line by line — but almost never formats
    /// anything: a structural fast path decides equality field-by-field
    /// (ignoring exactly the fields rendering ignores — raw action
    /// serials and tap correlations, which legitimately differ between
    /// two executions of one seed), and only a structurally-unequal pair
    /// falls back to rendering that single line pair to let
    /// display-equal-but-structurally-different entries through. The
    /// replay oracle's hot path thus stops materialising two full trace
    /// strings per seed.
    #[must_use]
    pub fn first_divergence(&self, other: &Trace) -> Option<usize> {
        // Canonical labels are assigned in first-appearance order, so they
        // can be built incrementally while walking the entries.
        let mut labels_a: IntMap<u64, usize> = IntMap::default();
        let mut labels_b: IntMap<u64, usize> = IntMap::default();
        let mut line_a = String::new();
        let mut line_b = String::new();
        let common = self.entries.len().min(other.entries.len());
        for i in 0..common {
            let (ea, eb) = (&self.entries[i], &other.entries[i]);
            let next = labels_a.len();
            let act_a = *labels_a.entry(ea.action_serial()).or_insert(next);
            let next = labels_b.len();
            let act_b = *labels_b.entry(eb.action_serial()).or_insert(next);
            // A differing label prints as a differing `A<n>` no matter
            // what else the line contains.
            if act_a != act_b {
                return Some(i);
            }
            if (ea.at_ns, ea.thread, ea.seq) == (eb.at_ns, eb.thread, eb.seq)
                && kinds_render_equal(&ea.kind, &eb.kind)
            {
                continue;
            }
            // Structurally unequal: confirm by rendering this line pair
            // (exact, and cold — replays of one seed are structurally
            // identical in practice).
            line_a.clear();
            line_b.clear();
            ea.render(&mut line_a, act_a);
            eb.render(&mut line_b, act_b);
            if line_a != line_b {
                return Some(i);
            }
        }
        (self.entries.len() != other.entries.len()).then_some(common)
    }

    /// Renders the timestamp-free, per-thread *protocol projection*: each
    /// thread's sequence of runtime protocol steps, with canonical action
    /// labels, no virtual times and no network events.
    ///
    /// Every supported system — harness scenarios and the production cell
    /// alike — now replays byte-identically under [`Trace::render`]
    /// (shared-object acquisition is arbitrated deterministically through
    /// the simulation). The projection survives as a triage tool: when a
    /// future regression makes full traces diverge, comparing projections
    /// tells apart timing-only drift from genuine protocol divergence.
    #[must_use]
    pub fn protocol_projection(&self) -> String {
        let mut per_thread: BTreeMap<u32, Vec<&Entry>> = BTreeMap::new();
        for entry in &self.entries {
            if matches!(entry.kind, EntryKind::Runtime(_)) {
                per_thread.entry(entry.thread).or_default().push(entry);
            }
        }
        for entries in per_thread.values_mut() {
            entries.sort_by_key(|e| e.seq);
        }
        let mut canonical: IntMap<u64, usize> = IntMap::default();
        let mut out = String::with_capacity(self.entries.len() * 32);
        for (thread, entries) in &per_thread {
            for entry in entries {
                let next = canonical.len();
                let act = *canonical.entry(entry.action_serial()).or_insert(next);
                if let EntryKind::Runtime(e) = &entry.kind {
                    let _ = writeln!(out, "T{thread} A{act} {}", e.kind);
                }
            }
        }
        out
    }
}

/// Whether two entry kinds render to identical text, decided structurally
/// (the sufficient direction: structural equality over every *rendered*
/// field implies display equality). Rendering ignores the runtime event's
/// raw `action` id and the tap event's `correlation` — both are
/// process-global serials that legitimately differ between two executions
/// of the same seed (the canonical `A<n>` labels compare them instead) —
/// so those fields are ignored here too.
fn kinds_render_equal(a: &EntryKind, b: &EntryKind) -> bool {
    let tap_eq = |x: &TapEvent, y: &TapEvent| {
        (x.class, x.src, x.dst, x.seq, x.deliver_at) == (y.class, y.src, y.dst, y.seq, y.deliver_at)
    };
    match (a, b) {
        (EntryKind::Runtime(x), EntryKind::Runtime(y)) => x.kind == y.kind,
        (EntryKind::NetSent(x), EntryKind::NetSent(y)) => tap_eq(x, y),
        (EntryKind::NetDropped(x), EntryKind::NetDropped(y))
        | (EntryKind::NetCorrupted(x), EntryKind::NetCorrupted(y)) => {
            (x.class, x.src, x.dst) == (y.class, y.src, y.dst)
        }
        _ => false,
    }
}

/// FNV-1a 64-bit over arbitrary bytes: the canonical, dependency-free
/// fingerprint for rendered traces. The golden-trace regression test and
/// the `trace_hashes` pre/post comparison tool both hash
/// [`Trace::render`] output through this exact function — fingerprints
/// from different tools stay comparable.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64-bit hash — the incremental form
/// behind [`fnv1a64`] and [`Trace::render_fingerprint`]: feeding chunks in
/// sequence yields exactly the hash of their concatenation.
#[must_use]
pub fn fnv1a64_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What a recorder holds between [`TraceRecorder::take_trace`]s.
#[derive(Default)]
struct Recording {
    /// Entries in arrival order. Under `System::run` participants run one
    /// at a time and virtual time never runs backwards, so this is already
    /// non-decreasing in `at_ns`; only same-instant entries of different
    /// threads can be out of canonical order.
    entries: Vec<Entry>,
    /// `next_seq[t]`: how many entries thread `t` has recorded — events of
    /// one thread arrive in that thread's program order.
    next_seq: Vec<u64>,
}

/// Collects runtime and network events from a running system.
///
/// Attach one recorder as both the system's observer and its network tap:
///
/// ```
/// use std::sync::Arc;
/// use caa_harness::trace::TraceRecorder;
/// use caa_runtime::System;
///
/// let recorder = Arc::new(TraceRecorder::default());
/// let sys = System::builder()
///     .observer(Arc::clone(&recorder) as _)
///     .tap(Arc::clone(&recorder) as _)
///     .build();
/// # drop(sys);
/// ```
///
/// A recorder is reusable: taking the trace leaves it empty with its
/// buffers' capacity in place, which is how an
/// [`ExecutionArena`](crate::arena::ExecutionArena) records every seed of
/// a sweep worker through one recorder.
#[derive(Default)]
pub struct TraceRecorder {
    recording: Mutex<Recording>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("entries", &self.recording.lock().entries.len())
            .finish()
    }
}

/// The canonical order. The key is unique per entry (`seq` counts within
/// `thread`), so an unstable sort yields the same order as a stable one —
/// and sorts in place, without a scratch allocation.
fn sort_canonically(entries: &mut [Entry]) {
    entries.sort_unstable_by_key(|e| (e.at_ns, e.thread, e.seq));
}

impl TraceRecorder {
    /// A fresh recorder behind an `Arc`, ready to attach.
    #[must_use]
    pub fn new() -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder::default())
    }

    fn push(&self, at_ns: u64, thread: u32, kind: EntryKind) {
        let mut guard = self.recording.lock();
        let rec = &mut *guard;
        let t = thread as usize;
        if rec.next_seq.len() <= t {
            rec.next_seq.resize(t + 1, 0);
        }
        let seq = rec.next_seq[t];
        rec.next_seq[t] += 1;
        rec.entries.push(Entry {
            at_ns,
            thread,
            seq,
            kind,
        });
    }

    /// Extracts the canonical trace recorded so far, leaving the recording
    /// in place.
    #[must_use]
    pub fn finish(&self) -> Trace {
        let mut entries = self.recording.lock().entries.clone();
        sort_canonically(&mut entries);
        Trace { entries }
    }

    /// Like [`TraceRecorder::finish`], but *takes* the recorded entries
    /// instead of cloning them and leaves the recorder empty, ready for
    /// the next run. The trace's buffer holds exactly its entries.
    #[must_use]
    pub fn take_trace(&self) -> Trace {
        self.take_trace_into(Vec::new())
    }

    /// [`TraceRecorder::take_trace`] into a recycled entry buffer: `buf` is
    /// cleared and, when its capacity suffices, the trace is handed out
    /// without allocating; otherwise it is regrown to exactly the trace's
    /// length. The recording buffer itself — grown by doubling, so up to
    /// twice the trace — never leaves the recorder: a driver that keeps
    /// thousands of traces alive keeps no slack with them.
    #[must_use]
    pub fn take_trace_into(&self, mut buf: Vec<Entry>) -> Trace {
        let mut guard = self.recording.lock();
        guard.next_seq.clear();
        sort_canonically(&mut guard.entries);
        buf.clear();
        buf.reserve_exact(guard.entries.len());
        buf.append(&mut guard.entries);
        Trace { entries: buf }
    }
}

impl Observer for TraceRecorder {
    fn on_event(&self, event: &Event) {
        self.push(
            event.at.as_nanos(),
            event.thread.as_u32(),
            EntryKind::Runtime(event.clone()),
        );
    }
}

impl NetTap for TraceRecorder {
    fn on_sent(&self, event: &TapEvent) {
        self.push(
            event.at.as_nanos(),
            event.src.as_u32(),
            EntryKind::NetSent(event.clone()),
        );
    }

    fn on_dropped(&self, event: &TapEvent) {
        self.push(
            event.at.as_nanos(),
            event.src.as_u32(),
            EntryKind::NetDropped(event.clone()),
        );
    }

    fn on_corrupted(&self, event: &TapEvent) {
        self.push(
            event.at.as_nanos(),
            event.src.as_u32(),
            EntryKind::NetCorrupted(event.clone()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_core::exception::ExceptionId;
    use caa_core::ids::{ActionId, PartitionId, ThreadId};
    use caa_core::time::VirtualInstant;
    use caa_runtime::observe::EventKind;

    fn runtime_event(at: u64, thread: u32) -> Event {
        Event {
            at: VirtualInstant::from_nanos(at),
            thread: ThreadId::new(thread),
            action: ActionId::top_level(5),
            kind: EventKind::Raise {
                exception: ExceptionId::new("x"),
            },
        }
    }

    #[test]
    fn canonical_order_sorts_by_time_thread_seq() {
        let rec = TraceRecorder::new();
        rec.on_event(&runtime_event(200, 1));
        rec.on_event(&runtime_event(100, 1));
        rec.on_event(&runtime_event(100, 0));
        let trace = rec.finish();
        let keys: Vec<(u64, u32)> = trace
            .entries()
            .iter()
            .map(|e| (e.at_ns, e.thread))
            .collect();
        assert_eq!(keys, vec![(100, 0), (100, 1), (200, 1)]);
        // Per-thread sequence numbers preserve arrival (program) order:
        // thread 1 recorded its @200 event before its @100 event.
        assert_eq!(trace.entries()[1].seq, 1);
        assert_eq!(trace.entries()[2].seq, 0);
    }

    #[test]
    fn a_taken_trace_holds_exactly_its_entries_and_empties_the_recorder() {
        // The recording buffer grows by doubling; a trace handed out with
        // that slack would keep it for as long as the trace lives (the
        // post-hoc readers keep thousands).
        let rec = TraceRecorder::new();
        for i in 0..37 {
            rec.on_event(&runtime_event(1_000 - i, (i % 3) as u32));
        }
        let trace = rec.take_trace();
        assert_eq!(trace.len(), 37);
        assert!(trace
            .entries()
            .windows(2)
            .all(|w| (w[0].at_ns, w[0].thread, w[0].seq) < (w[1].at_ns, w[1].thread, w[1].seq)));
        let entries = trace.into_entries();
        assert_eq!(entries.capacity(), entries.len());

        // Re-armed: sequence numbers start over, nothing is left behind.
        rec.on_event(&runtime_event(5, 2));
        let again = rec.take_trace();
        assert_eq!(again.len(), 1);
        assert_eq!((again.entries()[0].thread, again.entries()[0].seq), (2, 0));
        assert!(rec.take_trace().is_empty());
    }

    #[test]
    fn a_large_thread_id_is_an_ordinary_thread() {
        let rec = TraceRecorder::new();
        rec.on_event(&runtime_event(300, 100));
        rec.on_event(&runtime_event(100, 100));
        rec.on_event(&runtime_event(100, 7));
        rec.on_event(&runtime_event(100, 100));
        let keys: Vec<(u64, u32, u64)> = rec
            .take_trace()
            .entries()
            .iter()
            .map(|e| (e.at_ns, e.thread, e.seq))
            .collect();
        assert_eq!(
            keys,
            vec![(100, 7, 0), (100, 100, 1), (100, 100, 2), (300, 100, 0)]
        );
    }

    #[test]
    fn render_is_stable_and_line_oriented() {
        let rec = TraceRecorder::new();
        rec.on_event(&runtime_event(1, 0));
        rec.on_sent(&TapEvent {
            src: PartitionId::new(0),
            dst: PartitionId::new(1),
            class: "Exception",
            correlation: 9,
            at: VirtualInstant::from_nanos(2),
            deliver_at: VirtualInstant::from_nanos(7),
            seq: 0,
        });
        let trace = rec.finish();
        let text = trace.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("raise x"), "{text}");
        assert!(text.contains("net send Exception"), "{text}");
        assert_eq!(text, rec.finish().render());
    }
}
