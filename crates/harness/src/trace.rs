//! Structured traces, and the index every reader shares.
//!
//! A trace is a run's own log ([`caa_runtime::observe::RunLog`]): every
//! protocol-level step and every message send/loss/corruption of one
//! simulated run, appended by the participants in program order, each
//! thread's entries numbered by its own sequence. [`Trace::from_log`] puts
//! the entries into the canonical order `(virtual time, thread, per-thread
//! sequence)`, which is fully deterministic for a deterministic run — the
//! same seed renders the same byte-identical trace, which is exactly what
//! the deterministic-replay oracle checks. The entry types are the
//! runtime's ([`Entry`], [`EntryKind`]), re-exported here.
//!
//! One log serves every seed of a sweep worker (it lives in the worker's
//! [`ExecutionArena`](crate::arena::ExecutionArena)): making a trace
//! empties the log but keeps its buffers, and the trace takes the buffer
//! the run logged into, trading it for a recycled trace's. Once both have
//! grown to the worker's longest trace, recording and hand-off allocate
//! and copy nothing.
//!
//! # The trace index
//!
//! Everything reported about a run — oracle verdicts, metrics, path
//! coverage, span trees, critical paths, the rendering and its
//! fingerprint — is derived from the trace *per action instance*, and
//! every one of those readers used to start by rebuilding the same
//! correlation from raw instance serials. The pass that sorts the entries
//! now does it once, into a [`TraceIndex`] stored with the trace:
//!
//! * [`Entry::label`] — the entry's instance as a dense, run-independent
//!   number assigned in canonical order of first appearance: the `A<n>` of
//!   the rendering and of violation reports (raw serials incorporate
//!   process-global definition ids and differ between two executions of
//!   one seed);
//! * [`TraceIndex::instances`] — per label: raw serial, nesting depth,
//!   definition name, the first `Raise` and first `Resolved`, and the
//!   instance's member entries ([`TraceIndex::members`]), which partition
//!   the trace;
//! * [`TraceIndex::threads`] — so that anything a reader keys by
//!   `(instance, thread)` is a flat table indexed by
//!   [`TraceIndex::cell`] instead of a map.
//!
//! The readers ([`crate::oracle`], [`crate::metrics`], [`crate::spans`],
//! [`PathCoverage`](crate::sweep::PathCoverage), the renderers below) are
//! pure functions of entries and index; none of them hashes a serial.
//!
//! The index is built **eagerly**, when the trace is made
//! ([`Trace::from_log`] is the only place), not lazily on first use: a
//! trace is read by three to five readers and, in post-hoc analysis, over
//! and over — a cache filled by whichever reader came first would charge
//! that reader and hide the cost from every later pass. Built at take-time
//! it is paid once per run, next to the sort.
//!
//! It is also **small**: a trace kept alive keeps its index, and a
//! post-hoc analysis keeps thousands. The label lives in what was padding
//! after [`Entry::thread`]; the rest is four bytes per entry (the member
//! lists) plus 48 per instance, allocated to exactly their length — about
//! 0.7 KiB for a default-space trace of 110 entries and 5 instances, under
//! a budget of 1 KiB.

use std::cell::Cell;

use caa_core::name::Name;
pub use caa_runtime::observe::{Entry, EntryKind};
use caa_runtime::observe::{Event, EventKind, RunLog};
use caa_simnet::TapEvent;

use crate::inthash::IntMap;
use crate::render::{self, Compact, Decimal, Lines, Numbers};
use crate::scratch;

/// "No such entry" in the index's `u32` columns.
const NONE: u32 = u32::MAX;

/// What the index knows about one action instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The raw instance serial (process-global: never render it, never
    /// order output by it unless the order is invisible).
    pub serial: u64,
    /// The definition name, from the instance's first `Enter` (`None` for
    /// an instance only ever seen in network entries).
    pub name: Option<Name>,
    /// Nesting depth (0 = top level), from the instance's action id.
    pub depth: u32,
    first_raise: u32,
    first_resolved: u32,
    /// This instance's range of [`TraceIndex::members`].
    members: (u32, u32),
}

impl Instance {
    /// Index of the instance's first `Raise` entry.
    #[must_use]
    pub fn first_raise(&self) -> Option<usize> {
        (self.first_raise != NONE).then_some(self.first_raise as usize)
    }

    /// Index of the instance's first `Resolved` entry.
    #[must_use]
    pub fn first_resolved(&self) -> Option<usize> {
        (self.first_resolved != NONE).then_some(self.first_resolved as usize)
    }
}

/// The per-instance correlation of one trace, built once when the trace is
/// made (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceIndex {
    threads: u32,
    instances: Vec<Instance>,
    /// Entry indices grouped by label, each group in canonical order.
    members: Vec<u32>,
}

impl TraceIndex {
    /// One more than the largest thread id an entry originates from.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads as usize
    }

    /// The instance table, indexed by [`Entry::label`].
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The entries of instance `label`, as indices into
    /// [`Trace::entries`] in canonical order.
    #[must_use]
    pub fn members(&self, label: usize) -> &[u32] {
        let (start, end) = self.instances[label].members;
        &self.members[start as usize..end as usize]
    }

    /// Size of a flat `(instance, thread)` table.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.instances.len() * self.threads()
    }

    /// The slot of `(label, thread)` in such a table.
    #[must_use]
    pub fn cell(&self, label: u32, thread: u32) -> usize {
        label as usize * self.threads() + thread as usize
    }
}

/// A completed, canonically ordered trace with its [`TraceIndex`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<Entry>,
    index: TraceIndex,
}

impl Trace {
    /// The canonical trace of a run's `log` (see the module docs): its
    /// entries in canonical order, labelled and indexed — in `recycled`'s
    /// buffers where they suffice, so that a trace handed out into a
    /// recycled one allocates nothing and copies no entry (the trace takes
    /// the buffer the run logged into, and the log goes on in
    /// `recycled`'s). A buffer that is too small (a default-constructed
    /// trace's) is regrown to exactly the needed length, and the log's
    /// buffer — grown by doubling, so up to twice the trace — then stays
    /// with the log. The log comes back empty, ready for the next run.
    ///
    /// ```
    /// use caa_core::time::secs;
    /// use caa_harness::trace::Trace;
    /// use caa_runtime::observe::RunLog;
    /// use caa_runtime::{ActionDef, System};
    ///
    /// let action = ActionDef::builder("hello").role("solo", 0u32).build()?;
    /// let mut sys = System::builder().record(RunLog::default()).build();
    /// sys.spawn("T0", move |ctx| {
    ///     ctx.enter(&action, "solo", |rc| rc.work(secs(1.0)))?;
    ///     Ok(())
    /// });
    /// let mut report = sys.run();
    /// let trace = Trace::from_log(&mut report.log, Trace::default());
    /// assert!(trace.render().contains("T0 #0    A0 enter hello as solo"));
    /// # Ok::<(), caa_runtime::DefError>(())
    /// ```
    #[must_use]
    pub fn from_log(log: &mut RunLog, recycled: Trace) -> Trace {
        let trace = scratch::with(&LABELLING, |labelling| {
            labelling.make_trace(log.entries_mut(), recycled)
        });
        log.clear();
        trace
    }

    /// The entries in canonical order.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The trace's per-instance index.
    #[must_use]
    pub fn index(&self) -> &TraceIndex {
        &self.index
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

    /// Renders the whole trace as text: one line per entry, byte-identical
    /// across replays of the same seed. Action instances appear under
    /// their canonical labels ([`Entry::label`]), so the rendering is
    /// independent of process-global definition-id state.
    #[must_use]
    pub fn render(&self) -> String {
        // A default-space line is 64 bytes on average.
        let mut lines = Lines::with_capacity(self.entries.len() * 80);
        self.render_into::<Decimal>(&mut lines);
        String::from_utf8(lines.into_bytes()).expect("rendered fields are utf-8")
    }

    /// Appends the trace's lines to `lines`, their numbers landing as `N`
    /// says.
    fn render_into<N: Numbers>(&self, lines: &mut Lines) {
        for entry in &self.entries {
            render::entry::<N>(entry, lines);
        }
    }

    /// The trace's identity, for hash-only sweeps (`caa hashes`, the
    /// golden-trace test, pre/post refactor gates): the [`hash64`] of
    /// [`Trace::fingerprint_bytes`] — the rendering's lines, word for word
    /// and field for field, with each number as its eight bytes instead of
    /// its digits. Two traces fingerprint equal exactly when they render
    /// equal (barring a hash collision): both lines come from one assembler
    /// (the crate's `render` module) that differs only in how a number
    /// lands. The lines go into the calling thread's scratch buffer and are
    /// hashed in one pass, so a warmed thread allocates nothing.
    ///
    /// A fingerprint is not `hash64(render())`, and fingerprints printed
    /// before the two diverged are not comparable with today's.
    #[must_use]
    pub fn render_fingerprint(&self) -> u64 {
        scratch::with(&FINGERPRINTED, |lines| {
            lines.clear();
            self.render_into::<Compact>(lines);
            hash64(lines.bytes())
        })
    }

    /// The byte stream [`Trace::render_fingerprint`] hashes, one line per
    /// entry, in a new buffer.
    #[must_use]
    pub fn fingerprint_bytes(&self) -> Vec<u8> {
        let mut lines = Lines::new();
        self.render_into::<Compact>(&mut lines);
        lines.into_bytes()
    }

    /// Streaming byte-exact comparison of two traces' renderings: returns
    /// the first (0-based) rendered line at which they differ, or `None`
    /// when the renderings are byte-identical. Equivalent to comparing
    /// [`Trace::render`] outputs line by line — but almost never formats
    /// anything: a structural fast path decides equality field-by-field
    /// (ignoring exactly the fields rendering ignores — raw action
    /// serials and tap correlations, which legitimately differ between
    /// two executions of one seed; the canonical labels stand in for
    /// them), and only a structurally-unequal pair falls back to rendering
    /// that single line pair to let display-equal-but-structurally-
    /// different entries through.
    #[must_use]
    pub fn first_divergence(&self, other: &Trace) -> Option<usize> {
        let mut line_a = Lines::new();
        let mut line_b = Lines::new();
        for (i, (ea, eb)) in self.entries.iter().zip(&other.entries).enumerate() {
            if (ea.at_ns, ea.thread, ea.seq, ea.label) == (eb.at_ns, eb.thread, eb.seq, eb.label)
                && kinds_render_equal(&ea.kind, &eb.kind)
            {
                continue;
            }
            // Structurally unequal: confirm by rendering this line pair
            // (exact, and cold — replays of one seed are structurally
            // identical in practice).
            line_a.clear();
            line_b.clear();
            render::entry::<Decimal>(ea, &mut line_a);
            render::entry::<Decimal>(eb, &mut line_b);
            if line_a.bytes() != line_b.bytes() {
                return Some(i);
            }
        }
        let common = self.entries.len().min(other.entries.len());
        (self.entries.len() != other.entries.len()).then_some(common)
    }
}

/// Whether two entry kinds render to identical text, decided structurally
/// over exactly the fields the rendering shows — which is also what the
/// fingerprint hashes (the `render` module's tests hold the three to one
/// field list). Rendering ignores the runtime event's raw `action` id and
/// the tap event's `correlation`, process-global serials that legitimately
/// differ between two executions of the same seed (the canonical `A<n>`
/// labels compare them instead), as well as an acquisition's `waited_ns`
/// and the tap event's send instant (the entry's own instant is rendered),
/// so those fields are ignored here too.
pub(crate) fn kinds_render_equal(a: &EntryKind, b: &EntryKind) -> bool {
    let tap_eq = |x: &TapEvent, y: &TapEvent| {
        (x.class, x.src, x.dst, x.seq, x.deliver_at) == (y.class, y.src, y.dst, y.seq, y.deliver_at)
    };
    match (a, b) {
        (EntryKind::Runtime(x), EntryKind::Runtime(y)) => match (&x.kind, &y.kind) {
            (
                EventKind::ObjectAcquired { object: x, .. },
                EventKind::ObjectAcquired { object: y, .. },
            ) => x == y,
            (x, y) => x == y,
        },
        (EntryKind::NetSent(x), EntryKind::NetSent(y)) => tap_eq(x, y),
        (EntryKind::NetDropped(x), EntryKind::NetDropped(y))
        | (EntryKind::NetCorrupted(x), EntryKind::NetCorrupted(y)) => {
            (x.class, x.src, x.dst) == (y.class, y.src, y.dst)
        }
        _ => false,
    }
}

thread_local! {
    /// [`Trace::render_fingerprint`]'s lines, kept at the longest trace
    /// this thread fingerprinted.
    static FINGERPRINTED: Cell<Lines> = const { Cell::new(Lines::new()) };
}

/// XXH64 (seed 0) of `bytes`: the workspace's one hash of bytes — trace
/// fingerprints, the digests committed under `tests/golden/`, corpus
/// entry names. Published, with fixed test vectors, and stable across
/// toolchains (`std`'s `DefaultHasher` is not, so it cannot back a
/// committed digest).
#[must_use]
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut hash = Hash64::default();
    hash.write(bytes);
    hash.finish()
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// [`hash64`] fed in pieces: the result of [`Hash64::finish`] is the hash
/// of everything written, however it was chunked. Four lanes take a 32-byte
/// stripe at a time, each 8 bytes through an independent multiply.
#[derive(Debug, Clone)]
pub struct Hash64 {
    lanes: [u64; 4],
    /// The start of a stripe not yet complete.
    tail: [u8; 32],
    tail_len: usize,
    total: u64,
}

impl Default for Hash64 {
    fn default() -> Hash64 {
        Hash64 {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            tail: [0; 32],
            tail_len: 0,
            total: 0,
        }
    }
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

fn round(lane: u64, input: u64) -> u64 {
    lane.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

impl Hash64 {
    fn stripe(&mut self, stripe: &[u8]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            *lane = round(*lane, word(&stripe[8 * i..]));
        }
    }

    /// Appends `bytes` to the hashed input.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = bytes.len().min(32 - self.tail_len);
            self.tail[self.tail_len..][..take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 32 {
                return;
            }
            let tail = self.tail;
            self.stripe(&tail);
            self.tail_len = 0;
        }
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            self.stripe(stripe);
        }
        let rest = stripes.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The hash of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut hash = if self.total >= 32 {
            let mut hash = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for lane in self.lanes {
                hash = (hash ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
            hash
        } else {
            P5
        };
        hash = hash.wrapping_add(self.total);
        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            hash = (hash ^ round(0, word(rest)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let half = u32::from_le_bytes(rest[..4].try_into().expect("four bytes"));
            hash = (hash ^ u64::from(half).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = &rest[4..];
        }
        for &byte in rest {
            hash = (hash ^ u64::from(byte).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(P2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(P3);
        hash ^ (hash >> 32)
    }
}

/// Index-building scratch, empty between traces: raw serial → label (the
/// one place a serial is hashed), and the instance table while its final
/// length is still unknown.
#[derive(Default)]
struct Labelling {
    labels: IntMap<u64, u32>,
    instances: Vec<Instance>,
}

thread_local! {
    /// [`Trace::from_log`]'s scratch, kept at the most instances this
    /// thread has indexed.
    static LABELLING: Cell<Labelling> = Cell::default();
}

/// What [`canonicalize`] found the arrival order to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrival {
    /// Canonical as recorded.
    InOrder,
    /// Non-decreasing in time; some same-instant runs were put in
    /// `(thread, seq)` order, each on its own.
    Repaired,
    /// Time ran backwards somewhere: sorted as a whole.
    Sorted,
}

/// Puts `entries` in canonical `(at_ns, thread, seq)` order. Under
/// `System::run` participants run one at a time and virtual time never
/// runs backwards, so a run's log is already non-decreasing in `at_ns` and
/// only entries of one instant — logged by different threads — can be out
/// of order: one pass checks that and sorts just those runs. Anything else
/// (a log written by hand) falls back to sorting the lot. The key is
/// unique per entry (`seq` counts within `thread`), so the unstable sorts
/// yield the one canonical order, in place.
fn canonicalize(entries: &mut [Entry]) -> Arrival {
    let mut arrival = Arrival::InOrder;
    // The same-instant run being scanned starts here; `ordered` while it
    // has been in `(thread, seq)` order so far.
    let (mut start, mut ordered) = (0, true);
    for i in 1..=entries.len() {
        let same_instant = match entries.get(i) {
            Some(entry) if entry.at_ns < entries[i - 1].at_ns => {
                entries.sort_unstable_by_key(|e| (e.at_ns, e.thread, e.seq));
                return Arrival::Sorted;
            }
            Some(entry) => entry.at_ns == entries[i - 1].at_ns,
            None => false,
        };
        if same_instant {
            let (a, b) = (&entries[i - 1], &entries[i]);
            ordered &= (a.thread, a.seq) < (b.thread, b.seq);
        } else {
            if !ordered {
                entries[start..i].sort_unstable_by_key(|e| (e.thread, e.seq));
                arrival = Arrival::Repaired;
            }
            (start, ordered) = (i, true);
        }
    }
    arrival
}

impl Labelling {
    /// Puts `entries` in canonical order, labels them and builds their
    /// index — in `recycled`'s buffers where they suffice, else in buffers
    /// of exactly the needed length: a driver that keeps thousands of
    /// traces alive keeps no slack with them. `entries` comes back empty,
    /// over whichever buffer the trace did not take.
    fn make_trace(&mut self, entries: &mut Vec<Entry>, recycled: Trace) -> Trace {
        canonicalize(entries);

        // Pass 1: labels in order of first appearance, per-instance facts
        // and member counts (in `members.1`).
        let mut threads = 0;
        let mut last: Option<(u64, u32)> = None;
        for (i, entry) in entries.iter_mut().enumerate() {
            let i = u32::try_from(i).expect("entry count fits u32");
            let serial = entry.action_serial();
            let label = match last {
                Some((s, label)) if s == serial => label,
                _ => {
                    let next = u32::try_from(self.instances.len()).expect("label fits u32");
                    let label = *self.labels.entry(serial).or_insert(next);
                    if label == next {
                        self.instances.push(Instance {
                            serial,
                            name: None,
                            depth: 0,
                            first_raise: NONE,
                            first_resolved: NONE,
                            members: (0, 0),
                        });
                    }
                    last = Some((serial, label));
                    label
                }
            };
            entry.label = label;
            threads = threads.max(entry.thread + 1);
            let instance = &mut self.instances[label as usize];
            instance.members.1 += 1;
            if let EntryKind::Runtime(event) = &entry.kind {
                instance.depth = event.action.depth();
                match &event.kind {
                    EventKind::Enter { name, .. } if instance.name.is_none() => {
                        instance.name = Some(*name);
                    }
                    EventKind::Raise { .. } if instance.first_raise == NONE => {
                        instance.first_raise = i;
                    }
                    EventKind::Resolved { .. } if instance.first_resolved == NONE => {
                        instance.first_resolved = i;
                    }
                    _ => {}
                }
            }
        }

        // Counts → ranges; `members.1` restarts as each range's fill
        // cursor and ends pass 2 back at the range's end.
        let mut start = 0;
        for instance in &mut self.instances {
            let count = instance.members.1;
            instance.members = (start, start);
            start += count;
        }

        let Trace {
            entries: mut buf,
            mut index,
        } = recycled;
        index.members.clear();
        index.members.reserve_exact(entries.len());
        index.members.resize(entries.len(), 0);
        for (i, entry) in entries.iter().enumerate() {
            let cursor = &mut self.instances[entry.label as usize].members.1;
            index.members[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        index.threads = threads;
        index.instances.clear();
        index.instances.reserve_exact(self.instances.len());
        index.instances.append(&mut self.instances);
        self.labels.clear();

        buf.clear();
        if buf.capacity() >= entries.len() && buf.capacity() > 0 {
            // A recycled buffer that fits: trade places with it instead of
            // copying into it — the trace keeps the buffer the run logged
            // into, and the next run logs into the recycled one.
            std::mem::swap(&mut buf, entries);
        } else {
            buf.reserve_exact(entries.len());
            buf.append(entries);
        }
        Trace {
            entries: buf,
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_core::exception::ExceptionId;
    use caa_core::ids::{ActionId, PartitionId, ThreadId};
    use caa_core::time::VirtualInstant;
    use caa_runtime::observe::EventKind;

    /// Appends `event` to `log`, as a participant's context does.
    fn push(log: &mut RunLog, event: Event) {
        log.push(EntryKind::Runtime(event));
    }

    /// The trace of a copy of `log`, which stays as it is.
    fn trace_of(log: &RunLog) -> Trace {
        Trace::from_log(&mut log.clone(), Trace::default())
    }

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
        let mut log = RunLog::default();
        push(&mut log, runtime_event(200, 1));
        push(&mut log, runtime_event(100, 1));
        push(&mut log, runtime_event(100, 0));
        let trace = trace_of(&log);
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
        // The log's buffer grows by doubling; a trace (or an index)
        // handed out with that slack would keep it for as long as the
        // trace lives (the post-hoc readers keep thousands).
        let mut log = RunLog::default();
        for i in 0..37 {
            push(&mut log, runtime_event(1_000 - i, (i % 3) as u32));
        }
        let trace = Trace::from_log(&mut log, Trace::default());
        assert_eq!(trace.len(), 37);
        assert!(trace
            .entries()
            .windows(2)
            .all(|w| (w[0].at_ns, w[0].thread, w[0].seq) < (w[1].at_ns, w[1].thread, w[1].seq)));
        assert_eq!(trace.entries.capacity(), trace.entries.len());
        assert_eq!(trace.index.members.capacity(), trace.index.members.len());
        assert_eq!(
            trace.index.instances.capacity(),
            trace.index.instances.len()
        );

        // Re-armed: sequence numbers start over, nothing is left behind.
        push(&mut log, runtime_event(5, 2));
        let again = Trace::from_log(&mut log, Trace::default());
        assert_eq!(again.len(), 1);
        assert_eq!((again.entries()[0].thread, again.entries()[0].seq), (2, 0));
        assert!(Trace::from_log(&mut log, Trace::default()).is_empty());
    }

    #[test]
    fn a_large_thread_id_is_an_ordinary_thread() {
        let mut log = RunLog::default();
        push(&mut log, runtime_event(300, 100));
        push(&mut log, runtime_event(100, 100));
        push(&mut log, runtime_event(100, 7));
        push(&mut log, runtime_event(100, 100));
        let keys: Vec<(u64, u32, u64)> = Trace::from_log(&mut log, Trace::default())
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
        let mut log = RunLog::default();
        push(&mut log, runtime_event(1, 0));
        log.push(EntryKind::NetSent(TapEvent {
            src: PartitionId::new(0),
            dst: PartitionId::new(1),
            class: "Exception",
            correlation: 9,
            at: VirtualInstant::from_nanos(2),
            deliver_at: VirtualInstant::from_nanos(7),
            seq: 0,
        }));
        let trace = trace_of(&log);
        let text = trace.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("raise x"), "{text}");
        assert!(text.contains("net send Exception"), "{text}");
        assert_eq!(text, trace_of(&log).render());
    }

    /// The three ways a log can arrive, and the one trace they make.
    #[test]
    fn a_repaired_order_is_the_sorted_order() {
        // Per thread, events in program order at non-decreasing times,
        // many of them at the same instant as other threads' events.
        let mut rng = crate::rng::Rng::new(0x5a3e);
        for round in 0..100 {
            let threads = 2 + rng.below(4) as u32;
            let mut streams: Vec<Vec<Event>> = (0..threads)
                .map(|thread| {
                    let mut at = 0;
                    (0..rng.below(30))
                        .map(|i| {
                            at += [0, 0, 1, 5][rng.below(4) as usize];
                            let mut event = runtime_event(at, thread);
                            event.action = ActionId::top_level(5 + (i + rng.below(2)) % 3);
                            event
                        })
                        .collect()
                })
                .collect();
            let total: usize = streams.iter().map(Vec::len).sum();
            // (a) merged by time, the threads of one instant in canonical
            // order: nothing to repair; (b) merged by time, the threads of
            // one instant in whatever order: repaired run by run; (c) one
            // thread after the other, time running backwards in between:
            // sorted as a whole.
            let merged = |rng: &mut crate::rng::Rng, shuffle: bool| {
                let mut heads = vec![0; streams.len()];
                let mut order = Vec::with_capacity(total);
                while order.len() < total {
                    let next_at = (0..streams.len())
                        .filter_map(|t| streams[t].get(heads[t]).map(|e| e.at))
                        .min()
                        .expect("an event is left");
                    let mut ready: Vec<usize> = (0..streams.len())
                        .filter(|&t| streams[t].get(heads[t]).is_some_and(|e| e.at == next_at))
                        .collect();
                    let t = if shuffle {
                        ready.swap_remove(rng.below(ready.len() as u64) as usize)
                    } else {
                        // Canonical: a thread's whole run of this instant
                        // before the next thread's.
                        ready[0]
                    };
                    order.push(streams[t][heads[t]].clone());
                    heads[t] += 1;
                }
                order
            };
            let in_order = merged(&mut rng, false);
            let shuffled = merged(&mut rng, true);
            let by_thread: Vec<Event> = streams.drain(..).flatten().collect();

            let record = |events: &[Event]| {
                let mut log = RunLog::default();
                for event in events {
                    push(&mut log, event.clone());
                }
                let mut entries = log.entries().to_vec();
                (
                    canonicalize(&mut entries),
                    Trace::from_log(&mut log, Trace::default()),
                )
            };
            let (arrival_a, reference) = record(&in_order);
            let (arrival_b, repaired) = record(&shuffled);
            let (arrival_c, sorted) = record(&by_thread);
            assert_eq!(arrival_a, Arrival::InOrder, "round {round}");
            assert_ne!(arrival_b, Arrival::Sorted, "round {round}");
            if threads > 1 && by_thread.windows(2).any(|w| w[1].at < w[0].at) {
                assert_eq!(arrival_c, Arrival::Sorted, "round {round}");
            }
            // Entries, labels and index alike (`Trace: Eq` covers all).
            assert_eq!(repaired, reference, "round {round}: repaired");
            assert_eq!(sorted, reference, "round {round}: sorted");
            assert_index_matches_a_rescan(&repaired, &format!("round {round}"));
        }
    }

    #[test]
    fn a_same_instant_run_out_of_order_is_repaired_in_place() {
        let mut log = RunLog::default();
        for (at, thread) in [(1, 0), (5, 2), (5, 0), (5, 1), (5, 0), (9, 1), (9, 0)] {
            push(&mut log, runtime_event(at, thread));
        }
        let mut entries = log.entries().to_vec();
        assert_eq!(canonicalize(&mut entries), Arrival::Repaired);
        let keys: Vec<(u64, u32, u64)> =
            entries.iter().map(|e| (e.at_ns, e.thread, e.seq)).collect();
        assert_eq!(
            keys,
            [
                (1, 0, 0),
                (5, 0, 1),
                (5, 0, 2),
                (5, 1, 0),
                (5, 2, 0),
                (9, 0, 3),
                (9, 1, 1)
            ]
        );
        assert_eq!(canonicalize(&mut entries), Arrival::InOrder);
    }

    #[test]
    fn a_recycled_buffer_that_fits_trades_places_with_the_recording() {
        let mut log = RunLog::default();
        let record = |log: &mut RunLog, n: u64| (0..n).for_each(|i| push(log, runtime_event(i, 0)));
        record(&mut log, 40);
        // Nothing to recycle: exact lengths, the log's buffer stays.
        let first = Trace::from_log(&mut log, Trace::default());
        assert_eq!(first.entries.capacity(), 40);
        let logged = log.entries_mut().capacity();
        assert!(logged >= 40);
        // A recycled trace that fits: the new trace leaves in the buffer it
        // was logged in, and the log goes on in the recycled one.
        record(&mut log, 30);
        let second = Trace::from_log(&mut log, first);
        assert_eq!((second.len(), second.entries.capacity()), (30, logged));
        assert_eq!(log.entries_mut().capacity(), 40);
        // One that does not: regrown to exactly the trace, as ever.
        record(&mut log, 50);
        let mut small = Trace::default();
        small.entries.reserve_exact(8);
        let third = Trace::from_log(&mut log, small);
        assert_eq!((third.len(), third.entries.capacity()), (50, 50));
    }

    /// What the index must say about `trace`, derived the slow way.
    fn assert_index_matches_a_rescan(trace: &Trace, what: &str) {
        let entries = trace.entries();
        let index = trace.index();
        // Labels are `canonical_labels`: dense, in order of first
        // appearance of the raw serial.
        let mut canonical: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for entry in entries {
            let next = canonical.len() as u32;
            let label = *canonical.entry(entry.action_serial()).or_insert(next);
            assert_eq!(entry.label, label, "{what}: label of {entry:?}");
        }
        assert_eq!(index.instances().len(), canonical.len(), "{what}");
        let threads = entries.iter().map(|e| e.thread + 1).max().unwrap_or(0);
        assert_eq!(index.threads(), threads as usize, "{what}");
        assert_eq!(index.cells(), canonical.len() * threads as usize);

        // The member lists partition the entries, each in trace order.
        let mut seen = vec![false; entries.len()];
        for (label, instance) in index.instances().iter().enumerate() {
            assert_eq!(canonical[&instance.serial], label as u32, "{what}");
            let members = index.members(label);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "{what}: order");
            for &i in members {
                assert_eq!(entries[i as usize].label, label as u32, "{what}");
                assert!(!std::mem::replace(&mut seen[i as usize], true), "{what}");
            }
            let events = || {
                members
                    .iter()
                    .filter_map(|&i| match &entries[i as usize].kind {
                        EntryKind::Runtime(event) => Some((i as usize, event)),
                        _ => None,
                    })
            };
            let first = |wanted: fn(&EventKind) -> bool| {
                events().find(|(_, e)| wanted(&e.kind)).map(|(i, _)| i)
            };
            assert_eq!(
                instance.first_raise(),
                first(|k| matches!(k, EventKind::Raise { .. })),
                "{what}"
            );
            assert_eq!(
                instance.first_resolved(),
                first(|k| matches!(k, EventKind::Resolved { .. })),
                "{what}"
            );
            let name = events().find_map(|(_, e)| match &e.kind {
                EventKind::Enter { name, .. } => Some(*name),
                _ => None,
            });
            assert_eq!(instance.name, name, "{what}");
            let depth = events().next_back().map_or(0, |(_, e)| e.action.depth());
            assert_eq!(instance.depth, depth, "{what}");
        }
        assert!(seen.iter().all(|&s| s), "{what}: every entry is a member");
    }

    #[test]
    fn the_index_of_real_runs_matches_a_rescan() {
        use crate::arena::ExecutionArena;
        use crate::exec::execute_in;
        use crate::plan::{ScenarioConfig, ScenarioPlan};
        let mut arena = ExecutionArena::new();
        for (space, scenario) in [
            ("default", ScenarioConfig::default()),
            ("object_heavy", ScenarioConfig::object_heavy()),
            ("multi_crash", ScenarioConfig::multi_crash()),
        ] {
            for seed in 0..40 {
                let run = execute_in(&ScenarioPlan::generate(seed, &scenario), &mut arena);
                assert_index_matches_a_rescan(&run.trace, &format!("{space} seed {seed}"));
                // The next index is built in this one's buffers.
                arena.recycle_trace(run.trace);
            }
        }
    }

    #[test]
    fn the_index_of_shuffled_recordings_matches_a_rescan() {
        // Nothing a run would produce: times out of order, instances
        // interleaved entry by entry, instances that only ever appear on
        // the network, sparse thread ids — through one re-armed log, both
        // ways of making a trace.
        let mut rng = crate::rng::Rng::new(0x1dec);
        let mut log = RunLog::default();
        let mut recycled = Trace::default();
        for round in 0..200 {
            let serials = 1 + rng.below(6);
            for _ in 0..rng.below(120) {
                let at = rng.below(50);
                let thread = [0, 1, 2, 9][rng.below(4) as usize];
                let action = ActionId::with_depth(100 + rng.below(serials), thread % 3);
                let kind = match rng.below(5) {
                    0 => EventKind::Enter {
                        name: format!("a{}", action.serial()).into(),
                        role: "r".into(),
                        depth: 1,
                    },
                    1 => EventKind::Raise {
                        exception: ExceptionId::new("x"),
                    },
                    2 => EventKind::Resolved {
                        exception: ExceptionId::new("x"),
                    },
                    3 => EventKind::Crash,
                    _ => {
                        log.push(EntryKind::NetSent(TapEvent {
                            src: PartitionId::new(thread),
                            dst: PartitionId::new(0),
                            class: "Commit",
                            correlation: 100 + rng.below(serials + 2),
                            at: VirtualInstant::from_nanos(at),
                            deliver_at: VirtualInstant::from_nanos(at + 3),
                            seq: 0,
                        }));
                        continue;
                    }
                };
                push(
                    &mut log,
                    Event {
                        at: VirtualInstant::from_nanos(at),
                        thread: ThreadId::new(thread),
                        action,
                        kind,
                    },
                );
            }
            let finished = trace_of(&log);
            assert_index_matches_a_rescan(&finished, &format!("round {round}, finished"));
            recycled = Trace::from_log(&mut log, recycled);
            assert_index_matches_a_rescan(&recycled, &format!("round {round}, taken"));
            assert_eq!(finished, recycled, "round {round}");
        }
    }

    #[test]
    fn hash64_matches_the_published_xxh64_vectors() {
        assert_eq!(hash64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(hash64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(hash64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 43 bytes: one whole stripe, then the 8-, 1-byte tails.
        assert_eq!(
            hash64(b"The quick brown fox jumps over the lazy dog"),
            0x0b24_2d36_1fda_71bc
        );
    }

    /// However the input is cut into `Hash64::write` calls — empty pieces,
    /// pieces that straddle a stripe, pieces of several stripes — the hash
    /// is that of the whole.
    #[test]
    fn hash64_does_not_depend_on_the_chunking() {
        let mut rng = crate::rng::Rng::new(0x0c4a);
        let input: Vec<u8> = (0..700).map(|_| rng.below(256) as u8).collect();
        for _ in 0..2_000 {
            let whole = &input[..rng.below(input.len() as u64 + 1) as usize];
            let mut hash = Hash64::default();
            let mut rest = whole;
            while !rest.is_empty() {
                let longest = [8, 40, 100][rng.below(3) as usize];
                let cut = rng.below(longest) as usize;
                let (piece, tail) = rest.split_at(cut.min(rest.len()));
                hash.write(piece);
                rest = tail;
            }
            assert_eq!(hash.finish(), hash64(whole), "{} bytes", whole.len());
        }
    }
}
