//! Causal span timelines derived post-run from recorded traces.
//!
//! This module turns a canonical [`Trace`] into three artifacts, all
//! **derived** — the simulation hot path records nothing new, so trace
//! bytes and the 12k-seed fingerprint gate are untouched by construction:
//!
//! * **Span trees** ([`build_span_tree`]): per-instance timelines of the
//!   protocol's phases — action enter→exit, raise→resolve, each
//!   resolution round, signalling, the exit barrier, object waits,
//!   crash→detection and rejoin restart/catch-up — as a
//!   [`SpanTree`] of virtual-time intervals with parent links.
//! * **Critical paths** ([`CriticalPathScratch::extract`],
//!   [`critical_paths`]): for every resolved exception, a backward walk
//!   over the causal graph (message send→receive edges from `NetSent`
//!   records plus intra-thread program order) from the first `Resolved`
//!   back to the first `Raise`, attributing **every nanosecond** of the
//!   raise→resolve latency to a [`SegmentClass`]. The segments of one
//!   instance partition `[raised_at, resolved_at]` exactly — their
//!   durations sum to the instance's latency, which the sweep metrics
//!   (`critical_path` set in `metrics.json`) rely on and tests assert.
//! * **Perfetto export** ([`trace_event_json`]): a Chrome trace-event
//!   JSON document (complete-event spans, flow arrows for causal message
//!   edges, one lane per critical path) in the telemetry crate's
//!   integer-only JSON subset, loadable at <https://ui.perfetto.dev>.
//!
//! # Critical-path walk
//!
//! Starting at the first `Resolved` event, the walk repeatedly asks what
//! the current thread was doing in the window ending at the cursor:
//!
//! 1. If the window ends at an `ObjectAcquired` with a non-zero wait, the
//!    tail of the window is **object-wait**.
//! 2. If a message of this instance was delivered to the thread inside
//!    the window (the latest such delivery wins), the window splits at
//!    the delivery: the part after it keeps the window's base class, the
//!    `[sent, delivered]` interval is **message-wait**, and the walk hops
//!    to the sender at send time — a causal edge.
//! 3. Otherwise the whole window gets the base class — **timeout-slack**
//!    when it ends in a bounded-wait expiry, **suspicion-round** when it
//!    ends in a view change, **compute** otherwise — and the walk steps
//!    to the previous entry in the thread's program order.
//!
//! Every step clamps at the raise time, so the emitted segments are
//! contiguous, disjoint and exactly cover the raise→resolve interval.

use std::cell::Cell;
use std::fmt::Write as _;

use caa_runtime::observe::{EventKind, Net};
use caa_telemetry::json;
use caa_telemetry::{Span, SpanName, SpanTree};

use crate::scratch::{self, reset};
use crate::trace::{Entry, EntryKind, Trace};

/// What a critical-path segment's time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentClass {
    /// Waiting for a protocol message to arrive (send→deliver flight
    /// time of the causal edge the walk hopped over).
    MessageWait,
    /// Waiting for a shared-object grant.
    ObjectWait,
    /// Local protocol processing between causal events.
    Compute,
    /// Waiting out a bounded resolution/signalling/exit wait that expired.
    TimeoutSlack,
    /// A membership view change (suspicion round) on the path.
    SuspicionRound,
}

impl SegmentClass {
    /// Every class, in a stable order (the `cp_*` counter order).
    pub const ALL: [SegmentClass; 5] = [
        SegmentClass::MessageWait,
        SegmentClass::ObjectWait,
        SegmentClass::Compute,
        SegmentClass::TimeoutSlack,
        SegmentClass::SuspicionRound,
    ];

    /// The class's human label (also used in summaries and Perfetto
    /// lanes).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SegmentClass::MessageWait => "message-wait",
            SegmentClass::ObjectWait => "object-wait",
            SegmentClass::Compute => "compute",
            SegmentClass::TimeoutSlack => "timeout-slack",
            SegmentClass::SuspicionRound => "suspicion-round",
        }
    }

    /// The `critical_path` metric-set counter this class accumulates
    /// into.
    #[must_use]
    pub fn counter_name(self) -> &'static str {
        match self {
            SegmentClass::MessageWait => "cp_message_wait_ns",
            SegmentClass::ObjectWait => "cp_object_wait_ns",
            SegmentClass::Compute => "cp_compute_ns",
            SegmentClass::TimeoutSlack => "cp_timeout_slack_ns",
            SegmentClass::SuspicionRound => "cp_suspicion_round_ns",
        }
    }
}

/// One attributed interval of a critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// What the interval's time was spent on.
    pub class: SegmentClass,
    /// Virtual start, nanoseconds.
    pub start_ns: u64,
    /// Virtual end, nanoseconds.
    pub end_ns: u64,
}

impl Segment {
    /// The segment's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The raise→resolve critical path of one action instance: contiguous
/// segments exactly partitioning `[raised_at, resolved_at]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstancePath {
    /// Canonical (run-independent) action-instance label — the `A<n>`
    /// number of the trace rendering, *not* the process-global raw
    /// serial, so paths of the same seed compare equal across executions.
    pub instance: u64,
    /// Virtual time of the instance's first `Raise`.
    pub raised_at: u64,
    /// Virtual time of the instance's first `Resolved`.
    pub resolved_at: u64,
    /// The path's segments in chronological order.
    pub segments: Vec<Segment>,
}

impl InstancePath {
    /// The instance's raise→resolve latency — by construction also the
    /// sum of every segment's duration.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.resolved_at.saturating_sub(self.raised_at)
    }

    /// Total nanoseconds attributed to `class` on this path.
    #[must_use]
    pub fn class_total_ns(&self, class: SegmentClass) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.class == class)
            .map(Segment::duration_ns)
            .sum()
    }
}

/// Reusable scratch for critical-path extraction: cleared (capacity
/// kept) between runs, so a long-lived recorder adds no steady-state
/// allocations to the pinned per-seed budget. The first raise and resolve
/// per instance come from the trace's [`TraceIndex`](crate::trace::TraceIndex);
/// the two tables a step of the walk reads — a thread's previous entry and
/// the messages delivered to a thread within an instance — are built once
/// per trace, so a step looks its predecessor up and scans only the sends
/// to its own thread, not the entries before it and every send of the
/// instance.
#[derive(Debug, Default)]
pub struct CriticalPathScratch {
    /// Labels of the resolved instances, in resolution order.
    order: Vec<u32>,
    /// Per entry, the index of its thread's previous entry (`NONE` for the
    /// thread's first).
    prev: Vec<u32>,
    /// The `NetSent` entries, each with the slot in `sends` of the one
    /// before it in its `(instance, receiver)` cell
    /// ([`TraceIndex::cell`](crate::trace::TraceIndex::cell)): a list per
    /// cell, newest first.
    sends: Vec<(u32, u32)>,
    /// Per cell, the slot of its newest send; then, per thread, its last
    /// entry so far (while the tables are built).
    heads: Vec<u32>,
    path: InstancePath,
}

/// "No such entry" in [`CriticalPathScratch`]'s tables.
const NONE: u32 = u32::MAX;

impl CriticalPathScratch {
    /// Fresh scratch (equivalent to `default()`).
    #[must_use]
    pub fn new() -> CriticalPathScratch {
        CriticalPathScratch::default()
    }

    /// Extracts the critical path of every resolved instance in `trace`,
    /// invoking `visit` once per instance in deterministic
    /// (resolution-time) order. The visited [`InstancePath`] borrows the
    /// scratch's reusable buffer — clone it to keep it.
    pub fn extract(&mut self, trace: &Trace, mut visit: impl FnMut(&InstancePath)) {
        let instances = trace.index().instances();
        let resolved = |label: u32| {
            let instance = &instances[label as usize];
            instance.first_raise().and(instance.first_resolved())
        };
        self.order.clear();
        self.order
            .extend((0..instances.len() as u32).filter(|&label| resolved(label).is_some()));
        // Raw serials are process-global, so order by a canonical fact:
        // the position of the first `Resolved` (resolution time, then
        // thread, then program order).
        self.order.sort_unstable_by_key(|&label| resolved(label));
        let Some(&last) = self.order.last() else {
            return;
        };
        self.index(trace, resolved(last).expect("a resolved instance"));
        for i in 0..self.order.len() {
            self.walk(trace, self.order[i]);
            visit(&self.path);
        }
    }

    /// Fills the walk's two tables for `trace`'s entries up to `end`, the
    /// last first `Resolved` (no walk stands on a later one), in one pass:
    /// every entry's predecessor in its thread's program order, and the
    /// sends listed by `(instance, receiver)`. A send to a thread that
    /// logged nothing has no cell: the walk never stands on such a thread.
    fn index(&mut self, trace: &Trace, end: usize) {
        let (entries, index) = (trace.entries(), trace.index());
        let (cells, threads) = (index.cells(), index.threads());
        self.heads.clear();
        self.heads.resize(cells + threads, NONE);
        self.prev.clear();
        self.sends.clear();
        for (i, entry) in entries[..=end].iter().enumerate() {
            let last = &mut self.heads[cells + entry.thread as usize];
            self.prev.push(*last);
            *last = i as u32;
            if let EntryKind::NetSent(net) = &entry.kind {
                if (net.dst.as_u32() as usize) < threads {
                    let head = &mut self.heads[index.cell(entry.label, net.dst.as_u32())];
                    self.sends.push((i as u32, *head));
                    *head = self.sends.len() as u32 - 1;
                }
            }
        }
    }

    /// The latest message of instance `label` delivered to `thread` inside
    /// `(floor, end]` and sent strictly before `end` (strict, so every hop
    /// makes progress toward the raise): the index of its `NetSent` entry
    /// and the message. Ties in delivery time go to the larger `(src, seq)`
    /// — a key unique within a cell, so the list's order does not matter.
    fn find_send<'t>(
        &self,
        trace: &'t Trace,
        label: u32,
        thread: u32,
        floor: u64,
        end: u64,
    ) -> Option<(usize, &'t Net)> {
        let entries = trace.entries();
        let head = self.heads[trace.index().cell(label, thread)];
        std::iter::successors((head != NONE).then_some(head), |&slot| {
            let next = self.sends[slot as usize].1;
            (next != NONE).then_some(next)
        })
        .map(|slot| self.sends[slot as usize].0 as usize)
        .skip_while(|&i| entries[i].at_ns >= end)
        .filter_map(|i| match &entries[i].kind {
            EntryKind::NetSent(net) => Some((i, net)),
            _ => None,
        })
        .filter(|(_, net)| {
            let delivered = net.deliver_at.as_nanos();
            floor < delivered && delivered <= end
        })
        .max_by_key(|(i, net)| (net.deliver_at, entries[*i].thread, net.seq))
    }

    /// The backward walk for one instance (see the module docs); fills
    /// `self.path` with chronological segments exactly covering
    /// `[raised_at, resolved_at]`.
    fn walk(&mut self, trace: &Trace, label: u32) {
        let entries = trace.entries();
        let instance = &trace.index().instances()[label as usize];
        let (Some(raise), Some(mut at)) = (instance.first_raise(), instance.first_resolved())
        else {
            return;
        };
        let resolved_at = entries[at].at_ns;
        let raised_at = entries[raise].at_ns.min(resolved_at);
        self.path.instance = u64::from(label);
        self.path.raised_at = raised_at;
        self.path.resolved_at = resolved_at;
        self.path.segments.clear();
        let mut cursor = resolved_at;
        // Termination backstop: each iteration either moves `cursor`
        // toward the raise or steps one entry back in program order, so
        // this bound is unreachable in practice.
        let mut guard = entries.len() * 2 + 16;
        while cursor > raised_at {
            if guard == 0 {
                self.push_segment(SegmentClass::Compute, raised_at, cursor);
                break;
            }
            guard -= 1;
            let entry = &entries[at];
            // 1. Object-wait tail.
            if let EntryKind::Runtime(EventKind::ObjectAcquired { waited_ns, .. }) = &entry.kind {
                let wait_start = cursor.saturating_sub(*waited_ns).max(raised_at);
                self.push_segment(SegmentClass::ObjectWait, wait_start, cursor);
                cursor = wait_start;
                if cursor == raised_at {
                    break;
                }
            }
            let base = base_class(entry);
            // The thread's previous entry in program order.
            let prev = (self.prev[at] != NONE).then(|| self.prev[at] as usize);
            let floor = prev.map_or(0, |i| entries[i].at_ns).max(raised_at);
            // 2. Causal message edge into the window (latest delivery).
            if let Some((sent_at, send)) = self.find_send(trace, label, entry.thread, floor, cursor)
            {
                let delivered = send.deliver_at.as_nanos();
                self.push_segment(base, delivered, cursor);
                let sent = entries[sent_at].at_ns.max(raised_at);
                self.push_segment(SegmentClass::MessageWait, sent, delivered);
                cursor = sent;
                if cursor == raised_at {
                    break;
                }
                at = sent_at;
                continue;
            }
            // 3. Whole window gets the base class; step back.
            self.push_segment(base, floor, cursor);
            cursor = floor;
            if cursor == raised_at {
                break;
            }
            // floor > raised_at ≥ 0, so it is a previous entry's time.
            at = prev.expect("a window floored above the raise has a previous entry");
        }
        self.path.segments.reverse();
    }

    /// Appends a backward-order segment, skipping empty intervals.
    fn push_segment(&mut self, class: SegmentClass, start_ns: u64, end_ns: u64) {
        if start_ns < end_ns {
            self.path.segments.push(Segment {
                class,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Convenience form of [`CriticalPathScratch::extract`]: every resolved
/// instance's critical path, in deterministic order. Sweeps use the
/// scratch directly; this is the one-shot API for tools and tests.
#[must_use]
pub fn critical_paths(trace: &Trace) -> Vec<InstancePath> {
    let mut scratch = CriticalPathScratch::new();
    let mut paths = Vec::new();
    scratch.extract(trace, |path| paths.push(path.clone()));
    paths
}

/// The spans one thread has open inside one instance — a cell of the
/// `(instance, thread)` table.
#[derive(Clone, Copy, Default)]
struct OpenSpans {
    /// `(start of the current resolution round, its number)`.
    recovery: Option<(u64, u64)>,
    signalling: Option<u32>,
    handler: Option<u32>,
    exit: Option<u32>,
    catchup: Option<u32>,
}

impl OpenSpans {
    /// The open spans a crash (or the end of the trace) cuts off.
    fn drain(&mut self) -> impl Iterator<Item = u32> {
        self.recovery = None;
        [
            self.signalling.take(),
            self.handler.take(),
            self.exit.take(),
            self.catchup.take(),
        ]
        .into_iter()
        .flatten()
    }
}

/// What [`build_span_tree`] keeps open while it walks a trace, recycled
/// from one trace to the next through the calling thread's scratch: a tree
/// costs the allocation that holds its spans and nothing else.
#[derive(Default)]
struct SpanScratch {
    /// Open action spans `(thread, label, span)` in the order they opened:
    /// those of one thread are its stack, innermost last.
    actions: Vec<(u32, u32, u32)>,
    /// Per `(instance, thread)` cell.
    open: Vec<OpenSpans>,
    /// Per instance: its open raise→resolve span.
    raise_open: Vec<Option<u32>>,
    /// `(crashed thread, its crash-detect span)`.
    detect_open: Vec<(u32, u32)>,
    /// Per thread: when it last crashed.
    last_crash: Vec<Option<u64>>,
    /// The most spans any tree built on this thread had — what the next
    /// tree reserves, so that it seldom grows.
    most_spans: usize,
}

thread_local! {
    static SPAN_SCRATCH: Cell<SpanScratch> = Cell::default();
}

/// Reconstructs the run's span tree from its canonical trace: one span
/// per protocol phase (see the module docs for the taxonomy). Spans are
/// pushed in canonical-trace order, parents before children; spans still
/// open when the trace ends (e.g. an unresolved raise) close at the last
/// entry's timestamp. Purely derived — the same trace yields the same
/// tree, byte for byte under [`SpanTree::render`].
#[must_use]
pub fn build_span_tree(trace: &Trace) -> SpanTree {
    scratch::with(&SPAN_SCRATCH, |scratch| span_tree(trace, scratch))
}

fn span_tree(trace: &Trace, scratch: &mut SpanScratch) -> SpanTree {
    let SpanScratch {
        actions,
        open,
        raise_open,
        detect_open,
        last_crash,
        most_spans,
    } = scratch;
    let index = trace.index();
    // No entry opens more than two spans.
    let mut tree = SpanTree::with_capacity((*most_spans).min(2 * trace.len()));
    actions.clear();
    reset(open, index.cells());
    reset(raise_open, index.instances().len());
    detect_open.clear();
    reset(last_crash, index.threads());
    let end_ns = trace.entries().last().map_or(0, |e| e.at_ns);

    // The innermost open action span on `thread` matching `label`, or
    // the innermost of any instance (an observer event of a peer's
    // instance), or none.
    let parent_of = |actions: &[(u32, u32, u32)], thread: u32, label: u32| {
        let stack = || actions.iter().rev().filter(|(t, ..)| *t == thread);
        stack()
            .find(|(_, l, _)| *l == label)
            .or_else(|| stack().next())
            .map(|&(.., span)| span)
    };

    for entry in trace.entries() {
        let at = entry.at_ns;
        let thread = entry.thread;
        let label = entry.label;
        let EntryKind::Runtime(kind) = &entry.kind else {
            continue;
        };
        let cell = index.cell(label, thread);
        let span = |name: SpanName, start_ns: u64, parent: Option<u32>| Span {
            name,
            start_ns,
            end_ns: at,
            thread,
            instance: u64::from(label),
            parent,
        };
        match kind {
            EventKind::Enter { name, .. } => {
                let parent = parent_of(actions, thread, label);
                let name = SpanName::word("action:", name.as_str());
                let id = tree.push(span(name, at, parent));
                actions.push((thread, label, id));
            }
            EventKind::Exit { .. } | EventKind::Abort { .. } => {
                for id in [open[cell].exit.take(), open[cell].catchup.take()]
                    .into_iter()
                    .flatten()
                {
                    tree.set_end(id, at);
                }
                let innermost = actions
                    .iter()
                    .rposition(|&(t, l, _)| (t, l) == (thread, label));
                if let Some(i) = innermost {
                    let (.., id) = actions.remove(i);
                    tree.set_end(id, at);
                }
            }
            EventKind::Raise { exception } if raise_open[label as usize].is_none() => {
                let parent = parent_of(actions, thread, label);
                let name = SpanName::word("raise\u{2192}resolve:", exception.display_name());
                raise_open[label as usize] = Some(tree.push(span(name, at, parent)));
            }
            EventKind::RecoveryStart { .. } => {
                open[cell].recovery = Some((at, 1));
            }
            EventKind::Resolved { .. } => {
                if let Some(id) = raise_open[label as usize].take() {
                    tree.set_end(id, at);
                }
                let parent = parent_of(actions, thread, label);
                if let Some((start, round)) = &mut open[cell].recovery {
                    let name = SpanName::numbered("resolution:r", *round);
                    tree.push(span(name, *start, parent));
                    *start = at;
                    *round += 1;
                }
                if let Some(id) = open[cell].signalling.take() {
                    tree.set_end(id, at);
                }
                let name = SpanName::plain("signalling");
                open[cell].signalling = Some(tree.push(span(name, at, parent)));
            }
            EventKind::SignalOutcome { .. } => {
                if let Some(id) = open[cell].signalling.take() {
                    tree.set_end(id, at);
                }
            }
            EventKind::HandlerStart { exception } => {
                let parent = parent_of(actions, thread, label);
                let name = SpanName::word("handler:", exception.display_name());
                open[cell].handler = Some(tree.push(span(name, at, parent)));
            }
            EventKind::HandlerEnd { .. } => {
                if let Some(id) = open[cell].handler.take() {
                    tree.set_end(id, at);
                }
            }
            EventKind::ObjectAcquired { object, waited_ns } if *waited_ns > 0 => {
                let parent = parent_of(actions, thread, label);
                let name = SpanName::word("object-wait:", object.as_str());
                tree.push(span(name, at.saturating_sub(*waited_ns), parent));
            }
            EventKind::ExitStart { epoch } => {
                if let Some(id) = open[cell].exit.take() {
                    tree.set_end(id, at);
                }
                let parent = parent_of(actions, thread, label);
                let name = SpanName::numbered("exit:e", u64::from(*epoch));
                open[cell].exit = Some(tree.push(span(name, at, parent)));
            }
            EventKind::Crash => {
                last_crash[thread as usize] = Some(at);
                // A crash closes everything the thread had open.
                actions.retain(|&(t, _, id)| {
                    if t == thread {
                        tree.set_end(id, at);
                    }
                    t != thread
                });
                for peer_label in 0..index.instances().len() as u32 {
                    for id in open[index.cell(peer_label, thread)].drain() {
                        tree.set_end(id, at);
                    }
                }
                let id = tree.push(span(SpanName::plain("crash-detect"), at, None));
                detect_open.push((thread, id));
            }
            EventKind::ViewChange { removed, .. } => {
                detect_open.retain(|&(crashed, id)| {
                    if removed.iter().any(|t| t.as_u32() == crashed) {
                        tree.set_end(id, at);
                        false
                    } else {
                        true
                    }
                });
            }
            EventKind::Rejoin {
                thread: rejoiner, ..
            } if rejoiner.as_u32() == thread => {
                if let Some(crash_at) = last_crash[thread as usize] {
                    tree.push(span(SpanName::plain("rejoin-restart"), crash_at, None));
                }
                let parent = parent_of(actions, thread, label);
                let name = SpanName::plain("rejoin-catchup");
                open[cell].catchup = Some(tree.push(span(name, at, parent)));
            }
            _ => {}
        }
    }

    // Close whatever the trace left open at its end.
    let still_open = (actions.iter().map(|&(.., id)| id))
        .chain(open.iter_mut().flat_map(OpenSpans::drain))
        .chain(raise_open.iter().flatten().copied())
        .chain(detect_open.iter().map(|&(_, id)| id));
    for id in still_open {
        tree.set_end(id, end_ns);
    }
    *most_spans = tree.len().max(*most_spans);
    tree
}

/// The segment class a window *ending* at this entry falls into when no
/// causal message edge splits it.
fn base_class(entry: &Entry) -> SegmentClass {
    match &entry.kind {
        EntryKind::Runtime(
            EventKind::ResolutionTimeout { .. }
            | EventKind::SignalTimeout { .. }
            | EventKind::ExitTimeout { .. },
        ) => SegmentClass::TimeoutSlack,
        EntryKind::Runtime(EventKind::ViewChange { .. }) => SegmentClass::SuspicionRound,
        _ => SegmentClass::Compute,
    }
}

/// Renders the run as a Chrome trace-event JSON document: thread-name
/// metadata, one complete (`"ph": "X"`) event per derived span, paired
/// flow arrows (`"ph": "s"`/`"f"`) per causal message edge, and one lane
/// per raise→resolve critical path (process id 1, one track per
/// instance). Integer-only — the document parses under
/// [`caa_telemetry::json::parse`] — and deterministic per trace; load it
/// at <https://ui.perfetto.dev>.
#[must_use]
pub fn trace_event_json(trace: &Trace, seed: u64) -> String {
    let tree = build_span_tree(trace);
    let mut out = String::with_capacity(tree.len() * 128 + 4096);
    out.push_str("{\n\"displayTimeUnit\": \"ns\",\n");
    let _ = writeln!(out, "\"otherData\": {{\"seed\": {seed}}},");
    out.push_str("\"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&body);
    };

    // Process and thread naming metadata.
    for (pid, name) in [(0u32, "protocol"), (1u32, "critical-path")] {
        push_event(
            &mut out,
            format!(
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": {pid}, \
                 \"tid\": 0, \"args\": {{\"name\": \"{name}\"}}}}"
            ),
        );
    }
    let mut has_entries = vec![false; trace.index().threads()];
    for entry in trace.entries() {
        has_entries[entry.thread as usize] = true;
    }
    for thread in (0u32..)
        .zip(has_entries)
        .filter_map(|(t, seen)| seen.then_some(t))
    {
        push_event(
            &mut out,
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": 0, \
                 \"tid\": {thread}, \"args\": {{\"name\": \"T{thread}\"}}}}"
            ),
        );
    }

    // Derived spans as complete events.
    let mut name = String::new();
    for span in tree.spans() {
        let mut body = String::with_capacity(96);
        body.push_str("{\"name\": ");
        name.clear();
        let _ = write!(name, "{}", span.name);
        json::write_str(&mut body, &name);
        let _ = write!(
            body,
            ", \"cat\": \"span\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \
             \"tid\": {}, \"args\": {{\"instance\": {}}}}}",
            span.start_ns,
            span.duration_ns(),
            span.thread,
            span.instance,
        );
        push_event(&mut out, body);
    }

    // Causal message edges as paired flow arrows.
    for (id, (entry, net)) in trace
        .entries()
        .iter()
        .filter_map(|e| match &e.kind {
            EntryKind::NetSent(net) => Some((e, net)),
            _ => None,
        })
        .enumerate()
    {
        let instance = entry.label;
        let arrow = |ph: &str, bind: &str, ts: u64, tid: u32| {
            let mut body = String::with_capacity(96);
            body.push_str("{\"name\": ");
            json::write_str(&mut body, &format!("msg:{}", net.kind));
            let _ = write!(
                body,
                ", \"cat\": \"net\", \"ph\": \"{ph}\"{bind}, \"id\": {id}, \"ts\": {ts}, \
                 \"pid\": 0, \"tid\": {tid}, \"args\": {{\"instance\": {instance}}}}}",
            );
            body
        };
        let sent = arrow("s", "", entry.at_ns, entry.thread);
        push_event(&mut out, sent);
        let recv = arrow(
            "f",
            ", \"bp\": \"e\"",
            net.deliver_at.as_nanos(),
            net.dst.as_u32(),
        );
        push_event(&mut out, recv);
    }

    // Critical-path lanes: pid 1, one track per instance.
    for path in critical_paths(trace) {
        let instance = path.instance;
        for segment in &path.segments {
            let mut body = String::with_capacity(96);
            body.push_str("{\"name\": ");
            json::write_str(&mut body, segment.class.label());
            let _ = write!(
                body,
                ", \"cat\": \"critical-path\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {instance}, \"args\": {{\"instance\": {instance}}}}}",
                segment.start_ns,
                segment.duration_ns(),
            );
            push_event(&mut out, body);
        }
    }

    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ExecutionArena;
    use crate::exec::execute_in;
    use crate::plan::{ScenarioConfig, ScenarioPlan, SPACES};
    use crate::trace::{EntryKind, Trace};
    use caa_core::exception::ExceptionId;
    use caa_core::ids::{ActionId, PartitionId, ThreadId};
    use caa_core::message::MessageKind;
    use caa_core::time::VirtualInstant;
    use caa_runtime::observe::RunLog;

    fn event(log: &mut RunLog, at: u64, thread: u32, action: ActionId, kind: EventKind) {
        let at = VirtualInstant::from_nanos(at);
        log.push(at, ThreadId::new(thread), action, EntryKind::Runtime(kind));
    }

    fn send(log: &mut RunLog, at: u64, deliver: u64, (src, dst): (u32, u32), action: ActionId) {
        let net = Net {
            dst: PartitionId::new(dst),
            kind: MessageKind::Exception,
            deliver_at: VirtualInstant::from_nanos(deliver),
            seq: 0,
        };
        let at = VirtualInstant::from_nanos(at);
        log.push(at, ThreadId::new(src), action, EntryKind::NetSent(net));
    }

    /// Hand-built trace with a known decomposition: T0 raises at 100 and
    /// sends the exception to T1 (delivered at 150); T1 acquires an
    /// object at 170 after a 20ns wait and resolves at 180. The critical
    /// path must be exactly 50ns message-wait, 20ns object-wait and 10ns
    /// compute (100→150→170-20=150 .. so compute is [150,150]∅ + [170,180]).
    #[test]
    fn critical_path_pins_a_known_decomposition() {
        let action = ActionId::top_level(7);
        let mut log = RunLog::default();
        let x = ExceptionId::new("x");
        let (raise, resolved) = (
            EventKind::Raise { exception: x },
            EventKind::Resolved { exception: x },
        );
        let acquired = EventKind::ObjectAcquired {
            object: "ledger".into(),
            waited_ns: 20,
        };
        event(&mut log, 100, 0, action, raise);
        send(&mut log, 100, 150, (0, 1), action);
        event(&mut log, 170, 1, action, acquired);
        event(&mut log, 180, 1, action, resolved);
        let trace = Trace::from_log(&mut log, Trace::default());
        let paths = critical_paths(&trace);
        assert_eq!(paths.len(), 1);
        let path = &paths[0];
        assert_eq!(path.total_ns(), 80);
        assert_eq!(path.class_total_ns(SegmentClass::MessageWait), 50);
        assert_eq!(path.class_total_ns(SegmentClass::ObjectWait), 20);
        assert_eq!(path.class_total_ns(SegmentClass::Compute), 10);
        assert_eq!(path.class_total_ns(SegmentClass::TimeoutSlack), 0);
        // Chronological, contiguous, exactly covering [100, 180].
        assert_eq!(path.segments.first().unwrap().start_ns, 100);
        assert_eq!(path.segments.last().unwrap().end_ns, 180);
        for pair in path.segments.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns);
        }
        let sum: u64 = path.segments.iter().map(Segment::duration_ns).sum();
        assert_eq!(sum, path.total_ns());
    }

    /// Two deliveries of one instant into the window: the walk hops to the
    /// larger sender. (No seed of the spaces' first thousand has such a
    /// tie, so only this trace holds the tie-break.)
    #[test]
    fn a_delivery_tie_goes_to_the_larger_sender() {
        let action = ActionId::top_level(7);
        let mut log = RunLog::default();
        let x = ExceptionId::new("x");
        let (raise, resolved) = (
            EventKind::Raise { exception: x },
            EventKind::Resolved { exception: x },
        );
        event(&mut log, 100, 0, action, raise);
        send(&mut log, 100, 150, (0, 1), action);
        send(&mut log, 120, 150, (2, 1), action);
        event(&mut log, 180, 1, action, resolved);
        let trace = Trace::from_log(&mut log, Trace::default());
        let segment = |class, start_ns, end_ns| Segment {
            class,
            start_ns,
            end_ns,
        };
        let want = vec![
            segment(SegmentClass::Compute, 100, 120),
            segment(SegmentClass::MessageWait, 120, 150),
            segment(SegmentClass::Compute, 150, 180),
        ];
        let paths = critical_paths(&trace);
        assert_eq!(paths[0].segments, want);
        assert_eq!(paths, reference_paths(&trace));
    }

    /// Every real seed's paths partition raise→resolve exactly.
    #[test]
    fn segments_sum_exactly_to_latency_on_real_seeds() {
        for seed in 0..32u64 {
            let plan = ScenarioPlan::generate(seed, &ScenarioConfig::default());
            let artifacts = execute_in(&plan, &mut ExecutionArena::default());
            for path in critical_paths(&artifacts.trace) {
                let sum: u64 = path.segments.iter().map(Segment::duration_ns).sum();
                assert_eq!(
                    sum,
                    path.total_ns(),
                    "seed {seed} instance {} decomposition must be exact",
                    path.instance
                );
                for pair in path.segments.windows(2) {
                    assert_eq!(pair[0].end_ns, pair[1].start_ns, "seed {seed}: contiguous");
                }
            }
        }
    }

    #[test]
    fn span_tree_covers_protocol_phases() {
        let plan = ScenarioPlan::generate(3, &ScenarioConfig::default());
        let artifacts = execute_in(&plan, &mut ExecutionArena::default());
        let tree = build_span_tree(&artifacts.trace);
        assert!(!tree.is_empty());
        let text = tree.render();
        assert!(text.contains("action:"), "{text}");
        // Seed 3's default scenario raises at least one exception.
        if artifacts
            .trace
            .runtime_events()
            .any(|(_, kind)| matches!(kind, EventKind::Raise { .. }))
        {
            assert!(text.contains("raise\u{2192}resolve:"), "{text}");
        }
        // Spans never end before they start.
        for span in tree.spans() {
            assert!(span.end_ns >= span.start_ns, "{span:?}");
        }
    }

    /// The walk before its tables: each step searches the entries before
    /// it for the thread's previous one, and every send of the instance
    /// for the latest delivery. `critical_paths` must answer as it does.
    fn reference_paths(trace: &Trace) -> Vec<InstancePath> {
        let entries = trace.entries();
        let instances = trace.index().instances();
        let resolved = |label: u32| {
            let instance = &instances[label as usize];
            instance.first_raise().and(instance.first_resolved())
        };
        let mut order: Vec<u32> = (0..instances.len() as u32)
            .filter(|&label| resolved(label).is_some())
            .collect();
        order.sort_unstable_by_key(|&label| resolved(label));
        let find_send = |label: u32, thread: u32, floor: u64, end: u64| {
            trace
                .index()
                .members(label as usize)
                .iter()
                .map(|&i| i as usize)
                .take_while(|&i| entries[i].at_ns < end)
                .filter_map(|i| match &entries[i].kind {
                    EntryKind::NetSent(net) => Some((i, net)),
                    _ => None,
                })
                .filter(|(_, net)| {
                    let delivered = net.deliver_at.as_nanos();
                    net.dst.as_u32() == thread && floor < delivered && delivered <= end
                })
                .max_by_key(|(i, net)| (net.deliver_at, entries[*i].thread, net.seq))
        };
        let mut paths = Vec::new();
        for label in order {
            let instance = &instances[label as usize];
            let (raise, mut at) = (instance.first_raise().unwrap(), resolved(label).unwrap());
            let resolved_at = entries[at].at_ns;
            let raised_at = entries[raise].at_ns.min(resolved_at);
            let mut segments = Vec::new();
            let mut push = |class, start_ns, end_ns| {
                if start_ns < end_ns {
                    segments.push(Segment {
                        class,
                        start_ns,
                        end_ns,
                    });
                }
            };
            let mut cursor = resolved_at;
            let mut guard = entries.len() * 2 + 16;
            while cursor > raised_at {
                if guard == 0 {
                    push(SegmentClass::Compute, raised_at, cursor);
                    break;
                }
                guard -= 1;
                let entry = &entries[at];
                if let EntryKind::Runtime(EventKind::ObjectAcquired { waited_ns, .. }) = &entry.kind
                {
                    let wait_start = cursor.saturating_sub(*waited_ns).max(raised_at);
                    push(SegmentClass::ObjectWait, wait_start, cursor);
                    cursor = wait_start;
                    if cursor == raised_at {
                        break;
                    }
                }
                let base = base_class(entry);
                let prev = entries[..at].iter().rposition(|e| e.thread == entry.thread);
                let floor = prev.map_or(0, |i| entries[i].at_ns).max(raised_at);
                if let Some((sent_at, send)) = find_send(label, entry.thread, floor, cursor) {
                    let delivered = send.deliver_at.as_nanos();
                    push(base, delivered, cursor);
                    let sent = entries[sent_at].at_ns.max(raised_at);
                    push(SegmentClass::MessageWait, sent, delivered);
                    cursor = sent;
                    if cursor == raised_at {
                        break;
                    }
                    at = sent_at;
                    continue;
                }
                push(base, floor, cursor);
                cursor = floor;
                if cursor == raised_at {
                    break;
                }
                at = prev.unwrap();
            }
            segments.reverse();
            paths.push(InstancePath {
                instance: u64::from(label),
                raised_at,
                resolved_at,
                segments,
            });
        }
        paths
    }

    /// The tables change how fast the walk finds its steps, not which it
    /// takes: seeds 0–999 of every scenario space, path for path.
    #[test]
    fn the_walk_answers_like_the_scans_it_replaces() {
        let mut scratch = CriticalPathScratch::new();
        let mut arena = ExecutionArena::default();
        let mut hops = 0;
        for space in SPACES {
            let config = (space.config)();
            for seed in 0..1000u64 {
                let plan = ScenarioPlan::generate(seed, &config);
                let artifacts = execute_in(&plan, &mut arena);
                let mut paths = Vec::new();
                scratch.extract(&artifacts.trace, |p| paths.push(p.clone()));
                let want = reference_paths(&artifacts.trace);
                assert_eq!(paths, want, "{} seed {seed}", space.name);
                hops += want
                    .iter()
                    .map(|p| p.class_total_ns(SegmentClass::MessageWait).min(1))
                    .sum::<u64>();
            }
        }
        assert!(hops > 1000, "the seeds hop message edges: {hops}");
    }

    #[test]
    fn scratch_reuse_matches_fresh_extraction() {
        let mut scratch = CriticalPathScratch::new();
        for seed in [11u64, 12, 13] {
            let plan = ScenarioPlan::generate(seed, &ScenarioConfig::default());
            let artifacts = execute_in(&plan, &mut ExecutionArena::default());
            let mut reused = Vec::new();
            scratch.extract(&artifacts.trace, |p| reused.push(p.clone()));
            assert_eq!(reused, critical_paths(&artifacts.trace), "seed {seed}");
        }
    }
}
