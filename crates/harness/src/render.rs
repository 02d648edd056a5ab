//! The byte formatter behind [`Trace::render`](crate::trace::Trace::render)
//! and [`Trace::render_fingerprint`](crate::trace::Trace::render_fingerprint).
//!
//! A rendered trace line is a handful of integers, a few fixed words and a
//! name or two. Going through `core::fmt` for that — a `write!` with width
//! arguments for the prefix, one `Display` dispatch per field — cost three
//! times what hashing the line byte by byte did; appending field by field
//! to a `Vec` still paid a capacity check and a call into libc's `memmove`
//! per field, ten a line. This module assembles the same bytes in a
//! [`Line`]: a cursor over a window of fixed size at the end of the
//! rendering ([`Lines`]), so that a line is written where it stays. A
//! number becomes text in a register and lands as one store of known
//! width, and so does a fixed word. A line that does not fit — a very long
//! action or exception name — is not patched up field by field: the cursor
//! sticks past the end, every later field is a no-op, and that one line is
//! rendered through `Display` instead ([`Lines::push`]).
//!
//! The assembler has one parameter, [`Numbers`]: how a number lands.
//! [`Decimal`] writes its text, padded as `Display` pads — the rendering.
//! [`Compact`] writes its eight little-endian bytes, unpadded — what the
//! fingerprint hashes: turning numbers into digits was most of what a
//! fingerprint cost, and only the hash read them. Every word, name and
//! field, and their order, is the assembler's and shared, so a fingerprint
//! covers exactly the fields the rendering shows, and there is no second
//! list of them to keep in step (the field-coverage tests below check
//! both lines field by field). An over-long line spills to its `Display`
//! text either way.
//!
//! The text itself is pinned three ways: the unit tests below compare every
//! [`EventKind`] variant, every kind of entry and the padding edge cases
//! against the `Display` rendering, the golden traces pin the hash of whole
//! renderings beside each fingerprint, and the 12k-seed digest pins the
//! fingerprints. An event kind this module does not know (the enum is
//! `#[non_exhaustive]`) falls back to its `Display`.

use std::fmt::Write as _;
use std::marker::PhantomData;

use caa_core::exception::Signal;
use caa_core::ids::ThreadId;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_runtime::observe::EventKind;
use caa_simnet::TapEvent;

/// Eight ASCII `0`s.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// `n` (< 10⁸) as eight ASCII digits, zero-padded, the most significant
/// in the lowest byte — `to_le_bytes` is the text.
///
/// Computed in one register, halving: two 4-digit numbers in the 32-bit
/// halves, four 2-digit numbers in the 16-bit quarters, eight digits in
/// the bytes; each division is a multiplication by a reciprocal that is
/// exact over its lane's range, and no lane's product reaches the next.
/// No table and no store a later load would have to wait for.
fn eight_digits(n: u64) -> u64 {
    debug_assert!(n < 100_000_000);
    let halves = (n / 10_000) | ((n % 10_000) << 32);
    // x / 100 for x < 10⁴.
    let hundreds = ((halves * 5_243) >> 19) & 0x0000_007f_0000_007f;
    let quarters = hundreds | ((halves - hundreds * 100) << 16);
    // x / 10 for x < 100.
    let tens = ((quarters * 103) >> 10) & 0x000f_000f_000f_000f;
    tens | ((quarters - tens * 10) << 8) | ZEROS
}

/// Eight digits without their leading zeros (`0` keeps one): the rest,
/// lowest byte first, and how many they are.
fn significant(digits: u64) -> (u64, usize) {
    let zeros = ((digits ^ ZEROS).trailing_zeros() as usize / 8).min(7);
    (digits >> (8 * zeros), 8 - zeros)
}

/// Bytes a [`Line`] assembles in place: a default-space line is 40 to 90
/// bytes of text, its fixed part at most 69 of them, and a fingerprint's
/// line, whose numbers take 8 bytes each, about a third longer.
const INLINE: usize = 256;

/// The widest store of known width ([`Line::push_window`]).
const WINDOW: usize = 12;

/// Where the cursor sticks once a field did not fit.
const OVERFLOWED: usize = usize::MAX;

/// How a [`Line`] lands a number: the one thing two kinds of line differ
/// in. The three columns are the three ways the rendering formats a number.
pub(crate) trait Numbers: Sized {
    /// `{n}`.
    fn push(line: &mut Line<'_, Self>, n: u64);
    /// `{n:>12}` — the timestamp column.
    fn push_right12(line: &mut Line<'_, Self>, n: u64);
    /// `{n:<4}` — the sequence column.
    fn push_left4(line: &mut Line<'_, Self>, n: u64);
}

/// Decimal text, padded with spaces as `Display` pads: what
/// [`Trace::render`](crate::trace::Trace::render) writes.
pub(crate) enum Decimal {}

impl Numbers for Decimal {
    #[inline]
    fn push(line: &mut Line<'_, Self>, n: u64) {
        if n < 10 {
            line.push_byte(b'0' + n as u8);
        } else {
            line.push_padded::<0>(n);
        }
    }

    #[inline]
    fn push_right12(line: &mut Line<'_, Self>, n: u64) {
        line.push_padded::<12>(n);
    }

    #[inline]
    fn push_left4(line: &mut Line<'_, Self>, n: u64) {
        Decimal::push(line, n);
        let pad = usize::from(n < 10) + usize::from(n < 100) + usize::from(n < 1000);
        line.push_window(b"   ", pad);
    }
}

/// The number's eight little-endian bytes, unpadded: what
/// [`Trace::render_fingerprint`](crate::trace::Trace::render_fingerprint)
/// hashes. A fixed width needs no padding and no delimiter to stay apart
/// from the field after it.
pub(crate) enum Compact {}

impl Numbers for Compact {
    #[inline]
    fn push(line: &mut Line<'_, Self>, n: u64) {
        line.push_window(&n.to_le_bytes(), 8);
    }

    #[inline]
    fn push_right12(line: &mut Line<'_, Self>, n: u64) {
        Compact::push(line, n);
    }

    #[inline]
    fn push_left4(line: &mut Line<'_, Self>, n: u64) {
        Compact::push(line, n);
    }
}

/// Lines assembled in place, one after another, at the end of one byte
/// buffer: a line's fields are written where the line will stay, and a
/// closed line is not copied again. The buffer keeps its length between
/// uses (`clear` only moves the end back), so a reused `Lines` assembles
/// into memory that is already there.
#[derive(Default)]
pub(crate) struct Lines {
    /// The closed lines (`..end`), then room for the next one.
    buf: Vec<u8>,
    end: usize,
}

impl Lines {
    /// No lines, and no buffer yet.
    pub(crate) const fn new() -> Lines {
        Lines {
            buf: Vec::new(),
            end: 0,
        }
    }

    /// Lines whose first `bytes` need no allocation.
    pub(crate) fn with_capacity(bytes: usize) -> Lines {
        Lines {
            buf: Vec::with_capacity(bytes + INLINE + WINDOW),
            end: 0,
        }
    }

    /// Drops every line, keeping the buffer.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.end = 0;
    }

    /// The closed lines.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf[..self.end]
    }

    /// The closed lines, in a buffer cut to their length.
    pub(crate) fn into_bytes(mut self) -> Vec<u8> {
        self.buf.truncate(self.end);
        self.buf
    }

    /// Appends the line `write` assembles, its numbers landing as `N` says.
    /// If a field of it did not fit a [`Line`], the line is `display`
    /// instead — the same text, by the formatter, on the heap.
    #[inline]
    pub(crate) fn push<N: Numbers>(
        &mut self,
        write: impl FnOnce(&mut Line<'_, N>),
        display: impl FnOnce() -> String,
    ) {
        let room = self.end + INLINE + WINDOW;
        if self.buf.len() < room {
            // Doubling, but within what is allocated while that lasts.
            let grown = (2 * self.buf.len()).min(self.buf.capacity());
            self.buf.resize(room.max(grown), 0);
        }
        let mut line = Line {
            len: 0,
            buf: (&mut self.buf[self.end..room])
                .try_into()
                .expect("a line's room"),
            numbers: PhantomData,
        };
        write(&mut line);
        let len = line.len;
        if len <= INLINE {
            self.end += len;
        } else {
            self.buf.truncate(self.end);
            self.buf.extend_from_slice(display().as_bytes());
            self.end = self.buf.len();
        }
    }
}

/// One line under assembly in [`Lines`]' buffer, its numbers landing as `N`
/// says.
pub(crate) struct Line<'a, N: Numbers> {
    /// The cursor: bytes written so far, or [`OVERFLOWED`].
    len: usize,
    /// Where the line goes: a window's width past `INLINE`, so that a cursor
    /// inside the line has room for a whole window without a second look.
    buf: &'a mut [u8; INLINE + WINDOW],
    numbers: PhantomData<N>,
}

impl<N: Numbers> Line<'_, N> {
    #[inline]
    pub(crate) fn push_str(&mut self, text: &str) {
        let fits = self.len <= INLINE && text.len() <= INLINE - self.len;
        if fits {
            self.buf[self.len..][..text.len()].copy_from_slice(text.as_bytes());
            self.len += text.len();
        } else {
            self.len = OVERFLOWED;
        }
    }

    #[inline]
    pub(crate) fn push_byte(&mut self, byte: u8) {
        self.push_window(&[byte], 1);
    }

    /// Appends the first `used` of `bytes` by storing all `W` of them, in
    /// one store of known width — the next append starts `used` further on
    /// and overwrites the rest.
    #[inline]
    fn push_window<const W: usize>(&mut self, bytes: &[u8; W], used: usize) {
        const { assert!(W <= WINDOW) };
        debug_assert!(used <= W);
        if self.len <= INLINE {
            self.buf[self.len..][..W].copy_from_slice(bytes);
            self.len += used;
        }
    }

    /// `{n}`, as `N` lands it.
    #[inline]
    pub(crate) fn push_u64(&mut self, n: u64) {
        N::push(self, n);
    }

    /// `{n:>WIDTH}` in decimal text, padded with spaces (`WIDTH` ≤ 12).
    #[inline]
    fn push_padded<const WIDTH: usize>(&mut self, n: u64) {
        const E8: u64 = 100_000_000;
        // In chunks of eight digits, of which `u64::MAX` has three; the
        // leading zeros of the first are not text.
        let (high, mid, low) = (n / (E8 * E8), n / E8 % E8, n % E8);
        let (first, chunks) = match (high, mid) {
            (0, 0) => (low, 1),
            (0, _) => (mid, 2),
            _ => (high, 3),
        };
        let (text, digits) = significant(eight_digits(first));
        if WIDTH > 0 {
            let width = digits + 8 * (chunks - 1);
            self.push_window(b"            ", WIDTH.saturating_sub(width));
        }
        self.push_window(&text.to_le_bytes(), digits);
        if chunks == 3 {
            self.push_window(&eight_digits(mid).to_le_bytes(), 8);
        }
        if chunks >= 2 {
            self.push_window(&eight_digits(low).to_le_bytes(), 8);
        }
    }

    /// `" T{t}"` for each thread — the tail of the suspicion events.
    fn push_threads(&mut self, threads: &[ThreadId]) {
        for t in threads {
            self.push_str(" T");
            self.push_u64(u64::from(t.as_u32()));
        }
    }

    /// The line prefix `@{at_ns:>12} T{thread} #{seq:<4} A{label} `: both
    /// paddings in spaces, neither ever truncating.
    pub(crate) fn push_prefix(&mut self, at_ns: u64, thread: u32, seq: u64, label: u32) {
        self.push_byte(b'@');
        N::push_right12(self, at_ns);
        self.push_str(" T");
        self.push_u64(u64::from(thread));
        self.push_str(" #");
        N::push_left4(self, seq);
        self.push_str(" A");
        self.push_u64(u64::from(label));
        self.push_byte(b' ');
    }

    /// `{verb}{class} {src}->{dst}` — the shared head of the three network
    /// lines.
    pub(crate) fn push_net(&mut self, verb: &str, event: &TapEvent) {
        self.push_str(verb);
        self.push_str(event.class);
        self.push_str(" node");
        self.push_u64(u64::from(event.src.as_u32()));
        self.push_str("->node");
        self.push_u64(u64::from(event.dst.as_u32()));
    }

    /// ` seq={seq} deliver@{deliver_at}` — the tail only a `net send`
    /// carries.
    pub(crate) fn push_delivery(&mut self, event: &TapEvent) {
        self.push_str(" seq=");
        self.push_u64(event.seq);
        self.push_str(" deliver@");
        self.push_u64(event.deliver_at.as_nanos());
    }

    /// Exactly what `write!(out, "{kind}")` writes.
    pub(crate) fn push_kind(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Enter { name, role, depth } => {
                self.push_str("enter ");
                self.push_str(name);
                self.push_str(" as ");
                self.push_str(role);
                self.push_str(" depth=");
                self.push_u64(*depth as u64);
            }
            EventKind::Exit { outcome } => {
                self.push_str("exit ");
                match outcome {
                    ActionOutcome::Success => self.push_str("success"),
                    ActionOutcome::Signalled(id) => {
                        self.push_str("signalled ");
                        self.push_str(id.display_name());
                    }
                    ActionOutcome::Undone => self.push_str("undone (µ)"),
                    ActionOutcome::Failed => self.push_str("failed (ƒ)"),
                }
            }
            EventKind::Abort { eab: Some(e) } => {
                self.push_str("abort eab=");
                self.push_str(e.display_name());
            }
            EventKind::Abort { eab: None } => self.push_str("abort"),
            EventKind::Raise { exception } => {
                self.push_str("raise ");
                self.push_str(exception.display_name());
            }
            EventKind::RecoveryStart { raised: true } => self.push_str("recovery raise"),
            EventKind::RecoveryStart { raised: false } => self.push_str("recovery suspend"),
            EventKind::ResolutionInvoked { invocations } => {
                self.push_str("resolve-invoked x");
                self.push_u64(u64::from(*invocations));
            }
            EventKind::Resolved { exception } => {
                self.push_str("resolved ");
                self.push_str(exception.display_name());
            }
            EventKind::HandlerStart { exception } => {
                self.push_str("handler-start ");
                self.push_str(exception.display_name());
            }
            // The two `{:?}` fields: their unit variants are plain words; a
            // variant carrying an exception prints its name `str`-escaped,
            // which is the formatter's business.
            EventKind::HandlerEnd { verdict } => {
                self.push_str("handler-end ");
                match verdict {
                    HandlerVerdict::Recovered => self.push_str("Recovered"),
                    HandlerVerdict::Undo => self.push_str("Undo"),
                    HandlerVerdict::Fail => self.push_str("Fail"),
                    HandlerVerdict::Signal(_) => {
                        let _ = write!(self, "{verdict:?}");
                    }
                }
            }
            EventKind::SignalOutcome { signal } => {
                self.push_str("signal ");
                match signal {
                    Signal::None => self.push_str("None"),
                    Signal::Undo => self.push_str("Undo"),
                    Signal::Failure => self.push_str("Failure"),
                    Signal::Exception(_) => {
                        let _ = write!(self, "{signal:?}");
                    }
                }
            }
            EventKind::ObjectAcquired { object, .. } => {
                self.push_str("object acquire ");
                self.push_str(object);
            }
            EventKind::ExitStart { epoch } => {
                self.push_str("exit start e");
                self.push_u64(u64::from(*epoch));
            }
            EventKind::ExitTimeout { epoch } => {
                self.push_str("exit timeout e");
                self.push_u64(u64::from(*epoch));
            }
            EventKind::ResolutionTimeout { suspects } => {
                self.push_str("resolution timeout suspects");
                self.push_threads(suspects);
            }
            EventKind::ViewChange { epoch, removed } => {
                self.push_str("view change v");
                self.push_u64(u64::from(*epoch));
                self.push_str(" -");
                self.push_threads(removed);
            }
            EventKind::SignalTimeout { round, suspects } => {
                let _ = write!(self, "signal timeout {round} suspects");
                self.push_threads(suspects);
            }
            EventKind::Crash => self.push_str("crash-stop"),
            EventKind::JoinRequested { to } => {
                self.push_str("join request");
                self.push_threads(std::slice::from_ref(to));
            }
            EventKind::Rejoin { epoch, thread } => {
                self.push_str("rejoin v");
                self.push_u64(u64::from(*epoch));
                self.push_str(" +");
                self.push_threads(std::slice::from_ref(thread));
            }
            other => {
                let _ = write!(self, "{other}");
            }
        }
    }
}

/// For the few fields that do go through the formatter.
impl<N: Numbers> std::fmt::Write for Line<'_, N> {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        self.push_str(text);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{kinds_render_equal, Entry, EntryKind};
    use caa_core::exception::ExceptionId;
    use caa_core::ids::{ActionId, PartitionId};
    use caa_core::message::SignalRound;
    use caa_core::name::Name;
    use caa_core::time::VirtualInstant;
    use caa_runtime::observe::Event;

    /// What `write` assembles, as text.
    fn line(write: impl FnOnce(&mut Line<'_, Decimal>)) -> String {
        let mut lines = Lines::new();
        lines.push(write, || unreachable!("a test line fits"));
        String::from_utf8(lines.into_bytes()).expect("rendered lines are utf-8")
    }

    fn kind_bytes(kind: &EventKind) -> String {
        line(|l| l.push_kind(kind))
    }

    /// Every variant, with the payloads that take a different branch: the
    /// pre-defined exceptions (`µ`, `ƒ` print as symbols), names outside
    /// ASCII, names `{:?}` has to escape, empty and multi-member thread
    /// lists, multi-digit numbers.
    fn every_kind() -> Vec<EventKind> {
        let named = |name: &str| ExceptionId::new(name);
        let exceptions = [
            named("a0.1_e3"),
            ExceptionId::undo(),
            ExceptionId::failure(),
            ExceptionId::universal(),
            ExceptionId::abortion(),
            ExceptionId::crash(),
            named("µ-like ƒ name"),
            named("quote\" back\\slash\ttab"),
        ];
        let threads = |ids: &[u32]| ids.iter().map(|&t| ThreadId::new(t)).collect::<Vec<_>>();
        let mut kinds = vec![
            EventKind::Enter {
                name: "a0.1".into(),
                role: "r12".into(),
                depth: 3,
            },
            EventKind::Enter {
                name: "ƒµ".into(),
                role: "".into(),
                depth: 12_345,
            },
            EventKind::Exit {
                outcome: ActionOutcome::Success,
            },
            EventKind::Exit {
                outcome: ActionOutcome::Undone,
            },
            EventKind::Exit {
                outcome: ActionOutcome::Failed,
            },
            EventKind::Abort { eab: None },
            EventKind::RecoveryStart { raised: true },
            EventKind::RecoveryStart { raised: false },
            EventKind::ResolutionInvoked { invocations: 0 },
            EventKind::ResolutionInvoked {
                invocations: u32::MAX,
            },
            EventKind::HandlerEnd {
                verdict: HandlerVerdict::Recovered,
            },
            EventKind::HandlerEnd {
                verdict: HandlerVerdict::Undo,
            },
            EventKind::HandlerEnd {
                verdict: HandlerVerdict::Fail,
            },
            EventKind::SignalOutcome {
                signal: Signal::None,
            },
            EventKind::SignalOutcome {
                signal: Signal::Undo,
            },
            EventKind::SignalOutcome {
                signal: Signal::Failure,
            },
            EventKind::ObjectAcquired {
                object: "ledger-µ".into(),
                waited_ns: 77,
            },
            EventKind::ExitStart { epoch: 0 },
            EventKind::ExitStart { epoch: 10_000 },
            EventKind::ExitTimeout { epoch: 7 },
            EventKind::Crash,
            EventKind::JoinRequested {
                to: ThreadId::new(41),
            },
            EventKind::Rejoin {
                epoch: 3,
                thread: ThreadId::new(0),
            },
        ];
        for suspects in [threads(&[]), threads(&[4]), threads(&[0, 17, 100_000])] {
            kinds.push(EventKind::ResolutionTimeout {
                suspects: suspects.clone(),
            });
            kinds.push(EventKind::ViewChange {
                epoch: 12,
                removed: suspects.clone(),
            });
            for round in [SignalRound::First, SignalRound::AfterUndo] {
                kinds.push(EventKind::SignalTimeout {
                    round,
                    suspects: suspects.clone(),
                });
            }
        }
        for e in exceptions {
            kinds.extend([
                EventKind::Exit {
                    outcome: ActionOutcome::Signalled(e),
                },
                EventKind::Abort { eab: Some(e) },
                EventKind::Raise { exception: e },
                EventKind::Resolved { exception: e },
                EventKind::HandlerStart { exception: e },
                EventKind::HandlerEnd {
                    verdict: HandlerVerdict::Signal(e),
                },
                EventKind::SignalOutcome {
                    signal: Signal::Exception(e),
                },
            ]);
        }
        kinds
    }

    #[test]
    fn every_event_kind_renders_like_its_display() {
        let kinds = every_kind();
        // One of each variant at least; a variant the runtime grows later
        // lands in the last slot until `every_kind` learns it.
        let mut seen = [false; 20];
        for kind in &kinds {
            let slot = match kind {
                EventKind::Enter { .. } => 0,
                EventKind::Exit { .. } => 1,
                EventKind::Abort { .. } => 2,
                EventKind::Raise { .. } => 3,
                EventKind::RecoveryStart { .. } => 4,
                EventKind::ResolutionInvoked { .. } => 5,
                EventKind::Resolved { .. } => 6,
                EventKind::HandlerStart { .. } => 7,
                EventKind::HandlerEnd { .. } => 8,
                EventKind::SignalOutcome { .. } => 9,
                EventKind::ObjectAcquired { .. } => 10,
                EventKind::ExitStart { .. } => 11,
                EventKind::ExitTimeout { .. } => 12,
                EventKind::SignalTimeout { .. } => 13,
                EventKind::ResolutionTimeout { .. } => 14,
                EventKind::ViewChange { .. } => 15,
                EventKind::Crash => 16,
                EventKind::JoinRequested { .. } => 17,
                EventKind::Rejoin { .. } => 18,
                _ => 19,
            };
            seen[slot] = true;
            assert_eq!(kind_bytes(kind), kind.to_string(), "{kind:?}");
        }
        assert_eq!(seen, {
            let mut all = [true; 20];
            all[19] = false;
            all
        });
    }

    /// An entry's two lines: its rendering and what its fingerprint hashes.
    fn both_lines(entry: &Entry) -> (Vec<u8>, Vec<u8>) {
        let mut decimal = Lines::new();
        let mut compact = Lines::new();
        entry.render::<Decimal>(&mut decimal);
        entry.render::<Compact>(&mut compact);
        (decimal.into_bytes(), compact.into_bytes())
    }

    fn runtime_entry(kind: EventKind) -> Entry {
        Entry {
            at_ns: 5_000,
            thread: 3,
            label: 7,
            seq: 12,
            kind: EntryKind::Runtime(Event {
                at: VirtualInstant::from_nanos(5_000),
                thread: ThreadId::new(3),
                action: ActionId::top_level(1),
                kind,
            }),
        }
    }

    /// One entry of each network kind.
    fn net_entries() -> [Entry; 3] {
        let tap = TapEvent {
            src: PartitionId::new(2),
            dst: PartitionId::new(9),
            class: "toBeSignalled",
            correlation: 1,
            at: VirtualInstant::from_nanos(5_000),
            deliver_at: VirtualInstant::from_nanos(6_000_000),
            seq: 40,
        };
        [
            EntryKind::NetSent,
            EntryKind::NetDropped,
            EntryKind::NetCorrupted,
        ]
        .map(|kind| Entry {
            kind: kind(tap.clone()),
            ..runtime_entry(EventKind::Crash)
        })
    }

    /// Copies of `kind`, each with one rendered field changed.
    fn each_field_changed(kind: &EventKind) -> Vec<EventKind> {
        // Every other value of a field.
        fn others<T: PartialEq>(value: &T, all: Vec<T>) -> Vec<T> {
            all.into_iter().filter(|v| v != value).collect()
        }
        let renamed = |name: &str| Name::from(format!("{name}'").as_str());
        let other = |e: &ExceptionId| ExceptionId::new(format!("{}'", e.name()).as_str());
        let thread = |t: &ThreadId| ThreadId::new(t.as_u32() ^ 1);
        // One more, one changed, one fewer.
        let lists = |threads: &[ThreadId]| {
            let mut lists = vec![[threads, &[ThreadId::new(5)]].concat()];
            if let Some(first) = threads.first() {
                lists.push([&[thread(first)], &threads[1..]].concat());
                lists.push(threads[1..].to_vec());
            }
            lists
        };
        let (x, y) = (ExceptionId::new("x"), ExceptionId::new("y"));
        match kind {
            EventKind::Enter { name, role, depth } => vec![
                EventKind::Enter {
                    name: renamed(name),
                    role: *role,
                    depth: *depth,
                },
                EventKind::Enter {
                    name: *name,
                    role: renamed(role),
                    depth: *depth,
                },
                EventKind::Enter {
                    name: *name,
                    role: *role,
                    depth: depth ^ 1,
                },
            ],
            EventKind::Exit { outcome } => {
                let all = vec![
                    ActionOutcome::Success,
                    ActionOutcome::Undone,
                    ActionOutcome::Failed,
                    ActionOutcome::Signalled(x),
                    ActionOutcome::Signalled(y),
                ];
                others(outcome, all)
                    .into_iter()
                    .map(|outcome| EventKind::Exit { outcome })
                    .collect()
            }
            EventKind::Abort { eab } => others(eab, vec![None, Some(x), Some(y)])
                .into_iter()
                .map(|eab| EventKind::Abort { eab })
                .collect(),
            EventKind::Raise { exception } => vec![EventKind::Raise {
                exception: other(exception),
            }],
            EventKind::RecoveryStart { raised } => {
                vec![EventKind::RecoveryStart { raised: !raised }]
            }
            EventKind::ResolutionInvoked { invocations } => vec![EventKind::ResolutionInvoked {
                invocations: invocations ^ 1,
            }],
            EventKind::Resolved { exception } => vec![EventKind::Resolved {
                exception: other(exception),
            }],
            EventKind::HandlerStart { exception } => vec![EventKind::HandlerStart {
                exception: other(exception),
            }],
            EventKind::HandlerEnd { verdict } => {
                let all = vec![
                    HandlerVerdict::Recovered,
                    HandlerVerdict::Undo,
                    HandlerVerdict::Fail,
                    HandlerVerdict::Signal(x),
                    HandlerVerdict::Signal(y),
                ];
                others(verdict, all)
                    .into_iter()
                    .map(|verdict| EventKind::HandlerEnd { verdict })
                    .collect()
            }
            EventKind::SignalOutcome { signal } => {
                let all = vec![
                    Signal::None,
                    Signal::Undo,
                    Signal::Failure,
                    Signal::Exception(x),
                    Signal::Exception(y),
                ];
                others(signal, all)
                    .into_iter()
                    .map(|signal| EventKind::SignalOutcome { signal })
                    .collect()
            }
            EventKind::ObjectAcquired { object, waited_ns } => vec![EventKind::ObjectAcquired {
                object: renamed(object),
                waited_ns: *waited_ns,
            }],
            EventKind::ExitStart { epoch } => vec![EventKind::ExitStart { epoch: epoch ^ 1 }],
            EventKind::ExitTimeout { epoch } => vec![EventKind::ExitTimeout { epoch: epoch ^ 1 }],
            EventKind::SignalTimeout { round, suspects } => {
                let mut changed = vec![EventKind::SignalTimeout {
                    round: match round {
                        SignalRound::First => SignalRound::AfterUndo,
                        SignalRound::AfterUndo => SignalRound::First,
                    },
                    suspects: suspects.clone(),
                }];
                changed.extend(lists(suspects).into_iter().map(|suspects| {
                    EventKind::SignalTimeout {
                        round: *round,
                        suspects,
                    }
                }));
                changed
            }
            EventKind::ResolutionTimeout { suspects } => lists(suspects)
                .into_iter()
                .map(|suspects| EventKind::ResolutionTimeout { suspects })
                .collect(),
            EventKind::ViewChange { epoch, removed } => {
                let mut changed = vec![EventKind::ViewChange {
                    epoch: epoch ^ 1,
                    removed: removed.clone(),
                }];
                changed.extend(
                    lists(removed)
                        .into_iter()
                        .map(|removed| EventKind::ViewChange {
                            epoch: *epoch,
                            removed,
                        }),
                );
                changed
            }
            EventKind::Crash => Vec::new(),
            EventKind::JoinRequested { to } => vec![EventKind::JoinRequested { to: thread(to) }],
            EventKind::Rejoin { epoch, thread: t } => vec![
                EventKind::Rejoin {
                    epoch: epoch ^ 1,
                    thread: *t,
                },
                EventKind::Rejoin {
                    epoch: *epoch,
                    thread: thread(t),
                },
            ],
            other => panic!("`each_field_changed` does not know {other:?} yet"),
        }
    }

    /// `changed` differs from `entry` in a field the rendering shows: both
    /// of its lines differ from `entry`'s.
    fn assert_both_lines_move(entry: &Entry, changed: &Entry) {
        let (decimal, compact) = both_lines(entry);
        let (decimal2, compact2) = both_lines(changed);
        assert_ne!(decimal, decimal2, "{changed:?}: the rendering missed it");
        assert_ne!(compact, compact2, "{changed:?}: the fingerprint missed it");
    }

    /// `changed` differs from `entry` only where the rendering looks away:
    /// neither line moves.
    fn assert_neither_line_moves(entry: &Entry, changed: &Entry) {
        assert_ne!(entry, changed, "nothing was changed");
        assert_eq!(both_lines(entry), both_lines(changed), "{changed:?}");
    }

    /// Copies of `entry` with one field of its kind changed, each with
    /// whether the rendering shows that field.
    fn kind_changes(entry: &Entry) -> Vec<(Entry, bool)> {
        let with_kind = |kind: EntryKind| Entry {
            kind,
            ..entry.clone()
        };
        match &entry.kind {
            EntryKind::Runtime(event) => {
                let with_event = |event: Event| with_kind(EntryKind::Runtime(event));
                let mut changes: Vec<(Entry, bool)> = each_field_changed(&event.kind)
                    .into_iter()
                    .map(|kind| {
                        (
                            with_event(Event {
                                kind,
                                ..event.clone()
                            }),
                            true,
                        )
                    })
                    .collect();
                changes.push((
                    with_event(Event {
                        action: ActionId::top_level(2),
                        ..event.clone()
                    }),
                    false,
                ));
                if let EventKind::ObjectAcquired { object, waited_ns } = event.kind {
                    let kind = EventKind::ObjectAcquired {
                        object,
                        waited_ns: waited_ns + 1,
                    };
                    changes.push((
                        with_event(Event {
                            kind,
                            ..event.clone()
                        }),
                        false,
                    ));
                }
                changes
            }
            EntryKind::NetSent(tap) | EntryKind::NetDropped(tap) | EntryKind::NetCorrupted(tap) => {
                let sent = matches!(entry.kind, EntryKind::NetSent(_));
                // A drop or a corruption shows no sequence number and no
                // delivery instant; no line shows the correlation or the
                // send instant (the entry's own instant is the prefix's).
                type Change = fn(&mut TapEvent);
                let fields: [(Change, bool); 7] = [
                    (|t| t.class = "Commit", true),
                    (|t| t.src = PartitionId::new(t.src.as_u32() ^ 1), true),
                    (|t| t.dst = PartitionId::new(t.dst.as_u32() ^ 1), true),
                    (|t| t.seq ^= 1, sent),
                    (
                        |t| t.deliver_at = VirtualInstant::from_nanos(t.deliver_at.as_nanos() ^ 1),
                        sent,
                    ),
                    (|t| t.correlation ^= 1, false),
                    (
                        |t| t.at = VirtualInstant::from_nanos(t.at.as_nanos() ^ 1),
                        false,
                    ),
                ];
                fields
                    .into_iter()
                    .map(|(change, shown)| {
                        let mut tap = tap.clone();
                        change(&mut tap);
                        let kind = match entry.kind {
                            EntryKind::NetSent(_) => EntryKind::NetSent(tap),
                            EntryKind::NetDropped(_) => EntryKind::NetDropped(tap),
                            _ => EntryKind::NetCorrupted(tap),
                        };
                        (with_kind(kind), shown)
                    })
                    .collect()
            }
        }
    }

    /// Every kind of entry, and each of them with one field changed.
    fn entries_and_changes() -> Vec<(Entry, Vec<(Entry, bool)>)> {
        let mut entries: Vec<Entry> = every_kind().into_iter().map(runtime_entry).collect();
        entries.extend(net_entries());
        entries
            .into_iter()
            .map(|entry| {
                let changes = kind_changes(&entry);
                (entry, changes)
            })
            .collect()
    }

    /// The fingerprint covers the fields the rendering shows, no more and
    /// no fewer: one assembler writes both lines, and only how a number
    /// lands differs.
    #[test]
    fn a_fingerprint_line_moves_with_every_rendered_field_and_no_other() {
        for (entry, changes) in entries_and_changes() {
            // The prefix (an event's instant and thread are the entry's).
            let mut prefixes = [entry.clone(), entry.clone(), entry.clone(), entry.clone()];
            prefixes[0].at_ns ^= 1;
            prefixes[1].thread ^= 1;
            prefixes[2].seq ^= 1;
            prefixes[3].label ^= 1;
            if let EntryKind::Runtime(event) = &mut prefixes[0].kind {
                event.at = VirtualInstant::from_nanos(prefixes[0].at_ns);
            }
            if let EntryKind::Runtime(event) = &mut prefixes[1].kind {
                event.thread = ThreadId::new(prefixes[1].thread);
            }
            for changed in &prefixes {
                assert_both_lines_move(&entry, changed);
            }
            for (changed, shown) in &changes {
                if *shown {
                    assert_both_lines_move(&entry, changed);
                } else {
                    assert_neither_line_moves(&entry, changed);
                }
            }
        }
    }

    /// The replay oracle's structural fast path reads the same field list:
    /// two entry kinds are render-equal exactly when their fingerprint
    /// lines are equal — over every kind of entry and every one-field
    /// change of it, shown or not.
    #[test]
    fn render_equal_kinds_are_the_kinds_with_equal_fingerprint_lines() {
        let entries: Vec<Entry> = entries_and_changes()
            .into_iter()
            .flat_map(|(entry, changes)| {
                std::iter::once(entry).chain(changes.into_iter().map(|(changed, _)| changed))
            })
            .collect();
        let lines: Vec<Vec<u8>> = entries.iter().map(|e| both_lines(e).1).collect();
        for (a, line_a) in entries.iter().zip(&lines) {
            for (b, line_b) in entries.iter().zip(&lines) {
                assert_eq!(
                    kinds_render_equal(&a.kind, &b.kind),
                    line_a == line_b,
                    "{a:?} / {b:?}"
                );
            }
        }
    }

    #[test]
    fn the_prefix_pads_like_the_width_arguments_it_replaces() {
        // `at_ns` past the 12-column pad (crash plans reach 16 digits),
        // `seq` past its 4, and the extremes of every field.
        let ats = [
            0,
            9,
            999_999_999_999,
            1_000_000_000_000,
            6_060_060_358_333_817,
            u64::MAX,
        ];
        let seqs = [0, 9, 10, 999, 1_000, 9_999, 10_000, 123_456_789, u64::MAX];
        for at_ns in ats {
            for seq in seqs {
                for (thread, label) in [(0, 0), (7, 12), (100, 4_321), (u32::MAX, u32::MAX)] {
                    assert_eq!(
                        line(|l| l.push_prefix(at_ns, thread, seq, label)),
                        format!("@{at_ns:>12} T{thread} #{seq:<4} A{label} "),
                    );
                }
            }
        }
    }

    #[test]
    fn every_integer_width_formats_like_display() {
        // Around every power of ten, and mid-decade.
        let mut samples = vec![0u64, u64::MAX];
        let mut power = Some(1u64);
        while let Some(n) = power {
            samples.extend([n - 1, n, n + 1, n / 2 * 3]);
            power = n.checked_mul(10);
        }
        // Every value of the lanes the digits are computed in (two digits,
        // four digits), and a walk over all three eight-digit chunks.
        samples.extend(0..=10_000);
        let mut walk = 1u64;
        for _ in 0..20_000 {
            walk = walk.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            samples.extend([walk, walk >> 11, walk >> 38, walk % 100_000_000]);
        }
        for n in samples {
            assert_eq!(line(|l| l.push_u64(n)), n.to_string());
            assert_eq!(line(|l| l.push_padded::<12>(n)), format!("{n:>12}"));
        }
    }

    #[test]
    fn network_lines_render_like_the_format_strings_they_replace() {
        for (src, dst, seq, deliver) in [
            (0, 1, 0, 7),
            (12, 3, 9_999, 999_999_999_999),
            (4, 40, 10_000, 6_060_060_358_333_817),
        ] {
            let e = TapEvent {
                src: PartitionId::new(src),
                dst: PartitionId::new(dst),
                class: "toBeSignalled",
                correlation: 9,
                at: VirtualInstant::from_nanos(2),
                deliver_at: VirtualInstant::from_nanos(deliver),
                seq,
            };
            assert_eq!(
                line(|l| {
                    l.push_net("net send ", &e);
                    l.push_delivery(&e);
                }),
                format!(
                    "net send {} {}->{} seq={} deliver@{}",
                    e.class,
                    e.src,
                    e.dst,
                    e.seq,
                    e.deliver_at.as_nanos()
                ),
            );
            assert_eq!(
                line(|l| l.push_net("net drop ", &e)),
                format!("net drop {} {}->{}", e.class, e.src, e.dst),
            );
        }
    }

    /// Whole lines of every kind of entry, through a recorder and
    /// `Trace::render`, against the format strings the module replaces.
    #[test]
    fn whole_lines_of_every_entry_kind_render_like_display() {
        use crate::trace::{hash64, EntryKind, TraceRecorder};
        use caa_core::ids::ActionId;
        use caa_runtime::observe::{Event, Observer};
        use caa_simnet::NetTap;

        let rec = TraceRecorder::new();
        // Instants of every width up to 17 digits: five past the pad.
        let mut events = 0u32;
        let mut next_at = || {
            events += 1;
            10u64.pow(events % 17) + u64::from(events)
        };
        for (i, kind) in every_kind().into_iter().enumerate() {
            rec.on_event(Event {
                at: VirtualInstant::from_nanos(next_at()),
                thread: ThreadId::new(i as u32 % 11),
                action: ActionId::top_level(1 + i as u64 % 13),
                kind,
            });
        }
        for (i, tap) in [NetTap::on_sent, NetTap::on_dropped, NetTap::on_corrupted]
            .into_iter()
            .cycle()
            .take(12)
            .enumerate()
        {
            let at = next_at();
            tap(
                rec.as_ref(),
                &TapEvent {
                    src: PartitionId::new(i as u32 % 5),
                    dst: PartitionId::new(40 + i as u32),
                    class: ["Exception", "toBeSignalled", "App"][i % 3],
                    correlation: 1 + i as u64 % 13,
                    at: VirtualInstant::from_nanos(at),
                    deliver_at: VirtualInstant::from_nanos(at + 1_000_000 * i as u64),
                    seq: [0, 9_999, 10_000][i % 3],
                },
            );
        }
        let trace = rec.finish();
        let mut expected = String::new();
        for e in trace.entries() {
            let (at_ns, thread, seq, label) = (e.at_ns, e.thread, e.seq, e.label);
            let _ = write!(expected, "@{at_ns:>12} T{thread} #{seq:<4} A{label} ");
            let _ = match &e.kind {
                EntryKind::Runtime(ev) => writeln!(expected, "{}", ev.kind),
                EntryKind::NetSent(t) => writeln!(
                    expected,
                    "net send {} {}->{} seq={} deliver@{}",
                    t.class,
                    t.src,
                    t.dst,
                    t.seq,
                    t.deliver_at.as_nanos()
                ),
                EntryKind::NetDropped(t) => {
                    writeln!(expected, "net drop {} {}->{}", t.class, t.src, t.dst)
                }
                EntryKind::NetCorrupted(t) => {
                    writeln!(expected, "net corrupt {} {}->{}", t.class, t.src, t.dst)
                }
            };
        }
        assert_eq!(trace.render(), expected);
        // The fingerprint hashes the same lines with their numbers as bytes:
        // equal for the same recording, and not the text's hash.
        let again = rec.finish();
        assert_eq!(trace.render_fingerprint(), again.render_fingerprint());
        assert_eq!(
            trace.render_fingerprint(),
            hash64(&trace.fingerprint_bytes())
        );
        assert_ne!(trace.render_fingerprint(), hash64(expected.as_bytes()));
        assert_eq!(trace.first_divergence(&again), None);
    }

    /// A line that outgrows the buffer — at whichever field — is rendered
    /// by the formatter instead, and the next line is assembled in place
    /// again.
    #[test]
    fn an_over_long_line_takes_the_display_path_and_renders_the_same() {
        use crate::trace::{Entry, EntryKind};
        use caa_core::ids::ActionId;
        use caa_runtime::observe::Event;

        for len in [
            0,
            1,
            INLINE - 70,
            INLINE - 40,
            INLINE - 1,
            INLINE,
            INLINE + 1,
            300,
            5_000,
        ] {
            let name: String = "nµ".chars().cycle().take(len).collect();
            let kinds = [
                EventKind::Enter {
                    name: name.as_str().into(),
                    role: name.as_str().into(),
                    depth: 2,
                },
                EventKind::Raise {
                    exception: ExceptionId::new(name.as_str()),
                },
                EventKind::HandlerEnd {
                    verdict: HandlerVerdict::Signal(ExceptionId::new(name.as_str())),
                },
                EventKind::Crash,
            ];
            let mut shared = Lines::new();
            for kind in kinds {
                let expected = format!("@{:>12} T3 #{:<4} A7 {kind}\n", 5, 6);
                let entry = Entry {
                    at_ns: 5,
                    thread: 3,
                    label: 7,
                    seq: 6,
                    kind: EntryKind::Runtime(Event {
                        at: VirtualInstant::from_nanos(5),
                        thread: ThreadId::new(3),
                        action: ActionId::top_level(1),
                        kind,
                    }),
                };
                assert_eq!(format!("{entry}\n"), expected);
                let start = shared.end;
                entry.render::<Decimal>(&mut shared);
                assert_eq!(
                    std::str::from_utf8(&shared.bytes()[start..]),
                    Ok(&*expected),
                    "name of {len} chars"
                );
                // A line assembled in place leaves the rest of its room
                // behind it; a spilled one was appended at the very end.
                let fitted = expected.len() <= INLINE;
                assert_eq!(shared.buf.len() > shared.end, fitted, "name of {len} chars");
            }
        }
    }
}
