//! The byte formatter behind [`Trace::render`](crate::trace::Trace::render)
//! and [`Trace::render_fingerprint`](crate::trace::Trace::render_fingerprint).
//!
//! A rendered trace line is a handful of integers, a few fixed words and a
//! name or two. Going through `core::fmt` for that — a `write!` with width
//! arguments for the prefix, one `Display` dispatch per field — cost three
//! times what hashing the line does. This module writes the same bytes
//! directly: digits into a stack buffer, words with `extend_from_slice`.
//!
//! The text itself is pinned three ways: the unit tests below compare every
//! [`EventKind`] variant (and the padding edge cases) against the
//! `Display` rendering, the golden traces pin whole renderings, and the
//! 12k-seed digest pins their hashes. An event kind this module does not
//! know (the enum is `#[non_exhaustive]`) falls back to its `Display`.

use std::io::Write as _;

use caa_core::exception::Signal;
use caa_core::ids::ThreadId;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_runtime::observe::EventKind;
use caa_simnet::TapEvent;

/// Two decimal digits per step: `PAIRS[2 * n..][..2]` is `n` (< 100)
/// zero-padded.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes `n` in decimal into `buf` so that it ends just before `end`;
/// returns the index of its first digit (`u64::MAX` has 20 digits).
fn digits_before(buf: &mut [u8], end: usize, mut n: u64) -> usize {
    let mut at = end;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// `{n}`.
pub(crate) fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0; 20];
    let at = digits_before(&mut buf, 20, n);
    out.extend_from_slice(&buf[at..]);
}

fn push_str(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(text.as_bytes());
}

/// `" {t}"` for each thread — the tail of the suspicion events.
fn push_threads(out: &mut Vec<u8>, threads: &[ThreadId]) {
    for t in threads {
        push_str(out, " T");
        push_u64(out, u64::from(t.as_u32()));
    }
}

/// The line prefix `@{at_ns:>12} T{thread} #{seq:<4} A{label} `: both
/// paddings in spaces, neither ever truncating.
///
/// Assembled back to front in one stack buffer — a field's width is only
/// known once its digits are out — and appended in one go: eight little
/// appends per line were a third of the formatter's cost.
pub(crate) fn push_prefix(out: &mut Vec<u8>, at_ns: u64, thread: u32, seq: u64, label: u32) {
    const LEN: usize = 1 + 20 + 2 + 10 + 2 + 20 + 2 + 10 + 1;
    let mut buf = [b' '; LEN];
    // The last byte stays the separating space.
    let mut at = digits_before(&mut buf, LEN - 1, u64::from(label));
    buf[at - 2..at].copy_from_slice(b" A");
    at -= 2;
    // Left-aligned in 4: digits first, so shorter ones move left over the
    // spaces that then follow them.
    let first = digits_before(&mut buf, at, seq);
    let pad = 4usize.saturating_sub(at - first);
    buf.copy_within(first..at, first - pad);
    buf[at - pad..at].fill(b' ');
    at = first - pad;
    buf[at - 2..at].copy_from_slice(b" #");
    at = digits_before(&mut buf, at - 2, u64::from(thread));
    buf[at - 2..at].copy_from_slice(b" T");
    // Right-aligned in 12: the buffer is spaces already.
    at = digits_before(&mut buf, at - 2, at_ns).min(at - 2 - 12);
    buf[at - 1] = b'@';
    out.extend_from_slice(&buf[at - 1..]);
}

/// `{verb}{class} {src}->{dst}` — the shared head of the three network
/// lines.
pub(crate) fn push_net(out: &mut Vec<u8>, verb: &str, event: &TapEvent) {
    push_str(out, verb);
    push_str(out, event.class);
    push_str(out, " node");
    push_u64(out, u64::from(event.src.as_u32()));
    push_str(out, "->node");
    push_u64(out, u64::from(event.dst.as_u32()));
}

/// ` seq={seq} deliver@{deliver_at}` — the tail only a `net send` carries.
pub(crate) fn push_delivery(out: &mut Vec<u8>, event: &TapEvent) {
    push_str(out, " seq=");
    push_u64(out, event.seq);
    push_str(out, " deliver@");
    push_u64(out, event.deliver_at.as_nanos());
}

/// Exactly what `write!(out, "{kind}")` writes.
pub(crate) fn push_kind(out: &mut Vec<u8>, kind: &EventKind) {
    match kind {
        EventKind::Enter { name, role, depth } => {
            push_str(out, "enter ");
            push_str(out, name);
            push_str(out, " as ");
            push_str(out, role);
            push_str(out, " depth=");
            push_u64(out, *depth as u64);
        }
        EventKind::Exit { outcome } => {
            push_str(out, "exit ");
            match outcome {
                ActionOutcome::Success => push_str(out, "success"),
                ActionOutcome::Signalled(id) => {
                    push_str(out, "signalled ");
                    push_str(out, id.display_name());
                }
                ActionOutcome::Undone => push_str(out, "undone (µ)"),
                ActionOutcome::Failed => push_str(out, "failed (ƒ)"),
            }
        }
        EventKind::Abort { eab: Some(e) } => {
            push_str(out, "abort eab=");
            push_str(out, e.display_name());
        }
        EventKind::Abort { eab: None } => push_str(out, "abort"),
        EventKind::Raise { exception } => {
            push_str(out, "raise ");
            push_str(out, exception.display_name());
        }
        EventKind::RecoveryStart { raised: true } => push_str(out, "recovery raise"),
        EventKind::RecoveryStart { raised: false } => push_str(out, "recovery suspend"),
        EventKind::ResolutionInvoked { invocations } => {
            push_str(out, "resolve-invoked x");
            push_u64(out, u64::from(*invocations));
        }
        EventKind::Resolved { exception } => {
            push_str(out, "resolved ");
            push_str(out, exception.display_name());
        }
        EventKind::HandlerStart { exception } => {
            push_str(out, "handler-start ");
            push_str(out, exception.display_name());
        }
        // The two `{:?}` fields: their unit variants are plain words; a
        // variant carrying an exception prints its name `str`-escaped,
        // which is the formatter's business.
        EventKind::HandlerEnd { verdict } => {
            push_str(out, "handler-end ");
            match verdict {
                HandlerVerdict::Recovered => push_str(out, "Recovered"),
                HandlerVerdict::Undo => push_str(out, "Undo"),
                HandlerVerdict::Fail => push_str(out, "Fail"),
                HandlerVerdict::Signal(_) => {
                    let _ = write!(out, "{verdict:?}");
                }
            }
        }
        EventKind::SignalOutcome { signal } => {
            push_str(out, "signal ");
            match signal {
                Signal::None => push_str(out, "None"),
                Signal::Undo => push_str(out, "Undo"),
                Signal::Failure => push_str(out, "Failure"),
                Signal::Exception(_) => {
                    let _ = write!(out, "{signal:?}");
                }
            }
        }
        EventKind::ObjectAcquired { object, .. } => {
            push_str(out, "object acquire ");
            push_str(out, object);
        }
        EventKind::ExitStart { epoch } => {
            push_str(out, "exit start e");
            push_u64(out, u64::from(*epoch));
        }
        EventKind::ExitTimeout { epoch } => {
            push_str(out, "exit timeout e");
            push_u64(out, u64::from(*epoch));
        }
        EventKind::ResolutionTimeout { suspects } => {
            push_str(out, "resolution timeout suspects");
            push_threads(out, suspects);
        }
        EventKind::ViewChange { epoch, removed } => {
            push_str(out, "view change v");
            push_u64(out, u64::from(*epoch));
            push_str(out, " -");
            push_threads(out, removed);
        }
        EventKind::SignalTimeout { round, suspects } => {
            let _ = write!(out, "signal timeout {round} suspects");
            push_threads(out, suspects);
        }
        EventKind::Crash => push_str(out, "crash-stop"),
        EventKind::JoinRequested { to } => {
            push_str(out, "join request");
            push_threads(out, std::slice::from_ref(to));
        }
        EventKind::Rejoin { epoch, thread } => {
            push_str(out, "rejoin v");
            push_u64(out, u64::from(*epoch));
            push_str(out, " +");
            push_threads(out, std::slice::from_ref(thread));
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_core::exception::ExceptionId;
    use caa_core::ids::PartitionId;
    use caa_core::message::SignalRound;
    use caa_core::time::VirtualInstant;

    fn kind_bytes(kind: &EventKind) -> String {
        let mut out = Vec::new();
        push_kind(&mut out, kind);
        String::from_utf8(out).expect("rendered kinds are utf-8")
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
                    outcome: ActionOutcome::Signalled(e.clone()),
                },
                EventKind::Abort {
                    eab: Some(e.clone()),
                },
                EventKind::Raise {
                    exception: e.clone(),
                },
                EventKind::Resolved {
                    exception: e.clone(),
                },
                EventKind::HandlerStart {
                    exception: e.clone(),
                },
                EventKind::HandlerEnd {
                    verdict: HandlerVerdict::Signal(e.clone()),
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
                    let mut out = Vec::new();
                    push_prefix(&mut out, at_ns, thread, seq, label);
                    assert_eq!(
                        String::from_utf8(out).unwrap(),
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
        for n in samples {
            let mut out = Vec::new();
            push_u64(&mut out, n);
            assert_eq!(String::from_utf8(out).unwrap(), n.to_string());
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
            let mut out = Vec::new();
            push_net(&mut out, "net send ", &e);
            push_delivery(&mut out, &e);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                format!(
                    "net send {} {}->{} seq={} deliver@{}",
                    e.class,
                    e.src,
                    e.dst,
                    e.seq,
                    e.deliver_at.as_nanos()
                ),
            );
            let mut out = Vec::new();
            push_net(&mut out, "net drop ", &e);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                format!("net drop {} {}->{}", e.class, e.src, e.dst),
            );
        }
    }
}
