//! Spans: named virtual-time intervals with parent links.
//!
//! A [`Span`] is the timeline primitive the harness derives *post-run*
//! from a recorded trace (see `caa-harness`'s `spans` module): a named
//! interval of virtual time on one thread, attributed to one action
//! instance, optionally nested under a parent span. A [`SpanTree`] owns a
//! run's spans in a flat arena — children are pushed after their parents
//! and refer to them by index, so construction is a single forward pass
//! and rendering never chases pointers.
//!
//! Like everything in this crate, spans are pure data derived from
//! virtual-time facts: the same trace yields byte-identical
//! [`SpanTree::render`] output on any machine, which is what the harness's
//! span-determinism tests assert.

use std::fmt::{self, Write as _};

/// A span's name, held in the parts it is made of instead of as assembled
/// text: a fixed prefix (`action:`, `exit:e`, or the whole of a fixed name
/// such as `signalling`) and what follows it — a word (whatever the span is
/// about names itself by an interned, `'static` text: an action
/// definition, an exception, an object) or a number. Naming a span
/// therefore copies a few words; the text exists only where it is shown
/// ([`fmt::Display`]).
///
/// Two names are equal when their texts are, however they were put
/// together.
///
/// # Examples
///
/// ```
/// use caa_telemetry::SpanName;
///
/// assert_eq!(SpanName::word("action:", "payment").to_string(), "action:payment");
/// assert_eq!(SpanName::numbered("resolution:r", 2).to_string(), "resolution:r2");
/// assert_eq!(SpanName::word("handler:", "µ"), SpanName::plain("handler:µ"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpanName {
    prefix: &'static str,
    rest: Rest,
}

#[derive(Debug, Clone, Copy)]
enum Rest {
    Nothing,
    Word(&'static str),
    Number(u64),
}

impl SpanName {
    /// A fixed name: `signalling`, `crash-detect`.
    #[must_use]
    pub fn plain(name: &'static str) -> SpanName {
        SpanName {
            prefix: name,
            rest: Rest::Nothing,
        }
    }

    /// `{prefix}{word}`, both fixed (or interned) text.
    #[must_use]
    pub fn word(prefix: &'static str, word: &'static str) -> SpanName {
        SpanName {
            prefix,
            rest: Rest::Word(word),
        }
    }

    /// `{prefix}{n}`.
    #[must_use]
    pub fn numbered(prefix: &'static str, n: u64) -> SpanName {
        SpanName {
            prefix,
            rest: Rest::Number(n),
        }
    }

    /// The text after the prefix; a number's digits are written to `digits`.
    fn rest<'a>(&'a self, digits: &'a mut [u8; 20]) -> &'a str {
        match &self.rest {
            Rest::Nothing => "",
            Rest::Word(word) => word,
            Rest::Number(n) => {
                let mut at = digits.len();
                let mut n = *n;
                loop {
                    at -= 1;
                    digits[at] = b'0' + (n % 10) as u8;
                    n /= 10;
                    if n == 0 {
                        break;
                    }
                }
                std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII")
            }
        }
    }
}

impl fmt::Display for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix)?;
        f.write_str(self.rest(&mut [0; 20]))
    }
}

impl PartialEq for SpanName {
    fn eq(&self, other: &SpanName) -> bool {
        fn text<'a>(name: &'a SpanName, digits: &'a mut [u8; 20]) -> impl Iterator<Item = u8> + 'a {
            name.prefix.bytes().chain(name.rest(digits).bytes())
        }
        text(self, &mut [0; 20]).eq(text(other, &mut [0; 20]))
    }
}

impl Eq for SpanName {}

/// A named virtual-time interval on one thread, attributed to one action
/// instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers (e.g. `action:payment`, `resolution:r1`,
    /// `object-wait:ledger`).
    pub name: SpanName,
    /// Virtual start, nanoseconds.
    pub start_ns: u64,
    /// Virtual end, nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// The thread the interval belongs to.
    pub thread: u32,
    /// Canonical (run-independent) action-instance label — the `A<n>`
    /// number of the harness's trace rendering, *not* the raw serial.
    pub instance: u64,
    /// Index of the enclosing span in the owning [`SpanTree`], if any.
    pub parent: Option<u32>,
}

impl Span {
    /// The interval's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A run's spans in push order, parents before children.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    spans: Vec<Span>,
}

impl SpanTree {
    /// An empty tree.
    #[must_use]
    pub fn new() -> SpanTree {
        SpanTree::default()
    }

    /// An empty tree with room for `spans` spans.
    #[must_use]
    pub fn with_capacity(spans: usize) -> SpanTree {
        SpanTree {
            spans: Vec::with_capacity(spans),
        }
    }

    /// Appends a span and returns its index (usable as a child's
    /// [`Span::parent`]).
    pub fn push(&mut self, span: Span) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("span count fits u32");
        debug_assert!(span.parent.is_none_or(|p| p < index), "parent before child");
        self.spans.push(span);
        index
    }

    /// Closes the span at `index`: sets its end time.
    pub fn set_end(&mut self, index: u32, end_ns: u64) {
        self.spans[index as usize].end_ns = end_ns;
    }

    /// The spans, in push order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the tree holds no spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Nesting depth of the span at `index` (0 = root).
    #[must_use]
    pub fn depth(&self, index: u32) -> usize {
        let mut depth = 0;
        let mut at = index;
        while let Some(parent) = self.spans[at as usize].parent {
            depth += 1;
            at = parent;
        }
        depth
    }

    /// Deterministic text form: one line per span in push order, indented
    /// by nesting depth. Byte-identical across replays of the same run —
    /// the form span-determinism tests compare.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48);
        for (i, span) in self.spans.iter().enumerate() {
            let index = u32::try_from(i).expect("span count fits u32");
            for _ in 0..self.depth(index) {
                out.push_str("  ");
            }
            let _ = writeln!(
                out,
                "{} A{} T{} [{}..{}] {}ns",
                span.name,
                span.instance,
                span.thread,
                span.start_ns,
                span.end_ns,
                span.duration_ns(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_set_end_and_depth() {
        let mut tree = SpanTree::new();
        let root = tree.push(Span {
            name: SpanName::plain("action:a"),
            start_ns: 0,
            end_ns: 0,
            thread: 0,
            instance: 0,
            parent: None,
        });
        let child = tree.push(Span {
            name: SpanName::numbered("resolution:r", 1),
            start_ns: 10,
            end_ns: 40,
            thread: 0,
            instance: 0,
            parent: Some(root),
        });
        tree.set_end(root, 100);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.spans()[root as usize].end_ns, 100);
        assert_eq!(tree.spans()[child as usize].duration_ns(), 30);
        assert_eq!(tree.depth(root), 0);
        assert_eq!(tree.depth(child), 1);
    }

    #[test]
    fn a_name_shows_as_the_text_it_stands_for() {
        // A `'static` copy of a text made at run time, as an interned name
        // is.
        let leaked = |text: &str| -> &'static str { Box::leak(text.into()) };
        for (name, text) in [
            (SpanName::plain("signalling"), "signalling".to_owned()),
            (SpanName::plain(""), String::new()),
            (SpanName::word("handler:", "µ"), format!("handler:{}", "µ")),
            (
                SpanName::word("raise\u{2192}resolve:", leaked("a0.1_e3")),
                format!("raise\u{2192}resolve:{}", "a0.1_e3"),
            ),
            (
                SpanName::word("object-wait:", leaked("")),
                "object-wait:".to_owned(),
            ),
            (SpanName::numbered("exit:e", 0), format!("exit:e{}", 0)),
            (
                SpanName::numbered("resolution:r", 10),
                format!("resolution:r{}", 10),
            ),
            (
                SpanName::numbered("exit:e", u64::MAX),
                format!("exit:e{}", u64::MAX),
            ),
        ] {
            assert_eq!(name.to_string(), text);
            // Equality is on the text, not on how it was put together.
            assert_eq!(name, SpanName::word("", leaked(&text)));
            assert_ne!(name, SpanName::word("", leaked(&format!("{text}0"))));
        }
        assert_ne!(
            SpanName::numbered("exit:e", 1),
            SpanName::numbered("exit:e", 10)
        );
        assert_eq!(SpanName::numbered("r", 12), SpanName::word("r1", "2"));
    }

    #[test]
    fn render_is_indented_and_stable() {
        let mut tree = SpanTree::new();
        let root = tree.push(Span {
            name: SpanName::plain("action:a"),
            start_ns: 0,
            end_ns: 50,
            thread: 1,
            instance: 2,
            parent: None,
        });
        tree.push(Span {
            name: SpanName::word("handler:", "x"),
            start_ns: 5,
            end_ns: 25,
            thread: 1,
            instance: 2,
            parent: Some(root),
        });
        let text = tree.render();
        assert_eq!(
            text,
            "action:a A2 T1 [0..50] 50ns\n  handler:x A2 T1 [5..25] 20ns\n"
        );
        assert_eq!(text, tree.clone().render());
    }
}
