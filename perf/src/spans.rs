//! The benchmark's own spans: one per call into a layer, timed from the
//! benchmark's side of the call, kept in memory and written out when the
//! run ends. Nothing under `crates/` is instrumented; spans inside the
//! program are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// A timed interval: a call into one layer (a child) or one whole op (a
/// root, `parent == None`).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer function called, or the op kind for a root.
    pub name: &'static str,
    /// The op this span belongs to (seed, trace index or scenario index):
    /// the identifier the spans of one op share.
    pub op: u64,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a log.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans of that name.
    pub count: u64,
    /// Their summed duration.
    pub ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        u32::try_from(self.spans.len() - 1).expect("span count fits u32")
    }

    /// Ends the span at `index` now.
    pub fn close(&mut self, index: u32) {
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Runs `call` inside a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: u32, call: impl FnOnce() -> T) -> T {
        let op = self.spans[parent as usize].op;
        let index = self.open(name, op, Some(parent));
        let out = call();
        self.close(index);
        out
    }

    /// The spans recorded so far, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count and summed duration per child-span name.
    #[must_use]
    pub fn child_totals(&self) -> BTreeMap<&'static str, Total> {
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.parent.is_some()) {
            let total = totals.entry(span.name).or_default();
            total.count += 1;
            total.ns += span.dur_ns();
        }
        totals
    }

    /// The root spans (one per op).
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// The spans of the first `ops` ops as Chrome trace-event JSON
    /// (complete events on one track; open in Perfetto or
    /// `chrome://tracing`).
    #[must_use]
    pub fn chrome_json(&self, ops: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut roots_seen = 0usize;
        let mut first = true;
        for span in &self.spans {
            if span.parent.is_none() {
                roots_seen += 1;
                if roots_seen > ops {
                    break;
                }
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("{\"name\":");
            json::write_str(&mut out, span.name);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.op,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_root_and_export_parses() {
        let mut log = SpanLog::default();
        for op in 0..3 {
            let root = log.open("seed", op, None);
            log.child("layer.a", root, || std::hint::black_box(op + 1));
            log.child("layer.b", root, || ());
            log.close(root);
        }
        assert_eq!(log.roots().count(), 3);
        let totals = log.child_totals();
        assert_eq!(totals["layer.a"].count, 3);
        for span in log.spans().iter().filter(|s| s.parent.is_some()) {
            let root = log.spans()[span.parent.unwrap() as usize];
            assert!(root.start_ns <= span.start_ns && span.end_ns <= root.end_ns);
            assert_eq!(root.op, span.op);
        }
        let doc = json::parse(&log.chrome_json(2)).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .unwrap();
        assert_eq!(events.len(), 6, "two ops, three spans each");
    }
}
