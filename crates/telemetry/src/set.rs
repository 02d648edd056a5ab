//! Labeled metric sets with pre-registered handles and canonical JSON.

use std::collections::HashMap;

use crate::hist::Histogram;
use crate::json::{self, Value};

/// Handle to a registered counter — an index, so hot-path increments are
/// array adds, never map lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// A set of counters and histograms keyed by label.
///
/// Register every hot-path metric once (at worker/arena construction) and
/// record through the returned handles; labels first seen at runtime (e.g.
/// per-message-class counters) use the `*_named` forms, which allocate
/// only on first sight of a label. Serialization is **canonical** — labels
/// sorted, integers only — so two sets holding the same data serialize to
/// the same bytes regardless of registration order, and
/// [`MetricSet::merge`] over shards reproduces the unsharded bytes
/// exactly.
///
/// # Examples
///
/// ```
/// use caa_telemetry::MetricSet;
///
/// let mut set = MetricSet::new();
/// let seeds = set.counter("seeds");
/// let lat = set.histogram("latency_ns");
/// set.add(seeds, 2);
/// set.record(lat, 1_500);
/// set.record(lat, 2_500);
/// assert_eq!(set.counter_value("seeds"), 2);
/// assert_eq!(set.histogram_named("latency_ns").unwrap().count(), 2);
/// let json = set.to_json();
/// let back = MetricSet::from_json(&json).unwrap();
/// assert_eq!(back.to_json(), json);
/// ```
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Histogram)>,
    counter_index: HashMap<String, usize>,
    hist_index: HashMap<String, usize>,
}

impl MetricSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Registers (or finds) the counter labeled `name`.
    #[inline]
    pub fn counter(&mut self, name: &str) -> CounterHandle {
        if let Some(&i) = self.counter_index.get(name) {
            return CounterHandle(i);
        }
        let i = self.counters.len();
        self.counters.push((name.to_owned(), 0));
        self.counter_index.insert(name.to_owned(), i);
        CounterHandle(i)
    }

    /// Registers (or finds) the histogram labeled `name`.
    pub fn histogram(&mut self, name: &str) -> HistogramHandle {
        if let Some(&i) = self.hist_index.get(name) {
            return HistogramHandle(i);
        }
        let i = self.hists.len();
        self.hists.push((name.to_owned(), Histogram::new()));
        self.hist_index.insert(name.to_owned(), i);
        HistogramHandle(i)
    }

    /// Adds `n` to a registered counter. A counter that would pass
    /// `u64::MAX` stays there (as does any sum it is merged into): it then
    /// reads "at least this much" instead of wrapping to a small lie — or
    /// panicking, in a debug build.
    #[inline]
    pub fn add(&mut self, handle: CounterHandle, n: u64) {
        let counter = &mut self.counters[handle.0].1;
        *counter = counter.saturating_add(n);
    }

    /// Records one histogram sample.
    #[inline]
    pub fn record(&mut self, handle: HistogramHandle, v: u64) {
        self.hists[handle.0].1.record(v);
    }

    /// Adds `n` to the counter labeled `name`, registering it on first
    /// sight (the cold path for labels not known at registration time).
    pub fn add_named(&mut self, name: &str, n: u64) {
        let handle = self.counter(name);
        self.add(handle, n);
    }

    /// The value of the counter labeled `name` (0 if unregistered).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map_or(0, |&i| self.counters[i].1)
    }

    /// The histogram labeled `name`, if registered.
    #[must_use]
    pub fn histogram_named(&self, name: &str) -> Option<&Histogram> {
        self.hist_index.get(name).map(|&i| &self.hists[i].1)
    }

    /// Iterates `(label, value)` over all counters in label order.
    pub fn counters_sorted(&self) -> Vec<(&str, u64)> {
        let mut out: Vec<(&str, u64)> = self
            .counters
            .iter()
            .map(|(name, v)| (name.as_str(), *v))
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out
    }

    /// Iterates `(label, histogram)` over all histograms in label order.
    pub fn histograms_sorted(&self) -> Vec<(&str, &Histogram)> {
        let mut out: Vec<(&str, &Histogram)> = self
            .hists
            .iter()
            .map(|(name, h)| (name.as_str(), h))
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out
    }

    /// Whether no counter was ever incremented and no histogram recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|(_, v)| *v == 0) && self.hists.iter().all(|(_, h)| h.count() == 0)
    }

    /// Accumulates `other` into `self`, by label: counters sum, histograms
    /// merge bucket-exactly, labels unknown on either side are adopted.
    /// Associative and commutative — shard order never matters.
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, v) in &other.counters {
            let handle = self.counter(name);
            self.add(handle, *v);
        }
        for (name, h) in &other.hists {
            let handle = self.histogram(name);
            self.hists[handle.0].1.merge(h);
        }
    }

    /// Serializes canonically (sorted labels, integers only) with a
    /// two-space indent under `prefix` — the exact bytes
    /// [`MetricSet::from_json`] parses and the shard-merge byte-identity
    /// guarantee is stated over.
    pub fn write_json(&self, out: &mut String, prefix: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "{prefix}{{");
        let _ = writeln!(out, "{prefix}  \"counters\": {{");
        let counters = self.counters_sorted();
        for (i, (name, v)) in counters.iter().enumerate() {
            let comma = if i + 1 < counters.len() { "," } else { "" };
            let _ = write!(out, "{prefix}    ");
            json::write_str(out, name);
            let _ = writeln!(out, ": {v}{comma}");
        }
        let _ = writeln!(out, "{prefix}  }},");
        let _ = writeln!(out, "{prefix}  \"histograms\": {{");
        let hists = self.histograms_sorted();
        for (i, (name, h)) in hists.iter().enumerate() {
            let comma = if i + 1 < hists.len() { "," } else { "" };
            let _ = write!(out, "{prefix}    ");
            json::write_str(out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.quantile(50, 100),
                h.quantile(90, 100),
                h.quantile(99, 100),
            );
            for (j, (bucket, n)) in h.nonzero_buckets().enumerate() {
                let comma = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{comma}[{bucket}, {n}]");
            }
            let _ = writeln!(out, "]}}{comma}");
        }
        let _ = writeln!(out, "{prefix}  }}");
        let _ = write!(out, "{prefix}}}");
    }

    /// [`MetricSet::write_json`] into a fresh string at top level.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, "");
        out.push('\n');
        out
    }

    /// Parses a serialized set (see [`MetricSet::to_json`]).
    ///
    /// # Errors
    ///
    /// A human-readable message when the text is not the expected shape.
    pub fn from_json(text: &str) -> Result<MetricSet, String> {
        Self::from_json_value(&json::parse(text)?)
    }

    /// Builds a set from an already-parsed [`Value`] (the path for
    /// documents embedding metric sets in larger reports).
    ///
    /// # Errors
    ///
    /// A human-readable message when the value is not a serialized set.
    pub fn from_json_value(value: &Value) -> Result<MetricSet, String> {
        let mut set = MetricSet::new();
        let counters = value
            .get("counters")
            .and_then(Value::as_obj)
            .ok_or("missing \"counters\" object")?;
        for (name, v) in counters {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("counter {name:?} is not a u64"))?;
            set.add_named(name, n);
        }
        let hists = value
            .get("histograms")
            .and_then(Value::as_obj)
            .ok_or("missing \"histograms\" object")?;
        for (name, v) in hists {
            let field = |key: &str| {
                v.get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("histogram {name:?} missing u64 {key:?}"))
            };
            let sum = v
                .get("sum")
                .and_then(Value::as_u128)
                .ok_or_else(|| format!("histogram {name:?} missing \"sum\""))?;
            let buckets = v
                .get("buckets")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("histogram {name:?} missing \"buckets\""))?;
            let pairs: Vec<(usize, u64)> = buckets
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| format!("histogram {name:?}: bucket is not a pair"))?;
                    let index = pair[0]
                        .as_u64()
                        .ok_or_else(|| format!("histogram {name:?}: bad bucket index"))?;
                    let count = pair[1]
                        .as_u64()
                        .ok_or_else(|| format!("histogram {name:?}: bad bucket count"))?;
                    Ok((index as usize, count))
                })
                .collect::<Result<_, String>>()?;
            let hist = Histogram::from_buckets(pairs, field("min")?, field("max")?, sum)
                .map_err(|e| format!("histogram {name:?}: {e}"))?;
            if hist.count() != field("count")? {
                return Err(format!(
                    "histogram {name:?}: bucket counts sum to {}, \"count\" says {}",
                    hist.count(),
                    field("count")?
                ));
            }
            let handle = set.histogram(name);
            set.hists[handle.0].1 = hist;
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> MetricSet {
        let mut set = MetricSet::new();
        let c = set.counter("zeta");
        let h = set.histogram("alpha_ns");
        set.add(c, 3);
        set.add_named("beta", 9);
        for v in [10u64, 900, 12, 1 << 33] {
            set.record(h, v);
        }
        set
    }

    #[test]
    fn json_round_trips_byte_exactly() {
        let set = sample_set();
        let json = set.to_json();
        let back = MetricSet::from_json(&json).expect("parse own serialization");
        assert_eq!(back.to_json(), json);
        assert_eq!(back.counter_value("zeta"), 3);
        assert_eq!(back.counter_value("beta"), 9);
        assert_eq!(back.histogram_named("alpha_ns").unwrap().count(), 4);
        assert_eq!(back.histogram_named("alpha_ns").unwrap().max(), 1 << 33);
    }

    #[test]
    fn serialization_is_canonical_across_registration_orders() {
        let mut other = MetricSet::new();
        // Register in a different order than sample_set.
        other.histogram("alpha_ns");
        other.counter("beta");
        other.counter("zeta");
        other.add_named("zeta", 3);
        other.add_named("beta", 9);
        let h = other.histogram("alpha_ns");
        for v in [10u64, 900, 12, 1 << 33] {
            other.record(h, v);
        }
        assert_eq!(other.to_json(), sample_set().to_json());
    }

    #[test]
    fn merge_is_by_label_and_adopts_unknowns() {
        let mut a = sample_set();
        let mut b = MetricSet::new();
        b.add_named("zeta", 7);
        b.add_named("new", 1);
        let h = b.histogram("alpha_ns");
        b.record(h, 11);
        a.merge(&b);
        assert_eq!(a.counter_value("zeta"), 10);
        assert_eq!(a.counter_value("new"), 1);
        assert_eq!(a.histogram_named("alpha_ns").unwrap().count(), 5);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        // Presume-ƒ timeout slack: ~2.7 × 10¹⁴ virtual ns per default
        // seed, which leaves `u64` a little past 66 000 seeds.
        let per_seed = 270_000_000_000_000_u64;
        let mut set = MetricSet::new();
        let slack = set.counter("cp_timeout_slack_ns");
        for _ in 0..60_000 {
            set.add(slack, per_seed);
        }
        assert_eq!(set.counter_value("cp_timeout_slack_ns"), 60_000 * per_seed);
        for _ in 60_000..70_000 {
            set.add(slack, per_seed);
        }
        assert_eq!(set.counter_value("cp_timeout_slack_ns"), u64::MAX);
        // The merge path: two shards of 35 000 seeds each hold exact sums,
        // their union saturates, and merging more on top stays put.
        let mut shard = MetricSet::new();
        shard.add_named("cp_timeout_slack_ns", 35_000 * per_seed);
        let mut union = shard.clone();
        union.merge(&shard);
        assert_eq!(union.counter_value("cp_timeout_slack_ns"), u64::MAX);
        union.merge(&set);
        assert_eq!(union.counter_value("cp_timeout_slack_ns"), u64::MAX);
        let back = MetricSet::from_json(&union.to_json()).expect("u64::MAX round-trips");
        assert_eq!(back.counter_value("cp_timeout_slack_ns"), u64::MAX);
    }

    #[test]
    fn empty_set_serializes_and_parses() {
        let set = MetricSet::new();
        let back = MetricSet::from_json(&set.to_json()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let json = r#"{"counters": {}, "histograms":
            {"x": {"count": 5, "sum": 0, "min": 0, "max": 0, "buckets": [[0, 1]]}}}"#;
        assert!(MetricSet::from_json(json).unwrap_err().contains("count"));
    }
}
