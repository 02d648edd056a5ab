//! Deterministic, mergeable metrics primitives for the CA-action
//! simulation stack.
//!
//! The harness proves protocol *correctness* with oracles and *message
//! complexity* with counters; this crate adds the third axis the
//! production-transport and cluster-scale roadmap items need:
//! **distributions** — how long coordinated recovery takes under
//! contention, phase by phase. Three building blocks:
//!
//! * [`Histogram`] — a log-bucketed value histogram (8 sub-buckets per
//!   octave, ≤ 12.5 % relative bucket error) with exact
//!   [`Histogram::merge`], exact `count`/`sum`/`min`/`max`, and
//!   integer-only quantile math, so p50/p90/p99 read off a merged shard
//!   union exactly equal the unsharded run's.
//! * [`MetricSet`] — counters and histograms keyed by label, addressed on
//!   the hot path through pre-registered handles ([`CounterHandle`],
//!   [`HistogramHandle`]) so recording is an index + add, never a map
//!   lookup or an allocation.
//! * [`json`] — a dependency-free serializer/parser pair for the
//!   `metrics.json` interchange format: serialization is canonical
//!   (sorted labels, integer-only values), which is what makes
//!   "merge of shards k/n == unsharded run" a *byte* equality, the same
//!   guarantee `caa hashes --shard` gives for trace fingerprints.
//!
//! # Determinism contract
//!
//! Nothing in this crate reads wall clocks, system randomness or global
//! state: a metric set is a pure fold over the values recorded into it,
//! and [`MetricSet::merge`] is associative and commutative (bucket sums,
//! counter sums, min/max). Callers that record only *virtual-time*
//! quantities therefore get byte-deterministic serialized metrics per
//! seed set. Wall-clock quantities (e.g. driver stage timers)
//! belong in a separate set that is reported but excluded from
//! byte-identity claims — see `caa-harness`'s sweep metrics for the
//! split.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod hist;
pub mod json;
mod set;
mod span;

pub use hist::Histogram;
pub use set::{CounterHandle, HistogramHandle, MetricSet};
pub use span::{Span, SpanName, SpanTree};
