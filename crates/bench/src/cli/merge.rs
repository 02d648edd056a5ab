//! `caa merge` — union sharded runs' `metrics.json` or `coverage.json`
//! documents; which of the two the inputs are is read off their own
//! `"schema"` field.
//!
//! A sweep or fuzz run split across CI jobs or machines with `--shard k/n`
//! produces one document per shard. This command merges them into the
//! document the unsharded run would have produced — histogram buckets sum
//! exactly, counters sum, seed and execution counts add, signature maps
//! union per key — so the merged document of an evenly sharded sweep
//! equals the unsharded sweep's byte for byte, quantiles included.
//!
//! ```text
//! caa merge shard0/metrics.json shard1/metrics.json ... [--out merged.json]
//! caa merge shard0/coverage.json shard1/coverage.json ... \
//!     [--out merged.json] [--triage triage.md]
//! ```
//!
//! A merged **metrics** document carries the deterministic and
//! `critical_path` sections only: the `wall_clock` counters (scheduler
//! park/wake hand-offs, driver stage timers) are host facts that
//! legitimately differ between a sharded and an unsharded run, so they are
//! dropped rather than misleadingly summed. That normalization makes
//! merge-equality a byte equality: merging the 4 shard documents equals
//! merging the single unsharded document.
//!
//! On top of a merged **coverage** document `--triage` writes the human
//! triage report: saturated paths (highest-hit counters), starved paths
//! (never hit), the fuzz-vs-fresh signature gain, and every violation with
//! its replay handle — the artifact the nightly CI job uploads.

use std::io::Write;

use caa_harness::fuzz::{CoverageDoc, COVERAGE_SCHEMA};
use caa_harness::metrics::{metrics_json, parse_metrics_json, SweepMetrics, METRICS_SCHEMA};
use caa_telemetry::json::{self, Value};

use super::{read_file, usage_error, write_file, Args, Run};

enum Doc {
    Metrics(u64, SweepMetrics),
    Coverage(CoverageDoc),
}

fn parse(text: &str) -> Result<Doc, String> {
    match json::parse(text)?.get("schema") {
        Some(Value::Str(s)) if s == METRICS_SCHEMA => {
            parse_metrics_json(text).map(|(seeds, metrics)| Doc::Metrics(seeds, metrics))
        }
        Some(Value::Str(s)) if s == COVERAGE_SCHEMA => CoverageDoc::parse(text).map(Doc::Coverage),
        other => Err(format!(
            "schema is neither {METRICS_SCHEMA:?} nor {COVERAGE_SCHEMA:?}: {other:?}"
        )),
    }
}

pub(super) fn run(args: &Args, out: &mut dyn Write) -> Run {
    let inputs = &args.positional;
    let mut merged: Option<Doc> = None;
    for path in inputs {
        let doc = parse(&read_file(path)?)
            .map_err(|e| usage_error(format!("cannot parse {path}: {e}")))?;
        merged = Some(match (merged, doc) {
            (None, first) => first,
            (Some(Doc::Metrics(seeds, mut into)), Doc::Metrics(more, metrics)) => {
                into.merge(&metrics);
                Doc::Metrics(seeds + more, into)
            }
            (Some(Doc::Coverage(mut into)), Doc::Coverage(doc)) => {
                into.merge(&doc);
                Doc::Coverage(into)
            }
            (Some(_), _) => {
                return Err(usage_error(format!(
                    "{path} is not the kind of document {} is",
                    inputs[0]
                )))
            }
        });
    }
    let merged = merged.ok_or_else(|| usage_error("no input documents"))?;
    let triage_path = args.value("--triage");
    if triage_path.is_some() && matches!(merged, Doc::Metrics(..)) {
        return Err(usage_error("--triage reports on coverage documents only"));
    }
    let rendered = match &merged {
        Doc::Metrics(seeds, metrics) => metrics_json(metrics, *seeds, false),
        Doc::Coverage(doc) => doc.render(),
    };
    match args.value("--out") {
        Some(path) => {
            write_file(path, &rendered)?;
            eprintln!("merged {} document(s) into {path}", inputs.len());
        }
        None => write!(out, "{rendered}")?,
    }
    if let (Some(path), Doc::Coverage(doc)) = (triage_path, &merged) {
        write_file(path, &doc.triage())?;
        eprintln!("triage report written to {path}");
    }
    match &merged {
        Doc::Metrics(_, metrics) => eprint!("{}", metrics.summary()),
        Doc::Coverage(doc) => eprintln!(
            "{} execution(s), {} distinct signature(s), {} violation(s)",
            doc.executions,
            doc.signatures.len(),
            doc.violations.len()
        ),
    }
    Ok(0)
}
