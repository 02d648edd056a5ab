//! `BENCHMARK.json`, the declaration this benchmark is held to: workload
//! names, metric names with unit, direction and regression bound, and the
//! run length. Compiled in, so the names a run emits and the names the
//! file declares cannot drift apart unnoticed — a run that produces a
//! metric the file does not declare fails.

use crate::json::{self, Value};

/// The file as committed at the repository root.
const TEXT: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDecl {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Metrics of the untraced pass.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics of the traced pass.
    pub per_layer: Vec<MetricDecl>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<MetricDecl>, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key}"))?
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCHMARK.json: a {key} metric lacks {field}"))
            };
            Ok(MetricDecl {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Manifest {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A description of what the file lacks.
    pub fn load() -> Result<Manifest, String> {
        let doc = json::parse(TEXT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: missing workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect();
        Ok(Manifest {
            workloads,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}
