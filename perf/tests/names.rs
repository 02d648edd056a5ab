//! The names a run emits are the names `BENCHMARK.json` declares, and the
//! file itself stays inside the limits its reader enforces.

use std::collections::BTreeSet;
use std::process::Command;

use caa_perf::json::{self, Value};
use caa_perf::manifest::Manifest;
use caa_perf::workloads::{applies, Workload};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn values(result: &Value) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("a result line has metrics")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("a value");
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn smoke_run_emits_exactly_the_declared_names() {
    let manifest = Manifest::load().expect("BENCHMARK.json parses");
    let output = Command::new(env!("CARGO_BIN_EXE_caa-perf"))
        .args(["run", "--smoke"])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "smoke run failed:\n{stdout}");
    let document = json::parse(stdout.lines().last().expect("a last line"))
        .unwrap_or_else(|e| panic!("the last line is not JSON ({e}):\n{stdout}"));
    assert_eq!(document.get("correct").and_then(Value::as_bool), Some(true));

    let workloads = document
        .get("workloads")
        .and_then(Value::as_obj)
        .expect("workloads");
    let emitted: Vec<&str> = workloads.iter().map(|(name, _)| name.as_str()).collect();
    let declared: Vec<&str> = manifest.workloads.iter().map(String::as_str).collect();
    assert_eq!(emitted, declared, "workload names");

    let declared_names = |decls: &[caa_perf::manifest::MetricDecl]| -> BTreeSet<String> {
        decls.iter().map(|d| d.name.clone()).collect()
    };
    for (name, passes) in workloads {
        let workload = Workload::parse(name).expect("a known workload");
        let end_to_end = values(passes.get("end_to_end").expect("the untraced pass"));
        let per_layer = values(passes.get("per_layer").expect("the traced pass"));
        assert_eq!(
            end_to_end
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<BTreeSet<_>>(),
            declared_names(&manifest.end_to_end),
            "{name}: end-to-end names"
        );
        assert_eq!(
            per_layer
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<BTreeSet<_>>(),
            declared_names(&manifest.per_layer),
            "{name}: per-layer names"
        );
        for (metric, value) in end_to_end.iter().chain(&per_layer) {
            assert!(
                well_formed(metric, 64, "_.-"),
                "{name}: bad name {metric:?}"
            );
            assert!(value.is_finite(), "{name}: {metric} = {value}");
        }
        for (metric, value) in &end_to_end {
            assert!(*value > 0.0, "{name}: end-to-end {metric} must never be 0");
        }
        // Layer separation: a layer this workload exercises reads
        // non-zero, one it does not reads exactly 0.
        for (metric, value) in &per_layer {
            if applies(metric, workload) {
                assert!(
                    *value != 0.0,
                    "{name}: {metric} is declared here but reads 0"
                );
            } else if !["host.pinned", "harness.seed_wall_max_seed"].contains(&metric.as_str()) {
                assert!(
                    *value == 0.0,
                    "{name}: {metric} = {value} on a workload without it"
                );
            }
        }
        // The op span is partitioned: layer shares plus self time are all of it.
        if workload != Workload::Paper {
            let shares: f64 = per_layer
                .iter()
                .filter(|(n, _)| n.starts_with("harness.") && n.ends_with(".share"))
                .map(|(_, v)| v)
                .sum();
            assert!(
                (shares - 1.0).abs() <= 0.01,
                "{name}: stage shares sum to {shares}"
            );
        }
    }
}

#[test]
fn benchmark_json_stays_inside_its_readers_limits() {
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect("a list");
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);

    let command = list("command");
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = part.as_str().expect("a string");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    assert!(list("paths")
        .iter()
        .all(|p| well_formed(p.as_str().expect("a string"), 200, "_.-/")));
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("a number");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = BTreeSet::new();
    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let name = text(w, "name").expect("a name");
        let why = text(w, "why").expect("a why");
        assert!(well_formed(&name, 64, "_.-") && why.len() <= 200 && !why.contains('\n'));
        assert!(names.insert(name), "names are used once");
    }
    let end_to_end = list("end_to_end");
    let per_layer = list("per_layer");
    assert!((1..=16).contains(&end_to_end.len()) && (1..=128).contains(&per_layer.len()));
    for m in end_to_end.iter().chain(per_layer) {
        let name = text(m, "name").expect("a name");
        assert!(well_formed(&name, 64, "_.-"), "{name}");
        assert!(
            well_formed(&text(m, "unit").expect("a unit"), 16, "_/%.-"),
            "{name}"
        );
        assert!(["lower", "higher"].contains(&text(m, "better").expect("better").as_str()));
        assert!(names.insert(name), "names are used once");
    }
    for m in end_to_end {
        let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!((0.0..=0.25).contains(&bound));
        assert_eq!(
            m.as_obj().map(<[_]>::len),
            Some(4),
            "exactly name, unit, better, bound"
        );
    }
    assert!(per_layer
        .iter()
        .all(|m| m.as_obj().map(<[_]>::len) == Some(3)));
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name").as_deref() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(text(setup, "unit").as_deref(), Some("s"));
    assert_eq!(text(setup, "better").as_deref(), Some("lower"));
}
