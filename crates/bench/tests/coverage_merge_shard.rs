//! `caa merge` contract, for both kinds of document it tells apart by
//! their `"schema"` field: the merged documents of an evenly sharded sweep
//! equal the unsharded sweep's **byte for byte** — executions and seeds
//! add, path counters and histogram buckets sum, signature maps union per
//! key, violation lines union — so the nightly CI job can split a 2k-seed
//! run across jobs and still publish the single-document triage artifact,
//! and a sharded sweep's `metrics.json` quantiles are the unsharded run's.

use std::path::Path;

use caa_harness::fuzz::CoverageDoc;
use caa_harness::sweep::{sweep, Shard, SweepConfig};

const SHARDS: u64 = 4;

/// The `coverage.json` and `metrics.json` of one (shard of the) sweep.
fn sweep_docs(shard: Option<Shard>) -> [String; 2] {
    let report = sweep(&SweepConfig {
        seeds: 2000,
        shard,
        check_replay: false,
        corpus_dir: None,
        ..SweepConfig::default()
    });
    [
        CoverageDoc::from_sweep(&report).render(),
        report.metrics_json(),
    ]
}

fn text(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// `caa merge <inputs> --out <out> <extra>`, which must succeed and print
/// nothing.
fn merge(inputs: &[String], out: &Path, extra: &[String]) -> String {
    let mut args = vec!["merge".to_owned()];
    args.extend_from_slice(inputs);
    args.extend(["--out".to_owned(), text(out)]);
    args.extend_from_slice(extra);
    let mut printed = Vec::new();
    assert_eq!(caa_bench::cli::run(&args, &mut printed), 0, "caa {args:?}");
    assert!(
        printed.is_empty(),
        "with --out the document goes to the file"
    );
    std::fs::read_to_string(out).expect("read merged doc")
}

#[test]
fn sharded_coverage_documents_merge_to_the_unsharded_bytes() {
    let dir = std::env::temp_dir().join(format!("caa-merge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let full = sweep_docs(None);
    let mut inputs = [Vec::new(), Vec::new()];
    for index in 0..SHARDS {
        let shard = Shard {
            index,
            count: SHARDS,
        };
        for (kind, doc) in sweep_docs(Some(shard)).iter().enumerate() {
            assert_ne!(*doc, full[kind], "a shard covers a part of the seeds");
            let path = dir.join(format!("kind{kind}-shard{index}.json"));
            std::fs::write(&path, doc).expect("write shard doc");
            inputs[kind].push(text(&path));
        }
    }
    let [coverage_inputs, metrics_inputs] = inputs;

    let triage_path = dir.join("triage.md");
    let merged = merge(
        &coverage_inputs,
        &dir.join("coverage.json"),
        &["--triage".to_owned(), text(&triage_path)],
    );
    assert!(
        merged == full[0],
        "merged shards diverge from the unsharded document:\n--- merged ---\n{merged}\n\
         --- unsharded ---\n{}",
        full[0]
    );
    // The triage artifact renders from the same merged document.
    let triage = std::fs::read_to_string(&triage_path).expect("read triage");
    assert!(triage.contains("# Coverage triage"), "{triage}");
    assert!(triage.contains("executions: 2000"), "{triage}");

    // A merged metrics document drops the host's `wall_clock` section, so
    // the unsharded document is put through the same merge.
    let unsharded_path = dir.join("metrics-unsharded.json");
    std::fs::write(&unsharded_path, &full[1]).expect("write unsharded doc");
    let normalized = merge(&[text(&unsharded_path)], &dir.join("normalized.json"), &[]);
    let merged = merge(&metrics_inputs, &dir.join("metrics.json"), &[]);
    assert!(
        merged == normalized,
        "merged metrics shards diverge from the unsharded document"
    );
    assert!(merged.contains("\"seeds\": 2000"), "{merged}");

    // One kind per merge, and a triage report of coverage only.
    let mixed = [coverage_inputs[0].clone(), metrics_inputs[0].clone()];
    for args in [
        &mixed[..],
        &[metrics_inputs[0].clone(), "--triage".into(), "t.md".into()],
    ] {
        let mut args = args.to_vec();
        args.insert(0, "merge".to_owned());
        assert_eq!(caa_bench::cli::run(&args, &mut Vec::new()), 2, "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
