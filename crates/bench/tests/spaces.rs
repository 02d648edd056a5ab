//! `--space` from the command line: a seed of any named scenario space
//! replays and sweeps by name, with no hand-made corpus entry, and a
//! command over a space runs what the library runs over its bounds.

use caa_harness::metrics::{metrics_json, parse_metrics_json};
use caa_harness::plan::ScenarioConfig;
use caa_harness::sweep::{sweep, SweepConfig};

/// `caa <args>`: its exit status and what it wrote.
fn run(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|arg| (*arg).to_owned()).collect();
    let mut out = Vec::new();
    let status = caa_bench::cli::run(&args, &mut out);
    (status, String::from_utf8(out).expect("utf8 output"))
}

/// Multi-crash seed 320 637 breaks agreement on the resolved exception
/// (§3.3): threads 0–1 resolve `__universal`, threads 2–4 `a1_e1`.
#[test]
fn a_multi_crash_seed_replays_by_the_name_of_its_space() {
    let (status, out) = run(&["replay", "--space", "multi-crash", "320637"]);
    assert_eq!(status, 1, "{out}");
    for line in [
        "seed 320637: 3 violation(s)",
        "action 3: participants disagree on the resolved exception: \
         [(1, \"__universal\"), (3, \"a1_e1\"), (4, \"a1_e1\"), (0, \"__universal\"), \
         (2, \"a1_e1\")]",
        "action 3: resolution procedure ran 3 times (max 1)",
        "action 3: 28 resolution messages exceed the rejoin-adjusted (N+1)(N-1) bound 24",
    ] {
        assert!(out.contains(line), "{line:?} not in\n{out}");
    }
}

#[test]
fn a_space_and_a_corpus_entry_are_not_given_together() {
    let (status, out) = run(&["replay", "--space", "multi-crash", "--corpus", "x/1"]);
    assert_eq!((status, out.as_str()), (2, ""));
}

#[test]
fn a_named_sweep_writes_what_the_library_sweep_over_its_bounds_measures() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/spaces_object_heavy.json");
    let (status, out) = run(&[
        "sweep",
        "--space",
        "object-heavy",
        "--seeds",
        "200",
        "--metrics-out",
        path,
    ]);
    assert_eq!(status, 0, "{out}");
    let written = std::fs::read_to_string(path).expect("metrics written");
    let (seeds, metrics) = parse_metrics_json(&written).expect("a metrics document");

    let library = sweep(&SweepConfig {
        seeds: 200,
        scenario: ScenarioConfig::object_heavy(),
        corpus_dir: None,
        ..SweepConfig::default()
    });
    assert_eq!(seeds, library.seeds_run);
    assert_eq!(
        metrics_json(&metrics, seeds, false),
        metrics_json(&library.metrics, library.seeds_run, false)
    );
}
