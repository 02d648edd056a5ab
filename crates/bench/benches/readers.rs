//! What reading a trace costs, reader by reader, in ns per trace entry:
//! taking a trace out of its recorder (the canonical sort plus the
//! `TraceIndex` build) and each of the five post-run passes — oracles,
//! metrics, path coverage, span tree, fingerprint — over 500 stored
//! default-space traces. ROADMAP item 3c's "oracle / metrics / spans
//! derivation entries/s", and the microbench to run before and after
//! touching a reader or the index (`caa-perf --workload posthoc` is the
//! end-to-end form).

use std::time::{Duration, Instant};

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::{execute_in, RunArtifacts};
use caa_harness::metrics::MetricsRecorder;
use caa_harness::oracle::check_run;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::build_span_tree;
use caa_harness::sweep::PathCoverage;
use caa_harness::trace::{EntryKind, Trace, TraceRecorder};
use caa_runtime::observe::Observer;
use caa_simnet::NetTap;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const TRACES: u64 = 500;

/// Feeds a stored trace's entries back into `recorder`, as the run that
/// produced it did.
fn record_again(recorder: &TraceRecorder, trace: &Trace) {
    for entry in trace.entries() {
        match &entry.kind {
            EntryKind::Runtime(event) => recorder.on_event(event.clone()),
            EntryKind::NetSent(event) => recorder.on_sent(event),
            EntryKind::NetDropped(event) => recorder.on_dropped(event),
            EntryKind::NetCorrupted(event) => recorder.on_corrupted(event),
        }
    }
}

fn bench_readers(c: &mut Criterion) {
    let mut arena = ExecutionArena::new();
    let scenario = ScenarioConfig::default();
    let runs: Vec<RunArtifacts> = (0..TRACES)
        .map(|seed| execute_in(&ScenarioPlan::generate(seed, &scenario), &mut arena))
        .collect();
    let entries: u64 = runs.iter().map(|run| run.trace.len() as u64).sum();

    let mut group = c.benchmark_group("readers");
    group.sample_size(20);
    group.throughput(Throughput::Elements(entries));

    // Only the take is on the clock: sort (of entries that arrive sorted,
    // as a run's do), labels, instance table, member lists — into a
    // recycled trace, the sweep's steady state.
    group.bench_function("take_sort_and_index", |b| {
        let recorder = TraceRecorder::new();
        let mut recycled = Trace::default();
        b.iter_custom(|iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                for run in &runs {
                    record_again(&recorder, &run.trace);
                    let started = Instant::now();
                    recycled = recorder.take_trace_into(std::mem::take(&mut recycled));
                    timed += started.elapsed();
                    assert_eq!(recycled.len(), run.trace.len());
                }
            }
            timed
        });
    });
    group.bench_function("check_run", |b| {
        b.iter(|| runs.iter().map(|run| check_run(run).len()).sum::<usize>());
    });
    group.bench_function("record_run", |b| {
        let mut recorder = MetricsRecorder::new();
        b.iter(|| runs.iter().for_each(|run| recorder.record_run(run)));
    });
    group.bench_function("path_coverage", |b| {
        b.iter(|| {
            runs.iter()
                .map(|run| PathCoverage::from_trace(&run.trace).signature())
                .fold(0, |acc, signature| acc ^ signature)
        });
    });
    group.bench_function("build_span_tree", |b| {
        b.iter(|| {
            runs.iter()
                .map(|run| build_span_tree(&run.trace).len())
                .sum::<usize>()
        });
    });
    group.bench_function("render_fingerprint", |b| {
        b.iter(|| {
            runs.iter()
                .map(|run| run.trace.render_fingerprint())
                .fold(0, |acc, fingerprint| acc ^ fingerprint)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_readers);
criterion_main!(benches);
