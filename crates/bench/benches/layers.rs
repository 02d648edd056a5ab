//! What three layers of a seed cost on their own, with no network, no
//! system and no fiber under them, and what a whole system costs with
//! nothing above it — the microbenches ROADMAP item 2 asks for, to run
//! before and after touching the layer (`caa-perf` is the end-to-end form).
//! Each line is the mean wall-clock time of one iteration, and of one
//! element of it, over a sample of at most 200 ms:
//!
//! * **definitions/s** — `ActionDefBuilder` on a five-role nested action
//!   with one shared fallback and one shared abortion handler, the shape a
//!   scenario executor compiles per action;
//! * **resolver events/s** — complete §3.3.2 rounds among five
//!   `XrrResolution` states that all raise, their messages relayed through
//!   an in-memory queue (the `LE` list, election and commit fan-out);
//! * **trace entries/s** — runtime events appended to a run log and made
//!   into a sorted, indexed trace;
//! * **bare system, µs/run** — build + run + drop of the §5.3 scenario at
//!   its base configuration (three participants, one simultaneous raise,
//!   20 messages) with no harness: the fixed cost of a `System::run` next
//!   to its messages. Also prints how many fiber stacks the runs mapped —
//!   3 in all with the per-thread run pool, 3 per run without it;
//! * **bare system, µs per §5.2 iteration** — the `nested_abort` scenario
//!   at its base configuration, per iteration (an outer and a nested
//!   instance, a raise, an abort and a recovery: the per-instance path),
//!   with what a warmed iteration asks the allocator for;
//! * **sizes** — `size_of` of the types the hot paths move by value (a
//!   `Message`, a log `Entry`, its `EntryKind` and `EventKind`, and a
//!   `Name`), so that a change that grows one shows up in the log;
//! * **simnet ping-pong, µs per round trip** — two endpoints bouncing one
//!   message over a 1 ms link, hosted both ways: by two OS threads (the
//!   thread host; what `caa-perf`'s `simnet.pingpong_rt_us` times) and by
//!   two fibers in a `caa_fiber::Group`, as `System::run` hosts
//!   participants (the fiber host; what a system pays). Each round trip
//!   is two deliveries, each a time advance and a hand-off — a futex sleep
//!   and wake-up on threads, one stack switch on fibers, where the one
//!   that blocks transfers the CPU to the other;
//! * **a seed's cost model** — `execute` timed for 3 000 default seeds
//!   (the best of three runs each, through one warmed arena) and fitted by
//!   least squares, no intercept, to what the seed did: µs per message,
//!   per scheduler park, per runtime event recorded and per action
//!   instance, with the fit's R². The per-unit prices of a harness seed,
//!   to set against the kernels above (as merged: 0.24 µs a message,
//!   0.19 a park, 0.10 an event, 1.3 an instance, R² 0.986). Next to its
//!   µs the row prints what a warmed worker's whole per-seed loop asks the
//!   allocator for (the plan it generates, and little else) and how
//!   `execute` splits into build, run and teardown;
//! * **readers, µs and allocations per trace** — each of the five post-run
//!   readers over 500 stored default traces, and what it asked the
//!   allocator for on a warmed thread: nothing, but for the one buffer a
//!   span tree keeps its spans in; and beside the fingerprint,
//!   `reader_per_trace/render`, the text formatter alone (what the goldens,
//!   `caa replay` and corpus dumps still use; its one allocation is the
//!   string it returns);
//! * **the trace hash, ns/byte** — `hash64` over the fingerprint's byte
//!   stream of one default trace of mean length, with the stream's bytes
//!   per trace: the fingerprint less this is what assembling its lines
//!   costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use caa_bench::{nested_abort, simultaneous_raise_xrr, NestedAbortParams, SimultaneousRaiseParams};
use caa_core::exception::{Exception, ExceptionId};
use caa_core::ids::{ActionId, ThreadId};
use caa_core::message::Message;
use caa_core::name::Name;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::{secs, VirtualInstant};
use caa_exgraph::generate::conjunction_lattice;
use caa_harness::arena::ExecutionArena;
use caa_harness::exec::{execute_in, RunArtifacts};
use caa_harness::metrics::MetricsRecorder;
use caa_harness::oracle::check_run;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::build_span_tree;
use caa_harness::sweep::{run_plan_checked, PathCoverage};
use caa_harness::trace::{hash64, Entry, EntryKind, Trace};
use caa_protocol::protocol::{ProtoCtx, ProtoEvent, ResolutionProtocol, ResolverState};
use caa_protocol::XrrResolution;
use caa_runtime::action::{AbortHandler, Handler};
use caa_runtime::observe::{EventKind, RunLog};
use caa_runtime::ActionDef;
use caa_simnet::{Classify, FiberNetwork, LatencyModel, NetConfig, Network};
use std::hint::black_box;

const N: u32 = 5;

/// How long a line samples for, at most.
const SAMPLE_TIME: Duration = Duration::from_millis(200);

fn report(name: &str, elements: u64, mean: Duration) {
    println!(
        "bench: layers/{name}: {mean:?}/iter ({:.1} ns/elem)",
        mean.as_nanos() as f64 / elements as f64
    );
}

/// Times `body` — which works through `elements` elements — once to size
/// the sample, then up to `samples` times more within [`SAMPLE_TIME`].
fn bench<R>(name: &str, elements: u64, samples: u32, mut body: impl FnMut() -> R) {
    let started = Instant::now();
    black_box(body());
    let first = started.elapsed().max(Duration::from_nanos(1));
    let fitting = (SAMPLE_TIME.as_nanos() / first.as_nanos()).max(1);
    let n = fitting.min(u128::from(samples)) as u32;
    let started = Instant::now();
    for _ in 0..n {
        black_box(body());
    }
    report(name, elements, (started.elapsed() + first) / (n + 1));
}

/// [`bench`] for a routine that keeps set-up it repeats per iteration off
/// the clock: it runs `samples` iterations and says how long they took.
fn bench_timed(name: &str, elements: u64, samples: u32, routine: impl FnOnce(u64) -> Duration) {
    report(name, elements, routine(u64::from(samples)) / samples);
}

thread_local! {
    /// Allocations (and reallocations) this thread has made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread for the reader rows.
struct Counting;

// SAFETY: every request is passed to `System` unchanged; the count is a
// `const`-initialised thread-local without a destructor, which neither
// allocates nor can be gone when a thread's last allocation is made.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn primitives() -> Vec<ExceptionId> {
    (0..N).map(|i| ExceptionId::new(format!("e{i}"))).collect()
}

fn bench_definitions() {
    let prims = primitives();
    let graph = Rc::new(conjunction_lattice(&prims, 2).expect("distinct primitives"));
    let roles: Vec<Name> = (0..N).map(|t| format!("r{t}").into()).collect();
    let name = Name::new("a0.1");
    let fallback: Handler = Rc::new(|hc| {
        hc.work(secs(0.1))?;
        Ok(HandlerVerdict::Recovered)
    });
    let abort: AbortHandler = Rc::new(|ac| {
        ac.work(secs(0.1))?;
        Ok(None)
    });
    bench("action_def_build_n5", 1, 100, || {
        let mut builder = ActionDef::builder(name)
            .graph_shared(Rc::clone(&graph))
            .signal_timeout(secs(2.0))
            .exit_timeout(secs(200.0))
            .resolution_timeout(secs(200.0));
        for (t, &role) in roles.iter().enumerate() {
            builder = builder.role(role, t as u32);
        }
        for &role in &roles {
            builder = builder
                .fallback_handler_shared(role, Rc::clone(&fallback))
                .abort_handler_shared(role, Rc::clone(&abort));
        }
        builder.build().expect("five distinct roles")
    });
}

fn bench_resolver() {
    let prims = primitives();
    let graph = conjunction_lattice(&prims, prims.len()).expect("distinct primitives");
    let group_of: Vec<ThreadId> = (0..N).map(ThreadId::new).collect();
    let raised: Vec<Exception> = group_of
        .iter()
        .zip(&prims)
        .map(|(&t, &e)| Exception::new(e).with_origin(t))
        .collect();
    let ctx = |me: ThreadId| ProtoCtx {
        me,
        action: ActionId::top_level(1),
        group: &group_of,
        graph: &graph,
    };
    // One round: N local raises, N(N−1) exceptions and N−1 commits fed.
    let events_per_round = u64::from(N + N * (N - 1) + (N - 1));
    let mut queue: Vec<(ThreadId, Message)> = Vec::new();
    bench("resolver_round_n5", events_per_round, 100, || {
        let mut states: Vec<Box<dyn ResolverState>> =
            group_of.iter().map(|_| XrrResolution.new_state()).collect();
        let mut resolved = 0u32;
        for (i, e) in raised.iter().enumerate() {
            let actions = states[i].on_event(&ctx(group_of[i]), ProtoEvent::LocalRaise(e));
            resolved += u32::from(actions.resolved.is_some());
            queue.extend(actions.outbound);
        }
        while let Some((to, msg)) = queue.pop() {
            let actions = states[to.index()].on_event(&ctx(to), ProtoEvent::Control(&msg));
            resolved += u32::from(actions.resolved.is_some());
            queue.extend(actions.outbound);
        }
        assert_eq!(black_box(resolved), N, "every state must resolve");
    });
}

fn bench_trace_log() {
    const ENTRIES: u64 = 200;
    let (name, role) = (Name::new("a0"), Name::new("r0"));
    let exception = ExceptionId::new("a0_e0");
    // The mix a seed records: entries carrying names, entries carrying an
    // exception id, plain ones.
    let kind = |i: u64| match i % 4 {
        0 => EventKind::Enter {
            name,
            role,
            depth: 1,
        },
        1 => EventKind::Raise { exception },
        2 => EventKind::Resolved { exception },
        _ => EventKind::ExitStart { epoch: 0 },
    };
    let mut log = RunLog::default();
    let mut recycled = Trace::default();
    bench("trace_record_and_take", ENTRIES, 100, || {
        for i in 0..ENTRIES {
            log.push(
                VirtualInstant::from_nanos(i / N as u64),
                ThreadId::new((i % N as u64) as u32),
                ActionId::top_level(1 + i % 3),
                EntryKind::Runtime(kind(i)),
            );
        }
        recycled = Trace::from_log(&mut log, std::mem::take(&mut recycled));
        assert_eq!(recycled.len() as u64, ENTRIES);
    });
}

fn bench_bare_system() {
    let stacks_before = caa_fiber::stacks_mapped();
    let mut runs = 0u64;
    bench("bare_system_simraise_n3", 1, 100, || {
        runs += 1;
        let report = simultaneous_raise_xrr(SimultaneousRaiseParams::default());
        assert!(report.is_ok(), "the §5.3 base configuration runs clean");
        report
    });
    println!(
        "layers/bare_system_simraise_n3: {} fiber stacks mapped over {runs} runs",
        caa_fiber::stacks_mapped() - stacks_before
    );

    let params = NestedAbortParams::default();
    let iterations = u64::from(params.iterations);
    // A run to size the pool, then one counted.
    nested_abort(params).expect_ok();
    let before = ALLOCS.get();
    nested_abort(params).expect_ok();
    let allocs = ALLOCS.get() - before;
    bench("bare_system_nested_abort", iterations, 100, || {
        let report = nested_abort(params);
        assert!(report.is_ok(), "the §5.2 base configuration runs clean");
        report
    });
    println!(
        "layers/bare_system_nested_abort: {:.2} allocations/iteration ({iterations} iterations \
         a run, warmed)",
        allocs as f64 / iterations as f64
    );
}

fn print_sizes() {
    println!(
        "layers/sizes: Message {} B, trace Entry {} B, EntryKind {} B, EventKind {} B, Name {} B",
        std::mem::size_of::<Message>(),
        std::mem::size_of::<Entry>(),
        std::mem::size_of::<EntryKind>(),
        std::mem::size_of::<EventKind>(),
        std::mem::size_of::<Name>(),
    );
}

#[derive(Debug)]
struct Ping;

impl Classify for Ping {
    fn class(&self) -> &'static str {
        "Ping"
    }
}

fn pingpong_config() -> NetConfig {
    NetConfig {
        latency: LatencyModel::Fixed(caa_core::time::millis(1)),
        seed: 1,
        ..NetConfig::default()
    }
}

/// `round_trips` round trips between two thread-hosted endpoints, one per
/// OS thread.
fn pingpong_on_threads(round_trips: u64) -> Duration {
    let net: Network<Ping> = Network::new(pingpong_config());
    let (mut a, mut b) = (net.endpoint("a"), net.endpoint("b"));
    let (a_id, b_id) = (a.id(), b.id());
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..round_trips {
                b.recv().expect("ping delivered");
                b.send(a_id, Ping);
            }
        });
        for _ in 0..round_trips {
            a.send(b_id, Ping);
            a.recv().expect("pong delivered");
        }
    });
    started.elapsed()
}

/// The same exchange between two fiber-hosted endpoints in a group, as
/// `System::run` hosts participants: the one that blocks hands the CPU
/// straight to whoever the network says runs next, and the loop runs once
/// per fiber that ends.
fn pingpong_on_fibers(round_trips: u64) -> Duration {
    const STACK_BYTES: usize = 64 * 1024;
    let net: FiberNetwork<Ping> = Network::new(pingpong_config());
    let (mut a, mut b) = (net.endpoint("a"), net.endpoint("b"));
    let (a_id, b_id) = (a.id(), b.id());
    let ping = caa_fiber::Fiber::new(caa_fiber::Stack::new(STACK_BYTES), move || {
        for _ in 0..round_trips {
            a.send(b_id, Ping);
            a.recv().expect("pong delivered");
        }
    });
    let pong = caa_fiber::Fiber::new(caa_fiber::Stack::new(STACK_BYTES), move || {
        for _ in 0..round_trips {
            b.recv().expect("ping delivered");
            b.send(a_id, Ping);
        }
    });
    let mut group = caa_fiber::Group::new();
    group.insert(a_id.index(), ping);
    group.insert(b_id.index(), pong);
    let started = Instant::now();
    while !group.is_empty() {
        let next = net.next_runnable().expect("one of the two is woken");
        if let Some((index, _)) = group.resume(next.index()) {
            drop(group.remove(index));
        }
    }
    started.elapsed()
}

fn bench_simnet_pingpong() {
    /// Per timed call, so that starting the second thread is noise.
    const ROUND_TRIPS: u64 = 200;
    bench_timed("simnet_pingpong_threads", ROUND_TRIPS, 100, |calls| {
        (0..calls).map(|_| pingpong_on_threads(ROUND_TRIPS)).sum()
    });
    bench_timed("simnet_pingpong_fibers", ROUND_TRIPS, 100, |calls| {
        (0..calls).map(|_| pingpong_on_fibers(ROUND_TRIPS)).sum()
    });
}

/// Solves the normal equations `XᵀX β = Xᵀy` of a four-term least-squares
/// fit by Gaussian elimination with partial pivoting.
fn least_squares(rows: &[([f64; 4], f64)]) -> [f64; 4] {
    let mut m = [[0.0f64; 5]; 4];
    for (x, y) in rows {
        for i in 0..4 {
            for j in 0..4 {
                m[i][j] += x[i] * x[j];
            }
            m[i][4] += x[i] * y;
        }
    }
    for col in 0..4 {
        let pivot = (col..4)
            .max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))
            .expect("four rows");
        m.swap(col, pivot);
        assert!(m[col][col].abs() > 1e-9, "the seeds' counts are collinear");
        let pivot_row = m[col];
        for row in (0..4).filter(|&row| row != col) {
            let factor = m[row][col] / pivot_row[col];
            for (cell, pivot) in m[row].iter_mut().zip(pivot_row) {
                *cell -= factor * pivot;
            }
        }
    }
    std::array::from_fn(|i| m[i][4] / m[i][i])
}

fn bench_seed_cost_model() {
    const SEEDS_PER_ITER: u64 = 1_000;
    let scenario = ScenarioConfig::default();
    // Three "iterations" of a thousand seeds each.
    bench_timed("harness_execute_default_seed", SEEDS_PER_ITER, 3, |iters| {
        let mut arena = ExecutionArena::new();
        let mut rows = Vec::new();
        let mut timed = Duration::ZERO;
        for seed in 0..iters * SEEDS_PER_ITER {
            let plan = ScenarioPlan::generate(seed, &scenario);
            let mut best = Duration::MAX;
            let mut counts = [0.0; 4];
            for _ in 0..3 {
                let started = Instant::now();
                let run = execute_in(&plan, &mut arena);
                best = best.min(started.elapsed());
                let events = run.trace.entries().iter();
                counts = [
                    run.report.net_stats.total_sent() as f64,
                    run.report.sched_stats.parks as f64,
                    events
                        .filter(|e| matches!(e.kind, EntryKind::Runtime(_)))
                        .count() as f64,
                    run.trace.index().instances().len() as f64,
                ];
                arena.recycle_trace(run.trace);
            }
            timed += best;
            rows.push((counts, best.as_secs_f64() * 1e6));
        }
        let beta = least_squares(&rows);
        let mean = rows.iter().map(|(_, y)| y).sum::<f64>() / rows.len() as f64;
        let (mut residual, mut total) = (0.0, 0.0);
        for (x, y) in &rows {
            let fitted: f64 = x.iter().zip(&beta).map(|(x, b)| x * b).sum();
            residual += (y - fitted).powi(2);
            total += (y - mean).powi(2);
        }
        println!(
            "layers/seed_cost_model: execute_us = {:.3}*messages + {:.3}*parks + \
             {:.3}*runtime_events + {:.3}*instances ({} default seeds, mean {mean:.1} us, \
             R^2 {:.3})",
            beta[0],
            beta[1],
            beta[2],
            beta[3],
            rows.len(),
            1.0 - residual / total,
        );
        timed
    });
    // The same seeds through a sweep worker's whole loop, warmed by a pass
    // before the counted one: allocations per seed, and where `execute`'s
    // time goes (the stage timers the sweep summary prints).
    let mut arena = ExecutionArena::new();
    let pass = |arena: &mut ExecutionArena| {
        for seed in 0..SEEDS_PER_ITER {
            let plan = ScenarioPlan::generate(seed, &scenario);
            let result = run_plan_checked(plan, false, arena);
            arena.recycle_trace(result.artifacts.trace);
        }
    };
    pass(&mut arena);
    drop(arena.take_metrics());
    let before = ALLOCS.get();
    pass(&mut arena);
    let allocs = ALLOCS.get() - before;
    let wall = &arena.metrics().wall_clock;
    let stage = |name: &str| wall.counter_value(name) as f64;
    let execute = stage("stage_execute_ns").max(1.0);
    println!(
        "layers/harness_execute_default_seed: {:.1} allocations/seed (generate to readers, \
         {SEEDS_PER_ITER} warmed default seeds); execute = build {:.1} % + run {:.1} % + \
         teardown {:.1} %",
        allocs as f64 / SEEDS_PER_ITER as f64,
        100.0 * stage("stage_execute_build_ns") / execute,
        100.0 * stage("stage_execute_run_ns") / execute,
        100.0 * stage("stage_execute_teardown_ns") / execute,
    );
}

fn bench_readers() {
    const TRACES: u64 = 500;
    let mut arena = ExecutionArena::new();
    let scenario = ScenarioConfig::default();
    let runs: Vec<RunArtifacts> = (0..TRACES)
        .map(|seed| execute_in(&ScenarioPlan::generate(seed, &scenario), &mut arena))
        .collect();
    let mut recorder = MetricsRecorder::new();
    type Reader<'a> = Box<dyn FnMut(&RunArtifacts) -> u64 + 'a>;
    let mut readers: [(&str, Reader); 6] = [
        ("check_run", Box::new(|run| check_run(run).len() as u64)),
        (
            "record_run",
            Box::new(move |run| {
                recorder.record_run(run);
                0
            }),
        ),
        (
            "path_coverage",
            Box::new(|run| PathCoverage::from_trace(&run.trace).signature()),
        ),
        (
            "build_span_tree",
            Box::new(|run| build_span_tree(&run.trace).len() as u64),
        ),
        (
            "render_fingerprint",
            Box::new(|run| run.trace.render_fingerprint()),
        ),
        ("render", Box::new(|run| run.trace.render().len() as u64)),
    ];
    for (name, read) in &mut readers {
        let mut pass = || runs.iter().fold(0, |acc, run| acc ^ read(run));
        // The pass that sizes scratch and registers counters, then the
        // counted one.
        black_box(pass());
        let before = ALLOCS.get();
        black_box(pass());
        let allocs = ALLOCS.get() - before;
        bench(&format!("reader_per_trace/{name}"), TRACES, 20, &mut pass);
        println!(
            "layers/reader_per_trace/{name}: {:.2} allocations/trace",
            allocs as f64 / TRACES as f64
        );
    }
    // The hash alone, over the fingerprint's byte stream of a trace of mean
    // length: what `render_fingerprint` pays beyond assembling its lines.
    let streams: Vec<Vec<u8>> = runs
        .iter()
        .map(|run| run.trace.fingerprint_bytes())
        .collect();
    let mean = streams.iter().map(Vec::len).sum::<usize>() / streams.len();
    let typical = streams
        .iter()
        .min_by_key(|bytes| bytes.len().abs_diff(mean))
        .expect("traces were run");
    let bytes = typical.len() as u64;
    let mut per_byte = 0.0;
    bench_timed("hash64_trace", bytes, 2_000, |n| {
        let started = Instant::now();
        for _ in 0..n {
            black_box(hash64(black_box(typical)));
        }
        let took = started.elapsed();
        per_byte = took.as_nanos() as f64 / (n * bytes) as f64;
        took
    });
    println!(
        "layers/hash64_trace: {per_byte:.3} ns/byte over one {bytes} B fingerprint stream \
         (mean {mean} B per default trace)"
    );
}

fn main() {
    print_sizes();
    bench_definitions();
    bench_resolver();
    bench_trace_log();
    bench_bare_system();
    bench_simnet_pingpong();
    bench_seed_cost_model();
    bench_readers();
}
