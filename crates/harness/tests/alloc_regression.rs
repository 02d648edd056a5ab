//! Allocation-regression gate for the execute hot path.
//!
//! The arena / Rc-fan-out work (execution arenas with their one run log,
//! recycled trace buffers, cached action shapes and definitions,
//! `Rc`'d broadcast bodies, interned names, plans compiled into refilled
//! tables, one handler pair per arena), the runtime's inline round tables
//! and its run pool (slots, stacks, a context's lists, resolver states)
//! exist to keep steady-state seed execution allocation-free outside the
//! plan it generates. Nothing in
//! the type system stops a future change from quietly re-introducing
//! per-seed churn, so this test pins the allocation count of a fixed seed
//! per benchmark configuration under a counting global allocator: execute
//! the seed once through a warmed per-worker arena and assert the count
//! stays under a ceiling 1.5× the measured steady state — room for
//! compiler and library drift, none for reverting any one of those
//! mechanisms.
//!
//! The test measures end to end (plan generation, execution, oracles, the
//! replay re-execution where the config checks it), exactly like a sweep
//! worker's per-seed loop — and pins, as a number of its own, the part of
//! the count made *inside `System::run`*, on the participants' fibers:
//! round state, messages, trace entries. What is left is the compile side
//! (plan, definitions, system, spawn) and the readers. Pinned apart,
//! neither side can grow behind a saving on the other.
//!
//! Fiber stacks are mapped, not allocated, so the allocator does not see
//! them; the same warmed execution therefore also asserts that the
//! process-wide count of mapped stacks stands still — the runtime's
//! per-thread run pool hands every participant the stack its slot used
//! last seed. The pool serves a bare `System::run` as it serves the
//! harness, so the paper's scenarios (`caa_bench::scenarios`, no arena, no
//! harness) are pinned here too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use caa_harness::arena::ExecutionArena;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::sweep::{run_plan_checked, SeedResult};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// The allocations among `ALLOCS` made on a fiber. A participant body is
/// the only thing that runs on one, and only under `System::run`.
static RUN_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// The value of `ALLOCS` at the first and (so far) last call of the
/// allocator — allocating or freeing — made on a fiber since the marks
/// were last cleared (`u64::MAX`: none yet). What a stage split has to
/// tell the allocations made before the participants ran from those made
/// after: the stages of an execution are not visible from outside it.
static FIRST_ON_FIBER: AtomicU64 = AtomicU64::new(u64::MAX);
static LAST_ON_FIBER: AtomicU64 = AtomicU64::new(u64::MAX);

thread_local! {
    /// Whether this thread's allocations count: set by the test whose turn
    /// it is (see `turn`), so that libtest's own bookkeeping on its main
    /// thread — it reports one test while the next one measures — stays
    /// out of the numbers.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(allocates: bool) {
    // Loads of `const`-initialised thread-locals with no destructor:
    // nothing that could allocate in turn, at any point of a thread's life.
    if !COUNTED.get() {
        return;
    }
    let before = ALLOCS.fetch_add(u64::from(allocates), Ordering::Relaxed);
    if caa_fiber::in_fiber() {
        RUN_ALLOCS.fetch_add(u64::from(allocates), Ordering::Relaxed);
        // The first mark excludes the call that leaves it, the last one
        // includes it: what lies outside the two is off the fibers.
        let _ =
            FIRST_ON_FIBER.compare_exchange(u64::MAX, before, Ordering::Relaxed, Ordering::Relaxed);
        LAST_ON_FIBER.store(before + u64::from(allocates), Ordering::Relaxed);
    }
}

// Counting wrapper over the system allocator: `alloc`/`realloc` bump
// relaxed counters. Deallocations are not counted (the gate pins churn,
// not leaks); they only leave a mark when made on a fiber.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The counters (and `caa_fiber::stacks_mapped`) are process-wide; the
/// tests of this file take turns so that neither counts the other's work.
static TURN: Mutex<()> = Mutex::new(());

/// Waits for the calling test's turn and starts counting its thread's
/// allocations (a participant's too: fibers run on the thread that calls
/// `System::run`). libtest gives every test its own thread, so nothing
/// needs to stop the counting again.
fn turn() -> MutexGuard<'static, ()> {
    let turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    COUNTED.set(true);
    turn
}

/// Generates `seed`'s plan and runs it through `arena`: a sweep worker's
/// per-seed loop.
fn run_seed(
    seed: u64,
    scenario: &ScenarioConfig,
    check_replay: bool,
    arena: &mut ExecutionArena,
) -> SeedResult {
    run_plan_checked(ScenarioPlan::generate(seed, scenario), check_replay, arena)
}

/// Executes `seed` once through a warmed arena and returns the
/// allocation count of that execution (including plan generation and
/// oracle checks — the sweep worker's whole per-seed loop), and how many
/// of those were made inside `System::run`.
fn allocs_for_seed(seed: u64, scenario: &ScenarioConfig, check_replay: bool) -> (u64, u64) {
    let mut arena = ExecutionArena::new();
    // Warm-up: populate the run pool, trace buffers and definition cache
    // with this exact seed's shapes.
    for _ in 0..3 {
        let result = run_seed(seed, scenario, check_replay, &mut arena);
        assert!(result.passed(), "gate seed must be violation-free");
        arena.recycle_trace(result.artifacts.trace);
    }
    let stacks_before = caa_fiber::stacks_mapped();
    let counters = || {
        (
            ALLOCS.load(Ordering::Relaxed),
            RUN_ALLOCS.load(Ordering::Relaxed),
        )
    };
    let before = counters();
    let result = run_seed(seed, scenario, check_replay, &mut arena);
    let after = counters();
    assert!(result.passed());
    assert_eq!(
        caa_fiber::stacks_mapped(),
        stacks_before,
        "a warmed execution mapped a fiber stack: the run pool no longer recycles them"
    );
    arena.recycle_trace(result.artifacts.trace);
    (after.0 - before.0, after.1 - before.1)
}

/// One pinned case per bench configuration: a fixed seed, the
/// allocations of one warmed execution and how many of them were made
/// inside `System::run`, each under a ceiling 1.5× what was last measured
/// (the test prints both). Last measured 34 / 37 / 30 / 95 in all,
/// 0 / 0 / 0 / 64 of them inside `System::run` — what is left is the plan a seed
/// generates, one `Rc` each for the system and its network, the report's
/// list of results and, on the crash paths, the membership extension's
/// removal sets and synthesized crash exceptions. Before the definitions
/// were cached with their shapes, a context's lists, the participants'
/// fibers and the compiled plan's tables recycled, and scalar payloads
/// held inline (PR 22): 98 / 165 / 155, 24 / 48 / 69 inside (no crash
/// plan was pinned). Before a frame made its resolver state on first
/// use, the pre-defined exception ids were interned and the oracles read into
/// scratch: 107 / 180 / 161, 30 / 60 / 72 inside (PR 17). Before the round
/// tables moved into the frame and a definition's handlers into one closure
/// pair: 197 / 344 / 356 (PR 15), from 217 / 375 / 398 (PR 14) and
/// 313 / 567 / 562 with the fiber host of PR 13.
#[test]
fn steady_state_seed_allocation_stays_bounded() {
    let _turn = turn();
    // (config, scenario, replay-checked, seed, ceiling, run-side ceiling)
    let cases = [
        (
            "default",
            ScenarioConfig::default(),
            false,
            7u64,
            51u64,
            0u64,
        ),
        ("default+replay", ScenarioConfig::default(), true, 7, 56, 0),
        (
            "object-heavy",
            ScenarioConfig::object_heavy(),
            false,
            7,
            45,
            0,
        ),
        // Two crash-stops, one of them restarted and readmitted: suspicion,
        // view changes and the rejoin handshake.
        (
            "multi-crash",
            ScenarioConfig::multi_crash(),
            false,
            7,
            143,
            96,
        ),
    ];
    for (name, scenario, check_replay, seed, ceiling, run_ceiling) in cases {
        let (allocs, in_run) = allocs_for_seed(seed, &scenario, check_replay);
        // For re-pinning: `cargo test --test alloc_regression -- --nocapture`.
        println!(
            "config {name}, seed {seed}: {allocs} allocations (ceiling {ceiling}), \
             {in_run} of them inside System::run (ceiling {run_ceiling}, {:.0} % of all)",
            100.0 * in_run as f64 / allocs as f64
        );
        for (what, measured, ceiling) in [
            ("in one warmed execution", allocs, ceiling),
            ("inside System::run", in_run, run_ceiling),
        ] {
            assert!(
                measured <= ceiling,
                "config {name}, seed {seed}: {measured} allocations {what} exceed the \
                 pinned ceiling {ceiling} — the arena's caches, the run pool or the inline \
                 round tables regressed (or a legitimate change needs this gate \
                 recalibrated; ceilings are 1.5× the steady state last measured): the \
                 stage split this test file prints says where"
            );
            // The gate must also stay meaningful: a ceiling far above
            // reality would never catch anything. (A count of zero is
            // pinned by a ceiling of zero.)
            assert!(
                measured * 2 >= ceiling,
                "config {name}: measured {measured} allocations {what} are far below \
                 the ceiling {ceiling}; tighten the gate so regressions stay visible"
            );
        }
    }
}

/// Where a warmed seed's allocations are made, stage by stage — printed,
/// not pinned (the totals above are): generate (`ScenarioPlan::generate`),
/// build (compiling the plan, building the system, spawning), run (on the
/// participants' fibers), teardown (after the last participant ran: the
/// report, the trace hand-over) and the readers (oracles, metrics, path
/// coverage). The execution's own stages are not visible from outside it,
/// so build is told from teardown by where the participants' calls of the
/// allocator — allocating or freeing — fall among the others; a seed whose
/// participants never call it (a warmed default seed) prints the two as
/// one.
#[test]
fn a_warmed_seed_says_where_it_allocates() {
    use caa_harness::exec::execute_in;
    use caa_harness::oracle::check_run;
    use caa_harness::sweep::PathCoverage;

    let _turn = turn();
    let now = || ALLOCS.load(Ordering::Relaxed);
    for (name, scenario, seed) in [
        ("default", ScenarioConfig::default(), 7),
        ("object-heavy", ScenarioConfig::object_heavy(), 7),
        ("multi-crash", ScenarioConfig::multi_crash(), 7),
    ] {
        let mut arena = ExecutionArena::new();
        let mut last = None;
        for _ in 0..4 {
            let started = now();
            let plan = ScenarioPlan::generate(seed, &scenario);
            let generated = now();
            // `execute_in` runs a copy of the plan: made here, off the count.
            let copy = plan.clone();
            let cloned = now();
            drop(copy);
            FIRST_ON_FIBER.store(u64::MAX, Ordering::Relaxed);
            LAST_ON_FIBER.store(u64::MAX, Ordering::Relaxed);
            let run_before = RUN_ALLOCS.load(Ordering::Relaxed);
            let executing = now();
            let run = execute_in(&plan, &mut arena);
            let executed = now();
            let in_run = RUN_ALLOCS.load(Ordering::Relaxed) - run_before;
            let marks = (
                FIRST_ON_FIBER.load(Ordering::Relaxed),
                LAST_ON_FIBER.load(Ordering::Relaxed),
            );
            assert!(check_run(&run).is_empty());
            arena.metrics_recorder().record_run(&run);
            std::hint::black_box(PathCoverage::from_trace(&run.trace));
            let read = now();
            arena.recycle_trace(run.trace);
            let off_fiber = (executed - executing) - (cloned - generated) - in_run;
            let (build, teardown) = match marks {
                (u64::MAX, _) => (off_fiber, None),
                (first, last) => (
                    (first - executing) - (cloned - generated),
                    Some(executed - last),
                ),
            };
            last = Some((
                generated - started,
                build,
                in_run,
                teardown,
                read - executed,
            ));
        }
        let (generate, build, run, teardown, readers) = last.expect("four passes");
        // For re-pinning: `cargo test --test alloc_regression -- --nocapture`.
        match teardown {
            Some(teardown) => println!(
                "config {name}, seed {seed}, by stage: generate {generate}, build {build}, \
                 run {run}, teardown {teardown}, readers {readers}"
            ),
            None => println!(
                "config {name}, seed {seed}, by stage: generate {generate}, build + teardown \
                 {build} (the participants never called the allocator), run {run}, \
                 readers {readers}"
            ),
        }
        assert_eq!(readers, 0, "config {name}: a reader allocated");
    }
}

/// The §5.2 scenario runs its three participants through `iterations`
/// rounds of enter, nested enter, raise, abort and recover in one system:
/// what an iteration allocates is what the runtime allocates per action
/// instance, per recovery and per message on a warmed context. Pinned as
/// the cost of iterations 9 to 16 of a run, which the first eight have
/// sized everything for but the lists that grow with a thread's history
/// (the instances it finished, its entry counts: a doubling now and then),
/// and as the whole of a warmed 16-iteration run. Last measured 6 for the
/// eight — the doublings — and 39 for the run (PR 25; before, 20 and 83:
/// the two exceptions an iteration that the scenario's own closures name
/// by a string each cost an `Arc` until names were interned).
#[test]
fn nested_abort_allocates_a_constant_per_iteration() {
    use caa_bench::{nested_abort, NestedAbortParams};

    let _turn = turn();
    let allocs_of = |iterations: u32| {
        let params = NestedAbortParams {
            iterations,
            ..NestedAbortParams::default()
        };
        // Once to size the pool for exactly this run, then counted.
        nested_abort(params).expect_ok();
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = nested_abort(params);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        report.expect_ok();
        allocs
    };
    let (four, eight, sixteen) = (allocs_of(4), allocs_of(8), allocs_of(16));
    const EIGHT_MORE_CEILING: u64 = 9;
    const SIXTEEN_CEILING: u64 = 58;
    let eight_more = sixteen - eight;
    // For re-pinning: `cargo test --test alloc_regression -- --nocapture`.
    println!(
        "nested_abort, warmed: {four} / {eight} / {sixteen} allocations at 4 / 8 / 16 \
         iterations (ceiling {SIXTEEN_CEILING} for 16): {:.2} an iteration over the last \
         eight (ceiling {EIGHT_MORE_CEILING} for the eight)",
        eight_more as f64 / 8.0
    );
    pinned(
        "iterations 9 to 16 of nested_abort (an action instance, a recovery or a message \
         allocates again?)",
        eight_more,
        EIGHT_MORE_CEILING,
    );
    pinned(
        "a warmed 16-iteration nested_abort",
        sixteen,
        SIXTEEN_CEILING,
    );
    assert!(
        eight_more <= 2 * (eight - four) + 2,
        "allocations grow faster than the iterations: {four} / {eight} / {sixteen}"
    );
}

/// A bare `System::run` recycles through the calling thread's run pool:
/// once one run of each scenario has sized it, the paper's §5.2/§5.3
/// scenarios map no fiber stack however often they run, and a warmed
/// `simultaneous_raise` allocates a bounded handful (the definition and the
/// names the scenario formats for its roles, threads and exceptions — no
/// slots, heaps, lattice, bodies or resolver states). Last measured 23
/// (36 before PR 25 interned names, 64 before PR 22).
#[test]
fn bare_paper_scenarios_recycle_through_the_run_pool() {
    use caa_bench::{
        nested_abort, simultaneous_raise_xrr, NestedAbortParams, SimultaneousRaiseParams,
    };

    let _turn = turn();
    let raise = || simultaneous_raise_xrr(SimultaneousRaiseParams::default());
    let abort = || nested_abort(NestedAbortParams::default());
    // Warm-up: the pool's three slots and stacks, the per-process graphs.
    raise().expect_ok();
    abort().expect_ok();
    let stacks_before = caa_fiber::stacks_mapped();
    for _ in 0..200 {
        raise().expect_ok();
    }
    for _ in 0..20 {
        abort().expect_ok();
    }
    assert_eq!(
        caa_fiber::stacks_mapped(),
        stacks_before,
        "a warmed bare run mapped a fiber stack: System::run no longer pools them"
    );

    const CEILING: u64 = 34;
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = raise();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    report.expect_ok();
    // For re-pinning: `cargo test --test alloc_regression -- --nocapture`.
    println!("simultaneous_raise (n = 3), warmed: {allocs} allocations (ceiling {CEILING})");
    pinned(
        "a warmed simultaneous_raise (the run pool or the shared lattice regressed?)",
        allocs,
        CEILING,
    );
}

/// `measured` allocations of `what` are under their pinned `ceiling` (1.5×
/// the last measurement) — and not so far under it that the gate would
/// miss a regression.
fn pinned(what: &str, measured: u64, ceiling: u64) {
    assert!(
        measured <= ceiling,
        "{what}: {measured} allocations (ceiling {ceiling}, 1.5× the last measurement)"
    );
    assert!(
        measured * 2 >= ceiling,
        "{what}: measured {measured} allocations are far below the ceiling {ceiling}; tighten \
         the gate"
    );
}

/// Making a run log's trace in a recycled buffer is free: the canonical
/// sort runs in place and the trace takes the buffer the entries were
/// logged in, the log the recycled one. (With no buffer to recycle it
/// costs exactly one allocation, of exactly the trace's length —
/// `trace.rs` pins that.)
#[test]
fn taking_a_trace_into_a_recycled_buffer_allocates_nothing() {
    use caa_core::exception::ExceptionId;
    use caa_core::ids::{ActionId, ThreadId};
    use caa_core::time::VirtualInstant;
    use caa_harness::trace::{EntryKind, Trace};
    use caa_runtime::observe::{EventKind, RunLog};

    let _turn = turn();
    let mut log = RunLog::default();
    let exception = ExceptionId::new("x");
    let record = |log: &mut RunLog, round: u64| {
        // 300 entries, far out of canonical order.
        for i in 0..300u64 {
            log.push(
                VirtualInstant::from_nanos((i * 7919 + round) % 101),
                ThreadId::new((i % 5) as u32),
                ActionId::top_level(1),
                EntryKind::Runtime(EventKind::Raise { exception }),
            );
        }
    };
    record(&mut log, 0);
    let recycled = Trace::from_log(&mut log, Trace::default());
    record(&mut log, 1);
    let before = ALLOCS.load(Ordering::Relaxed);
    let trace = Trace::from_log(&mut log, recycled);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(trace.len(), 300);
    assert_eq!(after - before, 0, "sort or hand-off allocated");
}

/// The five post-run readers allocate nothing per trace in steady state
/// but the one buffer that holds a span tree's spans: the tables they fill
/// are the calling thread's scratch (oracles, span tree), inline (coverage)
/// or the recorder's own (metrics), a span's name is shared with what it
/// names, and a fingerprint's lines are assembled in place in the thread's
/// scratch buffer. Pinned per reader over seeds of
/// three spaces (crash plans replay memberships, object plans have the
/// longest traces), after one warm-up pass through every reader that sizes
/// the scratch. A span tree is allowed three: its buffer, and twice
/// growing it when a trace has more spans than any this thread read
/// before. Before: `check_run` 3 to 5, `PathCoverage::from_trace` 1,
/// `build_span_tree` 11 to 16 plus one per span (46 a trace on average),
/// `render_fingerprint` 1.
#[test]
fn reading_a_warmed_trace_allocates_a_bounded_handful() {
    use caa_harness::exec::execute_in;
    use caa_harness::metrics::MetricsRecorder;
    use caa_harness::oracle::check_run;
    use caa_harness::spans::build_span_tree;
    use caa_harness::sweep::PathCoverage;

    let _turn = turn();
    let mut arena = ExecutionArena::new();
    let mut recorder = MetricsRecorder::new();
    let runs: Vec<_> = [
        ("default", ScenarioConfig::default()),
        ("object-heavy", ScenarioConfig::object_heavy()),
        ("multi-crash", ScenarioConfig::multi_crash()),
    ]
    .into_iter()
    .flat_map(|(name, scenario)| {
        (0..12).map(move |seed| (name, seed, ScenarioPlan::generate(seed, &scenario)))
    })
    .map(|(name, seed, plan)| (name, seed, execute_in(&plan, &mut arena)))
    .collect();
    // Warm-up: scratch tables and buffers, and first-sight counter names.
    for (_, _, run) in &runs {
        assert!(check_run(run).is_empty());
        recorder.record_run(run);
        std::hint::black_box(build_span_tree(&run.trace));
        std::hint::black_box(run.trace.render_fingerprint());
    }
    let count = |read: &mut dyn FnMut()| {
        let before = ALLOCS.load(Ordering::Relaxed);
        read();
        ALLOCS.load(Ordering::Relaxed) - before
    };
    let mut membership_replays = 0;
    let mut most = [0; 5];
    for (name, seed, run) in &runs {
        membership_replays += u64::from(!run.plan.crashes.is_empty());
        let readers = [
            (
                "check_run",
                count(&mut || assert!(check_run(run).is_empty())),
                0,
            ),
            ("record_run", count(&mut || recorder.record_run(run)), 0),
            (
                "PathCoverage::from_trace",
                count(&mut || {
                    std::hint::black_box(PathCoverage::from_trace(&run.trace));
                }),
                0,
            ),
            (
                "build_span_tree",
                count(&mut || {
                    std::hint::black_box(build_span_tree(&run.trace));
                }),
                3,
            ),
            (
                "render_fingerprint",
                count(&mut || {
                    std::hint::black_box(run.trace.render_fingerprint());
                }),
                0,
            ),
        ];
        for (most, (reader, allocs, ceiling)) in most.iter_mut().zip(readers) {
            *most = allocs.max(*most);
            assert!(
                allocs <= ceiling,
                "config {name}, seed {seed}: {reader} made {allocs} allocations reading one \
                 warmed trace (ceiling {ceiling}) — a per-trace table, a per-span string or a \
                 heap line buffer is back"
            );
        }
    }
    // For re-pinning: `cargo test --test alloc_regression -- --nocapture`.
    println!(
        "{} warmed traces, most allocations per call: check_run, record_run, coverage, \
         span tree, fingerprint = {most:?}",
        runs.len()
    );
    assert!(
        membership_replays > 0,
        "no crash plan among the pinned seeds"
    );
}

/// A line that does not fit the renderer's line buffer — here an action
/// name of 300 bytes — takes the heap path: the same text, and in the
/// fingerprint's byte stream that text too, stable from call to call.
#[test]
fn an_over_long_name_renders_and_fingerprints_through_the_spill_path() {
    use caa_core::ids::{ActionId, ThreadId};
    use caa_core::time::VirtualInstant;
    use caa_harness::trace::{hash64, EntryKind, Trace};
    use caa_runtime::observe::{EventKind, RunLog};

    let _turn = turn();
    let name = "n".repeat(300);
    let mut log = RunLog::default();
    let mut event = |at: u64, kind: EventKind| {
        let at = VirtualInstant::from_nanos(at);
        log.push(
            at,
            ThreadId::new(2),
            ActionId::top_level(1),
            EntryKind::Runtime(kind),
        );
    };
    event(
        10,
        EventKind::Enter {
            name: name.as_str().into(),
            role: "r".into(),
            depth: 1,
        },
    );
    event(20, EventKind::Crash);
    let trace = Trace::from_log(&mut log, Trace::default());
    let expected = format!(
        "@          10 T2 #0    A0 enter {name} as r depth=1\n\
         @          20 T2 #1    A0 crash-stop\n"
    );
    assert_eq!(trace.render(), expected);
    let before = ALLOCS.load(Ordering::Relaxed);
    let fingerprint = trace.render_fingerprint();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        allocs > 0,
        "a 300-byte name cannot have fitted the line buffer"
    );
    assert_eq!(fingerprint, trace.render_fingerprint());
    let bytes = trace.fingerprint_bytes();
    assert_eq!(fingerprint, hash64(&bytes));
    let spilled = expected.split_inclusive('\n').next().expect("two lines");
    let (first, rest) = bytes.split_at(spilled.len());
    assert_eq!(
        first,
        spilled.as_bytes(),
        "the over-long line is its text in the fingerprint too"
    );
    assert_ne!(
        rest,
        &expected.as_bytes()[spilled.len()..],
        "the line that fits lands its numbers as bytes"
    );
}

/// One recorder serves every execution of an arena; what an earlier seed
/// recorded (entries, per-thread sequence numbers) must not leak into a
/// later, different one.
#[test]
fn one_recorder_across_different_seeds_renders_like_fresh_ones() {
    use caa_harness::exec::execute_in;

    let _turn = turn();
    let scenario = ScenarioConfig::default();
    let mut arena = ExecutionArena::new();
    for seed in [7, 1, 9, 7] {
        let plan = ScenarioPlan::generate(seed, &scenario);
        let shared = execute_in(&plan, &mut arena);
        assert_eq!(
            shared.trace.render(),
            execute_in(&plan, &mut ExecutionArena::new()).trace.render(),
            "seed {seed} recorded differently through a re-armed recorder"
        );
        arena.recycle_trace(shared.trace);
    }
}

/// Arena reuse must not change behaviour: the warmed execution renders
/// the byte-identical trace a cold one renders. (The cheap companion of
/// the 12k-seed pre/post hash gate, kept next to the allocation pin so
/// both halves of the arena contract are asserted together.)
#[test]
fn warmed_arena_renders_identical_traces() {
    let _turn = turn();
    let scenario = ScenarioConfig::default();
    let mut arena = ExecutionArena::new();
    let cold = run_seed(7, &scenario, false, &mut arena);
    let cold_render = cold.artifacts.trace.render();
    arena.recycle_trace(cold.artifacts.trace);
    for _ in 0..2 {
        let warm = run_seed(7, &scenario, false, &mut arena);
        assert_eq!(
            warm.artifacts.trace.render(),
            cold_render,
            "arena reuse changed a trace"
        );
        arena.recycle_trace(warm.artifacts.trace);
    }
}
