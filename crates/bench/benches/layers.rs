//! What three layers of a seed cost on their own, with no network, no
//! system and no fiber under them, and what a whole system costs with
//! nothing above it — the microbenches ROADMAP item 2 asks for, to run
//! before and after touching the layer (`caa-perf` is the end-to-end form;
//! `readers` covers the read side of a trace):
//!
//! * **definitions/s** — `ActionDefBuilder` on a five-role nested action
//!   with one shared fallback and one shared abortion handler, the shape a
//!   scenario executor compiles per action;
//! * **resolver events/s** — complete §3.3.2 rounds among five
//!   `XrrResolution` states that all raise, their messages relayed through
//!   an in-memory queue (the `LE` list, election and commit fan-out);
//! * **trace entries/s** — runtime events pushed through a
//!   `TraceRecorder` and taken out as a sorted, indexed trace;
//! * **bare system, µs/run** — build + run + drop of the §5.3 scenario at
//!   its base configuration (three participants, one simultaneous raise,
//!   20 messages) with no harness: the fixed cost of a `System::run` next
//!   to its messages. Also prints how many fiber stacks the runs mapped —
//!   3 in all with the per-thread run pool, 3 per run without it.

use std::sync::Arc;

use caa_bench::{simultaneous_raise_xrr, SimultaneousRaiseParams};
use caa_core::exception::{Exception, ExceptionId};
use caa_core::ids::{ActionId, ThreadId};
use caa_core::message::Message;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::{secs, VirtualInstant};
use caa_exgraph::generate::conjunction_lattice;
use caa_harness::trace::{Trace, TraceRecorder};
use caa_runtime::action::{AbortHandler, Handler};
use caa_runtime::observe::{Event, EventKind, Observer};
use caa_runtime::protocol::{ProtoCtx, ProtoEvent, ResolutionProtocol, ResolverState};
use caa_runtime::{ActionDef, XrrResolution};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const N: u32 = 5;

fn primitives() -> Vec<ExceptionId> {
    (0..N).map(|i| ExceptionId::new(format!("e{i}"))).collect()
}

fn bench_definitions(c: &mut Criterion) {
    let prims = primitives();
    let graph = Arc::new(conjunction_lattice(&prims, 2).expect("distinct primitives"));
    let roles: Vec<Arc<str>> = (0..N).map(|t| format!("r{t}").into()).collect();
    let name: Arc<str> = "a0.1".into();
    let fallback: Handler = Arc::new(|hc| {
        hc.work(secs(0.1))?;
        Ok(HandlerVerdict::Recovered)
    });
    let abort: AbortHandler = Arc::new(|ac| {
        ac.work(secs(0.1))?;
        Ok(None)
    });
    let mut group = c.benchmark_group("layers");
    group.throughput(Throughput::Elements(1));
    group.bench_function("action_def_build_n5", |b| {
        b.iter(|| {
            let mut builder = ActionDef::builder(Arc::clone(&name))
                .graph_shared(Arc::clone(&graph))
                .signal_timeout(secs(2.0))
                .exit_timeout(secs(200.0))
                .resolution_timeout(secs(200.0));
            for (t, role) in roles.iter().enumerate() {
                builder = builder.role(Arc::clone(role), t as u32);
            }
            for role in &roles {
                builder = builder
                    .fallback_handler_shared(Arc::clone(role), Arc::clone(&fallback))
                    .abort_handler_shared(Arc::clone(role), Arc::clone(&abort));
            }
            black_box(builder.build().expect("five distinct roles"))
        });
    });
    group.finish();
}

fn bench_resolver(c: &mut Criterion) {
    let prims = primitives();
    let graph = conjunction_lattice(&prims, prims.len()).expect("distinct primitives");
    let group_of: Vec<ThreadId> = (0..N).map(ThreadId::new).collect();
    let raised: Vec<Exception> = group_of
        .iter()
        .zip(&prims)
        .map(|(&t, e)| Exception::new(e.clone()).with_origin(t))
        .collect();
    let ctx = |me: ThreadId| ProtoCtx {
        me,
        action: ActionId::top_level(1),
        group: &group_of,
        graph: &graph,
    };
    // One round: N local raises, N(N−1) exceptions and N−1 commits fed.
    let events_per_round = u64::from(N + N * (N - 1) + (N - 1));
    let mut group = c.benchmark_group("layers");
    group.throughput(Throughput::Elements(events_per_round));
    group.bench_function("resolver_round_n5", |b| {
        let mut queue: Vec<(ThreadId, Message)> = Vec::new();
        b.iter(|| {
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
    });
    group.finish();
}

fn bench_recorder(c: &mut Criterion) {
    const ENTRIES: u64 = 200;
    let name: Arc<str> = "a0".into();
    let role: Arc<str> = "r0".into();
    let exception = ExceptionId::new("a0_e0");
    // The mix a seed records: entries carrying shared names, entries
    // carrying an exception id, plain ones.
    let kind = |i: u64| match i % 4 {
        0 => EventKind::Enter {
            name: Arc::clone(&name),
            role: Arc::clone(&role),
            depth: 1,
        },
        1 => EventKind::Raise {
            exception: exception.clone(),
        },
        2 => EventKind::Resolved {
            exception: exception.clone(),
        },
        _ => EventKind::ExitStart { epoch: 0 },
    };
    let mut group = c.benchmark_group("layers");
    group.throughput(Throughput::Elements(ENTRIES));
    group.bench_function("trace_record_and_take", |b| {
        let recorder = TraceRecorder::new();
        let mut recycled = Trace::default();
        b.iter(|| {
            for i in 0..ENTRIES {
                recorder.on_event(Event {
                    at: VirtualInstant::from_nanos(i / N as u64),
                    thread: ThreadId::new((i % N as u64) as u32),
                    action: ActionId::top_level(1 + i % 3),
                    kind: kind(i),
                });
            }
            recycled = recorder.take_trace_into(std::mem::take(&mut recycled));
            assert_eq!(recycled.len() as u64, ENTRIES);
        });
    });
    group.finish();
}

fn bench_bare_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("layers");
    group.throughput(Throughput::Elements(1));
    let stacks_before = caa_fiber::stacks_mapped();
    let mut runs = 0u64;
    group.bench_function("bare_system_simraise_n3", |b| {
        b.iter(|| {
            runs += 1;
            let report = simultaneous_raise_xrr(SimultaneousRaiseParams::default());
            assert!(report.is_ok(), "the §5.3 base configuration runs clean");
            report
        });
    });
    group.finish();
    println!(
        "layers/bare_system_simraise_n3: {} fiber stacks mapped over {runs} runs",
        caa_fiber::stacks_mapped() - stacks_before
    );
}

criterion_group!(
    benches,
    bench_definitions,
    bench_resolver,
    bench_recorder,
    bench_bare_system
);
criterion_main!(benches);
