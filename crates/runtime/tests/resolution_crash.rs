//! Crash-aware resolution: the membership extension's bounded wait
//! (`ActionDefBuilder::resolution_timeout`) must turn a crashed peer's
//! silence during the §3.3.2 collection loop into a membership view change
//! plus a synthesized crash exception — and the survivors must still agree
//! on one resolving exception, complete signalling and exit among
//! themselves, and terminate within bounded virtual time. Covers the three
//! crash-vs-resolution races: a crashed bystander that never announced
//! anything, a crashed raiser that died between its broadcast and its
//! commit, and a crash racing a pair of concurrent raises into a ƒ
//! outcome.

use caa_core::exception::Exception;
use caa_core::ids::ThreadId;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::{secs, VirtualDuration};
use caa_exgraph::ExceptionGraphBuilder;
use caa_runtime::observe::{Entry, EntryKind, EventKind, RunLog};
use caa_runtime::{ActionDef, RuntimeError, System, SystemReport};
use caa_simnet::LatencyModel;

const RESOLUTION_TIMEOUT: f64 = 10.0;

/// The runtime entries of a recorded run, for post-run assertions.
struct Collector {
    entries: Vec<Entry>,
}

impl Collector {
    /// The runtime entries of `report`'s log.
    fn of(report: &SystemReport) -> Collector {
        let entries = report
            .log
            .entries()
            .iter()
            .filter(|entry| matches!(entry.kind, EntryKind::Runtime(_)));
        Collector {
            entries: entries.cloned().collect(),
        }
    }

    fn kinds(&self) -> Vec<EventKind> {
        self.entries
            .iter()
            .filter_map(|e| match &e.kind {
                EntryKind::Runtime(kind) => Some(kind.clone()),
                _ => None,
            })
            .collect()
    }

    fn resolved_per_thread(&self) -> Vec<(u32, String)> {
        let mut out: Vec<(u32, String)> = self
            .entries
            .iter()
            .filter_map(|e| match &e.kind {
                EntryKind::Runtime(EventKind::Resolved { exception }) => {
                    Some((e.thread, exception.name().to_owned()))
                }
                _ => None,
            })
            .collect();
        out.sort();
        out
    }
}

fn trio(verdict: HandlerVerdict, resolution_timeout: Option<f64>) -> ActionDef {
    let graph = ExceptionGraphBuilder::new()
        .resolves("both", ["e0", "e2"])
        .build()
        .unwrap();
    let mut builder = ActionDef::builder("trio")
        .role("a", 0u32)
        .role("b", 1u32)
        .role("c", 2u32)
        .graph(graph);
    if let Some(t) = resolution_timeout {
        builder = builder.resolution_timeout(secs(t));
    }
    for role in ["a", "b", "c"] {
        let verdict = verdict.clone();
        builder = builder.fallback_handler(role, move |_| Ok(verdict.clone()));
    }
    builder.build().unwrap()
}

/// A bystander crash-stops before a peer raises: the survivors' bounded
/// resolution wait removes it, resolution re-runs over the shrunken view
/// with a synthesized crash exception, and — because signalling and exit
/// also range over the view — the action still *succeeds* among the
/// survivors, with no exit-timeout ƒ.
#[test]
fn crashed_bystander_is_removed_and_survivors_succeed() {
    let def = trio(HandlerVerdict::Recovered, Some(RESOLUTION_TIMEOUT));
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        .record(RunLog::default())
        .build();
    let d = def.clone();
    sys.spawn("crasher", move |ctx| {
        ctx.enter(&d, "a", |rc| {
            rc.work(secs(0.5))?;
            rc.crash_stop()
        })
        .map(|_| ())
    });
    let d = def.clone();
    sys.spawn("bystander", move |ctx| {
        let outcome = ctx.enter(&d, "b", |rc| rc.work(secs(60.0)))?;
        assert_eq!(outcome, ActionOutcome::Success, "survivors must succeed");
        Ok(())
    });
    sys.spawn("raiser", move |ctx| {
        let before = ctx.now();
        let outcome = ctx.enter(&def, "c", |rc| {
            rc.work(secs(1.0))?;
            rc.raise(Exception::new("e2"))
        })?;
        assert_eq!(outcome, ActionOutcome::Success);
        let elapsed = ctx.now().duration_since(before).as_secs_f64();
        assert!(
            elapsed < 1.0 + 2.0 * RESOLUTION_TIMEOUT,
            "recovery must terminate within the bounded wait, took {elapsed}s"
        );
        Ok(())
    });
    let report = sys.run();
    let collector = Collector::of(&report);
    assert_eq!(report.results[0].1, Err(RuntimeError::Crashed));
    assert_eq!(report.results[1].1, Ok(()), "{:?}", report.results);
    assert_eq!(report.results[2].1, Ok(()), "{:?}", report.results);
    assert_eq!(report.runtime_stats.resolution_timeouts, 1);
    assert!(
        report.runtime_stats.view_changes >= 2,
        "initiator + adopter must both count: {:?}",
        report.runtime_stats
    );
    assert_eq!(
        report.runtime_stats.exit_timeouts, 0,
        "exit must complete over the shrunken view, not time out"
    );
    // Both survivors committed to the same resolving exception.
    let resolved = collector.resolved_per_thread();
    assert_eq!(resolved.len(), 2, "{resolved:?}");
    assert_eq!(resolved[0].1, resolved[1].1, "{resolved:?}");
    // The view change removed exactly the crashed thread.
    let kinds = collector.kinds();
    assert!(
        kinds.iter().any(|k| matches!(
            k,
            EventKind::ViewChange { epoch: 1, removed } if **removed == [ThreadId::new(0)]
        )),
        "expected a v1 view change removing T0"
    );
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::ResolutionTimeout { suspects } if **suspects == [ThreadId::new(0)])));
}

/// The raiser broadcasts its exception and crash-stops before committing
/// (it held the resolver election). The survivors' wait expires on the
/// missing commit, the view change re-elects a live resolver, and the dead
/// raiser's *real* exception still resolves the recovery.
#[test]
fn crashed_raiser_is_replaced_as_resolver() {
    let def = trio(HandlerVerdict::Recovered, Some(RESOLUTION_TIMEOUT));
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        .record(RunLog::default())
        .build();
    let d = def.clone();
    sys.spawn("a", move |ctx| {
        let outcome = ctx.enter(&d, "a", |rc| rc.work(secs(60.0)))?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let d = def.clone();
    sys.spawn("b", move |ctx| {
        let outcome = ctx.enter(&d, "b", |rc| rc.work(secs(60.0)))?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("raiser-crasher", move |ctx| {
        ctx.enter(&def, "c", |rc| {
            // Die 50 ms after raising: the Exception broadcast is out
            // (messages leave atomically at the raise), but the peers'
            // Suspended answers — in flight for 100 ms — never arrive, so
            // the commit this thread owes as the elected resolver is never
            // sent.
            rc.schedule_crash(VirtualDuration::from_nanos(150_000_000));
            rc.work(secs(0.1))?;
            rc.raise(Exception::new("e2"))
        })
        .map(|_| ())
    });
    let report = sys.run();
    let collector = Collector::of(&report);
    assert_eq!(report.results[0].1, Ok(()), "{:?}", report.results);
    assert_eq!(report.results[1].1, Ok(()), "{:?}", report.results);
    assert_eq!(report.results[2].1, Err(RuntimeError::Crashed));
    // Survivors agree — on the dead raiser's own exception: a recorded
    // raise is never demoted to the synthesized crash.
    let resolved = collector.resolved_per_thread();
    assert_eq!(
        resolved,
        vec![(0, "e2".to_owned()), (1, "e2".to_owned())],
        "survivors must resolve the crashed raiser's exception"
    );
    assert!(report.runtime_stats.resolution_timeouts >= 1);
    assert_eq!(report.runtime_stats.exit_timeouts, 0);
}

/// A crash races two concurrent raises: the silent thread is removed, the
/// concurrent exceptions resolve through the graph, and the handlers'
/// failure verdicts drive the survivors to a coordinated ƒ outcome.
#[test]
fn crash_racing_concurrent_raises_reaches_coordinated_failure() {
    let def = trio(HandlerVerdict::Fail, Some(RESOLUTION_TIMEOUT));
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.05)))
        .record(RunLog::default())
        .build();
    let d = def.clone();
    sys.spawn("raiser-0", move |ctx| {
        let outcome = ctx.enter(&d, "a", |rc| {
            rc.work(secs(0.1))?;
            rc.raise(Exception::new("e0"))
        })?;
        assert_eq!(outcome, ActionOutcome::Failed, "ƒ must dominate");
        Ok(())
    });
    let d = def.clone();
    sys.spawn("mid-crasher", move |ctx| {
        ctx.enter(&d, "b", |rc| {
            // Dead before either raiser's Exception (in flight for 50 ms
            // from t=0.1) can reach this thread: the group never hears
            // from it at all.
            rc.schedule_crash(VirtualDuration::from_nanos(120_000_000));
            rc.work(secs(60.0))
        })
        .map(|_| ())
    });
    sys.spawn("raiser-2", move |ctx| {
        let outcome = ctx.enter(&def, "c", |rc| {
            rc.work(secs(0.12))?;
            rc.raise(Exception::new("e2"))
        })?;
        assert_eq!(outcome, ActionOutcome::Failed, "ƒ must dominate");
        Ok(())
    });
    let report = sys.run();
    let collector = Collector::of(&report);
    assert_eq!(report.results[1].1, Err(RuntimeError::Crashed));
    assert_eq!(report.results[0].1, Ok(()), "{:?}", report.results);
    assert_eq!(report.results[2].1, Ok(()), "{:?}", report.results);
    // The silent thread's synthesized crash exception joins the two real
    // raises; a graph that does not cover `__crash` escalates the
    // combination to the universal exception — on *both* survivors alike.
    let resolved = collector.resolved_per_thread();
    assert_eq!(
        resolved,
        vec![(0, "__universal".to_owned()), (2, "__universal".to_owned())],
        "the crash is resolved as a concurrent exception"
    );
    assert!(report.runtime_stats.resolution_timeouts >= 1);
}

/// Without a resolution timeout the crashed bystander's silence is a
/// genuine deadlock — detected and reported by the virtual-time scheduler.
/// This is exactly the gap the membership extension closes (and why crash
/// scenarios previously had to forbid raises near a crash).
#[test]
fn without_resolution_timeout_a_crashed_bystander_deadlocks_the_recovery() {
    let def = trio(HandlerVerdict::Recovered, None);
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        .build();
    let d = def.clone();
    sys.spawn("crasher", move |ctx| {
        ctx.enter(&d, "a", |rc| {
            rc.work(secs(0.5))?;
            rc.crash_stop()
        })
        .map(|_| ())
    });
    let d = def.clone();
    sys.spawn("bystander", move |ctx| {
        ctx.enter(&d, "b", |rc| rc.work(secs(60.0))).map(|_| ())
    });
    sys.spawn("raiser", move |ctx| {
        ctx.enter(&def, "c", |rc| {
            rc.work(secs(1.0))?;
            rc.raise(Exception::new("e2"))
        })
        .map(|_| ())
    });
    let report = sys.run();
    assert!(
        matches!(report.results[2].1, Err(RuntimeError::Deadlock(_))),
        "unbounded collection must deadlock on a crashed peer: {:?}",
        report.results[2].1
    );
}

/// A slow-but-live peer whose announcements arrive within the bound is
/// not suspected: no timeout, no view change, clean success.
#[test]
fn bounded_wait_does_not_misfire_on_slow_peers() {
    let def = trio(HandlerVerdict::Recovered, Some(RESOLUTION_TIMEOUT));
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(RESOLUTION_TIMEOUT / 4.0)))
        .build();
    let d = def.clone();
    sys.spawn("a", move |ctx| {
        let outcome = ctx.enter(&d, "a", |rc| rc.work(secs(60.0)))?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let d = def.clone();
    sys.spawn("b", move |ctx| {
        let outcome = ctx.enter(&d, "b", |rc| rc.work(secs(60.0)))?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("raiser", move |ctx| {
        let outcome = ctx.enter(&def, "c", |rc| {
            rc.work(secs(0.1))?;
            rc.raise(Exception::new("e2"))
        })?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(report.runtime_stats.resolution_timeouts, 0);
    assert_eq!(report.runtime_stats.view_changes, 0);
}
