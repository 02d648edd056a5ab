//! Epoch-numbered rejoin and multi-crash membership: a crash-stopped
//! participant may restart, ask a survivor for the current view
//! (`JoinRequest`/`JoinGrant`) and re-enter the action at the grant's
//! epoch — and the suspicion facility shared by the resolution,
//! signalling and exit rounds lets the group survive more than one crash
//! in a single action, shrinking the view one epoch per suspicion round.

use caa_core::exception::Exception;
use caa_core::ids::ThreadId;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::{secs, VirtualDuration};
use caa_exgraph::ExceptionGraphBuilder;
use caa_runtime::observe::{Entry, EntryKind, EventKind, RunLog};
use caa_runtime::{ActionDef, RuntimeError, SharedObject, System, SystemReport};
use caa_simnet::LatencyModel;

const EXIT_TIMEOUT: f64 = 5.0;

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
}

fn pair() -> ActionDef {
    ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .signal_timeout(secs(30.0))
        .exit_timeout(secs(EXIT_TIMEOUT))
        .build()
        .unwrap()
}

/// A participant that restarts before any survivor's bounded wait expires
/// re-enters the *same* view (no eviction ever happens): the join grant
/// carries epoch 0, the rejoiner votes in the current exit round, and the
/// action succeeds for everyone with no timeouts at all.
#[test]
fn rejoin_before_detection_preserves_the_view_and_succeeds() {
    let def = pair();
    let mut sys = System::builder().build();
    let d = def.clone();
    sys.spawn("survivor", move |ctx| {
        let outcome = ctx.enter(&d, "a", |rc| rc.work(secs(0.1)))?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("phoenix", move |ctx| {
        let crashed = ctx.enter(&def, "b", |rc| {
            rc.work(secs(1.0))?;
            rc.crash_stop()
        });
        match crashed {
            Err(flow) if flow.is_crash() => {
                // Restart immediately: the survivor is parked in its exit
                // wait and has not yet suspected anyone.
                let outcome = ctx.rejoin(&def, "b")?;
                assert_eq!(
                    outcome,
                    Some(ActionOutcome::Success),
                    "a pre-detection rejoin must conclude with the group"
                );
                Ok(())
            }
            other => panic!("expected a crash flow, got {other:?}"),
        }
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(report.runtime_stats.rejoins, 1);
    assert_eq!(
        report.runtime_stats.exit_timeouts, 0,
        "the rejoiner's vote arrives before the survivor's bounded wait expires"
    );
    assert_eq!(
        report.runtime_stats.view_changes, 0,
        "nobody was ever suspected"
    );
}

/// A restart that comes back after the survivors already evicted the
/// crashed thread and concluded the action finds nobody to grant its join:
/// the bounded join window expires and `rejoin` reports `None` — a clean
/// give-up, not an error.
#[test]
fn rejoin_after_the_group_concluded_gives_up_cleanly() {
    let def = pair();
    let mut sys = System::builder().build();
    let d = def.clone();
    sys.spawn("survivor", move |ctx| {
        let outcome = ctx.enter(&d, "a", |rc| rc.work(secs(0.1)))?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("latecomer", move |ctx| {
        let crashed = ctx.enter(&def, "b", |rc| {
            rc.work(secs(1.0))?;
            rc.crash_stop()
        });
        match crashed {
            Err(flow) if flow.is_crash() => {
                // Stay down past the survivor's exit timeout: by the time
                // the restart asks for the view, the action is long over.
                ctx.work(secs(3.0 * EXIT_TIMEOUT))?;
                let outcome = ctx.rejoin(&def, "b")?;
                assert_eq!(outcome, None, "no survivor is left to grant the join");
                Ok(())
            }
            other => panic!("expected a crash flow, got {other:?}"),
        }
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(report.runtime_stats.rejoins, 0);
    assert_eq!(
        report.runtime_stats.exit_timeouts, 1,
        "the survivor's bounded wait evicted the crashed peer"
    );
}

/// A rejoin is a restart at the thread's top level. Called with an action
/// open it is the caller's misuse — a binding error, like `RoleMismatch` —
/// not a protocol violation, and the thread ends with it.
#[test]
fn rejoin_inside_an_action_is_a_binding_error() {
    let solo = ActionDef::builder("solo").role("s", 0u32).build().unwrap();
    let host = ActionDef::builder("host").role("h", 0u32).build().unwrap();
    let mut sys = System::builder().build();
    sys.spawn("restarted", move |ctx| {
        let crashed = ctx.enter(&solo, "s", |rc| rc.crash_stop());
        assert!(crashed.is_err_and(|flow| flow.is_crash()));
        ctx.enter(&host, "h", |rc| rc.rejoin(&solo, "s").map(drop))?;
        Ok(())
    });
    let report = sys.run();
    assert_eq!(report.results[0].1, Err(RuntimeError::RejoinInAction));
}

/// Rejoin with more than one granter: every survivor with the frame open
/// answers the broadcast `JoinRequest` independently; the first grant
/// readmits the joiner, the duplicates are dropped, and the rejoin is
/// counted exactly once. The rejoiner's pre-crash object updates stay
/// rolled back while the survivors' effects commit.
#[test]
fn duplicate_grants_are_idempotent_and_state_stays_rolled_back() {
    let obj_survivor = SharedObject::new("obj_survivor", 0u32);
    let obj_phoenix = SharedObject::new("obj_phoenix", 0u32);
    let def = ActionDef::builder("trio")
        .role("a", 0u32)
        .role("b", 1u32)
        .role("c", 2u32)
        .signal_timeout(secs(30.0))
        .exit_timeout(secs(EXIT_TIMEOUT))
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let d = def.clone();
    let so = obj_survivor.clone();
    sys.spawn("survivor-a", move |ctx| {
        let outcome = ctx.enter(&d, "a", |rc| {
            rc.update(&so, |v| *v = 7)?;
            rc.work(secs(0.1))
        })?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let d = def.clone();
    sys.spawn("survivor-b", move |ctx| {
        let outcome = ctx.enter(&d, "b", |rc| rc.work(secs(0.1)))?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let po = obj_phoenix.clone();
    sys.spawn("phoenix", move |ctx| {
        let crashed = ctx.enter(&def, "c", |rc| {
            rc.update(&po, |v| *v = 9)?;
            rc.work(secs(1.0))?;
            rc.crash_stop()
        });
        match crashed {
            Err(flow) if flow.is_crash() => {
                ctx.work(secs(1.0))?;
                let outcome = ctx.rejoin(&def, "c")?;
                assert_eq!(outcome, Some(ActionOutcome::Success));
                Ok(())
            }
            other => panic!("expected a crash flow, got {other:?}"),
        }
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(
        report.runtime_stats.rejoins, 1,
        "two grants arrive but the rejoin is counted once"
    );
    assert_eq!(report.runtime_stats.exit_timeouts, 0);
    assert_eq!(obj_survivor.committed(), 7);
    // The crash broke the phoenix's transaction layer; the rejoin does not
    // resurrect it (state restoration is the restart's job, per §6).
    assert_eq!(obj_phoenix.committed(), 0);
    assert!(!obj_phoenix.is_tainted());
}

/// Two crash-stops in one action, caught by *different* rounds: the first
/// silent peer is evicted by the bounded resolution wait (epoch 1), the
/// second dies after resolution and is evicted by the signalling-round
/// suspicion (epoch 2) — the sole survivor still terminates, within
/// bounds, with the coordinated ƒ outcome the missing signal forces.
#[test]
fn double_crash_is_survived_one_epoch_per_round() {
    let graph = ExceptionGraphBuilder::new()
        .resolves("r", ["e"])
        .build()
        .unwrap();
    let mut builder = ActionDef::builder("trio")
        .role("a", 0u32)
        .role("b", 1u32)
        .role("c", 2u32)
        .graph(graph)
        .resolution_timeout(secs(10.0))
        .signal_timeout(secs(10.0))
        .exit_timeout(secs(10.0));
    for role in ["a", "b", "c"] {
        builder = builder.fallback_handler(role, move |_| Ok(HandlerVerdict::Recovered));
    }
    let def = builder.build().unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        .record(RunLog::default())
        .build();
    let d = def.clone();
    sys.spawn("early-crasher", move |ctx| {
        // Dead before the raise: never answers the resolution collect.
        ctx.enter(&d, "a", |rc| {
            rc.work(secs(0.2))?;
            rc.crash_stop()
        })
        .map(|_| ())
    });
    let d = def.clone();
    sys.spawn("late-crasher", move |ctx| {
        // Answers the resolution (its Suspended arrives in time) but dies
        // before the resolver's timeout fires, so its §3.4 signal never
        // comes: the signalling round must run the suspicion this time.
        ctx.enter(&d, "b", |rc| {
            rc.schedule_crash(VirtualDuration::from_nanos(5_000_000_000));
            rc.work(secs(60.0))
        })
        .map(|_| ())
    });
    sys.spawn("survivor", move |ctx| {
        let before = ctx.now();
        let outcome = ctx.enter(&def, "c", |rc| {
            rc.work(secs(1.0))?;
            rc.raise(Exception::new("e"))
        })?;
        assert_eq!(
            outcome,
            ActionOutcome::Failed,
            "the second crash's missing signal forces ƒ"
        );
        let elapsed = ctx.now().duration_since(before).as_secs_f64();
        assert!(
            elapsed < 60.0,
            "two crashes must not defeat the bounded waits, took {elapsed}s"
        );
        Ok(())
    });
    let report = sys.run();
    let collector = Collector::of(&report);
    assert_eq!(report.results[0].1, Err(RuntimeError::Crashed));
    assert_eq!(report.results[1].1, Err(RuntimeError::Crashed));
    assert_eq!(report.results[2].1, Ok(()), "{:?}", report.results);
    assert_eq!(report.runtime_stats.resolution_timeouts, 1);
    assert_eq!(
        report.runtime_stats.signal_timeouts, 1,
        "the post-resolution crash is caught by the signalling round"
    );
    let kinds = collector.kinds();
    assert!(
        kinds.iter().any(|k| matches!(
            k,
            EventKind::ViewChange { epoch: 1, removed } if **removed == [ThreadId::new(0)]
        )),
        "epoch 1 must evict the early crasher: {kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| matches!(
            k,
            EventKind::ViewChange { epoch: 2, removed } if **removed == [ThreadId::new(1)]
        )),
        "epoch 2 must evict the late crasher: {kinds:?}"
    );
}
