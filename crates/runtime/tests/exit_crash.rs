//! Exit-protocol liveness under crash-stop faults: round-agnostic
//! suspicion in `run_exit`. A participant that crash-stops before voting
//! must not deadlock the surviving group — the bounded exit wait expires,
//! the survivors suspect the silent peer, remove it from the membership
//! view and conclude the action among themselves, within the configured
//! exit-timeout bound.

use caa_core::outcome::ActionOutcome;
use caa_core::time::{secs, VirtualDuration};
use caa_runtime::{ActionDef, RuntimeError, SharedObject, System};

const EXIT_TIMEOUT: f64 = 5.0;

fn two_party(exit_timeout: Option<VirtualDuration>) -> ActionDef {
    let mut def = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .signal_timeout(secs(30.0));
    if let Some(t) = exit_timeout {
        def = def.exit_timeout(t);
    }
    def.build().unwrap()
}

/// The survivor reaches its exit, waits for the crashed peer's vote, times
/// out, suspects it, and concludes the action over the shrunken view —
/// with its own clean outcome, within the bound.
#[test]
fn crash_stop_mid_exit_evicts_the_peer_within_bound() {
    let def = two_party(Some(secs(EXIT_TIMEOUT)));
    let mut sys = System::builder().build();
    let d = def.clone();
    sys.spawn("survivor", move |ctx| {
        let before = ctx.now();
        let outcome = ctx.enter(&d, "a", |rc| rc.work(secs(0.1)))?;
        assert_eq!(
            outcome,
            ActionOutcome::Success,
            "the exit concludes among the survivors once the dead peer is evicted"
        );
        let elapsed = ctx.now().duration_since(before).as_secs_f64();
        assert!(
            elapsed <= 0.1 + EXIT_TIMEOUT + 1e-6,
            "exit must terminate within the timeout bound, took {elapsed}s"
        );
        Ok(())
    });
    sys.spawn("crasher", move |ctx| {
        // Crash while the survivor is already waiting in the exit protocol.
        ctx.enter(&def, "b", |rc| {
            rc.work(secs(1.0))?;
            rc.crash_stop()
        })
        .map(|_| ())
    });
    let report = sys.run();
    let errors: Vec<_> = report
        .results
        .iter()
        .map(|(name, r)| (&**name, r.clone()))
        .collect();
    assert_eq!(errors[0].1, Ok(()), "survivor must complete: {errors:?}");
    assert_eq!(
        errors[1].1,
        Err(RuntimeError::Crashed),
        "crash-stop is reported as an injected fault"
    );
    assert_eq!(report.runtime_stats.exit_timeouts, 1);
    assert_eq!(
        report.runtime_stats.view_changes, 1,
        "exit suspicion initiates a membership view change"
    );
}

/// Without an exit timeout the crashed peer's missing vote is a genuine
/// deadlock — detected and reported by the virtual-time scheduler, which is
/// exactly the gap the bounded wait closes.
#[test]
fn without_exit_timeout_a_crashed_peer_deadlocks_the_exit() {
    let def = two_party(None);
    let mut sys = System::builder().build();
    let d = def.clone();
    sys.spawn("survivor", move |ctx| {
        ctx.enter(&d, "a", |rc| rc.work(secs(0.1))).map(|_| ())
    });
    sys.spawn("crasher", move |ctx| {
        ctx.enter(&def, "b", |rc| {
            rc.work(secs(1.0))?;
            rc.crash_stop()
        })
        .map(|_| ())
    });
    let report = sys.run();
    assert!(
        matches!(report.results[0].1, Err(RuntimeError::Deadlock(_))),
        "unbounded exit wait must deadlock: {:?}",
        report.results[0].1
    );
}

/// A crash-stop breaks the crashed thread's transaction layers: objects it
/// held are rolled back so other actions can acquire them, while survivors
/// evict the dead peer and commit their own effects cleanly.
#[test]
fn crash_stop_releases_objects_and_survivors_commit_theirs() {
    let survivor_obj = SharedObject::new("survivor_obj", 0u32);
    let crasher_obj = SharedObject::new("crasher_obj", 0u32);
    let def = two_party(Some(secs(EXIT_TIMEOUT)));
    let mut sys = System::builder().build();
    let d = def.clone();
    let so = survivor_obj.clone();
    sys.spawn("survivor", move |ctx| {
        let outcome = ctx.enter(&d, "a", |rc| {
            rc.update(&so, |v| *v = 7)?;
            rc.work(secs(0.1))
        })?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let co = crasher_obj.clone();
    sys.spawn("crasher", move |ctx| {
        ctx.enter(&def, "b", |rc| {
            rc.update(&co, |v| *v = 9)?;
            rc.work(secs(1.0))?;
            rc.crash_stop()
        })
        .map(|_| ())
    });
    let report = sys.run();
    assert_eq!(report.results[1].1, Err(RuntimeError::Crashed));
    // The crashed thread's layer was discarded: state rolled back, free.
    assert_eq!(crasher_obj.committed(), 0);
    assert!(!crasher_obj.is_tainted());
    // The survivor evicted the dead peer and committed cleanly.
    assert_eq!(survivor_obj.committed(), 7);
    assert!(!survivor_obj.is_tainted());
    // And the freed object is immediately acquirable by a fresh action.
    let solo = ActionDef::builder("solo").role("s", 0u32).build().unwrap();
    let mut sys2 = System::builder().build();
    let co = crasher_obj.clone();
    sys2.spawn("later", move |ctx| {
        ctx.enter(&solo, "s", |rc| {
            rc.update(&co, |v| *v += 1)?;
            Ok(())
        })
        .map(|_| ())
    });
    sys2.run().expect_ok();
    assert_eq!(crasher_obj.committed(), 1);
}

/// A slow-but-alive peer whose votes arrive in time does not trip the
/// bounded wait: the action still succeeds.
#[test]
fn exit_timeout_does_not_misfire_on_slow_peers() {
    let def = two_party(Some(secs(EXIT_TIMEOUT)));
    let mut sys = System::builder().build();
    let d = def.clone();
    sys.spawn("fast", move |ctx| {
        let outcome = ctx.enter(&d, "a", |rc| rc.work(secs(0.1)))?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("slow", move |ctx| {
        // Slower than `fast` by less than the exit timeout.
        let outcome = ctx.enter(&def, "b", |rc| rc.work(secs(EXIT_TIMEOUT - 1.0)))?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.run().expect_ok();
}
