//! The participants' host: `System::run` drives every body as a fiber on
//! the calling thread. What a caller could rely on when each body had an
//! OS thread of its own must still hold — a panic is reported against the
//! participant that raised it while the others conclude, and a system
//! dropped without `run` still runs its bodies.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use caa_core::outcome::ActionOutcome;
use caa_core::time::secs;
use caa_runtime::{ActionDef, RuntimeError, System};

#[test]
fn a_panicking_participant_is_reported_by_name_and_its_peers_conclude() {
    let def = ActionDef::builder("trio")
        .role("a", 0u32)
        .role("b", 1u32)
        .role("c", 2u32)
        .signal_timeout(secs(30.0))
        .exit_timeout(secs(5.0))
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    for (name, role) in [("first", "a"), ("second", "b"), ("third", "c")] {
        let def = def.clone();
        sys.spawn(name, move |ctx| {
            let outcome = ctx.enter(&def, role, |rc| {
                rc.work(secs(0.5))?;
                if role == "b" {
                    panic!("boom in {role}");
                }
                rc.work(secs(0.5))
            })?;
            assert_eq!(outcome, ActionOutcome::Success);
            Ok(())
        });
    }
    let report = sys.run();
    let [(n0, r0), (n1, r1), (n2, r2)] = &report.results[..] else {
        panic!("three participants, three results: {:?}", report.results);
    };
    assert_eq!((&**n0, r0), ("first", &Ok(())));
    assert_eq!(
        (&**n1, r1),
        (
            "second",
            &Err(RuntimeError::Protocol(
                "thread panicked: boom in b".to_owned()
            ))
        )
    );
    assert_eq!((&**n2, r2), ("third", &Ok(())));
    // The survivors did not wait for the dead participant's vote forever:
    // its endpoint retired as the panic unwound, the bounded exit wait
    // expired, and they concluded over the shrunken view.
    assert_eq!(report.runtime_stats.exit_timeouts, 2);
    assert!(report.elapsed_secs() <= 1.0 + 5.0 + 1e-6);
}

#[test]
fn a_system_dropped_without_run_still_runs_its_bodies() {
    let ran = Arc::new(AtomicU32::new(0));
    let def = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    for role in ["a", "b"] {
        let (def, ran) = (def.clone(), Arc::clone(&ran));
        sys.spawn(role, move |ctx| {
            // Blocks on the peer (the exit barrier), so both bodies must
            // really be driven, not merely started.
            ctx.enter(&def, role, |rc| rc.work(secs(1.0)))?;
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
    }
    drop(sys);
    assert_eq!(ran.load(Ordering::Relaxed), 2);
}
