//! A shared-object wait is bounded by the waiter's crash instant, whatever
//! doorbell the arbitration rings after the waiter blocked.

use caa_core::time::{millis, VirtualDuration};
use caa_runtime::observe::{EntryKind, EventKind, RunLog};
use caa_runtime::{ActionDef, RuntimeError, SharedObject, System};

/// The holder releases at 2.5 ms; the waiter's next grid tick is 3 ms
/// (`OBJECT_QUANTUM` is 1 ms, its grid anchored at 0), so the release rings
/// its doorbell for 3 ms. Its crash instant, 2.7 ms, falls between: it
/// must die there, without ever being granted the object.
#[test]
fn an_object_waiter_dies_at_its_crash_instant_before_its_next_grid_tick() {
    let object = SharedObject::new("press", 0u32);
    let solo = |name: &str, thread: u32| {
        ActionDef::builder(name)
            .role("solo", thread)
            .build()
            .expect("one-role definition")
    };
    let (hold, want) = (solo("hold", 0), solo("want", 1));
    let mut sys = System::builder().record(RunLog::default()).build();
    let held = object.clone();
    sys.spawn("holder", move |ctx| {
        ctx.enter(&hold, "solo", |rc| {
            rc.update(&held, |n| *n += 1)?; // granted at 1 ms
            rc.work(VirtualDuration::from_micros(1_500))
        })
        .map(|_| ())
    });
    sys.spawn("waiter", move |ctx| {
        ctx.schedule_crash(VirtualDuration::from_micros(2_700));
        ctx.enter(&want, "solo", |rc| rc.update(&object, |n| *n += 10))
            .map(|_| ())
    });
    let report = sys.run();
    let acquired: Vec<(u32, u64)> = report
        .log
        .entries()
        .iter()
        .filter(|entry| {
            matches!(
                entry.kind,
                EntryKind::Runtime(EventKind::ObjectAcquired { .. })
            )
        })
        .map(|entry| (entry.thread, entry.at_ns))
        .collect();
    assert_eq!(
        acquired,
        [(0, millis(1).as_nanos())],
        "only the holder is granted the object"
    );
    assert_eq!(report.results[0].1, Ok(()));
    assert_eq!(report.results[1].1, Err(RuntimeError::Crashed));
    assert_eq!(report.elapsed, VirtualDuration::from_micros(2_700));
}
