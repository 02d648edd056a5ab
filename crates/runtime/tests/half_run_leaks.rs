//! What a run leaves behind when `System::run` gives up on it with
//! participants suspended mid-body — handed the CPU by a peer's transfer,
//! and blocked again: exactly those participants' fiber stacks, leaked
//! with whatever their bodies hold, and nothing in the thread's run pool.
//! Alone in its test binary on purpose: `caa_fiber::stacks_mapped` counts
//! for the whole process, and a neighbouring test's systems would move it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use caa_core::time::secs;
use caa_fiber::stacks_mapped;
use caa_runtime::{ActionDef, System};

/// Three participants that enter one action and work in it for a second,
/// and a fourth that ends at once; each body holds a clone of `token`
/// until it ends.
fn four(token: &Rc<()>) -> System {
    let def = ActionDef::builder("trio")
        .role("a", 0u32)
        .role("b", 1u32)
        .role("c", 2u32)
        .build()
        .expect("trio definition");
    let mut sys = System::builder().build();
    for role in ["a", "b", "c"] {
        let (def, held) = (def.clone(), Rc::clone(token));
        sys.spawn(role, move |ctx| {
            let _held = held;
            ctx.enter(&def, role, |rc| rc.work(secs(1.0))).map(|_| ())
        });
    }
    let held = Rc::clone(token);
    sys.spawn("quick", move |_| {
        drop(held);
        Ok(())
    });
    sys
}

#[test]
fn a_host_that_gives_up_leaks_its_suspended_fibers_and_pools_none() {
    let token = Rc::new(());
    let mapped = stacks_mapped();
    four(&token).run().expect_ok();
    four(&token).run().expect_ok();
    assert_eq!(stacks_mapped() - mapped, 4, "a warmed run maps no stack");
    assert_eq!(Rc::strong_count(&token), 1);

    let sys = four(&token);
    // An endpoint nobody drives counts as running, so virtual time never
    // advances: the three workers block for good — the second and third
    // started by the transfer of the one before — and `quick` ends.
    let outsider = sys.network().endpoint("outsider");
    let gave_up = catch_unwind(AssertUnwindSafe(|| sys.run()))
        .expect_err("host must refuse to wait for another thread");
    let said = gave_up.downcast_ref::<String>().expect("a formatted panic");
    assert!(said.starts_with("3 participants are blocked"), "{said}");
    drop(outsider);
    // The three suspended bodies keep what they hold, on stacks that were
    // never unmapped; `quick`'s ended and let go.
    assert_eq!(Rc::strong_count(&token), 1 + 3);
    assert_eq!(stacks_mapped() - mapped, 4, "giving up maps nothing");

    // Nothing reached the pool: the next system maps all four stacks
    // again, and pools them for the one after.
    four(&token).run().expect_ok();
    assert_eq!(stacks_mapped() - mapped, 8);
    four(&token).run().expect_ok();
    assert_eq!(stacks_mapped() - mapped, 8);
    assert_eq!(Rc::strong_count(&token), 1 + 3);
}
