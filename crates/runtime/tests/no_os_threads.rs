//! `System::run` hosts its participants on the calling thread: a thousand
//! runs leave the process's thread count where it was. Alone in its test
//! binary on purpose — the count is process-wide, and a neighbouring test
//! starting or finishing would move it.

#![cfg(target_os = "linux")]

use caa_core::exception::Exception;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::secs;
use caa_runtime::{ActionDef, System};

fn os_threads() -> u32 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("status has a Threads line")
        .trim()
        .parse()
        .expect("a count")
}

#[test]
fn a_thousand_runs_create_no_os_thread() {
    let def = ActionDef::builder("trio")
        .role("a", 0u32)
        .role("b", 1u32)
        .role("c", 2u32)
        .fallback_handler("a", |_| Ok(HandlerVerdict::Recovered))
        .fallback_handler("b", |_| Ok(HandlerVerdict::Recovered))
        .fallback_handler("c", |_| Ok(HandlerVerdict::Recovered))
        .build()
        .unwrap();
    let before = os_threads();
    for _ in 0..1_000 {
        let mut sys = System::builder().build();
        for role in ["a", "b", "c"] {
            let def = def.clone();
            sys.spawn(role, move |ctx| {
                ctx.enter(&def, role, |rc| {
                    rc.work(secs(0.1))?;
                    if role == "a" {
                        rc.raise(Exception::new("oops"))?;
                    }
                    rc.work(secs(1.0))
                })
                .map(|_| ())
            });
        }
        sys.run().expect_ok();
        assert_eq!(os_threads(), before, "a run left an OS thread behind");
    }
}
