//! Empirical verification of the message-complexity results of §3.3.3:
//!
//! * one exception, no nesting: `(N−1)` Exception + `(N−1)²` Suspended +
//!   `(N−1)` Commit = `(N+1)(N−1)` messages;
//! * all N threads raise simultaneously: `N(N−1)` Exception + `(N−1)`
//!   Commit = `(N+1)(N−1)` messages — independent of the number of
//!   concurrent exceptions;
//! * the resolution procedure runs exactly once per recovery.

use caa_core::exception::Exception;
use caa_core::exception::ExceptionId;
use caa_core::message::MessageKind;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::secs;
use caa_exgraph::generate::conjunction_lattice;
use caa_runtime::{ActionDef, System, SystemReport};
use caa_simnet::LatencyModel;

/// Runs one N-thread action where threads in `raisers` raise distinct
/// exceptions at t=0.1s and everyone else computes.
fn run_scenario(n: u32, raisers: &[u32]) -> SystemReport {
    let prims: Vec<ExceptionId> = (0..n).map(|i| ExceptionId::new(format!("e{i}"))).collect();
    let graph = conjunction_lattice(&prims, prims.len()).unwrap();
    let mut builder = ActionDef::builder("measured");
    for i in 0..n {
        builder = builder.role(format!("r{i}"), i);
    }
    builder = builder.graph(graph);
    for i in 0..n {
        builder = builder.fallback_handler(format!("r{i}"), |_| Ok(HandlerVerdict::Recovered));
    }
    let action = builder.build().unwrap();

    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.05)))
        .build();
    for i in 0..n {
        let a = action.clone();
        let raises = raisers.contains(&i);
        sys.spawn(format!("T{i}"), move |ctx| {
            ctx.enter(&a, &format!("r{i}"), |rc| {
                rc.work(secs(0.1))?;
                if raises {
                    rc.raise(Exception::new(format!("e{i}")))?;
                }
                rc.work(secs(30.0))
            })
            .map(|_| ())
        });
    }
    let report = sys.run();
    report.expect_ok();
    report
}

fn resolution_messages(report: &SystemReport) -> u64 {
    MessageKind::ALL
        .into_iter()
        .filter(|kind| kind.counts_for_resolution())
        .map(|kind| report.net_stats.sent(kind.label()))
        .sum()
}

#[test]
fn single_exception_message_counts_match_theorem() {
    for n in [2u32, 3, 4, 5, 6] {
        let report = run_scenario(n, &[0]);
        let n64 = u64::from(n);
        assert_eq!(
            report.net_stats.sent("Exception"),
            n64 - 1,
            "N={n}: (N-1) Exception broadcasts"
        );
        assert_eq!(
            report.net_stats.sent("Suspended"),
            (n64 - 1) * (n64 - 1),
            "N={n}: (N-1)^2 Suspended messages"
        );
        assert_eq!(
            report.net_stats.sent("Commit"),
            n64 - 1,
            "N={n}: (N-1) Commit messages"
        );
        assert_eq!(
            resolution_messages(&report),
            (n64 + 1) * (n64 - 1),
            "N={n}: total (N+1)(N-1)"
        );
        assert_eq!(report.runtime_stats.resolutions_invoked, 1);
    }
}

#[test]
fn all_raise_message_counts_match_theorem() {
    for n in [2u32, 3, 4, 5] {
        let raisers: Vec<u32> = (0..n).collect();
        let report = run_scenario(n, &raisers);
        let n64 = u64::from(n);
        assert_eq!(
            report.net_stats.sent("Exception"),
            n64 * (n64 - 1),
            "N={n}: every thread broadcasts its exception"
        );
        assert_eq!(
            report.net_stats.sent("Suspended"),
            0,
            "N={n}: nobody suspends when everyone raises"
        );
        assert_eq!(report.net_stats.sent("Commit"), n64 - 1);
        assert_eq!(
            resolution_messages(&report),
            (n64 + 1) * (n64 - 1),
            "N={n}: the count is independent of how many exceptions were raised"
        );
        assert_eq!(report.runtime_stats.resolutions_invoked, 1);
    }
}

#[test]
fn message_count_is_independent_of_raiser_count() {
    // §3.3.3: "the number of messages is in fact independent of the number
    // of concurrent exceptions".
    let n = 5u32;
    let totals: Vec<u64> = [1usize, 2, 3, 5]
        .iter()
        .map(|&k| {
            let raisers: Vec<u32> = (0..k as u32).collect();
            resolution_messages(&run_scenario(n, &raisers))
        })
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "totals must all equal (N+1)(N-1): {totals:?}"
    );
    assert_eq!(totals[0], u64::from(n + 1) * u64::from(n - 1));
}

#[test]
fn signalling_simple_case_uses_n_times_n_minus_1_messages() {
    // §3.4: "in these simple cases just N × (N–1) messages are required".
    for n in [2u32, 3, 4] {
        let report = run_scenario(n, &[0]); // handler verdict: Recovered (φ)
        let n64 = u64::from(n);
        assert_eq!(
            report.net_stats.sent("toBeSignalled"),
            n64 * (n64 - 1),
            "N={n}: one announcement from each thread to each other"
        );
    }
}

#[test]
fn signalling_undo_case_uses_2n_times_n_minus_1_messages() {
    // §3.4 worst case: µ requested, two exchanges: 2N(N-1) messages.
    let n = 3u32;
    let graph = caa_exgraph::ExceptionGraphBuilder::new()
        .primitive("e")
        .build()
        .unwrap();
    let mut builder = ActionDef::builder("undoing");
    for i in 0..n {
        builder = builder.role(format!("r{i}"), i);
    }
    builder = builder.graph(graph);
    builder = builder.handler("r0", "e", |_| Ok(HandlerVerdict::Undo));
    for i in 1..n {
        builder = builder.handler(format!("r{i}"), "e", |_| Ok(HandlerVerdict::Recovered));
    }
    let action = builder.build().unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.05)))
        .build();
    for i in 0..n {
        let a = action.clone();
        sys.spawn(format!("T{i}"), move |ctx| {
            ctx.enter(&a, &format!("r{i}"), |rc| {
                rc.work(secs(0.1))?;
                if i == 0 {
                    rc.raise(Exception::new("e"))?;
                }
                rc.work(secs(30.0))
            })
            .map(|_| ())
        });
    }
    let report = sys.run();
    report.expect_ok();
    let n64 = u64::from(n);
    assert_eq!(
        report.net_stats.sent("toBeSignalled"),
        2 * n64 * (n64 - 1),
        "two full exchanges in the undo case"
    );
    assert_eq!(report.runtime_stats.undo_rounds, n64);
}

#[test]
fn nested_recovery_worst_case_is_bounded_by_nmax_n_squared() {
    // Theorem 2: with nesting, at most nmax × (N² − 1) messages. Build a
    // 3-thread outer action with a 2-thread nested action; the outer
    // exception aborts the nested one (nmax = 1 abort level exercised).
    let n: u64 = 3;
    let nmax: u64 = 2;
    let graph = caa_exgraph::ExceptionGraphBuilder::new()
        .resolves("both", ["outer_e", "ab_e"])
        .build()
        .unwrap();
    let outer = ActionDef::builder("outer")
        .role("r0", 0u32)
        .role("r1", 1u32)
        .role("r2", 2u32)
        .graph(graph)
        .fallback_handler("r0", |_| Ok(HandlerVerdict::Recovered))
        .fallback_handler("r1", |_| Ok(HandlerVerdict::Recovered))
        .fallback_handler("r2", |_| Ok(HandlerVerdict::Recovered))
        .build()
        .unwrap();
    let nested = ActionDef::builder("nested")
        .role("n1", 1u32)
        .role("n2", 2u32)
        .abort_handler("n1", |_| Ok(Some(Exception::new("ab_e"))))
        .build()
        .unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.05)))
        .build();
    let o0 = outer.clone();
    sys.spawn("T0", move |ctx| {
        ctx.enter(&o0, "r0", |rc| {
            rc.work(secs(1.0))?;
            rc.raise(Exception::new("outer_e"))
        })
        .map(|_| ())
    });
    for (name, orole, nrole) in [("T1", "r1", "n1"), ("T2", "r2", "n2")] {
        let o = outer.clone();
        let ne = nested.clone();
        let orole = orole.to_owned();
        let nrole = nrole.to_owned();
        sys.spawn(name, move |ctx| {
            ctx.enter(&o, &orole, |rc| {
                rc.enter(&ne, &nrole, |nc| nc.work(secs(60.0)))?;
                Ok(())
            })
            .map(|_| ())
        });
    }
    let report = sys.run();
    report.expect_ok();
    let total = resolution_messages(&report);
    assert!(
        total <= nmax * (n * n - 1),
        "Theorem 2 bound violated: {total} > {}",
        nmax * (n * n - 1)
    );
    assert!(report.runtime_stats.aborts == 2);
}
