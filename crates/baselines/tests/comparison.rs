//! End-to-end comparison of the three resolution protocols over the
//! identical CA-action substrate (§5.3's methodology): all must reach the
//! same resolving exception, with the message/invocation profiles the
//! paper states.

use std::sync::Arc;
use std::sync::Mutex;

use caa_baselines::{CrResolution, Rom96Resolution};
use caa_core::exception::{Exception, ExceptionId};
use caa_core::outcome::HandlerVerdict;
use caa_core::time::secs;
use caa_exgraph::generate::conjunction_lattice;
use caa_protocol::{ResolutionProtocol, XrrResolution};
use caa_runtime::{ActionDef, System, SystemReport};
use caa_simnet::LatencyModel;

/// §5.3's scenario: N threads enter a CA action; after some computation
/// all raise different exceptions nearly at the same time.
fn all_raise(
    n: u32,
    protocol: Arc<dyn ResolutionProtocol>,
    resolved_log: Arc<Mutex<Vec<ExceptionId>>>,
) -> SystemReport {
    let prims: Vec<ExceptionId> = (0..n).map(|i| ExceptionId::new(format!("e{i}"))).collect();
    let graph = conjunction_lattice(&prims, prims.len()).unwrap();
    let mut builder = ActionDef::builder("compare");
    for i in 0..n {
        builder = builder.role(format!("r{i}"), i);
    }
    builder = builder.graph(graph);
    for i in 0..n {
        let log = Arc::clone(&resolved_log);
        builder = builder.fallback_handler(format!("r{i}"), move |hc| {
            log.lock()
                .unwrap()
                .push(*hc.handling().expect("inside handler"));
            Ok(HandlerVerdict::Recovered)
        });
    }
    let action = builder.build().unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(1.0)))
        .seed(17)
        .resolution_delay(secs(0.3))
        .protocol(protocol)
        .build();
    for i in 0..n {
        let a = action.clone();
        sys.spawn(format!("T{i}"), move |ctx| {
            ctx.enter(&a, &format!("r{i}"), |rc| {
                rc.work(secs(0.5))?;
                rc.raise(Exception::new(format!("e{i}")))
            })
            .map(|_| ())
        });
    }
    let report = sys.run();
    report.expect_ok();
    report
}

fn resolution_msgs(r: &SystemReport) -> u64 {
    r.net_stats.sent("Exception")
        + r.net_stats.sent("Suspended")
        + r.net_stats.sent("Commit")
        + r.net_stats.sent("Resolve")
}

#[test]
fn all_protocols_agree_on_the_resolving_exception() {
    let n = 3;
    let expected = ExceptionId::new("e0∩e1∩e2");
    for protocol in [
        Arc::new(XrrResolution) as Arc<dyn ResolutionProtocol>,
        Arc::new(CrResolution),
        Arc::new(Rom96Resolution),
    ] {
        let name = protocol.name();
        let log = Arc::new(Mutex::new(Vec::new()));
        all_raise(n, protocol, Arc::clone(&log));
        let resolved = log.lock().unwrap().clone();
        assert_eq!(resolved.len(), n as usize, "{name}: all threads handle");
        assert!(
            resolved.iter().all(|r| r == &expected),
            "{name}: resolved {resolved:?}, expected {expected}"
        );
    }
}

#[test]
fn xrr_uses_n_plus_1_n_minus_1_messages() {
    let n = 3u64;
    let log = Arc::new(Mutex::new(Vec::new()));
    let report = all_raise(n as u32, Arc::new(XrrResolution), log);
    assert_eq!(resolution_msgs(&report), (n + 1) * (n - 1));
    assert_eq!(report.runtime_stats.resolutions_invoked, 1);
}

#[test]
fn rom96_uses_3n_n_minus_1_messages_and_n_invocations() {
    let n = 3u64;
    let log = Arc::new(Mutex::new(Vec::new()));
    let report = all_raise(n as u32, Arc::new(Rom96Resolution), log);
    assert_eq!(
        resolution_msgs(&report),
        3 * n * (n - 1),
        "three exchanges of N(N-1)"
    );
    assert_eq!(
        report.runtime_stats.resolutions_invoked, n,
        "every thread resolves once"
    );
}

#[test]
fn cr86_floods_n_cubed_messages_and_resolves_n_n1_n2_times() {
    for n in [3u64, 4, 5] {
        let log = Arc::new(Mutex::new(Vec::new()));
        let report = all_raise(n as u32, Arc::new(CrResolution), log);
        // Direct N(N-1) + forwarded N(N-1)(N-2) + agreement N(N-1)
        // = N²(N-1).
        assert_eq!(
            resolution_msgs(&report),
            n * n * (n - 1),
            "N={n}: CR flooding + agreement message count"
        );
        // Re-resolutions: the paper counts N(N-1)(N-2) (one per forwarded
        // copy); our model additionally re-resolves when a *direct* receipt
        // grows the exception set (N(N-1) times), keeping every thread's
        // view current. Both terms vanish into O(N^3) asymptotically.
        assert_eq!(
            report.runtime_stats.resolutions_invoked,
            n * (n - 1) * (n - 2) + n * (n - 1),
            "N={n}: CR resolution invocations"
        );
    }
}

#[test]
fn cr86_is_slower_than_xrr_at_equal_parameters() {
    // Figure 13's qualitative claim: with the same Tmmax and Tres, the CR
    // algorithm takes visibly longer because resolution is invoked many
    // times and flooding adds message rounds.
    let log_a = Arc::new(Mutex::new(Vec::new()));
    let log_b = Arc::new(Mutex::new(Vec::new()));
    let ours = all_raise(3, Arc::new(XrrResolution), log_a);
    let cr = all_raise(3, Arc::new(CrResolution), log_b);
    assert!(
        cr.elapsed_secs() > ours.elapsed_secs(),
        "CR {:.3}s must exceed ours {:.3}s",
        cr.elapsed_secs(),
        ours.elapsed_secs()
    );
}

#[test]
fn baselines_handle_single_exception_with_bystanders() {
    // Only T0 raises; T1, T2 suspend. Every protocol must still converge.
    for protocol in [
        Arc::new(XrrResolution) as Arc<dyn ResolutionProtocol>,
        Arc::new(CrResolution),
        Arc::new(Rom96Resolution),
    ] {
        let name = protocol.name();
        let graph = conjunction_lattice(&[ExceptionId::new("only")], 1).unwrap();
        let mut builder = ActionDef::builder("single");
        for i in 0..3u32 {
            builder = builder.role(format!("r{i}"), i);
        }
        builder = builder.graph(graph);
        for i in 0..3u32 {
            builder = builder.fallback_handler(format!("r{i}"), |_| Ok(HandlerVerdict::Recovered));
        }
        let action = builder.build().unwrap();
        let mut sys = System::builder()
            .latency(LatencyModel::UniformUpTo(secs(0.5)))
            .seed(7)
            .protocol(protocol)
            .build();
        for i in 0..3u32 {
            let a = action.clone();
            sys.spawn(format!("T{i}"), move |ctx| {
                ctx.enter(&a, &format!("r{i}"), |rc| {
                    rc.work(secs(0.2))?;
                    if i == 0 {
                        rc.raise(Exception::new("only"))?;
                    }
                    rc.work(secs(30.0))
                })
                .map(|_| ())
            });
        }
        let report = sys.run();
        assert!(report.is_ok(), "{name}: {:?}", report.results);
    }
}
