//! The paper's experimental scenarios (§5.2, §5.3), parameterised by the
//! quantities the paper sweeps: `Tmmax` (message passing), `Tabo`
//! (abortion) and `Treso` (resolution).
//!
//! Absolute times depend on the application's computation constants, which
//! the paper does not publish; the constants here are calibrated so the
//! base configuration of Figure 9 (`Tmmax`=0.2, `Tabo`=0.1, `Treso`=0.3,
//! 20 iterations) lands in the neighbourhood of the paper's 94.36 s. The
//! claims under reproduction are the *shapes*: linearity, relative
//! coefficients, the >1 s knee, and the ours-vs-CR ordering.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use caa_core::exception::Exception;
use caa_core::message::MessageKind;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::{secs, VirtualDuration};
use caa_exgraph::generate::conjunction_lattice;
use caa_exgraph::{ExceptionGraph, ExceptionGraphBuilder};
use caa_protocol::ResolutionProtocol;
use caa_runtime::{ActionDef, System, SystemReport};
use caa_simnet::LatencyModel;

/// Parameters of the §5.2 experiment (Figure 9/10).
#[derive(Debug, Clone, Copy)]
pub struct NestedAbortParams {
    /// Maximum message-passing time `Tmmax` (uniform latencies in
    /// `(0, Tmmax]`).
    pub t_mmax: f64,
    /// Abortion-handler time `Tabo`.
    pub t_abo: f64,
    /// Resolution time `Treso`.
    pub t_reso: f64,
    /// Loop count ("executed in a loop (20 times)").
    pub iterations: u32,
    /// Deterministic seed.
    pub seed: u64,
    /// Acknowledgment timeout of the messaging subsystem; latencies beyond
    /// it retransmit, producing the >1 s knee of Figure 10.
    pub ack_timeout: Option<f64>,
}

impl Default for NestedAbortParams {
    /// The base configuration of Figure 9.
    fn default() -> Self {
        NestedAbortParams {
            t_mmax: 0.2,
            t_abo: 0.1,
            t_reso: 0.3,
            iterations: 20,
            seed: 42,
            ack_timeout: Some(1.0),
        }
    }
}

/// Per-iteration computation before the exception is raised. Calibrated so
/// the Figure 9 base configuration totals ≈ 94 s over 20 iterations.
const NESTED_ABORT_WORK: f64 = 3.4;
/// Handler computation `∆` per recovery.
const HANDLER_WORK: f64 = 0.4;

/// The §5.2 exception graph: `E1∩E3` covers the raised `E1` and the
/// abortion handler's `E3`. No parameter reaches it, so every run on a
/// thread shares one.
fn nested_abort_graph() -> Rc<ExceptionGraph> {
    thread_local! {
        static GRAPH: Rc<ExceptionGraph> = Rc::new(
            ExceptionGraphBuilder::new()
                .resolves("E1∩E3", ["E1", "E3"])
                .build()
                .expect("scenario graph"),
        );
    }
    GRAPH.with(Rc::clone)
}

/// The §5.3 exception graph: the full conjunction lattice over `e0 … e(n−1)`
/// — a pure function of `n`, built once per `n` per thread (2ⁿ − 1 nodes:
/// at the paper's n = 3 a build costs as much as the run's messages).
fn simultaneous_raise_graph(n: u32) -> Rc<ExceptionGraph> {
    thread_local! {
        static LATTICES: RefCell<BTreeMap<u32, Rc<ExceptionGraph>>> = const {
            RefCell::new(BTreeMap::new())
        };
    }
    LATTICES.with_borrow_mut(|lattices| {
        Rc::clone(lattices.entry(n).or_insert_with(|| {
            let prims: Vec<caa_core::ExceptionId> = (0..n)
                .map(|i| caa_core::ExceptionId::new(format!("e{i}")))
                .collect();
            Rc::new(conjunction_lattice(&prims, prims.len()).expect("conjunction lattice"))
        }))
    })
}

/// Runs the §5.2 scenario: "three threads take part in a CA action and two
/// of them enter a further nested action … one thread of the containing
/// action raises an exception and the nested action has to be aborted.
/// Another exception is raised by the abortion handler and the resolving
/// exception (covering both exceptions) is then raised in all the threads."
///
/// Returns the full report; `report.elapsed_secs()` is the paper's "total
/// execution time".
#[must_use]
pub fn nested_abort(params: NestedAbortParams) -> SystemReport {
    let mut outer = ActionDef::builder("containing")
        .role("r0", 0u32)
        .role("r1", 1u32)
        .role("r2", 2u32)
        .graph_shared(nested_abort_graph());
    for role in ["r0", "r1", "r2"] {
        outer = outer.fallback_handler(role, move |hc| {
            hc.work(secs(HANDLER_WORK))?;
            Ok(HandlerVerdict::Recovered)
        });
    }
    let outer = outer.build().expect("containing action definition");

    let t_abo = params.t_abo;
    let nested = ActionDef::builder("nested")
        .role("n1", 1u32)
        .role("n2", 2u32)
        .abort_handler("n1", move |ac| {
            ac.work(secs(t_abo))?;
            Ok(Some(Exception::new("E3")))
        })
        .abort_handler("n2", move |ac| {
            ac.work(secs(t_abo))?;
            Ok(None)
        })
        .build()
        .expect("nested action definition");

    let mut builder = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(params.t_mmax)))
        .seed(params.seed)
        .resolution_delay(secs(params.t_reso));
    if let Some(t) = params.ack_timeout {
        builder = builder.ack_timeout(secs(t));
    }
    let mut sys = builder.build();

    let iterations = params.iterations;
    let o0 = outer.clone();
    sys.spawn("T0", move |ctx| {
        for _ in 0..iterations {
            ctx.enter(&o0, "r0", |rc| {
                rc.work(secs(NESTED_ABORT_WORK))?;
                rc.raise(Exception::new("E1"))
            })?;
        }
        Ok(())
    });
    for (name, orole, nrole) in [("T1", "r1", "n1"), ("T2", "r2", "n2")] {
        let o = outer.clone();
        let n = nested.clone();
        let orole = orole.to_owned();
        let nrole = nrole.to_owned();
        sys.spawn(name, move |ctx| {
            for _ in 0..iterations {
                ctx.enter(&o, &orole, |rc| {
                    rc.work(secs(NESTED_ABORT_WORK * 0.5))?;
                    rc.enter(&n, &nrole, |nc| nc.work(secs(600.0)))?;
                    Ok(())
                })?;
            }
            Ok(())
        });
    }
    sys.run()
}

/// Parameters of the §5.3 comparison (Figures 12/13).
#[derive(Debug, Clone, Copy)]
pub struct SimultaneousRaiseParams {
    /// Maximum message-passing time `Tmmax`.
    pub t_mmax: f64,
    /// Resolution time `Tres`.
    pub t_res: f64,
    /// Number of participating threads (the paper uses 3).
    pub n: u32,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for SimultaneousRaiseParams {
    /// The base configuration of Figure 12.
    fn default() -> Self {
        SimultaneousRaiseParams {
            t_mmax: 1.0,
            t_res: 0.3,
            n: 3,
            seed: 7,
        }
    }
}

/// Computation before the simultaneous raise, calibrated so the base
/// configuration of Figure 12 lands near the paper's 9.15 s for the 1998
/// algorithm.
const SIMULTANEOUS_WORK: f64 = 6.0;

/// Runs the §5.3 scenario under the given resolution protocol: "Three
/// threads enter a CA action and after some period of computation all of
/// them raise different exceptions nearly at the same time, so exception
/// resolution is required."
#[must_use]
pub fn simultaneous_raise(
    params: SimultaneousRaiseParams,
    protocol: Arc<dyn ResolutionProtocol>,
) -> SystemReport {
    run_simultaneous_raise(params, Some(protocol))
}

/// [`simultaneous_raise`], under `protocol` or — `None` — the system's
/// default, the paper's algorithm.
fn run_simultaneous_raise(
    params: SimultaneousRaiseParams,
    protocol: Option<Arc<dyn ResolutionProtocol>>,
) -> SystemReport {
    let mut action = ActionDef::builder("compare");
    for i in 0..params.n {
        action = action.role(format!("r{i}"), i);
    }
    action = action.graph_shared(simultaneous_raise_graph(params.n));
    for i in 0..params.n {
        action = action.fallback_handler(format!("r{i}"), move |hc| {
            hc.work(secs(HANDLER_WORK))?;
            Ok(HandlerVerdict::Recovered)
        });
    }
    let action = action.build().expect("comparison action definition");

    let mut builder = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(params.t_mmax)))
        .seed(params.seed)
        .resolution_delay(secs(params.t_res));
    if let Some(protocol) = protocol {
        builder = builder.protocol(protocol);
    }
    let mut sys = builder.build();
    for i in 0..params.n {
        let a = action.clone();
        sys.spawn(format!("T{i}"), move |ctx| {
            ctx.enter(&a, &format!("r{i}"), |rc| {
                rc.work(secs(SIMULTANEOUS_WORK))?;
                rc.raise(Exception::new(format!("e{i}")))
            })
            .map(|_| ())
        });
    }
    sys.run()
}

/// Convenience: the §5.3 scenario under the paper's own algorithm — the
/// one a system runs when it is given none, which is also the one whose
/// resolver states a thread's run pool keeps from run to run.
#[must_use]
pub fn simultaneous_raise_xrr(params: SimultaneousRaiseParams) -> SystemReport {
    run_simultaneous_raise(params, None)
}

/// Total messages attributable to the resolution algorithm in a report:
/// those of every kind that
/// [counts for resolution](MessageKind::counts_for_resolution).
#[must_use]
pub fn resolution_messages(report: &SystemReport) -> u64 {
    MessageKind::ALL
        .into_iter()
        .filter(|kind| kind.counts_for_resolution())
        .map(|kind| report.net_stats.sent(kind.label()))
        .sum()
}

/// The handler computation constant `∆` used by the scenarios (exposed for
/// bound computations in reports).
#[must_use]
pub fn handler_work() -> VirtualDuration {
    secs(HANDLER_WORK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_baselines::CrResolution;

    #[test]
    fn nested_abort_base_configuration_runs() {
        let report = nested_abort(NestedAbortParams {
            iterations: 2,
            ..NestedAbortParams::default()
        });
        report.expect_ok();
        // Two iterations, three threads: 6 outer recoveries, 4 aborts.
        assert_eq!(report.runtime_stats.recoveries, 6);
        assert_eq!(report.runtime_stats.aborts, 4);
        assert_eq!(report.runtime_stats.resolutions_invoked, 2);
    }

    #[test]
    fn nested_abort_time_scales_with_iterations() {
        let one = nested_abort(NestedAbortParams {
            iterations: 1,
            ..NestedAbortParams::default()
        });
        let three = nested_abort(NestedAbortParams {
            iterations: 3,
            ..NestedAbortParams::default()
        });
        let ratio = three.elapsed_secs() / one.elapsed_secs();
        assert!(
            (2.5..3.5).contains(&ratio),
            "3 iterations should take ~3x one: ratio {ratio:.2}"
        );
    }

    #[test]
    fn simultaneous_raise_runs_under_both_protocols() {
        let p = SimultaneousRaiseParams::default();
        let ours = simultaneous_raise_xrr(p);
        let cr = simultaneous_raise(p, Arc::new(CrResolution));
        assert!(ours.is_ok() && cr.is_ok());
        assert!(
            cr.elapsed_secs() > ours.elapsed_secs(),
            "CR {:.2}s must exceed ours {:.2}s",
            cr.elapsed_secs(),
            ours.elapsed_secs()
        );
        assert_eq!(ours.runtime_stats.resolutions_invoked, 1);
        assert!(cr.runtime_stats.resolutions_invoked > 1);
    }
}
