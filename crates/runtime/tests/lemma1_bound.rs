//! Property-based verification of Lemma 1 / Theorem 1: a thread that
//! reaches the exceptional or suspended state completes exception handling
//! within
//!
//! `T ≤ (2·nmax + 3)·Tmmax + nmax·Tabort + (nmax + 1)·(Treso + ∆max)`
//!
//! and, consequently, the algorithm is deadlock-free (the virtual-time
//! scheduler *detects* global deadlocks, so a protocol deadlock would fail
//! these tests rather than hang them).

use std::sync::{Arc, Mutex};

use caa_core::exception::Exception;
use caa_core::exception::ExceptionId;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::{secs, VirtualInstant};
use caa_exgraph::generate::conjunction_lattice;
use caa_protocol::protocol::lemma1_bound;
use caa_runtime::{ActionDef, System};
use caa_simnet::LatencyModel;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Params {
    n: u32,
    raisers: Vec<u32>,
    t_mmax: f64,
    t_reso: f64,
    delta: f64,
    seed: u64,
}

fn params() -> impl Strategy<Value = Params> {
    (
        2u32..=5,
        0.05f64..1.0,
        0.0f64..0.5,
        0.0f64..0.5,
        any::<u64>(),
    )
        .prop_flat_map(|(n, t_mmax, t_reso, delta, seed)| {
            prop::collection::vec(0..n, 1..=n as usize).prop_map(move |mut raisers| {
                raisers.sort_unstable();
                raisers.dedup();
                Params {
                    n,
                    raisers,
                    t_mmax,
                    t_reso,
                    delta,
                    seed,
                }
            })
        })
}

/// Runs a flat (nmax = 0) scenario and returns
/// `(first_raise_at, last_handler_done_at)` in seconds.
fn run_flat(p: &Params) -> (f64, f64) {
    let prims: Vec<ExceptionId> = (0..p.n)
        .map(|i| ExceptionId::new(format!("e{i}")))
        .collect();
    let graph = conjunction_lattice(&prims, prims.len()).unwrap();

    let raise_at: Arc<Mutex<Option<VirtualInstant>>> = Arc::new(Mutex::new(None));
    let done_at: Arc<Mutex<Vec<VirtualInstant>>> = Arc::new(Mutex::new(Vec::new()));

    let mut builder = ActionDef::builder("bounded");
    for i in 0..p.n {
        builder = builder.role(format!("r{i}"), i);
    }
    builder = builder.graph(graph);
    let delta = p.delta;
    for i in 0..p.n {
        let done = Arc::clone(&done_at);
        builder = builder.fallback_handler(format!("r{i}"), move |hc| {
            hc.work(secs(delta))?;
            done.lock().unwrap().push(hc.now());
            Ok(HandlerVerdict::Recovered)
        });
    }
    let action = builder.build().unwrap();

    let mut sys = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(p.t_mmax)))
        .seed(p.seed)
        .resolution_delay(secs(p.t_reso))
        .build();
    for i in 0..p.n {
        let a = action.clone();
        let raises = p.raisers.contains(&i);
        let raise_clock = Arc::clone(&raise_at);
        sys.spawn(format!("T{i}"), move |ctx| {
            ctx.enter(&a, &format!("r{i}"), |rc| {
                rc.work(secs(0.5))?;
                if raises {
                    let mut at = raise_clock.lock().unwrap();
                    let now = rc.now();
                    *at = Some(at.map_or(now, |prev| prev.min(now)));
                    drop(at);
                    rc.raise(Exception::new(format!("e{i}")))?;
                }
                rc.work(secs(120.0))
            })
            .map(|_| ())
        });
    }
    sys.run().expect_ok();

    let raised = raise_at.lock().unwrap().expect("at least one raiser");
    let done = done_at.lock().unwrap();
    assert_eq!(done.len(), p.n as usize, "every thread must handle");
    let last = done.iter().max().copied().unwrap();
    (raised.as_secs_f64(), last.as_secs_f64())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Flat actions (nmax = 0): T ≤ 3·Tmmax + Treso + ∆max.
    #[test]
    fn flat_recovery_respects_lemma1_bound(p in params()) {
        let (raised, done) = run_flat(&p);
        let measured = done - raised;
        let bound = 3.0 * p.t_mmax + p.t_reso + p.delta;
        // Virtual-time rounding and the interruption poll granularity are
        // sub-microsecond; allow a hair of slack.
        prop_assert!(
            measured <= bound + 1e-6,
            "measured {measured:.6}s exceeds Lemma 1 bound {bound:.6}s (params {p:?})"
        );
    }
}

/// Nested scenario (nmax = 1), deterministic sweep: Figure 4's shape with
/// the abortion handler raising a second exception.
#[test]
fn nested_recovery_respects_lemma1_bound() {
    for (t_mmax, t_abort, t_reso, delta, seed) in [
        (0.2, 0.1, 0.3, 0.05, 1u64),
        (0.5, 0.2, 0.1, 0.2, 2),
        (1.0, 0.5, 0.5, 0.5, 3),
        (0.1, 0.0, 0.0, 0.0, 4),
    ] {
        let graph = caa_exgraph::ExceptionGraphBuilder::new()
            .resolves("both", ["E1", "E3"])
            .build()
            .unwrap();
        let raise_at: Arc<Mutex<Option<VirtualInstant>>> = Arc::new(Mutex::new(None));
        let done_at: Arc<Mutex<Vec<VirtualInstant>>> = Arc::new(Mutex::new(Vec::new()));

        let mut builder = ActionDef::builder("outer")
            .role("r0", 0u32)
            .role("r1", 1u32)
            .role("r2", 2u32)
            .graph(graph);
        for r in ["r0", "r1", "r2"] {
            let done = Arc::clone(&done_at);
            builder = builder.fallback_handler(r, move |hc| {
                hc.work(secs(delta))?;
                done.lock().unwrap().push(hc.now());
                Ok(HandlerVerdict::Recovered)
            });
        }
        let outer = builder.build().unwrap();
        let nested = ActionDef::builder("nested")
            .role("n1", 1u32)
            .role("n2", 2u32)
            .abort_handler("n1", move |ac| {
                ac.work(secs(t_abort))?;
                Ok(Some(Exception::new("E3")))
            })
            .abort_handler("n2", move |ac| {
                ac.work(secs(t_abort))?;
                Ok(None)
            })
            .build()
            .unwrap();

        let mut sys = System::builder()
            .latency(LatencyModel::UniformUpTo(secs(t_mmax)))
            .seed(seed)
            .resolution_delay(secs(t_reso))
            .build();
        let o0 = outer.clone();
        let rc0 = Arc::clone(&raise_at);
        sys.spawn("T0", move |ctx| {
            ctx.enter(&o0, "r0", |rc| {
                rc.work(secs(0.5))?;
                *rc0.lock().unwrap() = Some(rc.now());
                rc.raise(Exception::new("E1"))
            })
            .map(|_| ())
        });
        for (name, orole, nrole) in [("T1", "r1", "n1"), ("T2", "r2", "n2")] {
            let o = outer.clone();
            let n = nested.clone();
            let orole = orole.to_owned();
            let nrole = nrole.to_owned();
            sys.spawn(name, move |ctx| {
                ctx.enter(&o, &orole, |rc| {
                    rc.enter(&n, &nrole, |nc| nc.work(secs(300.0)))?;
                    Ok(())
                })
                .map(|_| ())
            });
        }
        sys.run().expect_ok();
        let raised = raise_at.lock().unwrap().unwrap().as_secs_f64();
        let done = done_at
            .lock()
            .unwrap()
            .iter()
            .max()
            .copied()
            .unwrap()
            .as_secs_f64();
        let measured = done - raised;
        let nmax = 1.0f64;
        let bound = lemma1_bound(nmax, t_mmax, t_abort, t_reso, delta);
        assert!(
            measured <= bound + 1e-6,
            "measured {measured:.6}s exceeds bound {bound:.6}s \
             (Tmmax={t_mmax}, Tabort={t_abort}, Treso={t_reso}, ∆={delta}, seed={seed})"
        );
    }
}
