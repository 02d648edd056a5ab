//! `caa tables` — regenerates every table and figure of the paper's
//! evaluation (§5), each measured value next to the paper's printed one.
//!
//! ```text
//! caa tables all
//! caa tables fig9 fig12 msgs
//! ```
//!
//! Sections: `fig9`, `fig10`, `fig12`, `fig13`, `msgs`, `signalling`,
//! `lemma1`; `all` (or no argument) prints every one in that order. Every
//! number is a virtual-time fact of a seeded run on the bare runtime, so
//! the output is byte-identical on every host
//! (`tests/golden/paper_tables.txt`).

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::Arc;

use crate::{
    nested_abort, resolution_messages, simultaneous_raise, NestedAbortParams,
    SimultaneousRaiseParams,
};
use caa_baselines::{CrResolution, Rom96Resolution};
use caa_core::exception::Exception;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::secs;
use caa_protocol::protocol::lemma1_bound;
use caa_protocol::{ResolutionProtocol, XrrResolution};
use caa_runtime::{ActionDef, System, SystemReport};
use caa_simnet::LatencyModel;

use super::{usage_error, Args, Run};

/// A section appends its text.
type Section = fn(&mut String);

const SECTIONS: [(&str, Section); 7] = [
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig12", fig12),
    ("fig13", fig13),
    ("msgs", msgs),
    ("signalling", signalling),
    ("lemma1", lemma1),
];

pub(super) fn run(args: &Args, out: &mut dyn Write) -> Run {
    let wanted = &args.positional;
    let sections: Vec<Section> = if wanted.is_empty() || wanted.iter().any(|name| name == "all") {
        SECTIONS.iter().map(|&(_, section)| section).collect()
    } else {
        let find = |name: &String| match SECTIONS.iter().find(|(known, _)| known == name) {
            Some(&(_, section)) => Ok(section),
            None => Err(usage_error(format!("unknown section {name}"))),
        };
        wanted.iter().map(find).collect::<io::Result<_>>()?
    };
    for section in sections {
        let mut text = String::new();
        section(&mut text);
        out.write_all(text.as_bytes())?;
    }
    Ok(0)
}

// ---------------------------------------------------------------- Fig 9

/// Paper values for the base column of each Figure 9 sub-table.
const FIG9_PAPER_TMMAX: &[(f64, f64)] = &[
    (0.2, 94.361391),
    (0.4, 98.586050),
    (0.6, 102.150904),
    (0.8, 106.774196),
    (1.0, 110.984972),
    (1.2, 125.078084),
    (1.4, 140.826807),
    (1.6, 161.766956),
    (1.8, 188.284787),
    (2.0, 214.519403),
    (2.2, 226.543372),
    (2.4, 237.934833),
    (2.6, 249.744183),
    (2.8, 261.768559),
];
const FIG9_PAPER_TABO: &[(f64, f64)] = &[
    (0.1, 94.361391),
    (0.3, 98.991825),
    (0.5, 101.939318),
    (0.7, 106.150075),
    (0.9, 110.154827),
    (1.1, 113.937682),
    (1.3, 118.147893),
    (1.5, 122.573297),
    (1.7, 128.461646),
    (1.9, 130.362452),
    (2.1, 134.165025),
];
const FIG9_PAPER_TRESO: &[(f64, f64)] = &[
    (0.3, 94.361391),
    (0.5, 98.352511),
    (0.7, 102.547776),
    (0.9, 107.164660),
    (1.1, 110.338507),
    (1.3, 114.729476),
    (1.5, 118.928022),
    (1.7, 122.483917),
    (1.9, 127.117187),
    (2.1, 131.816326),
    (2.3, 135.123453),
];

/// One Figure 9 sub-table: the parameter it varies, the two it holds, the
/// run a value of the varied one sets up, and the paper's column.
struct Fig9Series {
    varies: &'static str,
    holds: &'static str,
    params: fn(f64) -> NestedAbortParams,
    paper: &'static [(f64, f64)],
}

const FIG9_SERIES: [Fig9Series; 3] = [
    Fig9Series {
        varies: "Tmmax",
        holds: "Tabo=0.1, Treso=0.3",
        params: |t_mmax| NestedAbortParams {
            t_mmax,
            ..NestedAbortParams::default()
        },
        paper: FIG9_PAPER_TMMAX,
    },
    Fig9Series {
        varies: "Tabo",
        holds: "Tmmax=0.2, Treso=0.3",
        params: |t_abo| NestedAbortParams {
            t_abo,
            ..NestedAbortParams::default()
        },
        paper: FIG9_PAPER_TABO,
    },
    Fig9Series {
        varies: "Treso",
        holds: "Tmmax=0.2, Tabo=0.1",
        params: |t_reso| NestedAbortParams {
            t_reso,
            ..NestedAbortParams::default()
        },
        paper: FIG9_PAPER_TRESO,
    },
];

fn fig9_row(params: NestedAbortParams) -> f64 {
    let report = nested_abort(params);
    report.expect_ok();
    report.elapsed_secs()
}

fn fig9(out: &mut String) {
    out.push_str("== Figure 9: total execution time of the §5.2 application (20 iterations) ==\n");
    out.push_str("   scenario: 3 threads, nested action aborted by a containing-action\n");
    out.push_str("   exception; abortion handler raises a second exception; both resolved.\n");
    out.push('\n');
    for series in &FIG9_SERIES {
        let _ = writeln!(out, "-- varying {} ({}) --", series.varies, series.holds);
        let _ = writeln!(
            out,
            "{:>8} {:>14} {:>14}",
            series.varies, "measured (s)", "paper (s)"
        );
        for &(t, paper) in series.paper {
            let measured = fig9_row((series.params)(t));
            let _ = writeln!(out, "{t:>8.1} {measured:>14.2} {paper:>14.2}");
        }
        out.push('\n');
    }
}

fn fig10(out: &mut String) {
    out.push_str("== Figure 10: sensitivity of total execution time ==\n");
    out.push_str("   (same data as Figure 9, printed as three series; the Tmmax series\n");
    out.push_str("   shows the knee past the 1.0 s acknowledgment timeout)\n");
    out.push('\n');
    for series in &FIG9_SERIES {
        let _ = write!(out, "varying {:>6}:", series.varies);
        for &(t, _) in series.paper {
            let _ = write!(out, " ({t:.1},{:.1})", fig9_row((series.params)(t)));
        }
        out.push('\n');
    }
    out.push('\n');
}

// --------------------------------------------------------------- Fig 12

const FIG12_PAPER_TMMAX: &[(f64, f64, f64)] = &[
    (1.0, 9.153302, 11.770973),
    (1.2, 9.938735, 12.978797),
    (1.4, 10.758318, 14.168119),
    (1.6, 11.548076, 15.397075),
    (1.8, 12.356180, 16.558536),
    (2.0, 13.164378, 17.757369),
    (2.2, 13.931107, 18.967081),
    (2.4, 14.720373, 20.188518),
];
const FIG12_PAPER_TRES: &[(f64, f64, f64)] = &[
    (0.3, 9.153302, 11.770973),
    (0.5, 9.348575, 12.358930),
    (0.7, 9.581770, 12.984660),
    (0.9, 9.762674, 13.604786),
    (1.1, 9.981335, 14.212014),
    (1.3, 10.177758, 14.817670),
    (1.5, 10.414642, 15.288979),
];

/// Averages the §5.3 scenario over several seeds (the paper's single
/// numbers are smooth; individual runs with uniform latencies are noisy).
fn fig12_point(t_mmax: f64, t_res: f64, protocol: &Arc<dyn ResolutionProtocol>) -> f64 {
    let seeds = [3u64, 11, 17, 29, 41];
    let total: f64 = seeds
        .iter()
        .map(|&seed| {
            let report = simultaneous_raise(
                SimultaneousRaiseParams {
                    t_mmax,
                    t_res,
                    n: 3,
                    seed,
                },
                Arc::clone(protocol),
            );
            report.expect_ok();
            report.elapsed_secs()
        })
        .sum();
    total / seeds.len() as f64
}

fn fig12(out: &mut String) {
    out.push_str("== Figure 12: ours vs Campbell-Randell, 3 threads raising simultaneously ==\n");
    let ours: Arc<dyn ResolutionProtocol> = Arc::new(XrrResolution);
    let cr: Arc<dyn ResolutionProtocol> = Arc::new(CrResolution);
    for (varies, holds, paper) in [
        ("Tmmax", "Tres=0.3", FIG12_PAPER_TMMAX),
        ("Tres", "Tmmax=1.0", FIG12_PAPER_TRES),
    ] {
        out.push('\n');
        let _ = writeln!(out, "-- varying {varies} ({holds}) --");
        let _ = writeln!(
            out,
            "{varies:>6} {:>12} {:>12} {:>12} {:>12}",
            "ours (s)", "CR (s)", "paper ours", "paper CR"
        );
        for &(t, p_ours, p_cr) in paper {
            let (t_mmax, t_res) = if varies == "Tmmax" {
                (t, 0.3)
            } else {
                (1.0, t)
            };
            let m_ours = fig12_point(t_mmax, t_res, &ours);
            let m_cr = fig12_point(t_mmax, t_res, &cr);
            let _ = writeln!(
                out,
                "{t:>6.1} {m_ours:>12.2} {m_cr:>12.2} {p_ours:>12.2} {p_cr:>12.2}"
            );
        }
    }
    out.push('\n');
}

fn fig13(out: &mut String) {
    out.push_str("== Figure 13: comparison summary (slopes of the Figure 12 series) ==\n");
    let ours: Arc<dyn ResolutionProtocol> = Arc::new(XrrResolution);
    let cr: Arc<dyn ResolutionProtocol> = Arc::new(CrResolution);
    let slope = |a: f64, b: f64, da: f64| (b - a) / da;

    let o1 = fig12_point(1.0, 0.3, &ours);
    let o2 = fig12_point(2.4, 0.3, &ours);
    let c1 = fig12_point(1.0, 0.3, &cr);
    let c2 = fig12_point(2.4, 0.3, &cr);
    let _ = writeln!(
        out,
        "(a) d(total)/d(Tmmax): ours {:.2} vs CR {:.2}   (paper: 3.98 vs 6.01)",
        slope(o1, o2, 1.4),
        slope(c1, c2, 1.4)
    );

    let o3 = fig12_point(1.0, 1.5, &ours);
    let c3 = fig12_point(1.0, 1.5, &cr);
    let _ = writeln!(
        out,
        "(b) d(total)/d(Tres) : ours {:.2} vs CR {:.2}   (paper: 1.05 vs 2.93)",
        slope(o1, o3, 1.2),
        slope(c1, c3, 1.2)
    );
    out.push_str("    resolution invoked  : ours once per recovery; CR N(N-1)(N-2)+N(N-1) times\n");
    out.push('\n');
}

// ---------------------------------------------------------------- msgs

/// `n` threads in one action over the conjunction lattice of `e0..`, the
/// `raisers` raising theirs at 0.1 s; `r0`'s handler returns `first`, every
/// other one recovers.
fn run_counting(
    n: u32,
    raisers: &[u32],
    protocol: Arc<dyn ResolutionProtocol>,
    first: HandlerVerdict,
) -> SystemReport {
    let prims: Vec<caa_core::ExceptionId> = (0..n)
        .map(|i| caa_core::ExceptionId::new(format!("e{i}")))
        .collect();
    let graph = caa_exgraph::generate::conjunction_lattice(&prims, prims.len()).unwrap();
    let mut builder = ActionDef::builder("measured");
    for i in 0..n {
        builder = builder.role(format!("r{i}"), i);
    }
    builder = builder.graph(graph);
    for i in 0..n {
        let verdict = if i == 0 {
            first.clone()
        } else {
            HandlerVerdict::Recovered
        };
        builder = builder.fallback_handler(format!("r{i}"), move |_| Ok(verdict.clone()));
    }
    let action = builder.build().unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.05)))
        .protocol(protocol)
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

fn msgs(out: &mut String) {
    out.push_str("== §3.3.3 / Theorem 2: resolution-message counts ==\n");
    out.push('\n');
    for (title, all_raise) in [
        (
            "-- one exception, no nesting: predicted (N+1)(N-1) --",
            false,
        ),
        (
            "-- all N raise simultaneously: same total, no Suspended --",
            true,
        ),
    ] {
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:>3} {:>10} {:>10} {:>8} {:>9} {:>11}",
            "N", "Exception", "Suspended", "Commit", "total", "predicted"
        );
        for n in 2u64..=8 {
            let raisers: Vec<u32> = (0..if all_raise { n as u32 } else { 1 }).collect();
            let r = run_counting(
                n as u32,
                &raisers,
                Arc::new(XrrResolution),
                HandlerVerdict::Recovered,
            );
            let _ = writeln!(
                out,
                "{n:>3} {:>10} {:>10} {:>8} {:>9} {:>11}",
                r.net_stats.sent("Exception"),
                r.net_stats.sent("Suspended"),
                r.net_stats.sent("Commit"),
                resolution_messages(&r),
                (n + 1) * (n - 1)
            );
        }
        out.push('\n');
    }
    out.push_str(
        "-- algorithm comparison (all N raise): total messages / resolutions invoked --\n",
    );
    let _ = writeln!(
        out,
        "{:>3} {:>16} {:>16} {:>16}",
        "N", "ours (xrr98)", "Rom96", "CR86"
    );
    for n in 2u64..=6 {
        let raisers: Vec<u32> = (0..n as u32).collect();
        let _ = write!(out, "{n:>3}");
        let protocols: [Arc<dyn ResolutionProtocol>; 3] = [
            Arc::new(XrrResolution),
            Arc::new(Rom96Resolution),
            Arc::new(CrResolution),
        ];
        for protocol in protocols {
            let r = run_counting(n as u32, &raisers, protocol, HandlerVerdict::Recovered);
            let invoked = r.runtime_stats.resolutions_invoked;
            let _ = write!(out, " {:>12}/{invoked:<3}", resolution_messages(&r));
        }
        out.push('\n');
    }
    out.push_str("    predictions: ours (N+1)(N-1); Rom96 3N(N-1), N invocations;\n");
    out.push_str("    CR N^2(N-1) messages, N(N-1)(N-2)+N(N-1) invocations (O(N^3)).\n");
    out.push('\n');
}

fn signalling(out: &mut String) {
    out.push_str("== §3.4: signalling-message counts ==\n");
    out.push('\n');
    let _ = writeln!(
        out,
        "{:>3} {:>16} {:>16} {:>14} {:>14}",
        "N", "simple (meas.)", "predicted N(N-1)", "undo (meas.)", "pred. 2N(N-1)"
    );
    for n in 2u64..=8 {
        let run = |first| run_counting(n as u32, &[0], Arc::new(XrrResolution), first);
        // Simple case: handler recovers (φ), one exchange.
        let simple = run(HandlerVerdict::Recovered);
        // Undo case: one handler requests µ, two exchanges.
        let undo = run(HandlerVerdict::Undo);
        let _ = writeln!(
            out,
            "{n:>3} {:>16} {:>16} {:>14} {:>14}",
            simple.net_stats.sent("toBeSignalled"),
            n * (n - 1),
            undo.net_stats.sent("toBeSignalled"),
            2 * n * (n - 1)
        );
    }
    out.push('\n');
}

fn lemma1(out: &mut String) {
    out.push_str("== Lemma 1: completion-time bound ==\n");
    out.push_str("   T <= (2*nmax+3)*Tmmax + nmax*Tabort + (nmax+1)*(Treso + Dmax)\n");
    out.push('\n');
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>8} {:>14} {:>12}",
        "Tmmax", "Tabo", "Treso", "measured T(s)", "bound (s)"
    );
    for (t_mmax, t_abo, t_reso) in [
        (0.2, 0.1, 0.3),
        (0.5, 0.3, 0.5),
        (1.0, 0.5, 0.3),
        (1.0, 1.0, 1.0),
    ] {
        // One iteration of the nested-abort scenario; recovery time is the
        // elapsed time minus the computation before the raise.
        let report = nested_abort(NestedAbortParams {
            t_mmax,
            t_abo,
            t_reso,
            iterations: 1,
            seed: 5,
            ack_timeout: None,
        });
        let recovery = report.elapsed_secs() - 3.4; // minus pre-raise work
        let bound = lemma1_bound(
            1.0,
            t_mmax,
            t_abo,
            t_reso,
            crate::scenarios::handler_work().as_secs_f64(),
        ) + 2.0 * t_mmax; // plus the synchronous-exit round our runtime adds
        let _ = writeln!(
            out,
            "{t_mmax:>8.1} {t_abo:>8.1} {t_reso:>8.1} {recovery:>14.2} {bound:>12.2}  {}",
            if recovery <= bound { "OK" } else { "VIOLATION" }
        );
    }
    out.push('\n');
}
