//! Head-to-head of the three resolution algorithms on the §5.3 workload.
//!
//! ```text
//! cargo run --release --example algorithm_comparison
//! ```
//!
//! Three threads raise different exceptions nearly simultaneously; the same
//! run executes under the paper's 1998 algorithm, Romanovsky-1996 and
//! Campbell–Randell-1986, printing time, messages and resolution
//! invocations — the comparison behind Figures 12/13.

use std::sync::Arc;

use caa::baselines::{CrResolution, Rom96Resolution};
use caa::core::exception::{Exception, ExceptionId};
use caa::core::outcome::HandlerVerdict;
use caa::core::time::secs;
use caa::exgraph::generate::conjunction_lattice;
use caa::protocol::{ResolutionProtocol, XrrResolution};
use caa::runtime::{ActionDef, System};
use caa::simnet::LatencyModel;

fn run(n: u32, protocol: Arc<dyn ResolutionProtocol>) {
    let name = protocol.name();
    let prims: Vec<ExceptionId> = (0..n).map(|i| ExceptionId::new(format!("e{i}"))).collect();
    let graph = conjunction_lattice(&prims, prims.len()).expect("lattice");
    let mut builder = ActionDef::builder("compare");
    for i in 0..n {
        builder = builder.role(format!("r{i}"), i);
    }
    builder = builder.graph(graph);
    for i in 0..n {
        builder = builder.fallback_handler(format!("r{i}"), |_| Ok(HandlerVerdict::Recovered));
    }
    let action = builder.build().expect("definition");

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
                rc.work(secs(2.0))?;
                rc.raise(Exception::new(format!("e{i}")))
            })
            .map(|_| ())
        });
    }
    let report = sys.run();
    report.expect_ok();
    let msgs = report.net_stats.sent("Exception")
        + report.net_stats.sent("Suspended")
        + report.net_stats.sent("Commit")
        + report.net_stats.sent("Resolve");
    println!(
        "  {name:<8} time {:>7.3}s   resolution messages {msgs:>3}   resolutions invoked {:>3}",
        report.elapsed_secs(),
        report.runtime_stats.resolutions_invoked
    );
}

fn main() {
    for n in [3u32, 5] {
        println!("N = {n} threads, all raising concurrently (Tmmax=1.0, Tres=0.3):");
        run(n, Arc::new(XrrResolution));
        run(n, Arc::new(Rom96Resolution));
        run(n, Arc::new(CrResolution));
        println!();
    }
    println!("expected counts: ours (N+1)(N-1); Rom96 3N(N-1); CR N^2(N-1).");
}
