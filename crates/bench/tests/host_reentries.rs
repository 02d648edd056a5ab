//! How often a bare run of the paper's scenarios hands the CPU back to
//! `System::run`'s host loop. A participant that parks transfers the CPU
//! straight to the network's next pick, so the loop gets it back once per
//! participant — when that participant's body ends — however many times
//! the participants park; a resume per park would make it once per park
//! plus once per participant. What the scheduler did is pinned beside it:
//! the transfers change who switches, never who runs next.

use caa_bench::scenarios::{
    nested_abort, simultaneous_raise_xrr, NestedAbortParams, SimultaneousRaiseParams,
};
use caa_runtime::SystemReport;

/// The report of `run`, and how many times the calling thread resumed a
/// fiber during it.
fn resumes_of(run: impl FnOnce() -> SystemReport) -> (SystemReport, u64) {
    let before = caa_fiber::resumes();
    let report = run();
    (report, caa_fiber::resumes() - before)
}

#[test]
fn a_section_5_3_run_enters_the_host_loop_once_per_participant() {
    let (report, resumes) =
        resumes_of(|| simultaneous_raise_xrr(SimultaneousRaiseParams::default()));
    report.expect_ok();
    assert_eq!(report.results.len(), 3);
    let sched = report.sched_stats;
    assert_eq!((sched.parks, sched.wakes), (23, 27));
    // One resume a park would be 26.
    assert_eq!(resumes, 3);
}

#[test]
fn a_section_5_2_run_enters_the_host_loop_once_per_participant() {
    let (report, resumes) = resumes_of(|| nested_abort(NestedAbortParams::default()));
    report.expect_ok();
    assert_eq!(report.results.len(), 3);
    let sched = report.sched_stats;
    assert_eq!((sched.parks, sched.wakes), (476, 574));
    // One resume a park would be 479.
    assert_eq!(resumes, 3);
}
