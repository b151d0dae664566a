//! Differential fuzzing of the SQL front end against the scalar oracle.
//!
//! A single test drives the whole run because the engine selection it
//! toggles (`kfusion_relalg::engine::set_batch_enabled`) is process-global:
//! one test, one owner. It runs 500 seeded queries over tables of up to 96
//! rows; seeds are fixed so a red run reproduces locally by pasting the
//! printed seed.

use kfusion_frontend::fuzz::{fuzz, gen_case};
use kfusion_vgpu::GpuSystem;

#[test]
fn differential_fuzz_finds_no_mismatches() {
    let (n, rows) = (500, 96);
    let system = GpuSystem::c2070();
    let report = fuzz(&system, n, rows, 0);
    assert_eq!(report.queries, n);
    assert!(report.executions >= n, "matrix should execute every query many times");
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("{f}");
        }
        panic!("{} of {} fuzzed queries diverged from the oracle", report.failures.len(), n);
    }
    // The engine toggle must be restored after the run.
    assert!(kfusion_relalg::engine::batch_enabled());

    // Sanity-check the failure path end-to-end: corrupt a case's table so
    // row counts disagree with the compiled plan… not possible without an
    // engine bug, so instead check the replay contract directly — the
    // reported seed regenerates the identical case.
    let again = gen_case(7, rows);
    let case = gen_case(7, rows);
    assert_eq!(again.sql, case.sql);
}
