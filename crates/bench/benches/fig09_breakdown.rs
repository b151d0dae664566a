//! Figure 9: execution-time breakdown of the three §III-B methods into
//! *input/output* transfer, *temporary-data round trip*, and *computation*,
//! normalized to the with-round-trip total, at the paper's three element
//! counts.
//!
//! Paper headlines: PCIe time dominates all three methods; the round-trip
//! share is ~54% of the with-round-trip execution; input/output time is
//! identical across methods.

use kfusion_bench::{chain, print_header, ratio, system, Table};
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::run_with_cards;
use kfusion_vgpu::CommandClass;

fn main() {
    let _trace = kfusion_bench::trace_session("fig09_breakdown");
    print_header("Fig. 9", "execution-time breakdown (normalized to w/ round trip)");
    let sys = system();
    let mut t =
        Table::new(["elements", "method", "input/output", "round trip", "compute", "total(norm)"]);
    // The paper's three x positions.
    for &n in &[4_194_304u64, 205_520_896, 415_236_096] {
        let c = chain(n, &[0.5, 0.5]);
        let cards = c.cardinalities().unwrap();
        let reports = [
            ("w/ round trip", run_with_cards(&sys, &c, Strategy::SerialRoundTrip, &cards).unwrap()),
            ("w/o round trip", run_with_cards(&sys, &c, Strategy::Serial, &cards).unwrap()),
            ("fused", run_with_cards(&sys, &c, Strategy::Fusion, &cards).unwrap()),
        ];
        let base = reports[0].1.total();
        for (name, r) in &reports {
            t.row([
                n.to_string(),
                (*name).to_string(),
                ratio(r.class_time(CommandClass::InputOutput) / base),
                ratio(r.class_time(CommandClass::RoundTrip) / base),
                ratio(r.class_time(CommandClass::Compute) / base),
                ratio(r.total() / base),
            ]);
        }
    }
    t.print();
    let c = chain(205_520_896, &[0.5, 0.5]);
    let cards = c.cardinalities().unwrap();
    let rt = run_with_cards(&sys, &c, Strategy::SerialRoundTrip, &cards).unwrap();
    println!(
        "round-trip share of w/ round trip at 205M: {:.1}%  (paper: 54.0%)",
        100.0 * rt.class_time(CommandClass::RoundTrip) / rt.total()
    );
}
