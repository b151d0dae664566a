//! TPC-H Q21 through the fusion/fission compiler (paper §V, Fig. 18(b)).
//!
//! ```sh
//! cargo run --release --example tpch_q21
//! ```
//!
//! Q21 ("suppliers who kept orders waiting") is join-heavy with several
//! SORT barriers, so fusion helps less than on Q1 — which is the paper's
//! point in comparing the two. The EXISTS / NOT EXISTS subqueries run as
//! semijoin / antijoin against grouped MIN/MAX supplier aggregates.

use kfusion::core::exec::Strategy;
use kfusion::core::fusion::fuse_plan;
use kfusion::core::FusionBudget;
use kfusion::ir::opt::OptLevel;
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::q21::{q21_plan, reference_q21, run_q21};
use kfusion::vgpu::GpuSystem;

const NATION: i64 = 20; // "SAUDI ARABIA" in the spec's numbering

fn main() {
    let db = generate(TpchConfig::scale(0.02));
    let system = GpuSystem::c2070();
    println!(
        "lineitem rows: {}, orders: {}, suppliers: {}\n",
        db.lineitem.len(),
        db.orders.orderkey.len(),
        db.supplier.suppkey.len()
    );

    let plan = q21_plan(NATION);
    let fused = fuse_plan(&plan, &FusionBudget::for_device(&system.spec), OptLevel::O3);
    println!(
        "fusion structure: {} operators -> {} kernels (Q1 gets 4 — more barriers here):",
        plan.len(),
        fused.groups.len()
    );
    for (i, group) in fused.groups.iter().enumerate() {
        let names: Vec<&str> = group.iter().map(|&n| plan.nodes[n].kind.name()).collect();
        println!("  kernel {i}: {}", names.join(" + "));
    }
    println!();

    let reference = reference_q21(&db, NATION);
    let mut baseline = 0.0;
    for (name, strategy) in [
        ("not optimized", Strategy::Serial),
        ("fusion", Strategy::Fusion),
        ("fusion + fission", Strategy::FusionFission { segments: 8 }),
    ] {
        let r = run_q21(&system, &db, NATION, strategy).expect("q21 runs");
        assert_eq!(r.output, reference, "{name} produced a wrong answer!");
        if baseline == 0.0 {
            baseline = r.report.total();
        }
        println!(
            "{name:<18} {:>9.3} ms   (normalized {:.3})   answer verified",
            r.report.total() * 1e3,
            r.report.total() / baseline
        );
    }

    println!("\ntop waiting suppliers of nation {NATION} (suppkey: orders kept waiting):");
    let counts = reference.cols[0].as_i64().expect("count column");
    for (k, c) in reference.keys().iter().zip(counts).rev().take(10) {
        println!("  supplier {k:>6}: {c}");
    }
    if reference.is_empty() {
        println!("  (none at this scale factor)");
    }
}
