//! TPC-H Q1 through the fusion/fission compiler (paper §V, Fig. 18(a)).
//!
//! ```sh
//! cargo run --release --example tpch_q1
//! ```
//!
//! Generates a dbgen-lite database, builds the Fig. 17(a) physical plan
//! (six column-JOINs + SELECT → SORT → fused arithmetic → AGGREGATION →
//! UNIQUE), runs it unoptimized / fused / fused+fissioned, validates every
//! answer against an imperative reference, and prints the fusion structure
//! the pass discovered.

use kfusion::core::exec::Strategy;
use kfusion::core::fusion::fuse_plan;
use kfusion::core::FusionBudget;
use kfusion::ir::opt::OptLevel;
use kfusion::relalg::ops::unpack_key2;
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::q1::{q1_matches_reference, q1_plan, reference_q1, run_q1};
use kfusion::vgpu::GpuSystem;

fn main() {
    let db = generate(TpchConfig::scale(0.02));
    let system = GpuSystem::c2070();
    println!("lineitem rows: {}\n", db.lineitem.len());

    // Show what the fusion pass does to the plan.
    let plan = q1_plan();
    let fused = fuse_plan(&plan, &FusionBudget::for_device(&system.spec), OptLevel::O3);
    println!("fusion structure ({} operators -> {} kernels):", plan.len(), fused.groups.len());
    for (i, group) in fused.groups.iter().enumerate() {
        let names: Vec<&str> = group.iter().map(|&n| plan.nodes[n].kind.name()).collect();
        println!("  kernel {i}: {}", names.join(" + "));
    }
    println!();

    let reference = reference_q1(&db);
    let mut baseline = 0.0;
    for (name, strategy) in [
        ("not optimized", Strategy::Serial),
        ("fusion", Strategy::Fusion),
        ("fusion + fission", Strategy::FusionFission { segments: 8 }),
    ] {
        let r = run_q1(&system, &db, strategy).expect("q1 runs");
        assert!(
            q1_matches_reference(&r.output, &reference, 1e-9),
            "{name} produced a wrong answer!"
        );
        if baseline == 0.0 {
            baseline = r.report.total();
        }
        println!(
            "{name:<18} {:>9.3} ms   (normalized {:.3})   answer verified",
            r.report.total() * 1e3,
            r.report.total() / baseline
        );
    }

    println!("\nQ1 result (per returnflag/linestatus group):");
    println!("flag status |   sum_qty    sum_base_price   count");
    for (i, k) in reference.keys().iter().enumerate() {
        let (flag, status) = unpack_key2(k);
        let flag = ["R", "A", "N"][flag as usize];
        let status = ["F", "O", "P"][status as usize];
        let qty = reference.cols[0].as_f64().unwrap()[i];
        let price = reference.cols[1].as_f64().unwrap()[i];
        let count = reference.cols[7].as_i64().unwrap()[i];
        println!("  {flag}    {status}    | {qty:>10.0} {price:>16.2} {count:>7}");
    }
}
