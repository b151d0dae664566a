//! The full pipeline, front to back: SQL text → plan → kernel fusion →
//! simulated GPU execution → validated relation.
//!
//! ```sh
//! cargo run --release --example sql_frontend
//! ```

use kfusion::core::exec::{execute, ExecConfig, Strategy};
use kfusion::core::{fuse_plan, FusionBudget};
use kfusion::frontend::{compile, Catalog, ColType, TableSchema};
use kfusion::ir::opt::OptLevel;
use kfusion::relalg::ops::column_join;
use kfusion::tpch::gen::{generate, LineitemCol, TpchConfig};
use kfusion::vgpu::GpuSystem;

fn main() {
    // Schema + data: the TPC-H lineitem columns Q6 reads.
    let mut catalog = Catalog::new();
    catalog.add_table(
        "lineitem",
        TableSchema::new([
            ("shipdate", ColType::I64),
            ("qty", ColType::F64),
            ("price", ColType::F64),
            ("discount", ColType::F64),
        ]),
    );
    let db = generate(TpchConfig::scale(0.01));
    let mut rels = [
        LineitemCol::Shipdate,
        LineitemCol::Quantity,
        LineitemCol::ExtendedPrice,
        LineitemCol::Discount,
    ]
    .iter()
    .map(|&c| db.lineitem_column(c));
    let mut table = rels.next().unwrap();
    for r in rels {
        table = column_join(&table, &r).unwrap();
    }
    println!("lineitem: {} rows x {} columns\n", table.len(), table.n_cols());

    let sql = "SELECT SUM(price * discount) AS revenue, COUNT(*) AS n \
               FROM lineitem \
               WHERE shipdate >= 730 AND shipdate < 1095 \
               AND discount BETWEEN 0.05 AND 0.07 AND qty < 24";
    println!("query:\n  {sql}\n");

    let q = compile(sql, &catalog).expect("compiles");
    println!("naive plan ({} operators):", q.plan.len() - 1);
    for node in &q.plan.nodes {
        if !node.kind.is_input() {
            print!(" {}", node.kind.name());
        }
    }
    println!("\n");

    let sys = GpuSystem::c2070();
    let fused = fuse_plan(&q.plan, &FusionBudget::for_device(&sys.spec), OptLevel::O3);
    println!(
        "after kernel fusion: {} kernel(s) — the BETWEEN desugars to two\nconjuncts and everything still collapses (paper Fig. 2(a)+(g)).\n",
        fused.groups.len()
    );

    let mut base = 0.0;
    for (name, strat) in [("not optimized", Strategy::Serial), ("fusion", Strategy::Fusion)] {
        let r = execute(&sys, &q.plan, std::slice::from_ref(&table), &ExecConfig::new(strat, &sys))
            .expect("runs");
        if base == 0.0 {
            base = r.report.total();
        }
        let revenue = r.output.cols[0].as_f64().unwrap()[0];
        let n = r.output.cols[1].as_i64().unwrap()[0];
        println!(
            "{name:<14} {:>8.3} ms (normalized {:.3})  ->  {}={revenue:.2}, {}={n}",
            r.report.total() * 1e3,
            r.report.total() / base,
            q.output_names[0],
            q.output_names[1],
        );
    }
}
