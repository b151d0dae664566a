//! TPC-H Q1: the pricing summary report.
//!
//! ```sql
//! SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
//!        sum(l_extendedprice*(1-l_discount)),
//!        sum(l_extendedprice*(1-l_discount)*(1+l_tax)),
//!        avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
//! FROM lineitem WHERE l_shipdate <= date '1998-12-01' - interval '90' day
//! GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus
//! ```
//!
//! The physical plan mirrors the paper's Fig. 17(a): six column-JOINs
//! assemble a seven-column table from per-column relations keyed by row id,
//! one SELECT filters the date range, a SORT orders by the (packed) group
//! key, fused arithmetic computes the two money expressions, and a grouped
//! AGGREGATION + UNIQUE finish. The fusion pass merges the JOIN+SELECT
//! block into one kernel and the arithmetic+aggregation into another, with
//! the SORT as the barrier between them — exactly the paper's fusion
//! structure for this query, and what the sim clock prices. On the host the
//! fused SORT moves no row: only the AGGREGATE reads what it sorts, so it
//! hands over the four groups instead of the order (DESIGN.md §17).

use crate::gen::{TpchDb, Q1_COLUMNS, Q1_CUTOFF_DAY};
use kfusion_core::exec::{execute, ExecConfig, ExecResult, Strategy};
use kfusion_core::{CoreError, OpKind, PlanGraph};
use kfusion_ir::builder::{BodyBuilder, Expr};
use kfusion_ir::CmpOp;
use kfusion_relalg::ops::{pack_key2, Agg, SortBy};
use kfusion_relalg::{predicates, Column, Relation};
use kfusion_vgpu::GpuSystem;
use std::collections::BTreeMap;

/// Wide-table column layout after the six column-joins.
mod wide {
    pub const SHIPDATE: usize = 0;
    pub const QUANTITY: usize = 1;
    pub const PRICE: usize = 2;
    pub const DISCOUNT: usize = 3;
    pub const TAX: usize = 4;
    pub const FLAG: usize = 5;
    pub const STATUS: usize = 6;
}

/// The packed-group-key expression: `returnflag << 16 | linestatus`.
fn pack_body() -> kfusion_ir::KernelBody {
    let mut b = BodyBuilder::new(8);
    b.emit_output(
        Expr::input(wide::FLAG as u32 + 1)
            .mul(Expr::lit(65536i64))
            .add(Expr::input(wide::STATUS as u32 + 1)),
    );
    b.build()
}

/// The two money expressions, computed in one fused arithmetic kernel:
/// `disc_price = price*(1-disc)` and `charge = price*(1-disc)*(1+tax)`.
fn money_body() -> kfusion_ir::KernelBody {
    let price = || Expr::input(wide::PRICE as u32 + 1);
    let disc = || Expr::input(wide::DISCOUNT as u32 + 1);
    let tax = || Expr::input(wide::TAX as u32 + 1);
    let mut b = BodyBuilder::new(8);
    b.emit_output(price().mul(Expr::lit(1.0f64).sub(disc())));
    b.emit_output(price().mul(Expr::lit(1.0f64).sub(disc())).mul(Expr::lit(1.0f64).add(tax())));
    b.build()
}

/// The Q1 aggregate list, in output-column order.
pub fn q1_aggs() -> Vec<Agg> {
    vec![
        Agg::Sum(wide::QUANTITY),
        Agg::Sum(wide::PRICE),
        Agg::Sum(7), // disc_price (appended by the money kernel)
        Agg::Sum(8), // charge
        Agg::Avg(wide::QUANTITY),
        Agg::Avg(wide::PRICE),
        Agg::Avg(wide::DISCOUNT),
        Agg::Count,
    ]
}

/// Build the Q1 physical plan (Fig. 17(a) shape).
pub fn q1_plan() -> PlanGraph {
    let mut g = PlanGraph::new();
    // Seven per-column inputs, joined pairwise into the wide table.
    let mut acc = g.input(0);
    for c in 1..7 {
        let col = g.input(c);
        acc = g.add(OpKind::ColumnJoin, vec![acc, col]);
    }
    // Date-range SELECT.
    let sel = g.add(
        OpKind::Select { pred: predicates::col_cmp_i64(wide::SHIPDATE, CmpOp::Le, Q1_CUTOFF_DAY) },
        vec![acc],
    );
    // Pack the group attributes and re-key, then SORT (the barrier).
    let packed = g.add(OpKind::ArithExtend { body: pack_body() }, vec![sel]);
    let rekeyed = g.add(OpKind::Rekey { col: 7 }, vec![packed]);
    let sorted = g.add(OpKind::Sort { by: SortBy::Key }, vec![rekeyed]);
    // Fused arithmetic + grouped aggregation, then UNIQUE.
    let money = g.add(OpKind::ArithExtend { body: money_body() }, vec![sorted]);
    let agg = g.add(OpKind::Aggregate { aggs: q1_aggs() }, vec![money]);
    g.add(OpKind::Unique, vec![agg]);
    g
}

/// The plan inputs for a database: the seven lineitem column relations.
pub fn q1_inputs(db: &TpchDb) -> Vec<Relation> {
    Q1_COLUMNS.iter().map(|&c| db.lineitem_column(c)).collect()
}

/// Run Q1 on `system` under `strategy`.
pub fn run_q1(
    system: &GpuSystem,
    db: &TpchDb,
    strategy: Strategy,
) -> Result<ExecResult, CoreError> {
    let plan = q1_plan();
    let inputs = q1_inputs(db);
    kfusion_trace::set_scope("q1");
    let result = execute(system, &plan, &inputs, &ExecConfig::new(strategy, system));
    kfusion_trace::set_scope("");
    result
}

/// Ground truth computed directly from the table arrays (no relational
/// machinery): one row per (returnflag, linestatus) group, keyed by the
/// packed attribute, matching the plan output's schema.
pub fn reference_q1(db: &TpchDb) -> Relation {
    #[derive(Default)]
    struct Acc {
        qty: f64,
        price: f64,
        disc_price: f64,
        charge: f64,
        disc: f64,
        count: i64,
    }
    let li = &db.lineitem;
    let mut groups: BTreeMap<u64, Acc> = BTreeMap::new();
    for i in 0..li.len() {
        if li.shipdate[i] > Q1_CUTOFF_DAY {
            continue;
        }
        let key = pack_key2(li.returnflag[i] as u64, li.linestatus[i] as u64);
        let a = groups.entry(key).or_default();
        a.qty += li.quantity[i];
        a.price += li.extendedprice[i];
        a.disc_price += li.extendedprice[i] * (1.0 - li.discount[i]);
        a.charge += li.extendedprice[i] * (1.0 - li.discount[i]) * (1.0 + li.tax[i]);
        a.disc += li.discount[i];
        a.count += 1;
    }
    let mut key = Vec::new();
    let mut cols: Vec<Column> = vec![
        Column::F64(Vec::new()), // sum qty
        Column::F64(Vec::new()), // sum price
        Column::F64(Vec::new()), // sum disc_price
        Column::F64(Vec::new()), // sum charge
        Column::F64(Vec::new()), // avg qty
        Column::F64(Vec::new()), // avg price
        Column::F64(Vec::new()), // avg disc
        Column::I64(Vec::new()), // count
    ];
    for (k, a) in groups {
        key.push(k);
        let n = a.count as f64;
        let push_f = |c: &mut Column, v: f64| {
            if let Column::F64(vec) = c {
                vec.push(v);
            }
        };
        push_f(&mut cols[0], a.qty);
        push_f(&mut cols[1], a.price);
        push_f(&mut cols[2], a.disc_price);
        push_f(&mut cols[3], a.charge);
        push_f(&mut cols[4], a.qty / n);
        push_f(&mut cols[5], a.price / n);
        push_f(&mut cols[6], a.disc / n);
        if let Column::I64(vec) = &mut cols[7] {
            vec.push(a.count);
        }
    }
    Relation::new(key, cols).expect("rectangular by construction")
}

/// Compare a plan output against the reference with a floating-point
/// tolerance (summation order may differ in principle).
pub fn q1_matches_reference(out: &Relation, reference: &Relation, rel_tol: f64) -> bool {
    if out.keys() != reference.keys() || out.n_cols() != reference.n_cols() {
        return false;
    }
    for (a, b) in out.cols.iter().zip(&reference.cols) {
        match (a, b) {
            (Column::F64(x), Column::F64(y)) => {
                for (u, v) in x.iter().zip(y) {
                    let scale = v.abs().max(1.0);
                    if (u - v).abs() > rel_tol * scale {
                        return false;
                    }
                }
            }
            (Column::I64(x), Column::I64(y)) => {
                if x != y {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchConfig};
    use kfusion_core::fusion::fuse_plan;
    use kfusion_core::FusionBudget;
    use kfusion_ir::opt::OptLevel;

    fn db() -> TpchDb {
        generate(TpchConfig::scale(0.002))
    }

    #[test]
    fn q1_baseline_matches_reference() {
        let db = db();
        let sys = GpuSystem::c2070();
        let r = run_q1(&sys, &db, Strategy::Serial).unwrap();
        let expect = reference_q1(&db);
        assert!(
            q1_matches_reference(&r.output, &expect, 1e-9),
            "plan output disagrees with reference:\nplan keys {:?}\nref keys {:?}",
            r.output.keys(),
            expect.keys()
        );
    }

    #[test]
    fn q1_all_strategies_agree() {
        let db = db();
        let sys = GpuSystem::c2070();
        let expect = reference_q1(&db);
        for strat in [Strategy::Serial, Strategy::Fusion, Strategy::FusionFission { segments: 8 }] {
            let r = run_q1(&sys, &db, strat).unwrap();
            assert!(q1_matches_reference(&r.output, &expect, 1e-9), "strategy {strat:?} diverged");
        }
    }

    #[test]
    fn q1_fusion_structure_matches_paper() {
        // Fig. 17(a): joins+select fuse (one kernel), sort isolated,
        // arithmetic+aggregation fuse, unique isolated.
        let plan = q1_plan();
        let fused = fuse_plan(&plan, &FusionBudget { max_regs_per_thread: 63 }, OptLevel::O3);
        // Expect 4 groups: [CJ x6 + select + pack + rekey], [sort],
        // [money + aggregate], [unique].
        assert_eq!(fused.groups.len(), 4, "{:?}", fused.groups);
        assert_eq!(fused.groups[0].len(), 9);
        assert_eq!(fused.groups[1].len(), 1);
        assert_eq!(fused.groups[2].len(), 2);
        assert_eq!(fused.groups[3].len(), 1);
    }

    #[test]
    fn q1_fusion_speeds_up_and_fission_adds_a_little() {
        // Paper Fig. 18(a): fusion ≈1.25x; fission adds ~1%; SORT dominates.
        let db = generate(TpchConfig::scale(0.01));
        let sys = GpuSystem::c2070();
        let base = run_q1(&sys, &db, Strategy::Serial).unwrap().report.total();
        let fused = run_q1(&sys, &db, Strategy::Fusion).unwrap().report.total();
        let both =
            run_q1(&sys, &db, Strategy::FusionFission { segments: 8 }).unwrap().report.total();
        let fusion_speedup = base / fused;
        assert!((1.05..1.8).contains(&fusion_speedup), "fusion speedup {fusion_speedup}");
        // Fission's contribution to Q1 is tiny (paper: ~1%): the input
        // transfer is a sliver of a SORT-dominated query, and the fission
        // cost model only pipelines when the overlap beats the derated
        // async bandwidth. It must never make things worse.
        assert!(both <= fused * 1.0001, "fission must not hurt: {both} vs {fused}");
        assert!(both >= fused * 0.90, "fission gain should stay small on Q1");
    }

    #[test]
    fn q1_sort_dominates_baseline() {
        // Paper: SORT ≈ 71% of the unoptimized execution.
        let db = generate(TpchConfig::scale(0.01));
        let sys = GpuSystem::c2070();
        let r = run_q1(&sys, &db, Strategy::Serial).unwrap();
        let sort_time = r.report.label_time("sort");
        let share = sort_time / r.report.total();
        assert!((0.4..0.9).contains(&share), "sort share {share}");
    }

    #[test]
    fn reference_has_canonical_groups() {
        let expect = reference_q1(&db());
        assert!(expect.len() >= 3 && expect.len() <= 5);
        assert!(expect.is_key_sorted());
    }
}
