//! TPC-H Q6 and Q1 expressed in the SQL front end's subset, grounded
//! against the hand-built physical plans.
//!
//! The hand-built plans ([`crate::q6::q6_plan`], [`crate::q1::q1_plan`])
//! assemble their wide tables from per-column relations with ColumnJoins
//! and, for Q1, pack the group attributes into the key inside the plan. The
//! single-table SQL subset cannot express either join or rekey, so the SQL
//! route starts from the equivalent *pre-assembled* table:
//!
//! - Q6 reads the four-column wide table that the three ColumnJoins
//!   produce, keyed by row id.
//! - Q1 reads a five-column table keyed by the packed
//!   `returnflag << 16 | linestatus` attribute (what the plan's
//!   pack + REKEY computes), in original row order.
//!
//! From that point both routes filter the same rows in the same order, run
//! the same stable sorts, compute bit-identical arithmetic, and fold
//! aggregates in the same order — so the answers are required to match
//! **bit for bit**, not merely within tolerance. The tests here pin that,
//! which is what makes the SQL front end a trustworthy way to drive the
//! optimizer experiments.

use crate::gen::{TpchDb, Q1_CUTOFF_DAY};
use crate::q6::{DATE_HI, DATE_LO};
use kfusion_frontend::{Catalog, ColType, TableSchema};
/// Re-exported: callers compare served answers with it under this path.
pub use kfusion_relalg::bit_identical;
use kfusion_relalg::ops::pack_key2;
use kfusion_relalg::{Column, Relation};

/// Q6 in the SQL subset. BETWEEN desugars into the same closed interval
/// the hand-built plan's fused predicate checks.
pub fn q6_sql() -> String {
    format!(
        "SELECT SUM(extendedprice * discount) AS revenue, COUNT(*) FROM lineitem \
         WHERE shipdate >= {DATE_LO} AND shipdate < {DATE_HI} \
         AND discount BETWEEN 0.0499 AND 0.0701 AND quantity < 24"
    )
}

/// Q1 in the SQL subset. `GROUP BY KEY` stands in for
/// `GROUP BY l_returnflag, l_linestatus`: the table's key *is* the packed
/// pair, and the lowering's stable key sort reproduces the plan's SORT
/// barrier.
pub fn q1_sql() -> String {
    format!(
        "SELECT SUM(quantity), SUM(extendedprice), \
         SUM(extendedprice * (1 - discount)) AS disc_price, \
         SUM(extendedprice * (1 - discount) * (1 + tax)) AS charge, \
         AVG(quantity), AVG(extendedprice), AVG(discount), COUNT(*) \
         FROM lineitem WHERE shipdate <= {Q1_CUTOFF_DAY} GROUP BY KEY"
    )
}

/// Schema of [`q6_wide_table`]: the wide Q6 table.
pub fn q6_schema() -> TableSchema {
    TableSchema::new([
        ("shipdate", ColType::I64),
        ("quantity", ColType::F64),
        ("extendedprice", ColType::F64),
        ("discount", ColType::F64),
    ])
}

/// Schema of [`q1_packed_table`]: the packed-key Q1 table.
pub fn q1_schema() -> TableSchema {
    TableSchema::new([
        ("shipdate", ColType::I64),
        ("quantity", ColType::F64),
        ("extendedprice", ColType::F64),
        ("discount", ColType::F64),
        ("tax", ColType::F64),
    ])
}

/// Catalog for [`q6_sql`].
pub fn q6_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table("lineitem", q6_schema());
    c
}

/// Catalog for [`q1_sql`].
pub fn q1_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table("lineitem", q1_schema());
    c
}

/// The Q6 wide table: exactly what the hand-built plan's ColumnJoins
/// assemble from [`crate::q6::q6_inputs`] — keyed by row id, which stores
/// no key; columns `[shipdate, quantity, extendedprice, discount]`.
pub fn q6_wide_table(db: &TpchDb) -> Relation {
    let li = &db.lineitem;
    Relation::with_row_ids(vec![
        Column::I64(li.shipdate.clone()),
        Column::F64(li.quantity.clone()),
        Column::F64(li.extendedprice.clone()),
        Column::F64(li.discount.clone()),
    ])
    .expect("lineitem columns are rectangular")
}

/// The Q1 packed table: keys are `pack_key2(returnflag, linestatus)` (what
/// the plan's pack + REKEY computes), rows in original order, columns
/// `[shipdate, quantity, extendedprice, discount, tax]`.
pub fn q1_packed_table(db: &TpchDb) -> Relation {
    let li = &db.lineitem;
    let key = (0..li.len())
        .map(|i| pack_key2(li.returnflag[i] as u64, li.linestatus[i] as u64))
        .collect();
    Relation::new(
        key,
        vec![
            Column::I64(li.shipdate.clone()),
            Column::F64(li.quantity.clone()),
            Column::F64(li.extendedprice.clone()),
            Column::F64(li.discount.clone()),
            Column::F64(li.tax.clone()),
        ],
    )
    .expect("lineitem columns are rectangular")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchConfig};
    use crate::{q1, q6};
    use kfusion_core::exec::{execute, ExecConfig, Strategy};
    use kfusion_frontend::compile;
    use kfusion_vgpu::GpuSystem;

    fn db() -> TpchDb {
        generate(TpchConfig::scale(0.002))
    }

    #[test]
    fn sql_q6_matches_hand_built_plan_bit_for_bit() {
        let db = db();
        let sys = GpuSystem::c2070();
        let compiled = compile(&q6_sql(), &q6_catalog()).expect("Q6 SQL compiles");
        assert_eq!(compiled.output_names, vec!["revenue", "count"]);
        for strat in [Strategy::Serial, Strategy::Fusion, Strategy::FusionFission { segments: 4 }] {
            let cfg = ExecConfig::new(strat, &sys);
            let sql_out =
                execute(&sys, &compiled.plan, &[q6_wide_table(&db)], &cfg).unwrap().output;
            let hand = q6::run_q6(&sys, &db, strat).unwrap().output;
            assert!(
                bit_identical(&sql_out, &hand),
                "Q6 SQL route diverges from hand-built plan under {strat:?}"
            );
        }
        // And both agree with the imperative reference to tolerance.
        let cfg = ExecConfig::new(Strategy::Fusion, &sys);
        let out = execute(&sys, &compiled.plan, &[q6_wide_table(&db)], &cfg).unwrap().output;
        let (revenue, count) = q6::q6_answer(&out).expect("one-row answer");
        let (ref_rev, ref_count) = q6::reference_q6(&db);
        assert_eq!(count, ref_count);
        assert!((revenue - ref_rev).abs() <= 1e-9 * ref_rev.abs().max(1.0));
    }

    #[test]
    fn sql_q1_matches_hand_built_plan_bit_for_bit() {
        let db = db();
        let sys = GpuSystem::c2070();
        let compiled = compile(&q1_sql(), &q1_catalog()).expect("Q1 SQL compiles");
        assert_eq!(
            compiled.output_names,
            vec![
                "sum_quantity",
                "sum_extendedprice",
                "disc_price",
                "charge",
                "avg_quantity",
                "avg_extendedprice",
                "avg_discount",
                "count"
            ]
        );
        for strat in [Strategy::Serial, Strategy::Fusion, Strategy::FusionFission { segments: 8 }] {
            let cfg = ExecConfig::new(strat, &sys);
            let sql_out =
                execute(&sys, &compiled.plan, &[q1_packed_table(&db)], &cfg).unwrap().output;
            let hand = q1::run_q1(&sys, &db, strat).unwrap().output;
            assert!(
                bit_identical(&sql_out, &hand),
                "Q1 SQL route diverges from hand-built plan under {strat:?}\n\
                 sql keys {:?}\nhand keys {:?}",
                sql_out.keys(),
                hand.keys()
            );
        }
        // Also grounded against the imperative reference (tolerance).
        let cfg = ExecConfig::new(Strategy::Fusion, &sys);
        let out = execute(&sys, &compiled.plan, &[q1_packed_table(&db)], &cfg).unwrap().output;
        assert!(q1::q1_matches_reference(&out, &q1::reference_q1(&db), 1e-9));
    }

    /// The served Q6 table stores no key, and is bit for bit the table with
    /// its row numbers stored — the one `bit_identical` tells apart from a
    /// table one key off.
    #[test]
    fn a_table_keyed_by_row_id_is_bit_identical_to_its_row_numbers_stored() {
        let table = q6_wide_table(&db());
        assert!(table.keys().is_row_ids());
        let n = table.len() as u64;
        let stored = |keys: Vec<u64>| Relation::new(keys, table.cols.clone()).unwrap();
        assert!(bit_identical(&table, &stored((0..n).collect())));
        assert!(bit_identical(&stored((0..n).collect()), &table));
        assert!(!bit_identical(&table, &stored((1..=n).collect())));
    }

    #[test]
    fn packed_table_groups_match_reference_keys() {
        let db = db();
        let expect = q1::reference_q1(&db);
        let keys: std::collections::BTreeSet<u64> = q1_packed_table(&db).keys().iter().collect();
        // Reference groups only cover rows passing the date filter, so the
        // table's key set must be a superset.
        for k in expect.keys().iter() {
            assert!(keys.contains(&k), "group key {k} missing from packed table");
        }
    }

    /// Two Q6 variants merged into one batch share their `Input` leaf but
    /// not a kernel: the fusion pass makes one 7-node group per query, so
    /// each walks the table on its own. Horizontal fusion of sibling runs
    /// (ROADMAP item 8) would make them one group; this pins today's split.
    #[test]
    fn a_merged_q6_pair_is_two_groups_over_one_input() {
        use kfusion_core::fusion::fuse_plan;
        use kfusion_core::multiquery::merge_plans;
        use kfusion_core::FusionBudget;
        use kfusion_ir::opt::OptLevel;
        let plan = |sql: &str| compile(sql, &q6_catalog()).expect("Q6 SQL compiles").plan;
        let variant = q6_sql().replace("quantity < 24", "quantity < 25");
        let merged = merge_plans(&[plan(&q6_sql()), plan(&variant)]);
        assert_eq!(merged.graph.inputs().count(), 1, "one shared input leaf");
        let fused =
            fuse_plan(&merged.graph, &FusionBudget { max_regs_per_thread: 63 }, OptLevel::O3);
        assert_eq!(fused.groups.iter().map(Vec::len).collect::<Vec<_>>(), [7, 7]);
        for (group, &root) in fused.groups.iter().zip(&merged.roots) {
            assert_eq!(group.last(), Some(&root), "a group per query, ending in its root");
        }
    }
}
