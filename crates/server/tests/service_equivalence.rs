//! Service-batched TPC-H equivalence: Q1 and Q6 submitted concurrently
//! must batch (they share lineitem scans), execute as one cross-query-fused
//! dispatch, and return outputs bit-for-bit identical to standalone runs.
//! A query served alone is a batch of one and must be a standalone run
//! exactly — answer and simulated time to the bit.
//!
//! The table registry is Q1's seven lineitem columns; Q6's four inputs are
//! exactly the first four of those (shipdate, quantity, extendedprice,
//! discount), so both plans index the same registry and the admission
//! grouper sees the overlap.

use kfusion_core::exec::{execute, ExecConfig, Strategy};
use kfusion_core::graph::{OpKind, PlanGraph};
use kfusion_relalg::{predicates, Relation};
use kfusion_server::{
    HostStage, QueryOutcome, QueryService, RecordOutcome, ServerConfig, ServerError, TableRegistry,
};
use kfusion_tpch::gen::{generate, TpchConfig};
use kfusion_tpch::q1::{q1_inputs, q1_plan};
use kfusion_tpch::q21::{q21_inputs, q21_plan};
use kfusion_tpch::q6::q6_plan;
use kfusion_tpch::sql::{bit_identical, q6_schema, q6_sql, q6_wide_table};
use kfusion_vgpu::GpuSystem;
use std::time::Duration;

#[test]
fn batched_q1_q6_are_bit_for_bit_standalone() {
    let system = GpuSystem::c2070();
    let db = generate(TpchConfig::scale(0.01));
    let tables = q1_inputs(&db);
    let exec_cfg = ExecConfig::new(Strategy::Fusion, &system);

    // Standalone ground truth over the same registry.
    let q1_alone = execute(&system, &q1_plan(), &tables, &exec_cfg).unwrap();
    let q6_alone = execute(&system, &q6_plan(), &tables, &exec_cfg).unwrap();

    let mut cfg = ServerConfig::new(exec_cfg);
    // A wide-open window and a single worker force both queries into one
    // admission window — the grouping itself is what's under test.
    cfg.window = Duration::from_millis(300);
    cfg.workers = 1;
    let (q1_served, q6_served, stats) = QueryService::serve(&system, &tables, &cfg, |c| {
        let t1 = c.submit(q1_plan()).unwrap();
        let t6 = c.submit(q6_plan()).unwrap();
        (t1.wait().unwrap(), t6.wait().unwrap(), c.cache_stats())
    });

    assert_eq!(q1_served.batch_size, 2, "Q1 and Q6 share scans; they must co-dispatch");
    assert_eq!(q6_served.batch_size, 2);
    assert_eq!(q1_served.output, q1_alone.output, "Q1 bit-for-bit");
    assert_eq!(q6_served.output, q6_alone.output, "Q6 bit-for-bit");
    assert_eq!(stats.entries, 1, "one merged-batch shape compiled: {stats:?}");

    // The batch shares the four overlapping column uploads, so its
    // simulated time undercuts the standalone sum.
    let separate = q1_alone.report.total() + q6_alone.report.total();
    assert!(
        q1_served.sim_batch_total < separate,
        "batch {} vs separate {separate}",
        q1_served.sim_batch_total
    );
}

#[test]
fn repeated_q6_submissions_hit_the_plan_cache_with_identical_answers() {
    let system = GpuSystem::c2070();
    let db = generate(TpchConfig::scale(0.01));
    let tables = q1_inputs(&db);
    let exec_cfg = ExecConfig::new(Strategy::Fusion, &system);
    let alone = execute(&system, &q6_plan(), &tables, &exec_cfg).unwrap();

    // Short window so each submission dispatches alone: every repeat takes
    // the single-query path and must hit the cache after the first.
    let mut cfg = ServerConfig::new(exec_cfg);
    cfg.window = Duration::from_millis(1);
    cfg.max_batch = 1;
    let stats = QueryService::serve(&system, &tables, &cfg, |c| {
        for _ in 0..4 {
            let out = c.query(q6_plan()).unwrap();
            assert_eq!(out.output, alone.output);
        }
        c.cache_stats()
    });
    assert_eq!(stats.entries, 1, "{stats:?}");
    assert!(stats.hits >= 3, "{stats:?}");
}

/// A lone query's outcome against a standalone `execute` of its plan: one
/// member, the answer bit for bit, and the dispatch's simulated total equal
/// to the standalone run's to the bit.
fn assert_standalone(what: &str, served: &QueryOutcome, plan: &PlanGraph, tables: &[Relation]) {
    let system = GpuSystem::c2070();
    let alone =
        execute(&system, plan, tables, &ExecConfig::new(Strategy::Fusion, &system)).unwrap();
    assert_eq!(served.batch_size, 1, "{what} was served alone");
    assert_eq!(served.record.batch_size, 1, "{what}");
    assert!(bit_identical(&served.output, &alone.output), "{what}: answer differs");
    assert_eq!(
        served.sim_batch_total.to_bits(),
        alone.report.total().to_bits(),
        "{what}: sim {} vs standalone {}",
        served.sim_batch_total,
        alone.report.total()
    );
}

#[test]
fn a_lone_query_is_a_standalone_run_to_the_bit() {
    let system = GpuSystem::c2070();
    let db = generate(TpchConfig::scale(0.01));
    let cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &system));
    let serve_alone = |plan: &PlanGraph, tables: &[Relation]| {
        QueryService::serve(&system, tables, &cfg, |c| c.query(plan.clone()).unwrap())
    };
    let lineitem = q1_inputs(&db);
    for (what, plan) in [("Q1", q1_plan()), ("Q6", q6_plan())] {
        assert_standalone(what, &serve_alone(&plan, &lineitem), &plan, &lineitem);
    }
    let (q21, q21_tables) = (q21_plan(20), q21_inputs(&db));
    assert_standalone("Q21", &serve_alone(&q21, &q21_tables), &q21, &q21_tables);

    let mut registry = TableRegistry::new();
    registry.add_table("lineitem", q6_schema(), q6_wide_table(&db)).unwrap();
    let compiled = registry.compile(&q6_sql()).unwrap();
    let (_, served) =
        QueryService::serve_catalog(&system, &registry, &cfg, |c| c.query_sql(&q6_sql()).unwrap());
    assert_standalone("SQL Q6", &served, &compiled.plan, registry.tables());
}

#[test]
fn a_failed_execution_keeps_its_cache_decision_and_execute_time() {
    // Both queries read slot 1, which the service does not have: the
    // merged plan compiles (and is cached), then fails to execute. The
    // second window's identical batch must hit the cache and say so.
    let system = GpuSystem::c2070();
    let tables = [Relation::from_keys(vec![1, 2, 3])];
    let query = |t: u64| {
        let mut g = PlanGraph::new();
        let i = g.input(1);
        g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![i]);
        g
    };
    let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &system));
    cfg.window = Duration::from_millis(200);
    cfg.workers = 1;
    let stats = QueryService::serve(&system, &tables, &cfg, |c| {
        for _ in 0..2 {
            let (a, b) = (c.submit(query(10)).unwrap(), c.submit(query(20)).unwrap());
            for t in [a, b] {
                assert!(matches!(t.wait(), Err(ServerError::Exec(m)) if m.contains("missing")));
            }
        }
        c.server_stats()
    });
    let windows: Vec<_> =
        stats.recent.iter().map(|r| (r.outcome, r.batch_size, r.cache_hit)).collect();
    let (miss, hit) = ((RecordOutcome::Failed, 2, false), (RecordOutcome::Failed, 2, true));
    assert_eq!(windows, [miss, miss, hit, hit]);
    for r in &stats.recent {
        assert!(r.host_stage(HostStage::Execute) > 0.0, "{r:?}");
    }
}
