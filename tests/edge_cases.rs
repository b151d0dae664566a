//! Edge cases and failure injection across the whole stack: empty inputs,
//! all-or-nothing selectivities, runtime errors surfacing cleanly, and
//! degenerate configurations.

use kfusion::core::exec::{execute, execute_prepared, prepare_fusion, ExecConfig, Strategy};
use kfusion::core::microbench::{run_with_cards, DataMode, SelectChain};
use kfusion::core::{CoreError, OpKind, PlanGraph};
use kfusion::relalg::ops::{Agg, SortBy};
use kfusion::relalg::{gen, predicates, Column, Relation};
use kfusion::server::{QueryService, QueryTicket, RecordOutcome, ServerConfig, ServerError};
use kfusion::vgpu::GpuSystem;

fn sys() -> GpuSystem {
    GpuSystem::c2070()
}

#[test]
fn empty_input_flows_through_every_strategy() {
    let mut g = PlanGraph::new();
    let i = g.input(0);
    let s = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
    let srt = g.add(OpKind::Sort { by: SortBy::Key }, vec![s]);
    g.add(OpKind::Unique, vec![srt]);
    let empty = Relation::from_keys(vec![]);
    for strat in [
        Strategy::Serial,
        Strategy::SerialRoundTrip,
        Strategy::Fusion,
        Strategy::FusionFission { segments: 4 },
    ] {
        let r = execute(&sys(), &g, std::slice::from_ref(&empty), &ExecConfig::new(strat, &sys()))
            .unwrap_or_else(|e| panic!("{strat:?} failed on empty input: {e}"));
        assert!(r.output.is_empty());
        assert!(r.report.total() >= 0.0);
    }
}

#[test]
fn zero_and_full_selectivity_chains() {
    let s = sys();
    for sel in [0.0, 1.0] {
        let mut chain = SelectChain::auto(100_000, &[sel, sel]);
        chain.mode = DataMode::Real;
        let cards = chain.cardinalities().unwrap();
        if sel == 0.0 {
            assert_eq!(cards[1], 0);
            assert_eq!(cards[2], 0);
        } else {
            assert_eq!(cards[2], 100_000);
        }
        for strat in [
            Strategy::SerialRoundTrip,
            Strategy::Serial,
            Strategy::Fusion,
            Strategy::Fission { segments: 4 },
        ] {
            let r = run_with_cards(&s, &chain, strat, &cards)
                .unwrap_or_else(|e| panic!("{strat:?} at sel {sel}: {e}"));
            assert!(r.total() > 0.0, "{strat:?} at sel {sel}");
        }
    }
}

#[test]
fn runtime_operator_errors_surface_as_core_errors() {
    // Aggregate over unsorted keys: the relational layer rejects it and the
    // executor must propagate, not panic.
    let mut g = PlanGraph::new();
    let i = g.input(0);
    g.add(OpKind::Aggregate { aggs: vec![Agg::Count] }, vec![i]);
    let unsorted = Relation::from_keys(vec![5, 1, 3]);
    let r = execute(
        &sys(),
        &g,
        std::slice::from_ref(&unsorted),
        &ExecConfig::new(Strategy::Serial, &sys()),
    );
    assert!(matches!(r, Err(CoreError::Rel(_))), "{r:?}");
}

#[test]
fn missing_column_in_predicate_surfaces() {
    // Predicate reads column 3 of a keys-only relation.
    let mut g = PlanGraph::new();
    let i = g.input(0);
    g.add(OpKind::Select { pred: predicates::col_cmp_i64(3, kfusion::ir::CmpOp::Lt, 5) }, vec![i]);
    let keys_only = gen::random_keys(100, 1);
    let r = execute(
        &sys(),
        &g,
        std::slice::from_ref(&keys_only),
        &ExecConfig::new(Strategy::Serial, &sys()),
    );
    assert!(matches!(r, Err(CoreError::Rel(_))), "{r:?}");
}

#[test]
fn single_row_relation_through_tpch_style_plan() {
    let mut g = PlanGraph::new();
    let a = g.input(0);
    let b = g.input(1);
    let j = g.add(OpKind::ColumnJoin, vec![a, b]);
    let s = g.add(OpKind::Select { pred: predicates::key_lt(100) }, vec![j]);
    let srt = g.add(OpKind::Sort { by: SortBy::Key }, vec![s]);
    g.add(OpKind::Aggregate { aggs: vec![Agg::Sum(0), Agg::Count] }, vec![srt]);
    let one_a = Relation::new(vec![7], vec![Column::I64(vec![42])]).unwrap();
    let one_b = Relation::new(vec![7], vec![Column::I64(vec![8])]).unwrap();
    let r =
        execute(&sys(), &g, &[one_a, one_b], &ExecConfig::new(Strategy::Fusion, &sys())).unwrap();
    assert_eq!(*r.output.keys(), vec![7]);
    assert_eq!(r.output.cols[0].as_i64().unwrap(), &[42]);
    assert_eq!(r.output.cols[1].as_i64().unwrap(), &[1]);
}

#[test]
fn many_segment_fission_on_small_input_stays_correct() {
    // More segments than make sense for the data: the profitability check
    // declines the pipeline, the answer is unchanged.
    let mut g = PlanGraph::new();
    let i = g.input(0);
    g.add(OpKind::Select { pred: predicates::key_lt(1 << 31) }, vec![i]);
    let input = gen::random_keys(1000, 2);
    let s = sys();
    let serial =
        execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Serial, &s))
            .unwrap();
    let fission = execute(
        &s,
        &g,
        std::slice::from_ref(&input),
        &ExecConfig::new(Strategy::FusionFission { segments: 256 }, &s),
    )
    .unwrap();
    assert_eq!(serial.output, fission.output);
}

#[test]
fn degenerate_device_configs_do_not_break_simulation() {
    // One copy engine, tiny memory, minimal SM count.
    let mut s = sys();
    s.spec.copy_engines = 1;
    s.spec.sm_count = 1;
    s.spec.mem_capacity = 1 << 22;
    let chain = SelectChain::auto(100_000, &[0.5]);
    let cards = chain.cardinalities().unwrap();
    for strat in [Strategy::SerialRoundTrip, Strategy::Fusion, Strategy::Fission { segments: 3 }] {
        let r = run_with_cards(&s, &chain, strat, &cards).unwrap();
        assert!(r.total().is_finite() && r.total() > 0.0);
    }
}

#[test]
fn deep_chain_with_tiny_register_budget_still_correct() {
    let s = sys();
    let mut cfg = ExecConfig::new(Strategy::Fusion, &s);
    cfg.budget = kfusion::core::FusionBudget { max_regs_per_thread: 1 };
    let mut g = PlanGraph::new();
    let mut cur = g.input(0);
    for k in 0..6u64 {
        cur = g.add(OpKind::Select { pred: predicates::key_lt(u64::MAX / (k + 2)) }, vec![cur]);
    }
    let input = gen::random_keys(50_000, 3);
    let fused = execute(&s, &g, std::slice::from_ref(&input), &cfg).unwrap();
    let serial =
        execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Serial, &s))
            .unwrap();
    assert_eq!(fused.output, serial.output);
    // Under a 1-register budget nothing multi-member can form.
    assert_eq!(fused.fusion.fused_group_count(), 0);
}

/// A prepared fusion plan steers how the functional phase computes the
/// answer (which intermediates stay views), so one prepared for another
/// graph — what a plan-cache key collision would hand the executor — must
/// cost time at most: the right answer or a `CoreError`, never a wrong
/// answer or a panic.
#[test]
fn foreign_prepared_plan_never_changes_the_answer() {
    let s = sys();
    let chain = |depth: u64| {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for k in 0..depth {
            cur = g.add(OpKind::Select { pred: predicates::key_lt(900 - 100 * k) }, vec![cur]);
        }
        g
    };
    let mut wide = PlanGraph::new();
    let (a, b) = (wide.input(0), wide.input(0));
    let j = wide.add(OpKind::ColumnJoin, vec![a, b]);
    wide.add(OpKind::AggregateAll { aggs: vec![Agg::Count] }, vec![j]);
    let input = Relation::from_keys((0..1000).collect());
    let target = chain(3);
    for strat in [Strategy::Serial, Strategy::Fusion, Strategy::FusionFission { segments: 4 }] {
        let cfg = ExecConfig::new(strat, &s);
        let want = execute(&s, &target, std::slice::from_ref(&input), &cfg).unwrap();
        let own = prepare_fusion(&target, &cfg).unwrap();
        // As many nodes as `target` but inputs where it has operators; fewer
        // nodes; more nodes; a group naming a node `target` lacks; and a
        // partition of `target` this strategy would not have chosen.
        let mut foreign: Vec<_> =
            [&wide, &chain(1), &chain(5)].map(|g| prepare_fusion(g, &cfg).unwrap()).into();
        foreign.push(own.clone());
        foreign[3].groups.push(vec![target.len() + 7]);
        foreign.push(own.clone());
        foreign[4].groups = vec![vec![1, 2, 3]];
        foreign[4].group_of = vec![None, Some(0), Some(0), Some(0)];
        for plan in &foreign {
            match execute_prepared(&s, &target, std::slice::from_ref(&input), &cfg, plan) {
                Ok(got) => {
                    assert_eq!(got.output, want.output, "{strat:?} {plan:?}");
                    assert_eq!(got.cards, want.cards, "{strat:?} {plan:?}");
                }
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
    }
}

/// JOIN needs key-sorted inputs and REKEY destroys key order: structurally
/// the plan is fine (`PlanGraph::validate` accepts it), so only the static
/// checker stands between it and a merge join over unsorted keys.
fn join_over_unsorted_rekey() -> (PlanGraph, Vec<Relation>) {
    let mut g = PlanGraph::new();
    let (a, b) = (g.input(0), g.input(1));
    let rk = g.add(OpKind::Rekey { col: 0 }, vec![a]);
    g.add(OpKind::Join, vec![rk, b]);
    assert!(g.validate().is_ok());
    let left = Relation::new(vec![0, 1, 2, 3], vec![Column::I64(vec![3, 1, 2, 0])]).unwrap();
    (g, vec![left, Relation::from_keys(vec![0, 1, 2, 3])])
}

#[test]
fn executor_rejects_an_illegal_plan_with_the_checkers_error() {
    let (g, inputs) = join_over_unsorted_rekey();
    for strat in [
        Strategy::Serial,
        Strategy::SerialRoundTrip,
        Strategy::Fusion,
        Strategy::Fission { segments: 4 },
        Strategy::FusionFission { segments: 4 },
    ] {
        let r = execute(&sys(), &g, &inputs, &ExecConfig::new(strat, &sys()));
        assert!(matches!(r, Err(CoreError::Check(_))), "{strat:?}: {r:?}");
    }
}

#[test]
fn service_fails_an_illegal_plan_and_keeps_its_worker() {
    let (bad, tables) = join_over_unsorted_rekey();
    let mut good = PlanGraph::new();
    let i = good.input(1);
    good.add(OpKind::Select { pred: predicates::key_lt(2) }, vec![i]);
    let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &sys()));
    cfg.workers = 1;
    let (rejected, served, stats) = QueryService::serve(&sys(), &tables, &cfg, |c| {
        // One worker: the second query is answered only if the first left
        // it alive.
        let rejected = c.query(bad);
        (rejected, c.query(good), c.server_stats())
    });
    match rejected {
        Err(ServerError::Exec(msg)) => assert!(msg.contains("static checker"), "{msg}"),
        other => panic!("expected the checker's rejection, got {other:?}"),
    }
    assert_eq!(served.unwrap().output, Relation::from_keys(vec![0, 1]));
    assert_eq!((stats.submitted, stats.failed, stats.completed), (2, 1, 1));
    let outcomes: Vec<_> = stats.recent.iter().map(|r| r.outcome).collect();
    assert_eq!(outcomes, [RecordOutcome::Failed, RecordOutcome::Completed]);
}

/// Plans arrive from clients unchecked, and the service splices every group
/// — a lone query too — through `merge_plans`. A plan it cannot splice (no
/// nodes, a wrong arity, a forward edge, a root outside the graph) fails
/// with an error reply; it neither panics the worker nor sinks the
/// batch-mate it shares a scan with.
#[test]
fn service_fails_a_malformed_plan_and_keeps_its_worker() {
    let good = || {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        g.add(OpKind::Select { pred: predicates::key_lt(2) }, vec![i]);
        g
    };
    // Built past `PlanGraph::add`'s asserts, as a deserialized plan can be.
    let mut arity = good();
    arity.nodes[1].inputs.push(0);
    let mut forward = good();
    forward.nodes[1].inputs = vec![1];
    let mut rootless = good();
    rootless.root = 2;
    let malformed = [PlanGraph::new(), arity, forward, rootless];
    let tables = [Relation::from_keys(vec![0, 1, 2, 3])];
    let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &sys()));
    cfg.workers = 1;
    cfg.window = std::time::Duration::from_millis(200);
    cfg.max_batch = 8;
    // Bounded waits: a dead worker fails the test instead of hanging it.
    let wait = |t: QueryTicket| t.wait_timeout(std::time::Duration::from_secs(30));
    let (rejected, mate, after, stats) = QueryService::serve(&sys(), &tables, &cfg, |c| {
        // One window: the four malformed plans and a good one that scans the
        // same table. Then, on the one worker, a second good query.
        let tickets: Vec<_> = malformed.into_iter().map(|g| c.submit(g).unwrap()).collect();
        let mate = c.submit(good()).unwrap();
        let rejected: Vec<_> = tickets.into_iter().map(wait).collect();
        (rejected, wait(mate), wait(c.submit(good()).unwrap()), c.server_stats())
    });
    for r in rejected {
        match r {
            Err(ServerError::Exec(msg)) => assert!(msg.contains("invalid plan graph"), "{msg}"),
            other => panic!("expected a malformed-plan error, got {other:?}"),
        }
    }
    let mate = mate.expect("the batch-mate still runs");
    assert_eq!(mate.batch_size, 1, "only the well-formed member executes");
    for served in [mate, after.expect("the worker survives")] {
        assert_eq!(served.output, Relation::from_keys(vec![0, 1]));
    }
    assert_eq!((stats.submitted, stats.failed, stats.completed), (6, 4, 2));
}

/// A plan whose root is not one of its nodes is an error from `execute`,
/// under the unfused and the fused strategies alike — not an index panic
/// before the executor's per-node boundary.
#[test]
fn execute_rejects_a_plan_whose_root_is_not_a_node() {
    let mut g = PlanGraph::new();
    let i = g.input(0);
    g.add(OpKind::Select { pred: predicates::key_lt(2) }, vec![i]);
    g.root = 7;
    let input = Relation::from_keys(vec![0, 1, 2, 3]);
    for strat in [Strategy::Serial, Strategy::Fusion] {
        let cfg = ExecConfig::new(strat, &sys());
        match execute(&sys(), &g, std::slice::from_ref(&input), &cfg) {
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("root 7 is not one of its 2 nodes"), "{strat:?}: {msg}");
            }
            Ok(_) => panic!("{strat:?} executed a plan rooted outside itself"),
        }
    }
}

/// A `serve` closure that panics shuts the service down and re-raises the
/// panic; it used to leave admission and the workers waiting on an open
/// queue, so `serve` never returned. A watchdog bounds the wait, so a hang
/// fails the test instead of hanging it.
#[test]
fn a_panicking_serve_closure_shuts_the_service_down() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let tables = [Relation::from_keys(vec![0, 1, 2, 3])];
        let cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &sys()));
        let served = std::panic::catch_unwind(|| {
            QueryService::serve(&sys(), &tables, &cfg, |_| panic!("client gave up"))
        });
        let _ = done.send(served.is_err());
    });
    match finished.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(panicked) => assert!(panicked, "the closure's panic reaches the caller"),
        Err(_) => panic!("serve did not return within 30 s of its closure panicking"),
    }
}

/// One name per operator: the lint line that blames a fused group's members
/// and the EXPLAIN tree of the same plan spell every node as
/// `OpKind::name()` does — `ARITH+`, `COLJOIN`, `AGGREGATE*` included, which
/// `kfusion-lint` used to call `ARITH-EXTEND`, `COLUMN-JOIN`, `AGGREGATE-ALL`.
#[test]
fn a_lint_line_and_an_explain_label_name_a_node_the_same_way() {
    use kfusion::check::lint::lint_fusion;
    use kfusion::core::FusionBudget;

    let mut g = PlanGraph::new();
    let (a, b) = (g.input(0), g.input(1));
    let wide = g.add(OpKind::ColumnJoin, vec![a, b]);
    let priced =
        g.add(OpKind::ArithExtend { body: predicates::discounted_price(0, 1) }, vec![wide]);
    g.add(OpKind::AggregateAll { aggs: vec![Agg::Count] }, vec![priced]);
    let column = |v: f64| Relation::new(vec![1, 2, 3], vec![Column::F64(vec![v; 3])]).unwrap();

    let s = sys();
    let cfg = ExecConfig::new(Strategy::Fusion, &s);
    let run = execute(&s, &g, &[column(10.0), column(0.1)], &cfg).unwrap();
    assert_eq!(run.fusion.groups, vec![vec![2, 3, 4]], "one fused group");
    let explain = run.explain.render();

    let starved = FusionBudget { max_regs_per_thread: 1 };
    let lints = lint_fusion(&g, &run.fusion, &starved, cfg.level);
    let blamed = lints.iter().find(|l| l.id == "over-budget-group").expect("over budget");
    for &m in &run.fusion.groups[0] {
        let name = g.nodes[m].kind.name();
        assert!(blamed.notes[0].contains(&format!("n{m}:{name}")), "{:?}", blamed.notes);
        assert!(explain.contains(&format!("{}#{m}", name.to_lowercase())), "{explain}");
    }
}

/// The executor's panic boundary: a node whose evaluation panics fails the
/// query with `CoreError::Internal` naming the node, in a wave of one node
/// and in a wave of many alike, and the threads that ran it serve on.
#[test]
fn a_panicking_node_fails_its_query_not_its_thread() {
    // A payload column shorter than the keys, which `Relation::new` would
    // refuse: reading its missing rows panics inside the operator.
    let mut ragged = gen::sorted_table(200_000, 1, 7);
    if let Column::I64(c) = &mut ragged.cols[0] {
        c.truncate(10);
    }
    let select = || OpKind::Select { pred: predicates::col_cmp_i64(0, kfusion::ir::CmpOp::Lt, 5) };
    let mut alone = PlanGraph::new();
    let i = alone.input(0);
    alone.add(select(), vec![i]);
    let mut siblings = PlanGraph::new();
    let i = siblings.input(0);
    let (a, b) = (siblings.add(select(), vec![i]), siblings.add(select(), vec![i]));
    siblings.add(OpKind::Join, vec![a, b]);
    let spawned = kfusion::vgpu::exec::threads_spawned();
    for (g, node) in [(&alone, 1), (&siblings, 1)] {
        for strat in [Strategy::Serial, Strategy::FusionFission { segments: 8 }] {
            let cfg = ExecConfig::new(strat, &sys());
            match execute(&sys(), g, std::slice::from_ref(&ragged), &cfg) {
                Err(CoreError::Internal(msg)) => {
                    assert!(msg.starts_with(&format!("select#{node} panicked: ")), "{msg}")
                }
                other => panic!("{strat:?}: expected an internal error, got {other:?}"),
            }
        }
    }
    let sound = gen::sorted_table(200_000, 1, 7);
    let r = execute(&sys(), &siblings, &[sound], &ExecConfig::new(Strategy::Serial, &sys()));
    assert!(r.is_ok(), "{r:?}");
    let pool = kfusion::vgpu::exec::workers() - 1;
    assert!(spawned == 0 || spawned == pool);
    assert_eq!(kfusion::vgpu::exec::threads_spawned(), pool, "no pool thread was lost");
}
