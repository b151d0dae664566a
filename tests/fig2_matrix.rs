//! The Fig. 2 fusion-legality matrix and the paper's §III-C dependence
//! rules, asserted end-to-end through the fusion pass.

use kfusion::core::deps::Dep;
use kfusion::core::fusion::fuse_plan;
use kfusion::core::{patterns, FusionBudget, OpKind, PlanGraph};
use kfusion::ir::opt::OptLevel;
use kfusion::relalg::ops::SortBy;
use kfusion::relalg::predicates;

fn budget() -> FusionBudget {
    FusionBudget { max_regs_per_thread: 63 }
}

#[test]
fn all_fig2_patterns_fuse_into_one_kernel() {
    for (name, g) in patterns::all() {
        let plan = fuse_plan(&g, &budget(), OptLevel::O3);
        assert_eq!(plan.groups.len(), 1, "{name} did not fully fuse: {:?}", plan.groups);
    }
}

#[test]
fn join_join_fuses_but_sort_join_does_not() {
    // §III-C's explicit example: "JOIN-JOIN can be fused, but SORT-JOIN
    // cannot. In the latter case, the SORT must be completed before the
    // JOIN can be performed."
    let mut g = PlanGraph::new();
    let a = g.input(0);
    let b = g.input(1);
    let c = g.input(2);
    let j1 = g.add(OpKind::ColumnJoin, vec![a, b]);
    let j2 = g.add(OpKind::ColumnJoin, vec![j1, c]);
    let plan = fuse_plan(&g, &budget(), OptLevel::O3);
    assert_eq!(plan.group_of[j1], plan.group_of[j2], "JOIN-JOIN fuses");

    let mut g = PlanGraph::new();
    let a = g.input(0);
    let b = g.input(1);
    let s = g.add(OpKind::Sort { by: SortBy::Key }, vec![a]);
    let j = g.add(OpKind::Join, vec![s, b]);
    let plan = fuse_plan(&g, &budget(), OptLevel::O3);
    assert_ne!(plan.group_of[s], plan.group_of[j], "SORT-JOIN must not fuse");
    // Fusable, yet not segmentable for fission: a boundary can split a key group.
    assert_eq!(OpKind::Join.traits().dep, Dep::Fusable);
}

#[test]
fn sort_and_unique_fuse_with_nothing() {
    // "In particular, SORT and UNIQUE cannot be fused with any other
    // operators."
    for barrier in [OpKind::Sort { by: SortBy::Key }, OpKind::Unique] {
        assert_eq!(barrier.traits().dep, Dep::Barrier);
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let pre = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let bar = g.add(barrier.clone(), vec![pre]);
        let post = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![bar]);
        let plan = fuse_plan(&g, &budget(), OptLevel::O3);
        let bar_group = plan.group_of[bar].unwrap();
        assert_eq!(plan.groups[bar_group].len(), 1, "{} fused!", barrier.name());
        assert_ne!(plan.group_of[pre], plan.group_of[bar]);
        assert_ne!(plan.group_of[post], plan.group_of[bar]);
    }
}

#[test]
fn chains_of_patterns_compose() {
    // "The above patterns can be further combined to form larger patterns
    // that can be fused. For example, (e) can generate the input of (h)."
    let mut g = PlanGraph::new();
    let a = g.input(0);
    let b = g.input(1);
    // (e): JOIN -> ARITH
    let j = g.add(OpKind::ColumnJoin, vec![a, b]);
    let ar = g.add(OpKind::ArithExtend { body: predicates::discounted_price(0, 1) }, vec![j]);
    // (h): ARITH -> PROJECT (keep only the computed column)
    let pr = g.add(OpKind::Project { keep: vec![2] }, vec![ar]);
    let plan = fuse_plan(&g, &budget(), OptLevel::O3);
    assert_eq!(plan.groups.len(), 1, "(e)+(h) should fuse end to end");
    assert_eq!(plan.groups[0], vec![j, ar, pr]);
}

#[test]
fn register_budget_is_respected_exactly() {
    use kfusion::core::cost::group_regs;
    let mut g = PlanGraph::new();
    let mut cur = g.input(0);
    let mut nodes = Vec::new();
    for k in 0..10 {
        cur = g.add(OpKind::Select { pred: predicates::key_lt(50 + k) }, vec![cur]);
        nodes.push(cur);
    }
    for max_regs in [16u32, 20, 24, 32, 63] {
        let plan = fuse_plan(&g, &FusionBudget { max_regs_per_thread: max_regs }, OptLevel::O3);
        for group in &plan.groups {
            let regs = group_regs(&g, group, OptLevel::O3);
            // Multi-member groups must respect the budget (singleton groups
            // may exceed it: one kernel cannot be split further by fusion).
            if group.len() > 1 {
                assert!(regs <= max_regs, "group {group:?} uses {regs} regs > budget {max_regs}");
            }
        }
    }
}
