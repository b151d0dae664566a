//! The kernel fusion pass: partition a plan DAG into fused kernel groups.
//!
//! Mirrors §III-C of the paper: data-dependence analysis finds candidate
//! kernels (elementwise producers/consumers fuse; SORT/UNIQUE are
//! barriers), a cost function bounds group growth by register pressure, and
//! the multi-stage structure makes code generation mechanical — one
//! partition stage, the members' compute stages interleaved in topological
//! order, one buffer + gather stage.
//!
//! The pass is greedy over the topologically-ordered nodes and supports
//! *group merging*, which the Fig. 2(f) pattern requires (a JOIN fusing
//! with both of its SELECT producers pulls two existing groups into one).

use crate::cost::{group_regs, FusionBudget};
use crate::deps::Dep;
use crate::graph::{NodeId, PlanGraph};
use kfusion_ir::opt::OptLevel;

/// The result of the fusion pass.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    /// `group_of[node]` — the group containing each node (`None` for plan
    /// inputs).
    pub group_of: Vec<Option<usize>>,
    /// Groups in execution order; each is a topologically-ordered member
    /// list. A group of one barrier node is a "group" that simply runs its
    /// own kernels.
    pub groups: Vec<Vec<NodeId>>,
}

impl FusionPlan {
    /// Number of fused kernels (groups with ≥ 2 members).
    pub fn fused_group_count(&self) -> usize {
        self.groups.iter().filter(|g| g.len() > 1).count()
    }

    /// The largest group size.
    pub fn max_group_len(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether this plan is a partition of `graph`'s operators: every
    /// non-input node is a member of exactly the group `group_of` names,
    /// inputs belong to none, and no group is empty or names a node the
    /// graph lacks. The executor indexes both tables by node id, so a plan
    /// prepared for a different graph must fail here rather than there.
    pub fn covers(&self, graph: &PlanGraph) -> bool {
        let members: usize = self.groups.iter().map(Vec::len).sum();
        self.group_of.len() == graph.len()
            && graph.nodes.iter().zip(&self.group_of).all(|(n, g)| n.kind.is_input() == g.is_none())
            && members == self.group_of.iter().flatten().count()
            && self.groups.iter().enumerate().all(|(g, group)| {
                !group.is_empty()
                    && group.windows(2).all(|w| w[0] < w[1])
                    && group.iter().all(|&m| self.group_of.get(m) == Some(&Some(g)))
            })
    }
}

#[derive(Debug)]
struct GroupState {
    members: Vec<NodeId>,
    open: bool,
    /// After a merge, points at the surviving group.
    merged_into: Option<usize>,
}

fn resolve(groups: &[GroupState], mut g: usize) -> usize {
    while let Some(next) = groups[g].merged_into {
        g = next;
    }
    g
}

/// Run the fusion pass on `graph` under `budget`, with member bodies
/// optimized at `level` for the register estimate.
pub fn fuse_plan(graph: &PlanGraph, budget: &FusionBudget, level: OptLevel) -> FusionPlan {
    let n = graph.nodes.len();
    let mut groups: Vec<GroupState> = Vec::new();
    let mut group_of: Vec<Option<usize>> = vec![None; n];
    // Groups already scanning each Input leaf — the Fig. 2(c) opportunity:
    // kernels with no producer/consumer dependence still fuse when they
    // filter the *same input data* (and, across queries, §III-A's
    // cross-query fusion reduces to exactly this sibling case).
    let mut leaf_groups: Vec<Vec<usize>> = vec![Vec::new(); n];

    for id in 0..n {
        let dep = graph.nodes[id].kind.traits().dep;
        if dep == Dep::Leaf {
            continue;
        }
        let mut placed = false;
        if dep.fuses() {
            // Open groups feeding this node.
            let mut producer_groups: Vec<usize> = graph.nodes[id]
                .inputs
                .iter()
                .filter_map(|&p| group_of[p])
                .map(|g| resolve(&groups, g))
                .collect();
            producer_groups.sort_unstable();
            producer_groups.dedup();
            if producer_groups.is_empty() {
                // All producers are plan inputs: consider sibling groups
                // that already scan one of the same leaves.
                let mut siblings: Vec<usize> = graph.nodes[id]
                    .inputs
                    .iter()
                    .flat_map(|&p| leaf_groups[p].iter().copied())
                    .map(|g| resolve(&groups, g))
                    .filter(|&g| groups[g].open)
                    .collect();
                siblings.sort_unstable();
                siblings.dedup();
                if let Some(&first) = siblings.first() {
                    producer_groups = vec![first];
                }
            }
            let all_open =
                !producer_groups.is_empty() && producer_groups.iter().all(|&g| groups[g].open);
            if all_open {
                // Tentative merged membership.
                let mut members: Vec<NodeId> = producer_groups
                    .iter()
                    .flat_map(|&g| groups[g].members.iter().copied())
                    .collect();
                members.push(id);
                members.sort_unstable();
                let fits = || group_regs(graph, &members, level) <= budget.max_regs_per_thread;
                if is_convex(graph, &members) && fits() {
                    // Commit: merge into the first group.
                    let target = producer_groups[0];
                    for &g in &producer_groups[1..] {
                        groups[g].merged_into = Some(target);
                        groups[g].open = false;
                    }
                    groups[target].members = members;
                    groups[target].open = dep.stays_open();
                    group_of[id] = Some(target);
                    placed = true;
                }
            }
        }
        if !placed {
            groups.push(GroupState {
                members: vec![id],
                open: dep.stays_open(),
                merged_into: None,
            });
            group_of[id] = Some(groups.len() - 1);
        }
        // Register this node's group on every Input leaf it reads directly.
        if let Some(g) = group_of[id] {
            for &p in &graph.nodes[id].inputs {
                if graph.nodes[p].kind.is_input() {
                    leaf_groups[p].push(g);
                }
            }
        }
    }

    // Compact: drop merged-away groups, renumber in order of their first
    // member (execution order).
    let mut surviving: Vec<(NodeId, Vec<NodeId>)> = groups
        .iter()
        .filter(|g| g.merged_into.is_none())
        .map(|g| (g.members[0], g.members.clone()))
        .collect();
    surviving.sort_unstable();
    let final_groups: Vec<Vec<NodeId>> = surviving.into_iter().map(|(_, m)| m).collect();
    let mut final_of: Vec<Option<usize>> = vec![None; n];
    for (gi, members) in final_groups.iter().enumerate() {
        for &m in members {
            final_of[m] = Some(gi);
        }
    }
    let plan = FusionPlan { group_of: final_of, groups: final_groups };
    // Pass sandwich: the legality checker audits every fusion decision. A
    // failure here is a bug in this pass, not in the caller's plan.
    if let Err(e) = crate::check::check_fusion(graph, &plan) {
        panic!("fuse_plan produced an illegal fusion: {e}");
    }
    plan
}

/// Whether no path leaves `members` (ascending) through another node and
/// comes back — what `check::check_fusion` demands of every group. Two
/// producer groups of one node are not merged when one reaches the other
/// through a barrier: a SELECT that a SORT reads on the way to a SEMIJOIN,
/// grouped with a sibling SELECT of its input, and an ANTIJOIN of the
/// SEMIJOIN and the sibling.
fn is_convex(graph: &PlanGraph, members: &[NodeId]) -> bool {
    let (first, last) = (members[0], members[members.len() - 1]);
    // Whether each node in between is outside and reached from a member.
    let mut left = vec![false; last - first];
    for id in first..=last {
        let member = members.binary_search(&id).is_ok();
        let inputs = &graph.nodes[id].inputs;
        let through_outside = inputs.iter().any(|&p| p >= first && left[p - first]);
        if member && through_outside {
            return false;
        }
        if id < last {
            let from_member = inputs.iter().any(|p| members.binary_search(p).is_ok());
            left[id - first] = !member && (through_outside || from_member);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpKind;
    use kfusion_relalg::ops::{Agg, SortBy};
    use kfusion_relalg::predicates;

    fn budget() -> FusionBudget {
        FusionBudget { max_regs_per_thread: 63 }
    }

    fn fuse(g: &PlanGraph) -> FusionPlan {
        fuse_plan(g, &budget(), OptLevel::O3)
    }

    /// Fig. 2(a): back-to-back SELECTs fuse into one kernel.
    #[test]
    fn select_chain_fuses() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s1 = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let s2 = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![s1]);
        let s3 = g.add(OpKind::Select { pred: predicates::key_lt(3) }, vec![s2]);
        let plan = fuse(&g);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0], vec![s1, s2, s3]);
    }

    /// Fig. 2(f): JOIN of two SELECTed tables fuses all three (group merge).
    #[test]
    fn join_of_two_selects_merges_groups() {
        let mut g = PlanGraph::new();
        let a = g.input(0);
        let b = g.input(1);
        let s1 = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![a]);
        let s2 = g.add(OpKind::Select { pred: predicates::key_lt(20) }, vec![b]);
        let j = g.add(OpKind::Join, vec![s1, s2]);
        let plan = fuse(&g);
        assert_eq!(plan.groups.len(), 1, "{:?}", plan.groups);
        assert_eq!(plan.groups[0], vec![s1, s2, j]);
    }

    /// Two open producer groups of an ANTIJOIN, one reaching the other
    /// through a SORT: merged, the path would leave the group and come back,
    /// so the ANTIJOIN starts a group of its own.
    #[test]
    fn groups_a_barrier_path_connects_are_not_merged() {
        let mut g = PlanGraph::new();
        let (a, b) = (g.input(0), g.input(1));
        let kept = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![a]);
        let probe = g.add(OpKind::Select { pred: predicates::key_lt(20) }, vec![b]);
        let sorted = g.add(OpKind::Sort { by: SortBy::Key }, vec![probe]);
        let semi = g.add(OpKind::Semijoin, vec![kept, sorted]);
        // A sibling of `probe`: it joins `probe`'s group.
        let other = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![b]);
        let anti = g.add(OpKind::Antijoin, vec![semi, other]);
        let plan = fuse(&g);
        assert_eq!(plan.group_of[probe], plan.group_of[other]);
        assert_ne!(plan.group_of[kept], plan.group_of[semi]);
        assert_eq!(plan.groups[plan.group_of[anti].unwrap()], vec![anti]);
    }

    /// Fig. 2(g): SELECT → AGGREGATION fuses, but the group closes.
    #[test]
    fn aggregation_terminates_group() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let agg = g.add(OpKind::AggregateAll { aggs: vec![Agg::Count] }, vec![s]);
        let post = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![agg]);
        let plan = fuse(&g);
        assert_eq!(plan.group_of[s], plan.group_of[agg], "select fuses with aggregate");
        assert_ne!(plan.group_of[agg], plan.group_of[post], "nothing fuses past aggregate");
    }

    /// SORT is a barrier: its neighbours never join its group (Fig. 17's
    /// plans split exactly at the SORTs).
    #[test]
    fn sort_is_isolated() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s1 = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let sort = g.add(OpKind::Sort { by: SortBy::Key }, vec![s1]);
        let _s2 = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![sort]);
        let plan = fuse(&g);
        assert_eq!(plan.groups.len(), 3);
        assert_eq!(plan.groups[1], vec![sort]);
    }

    /// Q1's leading block: 6 column-joins + 1 select fuse into one kernel.
    #[test]
    fn q1_leading_block_fuses_completely() {
        let mut g = PlanGraph::new();
        let mut acc = g.input(0);
        for c in 1..7 {
            let col = g.input(c);
            acc = g.add(OpKind::ColumnJoin, vec![acc, col]);
        }
        let sel = g.add(OpKind::Select { pred: predicates::key_lt(100) }, vec![acc]);
        let plan = fuse(&g);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].len(), 7);
        assert_eq!(*plan.groups[0].last().unwrap(), sel);
    }

    /// Fig. 2(c): one SELECT feeding two consumers — both fuse into the same
    /// kernel (multi-output fused kernel).
    #[test]
    fn shared_producer_fuses_with_both_consumers() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = g.add(OpKind::Select { pred: predicates::key_lt(50) }, vec![i]);
        let a = g.add(OpKind::Select { pred: predicates::key_lt(20) }, vec![s]);
        let b = g.add(OpKind::Select { pred: predicates::key_lt(30) }, vec![s]);
        let plan = fuse(&g);
        assert_eq!(plan.group_of[a], plan.group_of[s]);
        assert_eq!(plan.group_of[b], plan.group_of[s]);
    }

    /// Register pressure bounds fusion depth: a tiny budget forces splits.
    /// Distinct-column predicates, so the analyzed pressure genuinely grows
    /// with depth (same-column chains collapse and never split — see
    /// `same_column_chain_fuses_whole_under_tight_budget`).
    #[test]
    fn register_budget_limits_depth() {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for k in 0..8 {
            cur = g.add(
                OpKind::Select { pred: predicates::col_cmp_i64(k, kfusion_ir::CmpOp::Lt, 100) },
                vec![cur],
            );
        }
        let tight = FusionBudget { max_regs_per_thread: crate::cost::STAGE_REGS + 5 };
        let plan = fuse_plan(&g, &tight, OptLevel::O3);
        assert!(plan.groups.len() > 1, "tight budget must split: {:?}", plan.groups);
        let generous = fuse(&g);
        assert_eq!(generous.groups.len(), 1);
    }

    /// The analyzed cost model sees through collapsible chains: the same
    /// tight budget that splits distinct-column predicates keeps a
    /// same-column chain — whose compares combine into one — in one group.
    /// This is a fusion decision the summed per-op estimate gets wrong.
    #[test]
    fn same_column_chain_fuses_whole_under_tight_budget() {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for k in 0..8 {
            cur = g.add(OpKind::Select { pred: predicates::key_lt(100 + k) }, vec![cur]);
        }
        let tight = FusionBudget { max_regs_per_thread: crate::cost::STAGE_REGS + 5 };
        let plan = fuse_plan(&g, &tight, OptLevel::O3);
        assert_eq!(plan.groups.len(), 1, "collapsible chain split: {:?}", plan.groups);
    }

    #[test]
    fn inputs_have_no_group() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let plan = fuse(&g);
        assert_eq!(plan.group_of[i], None);
        assert!(plan.group_of[s].is_some());
        assert_eq!(plan.fused_group_count(), 0, "single-op group is not 'fused'");
        assert_eq!(plan.max_group_len(), 1);
    }
}
