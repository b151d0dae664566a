//! The fusion cost model.
//!
//! Fusing more kernels is usually better (Fig. 11(a)) — until register
//! pressure forces spills (§III-C: "fusing too many kernels ... will create
//! increased register pressure ... can increase spill code or have adverse
//! cache effects"). The cost model estimates a fused group's per-thread
//! register footprint from the IR bodies of its members and refuses growth
//! past the device budget; the virtual GPU independently charges spill
//! traffic if a profile exceeds the budget anyway, so both the *decision*
//! and the *consequence* sides of the paper's trade-off are modeled.
//!
//! One metric gates: [`group_regs`], the liveness maximum of the group's
//! spliced, optimized body. [`group_regs_summed`] is not a second opinion
//! but `analyze::analyzed_group_regs`'s fallback for the groups that have no
//! single body to analyze (members whose bodies cannot be spliced into one
//! verifiable stage); nothing else calls it.
//!
//! An operator's price on the sim clock lives here too, both ways:
//! `node_kernels` is what it costs as a kernel set of its own,
//! [`fused_step`] what it adds to a fused kernel. A new operator fills in
//! one arm of each.

use crate::exec::Cardinalities;
use crate::graph::{NodeId, OpKind, PlanGraph};
use kfusion_ir::cost::{instruction_count, max_live_regs};
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_relalg::profiles::{self, FILTER_BOOKKEEPING_BYTES, STAGE_REGS, STREAM_MEM_EFF};
use kfusion_vgpu::KernelProfile;

/// Limits the fusion pass respects.
#[derive(Debug, Clone, Copy)]
pub struct FusionBudget {
    /// Per-thread register budget (typically the device's
    /// `max_regs_per_thread`).
    pub max_regs_per_thread: u32,
}

impl FusionBudget {
    /// Budget matching a device spec.
    pub fn for_device(spec: &kfusion_vgpu::DeviceSpec) -> Self {
        FusionBudget { max_regs_per_thread: spec.max_regs_per_thread }
    }
}

/// What one operator adds to a fused compute kernel, per thread and per
/// element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// Registers its compute stage holds live.
    pub regs: u32,
    /// Instructions it executes.
    pub instr: f64,
}

/// The price of `kind` as a *member of a fused kernel*: a fixed step per
/// operator, plus — for the operators that carry IR — the liveness maximum
/// and instruction count of the body optimized at `level`. Its price as a
/// kernel of its own is `node_kernels`.
pub fn fused_step(kind: &OpKind, level: OptLevel) -> StepCost {
    let (regs, instr) = match kind {
        OpKind::Input { .. } => (0, 0.0),
        // The stage around the body; the body itself is measured below.
        OpKind::Select { .. } | OpKind::Arith { .. } | OpKind::ArithExtend { .. } => (0, 2.0),
        OpKind::Project { .. } | OpKind::Rekey { .. } => (1, 2.0),
        OpKind::ColumnJoin => (2, 4.0),
        OpKind::Join | OpKind::Semijoin | OpKind::Antijoin => (6, 14.0),
        OpKind::Product => (4, 10.0),
        OpKind::Union | OpKind::Intersect | OpKind::Difference => (6, 12.0),
        OpKind::Aggregate { aggs } | OpKind::AggregateAll { aggs } => {
            (2 * aggs.len() as u32 + 2, 10.0 + 6.0 * aggs.len() as f64)
        }
        // Barriers never fuse; the registers only feed the summed estimate.
        OpKind::Sort { .. } => (8, 0.0),
        OpKind::Unique => (3, 0.0),
    };
    let Some((body, _)) = kind.body() else { return StepCost { regs, instr } };
    let _probe = kfusion_ir::symexec::speculation();
    let body = optimize(body, level);
    StepCost {
        regs: regs + max_live_regs(&body) as u32,
        instr: instr + instruction_count(&body) as f64,
    }
}

/// Estimated per-thread registers of a fused kernel containing `members`,
/// from liveness analysis of the group's actual fused, optimized body
/// (see [`crate::analyze::analyzed_group_regs`]). This is what
/// [`FusionBudget`] gating consumes: two predicates on the same column cost
/// one compare, not two.
pub fn group_regs(graph: &PlanGraph, members: &[NodeId], level: OptLevel) -> u32 {
    // A cost probe, not an emission: the spliced body is measured and
    // discarded, so the translation validator skips it (the chosen group is
    // recompiled — and proved — on the emit path).
    let _probe = kfusion_ir::symexec::speculation();
    crate::analyze::analyzed_group_regs(graph, members, level)
}

/// The pre-analysis estimate: the shared multi-stage skeleton plus every
/// member's *individual* register count, summed. The fallback when a group's
/// bodies cannot be spliced into one verifiable stage.
pub fn group_regs_summed(graph: &PlanGraph, members: &[NodeId], level: OptLevel) -> u32 {
    STAGE_REGS + members.iter().map(|&m| fused_step(&graph.nodes[m].kind, level).regs).sum::<u32>()
}

/// The price of node `id` as a kernel set *of its own* (the unfused
/// strategies, and singleton groups under the fusing ones), with element
/// counts sized from `cards`. Its price as a group member is [`fused_step`].
pub(crate) fn node_kernels(
    graph: &PlanGraph,
    cards: &Cardinalities,
    id: NodeId,
    level: OptLevel,
) -> Vec<(KernelProfile, u64)> {
    let node = &graph.nodes[id];
    let in0 = node.inputs.first().copied();
    let in_rows = in0.map_or(0, |i| cards.rows[i]);
    let in_bytes = in0.map_or(8.0, |i| cards.row_bytes[i]);
    let out_rows = cards.rows[id];
    let out_bytes = cards.row_bytes[id];
    let sel = if in_rows == 0 { 0.0 } else { out_rows as f64 / in_rows as f64 };
    let nm = |s: &str| format!("{s}#{id}");
    // A streaming pass: `instr` instructions and `read`/`write` bytes per
    // element at streaming efficiency. Most operators are one, then a gather.
    let stream = |name: &str, instr: f64, read: f64, write: f64| {
        KernelProfile::new(nm(name))
            .instr_per_elem(instr)
            .bytes_read_per_elem(read)
            .bytes_written_per_elem(write)
            .mem_efficiency(STREAM_MEM_EFF)
    };
    let gather = |name: &str| (profiles::select_gather(nm(name), out_bytes), out_rows);
    // Per-node labels keep timelines' span names unique.
    let renamed = |mut profile: KernelProfile, name: &str| {
        profile.name = nm(name);
        profile
    };
    // Both sides' bytes, per element of a binary operator that walks `elems`.
    let read_both = |elems: u64| {
        (cards.bytes(node.inputs[0]) + cards.bytes(node.inputs[1])) as f64 / elems as f64
    };
    let side_rows = |i: usize| cards.rows[node.inputs[i]];
    match &node.kind {
        OpKind::Input { .. } => vec![],
        OpKind::Select { pred } => vec![
            (profiles::select_filter(nm("filter"), pred, level, in_bytes, sel), in_rows),
            gather("gather"),
        ],
        OpKind::Rekey { .. } => {
            vec![(stream("rekey", 3.0, in_bytes, out_bytes), in_rows), gather("rekey_gather")]
        }
        OpKind::Project { .. } => {
            vec![(stream("project", 4.0, in_bytes, out_bytes), in_rows), gather("project_gather")]
        }
        OpKind::Arith { body } | OpKind::ArithExtend { body } => vec![
            (profiles::arith_kernel(nm("arith"), body, level, in_bytes, out_bytes), in_rows),
            gather("arith_gather"),
        ],
        OpKind::Join | OpKind::Semijoin | OpKind::Antijoin => {
            let elems = side_rows(0).max(side_rows(1)).max(1);
            let write = cards.bytes(id) as f64 / elems as f64 + FILTER_BOOKKEEPING_BYTES;
            let matching = stream("join_match", 30.0, read_both(elems), write);
            vec![(matching.regs_per_thread(STAGE_REGS + 10), elems), gather("join_gather")]
        }
        OpKind::ColumnJoin => {
            let elems = side_rows(0).max(1);
            let zip = stream("col_join", 6.0, read_both(elems), out_bytes);
            vec![(zip, elems), gather("col_join_gather")]
        }
        OpKind::Product => vec![(stream("product", 10.0, 2.0, out_bytes), out_rows.max(1))],
        OpKind::Union | OpKind::Intersect | OpKind::Difference => {
            let elems = (side_rows(0) + side_rows(1)).max(1);
            let write = cards.bytes(id) as f64 / elems as f64;
            vec![(stream("setop", 14.0, read_both(elems), write), elems)]
        }
        OpKind::Aggregate { aggs } | OpKind::AggregateAll { aggs } => {
            vec![(renamed(profiles::aggregate_kernel(in_bytes, aggs.len()), "aggregate"), in_rows)]
        }
        OpKind::Sort { .. } => {
            vec![(renamed(profiles::sort_kernel(in_rows, in_bytes), "sort"), in_rows)]
        }
        OpKind::Unique => {
            vec![(renamed(profiles::unique_kernel(in_bytes, sel), "unique"), in_rows)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_relalg::predicates;

    #[test]
    fn group_regs_includes_skeleton() {
        let mut g = crate::graph::PlanGraph::new();
        let i = g.input(0);
        let s = g.add(crate::graph::OpKind::Select { pred: predicates::key_lt(5) }, vec![i]);
        let regs = group_regs(&g, &[s], OptLevel::O3);
        assert!(regs > STAGE_REGS);
    }

    #[test]
    fn a_body_is_priced_at_its_optimization_level() {
        let kind = crate::graph::OpKind::Select { pred: predicates::key_lt(5) };
        assert!(fused_step(&kind, OptLevel::O0).instr > fused_step(&kind, OptLevel::O3).instr);
    }
}
