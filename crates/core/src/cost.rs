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

use crate::graph::{NodeId, OpKind, PlanGraph};
use kfusion_ir::cost::max_live_regs;
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::KernelBody;
use kfusion_relalg::profiles::STAGE_REGS;

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

/// Registers a single operator's compute stage holds live per thread.
pub fn node_regs(kind: &OpKind, level: OptLevel) -> u32 {
    match kind {
        OpKind::Input { .. } => 0,
        OpKind::Select { pred } => body_regs(pred, level),
        OpKind::Arith { body } | OpKind::ArithExtend { body } => body_regs(body, level),
        OpKind::Project { .. } => 1,
        OpKind::Rekey { .. } => 1,
        OpKind::ColumnJoin => 2,
        OpKind::Join | OpKind::Semijoin | OpKind::Antijoin => 6,
        OpKind::Product => 4,
        OpKind::Union | OpKind::Intersect | OpKind::Difference => 6,
        OpKind::Aggregate { aggs } | OpKind::AggregateAll { aggs } => 2 * aggs.len() as u32 + 2,
        OpKind::Sort { .. } => 8,
        OpKind::Unique => 3,
    }
}

fn body_regs(body: &KernelBody, level: OptLevel) -> u32 {
    let _probe = kfusion_ir::symexec::speculation();
    max_live_regs(&optimize(body, level)) as u32
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
    STAGE_REGS + members.iter().map(|&m| node_regs(&graph.nodes[m].kind, level)).sum::<u32>()
}

/// Per-element instructions a member contributes to a fused compute kernel
/// (its IR body, optimized, plus a small operator-specific step cost).
pub fn member_instr(kind: &OpKind, level: OptLevel) -> f64 {
    use kfusion_ir::cost::instruction_count;
    let _probe = kfusion_ir::symexec::speculation();
    let body = |b: &KernelBody| instruction_count(&optimize(b, level)) as f64;
    match kind {
        OpKind::Input { .. } => 0.0,
        OpKind::Select { pred } => body(pred) + 2.0,
        OpKind::Arith { body: b } | OpKind::ArithExtend { body: b } => body(b) + 2.0,
        OpKind::Project { .. } => 2.0,
        OpKind::Rekey { .. } => 2.0,
        OpKind::ColumnJoin => 4.0,
        OpKind::Join | OpKind::Semijoin | OpKind::Antijoin => 14.0,
        OpKind::Product => 10.0,
        OpKind::Union | OpKind::Intersect | OpKind::Difference => 12.0,
        OpKind::Aggregate { aggs } | OpKind::AggregateAll { aggs } => {
            10.0 + 6.0 * aggs.len() as f64
        }
        OpKind::Sort { .. } | OpKind::Unique => 0.0, // barriers never fuse
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
    fn member_instr_reflects_optimization_level() {
        let kind = crate::graph::OpKind::Select { pred: predicates::key_lt(5) };
        assert!(member_instr(&kind, OptLevel::O0) > member_instr(&kind, OptLevel::O3));
    }
}
