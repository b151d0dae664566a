//! Plan-level dataflow analysis: register pressure of *fused groups*,
//! computed from the actual fused, optimized IR body.
//!
//! The per-op constants in [`crate::cost`] answer "what does this operator
//! cost alone"; this module answers the question the fusion pass actually
//! asks — "what will the *fused kernel* cost" — by doing what codegen would
//! do: splice the group's IR bodies with [`kfusion_ir::fuse::fuse`], run the
//! optimizer at the configured level, and measure
//! [`kfusion_ir::cost::max_live_regs`] on the result. Fusing two predicates
//! on the same column then costs almost nothing (the compares combine),
//! while predicates on distinct columns genuinely accumulate live booleans —
//! the distinction the paper's register-pressure limit (§III-C) is about,
//! and one per-op constants cannot express.

use crate::cost::{fused_step, STAGE_REGS};
use crate::graph::{BodyRole, NodeId, PlanGraph};
use kfusion_ir::cost::max_live_regs;
use kfusion_ir::fuse::{fuse, FuseError, FusedOutput, SlotSource};
use kfusion_ir::ir::{BinOp, Instr};
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::KernelBody;

/// Build the fused compute body of a group's IR-bearing members, mirroring
/// what code generation does: bodies splice in topological order; a member
/// whose producer is an in-group tuple-passing member shares that producer's
/// input-slot region (their loads alias), every other member reads a fresh
/// region; all predicate outputs are ANDed into the emit mask.
///
/// Returns `None` when the group carries no IR bodies, or when the splice
/// fails verification (members with genuinely incompatible slot types do
/// not share a stage in practice; the caller falls back to the summed
/// estimate).
pub fn fused_group_body(
    graph: &PlanGraph,
    members: &[NodeId],
    level: OptLevel,
) -> Option<KernelBody> {
    // IR members in topological (= id) order, each with its body.
    let mut ir_members: Vec<(NodeId, &KernelBody, BodyRole)> = members
        .iter()
        .filter_map(|&m| graph.nodes[m].kind.body().map(|(body, role)| (m, body, role)))
        .collect();
    ir_members.sort_unstable_by_key(|&(m, ..)| m);
    if ir_members.is_empty() {
        return None;
    }
    let in_group = |id: NodeId| members.contains(&id);

    // Assign each IR member an input-slot region. Region ids grow as fresh
    // regions are needed; a member inherits its producer's region when that
    // producer is an in-group tuple-passer with a region of its own.
    let mut region_of: Vec<usize> = Vec::with_capacity(ir_members.len());
    let mut region_widths: Vec<u32> = Vec::new();
    for (i, &(m, body, _)) in ir_members.iter().enumerate() {
        let producer = graph.nodes[m].inputs.first().copied();
        let inherited = producer.and_then(|p| {
            if in_group(p) && graph.nodes[p].kind.traits().keeps_schema {
                ir_members[..i].iter().position(|&(q, ..)| q == p).map(|qi| region_of[qi])
            } else {
                None
            }
        });
        let region = inherited.unwrap_or_else(|| {
            region_widths.push(0);
            region_widths.len() - 1
        });
        region_widths[region] = region_widths[region].max(body.n_inputs);
        region_of.push(region);
    }
    let mut region_base = vec![0u32; region_widths.len()];
    let mut next = 0u32;
    for (base, width) in region_base.iter_mut().zip(&region_widths) {
        *base = next;
        next += width;
    }

    let bodies: Vec<KernelBody> = ir_members.iter().map(|&(_, body, _)| body.clone()).collect();
    let wiring: Vec<Vec<SlotSource>> = bodies
        .iter()
        .zip(&region_of)
        .map(|(b, &r)| (0..b.n_inputs).map(|s| SlotSource::External(region_base[r] + s)).collect())
        .collect();
    // Predicate outputs first (they AND into the emit mask), then every
    // value output an Arith/ArithExtend member exposes.
    let mut pred_outputs = 0usize;
    let mut outputs: Vec<FusedOutput> = Vec::new();
    for (bi, &(.., role)) in ir_members.iter().enumerate() {
        if role == BodyRole::Predicate {
            outputs.push(FusedOutput { body: bi, output: 0 });
            pred_outputs += 1;
        }
    }
    for (bi, &(.., role)) in ir_members.iter().enumerate() {
        if role == BodyRole::Values {
            for o in 0..bodies[bi].outputs.len() {
                outputs.push(FusedOutput { body: bi, output: o });
            }
        }
    }

    let mut fused = match fuse(&bodies, &wiring, &outputs) {
        Ok(f) => f,
        Err(FuseError::Invalid { .. }) => return None,
        Err(e) => unreachable!("group wiring is structurally valid by construction: {e}"),
    };
    // AND the predicate outputs into one emit mask, like codegen's fused
    // filter stage (and like `fuse_predicate_chain`).
    if pred_outputs > 1 {
        let mut acc = fused.outputs[0];
        for k in 1..pred_outputs {
            let rhs = fused.outputs[k];
            acc = fused.push(Instr::Bin { op: BinOp::And, lhs: acc, rhs });
        }
        let value_outputs = fused.outputs.split_off(pred_outputs);
        fused.outputs = vec![acc];
        fused.outputs.extend(value_outputs);
    }
    Some(optimize(&fused, level))
}

/// Per-thread register estimate of a fused group, from dataflow analysis of
/// the fused, optimized body: the shared multi-stage skeleton, the analyzed
/// maximum of simultaneously-live registers across the spliced IR bodies,
/// and the per-op constants of members that carry no IR (joins, column
/// joins, aggregates — their state is modeled, not compiled).
///
/// Falls back to the summed per-op estimate ([`crate::cost::group_regs_summed`])
/// when the group's bodies cannot be spliced into one verifiable stage.
pub fn analyzed_group_regs(graph: &PlanGraph, members: &[NodeId], level: OptLevel) -> u32 {
    let kind = |m: NodeId| &graph.nodes[m].kind;
    let non_ir: u32 = members
        .iter()
        .filter(|&&m| kind(m).body().is_none())
        .map(|&m| fused_step(kind(m), level).regs)
        .sum();
    match fused_group_body(graph, members, level) {
        Some(body) => STAGE_REGS + max_live_regs(&body) as u32 + non_ir,
        None if members.iter().any(|&m| kind(m).body().is_some()) => {
            crate::cost::group_regs_summed(graph, members, level)
        }
        None => STAGE_REGS + non_ir,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::group_regs_summed;
    use crate::graph::OpKind;
    use kfusion_ir::CmpOp;
    use kfusion_relalg::predicates;

    /// Same-column predicate chains collapse under analysis: the fused body
    /// combines the compares, so analyzed pressure stays flat while the
    /// summed estimate grows linearly — the fusion decisions this flips are
    /// demonstrated in the ablation bench.
    #[test]
    fn same_column_chain_is_cheap_distinct_columns_are_not() {
        let mut same = PlanGraph::new();
        let mut distinct = PlanGraph::new();
        let (mut cur_s, mut cur_d) = (same.input(0), distinct.input(0));
        for k in 0..6 {
            cur_s = same.add(OpKind::Select { pred: predicates::key_lt(100 + k) }, vec![cur_s]);
            cur_d = distinct.add(
                OpKind::Select { pred: predicates::col_cmp_i64(k as usize, CmpOp::Lt, 100) },
                vec![cur_d],
            );
        }
        let members: Vec<NodeId> = (1..7).collect();
        let same_regs = analyzed_group_regs(&same, &members, OptLevel::O3);
        let distinct_regs = analyzed_group_regs(&distinct, &members, OptLevel::O3);
        assert!(
            same_regs < distinct_regs,
            "same-column {same_regs} should be cheaper than distinct-column {distinct_regs}"
        );
        // And the analyzed estimate undercuts the summed one on collapsible
        // chains — that gap is exactly where fusion decisions flip.
        let summed = group_regs_summed(&same, &members, OptLevel::O3);
        assert!(same_regs < summed, "analyzed {same_regs} vs summed {summed}");
    }

    #[test]
    fn groups_without_ir_use_constants() {
        let mut g = PlanGraph::new();
        let a = g.input(0);
        let b = g.input(1);
        let j = g.add(OpKind::ColumnJoin, vec![a, b]);
        assert_eq!(
            analyzed_group_regs(&g, &[j], OptLevel::O3),
            STAGE_REGS + fused_step(&g.nodes[j].kind, OptLevel::O3).regs
        );
    }

    #[test]
    fn fused_body_preserves_predicate_conjunction() {
        use kfusion_ir::interp::eval_predicate;
        use kfusion_ir::Value;
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s1 = g.add(OpKind::Select { pred: predicates::key_lt(100) }, vec![i]);
        let s2 = g.add(OpKind::Select { pred: predicates::key_lt(70) }, vec![s1]);
        let body = fused_group_body(&g, &[s1, s2], OptLevel::O0).unwrap();
        for v in [0i64, 69, 70, 100, 150] {
            assert_eq!(eval_predicate(&body, &[Value::I64(v)]).unwrap(), v < 70, "key={v}");
        }
    }
}
