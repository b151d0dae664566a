//! Static verification of plan graphs and fusion plans.
//!
//! Two analyses, both conservative (they reject only *definite* errors, so
//! anything the executor could run successfully passes):
//!
//! * [`check_plan`] — plan well-formedness beyond [`PlanGraph::validate`]'s
//!   structure: every embedded IR body type-checks under the library calling
//!   convention (slot 0 = i64 key, slot `1+c` = payload column `c`),
//!   predicates produce booleans, column references stay inside the schema
//!   (tracked symbolically through the plan), and operators that require
//!   key-sorted input (JOIN, SEMIJOIN, ANTIJOIN, AGGREGATE, UNIQUE) are
//!   never fed a stream that is *provably* unsorted — e.g. straight out of
//!   REKEY with no SORT between.
//! * [`check_fusion`] — fusion-*legality* of a [`FusionPlan`] against its
//!   graph: membership bookkeeping consistent, no barrier inside a fused
//!   group, nothing fused past a terminal AGGREGATE, and every group
//!   **convex** — no path from a member out to a non-member and back in.
//!   A non-convex group is the classic illegal fusion: the outside node
//!   needs the group's partial output but must finish before the group
//!   completes, so no single kernel launch can order it correctly.
//!
//! Rejection reasons are machine-readable enums; `Display` renders them
//! for humans.

use crate::deps::Dep;
use crate::fusion::FusionPlan;
use crate::graph::{GraphError, NodeId, OpKind, PlanGraph};
use kfusion_ir::verify as ir_verify;
use kfusion_ir::{KernelBody, Ty};
use kfusion_relalg::ops::{Agg, SortBy};
use std::fmt;

/// What a plan-level check can reject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanCheckError {
    /// Structural graph error (arity, topology, empty plan).
    Graph(GraphError),
    /// An embedded IR body failed the typed verifier.
    BadBody {
        /// The node whose body is ill-typed.
        node: NodeId,
        /// The rendered [`kfusion_ir::VerifyError`] diagnostic.
        detail: String,
    },
    /// A predicate body's first output is provably not boolean.
    PredicateNotBool {
        /// The SELECT node.
        node: NodeId,
        /// The type the body actually pins.
        found: Ty,
    },
    /// A predicate body has no outputs to test.
    PredicateNoOutput {
        /// The SELECT node.
        node: NodeId,
    },
    /// A body's slot 0 (the key) is pinned to a non-integer type.
    KeyTypeMismatch {
        /// The offending node.
        node: NodeId,
        /// The type the body demands for the key slot.
        found: Ty,
    },
    /// A column reference is out of range of the (statically known) schema.
    ColumnOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The referenced payload column.
        col: usize,
        /// Statically known payload width at that point.
        available: usize,
    },
    /// An IR body reads more input slots than key + known payload provide.
    SlotOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Slots the body declares.
        body_inputs: u32,
        /// Statically known payload width at that point.
        available: usize,
    },
    /// Two inputs of a whole-tuple set operator have provably different
    /// widths.
    SchemaMismatch {
        /// The set-operator node.
        node: NodeId,
        /// Left width.
        left: usize,
        /// Right width.
        right: usize,
    },
    /// A sortedness-requiring operator is fed a provably unsorted stream.
    UnsortedInput {
        /// The consumer that requires key-sorted input.
        node: NodeId,
        /// The producer whose output is provably unsorted.
        producer: NodeId,
        /// The op that destroyed sortedness (e.g. "REKEY").
        destroyed_by: &'static str,
    },
}

impl fmt::Display for PlanCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanCheckError::Graph(e) => write!(f, "{e}"),
            PlanCheckError::BadBody { node, detail } => {
                write!(f, "node {node}: embedded IR body is ill-typed:\n{detail}")
            }
            PlanCheckError::PredicateNotBool { node, found } => {
                write!(f, "node {node}: SELECT predicate produces {found}, not bool")
            }
            PlanCheckError::PredicateNoOutput { node } => {
                write!(f, "node {node}: SELECT predicate body has no output")
            }
            PlanCheckError::KeyTypeMismatch { node, found } => {
                write!(f, "node {node}: body uses the key slot as {found} (keys are i64)")
            }
            PlanCheckError::ColumnOutOfRange { node, col, available } => {
                write!(f, "node {node}: column {col} out of range ({available} available)")
            }
            PlanCheckError::SlotOutOfRange { node, body_inputs, available } => {
                write!(
                    f,
                    "node {node}: body reads {body_inputs} slots but key + {available} \
                     columns are available"
                )
            }
            PlanCheckError::SchemaMismatch { node, left, right } => {
                write!(f, "node {node}: set operator over widths {left} vs {right}")
            }
            PlanCheckError::UnsortedInput { node, producer, destroyed_by } => {
                write!(
                    f,
                    "node {node} requires key-sorted input, but node {producer} is \
                     provably unsorted ({destroyed_by} destroys key order; insert a SORT)"
                )
            }
        }
    }
}

impl std::error::Error for PlanCheckError {}

impl From<GraphError> for PlanCheckError {
    fn from(e: GraphError) -> Self {
        PlanCheckError::Graph(e)
    }
}

/// What a fusion-legality check can reject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionCheckError {
    /// `group_of` and `groups` disagree about a node's membership.
    MembershipMismatch {
        /// The node in question.
        node: NodeId,
        /// What `group_of` says.
        group_of: Option<usize>,
        /// The group(s) whose member lists contain it (first found).
        listed_in: Option<usize>,
    },
    /// A plan-input leaf appears inside a kernel group.
    InputInGroup {
        /// The Input node.
        node: NodeId,
        /// The group listing it.
        group: usize,
    },
    /// A node appears more than once across the member lists.
    DuplicateMember {
        /// The duplicated node.
        node: NodeId,
    },
    /// Group members are not in topological (ascending id) order.
    UnorderedGroup {
        /// The group.
        group: usize,
    },
    /// A fusion barrier (SORT/UNIQUE/set op) shares a group with others.
    BarrierInFusedGroup {
        /// The barrier node.
        node: NodeId,
        /// The group.
        group: usize,
    },
    /// Some member consumes a terminal AGGREGATE inside the same group.
    FusedPastTerminal {
        /// The terminal (AGGREGATE) member.
        terminal: NodeId,
        /// The member consuming its output in-group.
        consumer: NodeId,
        /// The group.
        group: usize,
    },
    /// A group is non-convex: a path leaves the group and re-enters it.
    NonConvex {
        /// The group.
        group: usize,
        /// The member whose output escapes.
        producer: NodeId,
        /// The witness path *outside* the group, producer → … → consumer.
        via: Vec<NodeId>,
        /// The member that consumes the outside value.
        consumer: NodeId,
    },
}

impl fmt::Display for FusionCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionCheckError::MembershipMismatch { node, group_of, listed_in } => {
                write!(
                    f,
                    "node {node}: group_of says {group_of:?} but member lists say {listed_in:?}"
                )
            }
            FusionCheckError::InputInGroup { node, group } => {
                write!(f, "plan input {node} listed as a member of group {group}")
            }
            FusionCheckError::DuplicateMember { node } => {
                write!(f, "node {node} appears in more than one group")
            }
            FusionCheckError::UnorderedGroup { group } => {
                write!(f, "group {group} members are not topologically ordered")
            }
            FusionCheckError::BarrierInFusedGroup { node, group } => {
                write!(
                    f,
                    "barrier node {node} fused into multi-member group {group} \
                     (SORT/UNIQUE cannot fuse)"
                )
            }
            FusionCheckError::FusedPastTerminal { terminal, consumer, group } => {
                write!(
                    f,
                    "group {group} fuses node {consumer} past terminal AGGREGATE {terminal} \
                     (nothing may consume an aggregate inside its own kernel)"
                )
            }
            FusionCheckError::NonConvex { group, producer, via, consumer } => {
                write!(
                    f,
                    "group {group} is non-convex: member {producer} feeds outside node(s) \
                     {via:?} which feed member {consumer} — the outside path needs the \
                     group's output before the group finishes"
                )
            }
        }
    }
}

impl std::error::Error for FusionCheckError {}

/// Either kind of rejection, for callers that run both analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Plan well-formedness failure.
    Plan(PlanCheckError),
    /// Fusion legality failure.
    Fusion(FusionCheckError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Plan(e) => write!(f, "{e}"),
            CheckError::Fusion(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// What the analysis knows about key order at a node's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sortedness {
    /// Provably key-sorted.
    Sorted,
    /// Provably not guaranteed sorted, and the op that broke it.
    Unsorted(&'static str),
    /// Depends on runtime data (e.g. a plan input).
    Unknown,
}

fn verify_body(node: NodeId, body: &KernelBody) -> Result<(), PlanCheckError> {
    ir_verify::verify(body).map_err(|e| PlanCheckError::BadBody { node, detail: e.render(body) })
}

/// Bodies follow the calling convention slot 0 = key (i64): reject a body
/// that pins the key slot to another type, and bodies reading past the
/// statically known payload width.
fn check_body_slots(
    node: NodeId,
    body: &KernelBody,
    cols: Option<usize>,
) -> Result<(), PlanCheckError> {
    verify_body(node, body)?;
    if let Some(available) = cols {
        if body.n_inputs as usize > available + 1 {
            return Err(PlanCheckError::SlotOutOfRange {
                node,
                body_inputs: body.n_inputs,
                available,
            });
        }
    }
    let slots = ir_verify::slot_types(body)
        .map_err(|e| PlanCheckError::BadBody { node, detail: e.render(body) })?;
    if let Some(Some(ty)) = slots.first() {
        if *ty != Ty::I64 {
            return Err(PlanCheckError::KeyTypeMismatch { node, found: *ty });
        }
    }
    Ok(())
}

fn check_agg_cols(node: NodeId, aggs: &[Agg], cols: Option<usize>) -> Result<(), PlanCheckError> {
    let Some(available) = cols else { return Ok(()) };
    for agg in aggs {
        let col = match agg {
            Agg::Sum(c) | Agg::Min(c) | Agg::Max(c) | Agg::Avg(c) => Some(*c),
            Agg::Count => None,
        };
        if let Some(col) = col {
            if col >= available {
                return Err(PlanCheckError::ColumnOutOfRange { node, col, available });
            }
        }
    }
    Ok(())
}

/// Verify plan well-formedness: structure, embedded body typing, column
/// bounds, and sortedness preconditions.
pub fn check_plan(graph: &PlanGraph) -> Result<(), PlanCheckError> {
    graph.validate()?;
    // Forward pass over the topological order, tracking what is statically
    // known about each node's output: payload width and key order.
    let mut widths: Vec<Option<usize>> = Vec::with_capacity(graph.len());
    let mut sorted: Vec<Sortedness> = Vec::with_capacity(graph.len());

    for (id, node) in graph.nodes.iter().enumerate() {
        let in_width = |i: usize| widths[node.inputs[i]];
        let in_sorted = |i: usize| sorted[node.inputs[i]];
        if node.kind.traits().needs_sorted {
            for &producer in &node.inputs {
                if let Sortedness::Unsorted(destroyed_by) = sorted[producer] {
                    return Err(PlanCheckError::UnsortedInput { node: id, producer, destroyed_by });
                }
            }
        }

        // Both sides' payload columns side by side, plus `extra`.
        let both_widths = |extra: usize| Some(in_width(0)? + in_width(1)? + extra);
        // The transfer function: what the operator's payload does to the
        // payload width and the key order.
        let (width, order) = match &node.kind {
            OpKind::Input { .. } => (None, Sortedness::Unknown),
            OpKind::Select { pred } => {
                check_body_slots(id, pred, in_width(0))?;
                if pred.outputs.is_empty() {
                    return Err(PlanCheckError::PredicateNoOutput { node: id });
                }
                let outs = ir_verify::output_types(pred)
                    .map_err(|e| PlanCheckError::BadBody { node: id, detail: e.render(pred) })?;
                if let Some(ty) = outs[0] {
                    if ty != Ty::Bool {
                        return Err(PlanCheckError::PredicateNotBool { node: id, found: ty });
                    }
                }
                (in_width(0), in_sorted(0))
            }
            OpKind::Project { keep } => {
                if let Some(available) = in_width(0) {
                    for &col in keep {
                        if col >= available {
                            return Err(PlanCheckError::ColumnOutOfRange {
                                node: id,
                                col,
                                available,
                            });
                        }
                    }
                }
                (Some(keep.len()), in_sorted(0))
            }
            OpKind::Rekey { col } => {
                if let Some(available) = in_width(0) {
                    if *col >= available {
                        return Err(PlanCheckError::ColumnOutOfRange {
                            node: id,
                            col: *col,
                            available,
                        });
                    }
                }
                // The key becomes an arbitrary payload column: order is gone
                // until the next SORT.
                (in_width(0).map(|w| w - 1), Sortedness::Unsorted(node.kind.name()))
            }
            OpKind::Arith { body } => {
                check_body_slots(id, body, in_width(0))?;
                (Some(body.outputs.len()), in_sorted(0))
            }
            OpKind::ArithExtend { body } => {
                check_body_slots(id, body, in_width(0))?;
                (in_width(0).map(|w| w + body.outputs.len()), in_sorted(0))
            }
            OpKind::Join => (both_widths(0), Sortedness::Sorted),
            OpKind::ColumnJoin => (both_widths(0), in_sorted(0)),
            OpKind::Semijoin | OpKind::Antijoin => (in_width(0), Sortedness::Sorted),
            // The right side's key becomes a payload column.
            OpKind::Product => (both_widths(1), Sortedness::Unknown),
            OpKind::Union | OpKind::Intersect | OpKind::Difference => {
                if let (Some(a), Some(b)) = (in_width(0), in_width(1)) {
                    if a != b {
                        return Err(PlanCheckError::SchemaMismatch { node: id, left: a, right: b });
                    }
                }
                (in_width(0).or(in_width(1)), Sortedness::Unknown)
            }
            OpKind::Aggregate { aggs } => {
                check_agg_cols(id, aggs, in_width(0))?;
                (Some(aggs.len()), Sortedness::Sorted)
            }
            OpKind::AggregateAll { aggs } => {
                check_agg_cols(id, aggs, in_width(0))?;
                (Some(aggs.len()), Sortedness::Sorted)
            }
            OpKind::Sort { by } => {
                if let (Some(col), Some(available)) = (by.col(), in_width(0)) {
                    if col >= available {
                        return Err(PlanCheckError::ColumnOutOfRange { node: id, col, available });
                    }
                }
                let order = match by {
                    SortBy::Key => Sortedness::Sorted,
                    // Sorting by a payload column (or by key descending)
                    // reorders tuples; ascending key order is whatever
                    // falls out.
                    _ => Sortedness::Unknown,
                };
                (in_width(0), order)
            }
            OpKind::Unique => (in_width(0), in_sorted(0)),
        };
        widths.push(width);
        sorted.push(order);
    }
    Ok(())
}

/// Verify that `plan` is a legal fusion of `graph`.
pub fn check_fusion(graph: &PlanGraph, plan: &FusionPlan) -> Result<(), FusionCheckError> {
    let n = graph.len();
    // -- membership bookkeeping --------------------------------------------
    let mut listed_in: Vec<Option<usize>> = vec![None; n];
    for (gi, members) in plan.groups.iter().enumerate() {
        for &m in members {
            if graph.nodes[m].kind.is_input() {
                return Err(FusionCheckError::InputInGroup { node: m, group: gi });
            }
            if listed_in[m].is_some() {
                return Err(FusionCheckError::DuplicateMember { node: m });
            }
            listed_in[m] = Some(gi);
        }
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(FusionCheckError::UnorderedGroup { group: gi });
        }
    }
    for (id, &listed) in listed_in.iter().enumerate() {
        let expected = if graph.nodes[id].kind.is_input() { None } else { listed };
        let got = plan.group_of.get(id).copied().flatten();
        if got != expected || (expected.is_none() && listed != got) {
            return Err(FusionCheckError::MembershipMismatch {
                node: id,
                group_of: got,
                listed_in: listed,
            });
        }
    }

    // -- per-group operator legality ---------------------------------------
    for (gi, members) in plan.groups.iter().enumerate() {
        if members.len() < 2 {
            continue;
        }
        let in_group = |x: NodeId| listed_in[x] == Some(gi);
        for &m in members {
            match graph.nodes[m].kind.traits().dep {
                Dep::Leaf | Dep::Barrier => {
                    return Err(FusionCheckError::BarrierInFusedGroup { node: m, group: gi });
                }
                Dep::Terminal => {
                    // Nothing in-group may consume the aggregate's output.
                    for (cid, cnode) in graph.nodes.iter().enumerate() {
                        if in_group(cid) && cnode.inputs.contains(&m) {
                            return Err(FusionCheckError::FusedPastTerminal {
                                terminal: m,
                                consumer: cid,
                                group: gi,
                            });
                        }
                    }
                }
                Dep::Elementwise | Dep::Fusable => {}
            }
        }
    }

    // -- convexity ----------------------------------------------------------
    // children[x]: consumers of x.
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (id, node) in graph.nodes.iter().enumerate() {
        for &p in &node.inputs {
            children[p].push(id);
        }
    }
    for (gi, members) in plan.groups.iter().enumerate() {
        if members.len() < 2 {
            continue;
        }
        let in_group = |x: NodeId| listed_in[x] == Some(gi);
        // BFS through *outside* nodes reachable from any member; if such a
        // node feeds a member, the escape path is a convexity witness.
        let mut origin: Vec<Option<(NodeId, Option<NodeId>)>> = vec![None; n];
        let mut queue: std::collections::VecDeque<NodeId> = Default::default();
        for &m in members {
            for &c in &children[m] {
                if !in_group(c) && origin[c].is_none() {
                    origin[c] = Some((m, None));
                    queue.push_back(c);
                }
            }
        }
        while let Some(x) = queue.pop_front() {
            for &c in &children[x] {
                if in_group(c) {
                    // Reconstruct the outside path x → … back to the member.
                    let mut via = vec![x];
                    let (mut producer, mut prev) = origin[x].expect("visited");
                    while let Some(p) = prev {
                        via.push(p);
                        let o = origin[p].expect("visited");
                        producer = o.0;
                        prev = o.1;
                    }
                    via.reverse();
                    return Err(FusionCheckError::NonConvex {
                        group: gi,
                        producer,
                        via,
                        consumer: c,
                    });
                }
                if origin[c].is_none() {
                    origin[c] = Some((origin[x].expect("visited").0, Some(x)));
                    queue.push_back(c);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FusionBudget;
    use crate::fusion::fuse_plan;
    use kfusion_ir::opt::OptLevel;
    use kfusion_relalg::predicates;

    fn select(g: &mut PlanGraph, input: NodeId, t: u64) -> NodeId {
        g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![input])
    }

    fn fused(g: &PlanGraph) -> FusionPlan {
        fuse_plan(g, &FusionBudget { max_regs_per_thread: 63 }, OptLevel::O3)
    }

    #[test]
    fn accepts_well_formed_plans() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s1 = select(&mut g, i, 100);
        let s2 = select(&mut g, s1, 50);
        let _a = g.add(OpKind::Aggregate { aggs: vec![Agg::Count] }, vec![s2]);
        assert_eq!(check_plan(&g), Ok(()));
        assert_eq!(check_fusion(&g, &fused(&g)), Ok(()));
    }

    #[test]
    fn accepts_every_stock_pattern() {
        for (name, g) in crate::patterns::all() {
            assert_eq!(check_plan(&g), Ok(()), "pattern {name}");
            let plan = fused(&g);
            assert_eq!(check_fusion(&g, &plan), Ok(()), "pattern {name}");
        }
    }

    #[test]
    fn rejects_ill_typed_predicate() {
        // A predicate whose body adds the key to a bool constant.
        use kfusion_ir::{BinOp, Instr, KernelBody, Value};
        let mut bad = KernelBody::new(1);
        let k = bad.push(Instr::LoadInput { slot: 0 });
        let t = bad.push(Instr::Const { value: Value::Bool(true) });
        let s = bad.push(Instr::Bin { op: BinOp::Add, lhs: k, rhs: t });
        bad.outputs.push(s);
        let mut g = PlanGraph::new();
        let i = g.input(0);
        g.add(OpKind::Select { pred: bad }, vec![i]);
        let err = check_plan(&g).unwrap_err();
        assert!(matches!(err, PlanCheckError::BadBody { node: 1, .. }), "{err:?}");
    }

    #[test]
    fn rejects_non_bool_predicate() {
        // Well-typed body, but its output is an i64 sum, not a predicate.
        use kfusion_ir::builder::{BodyBuilder, Expr};
        let mut b = BodyBuilder::new(1);
        b.emit_output(Expr::input(0).add(Expr::lit(1i64)));
        let mut g = PlanGraph::new();
        let i = g.input(0);
        g.add(OpKind::Select { pred: b.build() }, vec![i]);
        assert!(matches!(
            check_plan(&g),
            Err(PlanCheckError::PredicateNotBool { node: 1, found: Ty::I64 })
        ));
    }

    #[test]
    fn rejects_column_out_of_range_after_aggregate() {
        // AGGREGATE produces exactly 1 column; projecting column 3 is wrong.
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let a = g.add(OpKind::Aggregate { aggs: vec![Agg::Count] }, vec![i]);
        g.add(OpKind::Project { keep: vec![3] }, vec![a]);
        assert!(matches!(
            check_plan(&g),
            Err(PlanCheckError::ColumnOutOfRange { node: 2, col: 3, available: 1 })
        ));
    }

    #[test]
    fn rejects_join_fed_by_rekey_without_sort() {
        let mut g = PlanGraph::new();
        let a = g.input(0);
        let b = g.input(1);
        let rk = g.add(OpKind::Rekey { col: 0 }, vec![a]);
        g.add(OpKind::Join, vec![rk, b]);
        let err = check_plan(&g).unwrap_err();
        assert!(
            matches!(
                err,
                PlanCheckError::UnsortedInput { node: 3, producer: 2, destroyed_by: "REKEY" }
            ),
            "{err:?}"
        );
        // Inserting the SORT fixes it.
        let mut g = PlanGraph::new();
        let a = g.input(0);
        let b = g.input(1);
        let rk = g.add(OpKind::Rekey { col: 0 }, vec![a]);
        let so = g.add(OpKind::Sort { by: SortBy::Key }, vec![rk]);
        g.add(OpKind::Join, vec![so, b]);
        assert_eq!(check_plan(&g), Ok(()));
    }

    #[test]
    fn rejects_barrier_in_fused_group() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = select(&mut g, i, 100);
        let so = g.add(OpKind::Sort { by: SortBy::Key }, vec![s]);
        let plan = FusionPlan { group_of: vec![None, Some(0), Some(0)], groups: vec![vec![s, so]] };
        assert!(matches!(
            check_fusion(&g, &plan),
            Err(FusionCheckError::BarrierInFusedGroup { node: 2, group: 0 })
        ));
    }

    #[test]
    fn rejects_fusing_past_terminal_aggregate() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let a = g.add(OpKind::AggregateAll { aggs: vec![Agg::Count] }, vec![i]);
        let s = select(&mut g, a, 10);
        let plan = FusionPlan { group_of: vec![None, Some(0), Some(0)], groups: vec![vec![a, s]] };
        assert!(matches!(
            check_fusion(&g, &plan),
            Err(FusionCheckError::FusedPastTerminal { terminal: 1, consumer: 2, group: 0 })
        ));
    }

    #[test]
    fn rejects_non_convex_group_with_witness() {
        // s1 → outside → s3, with {s1, s3} fused and `outside` not:
        // the fused kernel needs s1's result out and s3's input in.
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s1 = select(&mut g, i, 100);
        let outside = g.add(OpKind::Sort { by: SortBy::Key }, vec![s1]);
        let s3 = select(&mut g, outside, 50);
        let plan = FusionPlan {
            group_of: vec![None, Some(0), Some(1), Some(0)],
            groups: vec![vec![s1, s3], vec![outside]],
        };
        let err = check_fusion(&g, &plan).unwrap_err();
        match err {
            FusionCheckError::NonConvex { group, producer, via, consumer } => {
                assert_eq!(group, 0);
                assert_eq!(producer, s1);
                assert_eq!(via, vec![outside]);
                assert_eq!(consumer, s3);
            }
            other => panic!("expected NonConvex, got {other:?}"),
        }
    }

    #[test]
    fn rejects_inconsistent_bookkeeping() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = select(&mut g, i, 100);
        // group_of disagrees with the member lists.
        let plan = FusionPlan { group_of: vec![None, None], groups: vec![vec![s]] };
        assert!(matches!(
            check_fusion(&g, &plan),
            Err(FusionCheckError::MembershipMismatch { node: 1, .. })
        ));
        // Input listed as a member.
        let plan = FusionPlan { group_of: vec![None, Some(0)], groups: vec![vec![i, s]] };
        assert!(matches!(
            check_fusion(&g, &plan),
            Err(FusionCheckError::InputInGroup { node: 0, group: 0 })
        ));
        // Duplicate membership.
        let plan = FusionPlan { group_of: vec![None, Some(0)], groups: vec![vec![s], vec![s]] };
        assert!(matches!(
            check_fusion(&g, &plan),
            Err(FusionCheckError::DuplicateMember { node: 1 })
        ));
    }

    #[test]
    fn real_fusion_pass_output_is_always_legal() {
        // The greedy pass with merging over a gnarly diamond + barrier plan.
        let mut g = PlanGraph::new();
        let a = g.input(0);
        let b = g.input(1);
        let s1 = select(&mut g, a, 100);
        let s2 = select(&mut g, b, 200);
        let j = g.add(OpKind::Join, vec![s1, s2]);
        let so = g.add(OpKind::Sort { by: SortBy::Key }, vec![j]);
        let s3 = select(&mut g, so, 50);
        let _agg = g.add(OpKind::Aggregate { aggs: vec![Agg::Count] }, vec![s3]);
        let plan = fused(&g);
        assert_eq!(check_fusion(&g, &plan), Ok(()));
        assert_eq!(check_plan(&g), Ok(()));
    }
}
