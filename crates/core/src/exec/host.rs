//! The functional phase: every plan node evaluated on real relations, on
//! host threads — the query answer, and the [`Cardinalities`] the timing
//! phase is sized from.
//!
//! Like the fused kernels it stands for, it writes no intermediate that
//! only members of one fusion group read (DESIGN.md §17): which operators
//! can hand a view on, read one, or rewrite their input in place is the
//! `host` column of [`OpKind::traits`].

use super::Cardinalities;
use crate::fusion::FusionPlan;
use crate::graph::{Host, NodeId, OpKind, PlanGraph};
use crate::CoreError;
use kfusion_relalg::{materialize, ops, Relation, View};
use std::sync::Arc;

/// What the functional phase leaves behind: the relations still held when it
/// ends (the requested roots at least), every node's measured size, and host
/// seconds.
pub(super) struct Measured<'a> {
    pub(super) slots: Slots<'a>,
    pub(super) cards: Cardinalities,
    pub(super) host_secs: Vec<f64>,
}

/// A functional-phase slot value.
pub(super) enum NodeVal<'a> {
    /// A plan input, borrowed from the caller (base tables are the largest
    /// relations in every TPC-H plan; they are never copied).
    Ref(&'a Relation),
    /// A computed relation. Shared, so that views over it stay valid after
    /// the slot is released or handed to another wave's threads.
    Owned(Arc<Relation>),
    /// The output of a fused-group member nobody outside the group reads:
    /// references and a selection, never materialized at this node.
    View(View<'a>),
}

impl<'a> NodeVal<'a> {
    /// The stored relation; views are forced before anything asks.
    pub(super) fn as_rel(&self) -> &Relation {
        match self {
            NodeVal::Ref(r) => r,
            NodeVal::Owned(r) => r,
            NodeVal::View(_) => unreachable!("views are forced before a storage operator runs"),
        }
    }

    /// `(rows, bytes per row)` of the relation this value is or stands for.
    fn size(&self) -> (usize, u64) {
        match self {
            NodeVal::Ref(r) => (r.len(), r.row_bytes()),
            NodeVal::Owned(r) => (r.len(), r.row_bytes()),
            NodeVal::View(v) => (v.len(), v.row_bytes()),
        }
    }

    fn view(&self) -> View<'a> {
        match self {
            NodeVal::Ref(r) => View::of(r),
            NodeVal::Owned(r) => View::shared(Arc::clone(r)),
            NodeVal::View(v) => v.clone(),
        }
    }
}

/// The functional phase's per-node values, with the bytes of the computed
/// relations they currently hold and that figure's high-water mark.
pub(super) struct Slots<'a> {
    pub(super) vals: Vec<Option<NodeVal<'a>>>,
    live_bytes: u64,
    peak_bytes: u64,
}

impl<'a> Slots<'a> {
    fn put(&mut self, id: NodeId, val: NodeVal<'a>) {
        if let NodeVal::Owned(r) = &val {
            if !self.holds(r) {
                self.live_bytes += r.total_bytes();
                self.peak_bytes = self.peak_bytes.max(self.live_bytes);
            }
        }
        self.vals[id] = Some(val);
    }

    fn take(&mut self, id: NodeId) -> Option<NodeVal<'a>> {
        let val = self.vals[id].take();
        if let Some(NodeVal::Owned(r)) = &val {
            if !self.holds(r) {
                self.live_bytes -= r.total_bytes();
            }
        }
        val
    }

    /// Whether some slot stores this very relation. An ordered SORT's slot
    /// shares its input's storage, and those bytes are live once.
    fn holds(&self, rel: &Arc<Relation>) -> bool {
        self.vals.iter().flatten().any(|v| matches!(v, NodeVal::Owned(r) if Arc::ptr_eq(r, rel)))
    }

    /// Give node `id`'s value real storage if it is still a view — the one
    /// gather a fused group pays, at the first member that needs rows.
    fn force(&mut self, id: NodeId) {
        if let Some(NodeVal::View(_)) = &self.vals[id] {
            let _span = kfusion_trace::enabled()
                .then(|| kfusion_trace::host_span("host", &format!("materialize#{id}")));
            let Some(NodeVal::View(v)) = self.take(id) else { unreachable!("matched above") };
            self.put(id, NodeVal::Owned(Arc::new(materialize(v))));
        }
    }
}

/// The nodes whose output stays a view: the [`Host::View`] members (SELECT,
/// COLUMN-JOIN, PROJECT) of a fused group whose every consumer is in the
/// same group, and which no caller asked for. This is the fusion plan's only influence on
/// the functional phase — a singleton plan marks nothing, so the unfused
/// strategies materialize every node.
fn lazy_nodes(graph: &PlanGraph, fusion: &FusionPlan, roots: &[NodeId]) -> Vec<bool> {
    let mut inside = vec![false; graph.len()];
    let mut outside = vec![false; graph.len()];
    for (c, node) in graph.nodes.iter().enumerate() {
        for &p in &node.inputs {
            let side =
                if fusion.group_of[p] == fusion.group_of[c] { &mut inside } else { &mut outside };
            side[p] = true;
        }
    }
    for &r in roots {
        outside[r] = true;
    }
    (0..graph.len())
        .map(|id| graph.nodes[id].kind.traits().host == Host::View && inside[id] && !outside[id])
        .collect()
}

/// Evaluate every node of `graph` over `inputs`.
///
/// Independent nodes evaluate in parallel: topological wavefronts (a node's
/// level is one past its deepest input) run on scoped threads, results land
/// indexed by node id, and a wave's errors surface in id order — so answers
/// are deterministic and identical to a serial loop.
///
/// `fusion` decides which intermediates exist ([`lazy_nodes`]); it cannot
/// change an answer, a cardinality or an error, only how many rows are
/// copied on the way (DESIGN.md §17).
pub(super) fn functional_phase<'a>(
    graph: &PlanGraph,
    inputs: &'a [Relation],
    roots: &[NodeId],
    fusion: &FusionPlan,
) -> Result<Measured<'a>, CoreError> {
    let mut slots =
        Slots { vals: (0..graph.len()).map(|_| None).collect(), live_bytes: 0, peak_bytes: 0 };
    let mut host_secs = vec![0.0f64; graph.len()];
    // Cardinalities are captured the moment a slot fills: a downstream
    // in-place operator may later *steal* the relation out of a
    // single-consumer slot (see `steal_input`), and a slot is released after
    // its last consumer — the timing phase still needs every node's size.
    let mut cards = Cardinalities { rows: vec![0; graph.len()], row_bytes: vec![0.0; graph.len()] };
    let consumers = graph.consumer_counts();
    let mut unserved = consumers.clone();
    let lazy = lazy_nodes(graph, fusion, roots);
    let _phase = kfusion_trace::host_span("host", "functional_phase");
    for (level, wave) in wavefronts(graph).into_iter().enumerate() {
        let _wave = kfusion_trace::enabled()
            .then(|| kfusion_trace::host_span("host", &format!("wave#{level}")));
        // Operators that need stored rows get them before the wave's threads
        // share the slots: views among their inputs are materialized (once,
        // whoever asks first), then in-place operators take what they may.
        let mut stolen = Vec::with_capacity(wave.len());
        for &id in &wave {
            let began = std::time::Instant::now();
            let host = graph.nodes[id].kind.traits().host;
            for &p in &graph.nodes[id].inputs {
                // A keyed AGGREGATE folds runs of base rows, so a filtered
                // view is gathered for it too — here, into the slot, where a
                // later reader finds the same rows rather than gathers again.
                let filtered = matches!(&slots.vals[p], Some(NodeVal::View(v)) if !v.is_dense());
                let needs_rows = match host {
                    Host::View => false,
                    Host::ReadsViews => filtered,
                    Host::InPlace | Host::Stored => true,
                };
                if needs_rows {
                    slots.force(p);
                }
            }
            stolen.push(steal_input(graph, id, roots, &consumers, &mut slots));
            host_secs[id] = began.elapsed().as_secs_f64();
        }
        let eval = |id: NodeId, st: Option<Relation>| {
            eval_node_timed(graph, id, inputs, &slots.vals, st, lazy[id])
        };
        let evaluated: Vec<Result<(NodeVal<'a>, f64), CoreError>> = if wave.len() == 1 {
            vec![eval(wave[0], stolen.pop().expect("one per node"))]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = wave
                    .iter()
                    .zip(stolen)
                    .map(|(&id, st)| scope.spawn(move || eval(id, st)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("plan node evaluation panicked"))
                    .collect()
            })
        };
        for (&id, r) in wave.iter().zip(evaluated) {
            let (val, secs) = r?;
            let (rows, row_bytes) = val.size();
            cards.rows[id] = rows as u64;
            cards.row_bytes[id] = row_bytes as f64;
            host_secs[id] += secs;
            if matches!(val, NodeVal::View(_)) {
                kfusion_trace::counter("kfusion_host_views_total", 1);
            }
            slots.put(id, val);
        }
        // A value nobody will read again is dropped now, not when the query
        // ends (requested roots stay; `graph.root` counts itself a consumer).
        for &id in &wave {
            for &p in &graph.nodes[id].inputs {
                unserved[p] -= 1;
                if unserved[p] == 0 && !roots.contains(&p) {
                    slots.take(p);
                }
            }
        }
    }
    kfusion_trace::counter("kfusion_host_live_bytes_peak_total", slots.peak_bytes);
    Ok(Measured { slots, cards, host_secs })
}

/// Evaluate one node under a host trace span, returning the relation and
/// the wall-clock seconds the evaluation took (the EXPLAIN tree's
/// `host=` column). Runs on the wave's thread, so parallel nodes land on
/// distinct host lanes.
fn eval_node_timed<'a>(
    graph: &PlanGraph,
    id: NodeId,
    inputs: &'a [Relation],
    slots: &[Option<NodeVal<'a>>],
    stolen: Option<Relation>,
    lazy: bool,
) -> Result<(NodeVal<'a>, f64), CoreError> {
    let _span = kfusion_trace::enabled().then(|| {
        let name = format!("{}#{id}", graph.nodes[id].kind.name().to_lowercase());
        kfusion_trace::host_span("host", &name)
    });
    let t0 = std::time::Instant::now();
    let rel = eval_node(graph, id, inputs, slots, stolen, lazy)?;
    Ok((rel, t0.elapsed().as_secs_f64()))
}

/// If node `id` may consume its first input in place — it has an in-place
/// variant, the input is an owned intermediate (never a plan input or a
/// requested root), and `id` is its only consumer — take the relation out
/// of the slot and hand it over. The stolen slot stays `None`; its
/// cardinality was recorded when it filled.
fn steal_input(
    graph: &PlanGraph,
    id: NodeId,
    roots: &[NodeId],
    consumers: &[usize],
    slots: &mut Slots<'_>,
) -> Option<Relation> {
    let node = &graph.nodes[id];
    if node.kind.traits().host != Host::InPlace {
        return None;
    }
    let p = *node.inputs.first()?;
    if consumers[p] != 1 || roots.contains(&p) {
        return None;
    }
    match slots.take(p) {
        Some(NodeVal::Owned(shared)) => match Arc::try_unwrap(shared) {
            Ok(rel) => Some(rel),
            Err(shared) => {
                slots.put(p, NodeVal::Owned(shared));
                None
            }
        },
        other => {
            slots.vals[p] = other;
            None
        }
    }
}

/// Partition node ids into topological wavefronts: level 0 holds nodes with
/// no inputs, level `k` the nodes whose deepest input sits at `k - 1`. All
/// nodes of one wave depend only on earlier waves, so a wave may evaluate
/// in parallel. Ids within a wave stay ascending.
fn wavefronts(graph: &PlanGraph) -> Vec<Vec<NodeId>> {
    let mut level = vec![0usize; graph.len()];
    let mut waves: Vec<Vec<NodeId>> = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        let l = node.inputs.iter().map(|&p| level[p] + 1).max().unwrap_or(0);
        level[id] = l;
        if waves.len() <= l {
            waves.resize_with(l + 1, Vec::new);
        }
        waves[l].push(id);
    }
    waves
}

/// Evaluate one plan node; `slots` must hold the results of all its inputs
/// (guaranteed by wavefront order), stored ones unless the operator reads
/// views. A `lazy` node's output stays a view; `stolen` is the input
/// [`steal_input`] took out of its slot for an in-place operator.
fn eval_node<'a>(
    graph: &PlanGraph,
    id: NodeId,
    inputs: &'a [Relation],
    slots: &[Option<NodeVal<'a>>],
    stolen: Option<Relation>,
    lazy: bool,
) -> Result<NodeVal<'a>, CoreError> {
    let node = &graph.nodes[id];
    let val = |i: usize| slots[node.inputs[i]].as_ref().expect("input wave completed");
    let get = |i: usize| val(i).as_rel();
    let owned = |rel: Relation| NodeVal::Owned(Arc::new(rel));
    // The operators that are `materialize ∘ view-op`: inside a fused group
    // the gather is left to whoever first needs the rows.
    let finish = |view: View<'a>| match lazy {
        true => NodeVal::View(view),
        false => owned(materialize(view)),
    };
    Ok(owned(match &node.kind {
        OpKind::Input { input } => {
            return inputs
                .get(*input)
                .map(NodeVal::Ref)
                .ok_or_else(|| CoreError::Unsupported(format!("missing plan input {input}")))
        }
        OpKind::Select { pred } => return Ok(finish(ops::select_view(&val(0).view(), pred)?)),
        OpKind::ColumnJoin => {
            return Ok(finish(ops::column_join_view(&val(0).view(), &val(1).view())?))
        }
        OpKind::Project { keep } => return Ok(finish(ops::project_view(&val(0).view(), keep)?)),
        // In place: a stolen single-consumer input is mutated rather than
        // copied. The owned variants compute the same relation as the
        // borrowing ones by construction (their tests compare the two).
        OpKind::Rekey { col } => match stolen {
            Some(rel) => ops::rekey_owned(rel, *col)?,
            None => ops::rekey(get(0), *col)?,
        },
        OpKind::ArithExtend { body } => match stolen {
            Some(rel) => ops::arith_extend_owned(rel, body)?,
            None => ops::arith_extend(get(0), body)?,
        },
        OpKind::Arith { body } => ops::arith_map(get(0), body)?,
        OpKind::Join => ops::join(get(0), get(1))?,
        OpKind::Semijoin => ops::semijoin(get(0), get(1))?,
        OpKind::Antijoin => ops::antijoin(get(0), get(1))?,
        OpKind::Product => ops::product(get(0), get(1))?,
        OpKind::Union => ops::union(get(0), get(1))?,
        OpKind::Intersect => ops::intersection(get(0), get(1))?,
        OpKind::Difference => ops::difference(get(0), get(1))?,
        OpKind::Aggregate { aggs } => ops::aggregate_by_key_view(&val(0).view(), aggs)?,
        OpKind::AggregateAll { aggs } => ops::aggregate_all(get(0), aggs)?,
        // An intermediate that is already in order is shared once more — the
        // same storage under two slots until the input's is released; a plan
        // input is borrowed, so it is copied.
        OpKind::Sort { by } => match val(0) {
            NodeVal::Owned(shared) => return Ok(NodeVal::Owned(ops::sort_shared(shared, *by)?)),
            input => ops::sort(input.as_rel(), *by)?,
        },
        OpKind::Unique => ops::unique(get(0))?,
    }))
}

#[cfg(test)]
mod tests {
    use super::super::singleton_plan;
    use super::*;
    use kfusion_relalg::ops::SortBy;
    use kfusion_relalg::{gen, predicates};

    /// A SORT that finds its input in order puts the same storage under a
    /// second slot; those bytes are live once, however many slots hold them.
    #[test]
    fn an_ordered_sort_shares_storage_that_is_live_once() {
        let select_then_sort = |by: SortBy| {
            let mut g = PlanGraph::new();
            let i = g.input(0);
            let kept = g.add(OpKind::Select { pred: predicates::key_lt(1 << 40) }, vec![i]);
            let sorted = g.add(OpKind::Sort { by }, vec![kept]);
            (g, kept, sorted)
        };
        let input = gen::sorted_table(10_000, 2, 1);
        let (g, kept, sorted) = select_then_sort(SortBy::Key);
        let plan = singleton_plan(&g);
        for roots in [vec![sorted], vec![kept, sorted]] {
            let m = functional_phase(&g, std::slice::from_ref(&input), &roots, &plan).unwrap();
            assert_eq!(m.slots.peak_bytes, input.total_bytes(), "{roots:?}");
            assert_eq!(m.slots.live_bytes, input.total_bytes(), "{roots:?}");
            assert_eq!(m.slots.vals[sorted].as_ref().unwrap().as_rel(), &input);
            assert_eq!(m.slots.vals[kept].is_some(), roots.contains(&kept));
        }
        // Out of order, the SORT's rows are its own and both relations live.
        let (g, _, desc) = select_then_sort(SortBy::KeyDesc);
        let plan = singleton_plan(&g);
        let m = functional_phase(&g, std::slice::from_ref(&input), &[desc], &plan).unwrap();
        assert_eq!(m.slots.peak_bytes, 2 * input.total_bytes());
        assert_eq!(m.slots.live_bytes, input.total_bytes());
    }
}
