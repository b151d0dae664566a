//! The functional phase: every plan node evaluated on real relations, on
//! host threads — the query answer, and the [`Cardinalities`] the timing
//! phase is sized from.
//!
//! Like the fused kernels it stands for, it writes no intermediate that
//! only members of one fusion group — and the SORT behind them — read
//! (DESIGN.md §17): which operators hand a view on and which read one is
//! the `host` column of [`OpKind::traits`]. Every intermediate with one
//! reader is handed to it by value, so a view that reader builds holds its
//! storage alone and [`materialize`] moves it rather than copies. Like the
//! paper's back-to-back filters in one kernel, a run of SELECTs inside one
//! group reads its rows once: its head evaluates the whole run in one pass
//! ([`select_runs`]). And a SORT by key whose rows only a keyed AGGREGATE
//! reads hands them on unmoved, with their groups, as a SORT that finds a
//! fused group's filtered view in order hands on the view ([`lazy_nodes`]).

use super::Cardinalities;
use crate::fusion::FusionPlan;
use crate::graph::{Host, NodeId, OpKind, PlanGraph};
use crate::CoreError;
use kfusion_ir::KernelBody;
use kfusion_relalg::ops::SortBy;
use kfusion_relalg::{materialize, ops, Column, Relation, View};
use kfusion_vgpu::exec::par_map;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// What the functional phase leaves behind: the relations still held when it
/// ends (the requested roots at least), every node's measured size, and host
/// seconds.
pub(super) struct Measured<'a> {
    pub(super) slots: Slots<'a>,
    pub(super) cards: Cardinalities,
    pub(super) host_secs: Vec<f64>,
}

/// The stored relation a slot holds — a plan input, or a computed relation
/// it is exactly ([`View::as_stored`]); views are forced before a storage
/// operator runs or a root is read.
pub(super) fn stored<'v>(val: &'v View<'_>) -> &'v Relation {
    val.as_stored().expect("views are forced before a storage operator runs")
}

/// The buffers of the intermediates `val` keeps alive, as `(address,
/// bytes)`: a column moved from one relation into another is the same
/// buffer in both.
fn buffers(val: &View<'_>) -> Vec<(usize, u64)> {
    let mut held: Vec<&Arc<Relation>> = val.shared_storage().collect();
    held.sort_unstable_by_key(|r| Arc::as_ptr(r));
    held.dedup_by(|a, b| Arc::ptr_eq(a, b));
    let buffer = |ptr: usize, len: usize| (ptr, len as u64 * Column::BYTES_PER_VALUE);
    let mut out = Vec::new();
    for r in held {
        // Keys by row id are stored nowhere.
        if let Some(key) = r.keys().stored() {
            out.push(buffer(key.as_ptr() as usize, key.len()));
        }
        out.extend(r.cols.iter().map(|c| match c {
            Column::I64(v) => buffer(v.as_ptr() as usize, v.len()),
            Column::F64(v) => buffer(v.as_ptr() as usize, v.len()),
        }));
    }
    out
}

/// The functional phase's per-node values, and the high-water mark of the
/// bytes of computed relations they — and the inputs lent to a running
/// wave — held. A plan input is held as a view of the caller's relation
/// (base tables are the largest relations in every TPC-H plan; they are
/// never copied), a computed relation as a view that shares it, so that
/// views over it stay valid after the slot is released or handed to
/// another wave's pool job; and the output of a fused-group member nobody
/// outside the group but a SORT reads, of a SORT that grouped its rows for
/// the AGGREGATE behind it, or of one that found such a member's filtered
/// view in order, as the view it is: references and a selection, gathered
/// only for a reader that needs stored or dense rows.
pub(super) struct Slots<'a> {
    pub(super) vals: Vec<Option<View<'a>>>,
    /// Buffers handed to the running wave's operators: live until they
    /// return, though no slot holds them.
    lent: Vec<(usize, u64)>,
    peak_bytes: u64,
}

impl<'a> Slots<'a> {
    fn new(nodes: usize) -> Self {
        Slots { vals: (0..nodes).map(|_| None).collect(), lent: Vec::new(), peak_bytes: 0 }
    }

    /// Bytes of the distinct buffers the slots and the lent inputs hold —
    /// an ordered SORT's slot, a view, or a relation whose columns moved
    /// shares them with others, and those bytes are live once.
    fn live_bytes(&self) -> u64 {
        let mut live = self.lent.clone();
        live.extend(self.vals.iter().flatten().flat_map(buffers));
        live.sort_unstable();
        live.dedup_by_key(|(ptr, _)| *ptr);
        live.iter().map(|(_, bytes)| bytes).sum()
    }

    /// Node `p`'s value for one of its readers: moved out of the slot when
    /// that reader is its last, shared otherwise.
    fn lend(&mut self, p: NodeId, last_reader: bool) -> View<'a> {
        let val = self.vals[p].as_ref().expect("input wave completed");
        if !last_reader {
            return val.clone();
        }
        self.lent.extend(buffers(val));
        self.vals[p].take().expect("checked above")
    }

    /// Give node `id`'s value real storage if it is not stored yet — the
    /// one gather a fused group pays, at the first member that needs rows.
    fn force(&mut self, id: NodeId) {
        let val = self.vals[id].take().expect("input wave completed");
        self.vals[id] = Some(match val.as_stored() {
            Some(_) => val,
            None => {
                let _span = kfusion_trace::enabled()
                    .then(|| kfusion_trace::host_span("host", &format!("materialize#{id}")));
                View::shared(Arc::new(materialize(val)))
            }
        });
    }
}

/// How a node's slot holds its output ([`lazy_nodes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// Stored: in rows of its own, or an intermediate it is exactly.
    Stored,
    /// The view it is. A SORT holds one only when it hands on a filtered
    /// input in the order asked for.
    View,
    /// A SORT by key's rows where they are, carrying their groups, when it
    /// found any instead of sorting (`ops::group_by_key_view`).
    Groups,
}

/// How each node's output is held. Views: the [`Host::View`] members
/// (SELECT, COLUMN-JOIN, PROJECT, ARITH+, REKEY, SEMIJOIN, ANTIJOIN) of a
/// fused group with other members, which no caller asked for and nothing
/// outside the group reads but an operator that reads views (SORT); and
/// each SORT no caller asked for that reads such a view, or another such
/// SORT — a filtered input it finds in order is handed on as it is, to
/// readers of any group, each gathering it first if it needs stored or
/// dense rows ([`gathers_first`]). Groups: each SORT by key whose rows only
/// a keyed AGGREGATE of a fused group reads, through such views of ARITH+
/// and PROJECT alone, which may hand them on in the order they are in,
/// carrying their groups. This and [`select_runs`] are the fusion plan's
/// only influence on the functional phase — a singleton plan marks
/// nothing, so the unfused strategies materialize and sort every node.
fn lazy_nodes(graph: &PlanGraph, fusion: &FusionPlan, roots: &[NodeId]) -> Vec<Hold> {
    let mut escapes = vec![false; graph.len()];
    let mut reader = vec![None; graph.len()];
    for (c, node) in graph.nodes.iter().enumerate() {
        for &p in &node.inputs {
            let outside = fusion.group_of[p] != fusion.group_of[c];
            escapes[p] |= outside && node.kind.traits().host != Host::ReadsViews;
            reader[p] = Some(c);
        }
    }
    for &r in roots {
        escapes[r] = true;
    }
    let fused = |id: NodeId| fusion.group_of[id].is_some_and(|g| fusion.groups[g].len() > 1);
    let mut lazy: Vec<Hold> = (0..graph.len())
        .map(|id| graph.nodes[id].kind.traits().host == Host::View && fused(id) && !escapes[id])
        .map(|view| if view { Hold::View } else { Hold::Stored })
        .collect();
    // Follow a SORT's rows while each node on the way is its input's one
    // reader, and no caller asked for the input.
    let readers = graph.consumer_counts();
    let only_reader = |p: NodeId| reader[p].filter(|_| readers[p] == 1 && !roots.contains(&p));
    let groups_for_aggregate = |sort: NodeId| {
        let mut id = sort;
        while let Some(c) = only_reader(id) {
            match graph.nodes[c].kind {
                OpKind::Aggregate { .. } => return fused(c),
                OpKind::ArithExtend { .. } | OpKind::Project { .. } if lazy[c] == Hold::View => {
                    id = c
                }
                _ => return false,
            }
        }
        false
    };
    let by_key = |id: NodeId| matches!(graph.nodes[id].kind, OpKind::Sort { by: SortBy::Key });
    let grouping: Vec<NodeId> =
        (0..graph.len()).filter(|&id| by_key(id) && groups_for_aggregate(id)).collect();
    for id in grouping {
        lazy[id] = Hold::Groups;
    }
    for (id, node) in graph.nodes.iter().enumerate() {
        let sort = matches!(node.kind, OpKind::Sort { .. }) && lazy[id] == Hold::Stored;
        if sort && !roots.contains(&id) && lazy[node.inputs[0]] != Hold::Stored {
            lazy[id] = Hold::View;
        }
    }
    lazy
}

/// Runs of SELECTs, as the next member of each: `next[s] = Some(c)` when
/// `s` is a lazy SELECT ([`lazy_nodes`]) whose one reader is the SELECT
/// `c` of its own group. A run is a maximal such chain: every member but
/// the last stays a view that only the next one reads, so the whole run is
/// one pass over its head's input (`ops::select_run_view`), evaluated when
/// the head's wave comes; each later member then takes its own view of it.
/// Derived from the fusion plan alone, like `lazy_nodes` — singleton
/// groups have no runs.
fn select_runs(graph: &PlanGraph, fusion: &FusionPlan, lazy: &[Hold]) -> Vec<Option<NodeId>> {
    let readers = graph.consumer_counts();
    let is_select = |id: NodeId| matches!(graph.nodes[id].kind, OpKind::Select { .. });
    let mut next = vec![None; graph.len()];
    for (c, node) in graph.nodes.iter().enumerate() {
        if let [p] = node.inputs[..] {
            let same_group = fusion.group_of[p] == fusion.group_of[c];
            let lazy = lazy[p] == Hold::View;
            if is_select(c) && is_select(p) && lazy && readers[p] == 1 && same_group {
                next[p] = Some(c);
            }
        }
    }
    next
}

/// Whether `kind` needs its input `val` gathered into its slot before it
/// runs: one that is no stored relation, for an operator that needs stored
/// rows; a filtered one,
/// for one that walks base rows in order (keyed AGGREGATE) or — ARITH+ and
/// REKEY — would write more bytes at base length than the view's rows hold,
/// or cannot run its kernel where the view is. A view grouped by a SORT
/// never is: its AGGREGATE folds it where it is, and an ARITH+ on the way
/// that gathers first does so itself, keeping the groups.
fn gathers_first(kind: &OpKind, v: &View<'_>) -> bool {
    if v.as_stored().is_some() {
        return false;
    }
    match kind.traits().host {
        Host::Stored => true,
        _ if v.is_grouped() => false,
        Host::ReadsDense => !v.is_dense(),
        Host::ReadsViews => false,
        Host::View => match kind {
            OpKind::ArithExtend { body } => ops::arith_extend_gathers_first(v, body),
            OpKind::Rekey { .. } => ops::rekey_gathers_first(v),
            // SELECT, PROJECT, SEMIJOIN and ANTIJOIN keep the selection or
            // narrow it; COLUMN-JOIN pairs base rows, and gathers a
            // filtered side itself.
            _ => false,
        },
    }
}

/// Evaluate every node of `graph` over `inputs`.
///
/// Independent nodes evaluate in parallel: each topological wavefront (a
/// node's level is one past its deepest input) is one job on the
/// process-wide pool ([`par_map`]), results land indexed by node id, and a
/// wave's errors surface in id order — so answers are deterministic and
/// identical to a serial loop. A node that panics fails the query with
/// [`CoreError::Internal`] ([`eval_node_guarded`]).
///
/// `fusion` decides which intermediates exist ([`lazy_nodes`]) and which
/// SELECTs share a pass ([`select_runs`]); it cannot change an answer, a
/// cardinality or an error, only how many rows are copied or read on the
/// way (DESIGN.md §17). A run's pass happens in its head's wave, but only
/// its batch-compiled stages, which cannot fail, run early.
pub(super) fn functional_phase<'a>(
    graph: &PlanGraph,
    inputs: &'a [Relation],
    roots: &[NodeId],
    fusion: &FusionPlan,
) -> Result<Measured<'a>, CoreError> {
    let mut slots = Slots::new(graph.len());
    let mut host_secs = vec![0.0f64; graph.len()];
    // Cardinalities are captured the moment a slot fills: a value is handed
    // to its last reader and released after it — the timing phase still
    // needs every node's size.
    let mut cards = Cardinalities { rows: vec![0; graph.len()], row_bytes: vec![0.0; graph.len()] };
    let consumers = graph.consumer_counts();
    let mut unserved = consumers.clone();
    let lazy = lazy_nodes(graph, fusion, roots);
    let runs = select_runs(graph, fusion, &lazy);
    // The views a run's head computed for the later members of its run.
    let mut ahead: Vec<Option<View<'a>>> = (0..graph.len()).map(|_| None).collect();
    let _phase = kfusion_trace::host_span("host", "functional_phase");
    for (level, wave) in wavefronts(graph).into_iter().enumerate() {
        let _wave = kfusion_trace::enabled()
            .then(|| kfusion_trace::host_span("host", &format!("wave#{level}")));
        // Each operator gets its inputs as values before the wave's job
        // starts: a view it cannot read where it is gathered into its slot
        // first (once, whoever asks first; booked to the view's own node),
        // then every input lent — moved to its last reader.
        let mut args = Vec::with_capacity(wave.len());
        for &id in &wave {
            let node = &graph.nodes[id];
            let mut hold = lazy[id];
            for &p in &node.inputs {
                let val = slots.vals[p].as_ref().expect("input wave completed");
                if gathers_first(&node.kind, val) {
                    let began = Instant::now();
                    slots.force(p);
                    host_secs[p] += began.elapsed().as_secs_f64();
                    // Exactly as if it had always needed stored rows.
                    hold = Hold::Stored;
                }
            }
            let last = |p: NodeId| consumers[p] == 1 && !roots.contains(&p);
            let mut vals: Vec<View<'a>> =
                node.inputs.iter().map(|&p| slots.lend(p, last(p))).collect();
            let work = match (ahead[id].take(), runs[id]) {
                (Some(view), _) => Work::Ahead { view, lazy: hold == Hold::View },
                (None, Some(_)) => {
                    let run = std::iter::successors(Some(id), |&m| runs[m]).collect();
                    Work::Run { input: vals.pop().expect("a SELECT has one input"), run }
                }
                (None, None) => Work::Eval { args: vals, hold },
            };
            args.push((id, work));
        }
        let evaluated = par_map(args, |_, (id, work)| eval_node_guarded(graph, id, inputs, work));
        for (&id, r) in wave.iter().zip(evaluated) {
            let ((val, view), later, secs) = r?;
            let mut member = id;
            for view in later {
                member = runs[member].expect("one view per later member of the run");
                ahead[member] = Some(view);
            }
            cards.rows[id] = val.len() as u64;
            cards.row_bytes[id] = val.row_bytes() as f64;
            host_secs[id] += secs;
            if view {
                kfusion_trace::counter("kfusion_host_views_total", 1);
            }
            slots.vals[id] = Some(val);
        }
        slots.peak_bytes = slots.peak_bytes.max(slots.live_bytes());
        slots.lent.clear();
        // A value nobody will read again is dropped now, not when the query
        // ends (requested roots stay; `graph.root` counts itself a consumer).
        for &id in &wave {
            for &p in &graph.nodes[id].inputs {
                unserved[p] -= 1;
                if unserved[p] == 0 && !roots.contains(&p) {
                    slots.vals[p] = None;
                }
            }
        }
    }
    kfusion_trace::counter("kfusion_host_live_bytes_peak_total", slots.peak_bytes);
    Ok(Measured { slots, cards, host_secs })
}

/// What a wave's job does for one node.
enum Work<'a> {
    /// Evaluate the operator over its inputs' values ([`eval_node`]).
    Eval { args: Vec<View<'a>>, hold: Hold },
    /// Evaluate the run of SELECTs `run` (this node first, [`select_runs`])
    /// over this node's input.
    Run { input: View<'a>, run: Vec<NodeId> },
    /// Hold the view the head of this SELECT's run computed for it.
    Ahead { view: View<'a>, lazy: bool },
}

/// A node's value as its slot holds it, the views it computed for the later
/// members of its run, and the host seconds it took.
type Evaluated<'a> = (Held<'a>, Vec<View<'a>>, f64);

/// The executor's panic boundary: [`eval_node_timed`] under
/// `catch_unwind`, a panic turned into [`CoreError::Internal`] naming the
/// node, so it fails this query and leaves the thread that ran it serving.
fn eval_node_guarded<'a>(
    graph: &PlanGraph,
    id: NodeId,
    inputs: &'a [Relation],
    work: Work<'a>,
) -> Result<Evaluated<'a>, CoreError> {
    std::panic::catch_unwind(AssertUnwindSafe(|| eval_node_timed(graph, id, inputs, work)))
        .unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a non-string payload");
            let node = format!("{}#{id}", graph.nodes[id].kind.name().to_lowercase());
            Err(CoreError::Internal(format!("{node} panicked: {message}")))
        })
}

/// Do a node's [`Work`] under a host trace span, timing it (the EXPLAIN
/// tree's `host=` column: a run's one pass is its head's). Runs on the
/// thread that claimed the node, so parallel nodes land on distinct host
/// lanes.
fn eval_node_timed<'a>(
    graph: &PlanGraph,
    id: NodeId,
    inputs: &'a [Relation],
    work: Work<'a>,
) -> Result<Evaluated<'a>, CoreError> {
    let _span = kfusion_trace::enabled().then(|| {
        let name = format!("{}#{id}", graph.nodes[id].kind.name().to_lowercase());
        kfusion_trace::host_span("host", &name)
    });
    let t0 = Instant::now();
    let (val, later) = match work {
        Work::Eval { args, hold } => {
            (eval_node(&graph.nodes[id].kind, inputs, args, hold)?, vec![])
        }
        Work::Ahead { view, lazy } => (held(view, lazy), vec![]),
        Work::Run { input, run } => {
            let preds: Vec<&KernelBody> = run
                .iter()
                .map(|&m| match &graph.nodes[m].kind {
                    OpKind::Select { pred } => pred,
                    _ => unreachable!("a run is SELECTs"),
                })
                .collect();
            let mut views = ops::select_run_view(&input, &preds)?.into_iter();
            // A run's head is lazy: it has a reader in the run.
            let head = views.next().expect("a run yields its head's view");
            ((head, true), views.collect())
        }
    };
    Ok((val, later, t0.elapsed().as_secs_f64()))
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

/// Evaluate one plan node over `args`, its inputs' values in order —
/// stored ones unless the operator reads views — and hold its output as
/// `hold` says: a view, or stored, sharing an intermediate it is exactly
/// rather than copying it.
fn eval_node<'a>(
    kind: &OpKind,
    inputs: &'a [Relation],
    args: Vec<View<'a>>,
    hold: Hold,
) -> Result<Held<'a>, CoreError> {
    let mut args = args.into_iter();
    let mut next = || args.next().expect("one value per input");
    // Each arm's inputs drop with the arm, so the result alone holds what
    // it was handed.
    let out: View<'a> = match kind {
        OpKind::Input { input } => {
            return inputs
                .get(*input)
                .map(|input| (View::of(input), false))
                .ok_or_else(|| CoreError::Unsupported(format!("missing plan input {input}")))
        }
        OpKind::Select { pred } => ops::select_view(&next(), pred)?,
        OpKind::ColumnJoin => ops::column_join_view(&next(), &next())?,
        OpKind::Project { keep } => ops::project_view(&next(), keep)?,
        OpKind::Rekey { col } => ops::rekey_view(&next(), *col)?,
        OpKind::ArithExtend { body } => ops::arith_extend_view(&next(), body)?,
        // A SORT that may hand on a view: grouped, or its filtered input in
        // order already, the rows stay where they are; sorted, they are
        // stored as any other SORT's.
        OpKind::Sort { by } if hold != Hold::Stored => {
            let input = next();
            let out = match hold {
                Hold::Groups => ops::group_by_key_view(&input)?,
                _ => ops::sort_view(&input, *by)?,
            };
            let stays = out.is_grouped() || !out.is_dense();
            return Ok(held(out, stays));
        }
        // In order already, the input comes back: a stored intermediate is
        // shared once more, a plan input (borrowed) copied, a view gathered.
        OpKind::Sort { by } => ops::sort_view(&next(), *by)?,
        OpKind::Aggregate { aggs } => ops::aggregate_by_key_view(&next(), aggs)?.into(),
        OpKind::AggregateAll { aggs } => ops::aggregate_all_view(&next(), aggs)?.into(),
        OpKind::Arith { body } => ops::arith_map(stored(&next()), body)?.into(),
        OpKind::Join => ops::join(stored(&next()), stored(&next()))?.into(),
        OpKind::Semijoin => ops::semijoin_view(&next(), &next())?,
        OpKind::Antijoin => ops::antijoin_view(&next(), &next())?,
        OpKind::Product => ops::product(stored(&next()), stored(&next()))?.into(),
        OpKind::Union => ops::union(stored(&next()), stored(&next()))?.into(),
        OpKind::Intersect => ops::intersection(stored(&next()), stored(&next()))?.into(),
        OpKind::Difference => ops::difference(stored(&next()), stored(&next()))?.into(),
        OpKind::Unique => ops::unique(stored(&next()))?.into(),
    };
    Ok(held(out, hold != Hold::Stored))
}

/// A node's output as its slot holds it, and whether that is as a view
/// (the hold `kfusion_host_views_total` counts).
type Held<'a> = (View<'a>, bool);

/// A node's output as its slot holds it: the view itself when it stays
/// one, storage otherwise — sharing an intermediate the view is exactly
/// rather than copying it.
fn held(out: View<'_>, view: bool) -> Held<'_> {
    match view {
        true => (out, true),
        false => (View::shared(out.into_shared()), false),
    }
}

#[cfg(test)]
mod tests {
    use super::super::singleton_plan;
    use super::*;
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
            assert_eq!(m.slots.live_bytes(), input.total_bytes(), "{roots:?}");
            assert_eq!(stored(m.slots.vals[sorted].as_ref().unwrap()), &input);
            assert_eq!(m.slots.vals[kept].is_some(), roots.contains(&kept));
        }
        // Out of order, the SORT's rows are its own and both relations live
        // — the input handed to the SORT counts until the SORT returns.
        let (g, _, desc) = select_then_sort(SortBy::KeyDesc);
        let plan = singleton_plan(&g);
        let m = functional_phase(&g, std::slice::from_ref(&input), &[desc], &plan).unwrap();
        assert_eq!(m.slots.peak_bytes, 2 * input.total_bytes());
        assert_eq!(m.slots.live_bytes(), input.total_bytes());
    }
}
