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
//! paper's fused kernels, a chain of loop members inside one group —
//! SELECT, ARITH+, REKEY and keyed AGGREGATE, each read by the next alone
//! ([`chains`]) — is one loop over its head's input, whose intermediates
//! stay in batch banks, as far as `ops::group_loop_view` can run it; the
//! member after a cut heads the rest. And a SORT by key whose rows only a
//! keyed AGGREGATE reads hands them on unmoved, with their groups, as a
//! SORT that finds a fused group's filtered view in order hands on the
//! view ([`lazy_nodes`]).

use super::Cardinalities;
use crate::fusion::FusionPlan;
use crate::graph::{Host, NodeId, OpKind, PlanGraph};
use crate::CoreError;
use kfusion_relalg::ops::{Member, SortBy, Stage};
use kfusion_relalg::{materialize, ops, Column, Relation, View};
use kfusion_trace::explain::Covered;
use kfusion_vgpu::exec::par_map;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// What the functional phase leaves behind: the relations still held when it
/// ends (the requested roots at least), every node's measured size, host
/// seconds, what each chain's loop covered and which views it gathered.
pub(super) struct Measured<'a> {
    pub(super) slots: Slots<'a>,
    pub(super) cards: Cardinalities,
    pub(super) host_secs: Vec<f64>,
    pub(super) covered: Vec<Option<Covered>>,
    pub(super) gathered: Vec<bool>,
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
    held.into_iter().flat_map(|r| stored_buffers(r)).collect()
}

/// The buffers of a stored relation, as `(address, bytes)`.
fn stored_buffers(r: &Relation) -> Vec<(usize, u64)> {
    let buffer = |ptr: usize, len: usize| (ptr, len as u64 * Column::BYTES_PER_VALUE);
    // Keys by row id are stored nowhere.
    let key = r.keys().stored().map(|key| buffer(key.as_ptr() as usize, key.len()));
    key.into_iter()
        .chain(r.cols.iter().map(|c| match c {
            Column::I64(v) => buffer(v.as_ptr() as usize, v.len()),
            Column::F64(v) => buffer(v.as_ptr() as usize, v.len()),
        }))
        .collect()
}

/// The buffers a chain's result for a later member holds until that
/// member's wave takes it.
fn stage_buffers(stage: &Result<Stage<'_>, kfusion_relalg::RelError>) -> Vec<(usize, u64)> {
    match stage {
        Ok(Stage::View(view)) => buffers(view),
        Ok(Stage::Folded(rel)) => stored_buffers(rel),
        Ok(Stage::Passed { .. }) | Err(_) => Vec::new(),
    }
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
    /// What a chain's head computed for each later member of its chain,
    /// until that member's wave takes it.
    ahead: Vec<Option<Result<Stage<'a>, kfusion_relalg::RelError>>>,
    /// Buffers handed to the running wave's operators: live until they
    /// return, though no slot holds them.
    lent: Vec<(usize, u64)>,
    peak_bytes: u64,
}

impl<'a> Slots<'a> {
    fn new(nodes: usize) -> Self {
        let vals = (0..nodes).map(|_| None).collect();
        let ahead = (0..nodes).map(|_| None).collect();
        Slots { vals, ahead, lent: Vec::new(), peak_bytes: 0 }
    }

    /// Bytes of the distinct buffers the slots, the results held for later
    /// chain members and the lent inputs hold — an ordered SORT's slot, a
    /// view, or a relation whose columns moved shares them with others, and
    /// those bytes are live once.
    fn live_bytes(&self) -> u64 {
        let mut live = self.lent.clone();
        live.extend(self.vals.iter().flatten().flat_map(buffers));
        live.extend(self.ahead.iter().flatten().flat_map(stage_buffers));
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
/// carrying their groups. This and [`chains`] are the fusion plan's
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

/// `kind` as a member of a group's loop (`ops::Member`), if it can be one.
fn member(kind: &OpKind) -> Option<Member<'_>> {
    Some(match kind {
        OpKind::Select { pred } => Member::Select(pred),
        OpKind::ArithExtend { body } => Member::ArithExtend(body),
        OpKind::Rekey { col } => Member::Rekey(*col),
        OpKind::Aggregate { aggs } => Member::Aggregate(aggs),
        _ => return None,
    })
}

/// Chains of a fused group's members, as the next member of each:
/// `next[p] = Some(c)` when `p` is a lazy loop member ([`lazy_nodes`],
/// [`member`]) whose one reader is `c`, a loop member of its own group. A
/// chain is a maximal such sequence: every member but the last is read by
/// the next alone, so it is one loop over its head's input, evaluated when
/// the head's wave comes; the later members then take what it computed for
/// them. What one loop covers is `ops::group_loop_view`'s to decide: it
/// runs the longest prefix it can, and the member after the cut heads the
/// rest in its own wave. Derived from the fusion plan alone, like
/// `lazy_nodes` — singleton groups have no chains.
fn chains(graph: &PlanGraph, fusion: &FusionPlan, lazy: &[Hold]) -> Vec<Option<NodeId>> {
    let readers = graph.consumer_counts();
    let is_member = |id: NodeId| member(&graph.nodes[id].kind).is_some();
    let mut next = vec![None; graph.len()];
    for (c, node) in graph.nodes.iter().enumerate() {
        let [p] = node.inputs[..] else { continue };
        let same_group = fusion.group_of[p] == fusion.group_of[c];
        if lazy[p] == Hold::View && readers[p] == 1 && same_group && is_member(p) && is_member(c) {
            next[p] = Some(c);
        }
    }
    next
}

/// Whether `kind` has its input `v` gathered into its slot before it runs,
/// decided here alone: a view that is no stored relation, for an operator
/// that needs stored rows; a filtered one, for ARITH+ and REKEY, when what
/// they write at base length would outweigh its rows ([`View::gathers_first`]).
/// Never a view grouped by a SORT, which its AGGREGATE folds and an ARITH+
/// extends where it is, nor one for an operator that reads views (SORT,
/// keyed AGGREGATE, AGGREGATE*). Operators gather only where they cannot
/// run: ARITH+'s interpreter, a COLUMN-JOIN's filtered side.
fn gathers_first(kind: &OpKind, v: &View<'_>) -> bool {
    if v.as_stored().is_some() {
        return false;
    }
    match kind.traits().host {
        Host::Stored => true,
        _ if v.is_grouped() => false,
        Host::ReadsViews => false,
        Host::View => match kind {
            OpKind::ArithExtend { body } => v.gathers_first(body.outputs.len()),
            OpKind::Rekey { .. } => v.gathers_first(1),
            // SELECT, PROJECT, SEMIJOIN and ANTIJOIN keep the selection or
            // narrow it; COLUMN-JOIN pairs base rows.
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
/// members share a loop ([`chains`]); it cannot change an answer, a
/// cardinality or an error, only how many rows are copied, written or read
/// on the way (DESIGN.md §17). A chain's loop runs in its head's wave; a
/// later member's error surfaces in that member's own wave.
pub(super) fn functional_phase<'a>(
    graph: &PlanGraph,
    inputs: &'a [Relation],
    roots: &[NodeId],
    fusion: &FusionPlan,
) -> Result<Measured<'a>, CoreError> {
    let mut slots = Slots::new(graph.len());
    let mut host_secs = vec![0.0f64; graph.len()];
    let mut covered = vec![None; graph.len()];
    let mut gathered = vec![false; graph.len()];
    // Cardinalities are captured the moment a slot fills: a value is handed
    // to its last reader and released after it — the timing phase still
    // needs every node's size.
    let mut cards = Cardinalities { rows: vec![0; graph.len()], row_bytes: vec![0.0; graph.len()] };
    let consumers = graph.consumer_counts();
    let mut unserved = consumers.clone();
    let lazy = lazy_nodes(graph, fusion, roots);
    let chains = chains(graph, fusion, &lazy);
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
            // A later member of a chain takes what its head computed for
            // it, and reads no input.
            if let Some(stage) = slots.ahead[id].take() {
                args.push((id, Work::Ahead { stage, lazy: lazy[id] == Hold::View }));
                continue;
            }
            let node = &graph.nodes[id];
            let mut hold = lazy[id];
            for &p in &node.inputs {
                let val = slots.vals[p].as_ref().expect("input wave completed");
                if gathers_first(&node.kind, val) {
                    let began = Instant::now();
                    slots.force(p);
                    host_secs[p] += began.elapsed().as_secs_f64();
                    gathered[p] = true;
                    // Exactly as if it had always needed stored rows.
                    hold = Hold::Stored;
                }
            }
            let last = |p: NodeId| consumers[p] == 1 && !roots.contains(&p);
            let mut vals: Vec<View<'a>> =
                node.inputs.iter().map(|&p| slots.lend(p, last(p))).collect();
            // A head whose input was gathered first runs alone, as if it
            // had always needed stored rows; its next member heads the rest.
            let work = match chains[id] {
                Some(_) if hold == lazy[id] => {
                    let chain = std::iter::successors(Some(id), |&m| chains[m]).collect();
                    Work::Chain { input: vals.pop().expect("a chain's head has one input"), chain }
                }
                _ => Work::Eval { args: vals, hold },
            };
            args.push((id, work));
        }
        let evaluated = par_map(args, |_, (id, work)| eval_node_guarded(graph, id, inputs, work));
        for (&id, r) in wave.iter().zip(evaluated) {
            let (filled, later, secs) = r?;
            if let Some(later) = later {
                covered[id] = Some(Covered::Loop(1 + later.len()));
                let mut member = id;
                for stage in later {
                    member = chains[member].expect("one result per later member of the chain");
                    covered[member] = Some(Covered::Passed);
                    slots.ahead[member] = Some(stage);
                }
            }
            host_secs[id] += secs;
            match filled {
                Filled::Held(val, view) => {
                    cards.rows[id] = val.len() as u64;
                    cards.row_bytes[id] = val.row_bytes() as f64;
                    if view {
                        kfusion_trace::counter("kfusion_host_views_total", 1);
                    }
                    slots.vals[id] = Some(val);
                }
                // A member a loop ran past holds nothing: only its size.
                Filled::Passed { rows, row_bytes } => {
                    cards.rows[id] = rows as u64;
                    cards.row_bytes[id] = row_bytes as f64;
                }
            }
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
    Ok(Measured { slots, cards, host_secs, covered, gathered })
}

/// What a wave's job does for one node.
enum Work<'a> {
    /// Evaluate the operator over its inputs' values ([`eval_node`]).
    Eval { args: Vec<View<'a>>, hold: Hold },
    /// Run the chain `chain` (this node first, [`chains`]) over this node's
    /// input: one loop covers as much of it as it can.
    Chain { input: View<'a>, chain: Vec<NodeId> },
    /// Take what the head of this node's chain computed for it.
    Ahead { stage: Result<Stage<'a>, kfusion_relalg::RelError>, lazy: bool },
}

/// A node's output as the functional phase records it: the value its slot
/// holds, and whether as a view (the hold `kfusion_host_views_total`
/// counts) — or, for a member a chain's loop ran past, its size alone.
enum Filled<'a> {
    Held(View<'a>, bool),
    Passed { rows: usize, row_bytes: u64 },
}

/// A node's output, what its chain's loop — if it heads one — computed for
/// the later members it covered, and the host seconds it took.
type Evaluated<'a> = (Filled<'a>, Option<Vec<Result<Stage<'a>, kfusion_relalg::RelError>>>, f64);

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
/// tree's `host=` column: a chain's loop is its head's, marked `loop(k)`
/// there and `passed` on the other members it covered). Runs on the
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
    let (filled, later) = match work {
        Work::Eval { args, hold } => {
            let (val, view) = eval_node(&graph.nodes[id].kind, inputs, args, hold)?;
            (Filled::Held(val, view), None)
        }
        Work::Ahead { stage, lazy } => (filled(stage?, lazy), None),
        Work::Chain { input, chain } => {
            let members: Vec<Member<'_>> = chain
                .iter()
                .map(|&m| member(&graph.nodes[m].kind).expect("chains are of the loop's members"))
                .collect();
            let mut stages = ops::group_loop_view(&input, &members).into_iter();
            // A chain's head is lazy: it has a reader in the chain.
            let head = stages.next().expect("a loop covers its chain's head")?;
            (filled(head, true), Some(stages.collect()))
        }
    };
    Ok((filled, later, t0.elapsed().as_secs_f64()))
}

/// What a chain's loop gave a member, as its slot holds it ([`held`]).
fn filled(stage: Stage<'_>, lazy: bool) -> Filled<'_> {
    let (val, view) = match stage {
        Stage::Passed { rows, row_bytes } => return Filled::Passed { rows, row_bytes },
        Stage::View(view) => held(view, lazy),
        Stage::Folded(rel) => held(rel.into(), lazy),
    };
    Filled::Held(val, view)
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
