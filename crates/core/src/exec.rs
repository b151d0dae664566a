//! The plan executor: functional evaluation plus simulated timing under the
//! paper's optimization strategies.
//!
//! Execution is two-phase. The **functional phase** evaluates every node of
//! the [`PlanGraph`] on real relations (host threads), which both produces
//! the query answer and measures every intermediate cardinality — and, like
//! the fused kernels it stands for, writes no intermediate that only
//! members of one fusion group read (DESIGN.md §17). The
//! **timing phase** then emits the strategy's command stream — whose kernel
//! profiles and transfer sizes are driven by those [`Cardinalities`] — and
//! runs it through the virtual GPU's discrete-event simulator. The seam is
//! public: [`simulate_given`] runs the timing phase alone over cardinalities
//! the caller supplies, which is how the micro-figures sweep to data sets no
//! host could materialize.
//!
//! This module is the only place a strategy becomes `vgpu` commands.
//! Strategies mirror the paper's evaluation (§V):
//!
//! * [`Strategy::Serial`] — the "not optimized" baseline: one kernel set
//!   per operator, intermediates resident in GPU memory.
//! * [`Strategy::SerialRoundTrip`] — additionally bounces every
//!   intermediate through the CPU (forced when GPU memory is short).
//! * [`Strategy::Fusion`] — kernels merged per the fusion pass.
//! * [`Strategy::Fission`] — unfused kernels whose streamable regions are
//!   segmented and pipelined over [`FISSION_STREAMS`] streams (Fig. 13).
//! * [`Strategy::FusionFission`] — the same pipeline over fused kernels
//!   (Fig. 15; the paper's combined optimization on Q1/Q21).

use crate::cost::{group_regs, member_instr, FusionBudget};
use crate::deps::streamable;
use crate::fusion::{fuse_plan, FusionPlan};
use crate::graph::{NodeId, OpKind, PlanGraph};
use crate::report::Report;
use crate::CoreError;
use kfusion_ir::fuse::fuse_predicate_chain;
use kfusion_ir::opt::OptLevel;
use kfusion_relalg::profiles::{
    self, FILTER_BOOKKEEPING_BYTES, FILTER_STAGE_INSTR, STREAM_MEM_EFF,
};
use kfusion_relalg::{materialize, ops, Relation, View};
use kfusion_vgpu::des::EventId;
use kfusion_vgpu::{
    segment, Command, CommandClass, Direction, GpuSystem, HostMemKind, KernelProfile, LaunchConfig,
    Schedule,
};
use std::sync::Arc;

/// Execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Unfused kernels, intermediates stay on the GPU ("not optimized").
    Serial,
    /// Unfused kernels, every intermediate round-trips over PCIe.
    SerialRoundTrip,
    /// Kernel fusion only.
    Fusion,
    /// Kernel fission only: unfused kernels, streamable regions pipelined.
    Fission {
        /// Segments per pipelined region.
        segments: u32,
    },
    /// Kernel fusion plus fission on streamable regions.
    FusionFission {
        /// Segments per pipelined region.
        segments: u32,
    },
}

impl Strategy {
    /// Whether the strategy runs the fusion pass; otherwise every operator
    /// is its own kernel group.
    pub fn fuses(self) -> bool {
        matches!(self, Strategy::Fusion | Strategy::FusionFission { .. })
    }
}

/// Streams a fission pipeline rotates its segments over — the paper's
/// minimum for full C2070 concurrency (§IV-B: one stream downloading, one
/// computing, one uploading).
pub const FISSION_STREAMS: usize = 3;

/// Host-side reassembly bandwidth (bytes/s) of the CPU gather that
/// concatenates a pipeline's per-segment results (§IV-C).
pub const CPU_GATHER_BW: f64 = 4.0e9;

/// Minimum bytes per fission segment for a pipeline to pay off.
pub const MIN_SEGMENT_BYTES: u64 = 256 * 1024;

/// Host memory kind of the synchronous transfers (fission always pins).
pub const MEM_KIND: HostMemKind = HostMemKind::Paged;

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Strategy to simulate.
    pub strategy: Strategy,
    /// Optimization level for IR bodies.
    pub level: OptLevel,
    /// Register budget for the fusion pass.
    pub budget: FusionBudget,
}

impl ExecConfig {
    /// A configuration for `strategy` with paper defaults (O3, paged
    /// synchronous transfers, device register budget).
    pub fn new(strategy: Strategy, system: &GpuSystem) -> Self {
        ExecConfig { strategy, level: OptLevel::O3, budget: FusionBudget::for_device(&system.spec) }
    }
}

/// The outcome of an execution: the real answer plus the simulated report.
#[derive(Debug)]
pub struct ExecResult {
    /// The query result (root node's relation).
    pub output: Relation,
    /// Simulated timing.
    pub report: Report,
    /// `EXPLAIN ANALYZE` tree: per-node rows, simulated time, host time,
    /// fusion-group membership, and register pressure.
    pub explain: kfusion_trace::explain::ExplainNode,
    /// The fusion plan used (singleton groups under serial strategies).
    pub fusion: FusionPlan,
    /// Peak simulated GPU-memory residency with intermediates kept on the
    /// device (a liveness scan over the topological order: inputs resident
    /// from upload, each output allocated at its definition and released
    /// after its last consumer).
    pub peak_resident_bytes: u64,
    /// Every node's measured output size — what the timing phase was sized
    /// from, and the same under every strategy and host engine.
    pub cards: Cardinalities,
}

/// Per-node cardinalities — `rows[id]` tuples of `row_bytes[id]` bytes at
/// plan node `id` — from which the timing phase sizes every transfer and
/// kernel. Either *measured* by the functional phase ([`execute`],
/// [`plan_schedule`]) or *given* by the caller ([`simulate_given`]) for
/// workloads too large to materialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Cardinalities {
    /// Tuples produced by each node.
    pub rows: Vec<u64>,
    /// Logical bytes per tuple of each node's output.
    pub row_bytes: Vec<f64>,
}

impl Cardinalities {
    /// Bytes of node `id`'s output.
    pub fn bytes(&self, id: NodeId) -> u64 {
        (self.rows[id] as f64 * self.row_bytes[id]).ceil() as u64
    }
}

/// Execute `graph` over `inputs` on `system` with `cfg`.
pub fn execute(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
) -> Result<ExecResult, CoreError> {
    single_root(run_plan(system, graph, inputs, cfg, &[graph.root], None)?)
}

/// Run the compile-side pipeline alone — verify, then fuse at `cfg.level`
/// under `cfg.budget` — and return the [`FusionPlan`] it settles on. This
/// is the expensive per-*shape* half of an execution; `kfusion-server`
/// caches its result behind an `Arc` so concurrent submissions of
/// structurally identical plans pay it once.
///
/// Unfused strategies get the singleton plan the executor would build for
/// them, so a cached plan is valid for exactly the `(strategy-class,
/// budget, level)` it was prepared under.
pub fn prepare_fusion(graph: &PlanGraph, cfg: &ExecConfig) -> Result<FusionPlan, CoreError> {
    crate::check::check_plan(graph)?;
    let _span =
        kfusion_trace::enabled().then(|| kfusion_trace::host_span("host", "prepare_fusion"));
    Ok(if cfg.strategy.fuses() {
        fuse_plan(graph, &cfg.budget, cfg.level)
    } else {
        singleton_plan(graph)
    })
}

/// The device schedule [`execute`] would simulate for `(graph, inputs,
/// cfg)`, without simulating it — the compile-side artifact the static
/// schedule certifier (`kfusion-model::certify`) proves deadlock-freedom
/// and memory bounds over.
///
/// Runs the functional phase (schedules are sized from real cardinalities,
/// so certifying a schedule certifies it for the actual data, not a guess)
/// and the fusion pipeline, then builds the schedule exactly as execution
/// would.
pub fn plan_schedule(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
) -> Result<Schedule, CoreError> {
    let fusion = prepare_fusion(graph, cfg)?;
    let roots = [graph.root];
    let measured = functional_phase(graph, inputs, &roots, &fusion)?;
    Ok(build_schedule(system, graph, &fusion, &measured.cards, cfg, &roots))
}

/// [`plan_schedule`] over *given* cardinalities: no relation is generated
/// or evaluated, so `cards` may describe data far beyond host memory.
pub fn schedule_given(
    system: &GpuSystem,
    graph: &PlanGraph,
    cards: &Cardinalities,
    cfg: &ExecConfig,
) -> Result<Schedule, CoreError> {
    if cards.rows.len() != graph.len() || cards.row_bytes.len() != graph.len() {
        return Err(CoreError::Unsupported(format!(
            "cardinalities cover {} nodes, the plan has {}",
            cards.rows.len().min(cards.row_bytes.len()),
            graph.len()
        )));
    }
    let fusion = prepare_fusion(graph, cfg)?;
    Ok(build_schedule(system, graph, &fusion, cards, cfg, &[graph.root]))
}

/// The timing phase alone: build the schedule [`execute`] would build had
/// the functional phase measured `cards`, and simulate it.
pub fn simulate_given(
    system: &GpuSystem,
    graph: &PlanGraph,
    cards: &Cardinalities,
    cfg: &ExecConfig,
) -> Result<Report, CoreError> {
    let schedule = schedule_given(system, graph, cards, cfg)?;
    Ok(plan_report(graph, cards, system.simulate(&schedule)?))
}

/// [`execute`], but with the compile-side pipeline already done: `fusion`
/// must come from [`prepare_fusion`] on a structurally identical graph
/// under the same `cfg`. The full plan check is skipped (it ran in
/// `prepare_fusion`); only the cheap structural validation repeats.
///
/// The functional phase reads `fusion` to decide which intermediates are
/// materialized (DESIGN.md §17), so the answer no longer ignores it by
/// construction. Two things keep it byte-identical to an uncached
/// [`execute`] all the same: a plan that is not a partition of *this*
/// graph's operators ([`FusionPlan::covers`]) is set aside and recompiled,
/// and under any partition whatsoever a view and the relation it stands
/// for hold the same tuples — which `tests/strategy_equivalence.rs` and
/// `tests/engine_equivalence.rs` check cell by cell. A wrong plan can cost
/// time, never an answer.
pub fn execute_prepared(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
    fusion: &FusionPlan,
) -> Result<ExecResult, CoreError> {
    single_root(run_plan(system, graph, inputs, cfg, &[graph.root], Some(fusion))?)
}

/// Multi-root execution used by [`crate::multiquery`]: same engine, one
/// output per requested root.
pub(crate) fn execute_multi_impl(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
    roots: &[NodeId],
    prepared: Option<&FusionPlan>,
) -> Result<crate::multiquery::MultiResult, CoreError> {
    let PlanRun { outputs, report, fusion, cards, .. } =
        run_plan(system, graph, inputs, cfg, roots, prepared)?;
    Ok(crate::multiquery::MultiResult { outputs, report, fusion, cards })
}

/// What [`run_plan`] hands back: [`ExecResult`] with one output per root.
struct PlanRun {
    outputs: Vec<Relation>,
    report: Report,
    explain: kfusion_trace::explain::ExplainNode,
    fusion: FusionPlan,
    peak_resident_bytes: u64,
    cards: Cardinalities,
}

fn single_root(run: PlanRun) -> Result<ExecResult, CoreError> {
    let PlanRun { mut outputs, report, explain, fusion, peak_resident_bytes, cards } = run;
    let output = outputs.pop().expect("one root");
    Ok(ExecResult { output, report, explain, fusion, peak_resident_bytes, cards })
}

/// The shared engine: functional phase, fusion, schedule, simulate. Returns
/// the relations at `roots` (in order) plus the report, the explain tree
/// (rooted at `roots[0]`), the fusion plan, and peak residency.
fn run_plan(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
    roots: &[NodeId],
    prepared: Option<&FusionPlan>,
) -> Result<PlanRun, CoreError> {
    // The full plan verifier runs — body typing, column bounds, sortedness
    // preconditions — so executor and simulator only ever see plans that
    // cannot trip their own asserts.
    // A prepared fusion plan certifies the full check already ran (in
    // `prepare_fusion`) on this structure; only the cheap validation stays.
    // The plan steers how the functional phase computes the answer, so one
    // that does not partition *this* graph's operators (a cache-key
    // collision) is set aside and recompiled: it costs time, nothing else.
    let fusion = match prepared {
        Some(p) if p.covers(graph) => {
            graph.validate()?;
            p.clone()
        }
        _ => prepare_fusion(graph, cfg)?,
    };
    let Measured { slots, cards, host_secs } = functional_phase(graph, inputs, roots, &fusion)?;
    let timeline = {
        let _phase = kfusion_trace::host_span("host", "timing_phase");
        system.simulate(&build_schedule(system, graph, &fusion, &cards, cfg, roots))?
    };
    let peak_resident_bytes = peak_resident_bytes(graph, &cards);
    let outputs: Vec<Relation> = roots
        .iter()
        .map(|&r| slots.vals[r].as_ref().expect("roots are never released").as_rel().clone())
        .collect();
    let measurements =
        crate::explain::NodeMeasurements { rows: &cards.rows, host_seconds: &host_secs };
    let explain = crate::explain::build_explain(
        graph,
        &fusion,
        &timeline,
        &measurements,
        cfg.level,
        roots[0],
    );
    let report = plan_report(graph, &cards, timeline);
    Ok(PlanRun { outputs, report, explain, fusion, peak_resident_bytes, cards })
}

/// A timeline's report, with the figures' x-axis (plan-input elements) and
/// throughput numerator (plan-input bytes) taken from `cards`.
fn plan_report(
    graph: &PlanGraph,
    cards: &Cardinalities,
    timeline: kfusion_vgpu::Timeline,
) -> Report {
    let elements = plan_inputs(graph).map(|i| cards.rows[i]).sum();
    let input_bytes = plan_inputs(graph).map(|i| cards.bytes(i) as f64).sum();
    Report::new(timeline, elements, input_bytes)
}

/// Ids of the plan's `Input` leaves, ascending.
fn plan_inputs(graph: &PlanGraph) -> impl Iterator<Item = NodeId> + '_ {
    (0..graph.len()).filter(|&id| matches!(graph.nodes[id].kind, OpKind::Input { .. }))
}

/// What the functional phase leaves behind: the relations still held when it
/// ends (the requested roots at least), every node's measured size, and host
/// seconds.
struct Measured<'a> {
    slots: Slots<'a>,
    cards: Cardinalities,
    host_secs: Vec<f64>,
}

/// A functional-phase slot value.
enum NodeVal<'a> {
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
    fn as_rel(&self) -> &Relation {
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
struct Slots<'a> {
    vals: Vec<Option<NodeVal<'a>>>,
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

/// Whether an operator's result can be described by reference — its input's
/// columns under a narrower selection or in another arrangement.
fn yields_view(kind: &OpKind) -> bool {
    matches!(kind, OpKind::Select { .. } | OpKind::ColumnJoin | OpKind::Project { .. })
}

/// Whether an operator works on views: it reads its inputs through
/// [`NodeVal::view`] and never needs them materialized. Keyed AGGREGATE
/// does — it folds the key and the columns its aggregates name where they
/// are, once a view that carries a selection has been forced — though what
/// it produces is new rows.
fn reads_views(kind: &OpKind) -> bool {
    yields_view(kind) || matches!(kind, OpKind::Aggregate { .. })
}

/// The nodes whose output stays a view: SELECT, COLUMN-JOIN and PROJECT
/// members of a fused group whose every consumer is in the same group, and
/// which no caller asked for. This is the fusion plan's only influence on
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
        .map(|id| yields_view(&graph.nodes[id].kind) && inside[id] && !outside[id])
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
fn functional_phase<'a>(
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
            let kind = &graph.nodes[id].kind;
            for &p in &graph.nodes[id].inputs {
                // A keyed AGGREGATE folds runs of base rows, so a filtered
                // view is gathered for it too — here, into the slot, where a
                // later reader finds the same rows rather than gathers again.
                let filtered = matches!(&slots.vals[p], Some(NodeVal::View(v)) if !v.is_dense());
                if !reads_views(kind) || (filtered && matches!(kind, OpKind::Aggregate { .. })) {
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
    if !matches!(node.kind, OpKind::ArithExtend { .. } | OpKind::Rekey { .. }) {
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
/// (guaranteed by wavefront order), stored ones unless the operator
/// [`reads_views`]. A `lazy` node's output stays a view.
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
    if let OpKind::Input { input } = &node.kind {
        return inputs
            .get(*input)
            .map(NodeVal::Ref)
            .ok_or_else(|| CoreError::Unsupported(format!("missing plan input {input}")));
    }
    let owned = |rel: Relation| NodeVal::Owned(Arc::new(rel));
    // In-place fast paths: a stolen single-consumer input is mutated rather
    // than copied. The owned variants compute the same relation as the
    // borrowing ones by construction (their tests compare the two).
    if let Some(rel) = stolen {
        return Ok(owned(match &node.kind {
            OpKind::ArithExtend { body } => ops::arith_extend_owned(rel, body)?,
            OpKind::Rekey { col } => ops::rekey_owned(rel, *col)?,
            _ => unreachable!("steal_input only feeds in-place operators"),
        }));
    }
    // The operators that are `materialize ∘ view-op`: inside a fused group
    // the gather is left to whoever first needs the rows.
    let finish = |view: View<'a>| match lazy {
        true => NodeVal::View(view),
        false => owned(materialize(view)),
    };
    Ok(owned(match &node.kind {
        OpKind::Input { .. } => unreachable!("handled above"),
        OpKind::Select { pred } => return Ok(finish(ops::select_view(&val(0).view(), pred)?)),
        OpKind::ColumnJoin => {
            return Ok(finish(ops::column_join_view(&val(0).view(), &val(1).view())?))
        }
        OpKind::Project { keep } => return Ok(finish(ops::project_view(&val(0).view(), keep)?)),
        OpKind::Rekey { col } => ops::rekey(get(0), *col)?,
        OpKind::Arith { body } => ops::arith_map(get(0), body)?,
        OpKind::ArithExtend { body } => ops::arith_extend(get(0), body)?,
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

/// Peak simulated GPU-memory residency (bytes) of executing `graph` with
/// every intermediate kept on the device: plan inputs stay resident from
/// upload, each node's output is allocated at its definition and released
/// after its last consumer — a liveness scan over the topological order,
/// exercised against [`kfusion_vgpu::DeviceMemory`] in the tests.
fn peak_resident_bytes(graph: &PlanGraph, cards: &Cardinalities) -> u64 {
    let mut remaining = graph.consumer_counts();
    let mut mem = kfusion_vgpu::DeviceMemory::new(u64::MAX);
    let mut live: Vec<Option<kfusion_vgpu::memory::AllocId>> = vec![None; graph.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        if matches!(node.kind, OpKind::Input { .. }) {
            live[id] = Some(mem.alloc(cards.bytes(id)).expect("unbounded tracker"));
        }
    }
    for (id, node) in graph.nodes.iter().enumerate() {
        if matches!(node.kind, OpKind::Input { .. }) {
            continue;
        }
        live[id] = Some(mem.alloc(cards.bytes(id)).expect("unbounded tracker"));
        for &p in &node.inputs {
            remaining[p] -= 1;
            if remaining[p] == 0 && p != graph.root {
                if let Some(a) = live[p].take() {
                    mem.release(a).expect("allocation is live");
                }
            }
        }
    }
    mem.high_water()
}

/// Execute with the paper's §III-B memory rule applied automatically: keep
/// intermediates resident ([`Strategy::Serial`]) when they fit the device,
/// fall back to [`Strategy::SerialRoundTrip`] when they do not ("it has to
/// be used when there is insufficient space on the GPU for storing the
/// intermediate results of the executed kernels"). Returns the chosen
/// strategy alongside the result.
pub fn execute_auto_serial(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
) -> Result<(Strategy, ExecResult), CoreError> {
    let probe = execute(system, graph, inputs, &ExecConfig::new(Strategy::Serial, system))?;
    if probe.peak_resident_bytes <= system.spec.mem_capacity {
        return Ok((Strategy::Serial, probe));
    }
    let r = execute(system, graph, inputs, &ExecConfig::new(Strategy::SerialRoundTrip, system))?;
    Ok((Strategy::SerialRoundTrip, r))
}

fn singleton_plan(graph: &PlanGraph) -> FusionPlan {
    let mut groups = Vec::new();
    let mut group_of = vec![None; graph.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        if !matches!(node.kind, OpKind::Input { .. }) {
            group_of[id] = Some(groups.len());
            groups.push(vec![id]);
        }
    }
    FusionPlan { group_of, groups }
}

/// The kernels of one *unfused* operator, with element counts.
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
    match &node.kind {
        OpKind::Input { .. } => vec![],
        OpKind::Select { pred } => vec![
            (profiles::select_filter(nm("filter"), pred, level, in_bytes, sel), in_rows),
            (profiles::select_gather(nm("gather"), out_bytes), out_rows),
        ],
        OpKind::Rekey { .. } => vec![
            (
                KernelProfile::new(nm("rekey"))
                    .instr_per_elem(3.0)
                    .bytes_read_per_elem(in_bytes)
                    .bytes_written_per_elem(out_bytes)
                    .mem_efficiency(STREAM_MEM_EFF),
                in_rows,
            ),
            (profiles::select_gather(nm("rekey_gather"), out_bytes), out_rows),
        ],
        OpKind::Project { .. } => vec![
            (
                KernelProfile::new(nm("project"))
                    .instr_per_elem(4.0)
                    .bytes_read_per_elem(in_bytes)
                    .bytes_written_per_elem(out_bytes)
                    .mem_efficiency(STREAM_MEM_EFF),
                in_rows,
            ),
            (profiles::select_gather(nm("project_gather"), out_bytes), out_rows),
        ],
        OpKind::Arith { body } | OpKind::ArithExtend { body } => vec![
            (profiles::arith_kernel(nm("arith"), body, level, in_bytes, out_bytes), in_rows),
            (profiles::select_gather(nm("arith_gather"), out_bytes), out_rows),
        ],
        OpKind::Join | OpKind::Semijoin | OpKind::Antijoin => {
            let (a, b) = (node.inputs[0], node.inputs[1]);
            let elems = cards.rows[a].max(cards.rows[b]).max(1);
            let read = (cards.bytes(a) + cards.bytes(b)) as f64 / elems as f64;
            let write = cards.bytes(id) as f64 / elems as f64;
            vec![
                (
                    KernelProfile::new(nm("join_match"))
                        .instr_per_elem(30.0)
                        .bytes_read_per_elem(read)
                        .bytes_written_per_elem(write + FILTER_BOOKKEEPING_BYTES)
                        .regs_per_thread(profiles::STAGE_REGS + 10)
                        .mem_efficiency(STREAM_MEM_EFF),
                    elems,
                ),
                (profiles::select_gather(nm("join_gather"), out_bytes), out_rows),
            ]
        }
        OpKind::ColumnJoin => {
            let (a, b) = (node.inputs[0], node.inputs[1]);
            let elems = cards.rows[a].max(1);
            let read = (cards.bytes(a) + cards.bytes(b)) as f64 / elems as f64;
            vec![
                (
                    KernelProfile::new(nm("col_join"))
                        .instr_per_elem(6.0)
                        .bytes_read_per_elem(read)
                        .bytes_written_per_elem(out_bytes)
                        .mem_efficiency(STREAM_MEM_EFF),
                    elems,
                ),
                (profiles::select_gather(nm("col_join_gather"), out_bytes), out_rows),
            ]
        }
        OpKind::Product => vec![(
            KernelProfile::new(nm("product"))
                .instr_per_elem(10.0)
                .bytes_read_per_elem(2.0)
                .bytes_written_per_elem(out_bytes)
                .mem_efficiency(STREAM_MEM_EFF),
            out_rows.max(1),
        )],
        OpKind::Union | OpKind::Intersect | OpKind::Difference => {
            let (a, b) = (node.inputs[0], node.inputs[1]);
            let elems = (cards.rows[a] + cards.rows[b]).max(1);
            let read = (cards.bytes(a) + cards.bytes(b)) as f64 / elems as f64;
            vec![(
                KernelProfile::new(nm("setop"))
                    .instr_per_elem(14.0)
                    .bytes_read_per_elem(read)
                    .bytes_written_per_elem(cards.bytes(id) as f64 / elems as f64)
                    .mem_efficiency(STREAM_MEM_EFF),
                elems,
            )]
        }
        OpKind::Aggregate { aggs } | OpKind::AggregateAll { aggs } => vec![(
            profiles::aggregate_kernel(in_bytes, aggs.len()).renamed(nm("aggregate")),
            in_rows,
        )],
        OpKind::Sort { .. } => {
            vec![(profiles::sort_kernel(in_rows, in_bytes).renamed(nm("sort")), in_rows)]
        }
        OpKind::Unique => {
            vec![(profiles::unique_kernel(in_bytes, sel).renamed(nm("unique")), in_rows)]
        }
    }
}

/// Rename helper so per-node labels stay unique in timelines.
trait Renamed {
    fn renamed(self, name: String) -> Self;
}

impl Renamed for KernelProfile {
    fn renamed(mut self, name: String) -> Self {
        self.name = name;
        self
    }
}

/// External inputs of a fused group: producers outside the group feeding
/// members. A per-plan membership bitset keeps this O(edges), not
/// O(members × edges).
fn group_externals(graph: &PlanGraph, members: &[NodeId]) -> Vec<NodeId> {
    let mut in_group = vec![false; graph.len()];
    for &m in members {
        in_group[m] = true;
    }
    let mut ext: Vec<NodeId> = members
        .iter()
        .flat_map(|&m| graph.nodes[m].inputs.iter().copied())
        .filter(|&p| !in_group[p])
        .collect();
    ext.sort_unstable();
    ext.dedup();
    ext
}

/// Outputs of a fused group: members consumed outside it, or plan roots.
/// One pass over the plan's edges marks externally consumed nodes, instead
/// of rescanning every node per member.
fn group_outputs(
    graph: &PlanGraph,
    plan: &FusionPlan,
    members: &[NodeId],
    roots: &[NodeId],
) -> Vec<NodeId> {
    let gid = plan.group_of[members[0]];
    let mut wanted = vec![false; graph.len()];
    for &r in roots {
        wanted[r] = true;
    }
    for (c, n) in graph.nodes.iter().enumerate() {
        if plan.group_of[c] != gid {
            for &p in &n.inputs {
                wanted[p] = true;
            }
        }
    }
    let mut outs: Vec<NodeId> = members.iter().copied().filter(|&m| wanted[m]).collect();
    outs.sort_unstable();
    outs.dedup();
    outs
}

/// The kernels of one fused group: a single compute kernel (shared
/// skeleton, members' stages interleaved, intermediates in registers) plus
/// one gather.
fn group_kernels(
    graph: &PlanGraph,
    plan: &FusionPlan,
    cards: &Cardinalities,
    members: &[NodeId],
    level: OptLevel,
    gidx: usize,
    roots: &[NodeId],
) -> Vec<(KernelProfile, u64)> {
    if members.len() == 1 {
        return node_kernels(graph, cards, members[0], level);
    }
    let externals = group_externals(graph, members);
    let outputs = group_outputs(graph, plan, members, roots);
    let elems = externals.iter().map(|&e| cards.rows[e]).max().unwrap_or(1).max(1);
    let read: f64 = externals.iter().map(|&e| cards.bytes(e) as f64).sum::<f64>() / elems as f64;
    let write: f64 = outputs.iter().map(|&o| cards.bytes(o) as f64).sum::<f64>() / elems as f64;

    // Instruction count: fused SELECT predicates enjoy the Table III
    // cross-kernel optimization; other members contribute their step costs.
    // Predicates name input slots by position, so only SELECTs that number
    // their slots alike can be spliced into one body. SELECT keeps its
    // input's schema and COLUMN-JOIN appends its right side's columns to its
    // left side's, so a SELECT's numbering is given by the node its input
    // leads back to through those two and the right sides appended on the
    // way; two numberings agree when one is a prefix of the other. Past a
    // PROJECT slot `k` is another column, perhaps of another type, and each
    // predicate is charged alone.
    let numbering = |mut id: NodeId| {
        let mut appended = Vec::new();
        loop {
            let node = &graph.nodes[id];
            match node.kind {
                OpKind::Select { .. } => {}
                OpKind::ColumnJoin => appended.push(node.inputs[1]),
                _ => break,
            }
            id = node.inputs[0];
        }
        appended.reverse();
        (id, appended)
    };
    let selects: Vec<_> = members
        .iter()
        .filter_map(|&m| match &graph.nodes[m].kind {
            OpKind::Select { pred } => Some((numbering(m), pred)),
            _ => None,
        })
        .collect();
    let one_schema =
        selects.iter().map(|(n, _)| n).max_by_key(|n| n.1.len()).is_some_and(|widest| {
            selects.iter().all(|(n, _)| n.0 == widest.0 && widest.1.starts_with(&n.1))
        });
    let mut instr = FILTER_STAGE_INSTR;
    if selects.len() >= 2 && one_schema {
        let preds: Vec<_> = selects.iter().map(|&(_, pred)| pred.clone()).collect();
        instr += profiles::body_instr(&fuse_predicate_chain(&preds), level);
    } else {
        instr += selects.iter().map(|(_, p)| profiles::body_instr(p, level) + 2.0).sum::<f64>();
    }
    instr += members
        .iter()
        .filter(|&&m| !matches!(graph.nodes[m].kind, OpKind::Select { .. }))
        .map(|&m| member_instr(&graph.nodes[m].kind, level))
        .sum::<f64>();

    let regs = group_regs(graph, members, level);
    let compute = KernelProfile::new(format!("fused_compute#g{gidx}"))
        .instr_per_elem(instr)
        .bytes_read_per_elem(read)
        .bytes_written_per_elem(write + FILTER_BOOKKEEPING_BYTES)
        .regs_per_thread(regs)
        .mem_efficiency(STREAM_MEM_EFF);

    let out_rows: u64 = outputs.iter().map(|&o| cards.rows[o]).max().unwrap_or(0);
    let out_bytes: f64 = if out_rows == 0 {
        8.0
    } else {
        outputs.iter().map(|&o| cards.bytes(o) as f64).sum::<f64>() / out_rows as f64
    };
    vec![
        (compute, elems),
        (profiles::select_gather(format!("fused_gather#g{gidx}"), out_bytes), out_rows),
    ]
}

fn kernel_cmds(system: &GpuSystem, kernels: Vec<(KernelProfile, u64)>) -> Vec<Command> {
    kernels
        .into_iter()
        .map(|(p, n)| {
            let launch = LaunchConfig::for_elements(n.max(1), &system.spec);
            Command::kernel(p, launch, n)
        })
        .collect()
}

fn build_schedule(
    system: &GpuSystem,
    graph: &PlanGraph,
    plan: &FusionPlan,
    cards: &Cardinalities,
    cfg: &ExecConfig,
    roots: &[NodeId],
) -> Schedule {
    match cfg.strategy {
        Strategy::Serial | Strategy::SerialRoundTrip | Strategy::Fusion => {
            serial_schedule(system, graph, plan, cards, cfg, roots)
        }
        Strategy::Fission { segments } | Strategy::FusionFission { segments } => {
            fission_schedule(system, graph, plan, cards, cfg, segments, roots)
        }
    }
}

/// One stream, synchronous transfers: upload every input, run each group's
/// kernels, download the roots. [`Strategy::SerialRoundTrip`] additionally
/// bounces every non-root group result through the host.
fn serial_schedule(
    system: &GpuSystem,
    graph: &PlanGraph,
    plan: &FusionPlan,
    cards: &Cardinalities,
    cfg: &ExecConfig,
    roots: &[NodeId],
) -> Schedule {
    let mut cmds: Vec<Command> = plan_inputs(graph)
        .map(|i| {
            Command::h2d(format!("in#{i}"), CommandClass::InputOutput, cards.bytes(i), MEM_KIND)
        })
        .collect();
    for (gidx, members) in plan.groups.iter().enumerate() {
        cmds.extend(kernel_cmds(
            system,
            group_kernels(graph, plan, cards, members, cfg.level, gidx, roots),
        ));
        let node = *members.last().expect("groups are non-empty");
        if cfg.strategy == Strategy::SerialRoundTrip && !roots.contains(&node) {
            let b = cards.bytes(node);
            let class = CommandClass::RoundTrip;
            cmds.push(Command::d2h(format!("tmp_out#{node}"), class, b, MEM_KIND));
            cmds.push(Command::h2d(format!("tmp_in#{node}"), class, b, MEM_KIND));
        }
    }
    cmds.extend(roots.iter().map(|&r| {
        Command::d2h(format!("out#{r}"), CommandClass::InputOutput, cards.bytes(r), MEM_KIND)
    }));
    Schedule::serial(cmds)
}

/// Whether pipelining a group — its `upload` in, its `kernels`, its
/// `download` (the requested roots it produces) out — beats synchronous
/// transfers around the same kernels. Fission is applied judiciously: only
/// with enough data per segment, and only when the cost model says the
/// pipeline wins — async copies run below bandwidthTest rates, so hiding a
/// transfer that is cheap relative to the group's compute can *lose* (the
/// paper's §IV-A point that "the application of kernel fission must
/// distinguish between such cases").
fn worth_pipelining(
    system: &GpuSystem,
    cards: &Cardinalities,
    segments: u32,
    upload: &[NodeId],
    kernels: &[(KernelProfile, u64)],
    download: &[NodeId],
) -> bool {
    let bytes: u64 = upload.iter().map(|&e| cards.bytes(e)).sum();
    if bytes < segments as u64 * MIN_SEGMENT_BYTES {
        return false;
    }
    let kernel_time: f64 = kernels
        .iter()
        .map(|(p, n)| {
            p.time(&system.spec, &LaunchConfig::for_elements((*n).max(1), &system.spec), *n)
        })
        .sum();
    // (synchronous, derated per-segment asynchronous) seconds to move `nodes`.
    let transfer = |nodes: &[NodeId], dir: Direction| {
        nodes.iter().fold((0.0, 0.0), |(sync, piped), &e| {
            let seg = cards.bytes(e) / segments as u64;
            let seg_time = system.pcie.transfer_time(seg, dir, HostMemKind::Pinned);
            (
                sync + system.pcie.transfer_time(cards.bytes(e), dir, MEM_KIND),
                piped + seg_time * segments as f64 / system.pcie.async_efficiency,
            )
        })
    };
    let (sync_up, async_up) = transfer(upload, Direction::H2D);
    let (sync_down, async_down) = transfer(download, Direction::D2H);
    // Serial = the three stages back to back; pipelined = the slowest stage
    // plus one segment's upload before and download after it.
    let fill = (async_up + async_down) / segments as f64;
    async_up.max(kernel_time).max(async_down) + fill < sync_up + kernel_time + sync_down
}

/// An exact balanced partition of `total` (bytes of a transfer, elements of
/// a kernel) into fission segments. Scaling by `1/segments` and rounding can
/// over- or under-cover the whole (`round(10/4) = 3` per segment covers 12
/// of 10 elements), which translation validation rejects.
fn segmented(total: u64, segments: u32, what: &str) -> Vec<segment::SegRange> {
    let parts = segment::partition(total, segments);
    if let Err(err) = segment::check_partition(total, &parts) {
        panic!("fission segments do not partition the {total} {what}: {err}");
    }
    parts
}

/// How a plan input reached the device.
#[derive(Clone, Copy, PartialEq)]
enum Resident {
    No,
    /// One synchronous copy on the main stream.
    Whole,
    /// Per-segment pinned copies on the pipeline streams.
    Segmented,
}

/// One group of a pipelined region, cut into segments.
struct RegionGroup {
    /// Plan inputs this group is the first to need, per-segment bytes.
    uploads: Vec<(NodeId, Vec<segment::SegRange>)>,
    /// Every plan input the group's kernels read.
    inputs: Vec<NodeId>,
    kernels: Vec<(KernelProfile, Vec<segment::SegRange>)>,
    /// Requested roots among the group's outputs, per-segment bytes.
    roots: Vec<(NodeId, Vec<segment::SegRange>)>,
}

/// The streams of a fission schedule under construction.
struct Pipelines {
    sched: Schedule,
    main: usize,
    pipes: Vec<usize>,
    /// Added on first use, so schedules whose roots are sorts or aggregates
    /// keep exactly the main + pipeline stream set.
    host: Option<usize>,
    next_event: u32,
    /// Segment-completion events the main stream has not joined yet.
    pending: Vec<EventId>,
}

impl Pipelines {
    /// Emit `region` segment by segment, rotating over the pipeline streams:
    /// uploads and kernels group by group, then the root slices' downloads,
    /// an event for the main stream to join, and the host-side gathers.
    fn emit(&mut self, system: &GpuSystem, region: &[RegionGroup], segments: u32) {
        let pinned_io = |label: String, bytes: u64, d2h: bool| {
            let copy = if d2h { Command::d2h } else { Command::h2d };
            copy(label, CommandClass::InputOutput, bytes, HostMemKind::Pinned)
        };
        if region.is_empty() {
            return;
        }
        let roots: Vec<_> = region.iter().flat_map(|g| &g.roots).collect();
        for s in 0..segments as usize {
            let stream = self.pipes[s % self.pipes.len()];
            for group in region {
                for (e, parts) in &group.uploads {
                    let cmd = pinned_io(format!("in#{e}[seg{s}]"), parts[s].len(), false);
                    self.sched.push(stream, cmd);
                }
                for (p, parts) in &group.kernels {
                    let seg_n = parts[s].len();
                    let mut p = p.clone();
                    p.name = format!("{}[seg{s}]", p.name);
                    let launch = LaunchConfig::for_elements(seg_n.max(1), &system.spec);
                    // Declare the segment inputs so the hazard detector can
                    // prove the kernel runs after its own segment's upload
                    // (same stream) and never against another stream's.
                    let cmd =
                        group.inputs.iter().fold(Command::kernel(p, launch, seg_n), |c, e| {
                            c.reading(format!("in#{e}[seg{s}]"))
                        });
                    self.sched.push(stream, cmd);
                }
            }
            for (r, parts) in &roots {
                let cmd = pinned_io(format!("out#{r}[seg{s}]"), parts[s].len(), true);
                self.sched.push(stream, cmd);
            }
            let ev = EventId(self.next_event);
            self.next_event += 1;
            self.sched.push(stream, Command::record(ev));
            self.pending.push(ev);
            if !roots.is_empty() {
                let host = *self.host.get_or_insert_with(|| self.sched.add_stream());
                self.sched.push(host, Command::wait(ev));
                for (r, parts) in &roots {
                    let secs = parts[s].len() as f64 / CPU_GATHER_BW;
                    let gather = Command::host_work(format!("cpu_gather#{r}[seg{s}]"), secs);
                    self.sched.push(host, gather);
                }
            }
        }
    }

    /// Make the main stream wait for every pipeline segment emitted so far.
    fn join_main(&mut self) {
        for ev in self.pending.drain(..) {
            self.sched.push(self.main, Command::wait(ev));
        }
    }
}

/// Kernel fission (Figs. 13 and 15). Consecutive streamable groups — all
/// members elementwise, every external a plan input or an output of the
/// region so far — form a *region* that is segmented and pipelined over
/// [`FISSION_STREAMS`] streams: each segment uploads its slice of the
/// region's inputs, runs every group's kernels on it, and, where the region
/// produces a requested root, downloads that slice for a CPU-side gather on
/// a host stream. Everything else runs on the main stream after joining the
/// pipelines. A group that brings a new upload joins only if
/// [`worth_pipelining`] says so; one that needs none continues an open
/// region for free. Every plan input crosses PCIe exactly once.
///
/// Free joiners are ungated on purpose: the gate prices the decision that
/// costs something — moving an upload from one synchronous copy to derated
/// per-segment copies — for the group that owns it. A dependent group adds
/// no transfer to the region; run per segment it only keeps overlapping
/// with later uploads, and its root slices leave overlapped instead of in
/// one synchronous copy after the join. So its kernels and downloads are
/// never priced, and `Fission` (the gated group is the chain's first
/// SELECT) and `FusionFission` (the gated group is the whole fused chain,
/// download included) can decide differently for the same chain.
fn fission_schedule(
    system: &GpuSystem,
    graph: &PlanGraph,
    plan: &FusionPlan,
    cards: &Cardinalities,
    cfg: &ExecConfig,
    segments: u32,
    roots: &[NodeId],
) -> Schedule {
    let mut sched = Schedule::new();
    let main = sched.add_stream();
    let pipes = (0..FISSION_STREAMS).map(|_| sched.add_stream()).collect();
    let mut out = Pipelines { sched, main, pipes, host: None, next_event: 0, pending: Vec::new() };
    let mut resident = vec![Resident::No; graph.len()];
    let mut downloaded = vec![false; graph.len()];
    let mut in_region = vec![false; graph.len()];
    let mut region: Vec<RegionGroup> = Vec::new();

    for (gidx, members) in plan.groups.iter().enumerate() {
        let kernels = group_kernels(graph, plan, cards, members, cfg.level, gidx, roots);
        let (inputs, produced): (Vec<NodeId>, Vec<NodeId>) = group_externals(graph, members)
            .into_iter()
            .partition(|&e| matches!(graph.nodes[e].kind, OpKind::Input { .. }));
        let upload: Vec<NodeId> =
            inputs.iter().copied().filter(|&e| resident[e] == Resident::No).collect();
        let group_roots: Vec<NodeId> =
            roots.iter().copied().filter(|&r| plan.group_of[r] == Some(gidx)).collect();
        // A pipeline stream never waits for the main stream, so a region
        // cannot read what the main stream uploaded or computed.
        let joins = segments > 1
            && members.iter().all(|&m| streamable(&graph.nodes[m].kind))
            && produced.iter().all(|&e| in_region[e])
            && inputs.iter().all(|&e| resident[e] != Resident::Whole)
            && if upload.is_empty() {
                !region.is_empty()
            } else {
                worth_pipelining(system, cards, segments, &upload, &kernels, &group_roots)
            };
        if joins {
            let cut = |e: NodeId, what: &str| (e, segmented(cards.bytes(e), segments, what));
            for &m in members {
                in_region[m] = true;
            }
            for &r in &group_roots {
                downloaded[r] = true;
            }
            for &e in &upload {
                resident[e] = Resident::Segmented;
            }
            region.push(RegionGroup {
                uploads: upload.iter().map(|&e| cut(e, "transfer bytes")).collect(),
                inputs,
                kernels: kernels
                    .into_iter()
                    .map(|(p, n)| (p, segmented(n, segments, "kernel elements")))
                    .collect(),
                roots: group_roots.iter().map(|&r| cut(r, "result bytes")).collect(),
            });
            continue;
        }
        // Serial on the main stream: close the region, join every pending
        // pipeline, and upload whichever inputs are not on the device yet.
        out.emit(system, &region, segments);
        region.clear();
        in_region.fill(false);
        out.join_main();
        for &e in &upload {
            out.sched.push(
                main,
                Command::h2d(
                    format!("in#{e}"),
                    CommandClass::InputOutput,
                    cards.bytes(e),
                    MEM_KIND,
                ),
            );
            resident[e] = Resident::Whole;
        }
        for cmd in kernel_cmds(system, kernels) {
            // Inputs uploaded segment-wise by an earlier pipeline carry
            // per-segment buffer names; reads of the whole-input name
            // then have no writer and are skipped by the detector, while
            // same-stream uploads above are proven ordered.
            let cmd = inputs.iter().fold(cmd, |c, &e| c.reading(format!("in#{e}")));
            out.sched.push(main, cmd);
        }
    }
    out.emit(system, &region, segments);
    out.join_main();
    for &r in roots.iter().filter(|&&r| !downloaded[r]) {
        out.sched.push(
            main,
            Command::d2h(format!("out#{r}"), CommandClass::InputOutput, cards.bytes(r), MEM_KIND),
        );
    }
    out.sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use kfusion_ir::KernelBody;
    use kfusion_relalg::gen;
    use kfusion_relalg::ops::SortBy;
    use kfusion_relalg::predicates;
    use kfusion_vgpu::Engine;

    fn sys() -> GpuSystem {
        GpuSystem::c2070()
    }

    fn select_chain_graph(depth: usize) -> PlanGraph {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for k in 0..depth {
            let t = gen::threshold_for_selectivity(0.5 / (k as f64 + 1.0));
            cur = g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![cur]);
        }
        g
    }

    #[test]
    fn strategies_agree_functionally() {
        let s = sys();
        let g = select_chain_graph(2);
        let input = gen::random_keys(100_000, 9);
        let mut outputs = Vec::new();
        for strat in [
            Strategy::Serial,
            Strategy::SerialRoundTrip,
            Strategy::Fusion,
            Strategy::FusionFission { segments: 8 },
        ] {
            let cfg = ExecConfig::new(strat, &s);
            let r = execute(&s, &g, std::slice::from_ref(&input), &cfg).unwrap();
            outputs.push(r.output);
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0], "strategy changed the answer");
        }
    }

    #[test]
    fn fusion_is_faster_than_serial() {
        let s = sys();
        let g = select_chain_graph(3);
        let input = gen::random_keys(1 << 21, 4);
        let serial =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Serial, &s))
                .unwrap();
        let fused =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Fusion, &s))
                .unwrap();
        assert!(fused.report.total() < serial.report.total());
        assert_eq!(fused.fusion.groups.len(), 1);
    }

    /// A deep arithmetic expression: a compute-bound kernel, the paper's
    /// "complex statistical operators" case where a pipeline pays.
    fn heavy_arith(seed: i64) -> OpKind {
        use kfusion_ir::builder::{BodyBuilder, Expr};
        let mut expr = Expr::input(0);
        for k in 1..400i64 {
            expr = expr.mul(Expr::lit(2 * k + seed)).add(Expr::lit(k));
        }
        let mut body = BodyBuilder::new(1);
        body.emit_output(expr);
        OpKind::Arith { body: body.build() }
    }

    #[test]
    fn fission_overlaps_input_transfer() {
        // The pipeline pays derated async bandwidth, so it only wins when
        // the group's compute is substantial relative to the upload.
        let s = sys();
        let mut g = PlanGraph::new();
        let i = g.input(0);
        g.add(heavy_arith(1), vec![i]);
        let input = gen::random_keys(1 << 22, 5);
        let fused =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Fusion, &s))
                .unwrap();
        let both = execute(
            &s,
            &g,
            std::slice::from_ref(&input),
            &ExecConfig::new(Strategy::FusionFission { segments: 8 }, &s),
        )
        .unwrap();
        assert!(
            both.report.total() < fused.report.total(),
            "fission {} vs fusion {}",
            both.report.total(),
            fused.report.total()
        );
        // The root is the pipelined group's output: it leaves per segment and
        // is reassembled host-side (Fig. 13), not by one trailing download.
        assert_eq!(both.report.label_time("out#1["), both.report.engine_time(Engine::CopyD2H));
        assert!(both.report.label_time("cpu_gather#1[") > 0.0);
    }

    /// `(copies, bytes)` of the `InputOutput` uploads of each plan input.
    fn uploads(sched: &Schedule) -> std::collections::BTreeMap<NodeId, (u32, u64)> {
        let mut by_input = std::collections::BTreeMap::new();
        for cmd in sched.streams.iter().flatten() {
            if let kfusion_vgpu::des::CommandKind::CopyH2D { bytes, .. } = cmd.kind {
                if cmd.class == CommandClass::InputOutput {
                    let id = cmd.label.trim_start_matches("in#").split('[').next().unwrap();
                    let e: &mut (u32, u64) = by_input.entry(id.parse().unwrap()).or_default();
                    *e = (e.0 + 1, e.1 + bytes);
                }
            }
        }
        by_input
    }

    #[test]
    fn every_plan_input_is_uploaded_exactly_once() {
        // Two pipelined groups reading the same input: each used to upload
        // it (16 segment copies, 64 MiB over PCIe for a 32 MiB input).
        let mut probe = PlanGraph::new();
        let i = probe.input(0);
        let a = probe.add(heavy_arith(1), vec![i]);
        let b = probe.add(heavy_arith(3), vec![i]);
        probe.add(OpKind::ColumnJoin, vec![a, b]);
        let mut plans = patterns::all();
        plans.push(("shared-input probe", probe));

        let s = sys();
        for (name, g) in &plans {
            let cards =
                Cardinalities { rows: vec![1 << 22; g.len()], row_bytes: vec![8.0; g.len()] };
            for strat in [
                Strategy::Serial,
                Strategy::SerialRoundTrip,
                Strategy::Fusion,
                Strategy::Fission { segments: 8 },
                Strategy::FusionFission { segments: 8 },
            ] {
                let sched = schedule_given(&s, g, &cards, &ExecConfig::new(strat, &s)).unwrap();
                let up = uploads(&sched);
                let inputs: Vec<NodeId> = plan_inputs(g).collect();
                assert_eq!(up.keys().copied().collect::<Vec<_>>(), inputs, "{name} {strat:?}");
                for (e, (_, bytes)) in &up {
                    assert_eq!(*bytes, cards.bytes(*e), "{name} {strat:?}: input #{e}");
                }
                if *name == "shared-input probe" && matches!(strat, Strategy::FusionFission { .. })
                {
                    assert_eq!(up[&0].0, 8, "the probe's input is pipelined, once");
                }
            }
        }
    }

    #[test]
    fn round_trip_strategy_pays_for_intermediates() {
        let s = sys();
        let g = select_chain_graph(2);
        let input = gen::random_keys(1 << 21, 6);
        let serial =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Serial, &s))
                .unwrap();
        let rt = execute(
            &s,
            &g,
            std::slice::from_ref(&input),
            &ExecConfig::new(Strategy::SerialRoundTrip, &s),
        )
        .unwrap();
        assert!(rt.report.total() > serial.report.total());
        assert!(rt.report.class_time(CommandClass::RoundTrip) > 0.0);
        assert_eq!(serial.report.class_time(CommandClass::RoundTrip), 0.0);
    }

    #[test]
    fn every_fig2_pattern_executes_under_every_strategy() {
        let s = sys();
        for (name, g) in patterns::all() {
            // Build suitable inputs: sorted tables with two payload columns
            // (arith patterns read cols 0 and 1).
            let n_inputs =
                g.nodes.iter().filter(|n| matches!(n.kind, OpKind::Input { .. })).count();
            let inputs: Vec<Relation> = (0..n_inputs)
                .map(|k| {
                    let mut t = gen::sorted_table(5000, 2, k as u64);
                    // Make numeric columns f64 for the arith patterns.
                    t.cols[0] =
                        kfusion_relalg::Column::F64((0..5000).map(|i| i as f64 * 0.001).collect());
                    t.cols[1] = kfusion_relalg::Column::F64(
                        (0..5000).map(|i| (i % 90) as f64 * 0.01).collect(),
                    );
                    t
                })
                .collect();
            for strat in [Strategy::Serial, Strategy::Fusion] {
                let cfg = ExecConfig::new(strat, &s);
                let r = execute(&s, &g, &inputs, &cfg);
                assert!(r.is_ok(), "pattern {name} failed under {strat:?}: {:?}", r.err());
            }
        }
    }

    #[test]
    fn peak_residency_accounts_liveness() {
        let s = sys();
        let g = select_chain_graph(2);
        let input = gen::random_keys(100_000, 3);
        let r =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Serial, &s))
                .unwrap();
        // Peak must cover at least input + first intermediate, and at most
        // the sum of everything.
        let input_bytes = input.total_bytes();
        assert!(r.peak_resident_bytes >= input_bytes);
        assert!(r.peak_resident_bytes <= 3 * input_bytes);
    }

    #[test]
    fn auto_serial_keeps_intermediates_when_they_fit() {
        let s = sys();
        let g = select_chain_graph(2);
        let input = gen::random_keys(100_000, 3);
        let (strat, _) = execute_auto_serial(&s, &g, std::slice::from_ref(&input)).unwrap();
        assert_eq!(strat, Strategy::Serial);
    }

    #[test]
    fn auto_serial_falls_back_on_small_memory() {
        // Shrink the device until the intermediates cannot stay resident;
        // the executor must pick the round-trip strategy (paper SIII-B).
        let mut s = sys();
        s.spec.mem_capacity = 1 << 20; // 1 MiB
        let g = select_chain_graph(2);
        let input = gen::random_keys(200_000, 3); // 1.6 MB of keys alone
        let (strat, r) = execute_auto_serial(&s, &g, std::slice::from_ref(&input)).unwrap();
        assert_eq!(strat, Strategy::SerialRoundTrip);
        assert!(r.report.class_time(CommandClass::RoundTrip) > 0.0);
    }

    #[test]
    fn prepared_execution_is_byte_identical_to_plain() {
        let s = sys();
        let g = select_chain_graph(3);
        let input = gen::random_keys(100_000, 8);
        for strat in [Strategy::Serial, Strategy::Fusion, Strategy::FusionFission { segments: 4 }] {
            let cfg = ExecConfig::new(strat, &s);
            let fusion = prepare_fusion(&g, &cfg).unwrap();
            let prepared =
                execute_prepared(&s, &g, std::slice::from_ref(&input), &cfg, &fusion).unwrap();
            let plain = execute(&s, &g, std::slice::from_ref(&input), &cfg).unwrap();
            assert_eq!(prepared.output, plain.output);
            assert_eq!(prepared.report.total(), plain.report.total());
            assert_eq!(prepared.fusion.groups, plain.fusion.groups);
        }
    }

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

    /// The compute kernel of the one fused group `g` forms under FUSION.
    fn fused_compute_instr(g: &PlanGraph) -> f64 {
        let s = sys();
        let cards = Cardinalities { rows: vec![1 << 20; g.len()], row_bytes: vec![16.0; g.len()] };
        let sched = schedule_given(&s, g, &cards, &ExecConfig::new(Strategy::Fusion, &s)).unwrap();
        let mut fused = sched.streams.iter().flatten().filter_map(|cmd| match &cmd.kind {
            kfusion_vgpu::des::CommandKind::Kernel { profile, .. }
                if cmd.label.starts_with("fused_compute") =>
            {
                Some(profile.instr_per_elem)
            }
            _ => None,
        });
        let instr = fused.next().expect("a fused group");
        assert!(fused.next().is_none(), "one fused group");
        instr
    }

    /// The sim clock's charge for fused SELECTs, both ways: one spliced body
    /// (the Table III credit) when they number their slots alike — directly
    /// chained, or with a COLUMN-JOIN widening the tuple between them — and
    /// each predicate on its own when a PROJECT renumbers between them or
    /// two COLUMN-JOINs put different columns into the same slots.
    #[test]
    fn only_selects_over_one_schema_are_charged_as_one_body() {
        let level = ExecConfig::new(Strategy::Fusion, &sys()).level;
        let (a, b) = (predicates::key_lt(1 << 40), predicates::key_lt(1 << 30));
        let alone = |p: &KernelBody| profiles::body_instr(p, level) + 2.0;
        let select = |p: &KernelBody| OpKind::Select { pred: p.clone() };
        let spliced = profiles::body_instr(&fuse_predicate_chain(&[a.clone(), b.clone()]), level);
        assert!(spliced < alone(&a) + alone(&b));

        let mut chain = PlanGraph::new();
        let i = chain.input(0);
        let first = chain.add(select(&a), vec![i]);
        chain.add(select(&b), vec![first]);
        assert_eq!(fused_compute_instr(&chain), FILTER_STAGE_INSTR + spliced);

        for between in [OpKind::ColumnJoin, OpKind::Project { keep: vec![0] }] {
            let mut g = PlanGraph::new();
            let (i, other) = (g.input(0), g.input(1));
            let first = g.add(select(&a), vec![i]);
            let widens = matches!(between, OpKind::ColumnJoin);
            let inputs = if widens { vec![first, other] } else { vec![first] };
            let step = member_instr(&between, level);
            let mid = g.add(between, inputs);
            g.add(select(&b), vec![mid]);
            let selects = if widens { spliced } else { alone(&a) + alone(&b) };
            assert_eq!(fused_compute_instr(&g), FILTER_STAGE_INSTR + selects + step);
        }

        // One SELECT's output widened two ways: slot 2 is `x`'s column for
        // one consumer and `y`'s for the other.
        let mut g = PlanGraph::new();
        let (i, x, y) = (g.input(0), g.input(1), g.input(2));
        let first = g.add(select(&a), vec![i]);
        let with_x = g.add(OpKind::ColumnJoin, vec![first, x]);
        let with_y = g.add(OpKind::ColumnJoin, vec![first, y]);
        let over_x = g.add(select(&b), vec![with_x]);
        let over_y = g.add(select(&b), vec![with_y]);
        g.add(OpKind::ColumnJoin, vec![over_x, over_y]);
        let steps = 3.0 * member_instr(&OpKind::ColumnJoin, level);
        let selects = alone(&a) + 2.0 * alone(&b);
        assert_eq!(fused_compute_instr(&g), FILTER_STAGE_INSTR + selects + steps);
    }

    #[test]
    fn missing_input_is_reported() {
        let s = sys();
        let g = select_chain_graph(1);
        let r = execute(&s, &g, &[], &ExecConfig::new(Strategy::Serial, &s));
        assert!(matches!(r, Err(CoreError::Unsupported(_))));
    }
}
