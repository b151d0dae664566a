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
//! The two phases are two programs that meet only here, through
//! [`Cardinalities`] and the [`FusionPlan`]: `host` (slots, views, the
//! per-operator evaluation) and `schedule` (group kernels, the serial and
//! fission command streams). Neither imports the other.
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

mod host;
mod schedule;

pub use schedule::{CPU_GATHER_BW, FISSION_STREAMS, MEM_KIND, MIN_SEGMENT_BYTES};

use crate::cost::FusionBudget;
use crate::fusion::{fuse_plan, FusionPlan};
use crate::graph::{NodeId, PlanGraph};
use crate::report::Report;
use crate::CoreError;
use host::{functional_phase, Measured};
use kfusion_ir::opt::OptLevel;
use kfusion_relalg::Relation;
use kfusion_vgpu::{GpuSystem, Schedule};
use schedule::{build_schedule, peak_resident_bytes};

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
    let Measured { slots, cards, host_secs, covered, gathered } =
        functional_phase(graph, inputs, roots, &fusion)?;
    let timeline = {
        let _phase = kfusion_trace::host_span("host", "timing_phase");
        system.simulate(&build_schedule(system, graph, &fusion, &cards, cfg, roots))?
    };
    let peak_resident_bytes = peak_resident_bytes(graph, &cards);
    let outputs: Vec<Relation> = roots
        .iter()
        .map(|&r| host::stored(slots.vals[r].as_ref().expect("roots are never released")).clone())
        .collect();
    let measurements = crate::explain::NodeMeasurements {
        rows: &cards.rows,
        host_seconds: &host_secs,
        covered: &covered,
        gathered: &gathered,
    };
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
    let elements = graph.inputs().map(|i| cards.rows[i]).sum();
    let input_bytes = graph.inputs().map(|i| cards.bytes(i) as f64).sum();
    Report::new(timeline, elements, input_bytes)
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
        if !node.kind.is_input() {
            group_of[id] = Some(groups.len());
            groups.push(vec![id]);
        }
    }
    FusionPlan { group_of, groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpKind;
    use crate::patterns;
    use kfusion_relalg::{gen, predicates};
    use kfusion_vgpu::CommandClass;

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
            let n_inputs = g.inputs().count();
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

    #[test]
    fn missing_input_is_reported() {
        let s = sys();
        let g = select_chain_graph(1);
        let r = execute(&s, &g, &[], &ExecConfig::new(Strategy::Serial, &s));
        assert!(matches!(r, Err(CoreError::Unsupported(_))));
    }
}
