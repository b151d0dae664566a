//! The sim clock's price list: every kernel the virtual GPU charges is
//! priced here, and nowhere else.
//!
//! Each operator compiles to one or more CUDA-kernel-equivalents whose
//! per-element costs are assembled from (a) the *optimized* IR instruction
//! count of its body, (b) fixed per-stage overheads of the multi-stage
//! skeleton (partition / buffer / gather bookkeeping), and (c) the bytes the
//! stage moves through global memory. Fusion shows in these formulas: a
//! fused filter evaluates the fused+O3 body — fewer instructions than the
//! sum of parts (Table III); a fused group reads its inputs once and never
//! materializes intermediates (Fig. 7(c)/(d)); and the skeleton and the
//! trailing gather are paid once per fused kernel (Fig. 7(e)). Constants
//! are calibrated so the virtual C2070 lands in the bands of Fig. 4(a)
//! (EXPERIMENTS.md has paper vs measured).
//!
//! An operator's price comes both ways: `node_kernels` as a kernel set of
//! its own, [`fused_step`] as a member of a fused kernel, whose whole price
//! is `fused_kernels`. A new operator fills in one arm of each.
//!
//! Bodies are measured two ways, kept apart. [`body_instr`] / [`body_regs`]
//! price a body the schedule charges, on the emit path: the translation
//! validator proves each optimization they run. [`fused_step`] /
//! [`group_regs`] are probes under `symexec::speculation()`: they measure
//! and discard, and the chosen group is proved when it is emitted.
//!
//! Fusing more kernels is usually better (Fig. 11(a)) until register
//! pressure forces spills (§III-C). [`group_regs`], the liveness maximum of
//! the group's spliced, optimized body, is the one metric [`FusionBudget`]
//! gates on; the virtual GPU independently charges spill traffic if a
//! profile exceeds the budget anyway. [`group_regs_summed`] is not a second
//! opinion but `analyze::analyzed_group_regs`' fallback for groups with no
//! single body to analyze; nothing else calls it.

use crate::exec::Cardinalities;
use crate::graph::{BodyRole, NodeId, OpKind, PlanGraph};
use kfusion_ir::cost::{instruction_count, max_live_regs};
use kfusion_ir::fuse::try_fuse_predicate_chain;
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::KernelBody;
use kfusion_vgpu::KernelProfile;

/// Per-element overhead of the filter stage skeleton (partition index math,
/// match-flag bookkeeping, buffered compaction write with intra-CTA scan).
pub const FILTER_STAGE_INSTR: f64 = 24.0;

/// Per-element overhead of the gather stage (prefix-sum offset lookup plus
/// the copy loop).
pub const GATHER_STAGE_INSTR: f64 = 18.0;

/// Registers consumed by the multi-stage skeleton itself.
pub const STAGE_REGS: u32 = 12;

/// Memory-coalescing efficiency of streaming stages (sequential reads,
/// compacted writes).
pub const STREAM_MEM_EFF: f64 = 0.35;

/// Memory-coalescing efficiency of scatter/gather-heavy stages.
pub const SCATTER_MEM_EFF: f64 = 0.22;

/// Extra bookkeeping bytes per element in the filter stage (per-CTA match
/// counts, amortized).
pub const FILTER_BOOKKEEPING_BYTES: f64 = 1.0;

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

/// Optimized per-element instruction count of a body the schedule charges
/// (emit path: validated).
pub fn body_instr(body: &KernelBody, level: OptLevel) -> f64 {
    instruction_count(&optimize(body, level)) as f64
}

/// Registers of a body the schedule charges (emit path: validated): its
/// liveness maximum at `level`, what occupancy depends on, plus the
/// skeleton's.
pub fn body_regs(body: &KernelBody, level: OptLevel) -> u32 {
    max_live_regs(&optimize(body, level)) as u32 + STAGE_REGS
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

/// The price of `kind` as a *member of a fused kernel* (a probe): a fixed
/// step per operator, plus — for the operators that carry IR — the liveness
/// maximum and instruction count of the body optimized at `level`. Its
/// price as a kernel of its own is `node_kernels`.
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

/// Estimated per-thread registers of a fused kernel containing `members`
/// (a probe), from liveness analysis of the group's actual fused, optimized
/// body (see [`crate::analyze::analyzed_group_regs`]). This is what
/// [`FusionBudget`] gating consumes: two predicates on the same column cost
/// one compare, not two.
pub fn group_regs(graph: &PlanGraph, members: &[NodeId], level: OptLevel) -> u32 {
    let _probe = kfusion_ir::symexec::speculation();
    crate::analyze::analyzed_group_regs(graph, members, level)
}

/// The pre-analysis estimate: the shared multi-stage skeleton plus every
/// member's *individual* register count, summed. The fallback when a group's
/// bodies cannot be spliced into one verifiable stage.
pub fn group_regs_summed(graph: &PlanGraph, members: &[NodeId], level: OptLevel) -> u32 {
    STAGE_REGS + members.iter().map(|&m| fused_step(&graph.nodes[m].kind, level).regs).sum::<u32>()
}

/// The filter kernel of one SELECT: evaluates `body` per input element and
/// buffers the `selectivity` share of `row_bytes`-wide tuples that survive.
pub fn select_filter(
    name: impl Into<String>,
    body: &KernelBody,
    level: OptLevel,
    row_bytes: f64,
    selectivity: f64,
) -> KernelProfile {
    KernelProfile::new(name)
        .instr_per_elem(body_instr(body, level) + FILTER_STAGE_INSTR)
        .bytes_read_per_elem(row_bytes)
        .bytes_written_per_elem(selectivity * row_bytes + FILTER_BOOKKEEPING_BYTES)
        .regs_per_thread(body_regs(body, level))
        .mem_efficiency(STREAM_MEM_EFF)
}

/// The gather kernel behind a filtering stage: invoked over the *matched*
/// elements, copying each from its CTA buffer to its final position.
pub fn select_gather(name: impl Into<String>, row_bytes: f64) -> KernelProfile {
    KernelProfile::new(name)
        .instr_per_elem(GATHER_STAGE_INSTR)
        .bytes_read_per_elem(row_bytes)
        .bytes_written_per_elem(row_bytes)
        .regs_per_thread(STAGE_REGS)
        .mem_efficiency(SCATTER_MEM_EFF)
}

/// The CPU's multi-threaded SELECT (one pass, no separate gather — each
/// thread appends to a private buffer that is concatenated).
///
/// Calibrated to the paper's measured CPU curve (Fig. 4(a)): a small fixed
/// scan cost, a large per-*selected*-element write-path cost (the 16-thread
/// implementation's buffered appends), and a branch-misprediction term
/// peaking at 50% selectivity — together GPU speedups of ≈2.9×/8.8×/8.4× at
/// 10/50/90% selectivity.
pub fn cpu_select(row_bytes: f64, selectivity: f64) -> KernelProfile {
    let s = selectivity;
    let write_path = 170.0 * s;
    let branch_penalty = 48.0 * s.min(1.0 - s);
    KernelProfile::new("cpu_select")
        .instr_per_elem(0.6 + write_path + branch_penalty)
        .bytes_read_per_elem(row_bytes)
        .bytes_written_per_elem(selectivity * row_bytes)
        .mem_efficiency(0.8)
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
    // Per-node labels keep timelines' span names unique.
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
    let gather = |name: &str| (select_gather(nm(name), out_bytes), out_rows);
    // Both sides' bytes, per element of a binary operator that walks `elems`.
    let read_both = |elems: u64| {
        (cards.bytes(node.inputs[0]) + cards.bytes(node.inputs[1])) as f64 / elems as f64
    };
    let side_rows = |i: usize| cards.rows[node.inputs[i]];
    match &node.kind {
        OpKind::Input { .. } => vec![],
        OpKind::Select { pred } => {
            vec![
                (select_filter(nm("filter"), pred, level, in_bytes, sel), in_rows),
                gather("gather"),
            ]
        }
        OpKind::Rekey { .. } => {
            vec![(stream("rekey", 3.0, in_bytes, out_bytes), in_rows), gather("rekey_gather")]
        }
        OpKind::Project { .. } => {
            vec![(stream("project", 4.0, in_bytes, out_bytes), in_rows), gather("project_gather")]
        }
        OpKind::Arith { body } | OpKind::ArithExtend { body } => {
            let map = stream("arith", body_instr(body, level) + 6.0, in_bytes, out_bytes);
            vec![(map.regs_per_thread(body_regs(body, level)), in_rows), gather("arith_gather")]
        }
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
        // Reduce-by-key on sorted input: one segmented-scan pass whose
        // output, one row per group, is negligible next to the input scan.
        OpKind::Aggregate { aggs } | OpKind::AggregateAll { aggs } => {
            let n = aggs.len();
            let scan = stream("aggregate", 10.0 + 6.0 * n as f64, in_bytes, 0.5);
            vec![(scan.regs_per_thread(STAGE_REGS + 2 * n as u32), in_rows)]
        }
        // A bitonic network, the sort 2012-era GPU RA libraries used: a full
        // one is `log2(n)·(log2(n)+1)/2` compare-swap passes; the early ones
        // run in shared memory, which the `/2` efficiency factor accounts
        // for, leaving `log²(n)/4` global-memory passes. The superlinear
        // pass count is why SORT dominates the unoptimized Q1 (~71% of
        // execution, paper §V) and why it is the plan's immovable barrier.
        OpKind::Sort { .. } => {
            let lg = (in_rows.max(2) as f64).log2().ceil();
            let passes = (lg * (lg + 1.0) / 4.0).max(1.0);
            let network = stream("sort", 10.0 * passes, in_bytes * passes, in_bytes * passes);
            vec![(network.regs_per_thread(STAGE_REGS + 8), in_rows)]
        }
        // One neighbour-compare pass plus compaction.
        OpKind::Unique => {
            let compare = stream("unique", 12.0, in_bytes, sel * in_bytes);
            vec![(compare.regs_per_thread(STAGE_REGS), in_rows)]
        }
    }
}

/// The kernels of a fused group of two or more `members`: one compute
/// kernel (shared skeleton, members' stages interleaved, intermediates in
/// registers) over the rows of its widest external input, plus one gather
/// of its `outputs`. `externals` are the producers outside the group that
/// feed it; `gidx` names the group in labels.
pub(crate) fn fused_kernels(
    graph: &PlanGraph,
    cards: &Cardinalities,
    members: &[NodeId],
    externals: &[NodeId],
    outputs: &[NodeId],
    level: OptLevel,
    gidx: usize,
) -> Vec<(KernelProfile, u64)> {
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
    // predicate is charged alone — as they are when one of them reads a slot
    // at the other type than its column has (the batch engine declines it;
    // the functional phase ran it only because no row reached it).
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
    let predicate = |m: NodeId| match graph.nodes[m].kind.body() {
        Some((pred, BodyRole::Predicate)) => Some(pred),
        _ => None,
    };
    let selects: Vec<_> =
        members.iter().filter_map(|&m| predicate(m).map(|pred| (numbering(m), pred))).collect();
    let one_schema =
        selects.iter().map(|(n, _)| n).max_by_key(|n| n.1.len()).is_some_and(|widest| {
            selects.iter().all(|(n, _)| n.0 == widest.0 && widest.1.starts_with(&n.1))
        });
    let spliced = (selects.len() >= 2 && one_schema).then(|| {
        let preds: Vec<_> = selects.iter().map(|&(_, pred)| pred.clone()).collect();
        try_fuse_predicate_chain(&preds).ok()
    });
    let mut instr = FILTER_STAGE_INSTR;
    instr += match spliced.flatten() {
        Some(fused) => body_instr(&fused, level),
        None => selects.iter().map(|(_, p)| body_instr(p, level) + 2.0).sum::<f64>(),
    };
    instr += members
        .iter()
        .filter(|&&m| predicate(m).is_none())
        .map(|&m| fused_step(&graph.nodes[m].kind, level).instr)
        .sum::<f64>();

    let compute = KernelProfile::new(format!("fused_compute#g{gidx}"))
        .instr_per_elem(instr)
        .bytes_read_per_elem(read)
        .bytes_written_per_elem(write + FILTER_BOOKKEEPING_BYTES)
        .regs_per_thread(group_regs(graph, members, level))
        .mem_efficiency(STREAM_MEM_EFF);

    let out_rows: u64 = outputs.iter().map(|&o| cards.rows[o]).max().unwrap_or(0);
    let out_bytes: f64 = if out_rows == 0 {
        8.0
    } else {
        outputs.iter().map(|&o| cards.bytes(o) as f64).sum::<f64>() / out_rows as f64
    };
    vec![(compute, elems), (select_gather(format!("fused_gather#g{gidx}"), out_bytes), out_rows)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{schedule_given, ExecConfig, Strategy};
    use kfusion_ir::fuse::fuse_predicate_chain;
    use kfusion_relalg::ops::sort::bitonic_pass_count;
    use kfusion_relalg::ops::{Agg, SortBy};
    use kfusion_relalg::predicates;
    use kfusion_vgpu::{DeviceSpec, GpuSystem, LaunchConfig};

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

    /// The one kernel `kind` costs over `n` rows of `row_bytes`-wide input.
    fn lone_kernel(kind: OpKind, n: u64, row_bytes: f64) -> KernelProfile {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let id = g.add(kind, vec![i]);
        let cards = Cardinalities { rows: vec![n; 2], row_bytes: vec![row_bytes; 2] };
        node_kernels(&g, &cards, id, OptLevel::O3).remove(0).0
    }

    /// SORT's price over `n` rows, as a kernel of its own.
    fn sort_kernel(n: u64, row_bytes: f64) -> KernelProfile {
        lone_kernel(OpKind::Sort { by: SortBy::Key }, n, row_bytes)
    }

    /// AGGREGATE's price with `n_aggs` aggregates, as a kernel of its own.
    fn aggregate_kernel(row_bytes: f64, n_aggs: usize) -> KernelProfile {
        lone_kernel(OpKind::Aggregate { aggs: vec![Agg::Count; n_aggs] }, 1, row_bytes)
    }

    fn throughput_gbps(p: &KernelProfile, n: u64, input_bytes_per_elem: f64) -> f64 {
        let spec = DeviceSpec::tesla_c2070();
        let launch = LaunchConfig::for_elements(n, &spec);
        let t = p.time(&spec, &launch, n);
        n as f64 * input_bytes_per_elem / t / 1e9
    }

    #[test]
    fn gpu_select_lands_in_paper_throughput_band() {
        // Fig. 4(a): GPU SELECT compute throughput, 32-bit elements. The
        // paper's curves run ~10–25 GB/s depending on selectivity; filter +
        // gather combined should land in that band at 50%.
        let pred = predicates::key_lt(1 << 31);
        let n = 256u64 << 20;
        let f = select_filter("f", &pred, OptLevel::O3, 4.0, 0.5);
        let g = select_gather("g", 4.0);
        let spec = DeviceSpec::tesla_c2070();
        let launch = LaunchConfig::for_elements(n, &spec);
        let total = f.time(&spec, &launch, n)
            + g.time(&spec, &LaunchConfig::for_elements(n / 2, &spec), n / 2);
        let gbps = n as f64 * 4.0 / total / 1e9;
        assert!((8.0..30.0).contains(&gbps), "GPU SELECT 50%: {gbps} GB/s");
    }

    #[test]
    fn gpu_beats_cpu_select_by_paper_ratios() {
        // Fig. 4(a): GPU/CPU ≈ 2.88x (10%), 8.80x (50%), 8.35x (90%).
        let n = 128u64 << 20;
        let cpu_spec = DeviceSpec::xeon_e5520_pair();
        let gpu_spec = DeviceSpec::tesla_c2070();
        let cpu_launch = LaunchConfig { ctas: 16, threads_per_cta: 1 };
        for (sel, lo, hi) in [(0.1, 2.0, 4.5), (0.5, 5.5, 12.0), (0.9, 5.0, 12.0)] {
            let pred = predicates::key_lt((sel * 4.0e9) as u64);
            let f = select_filter("f", &pred, OptLevel::O3, 4.0, sel);
            let g = select_gather("g", 4.0);
            let matched = (n as f64 * sel) as u64;
            let t_gpu = f.time(&gpu_spec, &LaunchConfig::for_elements(n, &gpu_spec), n)
                + g.time(&gpu_spec, &LaunchConfig::for_elements(matched, &gpu_spec), matched);
            let t_cpu = cpu_select(4.0, sel).time(&cpu_spec, &cpu_launch, n);
            let ratio = t_cpu / t_gpu;
            assert!(
                (lo..hi).contains(&ratio),
                "GPU/CPU ratio at sel {sel}: {ratio:.2} (want {lo}..{hi})"
            );
        }
    }

    #[test]
    fn lower_selectivity_is_faster_for_both() {
        // Paper: "the less data selected, the better performance on both".
        let n = 64u64 << 20;
        let mut prev_gpu = 0.0;
        let mut prev_cpu = 0.0;
        for sel in [0.1, 0.5, 0.9] {
            let pred = predicates::key_lt((sel * 4.0e9) as u64);
            let f = select_filter("f", &pred, OptLevel::O3, 4.0, sel);
            let gpu = throughput_gbps(&f, n, 4.0);
            if prev_gpu > 0.0 {
                assert!(gpu < prev_gpu, "GPU throughput should fall with selectivity");
            }
            prev_gpu = gpu;
            let cpu_spec = DeviceSpec::xeon_e5520_pair();
            let t = cpu_select(4.0, sel).time(
                &cpu_spec,
                &LaunchConfig { ctas: 16, threads_per_cta: 1 },
                n,
            );
            let cpu = n as f64 * 4.0 / t / 1e9;
            if prev_cpu > 0.0 {
                assert!(cpu < prev_cpu, "CPU throughput should fall with selectivity");
            }
            prev_cpu = cpu;
        }
    }

    #[test]
    fn fused_filter_cheaper_than_two_filters() {
        let a = predicates::key_lt(100);
        let b = predicates::key_lt(70);
        let fused = fuse_predicate_chain(&[a.clone(), b.clone()]);
        let two =
            body_instr(&a, OptLevel::O3) + body_instr(&b, OptLevel::O3) + 2.0 * FILTER_STAGE_INSTR;
        let one = body_instr(&fused, OptLevel::O3) + FILTER_STAGE_INSTR;
        assert!(one < two / 1.8, "fused {one} vs separate {two}");
    }

    #[test]
    fn sort_dwarfs_linear_operators() {
        let n = 1u64 << 22;
        let spec = DeviceSpec::tesla_c2070();
        let launch = LaunchConfig::for_elements(n, &spec);
        let t_sort = sort_kernel(n, 32.0).time(&spec, &launch, n);
        let t_agg = aggregate_kernel(32.0, 5).time(&spec, &launch, n);
        assert!(t_sort > 8.0 * t_agg, "sort {t_sort} vs agg {t_agg}");
    }

    #[test]
    fn pass_count_matches_cost_model_shape() {
        // The cost model charges log2(n)(log2(n)+1)/4 global passes — half
        // the true network (early passes run in shared memory). Verify the
        // 2x relationship against the real network's count.
        for n in [1u64 << 10, 1 << 16, 1 << 20] {
            let real = bitonic_pass_count(n) as f64;
            let k = sort_kernel(n, 8.0);
            let model_passes = k.bytes_read_per_elem / 8.0;
            let ratio = real / model_passes;
            assert!(
                (1.7..2.4).contains(&ratio),
                "n={n}: network {real} vs model {model_passes} (ratio {ratio})"
            );
        }
    }

    /// The compute kernel of the one fused group `g` forms under FUSION.
    fn fused_compute_instr(g: &PlanGraph) -> f64 {
        let s = GpuSystem::c2070();
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
    /// each predicate on its own when a PROJECT renumbers between them, two
    /// COLUMN-JOINs put different columns into the same slots, or two
    /// predicates read one slot at different types.
    #[test]
    fn only_selects_over_one_schema_are_charged_as_one_body() {
        let level = ExecConfig::new(Strategy::Fusion, &GpuSystem::c2070()).level;
        let (a, b) = (predicates::key_lt(1 << 40), predicates::key_lt(1 << 30));
        let alone = |p: &KernelBody| body_instr(p, level) + 2.0;
        let select = |p: &KernelBody| OpKind::Select { pred: p.clone() };
        let spliced = body_instr(&fuse_predicate_chain(&[a.clone(), b.clone()]), level);
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
            let step = fused_step(&between, level).instr;
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
        let steps = 3.0 * fused_step(&OpKind::ColumnJoin, level).instr;
        let selects = alone(&a) + 2.0 * alone(&b);
        assert_eq!(fused_compute_instr(&g), FILTER_STAGE_INSTR + selects + steps);

        // Slot 1 read as an i64 and as an f64: no column feeds both, so the
        // two are not one body (the batch engine declines one of them; the
        // query reaches this phase only if no row reached it).
        let ints = predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Lt, 3);
        let floats = predicates::col_cmp_f64(0, kfusion_ir::CmpOp::Lt, 0.5);
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let first = g.add(select(&ints), vec![i]);
        g.add(select(&floats), vec![first]);
        assert_eq!(fused_compute_instr(&g), FILTER_STAGE_INSTR + alone(&ints) + alone(&floats));
    }
}
