//! The schedule builder: (plan, fusion groups, [`Cardinalities`], strategy)
//! in, `vgpu` command streams out. The only place a strategy becomes
//! transfer and kernel commands.
//!
//! This module arranges commands on streams and prices nothing: every
//! kernel it emits, a lone node's ([`node_kernels`]) or a fused group's
//! ([`fused_kernels`]), comes from `crate::cost`, and what may be segmented
//! is the `dep` column of `OpKind::traits`.

use super::{Cardinalities, ExecConfig, Strategy};
use crate::cost::{fused_kernels, node_kernels};
use crate::deps::Dep;
use crate::fusion::FusionPlan;
use crate::graph::{NodeId, PlanGraph};
use kfusion_ir::opt::OptLevel;
use kfusion_vgpu::des::EventId;
use kfusion_vgpu::{
    segment, Command, CommandClass, Direction, GpuSystem, HostMemKind, KernelProfile, LaunchConfig,
    Schedule,
};

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

/// The kernels of one group: a singleton's own, or a fused group's priced
/// over its externals and outputs.
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
    fused_kernels(graph, cards, members, &externals, &outputs, level, gidx)
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

pub(super) fn build_schedule(
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
    let mut cmds: Vec<Command> = graph
        .inputs()
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
            .partition(|&e| graph.nodes[e].kind.is_input());
        let upload: Vec<NodeId> =
            inputs.iter().copied().filter(|&e| resident[e] == Resident::No).collect();
        let group_roots: Vec<NodeId> =
            roots.iter().copied().filter(|&r| plan.group_of[r] == Some(gidx)).collect();
        // A pipeline stream never waits for the main stream, so a region
        // cannot read what the main stream uploaded or computed.
        let joins = segments > 1
            && members.iter().all(|&m| graph.nodes[m].kind.traits().dep == Dep::Elementwise)
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

/// Peak simulated GPU-memory residency (bytes) of executing `graph` with
/// every intermediate kept on the device: plan inputs stay resident from
/// upload, each node's output is allocated at its definition and released
/// after its last consumer — a liveness scan over the topological order,
/// exercised against [`kfusion_vgpu::DeviceMemory`] in the tests.
pub(super) fn peak_resident_bytes(graph: &PlanGraph, cards: &Cardinalities) -> u64 {
    let mut remaining = graph.consumer_counts();
    let mut mem = kfusion_vgpu::DeviceMemory::new(u64::MAX);
    let mut live: Vec<Option<kfusion_vgpu::memory::AllocId>> = vec![None; graph.len()];
    for id in graph.inputs() {
        live[id] = Some(mem.alloc(cards.bytes(id)).expect("unbounded tracker"));
    }
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.kind.is_input() {
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

#[cfg(test)]
mod tests {
    use super::super::{execute, schedule_given};
    use super::*;
    use crate::graph::OpKind;
    use crate::patterns;
    use kfusion_relalg::gen;
    use kfusion_vgpu::Engine;

    fn sys() -> GpuSystem {
        GpuSystem::c2070()
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
                let inputs: Vec<NodeId> = g.inputs().collect();
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
}
