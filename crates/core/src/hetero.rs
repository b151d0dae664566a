//! Heterogeneous CPU+GPU execution of fused kernels — the paper's stated
//! future work (§III-C): "if using an execution model translator such as
//! Ocelot, it is possible to execute fused kernels on both the CPU and GPU
//! to fully utilize the available computation power."
//!
//! The implementation extends the fission pipeline: the input is segmented
//! as usual ([`crate::exec`] emits the GPU's segments; this module only adds
//! host work), but a fraction of the segments never cross PCIe at all — the
//! *host* executes their fused kernel directly from host memory (Ocelot's
//! PTX→CPU translation, here the same IR body interpreted by the CPU cost
//! model). Because the GPU pipeline is PCIe-bound on data-warehousing
//! workloads, every segment kept on the CPU removes transfer load; the
//! optimum split balances the host's compute rate against the GPU
//! pipeline's transfer rate.

use crate::cost;
use crate::exec::{self, ExecConfig, Strategy, CPU_GATHER_BW};
use crate::microbench::SelectChain;
use crate::report::Report;
use crate::CoreError;
use kfusion_vgpu::{segment, Command, DeviceSpec, GpuSystem, LaunchConfig, Schedule};

/// Run `chain` under fused fission with `cpu_fraction` of the segments
/// executed by the host (`cpu` spec) instead of the GPU.
///
/// `cpu_fraction = 0.0` degenerates to the ordinary fused-fission pipeline.
pub fn run_hetero(
    system: &GpuSystem,
    cpu: &DeviceSpec,
    chain: &SelectChain,
    segments: u32,
    cpu_fraction: f64,
) -> Result<Report, CoreError> {
    let cards = chain.cardinalities()?;
    let schedule = hetero_schedule(system, cpu, chain, &cards, segments, cpu_fraction)?;
    Ok(Report::from_row_bytes(system.simulate(&schedule)?, chain.n, chain.row_bytes))
}

/// Every stage's cardinality cut into `segments` exact parts; the GPU takes
/// the first `gpu_segments` of each, the host the rest.
fn split(cards: &[u64], segments: u32, gpu_segments: u32) -> (Vec<u64>, Vec<Vec<u64>>) {
    let parts: Vec<Vec<u64>> = cards
        .iter()
        .map(|&c| segment::partition(c, segments).iter().map(segment::SegRange::len).collect())
        .collect();
    let g = gpu_segments as usize;
    let gpu = parts.iter().map(|p| p[..g].iter().sum()).collect();
    let host = (g..segments as usize).map(|s| parts.iter().map(|p| p[s]).collect()).collect();
    (gpu, host)
}

fn hetero_schedule(
    system: &GpuSystem,
    cpu: &DeviceSpec,
    chain: &SelectChain,
    cards: &[u64],
    segments: u32,
    cpu_fraction: f64,
) -> Result<Schedule, CoreError> {
    let cpu_segments =
        ((segments as f64 * cpu_fraction.clamp(0.0, 1.0)).round() as u32).min(segments);
    let gpu_segments = segments - cpu_segments;
    let (gpu_cards, host_cards) = split(cards, segments, gpu_segments);

    // GPU segments: the ordinary fused pipeline over the GPU's share. The
    // first `g` parts of a balanced `k`-way partition are themselves the
    // balanced `g`-way partition of their sum, so the one schedule builder
    // cuts the share into exactly these segments.
    let mut sched = if gpu_segments == 0 {
        Schedule::new()
    } else {
        let strategy = Strategy::FusionFission { segments: gpu_segments };
        let cfg = ExecConfig { level: chain.level, ..ExecConfig::new(strategy, system) };
        exec::schedule_given(system, &chain.to_plan(), &chain.given(&gpu_cards), &cfg)?
    };

    // CPU segments: no PCIe at all — the host runs the chain stage by stage
    // at its own rate (fusing on the CPU shares the scan but still evaluates
    // each predicate on the survivors; no separate gather kernel), then
    // appends its results to the output buffer like the CPU-side gather of
    // §IV-C.
    let host_stream = sched.add_stream();
    let cpu_launch =
        LaunchConfig { ctas: cpu.sm_count * cpu.max_threads_per_sm, threads_per_cta: 1 };
    for (s, seg) in host_cards.iter().enumerate() {
        let t: f64 = seg
            .windows(2)
            .map(|w| {
                let sel = if w[0] == 0 { 0.0 } else { w[1] as f64 / w[0] as f64 };
                cost::cpu_select(chain.row_bytes, sel).time(cpu, &cpu_launch, w[0])
            })
            .sum();
        let out_bytes = seg[chain.depth()] as f64 * chain.row_bytes;
        sched.push(host_stream, Command::host_work(format!("cpu_fused[c{s}]"), t));
        sched.push(
            host_stream,
            Command::host_work(format!("cpu_gather[c{s}]"), out_bytes / CPU_GATHER_BW),
        );
    }
    Ok(sched)
}

/// Sweep the CPU fraction and return `(best_fraction, best_report)`.
pub fn best_split(
    system: &GpuSystem,
    cpu: &DeviceSpec,
    chain: &SelectChain,
    segments: u32,
) -> Result<(f64, Report), CoreError> {
    let mut best: Option<(f64, Report)> = None;
    for pct in 0..=50 {
        let f = pct as f64 / 100.0;
        let r = run_hetero(system, cpu, chain, segments, f)?;
        if best.as_ref().is_none_or(|(_, b)| r.total() < b.total()) {
            best = Some((f, r));
        }
    }
    Ok(best.expect("at least one split evaluated"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GpuSystem, DeviceSpec, SelectChain) {
        (
            GpuSystem::c2070(),
            DeviceSpec::xeon_e5520_pair(),
            SelectChain::auto(500_000_000, &[0.5, 0.5]),
        )
    }

    #[test]
    fn zero_fraction_matches_pure_gpu_pipeline_shape() {
        let (sys, cpu, chain) = setup();
        let r = run_hetero(&sys, &cpu, &chain, 16, 0.0).unwrap();
        assert!(r.total() > 0.0);
        assert!(r.label_time("cpu_fused") == 0.0, "no CPU kernels at fraction 0");
    }

    #[test]
    fn gpu_and_cpu_segments_cover_a_non_divisible_input_exactly() {
        // 20 segments at a 15 % CPU share (17 GPU + 3 host) of 100 000 019
        // elements: uploads, every kernel's launches, and the host's slices
        // must add up to the whole — `round(n / 20)` each would not.
        use kfusion_vgpu::des::CommandKind;
        let (sys, cpu, _) = setup();
        let mut chain = SelectChain::auto(100_000_019, &[0.5, 0.5]);
        chain.mode = crate::microbench::DataMode::Synthetic;
        let cards = chain.cardinalities().unwrap();
        let (gpu, host) = split(&cards, 20, 17);
        assert_eq!(host.len(), 3);
        for (i, &whole) in cards.iter().enumerate() {
            assert_eq!(gpu[i] + host.iter().map(|seg| seg[i]).sum::<u64>(), whole, "stage {i}");
        }
        let sched = hetero_schedule(&sys, &cpu, &chain, &cards, 20, 0.15).unwrap();
        let total = |prefix: &str| -> (u64, usize) {
            let sizes: Vec<u64> = sched
                .streams
                .iter()
                .flatten()
                .filter(|c| c.label.starts_with(prefix))
                .map(|c| match &c.kind {
                    CommandKind::CopyH2D { bytes, .. } => *bytes,
                    CommandKind::Kernel { elems, .. } => *elems,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            (sizes.iter().sum(), sizes.len())
        };
        assert_eq!(total("in#0"), (4 * gpu[0], 17));
        assert_eq!(total("fused_compute"), (gpu[0], 17));
        assert_eq!(total("fused_gather"), (gpu[2], 17));
        let host_cmds = sched.streams.last().unwrap();
        assert_eq!(host_cmds.iter().filter(|c| c.label.starts_with("cpu_fused")).count(), 3);
    }

    #[test]
    fn modest_cpu_share_beats_gpu_only() {
        // The GPU pipeline is PCIe-bound; handing ~10-20% of segments to the
        // host removes transfer load faster than the host's slow compute
        // costs — the whole point of the Ocelot direction.
        let (sys, cpu, chain) = setup();
        let gpu_only = run_hetero(&sys, &cpu, &chain, 20, 0.0).unwrap();
        let hetero = run_hetero(&sys, &cpu, &chain, 20, 0.15).unwrap();
        assert!(
            hetero.total() < gpu_only.total(),
            "hetero {} vs gpu-only {}",
            hetero.total(),
            gpu_only.total()
        );
    }

    #[test]
    fn all_cpu_is_much_slower_at_high_selectivity() {
        // At high selectivity the CPU's per-selected-element write path
        // dominates and the GPU pipeline wins decisively. (At *low*
        // selectivity the PCIe-bound GPU pipeline and the 16-thread host
        // are comparable — the Gregg & Hazelwood "where is the data" point
        // the paper cites.)
        let (sys, cpu, _) = setup();
        let chain = SelectChain::auto(500_000_000, &[0.9, 0.9]);
        let gpu_only = run_hetero(&sys, &cpu, &chain, 20, 0.0).unwrap();
        let cpu_only = run_hetero(&sys, &cpu, &chain, 20, 1.0).unwrap();
        assert!(
            cpu_only.total() > 2.0 * gpu_only.total(),
            "cpu {} vs gpu {}",
            cpu_only.total(),
            gpu_only.total()
        );
    }

    #[test]
    fn best_split_is_interior_and_beats_endpoints() {
        let (sys, cpu, chain) = setup();
        let (frac, best) = best_split(&sys, &cpu, &chain, 20).unwrap();
        assert!(frac > 0.0 && frac < 0.5, "optimal CPU share {frac}");
        let gpu_only = run_hetero(&sys, &cpu, &chain, 20, 0.0).unwrap();
        assert!(best.total() <= gpu_only.total());
    }
}
