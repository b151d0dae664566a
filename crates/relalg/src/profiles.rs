//! Kernel cost profiles for every operator — the timing half of the
//! substrate.
//!
//! Each relational operator compiles to one or more CUDA-kernel-equivalents
//! whose per-element costs are assembled here from (a) the *optimized* IR
//! instruction count of its user body (predicate/expression), (b) fixed
//! per-stage overheads of the multi-stage skeleton (partition / buffer /
//! gather bookkeeping, CTA-count scans, global synchronization), and (c)
//! the bytes the stage moves through global memory.
//!
//! Fusion manifests concretely in these formulas:
//! * a fused filter evaluates the *fused+O3* body — fewer instructions than
//!   the sum of parts (Table III);
//! * a fused chain reads its input **once** and never materializes
//!   intermediates (Fig. 7(c)/(d));
//! * the partition/buffer skeleton and the trailing gather kernel are paid
//!   **once** per fused kernel instead of once per operator (Fig. 7(e)).
//!
//! Constants are calibrated so the virtual C2070 lands in the throughput
//! bands of the paper's Fig. 4(a); see EXPERIMENTS.md for paper-vs-measured.

use kfusion_ir::cost::{instruction_count, max_live_regs};
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

/// Optimized per-element instruction count of an IR body plus the `extra`
/// skeleton overhead.
pub fn body_instr(body: &KernelBody, level: OptLevel) -> f64 {
    instruction_count(&optimize(body, level)) as f64
}

/// Register footprint of an IR body at `level`, plus the skeleton registers.
/// Uses the liveness-precise maximum (`max_live_regs`), not the distinct
/// register count — what occupancy actually depends on.
pub fn body_regs(body: &KernelBody, level: OptLevel) -> u32 {
    max_live_regs(&optimize(body, level)) as u32 + STAGE_REGS
}

/// The filter kernel of one (possibly fused) SELECT: evaluates `body` per
/// input element, buffers survivors.
///
/// * `body` — the predicate (for a fused chain, the *fused* predicate).
/// * `row_bytes` — logical bytes per tuple.
/// * `selectivity` — fraction of tuples surviving **all** predicates in the
///   kernel (what the buffer stage writes).
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

/// The gather kernel of a SELECT: invoked over the *matched* elements,
/// copying each from its CTA buffer to its final position.
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
/// Per-element cost is calibrated to the paper's measured CPU curve
/// (Fig. 4(a)): a small fixed scan cost, a large per-*selected*-element
/// write-path cost (the 16-thread implementation's buffered appends), and a
/// branch-misprediction term peaking at 50% selectivity — together these
/// reproduce GPU speedups of ≈2.9×/8.8×/8.4× at 10/50/90% selectivity.
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

/// SORT: a bitonic sorting network, the style of sort 2012-era GPU RA
/// libraries used. A full network is `log2(n)·(log2(n)+1)/2` compare-swap
/// passes; the early passes run in shared memory, which the `/2` efficiency
/// factor accounts for, leaving `log²(n)/4` global-memory passes. The
/// superlinear pass count is why SORT dominates the unoptimized Q1 (~71% of
/// execution, paper §V) and why it is the plan's immovable barrier.
pub fn sort_kernel(n: u64, row_bytes: f64) -> KernelProfile {
    let lg = (n.max(2) as f64).log2().ceil();
    let passes = (lg * (lg + 1.0) / 4.0).max(1.0);
    KernelProfile::new("sort")
        .instr_per_elem(10.0 * passes)
        .bytes_read_per_elem(row_bytes * passes)
        .bytes_written_per_elem(row_bytes * passes)
        .regs_per_thread(STAGE_REGS + 8)
        .mem_efficiency(STREAM_MEM_EFF)
}

/// AGGREGATION (reduce-by-key on sorted input): one segmented-scan pass.
pub fn aggregate_kernel(row_bytes: f64, n_aggs: usize) -> KernelProfile {
    KernelProfile::new("aggregate")
        .instr_per_elem(10.0 + 6.0 * n_aggs as f64)
        .bytes_read_per_elem(row_bytes)
        // Output is one row per group: negligible next to the input scan.
        .bytes_written_per_elem(0.5)
        .regs_per_thread(STAGE_REGS + 2 * n_aggs as u32)
        .mem_efficiency(STREAM_MEM_EFF)
}

/// ARITH map: evaluates `body` per tuple, writing one column per output.
pub fn arith_kernel(
    name: impl Into<String>,
    body: &KernelBody,
    level: OptLevel,
    in_bytes: f64,
    out_bytes: f64,
) -> KernelProfile {
    KernelProfile::new(name)
        .instr_per_elem(body_instr(body, level) + 6.0)
        .bytes_read_per_elem(in_bytes)
        .bytes_written_per_elem(out_bytes)
        .regs_per_thread(body_regs(body, level))
        .mem_efficiency(STREAM_MEM_EFF)
}

/// UNIQUE: one neighbour-compare pass plus compaction.
pub fn unique_kernel(row_bytes: f64, keep_factor: f64) -> KernelProfile {
    KernelProfile::new("unique")
        .instr_per_elem(12.0)
        .bytes_read_per_elem(row_bytes)
        .bytes_written_per_elem(keep_factor * row_bytes)
        .regs_per_thread(STAGE_REGS)
        .mem_efficiency(STREAM_MEM_EFF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates;
    use kfusion_ir::fuse::fuse_predicate_chain;
    use kfusion_vgpu::{DeviceSpec, LaunchConfig};

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
}
