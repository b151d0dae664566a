//! Figure 4(a): SELECT data throughput, GPU vs. 16-thread CPU, at 10%, 50%
//! and 90% selectivity over random 32-bit integers (PCIe transfer time
//! excluded, as in the paper).
//!
//! Paper headline: the GPU averages 2.88× (10%), 8.80× (50%) and 8.35×
//! (90%) over the CPU, and less-selective filters are faster on both.

use kfusion_bench::{chain, fusion_axis, gbps, print_header, ratio, system, Table};
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::{run, run_cpu};
use kfusion_vgpu::DeviceSpec;

fn main() {
    let _trace = kfusion_bench::trace_session("fig04a_select_gpu_vs_cpu");
    print_header("Fig. 4(a)", "SELECT throughput, GPU vs CPU (compute only)");
    let sys = system();
    let cpu = DeviceSpec::xeon_e5520_pair();
    let sels = [0.1, 0.5, 0.9];

    let mut t = Table::new([
        "elements".to_string(),
        "gpu10 GB/s".into(),
        "gpu50 GB/s".into(),
        "gpu90 GB/s".into(),
        "cpu10 GB/s".into(),
        "cpu50 GB/s".into(),
        "cpu90 GB/s".into(),
    ]);
    let mut ratios = [0.0f64; 3];
    let axis = fusion_axis();
    for &n in &axis {
        let mut cells = vec![n.to_string()];
        let mut gpu_thr = [0.0; 3];
        let mut cpu_thr = [0.0; 3];
        for (k, &s) in sels.iter().enumerate() {
            let c = chain(n, &[s]);
            gpu_thr[k] = run(&sys, &c, Strategy::Serial).unwrap().compute_throughput_gbps();
            cpu_thr[k] = run_cpu(&cpu, &c).unwrap().throughput_gbps();
        }
        for v in gpu_thr {
            cells.push(gbps(v));
        }
        for v in cpu_thr {
            cells.push(gbps(v));
        }
        for k in 0..3 {
            ratios[k] += gpu_thr[k] / cpu_thr[k];
        }
        t.row(cells);
    }
    t.print();
    println!("average GPU/CPU speedup (paper: 2.88x / 8.80x / 8.35x):");
    for (k, s) in sels.iter().enumerate() {
        println!("  sel {:>3.0}%: {}x", s * 100.0, ratio(ratios[k] / axis.len() as f64));
    }
}
