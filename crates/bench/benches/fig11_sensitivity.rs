//! Figure 11: sensitivity of kernel fusion.
//!
//! (a) to the number of fused kernels: GPU throughput of 3-SELECT vs
//! 2-SELECT chains, fused vs unfused. Paper: fusing three achieves 2.35×
//! (vs unfused), fusing two 1.80×.
//!
//! (b) to the data selection rate: fused vs unfused 2-chains at 10% and
//! 90% selectivity. Paper: fusion's benefit grows with the fraction of
//! data selected, because more data movement is eliminated.

use kfusion_bench::{chain, fusion_axis, gbps, print_header, ratio, system, Table};
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::{run, SelectChain};

fn main() {
    let _trace = kfusion_bench::trace_session("fig11_sensitivity");
    print_header("Fig. 11(a)", "sensitivity to the number of fused SELECTs (compute)");
    let sys = system();
    let axis = fusion_axis();
    // GPU computation only (PCIe excluded): fused vs one kernel set per SELECT.
    let fused = |c: &SelectChain| run(&sys, c, Strategy::Fusion).unwrap().compute_throughput_gbps();
    let unfused =
        |c: &SelectChain| run(&sys, c, Strategy::Serial).unwrap().compute_throughput_gbps();

    let mut t = Table::new([
        "elements",
        "fusion 3 GB/s",
        "no fusion 3 GB/s",
        "fusion 2 GB/s",
        "no fusion 2 GB/s",
    ]);
    let (mut g2, mut g3) = (0.0, 0.0);
    for &n in &axis {
        let c2 = chain(n, &[0.5, 0.5]);
        let c3 = chain(n, &[0.5, 0.5, 0.5]);
        let (f3, u3) = (fused(&c3), unfused(&c3));
        let (f2, u2) = (fused(&c2), unfused(&c2));
        g3 += f3 / u3;
        g2 += f2 / u2;
        t.row([n.to_string(), gbps(f3), gbps(u3), gbps(f2), gbps(u2)]);
    }
    t.print();
    let k = axis.len() as f64;
    println!("average fusion gain, 3 SELECTs: {}x  (paper: 2.35x)", ratio(g3 / k));
    println!("average fusion gain, 2 SELECTs: {}x  (paper: 1.80x)", ratio(g2 / k));
    println!();

    print_header("Fig. 11(b)", "sensitivity to the data selection rate (compute)");
    let mut t = Table::new([
        "elements",
        "fusion(10%) GB/s",
        "no fusion(10%) GB/s",
        "fusion(90%) GB/s",
        "no fusion(90%) GB/s",
    ]);
    let (mut lo, mut hi) = (0.0, 0.0);
    for &n in &axis {
        let c10 = chain(n, &[0.1, 0.1]);
        let c90 = chain(n, &[0.9, 0.9]);
        let (f10, u10) = (fused(&c10), unfused(&c10));
        let (f90, u90) = (fused(&c90), unfused(&c90));
        lo += f10 / u10;
        hi += f90 / u90;
        t.row([n.to_string(), gbps(f10), gbps(u10), gbps(f90), gbps(u90)]);
    }
    t.print();
    println!("average fusion gain at 10% selected: {}x", ratio(lo / k));
    println!("average fusion gain at 90% selected: {}x", ratio(hi / k));
    println!("paper: the benefit increases with the fraction of data selected.");
}
