//! Figure 8: two back-to-back 50% SELECTs under the three §III-B methods.
//!
//! (a) end-to-end data throughput of *with round trip* (intermediate
//! bounced through the CPU), *without round trip* (intermediate resident),
//! and *fused* (one kernel). Paper: fused is +49.9% over with-round-trip
//! and +6.2% over without-round-trip on average.
//!
//! (b) GPU-computation-only comparison of *without round trip* vs *fused*.
//! Paper: fused is +79.9% on the compute part.

use kfusion_bench::{chain, fusion_axis, gbps, print_header, ratio, system, Table};
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::run_with_cards;

fn main() {
    let _trace = kfusion_bench::trace_session("fig08_fusion_throughput");
    print_header("Fig. 8", "2x back-to-back SELECT (50%): round trip vs fused");
    let sys = system();
    let mut t = Table::new([
        "elements",
        "w/ round trip GB/s",
        "w/o round trip GB/s",
        "fused GB/s",
        "fused compute GB/s",
        "unfused compute GB/s",
    ]);
    let (mut g_rt, mut g_wo, mut g_comp) = (0.0, 0.0, 0.0);
    let axis = fusion_axis();
    for &n in &axis {
        let c = chain(n, &[0.5, 0.5]);
        let cards = c.cardinalities().unwrap();
        let with_rt = run_with_cards(&sys, &c, Strategy::SerialRoundTrip, &cards).unwrap();
        let without = run_with_cards(&sys, &c, Strategy::Serial, &cards).unwrap();
        let fused = run_with_cards(&sys, &c, Strategy::Fusion, &cards).unwrap();
        g_rt += fused.throughput_gbps() / with_rt.throughput_gbps();
        g_wo += fused.throughput_gbps() / without.throughput_gbps();
        g_comp += fused.compute_throughput_gbps() / without.compute_throughput_gbps();
        t.row([
            n.to_string(),
            gbps(with_rt.throughput_gbps()),
            gbps(without.throughput_gbps()),
            gbps(fused.throughput_gbps()),
            gbps(fused.compute_throughput_gbps()),
            gbps(without.compute_throughput_gbps()),
        ]);
    }
    t.print();
    let k = axis.len() as f64;
    println!(
        "average fused gain over with-round-trip : +{:.1}%  (paper: +49.9%)",
        (g_rt / k - 1.0) * 100.0
    );
    println!(
        "average fused gain over w/o round trip  : +{:.1}%  (paper: +6.2%)",
        (g_wo / k - 1.0) * 100.0
    );
    println!(
        "average compute-only fusion gain        : +{:.1}%  (paper: +79.9%)",
        (g_comp / k - 1.0) * 100.0
    );
    println!(
        "(ratio columns derived from throughput: {}x / {}x / {}x)",
        ratio(g_rt / k),
        ratio(g_wo / k),
        ratio(g_comp / k)
    );
}
