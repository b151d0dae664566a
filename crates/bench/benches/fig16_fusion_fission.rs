//! Figure 16: two back-to-back 50% SELECTs on very large data under four
//! methods — serial, fusion only, fission only, and fusion+fission
//! (Fig. 15's combined pipeline with the CPU-side gather).
//!
//! Paper headlines: fusion+fission beats serial by 41.4%, fusion-only by
//! 31.3%, and fission-only by 10.1% on average.

use kfusion_bench::{chain, fission_axis, gbps, print_header, system, Table};
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::run_with_cards;

fn main() {
    let _trace = kfusion_bench::trace_session("fig16_fusion_fission");
    print_header("Fig. 16", "serial vs fusion vs fission vs fusion+fission (2x SELECT)");
    let sys = system();
    let mut t = Table::new([
        "elements(M)",
        "fusion+fission GB/s",
        "fission GB/s",
        "fusion GB/s",
        "serial GB/s",
    ]);
    let (mut vs_serial, mut vs_fusion, mut vs_fission) = (0.0, 0.0, 0.0);
    let axis = fission_axis();
    for &n in &axis {
        let c = chain(n, &[0.5, 0.5]);
        let cards = c.cardinalities().unwrap();
        let segments = (n / 64_000_000).max(8) as u32;
        let serial = run_with_cards(&sys, &c, Strategy::Serial, &cards).unwrap();
        let fusion = run_with_cards(&sys, &c, Strategy::Fusion, &cards).unwrap();
        let fission = run_with_cards(&sys, &c, Strategy::Fission { segments }, &cards).unwrap();
        let both = run_with_cards(&sys, &c, Strategy::FusionFission { segments }, &cards).unwrap();
        vs_serial += both.throughput_gbps() / serial.throughput_gbps();
        vs_fusion += both.throughput_gbps() / fusion.throughput_gbps();
        vs_fission += both.throughput_gbps() / fission.throughput_gbps();
        t.row([
            (n / 1_000_000).to_string(),
            gbps(both.throughput_gbps()),
            gbps(fission.throughput_gbps()),
            gbps(fusion.throughput_gbps()),
            gbps(serial.throughput_gbps()),
        ]);
    }
    t.print();
    let k = axis.len() as f64;
    println!("fusion+fission vs serial : +{:.1}%  (paper: +41.4%)", (vs_serial / k - 1.0) * 100.0);
    println!("fusion+fission vs fusion : +{:.1}%  (paper: +31.3%)", (vs_fusion / k - 1.0) * 100.0);
    println!("fusion+fission vs fission: +{:.1}%  (paper: +10.1%)", (vs_fission / k - 1.0) * 100.0);
}
