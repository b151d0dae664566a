//! Figure 14: kernel fission vs. serial execution of one 50% SELECT over
//! data sets far exceeding GPU memory (0.5–4 billion 32-bit elements; the
//! C2070 holds < 1.5 billion).
//!
//! Serial execution processes the data in GPU-memory-sized batches with
//! synchronous transfers; fission segments the input and pipelines
//! H2D / compute / D2H over three streams (Fig. 13), hiding transfer time.
//! Paper: fission averages +36.9% throughput.

use kfusion_bench::{chain, fission_axis, gbps, print_header, system, Table};
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::run_with_cards;

fn main() {
    let _trace = kfusion_bench::trace_session("fig14_fission");
    print_header("Fig. 14", "kernel fission vs serial, data >> GPU memory");
    let sys = system();
    println!(
        "GPU memory holds {} M 32-bit elements; every point below exceeds it.\n",
        sys.spec.mem_capacity / 4 / 1_000_000
    );
    let mut t = Table::new(["elements(M)", "fission GB/s", "no fission GB/s", "gain %"]);
    let mut gain = 0.0;
    let axis = fission_axis();
    for &n in &axis {
        let c = chain(n, &[0.5]);
        let cards = c.cardinalities().unwrap();
        // Serial = memory-sized batches with synchronous transfers; batch
        // intermediates fit on the device, so no round trip is paid.
        let serial = run_with_cards(&sys, &c, Strategy::Serial, &cards).unwrap();
        let segments = (n / 64_000_000).max(8) as u32;
        let fission = run_with_cards(&sys, &c, Strategy::Fission { segments }, &cards).unwrap();
        let g = fission.throughput_gbps() / serial.throughput_gbps() - 1.0;
        gain += g;
        t.row([
            (n / 1_000_000).to_string(),
            gbps(fission.throughput_gbps()),
            gbps(serial.throughput_gbps()),
            format!("{:.1}", g * 100.0),
        ]);
    }
    t.print();
    println!("average fission gain: +{:.1}%  (paper: +36.9%)", 100.0 * gain / axis.len() as f64);
}
