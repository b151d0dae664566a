//! Hardware sensitivity studies: how the paper's optimizations scale beyond
//! its Table II testbed.
//!
//! 1. **PCIe generation** — the paper's motivation is the PCIe bottleneck
//!    (Fig. 1). Sweeping the link from gen-1 to gen-3 shows how much of
//!    fusion's and fission's benefit is transfer-bound: faster links shrink
//!    the round-trip penalty fusion removes, while the GPU-side gains
//!    (registers, shared skeleton, compiler scope) persist.
//! 2. **Device generation** — C1060 (single copy engine, GT200), the
//!    paper's C2070, and a consumer GTX 580 (fast but 1.5 GB, one engine).
//!    One copy engine halves the pipeline's overlap options; small memory
//!    forces the round-trip strategy earlier.

use kfusion_bench::{chain, gbps, print_header, ratio, system, Table};
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::{run, run_with_cards};
use kfusion_vgpu::{DeviceSpec, GpuSystem, PcieModel};

fn main() {
    let _trace = kfusion_bench::trace_session("sensitivity");
    print_header("Sensitivity 1", "fusion/fission benefit vs PCIe generation");
    let links = [
        ("PCIe 1.1 x16", PcieModel::pcie1_x16()),
        ("PCIe 2.0 x16 (paper)", PcieModel::pcie2_x16()),
        ("PCIe 3.0 x16", PcieModel::pcie3_x16()),
    ];
    let mut t =
        Table::new(["link", "fused vs round-trip", "fission vs serial", "compute-only fusion"]);
    for (name, pcie) in links {
        let sys = GpuSystem { spec: DeviceSpec::tesla_c2070(), pcie };
        // Fusion benefit (Fig. 8 shape) at 16M elements.
        let c = chain(1 << 24, &[0.5, 0.5]);
        let cards = c.cardinalities().unwrap();
        let rt = run_with_cards(&sys, &c, Strategy::SerialRoundTrip, &cards).unwrap();
        let fused = run_with_cards(&sys, &c, Strategy::Fusion, &cards).unwrap();
        // Fission benefit (Fig. 14 shape) at 1G elements.
        let big = chain(1_000_000_000, &[0.5]);
        let bcards = big.cardinalities().unwrap();
        let serial = run_with_cards(&sys, &big, Strategy::Serial, &bcards).unwrap();
        let fission =
            run_with_cards(&sys, &big, Strategy::Fission { segments: 16 }, &bcards).unwrap();
        // Compute-only gain is link-independent by construction.
        let unfused = run_with_cards(&sys, &c, Strategy::Serial, &cards).unwrap();
        t.row([
            name.to_string(),
            format!("{}x", ratio(fused.throughput_gbps() / rt.throughput_gbps())),
            format!("{}x", ratio(fission.throughput_gbps() / serial.throughput_gbps())),
            format!("{}x", ratio(unfused.compute_time() / fused.compute_time())),
        ]);
    }
    t.print();
    println!("faster links shrink the transfer-bound gains; the compute-side");
    println!("fusion gain (registers + shared skeleton + compiler scope) stays.\n");

    print_header("Sensitivity 2", "devices: C1060 / C2070 / GTX 580");
    let devices = [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_c2070(), DeviceSpec::gtx580()];
    let mut t =
        Table::new(["device", "copy engines", "SELECT GB/s (compute)", "fission vs serial"]);
    for spec in devices {
        let sys = GpuSystem { spec: spec.clone(), pcie: PcieModel::pcie2_x16() };
        let c = chain(1 << 24, &[0.5]);
        let comp = run(&sys, &c, Strategy::Serial).unwrap();
        let big = chain(1_000_000_000, &[0.5]);
        let bcards = big.cardinalities().unwrap();
        let serial = run_with_cards(&sys, &big, Strategy::Serial, &bcards).unwrap();
        let fission =
            run_with_cards(&sys, &big, Strategy::Fission { segments: 16 }, &bcards).unwrap();
        t.row([
            spec.name.to_string(),
            spec.copy_engines.to_string(),
            gbps(comp.compute_throughput_gbps()),
            format!("{}x", ratio(fission.throughput_gbps() / serial.throughput_gbps())),
        ]);
    }
    t.print();
    println!("a single copy engine (C1060, GTX 580) serializes H2D and D2H,");
    println!("cutting the pipeline's overlap — the C2070's dual engines are");
    println!("why the paper says three streams saturate it.");
    let _ = system();
}
