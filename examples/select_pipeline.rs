//! Kernel fission on out-of-memory data: pipeline a fused SELECT chain over
//! three streams (paper Figs. 13–16).
//!
//! ```sh
//! cargo run --release --example select_pipeline
//! ```
//!
//! The workload is two back-to-back 50% SELECTs over 2 billion 32-bit
//! elements — 8 GB of input against a card holding ~5.5 GiB, so serial
//! execution must batch with blocking transfers. Kernel fission cuts the
//! input into segments and overlaps H2D / compute / D2H on the device's two
//! DMA engines; combined with fusion it reaches the paper's best strategy.

use kfusion::core::exec::Strategy;
use kfusion::core::microbench::{run_with_cards, SelectChain};
use kfusion::vgpu::{Engine, GpuSystem};

fn main() {
    let system = GpuSystem::c2070();
    let n: u64 = 2_000_000_000;
    println!(
        "input: {} M elements = {:.1} GB; GPU memory: {:.2} GiB\n",
        n / 1_000_000,
        n as f64 * 4.0 / 1e9,
        system.spec.mem_capacity as f64 / (1u64 << 30) as f64
    );
    let chain = SelectChain::auto(n, &[0.5, 0.5]);
    let cards = chain.cardinalities().expect("synthetic cardinalities");
    let segments = 32;

    let strategies = [
        ("serial (batched, with round trip)", Strategy::SerialRoundTrip),
        ("fusion only", Strategy::Fusion),
        ("fission only", Strategy::Fission { segments }),
        ("fusion + fission", Strategy::FusionFission { segments }),
    ];

    let mut rows = Vec::new();
    for (name, strategy) in strategies {
        let r = run_with_cards(&system, &chain, strategy, &cards).expect("simulation");
        rows.push((name, r));
    }

    println!("{:<36} {:>12} {:>14}", "strategy", "time (s)", "GB/s");
    for (name, r) in &rows {
        println!("{:<36} {:>12.4} {:>14.3}", name, r.total(), r.throughput_gbps());
    }

    let best = &rows[3].1;
    println!("\nengine busy times under fusion+fission (overlap at work):");
    for (label, engine) in [
        ("  H2D copy engine", Engine::CopyH2D),
        ("  D2H copy engine", Engine::CopyD2H),
        ("  compute engine ", Engine::Compute),
        ("  host (CPU gather)", Engine::Host),
    ] {
        println!("{label}: {:.4} s", best.engine_time(engine));
    }
    println!("makespan: {:.4} s — close to the busiest engine, not the sum", best.total());

    println!("\npipeline Gantt (first rows of the fused+fission timeline):");
    print!("{}", best.gantt(84));
    println!(
        "\npaper Fig. 16: fusion+fission beats serial by ~41%, fusion by ~31%, fission by ~10%."
    );
}
