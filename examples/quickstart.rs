//! Quickstart: fuse two back-to-back SELECTs and see where the time goes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the paper's §III-B experiment end to end: build a chain of
//! two 50% SELECTs over 16M random 32-bit elements, run it on the simulated
//! Tesla C2070 under the three methods (with round trip / without round
//! trip / fused), verify the fused kernel computes the identical relation,
//! and print the throughput and time breakdown of each method.

use kfusion::core::exec::Strategy;
use kfusion::core::microbench::{run_with_cards, verify_chain_equivalence, SelectChain};
use kfusion::vgpu::GpuSystem;

fn main() {
    let system = GpuSystem::c2070();
    let chain = SelectChain::auto(1 << 24, &[0.5, 0.5]);

    // Functional sanity: fusing the predicates must not change the answer.
    println!("checking fused == unfused on real data ...");
    assert!(verify_chain_equivalence(&chain).expect("chain runs"));
    println!("  ok: identical relations\n");

    let cards = chain.cardinalities().expect("cardinalities");
    println!(
        "cardinalities: {} -> {} -> {} (two 50% filters keep ~25%)\n",
        cards[0], cards[1], cards[2]
    );

    for (name, strategy) in [
        ("with round trip", Strategy::SerialRoundTrip),
        ("without round trip", Strategy::Serial),
        ("fused", Strategy::Fusion),
    ] {
        let report = run_with_cards(&system, &chain, strategy, &cards).expect("simulation");
        println!("== {name} ==");
        println!("{}", report.summary());
        println!();
    }

    println!("expected ordering (paper Fig. 8): fused > without > with round trip.");
}
