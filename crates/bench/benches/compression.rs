//! Extension study: transfer compression (Fang, He & Luo VLDB'10 — the
//! approach the paper's related work contrasts with) combined with kernel
//! fusion.
//!
//! Four ways to run one 50% SELECT over compressible 20-bit keys:
//!
//! 1. plain — raw 4 B/element over PCIe, filter, gather, out;
//! 2. compressed — bit-packed transfer, a decode operator expanding it to
//!    global memory, then the same SELECT;
//! 3. comp+fused — the decode FUSES into the filter: packed bytes in,
//!    expanded values live only in registers (the paper's Fig. 7(c) benefit
//!    applied to the decompressor);
//! 4. comp+fused+fission — and pipelined over three streams.
//!
//! Compression attacks the same bottleneck as fusion/fission (PCIe), and
//! the three compose: variants 2–4 are one plan (packed input → decode →
//! SELECT) under the executor's serial, fusion and fusion+fission
//! strategies, sized by given cardinalities.

use kfusion_bench::{gbps, print_header, system, Table};
use kfusion_core::exec::{simulate_given, Cardinalities, ExecConfig, Strategy};
use kfusion_core::microbench::SelectChain;
use kfusion_core::{OpKind, PlanGraph};
use kfusion_ir::builder::{BodyBuilder, Expr};
use kfusion_prng::Rng;
use kfusion_relalg::compress::best_for;

fn main() {
    let _trace = kfusion_bench::trace_session("compression");
    print_header("Extension", "transfer compression x kernel fusion (1x SELECT, 50%)");
    let sys = system();
    let n: usize = 1 << 24;
    // 20-bit keys: realistically compressible dictionary-coded data.
    let mut rng = Rng::seed_from_u64(77);
    let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 20)).collect();
    let block = best_for(&keys);
    println!(
        "column: {} elements, scheme {}, {} bits/elem, wire {:.1} MB vs raw {:.1} MB ({:.2}x)\n",
        n,
        block.scheme,
        block.bits,
        block.wire_bytes() as f64 / 1e6,
        n as f64 * 4.0 / 1e6,
        block.ratio_vs_u32()
    );

    let chain = SelectChain::auto(n as u64, &[0.5]);
    let cards = chain.cardinalities().unwrap();
    let plain = (chain.to_plan(), chain.given(&cards));

    // Packed input -> decode (word / 2^shift & mask, per element) -> SELECT.
    let mut decode = BodyBuilder::new(1);
    let mask = (1i64 << block.bits) - 1;
    decode.emit_output(Expr::input(0).div(Expr::lit(1i64 << 12)).and(Expr::lit(mask)));
    let mut packed_plan = PlanGraph::new();
    let input = packed_plan.input(0);
    let expanded = packed_plan.add(OpKind::Arith { body: decode.build() }, vec![input]);
    packed_plan.add(OpKind::Select { pred: chain.predicate(0) }, vec![expanded]);
    let packed = (
        packed_plan,
        Cardinalities {
            rows: vec![cards[0], cards[0], cards[1]],
            row_bytes: vec![block.wire_bytes() as f64 / n as f64, chain.row_bytes, chain.row_bytes],
        },
    );

    let total = |(plan, given): &(PlanGraph, Cardinalities), strategy| {
        simulate_given(&sys, plan, given, &ExecConfig::new(strategy, &sys)).unwrap().total()
    };
    let mut t = Table::new(["method", "throughput GB/s", "vs plain"]);
    let base = total(&plain, Strategy::Serial);
    for (name, total) in [
        ("plain", base),
        ("compressed", total(&packed, Strategy::Serial)),
        ("compressed+fused", total(&packed, Strategy::Fusion)),
        ("compressed+fused+fission", total(&packed, Strategy::FusionFission { segments: 8 })),
    ] {
        t.row([
            name.to_string(),
            gbps(n as f64 * chain.row_bytes / total / 1e9),
            format!("{:.2}x", base / total),
        ]);
    }
    t.print();
    println!("compression shrinks the PCIe term; fusing the decoder removes");
    println!("its global-memory round trip; fission hides what transfer remains.");
}
