//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Optimization level** — how much of fusion's gain comes from the
//!    enlarged compiler scope (O0 vs O3 on the fused body)?
//! 2. **Fission segment count** — the pipeline's sweet spot between
//!    per-segment overhead and overlap.
//! 3. **Register budget** — fusion depth under shrinking budgets, showing
//!    the spill cliff the paper warns about (§III-C).
//! 4. **Stream count** — how many streams the fission pipeline needs
//!    (paper: three for the C2070's two copy engines + compute).

use kfusion_bench::{chain, gbps, print_header, ratio, system, Table};
use kfusion_core::cost::STAGE_REGS;
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::{run, run_with_cards, select_plan, SelectChain};
use kfusion_core::{fuse_plan, FusionBudget, OpKind, PlanGraph};
use kfusion_ir::opt::OptLevel;
use kfusion_vgpu::DeviceSpec;

fn main() {
    let _trace = kfusion_bench::trace_session("ablation");
    let sys = system();

    print_header("Ablation 1", "optimization level x fusion (2x SELECT, compute)");
    let mut t = Table::new(["level", "unfused GB/s", "fused GB/s", "fusion gain"]);
    for level in OptLevel::ALL {
        let mut c = chain(33_554_432, &[0.5, 0.5]);
        c.level = level;
        let unfused = run(&sys, &c, Strategy::Serial).unwrap().compute_throughput_gbps();
        let fused = run(&sys, &c, Strategy::Fusion).unwrap().compute_throughput_gbps();
        t.row([level.to_string(), gbps(unfused), gbps(fused), ratio(fused / unfused)]);
    }
    t.print();
    println!("the fused kernel gains more from O3 than the separate kernels do");
    println!("(the Table III effect expressed as throughput).\n");

    print_header("Ablation 2", "fission segment count (1 SELECT, 1G elements)");
    let c = chain(1_000_000_000, &[0.5]);
    let cards = c.cardinalities().unwrap();
    let serial = run_with_cards(&sys, &c, Strategy::SerialRoundTrip, &cards).unwrap();
    let mut t = Table::new(["segments", "throughput GB/s", "vs serial"]);
    t.row(["serial".to_string(), gbps(serial.throughput_gbps()), ratio(1.0)]);
    for segments in [2u32, 4, 8, 16, 32, 64, 128, 256] {
        let f = run_with_cards(&sys, &c, Strategy::Fission { segments }, &cards).unwrap();
        t.row([
            segments.to_string(),
            gbps(f.throughput_gbps()),
            ratio(f.throughput_gbps() / serial.throughput_gbps()),
        ]);
    }
    t.print();
    println!("few segments: poor overlap; very many: per-segment latency bites.\n");

    print_header("Ablation 3", "register budget vs fusion depth (8x SELECT chain)");
    // Two shapes of chain: thresholds on one key column (the compares
    // collapse when fused — liveness sees ~2 live registers no matter the
    // depth) and predicates on eight distinct columns (every boolean stays
    // live until the final AND). Kernel counts are the fusion pass's own
    // groups (liveness over each candidate group's fused+O3 body).
    let same = select_plan((0..8).map(|k| kfusion_relalg::predicates::key_lt(100 + k)).collect());
    let distinct = select_plan(
        (0..8)
            .map(|k| {
                kfusion_relalg::predicates::col_cmp_i64(k, kfusion_ir::CmpOp::Lt, 100 + k as i64)
            })
            .collect(),
    );
    let mut t = Table::new(["budget (regs)", "same-column chain", "distinct-column chain"]);
    for extra in [2u32, 4, 8, 16, 32, 64] {
        let budget = FusionBudget { max_regs_per_thread: STAGE_REGS + extra };
        let kernels = |g: &PlanGraph| fuse_plan(g, &budget, OptLevel::O3).groups.len();
        t.row([
            (STAGE_REGS + extra).to_string(),
            format!("{} kernels", kernels(&same)),
            format!("{} kernels", kernels(&distinct)),
        ]);
    }
    t.print();
    println!("collapsible chains fuse whole at any budget (summing per-predicate");
    println!("registers would split them); smaller budgets still split genuinely");
    println!("independent chains — the paper's fusion-depth limit made concrete.\n");

    print_header("Ablation 4", "stream count for the fission pipeline");
    // Vary the device's copy engines to show why 3 streams matter on a
    // 2-engine device: with one engine the H2D/D2H overlap disappears.
    let mut t = Table::new(["copy engines", "fission GB/s"]);
    for engines in [1u32, 2] {
        let mut s2 = system();
        s2.spec.copy_engines = engines;
        let f = run_with_cards(&s2, &c, Strategy::Fission { segments: 32 }, &cards).unwrap();
        t.row([engines.to_string(), gbps(f.throughput_gbps())]);
    }
    t.print();
    println!("two copy engines (the C2070's) let input and output transfers");
    println!("overlap, which is why the paper needs at least three streams.\n");

    print_header("Ablation 5", "heterogeneous CPU+GPU split (the paper's Ocelot direction)");
    let cpu = DeviceSpec::xeon_e5520_pair();
    let hchain = SelectChain::auto(1_000_000_000, &[0.5, 0.5]);
    let mut t = Table::new(["CPU share %", "throughput GB/s"]);
    for pct in [0u32, 5, 10, 15, 20, 30, 40, 50] {
        let r =
            kfusion_core::hetero::run_hetero(&sys, &cpu, &hchain, 20, pct as f64 / 100.0).unwrap();
        t.row([pct.to_string(), gbps(r.throughput_gbps())]);
    }
    t.print();
    let (best_frac, best) = kfusion_core::hetero::best_split(&sys, &cpu, &hchain, 20).unwrap();
    println!(
        "optimal CPU share: {:.0}% -> {} GB/s (GPU pipeline is PCIe-bound, so\nkeeping some segments host-side removes transfer load).\n",
        best_frac * 100.0,
        gbps(best.throughput_gbps())
    );

    print_header("Ablation 6", "cross-query fusion (paper SIII-A: fusing across queries)");
    use kfusion_relalg::{gen, predicates};
    let mk_query = |t: u64| {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![i]);
        g
    };
    let input = gen::random_keys(1 << 22, 99);
    let mut t = Table::new(["queries batched", "speedup vs separate runs"]);
    for k in [2usize, 4, 8] {
        let plans: Vec<PlanGraph> = (0..k).map(|q| mk_query(1 << (28 + q as u64 % 4))).collect();
        let speedup = kfusion_core::multiquery::batching_speedup(
            &sys,
            &plans,
            std::slice::from_ref(&input),
            Strategy::Fusion,
        )
        .unwrap();
        t.row([k.to_string(), format!("{speedup:.2}x")]);
    }
    t.print();
    println!("queries sharing a scan fuse into one kernel: one upload, one");
    println!("partition/gather skeleton, amortized across the whole batch.");
}
