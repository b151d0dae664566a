//! Micro-benchmarks of the library's own hot paths (real wall time, not
//! simulated): the IR optimizer, the per-row interpreter, the functional
//! SELECT, the discrete-event scheduler, the sorts, and the codecs.
//!
//! The shared timing harness (warmup + median-of-samples) lives in
//! `kfusion_bench::time_median`, keeping the workspace dependency-free;
//! throughput rows print in the same aligned style as the figure
//! harnesses.

use kfusion_bench::{print_header, system, time_median as time_it, Table};
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::{run_with_cards, SelectChain};
use kfusion_ir::builder::BodyBuilder;
use kfusion_ir::fuse::fuse_predicate_chain;
use kfusion_ir::interp::Machine;
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::Value;
use kfusion_relalg::{gen, ops, predicates};

fn row(t: &mut Table, name: &str, secs: f64, elems: Option<u64>) {
    let per = match elems {
        Some(n) => format!("{:.1} Melem/s", n as f64 / secs / 1e6),
        None => "-".to_string(),
    };
    t.row([name.to_string(), format!("{:.3} us", secs * 1e6), per]);
}

fn main() {
    print_header("Micro", "wall-clock hot paths (median of samples)");
    let _trace = kfusion_bench::trace_session("micro");
    let mut t = Table::new(["path", "time/call", "throughput"]);

    // IR optimizer on a 6-deep fused predicate chain.
    let preds: Vec<_> = (0..6).map(|k| BodyBuilder::threshold_lt(0, 100 + k).build()).collect();
    let fused = fuse_predicate_chain(&preds);
    let secs = time_it(9, 200, || optimize(std::hint::black_box(&fused), OptLevel::O3));
    row(&mut t, "ir_optimize_o3_fused6", secs, None);

    // Per-row interpreter on the optimized fused predicate.
    let body = optimize(
        &fuse_predicate_chain(&[
            BodyBuilder::threshold_lt(0, 1000).build(),
            BodyBuilder::threshold_lt(0, 500).build(),
        ]),
        OptLevel::O3,
    );
    let mut m = Machine::new();
    let mut k = 0i64;
    let secs = time_it(9, 100_000, || {
        k = k.wrapping_add(700) & 0x7FF;
        m.run_predicate(&body, &[Value::I64(k)]).unwrap()
    });
    row(&mut t, "fused_predicate_per_row", secs, Some(1));

    // Functional SELECT over 1 M rows.
    let input = gen::random_keys(1 << 20, 7);
    let pred = predicates::key_lt(gen::threshold_for_selectivity(0.5));
    let secs = time_it(5, 3, || ops::select(std::hint::black_box(&input), &pred).unwrap());
    row(&mut t, "select_1m_rows", secs, Some(input.len() as u64));

    // DES scheduling of a 64-segment fission pipeline (synthetic: no data).
    let sys = system();
    let chain = SelectChain::auto(1 << 30, &[0.5, 0.5]);
    let cards = chain.cardinalities().unwrap();
    let secs = time_it(9, 20, || {
        run_with_cards(&sys, &chain, Strategy::FusionFission { segments: 64 }, &cards).unwrap()
    });
    row(&mut t, "des_fused_fission_64seg", secs, None);

    // Sorts over 64 K keys.
    let n = 1usize << 16;
    let key: Vec<u64> = (0..n as u64).map(|i| (i * 2_654_435_761) % 100_000).collect();
    let r = kfusion_relalg::Relation::from_keys(key);
    let secs = time_it(5, 5, || ops::sort(std::hint::black_box(&r), ops::SortBy::Key).unwrap());
    row(&mut t, "merge_sort_64k", secs, Some(n as u64));
    let secs =
        time_it(5, 5, || ops::bitonic_sort(std::hint::black_box(&r), ops::SortBy::Key).unwrap());
    row(&mut t, "bitonic_network_64k", secs, Some(n as u64));

    // Codecs over 256 K values.
    {
        use kfusion_relalg::compress::{compress, decompress, Scheme};
        let n = 1usize << 18;
        let vals: Vec<u64> = (0..n as u64).map(|i| (i * 48_271) % (1 << 20)).collect();
        let block = compress(&vals, Scheme::BitPack).unwrap();
        let secs =
            time_it(5, 10, || compress(std::hint::black_box(&vals), Scheme::BitPack).unwrap());
        row(&mut t, "bitpack_compress_256k", secs, Some(n as u64));
        let secs = time_it(5, 10, || decompress(std::hint::black_box(&block)));
        row(&mut t, "bitpack_decompress_256k", secs, Some(n as u64));
    }

    t.print();
}
