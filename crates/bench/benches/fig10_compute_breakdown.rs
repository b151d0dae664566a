//! Figure 10: the computation part of two back-to-back SELECTs broken into
//! its CUDA kernels — filter (partition+filter+buffer) and gather — for the
//! unfused and fused versions, normalized to the unfused compute total.
//!
//! Paper headlines: the fused filter is 1.57× faster than the two separate
//! filters; the fused gather is 3.03× faster than the two separate gathers
//! (only one gather remains and it reads the already-halved data once).

use kfusion_bench::{chain, print_header, ratio, system, Table};
use kfusion_core::exec::Strategy;
use kfusion_core::microbench::run_with_cards;

fn main() {
    let _trace = kfusion_bench::trace_session("fig10_compute_breakdown");
    print_header("Fig. 10", "compute breakdown: filter vs gather, fused vs unfused");
    let sys = system();
    let mut t = Table::new(["elements", "version", "filter(norm)", "gather(norm)", "total(norm)"]);
    let (mut f_gain, mut g_gain, mut k) = (0.0, 0.0, 0.0);
    for &n in &[4_194_304u64, 205_520_896, 415_236_096] {
        let c = chain(n, &[0.5, 0.5]);
        let cards = c.cardinalities().unwrap();
        let unfused = run_with_cards(&sys, &c, Strategy::Serial, &cards).unwrap();
        let fused = run_with_cards(&sys, &c, Strategy::Fusion, &cards).unwrap();
        let base = unfused.compute_time();
        let uf_f = unfused.label_time("filter");
        let uf_g = unfused.label_time("gather");
        let f_f = fused.label_time("fused_compute");
        let f_g = fused.label_time("fused_gather");
        t.row([
            n.to_string(),
            "UNFUSED".to_string(),
            ratio(uf_f / base),
            ratio(uf_g / base),
            ratio(unfused.compute_time() / base),
        ]);
        t.row([
            n.to_string(),
            "FUSED".to_string(),
            ratio(f_f / base),
            ratio(f_g / base),
            ratio(fused.compute_time() / base),
        ]);
        f_gain += uf_f / f_f;
        g_gain += uf_g / f_g;
        k += 1.0;
    }
    t.print();
    println!("average filter speedup from fusion: {}x  (paper: 1.57x)", ratio(f_gain / k));
    println!("average gather speedup from fusion: {}x  (paper: 3.03x)", ratio(g_gain / k));
}
