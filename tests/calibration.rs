//! Calibration bands: the reproduction's headline numbers must stay within
//! loose tolerances of the paper's reported results. These tests pin the
//! *shape* of every major claim — who wins, by roughly what factor — so
//! model drift shows up as a test failure, not as silently wrong figures.
//!
//! Paper targets (see EXPERIMENTS.md for the full paper-vs-measured table):
//! * Fig. 4(a): GPU/CPU SELECT speedup ≈ 2.88× / 8.80× / 8.35× at 10/50/90%.
//! * Fig. 8: fused vs with-round-trip +49.9%, vs without +6.2% (compute-only +79.9%).
//! * Fig. 9: round-trip ≈ 54% of the with-round-trip execution.
//! * Fig. 10: fused filter 1.57×, fused gather 3.03×.
//! * Fig. 11(a): fusing 3 SELECTs 2.35×, fusing 2 1.80× (compute).
//! * Fig. 14: fission +36.9% on > memory data.
//! * Fig. 16: fusion+fission +41.4% vs serial / +31.3% vs fusion / +10.1% vs fission.
//! * Fig. 18: Q1 total +26.5% (fusion 1.25×, SORT ≈71%); Q21 total +13.2%.

use kfusion::core::exec::Strategy;
use kfusion::core::microbench::{run, run_cpu, run_with_cards, DataMode, SelectChain};
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::{q1, q21};
use kfusion::vgpu::{CommandClass, DeviceSpec, GpuSystem};

fn sys() -> GpuSystem {
    GpuSystem::c2070()
}

fn assert_band(what: &str, value: f64, lo: f64, hi: f64) {
    assert!((lo..=hi).contains(&value), "{what}: {value:.3} outside calibration band [{lo}, {hi}]");
}

#[test]
fn fig04a_gpu_vs_cpu_ratios() {
    let cpu = DeviceSpec::xeon_e5520_pair();
    let s = sys();
    // (selectivity, paper ratio, band)
    for (sel, paper, lo, hi) in
        [(0.1, 2.88, 2.0, 4.8), (0.5, 8.80, 6.0, 11.5), (0.9, 8.35, 5.5, 11.0)]
    {
        let chain = SelectChain::auto(1 << 24, &[sel]);
        let gpu = run(&s, &chain, Strategy::Serial).unwrap().compute_throughput_gbps();
        let host = run_cpu(&cpu, &chain).unwrap().throughput_gbps();
        assert_band(&format!("GPU/CPU at {sel} (paper {paper})"), gpu / host, lo, hi);
    }
}

#[test]
fn fig08_fusion_gains() {
    let s = sys();
    let chain = SelectChain::auto(1 << 24, &[0.5, 0.5]);
    let cards = chain.cardinalities().unwrap();
    let with_rt = run_with_cards(&s, &chain, Strategy::SerialRoundTrip, &cards).unwrap();
    let without = run_with_cards(&s, &chain, Strategy::Serial, &cards).unwrap();
    let fused = run_with_cards(&s, &chain, Strategy::Fusion, &cards).unwrap();
    assert_band(
        "fused vs with-round-trip (paper 1.499x)",
        fused.throughput_gbps() / with_rt.throughput_gbps(),
        1.3,
        2.3,
    );
    assert_band(
        "fused vs without-round-trip (paper 1.062x)",
        fused.throughput_gbps() / without.throughput_gbps(),
        1.02,
        1.35,
    );
    assert_band(
        "compute-only fusion gain (paper 1.799x)",
        fused.compute_throughput_gbps() / without.compute_throughput_gbps(),
        1.4,
        2.6,
    );
}

#[test]
fn fig09_round_trip_share() {
    let s = sys();
    let chain = SelectChain::auto(1 << 24, &[0.5, 0.5]);
    let r = run_with_cards(&s, &chain, Strategy::SerialRoundTrip, &chain.cardinalities().unwrap())
        .unwrap();
    let share = r.class_time(CommandClass::RoundTrip) / r.total();
    assert_band("round-trip share (paper 0.54)", share, 0.25, 0.65);
}

#[test]
fn fig10_kernel_splits() {
    let s = sys();
    let chain = SelectChain::auto(1 << 24, &[0.5, 0.5]);
    let unfused = run(&s, &chain, Strategy::Serial).unwrap();
    let fused = run(&s, &chain, Strategy::Fusion).unwrap();
    assert_band(
        "filter fusion speedup (paper 1.57x)",
        unfused.label_time("filter") / fused.label_time("fused_compute"),
        1.2,
        2.4,
    );
    assert_band(
        "gather fusion speedup (paper 3.03x)",
        unfused.label_time("gather") / fused.label_time("fused_gather"),
        2.2,
        4.2,
    );
}

#[test]
fn fig11_depth_scaling() {
    let s = sys();
    let gain = |sels: &[f64]| {
        let c = SelectChain::auto(1 << 22, sels);
        let cards = c.cardinalities().unwrap();
        let f = run_with_cards(&s, &c, Strategy::Fusion, &cards).unwrap().compute_time();
        let u = run_with_cards(&s, &c, Strategy::Serial, &cards).unwrap().compute_time();
        u / f
    };
    let g2 = gain(&[0.5, 0.5]);
    let g3 = gain(&[0.5, 0.5, 0.5]);
    assert_band("2-SELECT fusion gain (paper 1.80x)", g2, 1.4, 2.6);
    assert_band("3-SELECT fusion gain (paper 2.35x)", g3, g2, 4.0);
}

#[test]
fn fig14_fission_gain() {
    let s = sys();
    let chain = SelectChain::auto(2_000_000_000, &[0.5]);
    let cards = chain.cardinalities().unwrap();
    let serial = run_with_cards(&s, &chain, Strategy::SerialRoundTrip, &cards).unwrap();
    let fission = run_with_cards(&s, &chain, Strategy::Fission { segments: 32 }, &cards).unwrap();
    assert_band(
        "fission vs serial (paper 1.369x)",
        fission.throughput_gbps() / serial.throughput_gbps(),
        1.15,
        2.6,
    );
}

#[test]
fn fig16_combined_ordering_and_gains() {
    let s = sys();
    let chain = SelectChain::auto(2_000_000_000, &[0.5, 0.5]);
    let cards = chain.cardinalities().unwrap();
    let serial = run_with_cards(&s, &chain, Strategy::SerialRoundTrip, &cards).unwrap();
    let fusion = run_with_cards(&s, &chain, Strategy::Fusion, &cards).unwrap();
    let fission = run_with_cards(&s, &chain, Strategy::Fission { segments: 32 }, &cards).unwrap();
    let both =
        run_with_cards(&s, &chain, Strategy::FusionFission { segments: 32 }, &cards).unwrap();
    // Paper's ordering: fusion+fission > fission > fusion > serial.
    assert!(both.throughput_gbps() > fission.throughput_gbps());
    assert!(fission.throughput_gbps() > fusion.throughput_gbps());
    assert!(fusion.throughput_gbps() > serial.throughput_gbps());
    assert_band(
        "fusion+fission vs fission (paper 1.101x)",
        both.throughput_gbps() / fission.throughput_gbps(),
        1.02,
        1.35,
    );
}

/// Simulated seconds the hand-assembled `microbench` command streams
/// produced on the last commit that had them, over expected (`Synthetic`)
/// cardinalities. The plan path must reproduce every one to 1e-9: it is the
/// same command stream, built by `core::exec`.
#[test]
fn golden_points_of_the_retired_select_chain_builder() {
    // (selectivities, n, [with RT, without RT, fused, unfused compute, fused
    // compute], 32-segment ([fission, fusion+fission], tolerance) — `None`
    // where the cost gate declines a pipeline the retired builder ran at a
    // loss; 1e-6 where 32 does not divide a cardinality, because that
    // builder rounded segment sizes and this one partitions them exactly).
    type Row = (&'static [f64], u64, [f64; 5], Option<([f64; 2], f64)>);
    let rows: [Row; 4] = [
        (
            &[0.5, 0.5],
            1 << 24,
            [
                5.45958019941e-2,
                3.35182819159e-2,
                2.98879808481e-2,
                6.70075636364e-3,
                3.07045529582e-3,
            ],
            Some(([2.85298079556e-2, 2.72597138719e-2], 1e-9)),
        ),
        (
            &[0.5, 0.5, 0.5],
            1 << 22,
            [
                1.61642340567e-2,
                8.12122643206e-3,
                6.73711353163e-3,
                1.98822060606e-3,
                6.04107705628e-4,
            ],
            None,
        ),
        (
            &[0.1],
            1 << 24,
            [
                2.60023491887e-2,
                2.60023491887e-2,
                2.60023491887e-2,
                2.23522606061e-3,
                2.23522606061e-3,
            ],
            Some(([2.58025032815e-2, 2.58025032815e-2], 1e-6)),
        ),
        (
            &[0.5, 0.5],
            2_000_000_000,
            [6.48480310569e0, 3.98227381286e0, 3.55116313177e0, 7.95482545455e-1, 3.64371864358e-1],
            Some(([3.13038903522e0, 2.99553132238e0], 1e-9)),
        ),
    ];
    let s = sys();
    for (sels, n, serial_goldens, fission_goldens) in rows {
        let mut chain = SelectChain::auto(n, sels);
        chain.mode = DataMode::Synthetic;
        let cards = chain.cardinalities().unwrap();
        let go = |strategy| run_with_cards(&s, &chain, strategy, &cards).unwrap();
        let (with_rt, without, fused) =
            (go(Strategy::SerialRoundTrip), go(Strategy::Serial), go(Strategy::Fusion));
        let fission = go(Strategy::Fission { segments: 32 }).total();
        let both = go(Strategy::FusionFission { segments: 32 }).total();
        let measured = [
            with_rt.total(),
            without.total(),
            fused.total(),
            without.compute_time(),
            fused.compute_time(),
        ];
        let golden = |what: &str, got: f64, want: f64, tol: f64| {
            let rel = (got - want).abs() / want;
            assert!(rel <= tol, "{sels:?} @ {n} {what}: {got:e} vs golden {want:e} ({rel:e})");
        };
        for (k, (got, want)) in measured.into_iter().zip(serial_goldens).enumerate() {
            golden(&format!("column {k}"), got, want, 1e-9);
        }
        match fission_goldens {
            Some(([f, ff], tol)) => {
                golden("fission", fission, f, tol);
                golden("fusion+fission", both, ff, tol);
            }
            None => {
                assert_eq!(fission, without.total(), "{sels:?} @ {n}: declined fission");
                assert_eq!(both, fused.total(), "{sels:?} @ {n}: declined fusion+fission");
            }
        }
    }
}

#[test]
fn fig18a_q1_shape() {
    let db = generate(TpchConfig::scale(0.01));
    let s = sys();
    let base = q1::run_q1(&s, &db, Strategy::Serial).unwrap();
    let fused = q1::run_q1(&s, &db, Strategy::Fusion).unwrap();
    let both = q1::run_q1(&s, &db, Strategy::FusionFission { segments: 8 }).unwrap();
    assert_band(
        "Q1 fusion speedup (paper 1.25x)",
        base.report.total() / fused.report.total(),
        1.05,
        1.6,
    );
    assert_band(
        "Q1 total improvement (paper 26.5%)",
        100.0 * (1.0 - both.report.total() / base.report.total()),
        10.0,
        40.0,
    );
    assert_band(
        "Q1 SORT share of baseline (paper ~71%)",
        base.report.label_time("sort") / base.report.total(),
        0.5,
        0.85,
    );
}

#[test]
fn fig18b_q21_shape() {
    let db = generate(TpchConfig::scale(0.01));
    let s = sys();
    let base = q21::run_q21(&s, &db, 20, Strategy::Serial).unwrap();
    let both = q21::run_q21(&s, &db, 20, Strategy::FusionFission { segments: 8 }).unwrap();
    let improvement = 100.0 * (1.0 - both.report.total() / base.report.total());
    assert_band("Q21 total improvement (paper 13.2%)", improvement, 3.0, 22.0);
    // And Q1's gain exceeds Q21's, the paper's cross-query comparison.
    let q1_base = q1::run_q1(&s, &db, Strategy::Serial).unwrap();
    let q1_both = q1::run_q1(&s, &db, Strategy::FusionFission { segments: 8 }).unwrap();
    let q1_improvement = 100.0 * (1.0 - q1_both.report.total() / q1_base.report.total());
    assert!(
        q1_improvement > improvement,
        "Q1 ({q1_improvement:.1}%) should out-gain Q21 ({improvement:.1}%)"
    );
}
