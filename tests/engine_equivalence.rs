//! The vectorized batch engine must never change a TPC-H answer.
//!
//! Companion to `strategy_equivalence`: that file proves the *optimizer*
//! preserves semantics across strategies; this one proves the *execution
//! engine* does across backends. Every query runs twice — once on the
//! per-tuple scalar interpreter, once on the batch engine — and the outputs
//! must be byte-identical (f64 compared by bit pattern, so even NaN payloads
//! and signed zeros may not drift). Simulated timings must match exactly:
//! the virtual GPU charges time from cardinalities and cost profiles, never
//! from host wall-clock, so the engine choice is invisible to it. The
//! `kfusion_rows_*` trace counters must match too — operators count rows
//! above the engine dispatch, so a divergence means an engine dropped or
//! duplicated work even if the final answer happens to agree.

use kfusion::core::exec::{execute, ExecConfig, ExecResult, Strategy};
use kfusion::core::{OpKind, PlanGraph};
use kfusion::ir::builder::{BodyBuilder, Expr};
use kfusion::ir::CmpOp;
use kfusion::relalg::ops::Agg;
use kfusion::relalg::{engine, gen, predicates, Column, Relation};
use kfusion::tpch::gen::{generate, TpchConfig, TpchDb};
use kfusion::tpch::{q1, q21, q6};
use kfusion::vgpu::GpuSystem;

fn assert_bit_identical(a: &Relation, b: &Relation, what: &str) {
    assert_eq!(a.keys(), b.keys(), "{what}: keys differ");
    assert_eq!(a.n_cols(), b.n_cols(), "{what}: column counts differ");
    for (c, (x, y)) in a.cols.iter().zip(&b.cols).enumerate() {
        match (x, y) {
            (Column::I64(x), Column::I64(y)) => assert_eq!(x, y, "{what}: i64 col {c}"),
            (Column::F64(x), Column::F64(y)) => {
                assert_eq!(x.len(), y.len(), "{what}: f64 col {c} length");
                for (r, (u, v)) in x.iter().zip(y).enumerate() {
                    assert_eq!(u.to_bits(), v.to_bits(), "{what}: f64 col {c} row {r}: {u} vs {v}");
                }
            }
            _ => panic!("{what}: col {c} changed type between engines"),
        }
    }
}

/// The engine-independent counter families: operators count rows at the
/// ops layer, above the scalar/batch dispatch, so both engines must report
/// byte-identical row totals. (The `kfusion_batch_*` families are
/// deliberately excluded — only the batch engine emits those.)
fn row_counters(trace: &kfusion::trace::Trace) -> Vec<(String, u64)> {
    trace
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("kfusion_rows_"))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// Run `query` on both engines under `strategy` and demand identical
/// answers, identical simulated timelines, and identical row counters.
fn check(what: &str, strategy: Strategy, query: impl Fn(Strategy) -> ExecResult) {
    let traced = |q: &dyn Fn(Strategy) -> ExecResult| {
        kfusion::trace::reset();
        kfusion::trace::set_enabled(true);
        let result = q(strategy);
        kfusion::trace::set_enabled(false);
        (result, kfusion::trace::take())
    };
    engine::set_batch_enabled(false);
    let (scalar, scalar_trace) = traced(&query);
    engine::set_batch_enabled(true);
    let (batch, batch_trace) = traced(&query);
    assert_bit_identical(&scalar.output, &batch.output, what);
    assert_eq!(
        scalar.report.total(),
        batch.report.total(),
        "{what}: engine choice leaked into simulated time"
    );
    let rows = row_counters(&scalar_trace);
    assert!(!rows.is_empty(), "{what}: operators recorded no row counters");
    assert_eq!(rows, row_counters(&batch_trace), "{what}: row counters diverged between engines");
}

fn strategies() -> [Strategy; 3] {
    [Strategy::Serial, Strategy::Fusion, Strategy::FusionFission { segments: 8 }]
}

// The engine and scratch toggles are process-global and `cargo test` runs
// test functions on concurrent threads, so every test here serializes on
// one lock.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn batch_engine_never_changes_tpch_answers() {
    let _g = serial();
    let db: TpchDb = generate(TpchConfig::scale(0.01));
    let sys = GpuSystem::c2070();
    for strat in strategies() {
        check(&format!("Q1 {strat:?}"), strat, |s| q1::run_q1(&sys, &db, s).unwrap());
        check(&format!("Q6 {strat:?}"), strat, |s| q6::run_q6(&sys, &db, s).unwrap());
        check(&format!("Q21 {strat:?}"), strat, |s| q21::run_q21(&sys, &db, 20, s).unwrap());
    }
    engine::set_batch_enabled(true);
}

/// SELECT keeping ~95 % of 200 000 rows → ARITH+ → AGGREGATE*, in one
/// fused group: the bytes rule leaves the SELECT's view in place, so on the
/// scalar engine the ARITH+ gathers it for its interpreter itself, where
/// the batch engine computes beside it.
#[test]
fn an_arith_extend_over_a_kept_view_never_changes_answers() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let mut plan = PlanGraph::new();
    let input = plan.input(0);
    let pred = predicates::col_cmp_i64(0, CmpOp::Ge, -900);
    let kept = plan.add(OpKind::Select { pred }, vec![input]);
    let mut b = BodyBuilder::new(3);
    b.emit_output(Expr::input(1).mul(Expr::lit(3i64)).add(Expr::input(2)));
    let extended = plan.add(OpKind::ArithExtend { body: b.build() }, vec![kept]);
    plan.add(OpKind::AggregateAll { aggs: vec![Agg::Sum(2), Agg::Count] }, vec![extended]);
    let inputs = [gen::sorted_table(200_000, 2, 7)];
    for strat in strategies() {
        check(&format!("SELECT → ARITH+ → AGGREGATE* {strat:?}"), strat, |s| {
            execute(&sys, &plan, &inputs, &ExecConfig::new(s, &sys)).unwrap()
        });
    }
    engine::set_batch_enabled(true);
}

// Scratch-poisoning equivalence: the arena's reused banks carry arbitrary
// garbage between checkouts, and the batch operators' validity-bitmap-only
// contract says no lane beyond the live count may influence an answer. The
// poison toggle overwrites every reused bank (and the mask beyond the tail)
// with sentinel bit patterns — quiet-NaN payloads in f64 lanes, alternating
// bits in masks — before each run, so any operator that reads a stale or
// unselected lane produces a bitwise-visible diff against the scalar
// engine. Arenas outlive queries (their threads serve the process), so
// each query runs twice in a row: the second run checks out banks the
// first one left behind.
#[test]
fn scratch_poisoning_never_changes_tpch_answers() {
    let _g = serial();
    let db: TpchDb = generate(TpchConfig::scale(0.01));
    let sys = GpuSystem::c2070();
    for poison in [false, true] {
        engine::set_scratch_poison(poison);
        for run in 1..=2 {
            let what = |q: &str| format!("{q} poison={poison} run {run}");
            check(&what("Q1"), Strategy::Serial, |s| q1::run_q1(&sys, &db, s).unwrap());
            check(&what("Q6"), Strategy::Serial, |s| q6::run_q6(&sys, &db, s).unwrap());
            check(&what("Q21"), Strategy::Serial, |s| q21::run_q21(&sys, &db, 20, s).unwrap());
        }
    }
    engine::set_scratch_poison(false);
    engine::set_batch_enabled(true);
}
