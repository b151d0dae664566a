//! Fused groups on the host, counted (DESIGN.md §17).
//!
//! The fusing strategies compute the same answers as `Strategy::Serial`
//! (`strategy_equivalence` holds that); this file holds what they are *for*:
//! the intermediates a fused group exchanges are never written. The counts
//! are exact and repeat — bytes through the one gather primitive
//! (`kfusion_host_materialized_bytes_total`), nodes that stayed views
//! (`kfusion_host_views_total`), and the high-water mark of bytes the
//! functional phase held in computed relations
//! (`kfusion_host_live_bytes_peak_total`).

use kfusion::core::exec::{execute, ExecConfig, ExecResult, Strategy};
use kfusion::core::{OpKind, PlanGraph};
use kfusion::frontend::compile;
use kfusion::relalg::Relation;
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::{q1, sql};
use kfusion::trace::Trace;
use kfusion::vgpu::GpuSystem;

// The trace recorder is process-global; tests here take turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn traced(plan: &PlanGraph, inputs: &[Relation], strategy: Strategy) -> (ExecResult, Trace) {
    let sys = GpuSystem::c2070();
    kfusion::trace::reset();
    kfusion::trace::set_enabled(true);
    let result = execute(&sys, plan, inputs, &ExecConfig::new(strategy, &sys)).unwrap();
    kfusion::trace::set_enabled(false);
    (result, kfusion::trace::take())
}

const MATERIALIZED: &str = "kfusion_host_materialized_bytes_total";
const VIEWS: &str = "kfusion_host_views_total";
const LIVE_PEAK: &str = "kfusion_host_live_bytes_peak_total";

#[test]
fn fused_q6_sql_gathers_once() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.02));
    let plan = compile(&sql::q6_sql(), &sql::q6_catalog()).expect("Q6 SQL compiles").plan;
    let table = [sql::q6_wide_table(&db)];
    let (serial_run, serial_trace) = traced(&plan, &table, Strategy::Serial);
    let (fused_run, fused_trace) = traced(&plan, &table, Strategy::Fusion);
    assert!(sql::bit_identical(&serial_run.output, &fused_run.output));
    assert_eq!(serial_run.cards, fused_run.cards);

    // Unfused, every SELECT writes its survivors; fused, only the last
    // one's are gathered, for the ARITH that needs rows.
    let selects: Vec<usize> = (0..plan.len())
        .filter(|&id| matches!(plan.nodes[id].kind, OpKind::Select { .. }))
        .collect();
    let select_bytes: u64 = selects.iter().map(|&id| serial_run.cards.bytes(id)).sum();
    let last = *selects.last().expect("Q6 filters");
    assert_eq!(serial_trace.counter(MATERIALIZED), select_bytes);
    assert_eq!(fused_trace.counter(MATERIALIZED), fused_run.cards.bytes(last));
    assert!(fused_trace.counter(MATERIALIZED) * 20 <= serial_trace.counter(MATERIALIZED));
    assert_eq!(serial_trace.counter(VIEWS), 0);
    assert_eq!(fused_trace.counter(VIEWS), selects.len() as u64);
}

#[test]
fn fused_q1_never_writes_its_column_joins() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.02));
    let (plan, inputs) = (q1::q1_plan(), q1::q1_inputs(&db));
    let (serial_run, serial_trace) = traced(&plan, &inputs, Strategy::Serial);
    let (fused_run, fused_trace) = traced(&plan, &inputs, Strategy::FusionFission { segments: 8 });
    assert!(sql::bit_identical(&serial_run.output, &fused_run.output));
    assert_eq!(serial_run.cards, fused_run.cards);

    let cards = &fused_run.cards;
    let joins: Vec<usize> =
        (0..plan.len()).filter(|&id| matches!(plan.nodes[id].kind, OpKind::ColumnJoin)).collect();
    assert_eq!(joins.len(), 6);
    let join_bytes: u64 = joins.iter().map(|&id| cards.bytes(id)).sum();
    assert_eq!(
        serial_trace.counter(MATERIALIZED) - fused_trace.counter(MATERIALIZED),
        join_bytes,
        "fusion saves exactly the six wide intermediates"
    );
    // The six joins and the SELECT they feed stay views.
    assert_eq!(fused_trace.counter(VIEWS), 7);

    // A relation is dropped after its last consumer, so the functional
    // phase never holds what a keep-everything executor would — under
    // either strategy — and fused it holds less still.
    let all_outputs: u64 = (0..plan.len())
        .filter(|&id| !matches!(plan.nodes[id].kind, OpKind::Input { .. }))
        .map(|id| cards.bytes(id))
        .sum();
    let (serial_peak, fused_peak) =
        (serial_trace.counter(LIVE_PEAK), fused_trace.counter(LIVE_PEAK));
    assert!(fused_peak > 0 && fused_peak < serial_peak, "{fused_peak} vs {serial_peak}");
    assert!(serial_peak < all_outputs, "{serial_peak} vs {all_outputs}");
    assert!(fused_peak * 4 < all_outputs, "{fused_peak} vs {all_outputs}");
}
