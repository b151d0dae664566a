//! The host clock, gated where one machine's timer can be trusted.
//!
//! What the host path is *for* is gated exactly elsewhere: the bytes a fused
//! group never writes in `host_fusion.rs`, the zero-allocation steady state
//! in `steady_state_allocs.rs`; served latency is `benchmark/`'s. This file
//! holds the three timings with margin enough to gate in a test: the batch
//! engine (DESIGN.md §9) beats the scalar interpreter on the fused Q1
//! predicate and on the whole Q1 functional phase, a disabled recorder
//! (DESIGN.md §10) costs a batch under 2 %, and Q1's six COLUMN-JOINs over
//! inputs keyed by row id (DESIGN.md §3.3) take under 2 % of its node host
//! time. Each side is its best of several runs after a warm-up.

use kfusion::core::exec::{execute, ExecConfig, Strategy};
use kfusion::ir::batch::{BatchMachine, CompiledKernel, BATCH_ROWS};
use kfusion::ir::fuse::fuse_predicate_chain;
use kfusion::ir::interp::Machine;
use kfusion::ir::opt::{optimize, OptLevel};
use kfusion::ir::{CmpOp, KernelBody, Value};
use kfusion::relalg::{engine, predicates, Column, Relation};
use kfusion::tpch::gen::{generate, TpchConfig, MAX_DAY, Q1_CUTOFF_DAY};
use kfusion::tpch::{q1, sql};
use kfusion::trace::explain::ExplainNode;
use kfusion::vgpu::GpuSystem;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

// The engine toggle and the trace recorder are process-global, and a
// timing wants the cores to itself; tests here take turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const REPS: usize = 5;

/// Rows of the shipdate relation the predicate checks read.
const ROWS: usize = 1 << 18;

/// Best-of-`reps` wall-clock seconds for `f`, after one warm-up call, and
/// the last call's result.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (out, best)
}

/// The Q1 date-range predicate as the fused SELECT block evaluates it:
/// fused (trivially, Q1 has one predicate) and O3-optimized.
fn fused_q1_predicate() -> KernelBody {
    let pred = predicates::col_cmp_i64(0, CmpOp::Le, Q1_CUTOFF_DAY);
    optimize(&fuse_predicate_chain(std::slice::from_ref(&pred)), OptLevel::O3)
}

/// A key + shipdate relation with the generator's date distribution.
fn shipdate_relation() -> Relation {
    let mut rng = kfusion_prng::Rng::seed_from_u64(0x51ED47E);
    let col = (0..ROWS).map(|_| rng.gen_range(0..MAX_DAY + 1)).collect();
    Relation::new((0..ROWS as u64).collect(), vec![Column::I64(col)]).unwrap()
}

/// Scalar engine: one `Machine`, one row at a time.
fn scalar_count(body: &KernelBody, rel: &Relation) -> u64 {
    let mut m = Machine::for_body(body);
    let mut row: Vec<Value> = Vec::with_capacity(1 + rel.n_cols());
    let mut count = 0u64;
    for i in 0..rel.len() {
        rel.ir_inputs(i, &mut row);
        count += m.run_predicate(body, &row).expect("well-typed predicate") as u64;
    }
    count
}

/// Batch engine: the compiled kernel over 1024-row batches, popcounting the
/// selection mask.
fn batch_count(body: &KernelBody, rel: &Relation) -> u64 {
    let k = CompiledKernel::compile(body, &rel.ir_slot_types()).expect("predicate compiles");
    let cols = rel.ir_cols();
    let mut bm = BatchMachine::new(&k);
    let mut count = 0u64;
    for base in (0..rel.len()).step_by(BATCH_ROWS) {
        let n = (rel.len() - base).min(BATCH_ROWS);
        bm.run(&k, &cols, base, n);
        let words = bm.selection_mask(&k).iter().take(n.div_ceil(64)).enumerate();
        for (w, &word) in words {
            let live = n - w * 64;
            let word = if live < 64 { word & ((1u64 << live) - 1) } else { word };
            count += word.count_ones() as u64;
        }
    }
    count
}

#[test]
fn batch_engine_beats_scalar_on_the_q1_predicate() {
    let _g = serial();
    let (body, rel) = (fused_q1_predicate(), shipdate_relation());
    let (scalar_rows, scalar_secs) = best_of(REPS, || scalar_count(&body, &rel));
    let (batch_rows, batch_secs) = best_of(REPS, || batch_count(&body, &rel));
    assert_eq!(scalar_rows, batch_rows, "engines disagree on selectivity");
    let rate = |secs: f64| ROWS as f64 / secs;
    eprintln!(
        "fused Q1 predicate: scalar {:.0} rows/s, batch {:.0} rows/s ({:.1}x)",
        rate(scalar_secs),
        rate(batch_secs),
        scalar_secs / batch_secs
    );
    assert!(rate(batch_secs) > rate(scalar_secs), "batch engine not faster than scalar");
}

#[test]
fn batch_engine_beats_scalar_on_the_q1_functional_phase() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.01));
    let (plan, inputs) = (q1::q1_plan(), q1::q1_inputs(&db));
    let sys = GpuSystem::c2070();
    let cfg = ExecConfig::new(Strategy::Serial, &sys);
    let phase = |batch: bool| {
        engine::set_batch_enabled(batch);
        best_of(REPS, || execute(&sys, &plan, &inputs, &cfg).unwrap())
    };
    let (scalar, scalar_secs) = phase(false);
    let (batch, batch_secs) = phase(true);
    assert!(sql::bit_identical(&scalar.output, &batch.output), "engines disagree on Q1");
    assert_eq!(scalar.report.total(), batch.report.total(), "engine choice moved the sim clock");
    eprintln!(
        "Q1 functional phase: scalar {:.2} ms, batch {:.2} ms ({:.1}x)",
        scalar_secs * 1e3,
        batch_secs * 1e3,
        scalar_secs / batch_secs
    );
    assert!(batch_secs < scalar_secs, "batch Q1 functional phase not faster than scalar");
}

/// `BatchMachine::run` ticks one counter per batch. With the recorder off,
/// that call is one relaxed atomic load; timed on its own, `CALLS` of them
/// must take under 2 % of `CALLS` batches of the fused Q1 predicate. Both
/// sides are the best of many short samples, which catch the moments a
/// shared core runs at full speed.
#[test]
fn a_disabled_recorder_costs_a_batch_under_two_percent() {
    const CALLS: usize = 1 << 13;
    const SAMPLES: usize = 40;
    let _g = serial();
    kfusion::trace::set_enabled(false);
    let rel = shipdate_relation();
    let k = CompiledKernel::compile(&fused_q1_predicate(), &rel.ir_slot_types()).unwrap();
    let cols = rel.ir_cols();
    let mut bm = BatchMachine::new(&k);
    let (_, batch_secs) = best_of(SAMPLES, || {
        for i in 0..CALLS {
            bm.run(&k, &cols, i * BATCH_ROWS % ROWS, BATCH_ROWS);
        }
        black_box(bm.selection_mask(&k)[0])
    });
    let (_, counter_secs) = best_of(SAMPLES, || {
        for _ in 0..CALLS {
            kfusion::trace::counter(black_box("kfusion_batch_batches_total"), black_box(1));
        }
    });
    let share = counter_secs / batch_secs;
    eprintln!(
        "disabled recorder: {:.2} ns a call, {:.1} ns a batch ({:.3} %)",
        counter_secs / CALLS as f64 * 1e9,
        batch_secs / CALLS as f64 * 1e9,
        share * 100.0
    );
    assert!(share < 0.02, "a disabled counter costs {:.2} % of a batch", share * 100.0);
}

/// Each node of an EXPLAIN ANALYZE tree once, by label, with its host time.
fn node_host_seconds(node: &ExplainNode, out: &mut BTreeMap<String, f64>) {
    out.insert(node.label.clone(), node.host_seconds);
    node.children.iter().for_each(|c| node_host_seconds(c, out));
}

/// Q1's per-column inputs are keyed by row id and store no key, so each of
/// the six COLUMN-JOINs that assemble its wide table (paper Fig. 17(a))
/// checks two lengths where it compared two key vectors. Together they must
/// take under 2 % of the host time of Q1's EXPLAIN ANALYZE nodes under the
/// served strategy — a share, so the gate holds at any machine's speed
/// (they took ~14 % while they compared keys). Every node's time is its
/// best of several runs.
#[test]
fn q1_column_joins_take_under_two_percent_of_its_node_host_time() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.05));
    let (plan, inputs) = (q1::q1_plan(), q1::q1_inputs(&db));
    let sys = GpuSystem::c2070();
    let cfg = ExecConfig::new(Strategy::FusionFission { segments: 8 }, &sys);
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for _ in 0..=REPS {
        let mut run = BTreeMap::new();
        node_host_seconds(&execute(&sys, &plan, &inputs, &cfg).unwrap().explain, &mut run);
        for (label, secs) in run {
            let slot = best.entry(label).or_insert(f64::INFINITY);
            *slot = slot.min(secs);
        }
    }
    let joins: Vec<f64> =
        best.iter().filter(|(label, _)| label.starts_with("coljoin#")).map(|(_, &s)| s).collect();
    assert_eq!(joins.len(), 6, "Q1 assembles its table with six COLUMN-JOINs: {best:?}");
    let share = joins.iter().sum::<f64>() / best.values().sum::<f64>();
    eprintln!(
        "Q1 COLUMN-JOINs: {:.3} ms of {:.3} ms node host time ({:.3} %)",
        joins.iter().sum::<f64>() * 1e3,
        best.values().sum::<f64>() * 1e3,
        share * 100.0
    );
    assert!(share < 0.02, "Q1's COLUMN-JOINs take {:.2} % of its node host time", share * 100.0);
}
