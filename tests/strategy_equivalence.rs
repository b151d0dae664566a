//! Cross-crate property tests: the optimizer must never change answers.
//!
//! Random plan graphs over random relations execute under every strategy,
//! on both host engines; all must produce the root relation — and every
//! node's cardinality, and every error — the serial (unoptimized) scalar
//! execution produces. This is the system-level version of the per-pass
//! semantics proofs in `kfusion-ir`. Cases come from seeded `kfusion-prng`
//! streams.

use kfusion::core::exec::{execute, Cardinalities, ExecConfig, Strategy as ExecStrategy};
use kfusion::core::multiquery::{execute_multi, merge_plans};
use kfusion::core::{NodeId, OpKind, PlanGraph};
use kfusion::ir::builder::{BodyBuilder, Expr};
use kfusion::ir::CmpOp;
use kfusion::relalg::ops::{Agg, SortBy};
use kfusion::relalg::{engine, predicates, Column, Relation};
use kfusion::vgpu::GpuSystem;
use kfusion_prng::Rng;

// The engine and scratch toggles are process-global and `cargo test` runs
// test functions on concurrent threads, so every test here serializes on
// one lock.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Simulated time is positive and fusion never loses to serial by more
/// than noise on pure elementwise chains.
#[test]
fn fusion_never_slower_on_select_chains() {
    let _g = serial();
    for case in 0u64..32 {
        let mut rng = Rng::seed_from_u64(0xE2 << 32 | case);
        let n = rng.gen_range(1usize..6);
        let thresholds: Vec<u64> = (0..n).map(|_| rng.gen_range(100u64..4_000_000_000)).collect();
        let seed = rng.gen_range(0u64..100);
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for &t in &thresholds {
            cur = g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![cur]);
        }
        let input = kfusion::relalg::gen::random_keys(50_000, seed);
        let sys = GpuSystem::c2070();
        let cfg_serial = ExecConfig::new(ExecStrategy::Serial, &sys);
        let serial = execute(&sys, &g, std::slice::from_ref(&input), &cfg_serial).unwrap();
        let cfg_fused = ExecConfig::new(ExecStrategy::Fusion, &sys);
        let fused = execute(&sys, &g, std::slice::from_ref(&input), &cfg_fused).unwrap();
        assert!(
            fused.report.total() <= serial.report.total() * 1.0001,
            "case {case}: fusion slower: {} vs {}",
            fused.report.total(),
            serial.report.total()
        );
    }
}

// ---------------------------------------------------------------------
// Fused groups on the host (DESIGN.md §17): under the fusing strategies
// SELECT / COLUMN-JOIN / PROJECT members of a group exchange views, under
// `Serial` (and on the scalar engine's SELECTs) every node materializes.
// The two must agree on every root bit for bit, on every node's measured
// size, and on every error.

/// What a plan input holds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum InputKind {
    /// The table the plan filters: sorted keys with duplicates, two i64
    /// columns (the second non-negative, so REKEY accepts it).
    Base,
    /// One more column over the base table's exact key vector — what
    /// COLUMN-JOIN zips.
    Column,
    /// Unrelated sorted keys, for SEMIJOIN / ANTIJOIN.
    Probe,
}

fn make_inputs(kinds: &[InputKind], seed: u64, n: usize) -> Vec<Relation> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1500)).collect();
    keys.sort_unstable();
    kinds
        .iter()
        .map(|kind| {
            let mut col = |lo: i64, hi: i64| -> Column {
                Column::I64((0..n).map(|_| rng.gen_range(lo..hi)).collect())
            };
            match kind {
                InputKind::Base => {
                    Relation::new(keys.clone(), vec![col(-50, 50), col(0, 40)]).unwrap()
                }
                InputKind::Column => Relation::new(keys.clone(), vec![col(-9, 9)]).unwrap(),
                InputKind::Probe => {
                    let mut probe: Vec<u64> =
                        (0..n / 2).map(|_| rng.gen_range(0u64..1500)).collect();
                    probe.sort_unstable();
                    Relation::from_keys(probe)
                }
            }
        })
        .collect()
}

/// The relation a plan under construction currently ends in.
struct Cur {
    id: NodeId,
    cols: usize,
    sorted: bool,
}

fn new_input(g: &mut PlanGraph, kinds: &mut Vec<InputKind>, kind: InputKind) -> NodeId {
    kinds.push(kind);
    g.input(kinds.len() - 1)
}

/// `col * 3 + key`, appended as one more i64 column.
fn extend_body(cols: usize, col: usize) -> kfusion::ir::KernelBody {
    let mut b = BodyBuilder::new(1 + cols as u32);
    b.emit_output(Expr::input(1 + col as u32).mul(Expr::lit(3i64)).add(Expr::input(0)));
    b.build()
}

/// A random plan over input 0 (the base table), drawing further inputs
/// from `kinds`. Every operator the view path touches appears: SELECTs
/// (random, all-true, all-false), COLUMN-JOIN against fresh columns (key mismatch once anything upstream
/// filtered) and against a projection of the current relation (a diamond
/// inside one group), PROJECT, ARITH+, REKEY, the barriers and merge
/// operators (SORT, UNIQUE, SEMIJOIN, ANTIJOIN, AGGREGATE), and a view read
/// both inside its group (SELECT) and outside it (SORT).
fn arb_dag(rng: &mut Rng, g: &mut PlanGraph, base: NodeId, kinds: &mut Vec<InputKind>) -> NodeId {
    let mut cur = Cur { id: base, cols: 2, sorted: true };
    for _ in 0..rng.gen_range(2usize..9) {
        let col = if cur.cols > 0 { rng.gen_range(0..cur.cols) } else { 0 };
        let select =
            |g: &mut PlanGraph, pred, from: NodeId| g.add(OpKind::Select { pred }, vec![from]);
        match rng.gen_range(0usize..17) {
            0 => cur.id = select(g, predicates::key_lt(rng.gen_range(0u64..2000)), cur.id),
            1 if cur.cols > 0 => {
                let v = rng.gen_range(-40i64..40);
                cur.id = select(g, predicates::col_cmp_i64(col, CmpOp::Lt, v), cur.id);
            }
            2 => cur.id = select(g, predicates::key_lt(1 << 40), cur.id),
            3 => cur.id = select(g, predicates::key_lt(0), cur.id),
            4 | 5 => {
                let rhs = new_input(g, kinds, InputKind::Column);
                cur.id = g.add(OpKind::ColumnJoin, vec![cur.id, rhs]);
                cur.cols += 1;
            }
            6 if cur.cols > 0 => {
                let side = g.add(OpKind::Project { keep: vec![col] }, vec![cur.id]);
                cur.id = g.add(OpKind::ColumnJoin, vec![cur.id, side]);
                cur.cols += 1;
            }
            7 => {
                let keep: Vec<usize> = (0..rng.gen_range(0usize..4))
                    .map(|_| rng.gen_range(0..cur.cols.max(1)))
                    .collect();
                let keep = if cur.cols == 0 { Vec::new() } else { keep };
                cur.cols = keep.len();
                cur.id = g.add(OpKind::Project { keep }, vec![cur.id]);
            }
            8 | 9 if cur.cols > 0 => {
                cur.id =
                    g.add(OpKind::ArithExtend { body: extend_body(cur.cols, col) }, vec![cur.id]);
                cur.cols += 1;
            }
            10 if cur.cols > 0 => {
                cur.id = g.add(OpKind::Rekey { col }, vec![cur.id]);
                cur.cols -= 1;
                cur.sorted = false;
            }
            11 => {
                cur.id = g.add(OpKind::Sort { by: SortBy::Key }, vec![cur.id]);
                cur.sorted = true;
            }
            12 if cur.sorted => {
                let rhs = new_input(g, kinds, InputKind::Probe);
                let kind =
                    if rng.gen_range(0u32..2) == 0 { OpKind::Semijoin } else { OpKind::Antijoin };
                cur.id = g.add(kind, vec![cur.id, rhs]);
            }
            13 if cur.sorted && cur.cols > 0 => {
                cur.id = g
                    .add(OpKind::Aggregate { aggs: vec![Agg::Sum(col), Agg::Count] }, vec![cur.id]);
                cur.cols = 2;
            }
            14 if cur.sorted => cur.id = g.add(OpKind::Unique, vec![cur.id]),
            15 | 16 => {
                // `cur` read inside its group (the SELECT) and outside it
                // (the SORT); the two meet again in a SEMIJOIN.
                let inside = select(g, predicates::key_lt(rng.gen_range(0u64..2000)), cur.id);
                let inside = g.add(OpKind::Sort { by: SortBy::Key }, vec![inside]);
                let outside = g.add(OpKind::Sort { by: SortBy::Key }, vec![cur.id]);
                cur.id = g.add(OpKind::Semijoin, vec![outside, inside]);
                cur.sorted = true;
            }
            _ => {}
        }
    }
    if cur.cols > 0 && rng.gen_range(0u32..4) == 0 {
        cur.id = g.add(OpKind::AggregateAll { aggs: vec![Agg::Sum(0), Agg::Count] }, vec![cur.id]);
    }
    cur.id
}

/// Every cell of strategy x host engine x scratch poisoning, the unfused
/// scalar cell first: it is the reference the others must reproduce.
fn cells() -> Vec<(ExecStrategy, bool, bool)> {
    let mut cells = Vec::new();
    for strat in
        [ExecStrategy::Serial, ExecStrategy::Fusion, ExecStrategy::FusionFission { segments: 8 }]
    {
        cells.extend([(strat, false, false), (strat, true, false), (strat, true, true)]);
    }
    cells.push((ExecStrategy::SerialRoundTrip, true, false));
    cells
}

type Outcome = Result<(Vec<Relation>, Cardinalities), String>;

/// Run `run` in every cell and demand the reference cell's outcome — the
/// same roots and per-node `(rows, row_bytes)`, or the same error — which
/// is returned.
fn same_in_every_cell(what: &str, run: impl Fn(ExecStrategy) -> Outcome) -> Outcome {
    let mut reference = None;
    for (strat, batch, poison) in cells() {
        engine::set_batch_enabled(batch);
        engine::set_scratch_poison(poison);
        let got = run(strat);
        engine::set_batch_enabled(true);
        engine::set_scratch_poison(false);
        match &reference {
            None => reference = Some(got),
            // All columns are i64, so `==` is bit identity.
            Some(want) => assert_eq!(
                &got, want,
                "{what}: {strat:?} batch={batch} poison={poison} differs from the unfused scalar run"
            ),
        }
    }
    reference.expect("at least one cell")
}

#[test]
fn views_never_change_answers_cardinalities_or_errors() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let (mut ok, mut mismatched) = (0, 0);
    for case in 0u64..96 {
        let mut rng = Rng::seed_from_u64(0xE3 << 32 | case);
        let mut g = PlanGraph::new();
        let mut kinds = vec![InputKind::Base];
        let base = g.input(0);
        let root = arb_dag(&mut rng, &mut g, base, &mut kinds);
        g.root = root;
        // Mostly one CTA's worth of rows; some empty, some spanning CTAs.
        let n = match case % 8 {
            0 => 0,
            1 => 70_000,
            _ => 800,
        };
        let inputs = make_inputs(&kinds, case, n);
        let outcome = same_in_every_cell(&format!("case {case} ({n} rows): {g:?}"), |strat| {
            execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                .map(|r| {
                    assert!(r.report.total() > 0.0, "case {case} {strat:?}");
                    (vec![r.output], r.cards)
                })
                .map_err(|e| e.to_string())
        });
        match outcome {
            Ok(_) => ok += 1,
            Err(e) if e.contains("different schemas") => mismatched += 1,
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
    // The generator must actually reach both outcomes it exists for.
    assert!(ok > 20 && mismatched > 5, "{ok} ok, {mismatched} key mismatches");
}

/// A predicate the batch engine declines — an f64 comparison on an i64
/// column, which the plan checker cannot see — falls back to the scalar
/// interpreter wherever it sits in a fused group, with the interpreter's
/// outcome: a type error on the first row, or nothing at all when no row
/// reaches it.
#[test]
fn declined_predicates_fall_back_identically() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    for reaches_rows in [true, false] {
        let mut g = PlanGraph::new();
        let (base, col) = (g.input(0), g.input(1));
        let wide = g.add(OpKind::ColumnJoin, vec![base, col]);
        let gate = if reaches_rows { 1 << 40 } else { 0 };
        let gated = g.add(OpKind::Select { pred: predicates::key_lt(gate) }, vec![wide]);
        let declined =
            g.add(OpKind::Select { pred: predicates::col_cmp_f64(2, CmpOp::Lt, 0.5) }, vec![gated]);
        g.add(OpKind::ArithExtend { body: extend_body(3, 0) }, vec![declined]);
        let inputs = make_inputs(&[InputKind::Base, InputKind::Column], 7, 800);
        let outcome =
            same_in_every_cell(&format!("declined, rows reach it: {reaches_rows}"), |s| {
                execute(&sys, &g, &inputs, &ExecConfig::new(s, &sys))
                    .map(|r| (vec![r.output], r.cards))
                    .map_err(|e| e.to_string())
            });
        match outcome {
            Ok((roots, _)) => assert!(!reaches_rows && roots[0].is_empty()),
            Err(e) => assert!(reaches_rows && e.contains("evaluation failed"), "{e}"),
        }
    }
}

#[test]
fn views_never_change_batched_queries() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let mut answered = 0;
    for case in 0u64..24 {
        let mut rng = Rng::seed_from_u64(0xE4 << 32 | case);
        // Two queries over the same tables: the merged graph has two roots
        // and its fused groups span both queries.
        let mut kinds = vec![InputKind::Base];
        let plans: Vec<PlanGraph> = (0..2)
            .map(|_| {
                let mut g = PlanGraph::new();
                // Inputs keep their index across queries, so `merge_plans`
                // shares the scans.
                let leaves: Vec<NodeId> = (0..kinds.len()).map(|k| g.input(k)).collect();
                let root = arb_dag(&mut rng, &mut g, leaves[0], &mut kinds);
                g.root = root;
                g
            })
            .collect();
        let merged = merge_plans(&plans);
        let inputs = make_inputs(&kinds, case, 800);
        let outcome = same_in_every_cell(&format!("batch case {case}"), |strat| {
            execute_multi(&sys, &merged, &inputs, &ExecConfig::new(strat, &sys))
                .map(|r| (r.outputs, r.cards))
                .map_err(|e| e.to_string())
        });
        answered += outcome.is_ok() as u32;
    }
    assert!(answered > 5, "only {answered} batches without a key mismatch");
}
