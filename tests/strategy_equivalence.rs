//! Cross-crate property tests: the optimizer must never change answers.
//!
//! Random plan graphs over random relations execute under every strategy,
//! on both host engines; all must produce the root relation — and every
//! node's cardinality, and every error — the serial (unoptimized) scalar
//! execution produces. This is the system-level version of the per-pass
//! semantics proofs in `kfusion-ir`. Cases come from seeded `kfusion-prng`
//! streams.

use kfusion::core::exec::{execute, Cardinalities, ExecConfig, Strategy as ExecStrategy};
use kfusion::core::multiquery::{execute_multi, merge_plans, MergedPlan};
use kfusion::core::{NodeId, OpKind, PlanGraph};
use kfusion::ir::builder::{BodyBuilder, Expr};
use kfusion::ir::opt::OptLevel;
use kfusion::ir::CmpOp;
use kfusion::relalg::ops::{Agg, SortBy};
use kfusion::relalg::{engine, predicates, Column, Keys, Relation};
use kfusion::tpch::sql::bit_identical;
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
    /// One more i64 column over the base table's exact key vector — what
    /// COLUMN-JOIN zips.
    Column,
    /// The same, of f64s (quarters, so every sum of them is exact).
    FloatColumn,
    /// Unrelated sorted keys, for SEMIJOIN / ANTIJOIN.
    Probe,
    /// Two more columns over the base table's exact key vector: i64s whose
    /// sums wrap ([`awkward_ints`]) and f64s among NaN, -0.0 and the
    /// infinities ([`awkward_floats`]).
    Awkward,
}

/// `n` i64s, half of them the extremes whose sums wrap.
fn awkward_ints(rng: &mut Rng, n: usize) -> Vec<i64> {
    const EXTREMES: [i64; 4] = [i64::MAX, i64::MIN, i64::MAX - 1, -1];
    (0..n)
        .map(|_| match rng.gen_range(0usize..8) {
            k if k < EXTREMES.len() => EXTREMES[k],
            _ => rng.gen_range(-1000i64..1000),
        })
        .collect()
}

/// `n` f64s, two in five of them NaN, -0.0, 0.0 or an infinity, the rest
/// quarters.
fn awkward_floats(rng: &mut Rng, n: usize) -> Vec<f64> {
    const SPECIAL: [f64; 5] = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
    (0..n)
        .map(|_| match rng.gen_range(0usize..12) {
            k if k < SPECIAL.len() => SPECIAL[k],
            _ => rng.gen_range(-160i64..160) as f64 * 0.25,
        })
        .collect()
}

fn make_inputs(kinds: &[InputKind], seed: u64, n: usize) -> Vec<Relation> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1500)).collect();
    keys.sort_unstable();
    kinds
        .iter()
        .map(|kind| {
            let mut ints =
                |lo: i64, hi: i64| -> Vec<i64> { (0..n).map(|_| rng.gen_range(lo..hi)).collect() };
            match kind {
                InputKind::Base => Relation::new(
                    keys.clone(),
                    vec![Column::I64(ints(-50, 50)), Column::I64(ints(0, 40))],
                )
                .unwrap(),
                InputKind::Column => {
                    Relation::new(keys.clone(), vec![Column::I64(ints(-9, 9))]).unwrap()
                }
                InputKind::FloatColumn => {
                    let quarters = ints(-160, 160).into_iter().map(|v| v as f64 * 0.25).collect();
                    Relation::new(keys.clone(), vec![Column::F64(quarters)]).unwrap()
                }
                InputKind::Probe => {
                    let mut probe: Vec<u64> =
                        (0..n / 2).map(|_| rng.gen_range(0u64..1500)).collect();
                    probe.sort_unstable();
                    Relation::from_keys(probe)
                }
                InputKind::Awkward => {
                    let cols = vec![
                        Column::I64(awkward_ints(&mut rng, n)),
                        Column::F64(awkward_floats(&mut rng, n)),
                    ];
                    Relation::new(keys.clone(), cols).unwrap()
                }
            }
        })
        .collect()
}

/// The relation a plan under construction currently ends in; `floats[c]`
/// says payload column `c` is f64.
struct Cur {
    id: NodeId,
    floats: Vec<bool>,
    sorted: bool,
}

fn new_input(g: &mut PlanGraph, kinds: &mut Vec<InputKind>, kind: InputKind) -> NodeId {
    kinds.push(kind);
    g.input(kinds.len() - 1)
}

/// One more column: `col * 3 + key` of an i64 column, `col * 0.5` of an f64.
fn extend_body(cols: usize, col: usize, float: bool) -> kfusion::ir::KernelBody {
    let mut b = BodyBuilder::new(1 + cols as u32);
    let src = Expr::input(1 + col as u32);
    b.emit_output(match float {
        true => src.mul(Expr::lit(0.5f64)),
        false => src.mul(Expr::lit(3i64)).add(Expr::input(0)),
    });
    b.build()
}

/// `col < v`, typed as the column is.
fn col_lt(col: usize, float: bool, v: i64) -> kfusion::ir::KernelBody {
    match float {
        true => predicates::col_cmp_f64(col, CmpOp::Lt, v as f64 * 0.25),
        false => predicates::col_cmp_i64(col, CmpOp::Lt, v),
    }
}

/// A predicate the batch engine compiles over a relation with `floats`'
/// columns: a threshold on the key or a column, two columns of one type (or
/// the key and an i64 column) compared, or — now and then — all or nothing.
fn arb_pred(rng: &mut Rng, floats: &[bool]) -> kfusion::ir::KernelBody {
    const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
    let cols = floats.len();
    let col = if cols > 0 { rng.gen_range(0..cols) } else { 0 };
    match rng.gen_range(0u32..8) {
        0 => predicates::key_lt(1 << 40),
        1 => predicates::key_lt(0),
        2 | 3 if cols > 0 => col_lt(col, floats[col], rng.gen_range(-40i64..40)),
        4 | 5 if cols > 0 => {
            let op = OPS[rng.gen_range(0..OPS.len())];
            // Slot 0 is the key, an i64; slot 1 + c is column c.
            let slot_ty = |s: usize| s > 0 && floats[s - 1];
            let lhs = 1 + col;
            let rhs = (0..=cols).find(|&s| s != lhs && slot_ty(s) == slot_ty(lhs));
            let mut b = BodyBuilder::new(1 + cols as u32);
            let (lhs, rhs) = (Expr::input(lhs as u32), Expr::input(rhs.unwrap_or(lhs) as u32));
            b.emit_output(lhs.cmp(op, rhs));
            b.build()
        }
        _ => predicates::key_lt(rng.gen_range(0u64..2000)),
    }
}

/// `len` SELECTs back to back over `from`, the one at `declined` (if any)
/// typed the wrong way round, so the batch engine declines it; returns the
/// members in order.
fn select_run(
    rng: &mut Rng,
    g: &mut PlanGraph,
    from: NodeId,
    floats: &[bool],
    len: usize,
    declined: Option<usize>,
) -> Vec<NodeId> {
    let mut members: Vec<NodeId> = Vec::with_capacity(len);
    for i in 0..len {
        let pred = match declined {
            Some(at) if at == i => col_lt(0, !floats[0], 1),
            _ => arb_pred(rng, floats),
        };
        let input = members.last().copied().unwrap_or(from);
        members.push(g.add(OpKind::Select { pred }, vec![input]));
    }
    members
}

/// Any of the six orders, over a column of the type it reads.
fn arb_sort(rng: &mut Rng, floats: &[bool]) -> SortBy {
    let desc = rng.gen_range(0u32..2) == 0;
    if floats.is_empty() || rng.gen_range(0u32..3) == 0 {
        return if desc { SortBy::KeyDesc } else { SortBy::Key };
    }
    let c = rng.gen_range(0..floats.len());
    match (floats[c], desc) {
        (false, false) => SortBy::I64Col(c),
        (false, true) => SortBy::I64ColDesc(c),
        (true, false) => SortBy::F64Col(c),
        (true, true) => SortBy::F64ColDesc(c),
    }
}

/// 0–3 ARITH+ and PROJECT steps over `from`, each the only reader of the
/// last: the way a SORT's rows may take to a keyed AGGREGATE.
fn elementwise_path(
    rng: &mut Rng,
    g: &mut PlanGraph,
    from: NodeId,
    floats: &mut Vec<bool>,
) -> NodeId {
    let mut cur = from;
    for _ in 0..rng.gen_range(0usize..4) {
        let cols = floats.len();
        if cols > 0 && rng.gen_range(0u32..2) == 0 {
            let col = rng.gen_range(0..cols);
            let body = extend_body(cols, col, floats[col]);
            cur = g.add(OpKind::ArithExtend { body }, vec![cur]);
            floats.push(floats[col]);
        } else {
            let picks = if cols == 0 { 0 } else { rng.gen_range(1usize..4) };
            let keep: Vec<usize> = (0..picks).map(|_| rng.gen_range(0..cols)).collect();
            *floats = keep.iter().map(|&c| floats[c]).collect();
            cur = g.add(OpKind::Project { keep }, vec![cur]);
        }
    }
    cur
}

/// SUM, MIN, MAX and AVG of each of `cols` columns, and COUNT.
fn every_agg(cols: usize) -> Vec<Agg> {
    let per_col = (0..cols).flat_map(|c| [Agg::Sum(c), Agg::Min(c), Agg::Max(c), Agg::Avg(c)]);
    per_col.chain([Agg::Count]).collect()
}

/// ARITH+ then REKEY: `shift - key` becomes the key of `from`'s rows —
/// negative wherever a row's key exceeds `shift`.
fn rekey_below(g: &mut PlanGraph, from: NodeId, cols: usize, shift: i64) -> NodeId {
    let mut b = BodyBuilder::new(1 + cols as u32);
    b.emit_output(Expr::lit(shift).sub(Expr::input(0)));
    let extended = g.add(OpKind::ArithExtend { body: b.build() }, vec![from]);
    g.add(OpKind::Rekey { col: cols }, vec![extended])
}

/// A random plan over input 0 (the base table), drawing further inputs
/// from `kinds`. Every operator the view path touches appears: SELECTs
/// (random, all-true, all-false, and — rarely — one the batch engine
/// declines), over i64 and f64 columns whose positions PROJECT and
/// COLUMN-JOIN shuffle, so one fused group's predicates read the same slot
/// at different types; COLUMN-JOIN against fresh columns (key mismatch once
/// anything upstream filtered) and against a projection of the current
/// relation (a diamond inside one group), PROJECT, ARITH+, REKEY, the
/// barriers and merge operators (SORT, UNIQUE, SEMIJOIN, ANTIJOIN,
/// AGGREGATE — behind a PROJECT too, which it reads as a view), and a view
/// read both inside its group (SELECT) and outside it (SORT).
fn arb_dag(rng: &mut Rng, g: &mut PlanGraph, base: NodeId, kinds: &mut Vec<InputKind>) -> NodeId {
    arb_dag_over(rng, g, base, kinds, 19)
}

/// [`arb_dag`] drawing each step from the first `arms` arms of its menu:
/// 19 are what the original cases were drawn from, the three past them put
/// views in front of SORT — SELECT → ARITH+ → REKEY chains on both sides of
/// the gather-first rule, with negative keys in rows the SELECT drops or
/// keeps; filtered, rearranged views sorted every way, in order and not;
/// and a SELECT alone between two SORTs, a group of one. The four past
/// those build runs of SELECTs (`select_run`), which a fused group
/// evaluates in one pass: plain, with a declined predicate, ending the
/// plan, and with a second reader at the last or a middle member. The six
/// past those, two arms of three draws each, end the plan in a keyed
/// AGGREGATE behind a SORT by key: with only ARITH+ and PROJECT between
/// them, over awkward values, behind a REKEY to one group or to keys that
/// go negative; and with a second reader of the SORT, or a SELECT or a
/// REKEY between the two. The seven past those bring in the operators that
/// write rows of their own through the gather — JOIN (filtered sides, a
/// side read again, a side out of key order), PRODUCT, and UNION, INTERSECT
/// and DIFFERENCE over filtered, reordered or rearranged sides.
fn arb_dag_over(
    rng: &mut Rng,
    g: &mut PlanGraph,
    base: NodeId,
    kinds: &mut Vec<InputKind>,
    arms: usize,
) -> NodeId {
    let mut cur = Cur { id: base, floats: vec![false, false], sorted: true };
    for _ in 0..rng.gen_range(2usize..9) {
        let cols = cur.floats.len();
        let col = if cols > 0 { rng.gen_range(0..cols) } else { 0 };
        let float = cur.floats.get(col).copied().unwrap_or(false);
        let select =
            |g: &mut PlanGraph, pred, from: NodeId| g.add(OpKind::Select { pred }, vec![from]);
        let arm = rng.gen_range(0usize..arms);
        match arm {
            0 => cur.id = select(g, predicates::key_lt(rng.gen_range(0u64..2000)), cur.id),
            1 | 17 if cols > 0 => {
                cur.id = select(g, col_lt(col, float, rng.gen_range(-40i64..40)), cur.id);
            }
            2 => cur.id = select(g, predicates::key_lt(1 << 40), cur.id),
            3 => cur.id = select(g, predicates::key_lt(0), cur.id),
            4 | 5 => {
                let float = rng.gen_range(0u32..2) == 0;
                let kind = if float { InputKind::FloatColumn } else { InputKind::Column };
                let rhs = new_input(g, kinds, kind);
                cur.id = g.add(OpKind::ColumnJoin, vec![cur.id, rhs]);
                cur.floats.push(float);
            }
            6 if cols > 0 => {
                let side = g.add(OpKind::Project { keep: vec![col] }, vec![cur.id]);
                cur.id = g.add(OpKind::ColumnJoin, vec![cur.id, side]);
                cur.floats.push(float);
            }
            7 => {
                let keep: Vec<usize> =
                    (0..rng.gen_range(0usize..4)).map(|_| rng.gen_range(0..cols.max(1))).collect();
                let keep = if cols == 0 { Vec::new() } else { keep };
                cur.floats = keep.iter().map(|&c| cur.floats[c]).collect();
                cur.id = g.add(OpKind::Project { keep }, vec![cur.id]);
            }
            8 | 9 if cols > 0 => {
                let body = extend_body(cols, col, float);
                cur.id = g.add(OpKind::ArithExtend { body }, vec![cur.id]);
                cur.floats.push(float);
            }
            10 if cols > 0 && !float => {
                cur.id = g.add(OpKind::Rekey { col }, vec![cur.id]);
                cur.floats.remove(col);
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
            13 if cur.sorted && cols > 0 => {
                let aggs = vec![Agg::Sum(col), Agg::Count, Agg::Min(col)];
                cur.id = g.add(OpKind::Aggregate { aggs }, vec![cur.id]);
                cur.floats = vec![float, false, float];
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
            // Typed the wrong way round: the batch engine declines it and
            // the interpreter fails on the first row that reaches it.
            18 if cols > 0 && rng.gen_range(0u32..3) == 0 => {
                cur.id = select(g, col_lt(col, !float, 1), cur.id);
            }
            // Keys below 150 or 1 200 of the base table's 1 500: too few
            // rows to widen where they are, or plenty. The new key
            // `t - 1 - key` is negative exactly on the rows the SELECT
            // drops; `t / 2 - key` also on some it keeps.
            19 => {
                let t = if rng.gen_range(0u32..2) == 0 { 150 } else { 1_200 };
                let kept = select(g, predicates::key_lt(t), cur.id);
                let shift = if rng.gen_range(0u32..3) == 0 { t / 2 } else { t - 1 };
                let mut b = BodyBuilder::new(1 + cols as u32);
                b.emit_output(Expr::lit(shift as i64).sub(Expr::input(0)));
                let extended = g.add(OpKind::ArithExtend { body: b.build() }, vec![kept]);
                let rekeyed = g.add(OpKind::Rekey { col: cols }, vec![extended]);
                let by = arb_sort(rng, &cur.floats);
                cur.id = g.add(OpKind::Sort { by }, vec![rekeyed]);
                cur.sorted = by == SortBy::Key;
            }
            20 => {
                let kept = select(g, predicates::key_lt(rng.gen_range(0u64..2000)), cur.id);
                let keep: Vec<usize> =
                    (0..rng.gen_range(0usize..4)).map(|_| rng.gen_range(0..cols.max(1))).collect();
                let keep = if cols == 0 { Vec::new() } else { keep };
                cur.floats = keep.iter().map(|&c| cur.floats[c]).collect();
                let rearranged = g.add(OpKind::Project { keep }, vec![kept]);
                // By the key it is sorted by already: nothing to reorder.
                let in_order = cur.sorted && rng.gen_range(0u32..2) == 0;
                let by = if in_order { SortBy::Key } else { arb_sort(rng, &cur.floats) };
                cur.id = g.add(OpKind::Sort { by }, vec![rearranged]);
                cur.sorted = by == SortBy::Key;
            }
            21 => {
                let sorted = g.add(OpKind::Sort { by: SortBy::Key }, vec![cur.id]);
                let alone = select(g, predicates::key_lt(rng.gen_range(0u64..2000)), sorted);
                let by = arb_sort(rng, &cur.floats);
                cur.id = g.add(OpKind::Sort { by }, vec![alone]);
                cur.sorted = by == SortBy::Key;
            }
            // Runs of SELECTs, which a fused group evaluates in one pass:
            // 2–6 long; with a declined predicate at the head, in the middle
            // or at the tail; ending the plan, so the last member is the
            // root.
            22..=24 => {
                let len = rng.gen_range(2usize..7);
                let declined = (arm == 23 && cols > 0)
                    .then(|| [0, len / 2, len - 1][rng.gen_range(0usize..3)]);
                let run = select_run(rng, g, cur.id, &cur.floats, len, declined);
                cur.id = *run.last().expect("a run has members");
                if arm == 24 {
                    return cur.id;
                }
            }
            // A run whose last member has two readers — a SELECT of its group
            // and a SORT outside it — and a middle member with a second
            // reader (a SELECT, or the SORT behind it), which splits the run.
            25 => {
                let len = rng.gen_range(3usize..7);
                let run = select_run(rng, g, cur.id, &cur.floats, len, None);
                let middle = run[rng.gen_range(1..run.len() - 1)];
                let side = match rng.gen_range(0u32..2) {
                    0 => select(g, arb_pred(rng, &cur.floats), middle),
                    _ => middle,
                };
                let last = *run.last().expect("a run has members");
                let inside = select(g, arb_pred(rng, &cur.floats), last);
                let by_key =
                    |g: &mut PlanGraph, id| g.add(OpKind::Sort { by: SortBy::Key }, vec![id]);
                let (side, inside, outside) = (by_key(g, side), by_key(g, inside), by_key(g, last));
                let met = g.add(OpKind::Semijoin, vec![side, inside]);
                cur.id = g.add(OpKind::Semijoin, vec![outside, met]);
                cur.sorted = true;
            }
            // SORT by key, then only ARITH+ and PROJECT on the way to a keyed
            // AGGREGATE: over awkward values joined in (a key mismatch once
            // anything upstream filtered), behind a REKEY to one group or to
            // `t - key`, negative on some rows. The plan ends here: which
            // NaN an f64 sum yields is the code generator's choice, so
            // nothing may sort or compare by it.
            26..=28 => {
                if rng.gen_range(0u32..2) == 0 {
                    let rhs = new_input(g, kinds, InputKind::Awkward);
                    cur.id = g.add(OpKind::ColumnJoin, vec![cur.id, rhs]);
                    cur.floats.extend([false, true]);
                }
                let cols = cur.floats.len();
                match rng.gen_range(0u32..4) {
                    0 => cur.id = rekey_below(g, cur.id, cols, 7),
                    1 => cur.id = rekey_below(g, cur.id, cols, rng.gen_range(0i64..1600)),
                    _ => {}
                }
                let sorted = g.add(OpKind::Sort { by: SortBy::Key }, vec![cur.id]);
                let path = elementwise_path(rng, g, sorted, &mut cur.floats);
                let aggs = every_agg(cur.floats.len());
                return g.add(OpKind::Aggregate { aggs }, vec![path]);
            }
            // SORT by key into a keyed AGGREGATE that must keep the sort:
            // the SORT has a second reader (its UNIQUE rows, semijoined with
            // the groups), or a SELECT or a REKEY sits between the two —
            // the REKEY's AGGREGATE fails the static check in every cell.
            29..=31 => {
                let sorted = g.add(OpKind::Sort { by: SortBy::Key }, vec![cur.id]);
                let mut floats = cur.floats.clone();
                let (cols, shape) = (floats.len(), rng.gen_range(0u32..3));
                let before_path = match shape {
                    1 => select(g, arb_pred(rng, &floats), sorted),
                    2 => rekey_below(g, sorted, cols, 1_600),
                    _ => sorted,
                };
                let path = elementwise_path(rng, g, before_path, &mut floats);
                let aggs = every_agg(floats.len());
                let grouped = g.add(OpKind::Aggregate { aggs }, vec![path]);
                if shape != 0 {
                    return grouped;
                }
                let distinct = g.add(OpKind::Unique, vec![sorted]);
                return g.add(OpKind::Semijoin, vec![grouped, distinct]);
            }
            // JOIN of `cur`, or of a SELECT of it, with fresh columns or
            // probe keys over the base table's key range — or a SELECT of
            // `cur` itself — either behind a SELECT; now and then the left
            // side is read again, by a SEMIJOIN of the JOIN's rows.
            32 | 33 if cur.sorted => {
                let left = match rng.gen_range(0u32..2) {
                    0 => cur.id,
                    _ => select(g, arb_pred(rng, &cur.floats), cur.id),
                };
                let (rhs, right_floats) = match rng.gen_range(0u32..4) {
                    0 => (new_input(g, kinds, InputKind::Column), vec![false]),
                    1 => (new_input(g, kinds, InputKind::FloatColumn), vec![true]),
                    2 => (new_input(g, kinds, InputKind::Probe), vec![]),
                    _ => (select(g, arb_pred(rng, &cur.floats), cur.id), cur.floats.clone()),
                };
                let rhs = match rng.gen_range(0u32..2) {
                    0 => select(g, predicates::key_lt(rng.gen_range(0u64..1600)), rhs),
                    _ => rhs,
                };
                let joined = g.add(OpKind::Join, vec![left, rhs]);
                cur.floats.extend(right_floats);
                cur.id = match rng.gen_range(0u32..3) {
                    0 => g.add(OpKind::Semijoin, vec![joined, left]),
                    _ => joined,
                };
            }
            // A JOIN side out of key order — sorted by a column, or by the
            // key descending — on either hand: `NotSorted` in every cell
            // (unless the rows happen to be in key order). The plan ends.
            34 => {
                let by = match arb_sort(rng, &cur.floats) {
                    SortBy::Key => SortBy::KeyDesc,
                    by => by,
                };
                let unsorted = g.add(OpKind::Sort { by }, vec![cur.id]);
                let probe = new_input(g, kinds, InputKind::Probe);
                let sides =
                    if rng.gen_range(0u32..2) == 0 { [unsorted, probe] } else { [probe, unsorted] };
                return g.add(OpKind::Join, sides.to_vec());
            }
            // PRODUCT of `cur`, or of a SELECT of it, with the few probe keys
            // below a small bound, on either hand. The plan ends: each
            // PRODUCT multiplies its rows.
            35 => {
                let x = match rng.gen_range(0u32..2) {
                    0 => cur.id,
                    _ => select(g, arb_pred(rng, &cur.floats), cur.id),
                };
                let probe = new_input(g, kinds, InputKind::Probe);
                let y = select(g, predicates::key_lt(rng.gen_range(0u64..8)), probe);
                let sides = if rng.gen_range(0u32..2) == 0 { [x, y] } else { [y, x] };
                return g.add(OpKind::Product, sides.to_vec());
            }
            // UNION, INTERSECT or DIFFERENCE of two SELECTs of `cur` — `cur`
            // read twice — or of `cur` and one: the right side sorted by a
            // column (any order will do), or its columns reversed (a schema
            // mismatch unless their types agree).
            36..=38 => {
                let left = match rng.gen_range(0u32..3) {
                    0 => cur.id,
                    _ => select(g, arb_pred(rng, &cur.floats), cur.id),
                };
                let right = select(g, arb_pred(rng, &cur.floats), cur.id);
                let right = match rng.gen_range(0u32..4) {
                    0 => g.add(OpKind::Sort { by: arb_sort(rng, &cur.floats) }, vec![right]),
                    1 => g.add(OpKind::Project { keep: (0..cols).rev().collect() }, vec![right]),
                    _ => right,
                };
                let kind = match rng.gen_range(0u32..3) {
                    0 => OpKind::Union,
                    1 => OpKind::Intersect,
                    _ => OpKind::Difference,
                };
                cur.id = g.add(kind, vec![left, right]);
                cur.sorted = false;
            }
            _ => {}
        }
    }
    if !cur.floats.is_empty() && rng.gen_range(0u32..4) == 0 {
        cur.id = g.add(OpKind::AggregateAll { aggs: vec![Agg::Sum(0), Agg::Count] }, vec![cur.id]);
    }
    cur.id
}

/// Every cell of strategy x host engine x scratch poisoning, the unfused
/// scalar cell first: it is the reference the others must reproduce. A
/// poisoned cell runs twice in a row, so that banks reused across queries
/// are poisoned too.
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

/// Whether two outcomes are one: the same error, or the same per-node sizes
/// and the same roots bit for bit ([`bit_identical`]: `-0.0` is not `0.0`,
/// and a NaN is a NaN).
fn same_outcome(got: &Outcome, want: &Outcome) -> bool {
    match (got, want) {
        (Ok((got, got_cards)), Ok((want, want_cards))) => {
            got_cards == want_cards
                && got.len() == want.len()
                && got.iter().zip(want).all(|(a, b)| bit_identical(a, b))
        }
        (Err(got), Err(want)) => got == want,
        _ => false,
    }
}

/// Run `run` in every cell and demand the reference cell's outcome — the
/// same roots and per-node `(rows, row_bytes)`, or the same error — which
/// is returned.
fn same_in_every_cell(what: &str, run: impl Fn(ExecStrategy) -> Outcome) -> Outcome {
    let mut reference = None;
    for (strat, batch, poison) in cells() {
        for run_no in 1..=1 + poison as usize {
            engine::set_batch_enabled(batch);
            engine::set_scratch_poison(poison);
            let got = run(strat);
            engine::set_batch_enabled(true);
            engine::set_scratch_poison(false);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert!(
                    same_outcome(&got, want),
                    "{what}: {strat:?} batch={batch} poison={poison} run {run_no} differs from \
                     the unfused scalar run:\n{got:?}\nvs\n{want:?}"
                ),
            }
        }
    }
    reference.expect("at least one cell")
}

#[test]
fn views_never_change_answers_cardinalities_or_errors() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let (mut ok, mut mismatched, mut declined) = (0, 0, 0);
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
            Err(e) if e.contains("evaluation failed") => declined += 1,
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
    // The generator must actually reach every outcome it exists for.
    assert!(
        ok > 20 && mismatched > 5 && declined > 0,
        "{ok} ok, {mismatched} key mismatches, {declined} declined predicates"
    );
}

/// Views in front of the barriers: ARITH+ and REKEY widen a filtered view
/// where it is, and the SORT behind them reads it — or, where a view holds
/// too few rows, gathers first — with the answers, sizes and errors of the
/// unfused scalar run, on the generator's plans with its arms that put a
/// view in front of a SORT.
#[test]
fn views_into_a_sort_never_change_answers_cardinalities_or_errors() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let (mut ok, mut failed) = (0, 0);
    for case in 0u64..96 {
        let mut rng = Rng::seed_from_u64(0xE5 << 32 | case);
        let mut g = PlanGraph::new();
        let mut kinds = vec![InputKind::Base];
        let base = g.input(0);
        let root = arb_dag_over(&mut rng, &mut g, base, &mut kinds, 22);
        g.root = root;
        let n = match case % 8 {
            0 => 0,
            1 => 70_000,
            _ => 800,
        };
        let inputs = make_inputs(&kinds, case, n);
        let outcome = same_in_every_cell(&format!("case {case} ({n} rows): {g:?}"), |strat| {
            execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                .map(|r| (vec![r.output], r.cards))
                .map_err(|e| e.to_string())
        });
        match outcome {
            Ok(_) => ok += 1,
            // A key mismatch in a COLUMN-JOIN or a negative key a REKEY
            // keeps; a declined predicate that rows reach.
            Err(e) if e.contains("different schemas") || e.contains("evaluation failed") => {
                failed += 1
            }
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
    assert!(ok > 20 && failed > 5, "{ok} ok, {failed} failed");
}

/// Runs of SELECTs: a fused group evaluates each in one pass from its head,
/// and every later member takes its own view of it — with the answers,
/// sizes and errors of the unfused scalar run, on the generator's plans
/// drawn from its whole menu, run arms included: runs of 2–6, a declined
/// predicate at the head, in the middle or at the tail, empty inputs, runs
/// that end the plan, and second readers at the last or a middle member.
#[test]
fn select_runs_never_change_answers_cardinalities_or_errors() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let (mut ok, mut failed, mut chained) = (0, 0, 0);
    for case in 0u64..96 {
        let mut rng = Rng::seed_from_u64(0xE6 << 32 | case);
        let mut g = PlanGraph::new();
        let mut kinds = vec![InputKind::Base];
        let base = g.input(0);
        let root = arb_dag_over(&mut rng, &mut g, base, &mut kinds, 26);
        g.root = root;
        // SELECTs whose one reader is a SELECT: what runs are made of.
        let is_select = |id: NodeId| matches!(g.nodes[id].kind, OpKind::Select { .. });
        let readers = g.consumer_counts();
        chained += (0..g.len())
            .filter(|&c| is_select(c) && is_select(g.nodes[c].inputs[0]))
            .filter(|&c| readers[g.nodes[c].inputs[0]] == 1)
            .count();
        let n = match case % 8 {
            0 => 0,
            1 => 70_000,
            _ => 800,
        };
        let inputs = make_inputs(&kinds, case, n);
        let outcome = same_in_every_cell(&format!("case {case} ({n} rows): {g:?}"), |strat| {
            execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                .map(|r| (vec![r.output], r.cards))
                .map_err(|e| e.to_string())
        });
        match outcome {
            Ok(_) => ok += 1,
            Err(e) if e.contains("different schemas") || e.contains("evaluation failed") => {
                failed += 1
            }
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
    assert!(ok > 20 && failed > 5 && chained > 100, "{ok} ok, {failed} failed, {chained} chained");
}

/// The SORTs by key of `g` whose one reader — through ARITH+ and PROJECT
/// nodes that have one reader each — is a keyed AGGREGATE.
fn sorts_into_aggregates(g: &PlanGraph) -> usize {
    let readers = g.consumer_counts();
    let reader_of = |id: NodeId| (0..g.len()).find(|&c| g.nodes[c].inputs.contains(&id));
    let reaches = |mut id: NodeId| loop {
        match reader_of(id).filter(|_| readers[id] == 1).map(|c| (c, &g.nodes[c].kind)) {
            Some((_, OpKind::Aggregate { .. })) => return true,
            Some((c, OpKind::ArithExtend { .. } | OpKind::Project { .. })) => id = c,
            _ => return false,
        }
    };
    let by_key = |id: NodeId| matches!(g.nodes[id].kind, OpKind::Sort { by: SortBy::Key });
    (0..g.len()).filter(|&id| by_key(id) && reaches(id)).count()
}

/// A SORT by key in front of a keyed AGGREGATE, on the generator's plans
/// drawn from its whole menu, the two arms that end in one included: only
/// ARITH+ and PROJECT between the two, over wrapping i64s, NaN, -0.0 and
/// the infinities, behind a REKEY to one group or to negative keys; or a
/// second reader of the SORT, or a SELECT or a REKEY between them. Every
/// cell gives the answers, sizes and errors of the unfused scalar run.
#[test]
fn sorts_into_keyed_aggregates_never_change_answers_cardinalities_or_errors() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let (mut ok, mut failed, mut into_aggregates) = (0, 0, 0);
    for case in 0u64..96 {
        let mut rng = Rng::seed_from_u64(0xE7 << 32 | case);
        let mut g = PlanGraph::new();
        let mut kinds = vec![InputKind::Base];
        let base = g.input(0);
        let root = arb_dag_over(&mut rng, &mut g, base, &mut kinds, 32);
        g.root = root;
        into_aggregates += sorts_into_aggregates(&g);
        let n = match case % 8 {
            0 => 0,
            1 => 70_000,
            _ => 800,
        };
        let inputs = make_inputs(&kinds, case, n);
        let outcome = same_in_every_cell(&format!("case {case} ({n} rows): {g:?}"), |strat| {
            execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                .map(|r| (vec![r.output], r.cards))
                .map_err(|e| e.to_string())
        });
        match outcome {
            Ok(_) => ok += 1,
            // A key mismatch or a negative key; a declined predicate rows
            // reach; an AGGREGATE behind a REKEY.
            Err(e)
                if e.contains("different schemas")
                    || e.contains("evaluation failed")
                    || e.contains("requires key-sorted input") =>
            {
                failed += 1
            }
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
    assert!(
        ok > 20 && failed > 5 && into_aggregates > 15,
        "{ok} ok, {failed} failed, {into_aggregates} SORTs into an AGGREGATE"
    );
}

/// The operators that write rows of their own — JOIN, PRODUCT, UNION,
/// INTERSECT and DIFFERENCE — on the generator's plans drawn from its whole
/// menu: over filtered views on either side, a side read again by a second
/// operator, and a JOIN side out of key order. Every cell gives the
/// answers, sizes and errors of the unfused scalar run.
#[test]
fn joins_and_set_operators_never_change_answers_cardinalities_or_errors() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let (mut ok, mut unsorted, mut writers) = (0, 0, [0usize; 5]);
    for case in 0u64..384 {
        let mut rng = Rng::seed_from_u64(0xE8 << 32 | case);
        let mut g = PlanGraph::new();
        let mut kinds = vec![InputKind::Base];
        let base = g.input(0);
        let root = arb_dag_over(&mut rng, &mut g, base, &mut kinds, 39);
        g.root = root;
        for node in &g.nodes {
            let k = match node.kind {
                OpKind::Join => 0,
                OpKind::Product => 1,
                OpKind::Union => 2,
                OpKind::Intersect => 3,
                OpKind::Difference => 4,
                _ => continue,
            };
            writers[k] += 1;
        }
        // A JOIN multiplies duplicate keys, so the large case stays small.
        let n = match case % 8 {
            0 => 0,
            1 => 4_000,
            _ => 800,
        };
        let inputs = make_inputs(&kinds, case, n);
        let outcome = same_in_every_cell(&format!("case {case} ({n} rows): {g:?}"), |strat| {
            execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                .map(|r| (vec![r.output], r.cards))
                .map_err(|e| e.to_string())
        });
        match outcome {
            Ok(_) => ok += 1,
            Err(e) if e.contains("not key-sorted") => unsorted += 1,
            // A key mismatch, a set operator over different column types or
            // a negative key; a declined predicate rows reach; an AGGREGATE
            // behind a REKEY.
            Err(e)
                if e.contains("different schemas")
                    || e.contains("evaluation failed")
                    || e.contains("requires key-sorted input") => {}
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
    assert!(
        ok > 120 && unsorted > 8 && writers.iter().all(|&w| w > 15),
        "{ok} ok, {unsorted} unsorted JOINs, {writers:?} JOIN / PRODUCT / UNION / INTERSECT / \
         DIFFERENCE nodes"
    );
}

/// Keys that put a SORT by key on either side of its counting-sort bound
/// (`4n + 65 536` buckets for the `n` rows it sees): one group, one group
/// per row, and key spans one below, at and one above the bound — each
/// over wrapping i64s, NaN, -0.0 and the infinities, through Q1's shape
/// (SORT, ARITH+, PROJECT, keyed AGGREGATE), over every row or behind a
/// SELECT that drops a third of them (keys far outside the span), and
/// behind a REKEY to `t - key`: reversed, or negative on rows it keeps.
#[test]
fn a_sort_into_a_keyed_aggregate_is_exact_on_both_sides_of_the_counting_bound() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    for n in [800usize, 70_000] {
        let mut rng = Rng::seed_from_u64(n as u64);
        let (ints, floats) = (awkward_ints(&mut rng, n), awkward_floats(&mut rng, n));
        let flags: Vec<i64> = (0..n).map(|i| (i % 3 != 1) as i64).collect();
        for filtered in [false, true] {
            let seen = |i: usize| !filtered || flags[i] == 1;
            let (first, last) = ((0..n).find(|&i| seen(i)), (0..n).rfind(|&i| seen(i)));
            let bound = 4 * (0..n).filter(|&i| seen(i)).count() as u64 + 65_536;
            let scattered = |i: usize, span: u64| (i as u64).wrapping_mul(7_919) % span;
            // The first row the SORT sees holds the highest key, its last
            // the lowest.
            let spanning = |span: u64| -> Vec<u64> {
                let key = |i: usize| match (seen(i), Some(i)) {
                    (false, _) => 1 << 40,
                    (true, at) if at == first => 1_000 + span - 1,
                    (true, at) if at == last => 1_000,
                    (true, _) => 1_000 + scattered(i, span),
                };
                (0..n).map(key).collect()
            };
            let shapes = [
                ("one group", vec![5; n]),
                ("one group per row", (0..n).map(|i| 3 * scattered(i, n as u64) + 1).collect()),
                ("span one below the bound", spanning(bound - 1)),
                ("span at the bound", spanning(bound)),
                ("span one above the bound", spanning(bound + 1)),
            ];
            for (shape, keys) in shapes {
                let highest = (0..n).filter(|&i| seen(i)).map(|i| keys[i]).max().unwrap() as i64;
                let cols = vec![
                    Column::I64(ints.clone()),
                    Column::F64(floats.clone()),
                    Column::I64(flags.clone()),
                ];
                let inputs = [Relation::new(keys, cols).unwrap()];
                for shift in [None, Some(highest), Some(highest / 2)] {
                    let mut g = PlanGraph::new();
                    let mut cur = g.input(0);
                    if filtered {
                        let pred = predicates::col_cmp_i64(2, CmpOp::Eq, 1);
                        cur = g.add(OpKind::Select { pred }, vec![cur]);
                    }
                    if let Some(t) = shift {
                        cur = rekey_below(&mut g, cur, 3, t);
                    }
                    let sorted = g.add(OpKind::Sort { by: SortBy::Key }, vec![cur]);
                    let halved =
                        g.add(OpKind::ArithExtend { body: extend_body(3, 1, true) }, vec![sorted]);
                    let kept = g.add(OpKind::Project { keep: vec![3, 0, 1, 0] }, vec![halved]);
                    g.add(OpKind::Aggregate { aggs: every_agg(4) }, vec![kept]);
                    let what = format!("{shape}, n={n}, filtered={filtered}, shift={shift:?}");
                    let outcome = same_in_every_cell(&what, |strat| {
                        execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                            .map(|r| (vec![r.output], r.cards))
                            .map_err(|e| e.to_string())
                    });
                    let negative = shift.is_some_and(|t| t < highest);
                    match outcome {
                        Ok((roots, _)) => assert!(!negative && !roots[0].is_empty(), "{what}"),
                        Err(e) => {
                            assert!(negative && e.contains("different schemas"), "{what}: {e}")
                        }
                    }
                }
            }
        }
    }
}

/// Q1's two fused groups, generated: SELECT → pack ARITH+ → REKEY, a SORT
/// by the new key, then ARITH+ → keyed AGGREGATE — each group one loop
/// under the fusing strategies on the batch engine (DESIGN.md §17), its
/// members' own operators everywhere else. Over wrapping i64s and NaN,
/// ±0.0 and ±∞ in the folded columns and the computed ones, every
/// aggregate of each and some named twice (sharing an accumulator); a
/// SELECT that keeps nothing; a packed key too wide to count (the SORT
/// sorts, and the second loop folds runs), or negative on kept rows (the
/// REKEY fails); and a member also requested as a root, which takes it
/// out of its loop. Every cell, at O1, O2 and O3, gives the answers, sizes
/// and errors of the unfused scalar run.
#[test]
fn group_loops_never_change_answers_cardinalities_or_errors() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let (mut ok, mut negative, mut empty, mut wide, mut rooted) = (0, 0, 0, 0, 0);
    for case in 0u64..64 {
        let mut rng = Rng::seed_from_u64(0xE9 << 32 | case);
        let mut g = PlanGraph::new();
        let kinds = [InputKind::Base, InputKind::Awkward];
        let (base, awkward) = (g.input(0), g.input(1));
        // Columns: i64s in -50..50, i64s in 0..40, wrapping i64s, and f64s
        // among the specials.
        let table = g.add(OpKind::ColumnJoin, vec![base, awkward]);
        let floats = [false, false, false, true];
        let nothing = case % 4 == 0;
        let pred = if nothing { predicates::key_lt(0) } else { arb_pred(&mut rng, &floats) };
        let kept = g.add(OpKind::Select { pred }, vec![table]);
        // The packed key: a few hundred codes, codes spread past the
        // counting bound, or codes negative wherever column 0 is.
        let shape = rng.gen_range(0u32..3);
        let mut b = BodyBuilder::new(5);
        b.emit_output(match shape {
            0 => Expr::input(2).mul(Expr::lit(64i64)).add(Expr::lit(3i64)),
            1 => Expr::input(2).mul(Expr::lit(1i64 << 40)).add(Expr::input(0)),
            _ => Expr::input(1).mul(Expr::lit(64i64)).add(Expr::input(2)),
        });
        let packed = g.add(OpKind::ArithExtend { body: b.build() }, vec![kept]);
        let rekeyed = g.add(OpKind::Rekey { col: 4 }, vec![packed]);
        let sorted = g.add(OpKind::Sort { by: SortBy::Key }, vec![rekeyed]);
        // The money columns: half the f64s, and the i64s times three plus
        // the key, wrapping.
        let mut b = BodyBuilder::new(5);
        b.emit_output(Expr::input(4).mul(Expr::lit(0.5f64)));
        b.emit_output(Expr::input(3).mul(Expr::lit(3i64)).add(Expr::input(0)));
        let money = g.add(OpKind::ArithExtend { body: b.build() }, vec![sorted]);
        let mut aggs = every_agg(6);
        aggs.extend([Agg::Avg(4), Agg::Sum(5), Agg::Avg(5), Agg::Sum(4), Agg::Count]);
        let folded = g.add(OpKind::Aggregate { aggs }, vec![money]);
        g.root = folded;
        let also = [None, None, Some(kept), Some(packed), Some(money)][rng.gen_range(0usize..5)];
        let n = match case % 8 {
            1 => 70_000,
            5 => 0,
            _ => 800,
        };
        let inputs = make_inputs(&kinds, case, n);
        let what = format!("case {case} ({n} rows, key shape {shape}, also {also:?}): {g:?}");
        // Every cell at O1, O2 and O3, one outcome for all.
        let at = |level: OptLevel| {
            same_in_every_cell(&format!("{what} at {level}"), |strat| {
                let cfg = ExecConfig { level, ..ExecConfig::new(strat, &sys) };
                match also {
                    None => execute(&sys, &g, &inputs, &cfg).map(|r| (vec![r.output], r.cards)),
                    Some(member) => {
                        let plan = MergedPlan { graph: g.clone(), roots: vec![folded, member] };
                        execute_multi(&sys, &plan, &inputs, &cfg).map(|r| (r.outputs, r.cards))
                    }
                }
                .map_err(|e| e.to_string())
            })
        };
        let outcome = at(OptLevel::O1);
        for level in [OptLevel::O2, OptLevel::O3] {
            assert!(same_outcome(&at(level), &outcome), "{what}: {level} differs from O1");
        }
        rooted += also.is_some() as u32;
        match outcome {
            Ok(_) => {
                ok += 1;
                empty += (nothing && n > 0) as u32;
                wide += (shape == 1 && !nothing && n > 0) as u32;
            }
            Err(e) if e.contains("different schemas") => negative += 1,
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
    assert!(
        ok > 30 && negative > 3 && empty > 5 && wide > 3 && rooted > 15,
        "{ok} ok, {negative} negative keys, {empty} empty selections, {wide} wide keys, \
         {rooted} with a member as a root"
    );
}

/// A negative value fails a REKEY only where the view it reads keeps it:
/// the SELECT in front drops every row `t - 1 - key` is negative on, while
/// `t / 2 - key` is negative on rows it keeps too — at selectivities on
/// both sides of the gather-first rule, in one CTA and across several.
#[test]
fn a_negative_key_fails_a_rekey_only_where_it_is_kept() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    for (t, n) in [(150u64, 800usize), (1_200, 800), (150, 70_000), (1_200, 70_000)] {
        for shift in [t - 1, t / 2] {
            let mut g = PlanGraph::new();
            let base = g.input(0);
            let kept = g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![base]);
            let mut b = BodyBuilder::new(3);
            b.emit_output(Expr::lit(shift as i64).sub(Expr::input(0)));
            let extended = g.add(OpKind::ArithExtend { body: b.build() }, vec![kept]);
            let rekeyed = g.add(OpKind::Rekey { col: 2 }, vec![extended]);
            g.add(OpKind::Sort { by: SortBy::I64ColDesc(1) }, vec![rekeyed]);
            let inputs = make_inputs(&[InputKind::Base], 5, n);
            let what = format!("t={t} shift={shift} n={n}");
            let outcome = same_in_every_cell(&what, |strat| {
                execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                    .map(|r| (vec![r.output], r.cards))
                    .map_err(|e| e.to_string())
            });
            match outcome {
                Ok((roots, _)) => assert!(shift == t - 1 && !roots[0].is_empty(), "{what}"),
                Err(e) => assert!(shift == t / 2 && e.contains("different schemas"), "{what}: {e}"),
            }
        }
    }
}

/// ROADMAP item 4's defect, pinned: a fused group whose SELECTs read one
/// input slot at two types. Well-typed — the PROJECT between them moves an
/// f64 column into the slot the first SELECT read as i64 — and answered
/// correctly by every strategy's functional phase, it used to panic in the
/// fusing strategies' *timing* phase, which spliced the two predicates into
/// one body as if they numbered their slots alike.
#[test]
fn selects_over_different_schemas_share_a_group_not_a_body() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let mut g = PlanGraph::new();
    let (base, col) = (g.input(0), g.input(1));
    let wide = g.add(OpKind::ColumnJoin, vec![base, col]);
    let ints = g.add(OpKind::Select { pred: col_lt(0, false, 10) }, vec![wide]);
    let moved = g.add(OpKind::Project { keep: vec![2] }, vec![ints]);
    let floats = g.add(OpKind::Select { pred: col_lt(0, true, 8) }, vec![moved]);
    let inputs = make_inputs(&[InputKind::Base, InputKind::FloatColumn], 11, 800);
    let (roots, _) = same_in_every_cell("i64 and f64 at slot 1", |strat| {
        execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
            .map(|r| {
                if strat.fuses() {
                    let group = r.fusion.group_of[ints];
                    assert!(group.is_some() && group == r.fusion.group_of[floats], "{strat:?}");
                }
                (vec![r.output], r.cards)
            })
            .map_err(|e| e.to_string())
    })
    .expect("a well-typed plan");
    assert!(!roots[0].is_empty() && roots[0].len() < 800);
    assert!(roots[0].cols[0].as_f64().unwrap().iter().all(|&v| v < 2.0));
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
        g.add(OpKind::ArithExtend { body: extend_body(3, 0, false) }, vec![declined]);
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

/// `kind`'s columns over `rows` rows keyed by row id — `stored` writes the
/// same keys `0..rows` out, which is the relation the row ids stand for.
fn row_keyed(kind: InputKind, seed: u64, rows: usize, stored: bool) -> Relation {
    let cols = make_inputs(&[kind], seed, rows).remove(0).cols;
    let keys = if stored { Keys::Stored((0..rows as u64).collect()) } else { Keys::RowIds(rows) };
    Relation::from_parts(keys, cols).unwrap()
}

/// Keys that cost nothing: a relation keyed by row id stores no key, and
/// every binary operator over it — one side by row id, the other stored, or
/// both — gives in every cell what it gives over the same keys stored, bit
/// for bit, or the same error. So do a SELECT on the key (slot 0 read as the
/// row number by the batch engine and by the interpreter) in front of the
/// operator and one behind it. Sides of unequal length make COLUMN-JOIN
/// fail with the one `SchemaMismatch` wherever the key is.
#[test]
fn row_id_keys_never_change_answers_cardinalities_or_errors() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let ops = [
        OpKind::ColumnJoin,
        OpKind::Join,
        OpKind::Semijoin,
        OpKind::Antijoin,
        OpKind::Product,
        OpKind::Union,
        OpKind::Intersect,
        OpKind::Difference,
    ];
    let sides = [
        (InputKind::Base, InputKind::Column),
        (InputKind::Column, InputKind::FloatColumn),
        (InputKind::FloatColumn, InputKind::FloatColumn),
        (InputKind::Base, InputKind::Base),
    ];
    let n = 300;
    let (mut ok, mut mismatched) = (0, 0);
    for (case, op) in ops.iter().enumerate() {
        for (s, &(ka, kb)) in sides.iter().enumerate() {
            for (la, lb) in [(n, n), (n, n - 1), (n - 1, n)] {
                for filtered in [false, true] {
                    let mut g = PlanGraph::new();
                    let (a, b) = (g.input(0), g.input(1));
                    let a = match filtered {
                        true => g.add(OpKind::Select { pred: predicates::key_lt(200) }, vec![a]),
                        false => a,
                    };
                    let joined = g.add(op.clone(), vec![a, b]);
                    g.root = g.add(OpKind::Select { pred: predicates::key_lt(250) }, vec![joined]);
                    let seed = (case * 8 + s) as u64;
                    let run = |stored_a: bool, stored_b: bool| {
                        let inputs = [
                            row_keyed(ka, seed, la, stored_a),
                            row_keyed(kb, seed + 1, lb, stored_b),
                        ];
                        let what = format!(
                            "{op:?} over {ka:?}({la}) stored={stored_a}, \
                             {kb:?}({lb}) stored={stored_b}, filtered={filtered}"
                        );
                        let outcome = same_in_every_cell(&what, |strat| {
                            execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                                .map(|r| (vec![r.output], r.cards))
                                .map_err(|e| e.to_string())
                        });
                        (what, outcome)
                    };
                    let (_, want) = run(true, true);
                    for (stored_a, stored_b) in [(false, false), (false, true), (true, false)] {
                        let (what, got) = run(stored_a, stored_b);
                        assert!(same_outcome(&got, &want), "{what}:\n{got:?}\nvs stored\n{want:?}");
                    }
                    let column_join = matches!(op, OpKind::ColumnJoin);
                    if column_join && (la != lb || filtered) {
                        assert!(
                            matches!(&want, Err(e) if e.contains("different schemas")),
                            "{op:?} of {la} and {lb} rows, filtered={filtered}: {want:?}"
                        );
                    }
                    match want {
                        Ok(_) => ok += 1,
                        Err(e) if e.contains("different schemas") => mismatched += 1,
                        Err(e) => panic!("{op:?}: unexpected error {e}"),
                    }
                }
            }
        }
    }
    assert!(ok > 100 && mismatched > 10, "{ok} ok, {mismatched} schema mismatches");
}

/// The right side of a SEMIJOIN / ANTIJOIN: `n` sorted keys below 1 500,
/// each present twice, and — when `wide` — as many again from 2^41 up, so
/// that the keys span more than 2^40 and the membership test takes its
/// merge walk instead of its bitmap.
fn probe_keys(seed: u64, n: usize, wide: bool) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..n / 2).map(|_| rng.gen_range(0u64..1500)).collect();
    keys.extend(keys.clone());
    if wide {
        keys.extend((0..n).map(|_| (1 << 41) + rng.gen_range(0u64..1 << 41)));
    }
    keys.sort_unstable();
    Relation::from_keys(keys)
}

/// One side of a SEMIJOIN / ANTIJOIN over `input`: the input itself, a
/// SELECT of it (a filtered view, fused with the join), or an ordered SORT
/// of a run of two SELECTs (a group of its own, whose filtered view the
/// SORT hands on).
fn join_side(
    g: &mut PlanGraph,
    input: NodeId,
    shape: usize,
    pred: kfusion::ir::KernelBody,
) -> NodeId {
    if shape == 0 {
        return input;
    }
    let kept = g.add(OpKind::Select { pred }, vec![input]);
    if shape == 1 {
        return kept;
    }
    let kept = g.add(OpKind::Select { pred: predicates::key_lt(1 << 62) }, vec![kept]);
    g.add(OpKind::Sort { by: SortBy::Key }, vec![kept])
}

/// SEMIJOIN and ANTIJOIN read both sides as views, filtered ones included
/// — a SELECT, or an ordered SORT of one that hands its view on — and
/// test membership through a bitmap of the right side's keys, or a merge
/// walk where those span ≥ 2^40. Every cell gives the unfused scalar run's
/// answers, sizes and errors over: empty left and right sides, duplicate
/// keys on both, a left side keyed by row id, an unsorted side on either
/// hand (`NotSorted` everywhere, unless a SORT reorders it first), and
/// readers behind the join that read its view (SORT by a column, another
/// ANTIJOIN) or force its gather (a keyed AGGREGATE).
#[test]
fn semijoins_over_views_never_change_answers_cardinalities_or_errors() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    let n = 800;
    let (mut ok, mut unsorted) = (0, 0);
    for left in ["base", "empty", "row ids", "unsorted"] {
        for (right, wide) in
            [("narrow", false), ("wide", true), ("empty", false), ("unsorted", false)]
        {
            let base = match left {
                "empty" => make_inputs(&[InputKind::Base], 1, 0).remove(0),
                "row ids" => row_keyed(InputKind::Base, 2, n, false),
                _ => make_inputs(&[InputKind::Base], 3, n).remove(0),
            };
            let base = match left {
                "unsorted" => {
                    let reversed = Keys::Stored(base.keys().iter().rev().collect());
                    Relation::from_parts(reversed, base.cols.clone()).unwrap()
                }
                _ => base,
            };
            let probe = match right {
                "empty" => probe_keys(4, 0, false),
                "unsorted" => {
                    let mut keys: Vec<u64> = probe_keys(5, n, false).keys().iter().collect();
                    keys.swap(0, n / 2);
                    Relation::from_keys(keys)
                }
                _ => probe_keys(6, n, wide),
            };
            let inputs = [base, probe];
            for (l, r, anti) in (0..3).flat_map(|l| (0..3).map(move |r| (l, r, (l + r) % 2 == 1))) {
                let mut g = PlanGraph::new();
                let (a, b) = (g.input(0), g.input(1));
                let a = join_side(&mut g, a, l, col_lt(1, false, 30));
                // A wide right side keeps its keys from 2^41 to 2^42.
                let b_pred = predicates::key_lt(if wide { 1 << 42 } else { 1_200 });
                let b_side = join_side(&mut g, b, r, b_pred);
                let kind = if anti { OpKind::Antijoin } else { OpKind::Semijoin };
                let joined = g.add(kind, vec![a, b_side]);
                let tail = (l + 2 * r) % 3;
                g.root = match tail {
                    0 => g.add(OpKind::Aggregate { aggs: every_agg(2) }, vec![joined]),
                    1 => g.add(OpKind::Sort { by: SortBy::I64ColDesc(0) }, vec![joined]),
                    _ => {
                        let other = join_side(&mut g, b, 1, predicates::key_lt(600));
                        g.add(OpKind::Antijoin, vec![joined, other])
                    }
                };
                let what = format!("{left} left, {right} right, sides ({l}, {r}), anti={anti}");
                let unsorted_before = unsorted;
                let outcome = same_in_every_cell(&what, |strat| {
                    execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                        .map(|r| (vec![r.output], r.cards))
                        .map_err(|e| e.to_string())
                });
                // A SORT in front of a side puts it in order.
                let reads_unsorted =
                    (left == "unsorted" && l < 2) || (right == "unsorted" && (r < 2 || tail == 2));
                match outcome {
                    Ok(_) => ok += 1,
                    Err(e) if e.contains("not key-sorted") => unsorted += 1,
                    Err(e) => panic!("{what}: unexpected error {e}"),
                }
                assert_eq!(reads_unsorted, unsorted > unsorted_before, "{what}");
            }
        }
    }
    assert!(ok > 90 && unsorted > 20, "{ok} ok, {unsorted} unsorted");
}

/// An ordered SORT whose view two readers take: a SEMIJOIN reads it where
/// it is, a keyed AGGREGATE has it gathered first — reading it before the
/// SEMIJOIN does, or after — in one CTA and across several, against a
/// right side on either path of the membership test.
#[test]
fn an_ordered_sort_read_as_a_view_and_gathered_never_changes_answers() {
    let _g = serial();
    let sys = GpuSystem::c2070();
    for n in [800, 70_000] {
        for wide in [false, true] {
            let inputs = [make_inputs(&[InputKind::Base], 7, n).remove(0), probe_keys(8, n, wide)];
            for aggregate_first in [false, true] {
                let mut g = PlanGraph::new();
                let (a, b) = (g.input(0), g.input(1));
                let sorted = join_side(&mut g, a, 2, col_lt(0, false, 10));
                let (folded, semi) = match aggregate_first {
                    true => {
                        let folded = g.add(OpKind::Aggregate { aggs: every_agg(2) }, vec![sorted]);
                        (folded, g.add(OpKind::Semijoin, vec![sorted, b]))
                    }
                    false => {
                        let semi = g.add(OpKind::Semijoin, vec![sorted, b]);
                        (g.add(OpKind::Aggregate { aggs: every_agg(2) }, vec![sorted]), semi)
                    }
                };
                g.root = g.add(OpKind::Semijoin, vec![folded, semi]);
                let what = format!("n={n} wide={wide} aggregate_first={aggregate_first}");
                let (roots, _) = same_in_every_cell(&what, |strat| {
                    execute(&sys, &g, &inputs, &ExecConfig::new(strat, &sys))
                        .map(|r| (vec![r.output], r.cards))
                        .map_err(|e| e.to_string())
                })
                .expect("sorted sides");
                assert!(!roots[0].is_empty(), "{what}");
            }
        }
    }
}
