//! The SELECT+ → ARITH+* → AGGREGATE* plans both equivalence suites hold a
//! fused group's survivors' fold to (DESIGN.md §17), and the awkward
//! values they fold.

use kfusion::core::{OpKind, PlanGraph};
use kfusion::ir::builder::{BodyBuilder, Expr};
use kfusion::ir::{CmpOp, KernelBody};
use kfusion::relalg::ops::Agg;
use kfusion::relalg::{predicates, Column, Keys, Relation};
use kfusion_prng::Rng;

/// `n` i64s, half of them the extremes whose sums wrap.
pub fn awkward_ints(rng: &mut Rng, n: usize) -> Vec<i64> {
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
pub fn awkward_floats(rng: &mut Rng, n: usize) -> Vec<f64> {
    const SPECIAL: [f64; 5] = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
    (0..n)
        .map(|_| match rng.gen_range(0usize..12) {
            k if k < SPECIAL.len() => SPECIAL[k],
            _ => rng.gen_range(-160i64..160) as f64 * 0.25,
        })
        .collect()
}

/// The sizes the fold is held at: two whole morsels and a tail, one
/// partial batch, and no row.
pub const SIZES: [usize; 3] = [2 * 65_536 + 1_500, 800, 0];

/// The table a SELECT → ARITH+ → AGGREGATE* loop is held to: `n` rows
/// keyed by row id — at 2 · 65 536 + 1 500 rows, two whole morsels and a
/// tail — whose column 0 is 0 on the first and the last lane of every
/// batch (so of every morsel) and on the last row, else in 1..=99; then
/// wrapping i64s, f64s among NaN, ±0.0 and the infinities, and quarters.
pub fn fold_table(n: usize, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    let edge = |i: usize| i.is_multiple_of(1024) || i % 1024 == 1023 || i + 1 == n;
    let class = (0..n).map(|i| if edge(i) { 0 } else { rng.gen_range(1i64..100) }).collect();
    let quarters = (0..n).map(|_| rng.gen_range(-160i64..160) as f64 * 0.25).collect();
    let cols = vec![
        Column::I64(class),
        Column::I64(awkward_ints(&mut rng, n)),
        Column::F64(awkward_floats(&mut rng, n)),
        Column::F64(quarters),
    ];
    Relation::from_parts(Keys::RowIds(n), cols).unwrap()
}

/// SELECTs `preds` over [`fold_table`], then — when `arith` — two ARITH+:
/// `c2 · 0.5 + c3`, then `c1 · 3 + key` and the first one's output less
/// `c3`, which read columns no SELECT reads; then an AGGREGATE* of SUM,
/// MIN, MAX and AVG over wrapping i64s and over f64s among the specials,
/// one of each over the ARITH+ outputs, and COUNT — few enough that the
/// fusion pass's register budget keeps it in the SELECTs' group. Returns
/// the plan and how many members its one loop covers.
pub fn select_arith_fold(preds: &[KernelBody], arith: bool) -> (PlanGraph, usize) {
    let mut g = PlanGraph::new();
    let mut cur = g.input(0);
    for pred in preds {
        cur = g.add(OpKind::Select { pred: pred.clone() }, vec![cur]);
    }
    let (ints, floats) = (Agg::Sum(1), Agg::Sum(2));
    let mut aggs = vec![ints, Agg::Min(1), Agg::Max(1), Agg::Avg(1), floats, Agg::Min(2)];
    aggs.extend([Agg::Max(2), Agg::Avg(2), Agg::Count]);
    if arith {
        let mut b = BodyBuilder::new(5);
        b.emit_output(Expr::input(3).mul(Expr::lit(0.5f64)).add(Expr::input(4)));
        cur = g.add(OpKind::ArithExtend { body: b.build() }, vec![cur]);
        let mut b = BodyBuilder::new(6);
        b.emit_output(Expr::input(2).mul(Expr::lit(3i64)).add(Expr::input(0)));
        b.emit_output(Expr::input(5).sub(Expr::input(4)));
        cur = g.add(OpKind::ArithExtend { body: b.build() }, vec![cur]);
        aggs.extend([Agg::Min(4), Agg::Avg(5), Agg::Max(6)]);
    } else {
        aggs.push(Agg::Sum(3));
    }
    g.add(OpKind::AggregateAll { aggs }, vec![cur]);
    (g, preds.len() + 2 * arith as usize + 1)
}

/// The SELECTs in front of the fold, by what they keep of
/// [`fold_table`]: no row, one row (a morsel's first, or its last), the
/// first and last lane of every batch, ~2 %, ~50 %, every row, and no
/// SELECT at all.
pub fn selections() -> Vec<(&'static str, Vec<KernelBody>)> {
    let class_lt = |v: i64| predicates::col_cmp_i64(0, CmpOp::Lt, v);
    vec![
        ("no row", vec![class_lt(0)]),
        ("the first row", vec![predicates::key_lt(1)]),
        (
            "a morsel's last row",
            vec![predicates::key_in_range(65_535, 70_000), predicates::key_lt(65_536)],
        ),
        ("batch edges", vec![class_lt(1)]),
        ("~2 %", vec![class_lt(3), predicates::key_lt(1 << 40)]),
        ("~50 %", vec![class_lt(50)]),
        ("every row", vec![class_lt(100)]),
        ("no SELECT", vec![]),
    ]
}
