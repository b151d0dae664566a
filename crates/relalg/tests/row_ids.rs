//! Keys that cost nothing: a relation keyed by row id stores no key, and
//! every operator over it gives what it gives over the keys `0..n` stored —
//! while SORT by key passes it through unmoved and a gather writes the
//! selected row numbers without reading a key.
//!
//! Byte and sort counts come from the process-global trace recorder, which
//! every operator ticks, so the tests here take turns.

use kfusion_ir::CmpOp;
use kfusion_relalg::ops::{self, Agg, SortBy};
use kfusion_relalg::{materialize, predicates, Column, Keys, Relation, View};
use kfusion_trace::Trace;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// `f`'s result, and what it counted.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    kfusion_trace::reset();
    kfusion_trace::set_enabled(true);
    let out = f();
    kfusion_trace::set_enabled(false);
    (out, kfusion_trace::take())
}

const MATERIALIZED: &str = "kfusion_host_materialized_bytes_total";
const SORT_ORDERED: &str = "kfusion_sort_ordered_total";

/// Two payload columns over `n` rows (spanning CTAs): an i64 one in a
/// narrow range and an f64 one with a `-0.0` and a NaN in it.
fn columns(n: usize) -> Vec<Column> {
    let ints = (0..n as i64).map(|i| (i * 7919) % 101 - 50).collect();
    let floats = (0..n).map(|i| [0.25, -0.0, f64::NAN, 1.5][i % 4] * (i % 9) as f64).collect();
    vec![Column::I64(ints), Column::F64(floats)]
}

/// The same tuples keyed by row id and by the row numbers stored.
fn both(n: usize) -> (Relation, Relation) {
    let rows = Relation::with_row_ids(columns(n)).unwrap();
    let stored = Relation::new((0..n as u64).collect(), columns(n)).unwrap();
    (rows, stored)
}

/// Bit-level equality: `==` calls a NaN unequal to itself.
fn same_bits(a: &Relation, b: &Relation) -> bool {
    a.keys() == b.keys()
        && a.cols.len() == b.cols.len()
        && a.cols.iter().zip(&b.cols).all(|(x, y)| match (x, y) {
            (Column::I64(x), Column::I64(y)) => x == y,
            (Column::F64(x), Column::F64(y)) => {
                x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits()))
            }
            _ => false,
        })
}

#[test]
fn row_ids_equal_the_row_numbers_stored() {
    let _g = serial();
    for n in [0, 1, 5000] {
        assert_eq!(Keys::RowIds(n), Keys::Stored((0..n as u64).collect()));
        assert_eq!(Keys::Stored((0..n as u64).collect()), Keys::RowIds(n));
        assert_ne!(Keys::RowIds(n), Keys::RowIds(n + 1));
        assert_ne!(Keys::RowIds(n), Keys::Stored((0..n as u64 + 1).collect()));
    }
    assert_ne!(Keys::RowIds(3), Keys::Stored(vec![0, 2, 1]));
    let (rows, stored) = both(100);
    assert!(rows.keys().is_row_ids() && rows.is_key_sorted());
    assert_eq!(rows.keys().stored(), None);
    let ints = || vec![columns(100).remove(0)];
    assert_eq!(Relation::with_row_ids(ints()), Relation::new((0..100).collect(), ints()));
    assert!(same_bits(&rows, &stored));
}

#[test]
fn a_sort_by_key_of_row_ids_moves_nothing_and_a_descending_one_reverses() {
    let _g = serial();
    let (rows, stored) = both(3 * 4096 + 7);
    let (sorted, t) = traced(|| ops::sort_view(&View::of(&rows), SortBy::Key).unwrap());
    assert_eq!((t.counter(MATERIALIZED), t.counter(SORT_ORDERED)), (0, 1));
    assert!(same_bits(&materialize(sorted), &rows));
    // A keyed AGGREGATE reading it finds it in order: no groups to count.
    let (grouped, t) = traced(|| ops::group_by_key_view(&View::of(&rows)).unwrap());
    assert_eq!((t.counter(MATERIALIZED), t.counter(SORT_ORDERED)), (0, 1));
    assert!(!grouped.is_grouped());

    let (desc, t) = traced(|| ops::sort(&rows, SortBy::KeyDesc).unwrap());
    assert_eq!(t.counter(SORT_ORDERED), 0);
    assert_eq!(*desc.keys(), (0..rows.len() as u64).rev().collect::<Vec<_>>());
    assert!(same_bits(&desc, &ops::sort(&stored, SortBy::KeyDesc).unwrap()));
}

#[test]
fn a_keyed_aggregate_over_row_ids_is_one_group_per_row() {
    let _g = serial();
    let (rows, stored) = both(2 * 4096 + 3);
    let aggs = [Agg::Sum(0), Agg::Sum(1), Agg::Count, Agg::Min(1), Agg::Max(0), Agg::Avg(0)];
    let out = ops::aggregate_by_key(&rows, &aggs).unwrap();
    assert_eq!(out.len(), rows.len());
    assert!(same_bits(&out, &ops::aggregate_by_key(&stored, &aggs).unwrap()));
    let all = ops::aggregate_all(&rows, &aggs).unwrap();
    assert!(same_bits(&all, &ops::aggregate_all(&stored, &aggs).unwrap()));
}

#[test]
fn a_gather_of_a_filtered_row_id_view_writes_the_selected_row_numbers() {
    let _g = serial();
    let (rows, stored) = both(3 * 4096 + 11);
    let pred = predicates::col_cmp_i64(0, CmpOp::Lt, -20);
    let picked: Vec<u64> = (0..rows.len() as u64)
        .filter(|&i| rows.cols[0].as_i64().unwrap()[i as usize] < -20)
        .collect();
    let view = ops::select_view(&View::of(&rows), &pred).unwrap();
    let (out, t) = traced(|| materialize(view.clone()));
    assert_eq!(out.keys().stored(), Some(&picked[..]));
    // The bytes a stored key takes, and not one more.
    assert_eq!(t.counter(MATERIALIZED), picked.len() as u64 * out.row_bytes());
    assert!(same_bits(&out, &ops::select(&stored, &pred).unwrap()));
    // SORT's gather, in an order of its own.
    let by_col = ops::sort_view(&view, SortBy::I64Col(0)).unwrap();
    assert!(same_bits(&materialize(by_col), &ops::sort(&out, SortBy::I64Col(0)).unwrap()));
    // Dense, as COLUMN-JOIN writes it unfused: the key stays the row
    // numbers, stored nowhere.
    let (wide, t) = traced(|| ops::column_join(&rows, &rows).unwrap());
    assert!(wide.keys().is_row_ids());
    assert_eq!(t.counter(MATERIALIZED), wide.len() as u64 * wide.row_bytes());
}

/// JOIN, PRODUCT and the set operators write their rows through the one
/// gather, which counts every byte it writes: each counts exactly its
/// output's bytes, over keys by row id and stored alike — a side keyed by
/// row id is read as its row numbers, never written out.
#[test]
fn every_operator_that_writes_rows_counts_exactly_its_output() {
    let _g = serial();
    let (rows, stored) = both(2 * 4096 + 5);
    let few = Relation::new(vec![3, 3, 7], vec![Column::I64(vec![1, 2, 3])]).unwrap();
    // Tuples 1 and 40 of `rows` (twice), one of them with a NaN for its
    // float, and a key past them: the set operators find some in common.
    let (ints, floats) = (rows.cols[0].as_i64().unwrap(), rows.cols[1].as_f64().unwrap());
    let floats = Relation::new(
        vec![1, 40, 40, 9000],
        vec![
            Column::I64(vec![ints[1], ints[40], ints[40], 5]),
            Column::F64(vec![floats[1], floats[40], f64::NAN, 2.5]),
        ],
    )
    .unwrap();
    type Op = fn(&Relation, &Relation) -> Result<Relation, kfusion_relalg::RelError>;
    let binary: [(&str, Op); 5] = [
        ("join", ops::join),
        ("product", ops::product),
        ("union", ops::union),
        ("intersection", ops::intersection),
        ("difference", ops::difference),
    ];
    for (name, op) in binary {
        let mut wrote = 0;
        for (a, b) in [(&rows, &stored), (&stored, &rows), (&rows, &floats), (&floats, &rows)] {
            // PRODUCT of the long sides would be 67 M rows; the few rows stand in.
            let (a, b) =
                if name == "product" && a.len() > 10 && b.len() > 10 { (a, &few) } else { (a, b) };
            let (out, t) = traced(|| op(a, b).unwrap());
            let what = format!("{name} of {} and {} rows", a.len(), b.len());
            wrote += out.len();
            assert_eq!(t.counter(MATERIALIZED), out.len() as u64 * out.row_bytes(), "{what}");
        }
        assert!(wrote > 0, "{name} wrote no row");
    }
}
