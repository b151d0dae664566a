//! PROJECT: keep a subset of payload columns.
//!
//! Table I's `project [0,2] x` keeps fields 0 and 2; in our layout the key
//! is always retained and `keep` names the payload columns that survive.
//! The paper's Fig. 2(h) uses PROJECT to discard arithmetic sources and keep
//! only results.

use crate::data::{par_each, resize_zeroed_vec, slice_windows, RelError, Relation};
use crate::view::{materialize, View};
use kfusion_vgpu::exec::{cta_ranges, DEFAULT_CTA_CHUNK};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether [`rekey_view`] gathers a filtered `input` before it writes the
/// new key: when a key at base length would be more bytes than the selected
/// rows ([`View::gathers_first`]). The plan executor asks first, so the
/// gather lands in the view's slot.
pub fn rekey_gathers_first(input: &View<'_>) -> bool {
    input.gathers_first(1)
}

/// REKEY without the copy: the i64 payload column `col`'s values become the
/// tuple keys — written once, at base length — and the column leaves the
/// payload; every other column stays where it is. The query plans use this
/// before a SORT "by a different key" (paper Fig. 17(a)) — e.g. Q1 re-keys
/// the wide lineitem table by its packed group attribute before sorting and
/// aggregating.
///
/// Selected values must be non-negative (keys are unsigned); what rows the
/// view does not select may hold is nobody's business.
pub fn rekey_view<'a>(input: &View<'a>, col: usize) -> Result<View<'a>, RelError> {
    if col >= input.n_cols() {
        return Err(RelError::NoSuchColumn { col, available: input.n_cols() });
    }
    if rekey_gathers_first(input) {
        return rekey_view(&input.dense(), col);
    }
    let vals = input.col(col).as_i64().ok_or(RelError::SchemaMismatch)?;
    let bytes = input.base_len() as u64 * crate::data::Column::BYTES_PER_VALUE;
    kfusion_trace::counter("kfusion_host_computed_bytes_total", bytes);
    let mut key = Vec::new();
    resize_zeroed_vec(&mut key, input.base_len());
    let ranges = cta_ranges(key.len(), DEFAULT_CTA_CHUNK);
    let lens: Vec<usize> = ranges.iter().map(Range::len).collect();
    let ctas: Vec<_> = ranges.into_iter().zip(slice_windows(&mut key, &lens)).collect();
    let negative = AtomicBool::new(false);
    par_each(ctas, |(range, window)| {
        for (k, &v) in window.iter_mut().zip(&vals[range.clone()]) {
            *k = v as u64;
        }
        if selects_a_negative(input, vals, range) {
            negative.store(true, Ordering::Relaxed);
        }
    });
    if negative.into_inner() {
        return Err(RelError::SchemaMismatch);
    }
    Ok(input.rekeyed(key, col))
}

/// Whether a base row of `range` (starting on a bitmap word) that `input`
/// selects holds a negative value in `vals`.
fn selects_a_negative(input: &View<'_>, vals: &[i64], range: Range<usize>) -> bool {
    let Some(sel) = input.selection() else { return vals[range].iter().any(|&v| v < 0) };
    vals[range.clone()].chunks(64).zip(&sel[range.start / 64..]).any(|(lanes, &word)| {
        let negative = lanes.iter().enumerate().fold(0u64, |m, (j, &v)| m | ((v < 0) as u64) << j);
        negative & word != 0
    })
}

/// Re-key the relation by an i64 payload column: [`rekey_view`], then the
/// gather.
pub fn rekey(input: &Relation, col: usize) -> Result<Relation, RelError> {
    Ok(materialize(rekey_view(&View::of(input), col)?))
}

/// [`rekey`] for a caller that owns the input relation: the view alone
/// holds it, so [`materialize`] moves the surviving columns instead of
/// copying them; only the new key is written.
pub fn rekey_owned(input: Relation, col: usize) -> Result<Relation, RelError> {
    let rekeyed = rekey_view(&View::from(input), col)?;
    Ok(materialize(rekeyed))
}

/// PROJECT without the copy: the key plus the payload columns listed in
/// `keep`, in that order, as references into `input`'s storage.
pub fn project_view<'a>(input: &View<'a>, keep: &[usize]) -> Result<View<'a>, RelError> {
    if let Some(&col) = keep.iter().find(|&&c| c >= input.n_cols()) {
        return Err(RelError::NoSuchColumn { col, available: input.n_cols() });
    }
    kfusion_trace::counter("kfusion_rows_in_total{op=\"project\"}", input.len() as u64);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"project\"}", input.len() as u64);
    Ok(input.with_columns(keep))
}

/// Keep the key plus the payload columns listed in `keep`, in that order.
pub fn project(input: &Relation, keep: &[usize]) -> Result<Relation, RelError> {
    Ok(materialize(project_view(&View::of(input), keep)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Column;

    fn x() -> Relation {
        // Table I: x = {(3,True,a), (4,True,a), (2,False,b)} with True/False
        // as 1/0 and a/b as 1/2. Key is field 0; payload cols are fields 1,2.
        Relation::new(vec![3, 4, 2], vec![Column::I64(vec![1, 1, 0]), Column::I64(vec![1, 1, 2])])
            .unwrap()
    }

    /// Table I: project [0,2] x → {(3,a), (4,a), (2,b)}.
    #[test]
    fn table1_project_example() {
        let out = project(&x(), &[1]).unwrap();
        assert_eq!(*out.keys(), vec![3, 4, 2]);
        assert_eq!(out.n_cols(), 1);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[1, 1, 2]);
    }

    #[test]
    fn project_can_duplicate_and_reorder() {
        let out = project(&x(), &[1, 0, 1]).unwrap();
        assert_eq!(out.n_cols(), 3);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[1, 1, 2]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[1, 1, 0]);
    }

    #[test]
    fn project_to_key_only() {
        let out = project(&x(), &[]).unwrap();
        assert_eq!(out.n_cols(), 0);
        assert_eq!(*out.keys(), vec![3, 4, 2]);
    }

    #[test]
    fn project_view_keeps_the_selection() {
        let r = x();
        let two = crate::ops::select_view(&View::of(&r), &crate::predicates::key_lt(4)).unwrap();
        let out = materialize(project_view(&two, &[1]).unwrap());
        assert_eq!(*out.keys(), vec![3, 2]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[1, 2]);
        assert!(matches!(project_view(&two, &[2]), Err(RelError::NoSuchColumn { col: 2, .. })));
    }

    #[test]
    fn missing_column_is_reported() {
        assert!(matches!(
            project(&x(), &[5]),
            Err(RelError::NoSuchColumn { col: 5, available: 2 })
        ));
    }
}

#[cfg(test)]
mod rekey_tests {
    use super::*;
    use crate::data::Column;

    #[test]
    fn rekey_moves_column_to_key() {
        let r = Relation::new(
            vec![0, 1, 2],
            vec![Column::I64(vec![30, 10, 20]), Column::F64(vec![0.3, 0.1, 0.2])],
        )
        .unwrap();
        let out = rekey(&r, 0).unwrap();
        assert_eq!(*out.keys(), vec![30, 10, 20]);
        assert_eq!(out.n_cols(), 1);
        assert_eq!(out.cols[0].as_f64().unwrap(), &[0.3, 0.1, 0.2]);
    }

    #[test]
    fn rekey_rejects_f64_and_negative() {
        let r = Relation::new(vec![0], vec![Column::F64(vec![1.0])]).unwrap();
        assert!(matches!(rekey(&r, 0), Err(RelError::SchemaMismatch)));
        let r = Relation::new(vec![0], vec![Column::I64(vec![-1])]).unwrap();
        assert!(matches!(rekey(&r, 0), Err(RelError::SchemaMismatch)));
    }

    #[test]
    fn rekey_missing_column() {
        let r = Relation::from_keys(vec![1]);
        assert!(matches!(rekey(&r, 0), Err(RelError::NoSuchColumn { .. })));
    }

    /// Only selected values must be keys: a negative one the view filtered
    /// out is never looked at, one it keeps fails the REKEY — across CTAs,
    /// where the view is and gathered first alike.
    #[test]
    fn a_filtered_view_rekeys_what_it_selects() {
        let n = 2 * DEFAULT_CTA_CHUNK + 300;
        let vals: Vec<i64> = (0..n as i64).map(|i| if i % 7 == 3 { -i } else { i }).collect();
        let r = Relation::new((0..n as u64).collect(), vec![Column::I64(vals)]).unwrap();
        let skip_negatives = crate::predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Ge, 0);
        for (pred, few) in [(skip_negatives, false), (crate::predicates::key_lt(40), true)] {
            let kept = crate::ops::select_view(&View::of(&r), &pred).unwrap();
            assert_eq!(rekey_gathers_first(&kept), few);
            let stored = crate::ops::select(&r, &pred).unwrap();
            let got = rekey_view(&kept, 0).map(materialize);
            assert_eq!(got, rekey(&stored, 0));
            assert_eq!(got.is_ok(), stored.cols[0].as_i64().unwrap().iter().all(|&v| v >= 0));
        }
    }
}
