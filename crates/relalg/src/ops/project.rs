//! PROJECT: keep a subset of payload columns.
//!
//! Table I's `project [0,2] x` keeps fields 0 and 2; in our layout the key
//! is always retained and `keep` names the payload columns that survive.
//! The paper's Fig. 2(h) uses PROJECT to discard arithmetic sources and keep
//! only results.

use crate::data::{RelError, Relation, PAR_COPY_MIN_ROWS};
use crate::view::{materialize, View};

/// Re-key the relation by an i64 payload column: the column's values become
/// the tuple keys and the column leaves the payload. The query plans use
/// this before a SORT "by a different key" (paper Fig. 17(a)) — e.g. Q1
/// re-keys the wide lineitem table by its packed group attribute before
/// sorting and aggregating.
///
/// Values must be non-negative (keys are unsigned).
pub fn rekey(input: &Relation, col: usize) -> Result<Relation, RelError> {
    let vals = input
        .cols
        .get(col)
        .ok_or(RelError::NoSuchColumn { col, available: input.n_cols() })?
        .as_i64()
        .ok_or(RelError::SchemaMismatch)?;
    if vals.iter().any(|&v| v < 0) {
        return Err(RelError::SchemaMismatch);
    }
    let kept = input.cols.iter().enumerate().filter(|(i, _)| *i != col).map(|(_, c)| c);
    let (key, cols) = if input.len() < PAR_COPY_MIN_ROWS {
        (vals.iter().map(|&v| v as u64).collect(), kept.cloned().collect())
    } else {
        // Wide-relation materialization: one worker per surviving column
        // (plus one for the new key), so the copy's page faults spread
        // across threads instead of landing serially on the caller.
        std::thread::scope(|scope| {
            let kh = scope.spawn(|| vals.iter().map(|&v| v as u64).collect::<Vec<u64>>());
            let hs: Vec<_> = kept.map(|c| scope.spawn(move || c.clone())).collect();
            (
                kh.join().expect("rekey worker panicked"),
                hs.into_iter().map(|h| h.join().expect("rekey worker panicked")).collect(),
            )
        })
    };
    Relation::new(key, cols)
}

/// [`rekey`] for a caller that owns the input relation: only the new key
/// vector is materialized; the surviving payload columns move instead of
/// cloning. Used by the plan executor for single-consumer intermediates.
pub fn rekey_owned(mut input: Relation, col: usize) -> Result<Relation, RelError> {
    let key: Vec<u64> = {
        let vals = input
            .cols
            .get(col)
            .ok_or(RelError::NoSuchColumn { col, available: input.n_cols() })?
            .as_i64()
            .ok_or(RelError::SchemaMismatch)?;
        if vals.iter().any(|&v| v < 0) {
            return Err(RelError::SchemaMismatch);
        }
        vals.iter().map(|&v| v as u64).collect()
    };
    input.key = key;
    input.cols.remove(col);
    Ok(input)
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
        assert_eq!(out.key, vec![3, 4, 2]);
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
        assert_eq!(out.key, vec![3, 4, 2]);
    }

    #[test]
    fn project_view_keeps_the_selection() {
        let r = x();
        let two = crate::ops::select_view(&View::of(&r), &crate::predicates::key_lt(4)).unwrap();
        let out = materialize(project_view(&two, &[1]).unwrap());
        assert_eq!(out.key, vec![3, 2]);
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
        assert_eq!(out.key, vec![30, 10, 20]);
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
}
