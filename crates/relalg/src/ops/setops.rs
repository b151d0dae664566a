//! UNION, INTERSECTION, DIFFERENCE — set semantics over whole tuples, as in
//! the paper's Table I examples (note `intersection` there matches `(2,b)`
//! by both fields, and `difference` removes tuples irrespective of listing
//! order).
//!
//! Implementation: a key-indexed probe table over `other`, with full-tuple
//! comparison on key hits. Works on unsorted inputs (Table I's literals are
//! unsorted) and preserves the left argument's tuple order.

use crate::data::{RelError, Relation};
use std::collections::HashMap;

fn key_index(r: &Relation) -> HashMap<u64, Vec<usize>> {
    let mut idx: HashMap<u64, Vec<usize>> = HashMap::with_capacity(r.len());
    for (i, k) in r.keys().iter().enumerate() {
        idx.entry(k).or_default().push(i);
    }
    idx
}

fn contains_tuple(
    idx: &HashMap<u64, Vec<usize>>,
    rel: &Relation,
    probe: &Relation,
    i: usize,
) -> bool {
    idx.get(&probe.keys().get(i))
        .is_some_and(|cands| cands.iter().any(|&j| probe.tuple_eq(i, rel, j)))
}

/// Schema check shared by the set operators.
fn check_schemas(a: &Relation, b: &Relation) -> Result<(), RelError> {
    if a.n_cols() != b.n_cols() {
        return Err(RelError::SchemaMismatch);
    }
    for (x, y) in a.cols.iter().zip(&b.cols) {
        if std::mem::discriminant(x) != std::mem::discriminant(y) {
            return Err(RelError::SchemaMismatch);
        }
    }
    Ok(())
}

/// Tuples of `a` (in order, deduplicated) followed by tuples of `b` not in
/// `a`. Table I: `union x y → {(3,a), (4,a), (2,b), (0,a)}`.
pub fn union(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    check_schemas(a, b)?;
    let mut out = a.empty_like();
    // Dedup within `a` while preserving first occurrence.
    let mut seen = key_index(&out);
    for i in 0..a.len() {
        if !contains_tuple(&seen, &out, a, i) {
            seen.entry(a.keys().get(i)).or_default().push(out.len());
            out.push_row_from(a, i);
        }
    }
    for i in 0..b.len() {
        if !contains_tuple(&seen, &out, b, i) {
            seen.entry(b.keys().get(i)).or_default().push(out.len());
            out.push_row_from(b, i);
        }
    }
    Ok(out)
}

/// Tuples of `a` that also appear in `b` (in `a`'s order, deduplicated).
/// Table I: `intersection x y → {(2,b)}`.
pub fn intersection(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    check_schemas(a, b)?;
    let b_idx = key_index(b);
    let mut out = a.empty_like();
    let mut emitted = key_index(&out);
    for i in 0..a.len() {
        if contains_tuple(&b_idx, b, a, i) && !contains_tuple(&emitted, &out, a, i) {
            emitted.entry(a.keys().get(i)).or_default().push(out.len());
            out.push_row_from(a, i);
        }
    }
    Ok(out)
}

/// Tuples of `a` that do not appear in `b`. Table I:
/// `difference x y → {(2,b)}`.
pub fn difference(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    check_schemas(a, b)?;
    let b_idx = key_index(b);
    let mut out = a.empty_like();
    for i in 0..a.len() {
        if !contains_tuple(&b_idx, b, a, i) {
            out.push_row_from(a, i);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Column;

    // Table I encodings: a=1, b=2, f=6, c=3.
    fn x() -> Relation {
        Relation::new(vec![3, 4, 2], vec![Column::I64(vec![1, 1, 2])]).unwrap()
    }

    fn y_union() -> Relation {
        // y = {(0,a), (2,b)}
        Relation::new(vec![0, 2], vec![Column::I64(vec![1, 2])]).unwrap()
    }

    /// Table I: union x y → {(3,a), (4,a), (2,b), (0,a)}.
    #[test]
    fn table1_union_example() {
        let out = union(&x(), &y_union()).unwrap();
        assert_eq!(*out.keys(), vec![3, 4, 2, 0]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[1, 1, 2, 1]);
    }

    /// Table I: intersection x y → {(2,b)}.
    #[test]
    fn table1_intersection_example() {
        let out = intersection(&x(), &y_union()).unwrap();
        assert_eq!(*out.keys(), vec![2]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[2]);
    }

    /// Table I: difference x y with y = {(4,a),(3,a)} → {(2,b)}.
    #[test]
    fn table1_difference_example() {
        let y = Relation::new(vec![4, 3], vec![Column::I64(vec![1, 1])]).unwrap();
        let out = difference(&x(), &y).unwrap();
        assert_eq!(*out.keys(), vec![2]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[2]);
    }

    #[test]
    fn set_ops_compare_whole_tuples_not_keys() {
        // Same key 7, different payload: not equal tuples.
        let a = Relation::new(vec![7], vec![Column::I64(vec![1])]).unwrap();
        let b = Relation::new(vec![7], vec![Column::I64(vec![2])]).unwrap();
        assert!(intersection(&a, &b).unwrap().is_empty());
        assert_eq!(difference(&a, &b).unwrap().len(), 1);
        assert_eq!(union(&a, &b).unwrap().len(), 2);
    }

    #[test]
    fn union_dedupes_left_argument() {
        let a = Relation::from_keys(vec![1, 1, 2]);
        let b = Relation::from_keys(vec![]);
        assert_eq!(union(&a, &b).unwrap().key, vec![1, 2]);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let a = Relation::new(vec![1], vec![Column::I64(vec![1])]).unwrap();
        let b = Relation::new(vec![1], vec![Column::F64(vec![1.0])]).unwrap();
        assert!(matches!(union(&a, &b), Err(RelError::SchemaMismatch)));
        let c = Relation::from_keys(vec![1]);
        assert!(matches!(intersection(&a, &c), Err(RelError::SchemaMismatch)));
    }

    #[test]
    fn difference_with_self_is_empty() {
        assert!(difference(&x(), &x()).unwrap().is_empty());
    }

    #[test]
    fn union_with_empty_is_identity() {
        let e = Relation::new(vec![], vec![Column::I64(vec![])]).unwrap();
        assert_eq!(union(&x(), &e).unwrap(), x());
    }
}
