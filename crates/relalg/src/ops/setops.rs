//! UNION, INTERSECTION, DIFFERENCE — set semantics over whole tuples, as in
//! the paper's Table I examples (note `intersection` there matches `(2,b)`
//! by both fields, and `difference` removes tuples irrespective of listing
//! order).
//!
//! Implementation: a key-indexed probe table over `other`, with full-tuple
//! comparison on key hits. Works on unsorted inputs (Table I's literals are
//! unsorted) and preserves the left argument's tuple order. Each operator
//! finds the `u32` positions of the tuples it keeps, and
//! [`crate::view`]'s gather writes them.

use crate::data::{Column, RelError, Relation};
use crate::view::{gather, gather_rows, View};
use std::collections::HashMap;

/// Whole tuples of some relations, by position, found by key and then
/// compared field by field.
#[derive(Default)]
struct Tuples<'r>(HashMap<u64, Vec<(&'r Relation, usize)>>);

impl<'r> Tuples<'r> {
    /// Every tuple of `r`.
    fn of(r: &'r Relation) -> Self {
        let mut set = Tuples(HashMap::with_capacity(r.len()));
        for i in 0..r.len() {
            set.0.entry(r.keys().get(i)).or_default().push((r, i));
        }
        set
    }

    /// Whether tuple `i` of `r` is in the set.
    fn contains(&self, r: &Relation, i: usize) -> bool {
        let cands = self.0.get(&r.keys().get(i));
        cands.is_some_and(|cands| cands.iter().any(|&(s, j)| tuple_eq(r, i, s, j)))
    }

    /// Add tuple `i` of `r` unless the set holds it; whether it was added.
    fn insert(&mut self, r: &'r Relation, i: usize) -> bool {
        let cands = self.0.entry(r.keys().get(i)).or_default();
        let new = !cands.iter().any(|&(s, j)| tuple_eq(r, i, s, j));
        if new {
            cands.push((r, i));
        }
        new
    }
}

/// Whether tuple `i` of `a` and tuple `j` of `b` — of one schema — are
/// equal: key and every field, floats by bit pattern.
fn tuple_eq(a: &Relation, i: usize, b: &Relation, j: usize) -> bool {
    a.keys().get(i) == b.keys().get(j)
        && a.cols.iter().zip(&b.cols).all(|(x, y)| match (x, y) {
            (Column::I64(x), Column::I64(y)) => x[i] == y[j],
            (Column::F64(x), Column::F64(y)) => x[i].to_bits() == y[j].to_bits(),
            _ => false,
        })
}

/// The positions of the tuples of `r` that `keep` accepts, ascending.
fn positions(r: &Relation, mut keep: impl FnMut(usize) -> bool) -> Vec<u32> {
    (0..r.len()).filter(|&i| keep(i)).map(|i| i as u32).collect()
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
    let mut seen = Tuples::default();
    let from_a = positions(a, |i| seen.insert(a, i));
    let from_b = positions(b, |i| seen.insert(b, i));
    Ok(gather_rows(&[(&View::of(a), &from_a), (&View::of(b), &from_b)]))
}

/// Tuples of `a` that also appear in `b` (in `a`'s order, deduplicated).
/// Table I: `intersection x y → {(2,b)}`.
pub fn intersection(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    check_schemas(a, b)?;
    let (in_b, mut seen) = (Tuples::of(b), Tuples::default());
    let kept = positions(a, |i| in_b.contains(a, i) && seen.insert(a, i));
    Ok(gather(&View::of(a), &kept))
}

/// Tuples of `a` that do not appear in `b`. Table I:
/// `difference x y → {(2,b)}`.
pub fn difference(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    check_schemas(a, b)?;
    let in_b = Tuples::of(b);
    Ok(gather(&View::of(a), &positions(a, |i| !in_b.contains(a, i))))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn tuple_equality_is_full_width() {
        let a = x();
        let mut b = x();
        assert!(tuple_eq(&a, 0, &b, 0));
        if let Column::I64(v) = &mut b.cols[0] {
            v[0] = 99;
        }
        assert!(!tuple_eq(&a, 0, &b, 0));
    }
}
