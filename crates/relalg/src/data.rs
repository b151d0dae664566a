//! Columnar relation storage.
//!
//! Following Diamos et al. (GIT-CERCS-12-01), the substrate the paper builds
//! on, a relation is a densely packed array of tuples sorted by an integer
//! *key*, with fixed-width payload fields. We store it columnar: the keys
//! ([`Keys`]) plus typed payload columns. The key doubles as the join/set
//! attribute; the "first field is the key" convention of the paper's
//! Table I. A relation keyed by row id — the per-column inputs of the
//! paper's Q1 plan (Fig. 17(a)) — stores no key at all.

use kfusion_ir::batch::ColRef;
use std::borrow::Cow;
use std::fmt;

/// A typed payload column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// 64-bit floats.
    F64(Vec<f64>),
}

impl Column {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty column of the same type.
    pub fn empty_like(&self) -> Column {
        match self {
            Column::I64(_) => Column::I64(Vec::new()),
            Column::F64(_) => Column::F64(Vec::new()),
        }
    }

    /// An empty column of the same type with reserved capacity.
    pub fn empty_like_with_capacity(&self, cap: usize) -> Column {
        match self {
            Column::I64(_) => Column::I64(Vec::with_capacity(cap)),
            Column::F64(_) => Column::F64(Vec::with_capacity(cap)),
        }
    }

    /// Value at `i` as an IR [`kfusion_ir::Value`].
    pub fn value(&self, i: usize) -> kfusion_ir::Value {
        match self {
            Column::I64(v) => kfusion_ir::Value::I64(v[i]),
            Column::F64(v) => kfusion_ir::Value::F64(v[i]),
        }
    }

    /// Bytes per value (both variants are 8-byte scalars).
    pub const BYTES_PER_VALUE: u64 = 8;

    /// The i64 payload, if this is an integer column.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Column::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The f64 payload, if this is a float column.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Concatenate `other` onto the end of `self`.
    ///
    /// # Panics
    /// If the column types differ.
    pub fn extend_from(&mut self, other: &Column) {
        match (self, other) {
            (Column::I64(d), Column::I64(s)) => d.extend_from_slice(s),
            (Column::F64(d), Column::F64(s)) => d.extend_from_slice(s),
            _ => panic!("column type mismatch in extend_from"),
        }
    }

    /// The batch-engine binding of this column as an input slot.
    pub(crate) fn ir_col(&self) -> ColRef<'_> {
        match self {
            Column::I64(v) => ColRef::I64(v),
            Column::F64(v) => ColRef::F64(v),
        }
    }

    /// Resize to exactly `n` values, zero-filled. When the current buffer
    /// cannot hold `n`, the old allocation is dropped and a fresh
    /// zero-initialized one is requested instead of growing in place —
    /// large zeroed requests come back as lazily-mapped zero pages, so the
    /// page-fault cost of first touch lands on whichever worker thread
    /// writes each region rather than serially on the caller.
    pub fn resize_zeroed(&mut self, n: usize) {
        match self {
            Column::I64(v) => resize_zeroed_vec(v, n),
            Column::F64(v) => resize_zeroed_vec(v, n),
        }
    }
}

pub(crate) fn resize_zeroed_vec<T: Clone + Default>(v: &mut Vec<T>, n: usize) {
    if v.capacity() < n {
        *v = vec![T::default(); n];
    } else {
        v.clear();
        v.resize(n, T::default());
    }
}

/// A disjoint mutable row-window over one column's buffer — the unit of
/// work for parallel materialization (each worker owns one window of every
/// column, so pool threads write without locks).
pub(crate) enum ColWindow<'a> {
    /// Window of an i64 column.
    I64(&'a mut [i64]),
    /// Window of an f64 column.
    F64(&'a mut [f64]),
}

/// Split `s` into consecutive disjoint mutable windows of the given
/// lengths. The lengths must sum to at most `s.len()`.
pub(crate) fn slice_windows<'a, T>(mut s: &'a mut [T], lens: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(lens.len());
    for &len in lens {
        let (head, tail) = std::mem::take(&mut s).split_at_mut(len);
        out.push(head);
        s = tail;
    }
    out
}

/// Split every column into consecutive disjoint row-windows of the given
/// lengths: result `[w][c]` is window `w` of column `c`.
pub(crate) fn col_windows<'a>(cols: &'a mut [Column], lens: &[usize]) -> Vec<Vec<ColWindow<'a>>> {
    let mut rests: Vec<ColWindow<'a>> = cols
        .iter_mut()
        .map(|c| match c {
            Column::I64(v) => ColWindow::I64(v.as_mut_slice()),
            Column::F64(v) => ColWindow::F64(v.as_mut_slice()),
        })
        .collect();
    let mut out = Vec::with_capacity(lens.len());
    for &len in lens {
        let mut row = Vec::with_capacity(rests.len());
        for rest in rests.iter_mut() {
            match rest {
                ColWindow::I64(s) => {
                    let (head, tail) = std::mem::take(s).split_at_mut(len);
                    row.push(ColWindow::I64(head));
                    *s = tail;
                }
                ColWindow::F64(s) => {
                    let (head, tail) = std::mem::take(s).split_at_mut(len);
                    row.push(ColWindow::F64(head));
                    *s = tail;
                }
            }
        }
        out.push(row);
    }
    out
}

/// Run `work` on every item on the process-wide pool
/// ([`kfusion_vgpu::exec::par_map`]) — the executor for morsels that each
/// own a disjoint window of an output.
pub(crate) fn par_each<T: Send>(items: Vec<T>, work: impl Fn(T) + Sync) {
    kfusion_vgpu::exec::par_map(items, |_, item| work(item));
}

/// Structural errors on relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// Columns have differing lengths.
    RaggedColumns {
        /// Key length.
        key_len: usize,
        /// Offending column index.
        col: usize,
        /// Its length.
        col_len: usize,
    },
    /// An operator required key-sorted input but the keys are unsorted.
    NotSorted,
    /// An operator referenced a column that does not exist.
    NoSuchColumn {
        /// Requested index.
        col: usize,
        /// Available count.
        available: usize,
    },
    /// Two relations were expected to have the same schema.
    SchemaMismatch,
    /// A predicate or expression failed to evaluate.
    Eval(kfusion_ir::interp::EvalError),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::RaggedColumns { key_len, col, col_len } => {
                write!(f, "column {col} has {col_len} rows, key has {key_len}")
            }
            RelError::NotSorted => write!(f, "relation is not key-sorted"),
            RelError::NoSuchColumn { col, available } => {
                write!(f, "no column {col} (relation has {available})")
            }
            RelError::SchemaMismatch => write!(f, "relations have different schemas"),
            RelError::Eval(e) => write!(f, "expression evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for RelError {}

impl From<kfusion_ir::interp::EvalError> for RelError {
    fn from(e: kfusion_ir::interp::EvalError) -> Self {
        RelError::Eval(e)
    }
}

/// The tuple keys of a relation. Two `Keys` are equal when they hold the
/// same sequence, however it is represented: `RowIds(n)` equals
/// `Stored((0..n).collect())`.
#[derive(Debug, Clone)]
pub enum Keys {
    /// Tuple `i`'s key is `i`: the keys are `0..len`, stored nowhere.
    RowIds(usize),
    /// One stored key per tuple.
    Stored(Vec<u64>),
}

impl Default for Keys {
    fn default() -> Self {
        Keys::Stored(Vec::new())
    }
}

impl Keys {
    /// Number of keys.
    pub fn len(&self) -> usize {
        match self {
            Keys::RowIds(n) => *n,
            Keys::Stored(v) => v.len(),
        }
    }

    /// Whether there are no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            Keys::RowIds(n) => {
                assert!(i < *n, "row {i} of {n}");
                i as u64
            }
            Keys::Stored(v) => v[i],
        }
    }

    /// The batch-engine binding of the keys as input slot 0: the stored
    /// ones, or the row numbers.
    pub(crate) fn ir_col(&self) -> ColRef<'_> {
        match self {
            Keys::RowIds(n) => ColRef::RowIds(*n),
            Keys::Stored(v) => ColRef::KeyU64(v),
        }
    }

    /// Whether the keys are the row numbers, stored nowhere.
    pub fn is_row_ids(&self) -> bool {
        matches!(self, Keys::RowIds(_))
    }

    /// The stored keys, `None` for row ids.
    pub fn stored(&self) -> Option<&[u64]> {
        match self {
            Keys::RowIds(_) => None,
            Keys::Stored(v) => Some(v),
        }
    }

    /// The keys in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = u64> + ExactSizeIterator + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Whether the keys are non-decreasing — row ids always are.
    pub fn is_sorted(&self) -> bool {
        match self {
            Keys::RowIds(_) => true,
            Keys::Stored(v) => v.is_sorted(),
        }
    }

    /// The keys as a slice: stored keys where they are, row ids written
    /// out. This is the one place row ids are written out, and it counts
    /// the bytes in `kfusion_host_materialized_bytes_total`, so a path that
    /// must never pay for it can be held to that.
    pub fn as_slice(&self) -> Cow<'_, [u64]> {
        match self {
            Keys::RowIds(n) => {
                kfusion_trace::counter(
                    "kfusion_host_materialized_bytes_total",
                    *n as u64 * Column::BYTES_PER_VALUE,
                );
                Cow::Owned((0..*n as u64).collect())
            }
            Keys::Stored(v) => Cow::Borrowed(v),
        }
    }

    /// The stored keys' buffer, to be overwritten: row ids leave an empty
    /// one, and nothing is written out.
    pub(crate) fn buffer_mut(&mut self) -> &mut Vec<u64> {
        if let Keys::RowIds(_) = self {
            *self = Keys::default();
        }
        match self {
            Keys::Stored(v) => v,
            Keys::RowIds(_) => unreachable!("replaced above"),
        }
    }
}

impl PartialEq for Keys {
    fn eq(&self, other: &Keys) -> bool {
        match (self, other) {
            (Keys::RowIds(a), Keys::RowIds(b)) => a == b,
            (Keys::Stored(a), Keys::Stored(b)) => a == b,
            (Keys::RowIds(n), Keys::Stored(v)) | (Keys::Stored(v), Keys::RowIds(n)) => {
                v.len() == *n && v.iter().enumerate().all(|(i, &k)| k == i as u64)
            }
        }
    }
}

impl PartialEq<Vec<u64>> for Keys {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

/// A relation: its keys plus payload columns of equal length.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    /// Tuple keys (the first field in the paper's Table I examples).
    pub(crate) key: Keys,
    /// Payload columns.
    pub cols: Vec<Column>,
}

impl Relation {
    /// A relation of bare keys (the paper's compressed-row SELECT inputs).
    pub fn from_keys(key: Vec<u64>) -> Self {
        Relation { key: Keys::Stored(key), cols: Vec::new() }
    }

    /// A relation with payload columns.
    ///
    /// # Errors
    /// [`RelError::RaggedColumns`] if lengths differ.
    pub fn new(key: Vec<u64>, cols: Vec<Column>) -> Result<Self, RelError> {
        Relation::from_parts(Keys::Stored(key), cols)
    }

    /// A relation keyed by row id: tuple `i`'s key is `i`, and no key is
    /// stored. Its length is the first column's (0 without columns).
    ///
    /// # Errors
    /// [`RelError::RaggedColumns`] if lengths differ.
    pub fn with_row_ids(cols: Vec<Column>) -> Result<Self, RelError> {
        let rows = cols.first().map_or(0, Column::len);
        Relation::from_parts(Keys::RowIds(rows), cols)
    }

    /// A relation of `key` and `cols`.
    ///
    /// # Errors
    /// [`RelError::RaggedColumns`] if lengths differ.
    pub fn from_parts(key: Keys, cols: Vec<Column>) -> Result<Self, RelError> {
        let r = Relation { key, cols };
        r.check_rect()?;
        Ok(r)
    }

    /// The keys.
    pub fn keys(&self) -> &Keys {
        &self.key
    }

    fn check_rect(&self) -> Result<(), RelError> {
        for (i, c) in self.cols.iter().enumerate() {
            if c.len() != self.key.len() {
                return Err(RelError::RaggedColumns {
                    key_len: self.key.len(),
                    col: i,
                    col_len: c.len(),
                });
            }
        }
        Ok(())
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.key.is_empty()
    }

    /// Number of payload columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Stored bytes per tuple (8-byte key + 8 bytes per payload column).
    pub fn row_bytes(&self) -> u64 {
        8 + self.cols.len() as u64 * Column::BYTES_PER_VALUE
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.row_bytes() * self.len() as u64
    }

    /// Whether keys are non-decreasing.
    pub fn is_key_sorted(&self) -> bool {
        self.key.is_sorted()
    }

    /// Error unless key-sorted (operators with merge-based implementations
    /// require it, like the substrate's sorted key-value arrays).
    pub fn require_sorted(&self) -> Result<(), RelError> {
        if self.is_key_sorted() {
            Ok(())
        } else {
            Err(RelError::NotSorted)
        }
    }

    /// The IR input row for tuple `i`: slot 0 = key (as i64), slot `1+c` =
    /// column `c`. This is the calling convention every predicate and
    /// arithmetic expression in the library uses.
    pub fn ir_inputs(&self, i: usize, out: &mut Vec<kfusion_ir::Value>) {
        out.clear();
        out.push(kfusion_ir::Value::I64(self.key.get(i) as i64));
        for c in &self.cols {
            out.push(c.value(i));
        }
    }

    /// The batch-engine view of the same calling convention as
    /// [`Relation::ir_inputs`]: one [`kfusion_ir::batch::ColRef`] per input
    /// slot — the keys at slot 0 (loaded as `i64`), payload column `c` at
    /// slot `1+c`.
    pub fn ir_cols(&self) -> Vec<kfusion_ir::batch::ColRef<'_>> {
        std::iter::once(self.key.ir_col()).chain(self.cols.iter().map(Column::ir_col)).collect()
    }

    /// The concrete IR type of each input slot under the library calling
    /// convention — the seeds batch compilation resolves register types
    /// against.
    pub fn ir_slot_types(&self) -> Vec<Option<kfusion_ir::Ty>> {
        self.ir_cols().iter().map(|c| Some(c.ty())).collect()
    }
}

/// Bit-level relation equality: keys equal, column types equal, i64 values
/// equal, f64 values equal *as bit patterns* (so `-0.0 != 0.0` and NaNs
/// compare by payload).
pub fn bit_identical(a: &Relation, b: &Relation) -> bool {
    if a.keys() != b.keys() || a.n_cols() != b.n_cols() {
        return false;
    }
    a.cols.iter().zip(&b.cols).all(|(x, y)| match (x, y) {
        (Column::I64(x), Column::I64(y)) => x == y,
        (Column::F64(x), Column::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::new(
            vec![1, 2, 3],
            vec![Column::I64(vec![10, 20, 30]), Column::F64(vec![0.1, 0.2, 0.3])],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_rectangularity() {
        let bad = Relation::new(vec![1, 2], vec![Column::I64(vec![1])]);
        assert!(matches!(bad, Err(RelError::RaggedColumns { col: 0, .. })));
    }

    #[test]
    fn row_bytes_counts_key_and_columns() {
        assert_eq!(rel().row_bytes(), 24);
        assert_eq!(Relation::from_keys(vec![1]).row_bytes(), 8);
        assert_eq!(rel().total_bytes(), 72);
    }

    #[test]
    fn sortedness_checks() {
        assert!(rel().is_key_sorted());
        let r = Relation::from_keys(vec![3, 1, 2]);
        assert!(!r.is_key_sorted());
        assert!(r.require_sorted().is_err());
        let sorted = crate::ops::sort(&r, crate::ops::SortBy::Key).unwrap();
        assert!(sorted.require_sorted().is_ok());
        assert_eq!(*sorted.keys(), vec![1, 2, 3]);
    }

    #[test]
    fn ir_inputs_layout() {
        let r = rel();
        let mut buf = Vec::new();
        r.ir_inputs(1, &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf[0].as_i64(), Some(2));
        assert_eq!(buf[1].as_i64(), Some(20));
        assert_eq!(buf[2].as_f64(), Some(0.2));
    }

    #[test]
    #[should_panic(expected = "column type mismatch")]
    fn mixed_type_extend_panics() {
        let mut a = Column::I64(vec![]);
        a.extend_from(&Column::F64(vec![1.0]));
    }
}
