//! Lazy relation views — what the members of a fused kernel exchange in
//! place of a materialized intermediate (paper §III: fusion "eliminates the
//! temporary").
//!
//! A [`View`] names a relation without storing it: a key column and payload
//! columns *referenced* in stored relations, an optional selection bitmap
//! over those base rows, and the exact count of selected rows. SELECT on a
//! view only narrows the bitmap ([`crate::ops::select_view`]), COLUMN-JOIN
//! and PROJECT only rearrange references; nothing is copied until
//! [`materialize`] — the gather stage every multi-stage operator ends with —
//! is asked for real storage. The materializing operators are exactly
//! `materialize ∘ view-op`, so a fused group and the unfused baseline run
//! the same filter and the same gather, only a different number of times.

use crate::data::{col_windows, resize_zeroed_vec, slice_windows, ColWindow, Column, Relation};
use kfusion_ir::batch::ColRef;
use kfusion_ir::Ty;
use kfusion_vgpu::exec::DEFAULT_CTA_CHUNK;
use std::borrow::Cow;
use std::sync::Arc;

/// Stored rows a view's columns point into: a caller's relation, or an
/// intermediate kept alive by the views (and executor slots) sharing it.
#[derive(Debug, Clone)]
enum Src<'a> {
    Borrowed(&'a Relation),
    Shared(Arc<Relation>),
}

impl std::ops::Deref for Src<'_> {
    type Target = Relation;

    fn deref(&self) -> &Relation {
        match self {
            Src::Borrowed(r) => r,
            Src::Shared(r) => r,
        }
    }
}

impl Src<'_> {
    fn same_storage(&self, other: &Src<'_>) -> bool {
        std::ptr::eq::<Relation>(&**self, &**other)
    }
}

/// A relation described by reference: columns of stored relations plus an
/// optional row selection. All referenced columns have the same length (the
/// *base* rows); bit `i` of the selection says whether base row `i` belongs
/// to the view, and bits at or beyond the base length are zero.
#[derive(Debug, Clone)]
pub struct View<'a> {
    key: Src<'a>,
    cols: Vec<(Src<'a>, usize)>,
    sel: Option<Arc<Vec<u64>>>,
    rows: usize,
}

impl From<Relation> for View<'_> {
    fn from(rel: Relation) -> Self {
        View::shared(Arc::new(rel))
    }
}

impl<'a> View<'a> {
    /// The view that is exactly `rel`.
    pub fn of(rel: &'a Relation) -> Self {
        Self::whole(Src::Borrowed(rel))
    }

    /// The view that is exactly `rel`, keeping it alive.
    pub fn shared(rel: Arc<Relation>) -> Self {
        Self::whole(Src::Shared(rel))
    }

    fn whole(src: Src<'a>) -> Self {
        let cols = (0..src.n_cols()).map(|c| (src.clone(), c)).collect();
        View { rows: src.len(), key: src, cols, sel: None }
    }

    /// Number of tuples (selected rows).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the view has no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of payload columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Bytes per tuple once materialized ([`Relation::row_bytes`]).
    pub fn row_bytes(&self) -> u64 {
        8 + self.cols.len() as u64 * Column::BYTES_PER_VALUE
    }

    /// Whether every base row is selected — the tuples are the stored rows,
    /// position for position ([`View::dense`] then has nothing to gather).
    pub fn is_dense(&self) -> bool {
        self.sel.is_none()
    }

    /// Rows of the referenced storage, selected or not.
    pub(crate) fn base_len(&self) -> usize {
        self.key.len()
    }

    pub(crate) fn key(&self) -> &[u64] {
        &self.key.key
    }

    /// Payload column `c`, all base rows of it.
    pub(crate) fn col(&self, c: usize) -> &Column {
        let (src, i) = &self.cols[c];
        &src.cols[*i]
    }

    /// The selection bitmap, `None` when every base row is selected.
    pub(crate) fn selection(&self) -> Option<&[u64]> {
        self.sel.as_deref().map(Vec::as_slice)
    }

    /// The same columns under a different selection of `rows` base rows.
    pub(crate) fn with_selection(&self, sel: Vec<u64>, rows: usize) -> View<'a> {
        debug_assert_eq!(sel.len(), self.base_len().div_ceil(64));
        View { key: self.key.clone(), cols: self.cols.clone(), sel: Some(Arc::new(sel)), rows }
    }

    /// The same tuples with every base row selected: this view if it has no
    /// selection, its materialization otherwise. What an operator that
    /// pairs rows by position (COLUMN-JOIN) or walks runs of them (keyed
    /// AGGREGATE) asks for first.
    pub(crate) fn dense(&self) -> View<'a> {
        match self.sel {
            Some(_) => materialize(self.clone()).into(),
            None => self.clone(),
        }
    }

    /// This view widened by `other`'s payload columns. Both must select the
    /// same base rows of equally long storage.
    pub(crate) fn with_columns_of(&self, other: &View<'a>) -> View<'a> {
        let mut out = self.clone();
        out.cols.extend(other.cols.iter().cloned());
        out
    }

    /// This view restricted to the payload columns `keep`, in that order.
    pub(crate) fn with_columns(&self, keep: &[usize]) -> View<'a> {
        let cols = keep.iter().map(|&c| self.cols[c].clone()).collect();
        View { key: self.key.clone(), cols, sel: self.sel.clone(), rows: self.rows }
    }

    /// The batch-engine binding of the library calling convention over the
    /// base rows ([`Relation::ir_cols`]): slot 0 the key, slot `1+c` payload
    /// column `c`.
    pub(crate) fn ir_cols(&self) -> Vec<ColRef<'_>> {
        let mut out = Vec::with_capacity(1 + self.cols.len());
        out.push(ColRef::KeyU64(self.key()));
        out.extend((0..self.cols.len()).map(|c| match self.col(c) {
            Column::I64(v) => ColRef::I64(v),
            Column::F64(v) => ColRef::F64(v),
        }));
        out
    }

    /// The IR type of each input slot ([`Relation::ir_slot_types`]).
    pub(crate) fn ir_slot_types(&self) -> Vec<Option<Ty>> {
        self.ir_cols().iter().map(|c| Some(c.ty())).collect()
    }

    /// The stored relation this view is exactly — all of its rows, all of
    /// its columns, in order — if there is one.
    fn as_stored(&self) -> Option<&Relation> {
        let whole = self.sel.is_none()
            && self.cols.len() == self.key.n_cols()
            && self.cols.iter().enumerate().all(|(c, (s, i))| *i == c && s.same_storage(&self.key));
        whole.then_some(&*self.key)
    }

    /// The view's tuples as a relation: borrowed when the view is exactly a
    /// stored relation, materialized otherwise.
    pub(crate) fn to_relation(&self) -> Cow<'_, Relation> {
        match self.as_stored() {
            Some(rel) => Cow::Borrowed(rel),
            None => Cow::Owned(materialize(self.clone())),
        }
    }
}

/// Give `view` real storage: the gather stage of the multi-stage operators
/// (paper Fig. 3), and the only place a view's rows are copied. A view that
/// is exactly an intermediate nobody else shares hands that relation over
/// without copying.
pub fn materialize(view: View<'_>) -> Relation {
    let view = if view.as_stored().is_some() && matches!(view.key, Src::Shared(_)) {
        let View { key: Src::Shared(rel), cols, .. } = view else { unreachable!("matched above") };
        drop(cols);
        match Arc::try_unwrap(rel) {
            Ok(rel) => return rel,
            Err(shared) => View::shared(shared),
        }
    } else {
        view
    };
    kfusion_trace::counter(
        "kfusion_host_materialized_bytes_total",
        view.len() as u64 * view.row_bytes(),
    );
    let Some(sel) = view.selection() else {
        // Every base row survives: whole-column copies. One thread: on the
        // 2-core machines this was measured on, a worker per column lost a
        // quarter to contention on the fresh buffers' page faults.
        return Relation {
            key: view.key().to_vec(),
            cols: (0..view.n_cols()).map(|c| view.col(c).clone()).collect(),
        };
    };
    let mut out = Relation {
        key: Vec::new(),
        cols: (0..view.n_cols()).map(|c| view.col(c).empty_like()).collect(),
    };
    resize_zeroed_vec(&mut out.key, view.len());
    for c in &mut out.cols {
        c.resize_zeroed(view.len());
    }
    // Survivors copy straight from the base rows into disjoint windows of
    // the output, one worker per CTA, so the result is written exactly once.
    // A CTA chunk is a whole number of bitmap words.
    let words_per_cta = DEFAULT_CTA_CHUNK / 64;
    let counts: Vec<usize> = sel
        .chunks(words_per_cta)
        .map(|ws| ws.iter().map(|w| w.count_ones() as usize).sum())
        .collect();
    let ctas = sel
        .chunks(words_per_cta)
        .zip(slice_windows(&mut out.key, &counts))
        .zip(col_windows(&mut out.cols, &counts))
        .enumerate();
    let view = &view;
    if counts.len() == 1 {
        for (cta, ((words, kw), cw)) in ctas {
            scatter_cta(view, cta * DEFAULT_CTA_CHUNK, words, kw, cw);
        }
    } else {
        std::thread::scope(|scope| {
            for (cta, ((words, kw), cw)) in ctas {
                scope.spawn(move || scatter_cta(view, cta * DEFAULT_CTA_CHUNK, words, kw, cw));
            }
        });
    }
    out
}

/// Copy one CTA's survivors — the set bits of `words`, lane 0 being base
/// row `start` — into its output windows, column at a time.
fn scatter_cta(
    view: &View<'_>,
    start: usize,
    words: &[u64],
    kw: &mut [u64],
    cw: Vec<ColWindow<'_>>,
) {
    scatter_col(view.key(), start, words, kw);
    for (c, win) in cw.into_iter().enumerate() {
        match (win, view.col(c)) {
            (ColWindow::I64(d), Column::I64(s)) => scatter_col(s, start, words, d),
            (ColWindow::F64(d), Column::F64(s)) => scatter_col(s, start, words, d),
            _ => unreachable!("output schema set from the view"),
        }
    }
}

/// Compact `src`'s selected lanes into `dst`: one value per set bit of
/// `words` (lane 0 = `src[start]`), in lane order. `dst` is exactly as long
/// as the survivor count, so a full walk fills it.
fn scatter_col<T: Copy>(src: &[T], start: usize, words: &[u64], dst: &mut [T]) {
    let mut pos = 0;
    for (w, &word) in words.iter().enumerate() {
        let base = start + w * 64;
        let mut m = word;
        while m != 0 {
            dst[pos] = src[base + m.trailing_zeros() as usize];
            pos += 1;
            m &= m - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(n: u64) -> Relation {
        Relation::new(
            (0..n).collect(),
            vec![
                Column::I64((0..n as i64).map(|v| v * 10).collect()),
                Column::F64((0..n).map(|v| v as f64 * 0.5).collect()),
            ],
        )
        .unwrap()
    }

    fn every_third(n: usize) -> (Vec<u64>, usize) {
        let mut sel = vec![0u64; n.div_ceil(64)];
        for i in (0..n).step_by(3) {
            sel[i / 64] |= 1 << (i % 64);
        }
        (sel, n.div_ceil(3))
    }

    #[test]
    fn whole_view_round_trips() {
        let r = rel(1000);
        let v = View::of(&r);
        assert_eq!((v.len(), v.n_cols(), v.row_bytes()), (1000, 2, 24));
        assert!(matches!(v.to_relation(), Cow::Borrowed(_)));
        assert_eq!(materialize(v), r);
    }

    #[test]
    fn unshared_intermediate_is_handed_over_not_copied() {
        let r = rel(100);
        let ptr = r.key.as_ptr();
        let out = materialize(View::from(r));
        assert_eq!(out.key.as_ptr(), ptr);
    }

    #[test]
    fn selection_gathers_in_base_order_across_ctas() {
        // Three CTAs' worth of rows, the last one partial.
        let n = 2 * DEFAULT_CTA_CHUNK + 777;
        let r = rel(n as u64);
        let (sel, rows) = every_third(n);
        let out = materialize(View::of(&r).with_selection(sel, rows));
        assert_eq!(out.len(), rows);
        let want: Vec<u64> = (0..n as u64).step_by(3).collect();
        assert_eq!(out.key, want);
        assert_eq!(out.cols[0].as_i64().unwrap()[5], 150);
        assert_eq!(out.cols[1].as_f64().unwrap()[5], 7.5);
    }

    #[test]
    fn rearranged_columns_materialize_from_their_sources() {
        let (a, b) = (rel(10), rel(10));
        let v = View::of(&a).with_columns(&[1]).with_columns_of(&View::of(&b).with_columns(&[0]));
        assert!(matches!(v.to_relation(), Cow::Owned(_)));
        let out = materialize(v);
        assert_eq!(out.n_cols(), 2);
        assert_eq!(out.cols[0], a.cols[1]);
        assert_eq!(out.cols[1], b.cols[0]);
    }
}
