//! Lazy relation views — what the members of a fused kernel exchange in
//! place of a materialized intermediate (paper §III: fusion "eliminates the
//! temporary").
//!
//! A [`View`] names a relation without storing it: a key column and payload
//! columns *referenced* in stored relations, an optional selection bitmap
//! over those base rows, and the exact count of selected rows. SELECT on a
//! view only narrows the bitmap ([`crate::ops::select_view`]), COLUMN-JOIN
//! and PROJECT only rearrange references, and ARITH+ and REKEY write just
//! the columns they compute, at base length, beside the ones they read
//! ([`crate::ops::arith_extend_view`], [`crate::ops::rekey_view`]); nothing
//! is copied until [`materialize`] — the gather stage every multi-stage
//! operator ends with — is asked for real storage, or SORT gathers the
//! view in its own order ([`gather`]) — or, when a keyed AGGREGATE alone
//! reads what it sorts, leaves the view where it is and hands on the
//! range of its keys ([`crate::ops::group_by_key_view`]). The
//! materializing operators are exactly `materialize ∘ view-op`, so a
//! fused group and the unfused baseline run the same filter and the same
//! gather, only a different number of times. The operators that write
//! rows of their own — JOIN, PRODUCT, UNION, INTERSECT, DIFFERENCE — find
//! `u32` base-row positions and write through the same gather core
//! (`gather_rows`, `gather_pairs`): the rows of a relation are copied here
//! and nowhere else, and every byte copied is counted.

use crate::data::{
    col_windows, par_each, resize_zeroed_vec, slice_windows, ColWindow, Column, Keys, Relation,
};
use kfusion_ir::batch::{BankView, BatchMachine, ColRef, CompiledKernel, BATCH_ROWS, MASK_WORDS};
use kfusion_ir::{Ty, Value};
use kfusion_vgpu::exec::DEFAULT_CTA_CHUNK;
use std::ops::Range;
use std::sync::Arc;

/// Stored rows a view's columns point into: a caller's relation, or an
/// intermediate kept alive by the views (and executor slots) sharing it.
/// The columns ARITH+ computes are kept in a relation of their own keyed by
/// row id, which stores no key: the view's key is always another storage's.
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
    groups: Option<Groups>,
}

/// What a SORT by key found in a view instead of sorting it
/// ([`crate::ops::group_by_key_view`]): the range its selected keys span,
/// `lo..lo + buckets`, narrow enough to number the groups by key. The
/// tuples stay in their own order, which is a stable sort's order within
/// each key — all a keyed AGGREGATE needs from a SORT; it finds the groups
/// itself, in the walk that folds them. The range goes by key value, not by
/// position, so it holds for the same tuples wherever they are: ARITH+,
/// PROJECT and a gather keep it, a SELECT or a REKEY drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Groups {
    /// The lowest selected key.
    pub(crate) lo: u64,
    /// How many keys from `lo` on the range holds.
    pub(crate) buckets: usize,
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
        View { rows: src.len(), key: src, cols, sel: None, groups: None }
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

    /// Whether the view carries the key range a SORT by key found in it
    /// instead of sorting it ([`crate::ops::group_by_key_view`]) — a view
    /// a keyed AGGREGATE folds by group where it is.
    pub fn is_grouped(&self) -> bool {
        self.groups.is_some()
    }

    pub(crate) fn groups(&self) -> Option<Groups> {
        self.groups
    }

    /// The same tuples, carrying `groups`.
    pub(crate) fn with_groups(&self, groups: Groups) -> View<'a> {
        View { groups: Some(groups), ..self.clone() }
    }

    /// Whether an operator that writes `added` columns at base length
    /// beside this view should run on it gathered instead: it is filtered,
    /// and its selected rows are fewer bytes than those columns would be.
    /// Reads only what the view carries — rows, base length, row bytes.
    pub fn gathers_first(&self, added: usize) -> bool {
        let base_bytes = self.base_len() as u64 * added as u64 * Column::BYTES_PER_VALUE;
        !self.is_dense() && (self.rows as u64 * self.row_bytes()) < base_bytes
    }

    /// Rows of the referenced storage, selected or not.
    pub(crate) fn base_len(&self) -> usize {
        self.key.len()
    }

    /// The keys of all base rows.
    pub(crate) fn key(&self) -> &Keys {
        self.key.keys()
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

    /// Call `f` with each selected base row in `range`, ascending: a word
    /// whose 64 rows are all selected as one contiguous run, any other by
    /// its set bits. `range` starts on a bitmap word; it may end inside one,
    /// whose rows at or past `range.end` are not visited.
    #[inline]
    pub(crate) fn for_each_row(&self, range: Range<usize>, mut f: impl FnMut(usize)) {
        let Some(sel) = self.selection() else { return range.for_each(f) };
        debug_assert_eq!(range.start % 64, 0);
        let first = range.start / 64;
        for (w, &word) in (first..).zip(&sel[first..range.end.div_ceil(64)]) {
            let past = (w + 1) * 64 - range.end.min((w + 1) * 64);
            let mut m = word & (u64::MAX >> past);
            if m == u64::MAX {
                (w * 64..w * 64 + 64).for_each(&mut f);
                continue;
            }
            while m != 0 {
                f(w * 64 + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }

    /// The same columns under a different selection of `rows` base rows
    /// (and without groups, which are of the old selection's tuples).
    pub(crate) fn with_selection(&self, sel: Vec<u64>, rows: usize) -> View<'a> {
        debug_assert_eq!(sel.len(), self.base_len().div_ceil(64));
        let sel = Some(Arc::new(sel));
        View { key: self.key.clone(), cols: self.cols.clone(), sel, rows, groups: None }
    }

    /// The same tuples with every base row selected: this view if it has no
    /// selection, its materialization — carrying its groups — otherwise.
    /// What an operator that pairs rows by position (COLUMN-JOIN) asks for
    /// first.
    pub(crate) fn dense(&self) -> View<'a> {
        match self.sel {
            Some(_) => View { groups: self.groups, ..materialize(self.clone()).into() },
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
        let (key, sel, groups) = (self.key.clone(), self.sel.clone(), self.groups);
        View { key, cols, sel, rows: self.rows, groups }
    }

    /// This view widened by `computed`, columns of base length the caller
    /// wrote for it (ARITH+).
    pub(crate) fn with_computed(&self, computed: Vec<Column>) -> View<'a> {
        debug_assert!(computed.iter().all(|c| c.len() == self.base_len()));
        let key = Keys::RowIds(self.base_len());
        let store = Src::Shared(Arc::new(Relation { key, cols: computed }));
        let mut out = self.clone();
        out.cols.extend((0..store.n_cols()).map(|c| (store.clone(), c)));
        out
    }

    /// This view keyed by `key`, base-length keys of its own (the key a
    /// group loop's REKEY writes, ARITH's copy of its input's keys) — and
    /// without its groups, which were of the old keys.
    pub(crate) fn with_key(&self, key: Keys) -> View<'a> {
        debug_assert_eq!(key.len(), self.base_len());
        let key = Src::Shared(Arc::new(Relation { key, cols: Vec::new() }));
        View { key, groups: None, ..self.clone() }
    }

    /// The batch-engine binding of the library calling convention over the
    /// base rows ([`Relation::ir_cols`]): slot 0 the key, slot `1+c` payload
    /// column `c`.
    pub(crate) fn ir_cols(&self) -> Vec<ColRef<'_>> {
        let mut out = Vec::with_capacity(1 + self.cols.len());
        out.push(self.key().ir_col());
        out.extend((0..self.cols.len()).map(|c| self.col(c).ir_col()));
        out
    }

    /// The IR type of each input slot ([`Relation::ir_slot_types`]).
    pub(crate) fn ir_slot_types(&self) -> Vec<Option<Ty>> {
        self.ir_cols().iter().map(|c| Some(c.ty())).collect()
    }

    /// The interpreter's input row for base row `i` ([`Relation::ir_inputs`]).
    pub(crate) fn ir_inputs(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        out.push(Value::I64(self.key().get(i) as i64));
        out.extend((0..self.cols.len()).map(|c| self.col(c).value(i)));
    }

    /// The intermediates this view keeps alive — each shared storage it
    /// references, once per reference (plan inputs it borrows are not).
    pub fn shared_storage(&self) -> impl Iterator<Item = &Arc<Relation>> {
        std::iter::once(&self.key).chain(self.cols.iter().map(|(s, _)| s)).filter_map(|s| match s {
            Src::Shared(rel) => Some(rel),
            Src::Borrowed(_) => None,
        })
    }

    /// The stored relation this view is exactly — all of its rows, all of
    /// its columns, in order — if there is one: what an operator that reads
    /// stored rows is handed.
    pub fn as_stored(&self) -> Option<&Relation> {
        let whole = self.sel.is_none()
            && self.cols.len() == self.key.n_cols()
            && self.cols.iter().enumerate().all(|(c, (s, i))| *i == c && s.same_storage(&self.key));
        whole.then_some(&*self.key)
    }

    /// The view's tuples as a shared relation: the intermediate itself when
    /// the view is exactly one — however many others share it —
    /// [`materialize`]d otherwise.
    pub fn into_shared(self) -> Arc<Relation> {
        match (self.as_stored(), &self.key) {
            (Some(_), Src::Shared(rel)) => Arc::clone(rel),
            _ => Arc::new(materialize(self)),
        }
    }

    /// The view's tuples without copying a value, when it alone holds its
    /// storage: no selection, every source an intermediate, and no handle
    /// to any of them outside this view. Each storage is then reclaimed
    /// and its columns move into the result.
    fn into_moved(self) -> Result<Relation, View<'a>> {
        let handles = || std::iter::once(&self.key).chain(self.cols.iter().map(|(s, _)| s));
        let alone = self.sel.is_none()
            && handles().all(|s| match s {
                Src::Shared(rel) => {
                    Arc::strong_count(rel) == handles().filter(|t| t.same_storage(s)).count()
                }
                Src::Borrowed(_) => false,
            });
        if !alone {
            return Err(self);
        }
        let View { key, cols, .. } = self;
        let picks: Vec<usize> = cols.iter().map(|&(_, i)| i).collect();
        // Storage `s` of the view, reclaimed by whichever handle is its
        // last; `of[h]` is handle `h`'s storage (handle 0 is the key's).
        let mut stores: Vec<(*const Relation, Option<Relation>)> = Vec::new();
        let mut of = Vec::with_capacity(1 + picks.len());
        for src in std::iter::once(key).chain(cols.into_iter().map(|(s, _)| s)) {
            let Src::Shared(rel) = src else { unreachable!("checked above") };
            let ptr = Arc::as_ptr(&rel);
            let s = stores.iter().position(|(p, _)| *p == ptr).unwrap_or_else(|| {
                stores.push((ptr, None));
                stores.len() - 1
            });
            of.push(s);
            if let Ok(rel) = Arc::try_unwrap(rel) {
                stores[s].1 = Some(rel);
            }
        }
        let mut rels: Vec<Relation> =
            stores.into_iter().map(|(_, rel)| rel.expect("the last handle reclaims")).collect();
        let key = std::mem::take(&mut rels[of[0]].key);
        let mut moved: Vec<Column> = Vec::with_capacity(picks.len());
        for (c, (&s, &i)) in of[1..].iter().zip(&picks).enumerate() {
            // A column the view lists twice moves once and is cloned after.
            let col = match (0..c).find(|&d| of[1 + d] == s && picks[d] == i) {
                Some(d) => moved[d].clone(),
                None => std::mem::replace(&mut rels[s].cols[i], Column::I64(Vec::new())),
            };
            moved.push(col);
        }
        Ok(Relation { key, cols: moved })
    }
}

/// A compiled kernel bound to the columns of the base rows a [`walk`] runs
/// it over.
#[derive(Clone, Copy)]
pub(crate) struct Bound<'k> {
    pub(crate) kernel: &'k CompiledKernel,
    pub(crate) cols: &'k [ColRef<'k>],
}

/// One batch of a [`walk`]: its base rows, the view's selection words
/// over them — exactly its live lanes, none past its end — or `None` when
/// the view is dense, and the kernel's machine after it ran on the batch.
pub(crate) struct Batch<'w> {
    pub(crate) rows: Range<usize>,
    pub(crate) words: Option<&'w [u64]>,
    ran: Option<(&'w CompiledKernel, &'w BatchMachine)>,
}

impl<'w> Batch<'w> {
    /// Output `o` of the kernel the walk ran over this batch.
    pub(crate) fn output(&self, o: usize) -> BankView<'w> {
        let (k, m) = self.ran.expect("a walk with a kernel");
        m.output(k, o)
    }
}

/// The one batch walk: every operator that runs a compiled kernel over a
/// view — a group's loop (a lone SELECT, ARITH+ or REKEY is one), the run
/// fold and the grouped fold —
/// walks base rows `rows` (from a selection word on) through here, in
/// [`BATCH_ROWS`] batches, ascending, inside one steady-state region. A
/// batch in which the view selects no row is skipped; for every other,
/// `kernel` (when given) runs once, on a machine checked out of its pool
/// for the walk, and `body` gets the batch.
pub(crate) fn walk(
    view: &View<'_>,
    rows: Range<usize>,
    kernel: Option<Bound<'_>>,
    mut body: impl FnMut(&Batch<'_>),
) {
    debug_assert_eq!(rows.start % 64, 0, "a walk starts on a selection word");
    let mut machine = kernel.map(|b| b.kernel.checkout());
    let _steady = kfusion_trace::allocwatch::region();
    let sel = view.selection();
    let mut live = [0u64; MASK_WORDS];
    for base in rows.clone().step_by(BATCH_ROWS) {
        let n = BATCH_ROWS.min(rows.end - base);
        let words = match sel {
            Some(sel) => {
                let live = &mut live[..n.div_ceil(64)];
                live.copy_from_slice(&sel[base / 64..][..live.len()]);
                if !n.is_multiple_of(64) {
                    live[n / 64] &= (1 << (n % 64)) - 1;
                }
                Some(&*live)
            }
            None => None,
        };
        if words.is_some_and(|words| words.iter().all(|&w| w == 0)) {
            continue;
        }
        let ran = kernel.zip(machine.as_deref_mut()).map(|(b, m)| {
            m.run(b.kernel, b.cols, base, n);
            (b.kernel, &*m)
        });
        body(&Batch { rows: base..base + n, words, ran });
    }
}

/// The first and the last of `n` lanes that `words` selects — every one
/// when it is `None` — if it selects any.
pub(crate) fn end_lanes(words: Option<&[u64]>, n: usize) -> Option<(usize, usize)> {
    let Some(words) = words else { return (n > 0).then(|| (0, n - 1)) };
    let (first, last) = (words.iter().position(|&w| w != 0)?, words.iter().rposition(|&w| w != 0)?);
    let first_lane = first * 64 + words[first].trailing_zeros() as usize;
    Some((first_lane, last * 64 + 63 - words[last].leading_zeros() as usize))
}

/// Give `view` real storage: the gather stage of the multi-stage operators
/// (paper Fig. 3), and the only place a view's rows are copied. A view that
/// alone holds the intermediates it references — the one an operator
/// builds over an input handed to it — takes their columns over without
/// copying a value; only copied bytes are counted. Row ids stay row ids
/// when every base row survives, and the survivors' row numbers are
/// written as stored keys otherwise: the bytes a stored key would take,
/// and no key is read.
pub fn materialize(view: View<'_>) -> Relation {
    let view = match view.into_moved() {
        Ok(rel) => return rel,
        Err(view) => view,
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
            key: view.key().clone(),
            cols: (0..view.n_cols()).map(|c| view.col(c).clone()).collect(),
        };
    };
    let mut key = Vec::new();
    resize_zeroed_vec(&mut key, view.len());
    let mut cols: Vec<Column> = (0..view.n_cols()).map(|c| view.col(c).empty_like()).collect();
    for c in &mut cols {
        c.resize_zeroed(view.len());
    }
    // Survivors copy straight from the base rows into disjoint windows of
    // the output, the CTAs dealt to one worker per core, so the result is
    // written exactly once. A CTA chunk is a whole number of bitmap words.
    let words_per_cta = DEFAULT_CTA_CHUNK / 64;
    let counts: Vec<usize> = sel
        .chunks(words_per_cta)
        .map(|ws| ws.iter().map(|w| w.count_ones() as usize).sum())
        .collect();
    let ctas: Vec<_> = sel
        .chunks(words_per_cta)
        .zip(slice_windows(&mut key, &counts))
        .zip(col_windows(&mut cols, &counts))
        .enumerate()
        .collect();
    par_each(ctas, |(cta, ((words, kw), cw))| {
        scatter_cta(&view, cta * DEFAULT_CTA_CHUNK, words, kw, cw)
    });
    Relation { key: Keys::Stored(key), cols }
}

/// Rows to gather: a view's tuples at base rows `idx`, in that order.
pub(crate) type Rows<'v, 'a> = (&'v View<'a>, &'v [u32]);

/// The tuples of `view` at base rows `idx`, in that order, in storage of
/// their own — SORT's gather, and INTERSECT's and DIFFERENCE's.
pub(crate) fn gather(view: &View<'_>, idx: &[u32]) -> Relation {
    gather_rows(&[(view, idx)])
}

/// The rows of `parts` one after another, in storage of their own — UNION's
/// gather, its two sides' distinct tuples. The views have one schema.
pub(crate) fn gather_rows(parts: &[Rows<'_, '_>]) -> Relation {
    let key = parts.iter().map(|&(v, idx)| (Source::Keys(v.key()), idx)).collect();
    let col = |c: usize| parts.iter().map(|&(v, idx)| (Source::Col(v.col(c)), idx)).collect();
    gather_columns(key, (0..parts[0].0.n_cols()).map(col).collect())
}

/// The rows of `left` and `right` side by side, pair by pair: `left`'s key
/// and payload, then — `right_key` — `right`'s key as an i64 column, then
/// `right`'s payload. JOIN's gather, and PRODUCT's with `right_key`.
pub(crate) fn gather_pairs(left: Rows<'_, '_>, right: Rows<'_, '_>, right_key: bool) -> Relation {
    let ((lv, li), (rv, ri)) = (left, right);
    let mut cols: Vec<Segments<'_>> =
        (0..lv.n_cols()).map(|c| vec![(Source::Col(lv.col(c)), li)]).collect();
    if right_key {
        cols.push(vec![(Source::Keys(rv.key()), ri)]);
    }
    cols.extend((0..rv.n_cols()).map(|c| vec![(Source::Col(rv.col(c)), ri)]));
    gather_columns(vec![(Source::Keys(lv.key()), li)], cols)
}

/// What a gathered column reads: a view's keys or one of its payload
/// columns, at base-row positions.
#[derive(Clone, Copy)]
enum Source<'s> {
    Keys(&'s Keys),
    Col(&'s Column),
}

/// One output column of a gather: each segment's values, appended in order.
type Segments<'s> = Vec<(Source<'s>, &'s [u32])>;

/// The gather core: the key and every payload column of the output is its
/// segments' values, appended in order — every column copied once,
/// straight from its sources. Whole columns are dealt to the workers. Each
/// buffer is reserved, not zeroed, and its worker writes it exactly once: a
/// zeroed one is zeroed first, serially, wherever the allocator recycles
/// memory rather than maps fresh pages (EXPERIMENTS.md Note 17). A payload
/// column read from keys is an i64 column.
fn gather_columns(key: Segments<'_>, cols: Vec<Segments<'_>>) -> Relation {
    let rows: usize = key.iter().map(|(_, idx)| idx.len()).sum();
    let row_bytes = (1 + cols.len() as u64) * Column::BYTES_PER_VALUE;
    kfusion_trace::counter("kfusion_host_materialized_bytes_total", rows as u64 * row_bytes);
    let mut out_key = Vec::with_capacity(rows);
    let mut out_cols: Vec<Column> = cols
        .iter()
        .map(|segments| match segments[0].0 {
            Source::Col(c) => c.empty_like_with_capacity(rows),
            Source::Keys(_) => Column::I64(Vec::with_capacity(rows)),
        })
        .collect();
    let mut tasks = vec![(Dst::Key(&mut out_key), &key)];
    tasks.extend(out_cols.iter_mut().zip(&cols).map(|(dst, segments)| (Dst::Col(dst), segments)));
    par_each(tasks, |(mut dst, segments)| {
        let _steady = kfusion_trace::allocwatch::region();
        for &(src, idx) in segments {
            match (&mut dst, src) {
                (Dst::Key(d), Source::Keys(k)) => gather_keys(k, idx, d, |k| k),
                (Dst::Col(Column::I64(d)), Source::Keys(k)) => gather_keys(k, idx, d, |k| k as i64),
                (Dst::Col(Column::I64(d)), Source::Col(Column::I64(s))) => gather_col(s, idx, d),
                (Dst::Col(Column::F64(d)), Source::Col(Column::F64(s))) => gather_col(s, idx, d),
                _ => unreachable!("output schema set from the sources"),
            }
        }
    });
    Relation { key: Keys::Stored(out_key), cols: out_cols }
}

/// Where one column of [`gather_columns`]' output goes.
enum Dst<'o> {
    Key(&'o mut Vec<u64>),
    Col(&'o mut Column),
}

/// `dst += src[idx[..]]`, into the capacity `dst` has.
fn gather_col<T: Copy>(src: &[T], idx: &[u32], dst: &mut Vec<T>) {
    dst.extend(idx.iter().map(|&i| src[i as usize]));
}

/// `dst += f(keys[idx[..]])`: stored keys read, row ids written as the
/// positions they are.
fn gather_keys<T>(keys: &Keys, idx: &[u32], dst: &mut Vec<T>, f: impl Fn(u64) -> T) {
    match keys {
        Keys::Stored(src) => dst.extend(idx.iter().map(|&i| f(src[i as usize]))),
        Keys::RowIds(_) => dst.extend(idx.iter().map(|&i| f(i as u64))),
    }
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
    match view.key() {
        Keys::Stored(keys) => scatter_col(keys, start, words, kw),
        Keys::RowIds(_) => scatter_rows(start, words, kw),
    }
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
    for_each_lane(start, words, dst, |i| src[i]);
}

/// [`scatter_col`] of the row numbers: each selected lane's own.
fn scatter_rows(start: usize, words: &[u64], dst: &mut [u64]) {
    for_each_lane(start, words, dst, |i| i as u64);
}

/// `dst[pos] = value(i)` for the `pos`-th set bit of `words`, at base row
/// `i` (lane 0 = `start`).
#[inline(always)]
fn for_each_lane<T>(start: usize, words: &[u64], dst: &mut [T], value: impl Fn(usize) -> T) {
    let mut pos = 0;
    for (w, &word) in words.iter().enumerate() {
        let base = start + w * 64;
        let mut m = word;
        while m != 0 {
            dst[pos] = value(base + m.trailing_zeros() as usize);
            pos += 1;
            m &= m - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_ir::batch::mask_lane;

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
        assert_eq!(v.as_stored(), Some(&r));
        assert_eq!(materialize(v), r);
    }

    #[test]
    fn unshared_intermediate_is_handed_over_not_copied() {
        let r = rel(100);
        let ptr = r.keys().stored().unwrap().as_ptr();
        let out = materialize(View::from(r));
        assert_eq!(out.keys().stored().unwrap().as_ptr(), ptr);
    }

    /// A view over intermediates nothing else holds moves their columns —
    /// computed ones and rearranged ones, a column listed twice cloned once —
    /// and one shared handle anywhere else makes it copy instead.
    #[test]
    fn a_view_that_alone_holds_its_storage_moves_it() {
        let input = Arc::new(rel(100));
        let (key, ints) =
            (input.keys().stored().unwrap().as_ptr(), input.cols[0].as_i64().unwrap().as_ptr());
        let computed = vec![Column::I64((0..100).collect())];
        let view = View::shared(input).with_columns(&[1, 0, 0]).with_computed(computed);
        let want = materialize(view.clone());
        let moved = materialize(view);
        assert_eq!(moved, want);
        assert_eq!(moved.keys().stored().unwrap().as_ptr(), key);
        assert_eq!(moved.cols[1].as_i64().unwrap().as_ptr(), ints);
        assert_ne!(moved.cols[2].as_i64().unwrap().as_ptr(), ints);

        let shared = Arc::new(rel(100));
        let view = View::shared(Arc::clone(&shared)).with_computed(vec![Column::I64(vec![0; 100])]);
        let stored = |r: &Relation| r.keys().stored().unwrap().as_ptr();
        assert_ne!(stored(&materialize(view)), stored(&shared));
    }

    #[test]
    fn rekeyed_views_take_their_key_and_lose_the_column() {
        let r = rel(200);
        let (sel, rows) = every_third(200);
        let v =
            View::of(&r).with_selection(sel, rows).with_key(Keys::Stored((0..200).rev().collect()));
        let out = materialize(v.with_columns(&[1]));
        assert_eq!(out.n_cols(), 1);
        assert_eq!(out.keys().stored().unwrap()[..3], [199, 196, 193]);
        assert_eq!(out.cols[0].as_f64().unwrap()[1], 1.5);
    }

    /// A range that ends inside a bitmap word visits no row at or past its
    /// end, even where every row is selected.
    #[test]
    fn a_row_walk_stops_at_the_end_of_its_range() {
        let r = rel(200);
        let full = View::of(&r).with_selection(vec![u64::MAX, u64::MAX, u64::MAX, 0xFF], 200);
        for range in [0..70, 64..100, 0..128, 128..200, 128..129, 0..0] {
            let mut seen = Vec::new();
            full.for_each_row(range.clone(), |i| seen.push(i));
            assert_eq!(seen, range.clone().collect::<Vec<_>>(), "{range:?}");
        }
        let (sel, rows) = every_third(200);
        let mut seen = Vec::new();
        View::of(&r).with_selection(sel, rows).for_each_row(64..131, |i| seen.push(i));
        assert_eq!(seen, (66..131).step_by(3).collect::<Vec<_>>());
    }

    /// Each batch a walk hands its body: its rows, how many of them the
    /// view selects (`None` when dense), and the kernel's mask over them.
    type Seen = Vec<(Range<usize>, Option<u32>, Option<u32>)>;

    fn walked(view: &View<'_>, rows: Range<usize>, kernel: Option<Bound<'_>>) -> Seen {
        let mut seen = Vec::new();
        walk(view, rows, kernel, |b| {
            let live = b.words.map(|w| w.iter().map(|w| w.count_ones()).sum());
            let kept = kernel.map(|_| match b.output(0) {
                BankView::Bool(m) => (0..b.rows.len()).filter(|&j| mask_lane(m, j)).count() as u32,
                _ => unreachable!("a predicate"),
            });
            seen.push((b.rows.clone(), live, kept));
        });
        seen
    }

    /// The walk visits each batch with a live row once, in order, and no
    /// other; it runs the kernel for exactly those — the binding below ends
    /// where the last dead batch starts, so running it there would panic.
    #[test]
    fn a_walk_runs_the_kernel_on_every_live_batch_once_in_order() {
        let n = 4 * BATCH_ROWS;
        let r = Relation::from_keys((0..n as u64).collect());
        // Batches 0 and 2 hold a live row each, batches 1 and 3 none.
        let mut sel = vec![0u64; n / 64];
        sel[0] = 0b101;
        sel[2 * BATCH_ROWS / 64 + 3] = 1 << 63;
        let filtered = View::of(&r).with_selection(sel, 3);
        let k = CompiledKernel::compile(&crate::predicates::key_lt(2), &filtered.ir_slot_types())
            .unwrap();
        let keys: Vec<u64> = (0..n as u64).collect();
        let cols = [ColRef::KeyU64(&keys[..3 * BATCH_ROWS])];
        let kernel = Some(Bound { kernel: &k, cols: &cols });
        let b = BATCH_ROWS;
        assert_eq!(
            walked(&filtered, 0..n, kernel),
            [(0..b, Some(2), Some(2)), (2 * b..3 * b, Some(1), Some(0))]
        );
        // A dense view: every batch, its words `None`.
        let cols = [ColRef::KeyU64(&keys)];
        let dense = walked(&View::of(&r), 0..n, Some(Bound { kernel: &k, cols: &cols }));
        let want: Seen =
            (0..4).map(|i| (i * b..(i + 1) * b, None, Some(2 * (i == 0) as u32))).collect();
        assert_eq!(dense, want);
    }

    /// A walk over a range that ends inside a selection word hands over no
    /// lane at or past its end, even where every row is selected.
    #[test]
    fn a_walk_stops_at_the_end_of_its_range() {
        let n = 3 * BATCH_ROWS;
        let r = Relation::from_keys((0..n as u64).collect());
        let full = View::of(&r).with_selection(vec![u64::MAX; n / 64], n);
        let end = 2 * BATCH_ROWS + 100;
        let seen = walked(&full, BATCH_ROWS..end, None);
        let b = BATCH_ROWS;
        assert_eq!(seen, [(b..2 * b, Some(b as u32), None), (2 * b..end, Some(100), None)]);
        assert_eq!(walked(&full, 0..70, None), [(0..70, Some(70), None)]);
        assert_eq!(walked(&View::of(&r), 64..70, None), [(64..70, None, None)]);
        assert!(walked(&full, 128..128, None).is_empty());
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
        assert_eq!(*out.keys(), want);
        assert_eq!(out.cols[0].as_i64().unwrap()[5], 150);
        assert_eq!(out.cols[1].as_f64().unwrap()[5], 7.5);
    }

    #[test]
    fn rearranged_columns_materialize_from_their_sources() {
        let (a, b) = (rel(10), rel(10));
        let v = View::of(&a).with_columns(&[1]).with_columns_of(&View::of(&b).with_columns(&[0]));
        assert!(v.as_stored().is_none());
        let out = materialize(v);
        assert_eq!(out.n_cols(), 2);
        assert_eq!(out.cols[0], a.cols[1]);
        assert_eq!(out.cols[1], b.cols[0]);
    }

    #[test]
    fn gather_reads_base_positions_from_every_source() {
        let n = 3 * 4096 + 5;
        let (a, b) = (rel(n as u64), rel(n as u64));
        let v = View::of(&a).with_columns(&[1]).with_columns_of(&View::of(&b).with_columns(&[0]));
        let idx: Vec<u32> = (0..n as u32).rev().step_by(2).collect();
        let out = gather(&v, &idx);
        assert_eq!(out.len(), idx.len());
        assert_eq!(out.keys().stored().unwrap()[..2], [n as u64 - 1, n as u64 - 3]);
        assert_eq!(out.cols[0].as_f64().unwrap()[1], (n - 3) as f64 * 0.5);
        assert_eq!(out.cols[1].as_i64().unwrap()[1], (n as i64 - 3) * 10);
    }
}
