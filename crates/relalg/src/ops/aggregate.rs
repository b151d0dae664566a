//! AGGREGATION: group by key, reduce payload columns.
//!
//! TPC-H Q1's tail is exactly this — sums, averages, and counts per
//! `(returnflag, linestatus)` group — and Q21 decides its EXISTS / NOT
//! EXISTS with grouped MIN/MAX over 300 k orders. Callers pack compound
//! group attributes into the key with [`pack_key2`]. The paper's plans
//! SORT before aggregating (Fig. 17), and the fold takes one of two shapes,
//! both columnar:
//!
//! * **runs** — input in key order (which is checked) is a segmented fold:
//!   a group is a run of equal keys. The input is cut into morsels that end
//!   on run boundaries; per morsel the runs are found once ([`run_starts`]),
//!   then each aggregate makes one typed pass over its own column
//!   ([`fold_runs`]) and writes one value per run into that morsel's window
//!   of the output.
//! * **groups** — a view a SORT by key grouped instead of sorting
//!   ([`crate::ops::group_by_key_view`]) is in no key order, but each key's
//!   rows are in the order the sorted rows would be. Each row is folded, in
//!   that order, into its group's slot of each aggregate's output column;
//!   the aggregates that fold alike (all of Q1's are f64 sums) share one
//!   typed walk over the selected rows ([`fold_lanes`]). The aggregates,
//!   never the rows, are dealt to the workers.
//!
//! Either way every group is folded left to right from the aggregate's
//! identity, so each float sum, wrapping integer sum and `min`/`max` is bit
//! for bit what a row-at-a-time scan of the sorted input produces, however
//! many morsels or threads there are.
//!
//! The input is a [`View`]: only the key and the columns the aggregates
//! name are read, where they already are — a PROJECT in front of an
//! AGGREGATE inside one fused kernel copies nothing (DESIGN.md §17).

use crate::data::{
    col_windows, par_each, resize_zeroed_vec, slice_windows, ColWindow, Column, RelError, Relation,
};
use crate::view::{Groups, View};
use kfusion_vgpu::exec::{par_range_map, workers, DEFAULT_CTA_CHUNK};
use std::ops::Range;

/// One aggregate over a payload column (or over the rows themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Sum of column `c` (result type = column type; i64 sums wrap).
    Sum(usize),
    /// Count of rows in the group (i64).
    Count,
    /// Minimum of column `c`.
    Min(usize),
    /// Maximum of column `c`.
    Max(usize),
    /// Arithmetic mean of column `c` (always f64).
    Avg(usize),
}

impl Agg {
    fn col(&self) -> Option<usize> {
        match self {
            Agg::Sum(c) | Agg::Min(c) | Agg::Max(c) | Agg::Avg(c) => Some(*c),
            Agg::Count => None,
        }
    }
}

/// Pack two small group attributes into one key (16 bits each is ample for
/// flags/statuses).
pub fn pack_key2(a: u64, b: u64) -> u64 {
    (a << 16) | (b & 0xFFFF)
}

/// Unpack a [`pack_key2`] key.
pub fn unpack_key2(k: u64) -> (u64, u64) {
    (k >> 16, k & 0xFFFF)
}

/// The (empty) output column of `agg` over `input`, whose columns
/// [`validate_agg_cols`] has checked.
fn out_column(agg: Agg, input: &View<'_>) -> Column {
    match agg {
        Agg::Count => Column::I64(Vec::new()),
        Agg::Avg(_) => Column::F64(Vec::new()),
        Agg::Sum(c) | Agg::Min(c) | Agg::Max(c) => input.col(c).empty_like(),
    }
}

fn validate_agg_cols(input: &View<'_>, aggs: &[Agg]) -> Result<(), RelError> {
    match aggs.iter().filter_map(Agg::col).find(|&c| c >= input.n_cols()) {
        Some(col) => Err(RelError::NoSuchColumn { col, available: input.n_cols() }),
        None => Ok(()),
    }
}

/// Give `out` the aggregate schema with `rows` zeroed rows per column,
/// keeping its buffers where the column types already match.
fn shape_output(input: &View<'_>, aggs: &[Agg], rows: usize, out: &mut Relation) {
    let fresh: Vec<Column> = aggs.iter().map(|&a| out_column(a, input)).collect();
    if out.cols.len() != fresh.len() || out.cols.iter().zip(&fresh).any(|(o, f)| !o.same_type(f)) {
        out.cols = fresh;
    }
    resize_zeroed_vec(out.key.buffer_mut(), rows);
    for c in &mut out.cols {
        c.resize_zeroed(rows);
    }
}

/// Split `0..keys.len()` into ~`chunk`-row morsels whose boundaries sit on
/// key-run boundaries, so every group lands wholly inside one morsel and
/// per-group accumulation order (hence float summation order) is exactly
/// the serial scan's. No rows, no morsels.
fn group_aligned_ranges(keys: &[u64], chunk: usize) -> Vec<Range<usize>> {
    let n = keys.len();
    if n == 0 {
        return Vec::new();
    }
    let mut bounds = vec![0usize];
    loop {
        let start = *bounds.last().unwrap();
        let tentative = start + chunk;
        if tentative >= n {
            break;
        }
        // Snap forward past the run of the key straddling the cut.
        let run_key = keys[tentative - 1];
        let end = keys.partition_point(|&x| x <= run_key).max(tentative);
        if end >= n {
            break;
        }
        bounds.push(end);
    }
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The runs of equal keys in the non-empty `range`: run `g` is rows
/// `starts[g]..starts[g + 1]`. Counted first — in the scan that also checks
/// the rows are in key order, the one before `range` included — so the list
/// is allocated once at its final size, then filled without a branch per
/// row: every row writes its index into the next open slot and only a key
/// change moves on.
fn run_starts(keys: &[u64], range: Range<usize>) -> Result<Vec<usize>, RelError> {
    let morsel = &keys[range.clone()];
    let (mut runs, mut inversions) = (1, 0);
    for w in morsel.windows(2) {
        runs += (w[0] != w[1]) as usize;
        inversions += (w[0] > w[1]) as usize;
    }
    if inversions > 0 || range.start > 0 && keys[range.start - 1] > keys[range.start] {
        return Err(RelError::NotSorted);
    }
    let mut starts = vec![range.start; runs + 1];
    let mut open = 1;
    for (i, w) in morsel.windows(2).enumerate() {
        starts[open] = range.start + i + 1;
        open += (w[0] != w[1]) as usize;
    }
    starts[runs] = range.end;
    Ok(starts)
}

/// One aggregate's pass over one morsel — `keys` and `vals` are its rows,
/// `dst` has a slot per run: fold every run left to right from `init` and
/// leave `finish(fold)` in the run's slot. Runs are a few rows long as
/// often as a few hundred thousand (Q21's orders, Q1's flags), so there is
/// no loop per run to mispredict: every row restarts or extends the fold by
/// a select and stores it, and a run's last row stores last. A morsel that
/// is a single run — all AGGREGATE-ALL ever has, whatever its keys — is
/// folded outright.
fn fold_runs<T: Copy, A: Copy, U>(
    keys: &[u64],
    vals: &[T],
    dst: &mut [U],
    init: A,
    step: impl Fn(A, T) -> A,
    finish: impl Fn(A) -> U,
) {
    if let [only] = dst {
        *only = finish(vals.iter().fold(init, |acc, &v| step(acc, v)));
        return;
    }
    let (mut run, mut acc, mut prev) = (0, init, keys[0]);
    for (&key, &v) in keys.iter().zip(vals) {
        let fresh = key != prev;
        run += fresh as usize;
        acc = step(if fresh { init } else { acc }, v);
        dst[run] = finish(acc);
        prev = key;
    }
}

/// Compute `agg` into `dst`, one slot per run of the morsel `starts`
/// delimits; `keys` are the morsel's (a morsel of one run reads none). The
/// identities and the operand order are the row-at-a-time fold's, which the
/// tests keep as the oracle.
fn fold_agg(agg: Agg, input: &View<'_>, keys: &[u64], starts: &[usize], dst: ColWindow<'_>) {
    let rows = starts[0]..starts[starts.len() - 1];
    let lens = || starts.windows(2).map(|run| run[1] - run[0]);
    let fsum = |acc: f64, v: f64| acc + v;
    match (agg, agg.col().map(|c| input.col(c)), dst) {
        (Agg::Count, None, ColWindow::I64(d)) => {
            for (slot, len) in d.iter_mut().zip(lens()) {
                *slot = len as i64;
            }
        }
        (Agg::Sum(_), Some(Column::I64(v)), ColWindow::I64(d)) => {
            fold_runs(keys, &v[rows], d, 0, i64::wrapping_add, |sum| sum)
        }
        (Agg::Sum(_), Some(Column::F64(v)), ColWindow::F64(d)) => {
            fold_runs(keys, &v[rows], d, 0.0, fsum, |sum| sum)
        }
        (Agg::Min(_), Some(Column::I64(v)), ColWindow::I64(d)) => {
            fold_runs(keys, &v[rows], d, i64::MAX, i64::min, |min| min)
        }
        (Agg::Min(_), Some(Column::F64(v)), ColWindow::F64(d)) => {
            fold_runs(keys, &v[rows], d, f64::INFINITY, f64::min, |min| min)
        }
        (Agg::Max(_), Some(Column::I64(v)), ColWindow::I64(d)) => {
            fold_runs(keys, &v[rows], d, i64::MIN, i64::max, |max| max)
        }
        (Agg::Max(_), Some(Column::F64(v)), ColWindow::F64(d)) => {
            fold_runs(keys, &v[rows], d, f64::NEG_INFINITY, f64::max, |max| max)
        }
        // The mean is the sum — an integer one converted last — over the
        // run length.
        (Agg::Avg(_), Some(col), ColWindow::F64(d)) => {
            match col {
                Column::I64(v) => {
                    fold_runs(keys, &v[rows], d, 0, i64::wrapping_add, |sum| sum as f64)
                }
                Column::F64(v) => fold_runs(keys, &v[rows], d, 0.0, fsum, |sum| sum),
            }
            for (slot, len) in d.iter_mut().zip(lens()) {
                *slot /= len as f64;
            }
        }
        _ => unreachable!("output schema set from the aggregates"),
    }
}

/// One morsel of the fold: its runs, and its windows of the output.
struct Morsel<'o> {
    starts: Vec<usize>,
    key: &'o mut [u64],
    cols: Vec<ColWindow<'o>>,
}

impl Morsel<'_> {
    fn fold(self, input: &View<'_>, keys: &[u64], aggs: &[Agg]) {
        let _steady = kfusion_trace::allocwatch::region();
        for (slot, &start) in self.key.iter_mut().zip(&self.starts) {
            *slot = keys[start];
        }
        let rows = self.starts[0]..self.starts[self.starts.len() - 1];
        for (&agg, dst) in aggs.iter().zip(self.cols) {
            fold_agg(agg, input, &keys[rows.clone()], &self.starts, dst);
        }
    }
}

/// One aggregate folded by group: the values it reads, its output column —
/// a slot per group, which is the accumulator — and whether it ends as the
/// mean.
struct Lane<'a, T, A> {
    vals: &'a [T],
    acc: &'a mut [A],
    mean: bool,
}

/// The lanes of a grouped fold, by how they fold: an AVG of f64s is their
/// sum, and an AVG of i64s wraps its sum in the bits of its f64 slot until
/// it is converted, last.
#[derive(Default)]
struct Lanes<'a> {
    sum_i: Vec<Lane<'a, i64, i64>>,
    sum_f: Vec<Lane<'a, f64, f64>>,
    avg_i: Vec<Lane<'a, i64, f64>>,
    min_i: Vec<Lane<'a, i64, i64>>,
    min_f: Vec<Lane<'a, f64, f64>>,
    max_i: Vec<Lane<'a, i64, i64>>,
    max_f: Vec<Lane<'a, f64, f64>>,
}

/// Walk `input`'s selected rows once, in base-row order, folding each
/// row's value in every lane into its group's slot (`of_keys[key - lo]`)
/// from `init` with `step` — the identities and the operand order of
/// [`fold_agg`] — then `finish` each mean's slots with their group's size.
/// The lanes' folds are independent, so one row's steps overlap.
fn fold_lanes<T: Copy, A: Copy>(
    input: &View<'_>,
    groups: &Groups,
    lanes: &mut [Lane<'_, T, A>],
    init: A,
    step: impl Fn(A, T) -> A,
    finish: impl Fn(A, u32) -> A,
) {
    let _steady = kfusion_trace::allocwatch::region();
    let keys = input.key().as_slice();
    let ((of_keys, lo), keys) = (groups.of_keys(), &keys[..]);
    lanes.iter_mut().for_each(|lane| lane.acc.fill(init));
    input.for_each_row(0..input.base_len(), |i| {
        let g = of_keys[(keys[i] - lo) as usize] as usize;
        for lane in lanes.iter_mut() {
            lane.acc[g] = step(lane.acc[g], lane.vals[i]);
        }
    });
    for lane in lanes.iter_mut().filter(|lane| lane.mean) {
        for (slot, &size) in lane.acc.iter_mut().zip(groups.sizes()) {
            *slot = finish(*slot, size);
        }
    }
}

/// [`fold_lanes`] over lanes that fold alike, dealt to the workers in
/// contiguous shares — each lane whole: splitting its rows would
/// reassociate its sums.
fn fold_alike<T: Copy + Sync, A: Copy + Send + Sync>(
    input: &View<'_>,
    groups: &Groups,
    lanes: Vec<Lane<'_, T, A>>,
    init: A,
    step: impl Fn(A, T) -> A + Sync,
    finish: impl Fn(A, u32) -> A + Sync,
) {
    let per_share = lanes.len().div_ceil(workers()).max(1);
    let mut lanes = lanes.into_iter().peekable();
    let mut shares = Vec::new();
    while lanes.peek().is_some() {
        shares.push(lanes.by_ref().take(per_share).collect::<Vec<_>>());
    }
    par_each(shares, |mut share| fold_lanes(input, groups, &mut share, init, &step, &finish));
}

/// A fold's result as it stands, whatever the group's size.
fn kept<A>(acc: A, _size: u32) -> A {
    acc
}

/// [`aggregate_by_key_view`] over a view that carries its groups: one row
/// per group, in key order. Aggregates that fold alike share a walk over
/// the selected rows.
fn fold_by_group(input: &View<'_>, groups: &Groups, aggs: &[Agg]) -> Result<Relation, RelError> {
    validate_agg_cols(input, aggs)?;
    kfusion_trace::counter("kfusion_rows_in_total{op=\"aggregate\"}", input.len() as u64);
    let mut out = Relation::default();
    shape_output(input, aggs, groups.len(), &mut out);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"aggregate\"}", out.len() as u64);
    out.key.buffer_mut().iter_mut().zip(groups.keys()).for_each(|(slot, key)| *slot = key);
    let cols = col_windows(&mut out.cols, &[groups.len()]).pop().expect("one window asked for");
    let mut by = Lanes::default();
    for (&agg, dst) in aggs.iter().zip(cols) {
        let mean = matches!(agg, Agg::Avg(_));
        match (agg, agg.col().map(|c| input.col(c)), dst) {
            (Agg::Count, None, ColWindow::I64(d)) => {
                d.iter_mut().zip(groups.sizes()).for_each(|(slot, &size)| *slot = size as i64)
            }
            (Agg::Sum(_), Some(Column::I64(vals)), ColWindow::I64(acc)) => {
                by.sum_i.push(Lane { vals, acc, mean })
            }
            (Agg::Sum(_) | Agg::Avg(_), Some(Column::F64(vals)), ColWindow::F64(acc)) => {
                by.sum_f.push(Lane { vals, acc, mean })
            }
            (Agg::Avg(_), Some(Column::I64(vals)), ColWindow::F64(acc)) => {
                by.avg_i.push(Lane { vals, acc, mean })
            }
            (Agg::Min(_), Some(Column::I64(vals)), ColWindow::I64(acc)) => {
                by.min_i.push(Lane { vals, acc, mean })
            }
            (Agg::Min(_), Some(Column::F64(vals)), ColWindow::F64(acc)) => {
                by.min_f.push(Lane { vals, acc, mean })
            }
            (Agg::Max(_), Some(Column::I64(vals)), ColWindow::I64(acc)) => {
                by.max_i.push(Lane { vals, acc, mean })
            }
            (Agg::Max(_), Some(Column::F64(vals)), ColWindow::F64(acc)) => {
                by.max_f.push(Lane { vals, acc, mean })
            }
            _ => unreachable!("output schema set from the aggregates"),
        }
    }
    let wrapping = |acc: f64, v: i64| f64::from_bits((acc.to_bits() as i64).wrapping_add(v) as u64);
    let mean_of_wrapped = |sum: f64, size: u32| sum.to_bits() as i64 as f64 / size as f64;
    fold_alike(input, groups, by.sum_i, 0, i64::wrapping_add, kept);
    fold_alike(input, groups, by.sum_f, 0.0, |acc, v| acc + v, |sum, size| sum / size as f64);
    fold_alike(input, groups, by.avg_i, 0.0, wrapping, mean_of_wrapped);
    fold_alike(input, groups, by.min_i, i64::MAX, i64::min, kept);
    fold_alike(input, groups, by.min_f, f64::INFINITY, f64::min, kept);
    fold_alike(input, groups, by.max_i, i64::MIN, i64::max, kept);
    fold_alike(input, groups, by.max_f, f64::NEG_INFINITY, f64::max, kept);
    Ok(out)
}

/// Group the (key-sorted) input by key and compute `aggs` per group. The
/// result has one row per distinct key and one column per aggregate.
///
/// Large inputs aggregate in parallel over group-aligned morsels; because
/// no group spans a morsel boundary, the per-group fold order — and thus
/// every float sum — is bit-identical to the serial scan.
pub fn aggregate_by_key(input: &Relation, aggs: &[Agg]) -> Result<Relation, RelError> {
    aggregate_by_key_view(&View::of(input), aggs)
}

/// [`aggregate_by_key`] over a view: the key and the columns `aggs` name
/// are read in place, the view's other columns not at all. A view that
/// carries its groups ([`View::is_grouped`]) is folded by group through its
/// selection; any other with a selection is made dense first, so that a
/// group is a run of base rows.
pub fn aggregate_by_key_view(input: &View<'_>, aggs: &[Agg]) -> Result<Relation, RelError> {
    if let Some(groups) = input.groups() {
        return fold_by_group(input, groups, aggs);
    }
    let mut out = Relation::default();
    fold_by_key(input, aggs, &mut out)?;
    Ok(out)
}

/// [`aggregate_by_key`] writing into a caller-owned relation (the `_into`
/// contract, DESIGN.md §14): `out` is overwritten, reusing its key and
/// column buffers whenever they already match the aggregate schema.
pub fn aggregate_by_key_into(
    input: &Relation,
    aggs: &[Agg],
    out: &mut Relation,
) -> Result<(), RelError> {
    fold_by_key(&View::of(input), aggs, out)
}

fn fold_by_key(input: &View<'_>, aggs: &[Agg], out: &mut Relation) -> Result<(), RelError> {
    let input = &input.dense();
    let keys = input.key().as_slice();
    let keys = &keys[..];
    let ranges = group_aligned_ranges(keys, DEFAULT_CTA_CHUNK);
    // Runs first — their number is the output's size, and finding them is
    // the scan that rejects unsorted keys — then the folds, each morsel
    // into its own window of every output column.
    let starts = par_range_map(ranges.len(), 1, |cta, _| run_starts(keys, ranges[cta].clone()));
    let starts = starts.into_iter().collect::<Result<Vec<_>, _>>()?;
    validate_agg_cols(input, aggs)?;
    kfusion_trace::counter("kfusion_rows_in_total{op=\"aggregate\"}", keys.len() as u64);
    let runs: Vec<usize> = starts.iter().map(|s| s.len() - 1).collect();
    shape_output(input, aggs, runs.iter().sum(), out);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"aggregate\"}", out.len() as u64);
    let morsels = starts
        .into_iter()
        .zip(slice_windows(out.key.buffer_mut(), &runs))
        .zip(col_windows(&mut out.cols, &runs))
        .map(|((starts, key), cols)| Morsel { starts, key, cols })
        .collect();
    par_each(morsels, |m: Morsel<'_>| m.fold(input, keys, aggs));
    Ok(())
}

/// Aggregate the whole relation as a single group (no key), producing a
/// one-row relation with key 0 — the paper's plain AGGREGATION after a
/// SELECT (Fig. 2(g)): the same fold over one run, no re-keyed copy of the
/// input.
pub fn aggregate_all(input: &Relation, aggs: &[Agg]) -> Result<Relation, RelError> {
    aggregate_all_view(&View::of(input), aggs)
}

/// [`aggregate_all`] over a view, which it reads where it is, as
/// [`aggregate_by_key_view`] does — a view with a selection is made dense
/// first.
pub fn aggregate_all_view(input: &View<'_>, aggs: &[Agg]) -> Result<Relation, RelError> {
    validate_agg_cols(input, aggs)?;
    let view = &input.dense();
    kfusion_trace::counter("kfusion_rows_in_total{op=\"aggregate\"}", view.len() as u64);
    let mut out = Relation::default();
    shape_output(view, aggs, usize::from(!view.is_empty()), &mut out);
    if view.is_empty() {
        return Ok(out);
    }
    kfusion_trace::counter("kfusion_rows_out_total{op=\"aggregate\"}", 1);
    let cols = col_windows(&mut out.cols, &[1]).pop().expect("one window asked for");
    // One run: the fold reads no key.
    for (&agg, dst) in aggs.iter().zip(cols) {
        fold_agg(agg, view, &[], &[0, view.len()], dst);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_prng::Rng;

    fn sales() -> Relation {
        // key = group, col0 = i64 quantity, col1 = f64 price.
        Relation::new(
            vec![1, 1, 1, 2, 2, 5],
            vec![
                Column::I64(vec![10, 20, 30, 1, 2, 7]),
                Column::F64(vec![1.0, 2.0, 3.0, 10.0, 20.0, 5.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn grouped_sums_counts_avgs() {
        let out = aggregate_by_key(
            &sales(),
            &[Agg::Sum(0), Agg::Count, Agg::Avg(1), Agg::Min(0), Agg::Max(1)],
        )
        .unwrap();
        assert_eq!(*out.keys(), vec![1, 2, 5]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[60, 3, 7]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[3, 2, 1]);
        assert_eq!(out.cols[2].as_f64().unwrap(), &[2.0, 15.0, 5.0]);
        assert_eq!(out.cols[3].as_i64().unwrap(), &[10, 1, 7]);
        assert_eq!(out.cols[4].as_f64().unwrap(), &[3.0, 20.0, 5.0]);
    }

    #[test]
    fn unsorted_input_rejected() {
        let r = Relation::new(vec![2, 1], vec![Column::I64(vec![1, 2])]).unwrap();
        assert!(matches!(aggregate_by_key(&r, &[Agg::Count]), Err(RelError::NotSorted)));
    }

    #[test]
    fn aggregate_all_single_group() {
        let out = aggregate_all(&sales(), &[Agg::Sum(0), Agg::Count]).unwrap();
        assert_eq!(*out.keys(), vec![0]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[70]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[6]);
    }

    #[test]
    fn missing_column_is_reported() {
        for aggs in [&[Agg::Sum(9)][..], &[Agg::Count, Agg::Max(9)]] {
            let want = RelError::NoSuchColumn { col: 9, available: 2 };
            assert_eq!(aggregate_by_key(&sales(), aggs), Err(want.clone()));
            assert_eq!(aggregate_all(&sales(), aggs), Err(want));
        }
    }

    #[test]
    fn empty_input_empty_output() {
        let r = Relation::new(vec![], vec![Column::I64(vec![]), Column::F64(vec![])]).unwrap();
        let aggs = [Agg::Sum(0), Agg::Avg(0), Agg::Min(1), Agg::Count];
        for out in [aggregate_by_key(&r, &aggs).unwrap(), aggregate_all(&r, &aggs).unwrap()] {
            assert!(out.is_empty());
            assert_same_bits(&out, &oracle(&r, &aggs, true), "empty");
        }
    }

    #[test]
    fn key_packing_roundtrips() {
        for (a, b) in [(0u64, 0u64), (65, 78), (65535, 65535), (1, 0)] {
            assert_eq!(unpack_key2(pack_key2(a, b)), (a, b));
        }
        // Order matters: (a,b) and (b,a) pack differently.
        assert_ne!(pack_key2(1, 2), pack_key2(2, 1));
    }

    #[test]
    fn group_aligned_ranges_land_on_run_boundaries() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i / 90).collect();
        assert!(group_aligned_ranges(&[], 100).is_empty());
        assert_eq!(group_aligned_ranges(&keys[..100], 100), vec![0..100]);
        let ranges = group_aligned_ranges(&keys, 100);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, keys.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_ne!(keys[w[0].end - 1], keys[w[0].end], "cut inside a run");
        }
    }

    #[test]
    fn run_starts_delimit_every_run_of_a_range() {
        let keys = [7, 7, 8, 9, 9, 9, 12, 12];
        assert_eq!(run_starts(&keys, 0..8), Ok(vec![0, 2, 3, 6, 8]));
        assert_eq!(run_starts(&keys, 2..6), Ok(vec![2, 3, 6]));
        assert_eq!(run_starts(&keys, 3..4), Ok(vec![3, 4]));
        // Out of order inside the range, or against the row before it.
        assert_eq!(run_starts(&[1, 3, 2], 0..3), Err(RelError::NotSorted));
        assert_eq!(run_starts(&[5, 1, 2], 1..3), Err(RelError::NotSorted));
    }

    #[test]
    fn avg_of_i64_column_is_f64() {
        let r = Relation::new(vec![1, 1], vec![Column::I64(vec![1, 2])]).unwrap();
        let out = aggregate_by_key(&r, &[Agg::Avg(0)]).unwrap();
        assert_eq!(out.cols[0].as_f64().unwrap(), &[1.5]);
    }

    // -----------------------------------------------------------------
    // The oracle: the row-at-a-time fold this module ran before the
    // columnar one — an accumulator per aggregate, fed one row at a time,
    // flushed when the key changes (i64 sums written as the wrapping adds
    // release builds performed). The columnar fold must reproduce it bit
    // for bit.

    enum Acc {
        I64(i64),
        F64(f64),
        Count(i64),
        AvgF { sum: f64, n: u64 },
        AvgI { sum: i64, n: u64 },
    }

    fn make_acc(rel: &Relation, agg: Agg) -> Acc {
        match (agg, agg.col().map(|c| &rel.cols[c])) {
            (Agg::Count, _) => Acc::Count(0),
            (Agg::Sum(_), Some(Column::I64(_))) => Acc::I64(0),
            (Agg::Sum(_), Some(Column::F64(_))) => Acc::F64(0.0),
            (Agg::Min(_), Some(Column::I64(_))) => Acc::I64(i64::MAX),
            (Agg::Min(_), Some(Column::F64(_))) => Acc::F64(f64::INFINITY),
            (Agg::Max(_), Some(Column::I64(_))) => Acc::I64(i64::MIN),
            (Agg::Max(_), Some(Column::F64(_))) => Acc::F64(f64::NEG_INFINITY),
            (Agg::Avg(_), Some(Column::I64(_))) => Acc::AvgI { sum: 0, n: 0 },
            (Agg::Avg(_), Some(Column::F64(_))) => Acc::AvgF { sum: 0.0, n: 0 },
            _ => unreachable!("column aggregates name a column"),
        }
    }

    fn feed(acc: &mut Acc, agg: Agg, rel: &Relation, i: usize) {
        match (acc, agg) {
            (Acc::Count(n), Agg::Count) => *n += 1,
            (Acc::I64(s), Agg::Sum(c)) => *s = s.wrapping_add(rel.cols[c].as_i64().unwrap()[i]),
            (Acc::F64(s), Agg::Sum(c)) => *s += rel.cols[c].as_f64().unwrap()[i],
            (Acc::I64(s), Agg::Min(c)) => *s = (*s).min(rel.cols[c].as_i64().unwrap()[i]),
            (Acc::F64(s), Agg::Min(c)) => *s = (*s).min(rel.cols[c].as_f64().unwrap()[i]),
            (Acc::I64(s), Agg::Max(c)) => *s = (*s).max(rel.cols[c].as_i64().unwrap()[i]),
            (Acc::F64(s), Agg::Max(c)) => *s = (*s).max(rel.cols[c].as_f64().unwrap()[i]),
            (Acc::AvgI { sum, n }, Agg::Avg(c)) => {
                *sum = sum.wrapping_add(rel.cols[c].as_i64().unwrap()[i]);
                *n += 1;
            }
            (Acc::AvgF { sum, n }, Agg::Avg(c)) => {
                *sum += rel.cols[c].as_f64().unwrap()[i];
                *n += 1;
            }
            _ => unreachable!("accumulator/aggregate mismatch"),
        }
    }

    fn flush(acc: Acc, col: &mut Column) {
        match (acc, col) {
            (Acc::Count(n), Column::I64(v)) => v.push(n),
            (Acc::I64(s), Column::I64(v)) => v.push(s),
            (Acc::F64(s), Column::F64(v)) => v.push(s),
            (Acc::AvgF { sum, n }, Column::F64(v)) => v.push(sum / n as f64),
            (Acc::AvgI { sum, n }, Column::F64(v)) => v.push(sum as f64 / n as f64),
            _ => unreachable!("accumulator/column mismatch"),
        }
    }

    /// One serial scan of the whole input: per key run, or — `all` — as a
    /// single group under key 0.
    fn oracle(input: &Relation, aggs: &[Agg], all: bool) -> Relation {
        let view = View::of(input);
        let mut out = Relation {
            key: crate::data::Keys::default(),
            cols: aggs.iter().map(|&a| out_column(a, &view)).collect(),
        };
        let mut i = 0;
        while i < input.len() {
            let k = input.keys().get(i);
            let mut accs: Vec<Acc> = aggs.iter().map(|&a| make_acc(input, a)).collect();
            while i < input.len() && (all || input.keys().get(i) == k) {
                for (acc, &agg) in accs.iter_mut().zip(aggs) {
                    feed(acc, agg, input, i);
                }
                i += 1;
            }
            out.key.buffer_mut().push(if all { 0 } else { k });
            for (acc, col) in accs.into_iter().zip(out.cols.iter_mut()) {
                flush(acc, col);
            }
        }
        out
    }

    /// Compare two relations down to the bit — `==` would call NaN unequal
    /// to itself and `-0.0` equal to `0.0` — naming the first difference.
    /// One NaN is as good as another: which operand's payload `a + b` keeps
    /// is the code generator's choice, not the language's.
    #[track_caller]
    fn assert_same_bits(got: &Relation, want: &Relation, what: &str) {
        let float_bits = |v: &f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
        assert_eq!(*got.keys(), want.key, "{what}: keys");
        assert_eq!(got.n_cols(), want.n_cols(), "{what}: column count");
        for (c, pair) in got.cols.iter().zip(&want.cols).enumerate() {
            let first_diff = match pair {
                (Column::I64(g), Column::I64(w)) => g.iter().zip(w).position(|(g, w)| g != w),
                (Column::F64(g), Column::F64(w)) => {
                    g.iter().zip(w).position(|(g, w)| float_bits(g) != float_bits(w))
                }
                _ => panic!("{what}: column {c} changed type"),
            };
            if let Some(row) = first_diff {
                let at = |r: &Relation| r.cols[c].value(row);
                panic!("{what}: column {c}, group {row}: {:?}, oracle {:?}", at(got), at(want));
            }
        }
    }

    /// Every aggregate over an i64 column (0) and an f64 column (1).
    const EVERY_AGG: [Agg; 9] = [
        Agg::Sum(0),
        Agg::Sum(1),
        Agg::Min(0),
        Agg::Min(1),
        Agg::Max(0),
        Agg::Max(1),
        Agg::Avg(0),
        Agg::Avg(1),
        Agg::Count,
    ];

    /// Key-sorted rows with the given run lengths; values drawn from the
    /// awkward ones — `-0.0`, NaN, the infinities, i64 extremes whose sums
    /// wrap — as often as from ordinary ones.
    fn awkward(run_lens: impl IntoIterator<Item = usize>, seed: u64) -> Relation {
        const F: [f64; 6] = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308];
        const I: [i64; 4] = [i64::MAX, i64::MIN, i64::MAX - 1, -1];
        let mut rng = Rng::seed_from_u64(seed);
        let (mut key, mut ints, mut floats) = (Vec::new(), Vec::new(), Vec::new());
        for (g, len) in run_lens.into_iter().enumerate() {
            for _ in 0..len {
                key.push(3 * g as u64 + 1);
                ints.push(match rng.gen_range(0usize..8) {
                    k if k < I.len() => I[k],
                    _ => rng.gen_range(-1000i64..1000),
                });
                floats.push(match rng.gen_range(0usize..12) {
                    k if k < F.len() => F[k],
                    _ => rng.gen_range(-1000i64..1000) as f64 * 0.37,
                });
            }
        }
        Relation::new(key, vec![Column::I64(ints), Column::F64(floats)]).unwrap()
    }

    fn assert_matches_oracle(r: &Relation, what: &str) {
        let want = oracle(r, &EVERY_AGG, false);
        assert_same_bits(&aggregate_by_key(r, &EVERY_AGG).unwrap(), &want, what);
        // Into a buffer of another shape and size, and into a warm one.
        let mut out = sales();
        for _ in 0..2 {
            aggregate_by_key_into(r, &EVERY_AGG, &mut out).unwrap();
            assert_same_bits(&out, &want, &format!("{what}, _into"));
        }
        let all = aggregate_all(r, &EVERY_AGG).unwrap();
        assert_same_bits(&all, &oracle(r, &EVERY_AGG, true), &format!("{what}, as one group"));
    }

    #[test]
    fn columnar_fold_matches_the_row_fold_bit_for_bit() {
        crate::engine::set_scratch_poison(true);
        let mut rng = Rng::seed_from_u64(14);
        // Short runs (Q21's shape: single-row groups among them), inside
        // one morsel and across several.
        for (case, groups) in [(0u64, 1), (1, 7), (2, 5_000), (3, 60_000)] {
            let lens: Vec<usize> = (0..groups).map(|_| rng.gen_range(1usize..8)).collect();
            assert_matches_oracle(&awkward(lens, case), &format!("{groups} short runs"));
        }
        // One group spanning several morsels, between two small ones.
        let chunk = DEFAULT_CTA_CHUNK;
        assert_matches_oracle(&awkward([3, 3 * chunk + 17, 2], 4), "a run over three morsels");
        // Runs ending exactly on morsel boundaries, and one row past them.
        assert_matches_oracle(&awkward([chunk, chunk, 1, chunk - 1, 5], 5), "runs end on the cut");
        assert_matches_oracle(&awkward([chunk - 1, 2, chunk - 1, 1], 6), "runs straddle the cut");
        // Q1's shape: a handful of long runs.
        assert_matches_oracle(&awkward([90_000, 1, 120_000, 70_000], 7), "long runs");
        crate::engine::set_scratch_poison(false);
    }

    /// A view a SORT by key grouped instead of sorting folds to what its
    /// sorted rows fold to, bit for bit — a group per row, short runs,
    /// Q1's few long ones — dense or filtered, through a PROJECT, and
    /// gathered first.
    #[test]
    fn a_grouped_view_folds_as_its_sorted_rows_do() {
        use crate::ops::{group_by_key_view, project_view, select, select_view, sort, SortBy};
        let mut rng = Rng::seed_from_u64(15);
        let shapes: [(&str, Vec<usize>); 3] = [
            ("a group per row", vec![1; 5_000]),
            ("short runs", (0..3_000).map(|g| 1 + g % 7).collect()),
            ("long runs", vec![90_000, 1, 120_000, 70_000]),
        ];
        for (seed, (shape, lens)) in (16..).zip(shapes) {
            // The rows out of key order: a shuffle of the sorted table.
            let sorted = awkward(lens, seed);
            let mut order: Vec<u32> = (0..sorted.len() as u32).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let shuffled = crate::view::gather(&View::of(&sorted), &order);
            let sorted_oracle =
                |r: &Relation, aggs: &[Agg]| oracle(&sort(r, SortBy::Key).unwrap(), aggs, false);
            let pred = crate::predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Lt, 0);
            let kept = select_view(&View::of(&shuffled), &pred).unwrap();
            for (view, rows) in
                [(View::of(&shuffled), shuffled.clone()), (kept, select(&shuffled, &pred).unwrap())]
            {
                let what = format!("{shape}, {} of {} rows", rows.len(), shuffled.len());
                let grouped = group_by_key_view(&view).unwrap();
                assert!(grouped.is_grouped(), "{what}");
                let want = sorted_oracle(&rows, &EVERY_AGG);
                let got = aggregate_by_key_view(&grouped, &EVERY_AGG).unwrap();
                assert_same_bits(&got, &want, &what);
                let gathered = grouped.dense();
                assert!(gathered.is_grouped(), "{what}");
                let got = aggregate_by_key_view(&gathered, &EVERY_AGG).unwrap();
                assert_same_bits(&got, &want, &format!("{what}, gathered"));
                // PROJECT[1, 0, 1] renumbers the columns and keeps the groups.
                let projected = project_view(&grouped, &[1, 0, 1]).unwrap();
                let remapped = [Agg::Min(1), Agg::Sum(2), Agg::Avg(0), Agg::Max(1), Agg::Count];
                let aggs = [Agg::Min(0), Agg::Sum(1), Agg::Avg(1), Agg::Max(0), Agg::Count];
                let got = aggregate_by_key_view(&projected, &remapped).unwrap();
                assert_same_bits(&got, &sorted_oracle(&rows, &aggs), &format!("{what}, projected"));
            }
        }
    }

    #[test]
    fn a_view_is_aggregated_where_its_columns_are() {
        let r = awkward((0..3_000).map(|g| 1 + g % 5), 8);
        let aggs = [Agg::Min(0), Agg::Sum(1), Agg::Count];
        // PROJECT[1, 0, 1] renumbers the columns and copies nothing.
        let projected = crate::ops::project_view(&View::of(&r), &[1, 0, 1]).unwrap();
        let stored = crate::ops::project(&r, &[1, 0, 1]).unwrap();
        let remapped = [Agg::Min(1), Agg::Sum(2), Agg::Count];
        let want = oracle(&r, &aggs, false);
        assert_same_bits(&aggregate_by_key_view(&projected, &remapped).unwrap(), &want, "view");
        assert_same_bits(&aggregate_by_key(&stored, &remapped).unwrap(), &want, "stored");
        // A filtered view aggregates the rows it selects.
        let pred = crate::predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Lt, 0);
        let few = crate::ops::select_view(&View::of(&r), &pred).unwrap();
        assert!(few.selection().is_some() && !few.is_empty());
        let want = oracle(&crate::ops::select(&r, &pred).unwrap(), &aggs, false);
        assert_same_bits(&aggregate_by_key_view(&few, &aggs).unwrap(), &want, "filtered view");
        // Errors are the stored relation's.
        assert_eq!(
            aggregate_by_key_view(&projected, &[Agg::Sum(3)]),
            Err(RelError::NoSuchColumn { col: 3, available: 3 })
        );
    }
}
