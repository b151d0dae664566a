//! SORT and UNIQUE — the fusion *barriers*.
//!
//! The paper singles these out (§III-C): "SORT and UNIQUE cannot be fused
//! with any other operators", because every output element depends on the
//! whole input (dependence class (ii)). They bound fused regions in both
//! TPC-H query plans (Fig. 17).
//!
//! A barrier still does only the work its input requires. SORT reads a
//! [`View`] where it is — a fused group in front of it hands over its
//! filtered, re-keyed columns without gathering them — and ranks only the
//! rows the view selects. One scan of the rank finds its range and whether
//! it is already non-decreasing, and picks one of three paths, two of
//! which keep the rows where they are:
//!
//! * **ordered** — a stable sort of a non-decreasing rank is the identity,
//!   so the input *is* the output. This is what TPC-H Q21 takes: lineitem
//!   is clustered on orderkey and SELECT / SEMIJOIN keep row order, so the
//!   SORTs Fig. 17(b) puts in front of each merge join have nothing to do.
//!   [`sort_view`] then hands the view itself on, and a view that is
//!   exactly a stored intermediate is shared, not copied.
//! * **grouped** — a SORT by key that only a keyed AGGREGATE reads —
//!   through views, which the plan executor decides — need not order
//!   anything: the AGGREGATE needs each key's rows together, not the keys
//!   in order. [`group_by_key_view`] stops after the scan and hands the
//!   view on unmoved, carrying the range of its selected keys; the
//!   AGGREGATE numbers the groups as it folds them.
//! * **radix** — everything else: one stable LSD radix sort of `u32`
//!   base-row positions, the partition → buffer → gather skeleton of the
//!   paper's operators. Each pass is a per-morsel histogram, one prefix sum
//!   and a per-morsel deal into windows of its own; a narrow rank range
//!   (Q1's four packed group codes span 131 074 ranks) takes one pass, a
//!   counting sort, and a wide one a pass per 8-bit digit. Its buffers come
//!   from the thread-local [`crate::scratch`], and it ends in the one
//!   gather: every column copied once, from wherever the view's columns
//!   are, into the sorted relation.
//!
//! Every loop that reads ranks off the view — the scan, the first pass's
//! histograms and deal — is compiled once per kind of rank (`with_rank!`),
//! with no `match` per row, and walks a full selection word as a
//! contiguous run of rows.
//!
//! None of this reaches the sim clock: `kfusion_core::cost` prices every
//! SORT as the bitonic network's `log²n` read+write passes
//! ([`bitonic_sort`], [`bitonic_pass_count`]), which is what makes it ~71%
//! of the un-optimized Q1 runtime as the paper reports.
//!
//! UNIQUE marks the first row of every run of equal tuples in a selection
//! bitmap, column at a time, and gathers through [`crate::view`] like every
//! other filtering operator.

use crate::data::{par_each, Column, Keys, RelError, Relation};
use crate::scratch::with_scratch;
use crate::view::{gather, materialize, Groups, View};
use kfusion_ir::batch::Scratch;
use kfusion_vgpu::exec::{cta_ranges, par_range_map, workers};
use std::ops::Range;

/// What to order by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortBy {
    /// The tuple key.
    Key,
    /// An i64 payload column (tuples reordered; keys carried along).
    I64Col(usize),
    /// An f64 payload column, in `f64::total_cmp` order (so `-0.0 < 0.0`
    /// and NaNs sort deterministically at the extremes).
    F64Col(usize),
    /// The tuple key, descending.
    KeyDesc,
    /// An i64 payload column, descending.
    I64ColDesc(usize),
    /// An f64 payload column, descending (`f64::total_cmp` order reversed).
    F64ColDesc(usize),
}

impl SortBy {
    /// The payload column this sort keys on, if any.
    pub fn col(&self) -> Option<usize> {
        match self {
            SortBy::Key | SortBy::KeyDesc => None,
            SortBy::I64Col(c)
            | SortBy::F64Col(c)
            | SortBy::I64ColDesc(c)
            | SortBy::F64ColDesc(c) => Some(*c),
        }
    }

    /// Whether the order is descending.
    pub fn descending(&self) -> bool {
        matches!(self, SortBy::KeyDesc | SortBy::I64ColDesc(_) | SortBy::F64ColDesc(_))
    }
}

/// Order-preserving map f64 -> u64 matching [`f64::total_cmp`]: flip all
/// bits of negatives, flip only the sign bit of non-negatives.
fn f64_rank(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1 << 63)
    }
}

/// The u64 a sort orders base row `i` by, read off the column where it is.
/// Ranks are ascending; a descending sort inverts the bits (stability ties
/// still break by ascending position, which is what a stable descending SQL
/// sort does). Read through [`with_rank!`], never row by row.
#[derive(Clone, Copy)]
enum Rank<'v> {
    Key(&'v [u64], u64),
    /// Keys that are the row numbers.
    RowId(u64),
    I64(&'v [i64], u64),
    F64(&'v [f64], u64),
}

impl<'v> Rank<'v> {
    fn of(input: &'v View<'_>, by: SortBy) -> Result<Self, RelError> {
        let flip = if by.descending() { u64::MAX } else { 0 };
        let col = |c: usize| match c < input.n_cols() {
            true => Ok(input.col(c)),
            false => Err(RelError::NoSuchColumn { col: c, available: input.n_cols() }),
        };
        Ok(match by {
            SortBy::Key | SortBy::KeyDesc => match input.key() {
                Keys::Stored(keys) => Rank::Key(keys, flip),
                Keys::RowIds(_) => Rank::RowId(flip),
            },
            SortBy::I64Col(c) | SortBy::I64ColDesc(c) => {
                Rank::I64(col(c)?.as_i64().ok_or(RelError::SchemaMismatch)?, flip)
            }
            SortBy::F64Col(c) | SortBy::F64ColDesc(c) => {
                Rank::F64(col(c)?.as_f64().ok_or(RelError::SchemaMismatch)?, flip)
            }
        })
    }
}

/// Run `$body` with `$at` a closure from a base row to its [`Rank`] — a
/// closure type of its own for each kind of rank, so every loop over rows
/// in `$body` is compiled once per kind and matches on none.
macro_rules! with_rank {
    ($rank:expr, |$at:ident| $body:expr) => {
        match $rank {
            Rank::Key(keys, flip) => {
                let $at = |i: usize| keys[i] ^ flip;
                $body
            }
            Rank::RowId(flip) => {
                let $at = |i: usize| i as u64 ^ flip;
                $body
            }
            // Order-preserving map i64 -> u64 so one comparator serves both.
            Rank::I64(vals, flip) => {
                let $at = |i: usize| (vals[i] as u64 ^ (1 << 63)) ^ flip;
                $body
            }
            Rank::F64(vals, flip) => {
                let $at = |i: usize| f64_rank(vals[i]) ^ flip;
                $body
            }
        }
    };
}

/// What one scan of a morsel's selected ranks finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scan {
    rows: usize,
    lo: u64,
    hi: u64,
    first: u64,
    last: u64,
    /// Whether some selected rank is below the one before it.
    inverted: bool,
}

impl Scan {
    /// The scan of `input`'s selected ranks in `range`, which starts on a
    /// selection word: one walk, a full word as a contiguous run of rows.
    fn of(input: &View<'_>, rank: Rank<'_>, range: Range<usize>) -> Scan {
        let _steady = kfusion_trace::allocwatch::region();
        with_rank!(rank, |at| {
            let (mut rows, mut lo, mut hi, mut first, mut last, mut inverted) =
                (0, u64::MAX, 0, 0, 0, false);
            input.for_each_row(range, |i| {
                let r = at(i);
                if rows == 0 {
                    first = r;
                }
                // `last` starts at 0, which no rank is below.
                inverted |= r < last;
                (lo, hi, last, rows) = (lo.min(r), hi.max(r), r, rows + 1);
            });
            Scan { rows, lo, hi, first, last, inverted }
        })
    }

    /// The scan of `input`'s selected ranks, one morsel of `morsels` per
    /// worker; `None` when it has no base rows.
    fn all(input: &View<'_>, rank: Rank<'_>, morsels: &[Range<usize>]) -> Option<Scan> {
        let chunk = morsels.first().map_or(1, Range::len);
        let scans = par_range_map(input.base_len(), chunk, |_, range| Scan::of(input, rank, range));
        ranks_read(input.len());
        scans.into_iter().reduce(Scan::then)
    }

    /// How many buckets a counting sort of the scanned ranks takes, if that
    /// is few enough: the histograms must stay O(n) (+ a fixed floor so
    /// tiny inputs with moderate ranges still qualify).
    fn counting_buckets(&self) -> Option<usize> {
        let buckets = (self.hi - self.lo).saturating_add(1);
        (buckets < 4 * self.rows as u64 + 65_536).then_some(buckets as usize)
    }

    /// The scan of `self`'s rows followed by `next`'s.
    fn then(self, next: Scan) -> Scan {
        match (self.rows, next.rows) {
            (0, _) => next,
            (_, 0) => self,
            _ => Scan {
                rows: self.rows + next.rows,
                lo: self.lo.min(next.lo),
                hi: self.hi.max(next.hi),
                first: self.first,
                last: next.last,
                inverted: self.inverted || next.inverted || next.first < self.last,
            },
        }
    }
}

/// SORT without the copy of what is in order already: `input`'s tuples in
/// the stable order of `by`. Ordered input comes back as the view it is —
/// nothing ranked, nothing moved; otherwise the sorted rows are gathered,
/// once, into storage of their own.
pub fn sort_view<'a>(input: &View<'a>, by: SortBy) -> Result<View<'a>, RelError> {
    if by == SortBy::Key && input.key().is_row_ids() {
        // The selected rows' keys are their ascending row numbers.
        return Ok(ordered(input));
    }
    let rank = Rank::of(input, by)?;
    let morsels = worker_ranges(input.base_len());
    Ok(sorted(input, rank, &morsels, Scan::all(input, rank, &morsels)))
}

/// SORT by key for a keyed AGGREGATE that alone reads its rows: their
/// groups in place of their order, when the key range is narrow enough to
/// count. The scan that would pick the sorting path is all it does: the
/// view comes back unmoved, carrying the range of its selected keys
/// ([`View::is_grouped`]), and the AGGREGATE numbers the groups as it
/// folds them. It folds each row into its group in the order the rows are
/// in, which, a SORT being stable, is the order the sorted rows of one key
/// would be in — so it computes what it would have over the sorted rows,
/// bit for bit. Input in key order already, or keys too far apart to
/// count, takes [`sort_view`]'s path.
pub fn group_by_key_view<'a>(input: &View<'a>) -> Result<View<'a>, RelError> {
    if input.key().is_row_ids() {
        return sort_view(input, SortBy::Key);
    }
    let rank = Rank::of(input, SortBy::Key)?;
    let morsels = worker_ranges(input.base_len());
    let scan = Scan::all(input, rank, &morsels);
    match scan.filter(|s| s.inverted).and_then(|s| Some((s.lo, s.counting_buckets()?))) {
        Some((lo, buckets)) => {
            kfusion_trace::counter("kfusion_sort_grouped_total", 1);
            Ok(input.with_groups(Groups { lo, buckets }))
        }
        None => Ok(sorted(input, rank, &morsels, scan)),
    }
}

/// `input` in the stable order of `rank`, given its [`Scan`]: itself when
/// it is in that order, otherwise its rows gathered once into storage of
/// their own.
fn sorted<'a>(
    input: &View<'a>,
    rank: Rank<'_>,
    morsels: &[Range<usize>],
    scan: Option<Scan>,
) -> View<'a> {
    let mut buf = with_scratch(Scratch::idx_buf);
    let sorted = match sort_positions(input, rank, morsels, scan, &mut buf) {
        Some(n) => View::from(gather(input, &buf[..n])),
        None => ordered(input),
    };
    with_scratch(|s| s.put_idx_buf(buf));
    sorted
}

/// Count a pass over the ranks of `rows` selected rows: how often a SORT
/// reads its keys (or the column it orders by) shows in
/// `kfusion_sort_ranks_read_total`. The scan adds `n`, and every radix
/// pass `2n` (its histograms and its deal), the digit passes after the
/// first reading the ranks the pass before wrote.
fn ranks_read(rows: usize) {
    kfusion_trace::counter("kfusion_sort_ranks_read_total", rows as u64);
}

/// `input`, which is in the order asked for already.
fn ordered<'a>(input: &View<'a>) -> View<'a> {
    kfusion_trace::counter("kfusion_sort_ordered_total", 1);
    input.clone()
}

/// Sort the relation (stable): [`sort_view`], then the gather — ordered
/// input is copied as it stands.
pub fn sort(input: &Relation, by: SortBy) -> Result<Relation, RelError> {
    Ok(materialize(sort_view(&View::of(input), by)?))
}

/// Fewest rows a morsel of [`worker_ranges`] is given.
const MIN_WORKER_ROWS: usize = 4096;

/// `0..n` cut into one contiguous range per worker (each a whole number of
/// 64-row bitmap words but for the last), at least [`MIN_WORKER_ROWS`]
/// long. The count depends on the cores, not on `n` beyond that floor, so
/// a SORT allocates as much for 64 Ki rows as for 1 Mi.
fn worker_ranges(n: usize) -> Vec<Range<usize>> {
    let workers = workers().min(n.div_ceil(MIN_WORKER_ROWS)).max(1);
    cta_ranges(n, n.div_ceil(workers).next_multiple_of(64).max(64))
}

/// Bits a digit pass orders by, at most: 256 buckets keep each part's
/// histogram and windows in L1. 8 bits beat 11 up to 100 k rows and 16 at
/// every size; 11 won by ~10 % at 1.2 M (EXPERIMENTS.md Note 30).
const DIGIT_BITS: u32 = 8;

/// The stable order of `input`'s selected rows by `(rank, position)`, as
/// base-row positions in `buf[..n]` (`buf` is scratch, resized here) — or
/// `None` when that order is the view's own (`scan` of `input` found the
/// ranks never decrease, so equal ones keep their order and every other
/// pair is in order already). Otherwise one radix sort, whose pass count
/// follows the rank range: one pass when it is narrow enough to count, one
/// per [`DIGIT_BITS`]-bit digit when it is not.
fn sort_positions(
    input: &View<'_>,
    rank: Rank<'_>,
    morsels: &[Range<usize>],
    scan: Option<Scan>,
    buf: &mut Vec<u32>,
) -> Option<usize> {
    let scan = scan.filter(|s| s.inverted)?;
    let digits = (u64::BITS - (scan.hi - scan.lo).leading_zeros()).div_ceil(DIGIT_BITS);
    let passes = scan.counting_buckets().map_or(digits, |_| 1);
    radix_positions(input, rank, morsels, &scan, passes, buf);
    Some(scan.rows)
}

/// Stable LSD radix sort of the `n` selected rows `scan` found in `input`
/// by `rank − lo`, at most `span = hi − lo`, into `buf[..n]`: `passes`
/// counting passes, each by a digit of ⌈bits(span) / passes⌉ bits, the
/// lowest first; one pass has `span + 1` buckets. The first pass walks the
/// view's selected rows, each later one the (rank, position) pairs the pass
/// before wrote.
///
/// A pass is a histogram per part, one prefix sum bucket-major
/// (part-minor within a bucket, so equal digits keep their order) that
/// carves the outputs into one window per nonempty (bucket, part), and a
/// per-part deal into windows of its own. The first pass's parts are the
/// `morsels`; each later pass cuts the `n` pairs into no more parts than
/// that, so every pass fits the one histogram buffer. Each part's list of
/// windows is sized before it is filled.
fn radix_positions(
    input: &View<'_>,
    rank: Rank<'_>,
    morsels: &[Range<usize>],
    scan: &Scan,
    passes: u32,
    buf: &mut Vec<u32>,
) {
    let (lo, span, n) = (scan.lo, scan.hi - scan.lo, scan.rows);
    // Two reads of the ranks a pass: the histograms and the deal.
    ranks_read(2 * n * passes as usize);
    let width = (u64::BITS - span.leading_zeros()).div_ceil(passes);
    let mask = ((1u128 << width) - 1) as u64;
    let buckets = span.min(mask) as usize + 1;
    let (mut hists, mut read, mut ranks, mut read_ranks) =
        with_scratch(|s| (s.idx_buf(), s.idx_buf(), s.word_buf(), s.word_buf()));
    let (mut out, parts) = (std::mem::take(buf), cta_ranges(n, n.div_ceil(morsels.len()).max(1)));
    let carried = if passes > 1 { n } else { 0 };
    hists.resize(morsels.len() * buckets, 0);
    out.resize(n, 0);
    read.resize(carried, 0);
    ranks.resize(carried, 0);
    read_ranks.resize(carried, 0);
    with_rank!(rank, |at| for p in 0..passes {
        let digit = move |r: u64| (r >> (p * width) & mask) as usize;
        let (src, parts) = match p {
            0 => (Pairs::Rows(input, at, lo), morsels),
            _ => (Pairs::Written(&read_ranks, &read), &parts[..]),
        };
        // The last pass writes positions alone.
        let (mut rest, mut rest_ranks) =
            (&mut out[..], if p + 1 < passes { &mut ranks[..] } else { &mut [] });
        let hists = &mut hists[..parts.len() * buckets];
        hists.fill(0);
        let counting: Vec<_> = parts.iter().cloned().zip(hists.chunks_mut(buckets)).collect();
        par_each(counting, |(part, hist)| {
            let _steady = kfusion_trace::allocwatch::region();
            src.each(part, |r, _| hist[digit(r)] += 1)
        });
        // Each count becomes the index of its window in its part's list.
        let mut windows: Vec<Vec<_>> = hists
            .chunks(buckets)
            .map(|hist| Vec::with_capacity(hist.iter().filter(|&&c| c > 0).count()))
            .collect();
        for b in 0..buckets {
            for (m, list) in windows.iter_mut().enumerate() {
                let count = &mut hists[m * buckets + b];
                if *count > 0 {
                    let (window, tail) = std::mem::take(&mut rest).split_at_mut(*count as usize);
                    let carried = (*count as usize).min(rest_ranks.len());
                    let (ranks, ranks_tail) = std::mem::take(&mut rest_ranks).split_at_mut(carried);
                    (*count, rest, rest_ranks) = (list.len() as u32, tail, ranks_tail);
                    list.push((window, ranks, 0));
                }
            }
        }
        let dealing: Vec<_> =
            parts.iter().cloned().zip(hists.chunks(buckets)).zip(windows).collect();
        par_each(dealing, |((part, hist), mut windows)| {
            let _steady = kfusion_trace::allocwatch::region();
            src.each(part, |r, i| {
                let (pos, ranks, next) = &mut windows[hist[digit(r)] as usize];
                pos[*next] = i;
                if let Some(rank) = ranks.get_mut(*next) {
                    *rank = r;
                }
                *next += 1;
            })
        });
        std::mem::swap(&mut out, &mut read);
        std::mem::swap(&mut ranks, &mut read_ranks);
    });
    *buf = read;
    // Back in the order they were taken, so the next call's roles match.
    with_scratch(|s| {
        s.put_idx_buf(out);
        s.put_idx_buf(hists);
        s.put_word_buf(read_ranks);
        s.put_word_buf(ranks);
    });
}

/// Where a radix pass reads its (rank − lo, position) pairs: the first
/// pass, the view's selected rows through their rank; a later one, what
/// the pass before wrote.
enum Pairs<'a, 'v, A> {
    Rows(&'a View<'v>, A, u64),
    Written(&'a [u64], &'a [u32]),
}

impl<A: Fn(usize) -> u64> Pairs<'_, '_, A> {
    /// Each pair of `part`, in the order the sort keeps.
    fn each(&self, part: Range<usize>, mut f: impl FnMut(u64, u32)) {
        match self {
            Pairs::Rows(input, at, lo) => input.for_each_row(part, |i| f(at(i) - lo, i as u32)),
            Pairs::Written(ranks, pos) => {
                ranks[part.clone()].iter().zip(&pos[part]).for_each(|(&r, &i)| f(r, i))
            }
        }
    }
}

/// Sort via an actual **bitonic sorting network** — the algorithm family
/// 2012-era GPU libraries used and the one the cost model prices
/// (`log²n/4` global passes). Kept beside the radix sort as its oracle and
/// so the model's structural assumptions are checkable against a real
/// network: the test suite counts the network's compare-exchange passes
/// and verifies both sorts produce identical orderings.
///
/// The network sorts a power-of-two padded index array; each pass is a
/// data-parallel sweep (run across CTA-shaped chunks), exactly the shape a
/// GPU implementation has.
pub fn bitonic_sort(input: &Relation, by: SortBy) -> Result<Relation, RelError> {
    let n = input.len();
    if n <= 1 {
        return Ok(input.clone());
    }
    let view = View::of(input);
    let rank = Rank::of(&view, by)?;
    // Pad to a power of two with +inf sentinels (index n == sentinel).
    let m = n.next_power_of_two();
    let sentinel = u64::MAX;
    let ranks: Vec<u64> = with_rank!(rank, |at| (0..n).map(at).collect());
    let key_of =
        |idx: usize| if idx < n { (ranks[idx], idx as u64) } else { (sentinel, idx as u64) };
    let mut idx: Vec<usize> = (0..m).collect();
    // The classic network: k = subsequence size, j = compare distance.
    let mut k = 2usize;
    while k <= m {
        let mut j = k / 2;
        while j > 0 {
            // One full compare-exchange pass (data-parallel in a real
            // kernel; sequential sweep here — the partners are disjoint).
            for i in 0..m {
                let partner = i ^ j;
                if partner > i {
                    let ascending = i & k == 0;
                    let (a, b) = (idx[i], idx[partner]);
                    if (key_of(a) > key_of(b)) == ascending {
                        idx.swap(i, partner);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    let order: Vec<u32> = idx.into_iter().filter(|&i| i < n).map(|i| i as u32).collect();
    Ok(gather(&view, &order))
}

/// Number of compare-exchange passes a bitonic network over `n` elements
/// performs — the quantity the SORT cost model charges global-memory
/// traffic for.
pub fn bitonic_pass_count(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let lg = 64 - (n.next_power_of_two() - 1).leading_zeros() as u64;
    lg * (lg + 1) / 2
}

/// UNIQUE: drop consecutive duplicate tuples (full-width comparison) from a
/// sorted relation.
pub fn unique(input: &Relation) -> Result<Relation, RelError> {
    input.require_sorted()?;
    // Bit `i` is set when row `i` differs from row `i - 1` in the key or in
    // any column (floats by bit pattern): the first row of every run.
    let mut sel = vec![0u64; input.len().div_ceil(64)];
    if let Some(first) = sel.first_mut() {
        *first = 1;
    }
    mark_changes(&input.keys().as_slice(), &mut sel, |a, b| a != b);
    for c in &input.cols {
        match c {
            Column::I64(v) => mark_changes(v, &mut sel, |a, b| a != b),
            Column::F64(v) => mark_changes(v, &mut sel, |a, b| a.to_bits() != b.to_bits()),
        }
    }
    let rows = sel.iter().map(|w| w.count_ones() as usize).sum();
    Ok(materialize(View::of(input).with_selection(sel, rows)))
}

/// Set bit `i` of `sel` wherever `vals[i]` differs from `vals[i - 1]`.
fn mark_changes<T: Copy>(vals: &[T], sel: &mut [u64], differs: impl Fn(T, T) -> bool) {
    for (i, w) in vals.windows(2).enumerate() {
        let row = i + 1;
        sel[row / 64] |= (differs(w[1], w[0]) as u64) << (row % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Column;
    use kfusion_vgpu::exec::DEFAULT_CTA_CHUNK;
    use std::sync::Arc;

    /// The order `sort_positions` finds, `None` for the view's own.
    fn positions(input: &View<'_>, by: SortBy) -> Option<Vec<u32>> {
        let (rank, morsels) = (Rank::of(input, by).unwrap(), worker_ranges(input.base_len()));
        let scan = Scan::all(input, rank, &morsels);
        let mut buf = Vec::new();
        let n = sort_positions(input, rank, &morsels, scan, &mut buf)?;
        Some(buf[..n].to_vec())
    }

    #[test]
    fn sort_by_key_small() {
        let r = Relation::new(vec![3, 1, 2], vec![Column::I64(vec![30, 10, 20])]).unwrap();
        let out = sort(&r, SortBy::Key).unwrap();
        assert_eq!(*out.keys(), vec![1, 2, 3]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[10, 20, 30]);
    }

    #[test]
    fn sort_by_column_carries_key() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::I64(vec![30, 10, 20])]).unwrap();
        let out = sort(&r, SortBy::I64Col(0)).unwrap();
        assert_eq!(out.cols[0].as_i64().unwrap(), &[10, 20, 30]);
        assert_eq!(*out.keys(), vec![2, 3, 1]);
    }

    #[test]
    fn sort_handles_negative_column_values() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::I64(vec![5, -7, 0])]).unwrap();
        let out = sort(&r, SortBy::I64Col(0)).unwrap();
        assert_eq!(out.cols[0].as_i64().unwrap(), &[-7, 0, 5]);
    }

    #[test]
    fn large_parallel_sort_is_correct_and_stable() {
        // Big enough to cut into several morsels.
        let n = 300_000usize;
        let key: Vec<u64> = (0..n as u64).map(|i| (i * 2_654_435_761) % 1000).collect();
        let payload: Vec<i64> = (0..n as i64).collect();
        let r = Relation::new(key.clone(), vec![Column::I64(payload)]).unwrap();
        let out = sort(&r, SortBy::Key).unwrap();
        assert!(out.is_key_sorted());
        assert_eq!(out.len(), n);
        // Stability: within equal keys, original order (= payload order).
        let pay = out.cols[0].as_i64().unwrap();
        for w in 0..n - 1 {
            if out.keys().get(w) == out.keys().get(w + 1) {
                assert!(pay[w] < pay[w + 1], "unstable at {w}");
            }
        }
    }

    #[test]
    fn one_pass_and_digit_passes_produce_identical_permutations() {
        // Every pass count sorts stably on (rank, position), so all must
        // agree exactly — this is what makes the count invisible to callers.
        for (n, modulus) in [(1usize, 1u64), (977, 7), (50_000, 1000), (10_000, 3), (70_000, 5)] {
            // Row 0's rank is 0, the range's low end.
            let keys = (0..n as u64).map(|i| (i.wrapping_mul(2_654_435_761)) % modulus).collect();
            let r = Relation::from_keys(keys);
            // Every third row of it too: positions are the view's base rows.
            let mut sel = vec![0u64; n.div_ceil(64)];
            (0..n).step_by(3).for_each(|i| sel[i / 64] |= 1 << (i % 64));
            let thirds = View::of(&r).with_selection(sel, n.div_ceil(3));
            for view in [View::of(&r), thirds] {
                let (rank, rows) = (Rank::of(&view, SortBy::Key).unwrap(), view.len());
                let morsels = worker_ranges(view.base_len());
                let scan = Scan { rows, lo: 0, hi: modulus - 1, first: 0, last: 0, inverted: true };
                let sorted = |passes| {
                    let mut buf = Vec::new();
                    radix_positions(&view, rank, &morsels, &scan, passes, &mut buf);
                    buf
                };
                let one = sorted(1);
                for passes in [2, 3, 10] {
                    let digits = sorted(passes);
                    assert_eq!(one[..rows], digits[..rows], "n={n} modulus={modulus} {passes}");
                }
            }
        }
    }

    /// The digit passes after the first cut their pairs into no more parts
    /// than the first pass had morsels, whatever the cores: one morsel over
    /// rows that [`worker_ranges`] would cut into several still sorts, and
    /// so does a filtered view with fewer rows than its base.
    #[test]
    fn later_passes_take_no_more_parts_than_the_first_had_morsels() {
        let n = 3 * MIN_WORKER_ROWS + 5;
        let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let r = Relation::from_keys(keys.clone());
        let mut sel = vec![0u64; n.div_ceil(64)];
        (0..n).step_by(3).for_each(|i| sel[i / 64] |= 1 << (i % 64));
        let thirds = View::of(&r).with_selection(sel, n.div_ceil(3));
        for view in [View::of(&r), thirds] {
            let rank = Rank::of(&view, SortBy::Key).unwrap();
            let mut want: Vec<u32> =
                (0..n as u32).filter(|&i| view.is_dense() || i % 3 == 0).collect();
            want.sort_by_key(|&i| keys[i as usize]);
            let (lo, hi) = (keys[want[0] as usize], keys[want[want.len() - 1] as usize]);
            let scan = Scan { rows: want.len(), lo, hi, first: 0, last: 0, inverted: true };
            for morsels in [cta_ranges(n, n), worker_ranges(n)] {
                let mut buf = Vec::new();
                radix_positions(&view, rank, &morsels, &scan, 8, &mut buf);
                assert_eq!(buf[..want.len()], want, "{} morsels", morsels.len());
            }
        }
    }

    #[test]
    fn wide_rank_range_takes_digit_passes_and_sorts() {
        // Ranks spread across the full u64 range exceed the counting-sort
        // threshold; eight digit passes must still produce a stable order.
        let n = 10_000usize;
        let key: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let r = Relation::from_keys(key);
        let out = sort(&r, SortBy::Key).unwrap();
        assert!(out.is_key_sorted());
        assert_eq!(out.len(), n);
        // Ranks spanning every u64: the bucket count does not wrap to 0.
        let r = Relation::from_keys(vec![u64::MAX, 0, 5]);
        assert_eq!(sort(&r, SortBy::Key).unwrap().key, vec![0, 5, u64::MAX]);
        assert_eq!(sort(&r, SortBy::KeyDesc).unwrap().key, vec![u64::MAX, 5, 0]);
    }

    /// Rows whose key, i64 column and f64 column each run in order —
    /// ascending keys, descending columns, ties in all three.
    fn ordered_table(n: usize) -> Relation {
        let ints = (0..n).map(|i| ((n - i) / 3) as i64 - 7).collect();
        let floats = (0..n).map(|i| ((n - i) / 4) as f64 * 0.5 - 2.0).collect();
        let key = (0..n as u64).map(|i| i / 2).collect();
        Relation::new(key, vec![Column::I64(ints), Column::F64(floats)]).unwrap()
    }

    const EVERY_SORT: [SortBy; 6] = [
        SortBy::Key,
        SortBy::I64ColDesc(0),
        SortBy::F64ColDesc(1),
        SortBy::KeyDesc,
        SortBy::I64Col(0),
        SortBy::F64Col(1),
    ];

    #[test]
    fn ordered_input_passes_through_and_equals_the_network() {
        for n in [0usize, 1, 2, 1000, 70_000] {
            let r = ordered_table(n);
            for by in EVERY_SORT {
                let ordered = positions(&View::of(&r), by).is_none();
                let runs_with_the_order =
                    matches!(by, SortBy::Key | SortBy::I64ColDesc(_) | SortBy::F64ColDesc(_));
                // Up to two rows, every column is one tie.
                assert_eq!(ordered, runs_with_the_order || n <= 2, "n={n} {by:?}");
                let sorted = sort(&r, by).unwrap();
                if n <= 1000 {
                    assert_eq!(sorted, bitonic_sort(&r, by).unwrap(), "n={n} {by:?}");
                }
                if ordered {
                    assert_eq!(sorted, r, "n={n} {by:?}");
                }
                let shared = View::from(r.clone());
                assert_eq!(materialize(sort_view(&shared, by).unwrap()), sorted, "n={n} {by:?}");
            }
        }
    }

    /// A SORT over a filtered, rearranged view ranks and gathers only the
    /// rows the view selects, reading each column from its own source —
    /// exactly what sorting the gathered view gives, ordered or not.
    #[test]
    fn a_view_sorts_as_its_gathered_rows_do() {
        let n = 2 * DEFAULT_CTA_CHUNK + 77;
        let (a, b) = (ordered_table(n), ordered_table(n));
        let pred = crate::predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Lt, n as i64 / 5);
        let kept = crate::ops::select_view(&View::of(&a), &pred).unwrap();
        let view = kept.with_columns(&[1]).with_columns_of(&View::of(&b).with_columns(&[0]));
        assert!(!view.is_dense() && !view.is_empty());
        let stored = materialize(view.clone());
        for by in [SortBy::Key, SortBy::KeyDesc, SortBy::F64Col(0), SortBy::I64ColDesc(1)] {
            let sorted = sort_view(&view, by).unwrap();
            assert_eq!(materialize(sorted), sort(&stored, by).unwrap(), "{by:?}");
        }
    }

    /// A SORT for an AGGREGATE groups exactly what it would have counted:
    /// out of order and narrow, the view comes back as it was, carrying the
    /// range of its selected keys, and the AGGREGATE finds each distinct
    /// selected key in it, in key order, with its count; in order, or too
    /// wide to count, it is what [`sort_view`] gives.
    #[test]
    fn a_sort_for_an_aggregate_groups_what_it_would_count() {
        use crate::ops::{aggregate_by_key_view, Agg};
        let count = |v: &View<'_>| {
            let out = aggregate_by_key_view(v, &[Agg::Count]).unwrap();
            (out.keys().as_slice().to_vec(), out.cols[0].as_i64().unwrap().to_vec())
        };
        let r = Relation::new(vec![9, 3, 9, 5, 3, 3], vec![Column::I64((0..6).collect())]).unwrap();
        let grouped = group_by_key_view(&View::of(&r)).unwrap();
        assert_eq!(grouped.groups(), Some(Groups { lo: 3, buckets: 7 }));
        assert_eq!(count(&grouped), (vec![3, 5, 9], vec![3, 1, 2]));
        assert_eq!(materialize(grouped), r, "nothing moved");
        // Only the selected keys are groups: rows 1 and 3 are dropped.
        let some = View::of(&r).with_selection(vec![0b11_0101], 4);
        let grouped = group_by_key_view(&some).unwrap();
        assert_eq!(grouped.groups(), Some(Groups { lo: 3, buckets: 7 }));
        assert_eq!(count(&grouped), (vec![3, 9], vec![2, 2]));
        // And only they span the range: rows 1, 3 and 4 hold 3, 5, 3.
        let few = View::of(&r).with_selection(vec![0b1_1010], 3);
        let grouped = group_by_key_view(&few).unwrap();
        assert_eq!(grouped.groups(), Some(Groups { lo: 3, buckets: 3 }));
        assert_eq!(count(&grouped), (vec![3, 5], vec![2, 1]));
        let ordered = Relation::from_keys(vec![1, 1, 4]);
        let wide = Relation::from_keys(vec![1 << 40, 0, 5]);
        for r in [ordered, wide] {
            let got = group_by_key_view(&View::of(&r)).unwrap();
            assert!(!got.is_grouped());
            assert_eq!(materialize(got), sort(&r, SortBy::Key).unwrap());
        }
    }

    /// A rank read the way the scan read it before [`with_rank!`]: a
    /// `match` on its kind for every row.
    fn rank_at(rank: Rank<'_>, i: usize) -> u64 {
        match rank {
            Rank::Key(keys, flip) => keys[i] ^ flip,
            Rank::RowId(flip) => i as u64 ^ flip,
            Rank::I64(vals, flip) => (vals[i] as u64 ^ (1 << 63)) ^ flip,
            Rank::F64(vals, flip) => f64_rank(vals[i]) ^ flip,
        }
    }

    /// The oracle: the scan row by row, each row's selection bit tested on
    /// its own.
    fn scan_oracle(input: &View<'_>, rank: Rank<'_>, range: Range<usize>) -> Scan {
        let mut s = Scan { rows: 0, lo: u64::MAX, hi: 0, first: 0, last: 0, inverted: false };
        let sel = input.selection();
        for i in range.filter(|&i| sel.is_none_or(|sel| sel[i / 64] >> (i % 64) & 1 == 1)) {
            let r = rank_at(rank, i);
            if s.rows == 0 {
                (s.first, s.last) = (r, r);
            }
            s.inverted |= r < s.last;
            (s.lo, s.hi, s.last, s.rows) = (s.lo.min(r), s.hi.max(r), r, s.rows + 1);
        }
        s
    }

    /// The scan equals the oracle over every kind of rank, ascending and
    /// descending, f64 ranks with NaN and ±0.0 among them, under selections
    /// that end mid-word, select nothing, are all full words or hold one
    /// row, over every morsel of [`worker_ranges`] and the whole.
    #[test]
    fn the_scan_equals_the_row_by_row_oracle() {
        use kfusion_prng::Rng;
        const F: [f64; 7] = [-0.0, 0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        let mut rng = Rng::seed_from_u64(33);
        // Three words of every morsel of 64 Ki rows, and 37 rows more.
        let n = 2 * MIN_WORKER_ROWS + 37;
        let ints = (0..n).map(|_| rng.gen_range(-50i64..50) * (i64::MAX / 50)).collect();
        let floats = (0..n)
            .map(|i| if i % 3 == 0 { F[rng.gen_range(0..F.len())] } else { i as f64 * 0.25 })
            .collect();
        let keys = (0..n as u64).map(|i| if i % 5 == 0 { i / 2 } else { i }).collect();
        let cols = vec![Column::I64(ints), Column::F64(floats)];
        let stored = Relation::new(keys, cols.clone()).unwrap();
        let row_ids = Relation { key: Keys::RowIds(n), cols };
        let picks = |keep: &dyn Fn(usize) -> bool, len: usize| {
            let mut sel = vec![0u64; len.div_ceil(64)];
            (0..len).filter(|&i| keep(i)).for_each(|i| sel[i / 64] |= 1 << (i % 64));
            let rows = (0..len).filter(|&i| keep(i)).count();
            (sel, rows)
        };
        for r in [&stored, &row_ids, &ordered_table(n)] {
            let whole = n / 64 * 64;
            let selections: [(&str, (Vec<u64>, usize)); 5] = [
                ("every third row, ending mid-word", picks(&|i| i % 3 != 1, n)),
                ("no row", picks(&|_| false, n)),
                ("every row of the full words", picks(&|i| i < whole, n)),
                ("one row", picks(&|i| i == n / 2 + 5, n)),
                ("runs of 100 rows", picks(&|i| i / 100 % 2 == 0, n)),
            ];
            let views = selections
                .into_iter()
                .map(|(what, (sel, rows))| (what, View::of(r).with_selection(sel, rows)))
                .chain([("dense", View::of(r))]);
            for (what, view) in views {
                let mut ranges = worker_ranges(n);
                ranges.extend([0..n, 64..n - 3, 128..192]);
                for by in EVERY_SORT {
                    let rank = Rank::of(&view, by).unwrap();
                    for range in &ranges {
                        let want = scan_oracle(&view, rank, range.clone());
                        assert_eq!(
                            Scan::of(&view, rank, range.clone()),
                            want,
                            "{what} {by:?} {range:?}"
                        );
                    }
                    let all = Scan::all(&view, rank, &worker_ranges(n)).unwrap();
                    assert_eq!(all, scan_oracle(&view, rank, 0..n), "{what} {by:?}, all morsels");
                }
            }
        }
        // Keys in order inside every morsel, and out of order exactly on
        // each cut between them.
        let cut = MIN_WORKER_ROWS;
        let r = Relation::from_keys((0..n).map(|i| (i % cut) as u64).collect());
        let (view, morsels) = (View::of(&r), cta_ranges(n, cut));
        let rank = Rank::of(&view, SortBy::Key).unwrap();
        assert!(morsels.iter().all(|m| !Scan::of(&view, rank, m.clone()).inverted));
        let all = Scan::all(&view, rank, &morsels).unwrap();
        assert!(all.inverted, "an inversion on a cut");
        assert_eq!(all, scan_oracle(&view, rank, 0..n));
    }

    #[test]
    fn one_trailing_inversion_takes_the_sorting_path() {
        let mut keys: Vec<u64> = (0..10_000).collect();
        assert!(positions(&View::of(&Relation::from_keys(keys.clone())), SortBy::Key).is_none());
        keys.push(9_998);
        let idx = positions(&View::of(&Relation::from_keys(keys)), SortBy::Key)
            .expect("the last row is out of place");
        assert_eq!(idx[9_997..], [9_997, 9_998, 10_000, 9_999]);
        // Equal neighbours are not an inversion.
        let ties = Relation::from_keys(vec![3, 3, 3, 4, 4]);
        assert!(positions(&View::of(&ties), SortBy::Key).is_none());
    }

    #[test]
    fn a_shared_input_is_shared_once_more_or_left_untouched() {
        let shared = Arc::new(ordered_table(5000));
        let copy = Relation::clone(&shared);
        let same = sort_view(&View::shared(Arc::clone(&shared)), SortBy::Key).unwrap();
        assert!(Arc::ptr_eq(&same.into_shared(), &shared));
        let moved = sort_view(&View::shared(Arc::clone(&shared)), SortBy::F64Col(1)).unwrap();
        let moved = moved.into_shared();
        assert!(!Arc::ptr_eq(&moved, &shared));
        assert_eq!(*moved, sort(&copy, SortBy::F64Col(1)).unwrap());
        assert_eq!(*shared, copy, "other readers see what they saw");
    }

    #[test]
    fn empty_sort() {
        let r = Relation::from_keys(vec![]);
        assert!(sort(&r, SortBy::Key).unwrap().is_empty());
    }

    #[test]
    fn typed_sort_rejects_mismatched_column() {
        // An i64 sort over an f64 column (and vice versa) is a schema
        // error, not a silent reinterpretation.
        let f = Relation::new(vec![1], vec![Column::F64(vec![1.0])]).unwrap();
        assert!(matches!(sort(&f, SortBy::I64Col(0)), Err(RelError::SchemaMismatch)));
        let i = Relation::new(vec![1], vec![Column::I64(vec![1])]).unwrap();
        assert!(matches!(sort(&i, SortBy::F64Col(0)), Err(RelError::SchemaMismatch)));
        let none = Relation::from_keys(vec![]);
        let missing = RelError::NoSuchColumn { col: 2, available: 0 };
        assert_eq!(sort(&none, SortBy::I64Col(2)), Err(missing));
    }

    #[test]
    fn sort_by_f64_column_uses_total_order() {
        let vals = vec![1.5, f64::NAN, -0.0, 0.0, f64::NEG_INFINITY, -2.5, f64::INFINITY];
        let r = Relation::new(vec![0, 1, 2, 3, 4, 5, 6], vec![Column::F64(vals.clone())]).unwrap();
        let out = sort(&r, SortBy::F64Col(0)).unwrap();
        let got = out.cols[0].as_f64().unwrap();
        let mut expect = vals;
        expect.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "total_cmp order incl. -0.0 < 0.0 and NaN at the top"
        );
    }

    #[test]
    fn sort_by_f64_column_is_stable() {
        let r = Relation::new(
            vec![10, 11, 12, 13],
            vec![Column::F64(vec![2.0, 1.0, 2.0, 1.0]), Column::I64(vec![0, 1, 2, 3])],
        )
        .unwrap();
        let out = sort(&r, SortBy::F64Col(0)).unwrap();
        assert_eq!(*out.keys(), vec![11, 13, 10, 12]);
    }

    #[test]
    fn descending_sorts_reverse_rank_but_stay_stable() {
        let r = Relation::new(
            vec![1, 2, 3, 4],
            vec![Column::I64(vec![7, 9, 7, 8]), Column::F64(vec![0.5, -1.5, 0.5, 2.5])],
        )
        .unwrap();
        let by_i = sort(&r, SortBy::I64ColDesc(0)).unwrap();
        // 9, 8, then the two 7s in original order (stable).
        assert_eq!(by_i.cols[0].as_i64().unwrap(), &[9, 8, 7, 7]);
        assert_eq!(*by_i.keys(), vec![2, 4, 1, 3]);
        let by_f = sort(&r, SortBy::F64ColDesc(1)).unwrap();
        assert_eq!(by_f.cols[1].as_f64().unwrap(), &[2.5, 0.5, 0.5, -1.5]);
        assert_eq!(*by_f.keys(), vec![4, 1, 3, 2]);
        let by_k = sort(&r, SortBy::KeyDesc).unwrap();
        assert_eq!(*by_k.keys(), vec![4, 3, 2, 1]);
    }

    #[test]
    fn bitonic_matches_radix_for_new_variants() {
        let n = 2000usize;
        let key: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 101).collect();
        let f: Vec<f64> = (0..n).map(|i| ((i * 2_654_435_761) % 997) as f64 - 500.0).collect();
        let r = Relation::new(key, vec![Column::F64(f)]).unwrap();
        for by in [SortBy::F64Col(0), SortBy::F64ColDesc(0), SortBy::KeyDesc] {
            let merge = sort(&r, by).unwrap();
            let bitonic = bitonic_sort(&r, by).unwrap();
            assert_eq!(merge, bitonic, "{by:?}");
        }
    }

    #[test]
    fn bitonic_matches_radix_sort() {
        let n = 10_000usize;
        let key: Vec<u64> = (0..n as u64).map(|i| (i * 2_654_435_761) % 5000).collect();
        let payload: Vec<i64> = (0..n as i64).collect();
        let r = Relation::new(key, vec![Column::I64(payload)]).unwrap();
        let merge = sort(&r, SortBy::Key).unwrap();
        let bitonic = bitonic_sort(&r, SortBy::Key).unwrap();
        // Both orderings are stable-equivalent on (key, original index).
        assert_eq!(*bitonic.keys(), merge.key);
        assert_eq!(
            bitonic.cols[0].as_i64().unwrap(),
            merge.cols[0].as_i64().unwrap(),
            "tie-broken by original index, both sorts agree exactly"
        );
    }

    #[test]
    fn bitonic_handles_non_power_of_two_and_tiny() {
        for n in [0usize, 1, 2, 3, 5, 7, 100, 1023] {
            let key: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 13).collect();
            let r = Relation::from_keys(key);
            let out = bitonic_sort(&r, SortBy::Key).unwrap();
            assert!(out.is_key_sorted(), "n={n}");
            assert_eq!(out.len(), n);
        }
    }

    #[test]
    fn bitonic_by_column() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::I64(vec![5, -7, 0])]).unwrap();
        let out = bitonic_sort(&r, SortBy::I64Col(0)).unwrap();
        assert_eq!(out.cols[0].as_i64().unwrap(), &[-7, 0, 5]);
    }

    #[test]
    fn unique_drops_consecutive_duplicates() {
        let r = Relation::new(vec![1, 1, 2, 2, 2, 3], vec![Column::I64(vec![9, 9, 8, 8, 7, 6])])
            .unwrap();
        let out = unique(&r).unwrap();
        // (2,8) and (2,7) differ in payload: both kept.
        assert_eq!(*out.keys(), vec![1, 2, 2, 3]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[9, 8, 7, 6]);
    }

    #[test]
    fn unique_compares_floats_by_bit_pattern_across_words() {
        // 200 rows in runs of three, so runs straddle the bitmap's words.
        let n = 200usize;
        let key: Vec<u64> = (0..n as u64).map(|i| i / 3).collect();
        let r = Relation::new(key.clone(), vec![Column::F64(vec![f64::NAN; n])]).unwrap();
        let out = unique(&r).unwrap();
        assert_eq!(*out.keys(), (0..n.div_ceil(3) as u64).collect::<Vec<_>>(), "NaN repeats NaN");
        let signed = Relation::new(vec![4, 4, 4], vec![Column::F64(vec![0.0, -0.0, -0.0])]);
        assert_eq!(unique(&signed.unwrap()).unwrap().len(), 2, "-0.0 is not 0.0");
        assert!(unique(&Relation::from_keys(vec![])).unwrap().is_empty());
    }

    #[test]
    fn unique_requires_sorted() {
        let r = Relation::from_keys(vec![2, 1]);
        assert!(matches!(unique(&r), Err(RelError::NotSorted)));
    }

    #[test]
    fn unique_of_distinct_is_identity() {
        let r = Relation::from_keys(vec![1, 2, 3]);
        assert_eq!(unique(&r).unwrap(), r);
    }
}
