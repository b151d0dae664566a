//! JOIN: sort-merge equijoin on the tuple key.
//!
//! The substrate stores relations key-sorted, so the equijoin is a linear
//! merge with group-wise cross products for duplicate keys. Semijoin and
//! antijoin variants implement the EXISTS / NOT EXISTS sub-queries of
//! TPC-H Q21: filters of their left side, which narrow its selection
//! without copying a row ([`semijoin_view`], [`antijoin_view`]).

use crate::data::{Keys, RelError, Relation};
use crate::view::{self, gather_pairs, materialize, View};
use kfusion_vgpu::exec::{par_map, DEFAULT_CTA_CHUNK};
use std::ops::Range;

/// One past the last row of the run of keys equal to `keys[start]`.
fn group_end(keys: &Keys, start: usize) -> usize {
    let k = keys.get(start);
    (start + 1..keys.len()).find(|&i| keys.get(i) != k).unwrap_or(keys.len())
}

/// Inner equijoin of two key-sorted relations. Output schema: key, then
/// `a`'s payload columns, then `b`'s. Duplicate keys produce the group
/// cross-product, ordered `a`-major. The merge finds the `u32` positions of
/// each output row's two sides, and [`crate::view`]'s gather writes them.
pub fn join(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    a.require_sorted()?;
    b.require_sorted()?;
    kfusion_trace::counter("kfusion_rows_in_total{op=\"join\"}", (a.len() + b.len()) as u64);
    let (ak, bk) = (a.keys(), b.keys());
    let (mut a_idx, mut b_idx): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ak.len() && j < bk.len() {
        match ak.get(i).cmp(&bk.get(j)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (ae, be) = (group_end(ak, i), group_end(bk, j));
                for ai in i as u32..ae as u32 {
                    a_idx.extend(std::iter::repeat_n(ai, be - j));
                    b_idx.extend(j as u32..be as u32);
                }
                i = ae;
                j = be;
            }
        }
    }
    kfusion_trace::counter("kfusion_rows_out_total{op=\"join\"}", a_idx.len() as u64);
    Ok(gather_pairs((&View::of(a), &a_idx), (&View::of(b), &b_idx), false))
}

/// Column-combining join: zip two relations with *identical* keys into one
/// wide relation (key + `a`'s columns + `b`'s columns).
///
/// This is the join the paper's Q1 plan uses to assemble a seven-column
/// table from per-column relations keyed by row id (Fig. 17(a)). Because
/// output element `i` depends only on input elements `i`, it is dependence
/// class (i) of §III-C — freely fusable *and* fissionable, unlike the
/// general merge join.
pub fn column_join(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    Ok(materialize(column_join_view(&View::of(a), &View::of(b))?))
}

/// [`column_join`] without the copy: after the same key check, the result
/// references `a`'s key and both sides' columns where they already are. A
/// side that carries a selection is materialized first, so that both sides
/// are over base rows that correspond one to one. Two sides keyed by row id
/// are equal when their lengths are, so the check costs nothing there.
pub fn column_join_view<'a>(a: &View<'a>, b: &View<'a>) -> Result<View<'a>, RelError> {
    let (a, b) = (a.dense(), b.dense());
    if a.key() != b.key() {
        return Err(RelError::SchemaMismatch);
    }
    kfusion_trace::counter("kfusion_rows_in_total{op=\"column_join\"}", 2 * a.len() as u64);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"column_join\"}", a.len() as u64);
    Ok(a.with_columns_of(&b))
}

/// Semijoin: tuples of `a` whose key appears in `b` (EXISTS). Keeps `a`'s
/// schema; duplicate matches in `b` do not duplicate output.
pub fn semijoin(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    Ok(materialize(semijoin_view(&View::of(a), &View::of(b))?))
}

/// Antijoin: tuples of `a` whose key does **not** appear in `b`
/// (NOT EXISTS). Keeps `a`'s schema.
pub fn antijoin(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    Ok(materialize(antijoin_view(&View::of(a), &View::of(b))?))
}

/// [`semijoin`] without the copy: `a` under the narrower selection of the
/// tuples whose key `b` selects. A semijoin is a filter of its left bag —
/// it never duplicates a tuple and never reads the right side's payload —
/// so a selection bitmap over `a`'s base rows is the whole result.
pub fn semijoin_view<'a>(a: &View<'a>, b: &View<'_>) -> Result<View<'a>, RelError> {
    kfusion_trace::counter("kfusion_rows_in_total{op=\"semijoin\"}", (a.len() + b.len()) as u64);
    let out = KeySet::of(b, a.len())?.filter(a, true)?;
    kfusion_trace::counter("kfusion_rows_out_total{op=\"semijoin\"}", out.len() as u64);
    Ok(out)
}

/// [`antijoin`] without the copy: `a` under the narrower selection of the
/// tuples whose key `b` does not select.
pub fn antijoin_view<'a>(a: &View<'a>, b: &View<'_>) -> Result<View<'a>, RelError> {
    kfusion_trace::counter("kfusion_rows_in_total{op=\"antijoin\"}", (a.len() + b.len()) as u64);
    let out = KeySet::of(b, a.len())?.filter(a, false)?;
    kfusion_trace::counter("kfusion_rows_out_total{op=\"antijoin\"}", out.len() as u64);
    Ok(out)
}

/// A key-sorted view's selected keys, for membership tests: built in one
/// walk of the right side ([`KeySet::of`]), tested in one walk of the left
/// ([`KeySet::filter`]), each checking that its side's keys never decrease.
#[derive(Debug)]
enum KeySet {
    /// Bit `k - lo` set for each key `k`, and bit `span` — one past the
    /// highest — clear.
    Bits { lo: u64, span: u64, bits: Vec<u64> },
    /// The keys in order, for a merge walk: what keys too far apart for a
    /// bitmap of O(rows) bits are kept as.
    Sorted(Vec<u64>),
}

impl KeySet {
    /// `b`'s selected keys, checked never to decrease. A bitmap when their
    /// span stays under `4 * (rows + b.len()) + 65 536` bits, where `rows`
    /// are the other side's tuples — O(the rows of both sides), like a
    /// counting sort's histograms — and a sorted list otherwise. One walk,
    /// on the calling thread.
    fn of(b: &View<'_>, rows: usize) -> Result<KeySet, RelError> {
        let Some((first, last)) = view::end_lanes(b.selection(), b.base_len()) else {
            return Ok(KeySet::Bits { lo: 0, span: 0, bits: vec![0] });
        };
        let (lo, hi) = (b.key().get(first), b.key().get(last));
        let span = hi.checked_sub(lo).ok_or(RelError::NotSorted)?.saturating_add(1);
        let words = 0..b.base_len().div_ceil(64);
        let (set, stretch) = if span < 4 * (rows + b.len()) as u64 + 65_536 {
            let mut bits = vec![0u64; (span + 1).div_ceil(64) as usize];
            let stretch = keyed_walk(
                b,
                words,
                |key| {
                    // Clamped, for an unsorted side's keys out of range.
                    let d = key.wrapping_sub(lo).min(span);
                    bits[(d / 64) as usize] |= 1 << (d % 64);
                    false
                },
                |_, _| {},
            );
            (KeySet::Bits { lo, span, bits }, stretch)
        } else {
            let mut keys = Vec::with_capacity(b.len());
            let stretch = keyed_walk(
                b,
                words,
                |key| {
                    keys.push(key);
                    false
                },
                |_, _| {},
            );
            (KeySet::Sorted(keys), stretch)
        };
        stretch.is_none_or(|s| s.sorted).then_some(set).ok_or(RelError::NotSorted)
    }

    /// `a` under the selection of its tuples whose key is in the set
    /// (`keep_present`) or is not, its keys checked never to decrease. The
    /// walk runs on the pool, a morsel of whole selection words at a time:
    /// each writes its own words of the selection, and the order check
    /// goes on across the cuts — one morsel's last key against the next
    /// one's first.
    fn filter<'a>(&self, a: &View<'a>, keep_present: bool) -> Result<View<'a>, RelError> {
        let mut sel = vec![0u64; a.base_len().div_ceil(64)];
        let per = DEFAULT_CTA_CHUNK / 64;
        let morsels: Vec<_> = sel.chunks_mut(per).enumerate().collect();
        let stretches = par_map(morsels, |_, (m, window)| {
            let words = m * per..m * per + window.len();
            let emit = |w: usize, word: u64| window[w - m * per] = word;
            match self {
                // No branch per key: one outside the span lands on the
                // clear bit `span`.
                KeySet::Bits { lo, span, bits } => keyed_walk(
                    a,
                    words,
                    |key| {
                        let d = key.wrapping_sub(*lo).min(*span);
                        (bits[(d / 64) as usize] >> (d % 64) & 1 == 1) == keep_present
                    },
                    emit,
                ),
                // The merge picks up where the morsel's first key falls.
                KeySet::Sorted(keys) => {
                    let mut j = None;
                    let present = |key| {
                        let j = j.get_or_insert_with(|| keys.partition_point(|&k| k < key));
                        while *j < keys.len() && keys[*j] < key {
                            *j += 1;
                        }
                        (*j < keys.len() && keys[*j] == key) == keep_present
                    };
                    keyed_walk(a, words, present, emit)
                }
            }
        });
        let (mut rows, mut last) = (0, None);
        for s in stretches.iter().flatten() {
            if !s.sorted || last.is_some_and(|last| last > s.first) {
                return Err(RelError::NotSorted);
            }
            (rows, last) = (rows + s.kept, Some(s.last));
        }
        Ok(a.with_selection(sel, rows))
    }
}

/// What a walk of some selection words found: the first and the last key
/// of the rows they select, whether those keys never decrease, and how
/// many rows it kept.
#[derive(Debug, Clone, Copy)]
struct Stretch {
    first: u64,
    last: u64,
    sorted: bool,
    kept: usize,
}

/// Walk `v`'s selected rows in selection words `words`, in order: `keep`
/// is called with each one's key, and `emit(w, word)` with the rows of
/// word `w` it kept. `None` when the words select no row. Keys by row id
/// and stored keys each get a walk of their own, with no branch on the key
/// kind inside.
fn keyed_walk(
    v: &View<'_>,
    words: Range<usize>,
    keep: impl FnMut(u64) -> bool,
    emit: impl FnMut(usize, u64),
) -> Option<Stretch> {
    match v.key() {
        Keys::Stored(keys) => walk(v, words, |i| keys[i], keep, emit),
        Keys::RowIds(_) => walk(v, words, |i| i as u64, keep, emit),
    }
}

fn walk(
    v: &View<'_>,
    words: Range<usize>,
    key: impl Fn(usize) -> u64,
    mut keep: impl FnMut(u64) -> bool,
    mut emit: impl FnMut(usize, u64),
) -> Option<Stretch> {
    let _steady = kfusion_trace::allocwatch::region();
    let n = v.base_len();
    let sel = v.selection();
    let mut stretch: Option<Stretch> = None;
    for w in words {
        let mut m = match sel {
            Some(sel) => sel[w],
            None if n - w * 64 >= 64 => u64::MAX,
            None => (1 << (n - w * 64)) - 1,
        };
        if m == 0 {
            emit(w, 0);
            continue;
        }
        let head = key(w * 64 + m.trailing_zeros() as usize);
        let s = stretch.get_or_insert(Stretch { first: head, last: head, sorted: true, kept: 0 });
        let (mut prev, mut sorted, mut kept) = (s.last, s.sorted, 0u64);
        while m != 0 {
            let bit = m.trailing_zeros();
            let k = key(w * 64 + bit as usize);
            sorted &= k >= prev;
            prev = k;
            kept |= (keep(k) as u64) << bit;
            m &= m - 1;
        }
        *s = Stretch { last: prev, sorted, kept: s.kept + kept.count_ones() as usize, ..*s };
        emit(w, kept);
    }
    stretch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Column;

    /// Table I JOIN example: x = {(3,a),(4,a),(2,b)}, y = {(2,f),(3,c)};
    /// join x y → {(2,b,f),(3,a,c)} (we emit key order; the paper's listing
    /// order is presentation only).
    #[test]
    fn table1_join_example() {
        // a=1 b=2 c=3 f=6.
        let x = Relation::new(vec![3, 4, 2], vec![Column::I64(vec![1, 1, 2])]).unwrap();
        let y = Relation::new(vec![2, 3], vec![Column::I64(vec![6, 3])]).unwrap();
        let by_key = |r: &Relation| crate::ops::sort(r, crate::ops::SortBy::Key).unwrap();
        let out = join(&by_key(&x), &by_key(&y)).unwrap();
        assert_eq!(*out.keys(), vec![2, 3]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[2, 1]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[6, 3]);
    }

    #[test]
    fn duplicate_keys_cross_product() {
        let a = Relation::new(vec![1, 1, 2], vec![Column::I64(vec![10, 11, 20])]).unwrap();
        let b = Relation::new(vec![1, 1], vec![Column::I64(vec![100, 101])]).unwrap();
        let out = join(&a, &b).unwrap();
        assert_eq!(*out.keys(), vec![1, 1, 1, 1]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[10, 10, 11, 11]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[100, 101, 100, 101]);
    }

    #[test]
    fn unsorted_input_is_rejected() {
        let a = Relation::from_keys(vec![2, 1]);
        let b = Relation::from_keys(vec![1]);
        assert!(matches!(join(&a, &b), Err(RelError::NotSorted)));
    }

    #[test]
    fn disjoint_keys_give_empty_join() {
        let a = Relation::from_keys(vec![1, 3, 5]);
        let b = Relation::from_keys(vec![2, 4, 6]);
        assert!(join(&a, &b).unwrap().is_empty());
    }

    #[test]
    fn join_as_column_combiner() {
        // The paper's Q1 plan joins per-column relations on row-id to build
        // a wide table (Fig. 17(a)): same keys, different payloads.
        let c1 = Relation::new(vec![0, 1, 2], vec![Column::F64(vec![1.0, 2.0, 3.0])]).unwrap();
        let c2 = Relation::new(vec![0, 1, 2], vec![Column::I64(vec![7, 8, 9])]).unwrap();
        let wide = join(&c1, &c2).unwrap();
        assert_eq!(wide.n_cols(), 2);
        assert_eq!(wide.len(), 3);
        assert_eq!(wide.cols[1].as_i64().unwrap(), &[7, 8, 9]);
    }

    #[test]
    fn column_join_zips_identical_keys() {
        let a = Relation::new(vec![0, 1], vec![Column::F64(vec![1.0, 2.0])]).unwrap();
        let b = Relation::new(vec![0, 1], vec![Column::I64(vec![5, 6])]).unwrap();
        let wide = column_join(&a, &b).unwrap();
        assert_eq!(wide.n_cols(), 2);
        assert_eq!(wide.cols[0].as_f64().unwrap(), &[1.0, 2.0]);
        assert_eq!(wide.cols[1].as_i64().unwrap(), &[5, 6]);
    }

    #[test]
    fn column_join_rejects_mismatched_keys() {
        let a = Relation::from_keys(vec![0, 1]);
        let b = Relation::from_keys(vec![0, 2]);
        assert!(matches!(column_join(&a, &b), Err(RelError::SchemaMismatch)));
    }

    #[test]
    fn column_join_view_references_until_a_side_is_filtered() {
        let a = Relation::new((0..100).collect(), vec![Column::I64((0..100).collect())]).unwrap();
        let b = Relation::new((0..100).collect(), vec![Column::F64(vec![0.5; 100])]).unwrap();
        let wide = column_join_view(&View::of(&a), &View::of(&b)).unwrap();
        assert_eq!((wide.len(), wide.n_cols()), (100, 2));
        assert_eq!(materialize(wide), column_join(&a, &b).unwrap());
        // A filtered side no longer lines up row for row with the other.
        let few = crate::ops::select_view(&View::of(&a), &crate::predicates::key_lt(10)).unwrap();
        assert!(matches!(column_join_view(&few, &View::of(&b)), Err(RelError::SchemaMismatch)));
        let both = column_join_view(&few, &few).unwrap();
        assert_eq!((both.len(), both.n_cols()), (10, 2));
        assert_eq!(materialize(both).cols[1].as_i64().unwrap(), (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn semijoin_and_antijoin_partition_input() {
        let a = Relation::from_keys(vec![1, 2, 3, 4, 5]);
        let b = Relation::from_keys(vec![2, 4, 9]);
        let semi = semijoin(&a, &b).unwrap();
        let anti = antijoin(&a, &b).unwrap();
        assert_eq!(*semi.keys(), vec![2, 4]);
        assert_eq!(*anti.keys(), vec![1, 3, 5]);
        assert_eq!(semi.len() + anti.len(), a.len());
    }

    #[test]
    fn semijoin_does_not_duplicate_on_multi_match() {
        let a = Relation::from_keys(vec![1, 2]);
        let b = Relation::from_keys(vec![2, 2, 2]);
        assert_eq!(semijoin(&a, &b).unwrap().key, vec![2]);
    }

    /// `n` sorted keys below `max`, with duplicates, over a column that is
    /// 0 on every other row.
    fn keyed(n: usize, max: u64, seed: u64) -> Relation {
        let mut rng = kfusion_prng::Rng::seed_from_u64(seed);
        let mut keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..max)).collect();
        keys.sort_unstable();
        Relation::new(keys, vec![Column::I64((0..n as i64).map(|i| i % 2).collect())]).unwrap()
    }

    /// The rows of `rel` whose column 0 is 0: every other one.
    fn every_other(rel: &Relation) -> View<'_> {
        let pred = crate::predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Eq, 0);
        crate::ops::select_view(&View::of(rel), &pred).unwrap()
    }

    /// What a semijoin (`keep_present`) or an antijoin keeps, row at a time.
    fn oracle(a: &View<'_>, b: &View<'_>, keep_present: bool) -> Relation {
        let (a, b) = (materialize(a.clone()), materialize(b.clone()));
        let present: std::collections::HashSet<u64> = b.keys().iter().collect();
        let keep: Vec<u32> = (0..a.len() as u32)
            .filter(|&i| present.contains(&a.keys().get(i as usize)) == keep_present)
            .collect();
        crate::view::gather(&View::of(&a), &keep)
    }

    #[test]
    fn semijoin_and_antijoin_are_their_views_materialized() {
        for (na, nb, max) in
            [(0, 50, 100), (50, 0, 100), (3_000, 700, 2_000), (5_000, 4_000, 1 << 40)]
        {
            let (a, b) = (keyed(na, max, 1), keyed(nb, max, 2));
            let (va, vb) = (View::of(&a), View::of(&b));
            assert_eq!(semijoin(&a, &b).unwrap(), materialize(semijoin_view(&va, &vb).unwrap()));
            assert_eq!(antijoin(&a, &b).unwrap(), materialize(antijoin_view(&va, &vb).unwrap()));
            // Filtered sides are read where they are.
            for (va, vb) in [(every_other(&a), View::of(&b)), (View::of(&a), every_other(&b))] {
                for keep_present in [true, false] {
                    let got = KeySet::of(&vb, va.len()).unwrap().filter(&va, keep_present);
                    let got = got.unwrap();
                    assert_eq!(materialize(got), oracle(&va, &vb, keep_present), "{na} {nb}");
                }
            }
        }
    }

    /// The widest bitmap and the narrowest list: spans one below, at and
    /// one past `4 * (|a| + |b|) + 65 536`. Either set gives the same
    /// selection as the other, and `KeySet::of` picks the bitmap only
    /// below the bound.
    #[test]
    fn the_probe_and_the_merge_agree_on_both_sides_of_the_span_bound() {
        let a = keyed(9_000, 100_000, 3);
        let mid = keyed(1_000, 100_000, 4);
        let bound = 4 * (a.len() + mid.len() + 2) as u64 + 65_536;
        for span in [bound - 1, bound, bound + 1] {
            // Keys from 7 to 7 + span - 1: the middle ones and both ends.
            let mut keys = vec![7];
            keys.extend(mid.keys().iter().map(|k| 7 + k * (span - 1) / 100_000));
            keys.push(7 + span - 1);
            let b = Relation::from_keys(keys.clone());
            let (va, vb) = (View::of(&a), View::of(&b));
            let picked = KeySet::of(&vb, va.len()).unwrap();
            assert_eq!(matches!(picked, KeySet::Bits { .. }), span < bound, "span {span}");
            let mut bits = vec![0u64; (span + 1).div_ceil(64) as usize];
            keys.iter().map(|k| k - 7).for_each(|d| bits[(d / 64) as usize] |= 1 << (d % 64));
            let probe = KeySet::Bits { lo: 7, span, bits };
            let merge = KeySet::Sorted(keys);
            for keep_present in [true, false] {
                let (p, m) = (probe.filter(&va, keep_present), merge.filter(&va, keep_present));
                let (p, m) = (p.unwrap(), m.unwrap());
                assert_eq!((p.selection(), p.len()), (m.selection(), m.len()), "span {span}");
                assert_eq!(materialize(p), oracle(&va, &vb, keep_present));
            }
        }
    }

    #[test]
    fn keys_zero_and_max_take_the_merge_without_overflow() {
        let b = Relation::from_keys(vec![0, 5, u64::MAX]);
        assert!(matches!(KeySet::of(&View::of(&b), 3), Ok(KeySet::Sorted(_))));
        let a = Relation::from_keys(vec![0, 1, 5, u64::MAX - 1, u64::MAX]);
        assert_eq!(*semijoin(&a, &b).unwrap().keys(), vec![0, 5, u64::MAX]);
        assert_eq!(*antijoin(&a, &b).unwrap().keys(), vec![1, u64::MAX - 1]);
    }

    #[test]
    fn an_unsorted_side_is_rejected_either_way_round() {
        let (sorted, unsorted) =
            (Relation::from_keys(vec![1, 2, 3]), Relation::from_keys(vec![3, 1, 2]));
        // Unsorted between sorted ends too.
        let middle = Relation::from_keys(vec![1, 9, 0, 3]);
        let wide = Relation::from_keys(vec![0, 1 << 50, 7, u64::MAX]);
        for bad in [&unsorted, &middle, &wide] {
            for (a, b) in [(bad, &sorted), (&sorted, bad)] {
                assert!(matches!(semijoin(a, b), Err(RelError::NotSorted)));
                assert!(matches!(antijoin(a, b), Err(RelError::NotSorted)));
            }
        }
    }

    #[test]
    fn row_id_keys_are_probed_as_their_row_numbers() {
        let ids = Relation::with_row_ids(vec![Column::I64((0..500).collect())]).unwrap();
        let b = Relation::from_keys(vec![3, 3, 64, 499, 900]);
        let semi = semijoin(&ids, &b).unwrap();
        assert_eq!(*semi.keys(), vec![3, 64, 499]);
        assert_eq!(semi.cols[0].as_i64().unwrap(), &[3, 64, 499]);
        assert_eq!(antijoin(&ids, &b).unwrap().len(), 497);
        assert_eq!(*semijoin(&b, &ids).unwrap().keys(), vec![3, 3, 64, 499]);
    }
}
