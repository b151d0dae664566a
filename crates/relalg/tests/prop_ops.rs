//! Property tests: every relational operator agrees with an obviously
//! correct (naive) model implementation on random inputs, and the
//! substrate's invariants (sortedness, schema preservation) hold.
//!
//! Cases come from a seeded loop over `kfusion-prng` streams; each case
//! index reproduces independently.

use kfusion_prng::Rng;
use kfusion_relalg::ops;
use kfusion_relalg::predicates;
use kfusion_relalg::{Column, Relation};
use std::collections::HashSet;

const CASES: u64 = 128;

fn rng_for(tag: u64, case: u64) -> Rng {
    Rng::seed_from_u64(tag << 32 | case)
}

fn keys(rng: &mut Rng, max_key: u64, max_len: usize) -> Vec<u64> {
    let len = rng.gen_range(0..max_len + 1);
    (0..len).map(|_| rng.gen_range(0..max_key)).collect()
}

fn rel_keys(rng: &mut Rng, max_key: u64, max_len: usize) -> Relation {
    Relation::from_keys(keys(rng, max_key, max_len))
}

fn sorted_rel(rng: &mut Rng, max_key: u64, max_len: usize) -> Relation {
    let len = rng.gen_range(0..max_len + 1);
    let mut rows: Vec<(u64, i64)> =
        (0..len).map(|_| (rng.gen_range(0..max_key), rng.gen_range(-50i64..50))).collect();
    rows.sort_by_key(|r| r.0);
    Relation::new(
        rows.iter().map(|r| r.0).collect(),
        vec![Column::I64(rows.iter().map(|r| r.1).collect())],
    )
    .unwrap()
}

/// SELECT == the obvious filter.
#[test]
fn select_matches_filter() {
    for case in 0..CASES {
        let mut rng = rng_for(0xA1, case);
        let r = rel_keys(&mut rng, 1000, 200);
        let t = rng.gen_range(0u64..1000);
        let out = ops::select(&r, &predicates::key_lt(t)).unwrap();
        let expect: Vec<u64> = r.keys().iter().filter(|&k| k < t).collect();
        assert_eq!(*out.keys(), expect, "case {case}");
    }
}

/// SELECT then SELECT == SELECT of the conjunction, and cardinality is
/// monotonically non-increasing.
#[test]
fn select_chain_shrinks() {
    for case in 0..CASES {
        let mut rng = rng_for(0xA2, case);
        let r = rel_keys(&mut rng, 1000, 200);
        let (t1, t2) = (rng.gen_range(0u64..1000), rng.gen_range(0u64..1000));
        let (out, cards) =
            ops::select_chain_unfused(&r, &[predicates::key_lt(t1), predicates::key_lt(t2)])
                .unwrap();
        assert!(cards[0] >= cards[1], "case {case}");
        let direct = ops::select(&r, &predicates::key_lt(t1.min(t2))).unwrap();
        assert_eq!(out, direct, "case {case}");
    }
}

/// Sort-merge JOIN == nested-loop join (as multisets of key pairs, in
/// any order): compare sorted pair lists.
#[test]
fn join_matches_nested_loop() {
    for case in 0..CASES {
        let mut rng = rng_for(0xA3, case);
        let a = sorted_rel(&mut rng, 40, 60);
        let b = sorted_rel(&mut rng, 40, 60);
        let out = ops::join(&a, &b).unwrap();
        let mut got: Vec<(u64, i64, i64)> = (0..out.len())
            .map(|i| {
                (
                    out.keys().get(i),
                    out.cols[0].as_i64().unwrap()[i],
                    out.cols[1].as_i64().unwrap()[i],
                )
            })
            .collect();
        got.sort_unstable();
        let mut expect = Vec::new();
        for i in 0..a.len() {
            for j in 0..b.len() {
                if a.keys().get(i) == b.keys().get(j) {
                    expect.push((
                        a.keys().get(i),
                        a.cols[0].as_i64().unwrap()[i],
                        b.cols[0].as_i64().unwrap()[j],
                    ));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got, expect, "case {case}");
    }
}

/// Semijoin + antijoin partition the left side.
#[test]
fn semi_plus_anti_partition() {
    for case in 0..CASES {
        let mut rng = rng_for(0xA4, case);
        let a = sorted_rel(&mut rng, 50, 80);
        let b = sorted_rel(&mut rng, 50, 80);
        let semi = ops::semijoin(&a, &b).unwrap();
        let anti = ops::antijoin(&a, &b).unwrap();
        assert_eq!(semi.len() + anti.len(), a.len(), "case {case}");
        let b_keys: HashSet<u64> = b.keys().iter().collect();
        assert!(semi.keys().iter().all(|k| b_keys.contains(&k)), "case {case}");
        assert!(anti.keys().iter().all(|k| !b_keys.contains(&k)), "case {case}");
    }
}

/// Set-operator algebra: membership laws and union dedup.
#[test]
fn set_op_identities() {
    for case in 0..CASES {
        let mut rng = rng_for(0xA5, case);
        let a = rel_keys(&mut rng, 30, 50);
        let b = rel_keys(&mut rng, 30, 50);
        let inter = ops::intersection(&a, &b).unwrap();
        let diff = ops::difference(&a, &b).unwrap();
        let uni = ops::union(&a, &b).unwrap();
        // difference keeps duplicates of a; intersection dedups — compare
        // against per-tuple membership instead of cardinality arithmetic.
        let b_set: HashSet<u64> = b.keys().iter().collect();
        let expect_diff: Vec<u64> = a.keys().iter().filter(|k| !b_set.contains(k)).collect();
        assert_eq!(*diff.keys(), expect_diff, "case {case}");
        let uni_set: HashSet<u64> = uni.keys().iter().collect();
        assert!(a.keys().iter().all(|k| uni_set.contains(&k)), "case {case}");
        assert!(b.keys().iter().all(|k| uni_set.contains(&k)), "case {case}");
        let a_set: HashSet<u64> = a.keys().iter().collect();
        assert!(
            inter.keys().iter().all(|k| a_set.contains(&k) && b_set.contains(&k)),
            "case {case}"
        );
        // Union has no duplicate tuples (bare keys: no duplicate keys).
        assert_eq!(uni_set.len(), uni.len(), "case {case}");
    }
}

/// SORT produces a sorted permutation; UNIQUE of it dedups.
#[test]
fn sort_then_unique() {
    for case in 0..CASES {
        let mut rng = rng_for(0xA6, case);
        let keys = keys(&mut rng, 100, 300);
        let r = Relation::from_keys(keys.clone());
        let sorted = ops::sort(&r, ops::SortBy::Key).unwrap();
        assert!(sorted.is_key_sorted(), "case {case}");
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(*sorted.keys(), expect, "case {case}");
        let uniq = ops::unique(&sorted).unwrap();
        expect.dedup();
        assert_eq!(*uniq.keys(), expect, "case {case}");
    }
}

/// AGGREGATE sums match a HashMap fold.
#[test]
fn aggregate_matches_hashmap() {
    for case in 0..CASES {
        let mut rng = rng_for(0xA7, case);
        let r = sorted_rel(&mut rng, 20, 150);
        let out = ops::aggregate_by_key(&r, &[ops::Agg::Sum(0), ops::Agg::Count]).unwrap();
        let mut expect: std::collections::BTreeMap<u64, (i64, i64)> = Default::default();
        for i in 0..r.len() {
            let e = expect.entry(r.keys().get(i)).or_insert((0, 0));
            e.0 += r.cols[0].as_i64().unwrap()[i];
            e.1 += 1;
        }
        assert_eq!(out.keys().len(), expect.len(), "case {case}");
        for (i, (k, (sum, count))) in expect.iter().enumerate() {
            assert_eq!(out.keys().get(i), *k, "case {case}");
            assert_eq!(out.cols[0].as_i64().unwrap()[i], *sum, "case {case}");
            assert_eq!(out.cols[1].as_i64().unwrap()[i], *count, "case {case}");
        }
    }
}

/// PRODUCT cardinality and key structure.
#[test]
fn product_shape() {
    for case in 0..CASES {
        let mut rng = rng_for(0xA8, case);
        let a = rel_keys(&mut rng, 100, 20);
        let b = rel_keys(&mut rng, 100, 20);
        let out = ops::product(&a, &b).unwrap();
        assert_eq!(out.len(), a.len() * b.len(), "case {case}");
        if !b.is_empty() {
            for (i, k) in a.keys().iter().enumerate() {
                assert_eq!(out.keys().get(i * b.len()), k, "case {case}");
            }
        }
    }
}

/// column_join then project recovers both sides.
#[test]
fn column_join_roundtrip() {
    for case in 0..CASES {
        let mut rng = rng_for(0xA9, case);
        let len = rng.gen_range(1usize..50);
        let rows: Vec<(i64, i64)> =
            (0..len).map(|_| (rng.gen_range(-50i64..50), rng.gen_range(-50i64..50))).collect();
        let key: Vec<u64> = (0..rows.len() as u64).collect();
        let a = Relation::new(key.clone(), vec![Column::I64(rows.iter().map(|r| r.0).collect())])
            .unwrap();
        let b = Relation::new(key, vec![Column::I64(rows.iter().map(|r| r.1).collect())]).unwrap();
        let wide = ops::column_join(&a, &b).unwrap();
        assert_eq!(ops::project(&wide, &[0]).unwrap(), a, "case {case}");
        assert_eq!(ops::project(&wide, &[1]).unwrap(), b, "case {case}");
    }
}

/// rekey moves values to keys; a subsequent sort groups them.
#[test]
fn rekey_then_sort_groups() {
    for case in 0..CASES {
        let mut rng = rng_for(0xAA, case);
        let len = rng.gen_range(1usize..100);
        let vals: Vec<i64> = (0..len).map(|_| rng.gen_range(0i64..10)).collect();
        let key: Vec<u64> = (0..vals.len() as u64).collect();
        let r = Relation::new(key, vec![Column::I64(vals.clone())]).unwrap();
        let rk = ops::rekey(&r, 0).unwrap();
        assert_eq!(rk.n_cols(), 0, "case {case}");
        let sorted = ops::sort(&rk, ops::SortBy::Key).unwrap();
        assert!(sorted.is_key_sorted(), "case {case}");
        let mut expect: Vec<u64> = vals.iter().map(|&v| v as u64).collect();
        expect.sort_unstable();
        assert_eq!(*sorted.keys(), expect, "case {case}");
    }
}

mod compress_props {
    use kfusion_prng::Rng;
    use kfusion_relalg::compress::{best_for, compress, decompress, Scheme};

    const CASES: u64 = 192;

    /// Bit packing round-trips arbitrary values.
    #[test]
    fn bitpack_roundtrips() {
        for case in 0..CASES {
            let mut rng = Rng::seed_from_u64(0xB1 << 32 | case);
            let len = rng.gen_range(0usize..300);
            let vals: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let b = compress(&vals, Scheme::BitPack).unwrap();
            assert_eq!(decompress(&b), vals, "case {case}");
        }
    }

    /// RLE round-trips arbitrary values (runs or not).
    #[test]
    fn rle_roundtrips() {
        for case in 0..CASES {
            let mut rng = Rng::seed_from_u64(0xB2 << 32 | case);
            let len = rng.gen_range(0usize..400);
            let vals: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..32)).collect();
            let b = compress(&vals, Scheme::Rle).unwrap();
            assert_eq!(decompress(&b), vals, "case {case}");
        }
    }

    /// Delta round-trips any sorted input.
    #[test]
    fn delta_roundtrips_sorted() {
        for case in 0..CASES {
            let mut rng = Rng::seed_from_u64(0xB3 << 32 | case);
            let len = rng.gen_range(0usize..300);
            let mut vals: Vec<u64> = (0..len).map(|_| rng.next_u64() & 0xFFFF_FFFF).collect();
            vals.sort_unstable();
            let b = compress(&vals, Scheme::Delta).unwrap();
            assert_eq!(decompress(&b), vals, "case {case}");
        }
    }

    /// best_for always round-trips and never exceeds raw u64 size by
    /// more than the header.
    #[test]
    fn best_for_is_sound() {
        for case in 0..CASES {
            let mut rng = Rng::seed_from_u64(0xB4 << 32 | case);
            let len = rng.gen_range(1usize..300);
            let vals: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let b = best_for(&vals);
            assert_eq!(decompress(&b), vals, "case {case}");
            assert!(b.wire_bytes() <= vals.len() as u64 * 8 + 64, "case {case}");
        }
    }
}

/// JOIN, PRODUCT and the set operators against nested-loop oracles over
/// tuple lists, bit for bit: every cell is compared as its 64-bit pattern
/// (an i64 as itself, an f64 by `to_bits`, so NaN payloads and `-0.0` count),
/// in output order, with the output's column types. Inputs mix duplicate
/// keys, empty sides, skewed keys, i64 and f64 payloads drawn from a few
/// values — NaN, a second NaN payload, `0.0` and `-0.0` among them, so equal
/// tuples recur — and keys stored or by row id.
mod oracle {
    use super::rng_for;
    use kfusion_ir::CmpOp;
    use kfusion_prng::Rng;
    use kfusion_relalg::{materialize, ops, predicates};
    use kfusion_relalg::{Column, Keys, RelError, Relation, View};
    use kfusion_vgpu::exec::DEFAULT_CTA_CHUNK;

    /// A tuple as bit patterns: the key, then each payload cell.
    type Tuple = Vec<u64>;

    /// Column types, `true` for f64.
    type Schema = Vec<bool>;

    const FLOATS: [f64; 5] = [0.0, -0.0, f64::NAN, 1.5, -2.25];

    /// A NaN whose payload differs from `f64::NAN`'s.
    fn other_nan() -> f64 {
        f64::from_bits(f64::NAN.to_bits() | 1)
    }

    fn tuples(r: &Relation) -> Vec<Tuple> {
        (0..r.len())
            .map(|i| {
                let cells = r.cols.iter().map(|c| match c {
                    Column::I64(v) => v[i] as u64,
                    Column::F64(v) => v[i].to_bits(),
                });
                std::iter::once(r.keys().get(i)).chain(cells).collect()
            })
            .collect()
    }

    fn schema(r: &Relation) -> Schema {
        r.cols.iter().map(|c| matches!(c, Column::F64(_))).collect()
    }

    /// Keys drawn the way `shape` says: 0 a narrow range (many duplicates),
    /// 1 skewed (most rows on one key), 2 a wide range (few duplicates).
    fn arb_keys(rng: &mut Rng, len: usize, shape: u32) -> Vec<u64> {
        (0..len)
            .map(|_| match shape {
                0 => rng.gen_range(0u64..6),
                1 if rng.gen_range(0u32..4) != 0 => 3,
                _ => rng.gen_range(0u64..40),
            })
            .collect()
    }

    fn arb_column(rng: &mut Rng, len: usize, float: bool) -> Column {
        match float {
            true => Column::F64(
                (0..len)
                    .map(|_| match rng.gen_range(0usize..FLOATS.len() + 1) {
                        k if k < FLOATS.len() => FLOATS[k],
                        _ => other_nan(),
                    })
                    .collect(),
            ),
            false => Column::I64((0..len).map(|_| rng.gen_range(-2i64..2)).collect()),
        }
    }

    /// A relation of `schema`, `len` rows: keyed by row id when `row_ids`,
    /// else by drawn keys, sorted when `sorted`.
    fn arb_rel(
        rng: &mut Rng,
        schema: &[bool],
        len: usize,
        row_ids: bool,
        sorted: bool,
    ) -> Relation {
        let cols: Vec<Column> = schema.iter().map(|&f| arb_column(rng, len, f)).collect();
        if row_ids {
            return Relation::from_parts(Keys::RowIds(len), cols).unwrap();
        }
        let shape = rng.gen_range(0u32..3);
        let mut keys = arb_keys(rng, len, shape);
        if sorted {
            keys.sort_unstable();
        }
        Relation::new(keys, cols).unwrap()
    }

    fn arb_schema(rng: &mut Rng) -> Schema {
        (0..rng.gen_range(0usize..3)).map(|_| rng.gen_range(0u32..2) == 0).collect()
    }

    /// A side's length: empty now and then, a few rows mostly, and once in
    /// a while enough to span several gather workers' columns.
    fn arb_len(rng: &mut Rng, case: u64) -> usize {
        match (case % 16, rng.gen_range(0u32..6)) {
            (15, _) => rng.gen_range(1000usize..3000),
            (_, 0) => 0,
            _ => rng.gen_range(1usize..30),
        }
    }

    /// Two sides for a case: their schemas equal when `same_schema`.
    fn sides(rng: &mut Rng, case: u64, same_schema: bool, sorted: bool) -> (Relation, Relation) {
        let sa = arb_schema(rng);
        let sb = if same_schema { sa.clone() } else { arb_schema(rng) };
        // Keys by row id are sorted and distinct; a set operator over two
        // such sides sees equal keys only at equal positions.
        let (ra, rb) = (rng.gen_range(0u32..4) == 0, rng.gen_range(0u32..4) == 0);
        let (la, lb) = (arb_len(rng, case), arb_len(rng, case));
        (arb_rel(rng, &sa, la, ra, sorted), arb_rel(rng, &sb, lb, rb, sorted))
    }

    fn check(what: &str, got: &Relation, want: (Schema, Vec<Tuple>)) {
        assert_eq!(schema(got), want.0, "{what}: column types");
        assert_eq!(tuples(got), want.1, "{what}");
    }

    #[test]
    fn join_matches_the_nested_loop_bit_for_bit() {
        for case in 0..super::CASES {
            let mut rng = rng_for(0xC1, case);
            let (a, b) = sides(&mut rng, case, false, true);
            let (ta, tb) = (tuples(&a), tuples(&b));
            let mut want = Vec::new();
            for x in &ta {
                for y in tb.iter().filter(|y| y[0] == x[0]) {
                    want.push(x.iter().chain(&y[1..]).copied().collect());
                }
            }
            let types = schema(&a).into_iter().chain(schema(&b)).collect();
            check(&format!("join case {case}"), &ops::join(&a, &b).unwrap(), (types, want));
        }
    }

    #[test]
    fn an_unsorted_join_side_is_rejected_either_way_round() {
        for case in 0..super::CASES {
            let mut rng = rng_for(0xC2, case);
            let (a, b) = sides(&mut rng, case, false, false);
            for (x, y) in [(&a, &b), (&b, &a)] {
                let sorted = x.is_key_sorted() && y.is_key_sorted();
                match ops::join(x, y) {
                    Ok(_) => assert!(sorted, "case {case}: an unsorted side joined"),
                    Err(e) => assert!(!sorted && e == RelError::NotSorted, "case {case}: {e:?}"),
                }
            }
        }
    }

    #[test]
    fn product_matches_the_nested_loop_bit_for_bit() {
        for case in 0..super::CASES {
            let mut rng = rng_for(0xC3, case);
            // Never the long sides: their product is millions of rows.
            let (x, y) = sides(&mut rng, case % 15, false, false);
            let (tx, ty) = (tuples(&x), tuples(&y));
            let mut want = Vec::new();
            for l in &tx {
                for r in &ty {
                    // `y`'s key becomes an i64 column after `x`'s payload.
                    want.push(l.iter().chain(r).copied().collect());
                }
            }
            let types = schema(&x).into_iter().chain([false]).chain(schema(&y)).collect();
            check(&format!("product case {case}"), &ops::product(&x, &y).unwrap(), (types, want));
        }
    }

    /// SEMIJOIN keeps `a`'s tuples whose key some tuple of `b` holds, in
    /// order; ANTIJOIN the others.
    fn semi_anti_oracle(a: &Relation, b: &Relation) -> (Vec<Tuple>, Vec<Tuple>) {
        let tb = tuples(b);
        tuples(a).into_iter().partition(|x| tb.iter().any(|y| y[0] == x[0]))
    }

    /// The rows of `rel` whose i64 column `c` is 0, as a view.
    fn zeros_of(rel: &Relation, c: usize) -> View<'_> {
        ops::select_view(&View::of(rel), &predicates::col_cmp_i64(c, CmpOp::Eq, 0)).unwrap()
    }

    /// SEMIJOIN and ANTIJOIN of a view, against the oracle over its rows.
    fn check_semi_anti(what: &str, a: &View<'_>, b: &Relation) {
        let rows = materialize(a.clone());
        let (semi, anti) = semi_anti_oracle(&rows, b);
        let vb = View::of(b);
        let semijoin = materialize(ops::semijoin_view(a, &vb).unwrap());
        let antijoin = materialize(ops::antijoin_view(a, &vb).unwrap());
        check(&format!("semijoin, {what}"), &semijoin, (schema(&rows), semi));
        check(&format!("antijoin, {what}"), &antijoin, (schema(&rows), anti));
    }

    #[test]
    fn semijoin_and_antijoin_match_the_nested_loop_bit_for_bit() {
        for case in 0..super::CASES {
            let mut rng = rng_for(0xC5, case);
            let (a, b) = sides(&mut rng, case, false, true);
            check_semi_anti(&format!("case {case}"), &View::of(&a), &b);
        }
        // A left side over several of the walk's morsels, whole and every
        // other row of it.
        let mut rng = rng_for(0xC5, super::CASES);
        let n = 3 * DEFAULT_CTA_CHUNK + 17;
        let mut keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..n as u64 / 3)).collect();
        keys.sort_unstable();
        let parity = Column::I64((0..n as i64).map(|i| i % 2).collect());
        let a = Relation::new(keys, vec![parity, arb_column(&mut rng, n, true)]).unwrap();
        let b = arb_rel(&mut rng, &[true], 300, false, true);
        let b =
            Relation::new(b.keys().iter().map(|k| k * n as u64 / 120).collect(), b.cols).unwrap();
        // A key far past the others makes the right side a sorted list for
        // the merge walk instead of a bitmap.
        let far = Relation::from_keys(b.keys().iter().chain([u64::MAX]).collect());
        for b in [&b, &far] {
            check_semi_anti("over morsels", &View::of(&a), b);
            check_semi_anti("every other row over morsels", &zeros_of(&a, 0), b);
        }
    }

    /// The left walk runs a morsel of whole selection words at a time; the
    /// order check goes on across the cuts. Keys in order inside each
    /// morsel, out of order only from the last selected row before a cut to
    /// the first after it, are `NotSorted` — and out of order only among
    /// rows the view does not select, are not.
    #[test]
    fn an_inversion_on_a_morsel_cut_is_rejected() {
        let cut = DEFAULT_CTA_CHUNK as u64;
        let n = 2 * cut + 100;
        // Every key past the cut 30 below its row number; column `c` flags
        // the rows within 5 (`c` = 0) or 30 (`c` = 1) of the cut.
        let keys: Vec<u64> = (0..n).map(|i| if i < cut { i } else { i - 30 }).collect();
        let near =
            |w: u64| Column::I64((0..n).map(|i| (i + w >= cut && i < cut + w) as i64).collect());
        let a = Relation::new(keys, vec![near(5), near(30)]).unwrap();
        let b = Relation::from_keys(vec![3, cut - 40, cut + 7, n]);
        let vb = View::of(&b);
        for left in [View::of(&a), zeros_of(&a, 0)] {
            assert_eq!(ops::semijoin_view(&left, &vb).err(), Some(RelError::NotSorted));
            assert_eq!(ops::antijoin_view(&left, &vb).err(), Some(RelError::NotSorted));
        }
        let in_order = zeros_of(&a, 1);
        assert!(materialize(in_order.clone()).is_key_sorted());
        check_semi_anti("the inverted rows unselected", &in_order, &b);
    }

    /// `t` in `list`, compared cell by cell as bit patterns.
    fn contains(list: &[Tuple], t: &Tuple) -> bool {
        list.iter().any(|u| u == t)
    }

    /// UNION: `a`'s tuples, then `b`'s, each kept once — the first time it
    /// appears. INTERSECT: `a`'s tuples that `b` holds, each once.
    /// DIFFERENCE: `a`'s tuples that `b` does not hold, duplicates kept.
    #[test]
    fn set_operators_match_the_nested_loop_bit_for_bit() {
        for case in 0..super::CASES {
            let mut rng = rng_for(0xC4, case);
            let sorted = rng.gen_range(0u32..2) == 0;
            let (a, b) = sides(&mut rng, case, true, sorted);
            let (ta, tb) = (tuples(&a), tuples(&b));
            let types = schema(&a);

            let mut union = Vec::new();
            for t in ta.iter().chain(&tb) {
                if !contains(&union, t) {
                    union.push(t.clone());
                }
            }
            let mut inter = Vec::new();
            for t in &ta {
                if contains(&tb, t) && !contains(&inter, t) {
                    inter.push(t.clone());
                }
            }
            let diff: Vec<Tuple> = ta.iter().filter(|t| !contains(&tb, t)).cloned().collect();

            let what = |op: &str| format!("{op} case {case}");
            check(&what("union"), &ops::union(&a, &b).unwrap(), (types.clone(), union));
            check(
                &what("intersection"),
                &ops::intersection(&a, &b).unwrap(),
                (types.clone(), inter),
            );
            check(&what("difference"), &ops::difference(&a, &b).unwrap(), (types, diff));
        }
    }

    /// The special floats are told apart by bit pattern: `0.0` and `-0.0`
    /// are different tuples, so are two NaN payloads, and a NaN equals its
    /// own bit pattern.
    #[test]
    fn set_operators_compare_floats_by_bit_pattern() {
        let col = |v: Vec<f64>| Relation::new(vec![1; v.len()], vec![Column::F64(v)]).unwrap();
        let a = col(vec![0.0, -0.0, f64::NAN, other_nan(), f64::NAN]);
        let b = col(vec![-0.0, f64::NAN]);
        let bits = |r: &Relation| tuples(r).into_iter().map(|t| t[1]).collect::<Vec<_>>();
        let (z, nz, nan, nan2) =
            (0.0f64.to_bits(), (-0.0f64).to_bits(), f64::NAN.to_bits(), other_nan().to_bits());
        assert_eq!(bits(&ops::union(&a, &b).unwrap()), [z, nz, nan, nan2]);
        assert_eq!(bits(&ops::intersection(&a, &b).unwrap()), [nz, nan]);
        assert_eq!(bits(&ops::difference(&a, &b).unwrap()), [z, nan2]);
    }

    /// The f64 whose `f64::total_cmp` rank, as SORT ranks it, is `r`:
    /// every rank is one, NaNs of every payload and ±∞ among them.
    fn of_rank(r: u64) -> f64 {
        f64::from_bits(if r >> 63 == 1 { r ^ 1 << 63 } else { !r })
    }

    /// SORT is one stable radix sort whose passes follow the rank span. By
    /// every `SortBy`, over ranks that span either side of the counting
    /// bound (`4n + 65 536` buckets for `n` selected rows: one pass below
    /// it, digit passes from it on) and 2⁸, 2¹⁶, 2³², 2⁵⁶ and 2⁶⁴ − 1,
    /// `sort` and `sort_view` give what the bitonic network gives, bit for
    /// bit: over dense views and every third row, keys and i64 columns that
    /// reach 0, `u64::MAX`, `i64::MIN` and `i64::MAX`, and f64 columns with
    /// NaN, ±0.0 and ±∞ among them.
    #[test]
    fn sort_matches_the_bitonic_network_over_every_rank_span() {
        use kfusion_relalg::ops::SortBy;
        const SPECIAL: [f64; 5] = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        let every_sort = [
            SortBy::Key,
            SortBy::KeyDesc,
            SortBy::I64Col(0),
            SortBy::I64ColDesc(0),
            SortBy::F64Col(1),
            SortBy::F64ColDesc(1),
            SortBy::F64Col(2),
            SortBy::F64ColDesc(2),
        ];
        for n in [0usize, 1, 63, 64, 65, 4_097, 70_000] {
            for thirds in [false, true] {
                let rows = if thirds { n.div_ceil(3) } else { n } as u64;
                let bound = 4 * rows + 65_536;
                let spans =
                    [bound - 2, bound - 1, bound, 1 << 8, 1 << 16, 1 << 32, 1 << 56, u64::MAX];
                for (s, span) in spans.into_iter().enumerate() {
                    let mut rng = rng_for(0xC9, (n * 64 + s * 2 + thirds as usize) as u64);
                    // Ranks in lo ..= lo + span, each end on a row every
                    // third row keeps.
                    let lo = rng.gen_range(0..=u64::MAX - span);
                    let mut ranks = || -> Vec<u64> {
                        (0..n)
                            .map(|i| match i {
                                0 => lo,
                                3 => lo + span,
                                _ => lo + rng.gen_range(0..=span),
                            })
                            .collect()
                    };
                    let (keys, ints, floats) = (ranks(), ranks(), ranks());
                    let special = (0..n)
                        .map(|i| match i % 5 {
                            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                            1 if i % 2 == 0 => other_nan(),
                            _ => rng.next_f64() * 2e3 - 1e3,
                        })
                        .collect();
                    let r = Relation::new(
                        keys,
                        vec![
                            Column::I64(ints.into_iter().map(|r| (r ^ 1 << 63) as i64).collect()),
                            Column::F64(floats.into_iter().map(of_rank).collect()),
                            Column::F64(special),
                            Column::I64((0..n as i64).map(|i| i % 3).collect()),
                        ],
                    )
                    .unwrap();
                    let view = if thirds { zeros_of(&r, 3) } else { View::of(&r) };
                    let rows_of_view = materialize(view.clone());
                    for by in every_sort {
                        let what = format!("n={n} thirds={thirds} span={span:#x} {by:?}");
                        let want = tuples(&ops::bitonic_sort(&rows_of_view, by).unwrap());
                        let got = materialize(ops::sort_view(&view, by).unwrap());
                        assert_eq!(tuples(&got), want, "sort_view, {what}");
                        assert_eq!(tuples(&ops::sort(&rows_of_view, by).unwrap()), want, "{what}");
                    }
                }
            }
        }
    }
}
