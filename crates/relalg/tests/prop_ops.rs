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
