//! Seeded workload generators.
//!
//! The paper's micro-benchmarks run over "randomly generated 32-bit integers
//! representing compressed row data"; selectivity is dialed by filtering a
//! uniform key space with a proportional threshold. Everything is seeded so
//! every figure regenerates identically.

use crate::data::{Column, Relation};
use kfusion_prng::Rng;

/// Key space of the micro-benchmark inputs (32-bit, as in the paper).
pub const KEY_SPACE: u64 = 1 << 32;

/// A relation of `n` uniform random keys in `[0, KEY_SPACE)`.
pub fn random_keys(n: usize, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    Relation::from_keys((0..n).map(|_| rng.gen_range(0..KEY_SPACE)).collect())
}

/// The `key < threshold` cutoff that selects fraction `frac` of a uniform
/// key space.
pub fn threshold_for_selectivity(frac: f64) -> u64 {
    (frac.clamp(0.0, 1.0) * KEY_SPACE as f64) as u64
}

/// A sorted relation of `n` distinct keys `0..n` with `cols` random i64
/// payload columns — the substrate's sorted key-value layout, ready for
/// merge joins.
pub fn sorted_table(n: usize, cols: usize, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    let payload = (0..cols)
        .map(|_| Column::I64((0..n).map(|_| rng.gen_range(-1000i64..1000)).collect()))
        .collect();
    Relation::new((0..n as u64).collect(), payload).expect("rectangular by construction")
}

/// A sorted relation with an f64 payload column in `[lo, hi)`.
pub fn sorted_f64_table(n: usize, lo: f64, hi: f64, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    Relation::new(
        (0..n as u64).collect(),
        vec![Column::F64((0..n).map(|_| rng.gen_range(lo..hi)).collect())],
    )
    .expect("rectangular by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select_view;
    use crate::predicates;
    use crate::View;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(random_keys(1000, 42), random_keys(1000, 42));
        assert_ne!(random_keys(1000, 42), random_keys(1000, 43));
    }

    #[test]
    fn threshold_yields_requested_selectivity() {
        let r = random_keys(200_000, 7);
        for frac in [0.1, 0.5, 0.9] {
            let pred = predicates::key_lt(threshold_for_selectivity(frac));
            let got = select_view(&View::of(&r), &pred).unwrap().len() as f64 / r.len() as f64;
            assert!((got - frac).abs() < 0.01, "selectivity {frac}: measured {got}");
        }
    }

    #[test]
    fn sorted_table_is_sorted_and_rectangular() {
        let t = sorted_table(1000, 3, 1);
        assert!(t.is_key_sorted());
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn f64_table_in_range() {
        let t = sorted_f64_table(1000, 0.0, 0.1, 2);
        let v = t.cols[0].as_f64().unwrap();
        assert!(v.iter().all(|&x| (0.0..0.1).contains(&x)));
    }
}
