//! PRODUCT: Cartesian product.
//!
//! Table I: `product x y` concatenates every `y` tuple onto every `x`
//! tuple; the result keeps `x`'s key and absorbs `y`'s key as a payload
//! column (the paper's example keeps `y`'s first field inline:
//! `(3,a,True,2)`).

use crate::data::{RelError, Relation};
use crate::view::{gather_pairs, View};

/// Cartesian product, `x`-major. Output schema: `x.key`, `x` payload
/// columns, `y.key` as an i64 column, `y` payload columns. Row `i * |y| + j`
/// pairs `x`'s row `i` with `y`'s row `j`; [`crate::view`]'s gather writes
/// them.
pub fn product(x: &Relation, y: &Relation) -> Result<Relation, RelError> {
    let (nx, ny) = (x.len() as u32, y.len() as u32);
    let x_idx: Vec<u32> = (0..nx).flat_map(|i| std::iter::repeat_n(i, ny as usize)).collect();
    let y_idx: Vec<u32> = (0..nx).flat_map(|_| 0..ny).collect();
    Ok(gather_pairs((&View::of(x), &x_idx), (&View::of(y), &y_idx), true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Column;

    /// Table I PRODUCT example: x = {(3,a),(4,a)}, y = {(True,2)};
    /// product x y → {(3,a,True,2), (4,a,True,2)}.
    #[test]
    fn table1_product_example() {
        // a=1; True=1.
        let x = Relation::new(vec![3, 4], vec![Column::I64(vec![1, 1])]).unwrap();
        let y = Relation::new(vec![1], vec![Column::I64(vec![2])]).unwrap();
        let out = product(&x, &y).unwrap();
        assert_eq!(*out.keys(), vec![3, 4]);
        assert_eq!(out.n_cols(), 3);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[1, 1]); // x payload "a"
        assert_eq!(out.cols[1].as_i64().unwrap(), &[1, 1]); // y key "True"
        assert_eq!(out.cols[2].as_i64().unwrap(), &[2, 2]); // y payload 2
    }

    #[test]
    fn cardinality_is_product() {
        let x = Relation::from_keys(vec![1, 2, 3]);
        let y = Relation::from_keys(vec![10, 20]);
        let out = product(&x, &y).unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(*out.keys(), vec![1, 1, 2, 2, 3, 3]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[10, 20, 10, 20, 10, 20]);
    }

    #[test]
    fn empty_side_gives_empty_product() {
        let x = Relation::from_keys(vec![1, 2]);
        let y = Relation::from_keys(vec![]);
        assert!(product(&x, &y).unwrap().is_empty());
        assert!(product(&y, &x).unwrap().is_empty());
    }
}
