//! dbgen-lite: a seeded generator for the TPC-H tables Q1 and Q21 touch.
//!
//! The real benchmark ships a C generator (`dbgen`) producing eight tables
//! at a scale factor of gigabytes; the two queries the paper evaluates only
//! read LINEITEM, ORDERS, SUPPLIER and NATION, and only a subset of their
//! columns. This module generates exactly those, with the distributions
//! that matter to the queries preserved:
//!
//! * lineitems are grouped 1–7 per order, orderkeys ascending (so the
//!   key-sorted substrate invariant holds without an extra sort);
//! * dates span the benchmark's 1992–1998 window (encoded as days since
//!   1992-01-01), with `receiptdate` sometimes after `commitdate` — the
//!   late shipments Q21 hunts for;
//! * `returnflag`/`linestatus` follow the spec's shipdate-derived rules, so
//!   Q1 produces the canonical four groups;
//! * `o_orderstatus` is `F` exactly when every lineitem of the order is
//!   `F`, as in the spec.

use kfusion_prng::Rng;
use kfusion_relalg::{Column, Relation};

/// Encoded `l_returnflag` values.
pub mod flags {
    /// Returned.
    pub const R: i64 = 0;
    /// Accepted.
    pub const A: i64 = 1;
    /// None.
    pub const N: i64 = 2;
}

/// Encoded `l_linestatus` / `o_orderstatus` values.
pub mod status {
    /// Fulfilled.
    pub const F: i64 = 0;
    /// Open.
    pub const O: i64 = 1;
    /// Partial (orders only).
    pub const P: i64 = 2;
}

/// Day number (since 1992-01-01) of the latest date in the generator's
/// window (1998-12-31-ish).
pub const MAX_DAY: i64 = 2555;

/// Q1's cutoff: `1998-12-01 - 90 days` ≈ day 2436.
pub const Q1_CUTOFF_DAY: i64 = 2436;

/// The `l_linestatus` boundary: lines shipped after 1995-06-17 (day 1263)
/// are still `O`pen in the spec's rule.
pub const LINESTATUS_BOUNDARY: i64 = 1263;

/// Number of nations (as in TPC-H).
pub const N_NATIONS: u64 = 25;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Scale factor: 1.0 ≈ 6 M lineitems. The paper-scale experiments use
    /// small fractions.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TpchConfig {
    /// Scale `scale` with the default seed.
    pub fn scale(scale: f64) -> Self {
        TpchConfig { scale, seed: 19920101 }
    }
}

/// The LINEITEM columns the two queries read (struct-of-arrays).
#[derive(Debug, Clone, Default)]
pub struct Lineitem {
    /// `l_orderkey`, ascending.
    pub orderkey: Vec<u64>,
    /// `l_suppkey`.
    pub suppkey: Vec<i64>,
    /// `l_quantity`.
    pub quantity: Vec<f64>,
    /// `l_extendedprice`.
    pub extendedprice: Vec<f64>,
    /// `l_discount` (0.00–0.10).
    pub discount: Vec<f64>,
    /// `l_tax` (0.00–0.08).
    pub tax: Vec<f64>,
    /// `l_returnflag` (see [`flags`]).
    pub returnflag: Vec<i64>,
    /// `l_linestatus` (see [`status`]).
    pub linestatus: Vec<i64>,
    /// `l_shipdate` (days since 1992-01-01).
    pub shipdate: Vec<i64>,
    /// `l_commitdate`.
    pub commitdate: Vec<i64>,
    /// `l_receiptdate`.
    pub receiptdate: Vec<i64>,
}

impl Lineitem {
    /// Row count.
    pub fn len(&self) -> usize {
        self.orderkey.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.orderkey.is_empty()
    }
}

/// ORDERS columns.
#[derive(Debug, Clone, Default)]
pub struct Orders {
    /// `o_orderkey`, ascending.
    pub orderkey: Vec<u64>,
    /// `o_orderstatus` (see [`status`]).
    pub status: Vec<i64>,
}

/// SUPPLIER columns.
#[derive(Debug, Clone, Default)]
pub struct Supplier {
    /// `s_suppkey`, ascending.
    pub suppkey: Vec<u64>,
    /// `s_nationkey` (0..25).
    pub nationkey: Vec<i64>,
}

/// NATION columns (25 fixed rows).
#[derive(Debug, Clone, Default)]
pub struct Nation {
    /// `n_nationkey`, 0..25.
    pub nationkey: Vec<u64>,
}

/// A generated database.
#[derive(Debug, Clone)]
pub struct TpchDb {
    /// Generator configuration used.
    pub config: TpchConfig,
    /// LINEITEM.
    pub lineitem: Lineitem,
    /// ORDERS.
    pub orders: Orders,
    /// SUPPLIER.
    pub supplier: Supplier,
    /// NATION.
    pub nation: Nation,
}

/// Generate a database at `cfg`.
pub fn generate(cfg: TpchConfig) -> TpchDb {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let n_orders = ((1_500_000.0 * cfg.scale) as usize).max(4);
    let n_suppliers = ((10_000.0 * cfg.scale) as usize).max(10);

    let supplier = Supplier {
        suppkey: (0..n_suppliers as u64).collect(),
        nationkey: (0..n_suppliers).map(|_| rng.gen_range(0..N_NATIONS as i64)).collect(),
    };
    let nation = Nation { nationkey: (0..N_NATIONS).collect() };

    let mut li = Lineitem::default();
    let mut orders =
        Orders { orderkey: Vec::with_capacity(n_orders), status: Vec::with_capacity(n_orders) };
    for ok in 0..n_orders as u64 {
        let n_lines = rng.gen_range(1..=7);
        let orderdate: i64 = rng.gen_range(0..MAX_DAY - 151);
        let mut all_f = true;
        let mut all_o = true;
        for _ in 0..n_lines {
            let shipdate = orderdate + rng.gen_range(1i64..=121);
            let commitdate = orderdate + rng.gen_range(30i64..=90);
            let receiptdate = shipdate + rng.gen_range(1i64..=30);
            let linestatus = if shipdate > LINESTATUS_BOUNDARY { status::O } else { status::F };
            all_f &= linestatus == status::F;
            all_o &= linestatus == status::O;
            let returnflag = if receiptdate <= LINESTATUS_BOUNDARY {
                if rng.gen_bool(0.5) {
                    flags::R
                } else {
                    flags::A
                }
            } else {
                flags::N
            };
            let quantity = rng.gen_range(1..=50) as f64;
            li.orderkey.push(ok);
            li.suppkey.push(rng.gen_range(0..n_suppliers as i64));
            li.quantity.push(quantity);
            li.extendedprice.push(quantity * rng.gen_range(900.0..105000.0) / 50.0);
            li.discount.push(rng.gen_range(0..=10) as f64 / 100.0);
            li.tax.push(rng.gen_range(0..=8) as f64 / 100.0);
            li.returnflag.push(returnflag);
            li.linestatus.push(linestatus);
            li.shipdate.push(shipdate);
            li.commitdate.push(commitdate);
            li.receiptdate.push(receiptdate);
        }
        orders.orderkey.push(ok);
        orders.status.push(if all_f {
            status::F
        } else if all_o {
            status::O
        } else {
            status::P
        });
    }
    TpchDb { config: cfg, lineitem: li, orders, supplier, nation }
}

impl TpchDb {
    /// One LINEITEM column as a relation keyed by row id — the per-column
    /// inputs Q1's column-joins reassemble (paper Fig. 17(a)). The key is
    /// the row number and is stored nowhere.
    pub fn lineitem_column(&self, col: LineitemCol) -> Relation {
        let c = match col {
            LineitemCol::Shipdate => Column::I64(self.lineitem.shipdate.clone()),
            LineitemCol::Quantity => Column::F64(self.lineitem.quantity.clone()),
            LineitemCol::ExtendedPrice => Column::F64(self.lineitem.extendedprice.clone()),
            LineitemCol::Discount => Column::F64(self.lineitem.discount.clone()),
            LineitemCol::Tax => Column::F64(self.lineitem.tax.clone()),
            LineitemCol::ReturnFlag => Column::I64(self.lineitem.returnflag.clone()),
            LineitemCol::LineStatus => Column::I64(self.lineitem.linestatus.clone()),
        };
        Relation::with_row_ids(vec![c]).expect("one column is rectangular")
    }

    /// LINEITEM keyed by orderkey with `[suppkey, receiptdate, commitdate]`
    /// payload — Q21's working relation.
    pub fn lineitem_by_orderkey(&self) -> Relation {
        Relation::new(
            self.lineitem.orderkey.clone(),
            vec![
                Column::I64(self.lineitem.suppkey.clone()),
                Column::I64(self.lineitem.receiptdate.clone()),
                Column::I64(self.lineitem.commitdate.clone()),
            ],
        )
        .expect("columns are rectangular")
    }

    /// ORDERS keyed by orderkey with `[status]`.
    pub fn orders_rel(&self) -> Relation {
        Relation::new(self.orders.orderkey.clone(), vec![Column::I64(self.orders.status.clone())])
            .expect("columns are rectangular")
    }

    /// SUPPLIER keyed by suppkey with `[nationkey]`.
    pub fn supplier_rel(&self) -> Relation {
        Relation::new(
            self.supplier.suppkey.clone(),
            vec![Column::I64(self.supplier.nationkey.clone())],
        )
        .expect("columns are rectangular")
    }
}

/// The LINEITEM columns exposed as Q1 plan inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineitemCol {
    /// `l_shipdate`.
    Shipdate,
    /// `l_quantity`.
    Quantity,
    /// `l_extendedprice`.
    ExtendedPrice,
    /// `l_discount`.
    Discount,
    /// `l_tax`.
    Tax,
    /// `l_returnflag`.
    ReturnFlag,
    /// `l_linestatus`.
    LineStatus,
}

/// Q1's seven column inputs in plan order.
pub const Q1_COLUMNS: [LineitemCol; 7] = [
    LineitemCol::Shipdate,
    LineitemCol::Quantity,
    LineitemCol::ExtendedPrice,
    LineitemCol::Discount,
    LineitemCol::Tax,
    LineitemCol::ReturnFlag,
    LineitemCol::LineStatus,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchDb {
        generate(TpchConfig::scale(0.001))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(TpchConfig::scale(0.001));
        let b = generate(TpchConfig::scale(0.001));
        assert_eq!(a.lineitem.orderkey, b.lineitem.orderkey);
        assert_eq!(a.lineitem.extendedprice, b.lineitem.extendedprice);
    }

    #[test]
    fn lineitem_sorted_by_orderkey() {
        let db = small();
        assert!(db.lineitem.orderkey.windows(2).all(|w| w[0] <= w[1]));
        assert!(db.lineitem_by_orderkey().is_key_sorted());
    }

    #[test]
    fn row_counts_scale() {
        let db = small();
        let expected_orders = 1500;
        assert_eq!(db.orders.orderkey.len(), expected_orders);
        // 1..=7 lines per order, average 4.
        let avg = db.lineitem.len() as f64 / expected_orders as f64;
        assert!((3.0..5.0).contains(&avg), "avg lines/order {avg}");
        assert_eq!(db.nation.nationkey.len(), 25);
    }

    #[test]
    fn date_invariants() {
        let db = small();
        for i in 0..db.lineitem.len() {
            assert!(db.lineitem.receiptdate[i] > db.lineitem.shipdate[i]);
            assert!(db.lineitem.shipdate[i] <= MAX_DAY);
            assert!(db.lineitem.shipdate[i] >= 0);
        }
        // Some shipments are late (receipt > commit) — Q21 needs them.
        let late = (0..db.lineitem.len())
            .filter(|&i| db.lineitem.receiptdate[i] > db.lineitem.commitdate[i])
            .count();
        assert!(late > 0);
        assert!(late < db.lineitem.len());
    }

    #[test]
    fn linestatus_follows_shipdate_rule() {
        let db = small();
        for i in 0..db.lineitem.len() {
            let expect =
                if db.lineitem.shipdate[i] > LINESTATUS_BOUNDARY { status::O } else { status::F };
            assert_eq!(db.lineitem.linestatus[i], expect);
        }
    }

    #[test]
    fn order_status_is_f_iff_all_lines_f() {
        let db = small();
        for (oi, &ok) in db.orders.orderkey.iter().enumerate() {
            let lines: Vec<usize> =
                (0..db.lineitem.len()).filter(|&i| db.lineitem.orderkey[i] == ok).collect();
            let all_f = lines.iter().all(|&i| db.lineitem.linestatus[i] == status::F);
            assert_eq!(db.orders.status[oi] == status::F, all_f, "order {ok}");
        }
    }

    #[test]
    fn q1_groups_are_the_canonical_four() {
        // (R,F), (A,F), (N,F), (N,O) — the spec's group structure.
        let db = generate(TpchConfig::scale(0.01));
        let mut groups = std::collections::HashSet::new();
        for i in 0..db.lineitem.len() {
            groups.insert((db.lineitem.returnflag[i], db.lineitem.linestatus[i]));
        }
        assert!(groups.contains(&(flags::R, status::F)));
        assert!(groups.contains(&(flags::A, status::F)));
        assert!(groups.contains(&(flags::N, status::O)));
        assert!(groups.len() <= 5);
    }

    #[test]
    fn column_relations_are_rectangular_and_keyed_by_rowid() {
        let db = small();
        for col in Q1_COLUMNS {
            let r = db.lineitem_column(col);
            assert_eq!(r.len(), db.lineitem.len());
            assert!(r.keys().is_row_ids());
            assert_eq!(*r.keys(), (0..db.lineitem.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn discounts_and_taxes_in_spec_ranges() {
        let db = small();
        assert!(db.lineitem.discount.iter().all(|&d| (0.0..=0.10).contains(&d)));
        assert!(db.lineitem.tax.iter().all(|&t| (0.0..=0.08).contains(&t)));
        assert!(db.lineitem.quantity.iter().all(|&q| (1.0..=50.0).contains(&q)));
    }
}
