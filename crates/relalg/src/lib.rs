//! `kfusion-relalg` — relational-algebra operators as multi-stage
//! data-parallel kernels.
//!
//! This crate is the substrate the paper's optimizations act on: the RA
//! operators of its Table I (SELECT, PROJECT, PRODUCT, JOIN, UNION,
//! INTERSECTION, DIFFERENCE), plus the ARITH, AGGREGATION, SORT, and UNIQUE
//! operators its query plans use (Fig. 17). Implementations follow the
//! multi-stage structure of Diamos et al. (GIT-CERCS-12-01): partition the
//! input across CTAs, compute per CTA, buffer survivors, and gather after a
//! global synchronization — which is exactly the structure kernel fusion
//! interleaves (one partition + one gather per *fused* kernel).
//!
//! This crate is the host engine only: [`ops`] computes real results on
//! host threads, validated against the paper's Table I examples and by
//! property tests. It prices nothing; every kernel the virtual GPU charges
//! is priced in `kfusion_core::cost`.
//!
//! Predicates and arithmetic expressions are `kfusion-ir` bodies
//! ([`predicates`] has stock builders), so the *same* body that filters
//! tuples here also supplies the instruction count its kernel is charged
//! for — fusing predicates speeds up both stories coherently.
//!
//! # Example
//!
//! ```
//! use kfusion_relalg::{gen, ops, predicates};
//!
//! // 100k random 32-bit keys; keep the half below the midpoint.
//! let input = gen::random_keys(100_000, 42);
//! let pred = predicates::key_lt(gen::threshold_for_selectivity(0.5));
//! let out = ops::select(&input, &pred).unwrap();
//! assert!((out.len() as f64 / input.len() as f64 - 0.5).abs() < 0.01);
//! ```

pub mod compress;
pub mod data;
pub mod engine;
pub mod gen;
pub mod ops;
pub mod predicates;
pub mod scratch;
pub mod view;

pub use data::{bit_identical, Column, Keys, RelError, Relation};
pub use view::{materialize, View};
