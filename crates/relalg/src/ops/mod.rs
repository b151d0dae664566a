//! The relational operators of the paper's Table I, each implemented as a
//! functional host-side computation structured like its multi-stage GPU
//! kernel (partition → compute → buffer → gather).

pub mod aggregate;
pub mod arith;
pub mod group_loop;
pub mod join;
pub mod product;
pub mod project;
pub mod select;
pub mod setops;
pub mod sort;

pub use aggregate::{
    aggregate_all, aggregate_all_view, aggregate_by_key, aggregate_by_key_view, pack_key2,
    unpack_key2, Agg,
};
pub use arith::{arith_extend, arith_extend_owned, arith_extend_view, arith_map};
pub use group_loop::{group_loop_view, Member, Stage};
pub use join::{
    antijoin, antijoin_view, column_join, column_join_view, join, semijoin, semijoin_view,
};
pub use product::product;
pub use project::{project, project_view, rekey, rekey_owned, rekey_view};
pub use select::{select, select_chain_unfused, select_view};
pub use setops::{difference, intersection, union};
pub use sort::{
    bitonic_pass_count, bitonic_sort, group_by_key_view, sort, sort_view, unique, SortBy,
};
