//! The zero-allocation steady state, enforced end to end (DESIGN.md §14).
//!
//! A warm batch-engine Q1 or Q21 execution must not allocate inside any
//! steady-state region: the per-batch loops of the relational operators
//! run entirely out of checked-out batch machines and preallocated output
//! buffers. This test installs the counting allocator (its own binary, so
//! no other test pays for it), warms the engine with one run, then fails
//! on the first region allocation of a second run.
//!
//! The keyed AGGREGATE is held to the same contract from outside: what a
//! warm call allocates depends on how many morsels its input is cut into,
//! never on how many groups the morsels hold — and, folding a view a SORT
//! grouped, never on how many groups there are.

use kfusion::core::exec::Strategy;
use kfusion::relalg::ops::{self, Agg, SortBy};
use kfusion::relalg::{engine, Column, Relation, View};
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::{q1, q21};
use kfusion::trace::allocwatch;
use kfusion::vgpu::exec::DEFAULT_CTA_CHUNK;
use kfusion::vgpu::GpuSystem;

#[global_allocator]
static ALLOC: allocwatch::CountingAlloc = allocwatch::CountingAlloc;

// The allocation counters are process-global; tests here take turns. They
// count only enrolled threads — the test's own, enrolled here until its turn
// ends, and the worker pool's — so the harness thread that records one
// test's result while the next one counts adds nothing to its count.
fn serial() -> (allocwatch::Enrolled, std::sync::MutexGuard<'static, ()>) {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // A tuple drops in order: the thread leaves the count before the turn.
    (allocwatch::enroll(), turn)
}

#[test]
fn warm_q1_steady_state_allocates_nothing() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.02));
    let sys = GpuSystem::c2070();
    engine::set_batch_enabled(true);
    // `Serial` materializes every node; `FusionFission` is what the service
    // runs, where the fused groups exchange views (DESIGN.md §17) — the
    // gate holds on both sides of that choice.
    for strategy in [Strategy::Serial, Strategy::FusionFission { segments: 8 }] {
        // Warm run: grows every reusable buffer and scratch bank to capacity.
        q1::run_q1(&sys, &db, strategy).unwrap();

        allocwatch::reset();
        allocwatch::set_enabled(true);
        q1::run_q1(&sys, &db, strategy).unwrap();
        allocwatch::set_enabled(false);

        let (region_allocs, region_bytes) = allocwatch::region_counts();
        let (total_allocs, _) = allocwatch::total_counts();
        assert!(total_allocs > 0, "counting allocator saw no allocations at all");
        assert_eq!(
            (region_allocs, region_bytes),
            (0, 0),
            "{strategy:?}: steady-state regions must not allocate: {region_allocs} allocations \
             ({region_bytes} bytes) observed inside per-batch loops"
        );
    }
}

/// Warm Q21 holds it too: its keyed AGGREGATEs fold lineitem-length
/// views, filtered and dense, batch by batch, and its SEMIJOIN / ANTIJOIN
/// walks run a morsel of selection words at a time on the pool — none of
/// those per-batch loops, nor any other, allocates.
#[test]
fn warm_q21_folds_and_walks_allocate_nothing_per_batch() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.02));
    let sys = GpuSystem::c2070();
    engine::set_batch_enabled(true);
    for strategy in [Strategy::Serial, Strategy::FusionFission { segments: 8 }] {
        q21::run_q21(&sys, &db, 20, strategy).unwrap();

        allocwatch::reset();
        allocwatch::set_enabled(true);
        q21::run_q21(&sys, &db, 20, strategy).unwrap();
        allocwatch::set_enabled(false);

        let (region_allocs, region_bytes) = allocwatch::region_counts();
        assert!(allocwatch::total_counts().0 > 0, "counting allocator saw no allocations at all");
        assert_eq!(
            (region_allocs, region_bytes),
            (0, 0),
            "{strategy:?}: {region_allocs} allocations ({region_bytes} bytes) inside per-batch loops"
        );
    }
}

#[test]
fn warm_keyed_aggregate_allocates_the_same_for_ten_groups_as_for_a_hundred_thousand() {
    let _g = serial();
    // Ten morsels either way: runs of exactly one morsel, or of five rows.
    let n = 10 * DEFAULT_CTA_CHUNK;
    let aggs = [Agg::Sum(0), Agg::Min(1), Agg::Avg(1), Agg::Count];
    let warm_call = |run_len: usize| {
        let input = Relation::new(
            (0..n).map(|i| (i / run_len) as u64).collect(),
            vec![
                Column::I64((0..n as i64).map(|i| i % 97 - 40).collect()),
                Column::F64((0..n).map(|i| (i % 89) as f64 * 0.125).collect()),
            ],
        )
        .unwrap();
        ops::aggregate_by_key(&input, &aggs).unwrap();

        allocwatch::reset();
        allocwatch::set_enabled(true);
        let out = ops::aggregate_by_key(&input, &aggs).unwrap();
        allocwatch::set_enabled(false);
        assert_eq!(out, ops::aggregate_by_key(&input, &aggs).unwrap());
        (out.len(), allocwatch::total_counts().0, allocwatch::region_counts())
    };
    let (few, few_blocks, few_steady) = warm_call(DEFAULT_CTA_CHUNK);
    let (many, many_blocks, many_steady) = warm_call(5);
    assert_eq!((few, many), (10, n / 5));
    assert!(few_blocks > 0, "counting allocator saw no allocations at all");
    assert_eq!(few_blocks, many_blocks, "blocks allocated: {few} groups vs {many} groups");
    assert_eq!((few_steady, many_steady), ((0, 0), (0, 0)), "the folds must not allocate");
}

/// SORT is held to it too: its positions, ranks and histograms are
/// thread-local scratch and its morsels one per core, so a warm call
/// allocates as many blocks for 64 Ki rows as for 1 Mi — its output's, and
/// no more — and its per-row loops (scan, histogram, deal, gather) none at
/// all, in one pass or in eight.
#[test]
fn warm_sort_allocates_the_same_for_64_ki_rows_as_for_1_mi() {
    let _g = serial();
    // Seven group codes out of order: the one pass Q1's SORT takes. Keys
    // spread over every u64: eight digit passes.
    for (what, wide) in [("seven group codes", false), ("wide keys", true)] {
        let key = |i: usize| match wide {
            false => (i * 5 % 7) as u64,
            true => (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let warm_call = |n: usize| {
            let input = Relation::new(
                (0..n).map(key).collect(),
                vec![
                    Column::I64((0..n as i64).collect()),
                    Column::F64((0..n).map(|i| i as f64 * 0.5).collect()),
                ],
            )
            .unwrap();
            ops::sort(&input, SortBy::Key).unwrap();

            allocwatch::reset();
            allocwatch::set_enabled(true);
            let sorted = ops::sort(&input, SortBy::Key).unwrap();
            allocwatch::set_enabled(false);
            assert!(sorted.is_key_sorted() && sorted.len() == n);
            (allocwatch::total_counts().0, allocwatch::region_counts())
        };
        let (small, small_steady) = warm_call(64 * 1024);
        let (large, large_steady) = warm_call(1024 * 1024);
        assert!(small > 0, "{what}: counting allocator saw no allocations at all");
        assert_eq!(small, large, "{what}: blocks allocated: 64 Ki rows vs 1 Mi rows");
        let steady = (small_steady, large_steady);
        assert_eq!(steady, ((0, 0), (0, 0)), "{what}: per-row loops must not allocate");
    }
}

/// And so is the grouped fold a SORT by key hands a keyed AGGREGATE (Q1's
/// under the fusing strategies): the table of groups is thread-local
/// scratch, and every aggregate folds into its own output column, so warm
/// calls allocate as many blocks for four groups as for one group per row
/// — the output's and the same bookkeeping — and the per-row loops (scan,
/// histograms, fold) none at all.
#[test]
fn warm_grouped_fold_allocates_the_same_for_four_groups_as_for_one_per_row() {
    let _g = serial();
    let n = 256 * 1024;
    let aggs = [Agg::Sum(0), Agg::Min(1), Agg::Avg(1), Agg::Avg(0), Agg::Max(0), Agg::Count];
    let warm_call = |groups: usize| {
        // Keys scattered, so the SORT has something to order.
        let input = Relation::new(
            (0..n).map(|i| (i * 7_919 % n % groups) as u64 * 3).collect(),
            vec![
                Column::I64((0..n as i64).map(|i| i % 97 - 40).collect()),
                Column::F64((0..n).map(|i| (i % 89) as f64 * 0.125).collect()),
            ],
        )
        .unwrap();
        let fold = || {
            let grouped = ops::group_by_key_view(&View::of(&input)).unwrap();
            assert!(grouped.is_grouped());
            ops::aggregate_by_key_view(&grouped, &aggs).unwrap()
        };
        fold();

        allocwatch::reset();
        allocwatch::set_enabled(true);
        let out = fold();
        allocwatch::set_enabled(false);
        let sorted = ops::sort(&input, SortBy::Key).unwrap();
        assert_eq!(out, ops::aggregate_by_key(&sorted, &aggs).unwrap());
        // Beyond the output, a few KiB of bookkeeping: the table of groups
        // — 4 MiB for one group per row — is not allocated again.
        let (blocks, bytes) = allocwatch::total_counts();
        let extra = bytes - out.total_bytes();
        assert!(extra < 64 * 1024, "{groups} groups: {extra} bytes allocated beyond the output");
        (out.len(), blocks, allocwatch::region_counts())
    };
    let (few, few_blocks, few_steady) = warm_call(4);
    let (many, many_blocks, many_steady) = warm_call(n);
    assert_eq!((few, many), (4, n));
    assert!(few_blocks > 0, "counting allocator saw no allocations at all");
    assert_eq!(few_blocks, many_blocks, "blocks allocated: {few} groups vs {many} groups");
    assert_eq!((few_steady, many_steady), ((0, 0), (0, 0)), "per-row loops must not allocate");
}

/// A fused group's loop (`ops::group_loop_view`, DESIGN.md §17) runs its
/// kernel, its masks, its REKEY's key and its AGGREGATE's folds out of
/// checked-out banks and buffers sized before the batches start: warm, its
/// per-batch regions allocate nothing — the walk of a SELECT → ARITH+ →
/// REKEY chain, the fold of an ARITH+ → AGGREGATE chain over a grouped
/// view and over runs of a sorted one, and a SELECT → ARITH+ → AGGREGATE*
/// chain, whose morsels buffer their survivors.
#[test]
fn warm_group_loops_allocate_nothing_per_batch() {
    use kfusion::ir::builder::{BodyBuilder, Expr};
    use kfusion::ir::CmpOp;
    use kfusion::relalg::ops::Member;
    use kfusion::relalg::predicates;
    let _g = serial();
    engine::set_batch_enabled(true);
    let n = 4 * DEFAULT_CTA_CHUNK + 777;
    let table = Relation::new(
        (0..n).map(|i| (i * 7_919 % n) as u64).collect(),
        vec![
            Column::I64((0..n as i64).map(|i| i % 97).collect()),
            Column::F64((0..n).map(|i| (i % 89) as f64 * 0.125).collect()),
        ],
    )
    .unwrap();
    let pred = predicates::col_cmp_i64(0, CmpOp::Lt, 90);
    let mut b = BodyBuilder::new(3);
    b.emit_output(Expr::input(1).mul(Expr::lit(4i64)).add(Expr::lit(1i64)));
    let pack = b.build();
    let mut b = BodyBuilder::new(3);
    b.emit_output(Expr::input(2).mul(Expr::lit(0.5f64)));
    let money = b.build();
    let aggs = [Agg::Sum(2), Agg::Avg(1), Agg::Sum(1), Agg::Max(0), Agg::Count];
    let walk = [Member::Select(&pred), Member::ArithExtend(&pack), Member::Rekey(2)];
    let fold = [Member::ArithExtend(&money), Member::Aggregate(&aggs)];
    let select_fold =
        [Member::Select(&pred), Member::ArithExtend(&money), Member::AggregateAll(&aggs)];
    let sorted = ops::sort(&table, SortBy::Key).unwrap();
    let cases: [(&str, View<'_>, &[Member<'_>]); 4] = [
        ("walk", View::of(&table), &walk),
        ("grouped fold", ops::group_by_key_view(&View::of(&table)).unwrap(), &fold),
        ("run fold", View::of(&sorted), &fold),
        ("select fold", View::of(&table), &select_fold),
    ];
    for (what, input, members) in cases {
        let run = || {
            let stages = ops::group_loop_view(&input, members);
            assert_eq!(stages.len(), members.len(), "{what}: the loop covers the chain");
            assert!(stages.into_iter().all(|s| s.is_ok()), "{what}");
        };
        run();
        allocwatch::reset();
        allocwatch::set_enabled(true);
        run();
        allocwatch::set_enabled(false);
        assert_eq!(
            allocwatch::region_counts(),
            (0, 0),
            "{what}: per-batch loops must not allocate"
        );
        assert!(allocwatch::total_counts().0 > 0, "counting allocator saw no allocations at all");
    }
}
