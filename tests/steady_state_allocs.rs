//! The zero-allocation steady state, enforced end to end (DESIGN.md §14).
//!
//! A warm batch-engine Q1 execution must not allocate inside any
//! steady-state region: the per-batch loops of the relational operators
//! run entirely out of checked-out scratch banks and preallocated output
//! buffers. This test installs the counting allocator (its own binary, so
//! no other test pays for it), warms the engine with one run, then fails
//! on the first region allocation of a second run — the same measurement
//! the `throughput_host` bench gates in CI, here at test scale.

use kfusion::core::exec::Strategy;
use kfusion::relalg::engine;
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::q1;
use kfusion::trace::allocwatch;
use kfusion::vgpu::GpuSystem;

#[global_allocator]
static ALLOC: allocwatch::CountingAlloc = allocwatch::CountingAlloc;

#[test]
fn warm_q1_steady_state_allocates_nothing() {
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
