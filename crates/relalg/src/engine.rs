//! Host-engine selection: vectorized batch kernels vs the scalar
//! interpreter.
//!
//! The functional phase can evaluate IR bodies two ways: compiled
//! [`kfusion_ir::batch::CompiledKernel`]s over typed columnar batches (the
//! default), or the per-tuple [`kfusion_ir::interp::Machine`]. Both produce
//! bit-identical results — the equivalence tests in
//! `tests/engine_equivalence.rs` and the batch property tests enforce it —
//! so the toggle exists for benchmarking (`tests/host_clock.rs` gates the
//! gap) and as a diagnostic escape hatch. Bodies that fail batch
//! compilation fall back to the scalar path regardless of this setting.
//!
//! Simulated GPU timings are computed from kernel cost profiles, not from
//! host wall-clock, so they are unchanged by the engine choice by
//! construction.

use std::sync::atomic::{AtomicBool, Ordering};

static BATCH_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable the vectorized batch engine process-wide.
pub fn set_batch_enabled(on: bool) {
    BATCH_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether operators should try the batch engine (true by default).
pub fn batch_enabled() -> bool {
    BATCH_ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable per-batch poisoning of the scratch arena's reused
/// banks (off by default). Re-exported from [`kfusion_ir::batch`] so engine
/// toggles live in one place; both engines produce bit-identical results
/// either way — the scratch-poisoning equivalence suite enforces it.
pub use kfusion_ir::batch::{scratch_poison, set_scratch_poison};
