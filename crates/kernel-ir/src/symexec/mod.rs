//! Translation validation for the optimizer and the fuser.
//!
//! An Alive2-style *per-instance* validator: instead of proving every pass
//! correct once and for all, each `optimize`/`fuse` call is checked after
//! the fact — the original body and its replacement are symbolically
//! evaluated into a hash-consed term DAG ([`term`]) whose normalization
//! rules mirror [`crate::interp::eval`] bit-for-bit, and equal output terms
//! prove the rewrite preserved semantics for *this* instance.
//!
//! When normalization cannot close the gap (rewrites that need value-range
//! facts, e.g. `simplify_ranges`), the prover falls back to seeded
//! differential testing ([`prove`]): both bodies run on adversarial
//! constants (zero divisors, `i64::MIN`, `±0.0`, `NaN`, oversized shifts)
//! plus PRNG-drawn inputs, and a mismatch is a concrete counterexample.
//! The three-way outcome is [`Verdict::Verified`] / [`Verdict::Refuted`] /
//! [`Verdict::Inconclusive`].
//!
//! Validation is always compiled in and on by default. The runtime toggle
//! below ([`set_enabled`]) is the one switch: `kfusion-prove
//! --gate-overhead` compiles each corpus entry with it off and on to
//! separate validated from unvalidated compile time; the nanosecond counter
//! feeds that validator-overhead gate in CI.

pub mod fx;
pub mod prove;
pub mod term;

pub use prove::{
    clear_proof_cache, prove_body_equiv, prove_conjunction, prove_fuse_equiv, Counterexample,
    Verdict,
};
pub use term::{sym_eval, Term, TermArena, TermId};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);
static VALIDATION_NANOS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Nesting depth of [`speculation`] guards on this thread.
    static SPECULATION_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Whether the pass sandwiches around `optimize`/`fuse` validate their
/// rewrites. Explicit [`prove_body_equiv`]-style calls always run.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && SPECULATION_DEPTH.with(|d| d.get() == 0)
}

/// Suppress sandwich validation on the current thread while the returned
/// guard lives.
///
/// The validator's contract is on *emitted* code: every rewrite that ends up
/// in a compiled artifact is proved. Cost-model probes — the fusion pass
/// optimizing and splicing *candidate* groups only to read off a register
/// count, then discarding the body — are not emissions, and validating each
/// probe would charge the proof cost once per candidate instead of once per
/// chosen group. Callers that compile speculatively hold this guard; the
/// winning configuration is always recompiled without it on the emit path,
/// so suppression never lets an unvalidated rewrite through.
///
/// The guard nests and is thread-local, so suppressing a cost probe on one
/// thread never turns off validation for compiles running elsewhere.
#[must_use = "validation is suppressed only while the guard is alive"]
pub fn speculation() -> SpeculationGuard {
    SPECULATION_DEPTH.with(|d| d.set(d.get() + 1));
    SpeculationGuard { _not_send: std::marker::PhantomData }
}

/// RAII guard from [`speculation`]; restores validation on drop.
pub struct SpeculationGuard {
    // Keep the guard on the thread whose counter it incremented.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpeculationGuard {
    fn drop(&mut self) {
        SPECULATION_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Enable or disable sandwich validation process-wide; returns the previous
/// setting so callers can restore it.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

/// Total nanoseconds spent inside the prover since the last reset — the
/// numerator of the "validation overhead as % of compile time" metric.
pub fn validation_nanos() -> u64 {
    VALIDATION_NANOS.load(Ordering::Relaxed)
}

/// Reset the validation-time counter.
pub fn reset_validation_nanos() {
    VALIDATION_NANOS.store(0, Ordering::Relaxed);
}

/// RAII accumulator for [`validation_nanos`].
pub(crate) struct Timer(std::time::Instant);

impl Timer {
    pub(crate) fn start() -> Self {
        Timer(std::time::Instant::now())
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        VALIDATION_NANOS.fetch_add(self.0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speculation_guard_nests_and_restores() {
        let was = set_enabled(true);
        assert!(enabled());
        {
            let _outer = speculation();
            assert!(!enabled(), "speculative compiles are not validated");
            {
                let _inner = speculation();
                assert!(!enabled());
            }
            assert!(!enabled(), "inner guard must not re-enable the outer one");
        }
        assert!(enabled(), "validation resumes when the guard drops");
        set_enabled(was);
    }

    #[test]
    fn speculation_is_thread_local() {
        let was = set_enabled(true);
        let _guard = speculation();
        assert!(!enabled());
        let other = std::thread::spawn(enabled).join().expect("spawned probe");
        assert!(other, "one thread's cost probe must not mute another's compile");
        set_enabled(was);
    }
}
