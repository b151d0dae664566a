//! Allocation accounting for the zero-allocation steady-state claim
//! (DESIGN.md §14).
//!
//! The batch engine's contract is that its steady-state inner loops — the
//! per-batch work between per-morsel setup points — allocate nothing. This
//! module makes that claim *measurable* instead of asserted:
//!
//! * [`CountingAlloc`] is a [`GlobalAlloc`] wrapper over the system
//!   allocator that counts allocations. A harness binary (the
//!   `steady_state_allocs` integration test) installs it with
//!   `#[global_allocator]`; library code never does, so production builds
//!   pay nothing.
//! * [`region`] returns an RAII guard that marks the current thread as
//!   inside a steady-state region. While the flag is set, every allocation
//!   on that thread ticks the region counters. The relational operators
//!   wrap exactly their per-batch loops in a region — per-morsel setup
//!   (machine checkout, output-buffer reservation) stays outside.
//! * When counting is [`enabled`], all allocations (region or not) of an
//!   [`enroll`]ed thread tick the total counters, giving the "how much
//!   does the whole run allocate" denominator a harness reports next to
//!   the steady-state zero. A harness enrolls the thread it measures on;
//!   the worker pool's threads (`kfusion_vgpu::exec`) enroll themselves.
//!   Other threads — a test harness's own bookkeeping, say — are never
//!   counted, so what one measurement sees cannot depend on what another
//!   thread is doing meanwhile.
//!
//! The thread-local flags are `const`-initialized `Cell<bool>`s: reading
//! them never allocates and they have no destructor, both of which matter
//! because the check runs *inside* the allocator. Harnesses export
//! the totals into trace counters (`kfusion_batch_allocs_total`,
//! `kfusion_batch_alloc_bytes_total`) after a run, where the
//! `allocating-steady-state` lint and the metrics exporter can see them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGION_ALLOCS: AtomicU64 = AtomicU64::new(0);
static REGION_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
    static ENROLLED: Cell<bool> = const { Cell::new(false) };
}

/// Turn allocation counting on or off (off by default). Only effective in
/// processes whose binary installed [`CountingAlloc`]; a no-op switch
/// elsewhere.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation counting is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero all counters.
pub fn reset() {
    REGION_ALLOCS.store(0, Ordering::Relaxed);
    REGION_BYTES.store(0, Ordering::Relaxed);
    TOTAL_ALLOCS.store(0, Ordering::Relaxed);
    TOTAL_BYTES.store(0, Ordering::Relaxed);
}

/// `(allocations, bytes)` observed inside steady-state regions since the
/// last [`reset`].
pub fn region_counts() -> (u64, u64) {
    (REGION_ALLOCS.load(Ordering::Relaxed), REGION_BYTES.load(Ordering::Relaxed))
}

/// `(allocations, bytes)` observed anywhere (while counting was enabled)
/// since the last [`reset`].
pub fn total_counts() -> (u64, u64) {
    (TOTAL_ALLOCS.load(Ordering::Relaxed), TOTAL_BYTES.load(Ordering::Relaxed))
}

/// Counts the current thread's allocations until dropped. Nesting is fine;
/// the flag restores to its previous value.
pub struct Enrolled {
    prev: bool,
    /// The flag is the enrolling thread's: the guard stays on it.
    _thread: std::marker::PhantomData<*const ()>,
}

/// Count this thread's allocations while the guard lives.
pub fn enroll() -> Enrolled {
    let prev = ENROLLED.try_with(|c| c.replace(true)).unwrap_or(false);
    Enrolled { prev, _thread: std::marker::PhantomData }
}

impl Drop for Enrolled {
    fn drop(&mut self) {
        let _ = ENROLLED.try_with(|c| c.set(self.prev));
    }
}

/// Marks the current thread as inside a steady-state (supposedly
/// zero-allocation) region until dropped. Nesting is fine; the flag
/// restores to its previous value.
pub struct RegionGuard {
    prev: bool,
}

/// Enter a steady-state region on this thread.
pub fn region() -> RegionGuard {
    let prev = IN_REGION.try_with(|c| c.replace(true)).unwrap_or(false);
    RegionGuard { prev }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let _ = IN_REGION.try_with(|c| c.set(self.prev));
    }
}

/// Export the current counts into the global trace recorder under the
/// `kfusion_batch_allocs_total` / `kfusion_batch_alloc_bytes_total` keys
/// (labelled by whether they were in-region), so metrics snapshots and the
/// `allocating-steady-state` lint see them. Call after a measured run, with
/// tracing enabled.
pub fn export_counters() {
    let (ra, rb) = region_counts();
    let (ta, tb) = total_counts();
    crate::counter("kfusion_batch_allocs_total{scope=\"steady_state\"}", ra);
    crate::counter("kfusion_batch_alloc_bytes_total{scope=\"steady_state\"}", rb);
    crate::counter("kfusion_batch_allocs_total{scope=\"run\"}", ta);
    crate::counter("kfusion_batch_alloc_bytes_total{scope=\"run\"}", tb);
}

/// A system-allocator wrapper that feeds the counters above. Install in a
/// harness binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: kfusion_trace::allocwatch::CountingAlloc =
///     kfusion_trace::allocwatch::CountingAlloc;
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count(size: usize) {
        if !enabled() || !ENROLLED.try_with(|c| c.get()).unwrap_or(false) {
            return;
        }
        TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        if IN_REGION.try_with(|c| c.get()).unwrap_or(false) {
            REGION_ALLOCS.fetch_add(1, Ordering::Relaxed);
            REGION_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: pure pass-through to `System`; the counting side effects touch
// only atomics and a const-initialized, destructor-free thread-local, so
// no allocation or unwinding happens inside the allocator itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is the allocation steady state must not do; shrinks in
        // place are free but counted conservatively too.
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}
