//! Per-worker scratch arenas for the batch operators (DESIGN.md §14).
//!
//! Each thread that runs morsels owns one [`Scratch`] in a thread-local,
//! which recycles the index and word buffers SORT and the grouped fold
//! take per call, so a warm call allocates per worker, never per row.
//! Batch machines are not kept here: each compiled kernel pools its own
//! (`CompiledKernel::checkout`), so a thread that claims morsel after
//! morsel of one walk reuses one machine, and the machines go with the
//! kernel when its query is done. The poison toggle in [`crate::engine`]
//! checks that no reused bank leaks state between batches.

use kfusion_ir::batch::Scratch;
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Run `f` with this thread's scratch arena.
///
/// Do not call re-entrantly from inside `f` (operators never need to); the
/// `RefCell` will panic if you do.
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
