//! Per-worker scratch arenas for the batch operators (DESIGN.md §14).
//!
//! Each thread that runs morsels owns one [`Scratch`] in a thread-local.
//! The morsel executor ([`kfusion_vgpu::exec::par_for`]) lets every thread
//! claim morsel after morsel, so a machine checked out for one morsel is
//! checked back in and reused for every later morsel that thread runs —
//! construction (bank allocation, constant splatting) happens about once
//! per thread per kernel, not once per morsel.
//!
//! The pool's threads and the server's workers live for the process, so
//! their arenas outlive queries. That is safe because machines are cached
//! by kernel id, and ids are unique in the process (every
//! `CompiledKernel::compile` call takes a fresh one): no query can check
//! out a machine built for another query's kernel. A full arena evicts its
//! oldest machine, so the ones for finished queries' kernels age out. The
//! poison toggle in [`crate::engine`] checks that no reused bank leaks
//! state, inside a query and across queries.

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
