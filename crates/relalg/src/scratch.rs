//! Per-worker scratch arenas for the batch operators (DESIGN.md §14).
//!
//! Each morsel worker thread owns one [`Scratch`] in a thread-local. The
//! morsel executor ([`kfusion_vgpu::exec::par_range_map`]) hands every
//! worker a *run* of chunks, so a machine checked out for the first chunk
//! is checked back in and reused for every later chunk that thread
//! processes — construction (bank allocation, constant splatting) happens
//! once per worker per kernel, not once per morsel.
//!
//! Arenas die with their worker thread (the executor uses scoped threads),
//! so there is no cross-query state to invalidate; the poison toggle in
//! [`crate::engine`] checks that no reused bank leaks state inside a run.

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

/// Return an index buffer to this thread's arena from wherever it is
/// dropped — it is dropped instead while the arena is in use or the thread
/// is exiting.
pub(crate) fn recycle_idx_buf(buf: Vec<u32>) {
    let _ = SCRATCH.try_with(|s| {
        if let Ok(mut s) = s.try_borrow_mut() {
            s.put_idx_buf(buf);
        }
    });
}
