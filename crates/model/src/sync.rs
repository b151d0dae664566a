//! `std::sync` shim: plain re-exports in ordinary builds, instrumented
//! primitives under `cfg(kfusion_model)`.
//!
//! Ported code (`server::queue`, `server::cache`) imports
//! `kfusion_model::sync::{Mutex, Condvar, MutexGuard}` and
//! `kfusion_model::sync::atomic::*` instead of the std paths. Outside the
//! model cfg these ARE the std types (`pub use`), so production builds are
//! byte-identical. Under the cfg, each primitive keeps a real std twin for
//! the data it protects but routes all *blocking and visibility* through
//! the [`crate::rt`] runtime: logical ownership, waitsets, wake reasons,
//! and the virtual clock all live in the explorer, which makes every
//! interleaving enumerable and replayable.
//!
//! Invariant that keeps the twin safe: the runtime grants logical ownership
//! of a mutex to at most one thread, and only the logical owner touches the
//! std twin — so the std lock is always uncontended and a parked thread
//! never holds it (a thread parks only *after* dropping the std guard).

#[cfg(not(kfusion_model))]
pub use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};

/// Atomic integer shims (std re-exports outside the model cfg).
#[cfg(not(kfusion_model))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

#[cfg(kfusion_model)]
pub use model_impl::atomic;
#[cfg(kfusion_model)]
pub use model_impl::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
#[cfg(kfusion_model)]
pub use std::sync::{Arc, LockResult, PoisonError};

#[cfg(kfusion_model)]
mod model_impl {
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::{
        Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard,
        PoisonError,
    };
    use std::time::Duration;

    use crate::rt::{self, ObjCell, ObjKind};

    /// Model-checked mutex: logical ownership in the explorer, data in a
    /// std twin.
    pub struct Mutex<T> {
        obj: ObjCell,
        std: StdMutex<T>,
    }

    impl<T> Mutex<T> {
        /// A new unlocked mutex.
        pub fn new(value: T) -> Self {
            Mutex { obj: ObjCell::new(ObjKind::Mutex), std: StdMutex::new(value) }
        }

        /// Acquire. Inside an execution this is a scheduling decision point
        /// and may logically block; the std twin acquisition that follows is
        /// always uncontended.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let obj = if rt::in_execution() {
                let obj = self.obj.id();
                rt::mutex_lock(obj);
                Some(obj)
            } else {
                None
            };
            match self.std.lock() {
                Ok(g) => Ok(MutexGuard { lock: self, inner: Some(g), obj }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    obj,
                })),
            }
        }

        /// Reacquire the std twin after a condvar wait (logical ownership
        /// was already re-granted by the runtime).
        fn relock_std(&self) -> StdMutexGuard<'_, T> {
            self.std.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Mutex").field("data", &self.std).finish()
        }
    }

    /// Guard for [`Mutex`]. Dropping releases the std twin first, then the
    /// logical lock — the runtime may park the thread at the logical
    /// release, and it must not park while holding the twin.
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        inner: Option<StdMutexGuard<'a, T>>,
        obj: Option<rt::ObjId>,
    }

    impl<'a, T> MutexGuard<'a, T> {
        /// Dismantle without running `Drop` (condvar wait surgery).
        fn into_parts(mut self) -> (&'a Mutex<T>, Option<StdMutexGuard<'a, T>>, Option<rt::ObjId>) {
            let lock = self.lock;
            let inner = self.inner.take();
            let obj = self.obj.take();
            std::mem::forget(self);
            (lock, inner, obj)
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard holds the lock")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard holds the lock")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            drop(self.inner.take());
            if let Some(obj) = self.obj {
                if rt::in_execution() {
                    rt::mutex_unlock(obj);
                }
            }
        }
    }

    impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&**self, f)
        }
    }

    /// Result of a timed condvar wait (mirrors `std::sync::WaitTimeoutResult`,
    /// which has no public constructor).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WaitTimeoutResult(bool);

    impl WaitTimeoutResult {
        /// Whether the wait ended because the timeout elapsed (a spurious
        /// or notified wake returns `false`, as in std).
        pub fn timed_out(&self) -> bool {
            self.0
        }
    }

    /// Model-checked condvar. Waitsets, notify targeting, timeouts, and
    /// spurious wakeups are all explorer decisions.
    pub struct Condvar {
        obj: ObjCell,
    }

    impl Condvar {
        /// A new condvar with an empty waitset.
        pub fn new() -> Self {
            Condvar { obj: ObjCell::new(ObjKind::Condvar) }
        }

        /// Block until notified (or spuriously woken), releasing and
        /// reacquiring the guard's mutex atomically with respect to the
        /// model scheduler.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let (lock, inner, obj) = guard.into_parts();
            match obj {
                Some(mx) => {
                    drop(inner); // never park holding the std twin
                    let _wake = rt::cond_wait(self.obj.id(), mx, None);
                    rt::mutex_relock(mx);
                    let g = lock.relock_std();
                    Ok(MutexGuard { lock, inner: Some(g), obj: Some(mx) })
                }
                None => {
                    // Outside an execution: plain std semantics via the
                    // process-wide fallback condvar.
                    let g = inner.expect("guard holds the lock");
                    match self.fallback().wait(g) {
                        Ok(g) => Ok(MutexGuard { lock, inner: Some(g), obj: None }),
                        Err(p) => Err(PoisonError::new(MutexGuard {
                            lock,
                            inner: Some(p.into_inner()),
                            obj: None,
                        })),
                    }
                }
            }
        }

        /// Block until notified or `dur` elapses on the virtual clock.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            let (lock, inner, obj) = guard.into_parts();
            match obj {
                Some(mx) => {
                    drop(inner);
                    let wake = rt::cond_wait(self.obj.id(), mx, Some(dur.as_nanos()));
                    rt::mutex_relock(mx);
                    let g = lock.relock_std();
                    let timed_out = matches!(wake, rt::Wake::TimedOut);
                    Ok((
                        MutexGuard { lock, inner: Some(g), obj: Some(mx) },
                        WaitTimeoutResult(timed_out),
                    ))
                }
                None => {
                    let g = inner.expect("guard holds the lock");
                    match self.fallback().wait_timeout(g, dur) {
                        Ok((g, r)) => Ok((
                            MutexGuard { lock, inner: Some(g), obj: None },
                            WaitTimeoutResult(r.timed_out()),
                        )),
                        Err(p) => {
                            let (g, r) = p.into_inner();
                            Err(PoisonError::new((
                                MutexGuard { lock, inner: Some(g), obj: None },
                                WaitTimeoutResult(r.timed_out()),
                            )))
                        }
                    }
                }
            }
        }

        /// Wake one waiter. Inside an execution the wake target (when
        /// several threads wait) is an explorer choice.
        pub fn notify_one(&self) {
            if rt::in_execution() {
                rt::notify_one(self.obj.id());
            } else {
                self.fallback().notify_all();
            }
        }

        /// Wake every waiter.
        pub fn notify_all(&self) {
            if rt::in_execution() {
                rt::notify_all(self.obj.id());
            } else {
                self.fallback().notify_all();
            }
        }

        /// Outside executions the shim condvar degrades to one shared std
        /// condvar (correct, if imprecise: `wait` loops re-check their
        /// predicate anyway). Model builds only run scenario code in
        /// executions; this keeps stray non-model threads working.
        fn fallback(&self) -> &'static StdCondvar {
            static FALLBACK: StdCondvar = StdCondvar::new();
            &FALLBACK
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Condvar").finish_non_exhaustive()
        }
    }

    /// Instrumented atomics: every access is a scheduling decision point;
    /// the value itself lives in a std atomic twin (serialized execution
    /// makes it deterministic).
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use crate::rt::{self, ObjCell, ObjKind};
        use std::fmt;

        macro_rules! model_atomic {
            ($name:ident, $std:ty, $prim:ty) => {
                /// Instrumented atomic (model-cfg shim).
                pub struct $name {
                    cell: ObjCell,
                    std: $std,
                }

                impl $name {
                    /// A new atomic holding `v`.
                    pub fn new(v: $prim) -> Self {
                        $name { cell: ObjCell::new(ObjKind::Atomic), std: <$std>::new(v) }
                    }

                    fn hook(&self) {
                        if rt::in_execution() {
                            rt::atomic_op(self.cell.id());
                        }
                    }

                    /// Atomic load.
                    pub fn load(&self, o: Ordering) -> $prim {
                        self.hook();
                        self.std.load(o)
                    }

                    /// Atomic store.
                    pub fn store(&self, v: $prim, o: Ordering) {
                        self.hook();
                        self.std.store(v, o)
                    }

                    /// Atomic swap, returning the previous value.
                    pub fn swap(&self, v: $prim, o: Ordering) -> $prim {
                        self.hook();
                        self.std.swap(v, o)
                    }
                }

                impl Default for $name {
                    fn default() -> Self {
                        $name::new(Default::default())
                    }
                }

                impl fmt::Debug for $name {
                    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        fmt::Debug::fmt(&self.std, f)
                    }
                }
            };
        }

        model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
        model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

        macro_rules! model_atomic_arith {
            ($name:ident, $prim:ty) => {
                impl $name {
                    /// Atomic add, returning the previous value.
                    pub fn fetch_add(&self, v: $prim, o: Ordering) -> $prim {
                        self.hook();
                        self.std.fetch_add(v, o)
                    }

                    /// Atomic subtract, returning the previous value.
                    pub fn fetch_sub(&self, v: $prim, o: Ordering) -> $prim {
                        self.hook();
                        self.std.fetch_sub(v, o)
                    }
                }
            };
        }

        model_atomic_arith!(AtomicU64, u64);
        model_atomic_arith!(AtomicUsize, usize);
    }
}
