//! A bounded MPMC queue on `Mutex` + `Condvar` — the service's
//! backpressure primitive (no external crates, per the workspace's
//! no-dependency rule).
//!
//! Both ends are timed: producers use [`BoundedQueue::push_timeout`] so an
//! overloaded service rejects ([`crate::ServerError::Overloaded`]) instead
//! of buffering without bound, and [`BoundedQueue::pop_timeout`] closes an
//! admission window on time. A `Duration::MAX` timeout waits until an item
//! arrives or the queue closes, which is how the service's threads idle.
//! [`BoundedQueue::close`] wakes everyone: queued items stay poppable
//! (shutdown *drains*), new pushes are refused.
//!
//! Sync primitives come from `kfusion_model::sync` — plain `std::sync`
//! re-exports in production builds, the model-checker shim under
//! `cfg(kfusion_model)` so the queue's whole interleaving space is
//! explored by `kfusion-model` (see `crates/checker/src/model_scenarios.rs`).

use kfusion_model::sync::{Condvar, Mutex, MutexGuard};
use kfusion_model::time::Instant;
use std::collections::VecDeque;
use std::time::Duration;

/// Why a push was refused; the item comes back to the caller either way.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue stayed full for the whole timeout.
    Full(T),
    /// The queue is closed to new items.
    Closed(T),
}

/// What a timed pop observed.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item.
    Item(T),
    /// Nothing arrived within the timeout; the queue may still produce.
    TimedOut,
    /// Closed and fully drained: no item will ever arrive again.
    Closed,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Push `item`, waiting up to `timeout` for a slot.
    ///
    /// The deadline is re-checked against the monotonic clock on every trip
    /// around the wait loop, so a spurious wakeup near the deadline neither
    /// returns [`PushError::Full`] early nor waits past the deadline. A
    /// `timeout` too large to represent as an instant (e.g.
    /// `Duration::MAX`) means "wait forever" — it used to panic on the
    /// `Instant + Duration` overflow.
    pub fn push_timeout(&self, item: T, timeout: Duration) -> Result<(), PushError<T>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err(PushError::Closed(item));
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = match deadline {
                None => self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(PushError::Full(item));
                    }
                    let (guard, _timed_out) = self
                        .not_full
                        .wait_timeout(inner, remaining)
                        .unwrap_or_else(|e| e.into_inner());
                    guard
                }
            };
        }
    }

    /// Pop one item, waiting up to `timeout` for one to arrive.
    ///
    /// Same deadline discipline as [`BoundedQueue::push_timeout`]: the
    /// deadline is re-derived from the clock after every wakeup, and an
    /// unrepresentable deadline waits forever instead of panicking.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let deadline = Instant::now().checked_add(timeout);
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Pop::Item(item);
            }
            if inner.closed {
                return Pop::Closed;
            }
            inner = match deadline {
                None => self.not_empty.wait(inner).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Pop::TimedOut;
                    }
                    let (guard, _timed_out) = self
                        .not_empty
                        .wait_timeout(inner, remaining)
                        .unwrap_or_else(|e| e.into_inner());
                    guard
                }
            };
        }
    }

    /// Refuse new pushes; queued items remain poppable until drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Duration = Duration::from_millis(5);

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(2);
        q.push_timeout(1, SHORT).unwrap();
        q.push_timeout(2, SHORT).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_timeout(SHORT), Pop::Item(1));
        assert_eq!(q.pop_timeout(SHORT), Pop::Item(2));
        assert_eq!(q.pop_timeout(SHORT), Pop::TimedOut);
    }

    #[test]
    fn full_queue_times_out_with_item_returned() {
        let q = BoundedQueue::new(1);
        q.push_timeout(1, SHORT).unwrap();
        assert_eq!(q.push_timeout(2, SHORT), Err(PushError::Full(2)));
    }

    #[test]
    fn close_refuses_pushes_but_drains_pops() {
        let q = BoundedQueue::new(4);
        q.push_timeout(7, SHORT).unwrap();
        q.close();
        assert_eq!(q.push_timeout(8, SHORT), Err(PushError::Closed(8)));
        assert_eq!(q.pop_timeout(SHORT), Pop::Item(7));
        assert_eq!(q.pop_timeout(SHORT), Pop::Closed);
    }

    #[test]
    fn blocked_producer_wakes_when_a_slot_frees() {
        let q = BoundedQueue::new(1);
        q.push_timeout(1, SHORT).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                q.push_timeout(2, Duration::from_secs(5)).unwrap();
            });
            assert_eq!(q.pop_timeout(Duration::from_secs(5)), Pop::Item(1));
            // The producer's item lands once our pop freed the slot.
            assert_eq!(q.pop_timeout(Duration::from_secs(5)), Pop::Item(2));
        });
    }

    #[test]
    fn duration_max_means_wait_forever_not_panic() {
        // Regression: `Instant::now() + Duration::MAX` used to panic on
        // overflow before any wait happened.
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop_timeout(Duration::MAX));
            std::thread::sleep(Duration::from_millis(10));
            q.push_timeout(9, Duration::MAX).unwrap();
            assert_eq!(h.join().unwrap(), Pop::Item(9));
        });
    }

    #[test]
    fn closing_unblocks_an_unbounded_wait() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop_timeout(Duration::MAX));
            std::thread::sleep(Duration::from_millis(10));
            q.close();
            assert_eq!(h.join().unwrap(), Pop::Closed);
        });
    }

    #[test]
    fn timeout_is_honored_against_the_monotonic_clock() {
        // The deadline must hold even across (possibly spurious) wakeups:
        // an empty queue's pop may not return TimedOut before the deadline.
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        let t0 = std::time::Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(30)), Pop::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop_timeout(Duration::from_secs(5)));
            std::thread::sleep(Duration::from_millis(10));
            q.close();
            assert_eq!(h.join().unwrap(), Pop::Closed);
        });
    }
}
