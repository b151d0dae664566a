//! The model-check scenario suite: the engine's real concurrent protocols
//! as small fixed scenarios for exhaustive interleaving exploration, plus
//! seeded-defect replicas the explorer must catch.
//!
//! Only compiled under `RUSTFLAGS="--cfg kfusion_model"` — the `sync` shim
//! these scenarios drive is a plain `std::sync` re-export otherwise. The
//! `kfusion-model` bin runs the suite and writes `BENCH_model.json`; the
//! `model-check` CI job gates on zero violations across the real scenarios
//! **and** on every seeded defect being caught with a replayable trace.
//!
//! Scenario sizing: exhaustive exploration is exponential in threads ×
//! shim operations, so each scenario is the smallest configuration that
//! still exercises the protocol decision (one slot, two or three threads,
//! one or two items). Where the raw tree is large, a CHESS preemption
//! bound of 2 is applied — two preemptions already cover every classic
//! ordering bug class (see DESIGN.md §13).

use std::collections::VecDeque;
use std::time::Duration;

use kfusion_core::exec::{ExecConfig, Strategy};
use kfusion_core::graph::{OpKind, PlanGraph};
use kfusion_core::multiquery::merge_plans;
use kfusion_model::rt::{Config, Scenario};
use kfusion_model::sync::{Arc, Condvar, Mutex};
use kfusion_model::thread;
use kfusion_model::time::Instant;
use kfusion_server::queue::{BoundedQueue, Pop, PushError};
use kfusion_server::PlanCache;
use kfusion_vgpu::GpuSystem;

/// One entry in the suite: a named scenario with its exploration config and
/// whether it is a seeded defect (the explorer is *expected* to find a
/// violation) or real engine code (expected clean).
pub struct ScenarioSpec {
    /// Stable name (appears in `BENCH_model.json` and `--replay`).
    pub name: &'static str,
    /// `true` for the deliberately broken replicas.
    pub seeded: bool,
    /// Exploration configuration (preemption bound, spurious budget).
    pub config: Config,
    /// The scenario body; re-invoked once per explored execution.
    pub scenario: Scenario,
}

/// Preemption-bounded config: the suite default.
fn bounded(preemptions: u32) -> Config {
    Config { max_preemptions: Some(preemptions), ..Config::default() }
}

/// The full suite, real scenarios first.
pub fn suite() -> Vec<ScenarioSpec> {
    let mut s = real_scenarios();
    s.extend(seeded_scenarios());
    s
}

/// Scenarios over the engine's actual concurrent code.
pub fn real_scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "queue-spsc-close-drain",
            seeded: false,
            config: bounded(2),
            scenario: Arc::new(|| {
                // Producer forces a capacity handoff (cap 1, two items),
                // then closes; the drain must still see both items in order.
                let q = Arc::new(BoundedQueue::new(1));
                let q2 = Arc::clone(&q);
                let producer = thread::spawn(move || {
                    q2.push_timeout(1u32, Duration::MAX).unwrap();
                    q2.push_timeout(2u32, Duration::MAX).unwrap();
                    q2.close();
                });
                let mut got = Vec::new();
                loop {
                    match q.pop_timeout(Duration::MAX) {
                        Pop::Item(i) => got.push(i),
                        Pop::Closed => break,
                        Pop::TimedOut => unreachable!("MAX timeout cannot expire"),
                    }
                }
                producer.join().unwrap();
                assert_eq!(got, [1, 2], "drain must preserve FIFO across the handoff");
            }),
        },
        ScenarioSpec {
            name: "queue-close-vs-push",
            seeded: false,
            config: bounded(2),
            scenario: Arc::new(|| {
                // close() racing an in-flight push: the item either lands
                // before the close (and must drain) or the push is refused
                // with the item returned. Nothing may be silently dropped.
                let q = Arc::new(BoundedQueue::new(1));
                let q2 = Arc::clone(&q);
                let producer = thread::spawn(move || q2.push_timeout(7u32, Duration::MAX));
                q.close();
                let mut drained = Vec::new();
                loop {
                    match q.pop_timeout(Duration::MAX) {
                        Pop::Item(i) => drained.push(i),
                        Pop::Closed => break,
                        Pop::TimedOut => unreachable!("closed queue cannot time out"),
                    }
                }
                match producer.join().unwrap() {
                    Ok(()) => assert_eq!(drained, [7], "accepted item must drain"),
                    Err(PushError::Closed(item)) => {
                        assert_eq!(item, 7, "refused push must return the item");
                        assert!(drained.is_empty());
                    }
                    Err(e) => panic!("push with MAX timeout cannot report Full: {e:?}"),
                }
            }),
        },
        ScenarioSpec {
            name: "queue-mpsc-two-producers",
            seeded: false,
            config: bounded(2),
            scenario: Arc::new(|| {
                let q = Arc::new(BoundedQueue::new(2));
                let handles: Vec<_> = [10u32, 20]
                    .into_iter()
                    .map(|item| {
                        let q = Arc::clone(&q);
                        thread::spawn(move || q.push_timeout(item, Duration::MAX).unwrap())
                    })
                    .collect();
                let mut got = Vec::new();
                for _ in 0..2 {
                    match q.pop_timeout(Duration::MAX) {
                        Pop::Item(i) => got.push(i),
                        other => panic!("expected an item, got {other:?}"),
                    }
                }
                for h in handles {
                    h.join().unwrap();
                }
                got.sort_unstable();
                assert_eq!(got, [10, 20], "each producer's item arrives exactly once");
            }),
        },
        ScenarioSpec {
            name: "queue-timeout-spurious",
            seeded: false,
            config: Config { spurious_budget: 1, ..bounded(2) },
            scenario: Arc::new(|| {
                // Satellite regression under the model: the pop deadline
                // holds on the virtual clock even when the explorer injects
                // a spurious wakeup mid-wait.
                let q: BoundedQueue<u32> = BoundedQueue::new(1);
                let t0 = Instant::now();
                assert_eq!(q.pop_timeout(Duration::from_millis(10)), Pop::TimedOut);
                let elapsed = Instant::now().saturating_duration_since(t0);
                assert!(
                    elapsed >= Duration::from_millis(10),
                    "timed out after {elapsed:?}, before the deadline"
                );
            }),
        },
        ScenarioSpec {
            name: "cache-race-duplicate-compile",
            seeded: false,
            config: bounded(2),
            scenario: Arc::new(|| {
                // Two threads race the same fresh shape. Allowed: both
                // compile (benign bounded duplication). Required: one entry,
                // both callers share the winning Arc, and the loser's Arc is
                // dropped (map + two callers = exactly 3 strong refs).
                let cfg = ExecConfig::new(Strategy::Fusion, &GpuSystem::c2070());
                let cache = Arc::new(PlanCache::new(cfg));
                let prepare = |cache: Arc<PlanCache>| {
                    thread::spawn(move || {
                        let mut g = PlanGraph::new();
                        let i = g.input(0);
                        g.add(
                            OpKind::Select { pred: kfusion_relalg::predicates::key_lt(10) },
                            vec![i],
                        );
                        cache.prepare(&merge_plans(&[g])).unwrap().0
                    })
                };
                let a = prepare(Arc::clone(&cache)).join().unwrap();
                let b = prepare(Arc::clone(&cache)).join().unwrap();
                assert!(Arc::ptr_eq(&a, &b), "racers must converge on one plan");
                assert_eq!(Arc::strong_count(&a), 3, "loser's duplicate Arc must be dropped");
                let st = cache.stats();
                assert_eq!(st.entries, 1);
                assert!(
                    (1..=2).contains(&st.compiles),
                    "compiles = {} exceeds the benign-race ceiling",
                    st.compiles
                );
            }),
        },
    ]
}

/// Deliberately broken replicas of the engine's protocols — the explorer
/// must find each one's violation (gated in CI).
pub fn seeded_scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "seeded-queue-close-drops-notify",
            seeded: true,
            config: bounded(2),
            scenario: Arc::new(|| {
                // BoundedQueue::close with the not_empty notify dropped: a
                // consumer already parked in an untimed wait is never woken
                // — the classic lost wakeup, reported as a deadlock.
                let q = Arc::new(BuggyCloseQueue::new());
                let q2 = Arc::clone(&q);
                let consumer = thread::spawn(move || q2.pop_wait());
                q.close_dropping_notify();
                assert_eq!(consumer.join().unwrap(), None, "closed and empty");
            }),
        },
        ScenarioSpec {
            name: "seeded-segment-pool-off-by-one",
            seeded: true,
            config: bounded(2),
            scenario: Arc::new(|| {
                // Segment pool admission with `>` where `>=` was meant:
                // cap+1 segments end up resident, violating the invariant
                // the peak-memory certifier assumes.
                let pool = Arc::new(BuggySegmentPool::new(1));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let pool = Arc::clone(&pool);
                        thread::spawn(move || pool.acquire())
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            }),
        },
        ScenarioSpec {
            name: "seeded-naked-condvar-wait",
            seeded: true,
            config: Config { spurious_budget: 1, ..bounded(2) },
            scenario: Arc::new(|| {
                // `if` where `while` was required: correct under every
                // notify ordering, broken the moment a wakeup is spurious.
                let state = Arc::new((Mutex::new(false), Condvar::new()));
                let s2 = Arc::clone(&state);
                let waiter = thread::spawn(move || {
                    let (m, cv) = &*s2;
                    let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
                    if !*g {
                        g = cv.wait(g).unwrap_or_else(|e| e.into_inner());
                    }
                    assert!(*g, "woke without the predicate");
                });
                let (m, cv) = &*state;
                *m.lock().unwrap_or_else(|e| e.into_inner()) = true;
                cv.notify_one();
                waiter.join().unwrap();
            }),
        },
    ]
}

/// Replica of [`BoundedQueue`] with the seeded defect: `close` forgets to
/// notify `not_empty`, so parked consumers sleep forever.
struct BuggyCloseQueue {
    inner: Mutex<(VecDeque<u32>, bool)>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl BuggyCloseQueue {
    fn new() -> Self {
        BuggyCloseQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn pop_wait(&self) -> Option<u32> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = g.0.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if g.1 {
                return None;
            }
            g = self.not_empty.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close_dropping_notify(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
        // BUG (seeded): only the producer side is woken; a consumer parked
        // in `pop_wait` never re-checks `closed`.
        self.not_full.notify_all();
    }
}

/// Replica of a fission segment pool with the seeded off-by-one admission
/// bound: `>` admits one segment beyond capacity.
struct BuggySegmentPool {
    cap: u32,
    in_use: Mutex<u32>,
    freed: Condvar,
}

impl BuggySegmentPool {
    fn new(cap: u32) -> Self {
        BuggySegmentPool { cap, in_use: Mutex::new(0), freed: Condvar::new() }
    }

    fn acquire(&self) {
        let mut g = self.in_use.lock().unwrap_or_else(|e| e.into_inner());
        // BUG (seeded): should be `>=` — at `in_use == cap` the pool is
        // already full, but this admits one more.
        while *g > self.cap {
            g = self.freed.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        *g += 1;
        assert!(*g <= self.cap, "segment pool over-admitted: {} resident, cap {}", *g, self.cap);
    }
}
