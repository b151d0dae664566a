//! Functional CTA execution on host threads.
//!
//! Simulated kernels still compute *real* results: the relational operators
//! partition their input into CTA-sized chunks and run each chunk's work on
//! host threads, mirroring the BSP structure of the CUDA implementations the
//! paper builds on (partition → per-CTA work → global sync → gather). Timing
//! comes from the cost model, not from these threads; this module is purely
//! about producing correct outputs fast enough to test at figure scale.
//!
//! Every parallel step runs on one process-wide pool ([`par_for`]):
//! `workers() − 1` threads that start on the first parallel call and then
//! live for the whole process, with each caller as the last worker. It is
//! the host's counterpart of the paper's Stream Pool (§IV-A), which reuses
//! a fixed set of streams instead of creating one per kernel, and of
//! morsel-driven execution, which runs every morsel on one fixed set of
//! workers: a step costs a queue push, never a thread spawn.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

/// Default number of elements each simulated CTA processes.
pub const DEFAULT_CTA_CHUNK: usize = 64 * 1024;

/// How many host threads a parallel step may use: one per available core
/// (4 when the count is unknown). Read once per process — on Linux,
/// `available_parallelism` reads the cgroup's files on every call.
pub fn workers() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, |p| p.get()))
}

/// How many threads the pool has started in this process: `workers() − 1`
/// once a parallel step has run, 0 before — and never more, however many
/// queries run.
pub fn threads_spawned() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

/// Run `work(i)` for every `i` in `0..n` on the process-wide pool; return
/// once every call has returned.
///
/// The caller and the pool's threads claim indices through one atomic
/// counter, so which thread runs an index varies from call to call: a
/// caller that needs an order writes each result to its own slot
/// ([`par_map`]). Once its own claims run out, the caller runs other
/// callers' queued indices — nested jobs, or another query's — until its
/// own have finished. So a `par_for` inside `work` cannot deadlock: every
/// claimed index is running on a live thread.
///
/// Each index runs under `catch_unwind`. The first panic's payload is
/// raised again here once every index has finished, so a panic in `work`
/// reaches the caller and never kills a pool thread.
pub fn par_for(n: usize, work: &(dyn Fn(usize) + Sync)) {
    if n <= 1 || workers() <= 1 {
        return (0..n).for_each(work);
    }
    // SAFETY: only lifetimes change. The pool calls `work` only for an
    // index below `n` that it claimed from `job.next`, and this function
    // returns only once `job.done` has counted all `n` of those calls as
    // returned; a claim at or past `n` returns without touching `work`. So
    // every call through the erased reference happens while the borrow it
    // came from is live, although a pool thread may hold the `Job` longer.
    let work = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), &'static (dyn Fn(usize) + Sync)>(work)
    };
    let job = Arc::new(Job {
        work,
        n,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });
    let pool = Pool::get();
    pool.queue().push_back(Arc::clone(&job));
    pool.wake.notify_all();
    job.run(pool);
    pool.help_until_done(&job);
    // A job whose indices this caller claimed before a pool thread looked
    // leaves the queue now, not whenever a pool thread next wakes: stale
    // jobs piling up would grow the queue — an allocation — in a warm call.
    pool.queue().retain(|queued| !Arc::ptr_eq(queued, &job));
    let panic = job.panic.lock().expect("a panic slot is never locked across a call").take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// [`par_for`] over owned items: `work(i, item)` for each of `items`, the
/// results in item order whichever thread ran what.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, work: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> =
        items.into_iter().map(|item| Mutex::new((Some(item), None))).collect();
    let slot = |i: usize| slots[i].lock().expect("a slot is never locked across a call");
    par_for(slots.len(), &|i| {
        let item = slot(i).0.take().expect("each index is claimed once");
        let out = work(i, item);
        slot(i).1 = Some(out);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("a slot is never locked across a call").1.expect("ran"))
        .collect()
}

/// One [`par_for`] call: the indices `0..n` of `work`, claimed through
/// `next` and counted through `done` as their calls return.
struct Job {
    work: &'static (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    /// The first panic's payload, raised again by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Claim and run indices until none is left to claim.
    fn run(&self, pool: &Pool) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.work)(i))) {
                let mut first =
                    self.panic.lock().expect("a panic slot is never locked across a call");
                first.get_or_insert(payload);
            }
            // Release: see `Pool::help_until_done`.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                // Under the queue lock, under which the caller checks
                // `done` before it sleeps: the wake-up cannot fall between.
                let _queue = pool.queue();
                pool.wake.notify_all();
            }
        }
    }
}

/// The queued jobs, oldest first (a job leaves once its indices are all
/// claimed), and one condition variable for "a job was queued" and "a job
/// finished".
struct Pool {
    jobs: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
}

static POOL: Pool = Pool { jobs: Mutex::new(VecDeque::new()), wake: Condvar::new() };
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

impl Pool {
    /// The pool, its threads started by the first call.
    fn get() -> &'static Pool {
        static START: Once = Once::new();
        START.call_once(|| {
            // Room for every live `par_for` frame (callers × nesting depth,
            // a handful), so a warm call never grows the queue.
            POOL.queue().reserve(64);
            for i in 1..workers() {
                // Detached on purpose: a pool thread serves until the
                // process exits, and no panic escapes `Job::run`. One that
                // fails to start leaves the callers more work, not less.
                // Its allocations count wherever a caller counts its own
                // (`kfusion_trace::allocwatch`): it runs only their jobs.
                let started =
                    std::thread::Builder::new().name(format!("kfusion-pool-{i}")).spawn(|| {
                        let _counted = kfusion_trace::allocwatch::enroll();
                        POOL.serve()
                    });
                if started.is_ok() {
                    SPAWNED.fetch_add(1, Ordering::Relaxed);
                    kfusion_trace::counter("kfusion_host_threads_spawned_total", 1);
                }
            }
        });
        &POOL
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<Arc<Job>>> {
        // Nothing that can panic runs under this lock.
        self.jobs.lock().expect("the job queue's lock is never poisoned")
    }

    /// A pool thread's life: run queued jobs' indices, oldest job first,
    /// and sleep while none is queued.
    fn serve(&self) {
        self.work_until(|| false);
    }

    /// A caller's wait for `job`: run other jobs' indices while any are
    /// queued, sleep otherwise.
    fn help_until_done(&self, job: &Job) {
        // Acquire pairs with the Release in `Job::run`: all `n` calls'
        // writes happen before `par_for` returns.
        self.work_until(|| job.done.load(Ordering::Acquire) == job.n);
    }

    fn work_until(&self, finished: impl Fn() -> bool) {
        let mut queue = self.queue();
        while !finished() {
            match next_job(&mut queue) {
                Some(job) => {
                    drop(queue);
                    job.run(self);
                    queue = self.queue();
                }
                None => {
                    queue = self.wake.wait(queue).expect("the job queue's lock is never poisoned")
                }
            }
        }
    }
}

/// The oldest queued job with an index left to claim; jobs ahead of it
/// whose indices are all claimed leave the queue.
fn next_job(queue: &mut VecDeque<Arc<Job>>) -> Option<Arc<Job>> {
    while let Some(job) = queue.front() {
        if job.next.load(Ordering::Relaxed) < job.n {
            return Some(Arc::clone(job));
        }
        queue.pop_front();
    }
    None
}

/// Split `n` items into per-CTA ranges of at most `chunk` items.
pub fn cta_ranges(n: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// Run `work` over every CTA range of `0..n` in parallel, collecting each
/// CTA's result in CTA order — the "partition, per-CTA compute, buffer"
/// stages of the paper's multi-stage kernels. The final gather is whatever
/// the caller does with the per-CTA outputs. `work(cta, range)` receives the
/// CTA index and its index range, so columnar data (several parallel
/// arrays) needs no slice of its own.
///
/// The CTAs are [`par_map`]'s items, so `work` only needs `Sync` borrows.
pub fn par_range_map<R, F>(n: usize, chunk: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    let ranges = cta_ranges(n, chunk);
    if ranges.is_empty() {
        return Vec::new();
    }
    kfusion_trace::counter("kfusion_host_morsels_total", ranges.len() as u64);
    par_map(ranges, work)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly() {
        let rs = cta_ranges(10, 3);
        assert_eq!(rs, vec![0..3, 3..6, 6..9, 9..10]);
        assert!(cta_ranges(0, 3).is_empty());
        assert_eq!(cta_ranges(3, 3), vec![0..3]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        cta_ranges(1, 0);
    }

    #[test]
    fn par_range_map_preserves_order() {
        let sums = par_range_map(100_000, 1024, |_, r| r.map(|x| x as u64).sum::<u64>());
        assert_eq!(sums.len(), 98);
        let total: u64 = sums.iter().sum();
        assert_eq!(total, (0..100_000u64).sum::<u64>());
        // First CTA must be the first range, not an arbitrary one.
        assert_eq!(sums[0], (0..1024u64).sum::<u64>());
    }

    #[test]
    fn par_range_map_passes_cta_index() {
        let idxs = par_range_map(10_000, 1000, |cta, _| cta);
        assert_eq!(idxs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(par_range_map(0, 16, |_, r| r.len()).is_empty());
    }

    #[test]
    fn par_range_map_covers_all_indices() {
        let flags: Vec<std::sync::atomic::AtomicBool> =
            (0..5000).map(|_| std::sync::atomic::AtomicBool::new(false)).collect();
        par_range_map(5000, 64, |_, r| {
            for i in r {
                flags[i].store(true, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert!(flags.iter().all(|f| f.load(std::sync::atomic::Ordering::Relaxed)));
    }

    #[test]
    fn single_cta_path_works() {
        assert_eq!(par_range_map(3, 100, |_, r| r), vec![0..3]);
    }

    /// How many times `par_for(n, ..)` ran each index.
    fn runs_per_index(n: usize) -> Vec<u32> {
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, &|i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
        });
        runs.into_iter().map(|r| r.into_inner() as u32).collect()
    }

    #[test]
    fn par_for_runs_every_index_once() {
        for n in [0, 1, 100_000] {
            assert_eq!(runs_per_index(n), vec![1; n], "n = {n}");
        }
    }

    #[test]
    fn par_for_nests_three_levels_deep() {
        let runs: Vec<AtomicUsize> = (0..5 * 6 * 7).map(|_| AtomicUsize::new(0)).collect();
        par_for(5, &|i| {
            par_for(6, &|j| {
                par_for(7, &|k| {
                    runs[(i * 6 + j) * 7 + k].fetch_add(1, Ordering::Relaxed);
                })
            })
        });
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn concurrent_callers_get_their_results_in_index_order() {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for caller in 0..2u64 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        let items: Vec<u64> = (0..1000).collect();
                        let got = par_map(items, |i, x| (i as u64, x * 3 + caller));
                        let want: Vec<_> = (0..1000).map(|x| (x, x * 3 + caller)).collect();
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }

    #[test]
    fn a_panic_reaches_the_caller_and_the_pool_serves_on() {
        runs_per_index(16);
        let spawned = threads_spawned();
        assert_eq!(spawned, workers() - 1);
        let caught = std::panic::catch_unwind(|| {
            par_for(64, &|i| {
                if i == 37 {
                    panic!("index {i} failed");
                }
            })
        });
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("index 37 failed"));
        assert_eq!(runs_per_index(10_000), vec![1; 10_000]);
        assert_eq!(threads_spawned(), spawned, "no thread replaced one lost to the panic");
    }
}
