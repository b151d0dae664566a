//! Functional CTA execution on host threads.
//!
//! Simulated kernels still compute *real* results: the relational operators
//! partition their input into CTA-sized chunks and run each chunk's work on
//! a scoped thread pool, mirroring the BSP structure of the CUDA
//! implementations the paper builds on (partition → per-CTA work → global
//! sync → gather). Timing comes from the cost model, not from these threads;
//! this module is purely about producing correct outputs fast enough to test
//! at figure scale.

/// Default number of elements each simulated CTA processes.
pub const DEFAULT_CTA_CHUNK: usize = 64 * 1024;

/// How many host threads a parallel step may use: one per available core
/// (4 when the count is unknown). Read once per process — on Linux,
/// `available_parallelism` reads the cgroup's files on every call.
pub fn workers() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, |p| p.get()))
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
/// Work runs on scoped threads (one logical worker per available core, CTAs
/// distributed round-robin), so `work` only needs `Sync` borrows.
pub fn par_range_map<R, F>(n: usize, chunk: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    let ranges = cta_ranges(n, chunk);
    let n_ctas = ranges.len();
    if n_ctas == 0 {
        return Vec::new();
    }
    kfusion_trace::counter("kfusion_host_morsels_total", n_ctas as u64);
    let workers = workers().min(n_ctas);
    if workers <= 1 || n_ctas == 1 {
        return ranges.into_iter().enumerate().map(|(i, r)| work(i, r)).collect();
    }
    let mut results: Vec<Option<R>> = (0..n_ctas).map(|_| None).collect();
    let work = &work;
    let ranges = &ranges;
    std::thread::scope(|scope| {
        for (w, mut slot_chunk) in chunked_slots(&mut results, workers).into_iter().enumerate() {
            scope.spawn(move || {
                for (offset, slot) in slot_chunk.iter_mut().enumerate() {
                    let cta = w + offset * workers;
                    **slot = Some(work(cta, ranges[cta].clone()));
                }
            });
        }
    });
    results.into_iter().map(|r| r.expect("all CTAs filled")).collect()
}

/// Partition `slots` into `workers` interleaved views: worker `w` owns slots
/// `w, w+workers, w+2*workers, ...`. Interleaving balances load when CTA
/// costs trend with position (e.g. sorted data).
fn chunked_slots<R>(slots: &mut [Option<R>], workers: usize) -> Vec<Vec<&mut Option<R>>> {
    let mut views: Vec<Vec<&mut Option<R>>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, slot) in slots.iter_mut().enumerate() {
        views[i % workers].push(slot);
    }
    views
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
}
