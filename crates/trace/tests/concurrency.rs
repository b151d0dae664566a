//! The recorder under contention: scoped threads hammering spans and
//! counters concurrently must lose nothing, duplicate nothing, and leave
//! the trace exportable.
//!
//! This mirrors how the executor actually drives the recorder: the
//! functional phase of `kfusion_core::exec::run_plan` evaluates whole
//! wavefronts on the worker pool's threads, each opening host spans and
//! bumping operator counters while the others do the same.

use kfusion_trace::Clock;
use std::sync::{Barrier, Mutex, MutexGuard};

const THREADS: usize = 8;
const SPANS_PER_THREAD: usize = 250;

/// Both tests toggle the process-global recorder; serialize them.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn scoped_threads_lose_no_spans_and_no_counts() {
    let _serial = serial();
    kfusion_trace::reset();
    kfusion_trace::set_enabled(true);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..SPANS_PER_THREAD {
                    let _g = kfusion_trace::host_span("host", &format!("t{t}#{i}"));
                    kfusion_trace::counter("kfusion_test_ops_total", 1);
                    kfusion_trace::sim_span(
                        "compute",
                        t as u32,
                        "kernel",
                        i as f64,
                        i as f64 + 0.5,
                    );
                }
            });
        }
    });
    kfusion_trace::set_enabled(false);
    let trace = kfusion_trace::take();

    let total = THREADS * SPANS_PER_THREAD;
    assert_eq!(trace.spans_on(Clock::Host).count(), total, "host spans lost or duplicated");
    assert_eq!(trace.spans_on(Clock::Sim).count(), total, "sim spans lost or duplicated");
    assert_eq!(trace.counter("kfusion_test_ops_total"), total as u64);

    // Every host span name is unique — nothing got recorded twice.
    let mut names: Vec<&str> = trace.spans_on(Clock::Host).map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate host spans recorded");

    // Every host span is well-formed (guards close what they open).
    for s in trace.spans_on(Clock::Host) {
        assert!(s.end >= s.start, "span {} ends before it starts", s.name);
    }

    // The contended trace still exports as parseable Chrome JSON.
    let json = kfusion_trace::chrome::export(&trace);
    let parsed = kfusion_trace::json::parse(&json).expect("export stays valid JSON");
    let events = parsed.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents array");
    assert!(events.len() >= 2 * total);
}

#[test]
fn disabled_recorder_records_nothing_under_contention() {
    let _serial = serial();
    kfusion_trace::reset();
    kfusion_trace::set_enabled(false);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..SPANS_PER_THREAD {
                    let _g = kfusion_trace::host_span("host", "off");
                    kfusion_trace::counter("kfusion_test_ops_total", 1);
                    kfusion_trace::sim_span("compute", t as u32, "off", i as f64, i as f64);
                }
            });
        }
    });
    let trace = kfusion_trace::take();
    assert!(trace.spans.is_empty(), "disabled recorder captured spans");
    assert!(trace.counters.is_empty(), "disabled recorder captured counters");
}
