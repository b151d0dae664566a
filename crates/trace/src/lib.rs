//! `kfusion-trace` — unified tracing, metrics, and EXPLAIN-ANALYZE for the
//! whole stack (DESIGN.md §10).
//!
//! The paper argues with timelines and breakdowns (Fig. 13's copy/compute
//! overlap, Fig. 9/18's execution-time splits, Table III's instruction
//! counts); this crate is the substrate that lets every layer of the
//! reproduction *emit* those artifacts instead of ad-hoc prints:
//!
//! * a process-global **recorder** of spans, counters, and scopes that is
//!   default-off and costs one relaxed atomic load (no allocation, no lock)
//!   per call while disabled — instrumentation therefore stays compiled in
//!   everywhere, all the time;
//! * two **clock domains**: `Sim` spans carry explicit timestamps in
//!   simulated seconds (the discrete-event scheduler's clock), `Host` spans
//!   are measured with RAII guards against a session-relative monotonic
//!   epoch — so one trace can show the virtual GPU's H2D/compute/D2H
//!   engines next to real host phases;
//! * three **exporters**: Chrome trace-event JSON ([`chrome`], loadable in
//!   Perfetto / `chrome://tracing`), Prometheus-style text metrics
//!   ([`metrics`]), and an `EXPLAIN ANALYZE` plan-tree report ([`explain`]);
//! * an ASCII **Gantt** view over any trace ([`gantt`]), simulated
//!   timelines included;
//! * a dependency-free **JSON parser** ([`json`]) and the artifact
//!   **validator** ([`validate`]) behind the `kfusion-trace-check` binary
//!   and the golden tests.
//!
//! The crate depends on nothing but `std`, so every other workspace crate
//! (including the virtual GPU at the bottom of the dependency order) can
//! record into it.

pub mod allocwatch;
pub mod chrome;
pub mod explain;
pub mod gantt;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod validate;

use hist::Hist;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which clock a span's timestamps belong to.
///
/// The two domains are deliberately never mixed in one timeline: simulated
/// seconds are the DES scheduler's model time, host seconds are wall-clock
/// measured on this machine. Exporters keep them on separate tracks
/// (separate `pid`s in the Chrome format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock, seconds since the recorder session epoch.
    Host,
    /// Simulated time, seconds since the simulation's t=0.
    Sim,
}

/// One recorded span: a named interval on a (track, lane) of one clock.
///
/// Tracks are coarse execution resources (`"H2D"`, `"compute"`, `"D2H"`,
/// `"host"`, `"checker"`, `"bench"`); lanes separate concurrent occupants of
/// one track (stream indices in the simulator, thread lanes on the host).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (e.g. a command label or phase name).
    pub name: String,
    /// Track (engine/resource) the span ran on.
    pub track: String,
    /// Lane within the track (stream index or host thread lane).
    pub lane: u32,
    /// Clock domain of `start`/`end`.
    pub clock: Clock,
    /// Query scope active when the span was recorded (may be empty).
    pub scope: String,
    /// Start time in seconds (in `clock`'s domain).
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

impl Span {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An exported snapshot of recorded data: spans plus monotonic counters.
///
/// `Trace` is plain data — it can be held per-[`Report`], merged, exported,
/// or rendered without touching the global recorder.
///
/// [`Report`]: https://docs.rs/kfusion-core
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
    /// Counter totals, keyed by full metric name (labels included, e.g.
    /// `kfusion_rows_out_total{op="select"}`).
    pub counters: BTreeMap<String, u64>,
    /// Latency histograms, keyed like counters (full name + labels). All
    /// histograms share one fixed bucket layout, so merging is exact.
    pub hists: BTreeMap<String, Hist>,
}

impl Trace {
    /// Spans on `clock`.
    pub fn spans_on(&self, clock: Clock) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.clock == clock)
    }

    /// Latest end time on `clock` (0 when empty).
    pub fn total(&self, clock: Clock) -> f64 {
        self.spans_on(clock).map(|s| s.end).fold(0.0, f64::max)
    }

    /// A counter's total (0 when never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counters whose full key starts with `prefix` — handy for
    /// totals across labels (`kfusion_rows_out_total{` sums every operator).
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    /// A histogram by full key, if anything was observed under it.
    pub fn hist(&self, key: &str) -> Option<&Hist> {
        self.hists.get(key)
    }

    /// A histogram's `q`-quantile (0 when nothing was observed).
    pub fn hist_quantile(&self, key: &str, q: f64) -> f64 {
        self.hists.get(key).map(|h| h.quantile(q)).unwrap_or(0.0)
    }

    /// Merge `other` into `self`: spans append, counters add, histograms
    /// merge bucket-wise (exactly — see [`hist`]).
    pub fn merge(&mut self, other: &Trace) {
        self.spans.extend(other.spans.iter().cloned());
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }
}

// ---------------------------------------------------------------------------
// The process-global recorder.
// ---------------------------------------------------------------------------

/// Collection toggle. `Relaxed` is sufficient: the flag only gates whether
/// data is recorded, never orders it — the state mutex orders the data.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct State {
    spans: Vec<Span>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
    scope: String,
    epoch: Instant,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(State {
            spans: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            scope: String::new(),
            epoch: Instant::now(),
        })
    })
}

fn lock() -> std::sync::MutexGuard<'static, State> {
    // A panic while holding the lock poisons it; tracing must never take the
    // process down with it, so recover the data as-is.
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the recorder is collecting. This is the disabled fast path every
/// instrumentation site takes first: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off. Off is the default; benches and CLIs opt in.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clear all recorded data and restart the host-clock epoch. The enabled
/// flag is left as-is.
pub fn reset() {
    let mut s = lock();
    s.spans.clear();
    s.counters.clear();
    s.hists.clear();
    s.scope.clear();
    s.epoch = Instant::now();
}

/// Set the query scope attached to subsequently recorded spans (e.g.
/// `"q1"`). Pass `""` to clear.
pub fn set_scope(scope: &str) {
    if !enabled() {
        return;
    }
    let mut s = lock();
    s.scope.clear();
    s.scope.push_str(scope);
}

/// Add `delta` to a counter. `key` is the full metric name including any
/// labels (use `'static` literals on hot paths so the disabled fast path
/// allocates nothing).
#[inline]
pub fn counter(key: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut s = lock();
    match s.counters.get_mut(key) {
        Some(v) => *v += delta,
        None => {
            s.counters.insert(key.to_string(), delta);
        }
    }
}

/// Observe one value (seconds) under a latency histogram. `key` is the
/// full metric name including any labels (build labeled keys with
/// [`metrics::metric_key`] so values are escaped). Same contract as
/// [`counter`]: one relaxed atomic load and nothing else while disabled.
#[inline]
pub fn observe(key: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut s = lock();
    match s.hists.get_mut(key) {
        Some(h) => h.record(value),
        None => {
            let mut h = Hist::new();
            h.record(value);
            s.hists.insert(key.to_string(), h);
        }
    }
}

/// Record a span with explicit timestamps in **simulated** seconds — the
/// API the discrete-event scheduler uses to log model time alongside host
/// wall-clock.
#[inline]
pub fn sim_span(track: &str, lane: u32, name: &str, start: f64, end: f64) {
    if !enabled() {
        return;
    }
    let mut s = lock();
    let scope = s.scope.clone();
    s.spans.push(Span {
        name: name.to_string(),
        track: track.to_string(),
        lane,
        clock: Clock::Sim,
        scope,
        start,
        end,
    });
}

/// Per-thread host lane, so concurrent host spans land on distinct Chrome
/// tracks instead of producing ill-nested B/E pairs on one.
fn host_lane() -> u32 {
    static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

/// RAII guard for a host-clock span: created at the start of the region,
/// records the span on drop. Inert (no allocation) while the recorder is
/// disabled.
#[must_use = "the span ends when the guard drops"]
pub struct SpanGuard {
    live: Option<(String, String, Instant)>,
    lane: Option<u32>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((track, name, began)) = self.live.take() else { return };
        let ended = Instant::now();
        let mut s = lock();
        // The epoch can be newer than `began` if reset() raced the guard;
        // clamp so exported times stay non-negative.
        let start = began.saturating_duration_since(s.epoch).as_secs_f64();
        let end = ended.saturating_duration_since(s.epoch).as_secs_f64().max(start);
        let scope = s.scope.clone();
        let lane = self.lane.unwrap_or_else(host_lane);
        s.spans.push(Span { name, track, lane, clock: Clock::Host, scope, start, end });
    }
}

/// Open a host-clock span on `track` named `name`; the span is recorded
/// when the returned guard drops.
#[inline]
pub fn host_span(track: &str, name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None, lane: None };
    }
    SpanGuard { live: Some((track.to_string(), name.to_string(), Instant::now())), lane: None }
}

/// Record a host-clock span ending *now* that began at `began` — for
/// regions whose start predates the code that reports them, like a query's
/// queue wait: the service stamps `Instant::now()` at admission and records
/// the span once the query is dispatched.
#[inline]
pub fn record_host_span(track: &str, name: &str, began: Instant) {
    if !enabled() {
        return;
    }
    SpanGuard { live: Some((track.to_string(), name.to_string(), began)), lane: None }.finish();
}

/// Like [`record_host_span`], but on an explicit `lane` instead of the
/// calling thread's. Retroactive spans recorded on behalf of *another*
/// thread's wait (a worker logging a query's queue wait at pickup) must not
/// share a lane with the recording thread's own live spans: their start
/// times reach back across spans already closed on that lane, which the
/// Chrome B/E encoding cannot represent. A dedicated lane — where every
/// span carries the same name — stays valid under arbitrary overlap.
#[inline]
pub fn record_host_span_on(track: &str, lane: u32, name: &str, began: Instant) {
    if !enabled() {
        return;
    }
    SpanGuard { live: Some((track.to_string(), name.to_string(), began)), lane: Some(lane) }
        .finish();
}

impl SpanGuard {
    /// Record the span now (identical to dropping the guard).
    pub fn finish(self) {}
}

/// Clone the recorded data without clearing it.
pub fn snapshot() -> Trace {
    let s = lock();
    Trace { spans: s.spans.clone(), counters: s.counters.clone(), hists: s.hists.clone() }
}

/// Take the recorded data, leaving the recorder empty (epoch restarts).
pub fn take() -> Trace {
    let mut s = lock();
    let t = Trace {
        spans: std::mem::take(&mut s.spans),
        counters: std::mem::take(&mut s.counters),
        hists: std::mem::take(&mut s.hists),
    };
    s.scope.clear();
    s.epoch = Instant::now();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global and `cargo test` runs tests on
    // concurrent threads, so every test here serializes on one lock.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_collects_nothing() {
        let _g = serial();
        set_enabled(false);
        reset();
        counter("kfusion_test_total", 5);
        observe("kfusion_test_seconds", 0.25);
        sim_span("compute", 0, "k", 0.0, 1.0);
        {
            let _s = host_span("host", "phase");
        }
        let t = snapshot();
        assert!(t.spans.is_empty());
        assert!(t.counters.is_empty());
        assert!(t.hists.is_empty());
    }

    #[test]
    fn spans_counters_and_scopes_round_trip() {
        let _g = serial();
        set_enabled(true);
        reset();
        set_scope("q1");
        counter("kfusion_test_total", 2);
        counter("kfusion_test_total", 3);
        observe("kfusion_test_seconds", 0.008);
        observe("kfusion_test_seconds", 0.016);
        sim_span("H2D", 1, "in#0", 0.0, 0.5);
        {
            let _s = host_span("host", "functional");
        }
        set_scope("");
        set_enabled(false);
        let t = take();
        assert_eq!(t.counter("kfusion_test_total"), 5);
        let h = t.hist("kfusion_test_seconds").expect("histogram recorded");
        assert_eq!(h.count(), 2);
        assert!(t.hist_quantile("kfusion_test_seconds", 1.0) >= 0.016);
        assert_eq!(t.spans.len(), 2);
        let sim = &t.spans[0];
        assert_eq!((sim.track.as_str(), sim.lane, sim.clock), ("H2D", 1, Clock::Sim));
        assert_eq!(sim.scope, "q1");
        let host = &t.spans[1];
        assert_eq!(host.clock, Clock::Host);
        assert!(host.end >= host.start && host.start >= 0.0);
        // take() drained everything.
        assert!(snapshot().spans.is_empty());
    }

    #[test]
    fn merge_appends_spans_and_adds_counters() {
        let mut a = Trace::default();
        a.counters.insert("x".into(), 1);
        let mut b = Trace::default();
        b.counters.insert("x".into(), 2);
        b.spans.push(Span {
            name: "k".into(),
            track: "compute".into(),
            lane: 0,
            clock: Clock::Sim,
            scope: String::new(),
            start: 0.0,
            end: 1.0,
        });
        let mut ha = Hist::new();
        ha.record(0.5);
        a.hists.insert("h".into(), ha);
        let mut hb = Hist::new();
        hb.record(0.5);
        hb.record(1.0);
        b.hists.insert("h".into(), hb);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.counter_prefix_sum("x"), 3);
        assert_eq!(a.hist("h").unwrap().count(), 3);
    }

    #[test]
    fn totals_per_clock() {
        let mut t = Trace::default();
        for (clock, end) in [(Clock::Sim, 2.0), (Clock::Host, 5.0)] {
            t.spans.push(Span {
                name: "s".into(),
                track: "t".into(),
                lane: 0,
                clock,
                scope: String::new(),
                start: 0.0,
                end,
            });
        }
        assert_eq!(t.total(Clock::Sim), 2.0);
        assert_eq!(t.total(Clock::Host), 5.0);
    }
}
