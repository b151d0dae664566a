//! Execution reports: simulated timelines plus the derived metrics the
//! paper's figures plot (data throughput, execution-time breakdowns,
//! per-kernel splits), and trace/metrics artifact export.

use kfusion_trace::{Clock, Trace};
use kfusion_vgpu::{CommandClass, DeviceSpec, Engine, Timeline};

/// The result of one simulated execution.
#[derive(Debug, Clone)]
pub struct Report {
    /// The executed timeline.
    pub timeline: Timeline,
    /// Elements processed (the figure x-axes).
    pub elements: u64,
    /// Logical input bytes (elements × element size) — the numerator of the
    /// paper's "data throughput".
    pub input_bytes: f64,
    /// The timeline as a trace value (simulated clock), ready for Chrome
    /// trace-event export or gantt rendering without going through the
    /// global recorder.
    pub trace: Trace,
}

impl Report {
    /// Build a report over a timeline.
    pub fn new(timeline: Timeline, elements: u64, input_bytes: f64) -> Self {
        let trace = kfusion_vgpu::tracing::timeline_trace(&timeline);
        Report { timeline, elements, input_bytes, trace }
    }

    /// Build a report whose `input_bytes` is derived from a per-element row
    /// width — the one place that multiplication happens, so every bench
    /// computes the throughput numerator identically.
    pub fn from_row_bytes(timeline: Timeline, elements: u64, row_bytes: f64) -> Self {
        let input_bytes = elements as f64 * row_bytes;
        Report::new(timeline, elements, input_bytes)
    }

    /// Build a report over `elements` device-standard elements
    /// ([`DeviceSpec::ELEMENT_BYTES`]-wide, the paper's 32-bit values).
    pub fn from_elements(timeline: Timeline, elements: u64) -> Self {
        Report::from_row_bytes(timeline, elements, DeviceSpec::ELEMENT_BYTES)
    }

    /// The timeline as Chrome trace-event JSON (load in Perfetto or
    /// `chrome://tracing`).
    pub fn trace_json(&self) -> String {
        kfusion_trace::chrome::export(&self.trace)
    }

    /// Write [`Report::trace_json`] to `path`.
    pub fn write_trace_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.trace_json())
    }

    /// ASCII gantt of the simulated timeline: one row per engine, so a
    /// fission pipeline's overlap (the paper's Fig. 13) shows in a terminal.
    pub fn gantt(&self, width: usize) -> String {
        kfusion_trace::gantt::render(&self.trace, Clock::Sim, width)
    }

    /// Simulated wall time (s).
    pub fn total(&self) -> f64 {
        self.timeline.total()
    }

    /// Data throughput in GB/s, as the paper plots it: input bytes divided
    /// by total execution time.
    pub fn throughput_gbps(&self) -> f64 {
        self.input_bytes / self.total() / 1e9
    }

    /// Data throughput over kernel time alone, in GB/s — how the paper plots
    /// GPU computation with PCIe excluded (Figs. 4(a), 8(b), 10, 11).
    pub fn compute_throughput_gbps(&self) -> f64 {
        self.input_bytes / self.compute_time() / 1e9
    }

    /// Engine-busy seconds in one command class (Fig. 9's breakdown).
    pub fn class_time(&self, class: CommandClass) -> f64 {
        self.timeline.time_in_class(class)
    }

    /// Kernel-compute seconds.
    pub fn compute_time(&self) -> f64 {
        self.class_time(CommandClass::Compute)
    }

    /// Seconds spent in spans whose label starts with `prefix` (Fig. 10's
    /// per-kernel split: "filter" vs "gather").
    pub fn label_time(&self, prefix: &str) -> f64 {
        self.timeline.time_with_label_prefix(prefix)
    }

    /// Busy seconds of an engine.
    pub fn engine_time(&self, engine: Engine) -> f64 {
        self.timeline.busy(engine)
    }

    /// The three-way breakdown of Fig. 9 as (input/output, round trip,
    /// compute) fractions of their sum.
    pub fn breakdown_fractions(&self) -> (f64, f64, f64) {
        let io = self.class_time(CommandClass::InputOutput);
        let rt = self.class_time(CommandClass::RoundTrip);
        let c = self.class_time(CommandClass::Compute);
        let sum = (io + rt + c).max(1e-30);
        (io / sum, rt / sum, c / sum)
    }

    /// A human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let (io, rt, c) = self.breakdown_fractions();
        format!(
            "elements: {}\ntotal: {:.6} s\nthroughput: {:.3} GB/s\nbreakdown: input/output {:.1}% | round trip {:.1}% | compute {:.1}%",
            self.elements,
            self.total(),
            self.throughput_gbps(),
            io * 100.0,
            rt * 100.0,
            c * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_vgpu::des::Span;

    fn span(label: &str, class: CommandClass, engine: Engine, start: f64, end: f64) -> Span {
        Span { stream: 0, index: 0, label: label.into(), class, engine: Some(engine), start, end }
    }

    fn sample() -> Report {
        let timeline = Timeline {
            spans: vec![
                span("in", CommandClass::InputOutput, Engine::CopyH2D, 0.0, 1.0),
                span("filter1", CommandClass::Compute, Engine::Compute, 1.0, 1.5),
                span("gather1", CommandClass::Compute, Engine::Compute, 1.5, 1.75),
                span("tmp", CommandClass::RoundTrip, Engine::CopyD2H, 1.75, 2.75),
                span("out", CommandClass::InputOutput, Engine::CopyD2H, 2.75, 3.25),
            ],
        };
        Report::new(timeline, 1000, 4000.0)
    }

    #[test]
    fn totals_and_throughput() {
        let r = sample();
        assert_eq!(r.total(), 3.25);
        assert!((r.throughput_gbps() - 4000.0 / 3.25 / 1e9).abs() < 1e-18);
        assert!((r.compute_throughput_gbps() - 4000.0 / 0.75 / 1e9).abs() < 1e-18);
    }

    #[test]
    fn class_breakdown() {
        let r = sample();
        assert_eq!(r.class_time(CommandClass::InputOutput), 1.5);
        assert_eq!(r.class_time(CommandClass::RoundTrip), 1.0);
        assert_eq!(r.compute_time(), 0.75);
        let (io, rt, c) = r.breakdown_fractions();
        assert!((io + rt + c - 1.0).abs() < 1e-12);
        assert!(rt > c);
    }

    #[test]
    fn label_split() {
        let r = sample();
        assert_eq!(r.label_time("filter"), 0.5);
        assert_eq!(r.label_time("gather"), 0.25);
    }

    #[test]
    fn summary_mentions_throughput() {
        assert!(sample().summary().contains("GB/s"));
    }

    #[test]
    fn input_bytes_is_centralized_on_element_size() {
        // The bug this pins: benches used to recompute `input_bytes` with
        // ad-hoc `n * 4.0` expressions. The constructors must agree with
        // the device's element width exactly.
        let timeline = Timeline { spans: vec![] };
        let r = Report::from_elements(timeline.clone(), 1000);
        assert_eq!(r.input_bytes, 1000.0 * kfusion_vgpu::DeviceSpec::ELEMENT_BYTES);
        assert_eq!(r.input_bytes, 4000.0);
        let r = Report::from_row_bytes(timeline, 500, 16.0);
        assert_eq!(r.input_bytes, 8000.0);
    }

    #[test]
    fn report_carries_a_trace_of_its_timeline() {
        let r = sample();
        assert_eq!(r.trace.spans.len(), r.timeline.spans.len());
        assert_eq!(r.trace.total(kfusion_trace::Clock::Sim), r.total());
        let json = r.trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(r.gantt(40).contains("total:"));
    }
}
