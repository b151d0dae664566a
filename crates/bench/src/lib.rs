//! Shared harness utilities for the figure/table reproduction benches.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! paper: it prints the same rows/series the paper plots, as an aligned
//! text table plus a TSV block that plotting scripts can consume. This
//! module holds the shared formatting, the Table II environment header,
//! the element-count axes the paper sweeps, and the [`trace_session`] guard
//! every bench uses to emit its Perfetto trace + metrics artifacts.

use kfusion_vgpu::{DeviceSpec, GpuSystem};
use std::path::PathBuf;

/// Print the experiment banner with the simulated environment — the
/// reproduction's version of the paper's Table II.
pub fn print_header(experiment: &str, what: &str) {
    let gpu = DeviceSpec::tesla_c2070();
    let cpu = DeviceSpec::xeon_e5520_pair();
    println!("================================================================");
    println!("{experiment}: {what}");
    println!("----------------------------------------------------------------");
    println!("environment (simulated; paper Table II):");
    println!("  CPU   : {}", cpu.name);
    println!(
        "  GPU   : {} — {} SMs x {} cores @ {} GHz, {:.0} GB/s, {:.2} GiB",
        gpu.name,
        gpu.sm_count,
        gpu.cores_per_sm,
        gpu.clock_ghz,
        gpu.mem_bw_gbps,
        gpu.mem_capacity as f64 / (1u64 << 30) as f64
    );
    println!("  PCIe  : 2.0 x16 (see Fig. 4(b) harness for measured curves)");
    println!("================================================================");
}

/// A simple aligned table that also emits TSV.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append one row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Print aligned text followed by a TSV block.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        println!("  {}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            line(row);
        }
        println!();
        println!("#TSV");
        println!("{}", self.headers.join("\t"));
        for row in &self.rows {
            println!("{}", row.join("\t"));
        }
        println!("#END");
    }
}

/// Format GB/s with three decimals.
pub fn gbps(v: f64) -> String {
    // `v + 0.0` canonicalizes -0.0 so tables never print "-0.000".
    let v = v + 0.0;
    format!("{v:.3}")
}

/// Format seconds in engineering-friendly milliseconds.
pub fn ms(v: f64) -> String {
    format!("{:.3}", v * 1e3 + 0.0)
}

/// Format a ratio.
pub fn ratio(v: f64) -> String {
    let v = v + 0.0;
    format!("{v:.3}")
}

/// The element-count axis of the fusion figures (paper Figs. 8–11 run to
/// ~415 M elements; cardinalities above [`real_limit`] come from the
/// synthetic path as documented in DESIGN.md §2).
pub fn fusion_axis() -> Vec<u64> {
    vec![
        4_194_304,
        16_777_216,
        33_554_432,
        67_108_864,
        134_217_728,
        205_520_896,
        268_435_456,
        415_236_096,
    ]
}

/// The element-count axis of the fission figures (paper Figs. 14/16 run
/// 0.5–4 billion elements, beyond GPU memory).
pub fn fission_axis() -> Vec<u64> {
    vec![
        500_000_000,
        1_000_000_000,
        1_500_000_000,
        2_000_000_000,
        2_500_000_000,
        3_000_000_000,
        3_500_000_000,
        4_000_000_000,
    ]
}

/// Largest element count the harnesses materialize for real; can be raised
/// with `KFUSION_REAL_LIMIT` (elements).
pub fn real_limit() -> u64 {
    std::env::var("KFUSION_REAL_LIMIT").ok().and_then(|v| v.parse().ok()).unwrap_or(1 << 24)
}

/// The paper's shared GPU system.
pub fn system() -> GpuSystem {
    GpuSystem::c2070()
}

/// Where bench artifacts go: `KFUSION_TRACE_DIR` if set, else the repo
/// root.
pub fn artifact_dir() -> PathBuf {
    match std::env::var("KFUSION_TRACE_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
    }
}

/// RAII guard that turns the global trace recorder on for the duration of
/// a bench run and, on drop, writes `BENCH_<name>.trace.json` (Chrome
/// trace-event JSON, Perfetto-loadable) and `BENCH_<name>.metrics.txt`
/// (Prometheus text counters) to [`artifact_dir`].
pub struct TraceSession {
    name: String,
}

/// Start a traced bench session. See [`TraceSession`].
pub fn trace_session(name: &str) -> TraceSession {
    kfusion_trace::reset();
    kfusion_trace::set_enabled(true);
    TraceSession { name: name.to_string() }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        kfusion_trace::set_enabled(false);
        let trace = kfusion_trace::take();
        let dir = artifact_dir();
        for (suffix, content) in [
            (".trace.json", kfusion_trace::chrome::export(&trace)),
            (".metrics.txt", kfusion_trace::metrics::export(&trace)),
        ] {
            let path = dir.join(format!("BENCH_{}{suffix}", self.name));
            match std::fs::write(&path, content) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

/// A [`SelectChain`](kfusion_core::microbench::SelectChain) whose data mode
/// respects the harness [`real_limit`].
pub fn chain(n: u64, sels: &[f64]) -> kfusion_core::microbench::SelectChain {
    use kfusion_core::microbench::{DataMode, SelectChain};
    let mut c = SelectChain::auto(n, sels);
    c.mode = if n <= real_limit() { DataMode::Real } else { DataMode::Synthetic };
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats_and_checks_arity() {
        let mut t = Table::new(["a", "long-header"]);
        t.row(["1", "2"]);
        t.print();
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn axes_are_ascending() {
        assert!(fusion_axis().windows(2).all(|w| w[0] < w[1]));
        assert!(fission_axis().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn formatters() {
        assert_eq!(gbps(1.23456), "1.235");
        assert_eq!(ms(0.001), "1.000");
        assert_eq!(ratio(2.0), "2.000");
    }

    #[test]
    fn trace_session_writes_artifacts() {
        let dir = std::env::temp_dir().join(format!("kfusion-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("KFUSION_TRACE_DIR", &dir);
        {
            let _s = trace_session("selftest");
            kfusion_trace::counter("kfusion_selftest_total", 1);
            kfusion_trace::sim_span("compute", 0, "k", 0.0, 1.0);
        }
        std::env::remove_var("KFUSION_TRACE_DIR");
        let trace = std::fs::read_to_string(dir.join("BENCH_selftest.trace.json")).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"k\""));
        let metrics = std::fs::read_to_string(dir.join("BENCH_selftest.metrics.txt")).unwrap();
        assert!(metrics.contains("kfusion_selftest_total 1"));
        assert!(!kfusion_trace::enabled(), "session must disable the recorder on drop");
        std::fs::remove_dir_all(&dir).ok();
    }
}
