//! Prometheus text-format exporter for recorded counters and histograms.
//!
//! Counter and histogram keys are stored as full metric names with labels
//! embedded (e.g. `kfusion_rows_out_total{op="select"}`), so exporting is
//! mostly a matter of grouping keys by family and prefixing each family
//! with its `# TYPE` line. Histograms expand into the exposition format's
//! three sibling series — `<fam>_bucket{...,le="..."}` (cumulative),
//! `<fam>_sum`, `<fam>_count` — all grouped under one
//! `# TYPE <fam> histogram` header. The output is what
//! `kfusion-trace-check --metrics` (CI's observability job) and the
//! served-mix test validate.

use crate::Trace;

/// The metric family of a full key: everything before the label block, or
/// the whole key when there are no labels. For histograms the family is the
/// *base* name — the `_bucket`/`_sum`/`_count` suffixes are added at export
/// time, never stored in keys, so the three sub-series can never split
/// across `# TYPE` headers.
pub fn family(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// The label block of a full key, *without* braces (`""` when unlabeled).
fn labels(key: &str) -> &str {
    match key.find('{') {
        Some(i) => key[i + 1..].strip_suffix('}').unwrap_or(&key[i + 1..]),
        None => "",
    }
}

/// Escape a label *value* per the Prometheus exposition format: backslash,
/// double-quote, and newline become `\\`, `\"`, and `\n`.
pub fn label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Build a full metric key `name{k="v",...}` with escaped label values —
/// the constructor every instrumentation site with dynamic label values
/// should use before calling [`crate::counter`] / [`crate::observe`].
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&label_escape(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Render a bucket upper bound as a `le` label value (`+Inf` for the
/// overflow bucket, shortest-roundtrip decimal otherwise — exact for the
/// power-of-two-derived bounds the fixed layout produces).
fn format_le(le: f64) -> String {
    if le.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{le}")
    }
}

/// Splice `le` into an existing label block: `a="b"` → `a="b",le="0.25"`.
fn with_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("le=\"{le}\"")
    } else {
        format!("{labels},le=\"{le}\"")
    }
}

/// Export `trace`'s counters and histograms as Prometheus text exposition
/// format. Counters come first, then histogram families; BTreeMap iteration
/// keeps each family's series adjacent and the output deterministic.
pub fn export(trace: &Trace) -> String {
    let mut out = String::from("# kfusion-trace counters (Prometheus text format)\n");
    let mut last_family = "";
    for (key, value) in &trace.counters {
        let fam = family(key);
        if fam != last_family {
            out.push_str(&format!("# TYPE {fam} counter\n"));
            last_family = fam;
        }
        out.push_str(&format!("{key} {value}\n"));
    }
    last_family = "";
    for (key, h) in &trace.hists {
        let fam = family(key);
        if fam != last_family {
            out.push_str(&format!("# TYPE {fam} histogram\n"));
            last_family = fam;
        }
        let base_labels = labels(key);
        for (le, cum) in h.cumulative() {
            let lbl = with_le(base_labels, &format_le(le));
            out.push_str(&format!("{fam}_bucket{{{lbl}}} {cum}\n"));
        }
        let suffix_labels =
            if base_labels.is_empty() { String::new() } else { format!("{{{base_labels}}}") };
        out.push_str(&format!("{fam}_sum{suffix_labels} {}\n", h.sum()));
        out.push_str(&format!("{fam}_count{suffix_labels} {}\n", h.count()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Hist;

    #[test]
    fn groups_families_and_emits_type_lines() {
        let mut t = Trace::default();
        t.counters.insert("kfusion_rows_out_total{op=\"agg\"}".into(), 7);
        t.counters.insert("kfusion_rows_out_total{op=\"select\"}".into(), 9);
        t.counters.insert("kfusion_sim_commands_total".into(), 3);
        let out = export(&t);
        assert_eq!(out.matches("# TYPE kfusion_rows_out_total counter").count(), 1);
        assert!(out.contains("kfusion_rows_out_total{op=\"select\"} 9\n"));
        assert!(out
            .contains("# TYPE kfusion_sim_commands_total counter\nkfusion_sim_commands_total 3\n"));
    }

    #[test]
    fn histogram_family_exports_three_series_under_one_type_header() {
        let mut t = Trace::default();
        let mut h = Hist::new();
        h.record(0.25);
        h.record(0.25);
        h.record(3.0);
        t.hists.insert("kfusion_stage_seconds{stage=\"execute\"}".into(), h);
        let mut h2 = Hist::new();
        h2.record(0.5);
        t.hists.insert("kfusion_stage_seconds{stage=\"queue_wait\"}".into(), h2);
        let out = export(&t);
        assert_eq!(out.matches("# TYPE kfusion_stage_seconds histogram").count(), 1);
        // 0.25 sits exactly on a bucket lower bound; its bucket's upper
        // bound is 0.25·(1+1/8) = 0.28125.
        assert!(out.contains("kfusion_stage_seconds_bucket{stage=\"execute\",le=\"0.28125\"} 2\n"));
        assert!(out.contains("kfusion_stage_seconds_bucket{stage=\"execute\",le=\"+Inf\"} 3\n"));
        assert!(out.contains("kfusion_stage_seconds_sum{stage=\"execute\"} 3.5\n"));
        assert!(out.contains("kfusion_stage_seconds_count{stage=\"execute\"} 3\n"));
        assert!(out.contains("kfusion_stage_seconds_count{stage=\"queue_wait\"} 1\n"));
    }

    #[test]
    fn unlabeled_histogram_gets_le_only_labels() {
        let mut t = Trace::default();
        let mut h = Hist::new();
        h.record(1.0);
        t.hists.insert("kfusion_total_seconds".into(), h);
        let out = export(&t);
        assert!(out.contains("# TYPE kfusion_total_seconds histogram\n"));
        assert!(out.contains("kfusion_total_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(out.contains("kfusion_total_seconds_sum 1\n"));
        assert!(out.contains("kfusion_total_seconds_count 1\n"));
    }

    #[test]
    fn metric_key_escapes_label_values() {
        assert_eq!(metric_key("m", &[]), "m");
        assert_eq!(
            metric_key("m", &[("a", "x\\y"), ("b", "q\"uote"), ("c", "nl\nend")]),
            "m{a=\"x\\\\y\",b=\"q\\\"uote\",c=\"nl\\nend\"}"
        );
        assert_eq!(label_escape("plain"), "plain");
    }

    #[test]
    fn empty_trace_exports_header_only() {
        let out = export(&Trace::default());
        assert_eq!(out.lines().count(), 1);
        assert!(out.starts_with('#'));
    }
}
