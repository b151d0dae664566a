//! ASCII Gantt rendering of a trace — one row per track, time on the
//! horizontal axis, `#` for busy cells.
//!
//! Simulated timelines reach it as traces (`kfusion_vgpu::tracing::
//! timeline_trace`, `Report::gantt`) — enough to *see* kernel fission's
//! overlap (the paper's Fig. 13) straight from a terminal — and it draws
//! host-clock traces just as well: pass [`Clock::Host`].
//!
//! ```text
//! H2D     |####__####__####__                  |
//! compute |____####__####__####                |
//! D2H     |______####__####__####              |
//! ```

use crate::{Clock, Trace};

/// Canonical row order: the simulator's engines first, in pipeline order,
/// then any other tracks alphabetically.
fn track_rank(track: &str) -> u32 {
    match track {
        "H2D" => 0,
        "compute" => 1,
        "D2H" => 2,
        "host" => 3,
        _ => 4,
    }
}

/// Render the `clock`-domain spans of `trace` as an ASCII Gantt chart
/// `width` characters wide.
///
/// Tracks with no positive-duration spans are omitted. Each cell covers
/// `total/width` seconds and is drawn `#` if any span on that track
/// overlaps it.
pub fn render(trace: &Trace, clock: Clock, width: usize) -> String {
    let total = trace.total(clock);
    let width = width.max(10);
    if total <= 0.0 {
        return String::from("(empty timeline)\n");
    }
    let mut tracks: Vec<&str> =
        trace.spans_on(clock).filter(|s| s.duration() > 0.0).map(|s| s.track.as_str()).collect();
    tracks.sort_by(|a, b| (track_rank(a), *a).cmp(&(track_rank(b), *b)));
    tracks.dedup();
    let label_width = tracks.iter().map(|t| t.len()).max().unwrap_or(0).max(7);

    let cell = total / width as f64;
    let mut out = String::new();
    for track in tracks {
        let mut row = vec![b'_'; width];
        for s in trace.spans_on(clock).filter(|s| s.track == track && s.duration() > 0.0) {
            let a = ((s.start / cell).floor() as usize).min(width - 1);
            let b = ((s.end / cell).ceil() as usize).clamp(a + 1, width);
            for c in &mut row[a..b] {
                *c = b'#';
            }
        }
        out.push_str(&format!("{track:<label_width$}"));
        out.push_str(" |");
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "total: {:.3} ms ({} cells of {:.3} ms)\n",
        total * 1e3,
        width,
        cell * 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    fn span(track: &str, start: f64, end: f64) -> Span {
        Span {
            name: "s".into(),
            track: track.into(),
            lane: 0,
            clock: Clock::Sim,
            scope: String::new(),
            start,
            end,
        }
    }

    #[test]
    fn rows_in_canonical_order_with_aligned_labels() {
        let mut t = Trace::default();
        t.spans.push(span("D2H", 2.0, 3.0));
        t.spans.push(span("H2D", 0.0, 1.0));
        t.spans.push(span("compute", 1.0, 2.0));
        let g = render(&t, Clock::Sim, 30);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].starts_with("H2D     |"));
        assert!(lines[1].starts_with("compute |"));
        assert!(lines[2].starts_with("D2H     |"));
        assert!(lines[3].starts_with("total: "));
    }

    #[test]
    fn pipelined_timeline_shows_overlapping_engine_rows() {
        // Three segments: back to back on one stream, or staggered over
        // three (Fig. 13). Only the pipeline has more than one engine busy
        // in the same cell, boundary cells aside.
        let busy_together = |stagger: f64| {
            let mut t = Trace::default();
            for seg in 0..3 {
                let t0 = seg as f64 * stagger;
                t.spans.push(span("H2D", t0, t0 + 1.0));
                t.spans.push(span("compute", t0 + 1.0, t0 + 2.0));
                t.spans.push(span("D2H", t0 + 2.0, t0 + 3.0));
            }
            let g = render(&t, Clock::Sim, 100);
            let rows: Vec<&[u8]> = g
                .lines()
                .filter_map(|l| Some(&l.as_bytes()[l.find('|')? + 1..l.len() - 1]))
                .collect();
            assert_eq!(rows.len(), 3);
            (0..100).filter(|&c| rows.iter().filter(|r| r[c] == b'#').count() > 1).count()
        };
        assert!(busy_together(3.0) <= 9, "serial segments never overlap");
        assert!(busy_together(1.0) > 10, "pipelined segments visibly overlap");
    }

    #[test]
    fn width_is_clamped() {
        let mut t = Trace::default();
        t.spans.push(span("compute", 0.0, 1.0));
        let g = render(&t, Clock::Sim, 1);
        assert!(g.lines().next().unwrap().len() > 10, "width 1 still yields a usable chart:\n{g}");
    }

    #[test]
    fn empty_clock_domain_renders_placeholder() {
        let mut t = Trace::default();
        t.spans.push(span("compute", 0.0, 1.0));
        assert_eq!(render(&t, Clock::Host, 40), "(empty timeline)\n");
    }

    #[test]
    fn long_track_names_widen_the_label_column() {
        let mut t = Trace::default();
        t.spans.push(span("compute", 0.0, 1.0));
        t.spans.push(span("checker-passes", 0.0, 1.0));
        let g = render(&t, Clock::Sim, 20);
        assert!(g.contains("compute        |"));
        assert!(g.contains("checker-passes |"));
    }
}
