//! Chrome trace-event JSON exporter.
//!
//! Produces the `{"traceEvents": [...]}` format that Perfetto and
//! `chrome://tracing` load directly. The two clock domains become two
//! processes — pid 1 is the simulated GPU (its H2D/compute/D2H/host engines
//! as named threads, one per stream lane), pid 2 is host wall-clock — so
//! one trace shows the DES model time and the real machine side by side
//! without conflating their axes.
//!
//! Host spans export as `B`/`E` pairs: they come from RAII guards on a
//! monotone wall clock, so per-lane they are always properly nested.
//! Simulated spans (and zero-duration spans on either clock) export as
//! complete `X` events instead — every DES run restarts model time at
//! zero, so a session holding several simulations has overlapping sim
//! spans per lane, which `X` events represent exactly while `B`/`E` pairs
//! cannot. The stream is globally sorted by timestamp with `E` before `X`
//! before `B` at equal instants so it is monotone and well nested — the
//! invariants `kfusion-trace-check` and the golden test enforce.

use crate::json::quote;
use crate::{Clock, Span, Trace};
use std::collections::BTreeMap;

/// Canonical display order for simulator tracks; everything else sorts
/// after these, alphabetically.
fn track_rank(track: &str) -> u32 {
    match track {
        "H2D" => 0,
        "compute" => 1,
        "D2H" => 2,
        "host" => 3,
        _ => 4,
    }
}

fn pid(clock: Clock) -> u32 {
    match clock {
        Clock::Sim => 1,
        Clock::Host => 2,
    }
}

/// One pre-serialized event with its sort key.
struct Ev {
    ts: f64,
    /// 0 = E, 1 = X, 2 = B — ends close before new begins at the same
    /// instant, keeping the stream well nested.
    rank: u8,
    /// Within (ts, rank): outer spans begin first and close last.
    tie: f64,
    json: String,
}

/// Export `trace` as a Chrome trace-event JSON document.
pub fn export(trace: &Trace) -> String {
    // Assign a tid to every (clock, track, lane), in canonical order.
    let mut keys: Vec<(Clock, &str, u32)> =
        trace.spans.iter().map(|s| (s.clock, s.track.as_str(), s.lane)).collect();
    keys.sort_by(|a, b| {
        (pid(a.0), track_rank(a.1), a.1, a.2).cmp(&(pid(b.0), track_rank(b.1), b.1, b.2))
    });
    keys.dedup();
    let mut tids: BTreeMap<(u32, String, u32), u32> = BTreeMap::new();
    let mut next_tid: BTreeMap<u32, u32> = BTreeMap::new();
    let mut meta: Vec<String> = Vec::new();
    for (clock, track, lane) in keys {
        let p = pid(clock);
        let tid = {
            let n = next_tid.entry(p).or_insert(0);
            *n += 1;
            *n
        };
        if tid == 1 {
            let pname = match clock {
                Clock::Sim => "sim (model time)",
                Clock::Host => "host (wall clock)",
            };
            meta.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":0,\"ts\":0,\"args\":{{\"name\":{}}}}}",
                quote(pname)
            ));
        }
        meta.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":{}}}}}",
            quote(&format!("{track}/{lane}"))
        ));
        tids.insert((p, track.to_string(), lane), tid);
    }

    let mut evs: Vec<Ev> = Vec::with_capacity(trace.spans.len() * 2);
    for s in &trace.spans {
        let p = pid(s.clock);
        let tid = tids[&(p, s.track.clone(), s.lane)];
        let (ts0, ts1) = (s.start * 1e6, s.end * 1e6);
        let head = span_head(s, p, tid);
        if s.clock == Clock::Host && ts1 > ts0 {
            evs.push(Ev {
                ts: ts0,
                rank: 2,
                tie: -ts1,
                json: format!("{head},\"ph\":\"B\",\"ts\":{ts0:.3}}}"),
            });
            evs.push(Ev {
                ts: ts1,
                rank: 0,
                tie: -ts0,
                json: format!("{head},\"ph\":\"E\",\"ts\":{ts1:.3}}}"),
            });
        } else {
            let dur = (ts1 - ts0).max(0.0);
            evs.push(Ev {
                ts: ts0,
                rank: 1,
                tie: -ts1,
                json: format!("{head},\"ph\":\"X\",\"ts\":{ts0:.3},\"dur\":{dur:.3}}}"),
            });
        }
    }
    evs.sort_by(|a, b| {
        a.ts.total_cmp(&b.ts).then(a.rank.cmp(&b.rank)).then(a.tie.total_cmp(&b.tie))
    });

    let mut lines = meta;
    lines.extend(evs.into_iter().map(|e| e.json));
    format!("{{\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
}

/// The shared `{"name":…,"cat":…,"pid":…,"tid":…` prefix (no closing brace).
fn span_head(s: &Span, pid: u32, tid: u32) -> String {
    let args = if s.scope.is_empty() {
        String::new()
    } else {
        format!(",\"args\":{{\"scope\":{}}}", quote(&s.scope))
    };
    format!(
        "{{\"name\":{},\"cat\":{},\"pid\":{pid},\"tid\":{tid}{args}",
        quote(&s.name),
        quote(&s.track)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &str, lane: u32, clock: Clock, name: &str, start: f64, end: f64) -> Span {
        Span { name: name.into(), track: track.into(), lane, clock, scope: "q".into(), start, end }
    }

    #[test]
    fn exports_metadata_and_paired_events() {
        let mut t = Trace::default();
        t.spans.push(span("compute", 0, Clock::Sim, "k#1", 0.0, 1.0));
        t.spans.push(span("H2D", 2, Clock::Sim, "in#0", 0.0, 0.5));
        t.spans.push(span("host", 0, Clock::Host, "phase", 0.0, 0.25));
        let out = export(&t);
        let j = crate::json::parse(&out).expect("valid JSON");
        let evs = j.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents array");
        // 3 thread_name + 2 process_name + 2 sim spans as X + 1 host B/E pair.
        assert_eq!(evs.len(), 9);
        let phases: Vec<&str> =
            evs.iter().map(|e| e.get("ph").and_then(|p| p.as_str()).unwrap()).collect();
        assert_eq!(phases.iter().filter(|p| **p == "B").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "E").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 5);
        // H2D sorts before compute: tid 1 on pid 1 is the H2D lane.
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .filter(|e| e.get("name").and_then(|p| p.as_str()) == Some("thread_name"))
            .map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(names, vec!["H2D/2", "compute/0", "host/0"]);
    }

    #[test]
    fn timestamps_are_monotone_and_sim_spans_are_complete_events() {
        let mut t = Trace::default();
        t.spans.push(span("compute", 0, Clock::Sim, "late", 2.0, 3.0));
        t.spans.push(span("compute", 0, Clock::Sim, "early", 0.0, 1.0));
        t.spans.push(span("compute", 0, Clock::Sim, "instant", 1.5, 1.5));
        t.spans.push(span("host", 0, Clock::Host, "zero", 0.5, 0.5));
        let out = export(&t);
        let j = crate::json::parse(&out).unwrap();
        let evs = j.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let mut last = f64::NEG_INFINITY;
        let mut xs = 0;
        for e in evs {
            let ph = e.get("ph").and_then(|p| p.as_str()).unwrap();
            if ph == "M" {
                continue;
            }
            // Sim spans and zero-duration host spans are all X events.
            assert_eq!(ph, "X");
            xs += 1;
            let ts = e.get("ts").and_then(|v| v.as_f64()).unwrap();
            assert!(ts >= last, "ts went backwards");
            last = ts;
        }
        assert_eq!(xs, 4);
    }

    #[test]
    fn overlapping_sim_spans_from_repeated_runs_export_cleanly() {
        // Two DES runs in one session both start at model time zero; the
        // same lane then holds overlapping spans. X events carry explicit
        // durations, so the stream stays monotone and parseable.
        let mut t = Trace::default();
        t.spans.push(span("compute", 0, Clock::Sim, "k#1", 0.0, 1.0));
        t.spans.push(span("compute", 0, Clock::Sim, "k#1", 0.0, 2.0));
        let out = export(&t);
        let j = crate::json::parse(&out).unwrap();
        let evs = j.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let durs: Vec<f64> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| e.get("dur").and_then(|v| v.as_f64()).unwrap())
            .collect();
        // Longer (outer-most at the shared instant) first.
        assert_eq!(durs, vec![2e6, 1e6]);
    }

    #[test]
    fn nested_host_spans_stay_well_nested() {
        // Inner recorded before outer (RAII drop order); same begin instant.
        // The shared validator proves the B/E stream is well nested — the
        // same code path `kfusion-trace-check` gates CI with, which returns
        // errors (never panics) on malformed input.
        let mut t = Trace::default();
        t.spans.push(span("host", 0, Clock::Host, "inner", 0.0, 1.0));
        t.spans.push(span("host", 0, Clock::Host, "outer", 0.0, 2.0));
        let out = export(&t);
        let j = crate::json::parse(&out).unwrap();
        let s = crate::validate::validate(&j, &crate::validate::Requirements::default())
            .expect("exported host spans are well nested");
        assert_eq!(s.span_events, 4, "two B/E pairs");
    }

    #[test]
    fn validator_reports_malformed_events_instead_of_panicking() {
        // Regression for the old unwrap-based B/E stack check: a B event
        // with no name must surface as a validation error.
        let j =
            crate::json::parse(r#"{"traceEvents":[{"ph":"B","pid":2,"tid":1,"ts":0.0}]}"#).unwrap();
        let e = crate::validate::validate(&j, &crate::validate::Requirements::default())
            .expect_err("malformed event must fail validation");
        assert!(e.0.contains("name"), "{e}");
    }
}
