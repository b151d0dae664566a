//! Golden test for `kfusion-lint --format json` (satellite of the
//! model-checking PR): the machine-readable diagnostics document for the
//! seeded `demo-defects` corpus, byte-pinned so downstream consumers (CI
//! asserts, dashboards) can rely on the schema.
//!
//! Regenerate after an intentional schema or catalog change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p kfusion-check --test lint_json
//! ```

use kfusion_check::demo::demo_defects;
use kfusion_check::lint::targets_json;
use kfusion_trace::json::{parse, Value};

fn demo_json() -> String {
    targets_json(&[("demo-defects".to_string(), demo_defects())], false)
}

#[test]
fn demo_defects_json_matches_golden_file() {
    let got = demo_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_demo_defects.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        got, want,
        "lint JSON drifted from the golden file; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_file_is_valid_and_well_shaped() {
    let doc = parse(&demo_json()).expect("lint JSON parses");
    assert_eq!(doc.get("tool").and_then(Value::as_str), Some("kfusion-lint"));
    assert_eq!(doc.get("schema_version").and_then(Value::as_f64), Some(1.0));
    assert_eq!(doc.get("failed"), Some(&Value::Bool(true)), "demo-defects always fails");
    assert_eq!(doc.get("deny_warnings"), Some(&Value::Bool(false)));

    let targets = doc.get("targets").and_then(Value::as_arr).expect("targets array");
    assert_eq!(targets.len(), 1);
    let t = &targets[0];
    assert_eq!(t.get("target").and_then(Value::as_str), Some("demo-defects"));
    let lints = t.get("lints").and_then(Value::as_arr).expect("lints array");
    let errors = t.get("errors").and_then(Value::as_f64).expect("errors count") as usize;
    let warnings = t.get("warnings").and_then(Value::as_f64).expect("warnings count") as usize;
    assert_eq!(errors + warnings, lints.len(), "counts must sum to the lint list");

    // Every lint carries the full schema, and the whole seeded catalog —
    // including the certificate/model-checker entries added with
    // `kfusion-model` — is present.
    let mut ids = Vec::new();
    for l in lints {
        let id = l.get("id").and_then(Value::as_str).expect("id");
        let sev = l.get("severity").and_then(Value::as_str).expect("severity");
        assert!(sev == "error" || sev == "warning", "bad severity {sev}");
        assert!(l.get("message").and_then(Value::as_str).is_some(), "message");
        assert!(l.get("notes").and_then(Value::as_arr).is_some(), "notes");
        ids.push(id);
    }
    for expected in [
        "unused-input-slot",
        "dead-code",
        "always-false-predicate",
        "over-budget-group",
        "missed-vectorization",
        "no-copy-compute-overlap",
        "rewrite-changed-semantics",
        "fission-segment-overlap",
        "schedule-deadlock",
        "footprint-over-capacity",
        "unchecked-condvar-wait",
    ] {
        assert!(ids.contains(&expected), "missing {expected} in {ids:?}");
    }

    // The replay note on the model-checker lint survives JSON round-trips.
    let naked = lints
        .iter()
        .find(|l| l.get("id").and_then(Value::as_str) == Some("unchecked-condvar-wait"))
        .expect("unchecked-condvar-wait present");
    let notes = naked.get("notes").and_then(Value::as_arr).unwrap();
    assert!(
        notes.iter().any(|n| {
            n.as_str().is_some_and(|s| s.contains("--replay seeded-naked-condvar-wait 1,0"))
        }),
        "replay note missing: {notes:?}"
    );
}
