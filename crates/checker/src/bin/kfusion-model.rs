//! `kfusion-model` — the concurrency model checker + static schedule
//! certifier driver.
//!
//! ```sh
//! kfusion-model [--out PATH] [--trace-out PATH] [--metrics-out PATH]
//! kfusion-model --demo-defects
//! kfusion-model --replay SCENARIO 0,2,1
//! ```
//!
//! The default run does two independent things and writes one
//! `BENCH_model.json`:
//!
//! 1. **Certify** every TPC-H Q1/Q6/Q21 schedule the planner emits (serial,
//!    fusion, fusion+fission ×8) — deadlock-freedom and peak resident
//!    footprint ≤ device capacity, both read from the schedule's
//!    happens-before relation (`kfusion_vgpu::hazard::HappensBefore`), with
//!    a concrete witness on failure (surfaced as `schedule-deadlock` /
//!    `footprint-over-capacity` lints).
//! 2. **Explore** the real-protocol scenario suite
//!    (`kfusion_check::model_scenarios`) exhaustively — every interleaving
//!    of `BoundedQueue` and `PlanCache` under the configured preemption
//!    bound. This half needs the shim compiled in:
//!    `RUSTFLAGS="--cfg kfusion_model" cargo run -p kfusion-check --bin
//!    kfusion-model`. Without it the bin still certifies, reports
//!    `"model_cfg": false`, and prints the rebuild hint.
//!
//! `--demo-defects` runs only the seeded-defect replicas and expects the
//! explorer to catch **all** of them: exit 1 when it does (defects found,
//! like `kfusion-lint demo-defects`), exit 2 if any slips through.
//! `--replay` re-runs one recorded choice prefix and prints the schedule.
//!
//! Exit status for the default run: 0 when every certificate holds and
//! every real scenario explored clean and to completion, 1 otherwise.

use kfusion_check::lint::lint_certificates;
use kfusion_core::exec::{plan_schedule, ExecConfig, Strategy};
use kfusion_model::certify::{certify_deadlock_free, certify_memory_bound};
use kfusion_tpch::gen::{generate, TpchConfig};
use kfusion_trace::json::quote;
use kfusion_vgpu::des::Schedule;
use kfusion_vgpu::GpuSystem;

/// Scale factor for certification inputs: schedule *shape* is what is
/// certified, and the planner emits the same shape at any scale, so small
/// keeps the run fast.
const CERT_SCALE: f64 = 0.05;

/// One certified (query, strategy) cell of the matrix.
struct CertRow {
    query: &'static str,
    strategy: &'static str,
    ok: bool,
    summary: String,
    detail: String,
}

/// Certify one schedule both ways; render failures as lints.
fn certify_one(
    query: &'static str,
    strategy: &'static str,
    schedule: &Schedule,
    system: &GpuSystem,
) -> CertRow {
    let origin = format!("{query}/{strategy}");
    let lints = lint_certificates(&origin, schedule, &system.spec);
    if lints.is_empty() {
        let d = certify_deadlock_free(schedule).expect("lint-clean schedule certifies");
        let m =
            certify_memory_bound(schedule, &system.spec).expect("lint-clean schedule certifies");
        CertRow {
            query,
            strategy,
            ok: true,
            summary: format!("{d}; {m}"),
            detail: format!(
                "{{\"query\":{},\"strategy\":{},\"ok\":true,\"commands\":{},\"streams\":{},\
                 \"event_edges\":{},\"peak_bytes\":{},\"capacity\":{},\"peak_at\":{}}}",
                quote(query),
                quote(strategy),
                d.commands,
                d.streams,
                d.event_edges,
                m.peak_bytes,
                m.capacity,
                quote(&m.peak_at.to_string()),
            ),
        }
    } else {
        let rendered: Vec<String> = lints.iter().map(|l| l.render()).collect();
        let ids: Vec<String> = lints.iter().map(|l| quote(l.id)).collect();
        CertRow {
            query,
            strategy,
            ok: false,
            summary: rendered.join("\n"),
            detail: format!(
                "{{\"query\":{},\"strategy\":{},\"ok\":false,\"lints\":[{}]}}",
                quote(query),
                quote(strategy),
                ids.join(",")
            ),
        }
    }
}

/// Certify the full query × strategy matrix.
fn certify_matrix() -> Vec<CertRow> {
    let _span = kfusion_trace::host_span("model", "certify-matrix");
    let system = GpuSystem::c2070();
    let db = generate(TpchConfig::scale(CERT_SCALE));
    let queries: Vec<(&'static str, kfusion_core::PlanGraph, Vec<kfusion_relalg::Relation>)> = vec![
        ("q1", kfusion_tpch::q1::q1_plan(), kfusion_tpch::q1::q1_inputs(&db)),
        ("q6", kfusion_tpch::q6::q6_plan(), kfusion_tpch::q6::q6_inputs(&db)),
        ("q21", kfusion_tpch::q21::q21_plan(1), kfusion_tpch::q21::q21_inputs(&db)),
    ];
    let strategies = [
        ("serial", Strategy::Serial),
        ("fusion", Strategy::Fusion),
        ("fusion-fission", Strategy::FusionFission { segments: 8 }),
    ];
    let mut rows = Vec::new();
    for (qname, graph, inputs) in &queries {
        for (sname, strategy) in &strategies {
            let cfg = ExecConfig::new(*strategy, &system);
            let schedule = plan_schedule(&system, graph, inputs, &cfg)
                .unwrap_or_else(|e| panic!("planning {qname}/{sname} failed: {e}"));
            rows.push(certify_one(qname, sname, &schedule, &system));
        }
    }
    rows
}

/// Per-scenario result, already rendered to a JSON object.
struct ScenarioRow {
    name: String,
    clean: bool,
    executions: u64,
    decision_points: u64,
    report: String,
    json: String,
}

#[cfg(kfusion_model)]
mod scenarios {
    use super::{quote, ScenarioRow};
    use kfusion_check::lint::lint_model_violation;
    use kfusion_check::model_scenarios::{suite, ScenarioSpec};
    use kfusion_model::explore::explore;

    pub const MODEL_CFG: bool = true;

    fn run_one(spec: &ScenarioSpec) -> ScenarioRow {
        let r = explore(spec.name, &spec.config, spec.scenario.clone());
        let violation_json = match &r.violation {
            None => "null".to_string(),
            Some(v) => format!(
                "{{\"kind\":{},\"message\":{},\"replay\":{},\"spurious_wakeups\":{}}}",
                quote(&v.kind.to_string()),
                quote(&v.message),
                quote(&v.replay_csv()),
                v.spurious_wakeups
            ),
        };
        let mut report = String::new();
        if let Some(v) = &r.violation {
            report.push_str(&v.render());
            for lint in lint_model_violation(v) {
                report.push_str(&lint.render());
                report.push('\n');
            }
        }
        ScenarioRow {
            name: r.name.clone(),
            clean: r.violation.is_none() && r.complete,
            executions: r.executions,
            decision_points: r.decision_points,
            report,
            json: format!(
                "{{\"name\":{},\"seeded\":{},\"executions\":{},\"decision_points\":{},\
                 \"max_preemptions\":{},\"peak_preemptions\":{},\"spurious_budget\":{},\
                 \"spurious_injected\":{},\"complete\":{},\"wall_ms\":{},\"violation\":{}}}",
                quote(&r.name),
                spec.seeded,
                r.executions,
                r.decision_points,
                r.max_preemptions.map_or("null".into(), |p| p.to_string()),
                r.peak_preemptions,
                r.spurious_budget,
                r.spurious_injected,
                r.complete,
                r.wall_ms,
                violation_json
            ),
        }
    }

    pub fn run_suite(seeded_only: bool) -> Vec<ScenarioRow> {
        // Default run explores the real protocols; `--demo-defects` the
        // seeded replicas.
        suite().iter().filter(|s| s.seeded == seeded_only).map(run_one).collect()
    }

    pub fn replay_one(name: &str, prefix: &[usize]) -> i32 {
        let all = suite();
        let Some(spec) = all.iter().find(|s| s.name == name) else {
            let names: Vec<&str> = all.iter().map(|s| s.name).collect();
            eprintln!("unknown scenario {name:?}; known: {names:?}");
            return 2;
        };
        let out = kfusion_model::explore::replay(&spec.config, spec.scenario.clone(), prefix);
        println!("replaying `{name}` with prefix {prefix:?}:");
        for ev in &out.events {
            println!("  {ev}");
        }
        match out.violation {
            Some(v) => {
                println!("violation[{}]: {}", v.kind, v.message);
                1
            }
            None => {
                println!("no violation on this schedule");
                0
            }
        }
    }
}

#[cfg(not(kfusion_model))]
mod scenarios {
    use super::ScenarioRow;

    pub const MODEL_CFG: bool = false;

    const HINT: &str = "model shim not compiled in; rebuild with \
                        RUSTFLAGS=\"--cfg kfusion_model\" to explore scenarios";

    pub fn run_suite(_seeded_only: bool) -> Vec<ScenarioRow> {
        eprintln!("note: {HINT}");
        Vec::new()
    }

    pub fn replay_one(_name: &str, _prefix: &[usize]) -> i32 {
        eprintln!("{HINT}");
        2
    }
}

fn write_bench(path: &str, rows: &[ScenarioRow], certs: &[CertRow]) {
    let scenario_objs: Vec<&str> = rows.iter().map(|r| r.json.as_str()).collect();
    let cert_objs: Vec<&str> = certs.iter().map(|c| c.detail.as_str()).collect();
    let doc = format!(
        "{{\n  \"schema_version\": 1,\n  \"tool\": \"kfusion-model\",\n  \"model_cfg\": {},\n  \
         \"scenarios\": [{}],\n  \"certificates\": [{}],\n  \"totals\": {{\"scenarios\": {}, \
         \"executions\": {}, \"decision_points\": {}, \"violations\": {}, \"certificates\": {}, \
         \"certified\": {}}}\n}}\n",
        scenarios::MODEL_CFG,
        scenario_objs.join(", "),
        cert_objs.join(", "),
        rows.len(),
        rows.iter().map(|r| r.executions).sum::<u64>(),
        rows.iter().map(|r| r.decision_points).sum::<u64>(),
        rows.iter().filter(|r| !r.clean).count(),
        certs.len(),
        certs.iter().filter(|c| c.ok).count(),
    );
    match std::fs::write(path, doc) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_model.json");
    let mut out = default_out.to_string();
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut demo_defects = false;
    let mut replay: Option<(String, Vec<usize>)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out PATH"),
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out PATH")),
            "--metrics-out" => metrics_out = Some(args.next().expect("--metrics-out PATH")),
            "--demo-defects" => demo_defects = true,
            "--replay" => {
                let name = args.next().expect("--replay SCENARIO CSV");
                let csv = args.next().expect("--replay SCENARIO CSV");
                let prefix: Vec<usize> = csv
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().expect("replay prefix is comma-separated indices"))
                    .collect();
                replay = Some((name, prefix));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: kfusion-model [--out PATH] [--trace-out PATH] [--metrics-out PATH]\n\
                     \u{20}      kfusion-model --demo-defects\n\
                     \u{20}      kfusion-model --replay SCENARIO 0,2,1"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    if let Some((name, prefix)) = replay {
        std::process::exit(scenarios::replay_one(&name, &prefix));
    }

    kfusion_trace::reset();
    kfusion_trace::set_enabled(true);

    if demo_defects {
        let rows = scenarios::run_suite(true);
        if rows.is_empty() {
            std::process::exit(2); // hint already printed
        }
        let mut all_caught = true;
        for r in &rows {
            if r.clean {
                println!("== {} ==\nNOT CAUGHT: seeded defect explored clean\n", r.name);
                all_caught = false;
            } else {
                println!(
                    "== {} ==\ncaught after {} executions / {} decision points\n{}",
                    r.name, r.executions, r.decision_points, r.report
                );
            }
        }
        // Like `kfusion-lint demo-defects`: finding the seeded defects is
        // the expected outcome, reported as a failing exit; a defect the
        // explorer *missed* is a tool failure.
        std::process::exit(if all_caught { 1 } else { 2 });
    }

    let certs = certify_matrix();
    let mut failed = false;
    println!("== certificates ({} schedules) ==", certs.len());
    for c in &certs {
        println!("{}/{}: {}", c.query, c.strategy, c.summary);
        failed |= !c.ok;
    }

    let rows = scenarios::run_suite(false);
    if scenarios::MODEL_CFG {
        println!("\n== scenarios ({} explored) ==", rows.len());
        for r in &rows {
            if r.clean {
                println!(
                    "{}: clean ({} executions, {} decision points)",
                    r.name, r.executions, r.decision_points
                );
            } else {
                println!("{}: VIOLATION\n{}", r.name, r.report);
                failed = true;
            }
        }
    }

    write_bench(&out, &rows, &certs);

    kfusion_trace::set_enabled(false);
    let trace = kfusion_trace::take();
    for (path, content) in [
        (&trace_out, kfusion_trace::chrome::export(&trace)),
        (&metrics_out, kfusion_trace::metrics::export(&trace)),
    ] {
        if let Some(path) = path {
            match std::fs::write(path, content) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
