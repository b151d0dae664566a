//! The served mix: Q6, Q1 and Q21 through one `QueryService`, first from
//! barrier-synced closed-loop clients, then as an open-loop burst of Q6
//! tickets polled with `wait_timeout`, with the trace recorder on.
//!
//! Every answer must be a standalone `execute` of its plan bit for bit, and
//! the service must keep its books: submissions that balance against
//! outcomes, stage histograms that count every completed query with
//! monotone percentiles, closed-loop windows that merge two plans and beat
//! one-query-at-a-time on simulated time, a trace that validates with a
//! `server` track, and an exported metrics text whose stage histogram
//! families validate.
//!
//! The trace recorder is process-global, so this test has a binary of its
//! own.

use kfusion::core::exec::{execute, ExecConfig, Strategy};
use kfusion::core::{OpKind, PlanGraph};
use kfusion::server::stats::{HOST_FAMILY, SIM_FAMILY};
use kfusion::server::{QueryOutcome, QueryService, ServerConfig, ServerError};
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::sql::bit_identical;
use kfusion::tpch::{q1, q21, q6};
use kfusion::trace::{chrome, json, metrics, validate};
use kfusion::vgpu::GpuSystem;
use std::sync::Barrier;
use std::time::Duration;

const CLIENTS: usize = 2;
const ROUNDS: usize = 6;
const OPEN: usize = 4;

/// The mix, by shape index.
const NAMES: [&str; 3] = ["Q6", "Q1", "Q21"];

/// Q21's relations sit in the registry after Q1's seven lineitem columns.
const Q21_OFF: usize = 7;

/// Shape `i` over the registry: Q6 reads the first four of Q1's columns,
/// Q21's `Input` leaves are shifted past them.
fn shape(i: usize) -> PlanGraph {
    match i {
        0 => q6::q6_plan(),
        1 => q1::q1_plan(),
        _ => {
            let mut g = q21::q21_plan(20);
            for node in &mut g.nodes {
                if let OpKind::Input { input } = &mut node.kind {
                    *input += Q21_OFF;
                }
            }
            g
        }
    }
}

#[test]
fn a_served_tpch_mix_answers_standalone_and_keeps_its_books() {
    let system = GpuSystem::c2070();
    let db = generate(TpchConfig::scale(0.01));
    let mut tables = q1::q1_inputs(&db);
    tables.extend(q21::q21_inputs(&db));
    let exec = ExecConfig::new(Strategy::Fusion, &system);
    let alone: Vec<_> =
        (0..NAMES.len()).map(|i| execute(&system, &shape(i), &tables, &exec).unwrap()).collect();

    let mut cfg = ServerConfig::new(exec);
    cfg.window = Duration::from_millis(300);
    cfg.max_batch = CLIENTS;
    kfusion::trace::reset();
    kfusion::trace::set_enabled(true);
    let barrier = Barrier::new(CLIENTS);
    let (closed, open, stats) = QueryService::serve(&system, &tables, &cfg, |c| {
        // Every round, each client submits the same shape at a barrier, so
        // each window fills with two plans over the same inputs.
        let closed: Vec<(usize, QueryOutcome)> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        (0..ROUNDS)
                            .map(|round| {
                                let i = round % NAMES.len();
                                barrier.wait();
                                (i, c.query(shape(i)).unwrap())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let tickets: Vec<_> = (0..OPEN).map(|_| c.submit(shape(0)).unwrap()).collect();
        let open: Vec<(usize, QueryOutcome)> = tickets
            .into_iter()
            .map(|t| loop {
                match t.wait_timeout(Duration::from_micros(200)) {
                    Ok(out) => break (0, out),
                    Err(ServerError::WaitTimedOut) => {}
                    Err(e) => panic!("open-loop Q6 failed: {e}"),
                }
            })
            .collect();
        (closed, open, c.server_stats())
    });
    kfusion::trace::set_enabled(false);
    let trace = kfusion::trace::take();

    let all = || closed.iter().chain(&open);
    for (i, out) in all() {
        assert!(bit_identical(&out.output, &alone[*i].output), "{} differs", NAMES[*i]);
    }

    let ran = all().count() as u64;
    let accounted = stats.completed + stats.shed_overload + stats.shed_deadline + stats.failed;
    assert_eq!(stats.submitted, accounted, "{stats:?}");
    assert_eq!(stats.completed, ran, "{stats:?}");
    let host = stats.host.iter().map(|(s, sum)| (format!("host/{}", s.as_str()), sum));
    let sim = stats.sim.iter().map(|(s, sum)| (format!("sim/{}", s.as_str()), sum));
    for (stage, s) in host.chain(sim) {
        assert_eq!(s.count, ran, "{stage}");
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "{stage}: {s:?}");
    }

    for (i, out) in &closed {
        assert_eq!(out.record.batch_size, CLIENTS, "closed-loop {} ran unmerged", NAMES[*i]);
    }
    let batched: f64 = all().map(|(_, o)| o.sim_batch_total / o.batch_size as f64).sum();
    let serial: f64 = all().map(|(i, _)| alone[*i].report.total()).sum();
    assert!(batched < serial, "batched sim {batched} s not below one at a time {serial} s");

    let doc = json::parse(&chrome::export(&trace)).unwrap();
    let req = validate::Requirements { tracks: vec!["server".into()], ..Default::default() };
    validate::validate(&doc, &req).unwrap();
    let text = metrics::export(&trace);
    validate::validate_metrics(&text).unwrap();
    for (family, series) in [(HOST_FAMILY, stats.host.len()), (SIM_FAMILY, stats.sim.len())] {
        assert_eq!(validate::validate_histogram_family(&text, family), Ok(series), "{family}");
    }
    for family in ["kfusion_server_query_records_closed_total", "kfusion_server_plan_cache_"] {
        assert!(text.contains(family), "metrics lack {family}");
    }
}
