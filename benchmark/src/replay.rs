//! The traced pass: replay queries without the server, calling each layer's
//! public entry point under the benchmark's own span recorder.
//!
//! Every replayed query records two sibling subtrees under its `query` root:
//!
//! * `path` — what the service does for one query, inline on one thread:
//!   parse, lower, fingerprint, plan-cache lookup (`prepare_fusion` on a
//!   miss) and `execute_prepared`. Its duration is the replayed end-to-end.
//! * `probes` — layers measured again from outside, because `path` only sees
//!   them as part of a bigger call: the lexer (inside `parse`), the plan
//!   checker (inside `prepare_fusion`), and — inside `execute_prepared` — the
//!   relational operators, replayed node by node on the real operands, the
//!   first SELECT predicate through the IR optimizer and batch engine, and
//!   the discrete-event simulation of the plan's command schedule.

use crate::metrics::Sample;
use crate::spans::{self, Recorder, Span};
use crate::stats::median;
use crate::workload::Shape;
use kfusion::core::check::check_plan;
use kfusion::core::exec::{
    execute_prepared, plan_schedule, prepare_fusion, ExecConfig, ExecResult,
};
use kfusion::core::graph::{OpKind, PlanGraph};
use kfusion::core::multiquery::merge_plans;
use kfusion::core::{FusionPlan, PlanKey};
use kfusion::frontend::{lower::lower, parse, token::lex};
use kfusion::ir::batch::{BatchMachine, CompiledKernel, BATCH_ROWS};
use kfusion::ir::opt::{optimize, OptLevel};
use kfusion::ir::KernelBody;
use kfusion::relalg::{ops, RelError, Relation};
use kfusion::server::TableRegistry;
use kfusion::tpch::sql::bit_identical;
use kfusion::vgpu::{Engine, GpuSystem, Schedule};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Operator classes a plan node's replay is booked under: the span name, and
/// the two metrics read from those spans.
const RELALG: [(&str, &str, &str); 7] = [
    ("relalg.select", "relalg.select_ms", "relalg.select_rows"),
    ("relalg.arith", "relalg.arith_ms", "relalg.arith_rows"),
    ("relalg.aggregate", "relalg.aggregate_ms", "relalg.aggregate_rows"),
    ("relalg.sort", "relalg.sort_ms", "relalg.sort_rows"),
    ("relalg.column_join", "relalg.column_join_ms", "relalg.column_join_rows"),
    ("relalg.join", "relalg.join_ms", "relalg.join_rows"),
    ("relalg.project", "relalg.project_ms", "relalg.project_rows"),
];

/// The span a node's operator is booked under (`None` for plan inputs,
/// which the executor borrows and never computes).
fn relalg_span(kind: &OpKind) -> Option<&'static str> {
    Some(match kind {
        OpKind::Input { .. } => return None,
        OpKind::Select { .. } => "relalg.select",
        OpKind::Arith { .. } | OpKind::ArithExtend { .. } => "relalg.arith",
        OpKind::Aggregate { .. } | OpKind::AggregateAll { .. } => "relalg.aggregate",
        OpKind::Sort { .. } | OpKind::Unique => "relalg.sort",
        OpKind::ColumnJoin => "relalg.column_join",
        OpKind::Project { .. } | OpKind::Rekey { .. } => "relalg.project",
        // Every other two-input operator walks two sorted sides like JOIN.
        _ => "relalg.join",
    })
}

/// Exact per-query facts the traced pass reads off the layers' results.
#[derive(Debug, Default)]
struct Counts {
    plan_nodes: Vec<f64>,
    fused_groups: Vec<f64>,
    max_group_len: Vec<f64>,
    instrs_o0: Vec<f64>,
    instrs_o3: Vec<f64>,
    commands: Vec<f64>,
    sim_h2d_ms: Vec<f64>,
    sim_compute_ms: Vec<f64>,
    sim_d2h_ms: Vec<f64>,
    peak_resident_mb: Vec<f64>,
}

/// What the service's inline path produced for one query.
struct PathOut {
    plan: PlanGraph,
    result: ExecResult,
    cache_hit: bool,
}

/// The replay's stand-in for the service's plan cache.
type PlanCache = HashMap<PlanKey, Arc<FusionPlan>>;

/// Replays `n_queries` queries, cycling through `shapes`, over the tables the
/// service served them from.
pub struct Replay<'a> {
    pub system: &'a GpuSystem,
    pub registry: &'a TableRegistry,
    pub config: ExecConfig,
    pub shapes: &'a [Shape],
    pub n_queries: usize,
    /// Plans one admission window merges: every client's shape.
    pub batch: Vec<PlanGraph>,
}

/// What the traced pass hands back: the per-layer samples it measured and
/// the spans they came from.
pub struct Traced {
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
}

impl Replay<'_> {
    fn shape(&self, query: usize) -> &Shape {
        &self.shapes[query % self.shapes.len()]
    }

    /// The service's work for one query, inline: text to plan (for a text
    /// query), cache key, cached or fresh fusion plan, execution. The answer
    /// must match the served one bit for bit.
    fn run_path(
        &self,
        rec: &mut Recorder,
        shape: &Shape,
        cache: &mut PlanCache,
    ) -> Result<PathOut, String> {
        let out = rec.span("path", |rec| -> Result<PathOut, String> {
            let plan = match &shape.sql {
                Some(sql) => {
                    let query = rec.span("frontend.parse", |_| parse(sql)).map_err(err)?;
                    let lowered = rec
                        .span("frontend.lower", |_| lower(&query, self.registry.catalog()))
                        .map_err(err)?;
                    // As `TableRegistry::compile`: point the leaves at the
                    // named table's slot.
                    let slot = self.registry.slot(&query.table).ok_or("table has no slot")?;
                    let mut plan = lowered.plan;
                    for node in &mut plan.nodes {
                        if let OpKind::Input { input } = &mut node.kind {
                            *input = slot;
                        }
                    }
                    plan
                }
                // A plan client hands the service its own copy.
                None => shape.plan.clone(),
            };
            let config = &self.config;
            let key =
                rec.span("core.fingerprint", |_| PlanKey::new(&plan, &config.budget, config.level));
            let (fusion, cache_hit) = match cache.get(&key) {
                Some(fusion) => (fusion.clone(), true),
                None => {
                    let fusion = rec
                        .span("core.prepare_fusion", |_| prepare_fusion(&plan, config))
                        .map_err(err)?;
                    let fusion = Arc::new(fusion);
                    cache.insert(key, fusion.clone());
                    (fusion, false)
                }
            };
            let tables = self.registry.tables();
            let result = rec
                .span("core.execute_prepared", |_| {
                    execute_prepared(self.system, &plan, tables, config, &fusion)
                })
                .map_err(err)?;
            Ok(PathOut { plan, result, cache_hit })
        })?;
        if bit_identical(&out.result.output, &shape.expected) {
            Ok(out)
        } else {
            Err("replayed path disagrees with the standalone answer".into())
        }
    }

    /// The layers `path` cannot see on their own, called from outside.
    fn run_probes(
        &self,
        rec: &mut Recorder,
        query: usize,
        path: &PathOut,
        schedules: &mut [Option<Schedule>],
        counts: &mut Counts,
    ) -> Result<(), String> {
        let shape = self.shape(query);
        let plan = &path.plan;
        rec.span("probes", |rec| {
            if let Some(sql) = &shape.sql {
                rec.span("frontend.lex", |_| lex(sql).map(black_box)).map_err(err)?;
            }
            rec.span("checker.check_plan", |_| check_plan(plan)).map_err(err)?;
            if path.cache_hit {
                rec.span("core.prepare_fusion", |_| {
                    prepare_fusion(plan, &self.config).map(black_box)
                })
                .map_err(err)?;
            }
            let batch =
                if self.batch.len() > 1 { &self.batch[..] } else { std::slice::from_ref(plan) };
            rec.span("core.merge_plans", |_| black_box(merge_plans(batch)));

            let root = self.replay_operators(rec, plan, counts)?;
            if !bit_identical(&root, &shape.expected) {
                return Err("operator replay disagrees with the served answer".to_string());
            }

            let slot = query % self.shapes.len();
            if schedules[slot].is_none() {
                // Builds the schedule from real cardinalities, so it runs the
                // plan once more; a repeated shape reuses its schedule.
                let tables = self.registry.tables();
                schedules[slot] = Some(
                    rec.span("core.plan_schedule", |_| {
                        plan_schedule(self.system, plan, tables, &self.config)
                    })
                    .map_err(err)?,
                );
            }
            let schedule = schedules[slot].as_ref().expect("filled above");
            let commands: usize = schedule.streams.iter().map(Vec::len).sum();
            rec.span("vgpu.simulate", |_| self.system.simulate(schedule).map(black_box))
                .map_err(err)?;

            let report = &path.result.report;
            counts.plan_nodes.push(plan.len() as f64);
            counts.fused_groups.push(path.result.fusion.fused_group_count() as f64);
            counts.max_group_len.push(path.result.fusion.max_group_len() as f64);
            counts.commands.push(commands as f64);
            counts.sim_h2d_ms.push(report.engine_time(Engine::CopyH2D) * 1e3);
            counts.sim_compute_ms.push(report.engine_time(Engine::Compute) * 1e3);
            counts.sim_d2h_ms.push(report.engine_time(Engine::CopyD2H) * 1e3);
            counts.peak_resident_mb.push(path.result.peak_resident_bytes as f64 / 1e6);
            Ok(())
        })
    }

    /// Walk the plan in node order and call `relalg::ops` per node on the
    /// real operands, as the executor's functional phase does (including its
    /// in-place variants for a single-consumer intermediate), one span per
    /// node. The first SELECT's predicate also goes through the IR probes.
    fn replay_operators(
        &self,
        rec: &mut Recorder,
        plan: &PlanGraph,
        counts: &mut Counts,
    ) -> Result<Relation, String> {
        let tables = self.registry.tables();
        let consumers = plan.consumer_counts();
        let mut slots: Vec<Option<Relation>> = vec![None; plan.len()];
        let mut probed_ir = false;
        for (id, node) in plan.nodes.iter().enumerate() {
            let Some(name) = relalg_span(&node.kind) else { continue };
            // The executor mutates a single-consumer intermediate in place.
            let first = node.inputs[0];
            let in_place = matches!(node.kind, OpKind::ArithExtend { .. } | OpKind::Rekey { .. })
                && consumers[first] == 1
                && first != plan.root;
            let stolen = if in_place { slots[first].take() } else { None };
            let operand = |i: usize| -> &Relation {
                let p = node.inputs[i];
                match &plan.nodes[p].kind {
                    OpKind::Input { input } => &tables[*input],
                    _ => slots[p].as_ref().expect("operands are computed in node order"),
                }
            };
            let rows: usize = match &stolen {
                Some(rel) => rel.len(),
                None => (0..node.inputs.len()).map(|i| operand(i).len()).sum(),
            };
            if let (OpKind::Select { pred }, false) = (&node.kind, probed_ir) {
                probed_ir = true;
                probe_ir(rec, pred, operand(0), counts)?;
            }
            let out = rec
                .span_rows(name, rows as u64, |_| match stolen {
                    Some(rel) => apply_in_place(&node.kind, rel),
                    None => apply(&node.kind, &operand),
                })
                .map_err(err)?;
            slots[id] = Some(out);
        }
        slots[plan.root].take().ok_or_else(|| "plan root is a bare input".to_string())
    }

    /// Time `path` alone for every query with the benchmark's recorder off,
    /// once with the program's own trace recorder off and once with it on
    /// (alternating which goes first). Returns the two lists of nanoseconds.
    fn untraced_paths(&self) -> Result<(Vec<f64>, Vec<f64>), String> {
        let mut rec = Recorder::new(false);
        let mut caches = [PlanCache::new(), PlanCache::new()];
        let mut path_ns = [Vec::new(), Vec::new()];
        for query in 0..self.n_queries {
            let order = if query % 2 == 0 { [0, 1] } else { [1, 0] };
            for recorder_on in order {
                kfusion::trace::set_enabled(recorder_on == 1);
                let began = Instant::now();
                let out = self.run_path(&mut rec, self.shape(query), &mut caches[recorder_on]);
                path_ns[recorder_on].push(began.elapsed().as_nanos() as f64);
                kfusion::trace::set_enabled(false);
                // Forget what the program's recorder collected meanwhile.
                drop(kfusion::trace::take());
                out?;
            }
        }
        let [off, on] = path_ns;
        Ok((off, on))
    }

    /// Run the traced pass and the two untraced ones, and turn the spans into
    /// the per-layer samples that come from replay.
    pub fn run(&self) -> Result<Traced, String> {
        let n = self.n_queries;
        let mut rec = Recorder::new(true);
        let mut cache = PlanCache::new();
        let mut schedules: Vec<Option<Schedule>> = vec![None; self.shapes.len()];
        let mut counts = Counts::default();
        for query in 0..n {
            rec.set_query(query);
            rec.span("query", |rec| {
                let path = self.run_path(rec, self.shape(query), &mut cache)?;
                self.run_probes(rec, query, &path, &mut schedules, &mut counts)
            })?;
        }
        let (recorder_off_ns, recorder_on_ns) = self.untraced_paths()?;

        let spans = rec.spans();
        let of = |name: &str| -> Vec<f64> {
            spans::self_ns_by_query(spans, name, n)
                .into_iter()
                .flatten()
                .map(|ns| ns as f64)
                .collect()
        };
        let timed = |name: &'static str, span: &str, per_unit_ns: f64| {
            let values = of(span);
            Sample::new(name, median(&values) / per_unit_ns, values.len() as u64)
        };
        let exact = |name: &'static str, values: &[f64]| {
            Sample::new(name, median(values), values.len() as u64)
        };
        const US: f64 = 1e3;
        const MS: f64 = 1e6;
        let mut samples = vec![
            timed("frontend.lex_us", "frontend.lex", US),
            timed("frontend.parse_us", "frontend.parse", US),
            timed("frontend.lower_us", "frontend.lower", US),
            exact("frontend.plan_nodes", &counts.plan_nodes),
            timed("core.fingerprint_us", "core.fingerprint", US),
            timed("core.prepare_fusion_us", "core.prepare_fusion", US),
            exact("core.fused_groups", &counts.fused_groups),
            exact("core.max_group_len", &counts.max_group_len),
            timed("checker.check_plan_us", "checker.check_plan", US),
            timed("core.execute_prepared_ms", "core.execute_prepared", MS),
            timed("core.merge_plans_us", "core.merge_plans", US),
            timed("ir.optimize_us", "ir.optimize", US),
            exact("ir.instrs_o0", &counts.instrs_o0),
            exact("ir.instrs_o3", &counts.instrs_o3),
            timed("ir.compile_kernel_us", "ir.compile_kernel", US),
            timed("vgpu.simulate_us", "vgpu.simulate", US),
            exact("vgpu.commands", &counts.commands),
            exact("vgpu.sim_h2d_ms", &counts.sim_h2d_ms),
            exact("vgpu.sim_compute_ms", &counts.sim_compute_ms),
            exact("vgpu.sim_d2h_ms", &counts.sim_d2h_ms),
            exact("vgpu.peak_resident_mb", &counts.peak_resident_mb),
        ];

        // Rows through the batch engine per second of `BatchMachine::run`.
        let batch_rows = spans::rows_by_query(spans, "ir.batch_run", n);
        let batch_ns = spans::self_ns_by_query(spans, "ir.batch_run", n);
        let rates: Vec<f64> = batch_rows
            .iter()
            .zip(&batch_ns)
            .filter_map(|(rows, ns)| Some((*rows)? as f64 / ((*ns)?.max(1) as f64 / 1e9)))
            .collect();
        samples.push(Sample::new("ir.batch_rows_per_s", median(&rates), rates.len() as u64));

        // Per query, the operator replay's total, for the residual below.
        let mut operators_ns = vec![0.0; n];
        for (class, ms_name, rows_name) in RELALG {
            let self_ns = spans::self_ns_by_query(spans, class, n);
            let rows = spans::rows_by_query(spans, class, n);
            for (query, ns) in self_ns.iter().enumerate() {
                operators_ns[query] += ns.unwrap_or(0) as f64;
            }
            let times: Vec<f64> = self_ns.into_iter().flatten().map(|ns| ns as f64).collect();
            let rows: Vec<f64> = rows.into_iter().flatten().map(|r| r as f64).collect();
            samples.push(Sample::new(ms_name, median(&times) / MS, times.len() as u64));
            samples.push(Sample::new(rows_name, median(&rows), rows.len() as u64));
        }

        // execute_prepared minus the operators it ran: schedule build, DES,
        // EXPLAIN tree, clones, thread hand-offs.
        let execute_ns = of("core.execute_prepared");
        let residual: Vec<f64> =
            execute_ns.iter().zip(&operators_ns).map(|(x, ops)| x - ops).collect();
        samples.push(Sample::new("core.exec_residual_ms", median(&residual) / MS, n as u64));

        // The share of the replayed end-to-end that no layer span accounts
        // for: `path`'s children other than execute_prepared, the operator
        // replay and the DES stand in for the layers.
        let path_ns = of_duration(spans, "path", n);
        let mut attributed_ns = operators_ns;
        for (id, span) in spans.iter().enumerate() {
            let on_path = span.parent.is_some_and(|p| spans[p].name == "path")
                && span.name != "core.execute_prepared";
            if on_path || span.name == "vgpu.simulate" {
                attributed_ns[span.query] += spans::self_ns(spans, id) as f64;
            }
        }
        let unattributed: Vec<f64> =
            attributed_ns.iter().zip(&path_ns).map(|(a, path)| 1.0 - a / path).collect();
        samples.push(Sample::new("ledger.unattributed_share", median(&unattributed), n as u64));

        let overhead_pct = |with: &[f64]| (median(with) / median(&recorder_off_ns) - 1.0) * 100.0;
        samples.push(Sample::new("bench.span_overhead_pct", overhead_pct(&path_ns), n as u64));
        samples.push(Sample::new(
            "trace.recorder_on_overhead_pct",
            overhead_pct(&recorder_on_ns),
            n as u64,
        ));
        Ok(Traced { samples, spans: spans.to_vec() })
    }
}

/// Per query, the duration (children included) of its span called `name`.
fn of_duration(spans: &[Span], name: &str, n_queries: usize) -> Vec<f64> {
    let mut out = vec![0.0; n_queries];
    for span in spans.iter().filter(|s| s.name == name) {
        out[span.query] += span.duration_ns() as f64;
    }
    out
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One plan node through its `relalg::ops` entry point.
fn apply<'a>(
    kind: &OpKind,
    operand: &impl Fn(usize) -> &'a Relation,
) -> Result<Relation, RelError> {
    match kind {
        OpKind::Input { .. } => unreachable!("inputs are borrowed, not computed"),
        OpKind::Select { pred } => ops::select(operand(0), pred),
        OpKind::Project { keep } => ops::project(operand(0), keep),
        OpKind::Rekey { col } => ops::rekey(operand(0), *col),
        OpKind::Arith { body } => ops::arith_map(operand(0), body),
        OpKind::ArithExtend { body } => ops::arith_extend(operand(0), body),
        OpKind::Join => ops::join(operand(0), operand(1)),
        OpKind::ColumnJoin => ops::column_join(operand(0), operand(1)),
        OpKind::Semijoin => ops::semijoin(operand(0), operand(1)),
        OpKind::Antijoin => ops::antijoin(operand(0), operand(1)),
        OpKind::Product => ops::product(operand(0), operand(1)),
        OpKind::Union => ops::union(operand(0), operand(1)),
        OpKind::Intersect => ops::intersection(operand(0), operand(1)),
        OpKind::Difference => ops::difference(operand(0), operand(1)),
        OpKind::Aggregate { aggs } => ops::aggregate_by_key(operand(0), aggs),
        OpKind::AggregateAll { aggs } => ops::aggregate_all(operand(0), aggs),
        OpKind::Sort { by } => ops::sort(operand(0), *by),
        OpKind::Unique => ops::unique(operand(0)),
    }
}

/// The in-place variants the executor uses on an intermediate it owns.
fn apply_in_place(kind: &OpKind, rel: Relation) -> Result<Relation, RelError> {
    match kind {
        OpKind::ArithExtend { body } => ops::arith_extend_owned(rel, body),
        OpKind::Rekey { col } => ops::rekey_owned(rel, *col),
        _ => unreachable!("only ARITH+ and REKEY run in place"),
    }
}

/// The first SELECT predicate through the IR layer from outside: optimize
/// at O3, compile the body the engine really runs (the plan's own) for the
/// operand's column types, and run it over every batch on one thread.
fn probe_ir(
    rec: &mut Recorder,
    pred: &KernelBody,
    operand: &Relation,
    counts: &mut Counts,
) -> Result<(), String> {
    let optimized = rec.span("ir.optimize", |_| optimize(pred, OptLevel::O3));
    counts.instrs_o0.push(pred.instrs.len() as f64);
    counts.instrs_o3.push(optimized.instrs.len() as f64);
    let kernel = rec
        .span("ir.compile_kernel", |_| CompiledKernel::compile(pred, &operand.ir_slot_types()))
        .map_err(err)?;
    let cols = operand.ir_cols();
    kernel.check_binding(&cols).map_err(err)?;
    let mut machine = BatchMachine::new(&kernel);
    rec.span_rows("ir.batch_run", operand.len() as u64, |_| {
        for base in (0..operand.len()).step_by(BATCH_ROWS) {
            machine.run(&kernel, &cols, base, (operand.len() - base).min(BATCH_ROWS));
            black_box(machine.selection_mask(&kernel));
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{exec_config, Shape};
    use kfusion::core::exec::execute;
    use kfusion::tpch::gen::{generate, TpchConfig};
    use kfusion::tpch::{q1, q21, q6};

    /// The replayed root of Q1, Q6 and Q21 is the executor's answer, bit for
    /// bit — so per-operator times are times of the work the service does.
    #[test]
    fn operator_replay_reproduces_execute_for_q1_q6_q21() {
        let system = GpuSystem::c2070();
        let db = generate(TpchConfig::scale(0.01));
        let cases = [
            ("q1", q1::q1_plan(), q1::q1_inputs(&db)),
            ("q6", q6::q6_plan(), q6::q6_inputs(&db)),
            ("q21", q21::q21_plan(20), q21::q21_inputs(&db)),
        ];
        for (name, plan, inputs) in cases {
            let mut registry = TableRegistry::new();
            for rel in inputs {
                registry.add_relation(rel);
            }
            let config = exec_config(&system);
            let expected = execute(&system, &plan, registry.tables(), &config).unwrap().output;
            let replay = Replay {
                system: &system,
                registry: &registry,
                config,
                shapes: &[],
                n_queries: 0,
                batch: Vec::new(),
            };
            let mut rec = Recorder::new(true);
            let mut counts = Counts::default();
            let root = replay.replay_operators(&mut rec, &plan, &mut counts).unwrap();
            assert!(bit_identical(&root, &expected), "{name}: replayed root differs");
            let computed = plan.nodes.iter().filter(|n| relalg_span(&n.kind).is_some()).count();
            let relalg = rec.spans().iter().filter(|s| s.name.starts_with("relalg.")).count();
            assert_eq!(relalg, computed, "{name}: one span per computed node");
            assert_eq!(counts.instrs_o0.len(), 1, "{name}: first SELECT probed once");
        }
    }

    #[test]
    fn full_replay_measures_every_layer_it_owns() {
        let system = GpuSystem::c2070();
        let db = generate(TpchConfig::scale(0.002));
        let mut registry = TableRegistry::new();
        registry
            .add_table(
                "lineitem",
                kfusion::tpch::sql::q6_schema(),
                kfusion::tpch::sql::q6_wide_table(&db),
            )
            .unwrap();
        let shapes = [Shape::from_sql(&system, &registry, kfusion::tpch::sql::q6_sql()).unwrap()];
        let replay = Replay {
            system: &system,
            registry: &registry,
            config: exec_config(&system),
            shapes: &shapes,
            n_queries: 4,
            batch: vec![shapes[0].plan.clone()],
        };
        let traced = replay.run().unwrap();
        let get = |name: &str| traced.samples.iter().find(|s| s.name == name).unwrap();
        assert_eq!(get("frontend.parse_us").samples, 4);
        // One miss, then hits: prepare_fusion once on the path, three probes.
        assert_eq!(get("core.prepare_fusion_us").samples, 4);
        assert_eq!(get("relalg.sort_ms").samples, 0);
        assert_eq!(get("relalg.sort_ms").value, 0.0);
        assert_eq!(get("relalg.select_rows").samples, 4);
        assert!(get("relalg.select_rows").value >= db.lineitem.len() as f64);
        assert!(get("ir.instrs_o0").value >= get("ir.instrs_o3").value);
        assert!(get("vgpu.commands").value > 0.0);
        let roots = traced.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 4, "one root span per replayed query");
    }
}
