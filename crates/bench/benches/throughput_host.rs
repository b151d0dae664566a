//! Host execution-engine throughput: scalar interpreter vs vectorized
//! batch engine (`kfusion_ir::batch`).
//!
//! Unlike the fig/table benches, which report *simulated* GPU time, this
//! harness measures real host wall-clock — the first perf-trajectory
//! artifact for the functional layer. Seven cases:
//!
//! 1. `fused_q1_predicate` — rows/sec evaluating the O3-optimized Q1
//!    date-range predicate (the body inside the fused JOIN+SELECT block)
//!    over a shipdate column, single-threaded, both engines.
//! 2. `tpch_q1_functional` / `tpch_q6_functional` — wall-clock of the full
//!    functional phase (`execute`, serial strategy) with the batch engine
//!    toggled off/on. Simulated timings are engine-independent by
//!    construction; only the host clock moves.
//! 3. `recorder_overhead_disabled` — the batch inner loop with trace
//!    instrumentation (`BatchMachine::run`, whose counters short-circuit
//!    on a relaxed atomic when the recorder is off) against the bare
//!    `run_uncounted` baseline. The CI gate pins the disabled-recorder
//!    overhead below [`MAX_OVERHEAD_FRAC`].
//! 4. `steady_state_allocs` — allocations per batch on a warm batch-engine
//!    Q1 run, counted by the installed [`CountingAlloc`]: whole-run
//!    allocations in the `scalar` column, steady-state-region allocations
//!    (the per-batch loops, DESIGN.md §14) in the `batch` column. The
//!    steady state must allocate *nothing*.
//! 5. `host_fusion` — the functional phases of Q6 as SQL and of the Fig. 18
//!    Q1 plan under `Strategy::Serial` (the `scalar` column: every node
//!    materializes) against `Strategy::Fusion` (the `batch` column: fused
//!    groups exchange views, DESIGN.md §17), batch engine on both sides,
//!    plus the exact bytes each wrote through the gather primitive — and,
//!    for fused Q1 alone, those bytes against its UNIQUE's output, its
//!    SORT's host milliseconds and how many SORTs handed their AGGREGATE
//!    groups instead of rows: the filtered wide table reaches the SORT as a
//!    view, which finds its four groups and moves nothing, so the UNIQUE
//!    alone writes rows. Beside it, Q6's SELECTs under both
//!    strategies: their host milliseconds and the morsels they walk —
//!    fused, the five are one run and walk the table once.
//! 6. `tpch_q21_functional` — the Fig. 18(b) Q21 plan the same way
//!    (`Serial` in the `scalar` column, `Fusion` in the `batch` column),
//!    with the host milliseconds its SORT and its keyed AGGREGATE nodes take
//!    under `Fusion`, read off the EXPLAIN ANALYZE tree: the two barriers
//!    that do only the work their input requires (DESIGN.md §17). Lineitem
//!    is clustered on orderkey, so the two SORTs in front of the merge joins
//!    must pass their input through without copying a byte.
//!
//! Writes `BENCH_host_throughput.json` at the repo root (override with
//! `--out`) plus the standard `BENCH_host_throughput.trace.json` /
//! `.metrics.txt` artifacts, and exits nonzero on any perf-smoke gate:
//! batch slower than scalar on the predicate or Q1 functional cases, the
//! recorder overhead above its pin, a nonzero steady-state allocation
//! count, fused groups that materialize as much as the unfused plan or
//! run slower than it, fused Q6 SELECTs that walk the table more than
//! once, a fused Q1 that writes more than its UNIQUE or whose SORT does
//! not group, or an ordered SORT that copies rows.
//!
//! ```sh
//! cargo bench --bench throughput_host -- [--rows N] [--scale SF] [--out PATH]
//! ```

use kfusion_bench::time_best;
use kfusion_core::exec::{execute, ExecConfig, ExecResult, Strategy};
use kfusion_core::{OpKind, PlanGraph};
use kfusion_ir::batch::{BatchMachine, CompiledKernel, BATCH_ROWS};
use kfusion_ir::fuse::fuse_predicate_chain;
use kfusion_ir::interp::Machine;
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::{CmpOp, KernelBody, Value};
use kfusion_relalg::ops::SortBy;
use kfusion_relalg::{engine, predicates, Column, Relation};
use kfusion_tpch::gen::{generate, TpchConfig, MAX_DAY, Q1_CUTOFF_DAY};
use kfusion_tpch::{q1, q21, q6, sql};
use kfusion_trace::allocwatch;
use kfusion_trace::explain::ExplainNode;
use kfusion_vgpu::exec::DEFAULT_CTA_CHUNK;
use kfusion_vgpu::GpuSystem;

/// Every allocation in this process ticks [`allocwatch`]'s counters while
/// counting is enabled — the measurement behind `steady_state_allocs`.
#[global_allocator]
static ALLOC: allocwatch::CountingAlloc = allocwatch::CountingAlloc;

const REPS: usize = 3;

/// Reps for the cases gated on "not slower": the recorder-overhead loops
/// differ by one atomic load per batch, and at CI's small scale the fused
/// and unfused functional phases by a millisecond — more reps squeeze out
/// scheduler noise.
const OVERHEAD_REPS: usize = 7;

/// Maximum tolerated disabled-recorder overhead (fraction) on the batch
/// inner loop. Pinned by CI.
const MAX_OVERHEAD_FRAC: f64 = 0.02;

/// The Q1 date-range predicate as the fused SELECT block evaluates it:
/// fused (trivially, Q1 has one predicate) and O3-optimized.
fn fused_q1_predicate() -> KernelBody {
    let pred = predicates::col_cmp_i64(0, CmpOp::Le, Q1_CUTOFF_DAY);
    optimize(&fuse_predicate_chain(std::slice::from_ref(&pred)), OptLevel::O3)
}

/// A key + shipdate relation with the generator's date distribution.
fn shipdate_relation(rows: usize) -> Relation {
    let mut rng = kfusion_prng::Rng::seed_from_u64(0x51ED47E);
    let col = (0..rows).map(|_| rng.gen_range(0..MAX_DAY + 1)).collect();
    Relation::new((0..rows as u64).collect(), vec![Column::I64(col)]).unwrap()
}

/// Scalar engine: one `Machine`, one row at a time — exactly the per-tuple
/// loop SELECT ran before the batch engine existed.
fn scalar_count(body: &KernelBody, rel: &Relation) -> u64 {
    let mut m = Machine::for_body(body);
    let mut row: Vec<Value> = Vec::with_capacity(1 + rel.n_cols());
    let mut count = 0u64;
    for i in 0..rel.len() {
        rel.ir_inputs(i, &mut row);
        count += m.run_predicate(body, &row).expect("well-typed predicate") as u64;
    }
    count
}

/// Batch engine: compiled kernel over 1024-row batches, popcounting the
/// selection bitmask. `counted` picks the instrumented `run` (counter per
/// batch) or the bare `run_uncounted` baseline the overhead gate compares
/// against.
fn batch_count_impl(body: &KernelBody, rel: &Relation, counted: bool) -> u64 {
    let k = CompiledKernel::compile(body, &rel.ir_slot_types()).expect("predicate compiles");
    let cols = rel.ir_cols();
    let mut bm = BatchMachine::new(&k);
    let mut count = 0u64;
    let mut base = 0;
    while base < rel.len() {
        let n = (rel.len() - base).min(BATCH_ROWS);
        if counted {
            bm.run(&k, &cols, base, n);
        } else {
            bm.run_uncounted(&k, &cols, base, n);
        }
        let mask = bm.selection_mask(&k);
        for (w, &word) in mask.iter().enumerate().take(n.div_ceil(64)) {
            let lo = w * 64;
            let mut m = word;
            if n - lo < 64 {
                m &= (1u64 << (n - lo)) - 1;
            }
            count += m.count_ones() as u64;
        }
        base += n;
    }
    count
}

fn batch_count(body: &KernelBody, rel: &Relation) -> u64 {
    batch_count_impl(body, rel, true)
}

struct Case {
    name: &'static str,
    unit: &'static str,
    scalar: f64,
    batch: f64,
    speedup: f64,
}

/// Wall-clock a full functional-phase execution under both engines.
fn functional_case(
    name: &'static str,
    run: impl Fn() -> f64, // returns simulated total, for the invariance check
) -> Case {
    engine::set_batch_enabled(false);
    let (sim_scalar, t_scalar) = time_best(REPS, &run);
    engine::set_batch_enabled(true);
    let (sim_batch, t_batch) = time_best(REPS, &run);
    assert_eq!(sim_scalar, sim_batch, "{name}: engine choice changed simulated time");
    Case {
        name,
        unit: "wall_ms",
        scalar: t_scalar * 1e3,
        batch: t_batch * 1e3,
        speedup: t_scalar / t_batch,
    }
}

/// Host milliseconds of the plan nodes whose label starts with `kind`,
/// each node once however many parents the tree shows it under.
fn host_ms(tree: &ExplainNode, kind: &str) -> f64 {
    fn collect<'t>(node: &'t ExplainNode, kind: &str, seen: &mut Vec<&'t str>) -> f64 {
        let children: f64 = node.children.iter().map(|c| collect(c, kind, seen)).sum();
        if !node.label.starts_with(kind) || seen.contains(&node.label.as_str()) {
            return children;
        }
        seen.push(&node.label);
        children + node.host_seconds * 1e3
    }
    collect(tree, kind, &mut Vec::new())
}

/// Bytes written through the gather primitive so far.
fn written_bytes() -> u64 {
    kfusion_trace::snapshot().counter("kfusion_host_materialized_bytes_total")
}

/// The bytes of `plan`'s UNIQUE outputs — all a fused Q1 may write: its
/// SORT hands the AGGREGATE groups, not rows.
fn unique_bytes(plan: &PlanGraph, run: &ExecResult) -> u64 {
    let unique = |id: usize| matches!(plan.nodes[id].kind, OpKind::Unique);
    (0..plan.len()).filter(|&id| unique(id)).map(|id| run.cards.bytes(id)).sum()
}

/// The most bytes a Q21 execution may write if the SORTs over input that
/// is clustered on the key already — by key, not behind a REKEY — copy
/// nothing: every other node's whole output, except what never goes through
/// a gather (AGGREGATE and REKEY build their rows, a PROJECT only an
/// AGGREGATE reads is folded where it is).
fn q21_write_budget(plan: &PlanGraph, run: &ExecResult) -> u64 {
    let kind = |id: usize| &plan.nodes[id].kind;
    let feeds_only_aggregates = |id: usize| {
        (0..plan.len())
            .filter(|&c| plan.nodes[c].inputs.contains(&id))
            .all(|c| matches!(kind(c), OpKind::Aggregate { .. }))
    };
    let writes = |id: usize| match kind(id) {
        OpKind::Input { .. } | OpKind::Aggregate { .. } | OpKind::Rekey { .. } => false,
        OpKind::Sort { by: SortBy::Key } => {
            matches!(kind(plan.nodes[id].inputs[0]), OpKind::Rekey { .. })
        }
        OpKind::Project { .. } => !feeds_only_aggregates(id),
        _ => true,
    };
    (0..plan.len()).filter(|&id| writes(id)).map(|id| run.cards.bytes(id)).sum()
}

fn main() {
    let mut rows = 1usize << 22;
    let mut scale = 0.2f64;
    let mut out_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_host_throughput.json").to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rows" => rows = args.next().and_then(|v| v.parse().ok()).expect("--rows N"),
            "--scale" => scale = args.next().and_then(|v| v.parse().ok()).expect("--scale SF"),
            "--out" => out_path = args.next().expect("--out PATH"),
            "--bench" => {} // cargo bench appends this; ignore
            other => {
                eprintln!("unknown arg {other:?} (try --rows N, --scale SF, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    println!("== throughput_host: scalar interpreter vs batch engine ==");
    println!("predicate rows: {rows}; TPC-H scale factor: {scale}\n");
    let _trace = kfusion_bench::trace_session("host_throughput");
    let mut cases = Vec::new();

    // Case 1: the fused Q1 predicate, single-threaded rows/sec.
    let body = fused_q1_predicate();
    let rel = shipdate_relation(rows);
    let (n_scalar, t_scalar) = time_best(REPS, || scalar_count(&body, &rel));
    let (n_batch, t_batch) = time_best(REPS, || batch_count(&body, &rel));
    assert_eq!(n_scalar, n_batch, "engines disagree on selectivity");
    cases.push(Case {
        name: "fused_q1_predicate",
        unit: "rows_per_sec",
        scalar: rows as f64 / t_scalar,
        batch: rows as f64 / t_batch,
        speedup: t_scalar / t_batch,
    });

    // Cases 2–3: whole functional phases, wall-clock.
    let db = generate(TpchConfig::scale(scale));
    let sys = GpuSystem::c2070();
    let q1_plan = q1::q1_plan();
    let q1_inputs = q1::q1_inputs(&db);
    let q6_plan = q6::q6_plan();
    let q6_inputs = q6::q6_inputs(&db);
    let cfg = ExecConfig::new(Strategy::Serial, &sys);
    cases.push(functional_case("tpch_q1_functional", || {
        execute(&sys, &q1_plan, &q1_inputs, &cfg).unwrap().report.total()
    }));
    cases.push(functional_case("tpch_q6_functional", || {
        execute(&sys, &q6_plan, &q6_inputs, &cfg).unwrap().report.total()
    }));

    // Case 4: disabled-recorder overhead on the fused-Q1 predicate batch
    // loop. Collection off, so the instrumented loop pays exactly the
    // per-batch relaxed atomic load the fast path promises to keep free.
    kfusion_trace::set_enabled(false);
    let (n_base, t_base) = time_best(OVERHEAD_REPS, || batch_count_impl(&body, &rel, false));
    let (n_instr, t_instr) = time_best(OVERHEAD_REPS, || batch_count_impl(&body, &rel, true));
    kfusion_trace::set_enabled(true);
    assert_eq!(n_base, n_instr, "instrumentation changed the answer");
    let overhead = (t_instr / t_base - 1.0).max(0.0);
    cases.push(Case {
        name: "recorder_overhead_disabled",
        unit: "wall_ms",
        scalar: t_base * 1e3,
        batch: t_instr * 1e3,
        speedup: t_base / t_instr,
    });
    println!(
        "disabled-recorder overhead: {:.2}% (gate: {:.0}%)\n",
        overhead * 100.0,
        MAX_OVERHEAD_FRAC * 100.0
    );

    // Case 5: steady-state allocations per batch on a warm batch-engine Q1
    // functional phase. The first execution warms every reusable buffer
    // (scratch machines, trace counter keys, thread-local arenas); the
    // second runs with allocation counting on. Allocations inside the
    // operators' steady-state regions — the per-batch loops — must be zero;
    // whole-run allocations (per-morsel setup, output materialization) are
    // reported alongside as the denominator's context.
    engine::set_batch_enabled(true);
    execute(&sys, &q1_plan, &q1_inputs, &cfg).unwrap();
    let batches_before = kfusion_trace::snapshot().counter("kfusion_batch_batches_total");
    allocwatch::reset();
    allocwatch::set_enabled(true);
    execute(&sys, &q1_plan, &q1_inputs, &cfg).unwrap();
    allocwatch::set_enabled(false);
    let batches = kfusion_trace::snapshot().counter("kfusion_batch_batches_total") - batches_before;
    let (steady_allocs, steady_bytes) = allocwatch::region_counts();
    let (run_allocs, _) = allocwatch::total_counts();
    allocwatch::export_counters();
    assert!(batches > 0, "batch engine processed no batches");
    let run_per_batch = run_allocs as f64 / batches as f64;
    let steady_per_batch = steady_allocs as f64 / batches as f64;
    cases.push(Case {
        name: "steady_state_allocs",
        unit: "allocs_per_batch",
        scalar: run_per_batch,
        batch: steady_per_batch,
        speedup: (run_per_batch + 1.0) / (steady_per_batch + 1.0),
    });

    // Case 6: fused groups on the host. Same plans, same engine; the
    // strategy alone decides whether a group's members exchange views or
    // relations. Bytes are exact (one run each); time is the best of as
    // many reps as the other near-tie case takes.
    let q6_sql_plan = kfusion_frontend::compile(&sql::q6_sql(), &sql::q6_catalog())
        .expect("Q6 SQL compiles")
        .plan;
    let q6_table = [sql::q6_wide_table(&db)];
    let host_fusion = |strategy: Strategy| {
        let cfg = ExecConfig::new(strategy, &sys);
        let run = || {
            execute(&sys, &q6_sql_plan, &q6_table, &cfg).unwrap();
            execute(&sys, &q1_plan, &q1_inputs, &cfg).unwrap();
        };
        let before = written_bytes();
        run();
        let bytes = written_bytes() - before;
        (bytes, time_best(OVERHEAD_REPS, run).1)
    };
    let (serial_bytes, serial_secs) = host_fusion(Strategy::Serial);
    let (fused_bytes, fused_secs) = host_fusion(Strategy::Fusion);
    println!(
        "host fusion: {serial_bytes} B materialized unfused, {fused_bytes} B fused ({:.1}%)",
        100.0 * fused_bytes as f64 / serial_bytes as f64
    );
    // Q1 fused alone: the filtered wide table reaches its SORT as a view,
    // which hands the AGGREGATE its groups and moves no row; only the
    // UNIQUE writes rows.
    let (q1_run, q1_bytes, q1_grouped) = {
        let grouped = || kfusion_trace::snapshot().counter("kfusion_sort_grouped_total");
        let before = (written_bytes(), grouped());
        let run = execute(&sys, &q1_plan, &q1_inputs, &ExecConfig::new(Strategy::Fusion, &sys));
        (run.unwrap(), written_bytes() - before.0, grouped() - before.1)
    };
    let q1_budget = unique_bytes(&q1_plan, &q1_run);
    let q1_sort_ms = host_ms(&q1_run.explain, "sort#");
    println!(
        "Q1 fused: sort {q1_sort_ms:.2} ms host, {q1_grouped} grouped; {q1_bytes} B \
         materialized (UNIQUE {q1_budget} B)\n"
    );
    cases.push(Case {
        name: "host_fusion",
        unit: "wall_ms",
        scalar: serial_secs * 1e3,
        batch: fused_secs * 1e3,
        speedup: serial_secs / fused_secs,
    });
    // Q6's five SELECTs: fused they are one run, one pass of morsels over
    // the table; unfused, five passes. Host time is the best of the reps.
    let q6_selects = |strategy: Strategy| {
        let cfg = ExecConfig::new(strategy, &sys);
        let morsels = || kfusion_trace::snapshot().counter("kfusion_host_morsels_total");
        let before = morsels();
        let run = || execute(&sys, &q6_sql_plan, &q6_table, &cfg).unwrap();
        let select_ms = host_ms(&run().explain, "select#");
        let walked = morsels() - before;
        let best = (1..OVERHEAD_REPS).map(|_| host_ms(&run().explain, "select#"));
        (best.fold(select_ms, f64::min), walked)
    };
    let (q6_serial_ms, q6_serial_morsels) = q6_selects(Strategy::Serial);
    let (q6_select_ms, q6_morsels) = q6_selects(Strategy::Fusion);
    let q6_table_morsels = q6_table[0].len().div_ceil(DEFAULT_CTA_CHUNK) as u64;
    println!(
        "Q6 SELECTs: fused {q6_select_ms:.2} ms host over {q6_morsels} morsels, unfused \
         {q6_serial_ms:.2} ms over {q6_serial_morsels} (the table is {q6_table_morsels})\n"
    );

    // Case 7: Q21, whose heaviest host nodes were its barriers. Same
    // protocol as case 6; the tree is the last fused run's.
    let q21_plan = q21::q21_plan(20);
    let q21_inputs = q21::q21_inputs(&db);
    let q21_case = |strategy: Strategy| {
        let cfg = ExecConfig::new(strategy, &sys);
        let counters = || {
            let t = kfusion_trace::snapshot();
            (
                t.counter("kfusion_host_materialized_bytes_total"),
                t.counter("kfusion_sort_ordered_total"),
            )
        };
        let before = counters();
        let run = execute(&sys, &q21_plan, &q21_inputs, &cfg).unwrap();
        let after = counters();
        let secs = time_best(OVERHEAD_REPS, || execute(&sys, &q21_plan, &q21_inputs, &cfg)).1;
        (run, after.0 - before.0, after.1 - before.1, secs)
    };
    let (_, _, _, q21_serial_secs) = q21_case(Strategy::Serial);
    let (q21_run, q21_bytes, q21_ordered, q21_fused_secs) = q21_case(Strategy::Fusion);
    let q21_budget = q21_write_budget(&q21_plan, &q21_run);
    let (q21_sort_ms, q21_aggregate_ms) =
        (host_ms(&q21_run.explain, "sort#"), host_ms(&q21_run.explain, "aggregate#"));
    println!(
        "Q21 fused: sort {q21_sort_ms:.2} ms ({q21_ordered} of 4 passed through), aggregate \
         {q21_aggregate_ms:.2} ms host; {q21_bytes} B materialized (budget {q21_budget} B)\n"
    );
    cases.push(Case {
        name: "tpch_q21_functional",
        unit: "wall_ms",
        scalar: q21_serial_secs * 1e3,
        batch: q21_fused_secs * 1e3,
        speedup: q21_serial_secs / q21_fused_secs,
    });

    for c in &cases {
        println!(
            "{:24} scalar {:>14.1} {u}   batch {:>14.1} {u}   speedup {:.2}x",
            c.name,
            c.scalar,
            c.batch,
            c.speedup,
            u = c.unit
        );
    }

    let body: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"scalar\": {:.3}, \"batch\": {:.3}, \"speedup\": {:.3}}}",
                c.name, c.unit, c.scalar, c.batch, c.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"throughput_host\",\n  \"predicate_rows\": {rows},\n  \"tpch_scale\": {scale},\n  \"materialized_bytes\": {{\"serial\": {serial_bytes}, \"fusion\": {fused_bytes}}},\n  \"q6_fusion\": {{\"select_host_ms\": {q6_select_ms:.3}, \"select_host_ms_serial\": {q6_serial_ms:.3}, \"select_morsels\": {q6_morsels}, \"select_morsels_serial\": {q6_serial_morsels}, \"table_morsels\": {q6_table_morsels}}},\n  \"q1_fusion\": {{\"sort_host_ms\": {q1_sort_ms:.3}, \"sorts_grouped\": {q1_grouped}, \"materialized_bytes\": {q1_bytes}, \"barrier_bytes\": {q1_budget}}},\n  \"q21_fusion\": {{\"sort_host_ms\": {q21_sort_ms:.3}, \"aggregate_host_ms\": {q21_aggregate_ms:.3}, \"sorts_ordered\": {q21_ordered}, \"materialized_bytes\": {q21_bytes}}},\n  \"cases\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write JSON artifact");
    println!("\nwrote {out_path}");

    // CI gate: vectorization must pay for itself on the predicate case.
    let pred = &cases[0];
    if pred.batch <= pred.scalar {
        eprintln!(
            "FAIL: batch engine ({:.0} rows/s) not faster than scalar ({:.0} rows/s)",
            pred.batch, pred.scalar
        );
        std::process::exit(1);
    }
    // CI gate: the disabled recorder must stay within the pinned overhead.
    if overhead > MAX_OVERHEAD_FRAC {
        eprintln!(
            "FAIL: disabled-recorder overhead {:.2}% exceeds the {:.0}% gate ({:.3} ms instrumented vs {:.3} ms bare)",
            overhead * 100.0,
            MAX_OVERHEAD_FRAC * 100.0,
            t_instr * 1e3,
            t_base * 1e3
        );
        std::process::exit(1);
    }
    // CI gate: the batch engine must beat the scalar interpreter on the
    // whole Q1 functional phase, not just the predicate microbenchmark.
    let q1_case = cases.iter().find(|c| c.name == "tpch_q1_functional").expect("case exists");
    if q1_case.batch >= q1_case.scalar {
        eprintln!(
            "FAIL: batch Q1 functional phase ({:.1} ms) not faster than scalar ({:.1} ms)",
            q1_case.batch, q1_case.scalar
        );
        std::process::exit(1);
    }
    // CI gate: the steady state allocates nothing once warm.
    if steady_allocs != 0 {
        eprintln!(
            "FAIL: steady-state regions allocated {steady_allocs} times ({steady_bytes} bytes) \
             across {batches} batches; the per-batch loops must not allocate"
        );
        std::process::exit(1);
    }
    // CI gate: a fused group writes strictly less than its members would
    // one by one, and that must not cost time.
    if fused_bytes >= serial_bytes || fused_secs > serial_secs {
        eprintln!(
            "FAIL: fused groups materialized {fused_bytes} B in {:.1} ms, unfused {serial_bytes} B \
             in {:.1} ms; fusion must write fewer bytes and not run slower",
            fused_secs * 1e3,
            serial_secs * 1e3
        );
        std::process::exit(1);
    }
    // CI gate: fused Q6's five SELECTs read the table once.
    if q6_morsels != q6_table_morsels {
        eprintln!(
            "FAIL: fused Q6's SELECTs walked {q6_morsels} morsels, the table is \
             {q6_table_morsels}; a run of SELECTs must be one pass"
        );
        std::process::exit(1);
    }
    // CI gate: fused Q1 writes no row but its UNIQUE's — nothing in front
    // of its SORT, and the SORT, which hands its AGGREGATE groups, nothing.
    if q1_bytes > q1_budget || q1_grouped != 1 {
        eprintln!(
            "FAIL: fused Q1 materialized {q1_bytes} B, its UNIQUE {q1_budget} B, and grouped \
             {q1_grouped} SORTs (1 feeds its AGGREGATE alone); a node in front of the \
             AGGREGATE wrote rows"
        );
        std::process::exit(1);
    }
    // CI gate: a SORT whose input is in order already hands it through.
    // Q21 has two over lineitem's clustered orderkey; had either copied its
    // input, the run would have written more than every other node's output.
    if q21_ordered < 2 || q21_bytes > q21_budget {
        eprintln!(
            "FAIL: Q21 passed {q21_ordered} SORTs through (2 are over clustered input) and \
             materialized {q21_bytes} B, {q21_budget} B without them; an ordered SORT copied rows"
        );
        std::process::exit(1);
    }
}
