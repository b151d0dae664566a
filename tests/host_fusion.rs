//! Fused groups on the host, counted (DESIGN.md §17).
//!
//! The fusing strategies compute the same answers as `Strategy::Serial`
//! (`strategy_equivalence` holds that); this file holds what they are *for*:
//! the intermediates a fused group exchanges are never written. The counts
//! are exact and repeat — bytes through the one gather primitive
//! (`kfusion_host_materialized_bytes_total`), nodes that stayed views
//! (`kfusion_host_views_total`), and the high-water mark of bytes the
//! functional phase held in computed relations
//! (`kfusion_host_live_bytes_peak_total`), and bytes ARITH+, REKEY and a
//! fused group's loop write into computed columns
//! (`kfusion_host_computed_bytes_total`). The barriers are counted the
//! same way: a SORT adds the bytes it moves to the first counter and, when
//! its input was in order already, one to `kfusion_sort_ordered_total` —
//! or, when it handed a keyed AGGREGATE its rows' groups instead of moving
//! them, one to `kfusion_sort_grouped_total`.

use kfusion::core::exec::{execute, ExecConfig, ExecResult, Strategy};
use kfusion::core::{OpKind, PlanGraph};
use kfusion::frontend::compile;
use kfusion::relalg::ops::{Agg, SortBy};
use kfusion::relalg::{gen, predicates, Relation};
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::{q1, q21, sql};
use kfusion::trace::Trace;
use kfusion::vgpu::exec::DEFAULT_CTA_CHUNK;
use kfusion::vgpu::GpuSystem;

// The trace recorder is process-global; tests here take turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn traced(plan: &PlanGraph, inputs: &[Relation], strategy: Strategy) -> (ExecResult, Trace) {
    let sys = GpuSystem::c2070();
    kfusion::trace::reset();
    kfusion::trace::set_enabled(true);
    let result = execute(&sys, plan, inputs, &ExecConfig::new(strategy, &sys)).unwrap();
    kfusion::trace::set_enabled(false);
    (result, kfusion::trace::take())
}

const MATERIALIZED: &str = "kfusion_host_materialized_bytes_total";
const VIEWS: &str = "kfusion_host_views_total";
const LIVE_PEAK: &str = "kfusion_host_live_bytes_peak_total";
const SORT_ORDERED: &str = "kfusion_sort_ordered_total";
const SORT_GROUPED: &str = "kfusion_sort_grouped_total";
const MORSELS: &str = "kfusion_host_morsels_total";
const COMPUTED: &str = "kfusion_host_computed_bytes_total";

/// The members a fused group's loop runs past (DESIGN.md §17): a SELECT,
/// ARITH+ or REKEY whose one reader, in its own group, is the next member
/// of a loop — a SELECT, ARITH+ or REKEY, or a keyed AGGREGATE behind
/// ARITH+ alone. Their values stay in the loop's banks; their slots hold
/// nothing.
fn run_past(plan: &PlanGraph, group_of: &[Option<usize>]) -> Vec<usize> {
    let readers = plan.consumer_counts();
    let kind = |id: usize| &plan.nodes[id].kind;
    let member = |id: usize| {
        matches!(
            kind(id),
            OpKind::Select { .. } | OpKind::ArithExtend { .. } | OpKind::Rekey { .. }
        )
    };
    let reader = |id: usize| (0..plan.len()).find(|&c| plan.nodes[c].inputs.contains(&id));
    let arith_only = |mut id: usize| loop {
        if !matches!(kind(id), OpKind::ArithExtend { .. }) {
            return false;
        }
        match plan.nodes[id].inputs[..] {
            [p] if member(p) && readers[p] == 1 && group_of[p] == group_of[id] => id = p,
            _ => return true,
        }
    };
    (0..plan.len())
        .filter(|&id| member(id) && readers[id] == 1 && id != plan.root)
        .filter(|&id| {
            reader(id).is_some_and(|c| {
                let next =
                    member(c) || matches!(kind(c), OpKind::Aggregate { .. }) && arith_only(id);
                group_of[c] == group_of[id] && next
            })
        })
        .collect()
}

#[test]
fn fused_q6_sql_gathers_once() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.02));
    let plan = compile(&sql::q6_sql(), &sql::q6_catalog()).expect("Q6 SQL compiles").plan;
    let table = [sql::q6_wide_table(&db)];
    let (serial_run, serial_trace) = traced(&plan, &table, Strategy::Serial);
    let (fused_run, fused_trace) = traced(&plan, &table, Strategy::Fusion);
    assert!(sql::bit_identical(&serial_run.output, &fused_run.output));
    assert_eq!(serial_run.cards, fused_run.cards);

    // Unfused, every SELECT writes its survivors; fused, only the last
    // one's are gathered, for the ARITH that needs rows.
    let selects: Vec<usize> = (0..plan.len())
        .filter(|&id| matches!(plan.nodes[id].kind, OpKind::Select { .. }))
        .collect();
    let select_bytes: u64 = selects.iter().map(|&id| serial_run.cards.bytes(id)).sum();
    let last = *selects.last().expect("Q6 filters");
    assert_eq!(serial_trace.counter(MATERIALIZED), select_bytes);
    assert_eq!(fused_trace.counter(MATERIALIZED), fused_run.cards.bytes(last));
    assert!(fused_trace.counter(MATERIALIZED) * 20 <= serial_trace.counter(MATERIALIZED));
    assert_eq!(serial_trace.counter(VIEWS), 0);
    assert_eq!(fused_trace.counter(VIEWS), selects.len() as u64);
}

/// The paper's fused Q6 kernel (Fig. 6) reads each row once for all five
/// filters. Fused, Q6's SELECTs are one run and make one pass of morsels
/// over the wide table; unfused, each makes its own pass over its input.
/// (On the batch engine the SELECTs are the only Q6 operators that count
/// morsels: ARITH+, AGGREGATE* and the gather deal theirs to `par_each`.)
#[test]
fn fused_q6_selects_read_the_table_once() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.02));
    let plan = compile(&sql::q6_sql(), &sql::q6_catalog()).expect("Q6 SQL compiles").plan;
    let table = [sql::q6_wide_table(&db)];
    let (serial_run, serial_trace) = traced(&plan, &table, Strategy::Serial);
    let (fused_run, fused_trace) = traced(&plan, &table, Strategy::FusionFission { segments: 8 });
    assert!(sql::bit_identical(&serial_run.output, &fused_run.output));
    assert_eq!(serial_run.cards, fused_run.cards);

    let selects: Vec<usize> = (0..plan.len())
        .filter(|&id| matches!(plan.nodes[id].kind, OpKind::Select { .. }))
        .collect();
    assert_eq!(selects.len(), 5);
    let pass_over_input = |id: usize| {
        let rows = serial_run.cards.rows[plan.nodes[id].inputs[0]];
        rows.div_ceil(DEFAULT_CTA_CHUNK as u64)
    };
    let table_pass = pass_over_input(selects[0]);
    assert!(table_pass > 1, "the table spans several morsels");
    assert_eq!(fused_trace.counter(MORSELS), table_pass);
    assert_eq!(serial_trace.counter(MORSELS), selects.iter().map(|&id| pass_over_input(id)).sum());
}

#[test]
fn fused_q1_never_writes_its_column_joins() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.02));
    let (plan, inputs) = (q1::q1_plan(), q1::q1_inputs(&db));
    let (serial_run, serial_trace) = traced(&plan, &inputs, Strategy::Serial);
    let (fused_run, fused_trace) = traced(&plan, &inputs, Strategy::FusionFission { segments: 8 });
    assert!(sql::bit_identical(&serial_run.output, &fused_run.output));
    assert_eq!(serial_run.cards, fused_run.cards);

    let cards = &fused_run.cards;
    let is = |id: usize, kind: fn(&OpKind) -> bool| kind(&plan.nodes[id].kind);
    let bytes_of = |kind: fn(&OpKind) -> bool| -> u64 {
        (0..plan.len()).filter(|&id| is(id, kind)).map(|id| cards.bytes(id)).sum()
    };
    let joins = |k: &OpKind| matches!(k, OpKind::ColumnJoin);
    assert_eq!((0..plan.len()).filter(|&id| is(id, joins)).count(), 6);
    let (join_bytes, select_bytes) =
        (bytes_of(joins), bytes_of(|k| matches!(k, OpKind::Select { .. })));
    let barrier_bytes = bytes_of(|k| matches!(k, OpKind::Sort { .. } | OpKind::Unique));
    let (sort_bytes, unique_bytes) =
        (bytes_of(|k| matches!(k, OpKind::Sort { .. })), bytes_of(|k| matches!(k, OpKind::Unique)));
    // Unfused, the six joins, the SELECT and the two barriers write their
    // rows; ARITH+ and REKEY move the relation they are handed and write
    // only their new columns. Fused, the filtered wide table reaches the
    // SORT as a view, and the SORT — whose rows only the AGGREGATE reads,
    // through the money ARITH+ — finds their four groups instead of moving
    // them: the AGGREGATE folds them where they are, and UNIQUE alone
    // writes rows.
    assert_eq!(serial_trace.counter(MATERIALIZED), join_bytes + select_bytes + barrier_bytes);
    assert_eq!(fused_trace.counter(MATERIALIZED), unique_bytes);
    assert_eq!(
        serial_trace.counter(MATERIALIZED) - fused_trace.counter(MATERIALIZED),
        join_bytes + select_bytes + sort_bytes,
        "fusion saves exactly the six wide intermediates, the filtered table and its sorted copy"
    );
    assert_eq!((serial_trace.counter(SORT_GROUPED), fused_trace.counter(SORT_GROUPED)), (0, 1));
    // The six joins, the REKEY in front of the SORT and the grouped SORT
    // stay views. The SELECT and the pack ARITH+ (one loop, with the
    // REKEY) and the money ARITH+ (one loop, with the AGGREGATE) hold
    // nothing: their values stay in the loops' banks.
    let past = run_past(&plan, &fused_run.fusion.group_of);
    let names: Vec<&str> = past.iter().map(|&id| plan.nodes[id].kind.name()).collect();
    assert_eq!(names, ["SELECT", "ARITH+", "ARITH+"]);
    let fused_views = (0..plan.len()).filter(|&id| {
        let kind = &plan.nodes[id].kind;
        let view = matches!(
            kind,
            OpKind::ColumnJoin
                | OpKind::Select { .. }
                | OpKind::ArithExtend { .. }
                | OpKind::Rekey { .. }
        );
        let grouped = matches!(kind, OpKind::Sort { .. });
        (view || grouped) && !past.contains(&id)
    });
    assert_eq!(fused_views.count(), 8);
    assert_eq!(fused_trace.counter(VIEWS), 8);

    // A relation is dropped after its last consumer, so the functional
    // phase never holds what a keep-everything executor would — under
    // either strategy — and fused it holds less still.
    let all_outputs: u64 = (0..plan.len())
        .filter(|&id| !plan.nodes[id].kind.is_input())
        .map(|id| cards.bytes(id))
        .sum();
    let (serial_peak, fused_peak) =
        (serial_trace.counter(LIVE_PEAK), fused_trace.counter(LIVE_PEAK));
    assert!(fused_peak > 0 && fused_peak < serial_peak, "{fused_peak} vs {serial_peak}");
    assert!(serial_peak < all_outputs, "{serial_peak} vs {all_outputs}");
    assert!(fused_peak * 4 < all_outputs, "{fused_peak} vs {all_outputs}");
    // Nor, fused, as many as the sorted table alone would be: those rows
    // are never held.
    assert!(fused_peak < sort_bytes, "{fused_peak} vs {sort_bytes}");
    // Exactly: the key the first loop writes — one per lineitem row, the
    // REKEY's, which the grouped SORT and the second loop read where it is
    // — and, while the second loop's caller still lends it, the groups
    // it folded.
    let aggregate =
        (0..plan.len()).find(|&id| matches!(plan.nodes[id].kind, OpKind::Aggregate { .. }));
    let key_bytes = 8 * inputs[0].len() as u64;
    assert_eq!(fused_peak, key_bytes + cards.bytes(aggregate.expect("Q1 aggregates")));
}

/// The paper's fused kernel keeps its intermediates in registers (§III-C,
/// Fig. 7(c)). Fused, Q1's two groups run as two loops: the pack value and
/// the two money values stay in batch banks, and the only computed column
/// written is the key the first loop hands the SORT — 8 bytes per lineitem
/// row, no f64 column. Unfused, every ARITH+ writes its columns and the
/// REKEY its key, at the length of the relation each is handed.
#[test]
fn fused_q1_writes_one_key_per_lineitem_row() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.02));
    let (plan, inputs) = (q1::q1_plan(), q1::q1_inputs(&db));
    let (serial_run, serial_trace) = traced(&plan, &inputs, Strategy::Serial);
    let (fused_run, fused_trace) = traced(&plan, &inputs, Strategy::FusionFission { segments: 8 });
    assert!(sql::bit_identical(&serial_run.output, &fused_run.output));
    assert_eq!(serial_run.cards, fused_run.cards);

    let lineitem_rows = db.lineitem.len() as u64;
    assert_eq!(fused_trace.counter(COMPUTED), 8 * lineitem_rows);
    // Unfused: rows handed in times the bytes per row each node adds — the
    // ARITH+ outputs — or, for REKEY, one key per row.
    let cards = &serial_run.cards;
    let written = |id: usize| {
        let rows = |input: usize| cards.rows[input];
        let added = |input: usize| (cards.row_bytes[id] - cards.row_bytes[input]) as u64;
        match (&plan.nodes[id].kind, &plan.nodes[id].inputs[..]) {
            (OpKind::ArithExtend { .. }, &[input]) => rows(input) * added(input),
            (OpKind::Rekey { .. }, &[input]) => rows(input) * 8,
            _ => 0,
        }
    };
    let serial_bytes: u64 = (0..plan.len()).map(written).sum();
    assert_eq!(serial_trace.counter(COMPUTED), serial_bytes);
    // Pack (8 bytes), key (8) and money (16) per kept row, unfused.
    let kept = cards.rows
        [(0..plan.len()).find(|&id| matches!(plan.nodes[id].kind, OpKind::Select { .. })).unwrap()];
    assert_eq!(serial_bytes, 32 * kept);
}

#[test]
fn q21_barriers_move_only_what_is_out_of_place() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.02));
    let (plan, inputs) = (q21::q21_plan(20), q21::q21_inputs(&db));
    let (serial_run, serial_trace) = traced(&plan, &inputs, Strategy::Serial);
    let (fused_run, fused_trace) = traced(&plan, &inputs, Strategy::FusionFission { segments: 8 });
    assert!(sql::bit_identical(&serial_run.output, &fused_run.output));
    assert_eq!(serial_run.cards, fused_run.cards);

    let cards = &fused_run.cards;
    let kind = |id: usize| &plan.nodes[id].kind;
    let feeds = |id: usize| kind(plan.nodes[id].inputs[0]);
    let bytes_of = |pick: &dyn Fn(usize) -> bool| -> u64 {
        (0..plan.len()).filter(|&id| pick(id)).map(|id| cards.bytes(id)).sum()
    };
    // Lineitem is clustered on orderkey and SELECT / SEMIJOIN keep row
    // order, so the two SORTs Fig. 17(b) puts in front of the merge joins
    // find nothing to do, under either strategy: their single-consumer
    // inputs are handed through, not a byte copied. The SORT behind REKEY
    // does reorder its rows; so does the final one by waiting count, unless
    // the counts happen to rise with the supplier keys UNIQUE hands it —
    // which the answer shows.
    let by_key = |id: usize| matches!(kind(id), OpKind::Sort { by: SortBy::Key });
    let clustered = |id: usize| by_key(id) && !matches!(feeds(id), OpKind::Rekey { .. });
    assert_eq!((0..plan.len()).filter(|&id| clustered(id)).count(), 2);
    let in_order =
        |id: usize| clustered(id) || (id == plan.root && fused_run.output.is_key_sorted());
    let reorders = |id: usize| matches!(kind(id), OpKind::Sort { .. }) && !in_order(id);
    let passed_through = (0..plan.len()).filter(|&id| in_order(id)).count() as u64;
    assert_eq!(serial_trace.counter(SORT_ORDERED), passed_through);
    assert_eq!(fused_trace.counter(SORT_ORDERED), passed_through);
    // No SORT finds groups instead: each has a join or a second reader.
    assert_eq!((serial_trace.counter(SORT_GROUPED), fused_trace.counter(SORT_GROUPED)), (0, 0));

    // What does write rows unfused: every SELECT, SEMIJOIN / ANTIJOIN and
    // UNIQUE through the gather, the SORTs that reorder, and the PROJECTs.
    let filters = |id: usize| {
        matches!(
            kind(id),
            OpKind::Select { .. } | OpKind::Semijoin | OpKind::Antijoin | OpKind::Unique
        )
    };
    let project = |id: usize| matches!(kind(id), OpKind::Project { .. });
    let aggregated = |id: usize| {
        project(id)
            && (0..plan.len()).all(|c| {
                !plan.nodes[c].inputs.contains(&id) || matches!(kind(c), OpKind::Aggregate { .. })
            })
    };
    assert_eq!((0..plan.len()).filter(|&id| aggregated(id)).count(), 2);
    // Unfused, a PROJECT that is the only reader of a computed relation is
    // handed it and moves the columns it keeps instead of copying them.
    let readers = plan.consumer_counts();
    let alone = |id: usize| {
        let p = || plan.nodes[id].inputs[0];
        project(id) && !kind(p()).is_input() && readers[p()] == 1
    };
    assert_eq!((0..plan.len()).filter(|&id| alone(id)).count(), 1);
    let reordered = bytes_of(&reorders);
    assert_eq!(
        serial_trace.counter(MATERIALIZED),
        bytes_of(&filters) + reordered + bytes_of(&|id| project(id) && !alone(id))
    );

    // Fused, a SELECT, SEMIJOIN or ANTIJOIN in a group with others narrows
    // a view; a PROJECT rearranges one; and a SORT that finds such a view
    // in order hands it on. No row is written until a reader needs them
    // stored or dense: each keyed AGGREGATE and the REKEY (its few rows
    // widened where they are would be more bytes than gathered) reading a
    // filtered view — the late lineitems' PROJECT (#12), the last SEMIJOIN
    // (#20) and the PROJECT behind the ANTIJOIN (#16). The SELECTs alone in
    // their groups, UNIQUE and the SORTs that reorder write theirs as
    // unfused.
    let group_of = &fused_run.fusion.group_of;
    let alone_in_group = |id: usize| {
        let g = group_of[id].expect("an operator has a group");
        group_of.iter().filter(|&&h| h == Some(g)).count() == 1
    };
    let mut filtered = vec![false; plan.len()];
    for id in 0..plan.len() {
        let input = || filtered[plan.nodes[id].inputs[0]];
        filtered[id] = match kind(id) {
            OpKind::Select { .. } | OpKind::Semijoin | OpKind::Antijoin => !alone_in_group(id),
            OpKind::Project { .. } => input(),
            OpKind::Sort { .. } => in_order(id) && id != plan.root && input(),
            _ => false,
        };
    }
    let needs_dense = |c: usize| matches!(kind(c), OpKind::Aggregate { .. } | OpKind::Rekey { .. });
    let forced = |id: usize| {
        filtered[id]
            && (0..plan.len()).any(|c| plan.nodes[c].inputs.contains(&id) && needs_dense(c))
    };
    let forced_ids: Vec<usize> = (0..plan.len()).filter(|&id| forced(id)).collect();
    assert_eq!(forced_ids.len(), 3, "{forced_ids:?}");
    let stored_filters = |id: usize| filters(id) && !filtered[id];
    assert_eq!(
        fused_trace.counter(MATERIALIZED),
        bytes_of(&stored_filters) + bytes_of(&forced) + reordered
    );
    // Every SEMIJOIN / ANTIJOIN, the two ordered SORTs, the SELECTs in
    // groups of more and the PROJECTs stay views — the forced ones too: a
    // node counts as one when its slot fills.
    let views = (0..plan.len()).filter(|&id| filtered[id] || project(id)).count() as u64;
    assert_eq!(views, 11);
    assert_eq!(fused_trace.counter(VIEWS), views);
    assert_eq!(serial_trace.counter(VIEWS), 0);
}

/// A view a reader cannot use where it is gets gathered before the reader
/// runs — and that time is the view's: its node's host seconds cover the
/// `materialize#` span, while the reader's stay inside its own evaluation
/// span. (Nested timers, so the test holds on any machine.)
#[test]
fn a_forced_gather_is_booked_to_the_view_it_gathers() {
    let _g = serial();
    // One group: the SELECT stays a view, and the keyed AGGREGATE, which
    // folds runs of base rows, has it gathered first.
    let mut g = PlanGraph::new();
    let input = g.input(0);
    let pred = predicates::col_cmp_i64(0, kfusion::ir::CmpOp::Lt, 0);
    let kept = g.add(OpKind::Select { pred }, vec![input]);
    let folded = g.add(OpKind::Aggregate { aggs: vec![Agg::Count, Agg::Sum(1)] }, vec![kept]);
    let (run, trace) = traced(&g, &[gen::sorted_table(300_000, 2, 4)], Strategy::Fusion);
    assert_eq!(run.fusion.group_of[kept], run.fusion.group_of[folded]);
    let span = |name: &str| {
        let found = trace.spans.iter().find(|s| s.name == name);
        found.unwrap_or_else(|| panic!("no {name} span")).duration()
    };
    let host = |label: &str| {
        let (root, select) = (&run.explain, &run.explain.children[0]);
        [root, select].into_iter().find(|n| n.label == label).expect(label).host_seconds
    };
    let (view, reader) = (format!("select#{kept}"), format!("aggregate#{folded}"));
    assert!(host(&view) >= span(&format!("materialize#{kept}")), "{}", run.explain.render());
    assert!(host(&reader) <= span(&reader), "{}", run.explain.render());
}

/// Keyed AGGREGATE folds runs of base rows, so a filtered view is gathered
/// for it — once, into the view's slot: the JOIN that reads the same SELECT
/// a wave later finds those rows there and gathers nothing again. The JOIN
/// writes its own rows through the same gather, under either strategy.
#[test]
fn a_filtered_view_under_an_aggregate_is_gathered_once() {
    let _g = serial();
    let select = |t: u64| OpKind::Select { pred: predicates::key_lt(t) };
    let mut g = PlanGraph::new();
    let (left, right) = (g.input(0), g.input(1));
    let kept = g.add(select(5000), vec![left]);
    let most = g.add(select(8000), vec![right]);
    let fewer = g.add(select(7000), vec![most]);
    let joined = g.add(OpKind::Join, vec![kept, fewer]);
    g.add(OpKind::Aggregate { aggs: vec![Agg::Count] }, vec![kept]);
    let inputs = [gen::sorted_table(10_000, 2, 1), gen::sorted_table(10_000, 1, 2)];
    let (serial_run, serial_trace) = traced(&g, &inputs, Strategy::Serial);
    let (fused_run, fused_trace) = traced(&g, &inputs, Strategy::Fusion);
    assert_eq!(serial_run.output, fused_run.output);
    assert_eq!(serial_run.cards, fused_run.cards);
    assert_eq!(fused_run.fusion.groups.len(), 1, "{:?}", fused_run.fusion.groups);

    // Fused, the three SELECTs stay views; the AGGREGATE (second wave)
    // and the JOIN (third) both read `kept`, and the JOIN `fewer`.
    let cards = &fused_run.cards;
    assert_eq!(fused_trace.counter(VIEWS), 3);
    assert_eq!(
        fused_trace.counter(MATERIALIZED),
        cards.bytes(kept) + cards.bytes(fewer) + cards.bytes(joined)
    );
    assert_eq!(
        serial_trace.counter(MATERIALIZED),
        cards.bytes(kept) + cards.bytes(most) + cards.bytes(fewer) + cards.bytes(joined)
    );
}

/// Every parallel step runs on one process-wide pool (DESIGN.md §9): once
/// warm, the executor starts no thread. After a run each of Q6, Q1 and
/// Q21 the pool holds its `workers() − 1` threads, and a second round
/// starts none — nor does the counter that mirrors the spawns move.
#[test]
fn warm_queries_start_no_thread() {
    let _g = serial();
    let db = generate(TpchConfig::scale(0.01));
    let q6 = compile(&sql::q6_sql(), &sql::q6_catalog()).expect("Q6 SQL compiles").plan;
    let queries = [
        (q6, vec![sql::q6_wide_table(&db)]),
        (q1::q1_plan(), q1::q1_inputs(&db)),
        (q21::q21_plan(20), q21::q21_inputs(&db)),
    ];
    let strategy = Strategy::FusionFission { segments: 8 };
    for (plan, inputs) in &queries {
        traced(plan, inputs, strategy);
    }
    let pool = kfusion::vgpu::exec::workers() - 1;
    assert_eq!(kfusion::vgpu::exec::threads_spawned(), pool);
    for (plan, inputs) in &queries {
        let (_, trace) = traced(plan, inputs, strategy);
        assert_eq!(trace.counter("kfusion_host_threads_spawned_total"), 0);
    }
    assert_eq!(kfusion::vgpu::exec::threads_spawned(), pool);
}
