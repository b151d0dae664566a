//! `ops::group_loop_view` against the members' own operators: one loop per
//! fusion group gives every member it covers what that member's operator
//! gives — a member it runs past its size, the last covered its tuples, a
//! failing member its error — and covers exactly the prefix of a chain it
//! can run as those operators would (DESIGN.md §17).
use kfusion_ir::builder::{BodyBuilder, Expr};
use kfusion_ir::{CmpOp, KernelBody};
use kfusion_relalg::ops::{self, group_loop_view, Agg, Member, Stage};
use kfusion_relalg::{engine, materialize, predicates, Column, RelError, Relation, View};
use kfusion_vgpu::exec::DEFAULT_CTA_CHUNK;

// The engine toggle is process-global; tests here take turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// One member over `input` by its own operator.
fn alone<'a>(input: &View<'a>, member: Member<'_>) -> Result<Stage<'a>, RelError> {
    Ok(match member {
        Member::Select(pred) => Stage::View(ops::select_view(input, pred)?),
        Member::ArithExtend(body) => Stage::View(ops::arith_extend_view(input, body)?),
        Member::Rekey(col) => Stage::View(ops::rekey_view(input, col)?),
        Member::Aggregate(aggs) => Stage::Folded(ops::aggregate_by_key_view(input, aggs)?),
    })
}

/// Sorted keys with duplicates; an i64 column, a non-negative i64
/// column and an f64 column.
fn table(n: usize) -> Relation {
    Relation::new(
        (0..n as u64).map(|i| i / 3).collect(),
        vec![
            Column::I64((0..n as i64).map(|i| i % 101 - 50).collect()),
            Column::I64((0..n as i64).map(|i| i * 7 % 40).collect()),
            Column::F64((0..n).map(|i| (i % 89) as f64 * 0.37 - 3.0).collect()),
        ],
    )
    .unwrap()
}

fn body(out: Expr, slots: u32) -> KernelBody {
    let mut b = BodyBuilder::new(slots);
    b.emit_output(out);
    b.build()
}

/// What the members' own operators give, member by member: each
/// output's size, and the last one's tuples.
fn by_operators<'a>(input: &View<'a>, members: &[Member<'_>]) -> Vec<Result<Stage<'a>, RelError>> {
    let mut out = Vec::new();
    let mut cur: Option<View<'_>> = Some(input.clone());
    for &member in members {
        let Some(from) = cur.take() else { break };
        match alone(&from, member) {
            Ok(Stage::View(v)) => {
                out.push(Ok(Stage::Passed { rows: v.len(), row_bytes: v.row_bytes() }));
                cur = Some(v);
            }
            Ok(stage) => out.push(Ok(stage)),
            Err(e) => out.push(Err(e)),
        }
    }
    out
}

/// The loop's results equal the operators' for every member it covers —
/// a member it runs past has its operator's size, the last one covered
/// its tuples — and it covers `covered` members.
#[track_caller]
fn assert_as_operators(input: &View<'_>, members: &[Member<'_>], covered: usize) {
    let got = group_loop_view(input, members);
    let want = by_operators(input, members);
    assert_eq!(got.len(), covered, "{members:?}");
    for (m, (got, want)) in got.into_iter().zip(&want).enumerate() {
        match (got, want) {
            (
                Ok(Stage::Passed { rows, row_bytes }),
                Ok(Stage::Passed { rows: r, row_bytes: b }),
            ) => {
                assert_eq!((rows, row_bytes), (*r, *b), "member {m}")
            }
            (Ok(Stage::View(v)), Ok(Stage::Passed { rows, row_bytes })) => {
                assert_eq!((v.len(), v.row_bytes()), (*rows, *row_bytes), "member {m}");
                let mut ops = input.clone();
                for &member in &members[..=m] {
                    let Ok(Stage::View(next)) = alone(&ops, member) else { unreachable!() };
                    ops = next;
                }
                assert_eq!(materialize(v), materialize(ops), "member {m}");
            }
            (Ok(Stage::Folded(g)), Ok(Stage::Folded(w))) => assert_eq!(&g, w, "member {m}"),
            (Err(g), Err(w)) => assert_eq!(&g, w, "member {m}"),
            (got, want) => panic!("member {m}: {got:?} vs {want:?}"),
        }
    }
}

#[test]
fn a_loop_gives_each_member_what_its_operator_does() {
    let _g = serial();
    let n = 3 * DEFAULT_CTA_CHUNK + 1_234;
    let t = table(n);
    let keep = predicates::col_cmp_i64(0, CmpOp::Lt, 30);
    let pack = body(Expr::input(2).mul(Expr::lit(8i64)).add(Expr::lit(1i64)), 4);
    let money = body(Expr::input(3).mul(Expr::lit(0.5f64)), 4);
    let aggs = [Agg::Sum(3), Agg::Avg(2), Agg::Sum(2), Agg::Min(3), Agg::Count];
    let walk = [Member::Select(&keep), Member::ArithExtend(&pack), Member::Rekey(3)];
    assert_as_operators(&View::of(&t), &walk, 3);
    // Folded over runs of the sorted table, and by the groups a SORT
    // found in the rekeyed one.
    let fold = [Member::ArithExtend(&money), Member::Aggregate(&aggs)];
    assert_as_operators(&View::of(&t), &fold, 2);
    let Ok(Stage::View(rekeyed)) = group_loop_view(&View::of(&t), &walk).pop().unwrap() else {
        panic!("the walk ends in a view")
    };
    let grouped = ops::group_by_key_view(&rekeyed).unwrap();
    assert!(grouped.is_grouped());
    assert_as_operators(&grouped, &fold, 2);
}

/// Where the loop cannot run a chain as its members' operators would,
/// it runs the longest prefix it can: a last member holding an ARITH+
/// column, a second REKEY, an AGGREGATE over a filtered view without
/// groups or behind a SELECT, a body the batch engine declines, the
/// scalar engine — and SELECTs alone are a run of views.
#[test]
fn a_chain_the_loop_cannot_run_whole_is_cut() {
    let _g = serial();
    let t = table(5_000);
    let v = View::of(&t);
    let keep = predicates::col_cmp_i64(0, CmpOp::Lt, 30);
    let fewer = predicates::key_lt(1_000);
    let pack = body(Expr::input(2).mul(Expr::lit(8i64)), 4);
    let aggs = [Agg::Sum(1), Agg::Count];
    let declined = predicates::col_cmp_f64(0, CmpOp::Lt, 0.5);
    assert_as_operators(&v, &[Member::Select(&keep), Member::ArithExtend(&pack)], 1);
    assert_as_operators(&v, &[Member::Select(&keep), Member::Select(&fewer)], 2);
    let two_rekeys = [Member::ArithExtend(&pack), Member::Rekey(3), Member::Rekey(0)];
    assert_as_operators(&v, &two_rekeys, 2);
    let filtered = ops::select_view(&v, &keep).unwrap();
    assert_as_operators(&filtered, &[Member::ArithExtend(&pack), Member::Aggregate(&aggs)], 1);
    assert_as_operators(&v, &[Member::Select(&keep), Member::Aggregate(&aggs)], 1);
    assert_as_operators(&v, &[Member::Select(&declined), Member::Rekey(1)], 1);
    engine::set_batch_enabled(false);
    assert_as_operators(&v, &[Member::Select(&keep), Member::Rekey(1)], 1);
    engine::set_batch_enabled(true);
}

/// A REKEY's negative key fails it — not the members before it — where
/// the chain's SELECT keeps the row; and an AGGREGATE over unsorted runs
/// fails with its operator's error.
#[test]
fn a_members_error_is_its_own() {
    let _g = serial();
    let t = table(5_000);
    let v = View::of(&t);
    let all = predicates::key_lt(1 << 40);
    let shift = body(Expr::input(1).add(Expr::lit(40i64)), 4);
    let chain = [Member::Select(&all), Member::ArithExtend(&shift), Member::Rekey(3)];
    assert_as_operators(&v, &chain, 3);
    let below = body(Expr::input(1).sub(Expr::lit(40i64)), 4);
    let chain = [Member::Select(&all), Member::ArithExtend(&below), Member::Rekey(3)];
    let got = group_loop_view(&v, &chain);
    assert!(matches!(got[2], Err(RelError::SchemaMismatch)));
    assert_as_operators(&v, &chain, 3);
    let unsorted = ops::rekey_view(&v, 1).unwrap();
    let aggs = [Agg::Count];
    assert_as_operators(&unsorted, &[Member::ArithExtend(&shift), Member::Aggregate(&aggs)], 2);
}
