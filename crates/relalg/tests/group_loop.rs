//! `ops::group_loop_view` against the members' own operators: one loop per
//! fusion group gives every member it covers what that member's operator
//! gives — a member it runs past its size, the last covered its tuples, a
//! failing member its error — and covers exactly the prefix of a chain it
//! can run as those operators would (DESIGN.md §17). A lone SELECT, ARITH+
//! or REKEY is itself the one-member loop, so ARITH+, ARITH and REKEY — and
//! chains of them without a SELECT — are also held to an oracle that runs
//! no loop: the interpreter (the batch engine off) and a REKEY by hand,
//! over the gathered rows.
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
        Member::AggregateAll(aggs) => Stage::Folded(ops::aggregate_all_view(input, aggs)?),
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
    // Folded over runs of the sorted table, dense and filtered, and by the
    // groups a SORT found in the rekeyed one.
    let fold = [Member::ArithExtend(&money), Member::Aggregate(&aggs)];
    assert_as_operators(&View::of(&t), &fold, 2);
    assert_as_operators(&ops::select_view(&View::of(&t), &keep).unwrap(), &fold, 2);
    let Ok(Stage::View(rekeyed)) = group_loop_view(&View::of(&t), &walk).pop().unwrap() else {
        panic!("the walk ends in a view")
    };
    let grouped = ops::group_by_key_view(&rekeyed).unwrap();
    assert!(grouped.is_grouped());
    assert_as_operators(&grouped, &fold, 2);
}

/// SELECTs, then ARITH+ members, then an AGGREGATE* — the paper's fused
/// Q6 kernel (Fig. 6) — are one loop: the SELECTs and ARITH+ passed with
/// their operators' sizes, the AGGREGATE* folding only the rows the
/// SELECTs keep, bit for bit what its operator gives — over a dense and a
/// filtered input, across several morsels, through a SELECT that keeps
/// nothing, an aggregate of an input column no body reads and one of a
/// column no SELECT reads.
#[test]
fn a_select_fold_is_one_loop() {
    let _g = serial();
    let t = table(3 * DEFAULT_CTA_CHUNK + 1_234);
    let keep = predicates::col_cmp_i64(0, CmpOp::Lt, -40);
    let small = predicates::col_cmp_i64(1, CmpOp::Lt, 25);
    let none = predicates::key_lt(0);
    let money =
        body(Expr::input(3).mul(Expr::input(2).add(Expr::lit(1i64)).cast(kfusion_ir::Ty::F64)), 4);
    let aggs = [Agg::Sum(3), Agg::Avg(1), Agg::Min(2), Agg::Max(3), Agg::Count, Agg::Avg(3)];
    let plain = [Agg::Sum(2), Agg::Avg(1), Agg::Min(0), Agg::Max(2), Agg::Count];
    let [dense, filtered] = dense_and_filtered(&t);
    for input in [&dense, &filtered] {
        for (chain, aggs) in [
            (
                &[Member::Select(&keep), Member::Select(&small), Member::ArithExtend(&money)][..],
                &aggs[..],
            ),
            (&[Member::Select(&keep), Member::ArithExtend(&money)][..], &aggs[..]),
            (
                &[Member::Select(&keep), Member::Select(&none), Member::ArithExtend(&money)][..],
                &aggs[..],
            ),
            (&[Member::Select(&small)][..], &plain[..]),
        ] {
            let chain = [chain, &[Member::AggregateAll(aggs)]].concat();
            assert_as_operators(input, &chain, chain.len());
            let stages = group_loop_view(input, &chain);
            let (last, passed) = stages.split_last().unwrap();
            assert!(passed.iter().all(|s| matches!(s, Ok(Stage::Passed { .. }))), "{stages:?}");
            assert!(matches!(last, Ok(Stage::Folded(_))), "{last:?}");
        }
    }
}

/// Where the loop cannot run a chain as its members' operators would,
/// it runs the longest prefix it can: a chain that selects ending in a
/// member that holds an ARITH+ column, a second REKEY, an AGGREGATE behind
/// a SELECT, an AGGREGATE* behind a REKEY or behind a SELECT that follows
/// an ARITH+, a body the batch engine declines, the scalar engine. SELECTs
/// alone it runs whole, the first one passed.
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
    let selects = [Member::Select(&keep), Member::Select(&fewer)];
    assert_as_operators(&v, &selects, 2);
    assert!(matches!(group_loop_view(&v, &selects)[0], Ok(Stage::Passed { .. })));
    let two_rekeys = [Member::ArithExtend(&pack), Member::Rekey(3), Member::Rekey(0)];
    assert_as_operators(&v, &two_rekeys, 2);
    assert_as_operators(&v, &[Member::Select(&keep), Member::Aggregate(&aggs)], 1);
    let all = Member::AggregateAll(&aggs);
    assert_as_operators(&v, &[Member::Select(&keep), Member::Rekey(1), all], 2);
    let late = [Member::Select(&keep), Member::ArithExtend(&pack), Member::Select(&fewer), all];
    assert_as_operators(&v, &late, 1);
    assert_as_operators(&v, &[Member::Select(&declined), all], 1);
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

/// Every member of a loop but the last covered is passed.
#[track_caller]
fn assert_passed_but_last(stages: &[Result<Stage<'_>, RelError>]) {
    let (last, passed) = stages.split_last().expect("a loop covers its head");
    assert!(passed.iter().all(|s| matches!(s, Ok(Stage::Passed { .. }))), "{stages:?}");
    assert!(matches!(last, Ok(Stage::View(_))), "{last:?}");
}

/// A chain of SELECTs alone — the paper's fused Q6 kernel (Fig. 6) — is
/// one loop over several morsels, each member what its operator gives:
/// over a dense input and a filtered one, through a stage that keeps
/// nothing, cut at a predicate the batch engine declines, and member by
/// member on the scalar engine.
#[test]
fn a_run_of_selects_is_one_loop() {
    let _g = serial();
    let t = table(3 * DEFAULT_CTA_CHUNK + 1_234);
    let dense = View::of(&t);
    let keep = predicates::col_cmp_i64(0, CmpOp::Lt, 30);
    let small = predicates::col_cmp_i64(1, CmpOp::Lt, 25);
    let wide = predicates::col_cmp_f64(2, CmpOp::Gt, -2.0);
    let none = predicates::key_lt(0);
    let declined = predicates::col_cmp_f64(0, CmpOp::Lt, 0.5);
    let run = [Member::Select(&keep), Member::Select(&small), Member::Select(&wide)];
    let filtered = ops::select_view(&dense, &predicates::key_lt(60_000)).unwrap();
    assert!(filtered.len() < dense.len());
    for input in [&dense, &filtered] {
        assert_as_operators(input, &run, 3);
        assert_passed_but_last(&group_loop_view(input, &run));
    }
    let emptied = [Member::Select(&keep), Member::Select(&none), Member::Select(&wide)];
    assert_as_operators(&dense, &emptied, 3);
    let stages = group_loop_view(&dense, &emptied);
    assert!(matches!(stages[1], Ok(Stage::Passed { rows: 0, .. })));
    let cut = [Member::Select(&keep), Member::Select(&small), Member::Select(&declined)];
    assert_as_operators(&dense, &cut, 2);
    assert_passed_but_last(&group_loop_view(&dense, &cut));
    engine::set_batch_enabled(false);
    assert_as_operators(&dense, &run, 1);
    engine::set_batch_enabled(true);
}

/// The fused shape: each SELECT of a run narrows the one before's
/// selection over the same base rows, and one gather of the last
/// reproduces the chain of materializing SELECTs, across morsel and batch
/// boundaries and through a batch none of whose rows survived upstream.
#[test]
fn a_run_of_selects_gathers_what_the_materializing_chain_does() {
    let _g = serial();
    let n = 2 * DEFAULT_CTA_CHUNK as u64 + 4321;
    let keys: Vec<u64> = (0..n).map(|k| k.wrapping_mul(2654435761) % 1000).collect();
    let hole = |i: u64| (70_000..75_000).contains(&i);
    let col: Vec<i64> = (0..n).map(|i| if hole(i) { -1 } else { (i % 97) as i64 }).collect();
    let r = Relation::new(keys, vec![Column::I64(col)]).unwrap();
    let preds = [
        predicates::col_cmp_i64(0, CmpOp::Ge, 0),
        predicates::key_lt(600),
        predicates::col_cmp_i64(0, CmpOp::Lt, 50),
    ];
    let run: Vec<Member<'_>> = preds.iter().map(Member::Select).collect();
    let mut stored = r.clone();
    for (m, p) in preds.iter().enumerate() {
        stored = ops::select(&stored, p).unwrap();
        let mut stages = group_loop_view(&View::of(&r), &run[..=m]);
        let Some(Ok(Stage::View(last))) = stages.pop() else { panic!("a run ends in a view") };
        assert_eq!(last.len(), stored.len());
        assert_eq!(materialize(last), stored);
    }
    assert!(!stored.is_empty());
}

/// A run covers what the batch engine compiles up to a declined
/// predicate, whose error it leaves to the caller's next call; a run that
/// starts with it is that predicate alone, on the interpreter — which
/// reports the type error unless no row is left.
#[test]
fn a_declined_predicate_cuts_a_run_of_selects() {
    let _g = serial();
    let r = Relation::new((0..100).collect(), vec![Column::I64((0..100).collect())]).unwrap();
    let (keep, short) = (predicates::key_lt(40), predicates::key_lt(10));
    let declined = predicates::col_cmp_f64(0, CmpOp::Lt, 0.5);
    let run = [Member::Select(&keep), Member::Select(&declined), Member::Select(&short)];
    let got = group_loop_view(&View::of(&r), &run);
    assert!(matches!(&got[..], [Ok(Stage::View(v))] if v.len() == 40), "{got:?}");
    let narrowed = ops::select_view(&View::of(&r), &keep).unwrap();
    let tail = [Member::Select(&declined), Member::Select(&short)];
    assert!(matches!(&group_loop_view(&narrowed, &tail)[..], [Err(RelError::Eval(_))]));
    let emptied = ops::select_view(&narrowed, &predicates::key_lt(0)).unwrap();
    let got = group_loop_view(&emptied, &tail);
    assert!(matches!(&got[..], [Ok(Stage::View(v))] if v.is_empty()), "{got:?}");
}

/// REKEY by hand over stored rows: payload column `col`, every value
/// non-negative, becomes the key.
fn rekey_by_hand(rel: Relation, col: usize) -> Result<Relation, RelError> {
    let vals = rel.cols[col].as_i64().ok_or(RelError::SchemaMismatch)?;
    if vals.iter().any(|&v| v < 0) {
        return Err(RelError::SchemaMismatch);
    }
    let key = vals.iter().map(|&v| v as u64).collect();
    let mut cols = rel.cols;
    cols.remove(col);
    Relation::new(key, cols)
}

/// What a chain of ARITH+ and REKEY members gives with no loop run: the
/// input's rows gathered, each ARITH+ on the interpreter, each REKEY by
/// hand.
fn without_a_loop(input: &View<'_>, members: &[Member<'_>]) -> Result<Relation, RelError> {
    engine::set_batch_enabled(false);
    let out = members.iter().try_fold(materialize(input.clone()), |rel, &member| match member {
        Member::ArithExtend(body) => ops::arith_extend(&rel, body),
        Member::Rekey(col) => rekey_by_hand(rel, col),
        _ => unreachable!("ARITH+ and REKEY members only"),
    });
    engine::set_batch_enabled(true);
    out
}

/// The table over several morsels, and a view of it that drops the rows of
/// its first and last few batches and keeps nine tenths — enough that an
/// ARITH+ or a REKEY runs where it is rather than gathering them first.
fn dense_and_filtered(t: &Relation) -> [View<'_>; 2] {
    let keys = t.len() as u64 / 3;
    let kept = predicates::key_in_range(keys / 20, keys * 19 / 20);
    [View::of(t), ops::select_view(&View::of(t), &kept).unwrap()]
}

/// A lone ARITH+ is the one-member loop: over a dense and a filtered input
/// across several morsels it writes its columns where the view is — an f64
/// output, a `Bool` one as 0/1 flags, an i64 one — and they are the
/// interpreter's.
#[test]
fn a_lone_arith_extend_matches_the_interpreter() {
    let _g = serial();
    let t = table(3 * DEFAULT_CTA_CHUNK + 1_234);
    let mut b = BodyBuilder::new(4);
    b.emit_output(Expr::input(3).mul(Expr::lit(2.5f64)));
    b.emit_output(Expr::input(1).gt(Expr::lit(0i64)));
    b.emit_output(Expr::input(2).add(Expr::input(0)));
    let body = b.build();
    for input in dense_and_filtered(&t) {
        assert!(!input.gathers_first(body.outputs.len()));
        let got = ops::arith_extend_view(&input, &body).unwrap();
        assert_eq!(got.is_dense(), input.is_dense(), "computed where the view is");
        let got = materialize(got);
        assert!(got.cols[4].as_i64().unwrap().iter().all(|&flag| flag == 0 || flag == 1));
        assert!(got.cols[4].as_i64().unwrap().contains(&1));
        assert_eq!(got, without_a_loop(&input, &[Member::ArithExtend(&body)]).unwrap());
    }
}

/// A lone ARITH gets its columns from the same loop: over the table and
/// over the rows a filter kept, they are the interpreter's.
#[test]
fn a_lone_arith_matches_the_interpreter() {
    let _g = serial();
    let t = table(3 * DEFAULT_CTA_CHUNK + 1_234);
    let mut b = BodyBuilder::new(4);
    b.emit_output(Expr::input(1).lt(Expr::lit(10i64)));
    b.emit_output(Expr::input(3).sub(Expr::input(3).mul(Expr::lit(0.25f64))));
    let body = b.build();
    let [_, filtered] = dense_and_filtered(&t);
    for rel in [t.clone(), materialize(filtered)] {
        let got = ops::arith_map(&rel, &body).unwrap();
        engine::set_batch_enabled(false);
        let want = ops::arith_map(&rel, &body);
        engine::set_batch_enabled(true);
        assert_eq!(got.keys(), rel.keys());
        assert_eq!(got, want.unwrap());
    }
}

/// A lone REKEY is the one-member loop — on either engine, as it compiles
/// no kernel: over a dense and a filtered input it writes the key where
/// the view is, and gathers to a REKEY by hand of the gathered rows.
#[test]
fn a_lone_rekey_matches_a_rekey_by_hand() {
    let _g = serial();
    let t = table(3 * DEFAULT_CTA_CHUNK + 1_234);
    for batch in [true, false] {
        engine::set_batch_enabled(batch);
        for input in dense_and_filtered(&t) {
            assert!(!input.gathers_first(1));
            let got = ops::rekey_view(&input, 1).unwrap();
            assert_eq!(got.is_dense(), input.is_dense(), "keyed where the view is");
            let want = rekey_by_hand(materialize(input.clone()), 1).unwrap();
            assert_eq!(materialize(got), want, "batch engine {batch}");
        }
    }
    engine::set_batch_enabled(true);
}

/// A REKEY fails on a negative key only where its input selects the row:
/// over several morsels, where the view is, column 0's negatives fail a
/// dense input and one keeping -1, not one that keeps the rest.
#[test]
fn a_rekey_fails_only_on_a_selected_negative_key() {
    let _g = serial();
    let t = table(3 * DEFAULT_CTA_CHUNK + 1_234);
    let dense = View::of(&t);
    assert_eq!(ops::rekey_view(&dense, 0).unwrap_err(), RelError::SchemaMismatch);
    for (floor, fails) in [(0, false), (-1, true)] {
        let kept = ops::select_view(&dense, &predicates::col_cmp_i64(0, CmpOp::Ge, floor)).unwrap();
        assert!(!kept.is_dense() && !kept.gathers_first(1));
        let got = ops::rekey_view(&kept, 0).map(materialize);
        assert_eq!(got.is_err(), fails, "floor {floor}");
        assert_eq!(got, rekey_by_hand(materialize(kept), 0), "floor {floor}");
    }
}

/// Chains without a SELECT end where their last member does, ARITH+
/// columns and all: ARITH+ → ARITH+ (the second reading the first's
/// output) and REKEY → ARITH+ are each one loop, the first member passed,
/// over a dense and a filtered input — the last one's tuples what the
/// interpreter and a REKEY by hand give.
#[test]
fn chains_without_a_select_run_whole() {
    let _g = serial();
    let t = table(3 * DEFAULT_CTA_CHUNK + 1_234);
    let triple = body(Expr::input(1).mul(Expr::lit(3i64)), 4);
    let mut b = BodyBuilder::new(5);
    b.emit_output(Expr::input(4).add(Expr::input(2)));
    b.emit_output(Expr::input(3).mul(Expr::lit(0.5f64)));
    let after = b.build();
    let mut b = BodyBuilder::new(3);
    b.emit_output(Expr::input(0).gt(Expr::lit(20i64)));
    b.emit_output(Expr::input(2).add(Expr::lit(1.0f64)));
    let rekeyed = b.build();
    let arith_arith = [Member::ArithExtend(&triple), Member::ArithExtend(&after)];
    let rekey_arith = [Member::Rekey(1), Member::ArithExtend(&rekeyed)];
    for input in dense_and_filtered(&t) {
        for chain in [&arith_arith[..], &rekey_arith[..]] {
            let mut stages = group_loop_view(&input, chain);
            assert_eq!(stages.len(), 2, "{chain:?}");
            assert_passed_but_last(&stages);
            let Some(Ok(Stage::View(last))) = stages.pop() else { unreachable!() };
            assert_eq!(last.is_dense(), input.is_dense(), "{chain:?}");
            assert_eq!(materialize(last), without_a_loop(&input, chain).unwrap(), "{chain:?}");
            assert_as_operators(&input, chain, 2);
        }
    }
}
