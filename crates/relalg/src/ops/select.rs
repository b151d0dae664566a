//! SELECT: filter tuples by a predicate.
//!
//! The GPU implementation (paper Fig. 3, after Diamos et al.) runs in four
//! stages: **partition** the input across CTAs, **filter** in parallel,
//! **buffer** survivors per CTA, then — after a global synchronization —
//! **gather** the per-CTA buffers into the dense result. The functional
//! implementation below executes literally that structure on host threads:
//! `par_range_map` is partition+filter+buffer, the final concatenation is
//! the gather. The first three stages are one CUDA kernel, the gather a
//! second; [`crate::profiles`] prices them accordingly.
//!
//! Predicates are evaluated by the vectorized batch engine when the body
//! compiles against the relation's column types ([`crate::engine`]): each
//! CTA runs a `BatchMachine` over [`BATCH_ROWS`]-row batches and keeps only
//! the selection bitmask. Bodies that fail batch compilation fall back to
//! the per-tuple interpreter, preserving its error behavior exactly.
//!
//! The two kernels are two functions: [`select_run_view`] partitions,
//! filters and buffers for a run of back-to-back SELECTs in one walk over
//! the rows, and yields one [`View`] per SELECT — the input's columns under
//! a narrowed selection — and [`crate::view::materialize`] is the gather.
//! [`select_view`] is the one-SELECT run and [`select`] its composition
//! with the gather; a fused group calls the first once per run of its
//! SELECTs and the gather once (DESIGN.md §17).

use crate::data::{RelError, Relation};
use crate::engine;
use crate::view::{materialize, View};
use kfusion_ir::batch::{BatchMachine, CompiledKernel, BATCH_ROWS, MASK_WORDS};
use kfusion_ir::interp::Machine;
use kfusion_ir::{KernelBody, Ty, Value};
use kfusion_vgpu::exec::{par_range_map, DEFAULT_CTA_CHUNK};

/// Compile `predicate` for batch execution over `input`'s columns, if the
/// engine is on and the body both resolves to concrete types and yields a
/// boolean in output slot 0.
fn compile_predicate(input: &View<'_>, predicate: &KernelBody) -> Option<CompiledKernel> {
    if !engine::batch_enabled() || input.is_empty() || predicate.outputs.is_empty() {
        return None;
    }
    let k = CompiledKernel::compile(predicate, &input.ir_slot_types()).ok()?;
    (k.output_ty(0) == Ty::Bool && k.check_binding(&input.ir_cols()).is_ok()).then_some(k)
}

/// Partition + filter (the first kernel of Fig. 3) for a run of SELECTs:
/// one walk over `input`'s base rows in which, per batch, stage `s`
/// evaluates `ks[s]` and ANDs the outcome into what stage `s - 1` kept.
/// Returns each stage's bitmap and popcount — selection is bitmap-only,
/// unselected lanes are never written anywhere. A batch in which no row is
/// live any more is skipped by every later stage.
fn filter(input: &View<'_>, ks: &[CompiledKernel]) -> Vec<(Vec<u64>, usize)> {
    let cols = input.ir_cols();
    let sel_in = input.selection();
    // Each CTA keeps one mask word per 64 rows per stage, sized in the
    // per-morsel setup; the per-batch loop inside the steady-state region
    // allocates nothing. `DEFAULT_CTA_CHUNK` and `BATCH_ROWS` are
    // 64-divisible, so every non-final batch contributes whole words and the
    // CTAs' words concatenate exactly.
    let parts: Vec<Vec<(Vec<u64>, usize)>> =
        par_range_map(input.base_len(), DEFAULT_CTA_CHUNK, |_cta, range| {
            crate::scratch::with_scratch(|s| {
                let mut bms: Vec<BatchMachine> = ks.iter().map(|k| s.machine(k)).collect();
                let mut stages: Vec<(Vec<u64>, usize)> =
                    ks.iter().map(|_| (Vec::with_capacity(range.len().div_ceil(64)), 0)).collect();
                {
                    let _steady = kfusion_trace::allocwatch::region();
                    let mut live = [0u64; MASK_WORDS];
                    let mut base = range.start;
                    while base < range.end {
                        let n = (range.end - base).min(BATCH_ROWS);
                        let live = &mut live[..n.div_ceil(64)];
                        // The rows upstream kept, lanes past `n` clear (a
                        // selection has no bit past the base rows).
                        match sel_in {
                            Some(sel) => live.copy_from_slice(&sel[base / 64..][..live.len()]),
                            None => {
                                live.fill(u64::MAX);
                                if n % 64 != 0 {
                                    live[n / 64] = (1u64 << (n % 64)) - 1;
                                }
                            }
                        }
                        for ((k, bm), (words, count)) in ks.iter().zip(&mut bms).zip(&mut stages) {
                            if live.iter().any(|&w| w != 0) {
                                bm.run(k, &cols, base, n);
                                // The mask's own lanes past `n` are
                                // unspecified; `live` keeps them clear.
                                for (l, &m) in live.iter_mut().zip(bm.selection_mask(k)) {
                                    *l &= m;
                                    *count += l.count_ones() as usize;
                                }
                            }
                            words.extend_from_slice(live);
                        }
                        base += n;
                    }
                }
                for (k, bm) in ks.iter().zip(bms) {
                    s.put_machine(k, bm);
                }
                stages
            })
        });
    let mut out: Vec<(Vec<u64>, usize)> =
        ks.iter().map(|_| (Vec::with_capacity(input.base_len().div_ceil(64)), 0)).collect();
    for part in parts {
        for ((sel, rows), (words, count)) in out.iter_mut().zip(part) {
            sel.extend_from_slice(&words);
            *rows += count;
        }
    }
    out
}

/// Per-tuple interpretation of `predicate` — the path for the scalar engine
/// and for bodies the batch engine declines, with the interpreter's error
/// behaviour: the first failing tuple's error, in tuple order. Each CTA marks
/// the tuples it keeps in its words of a selection bitmap, as [`filter`]
/// does, and the result is `input` under that selection.
fn select_scalar<'a>(input: &View<'a>, predicate: &KernelBody) -> Result<View<'a>, RelError> {
    let parts: Vec<Result<(Vec<u64>, usize), RelError>> =
        par_range_map(input.base_len(), DEFAULT_CTA_CHUNK, |_cta, range| {
            let mut m = Machine::for_body(predicate);
            let mut row: Vec<Value> = Vec::with_capacity(1 + input.n_cols());
            let (start, mut words, mut rows) =
                (range.start, vec![0u64; range.len().div_ceil(64)], 0);
            let mut failed = None;
            input.for_each_row(range, |i| {
                if failed.is_some() {
                    return;
                }
                input.ir_inputs(i, &mut row);
                match m.run_predicate(predicate, &row) {
                    Ok(keep) => {
                        words[(i - start) / 64] |= (keep as u64) << (i % 64);
                        rows += keep as usize;
                    }
                    Err(e) => failed = Some(e),
                }
            });
            failed.map_or(Ok((words, rows)), |e| Err(e.into()))
        });
    let (mut sel, mut rows) = (Vec::with_capacity(input.base_len().div_ceil(64)), 0);
    for part in parts {
        let (words, kept) = part?;
        sel.extend_from_slice(&words);
        rows += kept;
    }
    Ok(input.with_selection(sel, rows))
}

/// A run of SELECTs without the gather: stage `s` keeps the tuples of stage
/// `s - 1`'s output (stage 0: of `input`) that satisfy `predicates[s]`, and
/// each stage's output is a view over `input`'s base rows with a narrowed
/// selection — what the unfused chain of [`select_view`]s returns, node for
/// node, from one walk over the rows.
///
/// Covers the longest prefix of `predicates` that the batch engine
/// compiles, which has no data-dependent errors; when that is empty, the
/// first predicate alone takes the scalar fallback, which marks the same
/// bitmap tuple by tuple on the interpreter.
/// So the result holds at least one view (none for no predicates) and the
/// caller evaluates the rest of the run over the last one.
pub fn select_run_view<'a>(
    input: &View<'a>,
    predicates: &[&KernelBody],
) -> Result<Vec<View<'a>>, RelError> {
    let kernels: Vec<CompiledKernel> =
        predicates.iter().map_while(|p| compile_predicate(input, p)).collect();
    let views: Vec<View<'a>> = if kernels.is_empty() {
        let Some(&first) = predicates.first() else { return Ok(Vec::new()) };
        if engine::batch_enabled() && !input.is_empty() {
            kfusion_trace::counter("kfusion_batch_fallback_total{op=\"select\"}", 1);
        }
        vec![select_scalar(input, first)?]
    } else {
        let stages = filter(input, &kernels).into_iter();
        stages.map(|(sel, rows)| input.with_selection(sel, rows)).collect()
    };
    // Rows in and out of each stage, as each SELECT alone would count them.
    let mut upstream = input.len();
    for out in &views {
        kfusion_trace::counter("kfusion_rows_in_total{op=\"select\"}", upstream as u64);
        kfusion_trace::counter("kfusion_rows_out_total{op=\"select\"}", out.len() as u64);
        upstream = out.len();
    }
    Ok(views)
}

/// SELECT without the gather: the tuples of `input` satisfying `predicate`,
/// as a view over the same base rows with a narrowed selection — the
/// one-stage [`select_run_view`]. Nothing is copied on the batch engine.
///
/// The predicate is an IR body with the library calling convention: input
/// slot 0 is the key (as `i64`), slot `1+c` is payload column `c`; output 0
/// must be a boolean.
pub fn select_view<'a>(input: &View<'a>, predicate: &KernelBody) -> Result<View<'a>, RelError> {
    let mut out = select_run_view(input, &[predicate])?;
    Ok(out.pop().expect("one stage, one view"))
}

/// Filter `input` to the tuples satisfying `predicate`: [`select_view`],
/// then the gather.
pub fn select(input: &Relation, predicate: &KernelBody) -> Result<Relation, RelError> {
    Ok(materialize(select_view(&View::of(input), predicate)?))
}

/// SELECT with a *chain* of predicates applied as separate passes — the
/// unfused back-to-back configuration the paper measures against. Returns
/// every intermediate cardinality alongside the final relation, because the
/// executor prices each pass's kernels with the real intermediate sizes.
pub fn select_chain_unfused(
    input: &Relation,
    predicates: &[KernelBody],
) -> Result<(Relation, Vec<usize>), RelError> {
    let Some((first, rest)) = predicates.split_first() else {
        return Ok((input.clone(), Vec::new()));
    };
    let mut cur = select(input, first)?;
    let mut cards = vec![cur.len()];
    for p in rest {
        cur = select(&cur, p)?;
        cards.push(cur.len());
    }
    Ok((cur, cards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Column;
    use crate::predicates;
    use kfusion_ir::builder::{BodyBuilder, Expr};

    /// Table I SELECT example: x = {(3,True,a), (4,True,a), (2,False,b)};
    /// select [field.0==2] x → (2,False,b).
    #[test]
    fn table1_select_example() {
        // Encode True/False as 1/0 and a/b as 1/2.
        let x = Relation::new(
            vec![3, 4, 2],
            vec![Column::I64(vec![1, 1, 0]), Column::I64(vec![1, 1, 2])],
        )
        .unwrap();
        let pred = predicates::key_eq(2);
        let out = select(&x, &pred).unwrap();
        assert_eq!(*out.keys(), vec![2]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[0]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[2]);
    }

    #[test]
    fn select_keeps_input_order() {
        let r = Relation::from_keys(vec![5, 1, 9, 3, 7]);
        let out = select(&r, &predicates::key_lt(8)).unwrap();
        assert_eq!(*out.keys(), vec![5, 1, 3, 7]);
    }

    #[test]
    fn select_on_payload_column() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::F64(vec![0.5, 1.5, 2.5])]).unwrap();
        let mut b = BodyBuilder::new(2);
        b.emit_output(Expr::input(1).gt(Expr::lit(1.0f64)));
        let out = select(&r, &b.build()).unwrap();
        assert_eq!(*out.keys(), vec![2, 3]);
    }

    #[test]
    fn empty_input_empty_output() {
        let r = Relation::from_keys(vec![]);
        let out = select(&r, &predicates::key_lt(5)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn select_all_and_none() {
        let r = Relation::from_keys((0..1000).collect());
        assert_eq!(select(&r, &predicates::key_lt(10_000)).unwrap().len(), 1000);
        assert_eq!(select(&r, &predicates::key_lt(0)).unwrap().len(), 0);
    }

    #[test]
    fn large_parallel_select_matches_sequential_count() {
        let n = 300_000u64;
        let r = Relation::from_keys((0..n).rev().collect());
        let out = select(&r, &predicates::key_lt(12345)).unwrap();
        assert_eq!(out.len(), 12345);
        // Partition order preserved: descending keys filtered keep order.
        assert_eq!(out.keys().get(0), 12344);
        assert_eq!(out.keys().get(out.len() - 1), 0);
    }

    #[test]
    fn chain_unfused_reports_intermediates() {
        let r = Relation::from_keys((0..100).collect());
        let (out, cards) =
            select_chain_unfused(&r, &[predicates::key_lt(50), predicates::key_lt(25)]).unwrap();
        assert_eq!(cards, vec![50, 25]);
        assert_eq!(out.len(), 25);
    }

    /// The fused shape: each SELECT narrows the previous one's selection
    /// over the same base rows — member by member, or the whole run in one
    /// walk — and one gather reproduces the chain of materializing SELECTs
    /// at every stage, across CTA and batch boundaries, and through a batch
    /// none of whose rows survived upstream.
    #[test]
    fn view_chain_gathers_what_the_materializing_chain_does() {
        let n = 2 * DEFAULT_CTA_CHUNK as u64 + 4321;
        let keys: Vec<u64> = (0..n).map(|k| k.wrapping_mul(2654435761) % 1000).collect();
        let hole = |i: u64| (70_000..75_000).contains(&i);
        let col: Vec<i64> = (0..n).map(|i| if hole(i) { -1 } else { (i % 97) as i64 }).collect();
        let r = Relation::new(keys, vec![Column::I64(col)]).unwrap();
        let preds = [
            predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Ge, 0),
            predicates::key_lt(600),
            predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Lt, 50),
        ];
        let run = select_run_view(&View::of(&r), &preds.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(run.len(), preds.len());
        let mut view = View::of(&r);
        let mut stored = r.clone();
        for (p, walked) in preds.iter().zip(run) {
            view = select_view(&view, p).unwrap();
            stored = select(&stored, p).unwrap();
            assert_eq!((view.len(), walked.len()), (stored.len(), stored.len()));
            assert_eq!(materialize(walked), stored);
        }
        assert!(!stored.is_empty());
        assert_eq!(materialize(view), stored);
    }

    #[test]
    fn scalar_fallback_over_a_view_filters_its_selected_rows() {
        let r = Relation::new((0..100).collect(), vec![Column::I64((0..100).collect())]).unwrap();
        let narrowed = select_view(&View::of(&r), &predicates::key_lt(40)).unwrap();
        // An f64 comparison on an i64 column: batch compilation declines,
        // and the interpreter reports the type error — unless no row is left.
        let declined = predicates::col_cmp_f64(0, kfusion_ir::CmpOp::Lt, 0.5);
        assert!(matches!(select_view(&narrowed, &declined), Err(RelError::Eval(_))));
        let none = select_view(&narrowed, &predicates::key_lt(0)).unwrap();
        assert!(select_view(&none, &declined).unwrap().is_empty());
        // A run covers what the batch engine compiles up to the declined
        // predicate, whose error it leaves to the caller's next call; a run
        // that starts with it is that predicate alone, on the interpreter.
        let short = predicates::key_lt(10);
        let run = select_run_view(&View::of(&r), &[&predicates::key_lt(40), &declined, &short]);
        assert_eq!(run.unwrap().iter().map(View::len).collect::<Vec<_>>(), [40]);
        assert!(matches!(select_run_view(&narrowed, &[&declined, &short]), Err(RelError::Eval(_))));
        assert_eq!(select_run_view(&none, &[&declined, &short]).unwrap().len(), 1);
    }

    #[test]
    fn type_error_is_surfaced_not_panicked() {
        let r = Relation::from_keys(vec![1, 2]);
        // Predicate output is i64, not bool.
        let mut b = BodyBuilder::new(1);
        b.emit_output(Expr::input(0).add(Expr::lit(1i64)));
        assert!(matches!(select(&r, &b.build()), Err(RelError::Eval(_))));
    }

    #[test]
    fn batch_and_scalar_engines_agree() {
        let keys: Vec<u64> = (0..40_000u64).map(|k| k.wrapping_mul(2654435761) % 100_000).collect();
        let f: Vec<f64> = keys.iter().map(|&k| k as f64 / 1000.0).collect();
        let r = Relation::new(keys, vec![Column::F64(f)]).unwrap();
        let mut b = BodyBuilder::new(2);
        b.emit_output(
            Expr::input(0)
                .lt(Expr::lit(60_000i64))
                .and(Expr::input(1).gt(Expr::lit(12.5f64)).or(Expr::input(1).lt(Expr::lit(3.0)))),
        );
        let pred = b.build();
        engine::set_batch_enabled(false);
        let scalar = select(&r, &pred);
        engine::set_batch_enabled(true);
        let batch = select(&r, &pred);
        assert_eq!(scalar.unwrap(), batch.unwrap());
    }
}
