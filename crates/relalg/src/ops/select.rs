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
//! The two kernels are two functions: [`select_view`] partitions, filters
//! and buffers, and yields a [`View`] — the input's columns under a
//! narrowed selection — and [`crate::view::materialize`] is the gather.
//! [`select`] is their composition; a fused group calls the first per
//! member and the second once (DESIGN.md §17).

use crate::data::{RelError, Relation};
use crate::engine;
use crate::view::{materialize, View};
use kfusion_ir::batch::{CompiledKernel, BATCH_ROWS};
use kfusion_ir::interp::Machine;
use kfusion_ir::{KernelBody, Ty, Value};
use kfusion_vgpu::exec::{par_range_map, DEFAULT_CTA_CHUNK};

/// Compile `predicate` for batch execution over `input`'s columns, if the
/// engine is on and the body both resolves to concrete types and yields a
/// boolean in output slot 0.
fn compile_predicate(input: &View<'_>, predicate: &KernelBody) -> Option<CompiledKernel> {
    if !engine::batch_enabled() || input.is_empty() {
        return None;
    }
    let compiled = (|| {
        if predicate.outputs.is_empty() {
            return None;
        }
        let k = CompiledKernel::compile(predicate, &input.ir_slot_types()).ok()?;
        if k.output_ty(0) != Ty::Bool || k.check_binding(&input.ir_cols()).is_err() {
            return None;
        }
        Some(k)
    })();
    if compiled.is_none() {
        kfusion_trace::counter("kfusion_batch_fallback_total{op=\"select\"}", 1);
    }
    compiled
}

/// Partition + filter (the first kernel of Fig. 3): evaluate `k` over
/// `input`'s base rows and AND the outcome into its selection. Returns the
/// narrowed bitmap and its popcount — selection is bitmap-only, unselected
/// lanes are never written anywhere.
fn filter(input: &View<'_>, k: &CompiledKernel) -> (Vec<u64>, usize) {
    let cols = input.ir_cols();
    let sel_in = input.selection();
    // Each CTA keeps one mask word per 64 rows, sized in the per-morsel
    // setup; the per-batch loop inside the steady-state region allocates
    // nothing. `DEFAULT_CTA_CHUNK` and `BATCH_ROWS` are 64-divisible, so
    // every non-final batch contributes whole words and the CTAs' words
    // concatenate exactly.
    let parts: Vec<(Vec<u64>, usize)> =
        par_range_map(input.base_len(), DEFAULT_CTA_CHUNK, |_cta, range| {
            crate::scratch::with_scratch(|s| {
                let mut bm = s.machine(k);
                let mut words: Vec<u64> = Vec::with_capacity(range.len().div_ceil(64));
                let mut count = 0usize;
                {
                    let _steady = kfusion_trace::allocwatch::region();
                    let mut base = range.start;
                    while base < range.end {
                        let n = (range.end - base).min(BATCH_ROWS);
                        let n_words = n.div_ceil(64);
                        let live = sel_in.map(|sel| &sel[base / 64..base / 64 + n_words]);
                        if live.is_some_and(|ws| ws.iter().all(|&w| w == 0)) {
                            // Nothing upstream survived in this batch.
                            words.resize(words.len() + n_words, 0);
                            base += n;
                            continue;
                        }
                        bm.run(k, &cols, base, n);
                        let mask = bm.selection_mask(k);
                        for (w, &word) in mask.iter().enumerate().take(n_words) {
                            let lo = w * 64;
                            let mut m = word;
                            if n - lo < 64 {
                                m &= (1u64 << (n - lo)) - 1; // tail lanes are unspecified
                            }
                            if let Some(ws) = live {
                                m &= ws[w];
                            }
                            count += m.count_ones() as usize;
                            words.push(m);
                        }
                        base += n;
                    }
                }
                s.put_machine(k, bm);
                (words, count)
            })
        });
    let mut sel = Vec::with_capacity(input.base_len().div_ceil(64));
    let mut rows = 0;
    for (words, count) in parts {
        sel.extend_from_slice(&words);
        rows += count;
    }
    (sel, rows)
}

/// Per-tuple interpretation of `predicate` — the path for the scalar engine
/// and for bodies the batch engine declines, with the interpreter's error
/// behaviour.
fn select_scalar(input: &Relation, predicate: &KernelBody) -> Result<Relation, RelError> {
    let parts: Vec<Result<Relation, RelError>> =
        par_range_map(input.len(), DEFAULT_CTA_CHUNK, |_cta, range| {
            let mut m = Machine::for_body(predicate);
            let mut row: Vec<Value> = Vec::with_capacity(1 + input.n_cols());
            let mut buf = input.empty_like();
            for i in range {
                input.ir_inputs(i, &mut row);
                if m.run_predicate(predicate, &row)? {
                    buf.push_row_from(input, i);
                }
            }
            Ok(buf)
        });
    let mut out = input.empty_like();
    for p in parts {
        out.extend_from(&p?);
    }
    Ok(out)
}

/// SELECT without the gather: the tuples of `input` satisfying `predicate`,
/// as a view over the same base rows with a narrowed selection. Nothing is
/// copied on the batch engine; the scalar fallback materializes `input`,
/// filters it tuple by tuple and returns a view of that result.
///
/// The predicate is an IR body with the library calling convention: input
/// slot 0 is the key (as `i64`), slot `1+c` is payload column `c`; output 0
/// must be a boolean.
pub fn select_view<'a>(input: &View<'a>, predicate: &KernelBody) -> Result<View<'a>, RelError> {
    kfusion_trace::counter("kfusion_rows_in_total{op=\"select\"}", input.len() as u64);
    let out = match compile_predicate(input, predicate) {
        Some(k) => {
            let (sel, rows) = filter(input, &k);
            input.with_selection(sel, rows)
        }
        None => select_scalar(&input.to_relation(), predicate)?.into(),
    };
    kfusion_trace::counter("kfusion_rows_out_total{op=\"select\"}", out.len() as u64);
    Ok(out)
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

/// Count (without materializing) how many tuples satisfy `predicate` — used
/// by harnesses that only need cardinalities.
pub fn count_selected(input: &Relation, predicate: &KernelBody) -> Result<usize, RelError> {
    Ok(select_view(&View::of(input), predicate)?.len())
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
        assert_eq!(out.key, vec![2]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[0]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[2]);
    }

    #[test]
    fn select_keeps_input_order() {
        let r = Relation::from_keys(vec![5, 1, 9, 3, 7]);
        let out = select(&r, &predicates::key_lt(8)).unwrap();
        assert_eq!(out.key, vec![5, 1, 3, 7]);
    }

    #[test]
    fn select_on_payload_column() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::F64(vec![0.5, 1.5, 2.5])]).unwrap();
        let mut b = BodyBuilder::new(2);
        b.emit_output(Expr::input(1).gt(Expr::lit(1.0f64)));
        let out = select(&r, &b.build()).unwrap();
        assert_eq!(out.key, vec![2, 3]);
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
        assert_eq!(out.key[0], 12344);
        assert_eq!(*out.key.last().unwrap(), 0);
    }

    #[test]
    fn chain_unfused_reports_intermediates() {
        let r = Relation::from_keys((0..100).collect());
        let (out, cards) =
            select_chain_unfused(&r, &[predicates::key_lt(50), predicates::key_lt(25)]).unwrap();
        assert_eq!(cards, vec![50, 25]);
        assert_eq!(out.len(), 25);
    }

    #[test]
    fn count_matches_select_len() {
        let r = Relation::from_keys((0..10_000).map(|k| k * 7 % 1000).collect());
        let p = predicates::key_lt(500);
        assert_eq!(count_selected(&r, &p).unwrap(), select(&r, &p).unwrap().len());
    }

    /// The fused shape: each SELECT narrows the previous one's selection
    /// over the same base rows, and one gather at the end reproduces the
    /// chain of materializing SELECTs — across CTA and batch boundaries,
    /// and through a batch none of whose rows survived upstream.
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
        let mut view = View::of(&r);
        let mut stored = r.clone();
        for p in &preds {
            view = select_view(&view, p).unwrap();
            stored = select(&stored, p).unwrap();
            assert_eq!(view.len(), stored.len());
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
