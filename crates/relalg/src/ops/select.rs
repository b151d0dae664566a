//! SELECT: filter tuples by a predicate.
//!
//! The GPU implementation (paper Fig. 3, after Diamos et al.) runs in four
//! stages: **partition** the input across CTAs, **filter** in parallel,
//! **buffer** survivors per CTA, then — after a global synchronization —
//! **gather** the per-CTA buffers into the dense result. The functional
//! implementation below executes literally that structure on host threads:
//! `par_range_map` is partition+filter+buffer, the final concatenation is
//! the gather. The first three stages are one CUDA kernel, the gather a
//! second; `kfusion_core::cost` prices them accordingly.
//!
//! Predicates are evaluated by the vectorized batch engine when the body
//! compiles against the relation's column types ([`crate::engine`]): a
//! SELECT is the one-member loop of [`super::group_loop`], whose morsels run
//! the compiled predicate over [`kfusion_ir::batch::BATCH_ROWS`]-row
//! batches and keep only the selection bitmask — and a run of SELECTs in
//! one fused group is that loop with a member per predicate. Bodies that
//! fail batch compilation fall back to the per-tuple interpreter,
//! preserving its error behavior exactly.
//!
//! The two kernels are two functions: [`select_view`] partitions, filters
//! and buffers, and yields the input's columns under a narrowed selection,
//! and [`crate::view::materialize`] is the gather. [`select`] is their
//! composition; a fused group calls the first once per run of its SELECTs
//! and the gather once (DESIGN.md §17).

use super::group_loop::{self, Member};
use crate::data::{RelError, Relation};
use crate::engine;
use crate::view::{materialize, View};
use kfusion_ir::interp::Machine;
use kfusion_ir::{KernelBody, Value};
use kfusion_vgpu::exec::{par_range_map, DEFAULT_CTA_CHUNK};

/// Per-tuple interpretation of `predicate` — the path for the scalar engine
/// and for bodies the batch engine declines, with the interpreter's error
/// behaviour: the first failing tuple's error, in tuple order. Each CTA marks
/// the tuples it keeps in its words of a selection bitmap, as the batch
/// loop does, and the result is `input` under that selection.
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

/// SELECT without the gather: the tuples of `input` satisfying `predicate`,
/// as a view over the same base rows with a narrowed selection. Nothing is
/// copied. On the batch engine this is the one-member group loop; an empty
/// input, the scalar engine and a body the batch engine declines take the
/// interpreter, which marks the same bitmap tuple by tuple.
///
/// The predicate is an IR body with the library calling convention: input
/// slot 0 is the key (as `i64`), slot `1+c` is payload column `c`; output 0
/// must be a boolean.
pub fn select_view<'a>(input: &View<'a>, predicate: &KernelBody) -> Result<View<'a>, RelError> {
    if let Some(out) = group_loop::lone(input, Member::Select(predicate)) {
        return out;
    }
    if engine::batch_enabled() && !input.is_empty() {
        kfusion_trace::counter("kfusion_batch_fallback_total{op=\"select\"}", 1);
    }
    let out = select_scalar(input, predicate)?;
    kfusion_trace::counter("kfusion_rows_in_total{op=\"select\"}", input.len() as u64);
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
