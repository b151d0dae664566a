//! Elementwise arithmetic over columns (the paper's ARITH operator,
//! Fig. 2(e)/(h)).
//!
//! An arithmetic map runs one IR body per tuple; each body output becomes a
//! column of the result. Because each output element depends on exactly one
//! input element it is freely fusable with its neighbours (dependence class
//! (i) of §III-C) — and on the host it writes nothing but the columns it
//! computes: on the batch engine [`arith_extend_view`] is the one-member
//! group loop ([`super::group_loop`]), which writes them where its input
//! is, as base-length columns beside the input's own, so a fused group
//! hands them on without a gather (DESIGN.md §17) — a filtered input is
//! gathered first by the plan executor's rule alone. The per-tuple
//! interpreter is the fallback, over rows it gathers, and the reference.

use super::group_loop::{self, Member};
use crate::data::{Column, RelError, Relation};
use crate::engine;
use crate::view::{materialize, View};
use kfusion_ir::interp::Machine;
use kfusion_ir::opt::infer_types;
use kfusion_ir::{KernelBody, Ty, Value};
use kfusion_vgpu::exec::{par_range_map, DEFAULT_CTA_CHUNK};

fn output_tys(body: &KernelBody) -> Vec<Ty> {
    let tys = infer_types(body);
    body.outputs
        .iter()
        // Untypeable outputs (rare: a bare input passthrough) default to i64.
        .map(|&r| tys[r as usize].unwrap_or(Ty::I64))
        .collect()
}

fn empty_cols(tys: &[Ty], cap: usize) -> Vec<Column> {
    tys.iter()
        .map(|t| match t {
            Ty::F64 => Column::F64(Vec::with_capacity(cap)),
            _ => Column::I64(Vec::with_capacity(cap)),
        })
        .collect()
}

/// The output columns of `body` over every row of `input`, a dense view,
/// on the per-tuple interpreter — the path for the scalar engine, a body
/// the batch engine declines and an empty input, whose error behavior is
/// the reference.
fn interpreted(input: &View<'_>, body: &KernelBody) -> Result<Vec<Column>, RelError> {
    let bytes = body.outputs.len() as u64 * input.base_len() as u64 * Column::BYTES_PER_VALUE;
    kfusion_trace::counter("kfusion_host_computed_bytes_total", bytes);
    if engine::batch_enabled() && !input.is_empty() {
        kfusion_trace::counter("kfusion_batch_fallback_total{op=\"arith\"}", 1);
    }
    debug_assert!(input.is_dense(), "the interpreter runs over gathered rows");
    // Output column types: static inference can't see through input slots
    // (they are bound at execution time), so type from the first row's
    // actual values when there is one; inference covers the empty case.
    let tys = if input.is_empty() {
        output_tys(body)
    } else {
        let mut m = Machine::new();
        let mut row: Vec<Value> = Vec::new();
        input.ir_inputs(0, &mut row);
        (0..body.outputs.len())
            .map(|slot| Ok(m.run_output(body, &row, slot)?.ty()))
            .collect::<Result<Vec<Ty>, RelError>>()?
    };
    let parts: Vec<Result<Vec<Column>, RelError>> =
        par_range_map(input.len(), DEFAULT_CTA_CHUNK, |_cta, range| {
            let mut m = Machine::for_body(body);
            let mut row: Vec<Value> = Vec::with_capacity(1 + input.n_cols());
            let mut cols = empty_cols(&tys, range.len());
            for i in range {
                input.ir_inputs(i, &mut row);
                for (slot, col) in cols.iter_mut().enumerate() {
                    let v = m.run_output(body, &row, slot)?;
                    push_coerced(col, v)?;
                }
            }
            Ok(cols)
        });
    let mut out = empty_cols(&tys, input.len());
    for part in parts {
        for (d, s) in out.iter_mut().zip(&part?) {
            d.extend_from(s);
        }
    }
    Ok(out)
}

/// Compute `body` per tuple; the result keeps the input keys and has one
/// column per body output (the sources are discarded, as PROJECT does in
/// the paper's ARITH→PROJECT idiom): [`arith_extend_view`]'s columns, each
/// written once — on the batch engine by the one-member group loop, on the
/// per-tuple interpreter otherwise, preserving its error behavior.
pub fn arith_map(input: &Relation, body: &KernelBody) -> Result<Relation, RelError> {
    // Over a copy of the input's keys, the view of the computed columns
    // alone holds its storage, and `materialize` moves them.
    let extended = arith_extend_view(&View::of(input).with_key(input.keys().clone()), body)?;
    let computed: Vec<usize> = (input.n_cols()..extended.n_cols()).collect();
    let out = extended.with_columns(&computed);
    drop(extended);
    Ok(materialize(out))
}

/// ARITH preserves cardinality: rows out == rows in.
pub(crate) fn count_rows(rows: usize) {
    kfusion_trace::counter("kfusion_rows_in_total{op=\"arith\"}", rows as u64);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"arith\"}", rows as u64);
}

/// ARITH+ without the copy: `input` widened by the outputs of `body`, which
/// the one-member group loop computes over its base rows and writes once,
/// where the view is, beside the columns it references. Whether a filtered
/// input is gathered first is the plan executor's to decide, before the
/// view is handed here. The interpreter runs where the loop does not — the
/// scalar engine, an empty input, a body the batch engine declines — over
/// gathered rows.
pub fn arith_extend_view<'a>(input: &View<'a>, body: &KernelBody) -> Result<View<'a>, RelError> {
    if let Some(extended) = group_loop::lone(input, Member::ArithExtend(body)) {
        return extended;
    }
    let dense = input.dense();
    count_rows(dense.len());
    Ok(dense.with_computed(interpreted(&dense, body)?))
}

/// Like [`arith_map`] but *appends* the computed columns to the existing
/// payload instead of replacing it: [`arith_extend_view`], then the gather.
pub fn arith_extend(input: &Relation, body: &KernelBody) -> Result<Relation, RelError> {
    Ok(materialize(arith_extend_view(&View::of(input), body)?))
}

/// [`arith_extend`] for a caller that owns the input relation: the view
/// alone holds it, so [`materialize`] moves the key and the existing
/// payload instead of copying them.
pub fn arith_extend_owned(input: Relation, body: &KernelBody) -> Result<Relation, RelError> {
    let extended = arith_extend_view(&View::from(input), body)?;
    Ok(materialize(extended))
}

fn push_coerced(col: &mut Column, v: Value) -> Result<(), RelError> {
    match (col, v) {
        (Column::I64(c), Value::I64(x)) => c.push(x),
        (Column::I64(c), Value::Bool(x)) => c.push(x as i64),
        (Column::F64(c), Value::F64(x)) => c.push(x),
        _ => {
            return Err(RelError::Eval(kfusion_ir::interp::EvalError::TypeMismatch {
                what: "arith output column",
            }))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates;
    use kfusion_ir::builder::{BodyBuilder, Expr};

    #[test]
    fn discounted_price_column() {
        let r = Relation::new(
            vec![1, 2],
            vec![Column::F64(vec![100.0, 50.0]), Column::F64(vec![0.1, 0.5])],
        )
        .unwrap();
        let out = arith_map(&r, &predicates::discounted_price(0, 1)).unwrap();
        assert_eq!(out.n_cols(), 1);
        assert_eq!(out.cols[0].as_f64().unwrap(), &[90.0, 25.0]);
        assert_eq!(*out.keys(), vec![1, 2]);
    }

    #[test]
    fn multi_output_body_makes_multiple_columns() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::I64(vec![10, 20, 30])]).unwrap();
        let mut b = BodyBuilder::new(2);
        b.emit_output(Expr::input(1).add(Expr::lit(1i64)));
        b.emit_output(Expr::input(1).mul(Expr::lit(2i64)));
        let out = arith_map(&r, &b.build()).unwrap();
        assert_eq!(out.n_cols(), 2);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[11, 21, 31]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[20, 40, 60]);
    }

    #[test]
    fn extend_keeps_sources() {
        let r = Relation::new(vec![1], vec![Column::I64(vec![5])]).unwrap();
        let mut b = BodyBuilder::new(2);
        b.emit_output(Expr::input(1).neg());
        let body = b.build();
        let out = arith_extend(&r, &body).unwrap();
        assert_eq!(out.n_cols(), 2);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[5]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[-5]);
        assert_eq!(arith_extend_owned(r, &body).unwrap(), out);
    }

    /// Over a filtered view the new column is computed where the view is —
    /// batches no selected row falls in are skipped — and gathers with the
    /// others to exactly what extending the gathered rows gives, for a view
    /// the bytes rule leaves in place and for one it would gather first.
    #[test]
    fn extend_view_computes_beside_a_selection() {
        let n = 3 * DEFAULT_CTA_CHUNK + 99;
        let r = Relation::new(
            (0..n as u64).collect(),
            vec![Column::I64((0..n as i64).map(|v| v % 1000).collect())],
        )
        .unwrap();
        let mut b = BodyBuilder::new(2);
        b.emit_output(Expr::input(1).mul(Expr::lit(3i64)).add(Expr::input(0)));
        let body = b.build();
        // Two thirds of the rows (the last CTA keeps none), then a fortieth:
        // fewer bytes than the column the body adds.
        for (t, gathered) in [(2 * n as u64 / 3, false), (n as u64 / 40, true)] {
            let pred = predicates::key_in_range(0, t);
            let kept = crate::ops::select_view(&View::of(&r), &pred).unwrap();
            assert_eq!(kept.gathers_first(1), gathered, "t={t}");
            let extended = arith_extend_view(&kept, &body).unwrap();
            let want = arith_extend(&crate::ops::select(&r, &pred).unwrap(), &body).unwrap();
            assert_eq!(materialize(extended), want, "t={t}");
        }
    }

    #[test]
    fn empty_input_keeps_schema() {
        let r = Relation::new(vec![], vec![Column::F64(vec![])]).unwrap();
        let out = arith_map(&r, &predicates::discounted_price(0, 0)).unwrap();
        assert_eq!(out.n_cols(), 1);
        assert!(out.is_empty());
        assert!(out.cols[0].as_f64().is_some(), "type inferred even when empty");
    }

    #[test]
    fn bool_outputs_become_i64_flags() {
        let r = Relation::from_keys(vec![1, 5, 9]);
        let mut b = BodyBuilder::new(1);
        b.emit_output(Expr::input(0).gt(Expr::lit(4i64)));
        let out = arith_map(&r, &b.build()).unwrap();
        assert_eq!(out.cols[0].as_i64().unwrap(), &[0, 1, 1]);
    }

    #[test]
    fn batch_and_scalar_engines_agree_bitwise() {
        let n = 5000usize;
        let keys: Vec<u64> = (0..n as u64).collect();
        let q: Vec<i64> = (0..n).map(|i| i as i64 * 31 - 700).collect();
        let p: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 100.0).collect();
        let r = Relation::new(keys, vec![Column::I64(q), Column::F64(p)]).unwrap();
        let mut b = BodyBuilder::new(3);
        b.emit_output(Expr::input(2).mul(Expr::lit(1.0f64).sub(Expr::input(2))));
        b.emit_output(Expr::input(1).mul(Expr::input(1)).add(Expr::input(0)));
        b.emit_output(Expr::input(1).gt(Expr::lit(100i64)));
        let body = b.build();
        engine::set_batch_enabled(false);
        let scalar = arith_map(&r, &body).unwrap();
        engine::set_batch_enabled(true);
        let batch = arith_map(&r, &body).unwrap();
        assert_eq!(*scalar.keys(), batch.key);
        for (a, c) in scalar.cols.iter().zip(&batch.cols) {
            match (a, c) {
                (Column::I64(x), Column::I64(y)) => assert_eq!(x, y),
                (Column::F64(x), Column::F64(y)) => {
                    assert!(x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits()))
                }
                _ => panic!("engines produced different column types"),
            }
        }
    }
}
