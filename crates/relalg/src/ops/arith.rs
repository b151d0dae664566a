//! Elementwise arithmetic over columns (the paper's ARITH operator,
//! Fig. 2(e)/(h)).
//!
//! An arithmetic map runs one IR body per tuple; each body output becomes a
//! column of the result. Like SELECT, it is a partition/compute/gather
//! multi-stage kernel, and because each output element depends on exactly
//! one input element it is freely fusable with its neighbours (dependence
//! class (i) of §III-C).

use crate::data::{Column, RelError, Relation};
use crate::engine;
use kfusion_ir::batch::{mask_lane, BankView, CompiledKernel, BATCH_ROWS};
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

/// Compute `body` per tuple; the result keeps the input keys and has one
/// column per body output (the sources are discarded, as PROJECT does in
/// the paper's ARITH→PROJECT idiom).
///
/// Runs on the vectorized batch engine when the body compiles against the
/// input's column types ([`crate::engine`]); otherwise falls back to the
/// per-tuple interpreter, preserving its error behavior.
pub fn arith_map(input: &Relation, body: &KernelBody) -> Result<Relation, RelError> {
    let (tys, parts) = arith_parts(input, body)?;
    let mut out = Relation { key: Vec::new(), cols: empty_cols(&tys, 0) };
    assemble_parallel(&mut out, &input.key, &[], &parts);
    Ok(out)
}

/// Assemble an ARITH output in parallel: the key copies from `key`, the
/// first `passthrough.len()` columns copy whole from `passthrough` (the
/// extend variant's sources), and the remaining columns concatenate the
/// per-chunk computed `parts` — every worker writing a disjoint window of
/// buffers sized once up front. `out` arrives with *empty* columns of the
/// output schema on purpose: the zeroed allocations requested here fault
/// their pages in on the workers that first write them rather than serially
/// up front. Small results assemble serially.
fn assemble_parallel(
    out: &mut Relation,
    key: &[u64],
    passthrough: &[Column],
    parts: &[Vec<Column>],
) {
    let n = key.len();
    let n_pass = passthrough.len();
    if n < crate::data::PAR_COPY_MIN_ROWS {
        out.key.extend_from_slice(key);
        for (d, s) in out.cols.iter_mut().zip(passthrough) {
            d.extend_from(s);
        }
        for p in parts {
            for (d, s) in out.cols[n_pass..].iter_mut().zip(p.iter()) {
                d.extend_from(s);
            }
        }
        return;
    }
    let Relation { key: out_key, cols: out_cols } = out;
    crate::data::resize_zeroed_vec(out_key, n);
    for c in out_cols.iter_mut() {
        c.resize_zeroed(n);
    }
    let lens: Vec<usize> = parts.iter().map(|p| p.first().map_or(0, Column::len)).collect();
    let (pass_cols, computed_cols) = out_cols.split_at_mut(n_pass);
    let computed_wins = crate::data::col_windows(computed_cols, &lens);
    std::thread::scope(|scope| {
        scope.spawn(|| out_key.copy_from_slice(key));
        for (d, s) in pass_cols.iter_mut().zip(passthrough) {
            scope.spawn(move || match (d, s) {
                (Column::I64(d), Column::I64(s)) => d.copy_from_slice(s),
                (Column::F64(d), Column::F64(s)) => d.copy_from_slice(s),
                _ => unreachable!("schema fixed by the caller"),
            });
        }
        for (cw, part) in computed_wins.into_iter().zip(parts) {
            scope.spawn(move || {
                for (mut w, s) in cw.into_iter().zip(part) {
                    w.copy_from(s);
                }
            });
        }
    });
}

/// Per-chunk output columns of `body` over `input`, on whichever engine
/// applies — the compute stage [`arith_map`] and both extends share.
fn arith_parts(
    input: &Relation,
    body: &KernelBody,
) -> Result<(Vec<Ty>, Vec<Vec<Column>>), RelError> {
    // ARITH preserves cardinality: rows out == rows in, counted up front.
    kfusion_trace::counter("kfusion_rows_in_total{op=\"arith\"}", input.len() as u64);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"arith\"}", input.len() as u64);
    if engine::batch_enabled() && !input.is_empty() {
        let compiled = CompiledKernel::compile(body, &input.ir_slot_types())
            .ok()
            .filter(|k| k.check_binding(&input.ir_cols()).is_ok());
        match compiled {
            Some(k) => return Ok(arith_parts_batch(input, &k)),
            None => kfusion_trace::counter("kfusion_batch_fallback_total{op=\"arith\"}", 1),
        }
    }
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
    let parts = parts.into_iter().collect::<Result<Vec<Vec<Column>>, RelError>>()?;
    Ok((tys, parts))
}

/// Batch-engine ARITH: each CTA evaluates the compiled kernel over
/// [`BATCH_ROWS`]-row batches and appends whole typed lanes to its output
/// columns. Boolean outputs become i64 flag columns, as in the scalar path.
fn arith_parts_batch(input: &Relation, k: &CompiledKernel) -> (Vec<Ty>, Vec<Vec<Column>>) {
    let tys: Vec<Ty> = (0..k.n_outputs()).map(|s| k.output_ty(s)).collect();
    let cols_in = input.ir_cols();
    let parts: Vec<Vec<Column>> = par_range_map(input.len(), DEFAULT_CTA_CHUNK, |_cta, range| {
        crate::scratch::with_scratch(|s| {
            // Per-morsel setup; the per-batch loop below runs inside a
            // steady-state region and appends into preallocated columns.
            let mut bm = s.machine(k);
            let mut cols = empty_cols(&tys, range.len());
            {
                let _steady = kfusion_trace::allocwatch::region();
                let mut base = range.start;
                while base < range.end {
                    let n = (range.end - base).min(BATCH_ROWS);
                    bm.run(k, &cols_in, base, n);
                    for (slot, col) in cols.iter_mut().enumerate() {
                        match (col, bm.output(k, slot)) {
                            (Column::I64(c), BankView::I64(v)) => c.extend_from_slice(&v[..n]),
                            (Column::F64(c), BankView::F64(v)) => c.extend_from_slice(&v[..n]),
                            (Column::I64(c), BankView::Bool(m)) => {
                                c.extend((0..n).map(|j| mask_lane(m, j) as i64))
                            }
                            _ => unreachable!("output column type fixed by compile"),
                        }
                    }
                    base += n;
                }
            }
            s.put_machine(k, bm);
            cols
        })
    });
    (tys, parts)
}

/// Like [`arith_map`] but *appends* the computed columns to the existing
/// payload instead of replacing it.
pub fn arith_extend(input: &Relation, body: &KernelBody) -> Result<Relation, RelError> {
    let (tys, parts) = arith_parts(input, body)?;
    let mut all_tys: Vec<Ty> = input
        .cols
        .iter()
        .map(|c| match c {
            Column::F64(_) => Ty::F64,
            Column::I64(_) => Ty::I64,
        })
        .collect();
    all_tys.extend_from_slice(&tys);
    let mut out = Relation { key: Vec::new(), cols: empty_cols(&all_tys, 0) };
    assemble_parallel(&mut out, &input.key, &input.cols, &parts);
    Ok(out)
}

/// [`arith_extend`] for a caller that owns the input relation: the computed
/// columns are appended in place, so the key and the existing payload are
/// never copied at all. The plan executor routes single-consumer owned
/// intermediates here — on the TPC-H plans that removes the widest copies
/// of the whole query.
pub fn arith_extend_owned(mut input: Relation, body: &KernelBody) -> Result<Relation, RelError> {
    let (tys, parts) = arith_parts(&input, body)?;
    let n = input.len();
    let mut computed = empty_cols(&tys, 0);
    if n < crate::data::PAR_COPY_MIN_ROWS {
        for p in &parts {
            for (d, s) in computed.iter_mut().zip(p) {
                d.extend_from(s);
            }
        }
    } else {
        for c in computed.iter_mut() {
            c.resize_zeroed(n);
        }
        let lens: Vec<usize> = parts.iter().map(|p| p.first().map_or(0, Column::len)).collect();
        let wins = crate::data::col_windows(&mut computed, &lens);
        std::thread::scope(|scope| {
            for (cw, part) in wins.into_iter().zip(&parts) {
                scope.spawn(move || {
                    for (mut w, s) in cw.into_iter().zip(part) {
                        w.copy_from(s);
                    }
                });
            }
        });
    }
    input.cols.extend(computed);
    Ok(input)
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
        assert_eq!(out.key, vec![1, 2]);
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
        let out = arith_extend(&r, &b.build()).unwrap();
        assert_eq!(out.n_cols(), 2);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[5]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[-5]);
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
        assert_eq!(scalar.key, batch.key);
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
