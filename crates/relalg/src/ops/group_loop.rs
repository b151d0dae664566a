//! One loop per fusion group: a chain of SELECT, ARITH+ and REKEY members —
//! or of ARITH+ members ending in a keyed AGGREGATE — run as one compiled
//! kernel over one walk of morsels (paper §III-C: a fused kernel's
//! intermediates "live in registers instead of GPU global memory",
//! Fig. 7(c)).
//!
//! The members' bodies are spliced into one body ([`kfusion_ir::fuse`]) and
//! compiled once for the batch engine. Per [`BATCH_ROWS`] batch the kernel
//! runs once: each SELECT's predicate is ANDed into the selection mask,
//! ARITH+ outputs stay in the batch's banks, and REKEY writes its key
//! straight from a bank. What leaves the chain is written once: the
//! selection and the key a REKEY computes — or, for a chain that ends in a
//! keyed AGGREGATE, only the groups it folds, read from the banks and the
//! input's columns ([`super::aggregate`]'s folds, batch by batch).
//!
//! The members before the last hand on nothing: the loop reports their
//! sizes ([`Stage::Passed`]). The unfused operators stay the oracle — a
//! chain the loop cannot run as they would (the scalar engine, a body the
//! batch engine declines, a static error, a last member that would hold an
//! ARITH+ column, an AGGREGATE over a view that is neither grouped nor
//! dense) is cut to the longest prefix it can run, and a chain of one
//! member is that member's own operator.

use super::aggregate::{col_vals, fold_keyed, Bound, Vals};
use super::arith::count_rows;
use super::{aggregate_by_key_view, arith_extend_view, rekey_view, select_run_view, Agg};
use crate::data::{resize_zeroed_vec, slice_windows, Column, RelError, Relation};
use crate::engine;
use crate::view::View;
use kfusion_ir::batch::{BankView, BatchMachine, ColRef, CompiledKernel, BATCH_ROWS, MASK_WORDS};
use kfusion_ir::fuse::{fuse, FusedOutput, SlotSource};
use kfusion_ir::{KernelBody, Ty};
use kfusion_vgpu::exec::{cta_ranges, par_map, DEFAULT_CTA_CHUNK};
use std::ops::Range;

/// One member of a chain a fused group runs as one loop, in chain order:
/// each reads the one before (the first, the chain's input).
#[derive(Debug, Clone, Copy)]
pub enum Member<'k> {
    /// SELECT by a predicate.
    Select(&'k KernelBody),
    /// ARITH+: the body's outputs appended as columns.
    ArithExtend(&'k KernelBody),
    /// REKEY by a payload column.
    Rekey(usize),
    /// Keyed AGGREGATE — only last, behind ARITH+ members alone.
    Aggregate(&'k [Agg]),
}

/// What a chain's loop gives one member it covers.
#[derive(Debug)]
pub enum Stage<'a> {
    /// A member whose output stayed in the loop: its size, as its own
    /// operator's output would measure it ([`View::len`],
    /// [`View::row_bytes`]).
    Passed {
        /// Tuples.
        rows: usize,
        /// Bytes per tuple once materialized.
        row_bytes: u64,
    },
    /// The last member covered, as the view its operator would return.
    View(View<'a>),
    /// The last member covered, a keyed AGGREGATE's groups.
    Folded(Relation),
}

/// Run `members` over `input` as one loop where the batch engine can:
/// one result per member covered, in order, ending at the first error.
/// The covered members are a prefix of the chain, at least its first — the
/// caller evaluates the rest, from the last covered member's output. Every
/// member but the last covered is [`Stage::Passed`] — unless the chain is
/// SELECTs alone, which [`select_run_view`] runs, a view per member.
pub fn group_loop_view<'a>(
    input: &View<'a>,
    members: &[Member<'_>],
) -> Vec<Result<Stage<'a>, RelError>> {
    for len in (2..=members.len()).rev() {
        let chain = &members[..len];
        if let Some(preds) = selects(chain) {
            return match select_run_view(input, &preds) {
                Ok(views) => views.into_iter().map(|v| Ok(Stage::View(v))).collect(),
                Err(e) => vec![Err(e)],
            };
        }
        if let Some(group) = Loop::build(input, chain) {
            return group.run(input);
        }
    }
    match members.first() {
        Some(&member) => vec![alone(input, member)],
        None => Vec::new(),
    }
}

/// The predicates of a chain of SELECTs alone.
fn selects<'k>(chain: &[Member<'k>]) -> Option<Vec<&'k KernelBody>> {
    chain
        .iter()
        .map(|m| match m {
            Member::Select(pred) => Some(*pred),
            _ => None,
        })
        .collect()
}

/// One member over `input` by its own operator.
fn alone<'a>(input: &View<'a>, member: Member<'_>) -> Result<Stage<'a>, RelError> {
    Ok(match member {
        Member::Select(pred) => Stage::View(super::select_view(input, pred)?),
        Member::ArithExtend(body) => Stage::View(arith_extend_view(input, body)?),
        Member::Rekey(col) => Stage::View(rekey_view(input, col)?),
        Member::Aggregate(aggs) => Stage::Folded(aggregate_by_key_view(input, aggs)?),
    })
}

/// A column of a chain's schema, as the loop sees it: input slot `Ext(s)`
/// of the chain's input (0 the key, `1 + c` payload column `c`), or output
/// `Out(o)` of the spliced kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    Ext(u32),
    Out(usize),
}

/// What one member does in the loop.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// AND kernel output `mask` into the selection.
    Select { mask: usize },
    /// Append the body's kernel outputs as columns.
    Arith,
    /// Take the key from `key` — checked non-negative where selected.
    Rekey { key: Src },
    /// Fold the aggregates.
    Aggregate,
}

/// A chain ready to run: its spliced kernel (none when no member carries a
/// body), each member's step and the width of its output, and what the
/// last member's output holds.
struct Loop<'k> {
    kernel: Option<CompiledKernel>,
    steps: Vec<(Step, usize)>,
    /// The last member's payload columns.
    cols: Vec<Src>,
    /// Whether a member selects.
    selects: bool,
    aggs: Option<&'k [Agg]>,
}

impl<'k> Loop<'k> {
    /// Splice and compile `chain` over `input`, or `None` where the loop
    /// cannot run it as the members' own operators would: the batch engine
    /// is off or declines the spliced body, a predicate is not boolean, a
    /// member names a column its input lacks or of the wrong type, there
    /// are two REKEYs, or an AGGREGATE follows anything but ARITH+ or reads
    /// a view that is neither grouped nor dense.
    fn build(input: &View<'_>, chain: &[Member<'k>]) -> Option<Loop<'k>> {
        if !engine::batch_enabled() || input.is_empty() {
            return None;
        }
        let width = 1 + input.n_cols() as u32;
        let mut key = Src::Ext(0);
        let mut cols: Vec<Src> = (1..width).map(Src::Ext).collect();
        let (mut bodies, mut wiring, mut outputs) = (Vec::new(), Vec::new(), Vec::new());
        let mut steps = Vec::with_capacity(chain.len());
        let mut aggs = None;
        let mut fresh = width;
        for (m, &member) in chain.iter().enumerate() {
            let step = match member {
                Member::Select(body) | Member::ArithExtend(body) => {
                    let wires = (0..body.n_inputs as usize)
                        .map(|s| {
                            let src = if s == 0 { Some(key) } else { cols.get(s - 1).copied() };
                            match src {
                                Some(Src::Ext(slot)) => SlotSource::External(slot),
                                Some(Src::Out(o)) => outputs_source(&outputs, o),
                                // A slot past the schema: bound to nothing,
                                // so the binding check declines a body that
                                // loads it.
                                None => {
                                    fresh += 1;
                                    SlotSource::External(fresh - 1)
                                }
                            }
                        })
                        .collect();
                    let (b, first) = (bodies.len(), outputs.len());
                    outputs.extend(
                        (0..body.outputs.len()).map(|output| FusedOutput { body: b, output }),
                    );
                    bodies.push(body.clone());
                    wiring.push(wires);
                    match member {
                        Member::Select(_) if !body.outputs.is_empty() => {
                            Step::Select { mask: first }
                        }
                        Member::Select(_) => return None,
                        _ => {
                            cols.extend((first..outputs.len()).map(Src::Out));
                            Step::Arith
                        }
                    }
                }
                Member::Rekey(col) => {
                    let rekeyed = steps.iter().any(|(s, _)| matches!(s, Step::Rekey { .. }));
                    if col >= cols.len() || rekeyed {
                        return None;
                    }
                    key = cols.remove(col);
                    Step::Rekey { key }
                }
                Member::Aggregate(list) => {
                    let after_arith = steps.iter().all(|(s, _)| matches!(s, Step::Arith));
                    let readable = input.is_grouped() || input.is_dense();
                    let named = list.iter().all(|agg| agg.col().is_none_or(|c| c < cols.len()));
                    if m + 1 != chain.len() || !after_arith || !readable || !named {
                        return None;
                    }
                    aggs = Some(list);
                    Step::Aggregate
                }
            };
            steps.push((step, cols.len()));
        }
        // A last member that holds an ARITH+ column would write it at base
        // length where its operator may gather the few rows first: such a
        // chain ends before it, and nothing is spliced for it.
        if aggs.is_none() && cols.iter().any(|c| matches!(c, Src::Out(_))) {
            return None;
        }
        let kernel = match bodies.is_empty() {
            true => None,
            false => {
                let spliced = fuse(&bodies, &wiring, &outputs).ok()?;
                let k = CompiledKernel::compile(&spliced, &input.ir_slot_types()).ok()?;
                k.check_binding(&input.ir_cols()).ok()?;
                Some(k)
            }
        };
        let ty = |src: Src| match src {
            Src::Ext(slot) => input.ir_cols()[slot as usize].ty(),
            Src::Out(o) => kernel.as_ref().expect("an output has a kernel").output_ty(o),
        };
        let masks_are_flags = steps.iter().all(|(s, _)| match s {
            Step::Select { mask } => ty(Src::Out(*mask)) == Ty::Bool,
            Step::Rekey { key } => ty(*key) == Ty::I64,
            _ => true,
        });
        let folds_numbers = aggs.is_none_or(|list| {
            list.iter().filter_map(|&agg| agg.col()).all(|c| ty(cols[c]) != Ty::Bool)
        });
        let selects = steps.iter().any(|(s, _)| matches!(s, Step::Select { .. }));
        (masks_are_flags && folds_numbers).then_some(Loop { kernel, steps, cols, selects, aggs })
    }

    /// Run the loop: a fold for a chain that ends in an AGGREGATE, a walk
    /// of morsels that writes what leaves the chain otherwise.
    fn run<'a>(&self, input: &View<'a>) -> Vec<Result<Stage<'a>, RelError>> {
        match self.aggs {
            Some(aggs) => self.fold(input, aggs),
            None => self.walk(input),
        }
    }

    /// ARITH+ members then a keyed AGGREGATE: the aggregates fold the
    /// input's columns and the kernel's outputs, batch by batch; nothing
    /// is written but the groups.
    fn fold<'a>(&self, input: &View<'a>, aggs: &[Agg]) -> Vec<Result<Stage<'a>, RelError>> {
        let mut srcs = col_vals(input);
        for &src in &self.cols[input.n_cols()..] {
            let Src::Out(slot) = src else { unreachable!("ARITH+ appends kernel outputs") };
            let f64 = self.kernel.as_ref().expect("outputs come from a kernel").output_ty(slot);
            srcs.push(Vals::Out { slot, f64: f64 == Ty::F64 });
        }
        let computed = aggs.iter().filter_map(|&agg| agg.col()).any(|c| c >= input.n_cols());
        let cols = input.ir_cols();
        let bound =
            self.kernel.as_ref().filter(|_| computed).map(|kernel| Bound { kernel, cols: &cols });
        let mut stages = self.passed(input.len(), self.steps.len() - 1);
        let mut out = Relation::default();
        stages.push(
            fold_keyed(input, aggs, &srcs, bound.as_ref(), &mut out).map(|()| Stage::Folded(out)),
        );
        stages
    }

    /// [`Stage::Passed`] for the first `members` members, each of `rows`
    /// tuples — they select nothing.
    fn passed<'a>(&self, rows: usize, members: usize) -> Vec<Result<Stage<'a>, RelError>> {
        self.steps[..members]
            .iter()
            .map(|&(_, width)| {
                count_rows(rows);
                Ok(Stage::Passed { rows, row_bytes: row_bytes(width) })
            })
            .collect()
    }

    /// SELECT, ARITH+ and REKEY members: one walk of morsels over the
    /// input's base rows, each batch run through the kernel once; what
    /// leaves the chain — the last member's selection and key — is written
    /// once, at base length, where the view is.
    fn walk<'a>(&self, input: &View<'a>) -> Vec<Result<Stage<'a>, RelError>> {
        let base_len = input.base_len();
        let rekey = self.steps.iter().find_map(|&(s, _)| match s {
            Step::Rekey { key } => Some(key),
            _ => None,
        });
        let mut key: Vec<u64> = Vec::new();
        if rekey.is_some() {
            resize_zeroed_vec(&mut key, base_len);
            let bytes = base_len as u64 * Column::BYTES_PER_VALUE;
            kfusion_trace::counter("kfusion_host_computed_bytes_total", bytes);
        }
        let ranges = cta_ranges(base_len, DEFAULT_CTA_CHUNK);
        kfusion_trace::counter("kfusion_host_morsels_total", ranges.len() as u64);
        let lens: Vec<usize> = ranges.iter().map(Range::len).collect();
        let key_windows: Vec<&mut [u64]> = match rekey {
            Some(_) => slice_windows(&mut key, &lens),
            None => ranges.iter().map(|_| &mut [][..]).collect(),
        };
        let cols = input.ir_cols();
        let morsels: Vec<_> = ranges.into_iter().zip(key_windows).collect();
        let parts = par_map(morsels, |_, (range, key)| self.morsel(input, &cols, range, key));
        // Each member's rows, the selection, and whether a selected key is
        // negative, over all morsels.
        let mut rows = vec![0usize; self.steps.len()];
        let mut sel: Vec<u64> =
            Vec::with_capacity(if self.selects { base_len.div_ceil(64) } else { 0 });
        let mut negative = false;
        for part in parts {
            rows.iter_mut().zip(&part.rows).for_each(|(total, r)| *total += r);
            sel.extend_from_slice(&part.sel);
            negative |= part.negative;
        }
        let mut stages = Vec::with_capacity(self.steps.len());
        let mut upstream = input.len();
        for (m, &(step, width)) in self.steps.iter().enumerate() {
            match step {
                Step::Select { .. } => {
                    kfusion_trace::counter("kfusion_rows_in_total{op=\"select\"}", upstream as u64);
                    kfusion_trace::counter("kfusion_rows_out_total{op=\"select\"}", rows[m] as u64);
                }
                Step::Arith => count_rows(rows[m]),
                Step::Rekey { .. } if negative => {
                    stages.push(Err(RelError::SchemaMismatch));
                    return stages;
                }
                _ => {}
            }
            upstream = rows[m];
            stages.push(Ok(Stage::Passed { rows: rows[m], row_bytes: row_bytes(width) }));
        }
        // The last member's view: the input's columns it keeps, under the
        // chain's selection and key.
        let kept: Vec<usize> = self
            .cols
            .iter()
            .map(|&src| match src {
                Src::Ext(slot) => slot as usize - 1,
                Src::Out(_) => unreachable!("the last member holds no computed column"),
            })
            .collect();
        let mut view = match self.selects {
            true => input.with_selection(sel, upstream),
            false => input.clone(),
        };
        view = view.with_columns(&kept);
        if rekey.is_some() {
            view = view.with_key(key);
        }
        *stages.last_mut().expect("a chain has members") = Ok(Stage::View(view));
        stages
    }

    /// One morsel of [`Loop::walk`]: base rows `range` and its window of the
    /// key, the kernel run per batch with a live row in it.
    fn morsel(
        &self,
        input: &View<'_>,
        cols: &[ColRef<'_>],
        range: Range<usize>,
        key: &mut [u64],
    ) -> Part {
        let mut part = Part {
            rows: vec![0; self.steps.len()],
            sel: Vec::with_capacity(if self.selects { range.len().div_ceil(64) } else { 0 }),
            negative: false,
        };
        let Some(k) = self.kernel.as_ref() else {
            // REKEY alone by an input column: no kernel to run.
            let _steady = kfusion_trace::allocwatch::region();
            self.batches(input, cols, range, key, &mut part, None);
            return part;
        };
        crate::scratch::with_scratch(|s| {
            let mut bm = s.machine(k);
            {
                let _steady = kfusion_trace::allocwatch::region();
                self.batches(input, cols, range, key, &mut part, Some((k, &mut bm)));
            }
            s.put_machine(k, bm);
        });
        part
    }

    /// The batches of one morsel: per batch, the rows the input holds, each
    /// member's mask or check in chain order, and the key.
    fn batches(
        &self,
        input: &View<'_>,
        cols: &[ColRef<'_>],
        range: Range<usize>,
        key: &mut [u64],
        part: &mut Part,
        mut run: Option<(&CompiledKernel, &mut BatchMachine)>,
    ) {
        let mut live = [0u64; MASK_WORDS];
        let mut base = range.start;
        while base < range.end {
            let n = (range.end - base).min(BATCH_ROWS);
            let live = &mut live[..n.div_ceil(64)];
            // The rows the input holds, lanes past `n` clear.
            match input.selection() {
                Some(sel) => live.copy_from_slice(&sel[base / 64..][..live.len()]),
                None => {
                    live.fill(u64::MAX);
                    if !n.is_multiple_of(64) {
                        live[n / 64] = (1u64 << (n % 64)) - 1;
                    }
                }
            }
            if live.iter().any(|&w| w != 0) {
                if let Some((k, bm)) = run.as_mut() {
                    bm.run(k, cols, base, n);
                }
                let done = run.as_ref().map(|(k, bm)| (*k, &**bm));
                self.members(
                    done,
                    cols,
                    base..base + n,
                    &mut key[base - range.start..][..n],
                    live,
                    part,
                );
            }
            if self.selects {
                part.sel.extend_from_slice(live);
            }
            base += n;
        }
    }

    /// Each member's step over one batch of base rows `rows`, whose live
    /// lanes are `live`: a SELECT narrows them, a REKEY writes `key` and
    /// checks the live lanes; every member counts what it holds.
    fn members(
        &self,
        done: Option<(&CompiledKernel, &BatchMachine)>,
        cols: &[ColRef<'_>],
        rows: Range<usize>,
        key: &mut [u64],
        live: &mut [u64],
        part: &mut Part,
    ) {
        let bank = |o: usize| {
            let (k, bm) = done.expect("an output has a kernel");
            bm.output(k, o)
        };
        for (m, &(step, _)) in self.steps.iter().enumerate() {
            match step {
                Step::Select { mask } => {
                    let BankView::Bool(mask) = bank(mask) else { unreachable!("checked Bool") };
                    // The mask's own lanes past the batch are unspecified;
                    // `live` keeps them clear.
                    live.iter_mut().zip(mask).for_each(|(l, &m)| *l &= m);
                }
                Step::Rekey { key: src } => {
                    let vals = match src {
                        Src::Out(o) => match bank(o) {
                            BankView::I64(v) => &v[..rows.len()],
                            _ => unreachable!("checked i64"),
                        },
                        Src::Ext(slot) => match cols[slot as usize] {
                            ColRef::I64(v) => &v[rows.clone()],
                            _ => unreachable!("checked i64"),
                        },
                    };
                    for (k, &v) in key.iter_mut().zip(vals) {
                        *k = v as u64;
                    }
                    part.negative |= vals.chunks(64).zip(live.iter()).any(|(lanes, &word)| {
                        match word {
                            0 => false,
                            // Every lane live: one OR of the sign bits.
                            u64::MAX => lanes.iter().fold(0, |signs, &v| signs | v) < 0,
                            _ => {
                                let lanes = lanes.iter().enumerate();
                                lanes.fold(0u64, |w, (j, &v)| w | ((v < 0) as u64) << j) & word != 0
                            }
                        }
                    });
                }
                Step::Arith | Step::Aggregate => {}
            }
            part.rows[m] += live.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        }
    }
}

/// What one morsel of [`Loop::walk`] found: each member's rows, the
/// morsel's words of the last selection (when the chain selects), and
/// whether the REKEY met a negative key on a selected row.
struct Part {
    rows: Vec<usize>,
    sel: Vec<u64>,
    negative: bool,
}

/// Where output `o` of the splice so far comes from, for a later body's
/// wiring.
fn outputs_source(outputs: &[FusedOutput], o: usize) -> SlotSource {
    SlotSource::Producer { body: outputs[o].body, output: outputs[o].output }
}

/// Bytes per tuple of `width` payload columns and a key.
fn row_bytes(width: usize) -> u64 {
    (1 + width as u64) * Column::BYTES_PER_VALUE
}
