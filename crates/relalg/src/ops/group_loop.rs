//! One loop per fusion group: a chain of SELECT, ARITH+ and REKEY members —
//! or of ARITH+ members ending in a keyed AGGREGATE — run as one compiled
//! kernel over one walk of morsels (paper §III-C: a fused kernel's
//! intermediates "live in registers instead of GPU global memory",
//! Fig. 7(c)). It is the one code that runs a compiled kernel over a view
//! and writes what leaves it: a lone SELECT, ARITH+ or REKEY is the
//! one-member loop ([`super::select_view`], [`super::arith_extend_view`],
//! [`super::rekey_view`]).
//!
//! The members' bodies are spliced into one body ([`kfusion_ir::fuse`]) and
//! compiled once for the batch engine. Per [`BATCH_ROWS`] batch the kernel
//! runs once: each SELECT's predicate is ANDed into the selection mask,
//! ARITH+ outputs stay in the batch's banks, and REKEY writes its key
//! straight from a bank. What leaves the chain is written once, at base
//! length: the selection, the key a REKEY computes and the ARITH+ columns
//! the last member holds — or, for a chain that ends in a keyed AGGREGATE,
//! only the groups it folds, read from the banks and the input's columns
//! ([`super::aggregate`]'s folds, batch by batch).
//!
//! The members before the last hand on nothing: the loop reports their
//! sizes ([`Stage::Passed`]). The unfused operators stay the oracle — a
//! chain the loop cannot run as they would is cut to the longest prefix it
//! can run ([`Loop::build`] is the one rule set for what a loop covers),
//! and a member no loop can run takes its operator's fallback, the
//! interpreter. A run of SELECTs is such a chain — the paper's fused Q6
//! kernel (Fig. 6), one walk for every predicate.

use super::aggregate::{col_vals, fold_keyed, Vals};
use super::arith::count_rows;
use super::{aggregate_by_key_view, arith_extend_view, rekey_view, Agg};
use crate::data::{col_windows, slice_windows, ColWindow, Column, Keys, RelError, Relation};
use crate::engine;
use crate::view::{self, Batch, Bound, View};
use kfusion_ir::batch::{mask_lane, BankView, ColRef, CompiledKernel, MASK_WORDS};
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
/// member but the last covered is [`Stage::Passed`].
pub fn group_loop_view<'a>(
    input: &View<'a>,
    members: &[Member<'_>],
) -> Vec<Result<Stage<'a>, RelError>> {
    for len in (2..=members.len()).rev() {
        if let Some(stages) = whole(input, &members[..len]) {
            return stages;
        }
    }
    match members.first() {
        Some(&member) => vec![alone(input, member)],
        None => Vec::new(),
    }
}

/// `chain` over `input` as one loop — a result per member — or `None`
/// where the loop cannot run all of it as the members' operators would
/// ([`Loop::build`]).
fn whole<'a>(input: &View<'a>, chain: &[Member<'_>]) -> Option<Vec<Result<Stage<'a>, RelError>>> {
    let group = Loop::build(input, chain)?;
    Some(match group.aggs {
        Some(aggs) => group.fold(input, aggs),
        None => group.walk(input),
    })
}

/// `member` — a SELECT, ARITH+ or REKEY — over `input` as the one-member
/// loop: the view its operator returns, or its error; `None` where
/// [`Loop::build`] declines it and the operator takes its fallback.
pub(crate) fn lone<'a>(input: &View<'a>, member: Member<'_>) -> Option<Result<View<'a>, RelError>> {
    let mut stages = whole(input, &[member])?;
    Some(match stages.pop() {
        Some(Ok(Stage::View(view))) => Ok(view),
        Some(Err(e)) => Err(e),
        _ => unreachable!("a one-member walk ends in its view or its error"),
    })
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
    /// cannot run it as the members' own operators would — the one place
    /// that decides what a loop covers: a member carries a body and the
    /// batch engine is off, has no row to run on or declines the spliced
    /// body; a predicate is not boolean; a member names a column its input
    /// lacks or of the wrong type; there are two REKEYs; an AGGREGATE
    /// follows anything but ARITH+; or a chain that selects would end in a
    /// member holding an ARITH+ column.
    fn build(input: &View<'_>, chain: &[Member<'k>]) -> Option<Loop<'k>> {
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
                    let named = list.iter().all(|agg| agg.col().is_none_or(|c| c < cols.len()));
                    if m + 1 != chain.len() || !after_arith || !named {
                        return None;
                    }
                    aggs = Some(list);
                    Step::Aggregate
                }
            };
            steps.push((step, cols.len()));
        }
        // A chain that selects ends before a last member that would hold an
        // ARITH+ column: the plan executor may gather the few rows a selection
        // keeps before that member runs (its bytes rule, `View::gathers_first`),
        // and how few they are is known only once the walk has run. Nothing
        // is spliced for it.
        let selects = steps.iter().any(|(s, _)| matches!(s, Step::Select { .. }));
        if aggs.is_none() && selects && cols.iter().any(|c| matches!(c, Src::Out(_))) {
            return None;
        }
        let kernel = match bodies.is_empty() {
            // A chain without a body (a lone REKEY) compiles nothing.
            true => None,
            false if !engine::batch_enabled() || input.is_empty() => return None,
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
        (masks_are_flags && folds_numbers).then_some(Loop { kernel, steps, cols, selects, aggs })
    }

    /// The type of the spliced kernel's output `o`.
    fn output_ty(&self, o: usize) -> Ty {
        self.kernel.as_ref().expect("an output has a kernel").output_ty(o)
    }

    /// ARITH+ members then a keyed AGGREGATE: the aggregates fold the
    /// input's columns and the kernel's outputs, batch by batch; nothing
    /// is written but the groups.
    fn fold<'a>(&self, input: &View<'a>, aggs: &[Agg]) -> Vec<Result<Stage<'a>, RelError>> {
        let mut srcs = col_vals(input);
        for &src in &self.cols[input.n_cols()..] {
            let Src::Out(slot) = src else { unreachable!("ARITH+ appends kernel outputs") };
            srcs.push(Vals::Out { slot, f64: self.output_ty(slot) == Ty::F64 });
        }
        let computed = aggs.iter().filter_map(|&agg| agg.col()).any(|c| c >= input.n_cols());
        let cols = input.ir_cols();
        let bound =
            self.kernel.as_ref().filter(|_| computed).map(|kernel| Bound { kernel, cols: &cols });
        let mut stages = self.passed(input.len(), self.steps.len() - 1);
        stages.push(fold_keyed(input, aggs, &srcs, bound.as_ref()).map(Stage::Folded));
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
    /// input's base rows, each batch with a live row run through the kernel
    /// once; what leaves the chain — the last member's selection, its key
    /// and the ARITH+ columns it holds — is written once, at base length,
    /// where the view is. A walk that selects counts its morsels
    /// (`kfusion_host_morsels_total`, the passes SELECT makes over a table).
    fn walk<'a>(&self, input: &View<'a>) -> Vec<Result<Stage<'a>, RelError>> {
        let base_len = input.base_len();
        let rekey = self.steps.iter().find_map(|&(s, _)| match s {
            Step::Rekey { key } => Some(key),
            _ => None,
        });
        // The input's columns the last member keeps, then the kernel outputs
        // it holds: ARITH+ appends its outputs after every column.
        let (mut kept, mut held) = (Vec::new(), Vec::new());
        for &src in &self.cols {
            match src {
                Src::Ext(slot) => kept.push(slot as usize - 1),
                Src::Out(o) => held.push(o),
            }
        }
        // Zeroed buffers fault their pages in on the workers that write them.
        let mut computed: Vec<Column> = held
            .iter()
            .map(|&o| match self.output_ty(o) {
                Ty::F64 => Column::F64(vec![0.0; base_len]),
                _ => Column::I64(vec![0; base_len]),
            })
            .collect();
        let mut key = vec![0u64; if rekey.is_some() { base_len } else { 0 }];
        let mut sel = vec![0u64; if self.selects { base_len.div_ceil(64) } else { 0 }];
        let written = computed.len() + rekey.is_some() as usize;
        if written > 0 {
            let bytes = (written * base_len) as u64 * Column::BYTES_PER_VALUE;
            kfusion_trace::counter("kfusion_host_computed_bytes_total", bytes);
        }
        let ranges = cta_ranges(base_len, DEFAULT_CTA_CHUNK);
        if self.selects {
            kfusion_trace::counter("kfusion_host_morsels_total", ranges.len() as u64);
        }
        // Each morsel's windows of the key, the selection and the columns —
        // empty ones of what the chain does not write.
        let lens = |on: bool, len: fn(usize) -> usize| -> Vec<usize> {
            ranges.iter().map(|r| if on { len(r.len()) } else { 0 }).collect()
        };
        let keys = slice_windows(&mut key, &lens(rekey.is_some(), |n| n));
        let sels = slice_windows(&mut sel, &lens(self.selects, |n| n.div_ceil(64)));
        let outs = col_windows(&mut computed, &lens(true, |n| n));
        let windows = keys.into_iter().zip(sels).zip(outs).map(|((key, sel), cols)| Windows {
            key,
            sel,
            cols: held.iter().copied().zip(cols).collect(),
        });
        let cols = input.ir_cols();
        let morsels: Vec<_> = ranges.into_iter().zip(windows).collect();
        let parts = par_map(morsels, |_, (range, out)| self.morsel(input, &cols, range, out));
        // Each member's rows, and whether a selected key is negative, over
        // all morsels.
        let mut rows = vec![0usize; self.steps.len()];
        let mut negative = false;
        for part in parts {
            rows.iter_mut().zip(&part.rows).for_each(|(total, r)| *total += r);
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
        // The last member's view: the input's columns it keeps and the
        // columns it holds, under the chain's selection and key.
        let mut view = match self.selects {
            true => input.with_selection(sel, upstream),
            false => input.clone(),
        };
        view = view.with_columns(&kept);
        if !computed.is_empty() {
            view = view.with_computed(computed);
        }
        if rekey.is_some() {
            view = view.with_key(Keys::Stored(key));
        }
        *stages.last_mut().expect("a chain has members") = Ok(Stage::View(view));
        stages
    }

    /// One morsel of [`Loop::walk`]: base rows `range`, and its windows of
    /// what the walk writes — per batch with a live row, the rows the input
    /// holds, each member's mask or check in chain order, the key and the
    /// held outputs' lanes (a `Bool` output as 0/1 flags).
    fn morsel(
        &self,
        input: &View<'_>,
        cols: &[ColRef<'_>],
        range: Range<usize>,
        mut out: Windows<'_>,
    ) -> Part {
        let mut part = Part { rows: vec![0; self.steps.len()], negative: false };
        let kernel = self.kernel.as_ref().map(|kernel| Bound { kernel, cols });
        let mut live = [0u64; MASK_WORDS];
        view::walk(input, range.clone(), kernel, |batch| {
            let n = batch.rows.len();
            let live = &mut live[..n.div_ceil(64)];
            match batch.words {
                Some(words) => live.copy_from_slice(words),
                None => {
                    live.fill(u64::MAX);
                    if !n.is_multiple_of(64) {
                        live[n / 64] = (1u64 << (n % 64)) - 1;
                    }
                }
            }
            let at = batch.rows.start - range.start;
            self.members(batch, cols, out.key, at, live, &mut part);
            if self.selects {
                out.sel[at / 64..][..live.len()].copy_from_slice(live);
            }
            for (o, window) in &mut out.cols {
                match (window, batch.output(*o)) {
                    (ColWindow::I64(d), BankView::I64(v)) => d[at..][..n].copy_from_slice(&v[..n]),
                    (ColWindow::F64(d), BankView::F64(v)) => d[at..][..n].copy_from_slice(&v[..n]),
                    (ColWindow::I64(d), BankView::Bool(m)) => {
                        for (j, lane) in d[at..][..n].iter_mut().enumerate() {
                            *lane = mask_lane(m, j) as i64;
                        }
                    }
                    _ => unreachable!("a column has its output's type"),
                }
            }
        });
        part
    }

    /// Each member's step over one batch, whose live lanes are `live`: a
    /// SELECT narrows them, a REKEY writes the batch's lanes of `key` — the
    /// morsel's window, the batch at `at` in it — and checks the live
    /// lanes; every member counts what it holds.
    fn members(
        &self,
        batch: &Batch<'_>,
        cols: &[ColRef<'_>],
        key: &mut [u64],
        at: usize,
        live: &mut [u64],
        part: &mut Part,
    ) {
        let rows = batch.rows.clone();
        for (m, &(step, _)) in self.steps.iter().enumerate() {
            match step {
                Step::Select { mask } => {
                    let BankView::Bool(mask) = batch.output(mask) else {
                        unreachable!("checked Bool")
                    };
                    // The mask's own lanes past the batch are unspecified;
                    // `live` keeps them clear.
                    live.iter_mut().zip(mask).for_each(|(l, &m)| *l &= m);
                }
                Step::Rekey { key: src } => {
                    let vals = match src {
                        Src::Out(o) => match batch.output(o) {
                            BankView::I64(v) => &v[..rows.len()],
                            _ => unreachable!("checked i64"),
                        },
                        Src::Ext(slot) => match cols[slot as usize] {
                            ColRef::I64(v) => &v[rows.clone()],
                            _ => unreachable!("checked i64"),
                        },
                    };
                    for (k, &v) in key[at..][..rows.len()].iter_mut().zip(vals) {
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

/// One morsel's windows of what [`Loop::walk`] writes — empty where the
/// chain writes nothing: the key, the selection, and a window of each
/// column the last member holds with the kernel output it takes.
struct Windows<'w> {
    key: &'w mut [u64],
    sel: &'w mut [u64],
    cols: Vec<(usize, ColWindow<'w>)>,
}

/// What one morsel of [`Loop::walk`] found: each member's rows, and
/// whether the REKEY met a negative key on a selected row.
struct Part {
    rows: Vec<usize>,
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
