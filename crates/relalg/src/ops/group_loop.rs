//! One loop per fusion group: a chain of SELECT, ARITH+ and REKEY members —
//! or of ARITH+ members ending in a keyed AGGREGATE, or of SELECTs, then
//! ARITH+ members, ending in an AGGREGATE* — run as one compiled
//! kernel over one walk of morsels (paper §III-C: a fused kernel's
//! intermediates "live in registers instead of GPU global memory",
//! Fig. 7(c)). It is the one code that runs a compiled kernel over a view
//! and writes what leaves it: a lone SELECT, ARITH+ or REKEY is the
//! one-member loop ([`super::select_view`], [`super::arith_extend_view`],
//! [`super::rekey_view`]).
//!
//! The members' bodies are spliced into one body ([`kfusion_ir::fuse`]) and
//! compiled once for the batch engine. Per [`BATCH_ROWS`](kfusion_ir::batch::BATCH_ROWS) batch the kernel
//! runs once: each SELECT's predicate is ANDed into the selection mask,
//! ARITH+ outputs stay in the batch's banks, and REKEY writes its key
//! straight from a bank. What leaves the chain is written once, at base
//! length: the selection, the key a REKEY computes and the ARITH+ columns
//! the last member holds — or, for a chain that ends in a keyed AGGREGATE,
//! only the groups it folds, read from the banks and the input's columns
//! ([`super::aggregate`]'s folds, batch by batch). A chain that ends in an
//! AGGREGATE* writes only the values it folds, at the rows its SELECTs
//! keep: its ARITH+ bodies are a second kernel, run over those rows alone
//! (the paper's Fig. 6 Q6 kernel: filter → compute → buffer → fold).
//!
//! The members before the last hand on nothing: the loop reports their
//! sizes ([`Stage::Passed`]). The unfused operators stay the oracle — a
//! chain the loop cannot run as they would is cut to the longest prefix it
//! can run (`Loop::build` is the one rule set for what a loop covers),
//! and a member no loop can run takes its operator's fallback, the
//! interpreter. A run of SELECTs is such a chain — the paper's fused Q6
//! kernel (Fig. 6), one walk for every predicate.

use super::aggregate::{col_vals, fold_all, fold_keyed, Vals};
use super::arith::{count_rows, output_tys};
use super::{aggregate_all_view, aggregate_by_key_view, arith_extend_view, rekey_view, Agg};
use crate::data::{col_windows, slice_windows, ColWindow, Column, Keys, RelError, Relation};
use crate::engine;
use crate::view::{self, Batch, Bound, View};
use kfusion_ir::batch::{
    mask_lane, BankView, ColRef, CompiledKernel, Scratch, BATCH_ROWS, MASK_WORDS,
};
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
    /// AGGREGATE* — only last, behind SELECT members and then ARITH+
    /// members.
    AggregateAll(&'k [Agg]),
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
    /// The last member covered, an AGGREGATE's (or AGGREGATE*'s) groups.
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
    Some(match group.end {
        End::View => group.walk(input),
        End::Keyed(aggs) => group.fold(input, aggs),
        End::All(aggs) => group.fold_all(input, aggs),
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
        Member::AggregateAll(aggs) => Stage::Folded(aggregate_all_view(input, aggs)?),
    })
}

/// A column of a chain's schema, as the loop sees it: input slot `Ext(s)`
/// of the chain's input (0 the key, `1 + c` payload column `c`), or output
/// `Out(o)` of the kernel the ARITH+ bodies are spliced into.
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

/// What a chain ends in: the view its last member returns, or the groups
/// of a keyed AGGREGATE or of an AGGREGATE*.
#[derive(Debug, Clone, Copy)]
enum End<'k> {
    View,
    Keyed(&'k [Agg]),
    All(&'k [Agg]),
}

/// Bodies spliced into one kernel: each body, the wiring of its input
/// slots, and the outputs the kernel has.
#[derive(Default)]
struct Splice {
    bodies: Vec<KernelBody>,
    wiring: Vec<Vec<SlotSource>>,
    outputs: Vec<FusedOutput>,
}

/// A chain ready to run: its spliced kernel, run over every live lane
/// (none when no member carries a body), each member's step and the width
/// of its output, and what the last member's output holds. A chain that
/// ends in an AGGREGATE* splices its ARITH+ bodies into a second kernel,
/// `then`, run only over the lanes its SELECTs keep.
struct Loop<'k> {
    kernel: Option<CompiledKernel>,
    then: Option<CompiledKernel>,
    /// The type each of `then`'s outputs takes over no row: its ARITH+
    /// operator's over an empty input, typed from the body alone.
    bare: Vec<Ty>,
    steps: Vec<(Step, usize)>,
    /// The last member's payload columns.
    cols: Vec<Src>,
    /// Whether a member selects.
    selects: bool,
    end: End<'k>,
}

impl<'k> Loop<'k> {
    /// Splice and compile `chain` over `input`, or `None` where the loop
    /// cannot run it as the members' own operators would — the one place
    /// that decides what a loop covers: a member carries a body and the
    /// batch engine is off, has no row to run on or declines the spliced
    /// body; a predicate is not boolean; a member names a column its input
    /// lacks or of the wrong type; there are two REKEYs; an AGGREGATE
    /// follows anything but ARITH+; an AGGREGATE* follows a REKEY, or a
    /// SELECT that follows an ARITH+; or a chain that selects would end in
    /// a member holding an ARITH+ column.
    fn build(input: &View<'_>, chain: &[Member<'k>]) -> Option<Loop<'k>> {
        let width = 1 + input.n_cols() as u32;
        let mut key = Src::Ext(0);
        let mut cols: Vec<Src> = (1..width).map(Src::Ext).collect();
        // A chain that ends in an AGGREGATE* splices its ARITH+ bodies
        // apart from its SELECTs' (`then`); any other, every body together.
        let all = matches!(chain.last(), Some(Member::AggregateAll(_)));
        let mut splices = [Splice::default(), Splice::default()];
        let mut steps = Vec::with_capacity(chain.len());
        let mut end = End::View;
        let mut fresh = width;
        for (m, &member) in chain.iter().enumerate() {
            let step = match member {
                Member::Select(body) | Member::ArithExtend(body) => {
                    let arith = matches!(member, Member::ArithExtend(_));
                    let after_arith = steps.iter().any(|(s, _)| matches!(s, Step::Arith));
                    if all && !arith && after_arith {
                        return None;
                    }
                    let splice = &mut splices[usize::from(all && arith)];
                    let wires = (0..body.n_inputs as usize)
                        .map(|s| {
                            let src = if s == 0 { Some(key) } else { cols.get(s - 1).copied() };
                            match src {
                                Some(Src::Ext(slot)) => SlotSource::External(slot),
                                Some(Src::Out(o)) => outputs_source(&splice.outputs, o),
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
                    let (b, first) = (splice.bodies.len(), splice.outputs.len());
                    splice.outputs.extend(
                        (0..body.outputs.len()).map(|output| FusedOutput { body: b, output }),
                    );
                    splice.bodies.push(body.clone());
                    splice.wiring.push(wires);
                    match member {
                        Member::Select(_) if !body.outputs.is_empty() => {
                            Step::Select { mask: first }
                        }
                        Member::Select(_) => return None,
                        _ => {
                            cols.extend((first..splice.outputs.len()).map(Src::Out));
                            Step::Arith
                        }
                    }
                }
                Member::Rekey(col) => {
                    let rekeyed = steps.iter().any(|(s, _)| matches!(s, Step::Rekey { .. }));
                    if col >= cols.len() || rekeyed || all {
                        return None;
                    }
                    key = cols.remove(col);
                    Step::Rekey { key }
                }
                Member::Aggregate(list) | Member::AggregateAll(list) => {
                    let after_arith = steps.iter().all(|(s, _)| matches!(s, Step::Arith));
                    let named = list.iter().all(|agg| agg.col().is_none_or(|c| c < cols.len()));
                    if m + 1 != chain.len() || !(after_arith || all) || !named {
                        return None;
                    }
                    end = if all { End::All(list) } else { End::Keyed(list) };
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
        if matches!(end, End::View) && selects && cols.iter().any(|c| matches!(c, Src::Out(_))) {
            return None;
        }
        let compile = |splice: &Splice| match splice.bodies.is_empty() {
            // A chain without a body (a lone REKEY) compiles nothing.
            true => Some(None),
            false if !engine::batch_enabled() || input.is_empty() => None,
            false => {
                let spliced = fuse(&splice.bodies, &splice.wiring, &splice.outputs).ok()?;
                let k = CompiledKernel::compile(&spliced, &input.ir_slot_types()).ok()?;
                k.check_binding(&input.ir_cols()).ok()?;
                Some(Some(k))
            }
        };
        let [each, survivors] = &splices;
        let kernel = compile(each)?;
        let then = compile(survivors)?;
        let bare = (survivors.outputs.iter())
            .map(|o| output_tys(&survivors.bodies[o.body])[o.output])
            .collect();
        let group = Loop { kernel, then, bare, steps, cols, selects, end };
        let ir_cols = input.ir_cols();
        let ty = |src: Src| group.src_ty(&ir_cols, src);
        let masks_are_flags = group.steps.iter().all(|(s, _)| match s {
            Step::Select { mask } => {
                group.kernel.as_ref().expect("a mask has a kernel").output_ty(*mask) == Ty::Bool
            }
            Step::Rekey { key } => ty(*key) == Ty::I64,
            _ => true,
        });
        let folds_numbers = match group.end {
            End::View => true,
            End::Keyed(list) | End::All(list) => {
                list.iter().filter_map(|&agg| agg.col()).all(|c| ty(group.cols[c]) != Ty::Bool)
            }
        };
        (masks_are_flags && folds_numbers).then_some(group)
    }

    /// The type of output `o` of the kernel the ARITH+ bodies are spliced
    /// into.
    fn output_ty(&self, o: usize) -> Ty {
        let arith = if matches!(self.end, End::All(_)) { &self.then } else { &self.kernel };
        arith.as_ref().expect("an output has a kernel").output_ty(o)
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
        let mut stages = self.counted(input.len(), &parts);
        if matches!(stages.last(), Some(Err(_))) {
            return stages;
        }
        // The last member's view: the input's columns it keeps and the
        // columns it holds, under the chain's selection and key.
        let upstream = parts.iter().map(|part| part.rows[self.steps.len() - 1]).sum();
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

    /// Each member's counters and [`Stage::Passed`], from the rows it holds
    /// in each morsel — `upstream` rows reach the first — up to a REKEY
    /// that met a negative key on a selected row, which fails.
    fn counted<'a>(&self, mut upstream: usize, parts: &[Part]) -> Vec<Result<Stage<'a>, RelError>> {
        let mut rows = vec![0usize; self.steps.len()];
        let mut negative = false;
        for part in parts {
            rows.iter_mut().zip(&part.rows).for_each(|(total, r)| *total += r);
            negative |= part.negative;
        }
        let mut stages = Vec::with_capacity(self.steps.len());
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
        stages
    }

    /// SELECT members, then ARITH+ members, then an AGGREGATE*: one walk of
    /// morsels over the input's base rows, in which each morsel buffers
    /// the values the aggregates read at the rows its SELECTs keep
    /// ([`Loop::survivors`]); then the AGGREGATE* folds the buffers, a
    /// morsel at a time in base-row order — the rows the unfused
    /// AGGREGATE* folds, in its order, with its fold. Nothing is written
    /// at base length; the buffers' bytes are counted as computed. The
    /// buffers come from this thread's scratch and go back to it.
    fn fold_all<'a>(&self, input: &View<'a>, aggs: &[Agg]) -> Vec<Result<Stage<'a>, RelError>> {
        // The columns the aggregates read, each once and buffered in that
        // order, and the aggregates over the buffers.
        let mut srcs: Vec<Src> = Vec::new();
        let folded: Vec<Agg> = aggs
            .iter()
            .map(|&agg| {
                let mut source = |c: usize| match srcs.iter().position(|&s| s == self.cols[c]) {
                    Some(b) => b,
                    None => {
                        srcs.push(self.cols[c]);
                        srcs.len() - 1
                    }
                };
                match agg {
                    Agg::Sum(c) => Agg::Sum(source(c)),
                    Agg::Min(c) => Agg::Min(source(c)),
                    Agg::Max(c) => Agg::Max(source(c)),
                    Agg::Avg(c) => Agg::Avg(source(c)),
                    Agg::Count => Agg::Count,
                }
            })
            .collect();
        // The input's slots copied out per batch: those `then` loads and
        // those the aggregates read.
        let mut packed: Vec<usize> = self.then.iter().flat_map(|k| k.loaded_slots()).collect();
        packed.extend(srcs.iter().filter_map(|&src| match src {
            Src::Ext(slot) => Some(slot as usize),
            Src::Out(_) => None,
        }));
        packed.sort_unstable();
        packed.dedup();
        let ranges = cta_ranges(input.base_len(), DEFAULT_CTA_CHUNK);
        if self.selects {
            kfusion_trace::counter("kfusion_host_morsels_total", ranges.len() as u64);
        }
        let cols = input.ir_cols();
        let tys: Vec<Ty> = srcs.iter().map(|&src| self.src_ty(&cols, src)).collect();
        let morsels: Vec<(Range<usize>, Vec<Column>)> = crate::scratch::with_scratch(|s| {
            let mut buffer = || tys.iter().map(|&ty| take_lanes(s, ty, 0)).collect();
            ranges.into_iter().map(|range| (range, buffer())).collect()
        });
        let parts = par_map(morsels, |_, (range, buffer)| {
            self.survivors(input, &cols, range, (&packed, &srcs), buffer)
        });
        let (counts, buffers): (Vec<Part>, Vec<Relation>) = parts.into_iter().unzip();
        let mut stages = self.counted(input.len(), &counts);
        let kept: usize = buffers.iter().map(Relation::len).sum();
        let bytes = (kept * srcs.len()) as u64 * Column::BYTES_PER_VALUE;
        kfusion_trace::counter("kfusion_host_computed_bytes_total", bytes);
        let out = match kept {
            // No row survived: each ARITH+ output has the type its operator
            // gives it over an empty input.
            0 => {
                let bare = srcs.iter().zip(&tys).map(|(&src, &ty)| match src {
                    Src::Out(o) => no_lanes(self.bare[o]),
                    Src::Ext(_) => no_lanes(ty),
                });
                let none = Relation { key: Keys::RowIds(0), cols: bare.collect() };
                fold_all(&[View::of(&none)], &folded)
            }
            _ => fold_all(&buffers.iter().map(View::of).collect::<Vec<_>>(), &folded),
        };
        crate::scratch::with_scratch(|s| {
            buffers.into_iter().flat_map(|b| b.cols).for_each(|col| put_lanes(s, col))
        });
        *stages.last_mut().expect("a chain has members") = out.map(Stage::Folded);
        stages
    }

    /// One morsel of [`Loop::fold_all`]: base rows `range`, and `buffer`, an
    /// empty column for each of `srcs`. Per batch with a live row, the
    /// kernel runs over every lane, each member's mask or check in chain
    /// order, and the lanes they keep of each `packed` input slot are
    /// copied out while the batch is hot, into lanes from this thread's
    /// scratch. Then `then` runs over those lanes alone, and `buffer` takes
    /// the values of each source there: a relation of the morsel's
    /// survivors, keyed by row id.
    fn survivors(
        &self,
        input: &View<'_>,
        cols: &[ColRef<'_>],
        range: Range<usize>,
        (packed, srcs): (&[usize], &[Src]),
        mut buffer: Vec<Column>,
    ) -> (Part, Relation) {
        let mut part = Part { rows: vec![0; self.steps.len()], negative: false };
        let mut lanes: Vec<Column> = crate::scratch::with_scratch(|s| {
            packed.iter().map(|&slot| take_lanes(s, cols[slot].ty(), range.len())).collect()
        });
        let kernel = self.kernel.as_ref().map(|kernel| Bound { kernel, cols });
        let (mut live, mut at) = ([0u64; MASK_WORDS], [0u16; BATCH_ROWS]);
        view::walk(input, range.clone(), kernel, |batch| {
            let live = live_lanes(batch, &mut live);
            self.members(batch, cols, &mut [], 0, live, &mut part);
            let at = set_lanes(live, &mut at);
            for (lanes, &slot) in lanes.iter_mut().zip(packed) {
                pack(lanes, cols[slot], batch.rows.start, at);
            }
        });
        let kept = part.rows[self.steps.len() - 1];
        for (col, &src) in buffer.iter_mut().zip(srcs) {
            reserve(col, kept);
            if let Src::Ext(slot) = src {
                let lane = packed.iter().position(|&p| p == slot as usize).expect("packed");
                col.extend_from(&lanes[lane]);
            }
        }
        let computed = srcs.iter().any(|src| matches!(src, Src::Out(_)));
        if let Some(then) = self.then.as_ref().filter(|_| computed && kept > 0) {
            // The packed lanes bound where `then` loads them; it loads no
            // other slot.
            let bound: Vec<ColRef<'_>> = (0..cols.len())
                .map(|slot| match packed.iter().position(|&p| p == slot) {
                    Some(lane) => lanes[lane].ir_col(),
                    None => ColRef::RowIds(0),
                })
                .collect();
            let rows = Relation { key: Keys::RowIds(kept), cols: Vec::new() };
            let then = Some(Bound { kernel: then, cols: &bound });
            view::walk(&View::of(&rows), 0..kept, then, |batch| {
                let n = batch.rows.len();
                for (col, &src) in buffer.iter_mut().zip(srcs) {
                    let Src::Out(o) = src else { continue };
                    match (col, batch.output(o)) {
                        (Column::I64(d), BankView::I64(v)) => d.extend_from_slice(&v[..n]),
                        (Column::F64(d), BankView::F64(v)) => d.extend_from_slice(&v[..n]),
                        _ => unreachable!("a buffer has its output's type"),
                    }
                }
            });
        }
        crate::scratch::with_scratch(|s| lanes.into_iter().for_each(|col| put_lanes(s, col)));
        (part, Relation { key: Keys::RowIds(kept), cols: buffer })
    }

    /// The type of the values `src` holds: an input slot's, or an output's.
    fn src_ty(&self, cols: &[ColRef<'_>], src: Src) -> Ty {
        match src {
            Src::Ext(slot) => cols[slot as usize].ty(),
            Src::Out(o) => self.output_ty(o),
        }
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
            let live = live_lanes(batch, &mut live);
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

/// `batch`'s live lanes, as words of `live`: those the view selects.
fn live_lanes<'l>(batch: &Batch<'_>, live: &'l mut [u64; MASK_WORDS]) -> &'l mut [u64] {
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
    live
}

/// The lanes `live` sets, ascending, as the first entries of `at`.
fn set_lanes<'a>(live: &[u64], at: &'a mut [u16; BATCH_ROWS]) -> &'a [u16] {
    let mut n = 0;
    for (w, &word) in live.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            at[n] = (w * 64) as u16 + m.trailing_zeros() as u16;
            n += 1;
            m &= m - 1;
        }
    }
    &at[..n]
}

/// Append to `lanes` the values of `col` at base rows `base + j`, for
/// each lane `j` of `at` — a key or a row id as an `i64`.
fn pack(lanes: &mut Column, col: ColRef<'_>, base: usize, at: &[u16]) {
    let rows = at.iter().map(|&j| base + j as usize);
    match (lanes, col) {
        (Column::I64(d), ColRef::I64(v)) => d.extend(rows.map(|i| v[i])),
        (Column::F64(d), ColRef::F64(v)) => d.extend(rows.map(|i| v[i])),
        (Column::I64(d), ColRef::KeyU64(k)) => d.extend(rows.map(|i| k[i] as i64)),
        (Column::I64(d), ColRef::RowIds(_)) => d.extend(rows.map(|i| i as i64)),
        _ => unreachable!("lanes have their slot's type"),
    }
}

/// An empty column of type `ty`.
fn no_lanes(ty: Ty) -> Column {
    match ty {
        Ty::F64 => Column::F64(Vec::new()),
        _ => Column::I64(Vec::new()),
    }
}

/// Empty lanes of type `ty` with room for `rows` values, from scratch
/// `s`.
fn take_lanes(s: &mut Scratch, ty: Ty, rows: usize) -> Column {
    let mut lanes = match ty {
        Ty::F64 => Column::F64(s.f64_buf()),
        _ => Column::I64(s.i64_buf()),
    };
    reserve(&mut lanes, rows);
    lanes
}

/// Room in `lanes` for `rows` more values.
fn reserve(lanes: &mut Column, rows: usize) {
    match lanes {
        Column::I64(v) => v.reserve(rows),
        Column::F64(v) => v.reserve(rows),
    }
}

/// Give lanes back to scratch `s`.
fn put_lanes(s: &mut Scratch, lanes: Column) {
    match lanes {
        Column::I64(v) => s.put_i64_buf(v),
        Column::F64(v) => s.put_f64_buf(v),
    }
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
