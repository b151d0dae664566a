//! AGGREGATION: group by key, reduce payload columns.
//!
//! TPC-H Q1's tail is exactly this — sums, averages, and counts per
//! `(returnflag, linestatus)` group — and Q21 decides its EXISTS / NOT
//! EXISTS with grouped MIN/MAX over 300 k orders. Callers pack compound
//! group attributes into the key with [`pack_key2`]. The paper's plans
//! SORT before aggregating (Fig. 17), and the fold takes one of two shapes,
//! both columnar:
//!
//! * **runs** — input in key order (which is checked) is a segmented fold:
//!   a group is a run of equal keys. The input is cut into morsels that end
//!   on run boundaries; per morsel the runs are found once ([`run_starts`]),
//!   then each accumulator makes one typed pass over its column
//!   ([`fold_runs`]) and writes one value per run into that morsel's window
//!   of the output.
//! * **groups** — a view a SORT by key grouped instead of sorting
//!   ([`crate::ops::group_by_key_view`]) is in no key order, but each key's
//!   rows are in the order the sorted rows would be. Each row is folded, in
//!   that order, into its group's slot of each accumulator; the
//!   accumulators that fold alike (all of Q1's are f64 sums) share one
//!   typed walk over the selected rows ([`fold_rows`]). The accumulators,
//!   never the rows, are dealt to the workers.
//!
//! Aggregates that fold one source with one step share an accumulator — an
//! AVG divides its SUM's ([`Plan`]). The sources are the view's columns or,
//! in a fused group's loop ([`crate::ops::group_loop_view`]), outputs of a
//! kernel the fold runs over each batch of rows. Either way every group is
//! folded left to right from the aggregate's identity, so each float sum,
//! wrapping integer sum and `min`/`max` is bit for bit what a row-at-a-time
//! scan of the sorted input produces, however many morsels or threads
//! there are.
//!
//! The input is a [`View`]: only the key and the columns the aggregates
//! name are read, where they already are — a PROJECT in front of an
//! AGGREGATE inside one fused kernel copies nothing (DESIGN.md §17).

use crate::data::{
    col_windows, par_each, resize_zeroed_vec, slice_windows, ColWindow, Column, RelError, Relation,
};
use crate::view::{Groups, View};
use kfusion_ir::batch::{BankView, BatchMachine, ColRef, CompiledKernel, BATCH_ROWS};
use kfusion_vgpu::exec::{par_range_map, workers, DEFAULT_CTA_CHUNK};
use std::ops::Range;

/// One aggregate over a payload column (or over the rows themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Sum of column `c` (result type = column type; i64 sums wrap).
    Sum(usize),
    /// Count of rows in the group (i64).
    Count,
    /// Minimum of column `c`.
    Min(usize),
    /// Maximum of column `c`.
    Max(usize),
    /// Arithmetic mean of column `c` (always f64).
    Avg(usize),
}

impl Agg {
    /// The column the aggregate reads, if any.
    pub(crate) fn col(&self) -> Option<usize> {
        match self {
            Agg::Sum(c) | Agg::Min(c) | Agg::Max(c) | Agg::Avg(c) => Some(*c),
            Agg::Count => None,
        }
    }
}

/// Pack two small group attributes into one key (16 bits each is ample for
/// flags/statuses).
pub fn pack_key2(a: u64, b: u64) -> u64 {
    (a << 16) | (b & 0xFFFF)
}

/// Unpack a [`pack_key2`] key.
pub fn unpack_key2(k: u64) -> (u64, u64) {
    (k >> 16, k & 0xFFFF)
}

/// Where an aggregate reads its values, batch by batch: a column of the
/// view it folds, or — in a fused group's loop — an output of the kernel
/// the fold runs over the same rows (`f64` says which type of lanes).
#[derive(Clone, Copy)]
pub(crate) enum Vals<'v> {
    Col(&'v Column),
    Out { slot: usize, f64: bool },
}

impl Vals<'_> {
    fn is_f64(self) -> bool {
        match self {
            Vals::Col(c) => matches!(c, Column::F64(_)),
            Vals::Out { f64, .. } => f64,
        }
    }
}

/// The sources of a view's own columns, in order.
pub(crate) fn col_vals<'v>(input: &'v View<'_>) -> Vec<Vals<'v>> {
    (0..input.n_cols()).map(|c| Vals::Col(input.col(c))).collect()
}

/// A kernel whose outputs some [`Vals::Out`] sources are, bound to the base
/// rows the fold walks.
pub(crate) struct Bound<'k> {
    pub(crate) kernel: &'k CompiledKernel,
    pub(crate) cols: &'k [ColRef<'k>],
}

/// The (empty) output column of `agg` over `srcs`, which
/// [`validate_agg_cols`] has checked.
fn out_column(agg: Agg, srcs: &[Vals<'_>]) -> Column {
    match agg {
        Agg::Count => Column::I64(Vec::new()),
        Agg::Avg(_) => Column::F64(Vec::new()),
        Agg::Sum(c) | Agg::Min(c) | Agg::Max(c) if srcs[c].is_f64() => Column::F64(Vec::new()),
        Agg::Sum(_) | Agg::Min(_) | Agg::Max(_) => Column::I64(Vec::new()),
    }
}

fn validate_agg_cols(available: usize, aggs: &[Agg]) -> Result<(), RelError> {
    match aggs.iter().filter_map(Agg::col).find(|&c| c >= available) {
        Some(col) => Err(RelError::NoSuchColumn { col, available }),
        None => Ok(()),
    }
}

/// Give `out` the aggregate schema with `rows` zeroed rows per column,
/// keeping its buffers where the column types already match.
fn shape_output(srcs: &[Vals<'_>], aggs: &[Agg], rows: usize, out: &mut Relation) {
    let fresh: Vec<Column> = aggs.iter().map(|&a| out_column(a, srcs)).collect();
    if out.cols.len() != fresh.len() || out.cols.iter().zip(&fresh).any(|(o, f)| !o.same_type(f)) {
        out.cols = fresh;
    }
    resize_zeroed_vec(out.key.buffer_mut(), rows);
    for c in &mut out.cols {
        c.resize_zeroed(rows);
    }
}

/// How an accumulator folds: a SUM (which an AVG divides last), a MIN or a
/// MAX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Sum,
    Min,
    Max,
}

/// One accumulator: the source it folds and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Acc {
    src: usize,
    step: Step,
}

/// Where one aggregate's output comes from.
#[derive(Debug, Clone, Copy)]
enum Out {
    Count,
    Fold(usize),
    Mean(usize),
}

/// The accumulators a list of aggregates folds. Aggregates that fold one
/// source with one step share an accumulator — an AVG takes the sum its
/// SUM folds — so they share its walk too. Each accumulator lives in the
/// output column of the first aggregate that is exactly it, else of its
/// first AVG: an f64 sum as itself, an i64 one in the bits of the f64 slot
/// until it is divided, last.
struct Plan {
    accs: Vec<Acc>,
    outs: Vec<Out>,
    /// Accumulator `a`'s output column.
    home: Vec<usize>,
    /// Whether accumulator `a` folds f64s.
    f64: Vec<bool>,
}

impl Plan {
    /// The plan for `aggs` over `srcs`: sources in columns first, kernel
    /// outputs last, so a share of workers that folds columns alone runs
    /// no kernel.
    fn new(aggs: &[Agg], srcs: &[Vals<'_>]) -> Plan {
        let acc_of = |agg: Agg| match agg {
            Agg::Sum(src) | Agg::Avg(src) => Some(Acc { src, step: Step::Sum }),
            Agg::Min(src) => Some(Acc { src, step: Step::Min }),
            Agg::Max(src) => Some(Acc { src, step: Step::Max }),
            Agg::Count => None,
        };
        let mut accs: Vec<Acc> = Vec::new();
        for computed in [false, true] {
            for acc in aggs.iter().filter_map(|&agg| acc_of(agg)) {
                let is_out = matches!(srcs[acc.src], Vals::Out { .. });
                if is_out == computed && !accs.contains(&acc) {
                    accs.push(acc);
                }
            }
        }
        let index = |agg: Agg| acc_of(agg).and_then(|acc| accs.iter().position(|&a| a == acc));
        let outs: Vec<Out> = aggs
            .iter()
            .map(|&agg| match (agg, index(agg)) {
                (Agg::Avg(_), Some(a)) => Out::Mean(a),
                (_, Some(a)) => Out::Fold(a),
                (_, None) => Out::Count,
            })
            .collect();
        let home = (0..accs.len())
            .map(|a| {
                let fold = outs.iter().position(|o| matches!(o, Out::Fold(b) if *b == a));
                let mean = || outs.iter().position(|o| matches!(o, Out::Mean(b) if *b == a));
                fold.or_else(mean).expect("every accumulator has an aggregate")
            })
            .collect();
        let f64 = accs.iter().map(|acc| srcs[acc.src].is_f64()).collect();
        Plan { accs, outs, home, f64 }
    }

    /// Turn folded accumulators into the aggregates' outputs over a window
    /// of groups, group `g` holding `size(g)` rows: COUNT writes the sizes,
    /// an aggregate that shares an accumulator it does not hold copies or
    /// divides it, and last every AVG that holds its sum divides it in
    /// place.
    fn finish(&self, cols: &mut [ColWindow<'_>], size: impl Fn(usize) -> usize) {
        let mean = |sum: f64, f64: bool, g: usize| {
            let sum = if f64 { sum } else { sum.to_bits() as i64 as f64 };
            sum / size(g) as f64
        };
        for (o, &out) in self.outs.iter().enumerate() {
            match out {
                Out::Count => {
                    let ColWindow::I64(d) = &mut cols[o] else { unreachable!("COUNT is i64") };
                    d.iter_mut().enumerate().for_each(|(g, slot)| *slot = size(g) as i64);
                }
                Out::Fold(a) | Out::Mean(a) if self.home[a] != o => {
                    let (home, dst) = pair(cols, self.home[a], o);
                    match (out, home, dst) {
                        (Out::Fold(_), ColWindow::I64(h), ColWindow::I64(d)) => {
                            d.copy_from_slice(h)
                        }
                        (Out::Fold(_), ColWindow::F64(h), ColWindow::F64(d)) => {
                            d.copy_from_slice(h)
                        }
                        (Out::Mean(_), ColWindow::I64(h), ColWindow::F64(d)) => {
                            for (g, (slot, &sum)) in d.iter_mut().zip(h.iter()).enumerate() {
                                *slot = sum as f64 / size(g) as f64;
                            }
                        }
                        (Out::Mean(_), ColWindow::F64(h), ColWindow::F64(d)) => {
                            for (g, (slot, &sum)) in d.iter_mut().zip(h.iter()).enumerate() {
                                *slot = mean(sum, self.f64[a], g);
                            }
                        }
                        _ => unreachable!("output schema set from the aggregates"),
                    }
                }
                _ => {}
            }
        }
        for (o, &out) in self.outs.iter().enumerate() {
            if let (Out::Mean(a), ColWindow::F64(d)) = (out, &mut cols[o]) {
                if self.home[a] == o {
                    d.iter_mut()
                        .enumerate()
                        .for_each(|(g, slot)| *slot = mean(*slot, self.f64[a], g));
                }
            }
        }
    }
}

/// Window `read` to read and window `write` to write, `read != write`.
fn pair<'c, 'w>(
    cols: &'c mut [ColWindow<'w>],
    read: usize,
    write: usize,
) -> (&'c ColWindow<'w>, &'c mut ColWindow<'w>) {
    if read < write {
        let (lo, hi) = cols.split_at_mut(write);
        (&lo[read], &mut hi[0])
    } else {
        let (lo, hi) = cols.split_at_mut(read);
        (&hi[0], &mut lo[write])
    }
}

/// One batch's values of a source.
#[derive(Clone, Copy)]
enum Lanes<'b> {
    I64(&'b [i64]),
    F64(&'b [f64]),
}

/// Source `src` over base rows `rows`: a window of its column, or the lanes
/// the kernel left in its output's bank for this batch.
fn batch_lanes<'b>(
    src: Vals<'b>,
    run: Option<(&CompiledKernel, &'b BatchMachine)>,
    rows: Range<usize>,
) -> Lanes<'b> {
    match src {
        Vals::Col(Column::I64(v)) => Lanes::I64(&v[rows]),
        Vals::Col(Column::F64(v)) => Lanes::F64(&v[rows]),
        Vals::Out { slot, .. } => {
            let (k, bm) = run.expect("a computed source runs its kernel");
            match bm.output(k, slot) {
                BankView::I64(b) => Lanes::I64(&b[..rows.len()]),
                BankView::F64(b) => Lanes::F64(&b[..rows.len()]),
                BankView::Bool(_) => unreachable!("flag outputs are not folded"),
            }
        }
    }
}

/// The value types accumulators fold from and into.
trait Slot: Copy {
    fn lanes(l: Lanes<'_>) -> &[Self];
    fn window<'w>(w: &'w mut ColWindow<'_>) -> &'w mut [Self];
    fn bits(self) -> u64;
    fn of_bits(bits: u64) -> Self;
}

impl Slot for i64 {
    fn bits(self) -> u64 {
        self as u64
    }
    fn of_bits(bits: u64) -> i64 {
        bits as i64
    }
    fn lanes(l: Lanes<'_>) -> &[i64] {
        let Lanes::I64(v) = l else { unreachable!("an i64 source") };
        v
    }
    fn window<'w>(w: &'w mut ColWindow<'_>) -> &'w mut [i64] {
        let ColWindow::I64(d) = w else { unreachable!("an i64 accumulator") };
        d
    }
}

impl Slot for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn of_bits(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
    fn lanes(l: Lanes<'_>) -> &[f64] {
        let Lanes::F64(v) = l else { unreachable!("an f64 source") };
        v
    }
    fn window<'w>(w: &'w mut ColWindow<'_>) -> &'w mut [f64] {
        let ColWindow::F64(d) = w else { unreachable!("an f64 accumulator") };
        d
    }
}

/// An i64 sum kept in the bits of an f64 slot (an AVG's, until it divides).
fn wrapping_bits(acc: f64, v: i64) -> f64 {
    f64::from_bits((acc.to_bits() as i64).wrapping_add(v) as u64)
}

/// How accumulator `a` folds, by value and slot type: its identity and
/// step are those of the row-at-a-time fold the tests keep as the oracle.
/// `$fold` is called with the lanes' type, the slot's type, the identity
/// and the step.
macro_rules! by_kind {
    ($plan:expr, $a:expr, $fold:ident($($arg:expr),*)) => {
        match $plan.kind($a) {
            (Step::Sum, false, false) => $fold::<i64, i64>($($arg,)* 0, i64::wrapping_add),
            (Step::Sum, false, true) => $fold::<i64, f64>($($arg,)* 0.0, wrapping_bits),
            (Step::Sum, true, _) => $fold::<f64, f64>($($arg,)* 0.0, |acc, v| acc + v),
            (Step::Min, false, _) => $fold::<i64, i64>($($arg,)* i64::MAX, i64::min),
            (Step::Min, true, _) => $fold::<f64, f64>($($arg,)* f64::INFINITY, f64::min),
            (Step::Max, false, _) => $fold::<i64, i64>($($arg,)* i64::MIN, i64::max),
            (Step::Max, true, _) => $fold::<f64, f64>($($arg,)* f64::NEG_INFINITY, f64::max),
        }
    };
}

impl Plan {
    /// How accumulator `a` folds: its step, whether it folds f64s, and
    /// whether it lives in an f64 column.
    fn kind(&self, a: usize) -> (Step, bool, bool) {
        let home_f64 = self.f64[a] || matches!(self.outs[self.home[a]], Out::Mean(_));
        (self.accs[a].step, self.f64[a], home_f64)
    }
}

/// Split `0..keys.len()` into ~`chunk`-row morsels whose boundaries sit on
/// key-run boundaries, so every group lands wholly inside one morsel and
/// per-group accumulation order (hence float summation order) is exactly
/// the serial scan's. No rows, no morsels.
fn group_aligned_ranges(keys: &[u64], chunk: usize) -> Vec<Range<usize>> {
    let n = keys.len();
    if n == 0 {
        return Vec::new();
    }
    let mut bounds = vec![0usize];
    loop {
        let start = *bounds.last().unwrap();
        let tentative = start + chunk;
        if tentative >= n {
            break;
        }
        // Snap forward past the run of the key straddling the cut.
        let run_key = keys[tentative - 1];
        let end = keys.partition_point(|&x| x <= run_key).max(tentative);
        if end >= n {
            break;
        }
        bounds.push(end);
    }
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The runs of equal keys in the non-empty `range`: run `g` is rows
/// `starts[g]..starts[g + 1]`. Counted first — in the scan that also checks
/// the rows are in key order, the one before `range` included — so the list
/// is allocated once at its final size, then filled without a branch per
/// row: every row writes its index into the next open slot and only a key
/// change moves on.
fn run_starts(keys: &[u64], range: Range<usize>) -> Result<Vec<usize>, RelError> {
    let morsel = &keys[range.clone()];
    let (mut runs, mut inversions) = (1, 0);
    for w in morsel.windows(2) {
        runs += (w[0] != w[1]) as usize;
        inversions += (w[0] > w[1]) as usize;
    }
    if inversions > 0 || range.start > 0 && keys[range.start - 1] > keys[range.start] {
        return Err(RelError::NotSorted);
    }
    let mut starts = vec![range.start; runs + 1];
    let mut open = 1;
    for (i, w) in morsel.windows(2).enumerate() {
        starts[open] = range.start + i + 1;
        open += (w[0] != w[1]) as usize;
    }
    starts[runs] = range.end;
    Ok(starts)
}

/// A run fold between two batches of one morsel: the open run, its key,
/// and its accumulator.
#[derive(Clone, Copy)]
struct Open<A> {
    run: usize,
    key: u64,
    acc: A,
}

/// One accumulator's pass over one batch of a morsel — `keys` and `vals`
/// are its rows, `dst` has a slot per run of the morsel: every run folds
/// left to right from `init`, its slot holding the fold so far. Runs are a
/// few rows long as often as a few hundred thousand (Q21's orders, Q1's
/// flags), so there is no loop per run to mispredict: every row restarts
/// or extends the fold by a select and stores it, and a run's last row
/// stores last. A morsel that is a single run — all AGGREGATE-ALL ever
/// has, whatever its keys — is folded outright, reading no key.
fn fold_runs<T: Copy, A: Copy>(
    keys: &[u64],
    vals: &[T],
    dst: &mut [A],
    open: &mut Open<A>,
    init: A,
    step: impl Fn(A, T) -> A,
) {
    if let [only] = dst {
        open.acc = vals.iter().fold(open.acc, |acc, &v| step(acc, v));
        *only = open.acc;
        return;
    }
    let Open { mut run, key: mut prev, mut acc } = *open;
    for (&key, &v) in keys.iter().zip(vals) {
        let fresh = key != prev;
        run += fresh as usize;
        acc = step(if fresh { init } else { acc }, v);
        dst[run] = acc;
        prev = key;
    }
    *open = Open { run, key: prev, acc };
}

/// [`fold_runs`] for one accumulator, whose state `open` keeps as the bits
/// of its value between batches.
fn fold_runs_of<T: Slot, A: Slot>(
    keys: &[u64],
    vals: Lanes<'_>,
    dst: &mut ColWindow<'_>,
    open: &mut Open<u64>,
    init: A,
    step: impl Fn(A, T) -> A,
) {
    let mut typed = Open { run: open.run, key: open.key, acc: A::of_bits(open.acc) };
    fold_runs(keys, T::lanes(vals), A::window(dst), &mut typed, init, step);
    *open = Open { run: typed.run, key: typed.key, acc: typed.acc.bits() };
}

/// An accumulator's identity, as [`Open`] keeps it.
fn identity_of<T, A: Slot>(init: A, _step: impl Fn(A, T) -> A) -> u64 {
    init.bits()
}

/// One morsel of the run fold: its runs, and its windows of the output.
struct Morsel<'o> {
    starts: Vec<usize>,
    key: &'o mut [u64],
    cols: Vec<ColWindow<'o>>,
}

impl Morsel<'_> {
    /// Fold the morsel's rows — `keys` are all the input's, empty when the
    /// morsel is one run (AGGREGATE-ALL) — into its windows, batch by batch
    /// when a kernel computes some of the values, then finish them.
    fn fold(mut self, keys: &[u64], plan: &Plan, srcs: &[Vals<'_>], kernel: Option<&Bound<'_>>) {
        for (slot, &start) in self.key.iter_mut().zip(&self.starts) {
            *slot = keys[start];
        }
        let rows = self.starts[0]..self.starts[self.starts.len() - 1];
        let first = keys.get(rows.start).copied().unwrap_or(0);
        let mut open: Vec<Open<u64>> = (0..plan.accs.len())
            .map(|a| Open { run: 0, key: first, acc: by_kind!(plan, a, identity_of()) })
            .collect();
        let batch = if kernel.is_some() { BATCH_ROWS } else { rows.len() };
        let mut walk = |run: Option<(&CompiledKernel, &mut BatchMachine)>| {
            let _steady = kfusion_trace::allocwatch::region();
            let mut run = run;
            let mut base = rows.start;
            while base < rows.end {
                let n = batch.min(rows.end - base);
                if let Some((k, bm)) = run.as_mut() {
                    bm.run(k, kernel.expect("bound").cols, base, n);
                }
                let batch_keys = keys.get(base..base + n).unwrap_or(&[]);
                let done = run.as_ref().map(|(k, bm)| (*k, &**bm));
                for (a, acc) in plan.accs.iter().enumerate() {
                    let vals = batch_lanes(srcs[acc.src], done, base..base + n);
                    let dst = &mut self.cols[plan.home[a]];
                    by_kind!(plan, a, fold_runs_of(batch_keys, vals, dst, &mut open[a]));
                }
                base += n;
            }
        };
        match kernel {
            Some(b) => crate::scratch::with_scratch(|s| {
                let mut bm = s.machine(b.kernel);
                walk(Some((b.kernel, &mut bm)));
                s.put_machine(b.kernel, bm);
            }),
            None => walk(None),
        }
        let starts = &self.starts;
        plan.finish(&mut self.cols, |g| starts[g + 1] - starts[g]);
    }
}

/// Accumulator `a` of a grouped fold: the values it reads and the column it
/// folds into, a slot per group.
struct Lane<'o, 'v> {
    a: usize,
    src: Vals<'v>,
    acc: ColWindow<'o>,
}

/// One batch of a grouped fold: its rows' keys, which of them are
/// selected (`None`: all), and where each key's group is (`of_keys[key -
/// lo]`).
struct GroupedBatch<'b> {
    keys: &'b [u64],
    sel: Option<&'b [u64]>,
    of_keys: &'b [u32],
    lo: u64,
}

/// Fold each selected row of a batch into its group's slot of each of the
/// `L` accumulators `accs`, reading `vals`, the row's steps of all
/// accumulators together: their folds are independent, so they overlap.
/// `L` is a constant, so the steps unroll and the slices stay in registers.
fn fold_rows<T: Copy, A: Copy, const L: usize>(
    batch: &GroupedBatch<'_>,
    vals: [&[T]; L],
    mut accs: [&mut [A]; L],
    step: &impl Fn(A, T) -> A,
) {
    let mut row = |j: usize| {
        let g = batch.of_keys[(batch.keys[j] - batch.lo) as usize] as usize;
        for l in 0..L {
            accs[l][g] = step(accs[l][g], vals[l][j]);
        }
    };
    match batch.sel {
        None => (0..batch.keys.len()).for_each(row),
        Some(words) => each_set_bit(words, &mut row),
    }
}

/// [`fold_rows`] for the lanes that fold like accumulator `a`, up to four
/// at a time.
fn fold_like<'v, 'b, T: Slot, A: Slot>(
    batch: &GroupedBatch<'_>,
    lanes: &mut [Lane<'_, 'v>],
    like: &dyn Fn(usize) -> bool,
    vals_of: &dyn Fn(Vals<'v>) -> Lanes<'b>,
    _init: A,
    step: impl Fn(A, T) -> A,
) {
    let mut picked = lanes.iter_mut().filter(|lane| like(lane.a)).peekable();
    while picked.peek().is_some() {
        let mut vals: [&[T]; 4] = [&[]; 4];
        let mut accs: [&mut [A]; 4] = Default::default();
        let mut m = 0;
        for lane in picked.by_ref().take(4) {
            vals[m] = T::lanes(vals_of(lane.src));
            accs[m] = A::window(&mut lane.acc);
            m += 1;
        }
        let [a0, a1, a2, a3] = accs;
        let [v0, v1, v2, v3] = vals;
        match m {
            1 => fold_rows(batch, [v0], [a0], &step),
            2 => fold_rows(batch, [v0, v1], [a0, a1], &step),
            3 => fold_rows(batch, [v0, v1, v2], [a0, a1, a2], &step),
            _ => fold_rows(batch, [v0, v1, v2, v3], [a0, a1, a2, a3], &step),
        }
    }
}

/// Fill accumulator `a`'s slots with its identity.
fn fill_identity<T, A: Slot>(acc: &mut ColWindow<'_>, init: A, _step: impl Fn(A, T) -> A) {
    A::window(acc).fill(init);
}

/// The grouped fold of one share of the accumulators: every selected row
/// of `input`, in base-row order, into its group's slot of each — batch by
/// batch, the kernel run for a batch only when the share folds one of its
/// outputs.
fn fold_share(
    input: &View<'_>,
    keys: &[u64],
    groups: &Groups,
    plan: &Plan,
    mut lanes: Vec<Lane<'_, '_>>,
    kernel: Option<&Bound<'_>>,
) {
    for lane in &mut lanes {
        by_kind!(plan, lane.a, fill_identity(&mut lane.acc));
    }
    // One accumulator of each way of folding the share has.
    let mut kinds: Vec<usize> = Vec::new();
    for lane in &lanes {
        if !kinds.iter().any(|&b| plan.kind(b) == plan.kind(lane.a)) {
            kinds.push(lane.a);
        }
    }
    let kernel = kernel.filter(|_| lanes.iter().any(|lane| matches!(lane.src, Vals::Out { .. })));
    let (of_keys, lo) = groups.of_keys();
    let sel = input.selection();
    let mut walk = |mut run: Option<(&CompiledKernel, &mut BatchMachine)>| {
        let _steady = kfusion_trace::allocwatch::region();
        for base in (0..input.base_len()).step_by(BATCH_ROWS) {
            let n = BATCH_ROWS.min(input.base_len() - base);
            let sel = sel.map(|sel| &sel[base / 64..(base + n).div_ceil(64)]);
            if sel.is_some_and(|words| words.iter().all(|&w| w == 0)) {
                continue;
            }
            if let Some((k, bm)) = run.as_mut() {
                bm.run(k, kernel.expect("bound").cols, base, n);
            }
            let done = run.as_ref().map(|(k, bm)| (*k, &**bm));
            let vals_of = |src| batch_lanes(src, done, base..base + n);
            let batch = GroupedBatch { keys: &keys[base..base + n], sel, of_keys, lo };
            for &kind in &kinds {
                let like = |b: usize| plan.kind(b) == plan.kind(kind);
                by_kind!(plan, kind, fold_like(&batch, &mut lanes, &like, &vals_of));
            }
        }
    };
    match kernel {
        Some(b) => crate::scratch::with_scratch(|s| {
            let mut bm = s.machine(b.kernel);
            walk(Some((b.kernel, &mut bm)));
            s.put_machine(b.kernel, bm);
        }),
        None => walk(None),
    }
}

/// One window over all `rows` of every column.
fn whole(cols: &mut [Column], rows: usize) -> Vec<ColWindow<'_>> {
    col_windows(cols, &[rows]).pop().expect("one window asked for")
}

/// Call `f` with the index of each set bit of `words`, ascending.
fn each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            f(w * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// The keyed fold of `aggs` over `input` into `out` — a view that carries
/// its groups folded by group through its selection, any other (dense, in
/// key order, which is checked) by runs — reading each aggregate's values
/// from `srcs`, some of which may be outputs of `kernel` run over
/// `input`'s base rows.
pub(crate) fn fold_keyed(
    input: &View<'_>,
    aggs: &[Agg],
    srcs: &[Vals<'_>],
    kernel: Option<&Bound<'_>>,
    out: &mut Relation,
) -> Result<(), RelError> {
    match input.groups() {
        Some(groups) => fold_by_group(input, groups, aggs, srcs, kernel, out),
        None => fold_by_key(input, aggs, srcs, kernel, out),
    }
}

/// [`fold_keyed`] over a view that carries its groups: one row per group,
/// in key order. The accumulators, never the rows, are dealt to the
/// workers, in contiguous shares: splitting a fold's rows would
/// reassociate its sums.
fn fold_by_group(
    input: &View<'_>,
    groups: &Groups,
    aggs: &[Agg],
    srcs: &[Vals<'_>],
    kernel: Option<&Bound<'_>>,
    out: &mut Relation,
) -> Result<(), RelError> {
    validate_agg_cols(srcs.len(), aggs)?;
    kfusion_trace::counter("kfusion_rows_in_total{op=\"aggregate\"}", input.len() as u64);
    shape_output(srcs, aggs, groups.len(), out);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"aggregate\"}", out.len() as u64);
    out.key.buffer_mut().iter_mut().zip(groups.keys()).for_each(|(slot, key)| *slot = key);
    let plan = Plan::new(aggs, srcs);
    let keys = input.key().as_slice();
    let mut homes: Vec<Option<ColWindow<'_>>> =
        whole(&mut out.cols, groups.len()).into_iter().map(Some).collect();
    let mut lanes = (0..plan.accs.len()).map(|a| Lane {
        a,
        src: srcs[plan.accs[a].src],
        acc: homes[plan.home[a]].take().expect("an output column holds one accumulator"),
    });
    let per_share = plan.accs.len().div_ceil(workers()).max(1);
    let mut shares = Vec::new();
    loop {
        let share: Vec<Lane<'_, '_>> = lanes.by_ref().take(per_share).collect();
        if share.is_empty() {
            break;
        }
        shares.push(share);
    }
    par_each(shares, |share| fold_share(input, &keys, groups, &plan, share, kernel));
    plan.finish(&mut whole(&mut out.cols, groups.len()), |g| groups.sizes()[g] as usize);
    Ok(())
}

/// [`fold_keyed`] over a dense view in key order: the input is cut into
/// morsels that end on run boundaries, and each morsel folds its runs into
/// its own window of every output column.
fn fold_by_key(
    input: &View<'_>,
    aggs: &[Agg],
    srcs: &[Vals<'_>],
    kernel: Option<&Bound<'_>>,
    out: &mut Relation,
) -> Result<(), RelError> {
    debug_assert!(input.is_dense(), "runs are of base rows");
    let keys = input.key().as_slice();
    let keys = &keys[..];
    let ranges = group_aligned_ranges(keys, DEFAULT_CTA_CHUNK);
    // Runs first — their number is the output's size, and finding them is
    // the scan that rejects unsorted keys — then the folds, each morsel
    // into its own window of every output column.
    let starts = par_range_map(ranges.len(), 1, |cta, _| run_starts(keys, ranges[cta].clone()));
    let starts = starts.into_iter().collect::<Result<Vec<_>, _>>()?;
    validate_agg_cols(srcs.len(), aggs)?;
    kfusion_trace::counter("kfusion_rows_in_total{op=\"aggregate\"}", keys.len() as u64);
    let runs: Vec<usize> = starts.iter().map(|s| s.len() - 1).collect();
    shape_output(srcs, aggs, runs.iter().sum(), out);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"aggregate\"}", out.len() as u64);
    let plan = Plan::new(aggs, srcs);
    let morsels = starts
        .into_iter()
        .zip(slice_windows(out.key.buffer_mut(), &runs))
        .zip(col_windows(&mut out.cols, &runs))
        .map(|((starts, key), cols)| Morsel { starts, key, cols })
        .collect();
    par_each(morsels, |m: Morsel<'_>| m.fold(keys, &plan, srcs, kernel));
    Ok(())
}

/// Group the (key-sorted) input by key and compute `aggs` per group. The
/// result has one row per distinct key and one column per aggregate.
///
/// Large inputs aggregate in parallel over group-aligned morsels; because
/// no group spans a morsel boundary, the per-group fold order — and thus
/// every float sum — is bit-identical to the serial scan.
pub fn aggregate_by_key(input: &Relation, aggs: &[Agg]) -> Result<Relation, RelError> {
    aggregate_by_key_view(&View::of(input), aggs)
}

/// [`aggregate_by_key`] over a view: the key and the columns `aggs` name
/// are read in place, the view's other columns not at all. A view that
/// carries its groups ([`View::is_grouped`]) is folded by group through its
/// selection; any other with a selection is made dense first, so that a
/// group is a run of base rows.
pub fn aggregate_by_key_view(input: &View<'_>, aggs: &[Agg]) -> Result<Relation, RelError> {
    let input = if input.is_grouped() { input.clone() } else { input.dense() };
    let mut out = Relation::default();
    fold_keyed(&input, aggs, &col_vals(&input), None, &mut out)?;
    Ok(out)
}

/// [`aggregate_by_key`] writing into a caller-owned relation (the `_into`
/// contract, DESIGN.md §14): `out` is overwritten, reusing its key and
/// column buffers whenever they already match the aggregate schema.
pub fn aggregate_by_key_into(
    input: &Relation,
    aggs: &[Agg],
    out: &mut Relation,
) -> Result<(), RelError> {
    let view = View::of(input);
    fold_by_key(&view, aggs, &col_vals(&view), None, out)
}

/// Aggregate the whole relation as a single group (no key), producing a
/// one-row relation with key 0 — the paper's plain AGGREGATION after a
/// SELECT (Fig. 2(g)): the same fold over one run, no re-keyed copy of the
/// input.
pub fn aggregate_all(input: &Relation, aggs: &[Agg]) -> Result<Relation, RelError> {
    aggregate_all_view(&View::of(input), aggs)
}

/// [`aggregate_all`] over a view, which it reads where it is, as
/// [`aggregate_by_key_view`] does — a view with a selection is made dense
/// first.
pub fn aggregate_all_view(input: &View<'_>, aggs: &[Agg]) -> Result<Relation, RelError> {
    validate_agg_cols(input.n_cols(), aggs)?;
    let view = &input.dense();
    kfusion_trace::counter("kfusion_rows_in_total{op=\"aggregate\"}", view.len() as u64);
    let srcs = col_vals(view);
    let mut out = Relation::default();
    shape_output(&srcs, aggs, usize::from(!view.is_empty()), &mut out);
    if view.is_empty() {
        return Ok(out);
    }
    kfusion_trace::counter("kfusion_rows_out_total{op=\"aggregate\"}", 1);
    let plan = Plan::new(aggs, &srcs);
    let cols = col_windows(&mut out.cols, &[1]).pop().expect("one window asked for");
    // One run: the fold reads no key.
    Morsel { starts: vec![0, view.len()], key: &mut [], cols }.fold(&[], &plan, &srcs, None);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_prng::Rng;

    fn sales() -> Relation {
        // key = group, col0 = i64 quantity, col1 = f64 price.
        Relation::new(
            vec![1, 1, 1, 2, 2, 5],
            vec![
                Column::I64(vec![10, 20, 30, 1, 2, 7]),
                Column::F64(vec![1.0, 2.0, 3.0, 10.0, 20.0, 5.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn grouped_sums_counts_avgs() {
        let out = aggregate_by_key(
            &sales(),
            &[Agg::Sum(0), Agg::Count, Agg::Avg(1), Agg::Min(0), Agg::Max(1)],
        )
        .unwrap();
        assert_eq!(*out.keys(), vec![1, 2, 5]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[60, 3, 7]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[3, 2, 1]);
        assert_eq!(out.cols[2].as_f64().unwrap(), &[2.0, 15.0, 5.0]);
        assert_eq!(out.cols[3].as_i64().unwrap(), &[10, 1, 7]);
        assert_eq!(out.cols[4].as_f64().unwrap(), &[3.0, 20.0, 5.0]);
    }

    #[test]
    fn unsorted_input_rejected() {
        let r = Relation::new(vec![2, 1], vec![Column::I64(vec![1, 2])]).unwrap();
        assert!(matches!(aggregate_by_key(&r, &[Agg::Count]), Err(RelError::NotSorted)));
    }

    #[test]
    fn aggregate_all_single_group() {
        let out = aggregate_all(&sales(), &[Agg::Sum(0), Agg::Count]).unwrap();
        assert_eq!(*out.keys(), vec![0]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[70]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[6]);
    }

    #[test]
    fn missing_column_is_reported() {
        for aggs in [&[Agg::Sum(9)][..], &[Agg::Count, Agg::Max(9)]] {
            let want = RelError::NoSuchColumn { col: 9, available: 2 };
            assert_eq!(aggregate_by_key(&sales(), aggs), Err(want.clone()));
            assert_eq!(aggregate_all(&sales(), aggs), Err(want));
        }
    }

    #[test]
    fn empty_input_empty_output() {
        let r = Relation::new(vec![], vec![Column::I64(vec![]), Column::F64(vec![])]).unwrap();
        let aggs = [Agg::Sum(0), Agg::Avg(0), Agg::Min(1), Agg::Count];
        for out in [aggregate_by_key(&r, &aggs).unwrap(), aggregate_all(&r, &aggs).unwrap()] {
            assert!(out.is_empty());
            assert_same_bits(&out, &oracle(&r, &aggs, true), "empty");
        }
    }

    #[test]
    fn key_packing_roundtrips() {
        for (a, b) in [(0u64, 0u64), (65, 78), (65535, 65535), (1, 0)] {
            assert_eq!(unpack_key2(pack_key2(a, b)), (a, b));
        }
        // Order matters: (a,b) and (b,a) pack differently.
        assert_ne!(pack_key2(1, 2), pack_key2(2, 1));
    }

    #[test]
    fn group_aligned_ranges_land_on_run_boundaries() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i / 90).collect();
        assert!(group_aligned_ranges(&[], 100).is_empty());
        assert_eq!(group_aligned_ranges(&keys[..100], 100), vec![0..100]);
        let ranges = group_aligned_ranges(&keys, 100);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, keys.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_ne!(keys[w[0].end - 1], keys[w[0].end], "cut inside a run");
        }
    }

    #[test]
    fn run_starts_delimit_every_run_of_a_range() {
        let keys = [7, 7, 8, 9, 9, 9, 12, 12];
        assert_eq!(run_starts(&keys, 0..8), Ok(vec![0, 2, 3, 6, 8]));
        assert_eq!(run_starts(&keys, 2..6), Ok(vec![2, 3, 6]));
        assert_eq!(run_starts(&keys, 3..4), Ok(vec![3, 4]));
        // Out of order inside the range, or against the row before it.
        assert_eq!(run_starts(&[1, 3, 2], 0..3), Err(RelError::NotSorted));
        assert_eq!(run_starts(&[5, 1, 2], 1..3), Err(RelError::NotSorted));
    }

    #[test]
    fn avg_of_i64_column_is_f64() {
        let r = Relation::new(vec![1, 1], vec![Column::I64(vec![1, 2])]).unwrap();
        let out = aggregate_by_key(&r, &[Agg::Avg(0)]).unwrap();
        assert_eq!(out.cols[0].as_f64().unwrap(), &[1.5]);
    }

    // -----------------------------------------------------------------
    // The oracle: the row-at-a-time fold this module ran before the
    // columnar one — an accumulator per aggregate, fed one row at a time,
    // flushed when the key changes (i64 sums written as the wrapping adds
    // release builds performed). The columnar fold must reproduce it bit
    // for bit.

    enum Acc {
        I64(i64),
        F64(f64),
        Count(i64),
        AvgF { sum: f64, n: u64 },
        AvgI { sum: i64, n: u64 },
    }

    fn make_acc(rel: &Relation, agg: Agg) -> Acc {
        match (agg, agg.col().map(|c| &rel.cols[c])) {
            (Agg::Count, _) => Acc::Count(0),
            (Agg::Sum(_), Some(Column::I64(_))) => Acc::I64(0),
            (Agg::Sum(_), Some(Column::F64(_))) => Acc::F64(0.0),
            (Agg::Min(_), Some(Column::I64(_))) => Acc::I64(i64::MAX),
            (Agg::Min(_), Some(Column::F64(_))) => Acc::F64(f64::INFINITY),
            (Agg::Max(_), Some(Column::I64(_))) => Acc::I64(i64::MIN),
            (Agg::Max(_), Some(Column::F64(_))) => Acc::F64(f64::NEG_INFINITY),
            (Agg::Avg(_), Some(Column::I64(_))) => Acc::AvgI { sum: 0, n: 0 },
            (Agg::Avg(_), Some(Column::F64(_))) => Acc::AvgF { sum: 0.0, n: 0 },
            _ => unreachable!("column aggregates name a column"),
        }
    }

    fn feed(acc: &mut Acc, agg: Agg, rel: &Relation, i: usize) {
        match (acc, agg) {
            (Acc::Count(n), Agg::Count) => *n += 1,
            (Acc::I64(s), Agg::Sum(c)) => *s = s.wrapping_add(rel.cols[c].as_i64().unwrap()[i]),
            (Acc::F64(s), Agg::Sum(c)) => *s += rel.cols[c].as_f64().unwrap()[i],
            (Acc::I64(s), Agg::Min(c)) => *s = (*s).min(rel.cols[c].as_i64().unwrap()[i]),
            (Acc::F64(s), Agg::Min(c)) => *s = (*s).min(rel.cols[c].as_f64().unwrap()[i]),
            (Acc::I64(s), Agg::Max(c)) => *s = (*s).max(rel.cols[c].as_i64().unwrap()[i]),
            (Acc::F64(s), Agg::Max(c)) => *s = (*s).max(rel.cols[c].as_f64().unwrap()[i]),
            (Acc::AvgI { sum, n }, Agg::Avg(c)) => {
                *sum = sum.wrapping_add(rel.cols[c].as_i64().unwrap()[i]);
                *n += 1;
            }
            (Acc::AvgF { sum, n }, Agg::Avg(c)) => {
                *sum += rel.cols[c].as_f64().unwrap()[i];
                *n += 1;
            }
            _ => unreachable!("accumulator/aggregate mismatch"),
        }
    }

    fn flush(acc: Acc, col: &mut Column) {
        match (acc, col) {
            (Acc::Count(n), Column::I64(v)) => v.push(n),
            (Acc::I64(s), Column::I64(v)) => v.push(s),
            (Acc::F64(s), Column::F64(v)) => v.push(s),
            (Acc::AvgF { sum, n }, Column::F64(v)) => v.push(sum / n as f64),
            (Acc::AvgI { sum, n }, Column::F64(v)) => v.push(sum as f64 / n as f64),
            _ => unreachable!("accumulator/column mismatch"),
        }
    }

    /// One serial scan of the whole input: per key run, or — `all` — as a
    /// single group under key 0.
    fn oracle(input: &Relation, aggs: &[Agg], all: bool) -> Relation {
        let view = View::of(input);
        let mut out = Relation {
            key: crate::data::Keys::default(),
            cols: aggs.iter().map(|&a| out_column(a, &col_vals(&view))).collect(),
        };
        let mut i = 0;
        while i < input.len() {
            let k = input.keys().get(i);
            let mut accs: Vec<Acc> = aggs.iter().map(|&a| make_acc(input, a)).collect();
            while i < input.len() && (all || input.keys().get(i) == k) {
                for (acc, &agg) in accs.iter_mut().zip(aggs) {
                    feed(acc, agg, input, i);
                }
                i += 1;
            }
            out.key.buffer_mut().push(if all { 0 } else { k });
            for (acc, col) in accs.into_iter().zip(out.cols.iter_mut()) {
                flush(acc, col);
            }
        }
        out
    }

    /// Compare two relations down to the bit — `==` would call NaN unequal
    /// to itself and `-0.0` equal to `0.0` — naming the first difference.
    /// One NaN is as good as another: which operand's payload `a + b` keeps
    /// is the code generator's choice, not the language's.
    #[track_caller]
    fn assert_same_bits(got: &Relation, want: &Relation, what: &str) {
        let float_bits = |v: &f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
        assert_eq!(*got.keys(), want.key, "{what}: keys");
        assert_eq!(got.n_cols(), want.n_cols(), "{what}: column count");
        for (c, pair) in got.cols.iter().zip(&want.cols).enumerate() {
            let first_diff = match pair {
                (Column::I64(g), Column::I64(w)) => g.iter().zip(w).position(|(g, w)| g != w),
                (Column::F64(g), Column::F64(w)) => {
                    g.iter().zip(w).position(|(g, w)| float_bits(g) != float_bits(w))
                }
                _ => panic!("{what}: column {c} changed type"),
            };
            if let Some(row) = first_diff {
                let at = |r: &Relation| r.cols[c].value(row);
                panic!("{what}: column {c}, group {row}: {:?}, oracle {:?}", at(got), at(want));
            }
        }
    }

    /// Every aggregate over an i64 column (0) and an f64 column (1).
    const EVERY_AGG: [Agg; 9] = [
        Agg::Sum(0),
        Agg::Sum(1),
        Agg::Min(0),
        Agg::Min(1),
        Agg::Max(0),
        Agg::Max(1),
        Agg::Avg(0),
        Agg::Avg(1),
        Agg::Count,
    ];

    /// Lists that name a column more than once, so that aggregates share an
    /// accumulator: an AVG before the SUM it takes its sum from, an AVG
    /// alone (an i64 sum kept in its f64 slot), one aggregate twice, and
    /// Q1's shape — SUM and AVG of the same columns.
    const REPEATS: [&[Agg]; 4] = [
        &[Agg::Avg(0), Agg::Sum(0), Agg::Avg(0), Agg::Sum(1), Agg::Avg(1), Agg::Count],
        &[Agg::Avg(0)],
        &[Agg::Min(1), Agg::Max(0), Agg::Min(1), Agg::Avg(1), Agg::Max(0), Agg::Avg(1)],
        &[Agg::Sum(0), Agg::Sum(1), Agg::Avg(0), Agg::Avg(1), Agg::Count],
    ];

    /// [`EVERY_AGG`] and the [`REPEATS`].
    fn agg_lists() -> impl Iterator<Item = &'static [Agg]> {
        std::iter::once(&EVERY_AGG[..]).chain(REPEATS)
    }

    /// Key-sorted rows with the given run lengths; values drawn from the
    /// awkward ones — `-0.0`, NaN, the infinities, i64 extremes whose sums
    /// wrap — as often as from ordinary ones.
    fn awkward(run_lens: impl IntoIterator<Item = usize>, seed: u64) -> Relation {
        const F: [f64; 6] = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308];
        const I: [i64; 4] = [i64::MAX, i64::MIN, i64::MAX - 1, -1];
        let mut rng = Rng::seed_from_u64(seed);
        let (mut key, mut ints, mut floats) = (Vec::new(), Vec::new(), Vec::new());
        for (g, len) in run_lens.into_iter().enumerate() {
            for _ in 0..len {
                key.push(3 * g as u64 + 1);
                ints.push(match rng.gen_range(0usize..8) {
                    k if k < I.len() => I[k],
                    _ => rng.gen_range(-1000i64..1000),
                });
                floats.push(match rng.gen_range(0usize..12) {
                    k if k < F.len() => F[k],
                    _ => rng.gen_range(-1000i64..1000) as f64 * 0.37,
                });
            }
        }
        Relation::new(key, vec![Column::I64(ints), Column::F64(floats)]).unwrap()
    }

    fn assert_matches_oracle(r: &Relation, what: &str) {
        for aggs in agg_lists() {
            let what = &format!("{what}, {aggs:?}");
            let want = oracle(r, aggs, false);
            assert_same_bits(&aggregate_by_key(r, aggs).unwrap(), &want, what);
            // Into a buffer of another shape and size, and into a warm one.
            let mut out = sales();
            for _ in 0..2 {
                aggregate_by_key_into(r, aggs, &mut out).unwrap();
                assert_same_bits(&out, &want, &format!("{what}, _into"));
            }
            let all = aggregate_all(r, aggs).unwrap();
            assert_same_bits(&all, &oracle(r, aggs, true), &format!("{what}, as one group"));
        }
    }

    #[test]
    fn columnar_fold_matches_the_row_fold_bit_for_bit() {
        crate::engine::set_scratch_poison(true);
        let mut rng = Rng::seed_from_u64(14);
        // Short runs (Q21's shape: single-row groups among them), inside
        // one morsel and across several.
        for (case, groups) in [(0u64, 1), (1, 7), (2, 5_000), (3, 60_000)] {
            let lens: Vec<usize> = (0..groups).map(|_| rng.gen_range(1usize..8)).collect();
            assert_matches_oracle(&awkward(lens, case), &format!("{groups} short runs"));
        }
        // One group spanning several morsels, between two small ones.
        let chunk = DEFAULT_CTA_CHUNK;
        assert_matches_oracle(&awkward([3, 3 * chunk + 17, 2], 4), "a run over three morsels");
        // Runs ending exactly on morsel boundaries, and one row past them.
        assert_matches_oracle(&awkward([chunk, chunk, 1, chunk - 1, 5], 5), "runs end on the cut");
        assert_matches_oracle(&awkward([chunk - 1, 2, chunk - 1, 1], 6), "runs straddle the cut");
        // Q1's shape: a handful of long runs.
        assert_matches_oracle(&awkward([90_000, 1, 120_000, 70_000], 7), "long runs");
        crate::engine::set_scratch_poison(false);
    }

    /// A view a SORT by key grouped instead of sorting folds to what its
    /// sorted rows fold to, bit for bit — a group per row, short runs,
    /// Q1's few long ones — dense or filtered, through a PROJECT, and
    /// gathered first.
    #[test]
    fn a_grouped_view_folds_as_its_sorted_rows_do() {
        use crate::ops::{group_by_key_view, project_view, select, select_view, sort, SortBy};
        let mut rng = Rng::seed_from_u64(15);
        let shapes: [(&str, Vec<usize>); 3] = [
            ("a group per row", vec![1; 5_000]),
            ("short runs", (0..3_000).map(|g| 1 + g % 7).collect()),
            ("long runs", vec![90_000, 1, 120_000, 70_000]),
        ];
        for (seed, (shape, lens)) in (16..).zip(shapes) {
            // The rows out of key order: a shuffle of the sorted table.
            let sorted = awkward(lens, seed);
            let mut order: Vec<u32> = (0..sorted.len() as u32).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let shuffled = crate::view::gather(&View::of(&sorted), &order);
            let sorted_oracle =
                |r: &Relation, aggs: &[Agg]| oracle(&sort(r, SortBy::Key).unwrap(), aggs, false);
            let pred = crate::predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Lt, 0);
            let kept = select_view(&View::of(&shuffled), &pred).unwrap();
            for (view, rows) in
                [(View::of(&shuffled), shuffled.clone()), (kept, select(&shuffled, &pred).unwrap())]
            {
                let what = format!("{shape}, {} of {} rows", rows.len(), shuffled.len());
                let grouped = group_by_key_view(&view).unwrap();
                assert!(grouped.is_grouped(), "{what}");
                let gathered = grouped.dense();
                assert!(gathered.is_grouped(), "{what}");
                for aggs in agg_lists() {
                    let want = sorted_oracle(&rows, aggs);
                    let got = aggregate_by_key_view(&grouped, aggs).unwrap();
                    assert_same_bits(&got, &want, &format!("{what}, {aggs:?}"));
                    let got = aggregate_by_key_view(&gathered, aggs).unwrap();
                    assert_same_bits(&got, &want, &format!("{what}, {aggs:?}, gathered"));
                }
                // PROJECT[1, 0, 1] renumbers the columns and keeps the groups.
                let projected = project_view(&grouped, &[1, 0, 1]).unwrap();
                let remapped = [Agg::Min(1), Agg::Sum(2), Agg::Avg(0), Agg::Max(1), Agg::Count];
                let aggs = [Agg::Min(0), Agg::Sum(1), Agg::Avg(1), Agg::Max(0), Agg::Count];
                let got = aggregate_by_key_view(&projected, &remapped).unwrap();
                assert_same_bits(&got, &sorted_oracle(&rows, &aggs), &format!("{what}, projected"));
            }
        }
    }

    #[test]
    fn a_view_is_aggregated_where_its_columns_are() {
        let r = awkward((0..3_000).map(|g| 1 + g % 5), 8);
        let aggs = [Agg::Min(0), Agg::Sum(1), Agg::Count];
        // PROJECT[1, 0, 1] renumbers the columns and copies nothing.
        let projected = crate::ops::project_view(&View::of(&r), &[1, 0, 1]).unwrap();
        let stored = crate::ops::project(&r, &[1, 0, 1]).unwrap();
        let remapped = [Agg::Min(1), Agg::Sum(2), Agg::Count];
        let want = oracle(&r, &aggs, false);
        assert_same_bits(&aggregate_by_key_view(&projected, &remapped).unwrap(), &want, "view");
        assert_same_bits(&aggregate_by_key(&stored, &remapped).unwrap(), &want, "stored");
        // A filtered view aggregates the rows it selects.
        let pred = crate::predicates::col_cmp_i64(0, kfusion_ir::CmpOp::Lt, 0);
        let few = crate::ops::select_view(&View::of(&r), &pred).unwrap();
        assert!(few.selection().is_some() && !few.is_empty());
        let want = oracle(&crate::ops::select(&r, &pred).unwrap(), &aggs, false);
        assert_same_bits(&aggregate_by_key_view(&few, &aggs).unwrap(), &want, "filtered view");
        // Errors are the stored relation's.
        assert_eq!(
            aggregate_by_key_view(&projected, &[Agg::Sum(3)]),
            Err(RelError::NoSuchColumn { col: 3, available: 3 })
        );
    }
}
