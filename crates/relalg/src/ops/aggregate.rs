//! AGGREGATION: group by key, reduce payload columns.
//!
//! TPC-H Q1's tail is exactly this — sums, averages, and counts per
//! `(returnflag, linestatus)` group — and Q21 decides its EXISTS / NOT
//! EXISTS with grouped MIN/MAX over 300 k orders. Callers pack compound
//! group attributes into the key with [`pack_key2`]. The paper's plans
//! SORT before aggregating (Fig. 17), and the fold takes one of two shapes,
//! both columnar:
//!
//! * **runs** — a view whose selected keys are in key order (which is
//!   checked) is a segmented fold: a group is a run of equal selected keys.
//!   The base rows are cut into morsels of whole selection words that no run
//!   crosses; pass 1 counts each morsel's runs, pass 2 walks its selected
//!   lanes batch by batch, the accumulators of one value and slot type
//!   sharing one walk with the runs' keys ([`fold_runs`]), into that
//!   morsel's window of the output. A dense view is the case with no
//!   selection.
//! * **groups** — a view a SORT by key grouped instead of sorting
//!   ([`crate::ops::group_by_key_view`]) is in no key order, but each key's
//!   rows are in the order the sorted rows would be. The groups are
//!   numbered as their keys first appear ([`Slots`]), and each row is
//!   folded, in that order, into its group's slot of each accumulator; the
//!   accumulators that fold alike (all of Q1's are f64 sums) share one
//!   typed walk over the selected rows ([`fold_rows`]). The accumulators,
//!   never the rows, are dealt to the workers, and the groups written in
//!   key order.
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
    col_windows, par_each, slice_windows, ColWindow, Column, Keys, RelError, Relation,
};
use crate::view::{self, end_lanes, Batch, Bound, Groups, View};
use kfusion_ir::batch::{BankView, BATCH_ROWS};
use kfusion_vgpu::exec::{par_range_map, workers, DEFAULT_CTA_CHUNK};
use std::ops::Range;

/// One aggregate over a payload column (or over the rows themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    pub fn col(&self) -> Option<usize> {
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

/// The aggregate schema with `rows` zeroed rows per column.
fn zeroed_output(srcs: &[Vals<'_>], aggs: &[Agg], rows: usize) -> Relation {
    let mut cols: Vec<Column> = aggs.iter().map(|&a| out_column(a, srcs)).collect();
    cols.iter_mut().for_each(|c| c.resize_zeroed(rows));
    Relation { key: Keys::Stored(vec![0; rows]), cols }
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

/// Source `src` over one batch of a walk: a window of its column, or the
/// lanes the kernel left in its output's bank.
fn batch_lanes<'b>(src: Vals<'b>, batch: &Batch<'b>) -> Lanes<'b> {
    let rows = batch.rows.clone();
    match src {
        Vals::Col(Column::I64(v)) => Lanes::I64(&v[rows]),
        Vals::Col(Column::F64(v)) => Lanes::F64(&v[rows]),
        Vals::Out { slot, .. } => match batch.output(slot) {
            BankView::I64(b) => Lanes::I64(&b[..rows.len()]),
            BankView::F64(b) => Lanes::F64(&b[..rows.len()]),
            BankView::Bool(_) => unreachable!("flag outputs are not folded"),
        },
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

/// How a slot of type `Self` folds values of type `T` at each [`Step`] it
/// takes: the identity and the step of the row-at-a-time fold the tests
/// keep as the oracle. An f64 slot folds an i64 sum only for an AVG, in
/// its bits, until the AVG divides it.
trait Fold<T>: Slot {
    fn identity(step: Step) -> Self;
    fn apply(step: Step, acc: Self, v: T) -> Self;
}

impl Fold<i64> for i64 {
    fn identity(step: Step) -> i64 {
        match step {
            Step::Sum => 0,
            Step::Min => i64::MAX,
            Step::Max => i64::MIN,
        }
    }
    #[inline(always)]
    fn apply(step: Step, acc: i64, v: i64) -> i64 {
        match step {
            Step::Sum => acc.wrapping_add(v),
            Step::Min => acc.min(v),
            Step::Max => acc.max(v),
        }
    }
}

impl Fold<i64> for f64 {
    fn identity(_step: Step) -> f64 {
        0.0
    }
    #[inline(always)]
    fn apply(_step: Step, acc: f64, v: i64) -> f64 {
        f64::from_bits((acc.to_bits() as i64).wrapping_add(v) as u64)
    }
}

impl Fold<f64> for f64 {
    fn identity(step: Step) -> f64 {
        match step {
            Step::Sum => 0.0,
            Step::Min => f64::INFINITY,
            Step::Max => f64::NEG_INFINITY,
        }
    }
    #[inline(always)]
    fn apply(step: Step, acc: f64, v: f64) -> f64 {
        match step {
            Step::Sum => acc + v,
            Step::Min => acc.min(v),
            Step::Max => acc.max(v),
        }
    }
}

/// Call `$fold` with accumulator `a`'s value and slot types.
macro_rules! by_class {
    ($plan:expr, $a:expr, $fold:ident($($arg:expr),*)) => {
        match $plan.kind($a) {
            (_, false, false) => $fold::<i64, i64>($($arg),*),
            (_, false, true) => $fold::<i64, f64>($($arg),*),
            (_, true, _) => $fold::<f64, f64>($($arg),*),
        }
    };
}

/// Call `$fold` with accumulator `a`'s value and slot types and its step —
/// each step a function of its own, so a loop over rows has no branch on
/// it.
macro_rules! by_kind {
    ($plan:expr, $a:expr, $fold:ident($($arg:expr),*)) => {
        match $plan.kind($a) {
            (Step::Sum, false, false) => by_kind!(@ $fold, i64, i64, Sum, $($arg),*),
            (Step::Sum, false, true) => by_kind!(@ $fold, i64, f64, Sum, $($arg),*),
            (Step::Sum, true, _) => by_kind!(@ $fold, f64, f64, Sum, $($arg),*),
            (Step::Min, false, _) => by_kind!(@ $fold, i64, i64, Min, $($arg),*),
            (Step::Min, true, _) => by_kind!(@ $fold, f64, f64, Min, $($arg),*),
            (Step::Max, false, _) => by_kind!(@ $fold, i64, i64, Max, $($arg),*),
            (Step::Max, true, _) => by_kind!(@ $fold, f64, f64, Max, $($arg),*),
        }
    };
    (@ $fold:ident, $t:ty, $a:ty, $step:ident, $($arg:expr),*) => {
        $fold::<$t, $a>($($arg,)* |acc, v| <$a as Fold<$t>>::apply(Step::$step, acc, v))
    };
}

impl Plan {
    /// How accumulator `a` folds: its step, whether it folds f64s, and
    /// whether it lives in an f64 column.
    fn kind(&self, a: usize) -> (Step, bool, bool) {
        let home_f64 = self.f64[a] || matches!(self.outs[self.home[a]], Out::Mean(_));
        (self.accs[a].step, self.f64[a], home_f64)
    }

    /// Accumulator `a`'s value and slot types: whether it folds f64s, and
    /// whether it lives in an f64 column.
    fn class(&self, a: usize) -> (bool, bool) {
        let (_, f64, home_f64) = self.kind(a);
        (f64, home_f64)
    }

    /// Whether an aggregate reads the groups' sizes: a COUNT, or an AVG.
    fn sized(&self) -> bool {
        self.outs.iter().any(|o| matches!(o, Out::Count | Out::Mean(_)))
    }
}

/// The base rows of a view cut into ~`chunk`-row morsels of whole
/// selection words (`chunk` is a multiple of 64), each cut where the
/// selected keys on either side of it differ: every run of equal selected
/// keys lands wholly inside one morsel, so its fold order — hence every
/// float sum — is the serial scan's. A cut that would split a run moves on
/// past the word of the run's next selected row. No rows, no morsels.
fn run_aligned_morsels(keys: &[u64], sel: Option<&[u64]>, chunk: usize) -> Vec<Range<usize>> {
    let n = keys.len();
    if n == 0 {
        return Vec::new();
    }
    // The first selected row at or after word boundary `row`, and the last
    // before it but not before `floor`, the morsel's first row.
    let next = |row: usize| match sel {
        None => Some(row),
        Some(sel) => (row / 64..sel.len())
            .find(|&w| sel[w] != 0)
            .map(|w| w * 64 + sel[w].trailing_zeros() as usize),
    };
    let prev = |floor: usize, row: usize| match sel {
        None => Some(row - 1),
        Some(sel) => (floor / 64..row / 64)
            .rev()
            .find(|&w| sel[w] != 0)
            .map(|w| w * 64 + 63 - sel[w].leading_zeros() as usize),
    };
    let mut bounds = vec![0];
    let mut cut = chunk;
    while cut < n {
        let floor = bounds[bounds.len() - 1];
        match (prev(floor, cut), next(cut)) {
            // No row selected past the cut: the rest is one morsel.
            (_, None) => break,
            (Some(p), Some(q)) if keys[p] == keys[q] => cut = (q / 64 + 1) * 64,
            _ => {
                bounds.push(cut);
                cut += chunk;
            }
        }
    }
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Run `$body` with `$j` each of the `$n` lanes of a batch that `$words`
/// selects (every one when it is `None`), ascending — from lane `$from`
/// on, when given — a loop, not a closure, so the folds' state stays in
/// registers.
macro_rules! for_each_lane {
    ($words:expr, $n:expr, |$j:ident| $body:block) => {
        for_each_lane!($words, $n, 0, |$j| $body)
    };
    ($words:expr, $n:expr, $from:expr, |$j:ident| $body:block) => {
        let from: usize = $from;
        match $words {
            None => {
                #[allow(clippy::needless_range_loop)]
                for $j in from..$n $body
            }
            Some(words) => {
                let mut before = u64::MAX << (from % 64);
                for (w, &word) in words.iter().enumerate().skip(from / 64) {
                    let mut m = word & std::mem::replace(&mut before, u64::MAX);
                    while m != 0 {
                        let $j = w * 64 + m.trailing_zeros() as usize;
                        $body
                        m &= m - 1;
                    }
                }
            }
        }
    };
}

/// What pass 1 finds in a morsel's selected keys: how many runs they make,
/// the first and the last, and whether they never decrease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scan {
    runs: usize,
    first: u64,
    last: u64,
    sorted: bool,
}

/// Pass 1 over one morsel of `input`, whose keys are `keys`: its runs,
/// counted in the scan that checks its selected keys are in order. `None`
/// when it selects no row.
fn scan_runs(input: &View<'_>, keys: &[u64], rows: Range<usize>) -> Option<Scan> {
    let mut scan: Option<Scan> = None;
    view::walk(input, rows, None, |b| {
        let (batch, words) = (&keys[b.rows.clone()], b.words);
        let Some((first, _)) = end_lanes(words, batch.len()) else { return };
        let head = batch[first];
        let s = scan.get_or_insert(Scan { runs: 1, first: head, last: head, sorted: true });
        let (mut prev, mut runs, mut inversions) = (s.last, 0, 0);
        for_each_lane!(words, batch.len(), |j| {
            let key = batch[j];
            runs += (key != prev) as usize;
            inversions += (key < prev) as usize;
            prev = key;
        });
        *s = Scan { runs: s.runs + runs, last: prev, sorted: s.sorted && inversions == 0, ..*s };
    });
    scan
}

/// Where a morsel's run fold stands between batches: the open run and its
/// key.
#[derive(Clone, Copy)]
struct At {
    run: usize,
    key: u64,
}

/// What pass 2 writes besides the accumulators: each run's key and — when
/// an aggregate reads them (`sizes` is empty otherwise) — its size, the
/// open run's so far in `size`.
struct Head<'h> {
    key: &'h mut [u64],
    sizes: &'h mut [u32],
    size: u32,
}

/// One batch of a fold: its base rows' keys, which lanes the view selects,
/// and how many lanes.
struct RunBatch<'b> {
    keys: &'b [u64],
    words: Option<&'b [u64]>,
    n: usize,
}

/// `L` accumulators of one value and slot type over one batch, from `at`
/// on — `vals` their lanes, `dst` their windows of the output, a slot per
/// run of the morsel, `acc` each one's fold of the open run — and the
/// head, when it is handed in: every selected row restarts or extends each
/// fold by a select and stores it, so a run's last row stores last. Runs
/// are a few rows long as often as a few hundred thousand (Q21's orders,
/// Q1's flags) — or, for AGGREGATE-ALL, the whole input — so there is no
/// loop per run to mispredict, and the folds share the walk and the key
/// compare: their chains overlap. Returns where the batch leaves the fold.
fn fold_runs<T: Copy, A: Fold<T>, const L: usize>(
    batch: &RunBatch<'_>,
    (vals, dst, steps): ([&[T]; L], [&mut [A]; L], [Step; L]),
    acc: &mut [A],
    head: Option<&mut Head<'_>>,
    at: At,
) -> At {
    let init: [A; L] = std::array::from_fn(|l| A::identity(steps[l]));
    let mut folds: [A; L] = std::array::from_fn(|l| acc[l]);
    let (mut run, mut prev) = (at.run, at.key);
    let mut none = Head { key: &mut [], sizes: &mut [], size: 0 };
    let head = head.unwrap_or(&mut none);
    let (key_out, sizes, mut size) = (&mut *head.key, &mut *head.sizes, head.size);
    let (keyed, sized) = (!key_out.is_empty(), !sizes.is_empty());
    // A batch whose first and last selected keys are the open run's
    // extends it: pass 1 found the keys in order, so every selected key
    // between them is that key too. The lanes fold outright and store once
    // — every batch of AGGREGATE-ALL, and most of a long run's.
    let (lo, hi) = end_lanes(batch.words, batch.n).expect("a folded batch selects a row");
    if batch.keys[lo] == prev && batch.keys[hi] == prev {
        let mut rows = 0;
        for_each_lane!(batch.words, batch.n, |j| {
            for l in 0..L {
                folds[l] = A::apply(steps[l], folds[l], vals[l][j]);
            }
            rows += 1;
        });
        for l in 0..L {
            dst[l][run] = folds[l];
        }
        if keyed {
            key_out[run] = prev;
        }
        if sized {
            size += rows;
            sizes[run] = size;
        }
        head.size = size;
        acc[..L].copy_from_slice(&folds);
        return at;
    }
    for_each_lane!(batch.words, batch.n, |j| {
        let key = batch.keys[j];
        let fresh = key != prev;
        run += fresh as usize;
        for l in 0..L {
            folds[l] = A::apply(steps[l], if fresh { init[l] } else { folds[l] }, vals[l][j]);
            dst[l][run] = folds[l];
        }
        if keyed {
            key_out[run] = key;
        }
        if sized {
            size = if fresh { 1 } else { size + 1 };
            sizes[run] = size;
        }
        prev = key;
    });
    head.size = size;
    acc[..L].copy_from_slice(&folds);
    At { run, key: prev }
}

/// One batch's fold of the lanes of one value and slot type (`like`), up
/// to four of them sharing a walk; `open[a]` keeps accumulator `a`'s fold
/// of the open run as bits between batches. The head goes to the first
/// walk.
#[allow(clippy::too_many_arguments)]
fn fold_class<'v, 'b, T: Slot, A: Fold<T>>(
    batch: &RunBatch<'_>,
    lanes: &mut [Lane<'_, 'v>],
    like: &dyn Fn(usize) -> bool,
    vals_of: &dyn Fn(Vals<'v>) -> Lanes<'b>,
    plan: &Plan,
    open: &mut [u64],
    mut head: Option<&mut Head<'_>>,
    at: At,
) -> At {
    let mut picked = lanes.iter_mut().filter(|lane| like(lane.a)).peekable();
    let mut end = at;
    while picked.peek().is_some() {
        let mut vals: [&[T]; 4] = [&[]; 4];
        let mut dst: [&mut [A]; 4] = Default::default();
        let mut steps = [Step::Sum; 4];
        let mut folds = [A::identity(Step::Sum); 4];
        let mut picks = [0; 4];
        let mut m = 0;
        for lane in picked.by_ref().take(4) {
            (vals[m], dst[m], steps[m]) =
                (T::lanes(vals_of(lane.src)), A::window(&mut lane.acc), plan.accs[lane.a].step);
            (folds[m], picks[m]) = (A::of_bits(open[lane.a]), lane.a);
            m += 1;
        }
        let ([v0, v1, v2, v3], [d0, d1, d2, d3], [s0, s1, s2, s3]) = (vals, dst, steps);
        let (head, f) = (head.take(), &mut folds);
        end = match m {
            1 => fold_runs(batch, ([v0], [d0], [s0]), f, head, at),
            2 => fold_runs(batch, ([v0, v1], [d0, d1], [s0, s1]), f, head, at),
            3 => fold_runs(batch, ([v0, v1, v2], [d0, d1, d2], [s0, s1, s2]), f, head, at),
            _ => fold_runs(
                batch,
                ([v0, v1, v2, v3], [d0, d1, d2, d3], [s0, s1, s2, s3]),
                f,
                head,
                at,
            ),
        };
        for (&a, fold) in picks.iter().zip(&folds).take(m) {
            open[a] = fold.bits();
        }
    }
    end
}

/// One morsel of the run fold: its base rows (from a selection word on),
/// its first selected key, and its windows of the output — a slot per run.
struct Morsel<'o> {
    rows: Range<usize>,
    first: u64,
    key: &'o mut [u64],
    cols: Vec<ColWindow<'o>>,
}

impl Morsel<'_> {
    /// Pass 2: fold the morsel's selected rows of `input` into its windows,
    /// batch by batch — `keys` are the keys of all base rows, `None` when
    /// the morsel is one run whose key is not written (AGGREGATE-ALL) —
    /// running `kernel` over each batch that selects a row when it computes
    /// some of the values. Each run's key and, when an aggregate reads them,
    /// its rows are folded in the same walks. Then finish the windows.
    fn fold(
        self,
        input: &View<'_>,
        keys: Option<&[u64]>,
        plan: &Plan,
        srcs: &[Vals<'_>],
        kernel: Option<&Bound<'_>>,
    ) {
        let Morsel { rows, first, key, cols } = self;
        let mut sizes = vec![0u32; if keys.is_some() && plan.sized() { key.len() } else { 0 }];
        let mut head = Head { key, sizes: &mut sizes, size: 0 };
        let mut homes: Vec<Option<ColWindow<'_>>> = cols.into_iter().map(Some).collect();
        let mut lanes: Vec<Lane<'_, '_>> = (0..plan.accs.len())
            .map(|a| Lane {
                a,
                src: srcs[plan.accs[a].src],
                acc: homes[plan.home[a]].take().expect("an output column holds one accumulator"),
            })
            .collect();
        let mut open: Vec<u64> = (0..lanes.len())
            .map(|a| by_class!(plan, a, identity_bits(plan.accs[a].step)))
            .collect();
        // One accumulator of each value and slot type.
        let mut classes: Vec<usize> = Vec::new();
        for a in 0..lanes.len() {
            if !classes.iter().any(|&b| plan.class(b) == plan.class(a)) {
                classes.push(a);
            }
        }
        // One run has one key: AGGREGATE-ALL's rows all read key 0.
        let zeros = [0u64; BATCH_ROWS];
        let mut at = At { run: 0, key: first };
        view::walk(input, rows, kernel.copied(), |b| {
            let vals_of = |src| batch_lanes(src, b);
            let n = b.rows.len();
            let keys = keys.map_or(&zeros[..n], |keys| &keys[b.rows.clone()]);
            let batch = RunBatch { keys, words: b.words, n };
            // The head goes to the first walk — its own when no accumulator
            // has one.
            let mut handed = Some(&mut head);
            let mut end = at;
            for &class in &classes {
                let like = |c: usize| plan.class(c) == plan.class(class);
                let head = handed.take();
                end = by_class!(
                    plan,
                    class,
                    fold_class(&batch, &mut lanes, &like, &vals_of, plan, &mut open, head, at)
                );
            }
            if let Some(head) = handed {
                end = fold_runs::<i64, i64, 0>(&batch, ([], [], []), &mut [], Some(head), at);
            }
            at = end;
        });
        for lane in lanes {
            homes[plan.home[lane.a]] = Some(lane.acc);
        }
        let mut cols: Vec<ColWindow<'_>> =
            homes.into_iter().map(|h| h.expect("every window back")).collect();
        match keys {
            Some(_) => plan.finish(&mut cols, |g| sizes[g] as usize),
            None => plan.finish(&mut cols, |_| input.len()),
        }
    }
}

/// An accumulator's identity, as bits.
fn identity_bits<T, A: Fold<T>>(step: Step) -> u64 {
    A::identity(step).bits()
}

/// Accumulator `a` of a run fold: the values it reads and the column it
/// folds into, a slot per run.
struct Lane<'o, 'v> {
    a: usize,
    src: Vals<'v>,
    acc: ColWindow<'o>,
}

/// The slot of a key no selected row has shown yet.
const NO_SLOT: u32 = u32::MAX;

/// Where a share of a grouped fold keeps its groups: a slot of `stride`
/// words per group in `accs`, in the order their keys first appear, and
/// where key `lo + b`'s slot starts at `of_key[b]` ([`NO_SLOT`] until a
/// row holds it). A slot holds the bits of each of the share's
/// accumulators in turn, then, when the share counts them, the group's
/// size.
struct Slots<'t> {
    lo: u64,
    of_key: &'t mut [u32],
    accs: &'t mut Vec<u64>,
    /// A slot's accumulators as it opens: each one's identity, and a size
    /// of 0. Its length is the stride.
    fresh: &'t [u64],
}

impl Slots<'_> {
    /// Open the next slot for `key`, every accumulator at its identity.
    /// `accs` has room for every slot, so this never allocates.
    #[cold]
    fn open(&mut self, key: u64) {
        let at = u32::try_from(self.accs.len()).ok().filter(|&at| at != NO_SLOT);
        self.of_key[(key - self.lo) as usize] = at.expect("slots start below u32::MAX");
        self.accs.extend_from_slice(self.fresh);
    }
}

/// Fold each selected row of a batch into its group's `L` accumulators
/// that start at word `first` of its slot, reading `vals`, opening the
/// group's slot at its first row — and, when `count` is set, add the row to
/// its group's size, the last word of the slot. The walk holds the slots
/// opened so far as a slice, so that no store to an accumulator can move
/// it: a row whose key has none stops the walk, which opens its slot and
/// goes on from that row. The `L` steps of a row are independent, so they
/// overlap; `L` is a constant, so they unroll and the slices stay in
/// registers.
fn fold_rows<T: Copy, A: Slot, const L: usize>(
    batch: &RunBatch<'_>,
    (vals, first): ([&[T]; L], usize),
    step: &impl Fn(A, T) -> A,
    slots: &mut Slots<'_>,
    count: bool,
) {
    let (lo, size_at) = (slots.lo, slots.fresh.len() - 1);
    let (keys, vals) = (&batch.keys[..batch.n], vals.map(|v| &v[..batch.n]));
    let mut from = 0;
    loop {
        let (of_key, accs) = (&*slots.of_key, &mut slots.accs[..]);
        let unopened = 'walk: {
            for_each_lane!(batch.words, batch.n, from, |j| {
                let at = of_key[(keys[j] - lo) as usize];
                if at == NO_SLOT {
                    break 'walk Some(j);
                }
                let at = at as usize;
                let lanes: &mut [u64; L] = (&mut accs[at + first..][..L]).try_into().expect("L");
                for l in 0..L {
                    lanes[l] = step(A::of_bits(lanes[l]), vals[l][j]).bits();
                }
                if count {
                    accs[at + size_at] += 1;
                }
            });
            None
        };
        let Some(j) = unopened else { return };
        slots.open(batch.keys[j]);
        from = j;
    }
}

/// [`fold_rows`] for `lanes`, the sources of accumulators that fold alike
/// and lie side by side in a slot from word `first` on, up to four at a
/// time; the first walk counts the sizes when `count` asks for it, and
/// clears it.
fn fold_like<'v, 'b, T: Slot, A: Slot>(
    batch: &RunBatch<'_>,
    (first, lanes): (usize, &[Vals<'v>]),
    vals_of: &dyn Fn(Vals<'v>) -> Lanes<'b>,
    slots: &mut Slots<'_>,
    count: &mut bool,
    step: impl Fn(A, T) -> A,
) {
    for (four, first) in lanes.chunks(4).zip((first..).step_by(4)) {
        let mut vals: [&[T]; 4] = [&[]; 4];
        for (m, &src) in four.iter().enumerate() {
            vals[m] = T::lanes(vals_of(src));
        }
        let [v0, v1, v2, v3] = vals;
        let count = std::mem::take(count);
        match four.len() {
            1 => fold_rows(batch, ([v0], first), &step, slots, count),
            2 => fold_rows(batch, ([v0, v1], first), &step, slots, count),
            3 => fold_rows(batch, ([v0, v1, v2], first), &step, slots, count),
            _ => fold_rows(batch, ([v0, v1, v2, v3], first), &step, slots, count),
        }
    }
}

/// One share of a grouped fold: some of the accumulators, and the slots
/// its walk over every selected row finds the groups in ([`Slots`]). Every
/// share walks the same rows in the same order, so all number the groups
/// alike.
struct Share {
    /// The share's accumulators, in slot order: those that fold alike side
    /// by side.
    accs: Vec<usize>,
    /// Whether the share counts the groups' sizes.
    sized: bool,
    /// Each accumulator's identity then — when sized — a size of 0, as bits.
    fresh: Vec<u64>,
    /// Where each key of the range has its slot ([`Slots`]); after
    /// [`Share::write`], the slots in key order at its head. A scratch
    /// buffer.
    of_key: Vec<u32>,
    /// The slots' accumulators ([`Slots`]). A scratch buffer.
    slots: Vec<u64>,
}

impl Share {
    /// The walk: every selected row of `input`, in base-row order, into its
    /// group's slot of each of the share's accumulators — batch by batch,
    /// the kernel run for a batch only when the share folds one of its
    /// outputs. The key range is `lo..lo + buckets`.
    fn fold(
        &mut self,
        input: &View<'_>,
        keys: &[u64],
        (lo, buckets): (u64, usize),
        plan: &Plan,
        srcs: &[Vals<'_>],
        kernel: Option<&Bound<'_>>,
    ) {
        // For each way the share's accumulators fold: one of them, where
        // in a slot they start, and their sources.
        let mut kinds: Vec<(usize, usize, Vec<Vals<'_>>)> = Vec::new();
        for (off, &a) in self.accs.iter().enumerate() {
            let src = srcs[plan.accs[a].src];
            match kinds.last_mut() {
                Some((b, _, lanes)) if plan.kind(*b) == plan.kind(a) => lanes.push(src),
                _ => kinds.push((a, off, vec![src])),
            }
        }
        let mut computed = kinds.iter().flat_map(|(_, _, lanes)| lanes);
        let kernel = kernel.filter(|_| computed.any(|src| matches!(src, Vals::Out { .. })));
        self.of_key.resize(buckets, NO_SLOT);
        let mut slots =
            Slots { lo, of_key: &mut self.of_key, accs: &mut self.slots, fresh: &self.fresh };
        let sized = self.sized;
        view::walk(input, 0..input.base_len(), kernel.copied(), |b| {
            let vals_of = |src| batch_lanes(src, b);
            let batch = RunBatch { keys: &keys[b.rows.clone()], words: b.words, n: b.rows.len() };
            let mut count = sized;
            for (a, first, lanes) in &kinds {
                let lanes = (*first, &lanes[..]);
                by_kind!(plan, *a, fold_like(&batch, lanes, &vals_of, &mut slots, &mut count));
            }
            if count {
                fold_rows::<i64, i64, 0>(&batch, ([], 0), &|acc, _| acc, &mut slots, true);
            }
        });
    }

    /// How many groups the walk found.
    fn groups(&self) -> usize {
        self.slots.len() / self.fresh.len()
    }

    /// Write the share's accumulators into `cols`, their windows of the
    /// output, in key order — and, when handed the key column, each
    /// group's key — in one pass over the slot table, which leaves the
    /// slots in key order at its head.
    fn write(&mut self, mut cols: Vec<ColWindow<'_>>, mut key: Option<&mut [u64]>, lo: u64) {
        let mut groups = 0;
        for b in 0..self.of_key.len() {
            let s = self.of_key[b];
            if s != NO_SLOT {
                self.of_key[groups] = s;
                if let Some(key) = key.as_deref_mut() {
                    key[groups] = lo + b as u64;
                }
                groups += 1;
            }
        }
        let in_order = &self.of_key[..groups];
        for (off, col) in cols.iter_mut().enumerate() {
            let bits = in_order.iter().map(|&s| self.slots[s as usize + off]);
            match col {
                ColWindow::I64(d) => d.iter_mut().zip(bits).for_each(|(v, b)| *v = b as i64),
                ColWindow::F64(d) => {
                    d.iter_mut().zip(bits).for_each(|(v, b)| *v = f64::from_bits(b))
                }
            }
        }
    }

    /// Group `g`'s size, in key order: the share must count sizes, and have
    /// written its groups.
    fn size(&self, g: usize) -> usize {
        self.slots[self.of_key[g] as usize + self.fresh.len() - 1] as usize
    }
}

/// One window over all `rows` of every column.
fn whole(cols: &mut [Column], rows: usize) -> Vec<ColWindow<'_>> {
    col_windows(cols, &[rows]).pop().expect("one window asked for")
}

/// The keyed fold of `aggs` over `input` — a view that carries
/// its key range folded by group through its selection, any other (its
/// selected keys in order, which is checked) by runs — reading each
/// aggregate's values from `srcs`, some of which may be outputs of
/// `kernel` run over `input`'s base rows.
pub(crate) fn fold_keyed(
    input: &View<'_>,
    aggs: &[Agg],
    srcs: &[Vals<'_>],
    kernel: Option<&Bound<'_>>,
) -> Result<Relation, RelError> {
    match input.groups() {
        Some(groups) => fold_by_group(input, groups, aggs, srcs, kernel),
        None => fold_by_key(input, aggs, srcs, kernel),
    }
}

/// [`fold_keyed`] over a view that carries the range of its keys: one row
/// per group, in key order. The accumulators, never the rows, are dealt to
/// the workers, in contiguous shares: splitting a fold's rows would
/// reassociate its sums. Each share numbers the groups as their keys first
/// appear ([`Share::fold`]); then the output is sized, and each share
/// writes its accumulators in key order ([`Share::write`]), the first also
/// the keys. When an aggregate reads the groups' sizes, one share counts
/// them in its walk.
fn fold_by_group(
    input: &View<'_>,
    groups: Groups,
    aggs: &[Agg],
    srcs: &[Vals<'_>],
    kernel: Option<&Bound<'_>>,
) -> Result<Relation, RelError> {
    validate_agg_cols(srcs.len(), aggs)?;
    kfusion_trace::counter("kfusion_rows_in_total{op=\"aggregate\"}", input.len() as u64);
    let plan = Plan::new(aggs, srcs);
    let keys = input.key().as_slice();
    // No accumulator (COUNT alone): one share that only counts.
    let all: Vec<usize> = (0..plan.accs.len()).collect();
    let mut dealt: Vec<&[usize]> = all.chunks(all.len().div_ceil(workers()).max(1)).collect();
    if dealt.is_empty() {
        dealt.push(&[]);
    }
    // The sizes cost a store per row, so the lightest share counts them:
    // the last that runs no kernel (shares deal columns first, and the
    // last holds the fewest), else the first. One with no accumulator
    // counts all the same, so that its slots are a word long.
    let computes =
        |accs: &&[usize]| accs.iter().any(|&a| matches!(srcs[plan.accs[a].src], Vals::Out { .. }));
    let counts = dealt.iter().rposition(|accs| !computes(accs)).unwrap_or(0);
    let mut shares: Vec<Share> = crate::scratch::with_scratch(|s| {
        let share = |(i, dealt): (usize, &[usize])| {
            let sized = i == counts && (plan.sized() || dealt.is_empty());
            let mut accs = dealt.to_vec();
            accs.sort_by_key(|&a| dealt.iter().position(|&b| plan.kind(b) == plan.kind(a)));
            let identities =
                accs.iter().map(|&a| by_class!(plan, a, identity_bits(plan.accs[a].step)));
            let fresh: Vec<u64> = identities.chain(sized.then_some(0)).collect();
            // Room for a slot table and for a slot per selected row or key,
            // taken here so that the buffers stay in this thread's heap.
            let (mut of_key, mut slots) = (s.idx_buf(), s.word_buf());
            of_key.reserve(groups.buckets);
            slots.reserve(input.len().min(groups.buckets) * fresh.len());
            Share { accs, sized, fresh, of_key, slots }
        };
        dealt.into_iter().enumerate().map(share).collect()
    });
    let range = (groups.lo, groups.buckets);
    par_each(shares.iter_mut().collect(), |share: &mut Share| {
        share.fold(input, &keys, range, &plan, srcs, kernel)
    });
    let found = shares[0].groups();
    let mut out = zeroed_output(srcs, aggs, found);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"aggregate\"}", out.len() as u64);
    let mut homes: Vec<Option<ColWindow<'_>>> =
        whole(&mut out.cols, found).into_iter().map(Some).collect();
    let mut key = Some(&mut out.key.buffer_mut()[..]);
    let writes: Vec<_> = shares
        .iter_mut()
        .map(|share| {
            let home = |&a: &usize| homes[plan.home[a]].take().expect("one accumulator a column");
            let cols: Vec<ColWindow<'_>> = share.accs.iter().map(home).collect();
            (share, cols, key.take())
        })
        .collect();
    par_each(writes, |(share, cols, key)| share.write(cols, key, groups.lo));
    plan.finish(&mut whole(&mut out.cols, found), |g| shares[counts].size(g));
    crate::scratch::with_scratch(|s| {
        for share in shares.into_iter().rev() {
            s.put_word_buf(share.slots);
            s.put_idx_buf(share.of_key);
        }
    });
    Ok(out)
}

/// [`fold_keyed`] over a view in key order, which is checked: its base
/// rows are cut into morsels of whole selection words that no run of
/// selected keys crosses ([`run_aligned_morsels`]); pass 1 counts each
/// morsel's runs ([`scan_runs`]), pass 2 folds each morsel's selected rows
/// into its own window of every output column ([`Morsel::fold`]). A dense
/// view is the case with no selection.
fn fold_by_key(
    input: &View<'_>,
    aggs: &[Agg],
    srcs: &[Vals<'_>],
    kernel: Option<&Bound<'_>>,
) -> Result<Relation, RelError> {
    validate_agg_cols(srcs.len(), aggs)?;
    let keys = input.key().as_slice();
    let (keys, sel) = (&keys[..], input.selection());
    let morsels = run_aligned_morsels(keys, sel, DEFAULT_CTA_CHUNK);
    // Runs first — their number is the output's size, and counting them is
    // the scan that rejects unsorted keys, inside each morsel and across
    // its cuts — then the folds.
    let scans = par_range_map(morsels.len(), 1, |m, _| scan_runs(input, keys, morsels[m].clone()));
    let mut last = None;
    for scan in scans.iter().flatten() {
        if !scan.sorted || last.is_some_and(|last| last > scan.first) {
            return Err(RelError::NotSorted);
        }
        last = Some(scan.last);
    }
    kfusion_trace::counter("kfusion_rows_in_total{op=\"aggregate\"}", input.len() as u64);
    let runs: Vec<usize> = scans.iter().map(|s| s.map_or(0, |s| s.runs)).collect();
    let mut out = zeroed_output(srcs, aggs, runs.iter().sum());
    kfusion_trace::counter("kfusion_rows_out_total{op=\"aggregate\"}", out.len() as u64);
    let plan = Plan::new(aggs, srcs);
    let morsels = morsels
        .into_iter()
        .zip(scans)
        .zip(slice_windows(out.key.buffer_mut(), &runs))
        .zip(col_windows(&mut out.cols, &runs))
        .filter_map(|(((rows, scan), key), cols)| {
            scan.map(|scan| Morsel { rows, first: scan.first, key, cols })
        })
        .collect();
    par_each(morsels, |m: Morsel<'_>| m.fold(input, Some(keys), &plan, srcs, kernel));
    Ok(out)
}

/// Group the (key-sorted) input by key and compute `aggs` per group. The
/// result has one row per distinct key and one column per aggregate.
///
/// Large inputs aggregate in parallel over run-aligned morsels; because
/// no group spans a morsel boundary, the per-group fold order — and thus
/// every float sum — is bit-identical to the serial scan.
pub fn aggregate_by_key(input: &Relation, aggs: &[Agg]) -> Result<Relation, RelError> {
    aggregate_by_key_view(&View::of(input), aggs)
}

/// [`aggregate_by_key`] over a view, read where it is: the key and the
/// columns `aggs` name, at the rows the view selects — a view that carries
/// its groups ([`View::is_grouped`]) folded by group, any other by runs of
/// its selected keys. The view's other columns are not read at all.
pub fn aggregate_by_key_view(input: &View<'_>, aggs: &[Agg]) -> Result<Relation, RelError> {
    fold_keyed(input, aggs, &col_vals(input), None)
}

/// Aggregate the whole relation as a single group (no key), producing a
/// one-row relation with key 0 — the paper's plain AGGREGATION after a
/// SELECT (Fig. 2(g)): the same fold over one run, no re-keyed copy of the
/// input.
pub fn aggregate_all(input: &Relation, aggs: &[Agg]) -> Result<Relation, RelError> {
    aggregate_all_view(&View::of(input), aggs)
}

/// [`aggregate_all`] over a view, which it reads where it is, as
/// [`aggregate_by_key_view`] does: one morsel, one run, the selected rows.
pub fn aggregate_all_view(input: &View<'_>, aggs: &[Agg]) -> Result<Relation, RelError> {
    validate_agg_cols(input.n_cols(), aggs)?;
    kfusion_trace::counter("kfusion_rows_in_total{op=\"aggregate\"}", input.len() as u64);
    let srcs = col_vals(input);
    let mut out = zeroed_output(&srcs, aggs, usize::from(!input.is_empty()));
    if input.is_empty() {
        return Ok(out);
    }
    kfusion_trace::counter("kfusion_rows_out_total{op=\"aggregate\"}", 1);
    let plan = Plan::new(aggs, &srcs);
    let (rows, cols) = (0..input.base_len(), whole(&mut out.cols, 1));
    Morsel { rows, first: 0, key: &mut [], cols }.fold(input, None, &plan, &srcs, None);
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

    /// Morsels are whole selection words, and no run of selected keys
    /// crosses a cut — dense, or with the rows either side of a cut
    /// unselected.
    #[test]
    fn morsels_are_cut_between_runs_of_selected_keys() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i / 90).collect();
        assert!(run_aligned_morsels(&[], None, 128).is_empty());
        assert_eq!(run_aligned_morsels(&keys[..100], None, 128), vec![0..100]);
        // Every third row, and rows 256..448 not at all.
        let mut sel = vec![0u64; keys.len().div_ceil(64)];
        (0..keys.len()).filter(|i| i % 3 == 0 && !(256..448).contains(i)).for_each(|i| {
            sel[i / 64] |= 1 << (i % 64);
        });
        for sel in [None, Some(&sel[..])] {
            let morsels = run_aligned_morsels(&keys, sel, 128);
            assert_eq!((morsels[0].start, morsels[morsels.len() - 1].end), (0, keys.len()));
            let selected: Vec<usize> = match sel {
                None => (0..keys.len()).collect(),
                Some(sel) => {
                    (0..keys.len()).filter(|&i| sel[i / 64] >> (i % 64) & 1 == 1).collect()
                }
            };
            for w in morsels.windows(2) {
                assert_eq!((w[0].end, w[0].end % 64), (w[1].start, 0), "{sel:?}");
                let before = selected.iter().rev().find(|&&i| i < w[0].end);
                let after = selected.iter().find(|&&i| i >= w[0].end);
                if let (Some(&p), Some(&q)) = (before, after) {
                    assert_ne!(keys[p], keys[q], "a run crosses the cut at {}", w[0].end);
                }
            }
        }
        // A run that fills the selection past every cut is one morsel.
        assert_eq!(run_aligned_morsels(&[7; 1000], None, 128), vec![0..1000]);
    }

    #[test]
    fn a_scan_counts_the_runs_of_the_selected_keys_in_order() {
        // The scan of `keys` where the one selection word `sel` selects
        // (every row when it is `None`).
        let scan = |keys: &[u64], sel: Option<u64>, rows| {
            let rel = Relation::from_keys(keys.to_vec());
            let view = match sel {
                Some(w) => View::of(&rel).with_selection(vec![w], w.count_ones() as usize),
                None => View::of(&rel),
            };
            scan_runs(&view, keys, rows)
        };
        let keys = [7, 7, 8, 9, 9, 9, 12, 12];
        let want = |runs, first, last| Some(Scan { runs, first, last, sorted: true });
        assert_eq!(scan(&keys, None, 0..8), want(4, 7, 12));
        // Rows 1, 3 and 6: keys 7, 9, 12; rows 1..3 only: 7 and 8.
        assert_eq!(scan(&keys, Some(0b0100_1010), 0..8), want(3, 7, 12));
        assert_eq!(scan(&keys, Some(0b0000_0110), 0..8), want(2, 7, 8));
        assert_eq!(scan(&keys, Some(0), 0..8), None);
        // Out of order among the selected rows, not among the others.
        let unsorted = [1, 3, 2, 0];
        assert!(!scan(&unsorted, None, 0..4).unwrap().sorted);
        assert!(!scan(&unsorted, Some(0b0110), 0..4).unwrap().sorted);
        assert!(scan(&unsorted, Some(0b0101), 0..4).unwrap().sorted);
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

    /// `rel` under the selection of the base rows `keep` picks.
    fn selecting<'r>(rel: &'r Relation, keep: impl Fn(usize) -> bool) -> View<'r> {
        let mut sel = vec![0u64; rel.len().div_ceil(64)];
        let rows = (0..rel.len()).filter(|&i| keep(i)).inspect(|i| sel[i / 64] |= 1 << (i % 64));
        let rows = rows.count();
        View::of(rel).with_selection(sel, rows)
    }

    /// The run fold and AGGREGATE-ALL over a filtered view give what the
    /// row-at-a-time oracle gives over its gathered rows, bit for bit.
    fn assert_view_matches_oracle(view: &View<'_>, what: &str) {
        let rows = crate::view::materialize(view.clone());
        for aggs in agg_lists() {
            let what = &format!("{what}, {aggs:?}");
            let got = aggregate_by_key_view(view, aggs).unwrap();
            assert_same_bits(&got, &oracle(&rows, aggs, false), what);
            let all = aggregate_all_view(view, aggs).unwrap();
            assert_same_bits(&all, &oracle(&rows, aggs, true), &format!("{what}, as one group"));
        }
    }

    #[test]
    fn the_run_fold_reads_a_filtered_view_where_it_is() {
        crate::engine::set_scratch_poison(true);
        let mut rng = Rng::seed_from_u64(21);
        // Short runs over several morsels, a third of the rows selected;
        // the base ends mid-word, and so does the selection.
        let lens: Vec<usize> = (0..40_000).map(|_| rng.gen_range(1usize..8)).collect();
        let r = awkward(lens, 22);
        assert_ne!(r.len() % 64, 0);
        let picks: Vec<bool> = (0..r.len()).map(|_| rng.gen_range(0u32..3) == 0).collect();
        assert_view_matches_oracle(&selecting(&r, |i| picks[i]), "a third of short runs");
        let last = r.len() - 1;
        assert_view_matches_oracle(&selecting(&r, |i| i == last || i % 2 == 0), "even rows");
        // No row, one row, the last row alone.
        assert_view_matches_oracle(&selecting(&r, |_| false), "no row");
        assert_view_matches_oracle(&selecting(&r, |i| i == 4_321), "one row");
        assert_view_matches_oracle(&selecting(&r, |i| i == last), "the last row");

        // A run over the first morsel cut whose rows either side of the cut
        // are unselected.
        let chunk = DEFAULT_CTA_CHUNK;
        let r = awkward([chunk - 300, 600, 2, chunk - 80, 60, 20, 5], 23);
        let gap = |i: usize| (chunk - 150..chunk + 150).contains(&i);
        assert_view_matches_oracle(&selecting(&r, |i| !gap(i)), "a run across the cut");
        // A run ending in the gap, and one wholly inside it.
        let r = awkward([chunk - 10, 30, chunk], 24);
        let gap = |i: usize| (chunk - 20..chunk + 20).contains(&i);
        assert_view_matches_oracle(&selecting(&r, |i| !gap(i)), "runs end in the gap");
        crate::engine::set_scratch_poison(false);
    }

    #[test]
    fn unsorted_selected_keys_are_rejected_and_unselected_ones_are_not() {
        let chunk = DEFAULT_CTA_CHUNK as u64;
        // Key 9 among 5s — once inside the first morsel, once as the last
        // selected row before the cut, against the first one after it.
        for at in [100, chunk - 1] {
            let keys: Vec<u64> =
                (0..2 * chunk).map(|i| if i == at { 9 } else { 5 + i / chunk }).collect();
            let r = Relation::new(keys, vec![Column::I64(vec![1; 2 * chunk as usize])]).unwrap();
            let at = at as usize;
            assert_eq!(
                aggregate_by_key_view(&View::of(&r), &[Agg::Count]),
                Err(RelError::NotSorted)
            );
            let without = selecting(&r, |i| i != at);
            let got = aggregate_by_key_view(&without, &[Agg::Count]).unwrap();
            assert_eq!(*got.keys(), vec![5, 6]);
            assert_eq!(got.cols[0].as_i64().unwrap(), &[chunk as i64 - 1, chunk as i64]);
        }
    }

    /// Every fold names a missing column before it looks at the order of
    /// the keys: the run fold, the grouped fold and AGGREGATE-ALL agree.
    #[test]
    fn a_missing_column_is_reported_before_unsorted_keys() {
        use crate::ops::group_by_key_view;
        let r = Relation::new(vec![3, 1, 2, 1], vec![Column::I64(vec![1, 2, 3, 4])]).unwrap();
        let missing = RelError::NoSuchColumn { col: 4, available: 1 };
        let aggs = [Agg::Count, Agg::Min(4)];
        let grouped = group_by_key_view(&View::of(&r)).unwrap();
        assert!(grouped.is_grouped());
        for view in [View::of(&r), selecting(&r, |i| i != 2), grouped] {
            assert_eq!(aggregate_by_key_view(&view, &aggs), Err(missing.clone()));
            assert_eq!(aggregate_all_view(&view, &aggs), Err(missing.clone()));
        }
        assert_eq!(aggregate_by_key(&r, &aggs), Err(missing));
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

    /// The grouped fold numbers groups as their keys first appear, and
    /// writes them in key order: it equals the oracle over the stably
    /// sorted rows, bit for bit, when keys first appear in reverse key
    /// order, one row to a group, filtered, through no row at all, and for
    /// COUNT or AVG alone, no aggregate that reads the groups' sizes, or no
    /// aggregate at all.
    #[test]
    fn the_grouped_fold_numbers_groups_as_they_appear() {
        use crate::ops::{group_by_key_view, sort, SortBy};
        use crate::view::{gather, materialize, Groups};
        crate::engine::set_scratch_poison(true);
        let lists: [&[Agg]; 6] = [
            &[],
            &[Agg::Count],
            &[Agg::Avg(0)],
            &[Agg::Avg(1)],
            &[Agg::Sum(0), Agg::Min(1), Agg::Max(0), Agg::Sum(1)],
            &[Agg::Max(1), Agg::Count, Agg::Sum(1), Agg::Min(0), Agg::Avg(0)],
        ];
        let shapes: [(&str, Vec<usize>); 3] = [
            ("one row to a group", vec![1; 3_000]),
            ("short runs", (0..2_000).map(|g| 1 + g % 9).collect()),
            ("long runs", vec![70_000, 3, 50_000, 1, 20_000]),
        ];
        for (seed, (shape, lens)) in (40..).zip(shapes) {
            // Reversed, the rows' keys first appear from the highest down.
            let sorted = awkward(lens, seed);
            let reversed: Vec<u32> = (0..sorted.len() as u32).rev().collect();
            let rows = gather(&View::of(&sorted), &reversed);
            let mut rng = Rng::seed_from_u64(seed);
            let picks: Vec<bool> = (0..rows.len()).map(|_| rng.gen_range(0u32..4) != 0).collect();
            for (what, view) in
                [("dense", View::of(&rows)), ("filtered", selecting(&rows, |i| picks[i]))]
            {
                let grouped = group_by_key_view(&view).unwrap();
                assert!(grouped.is_grouped(), "{shape}, {what}");
                let want_rows = sort(&materialize(view.clone()), SortBy::Key).unwrap();
                for aggs in lists.into_iter().chain(agg_lists()) {
                    let got = aggregate_by_key_view(&grouped, aggs).unwrap();
                    let what = format!("{shape}, {what}, {aggs:?}");
                    assert_same_bits(&got, &oracle(&want_rows, aggs, false), &what);
                }
            }
        }
        // A grouped view that selects no row folds to no group.
        let r = awkward([3, 2], 49);
        let none = selecting(&r, |_| false).with_groups(Groups { lo: 1, buckets: 4 });
        for aggs in lists.into_iter().chain(agg_lists()) {
            let got = aggregate_by_key_view(&none, aggs).unwrap();
            assert_same_bits(&got, &oracle(&materialize(none.clone()), aggs, false), "no row");
        }
        crate::engine::set_scratch_poison(false);
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
