//! Vectorized batch execution of kernel bodies.
//!
//! The per-element [`crate::interp::Machine`] pays boxed [`Value`] dispatch
//! on every instruction of every tuple. This module removes that cost the
//! same way the paper's fused kernels do: resolve every register to a static
//! type, and every operand to where its lanes live, *once*, then run the
//! body over a whole batch of rows. A [`CompiledKernel`] uses the verifier's
//! union-find inference ([`crate::verify::infer_with_slots`]), seeded with
//! the bound column types, to assign one [`Ty`] per register, and lowers the
//! body to steps: a constant is a splat with no bank, a loaded column is read
//! where it is stored, identical instructions (and a `Copy` and its source)
//! share one register, and a compare read only by a boolean `And` ANDs
//! straight into that conjunction's mask words. A [`BatchMachine`] holds one
//! typed columnar bank — `Vec<i64>`, `Vec<f64>`, or a `u64` bitmask for
//! bools — per register a step writes, and runs each step as one loop over
//! [`BATCH_ROWS`] lanes. Predicate outputs come back as selection bitmasks.
//!
//! The runner is one body compiled twice, at the target's baseline width and
//! for AVX2; the AVX2 build runs when the CPU reports the feature at run
//! time. Both are the same source, so they give the same lanes. Nothing else
//! in the workspace picks an instruction set. One shape keeps a loop of its
//! own, matched on the whole body: Q1's discounted and charged price pair
//! (`MoneyPair`), whose three column reads a step per instruction cannot
//! overlap with its arithmetic.
//!
//! Semantics are bit-exact with [`crate::interp::eval`]: integer arithmetic
//! wraps, `Div`/`Rem` by zero yield 0, shifts mask the amount to 6 bits,
//! float min/max keep `f64::min`/`f64::max` NaN behavior, and comparisons on
//! NaN are false except `Ne`. The property tests in
//! `crates/kernel-ir/tests/prop_batch.rs` enforce this per lane.
//!
//! Bodies that stay type-polymorphic under the given binding (or demand a
//! `bool` input column, which the relational layer cannot supply) fail to
//! compile; callers fall back to the scalar interpreter, which preserves the
//! error behavior of the per-row path. Lanes at indices `>= n` of any bank
//! are unspecified after a run of `n` rows — whole-word bitmask operations
//! deliberately process garbage tail lanes.

use crate::ir::{BinOp, CmpOp, Instr, KernelBody, Reg, UnOp};
use crate::value::{Ty, Value};
use crate::verify::{self, VerifyError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Rows per batch: small enough for register banks to stay cache-resident,
/// large enough to amortize dispatch. 1024 lanes = 16 bitmask words.
pub const BATCH_ROWS: usize = 1024;

/// `u64` words per boolean bank.
pub const MASK_WORDS: usize = BATCH_ROWS / 64;

/// Why a body could not be compiled for batch execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The body is ill-typed, or a bound column type contradicts it.
    Verify(VerifyError),
    /// A register stayed type-polymorphic under the given slot binding.
    Unresolved {
        /// The register whose type inference left ambiguous.
        reg: Reg,
    },
    /// A bound column's type does not match what the body loads from it.
    Binding {
        /// The input slot with the mismatched (or missing) column.
        slot: u32,
        /// The type the compiled body loads from that slot.
        expected: Ty,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Verify(e) => write!(f, "{e}"),
            BatchError::Unresolved { reg } => {
                write!(f, "register r{reg} has no single type under this binding")
            }
            BatchError::Binding { slot, expected } => {
                write!(f, "input slot {slot} needs a {expected:?} column")
            }
        }
    }
}

impl std::error::Error for BatchError {}

impl From<VerifyError> for BatchError {
    fn from(e: VerifyError) -> Self {
        BatchError::Verify(e)
    }
}

/// A borrowed input column, bound to one input slot for a batch run.
///
/// Keys are `u64` in the relational layer but the IR calling convention
/// reads them as `i64`; [`ColRef::KeyU64`] performs that reinterpretation
/// per lane (`v as i64`), matching `Relation::ir_inputs`. A relation keyed
/// by row id stores no key: [`ColRef::RowIds`] loads row `i` as `i`.
#[derive(Debug, Clone, Copy)]
pub enum ColRef<'a> {
    /// An `i64` payload column.
    I64(&'a [i64]),
    /// An `f64` payload column.
    F64(&'a [f64]),
    /// The `u64` key column, loaded as `i64` lanes.
    KeyU64(&'a [u64]),
    /// The row numbers `0..len`, loaded as `i64` lanes: the key of a
    /// relation keyed by row id, which is stored nowhere.
    RowIds(usize),
}

impl ColRef<'_> {
    /// The IR-level type lanes of this column load as.
    pub fn ty(&self) -> Ty {
        match self {
            ColRef::I64(_) | ColRef::KeyU64(_) | ColRef::RowIds(_) => Ty::I64,
            ColRef::F64(_) => Ty::F64,
        }
    }
}

/// A body compiled for batch execution: its steps, a single static [`Ty`]
/// for every register, resolved against the caller's column types, and
/// where each operand's lanes live. Compile once per (body, binding); run
/// over many batches.
///
/// The tables live behind `Arc`s, so cloning a compiled kernel is refcount
/// bumps, never a per-clone duplication of the steps.
///
/// A kernel owns the [`BatchMachine`]s that run it: [`CompiledKernel::checkout`]
/// hands one out of a pool its clones share and takes it back when the
/// checkout drops, so a thread that walks morsel after morsel reuses one
/// machine, and the machines are freed with the last clone of the kernel.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The input slots the body loads, with the type it loads each as.
    loads: Arc<[(u32, Ty)]>,
    /// Each output's register, after value numbering.
    outputs: Arc<[Reg]>,
    reg_ty: Arc<[Ty]>,
    /// Where the lanes of each register a step reads come from.
    operands: Arc<[Operand]>,
    steps: Arc<[Step]>,
    /// The whole body's own loop, when it is Q1's price pair; `steps` is
    /// then empty.
    money: Option<MoneyPair>,
    /// The machines checked back in, each idle until its next checkout.
    machines: Arc<Mutex<Vec<BatchMachine>>>,
}

impl CompiledKernel {
    /// Compile `body` against known input slot types (`None` = unknown).
    ///
    /// Fails when the body is ill-typed under the binding or when any
    /// register's type stays ambiguous — the cases where the caller must
    /// fall back to the scalar interpreter.
    pub fn compile(body: &KernelBody, slot_tys: &[Option<Ty>]) -> Result<Self, BatchError> {
        let compiled = (|| {
            let assign = verify::infer_with_slots(body, slot_tys)?;
            let reg_ty = assign
                .regs
                .iter()
                .enumerate()
                .map(|(r, t)| t.ok_or(BatchError::Unresolved { reg: r as Reg }))
                .collect::<Result<Vec<Ty>, BatchError>>()?;
            let loads = (body.instrs.iter().zip(&reg_ty))
                .filter_map(|(i, &ty)| match *i {
                    Instr::LoadInput { slot } => Some((slot, ty)),
                    _ => None,
                })
                .collect();
            let lowered = Lowered::new(&body.instrs, &body.outputs, &reg_ty);
            Ok(CompiledKernel {
                loads,
                outputs: lowered.outputs.into(),
                reg_ty: reg_ty.into(),
                operands: lowered.operands.into(),
                steps: lowered.steps.into(),
                money: lowered.money,
                machines: Arc::default(),
            })
        })();
        kfusion_trace::counter(
            match compiled {
                Ok(_) => "kfusion_batch_compile_total{result=\"ok\"}",
                Err(_) => "kfusion_batch_compile_total{result=\"err\"}",
            },
            1,
        );
        compiled
    }

    /// A machine for this kernel, exclusively the caller's until the
    /// checkout drops: an idle one from the kernel's pool, its banks as the
    /// last run left them, or a fresh one when every pooled machine is out.
    pub fn checkout(&self) -> Checkout<'_> {
        let idle = self.machines.lock().unwrap_or_else(PoisonError::into_inner).pop();
        Checkout { kernel: self, machine: Some(idle.unwrap_or_else(|| BatchMachine::new(self))) }
    }

    /// Number of output slots.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The static type of output slot `idx`.
    pub fn output_ty(&self, idx: usize) -> Ty {
        self.reg_ty[self.outputs[idx] as usize]
    }

    /// Check that `cols` can feed this kernel: every slot the body actually
    /// loads must be present with the loaded type. Extra columns are fine;
    /// slots the body never loads need no column (mirroring the scalar
    /// interpreter, which only errors on executed `LoadInput`s).
    pub fn check_binding(&self, cols: &[ColRef<'_>]) -> Result<(), BatchError> {
        for &(slot, expected) in self.loads.iter() {
            match cols.get(slot as usize) {
                Some(c) if c.ty() == expected => {}
                _ => return Err(BatchError::Binding { slot, expected }),
            }
        }
        Ok(())
    }
}

/// A [`BatchMachine`] checked out of its kernel's pool
/// ([`CompiledKernel::checkout`]); dropping it puts the machine back.
#[derive(Debug)]
pub struct Checkout<'k> {
    kernel: &'k CompiledKernel,
    machine: Option<BatchMachine>,
}

impl std::ops::Deref for Checkout<'_> {
    type Target = BatchMachine;
    fn deref(&self) -> &BatchMachine {
        self.machine.as_ref().expect("held until drop")
    }
}

impl std::ops::DerefMut for Checkout<'_> {
    fn deref_mut(&mut self) -> &mut BatchMachine {
        self.machine.as_mut().expect("held until drop")
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        if let Some(m) = self.machine.take() {
            self.kernel.machines.lock().unwrap_or_else(PoisonError::into_inner).push(m);
        }
    }
}

/// Where the lanes of a register come from.
#[derive(Debug, Clone, Copy)]
enum Operand {
    /// A constant: every lane the same, and no bank.
    Splat(Value),
    /// An input slot, read where it is stored: a window of the column, or
    /// for a row-id slot the row numbers themselves.
    Slot(u32),
    /// The bank a step writes.
    Bank,
}

/// One step of a lowered body, writing the bank of register `dst`.
#[derive(Debug, Clone)]
enum Step {
    /// Copy an input slot that is an output into `dst`'s bank.
    Load { dst: Reg },
    /// `dst = instr`, lanes at a time: an arithmetic, unary, select or cast
    /// instruction with its operands value-numbered.
    Eval { dst: Reg, instr: Instr },
    /// `dst` = every lane set, each term ANDed in: a compare, or a boolean
    /// `And` with the compares and `And`s that only it reads.
    All { dst: Reg, terms: Box<[Term]> },
}

impl Step {
    fn dst(&self) -> Reg {
        match *self {
            Step::Load { dst, .. } | Step::Eval { dst, .. } | Step::All { dst, .. } => dst,
        }
    }
}

/// One term of a [`Step::All`].
#[derive(Debug, Clone, Copy)]
enum Term {
    /// `lhs <op> rhs`, one bit per lane.
    Cmp { op: CmpOp, lhs: Reg, rhs: Reg },
    /// The mask words of a boolean register.
    Mask(Reg),
}

/// `out0 = p * (c_sub - d)`, `out1 = out0 * (c_add + t)` over `f64` input
/// slots (Q1's discounted and charged price): one pass that reads its three
/// columns once and shares the discounted price, as value numbering shares
/// the subtree the builder emits twice.
#[derive(Debug, Clone, Copy)]
struct MoneyPair {
    price: u32,
    disc: u32,
    tax: u32,
    c_sub: f64,
    c_add: f64,
}

/// A body lowered to steps: [`CompiledKernel::compile`]'s one pass.
struct Lowered {
    outputs: Vec<Reg>,
    operands: Vec<Operand>,
    steps: Vec<Step>,
    money: Option<MoneyPair>,
}

impl Lowered {
    fn new(instrs: &[Instr], outputs: &[Reg], reg_ty: &[Ty]) -> Lowered {
        // Value numbering: an instruction identical to an earlier one (its
        // operands numbered first, constants by bits) or a `Copy` is that
        // register. Identical operations on identical operands give
        // identical bits, so sharing one is invisible.
        let mut body = instrs.to_vec();
        let mut canon: Vec<Reg> = Vec::with_capacity(instrs.len());
        let mut seen: HashMap<Instr, Reg> = HashMap::new();
        for (r, instr) in body.iter_mut().enumerate() {
            instr.map_operands(|x| canon[x as usize]);
            canon.push(match *instr {
                Instr::Copy { src } => src,
                _ => *seen.entry(*instr).or_insert(r as Reg),
            });
        }
        let outputs: Vec<Reg> = outputs.iter().map(|&o| canon[o as usize]).collect();
        let money = MoneyPair::recognize(&body, &outputs);

        // The registers the outputs need, and how many times each is read.
        let n = body.len();
        let (mut live, mut reads, mut reader) = (vec![false; n], vec![0u32; n], vec![0; n]);
        let mut output = vec![false; n];
        let mut todo = outputs.clone();
        for &o in &outputs {
            output[o as usize] = true;
        }
        while let Some(r) = todo.pop() {
            if !std::mem::replace(&mut live[r as usize], true) {
                body[r as usize].for_each_operand(|x| {
                    reads[x as usize] += 1;
                    reader[x as usize] = r;
                    todo.push(x);
                });
            }
        }
        // A conjunct: a compare or boolean `And` that is no output and is
        // read once, by a boolean `And`, which ANDs it into its own words.
        let bool_and = |r: usize| {
            matches!(body[r], Instr::Bin { op: BinOp::And, .. }) && reg_ty[r] == Ty::Bool
        };
        let conjunct = |r: usize| {
            (bool_and(r) || matches!(body[r], Instr::Cmp { .. }))
                && !output[r]
                && reads[r] == 1
                && bool_and(reader[r] as usize)
        };

        let mut operands = vec![Operand::Bank; n];
        let mut steps = Vec::new();
        for r in (0..n).filter(|&r| live[r] && money.is_none()) {
            let dst = r as Reg;
            match body[r] {
                Instr::Const { value } => operands[r] = Operand::Splat(value),
                Instr::LoadInput { slot } => {
                    operands[r] = Operand::Slot(slot);
                    if output[r] {
                        steps.push(Step::Load { dst });
                    }
                }
                _ if conjunct(r) => {}
                Instr::Cmp { .. } | Instr::Bin { op: BinOp::And, .. } if reg_ty[r] == Ty::Bool => {
                    let mut terms = Vec::new();
                    let mut todo = vec![dst];
                    while let Some(x) = todo.pop() {
                        match body[x as usize] {
                            Instr::Cmp { op, lhs, rhs } => terms.push(Term::Cmp { op, lhs, rhs }),
                            Instr::Bin { lhs, rhs, .. } => {
                                for y in [rhs, lhs] {
                                    if conjunct(y as usize) {
                                        todo.push(y);
                                    } else {
                                        terms.push(Term::Mask(y));
                                    }
                                }
                            }
                            _ => unreachable!("a conjunct is a compare or an And"),
                        }
                    }
                    steps.push(Step::All { dst, terms: terms.into() });
                }
                instr => steps.push(Step::Eval { dst, instr }),
            }
        }
        Lowered { outputs, operands, steps, money }
    }
}

impl MoneyPair {
    /// The pair, when the value-numbered body's two outputs are its shape.
    fn recognize(body: &[Instr], outputs: &[Reg]) -> Option<MoneyPair> {
        let load = |r: Reg| match body[r as usize] {
            Instr::LoadInput { slot } => Some(slot),
            _ => None,
        };
        // `c <op> in[slot]`, `c` an f64 constant.
        let const_with = |r: Reg, want: BinOp| match body[r as usize] {
            Instr::Bin { op, lhs, rhs } if op == want => match body[lhs as usize] {
                Instr::Const { value: Value::F64(c) } => Some((c, load(rhs)?)),
                _ => None,
            },
            _ => None,
        };
        let &[o0, o1] = outputs else { return None };
        let (
            Instr::Bin { op: BinOp::Mul, lhs: price, rhs: sub },
            Instr::Bin { op: BinOp::Mul, lhs: discounted, rhs: add },
        ) = (body[o0 as usize], body[o1 as usize])
        else {
            return None;
        };
        if discounted != o0 {
            return None;
        }
        let (c_sub, disc) = const_with(sub, BinOp::Sub)?;
        let (c_add, tax) = const_with(add, BinOp::Add)?;
        Some(MoneyPair { price: load(price)?, disc, tax, c_sub, c_add })
    }
}

/// One typed columnar register bank, [`BATCH_ROWS`] lanes wide.
#[derive(Debug, Clone)]
enum Bank {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<u64>),
}

impl Bank {
    fn for_ty(ty: Ty) -> Bank {
        match ty {
            Ty::I64 => Bank::I64(vec![0; BATCH_ROWS]),
            Ty::F64 => Bank::F64(vec![0.0; BATCH_ROWS]),
            Ty::Bool => Bank::Bool(vec![0; MASK_WORDS]),
        }
    }
}

/// The lanes of a register that has a bank: an output, or a step's
/// destination ([`BatchMachine::new`]).
fn view(bank: &Option<Bank>) -> BankView<'_> {
    match bank {
        Some(Bank::I64(v)) => BankView::I64(v),
        Some(Bank::F64(v)) => BankView::F64(v),
        Some(Bank::Bool(v)) => BankView::Bool(v),
        None => unreachable!("the register has no bank"),
    }
}

/// A read-only view of one register bank after a run. Only the first `n`
/// lanes (of the `n` passed to [`BatchMachine::run`]) are meaningful.
#[derive(Debug, Clone, Copy)]
pub enum BankView<'a> {
    /// `i64` lanes.
    I64(&'a [i64]),
    /// `f64` lanes.
    F64(&'a [f64]),
    /// Boolean lanes as a bitmask, lane `j` at `mask[j / 64] >> (j % 64)`.
    Bool(&'a [u64]),
}

/// Read lane `j` of a bitmask.
#[inline]
pub fn mask_lane(mask: &[u64], j: usize) -> bool {
    (mask[j >> 6] >> (j & 63)) & 1 == 1
}

/// When `true`, every [`BatchMachine::run`] first fills all non-constant
/// banks with sentinel garbage. Any batch-path result that depends on a
/// stale or zero-initialized lane — instead of on lanes the current batch
/// actually wrote — changes under poisoning, so the equivalence suite can
/// assert reuse never leaks state between batches. Off by default (it
/// costs a full bank sweep per batch).
static SCRATCH_POISON: AtomicBool = AtomicBool::new(false);

/// Enable or disable per-batch bank poisoning.
pub fn set_scratch_poison(on: bool) {
    SCRATCH_POISON.store(on, Ordering::Relaxed);
}

/// Whether per-batch bank poisoning is enabled.
pub fn scratch_poison() -> bool {
    SCRATCH_POISON.load(Ordering::Relaxed)
}

/// Sentinel lane values for poisoning: recognizable, and vicious — the f64
/// pattern is a NaN, so any arithmetic that touches a stale lane infects
/// its result.
const POISON_I64: i64 = 0x5AA5_5AA5_5AA5_5AA5_u64 as i64;
const POISON_F64_BITS: u64 = 0x7FF8_DEAD_BEEF_F00D;
const POISON_MASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// A per-worker scratch arena: recycles index and word buffers, so
/// steady-state loops check them out and return them instead of
/// allocating. Keep one per worker thread (the relational operators hold
/// one in a thread-local) and `reset` it when the worker retires. Machines
/// are not kept here: each kernel pools its own ([`CompiledKernel::checkout`]).
#[derive(Debug, Default)]
pub struct Scratch {
    idx_bufs: Vec<Vec<u32>>,
    word_bufs: Vec<Vec<u64>>,
}

/// Cap on pooled buffers of each kind per arena; a worker only ever needs
/// a handful, so anything beyond this is leak, not reuse.
const SCRATCH_CAP: usize = 16;

impl Scratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Check out an empty `u32` index buffer (capacity retained from prior
    /// use).
    pub fn idx_buf(&mut self) -> Vec<u32> {
        let mut v = self.idx_bufs.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Return an index buffer to the pool.
    pub fn put_idx_buf(&mut self, v: Vec<u32>) {
        if self.idx_bufs.len() < SCRATCH_CAP {
            self.idx_bufs.push(v);
        }
    }

    /// Check out an empty `u64` buffer (capacity retained from prior use).
    pub fn word_buf(&mut self) -> Vec<u64> {
        let mut v = self.word_bufs.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Return a word buffer to the pool.
    pub fn put_word_buf(&mut self, v: Vec<u64>) {
        if self.word_bufs.len() < SCRATCH_CAP {
            self.word_bufs.push(v);
        }
    }

    /// Drop all pooled state.
    pub fn reset(&mut self) {
        self.idx_bufs.clear();
        self.word_bufs.clear();
    }
}

/// The lanes of one operand over a run's rows, as [`CompiledKernel::compile`]
/// resolved it: a window of a stored column or of a bank, or a constant.
#[derive(Clone, Copy)]
enum Lanes<'a> {
    I64(&'a [i64]),
    /// A key column, read as `i64` lanes.
    Key(&'a [u64]),
    /// Row ids, the numbers themselves.
    RowIds(RowNumbers),
    F64(&'a [f64]),
    /// Boolean lanes, as mask words.
    Mask(&'a [u64]),
    Splat(Value),
}

impl<'a> Lanes<'a> {
    /// The first `n` lanes of a bank.
    fn of(bank: &'a Option<Bank>, n: usize) -> Lanes<'a> {
        match view(bank) {
            BankView::I64(v) => Lanes::I64(&v[..n]),
            BankView::F64(v) => Lanes::F64(&v[..n]),
            BankView::Bool(v) => Lanes::Mask(&v[..n.div_ceil(64)]),
        }
    }

    fn ty(self) -> Ty {
        match self {
            Lanes::I64(_) | Lanes::Key(_) | Lanes::RowIds(_) => Ty::I64,
            Lanes::F64(_) => Ty::F64,
            Lanes::Mask(_) => Ty::Bool,
            Lanes::Splat(v) => v.ty(),
        }
    }
}

/// An operand's lanes as a loop reads them. Every (operator, lane kind)
/// pair is its own loop, with no per-lane dispatch.
trait Src: Copy {
    type V: Copy;
    /// Lane `j`.
    fn at(self, j: usize) -> Self::V;
    /// Lanes `lo .. lo + len`.
    fn cut(self, lo: usize, len: usize) -> Self;
}

/// A stored column element as the IR reads it: keys are `u64` in storage
/// and `i64` in the IR (`v as i64`, as [`ColRef::KeyU64`] says).
trait Lane: Copy {
    type V: Copy;
    fn get(self) -> Self::V;
}

impl Lane for i64 {
    type V = i64;
    #[inline(always)]
    fn get(self) -> i64 {
        self
    }
}

impl Lane for u64 {
    type V = i64;
    #[inline(always)]
    fn get(self) -> i64 {
        self as i64
    }
}

impl Lane for f64 {
    type V = f64;
    #[inline(always)]
    fn get(self) -> f64 {
        self
    }
}

impl<T: Lane> Src for &[T] {
    type V = T::V;
    #[inline(always)]
    fn at(self, j: usize) -> T::V {
        self[j].get()
    }
    #[inline(always)]
    fn cut(self, lo: usize, len: usize) -> Self {
        &self[lo..lo + len]
    }
}

/// A constant in every lane.
#[derive(Clone, Copy)]
struct Splat<V>(V);

impl<V: Copy> Src for Splat<V> {
    type V = V;
    #[inline(always)]
    fn at(self, _: usize) -> V {
        self.0
    }
    #[inline(always)]
    fn cut(self, _: usize, _: usize) -> Self {
        self
    }
}

/// Row ids from a base on as `i64` lanes: lane `j` is `base + j`.
#[derive(Clone, Copy)]
struct RowNumbers(usize);

impl Src for RowNumbers {
    type V = i64;
    #[inline(always)]
    fn at(self, j: usize) -> i64 {
        (self.0 + j) as i64
    }
    #[inline(always)]
    fn cut(self, lo: usize, _: usize) -> Self {
        RowNumbers(self.0 + lo)
    }
}

/// Boolean lanes as mask words: "lane" `w` is word `w`.
#[derive(Clone, Copy)]
struct Words<'a>(&'a [u64]);

impl Src for Words<'_> {
    type V = u64;
    #[inline(always)]
    fn at(self, w: usize) -> u64 {
        self.0[w]
    }
    #[inline(always)]
    fn cut(self, lo: usize, len: usize) -> Self {
        Words(&self.0[lo..lo + len])
    }
}

/// Binds `$lanes`, the lanes of an `i64` register, to `$x` in `$body`: one
/// copy of `$body` per lane kind, so each is its own loop.
macro_rules! i64_src {
    ($lanes:expr, $x:ident => $body:expr) => {
        match $lanes {
            Lanes::I64($x) => $body,
            Lanes::Key($x) => $body,
            Lanes::RowIds($x) => $body,
            Lanes::Splat(Value::I64(c)) => {
                let $x = Splat(c);
                $body
            }
            _ => unreachable!("typed compile guarantees i64 lanes"),
        }
    };
}

/// [`i64_src`] for the lanes of an `f64` register.
macro_rules! f64_src {
    ($lanes:expr, $x:ident => $body:expr) => {
        match $lanes {
            Lanes::F64($x) => $body,
            Lanes::Splat(Value::F64(c)) => {
                let $x = Splat(c);
                $body
            }
            _ => unreachable!("typed compile guarantees f64 lanes"),
        }
    };
}

/// [`i64_src`] for the mask words of a `bool` register.
macro_rules! mask_src {
    ($lanes:expr, $x:ident => $body:expr) => {
        match $lanes {
            Lanes::Mask(w) => {
                let $x = Words(w);
                $body
            }
            Lanes::Splat(Value::Bool(b)) => {
                let $x = Splat(if b { u64::MAX } else { 0 });
                $body
            }
            _ => unreachable!("typed compile guarantees a bool mask"),
        }
    };
}

/// Reusable batch evaluation state for one [`CompiledKernel`]: a typed
/// bank for each register a step writes and each output, with constant
/// outputs splatted once at construction. One per thread that runs the
/// kernel at once, checked out of the kernel's pool
/// ([`CompiledKernel::checkout`]).
#[derive(Debug, Clone)]
pub struct BatchMachine {
    banks: Vec<Option<Bank>>,
}

impl BatchMachine {
    /// Allocate banks for `k` and splat its constant outputs. A register
    /// gets one when it is an output or a step writes it: an arithmetic,
    /// select, cast or conjunction. A constant or an input slot another
    /// step reads, and a compare ANDed into its conjunction, has none.
    pub fn new(k: &CompiledKernel) -> Self {
        let mut banks = vec![None; k.reg_ty.len()];
        let dsts = k.steps.iter().map(Step::dst);
        for r in dsts.chain(k.outputs.iter().copied()).map(|r| r as usize) {
            banks[r] = Some(Bank::for_ty(k.reg_ty[r]));
        }
        let mut m = BatchMachine { banks };
        m.splat_consts(k);
        m
    }

    fn splat_consts(&mut self, k: &CompiledKernel) {
        for &o in k.outputs.iter() {
            if let (Operand::Splat(value), Some(bank)) =
                (k.operands[o as usize], &mut self.banks[o as usize])
            {
                match (bank, value) {
                    (Bank::I64(d), Value::I64(c)) => d.fill(c),
                    (Bank::F64(d), Value::F64(c)) => d.fill(c),
                    (Bank::Bool(d), Value::Bool(c)) => d.fill(if c { u64::MAX } else { 0 }),
                    _ => unreachable!("const bank type mismatch"),
                }
            }
        }
    }

    /// Fill every bank with sentinel garbage, then re-splat `k`'s constant
    /// outputs. Leaves the machine in the worst legal state reuse can hand a
    /// batch: nothing zeroed, every stale lane poisoned.
    pub fn poison(&mut self, k: &CompiledKernel) {
        for bank in self.banks.iter_mut().flatten() {
            match bank {
                Bank::I64(d) => d.fill(POISON_I64),
                Bank::F64(d) => d.fill(f64::from_bits(POISON_F64_BITS)),
                Bank::Bool(d) => d.fill(POISON_MASK),
            }
        }
        self.splat_consts(k);
    }

    /// Evaluate `k` over rows `base .. base + n` of `cols` (`n` at most
    /// [`BATCH_ROWS`]), leaving each output's lanes in its bank.
    ///
    /// The binding must satisfy [`CompiledKernel::check_binding`]; this
    /// method panics on a mismatched binding rather than reporting it.
    ///
    /// Counts one `kfusion_batch_batches_total` tick per call (a relaxed
    /// atomic load when tracing is off — the cost `tests/host_clock.rs`
    /// holds under 2 % of a batch).
    pub fn run(&mut self, k: &CompiledKernel, cols: &[ColRef<'_>], base: usize, n: usize) {
        kfusion_trace::counter("kfusion_batch_batches_total", 1);
        debug_assert!(n <= BATCH_ROWS);
        if scratch_poison() {
            self.poison(k);
        }
        self.run_build(k, cols, base, n, true);
    }

    /// [`BatchMachine::run`] in the AVX2 build when `wide` holds and the CPU
    /// has AVX2, in the baseline build otherwise.
    fn run_build(
        &mut self,
        k: &CompiledKernel,
        cols: &[ColRef<'_>],
        base: usize,
        n: usize,
        wide: bool,
    ) {
        let batch = Rows { cols, base, n };
        #[cfg(target_arch = "x86_64")]
        if wide && avx2() {
            // SAFETY: `runner_avx2` is compiled for AVX2 alone, and the CPU
            // running this line has just reported it.
            unsafe { runner_avx2(&mut self.banks, k, batch) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = wide;
        runner(&mut self.banks, k, batch);
    }

    /// View output slot `idx` after a run.
    pub fn output(&self, k: &CompiledKernel, idx: usize) -> BankView<'_> {
        view(&self.banks[k.outputs[idx] as usize])
    }

    /// The selection bitmask of a predicate's output slot 0; panics if the
    /// output is not boolean (check [`CompiledKernel::output_ty`] first).
    pub fn selection_mask(&self, k: &CompiledKernel) -> &[u64] {
        match self.output(k, 0) {
            BankView::Bool(mask) => mask,
            _ => unreachable!("typed compile guarantees a bool mask"),
        }
    }
}

/// Whether the CPU runs the AVX2 build of the runner: the one place the
/// workspace asks which instruction set it runs on (std caches the answer).
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The rows one run covers: base rows `base .. base + n` of `cols`.
#[derive(Clone, Copy)]
struct Rows<'c> {
    cols: &'c [ColRef<'c>],
    base: usize,
    n: usize,
}

/// The runner: every step of `k` over `rows`, each writing its bank in
/// `banks`. Nothing in here allocates — this is the steady-state inner loop
/// the allocation gate measures.
///
/// This is the build at the target's baseline width (SSE2 on x86-64: two
/// `f64` or `i64` lanes an instruction). Everything it calls down to the
/// lane loops is `#[inline(always)]`, so [`runner_avx2`] compiles the same
/// source again.
#[inline(always)]
fn runner(banks: &mut [Option<Bank>], k: &CompiledKernel, rows: Rows<'_>) {
    let Rows { cols, base, n } = rows;
    if let Some(m) = k.money {
        return money_pair(banks, k, &m, rows);
    }
    for step in k.steps.iter() {
        // SSA: every register a step reads is below the one it writes.
        let (below, rest) = banks.split_at_mut(step.dst() as usize);
        let dst = rest[0].as_mut().expect("a step writes a banked register");
        let lanes = |r: Reg| match k.operands[r as usize] {
            Operand::Splat(v) => Lanes::Splat(v),
            Operand::Slot(slot) => match cols[slot as usize] {
                ColRef::I64(s) => Lanes::I64(&s[base..base + n]),
                ColRef::F64(s) => Lanes::F64(&s[base..base + n]),
                ColRef::KeyU64(s) => Lanes::Key(&s[base..base + n]),
                ColRef::RowIds(_) => Lanes::RowIds(RowNumbers(base)),
            },
            Operand::Bank => Lanes::of(&below[r as usize], n),
        };
        match *step {
            // A load is a cast to its own type.
            Step::Load { dst: r } => cast(dst, lanes(r), n),
            Step::Eval { instr, .. } => match instr {
                Instr::Bin { op, lhs, rhs } => bin(dst, op, lanes(lhs), lanes(rhs), n),
                Instr::Un { op, arg } => un(dst, op, lanes(arg), n),
                Instr::Select { cond, then_r, else_r } => {
                    select(dst, lanes(cond), lanes(then_r), lanes(else_r), n)
                }
                Instr::Cast { arg, .. } => cast(dst, lanes(arg), n),
                _ => unreachable!("loads, constants, copies and compares are not evaluated"),
            },
            Step::All { ref terms, .. } => {
                let Bank::Bool(d) = dst else { unreachable!("a conjunction is bool") };
                let d = &mut d[..n.div_ceil(64)];
                d.fill(u64::MAX);
                for term in terms.iter() {
                    match *term {
                        Term::Cmp { op, lhs, rhs } => and_cmp(d, op, lanes(lhs), lanes(rhs), n),
                        Term::Mask(m) => mask_src!(lanes(m), m => {
                            d.iter_mut().enumerate().for_each(|(w, dw)| *dw &= m.at(w))
                        }),
                    }
                }
            }
        }
    }
}

/// [`runner`] compiled a second time for AVX2, four lanes an instruction.
/// It is the same Rust source with no intrinsics, so every operation keeps
/// Rust's IEEE and integer semantics and the banks are identical bit for
/// bit. Running it on a CPU without AVX2 is undefined behaviour, so its one
/// call, in `BatchMachine::run_build`, is `unsafe` and guarded by the
/// run-time check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn runner_avx2(banks: &mut [Option<Bank>], k: &CompiledKernel, rows: Rows<'_>) {
    runner(banks, k, rows)
}

/// Run Q1's price pair over `rows` into the two outputs' banks.
#[inline(always)]
fn money_pair(banks: &mut [Option<Bank>], k: &CompiledKernel, m: &MoneyPair, rows: Rows<'_>) {
    let Rows { cols, base, n } = rows;
    // SSA: out1's defining Mul reads out0, so o0 < o1.
    let (o0, o1) = (k.outputs[0] as usize, k.outputs[1] as usize);
    let (lo, hi) = banks.split_at_mut(o1);
    let (Some(Bank::F64(d0)), Some(Bank::F64(d1))) = (&mut lo[o0], &mut hi[0]) else {
        unreachable!("money outputs are f64")
    };
    let f64s = |slot: u32| match cols[slot as usize] {
        ColRef::F64(s) => &s[base..base + n],
        _ => unreachable!("binding checked by CompiledKernel::check_binding"),
    };
    let (p, dc, t) = (f64s(m.price), f64s(m.disc), f64s(m.tax));
    let (d0, d1) = (&mut d0[..n], &mut d1[..n]);
    for j in 0..n {
        let dp = p[j] * (m.c_sub - dc[j]);
        d0[j] = dp;
        d1[j] = dp * (m.c_add + t[j]);
    }
}

#[inline(always)]
fn bin(dst: &mut Bank, op: BinOp, a: Lanes<'_>, b: Lanes<'_>, n: usize) {
    match dst {
        Bank::I64(d) => i64_src!(a, a => i64_src!(b, b => bin_i64(&mut d[..n], op, a, b))),
        Bank::F64(d) => f64_src!(a, a => f64_src!(b, b => bin_f64(&mut d[..n], op, a, b))),
        Bank::Bool(d) => mask_src!(a, a => mask_src!(b, b => {
            let d = &mut d[..n.div_ceil(64)];
            match op {
                BinOp::Or => map2(d, a, b, |x, y| x | y),
                BinOp::Xor => map2(d, a, b, |x, y| x ^ y),
                _ => unreachable!("a bool And is a conjunction; no arithmetic on bool"),
            }
        })),
    }
}

#[inline(always)]
fn bin_i64(d: &mut [i64], op: BinOp, a: impl Src<V = i64>, b: impl Src<V = i64>) {
    match op {
        BinOp::Add => map2(d, a, b, i64::wrapping_add),
        BinOp::Sub => map2(d, a, b, i64::wrapping_sub),
        BinOp::Mul => map2(d, a, b, i64::wrapping_mul),
        BinOp::Div => map2(d, a, b, |x, y| if y == 0 { 0 } else { x.wrapping_div(y) }),
        BinOp::Rem => map2(d, a, b, |x, y| if y == 0 { 0 } else { x.wrapping_rem(y) }),
        BinOp::Min => map2(d, a, b, i64::min),
        BinOp::Max => map2(d, a, b, i64::max),
        BinOp::And => map2(d, a, b, |x, y| x & y),
        BinOp::Or => map2(d, a, b, |x, y| x | y),
        BinOp::Xor => map2(d, a, b, |x, y| x ^ y),
        BinOp::Shl => map2(d, a, b, |x, y| x.wrapping_shl(y as u32 & 63)),
        BinOp::Shr => map2(d, a, b, |x, y| x.wrapping_shr(y as u32 & 63)),
    }
}

#[inline(always)]
fn bin_f64(d: &mut [f64], op: BinOp, a: impl Src<V = f64>, b: impl Src<V = f64>) {
    match op {
        BinOp::Add => map2(d, a, b, |x, y| x + y),
        BinOp::Sub => map2(d, a, b, |x, y| x - y),
        BinOp::Mul => map2(d, a, b, |x, y| x * y),
        BinOp::Div => map2(d, a, b, |x, y| x / y),
        BinOp::Rem => map2(d, a, b, |x, y| x % y),
        BinOp::Min => map2(d, a, b, f64::min),
        BinOp::Max => map2(d, a, b, f64::max),
        _ => unreachable!("verifier rejects bit ops on f64"),
    }
}

#[inline(always)]
fn un(dst: &mut Bank, op: UnOp, a: Lanes<'_>, n: usize) {
    match (dst, op) {
        (Bank::I64(d), UnOp::Not) => i64_src!(a, a => map1(&mut d[..n], a, |x| !x)),
        (Bank::I64(d), UnOp::Neg) => i64_src!(a, a => map1(&mut d[..n], a, i64::wrapping_neg)),
        (Bank::F64(d), UnOp::Neg) => f64_src!(a, a => map1(&mut d[..n], a, |x| -x)),
        (Bank::Bool(d), UnOp::Not) => mask_src!(a, a => map1(&mut d[..n.div_ceil(64)], a, |x| !x)),
        _ => unreachable!("verifier rejects Not on f64 and Neg on bool"),
    }
}

#[inline(always)]
fn select(dst: &mut Bank, cond: Lanes<'_>, t: Lanes<'_>, e: Lanes<'_>, n: usize) {
    mask_src!(cond, c => match dst {
        Bank::I64(d) => i64_src!(t, t => i64_src!(e, e => pick(&mut d[..n], c, t, e))),
        Bank::F64(d) => f64_src!(t, t => f64_src!(e, e => pick(&mut d[..n], c, t, e))),
        Bank::Bool(d) => mask_src!(t, t => mask_src!(e, e => {
            let d = &mut d[..n.div_ceil(64)];
            for (w, dw) in d.iter_mut().enumerate() {
                *dw = (c.at(w) & t.at(w)) | (!c.at(w) & e.at(w));
            }
        })),
    })
}

#[inline(always)]
fn cast(dst: &mut Bank, a: Lanes<'_>, n: usize) {
    match (dst, a.ty()) {
        (Bank::I64(d), Ty::I64) => i64_src!(a, a => map1(&mut d[..n], a, |x| x)),
        (Bank::I64(d), Ty::F64) => f64_src!(a, a => map1(&mut d[..n], a, |x| x as i64)),
        (Bank::I64(d), Ty::Bool) => mask_src!(a, a => pick(&mut d[..n], a, Splat(1), Splat(0))),
        (Bank::F64(d), Ty::I64) => i64_src!(a, a => map1(&mut d[..n], a, |x| x as f64)),
        (Bank::F64(d), Ty::F64) => f64_src!(a, a => map1(&mut d[..n], a, |x| x)),
        (Bank::F64(d), Ty::Bool) => {
            mask_src!(a, a => pick(&mut d[..n], a, Splat(1.0), Splat(0.0)))
        }
        (Bank::Bool(d), Ty::I64) => {
            let d = &mut d[..n.div_ceil(64)];
            d.fill(u64::MAX);
            i64_src!(a, a => and_lanes(d, a, Splat(0), n, |x, zero| x != zero))
        }
        (Bank::Bool(d), Ty::Bool) => mask_src!(a, a => map1(&mut d[..n.div_ceil(64)], a, |x| x)),
        (Bank::Bool(_), Ty::F64) => unreachable!("verifier rejects f64 -> bool cast"),
    }
}

/// AND the compare `a <op> b` into the mask words `d`, bit `j` for lane
/// `j`. The lane kinds and the operator are matched here, once per batch.
#[inline(always)]
fn and_cmp(d: &mut [u64], op: CmpOp, a: Lanes<'_>, b: Lanes<'_>, n: usize) {
    match a.ty() {
        Ty::I64 => i64_src!(a, a => i64_src!(b, b => and_ord(d, op, a, b, n))),
        Ty::F64 => f64_src!(a, a => f64_src!(b, b => and_ord(d, op, a, b, n))),
        Ty::Bool => mask_src!(a, a => mask_src!(b, b => {
            let eq = match op {
                CmpOp::Eq => u64::MAX,
                CmpOp::Ne => 0,
                _ => unreachable!("verifier rejects ordered cmp on bool"),
            };
            for (w, dw) in d.iter_mut().enumerate() {
                *dw &= a.at(w) ^ b.at(w) ^ eq;
            }
        })),
    }
}

#[inline(always)]
fn and_ord<V: PartialOrd, A: Src<V = V>, B: Src<V = V>>(
    d: &mut [u64],
    op: CmpOp,
    a: A,
    b: B,
    n: usize,
) {
    match op {
        CmpOp::Lt => and_lanes(d, a, b, n, |x, y| x < y),
        CmpOp::Le => and_lanes(d, a, b, n, |x, y| x <= y),
        CmpOp::Gt => and_lanes(d, a, b, n, |x, y| x > y),
        CmpOp::Ge => and_lanes(d, a, b, n, |x, y| x >= y),
        CmpOp::Eq => and_lanes(d, a, b, n, |x, y| x == y),
        CmpOp::Ne => and_lanes(d, a, b, n, |x, y| x != y),
    }
}

/// `d[w] &= word w of f(a[j], b[j])` over `n` lanes: whole words are a
/// fixed 64-lane loop, and the last word's lanes at or past `n` come out
/// cleared. The compiler vectorizes the 64-lane loop at the width of the
/// runner it is inlined into: two lanes per compare in [`runner`] at the
/// x86-64 baseline (SSE2), four in [`runner_avx2`].
#[inline(always)]
fn and_lanes<A: Src, B: Src>(d: &mut [u64], a: A, b: B, n: usize, f: impl Fn(A::V, B::V) -> bool) {
    let (whole, tail) = (n / 64, n % 64);
    for (w, dw) in d[..whole].iter_mut().enumerate() {
        let (x, y) = (a.cut(w * 64, 64), b.cut(w * 64, 64));
        *dw &= word((0..64).map(|j| f(x.at(j), y.at(j))));
    }
    if tail != 0 {
        let (x, y) = (a.cut(whole * 64, tail), b.cut(whole * 64, tail));
        d[whole] &= word((0..tail).map(|j| f(x.at(j), y.at(j))));
    }
}

/// Bit `j` set iff the `j`-th lane is true.
#[inline(always)]
fn word(lanes: impl Iterator<Item = bool>) -> u64 {
    lanes.enumerate().fold(0, |m, (j, t)| m | ((t as u64) << j))
}

/// `d[j] = f(a[j])` for every lane of `d`.
#[inline(always)]
fn map1<A: Src, T>(d: &mut [T], a: A, f: impl Fn(A::V) -> T) {
    let a = a.cut(0, d.len());
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = f(a.at(j));
    }
}

/// `d[j] = f(a[j], b[j])` for every lane of `d`.
#[inline(always)]
fn map2<A: Src, B: Src, T>(d: &mut [T], a: A, b: B, f: impl Fn(A::V, B::V) -> T) {
    let (a, b) = (a.cut(0, d.len()), b.cut(0, d.len()));
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = f(a.at(j), b.at(j));
    }
}

/// `d[j] = if lane j of c { a[j] } else { b[j] }`.
#[inline(always)]
fn pick<C: Src<V = u64>, A: Src, B: Src<V = A::V>>(d: &mut [A::V], c: C, a: A, b: B) {
    let (a, b) = (a.cut(0, d.len()), b.cut(0, d.len()));
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = if (c.at(j >> 6) >> (j & 63)) & 1 == 1 { a.at(j) } else { b.at(j) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BodyBuilder, Expr};
    use crate::interp;
    use kfusion_prng::Rng;
    use std::ops::Range;

    fn compile_all_i64(body: &KernelBody) -> CompiledKernel {
        let seeds: Vec<Option<Ty>> = vec![Some(Ty::I64); body.n_inputs as usize];
        CompiledKernel::compile(body, &seeds).unwrap()
    }

    #[test]
    fn predicate_mask_matches_interp() {
        let body = BodyBuilder::threshold_lt(0, 100).build();
        let k = compile_all_i64(&body);
        let vals: Vec<i64> = (0..200).map(|i| i * 3 - 50).collect();
        let cols = [ColRef::I64(&vals)];
        k.check_binding(&cols).unwrap();
        let mut bm = BatchMachine::new(&k);
        bm.run(&k, &cols, 0, vals.len());
        let mask = bm.selection_mask(&k);
        for (j, &v) in vals.iter().enumerate() {
            let scalar = interp::eval_predicate(&body, &[Value::I64(v)]).unwrap();
            assert_eq!(mask_lane(mask, j), scalar, "lane {j} value {v}");
        }
    }

    #[test]
    fn key_column_loads_as_i64() {
        let body = BodyBuilder::threshold_lt(0, 10).build();
        let k = compile_all_i64(&body);
        let keys: Vec<u64> = vec![0, 9, 10, u64::MAX];
        let cols = [ColRef::KeyU64(&keys)];
        k.check_binding(&cols).unwrap();
        let mut bm = BatchMachine::new(&k);
        bm.run(&k, &cols, 0, keys.len());
        let mask = bm.selection_mask(&k);
        // u64::MAX as i64 == -1 < 10: matches the scalar calling convention.
        assert_eq!(
            (0..4).map(|j| mask_lane(mask, j)).collect::<Vec<_>>(),
            vec![true, true, false, true]
        );
    }

    /// A row-id slot loads each row's number, from any base row.
    #[test]
    fn row_ids_load_as_their_row_numbers() {
        let mut b = BodyBuilder::new(1);
        b.emit_output(Expr::input(0).mul(Expr::lit(3i64)));
        let k = compile_all_i64(&b.build());
        let cols = [ColRef::RowIds(2000)];
        k.check_binding(&cols).unwrap();
        let mut bm = BatchMachine::new(&k);
        bm.poison(&k);
        bm.run(&k, &cols, 900, 100);
        let BankView::I64(out) = bm.output(&k, 0) else { panic!("output is i64") };
        assert_eq!(out[..100], (900..1000).map(|i| i * 3).collect::<Vec<i64>>()[..]);
    }

    #[test]
    fn polymorphic_body_fails_to_compile() {
        // out = in[0] with no seed: no single register type.
        let mut b = KernelBody::new(1);
        let x = b.push(Instr::LoadInput { slot: 0 });
        b.outputs.push(x);
        assert!(matches!(
            CompiledKernel::compile(&b, &[None]),
            Err(BatchError::Unresolved { reg: 0 })
        ));
        // Seeded, it compiles.
        assert!(CompiledKernel::compile(&b, &[Some(Ty::F64)]).is_ok());
    }

    #[test]
    fn conflicting_seed_fails_to_compile() {
        let body = BodyBuilder::threshold_lt(0, 100).build(); // slot 0 is i64
        assert!(matches!(
            CompiledKernel::compile(&body, &[Some(Ty::F64)]),
            Err(BatchError::Verify(_))
        ));
    }

    #[test]
    fn binding_check_rejects_wrong_column_type() {
        let body = BodyBuilder::threshold_lt(0, 100).build();
        let k = compile_all_i64(&body);
        let f: Vec<f64> = vec![1.0];
        assert!(matches!(
            k.check_binding(&[ColRef::F64(&f)]),
            Err(BatchError::Binding { slot: 0, expected: Ty::I64 })
        ));
        assert!(matches!(k.check_binding(&[]), Err(BatchError::Binding { slot: 0, .. })));
    }

    /// Every bank of `m`, as bits.
    fn bits(m: &BatchMachine) -> Vec<Vec<u64>> {
        let bank = |b: &Bank| match b {
            Bank::I64(v) => v.iter().map(|&x| x as u64).collect(),
            Bank::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
            Bank::Bool(v) => v.clone(),
        };
        m.banks.iter().flatten().map(bank).collect()
    }

    /// Run `k` over base rows `range` of `cols` in the baseline build and,
    /// on a CPU that has it, in the AVX2 build, each on a poisoned machine,
    /// and require identical banks. Returns the baseline's machine.
    fn both_builds(k: &CompiledKernel, cols: &[ColRef<'_>], range: Range<usize>) -> BatchMachine {
        let run = |wide: bool| {
            let mut m = BatchMachine::new(k);
            m.poison(k);
            m.run_build(k, cols, range.start, range.len(), wide);
            m
        };
        let baseline = run(false);
        if avx2() {
            assert_eq!(bits(&baseline), bits(&run(true)), "baseline vs AVX2 build over {range:?}");
        }
        baseline
    }

    /// Run `body` over base rows `range` of `cols` through both builds of
    /// the runner ([`both_builds`]) and assert it agrees bit for bit with
    /// the scalar interpreter on every lane; `rows` are the interpreter's
    /// inputs for every base row. Returns the kernel and the machine.
    fn assert_matches_interp(
        body: &KernelBody,
        slot_tys: &[Option<Ty>],
        cols: &[ColRef<'_>],
        rows: &[Vec<Value>],
        range: Range<usize>,
    ) -> (CompiledKernel, BatchMachine) {
        let k = CompiledKernel::compile(body, slot_tys).unwrap();
        k.check_binding(cols).unwrap();
        let m = both_builds(&k, cols, range.clone());
        for (j, row) in rows[range].iter().enumerate() {
            let expect = interp::eval(body, row).unwrap();
            for (slot, want) in expect.iter().enumerate() {
                let got = match m.output(&k, slot) {
                    BankView::I64(v) => Value::I64(v[j]),
                    BankView::F64(v) => Value::F64(v[j]),
                    BankView::Bool(mask) => Value::Bool(mask_lane(mask, j)),
                };
                assert_eq!(got, *want, "lane {j} out {slot}: {row:?}");
            }
        }
        (k, m)
    }

    #[test]
    fn a_key_pack_matches_interp() {
        let mut b = BodyBuilder::new(3);
        b.emit_output(Expr::input(1).mul(Expr::lit(65536i64)).add(Expr::input(2)));
        let body = b.build();
        let flag: Vec<i64> = (0..200).map(|i| i % 3).collect();
        let status: Vec<i64> = (0..200).map(|i| (i * 7) % 5 - 2).collect();
        let keys: Vec<u64> = (0..200).collect();
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|j| vec![Value::I64(keys[j] as i64), Value::I64(flag[j]), Value::I64(status[j])])
            .collect();
        assert_matches_interp(
            &body,
            &[Some(Ty::I64), Some(Ty::I64), Some(Ty::I64)],
            &[ColRef::KeyU64(&keys), ColRef::I64(&flag), ColRef::I64(&status)],
            &rows,
            0..200,
        );
        // The same pack reading a row-id key in both operands' places.
        for (a, c) in [(0, 2), (1, 0)] {
            let mut b = BodyBuilder::new(3);
            b.emit_output(Expr::input(a).mul(Expr::lit(65536i64)).add(Expr::input(c)));
            assert_matches_interp(
                &b.build(),
                &[Some(Ty::I64), Some(Ty::I64), Some(Ty::I64)],
                &[ColRef::RowIds(200), ColRef::I64(&flag), ColRef::I64(&status)],
                &rows,
                37..200,
            );
        }
    }

    /// A body spliced from several members' bodies runs as one lowering:
    /// here a compare and a key pack beside a sum, and the same splice
    /// with the pack's output read again by a later member, as a spliced
    /// ARITH+ that feeds another would be. Every lane is the interpreter's,
    /// with poisoned banks.
    #[test]
    fn a_spliced_body_matches_interp() {
        let body = |out: Expr| {
            let mut b = BodyBuilder::new(3);
            b.emit_output(out);
            b.build()
        };
        let pred = body(Expr::input(1).cmp(CmpOp::Lt, Expr::lit(2i64)));
        let pack = body(Expr::input(1).mul(Expr::lit(65536i64)).add(Expr::input(2)));
        let sum = body(Expr::input(1).add(Expr::input(2)));
        let ext = || (0..3).map(SlotSource::External).collect::<Vec<_>>();
        let out = |body| FusedOutput { body, output: 0 };
        let spliced = fuse(
            &[pred.clone(), pack.clone(), sum.clone()],
            &[ext(), ext(), ext()],
            &[out(0), out(1), out(2)],
        )
        .unwrap();
        let reread = vec![
            SlotSource::External(0),
            SlotSource::Producer { body: 1, output: 0 },
            SlotSource::External(2),
        ];
        let fed =
            fuse(&[pred, pack, sum], &[ext(), ext(), reread], &[out(0), out(1), out(2)]).unwrap();
        let flag: Vec<i64> = (0..300).map(|i| i % 3).collect();
        let status: Vec<i64> = (0..300).map(|i| (i * 7) % 5 - 2).collect();
        let cols = [ColRef::RowIds(300), ColRef::I64(&flag), ColRef::I64(&status)];
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|j| vec![Value::I64(j as i64), Value::I64(flag[j]), Value::I64(status[j])])
            .collect();
        let tys = [Some(Ty::I64), Some(Ty::I64), Some(Ty::I64)];
        for body in [&spliced, &fed] {
            assert_matches_interp(body, &tys, &cols, &rows, 41..300);
        }
    }

    #[test]
    fn fused_money_pair_matches_interp() {
        // The naive builder duplicates the discounted-price subtree, the
        // exact shape Q1's money kernel has.
        let mut b = BodyBuilder::new(4);
        let dp = || Expr::input(1).mul(Expr::lit(1.0f64).sub(Expr::input(2)));
        b.emit_output(dp());
        b.emit_output(dp().mul(Expr::lit(1.0f64).add(Expr::input(3))));
        let body = b.build();
        let price: Vec<f64> = (0..200).map(|i| 900.0 + (i as f64) * 1.37).collect();
        let disc: Vec<f64> = (0..200).map(|i| (i % 11) as f64 * 0.01).collect();
        let tax: Vec<f64> = (0..200).map(|i| (i % 9) as f64 * 0.01).collect();
        let keys: Vec<u64> = (0..200).collect();
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|j| {
                vec![
                    Value::I64(keys[j] as i64),
                    Value::F64(price[j]),
                    Value::F64(disc[j]),
                    Value::F64(tax[j]),
                ]
            })
            .collect();
        let (k, _) = assert_matches_interp(
            &body,
            &[Some(Ty::I64), Some(Ty::F64), Some(Ty::F64), Some(Ty::F64)],
            &[ColRef::KeyU64(&keys), ColRef::F64(&price), ColRef::F64(&disc), ColRef::F64(&tax)],
            &rows,
            0..200,
        );
        assert!(k.money.is_some(), "the price pair runs as its own loop");
    }

    /// Every comparison operator on every column kind — `i64`, keys read as
    /// `i64` (`>= 2^63` too), `f64`, row ids — against constants on either
    /// side and against columns, over NaN, ±0.0, ±∞, `i64::MIN` and
    /// `i64::MAX`; plus Q6's three-term range and a chain that mixes
    /// constant and column terms. Slots: 0 and 5 keys, 1 and 2 `i64`, 3 and
    /// 4 `f64`, 6 row ids.
    struct CompareTable {
        keys_a: Vec<u64>,
        ints_a: Vec<i64>,
        ints_b: Vec<i64>,
        floats_a: Vec<f64>,
        floats_b: Vec<f64>,
        keys_b: Vec<u64>,
    }

    /// The table's first rows lie off the word grid.
    const BASE: usize = 3;

    impl CompareTable {
        fn new() -> CompareTable {
            const INTS: [i64; 9] =
                [i64::MIN, i64::MIN + 1, -7, -1, 0, 1, 7, i64::MAX - 1, i64::MAX];
            const KEYS: [u64; 8] = [0, 1, 7, i64::MAX as u64, 1 << 63, (1 << 63) + 1, !6, u64::MAX];
            const FLOATS: [f64; 9] = [
                f64::NAN,
                f64::NEG_INFINITY,
                -1.5,
                -0.0,
                0.0,
                1.5,
                f64::INFINITY,
                f64::MIN_POSITIVE,
                -f64::NAN,
            ];
            let len = BASE + BATCH_ROWS + 5;
            // Each column draws from its pool in its own order, so every
            // pair of values meets somewhere.
            let pick = |i: usize, salt: u64, pool: usize| {
                let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 32) as usize % pool
            };
            CompareTable {
                keys_a: (0..len).map(|i| KEYS[pick(i, 1, KEYS.len())]).collect(),
                ints_a: (0..len).map(|i| INTS[pick(i, 2, INTS.len())]).collect(),
                ints_b: (0..len).map(|i| INTS[pick(i, 3, INTS.len())]).collect(),
                floats_a: (0..len).map(|i| FLOATS[pick(i, 4, FLOATS.len())]).collect(),
                floats_b: (0..len).map(|i| FLOATS[pick(i, 5, FLOATS.len())]).collect(),
                keys_b: (0..len).map(|i| KEYS[pick(i, 6, KEYS.len())]).collect(),
            }
        }

        fn cols(&self) -> [ColRef<'_>; 7] {
            [
                ColRef::KeyU64(&self.keys_a),
                ColRef::I64(&self.ints_a),
                ColRef::I64(&self.ints_b),
                ColRef::F64(&self.floats_a),
                ColRef::F64(&self.floats_b),
                ColRef::KeyU64(&self.keys_b),
                ColRef::RowIds(self.keys_a.len()),
            ]
        }

        fn rows(&self) -> Vec<Vec<Value>> {
            (0..self.keys_a.len())
                .map(|i| {
                    vec![
                        Value::I64(self.keys_a[i] as i64),
                        Value::I64(self.ints_a[i]),
                        Value::I64(self.ints_b[i]),
                        Value::F64(self.floats_a[i]),
                        Value::F64(self.floats_b[i]),
                        Value::I64(self.keys_b[i] as i64),
                        Value::I64(i as i64),
                    ]
                })
                .collect()
        }

        fn bodies() -> Vec<KernelBody> {
            const OPS: [CmpOp; 6] =
                [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
            let int_consts =
                [Value::I64(0), Value::I64(i64::MIN), Value::I64(i64::MAX), Value::I64(500)];
            let float_consts = [Value::F64(f64::NAN), Value::F64(-0.0), Value::F64(f64::INFINITY)];
            let mut preds: Vec<Expr> = Vec::new();
            for op in OPS {
                for (slots, consts) in
                    [(&[0, 1, 2, 5, 6][..], &int_consts[..]), (&[3, 4][..], &float_consts[..])]
                {
                    for &l in slots {
                        for &c in consts {
                            preds.push(Expr::input(l).cmp(op, Expr::lit(c)));
                            preds.push(Expr::lit(c).cmp(op, Expr::input(l)));
                        }
                        for &r in slots.iter().filter(|&&r| r != l) {
                            preds.push(Expr::input(l).cmp(op, Expr::input(r)));
                        }
                    }
                }
            }
            // Q6's range shape: disc >= lo && disc <= hi && 24.0 > qty.
            let range = Expr::input(3)
                .cmp(CmpOp::Ge, Expr::lit(-1.5f64))
                .and(Expr::input(3).cmp(CmpOp::Le, Expr::lit(1.5f64)));
            preds.push(range.and(Expr::lit(0.0f64).cmp(CmpOp::Gt, Expr::input(4))));
            // Q21's shape beside constant terms: receipt > commit && min != max.
            let mixed = Expr::input(1).cmp(CmpOp::Gt, Expr::input(2));
            let mixed = mixed.and(Expr::input(0).cmp(CmpOp::Ne, Expr::input(5)));
            preds.push(mixed.and(Expr::input(4).cmp(CmpOp::Le, Expr::lit(0.0f64))));
            let body = |pred| {
                let mut b = BodyBuilder::new(7);
                b.emit_output(pred);
                b.build()
            };
            preds.into_iter().map(body).collect()
        }
    }

    /// The twin check: the baseline and the AVX2 build of the whole runner
    /// leave identical banks, and agree with the interpreter, on the
    /// compare table at `n` of 1, 63, 64, 65 and 1024 rows from a base row
    /// off the word grid, and on random bodies of every `prop_batch.rs` arm
    /// (random instructions, splices, repeated subtrees, constants on
    /// either side of compares, conjunction trees), with slot 0 a key
    /// column or row ids. On a CPU without AVX2 it says it skipped that
    /// build.
    #[test]
    fn both_builds_of_the_runner_agree() {
        if !avx2() {
            println!("no AVX2 on this CPU: the AVX2 build of the runner is not run");
        }
        let table = CompareTable::new();
        let (cols, rows) = (table.cols(), table.rows());
        let slot_tys = cols.map(|c| Some(c.ty()));
        for body in CompareTable::bodies() {
            for n in [1, 63, 64, 65, BATCH_ROWS] {
                assert_matches_interp(&body, &slot_tys, &cols, &rows, BASE..BASE + n);
            }
        }
        let len = BASE + BATCH_ROWS;
        for seed in 0..100u64 {
            let mut rng = Rng::seed_from_u64(0x7715 ^ seed);
            let mut data = test_bodies::gen_columns(&mut rng, len, 2, 2);
            data.keys = (0..len as u64).collect();
            let body = match seed % 5 {
                4 => {
                    let extra = rng.gen_range(8..32usize);
                    test_bodies::gen_body(&mut rng, &data.slot_tys, extra)
                }
                arm => test_bodies::gen_arm(&mut rng, arm as usize, &data.slot_tys),
            };
            let slot_tys: Vec<Option<Ty>> = data.slot_tys.iter().map(|&t| Some(t)).collect();
            let rows: Vec<Vec<Value>> = (0..len).map(|i| data.row(i)).collect();
            for cols in [data.ir_cols(), data.row_id_cols()] {
                for n in [65, BATCH_ROWS] {
                    assert_matches_interp(&body, &slot_tys, &cols, &rows, BASE..BASE + n);
                }
            }
        }
    }

    #[test]
    fn a_machine_banks_only_the_registers_a_run_writes() {
        let banked = |k: &CompiledKernel| BatchMachine::new(k).banks.iter().flatten().count();
        // Q6's shape: the conjunction reads its f64 loads in place and its
        // constants as splats and ANDs both compares into its own words, so
        // only the mask has a bank.
        let mut b = BodyBuilder::new(2);
        let lo = Expr::input(0).cmp(CmpOp::Ge, Expr::lit(0.05f64));
        b.emit_output(lo.and(Expr::input(1).cmp(CmpOp::Lt, Expr::lit(24.0f64))));
        let body = b.build();
        let k = CompiledKernel::compile(&body, &[Some(Ty::F64), Some(Ty::F64)]).unwrap();
        assert_eq!((body.instrs.len(), banked(&k)), (7, 1));
        // A load is read in place, a row-id slot too, and a constant is a
        // splat: only the quotient is banked. (An i64 load was banked while
        // a row-id slot was read from a bank its load filled.)
        for (ty, lit, banks) in [(Ty::F64, Value::F64(3.0), 1), (Ty::I64, Value::I64(3), 1)] {
            let mut b = BodyBuilder::new(1);
            b.emit_output(Expr::input(0).div(Expr::lit(lit)));
            let body = b.build();
            let k = CompiledKernel::compile(&body, &[Some(ty)]).unwrap();
            assert_eq!((body.instrs.len(), banked(&k)), (3, banks));
        }
    }

    /// Identical instructions — a subtree the builder emits twice, loads
    /// and constants included — and a `Copy` share one register: the twice
    /// emitted `a * b + 1.5` is computed once, and both outputs read one
    /// bank.
    #[test]
    fn identical_instructions_share_one_register() {
        let twice = || Expr::input(0).mul(Expr::input(1)).add(Expr::lit(1.5f64));
        let mut b = BodyBuilder::new(2);
        b.emit_output(twice());
        b.emit_output(twice());
        let mut body = b.build();
        let copy = body.push(Instr::Copy { src: body.outputs[0] });
        body.outputs.push(copy);
        let k = CompiledKernel::compile(&body, &[Some(Ty::F64), Some(Ty::F64)]).unwrap();
        assert_eq!((body.instrs.len(), k.steps.len()), (11, 2));
        assert_eq!(BatchMachine::new(&k).banks.iter().flatten().count(), 2);
        let (a, c): (Vec<f64>, Vec<f64>) =
            (0..100).map(|i| (i as f64 * 0.7, 3.0 - i as f64)).unzip();
        let rows: Vec<Vec<Value>> =
            (0..100).map(|i| vec![Value::F64(a[i]), Value::F64(c[i])]).collect();
        let tys = [Some(Ty::F64), Some(Ty::F64)];
        assert_matches_interp(&body, &tys, &[ColRef::F64(&a), ColRef::F64(&c)], &rows, 0..100);
    }

    /// Where a machine's mask bank lives: the same address twice is the
    /// same machine.
    fn mask_at(m: &BatchMachine, k: &CompiledKernel) -> *const u64 {
        m.selection_mask(k).as_ptr()
    }

    #[test]
    fn a_checkout_goes_back_to_its_kernels_pool_and_out_again() {
        let k = compile_all_i64(&BodyBuilder::threshold_lt(0, 100).build());
        let first = mask_at(&k.checkout(), &k);
        assert_eq!(k.machines.lock().unwrap().len(), 1, "the dropped checkout is pooled");
        let clone = k.clone();
        let again = clone.checkout();
        assert_eq!(mask_at(&again, &k), first, "a clone hands out the same machine");
        assert!(k.machines.lock().unwrap().is_empty());
    }

    #[test]
    fn a_kernels_machines_are_dropped_with_the_kernel() {
        let k = compile_all_i64(&BodyBuilder::threshold_lt(0, 100).build());
        let clone = k.clone();
        drop(clone.checkout());
        let pool = Arc::downgrade(&k.machines);
        drop(k);
        assert!(pool.upgrade().is_some(), "a clone still holds the pool");
        drop(clone);
        assert!(pool.upgrade().is_none(), "the last clone took its machines with it");
    }

    #[test]
    fn two_threads_get_two_machines() {
        let k = compile_all_i64(&BodyBuilder::threshold_lt(0, 100).build());
        let both_out = std::sync::Barrier::new(2);
        let masks: Vec<usize> = std::thread::scope(|s| {
            let take = || {
                let m = k.checkout();
                both_out.wait();
                mask_at(&m, &k) as usize
            };
            let other = s.spawn(take);
            let mine = take();
            vec![mine, other.join().unwrap()]
        });
        assert_ne!(masks[0], masks[1], "two machines out at once");
        assert_eq!(k.machines.lock().unwrap().len(), 2, "both went back");
    }

    #[test]
    fn poisoning_applies_to_a_reused_machine() {
        let k = compile_all_i64(&BodyBuilder::threshold_lt(0, 100).build());
        let vals: Vec<i64> = (0..BATCH_ROWS as i64).map(|i| i * 2 - 30).collect();
        let cols = [ColRef::I64(&vals)];
        let mut clean = BatchMachine::new(&k);
        clean.run(&k, &cols, 0, 100);
        let first = {
            let mut m = k.checkout();
            m.run(&k, &cols, 0, vals.len());
            mask_at(&m, &k)
        };
        set_scratch_poison(true);
        let mut m = k.checkout();
        m.run(&k, &cols, 0, 100);
        set_scratch_poison(false);
        assert_eq!(mask_at(&m, &k), first, "the pooled machine came back");
        let (mask, want) = (m.selection_mask(&k), clean.selection_mask(&k));
        for j in 0..100 {
            assert_eq!(mask_lane(mask, j), mask_lane(want, j), "lane {j}");
        }
        // The words past the run hold the poison, not the first run's lanes.
        assert!(mask[2..].iter().all(|&w| w == POISON_MASK));
    }

    #[test]
    fn poisoned_machine_still_computes_exact_results() {
        let body = BodyBuilder::threshold_lt(0, 100).build();
        let k = compile_all_i64(&body);
        let vals: Vec<i64> = (0..150).map(|i| i * 2 - 30).collect();
        let cols = [ColRef::I64(&vals)];
        let mut clean = BatchMachine::new(&k);
        clean.run(&k, &cols, 0, vals.len());
        let mut dirty = BatchMachine::new(&k);
        dirty.poison(&k);
        dirty.run(&k, &cols, 0, vals.len());
        for j in 0..vals.len() {
            assert_eq!(
                mask_lane(clean.selection_mask(&k), j),
                mask_lane(dirty.selection_mask(&k), j),
                "lane {j}"
            );
        }
    }

    #[test]
    fn multi_output_arith_matches_interp() {
        let mut b = BodyBuilder::new(3);
        b.emit_output(Expr::input(1).mul(Expr::input(2)));
        b.emit_output(Expr::input(1).add(Expr::lit(7i64)).cmp(CmpOp::Ge, Expr::input(2)));
        let body = b.build();
        let k =
            CompiledKernel::compile(&body, &[Some(Ty::I64), Some(Ty::I64), Some(Ty::I64)]).unwrap();
        let a: Vec<i64> = (0..100).map(|i| i * 17 - 300).collect();
        let c: Vec<i64> = (0..100).map(|i| 50 - i).collect();
        let keys: Vec<u64> = (0..100).collect();
        let cols = [ColRef::KeyU64(&keys), ColRef::I64(&a), ColRef::I64(&c)];
        k.check_binding(&cols).unwrap();
        let mut bm = BatchMachine::new(&k);
        bm.run(&k, &cols, 0, 100);
        let (o0, o1) = (bm.output(&k, 0), bm.output(&k, 1));
        for j in 0..100 {
            let row = [Value::I64(keys[j] as i64), Value::I64(a[j]), Value::I64(c[j])];
            let expect = interp::eval(&body, &row).unwrap();
            match o0 {
                BankView::I64(v) => assert_eq!(Value::I64(v[j]), expect[0]),
                _ => panic!("output 0 should be i64"),
            }
            match o1 {
                BankView::Bool(m) => assert_eq!(Value::Bool(mask_lane(m, j)), expect[1]),
                _ => panic!("output 1 should be bool"),
            }
        }
    }
}

/// The random bodies `tests/prop_batch.rs` checks, for the twin test.
#[cfg(test)]
#[path = "../tests/bodies/mod.rs"]
mod test_bodies;
#[cfg(test)]
use crate::fuse::{fuse, FusedOutput, SlotSource};
