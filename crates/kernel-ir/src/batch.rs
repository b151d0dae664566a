//! Vectorized batch execution of kernel bodies.
//!
//! The per-element [`crate::interp::Machine`] pays boxed [`Value`] dispatch
//! on every instruction of every tuple. This module removes that cost the
//! same way the paper's fused kernels do: resolve every register to a static
//! type *once*, then run each instruction as a tight loop over a whole batch
//! of rows. A [`CompiledKernel`] uses the verifier's union-find inference
//! ([`crate::verify::infer_with_slots`]), seeded with the bound column
//! types, to assign one [`Ty`] per register; a [`BatchMachine`] then holds
//! one typed columnar bank per register — `Vec<i64>`, `Vec<f64>`, or a
//! `u64` bitmask for bools — and evaluates column-at-a-time over batches of
//! [`BATCH_ROWS`] rows. Predicate outputs come back as selection bitmasks.
//!
//! The hottest instruction chains run as fused primitives instead (`Fused`):
//! one pass from the input columns into the output banks — for a whole
//! body, or for each output of a body spliced from several (a fused
//! group's loop) that is a primitive on its own. The compare chain
//! behind every Q1/Q6 SELECT (`cmp_chain`) is compiled twice, at the target's
//! baseline width and for AVX2; the AVX2 build runs when the CPU reports the
//! feature at run time. Both are the same source, so they give the same mask
//! words. Nothing else in the workspace picks an instruction set.
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
use std::fmt;
use std::ops::Range;
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

/// A body compiled for batch execution: the instruction list plus a single
/// static [`Ty`] for every register, resolved against the caller's column
/// types. Compile once per (body, binding); run over many batches.
///
/// The instruction/output/type tables live behind `Arc`s, so cloning a
/// compiled kernel is refcount bumps, never a per-clone duplication of the
/// instruction vector.
///
/// A kernel owns the [`BatchMachine`]s that run it: [`CompiledKernel::checkout`]
/// hands one out of a pool its clones share and takes it back when the
/// checkout drops, so a thread that walks morsel after morsel reuses one
/// machine, and the machines are freed with the last clone of the kernel.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    instrs: Arc<[Instr]>,
    outputs: Arc<[Reg]>,
    reg_ty: Arc<[Ty]>,
    /// The fused primitives that compute some of the outputs, each with the
    /// first output it computes: the whole body's, or — a body spliced from
    /// several — each output that is a primitive's shape and that no
    /// instruction reads.
    fused: Arc<[(usize, Fused)]>,
    /// Whether instruction `i` runs on the generic path: an output no
    /// primitive computes needs it.
    generic: Arc<[bool]>,
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
            let fused = Fused::recognize_outputs(&body.instrs, &body.outputs, &reg_ty);
            let generic = generic_instrs(&body.instrs, &body.outputs, &fused);
            Ok(CompiledKernel {
                instrs: body.instrs.as_slice().into(),
                outputs: body.outputs.as_slice().into(),
                reg_ty: reg_ty.into(),
                fused: fused.into(),
                generic: generic.into(),
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

    /// Name of the first recognized multi-op fused primitive, if any — for
    /// tests and EXPLAIN-style introspection.
    pub fn fused_primitive(&self) -> Option<&'static str> {
        self.fused.first().map(|(_, f)| match f {
            Fused::PackI64 { .. } => "pack_i64",
            Fused::MoneyPair { .. } => "money_pair",
            Fused::CmpChain { .. } => "cmp_chain",
        })
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
        for (r, instr) in self.instrs.iter().enumerate() {
            if let Instr::LoadInput { slot } = *instr {
                let expected = self.reg_ty[r];
                match cols.get(slot as usize) {
                    Some(c) if c.ty() == expected => {}
                    _ => return Err(BatchError::Binding { slot, expected }),
                }
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

/// A hardcoded multi-op fused primitive: one of the hottest Q1/Q6
/// instruction chains, recognized at compile time and executed as a single
/// pass over the input columns instead of one bank sweep per instruction.
///
/// Every variant is bit-exact with the generic interpretation: the fused
/// loop performs the same operations on the same operands in the same
/// order (`MoneyPair` reuses the discounted price the generic path
/// recomputes, but a repeated identical f64 expression yields identical
/// bits, so sharing it is observationally invisible).
#[derive(Debug, Clone, PartialEq)]
enum Fused {
    /// `out0 = in[a] * mul + in[b]` over i64 (Q1's group-code pack).
    PackI64 { a: u32, mul: i64, b: u32 },
    /// `out0 = p * (c_sub - d)`, `out1 = out0 * (c_add + t)` over f64
    /// (Q1's discounted/charged price pair).
    MoneyPair { price: u32, disc: u32, tax: u32, c_sub: f64, c_add: f64 },
    /// `out0 = term_0 && term_1 && ...`, each term `in[slot] <op> const` or
    /// `in[slot] <op> in[slot']` (every Q1/Q6 SELECT predicate, including
    /// the two-sided range, and Q21's column-against-column filters).
    CmpChain { terms: Vec<CmpTerm> },
}

/// One comparison of a `CmpChain`: `in[slot] <op> rhs`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CmpTerm {
    slot: u32,
    op: CmpOp,
    rhs: CmpRhs,
}

/// The right-hand side of a [`CmpTerm`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum CmpRhs {
    /// A constant (`i64` or `f64`, the type of the left column).
    Const(Value),
    /// Another input slot of the same type.
    Slot(u32),
}

/// The instructions the outputs no primitive of `fused` computes need.
fn generic_instrs(instrs: &[Instr], outputs: &[Reg], fused: &[(usize, Fused)]) -> Vec<bool> {
    let covered =
        |o: usize| fused.iter().any(|(first, f)| (*first..first + f.outputs()).contains(&o));
    let mut generic = vec![false; instrs.len()];
    let mut needed: Vec<Reg> =
        outputs.iter().enumerate().filter(|&(o, _)| !covered(o)).map(|(_, &r)| r).collect();
    while let Some(r) = needed.pop() {
        if !std::mem::replace(&mut generic[r as usize], true) {
            instrs[r as usize].for_each_operand(|x| needed.push(x));
        }
    }
    generic
}

impl Fused {
    /// How many outputs, from its first, the primitive computes.
    fn outputs(&self) -> usize {
        match self {
            Fused::MoneyPair { .. } => 2,
            Fused::PackI64 { .. } | Fused::CmpChain { .. } => 1,
        }
    }

    /// The primitives that compute `outputs`: one for the whole body, or one
    /// per output that is a primitive on its own and that no instruction
    /// reads (a body spliced from several members' bodies, each output one
    /// member's).
    fn recognize_outputs(instrs: &[Instr], outputs: &[Reg], reg_ty: &[Ty]) -> Vec<(usize, Fused)> {
        if let Some(f) = Fused::recognize(instrs, outputs, reg_ty) {
            return vec![(0, f)];
        }
        let mut read = vec![false; instrs.len()];
        for instr in instrs {
            instr.for_each_operand(|r| read[r as usize] = true);
        }
        let alone = |o: usize| {
            let out = &outputs[o..o + 1];
            Fused::recognize(instrs, out, reg_ty)
                .filter(|_| outputs.len() > 1 && !read[out[0] as usize])
        };
        (0..outputs.len()).filter_map(|o| alone(o).map(|f| (o, f))).collect()
    }

    fn recognize(instrs: &[Instr], outputs: &[Reg], reg_ty: &[Ty]) -> Option<Fused> {
        let load = |r: Reg| match instrs[r as usize] {
            Instr::LoadInput { slot } => Some(slot),
            _ => None,
        };
        let const_i64 = |r: Reg| match instrs[r as usize] {
            Instr::Const { value: Value::I64(c) } => Some(c),
            _ => None,
        };
        let const_f64 = |r: Reg| match instrs[r as usize] {
            Instr::Const { value: Value::F64(c) } => Some(c),
            _ => None,
        };
        // out = load(a) * mul + load(b), all i64.
        let pack = |r: Reg| -> Option<Fused> {
            if reg_ty[r as usize] != Ty::I64 {
                return None;
            }
            let (sum_l, sum_r) = match instrs[r as usize] {
                Instr::Bin { op: BinOp::Add, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            let (mul_l, mul_r) = match instrs[sum_l as usize] {
                Instr::Bin { op: BinOp::Mul, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            let (a, mul) = match (load(mul_l), const_i64(mul_r), const_i64(mul_l), load(mul_r)) {
                (Some(a), Some(m), _, _) => (a, m),
                (_, _, Some(m), Some(a)) => (a, m),
                _ => return None,
            };
            Some(Fused::PackI64 { a, mul, b: load(sum_r)? })
        };
        // dp(r) = load(price) * (c_sub - load(disc)), all f64.
        let discounted = |r: Reg| -> Option<(u32, u32, f64)> {
            let (p_reg, sub_reg) = match instrs[r as usize] {
                Instr::Bin { op: BinOp::Mul, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            let (c_reg, d_reg) = match instrs[sub_reg as usize] {
                Instr::Bin { op: BinOp::Sub, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            Some((load(p_reg)?, load(d_reg)?, const_f64(c_reg)?))
        };
        let money = |o0: Reg, o1: Reg| -> Option<Fused> {
            if reg_ty[o0 as usize] != Ty::F64 || reg_ty[o1 as usize] != Ty::F64 {
                return None;
            }
            let (price, disc, c_sub) = discounted(o0)?;
            let (dp_reg, add_reg) = match instrs[o1 as usize] {
                Instr::Bin { op: BinOp::Mul, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            // The naive builder re-emits the discounted-price subtree; it
            // must match out0's exactly for the fused sharing to be sound.
            let (p2, d2, c2) = discounted(dp_reg)?;
            if (p2, d2, c2.to_bits()) != (price, disc, c_sub.to_bits()) {
                return None;
            }
            let (ca_reg, t_reg) = match instrs[add_reg as usize] {
                Instr::Bin { op: BinOp::Add, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            Some(Fused::MoneyPair {
                price,
                disc,
                tax: load(t_reg)?,
                c_sub,
                c_add: const_f64(ca_reg)?,
            })
        };
        // Conjunction tree of `load <op> const` and `load <op> load`
        // comparisons, bool result.
        fn chain_terms(instrs: &[Instr], r: Reg, terms: &mut Vec<CmpTerm>) -> bool {
            match instrs[r as usize] {
                Instr::Bin { op: BinOp::And, lhs, rhs } => {
                    chain_terms(instrs, lhs, terms) && chain_terms(instrs, rhs, terms)
                }
                Instr::Cmp { op, lhs, rhs } => {
                    let operand = |x: Reg| match instrs[x as usize] {
                        Instr::LoadInput { slot } => Some(CmpRhs::Slot(slot)),
                        Instr::Const { value: v @ (Value::I64(_) | Value::F64(_)) } => {
                            Some(CmpRhs::Const(v))
                        }
                        _ => None,
                    };
                    let term = match (operand(lhs), operand(rhs)) {
                        (Some(CmpRhs::Slot(slot)), Some(rhs)) => CmpTerm { slot, op, rhs },
                        (Some(lhs @ CmpRhs::Const(_)), Some(CmpRhs::Slot(slot))) => {
                            CmpTerm { slot, op: op.swapped(), rhs: lhs }
                        }
                        _ => return false,
                    };
                    terms.push(term);
                    true
                }
                _ => false,
            }
        }
        match outputs {
            [o] if reg_ty[*o as usize] == Ty::Bool => {
                let mut terms = Vec::new();
                chain_terms(instrs, *o, &mut terms).then_some(Fused::CmpChain { terms })
            }
            [o] => pack(*o),
            [o0, o1] => money(*o0, *o1),
            _ => None,
        }
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

    fn as_i64(&self) -> &[i64] {
        self.view().as_i64()
    }

    fn as_mask(&self) -> &[u64] {
        self.view().as_mask()
    }

    fn view(&self) -> BankView<'_> {
        match self {
            Bank::I64(v) => BankView::I64(v),
            Bank::F64(v) => BankView::F64(v),
            Bank::Bool(v) => BankView::Bool(v),
        }
    }
}

impl<'a> BankView<'a> {
    fn as_i64(self) -> &'a [i64] {
        match self {
            BankView::I64(v) => v,
            _ => unreachable!("typed compile guarantees i64 lanes"),
        }
    }

    fn as_f64(self) -> &'a [f64] {
        match self {
            BankView::F64(v) => v,
            _ => unreachable!("typed compile guarantees f64 lanes"),
        }
    }

    fn as_mask(self) -> &'a [u64] {
        match self {
            BankView::Bool(v) => v,
            _ => unreachable!("typed compile guarantees a bool mask"),
        }
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

/// Reusable batch evaluation state for one [`CompiledKernel`]: one typed
/// bank per register, with constant banks splatted once at construction.
/// One per thread that runs the kernel at once, checked out of the
/// kernel's pool ([`CompiledKernel::checkout`]).
#[derive(Debug, Clone)]
pub struct BatchMachine {
    banks: Vec<Bank>,
}

impl BatchMachine {
    /// Allocate banks for `k` and pre-splat its constants.
    pub fn new(k: &CompiledKernel) -> Self {
        let banks = k.reg_ty.iter().map(|&t| Bank::for_ty(t)).collect();
        let mut m = BatchMachine { banks };
        m.splat_consts(k);
        m
    }

    fn splat_consts(&mut self, k: &CompiledKernel) {
        for (r, instr) in k.instrs.iter().enumerate() {
            if let Instr::Const { value } = *instr {
                match (&mut self.banks[r], value) {
                    (Bank::I64(d), Value::I64(c)) => d.fill(c),
                    (Bank::F64(d), Value::F64(c)) => d.fill(c),
                    (Bank::Bool(d), Value::Bool(c)) => d.fill(if c { u64::MAX } else { 0 }),
                    _ => unreachable!("const bank type mismatch"),
                }
            }
        }
    }

    /// Fill every bank with sentinel garbage, then re-splat `k`'s constant
    /// banks. Leaves the machine in the worst legal state reuse can hand a
    /// batch: nothing zeroed, every stale lane poisoned.
    pub fn poison(&mut self, k: &CompiledKernel) {
        for bank in &mut self.banks {
            match bank {
                Bank::I64(d) => d.fill(POISON_I64),
                Bank::F64(d) => d.fill(f64::from_bits(POISON_F64_BITS)),
                Bank::Bool(d) => d.fill(POISON_MASK),
            }
        }
        self.splat_consts(k);
    }

    /// Evaluate `k` over rows `base .. base + n` of `cols` (`n` at most
    /// [`BATCH_ROWS`]), leaving each register's lanes in its bank.
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
        self.run_generic(k, cols, base, n);
        for (first, f) in k.fused.iter() {
            self.run_fused(f, *first, k, cols, base, n);
        }
    }

    /// The instructions the generic path runs, each a typed sweep over the
    /// batch's lanes.
    fn run_generic(&mut self, k: &CompiledKernel, cols: &[ColRef<'_>], base: usize, n: usize) {
        // An i64 or f64 column a body loads is read where it is, its
        // register's bank left unused — unless the register is an output,
        // which callers read from its bank.
        let in_place = |r: usize| {
            match k.instrs[r] {
                Instr::LoadInput { slot } => match cols[slot as usize] {
                    ColRef::I64(s) => Some(BankView::I64(&s[base..base + n])),
                    ColRef::F64(s) => Some(BankView::F64(&s[base..base + n])),
                    ColRef::KeyU64(_) | ColRef::RowIds(_) => None,
                },
                _ => None,
            }
            .filter(|_| !k.outputs.contains(&(r as Reg)))
        };
        for (i, instr) in k.instrs.iter().enumerate().filter(|&(i, _)| k.generic[i]) {
            let (prev, rest) = self.banks.split_at_mut(i);
            let dst = &mut rest[0];
            let read = |r: Reg| in_place(r as usize).unwrap_or_else(|| prev[r as usize].view());
            match *instr {
                Instr::Const { .. } => {} // splatted at construction
                Instr::LoadInput { .. } if in_place(i).is_some() => {}
                Instr::LoadInput { slot } => load(dst, cols[slot as usize], base, n),
                Instr::Copy { src } => copy_bank(dst, read(src), n),
                Instr::Bin { op, lhs, rhs } => bin(dst, op, read(lhs), read(rhs), n),
                Instr::Un { op, arg } => un(dst, op, read(arg), n),
                Instr::Cmp { op, lhs, rhs } => cmp(dst, op, read(lhs), read(rhs), n),
                Instr::Select { cond, then_r, else_r } => {
                    select(dst, read(cond).as_mask(), read(then_r), read(else_r), n)
                }
                Instr::Cast { ty: _, arg } => cast(dst, read(arg), n),
            }
        }
    }

    /// Execute a recognized [`Fused`] primitive: a single pass straight
    /// from the input columns into the output banks, skipping per-instr
    /// bank sweeps entirely. Nothing in here allocates — this is the
    /// steady-state inner loop the allocation gate measures.
    fn run_fused(
        &mut self,
        f: &Fused,
        first: usize,
        k: &CompiledKernel,
        cols: &[ColRef<'_>],
        base: usize,
        n: usize,
    ) {
        // A row-id slot is loaded as the generic path loads it, into its
        // `LoadInput` register's bank — unused by a fused primitive
        // otherwise — and read from there like a stored column.
        for (r, instr) in k.instrs.iter().enumerate() {
            if let Instr::LoadInput { slot } = *instr {
                if let col @ ColRef::RowIds(_) = cols[slot as usize] {
                    load(&mut self.banks[r], col, base, n);
                }
            }
        }
        // SSA: every `LoadInput` register is below the output it feeds.
        let (loaded, out) = self.banks.split_at_mut(k.outputs[first] as usize);
        let batch = Batch { cols, rows: base..base + n, instrs: &k.instrs, banks: loaded };
        match f {
            Fused::PackI64 { a, mul, b } => {
                let d = match &mut out[0] {
                    Bank::I64(d) => &mut d[..n],
                    _ => unreachable!("pack output is i64"),
                };
                match (batch.lanes(*a), batch.lanes(*b)) {
                    (ColRef::I64(a), ColRef::I64(b)) => pack(d, a, *mul, b),
                    (ColRef::I64(a), ColRef::KeyU64(b)) => pack(d, a, *mul, b),
                    (ColRef::KeyU64(a), ColRef::I64(b)) => pack(d, a, *mul, b),
                    (ColRef::KeyU64(a), ColRef::KeyU64(b)) => pack(d, a, *mul, b),
                    _ => unreachable!("binding checked by CompiledKernel::check_binding"),
                }
            }
            Fused::MoneyPair { price, disc, tax, c_sub, c_add } => {
                let (o0, o1) = (k.outputs[first] as usize, k.outputs[first + 1] as usize);
                // SSA: out1's defining Mul reads registers above out0's
                // whole subtree, so o0 < o1 always holds here.
                let (lo, hi) = out.split_at_mut(o1 - o0);
                let (d0, d1) = match (&mut lo[0], &mut hi[0]) {
                    (Bank::F64(d0), Bank::F64(d1)) => (&mut d0[..n], &mut d1[..n]),
                    _ => unreachable!("money outputs are f64"),
                };
                let p = f64_lanes(cols[*price as usize]);
                let dc = f64_lanes(cols[*disc as usize]);
                let t = f64_lanes(cols[*tax as usize]);
                for j in 0..n {
                    let dp = p[base + j] * (c_sub - dc[base + j]);
                    d0[j] = dp;
                    d1[j] = dp * (c_add + t[base + j]);
                }
            }
            Fused::CmpChain { terms } => {
                let d = match &mut out[0] {
                    Bank::Bool(d) => &mut d[..n.div_ceil(64)],
                    _ => unreachable!("predicate output is bool"),
                };
                #[cfg(target_arch = "x86_64")]
                if std::is_x86_feature_detected!("avx2") {
                    // SAFETY: `cmp_chain_avx2` is compiled for AVX2 alone,
                    // and the CPU running this line has just reported it.
                    unsafe { cmp_chain_avx2(d, terms, &batch) };
                    return;
                }
                cmp_chain(d, terms, &batch);
            }
        }
    }

    /// View output slot `idx` after a run.
    pub fn output(&self, k: &CompiledKernel, idx: usize) -> BankView<'_> {
        match &self.banks[k.outputs[idx] as usize] {
            Bank::I64(v) => BankView::I64(v),
            Bank::F64(v) => BankView::F64(v),
            Bank::Bool(v) => BankView::Bool(v),
        }
    }

    /// The selection bitmask of a predicate's output slot 0; panics if the
    /// output is not boolean (check [`CompiledKernel::output_ty`] first).
    pub fn selection_mask(&self, k: &CompiledKernel) -> &[u64] {
        self.banks[k.outputs[0] as usize].as_mask()
    }
}

fn load(dst: &mut Bank, col: ColRef<'_>, base: usize, n: usize) {
    match (dst, col) {
        (Bank::I64(d), ColRef::I64(s)) => d[..n].copy_from_slice(&s[base..base + n]),
        (Bank::F64(d), ColRef::F64(s)) => d[..n].copy_from_slice(&s[base..base + n]),
        (Bank::I64(d), ColRef::KeyU64(s)) => {
            for (dj, &sj) in d[..n].iter_mut().zip(&s[base..base + n]) {
                *dj = sj as i64;
            }
        }
        (Bank::I64(d), ColRef::RowIds(len)) => {
            debug_assert!(base + n <= len);
            fill_row_ids(&mut d[..n], base);
        }
        _ => unreachable!("binding checked by CompiledKernel::check_binding"),
    }
}

/// `d[j] = base + j`: the row numbers a [`ColRef::RowIds`] slot loads.
fn fill_row_ids(d: &mut [i64], base: usize) {
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = (base + j) as i64;
    }
}

/// The rows one fused run covers: the bound columns, the base rows of the
/// batch, and the kernel's instructions with the banks below its output —
/// where a [`ColRef::RowIds`] slot's `LoadInput` register holds the rows'
/// numbers.
struct Batch<'b> {
    cols: &'b [ColRef<'b>],
    rows: Range<usize>,
    instrs: &'b [Instr],
    banks: &'b [Bank],
}

impl<'b> Batch<'b> {
    /// Slot `slot` over the batch's rows, lane `j` = base row
    /// `rows.start + j`: a window of a stored column, or the row numbers
    /// loaded into the slot's register.
    #[inline(always)]
    fn lanes(&self, slot: u32) -> ColRef<'b> {
        let rows = self.rows.clone();
        match self.cols[slot as usize] {
            ColRef::I64(s) => ColRef::I64(&s[rows]),
            ColRef::F64(s) => ColRef::F64(&s[rows]),
            ColRef::KeyU64(s) => ColRef::KeyU64(&s[rows]),
            ColRef::RowIds(_) => {
                let load = Instr::LoadInput { slot };
                let r = self.instrs.iter().position(|i| *i == load).expect("a slot read is loaded");
                ColRef::I64(&self.banks[r].as_i64()[..rows.len()])
            }
        }
    }
}

fn f64_lanes<'a>(col: ColRef<'a>) -> &'a [f64] {
    match col {
        ColRef::F64(s) => s,
        _ => unreachable!("binding checked by CompiledKernel::check_binding"),
    }
}

/// A stored column element as the IR reads it: keys are `u64` in storage
/// and `i64` in the IR (`v as i64`, as [`ColRef::KeyU64`] says). The fused
/// primitives are generic over it, so each (operator, column kind) pair is
/// its own loop with no per-lane dispatch.
trait Lane: Copy {
    type V: Copy + PartialOrd;
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

/// `d[j] = a[j] * mul + b[j]`, wrapping.
fn pack<A: Lane<V = i64>, B: Lane<V = i64>>(d: &mut [i64], a: &[A], mul: i64, b: &[B]) {
    for (dj, (&x, &y)) in d.iter_mut().zip(a.iter().zip(b)) {
        *dj = x.get().wrapping_mul(mul).wrapping_add(y.get());
    }
}

/// The right operand of one comparison, over the rows its left one covers.
#[derive(Clone, Copy)]
enum Operand<'a, B> {
    Splat(B),
    Col(&'a [B]),
}

/// The `CmpChain` mask words `d` over the batch: every lane set, then each
/// term ANDed in. Every term clears the lanes past the last row of the last
/// word, like store_lanes; a chain has at least one.
///
/// This is the build at the target's baseline width (SSE2 on x86-64: two
/// `f64` or `i64` lanes per compare). Everything down to [`word`] is
/// `#[inline(always)]`, so [`cmp_chain_avx2`] compiles the same source again.
#[inline(always)]
fn cmp_chain(d: &mut [u64], terms: &[CmpTerm], batch: &Batch<'_>) {
    d.fill(u64::MAX);
    for term in terms {
        and_term(d, term, batch);
    }
}

/// [`cmp_chain`] compiled a second time for AVX2, four lanes per compare.
/// It is the same Rust source with no intrinsics, so every comparison keeps
/// Rust's IEEE and integer semantics and the mask words are identical bit for
/// bit. Running it on a CPU without AVX2 is undefined behaviour, so its one
/// call, in `run_fused`, is `unsafe` and guarded by the run-time check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn cmp_chain_avx2(d: &mut [u64], terms: &[CmpTerm], batch: &Batch<'_>) {
    cmp_chain(d, terms, batch)
}

/// AND one term into the mask words `d`, bit `j` for the batch's lane `j`.
/// The column kinds are matched here, once per batch.
#[inline(always)]
fn and_term(d: &mut [u64], term: &CmpTerm, batch: &Batch<'_>) {
    use ColRef::{KeyU64, F64, I64};
    let op = term.op;
    match (batch.lanes(term.slot), term.rhs) {
        (I64(a), CmpRhs::Const(Value::I64(c))) => and_cmp(d, a, Operand::Splat(c), op),
        (KeyU64(a), CmpRhs::Const(Value::I64(c))) => and_cmp(d, a, Operand::Splat(c), op),
        (F64(a), CmpRhs::Const(Value::F64(c))) => and_cmp(d, a, Operand::Splat(c), op),
        (a, CmpRhs::Slot(s)) => match (a, batch.lanes(s)) {
            (I64(a), I64(b)) => and_cmp(d, a, Operand::Col(b), op),
            (I64(a), KeyU64(b)) => and_cmp(d, a, Operand::Col(b), op),
            (KeyU64(a), I64(b)) => and_cmp(d, a, Operand::Col(b), op),
            (KeyU64(a), KeyU64(b)) => and_cmp(d, a, Operand::Col(b), op),
            (F64(a), F64(b)) => and_cmp(d, a, Operand::Col(b), op),
            _ => unreachable!("the verifier types both sides of a comparison alike"),
        },
        _ => unreachable!("binding checked by CompiledKernel::check_binding"),
    }
}

/// [`and_term`] for one column kind: the operator is matched here, once.
#[inline(always)]
fn and_cmp<A: Lane, B: Lane<V = A::V>>(d: &mut [u64], a: &[A], b: Operand<'_, B>, op: CmpOp) {
    match op {
        CmpOp::Lt => and_lanes(d, a, b, |x, y| x < y),
        CmpOp::Le => and_lanes(d, a, b, |x, y| x <= y),
        CmpOp::Gt => and_lanes(d, a, b, |x, y| x > y),
        CmpOp::Ge => and_lanes(d, a, b, |x, y| x >= y),
        CmpOp::Eq => and_lanes(d, a, b, |x, y| x == y),
        CmpOp::Ne => and_lanes(d, a, b, |x, y| x != y),
    }
}

/// `d[w] &= word w of f(a[j], b[j])`: whole words are a fixed 64-lane loop,
/// and the last word's lanes at or past `a.len()` come out cleared. The
/// compiler vectorizes the 64-lane loop at the width of the function it is
/// inlined into: two lanes per compare in [`cmp_chain`] at the x86-64
/// baseline (SSE2), four in [`cmp_chain_avx2`].
#[inline(always)]
fn and_lanes<A: Lane, B: Lane<V = A::V>>(
    d: &mut [u64],
    a: &[A],
    b: Operand<'_, B>,
    f: impl Fn(A::V, A::V) -> bool,
) {
    let (whole, tail) = a.as_chunks::<64>();
    let (d_whole, d_tail) = d.split_at_mut(whole.len());
    match b {
        Operand::Splat(c) => {
            let c = c.get();
            for (dw, xs) in d_whole.iter_mut().zip(whole) {
                *dw &= word(xs.iter().map(|&x| f(x.get(), c)));
            }
            if !tail.is_empty() {
                d_tail[0] &= word(tail.iter().map(|&x| f(x.get(), c)));
            }
        }
        Operand::Col(b) => {
            let (b_whole, b_tail) = b.as_chunks::<64>();
            for ((dw, xs), ys) in d_whole.iter_mut().zip(whole).zip(b_whole) {
                *dw &= word(xs.iter().zip(ys).map(|(&x, &y)| f(x.get(), y.get())));
            }
            if !tail.is_empty() {
                d_tail[0] &= word(tail.iter().zip(b_tail).map(|(&x, &y)| f(x.get(), y.get())));
            }
        }
    }
}

/// Bit `j` set iff the `j`-th lane is true.
#[inline(always)]
fn word(lanes: impl Iterator<Item = bool>) -> u64 {
    lanes.enumerate().fold(0, |m, (j, t)| m | ((t as u64) << j))
}

fn copy_bank(dst: &mut Bank, src: BankView<'_>, n: usize) {
    match (dst, src) {
        (Bank::I64(d), BankView::I64(s)) => d[..n].copy_from_slice(&s[..n]),
        (Bank::F64(d), BankView::F64(s)) => d[..n].copy_from_slice(&s[..n]),
        (Bank::Bool(d), BankView::Bool(s)) => d.copy_from_slice(s),
        _ => unreachable!("copy banks share a type"),
    }
}

fn bin(dst: &mut Bank, op: BinOp, lhs: BankView<'_>, rhs: BankView<'_>, n: usize) {
    match dst {
        Bank::I64(d) => {
            let (a, b) = (lhs.as_i64(), rhs.as_i64());
            let d = &mut d[..n];
            match op {
                BinOp::Add => zip3(d, a, b, |x, y| x.wrapping_add(y)),
                BinOp::Sub => zip3(d, a, b, |x, y| x.wrapping_sub(y)),
                BinOp::Mul => zip3(d, a, b, |x, y| x.wrapping_mul(y)),
                BinOp::Div => zip3(d, a, b, |x, y| if y == 0 { 0 } else { x.wrapping_div(y) }),
                BinOp::Rem => zip3(d, a, b, |x, y| if y == 0 { 0 } else { x.wrapping_rem(y) }),
                BinOp::Min => zip3(d, a, b, i64::min),
                BinOp::Max => zip3(d, a, b, i64::max),
                BinOp::And => zip3(d, a, b, |x, y| x & y),
                BinOp::Or => zip3(d, a, b, |x, y| x | y),
                BinOp::Xor => zip3(d, a, b, |x, y| x ^ y),
                BinOp::Shl => zip3(d, a, b, |x, y| x.wrapping_shl(y as u32 & 63)),
                BinOp::Shr => zip3(d, a, b, |x, y| x.wrapping_shr(y as u32 & 63)),
            }
        }
        Bank::F64(d) => {
            let (a, b) = (lhs.as_f64(), rhs.as_f64());
            let d = &mut d[..n];
            match op {
                BinOp::Add => zip3(d, a, b, |x, y| x + y),
                BinOp::Sub => zip3(d, a, b, |x, y| x - y),
                BinOp::Mul => zip3(d, a, b, |x, y| x * y),
                BinOp::Div => zip3(d, a, b, |x, y| x / y),
                BinOp::Rem => zip3(d, a, b, |x, y| x % y),
                BinOp::Min => zip3(d, a, b, f64::min),
                BinOp::Max => zip3(d, a, b, f64::max),
                _ => unreachable!("verifier rejects bit ops on f64"),
            }
        }
        Bank::Bool(d) => {
            let (a, b) = (lhs.as_mask(), rhs.as_mask());
            match op {
                BinOp::And => zip3(d, a, b, |x, y| x & y),
                BinOp::Or => zip3(d, a, b, |x, y| x | y),
                BinOp::Xor => zip3(d, a, b, |x, y| x ^ y),
                _ => unreachable!("verifier rejects arithmetic on bool"),
            }
        }
    }
}

fn un(dst: &mut Bank, op: UnOp, arg: BankView<'_>, n: usize) {
    match dst {
        Bank::I64(d) => {
            let a = arg.as_i64();
            let d = &mut d[..n];
            match op {
                UnOp::Not => zip2(d, a, |x| !x),
                UnOp::Neg => zip2(d, a, i64::wrapping_neg),
            }
        }
        Bank::F64(d) => {
            let a = arg.as_f64();
            match op {
                UnOp::Neg => zip2(&mut d[..n], a, |x| -x),
                UnOp::Not => unreachable!("verifier rejects Not on f64"),
            }
        }
        Bank::Bool(d) => match op {
            UnOp::Not => zip2(d, arg.as_mask(), |x| !x),
            UnOp::Neg => unreachable!("verifier rejects Neg on bool"),
        },
    }
}

fn cmp(dst: &mut Bank, op: CmpOp, lhs: BankView<'_>, rhs: BankView<'_>, n: usize) {
    let d = match dst {
        Bank::Bool(d) => d,
        _ => unreachable!("cmp result is bool"),
    };
    // Whole 64-lane words, as `cmp_chain` builds them: the words past the
    // batch's last are left as they are (unspecified).
    let words = &mut d[..n.div_ceil(64)];
    words.fill(u64::MAX);
    match lhs {
        BankView::I64(a) => and_cmp(words, &a[..n], Operand::Col(&rhs.as_i64()[..n]), op),
        BankView::F64(a) => and_cmp(words, &a[..n], Operand::Col(&rhs.as_f64()[..n]), op),
        BankView::Bool(_) => {
            let (a, b) = (lhs.as_mask(), rhs.as_mask());
            match op {
                CmpOp::Eq => zip3(d, a, b, |x, y| !(x ^ y)),
                CmpOp::Ne => zip3(d, a, b, |x, y| x ^ y),
                _ => unreachable!("verifier rejects ordered cmp on bool"),
            }
        }
    }
}

fn select(dst: &mut Bank, cond: &[u64], then_b: BankView<'_>, else_b: BankView<'_>, n: usize) {
    match dst {
        Bank::I64(d) => {
            let (t, e) = (then_b.as_i64(), else_b.as_i64());
            for (j, dj) in d[..n].iter_mut().enumerate() {
                *dj = if mask_lane(cond, j) { t[j] } else { e[j] };
            }
        }
        Bank::F64(d) => {
            let (t, e) = (then_b.as_f64(), else_b.as_f64());
            for (j, dj) in d[..n].iter_mut().enumerate() {
                *dj = if mask_lane(cond, j) { t[j] } else { e[j] };
            }
        }
        Bank::Bool(d) => {
            let (t, e) = (then_b.as_mask(), else_b.as_mask());
            for (w, dw) in d.iter_mut().enumerate() {
                *dw = (cond[w] & t[w]) | (!cond[w] & e[w]);
            }
        }
    }
}

fn cast(dst: &mut Bank, arg: BankView<'_>, n: usize) {
    match (dst, arg) {
        (Bank::I64(d), BankView::I64(s)) => d[..n].copy_from_slice(&s[..n]),
        (Bank::F64(d), BankView::F64(s)) => d[..n].copy_from_slice(&s[..n]),
        (Bank::Bool(d), BankView::Bool(s)) => d.copy_from_slice(s),
        (Bank::I64(d), BankView::F64(s)) => zip2(&mut d[..n], s, |x| x as i64),
        (Bank::F64(d), BankView::I64(s)) => zip2(&mut d[..n], s, |x| x as f64),
        (Bank::I64(d), BankView::Bool(s)) => {
            for (j, dj) in d[..n].iter_mut().enumerate() {
                *dj = mask_lane(s, j) as i64;
            }
        }
        (Bank::F64(d), BankView::Bool(s)) => {
            for (j, dj) in d[..n].iter_mut().enumerate() {
                *dj = mask_lane(s, j) as u8 as f64;
            }
        }
        (Bank::Bool(d), BankView::I64(s)) => store_lanes(d, n, |j| s[j] != 0),
        (Bank::Bool(_), BankView::F64(_)) => unreachable!("verifier rejects f64 -> bool cast"),
    }
}

/// `d[j] = f(a[j], b[j])` over the common prefix — the auto-vectorizable
/// inner-loop shape every typed operation lowers to.
#[inline]
fn zip3<T: Copy, U: Copy>(d: &mut [T], a: &[U], b: &[U], f: impl Fn(U, U) -> T) {
    for (dj, (&aj, &bj)) in d.iter_mut().zip(a.iter().zip(b)) {
        *dj = f(aj, bj);
    }
}

#[inline]
fn zip2<T: Copy, U: Copy>(d: &mut [T], a: &[U], f: impl Fn(U) -> T) {
    for (dj, &aj) in d.iter_mut().zip(a) {
        *dj = f(aj);
    }
}

/// Pack per-lane booleans into whole bitmask words; lanes `>= n` of the last
/// written word are cleared, later words untouched (unspecified).
#[inline]
fn store_lanes(d: &mut [u64], n: usize, f: impl Fn(usize) -> bool) {
    for (w, dw) in d.iter_mut().enumerate().take(n.div_ceil(64)) {
        let lo = w * 64;
        let hi = (lo + 64).min(n);
        let mut m = 0u64;
        for j in lo..hi {
            m |= (f(j) as u64) << (j - lo);
        }
        *dw = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BodyBuilder, Expr};
    use crate::interp;

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

    /// A row-id slot loads each row's number, from any base row, on the
    /// generic path.
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

    /// Run `body` fused and generically over base rows `range` of the same
    /// columns and assert both agree bit-for-bit with the scalar
    /// interpreter on every lane; `rows` are the interpreter's inputs for
    /// every base row. Returns the kernel and the fused machine after its run.
    fn assert_fused_matches_interp(
        body: &KernelBody,
        slot_tys: &[Option<Ty>],
        cols: &[ColRef<'_>],
        rows: &[Vec<Value>],
        range: Range<usize>,
        expect_fused: &str,
    ) -> (CompiledKernel, BatchMachine) {
        let k = CompiledKernel::compile(body, slot_tys).unwrap();
        assert_eq!(k.fused_primitive(), Some(expect_fused));
        k.check_binding(cols).unwrap();
        let mut fused = BatchMachine::new(&k);
        fused.poison(&k);
        fused.run(&k, cols, range.start, range.len());
        let mut generic = BatchMachine::new(&k);
        let mut plain = k.clone();
        plain.fused = Arc::from([]);
        plain.generic = vec![true; k.instrs.len()].into();
        generic.run(&plain, cols, range.start, range.len());
        for (j, row) in rows[range].iter().enumerate() {
            let expect = interp::eval(body, row).unwrap();
            for (slot, want) in expect.iter().enumerate() {
                for (label, m) in [("fused", &fused), ("generic", &generic)] {
                    let got = match m.output(&k, slot) {
                        BankView::I64(v) => Value::I64(v[j]),
                        BankView::F64(v) => Value::F64(v[j]),
                        BankView::Bool(mask) => Value::Bool(mask_lane(mask, j)),
                    };
                    match (got, *want) {
                        (Value::F64(a), Value::F64(b)) => {
                            assert_eq!(a.to_bits(), b.to_bits(), "{label} lane {j} out {slot}")
                        }
                        (a, b) => assert_eq!(a, b, "{label} lane {j} out {slot}: {row:?}"),
                    }
                }
            }
        }
        (k, fused)
    }

    #[test]
    fn fused_pack_matches_interp() {
        let mut b = BodyBuilder::new(3);
        b.emit_output(Expr::input(1).mul(Expr::lit(65536i64)).add(Expr::input(2)));
        let body = b.build();
        let flag: Vec<i64> = (0..200).map(|i| i % 3).collect();
        let status: Vec<i64> = (0..200).map(|i| (i * 7) % 5 - 2).collect();
        let keys: Vec<u64> = (0..200).collect();
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|j| vec![Value::I64(keys[j] as i64), Value::I64(flag[j]), Value::I64(status[j])])
            .collect();
        assert_fused_matches_interp(
            &body,
            &[Some(Ty::I64), Some(Ty::I64), Some(Ty::I64)],
            &[ColRef::KeyU64(&keys), ColRef::I64(&flag), ColRef::I64(&status)],
            &rows,
            0..200,
            "pack_i64",
        );
        // The same pack reading a row-id key in both operands' places.
        for (a, c) in [(0, 2), (1, 0)] {
            let mut b = BodyBuilder::new(3);
            b.emit_output(Expr::input(a).mul(Expr::lit(65536i64)).add(Expr::input(c)));
            assert_fused_matches_interp(
                &b.build(),
                &[Some(Ty::I64), Some(Ty::I64), Some(Ty::I64)],
                &[ColRef::RowIds(200), ColRef::I64(&flag), ColRef::I64(&status)],
                &rows,
                37..200,
                "pack_i64",
            );
        }
    }

    /// A body spliced from several members' bodies runs each output that
    /// is a primitive on its own — and read by no instruction — as that
    /// primitive, and the rest on the generic path: here a compare chain
    /// and a pack beside a generic sum, the pack's output read again by a
    /// later body, so it stays generic too. Every lane is the
    /// interpreter's, with poisoned banks.
    #[test]
    fn a_spliced_body_runs_each_primitive_output_as_its_primitive() {
        use crate::fuse::{fuse, FusedOutput, SlotSource};
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
        // The pack's output read by a later body, as a spliced ARITH+ that
        // feeds another would be.
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
        for (body, primitives) in
            [(&spliced, vec!["cmp_chain", "pack_i64"]), (&fed, vec!["cmp_chain"])]
        {
            let k = CompiledKernel::compile(body, &tys).unwrap();
            let names: Vec<&str> = k
                .fused
                .iter()
                .map(|(_, f)| match f {
                    Fused::CmpChain { .. } => "cmp_chain",
                    Fused::PackI64 { .. } => "pack_i64",
                    Fused::MoneyPair { .. } => "money_pair",
                })
                .collect();
            assert_eq!(names, primitives);
            let mut bm = BatchMachine::new(&k);
            bm.poison(&k);
            bm.run(&k, &cols, 41, 259);
            for j in 0..259 {
                let want = interp::eval(body, &rows[41 + j]).unwrap();
                let got = (0..3).map(|o| match bm.output(&k, o) {
                    BankView::I64(v) => Value::I64(v[j]),
                    BankView::F64(v) => Value::F64(v[j]),
                    BankView::Bool(mask) => Value::Bool(mask_lane(mask, j)),
                });
                assert_eq!(got.collect::<Vec<_>>(), want, "row {}", 41 + j);
            }
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
        assert_fused_matches_interp(
            &body,
            &[Some(Ty::I64), Some(Ty::F64), Some(Ty::F64), Some(Ty::F64)],
            &[ColRef::KeyU64(&keys), ColRef::F64(&price), ColRef::F64(&disc), ColRef::F64(&tax)],
            &rows,
            0..200,
            "money_pair",
        );
    }

    /// Every comparison operator on every column kind — `i64`, keys read as
    /// `i64` (`>= 2^63` too), `f64` — against constants on either side and
    /// against columns, over NaN, ±0.0, ±∞, `i64::MIN` and `i64::MAX`, at
    /// `n` of 1, 63, 64, 65 and 1024 rows from a base row off the word grid;
    /// plus Q6's three-term range and a chain that mixes constant and column
    /// terms. Slots: 0 and 5 keys, 1 and 2 `i64`, 3 and 4 `f64`, 6 row ids.
    ///
    /// Every case runs through both builds of the chain: `BatchMachine::run`
    /// takes the AVX2 build on a CPU that has it, and `cmp_chain` is called
    /// directly for the baseline build. Their mask words must be identical.
    #[test]
    fn fused_cmp_chain_matches_interp() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!("no AVX2 on this CPU: the AVX2 build of cmp_chain is not run");
        }
        const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
        const INTS: [i64; 9] = [i64::MIN, i64::MIN + 1, -7, -1, 0, 1, 7, i64::MAX - 1, i64::MAX];
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
        const BASE: usize = 3;
        let len = BASE + BATCH_ROWS + 5;
        // Each column draws from its pool in its own order, so every pair of
        // values meets somewhere.
        let pick = |i: usize, salt: u64, pool: usize| {
            let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 32) as usize % pool
        };
        let keys_a: Vec<u64> = (0..len).map(|i| KEYS[pick(i, 1, KEYS.len())]).collect();
        let ints_a: Vec<i64> = (0..len).map(|i| INTS[pick(i, 2, INTS.len())]).collect();
        let ints_b: Vec<i64> = (0..len).map(|i| INTS[pick(i, 3, INTS.len())]).collect();
        let floats_a: Vec<f64> = (0..len).map(|i| FLOATS[pick(i, 4, FLOATS.len())]).collect();
        let floats_b: Vec<f64> = (0..len).map(|i| FLOATS[pick(i, 5, FLOATS.len())]).collect();
        let keys_b: Vec<u64> = (0..len).map(|i| KEYS[pick(i, 6, KEYS.len())]).collect();
        let cols = [
            ColRef::KeyU64(&keys_a),
            ColRef::I64(&ints_a),
            ColRef::I64(&ints_b),
            ColRef::F64(&floats_a),
            ColRef::F64(&floats_b),
            ColRef::KeyU64(&keys_b),
            ColRef::RowIds(len),
        ];
        let slot_tys = cols.map(|c| Some(c.ty()));
        let rows: Vec<Vec<Value>> = (0..len)
            .map(|i| {
                vec![
                    Value::I64(keys_a[i] as i64),
                    Value::I64(ints_a[i]),
                    Value::I64(ints_b[i]),
                    Value::F64(floats_a[i]),
                    Value::F64(floats_b[i]),
                    Value::I64(keys_b[i] as i64),
                    Value::I64(i as i64),
                ]
            })
            .collect();

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

        for pred in preds {
            let mut b = BodyBuilder::new(cols.len() as u32);
            b.emit_output(pred);
            let body = b.build();
            for n in [1, 63, 64, 65, BATCH_ROWS] {
                let (k, fused) = assert_fused_matches_interp(
                    &body,
                    &slot_tys,
                    &cols,
                    &rows,
                    BASE..BASE + n,
                    "cmp_chain",
                );
                let [(0, Fused::CmpChain { terms })] = &k.fused[..] else { unreachable!() };
                let mut baseline = vec![POISON_MASK; n.div_ceil(64)];
                // The fused run left the row-id slot's register loaded.
                let rows = BASE..BASE + n;
                let batch = Batch { cols: &cols, rows, instrs: &k.instrs, banks: &fused.banks };
                cmp_chain(&mut baseline, terms, &batch);
                let run = if avx2 { "AVX2" } else { "baseline" };
                assert_eq!(
                    baseline[..],
                    fused.selection_mask(&k)[..baseline.len()],
                    "baseline vs {run} build, n = {n}, terms {terms:?}"
                );
            }
        }
    }

    #[test]
    fn unrecognized_shapes_stay_generic() {
        // A division chain matches no fused primitive.
        let mut b = BodyBuilder::new(2);
        b.emit_output(Expr::input(1).div(Expr::lit(3i64)));
        let k = CompiledKernel::compile(&b.build(), &[Some(Ty::I64), Some(Ty::I64)]).unwrap();
        assert_eq!(k.fused_primitive(), None);
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
