//! Random well-typed kernel bodies and adversarial input columns for the
//! batch engine's tests: `prop_batch.rs` checks them against the
//! interpreter, and `batch.rs`'s unit tests run them through both builds of
//! the runner. The including module brings the IR names into scope.
//!
//! The generator tracks a concrete type for every register it emits, so
//! every body it produces verifies and fully resolves under
//! `infer_with_slots` — the batch engine never gets to decline.

use super::{fuse, BinOp, CmpOp, ColRef, FusedOutput, Instr, KernelBody, Reg, SlotSource};
use super::{Ty, UnOp, Value};
use kfusion_prng::Rng;

/// Adversarial i64 draws, biased toward the wrapping/division edge cases.
pub fn gen_i64(rng: &mut Rng) -> i64 {
    const POOL: &[i64] = &[0, 1, -1, 2, -2, 63, 64, 65, -64, i64::MIN, i64::MAX, i64::MIN + 1];
    if rng.gen_bool(0.4) {
        POOL[rng.gen_range(0..POOL.len())]
    } else {
        rng.next_u64() as i64
    }
}

/// Adversarial f64 draws, biased toward NaN / signed zero / infinities.
pub fn gen_f64(rng: &mut Rng) -> f64 {
    const POOL: &[f64] = &[0.0, -0.0, 1.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    if rng.gen_bool(0.4) {
        POOL[rng.gen_range(0..POOL.len())]
    } else {
        (rng.next_u64() as i64 as f64) * 1e-3
    }
}

pub fn pick_of_ty(rng: &mut Rng, reg_ty: &[Ty], want: Ty) -> Option<Reg> {
    let candidates: Vec<Reg> =
        (0..reg_ty.len()).filter(|&r| reg_ty[r] == want).map(|r| r as Reg).collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

pub const TYS: [Ty; 3] = [Ty::I64, Ty::F64, Ty::Bool];

/// Generate a random well-typed body over `slot_tys` input columns.
///
/// Starts by loading every slot (the relational layer binds all loaded
/// slots), then emits `extra` random instructions, each drawn from the
/// type-legal subset of the ISA, and finishes with 1–4 random outputs.
pub fn gen_body(rng: &mut Rng, slot_tys: &[Ty], extra: usize) -> KernelBody {
    gen_typed_body(rng, slot_tys, extra).0
}

/// [`gen_body`], with every register's type.
pub fn gen_typed_body(rng: &mut Rng, slot_tys: &[Ty], extra: usize) -> (KernelBody, Vec<Ty>) {
    let mut instrs = Vec::new();
    let mut reg_ty: Vec<Ty> = Vec::new();
    for (slot, &ty) in slot_tys.iter().enumerate() {
        instrs.push(Instr::LoadInput { slot: slot as u32 });
        reg_ty.push(ty);
    }
    for _ in 0..extra {
        let (instr, ty) = gen_instr(rng, &reg_ty);
        instrs.push(instr);
        reg_ty.push(ty);
    }
    let n_out = rng.gen_range(1..5usize);
    let outputs = (0..n_out).map(|_| rng.gen_range(0..reg_ty.len()) as Reg).collect::<Vec<Reg>>();
    (KernelBody { instrs, outputs, n_inputs: slot_tys.len() as u32 }, reg_ty)
}

pub fn gen_instr(rng: &mut Rng, reg_ty: &[Ty]) -> (Instr, Ty) {
    loop {
        match rng.gen_range(0..6u32) {
            0 => {
                // Const of a random type, drawn from the adversarial pools.
                let value = match TYS[rng.gen_range(0..3usize)] {
                    Ty::I64 => Value::I64(gen_i64(rng)),
                    Ty::F64 => Value::F64(gen_f64(rng)),
                    Ty::Bool => Value::Bool(rng.gen_bool(0.5)),
                };
                return (Instr::Const { value }, value.ty());
            }
            1 => {
                let ty = TYS[rng.gen_range(0..3usize)];
                let ops: &[BinOp] = match ty {
                    Ty::I64 => &[
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::Div,
                        BinOp::Rem,
                        BinOp::Min,
                        BinOp::Max,
                        BinOp::And,
                        BinOp::Or,
                        BinOp::Xor,
                        BinOp::Shl,
                        BinOp::Shr,
                    ],
                    Ty::F64 => &[
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::Div,
                        BinOp::Rem,
                        BinOp::Min,
                        BinOp::Max,
                    ],
                    Ty::Bool => &[BinOp::And, BinOp::Or, BinOp::Xor],
                };
                let op = ops[rng.gen_range(0..ops.len())];
                let (Some(lhs), Some(rhs)) =
                    (pick_of_ty(rng, reg_ty, ty), pick_of_ty(rng, reg_ty, ty))
                else {
                    continue;
                };
                return (Instr::Bin { op, lhs, rhs }, ty);
            }
            2 => {
                let (op, ty) = match rng.gen_range(0..4u32) {
                    0 => (UnOp::Not, Ty::Bool),
                    1 => (UnOp::Not, Ty::I64),
                    2 => (UnOp::Neg, Ty::I64),
                    _ => (UnOp::Neg, Ty::F64),
                };
                let Some(arg) = pick_of_ty(rng, reg_ty, ty) else { continue };
                return (Instr::Un { op, arg }, ty);
            }
            3 => {
                let ty = TYS[rng.gen_range(0..3usize)];
                let ops: &[CmpOp] = if ty == Ty::Bool {
                    &[CmpOp::Eq, CmpOp::Ne]
                } else {
                    &[CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne]
                };
                let op = ops[rng.gen_range(0..ops.len())];
                let (Some(lhs), Some(rhs)) =
                    (pick_of_ty(rng, reg_ty, ty), pick_of_ty(rng, reg_ty, ty))
                else {
                    continue;
                };
                return (Instr::Cmp { op, lhs, rhs }, Ty::Bool);
            }
            4 => {
                let ty = TYS[rng.gen_range(0..3usize)];
                let (Some(cond), Some(then_r), Some(else_r)) = (
                    pick_of_ty(rng, reg_ty, Ty::Bool),
                    pick_of_ty(rng, reg_ty, ty),
                    pick_of_ty(rng, reg_ty, ty),
                ) else {
                    continue;
                };
                return (Instr::Select { cond, then_r, else_r }, ty);
            }
            _ => {
                let ty = TYS[rng.gen_range(0..3usize)];
                // f64 -> bool is the one illegal cast.
                let src = if ty == Ty::Bool { [Ty::I64, Ty::Bool] } else { [Ty::I64, Ty::F64] };
                let want = if ty == Ty::Bool || rng.gen_bool(0.5) {
                    src[rng.gen_range(0..2usize)]
                } else {
                    Ty::Bool
                };
                let Some(arg) = pick_of_ty(rng, reg_ty, want) else { continue };
                return (Instr::Cast { ty, arg }, ty);
            }
        }
    }
}

/// A body spliced by [`fuse`] from 2–5 random members over `slot_tys`, as a
/// fused group's loop compiles one: each member's slot reads the external
/// column or, where an earlier member has an output of its type, that
/// output; every member output is a kernel output.
pub fn gen_spliced(rng: &mut Rng, slot_tys: &[Ty]) -> KernelBody {
    let members = rng.gen_range(2..6usize);
    let (mut bodies, mut wiring, mut outputs) = (Vec::new(), Vec::new(), Vec::new());
    let mut produced: Vec<(usize, usize, Ty)> = Vec::new();
    for m in 0..members {
        let wires = (slot_tys.iter().enumerate())
            .map(|(slot, &ty)| {
                let from: Vec<_> = produced.iter().filter(|p| p.2 == ty).collect();
                if from.is_empty() || rng.gen_bool(0.5) {
                    SlotSource::External(slot as u32)
                } else {
                    let &(body, output, _) = from[rng.gen_range(0..from.len())];
                    SlotSource::Producer { body, output }
                }
            })
            .collect();
        let extra = rng.gen_range(2..10usize);
        let (body, reg_ty) = gen_typed_body(rng, slot_tys, extra);
        for (o, &r) in body.outputs.iter().enumerate() {
            produced.push((m, o, reg_ty[r as usize]));
            outputs.push(FusedOutput { body: m, output: o });
        }
        bodies.push(body);
        wiring.push(wires);
    }
    fuse(&bodies, &wiring, &outputs).expect("a well-typed splice fuses")
}

/// A random body with repeated subtrees: some registers' whole subtrees
/// are emitted again, loads included, and some registers are copied, so
/// value numbering has identical instructions to share.
pub fn gen_repeated(rng: &mut Rng, slot_tys: &[Ty]) -> KernelBody {
    let extra = rng.gen_range(6..20usize);
    let mut body = gen_body(rng, slot_tys, extra);
    fn again(instrs: &mut Vec<Instr>, r: Reg) -> Reg {
        let mut instr = instrs[r as usize];
        instr.map_operands(|x| again(instrs, x));
        instrs.push(instr);
        (instrs.len() - 1) as Reg
    }
    for _ in 0..rng.gen_range(1..4usize) {
        let r = rng.gen_range(0..body.instrs.len()) as Reg;
        let twin = if rng.gen_bool(0.3) {
            body.instrs.push(Instr::Copy { src: r });
            (body.instrs.len() - 1) as Reg
        } else {
            again(&mut body.instrs, r)
        };
        body.outputs.push(twin);
        if rng.gen_bool(0.5) {
            body.outputs.push(r);
        }
    }
    body
}

/// A random compare operand: a column of type `ty` among `slot_tys`, or a
/// constant of that type from the adversarial pools.
fn cmp_operand(rng: &mut Rng, instrs: &mut Vec<Instr>, slot_tys: &[Ty], ty: Ty) -> Reg {
    let slots: Vec<usize> = (0..slot_tys.len()).filter(|&s| slot_tys[s] == ty).collect();
    let instr = if slots.is_empty() || rng.gen_bool(0.35) {
        let value = if ty == Ty::I64 { Value::I64(gen_i64(rng)) } else { Value::F64(gen_f64(rng)) };
        Instr::Const { value }
    } else {
        Instr::LoadInput { slot: slots[rng.gen_range(0..slots.len())] as u32 }
    };
    instrs.push(instr);
    (instrs.len() - 1) as Reg
}

/// A random compare of two operands of one type, either of them a
/// constant (both, sometimes).
fn gen_cmp(rng: &mut Rng, instrs: &mut Vec<Instr>, slot_tys: &[Ty]) -> Reg {
    const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
    let ty = [Ty::I64, Ty::F64][rng.gen_range(0..2usize)];
    let lhs = cmp_operand(rng, instrs, slot_tys, ty);
    let rhs = cmp_operand(rng, instrs, slot_tys, ty);
    instrs.push(Instr::Cmp { op: OPS[rng.gen_range(0..OPS.len())], lhs, rhs });
    (instrs.len() - 1) as Reg
}

/// 1–4 outputs, each a compare with a constant on either side or none.
pub fn gen_const_cmps(rng: &mut Rng, slot_tys: &[Ty]) -> KernelBody {
    let mut instrs = Vec::new();
    let outputs = (0..rng.gen_range(1..5usize)).map(|_| gen_cmp(rng, &mut instrs, slot_tys));
    let outputs = outputs.collect();
    KernelBody { instrs, outputs, n_inputs: slot_tys.len() as u32 }
}

/// A random conjunction tree of 1–8 compares. A compare is sometimes read
/// by two `And`s, and an inner `And` is sometimes an output too, so both
/// the terms a conjunction ANDs in place and those it reads from a bank
/// occur.
pub fn gen_conjunction(rng: &mut Rng, slot_tys: &[Ty]) -> KernelBody {
    let mut instrs = Vec::new();
    let mut open: Vec<Reg> =
        (0..rng.gen_range(1..9usize)).map(|_| gen_cmp(rng, &mut instrs, slot_tys)).collect();
    let mut outputs = Vec::new();
    while open.len() > 1 {
        let lhs = open.swap_remove(rng.gen_range(0..open.len()));
        let rhs =
            if rng.gen_bool(0.15) { lhs } else { open.swap_remove(rng.gen_range(0..open.len())) };
        instrs.push(Instr::Bin { op: BinOp::And, lhs, rhs });
        let and = (instrs.len() - 1) as Reg;
        if rng.gen_bool(0.15) {
            outputs.push(and);
        }
        open.push(and);
        if rng.gen_bool(0.1) {
            open.push(lhs);
        }
    }
    outputs.push(open[0]);
    KernelBody { instrs, outputs, n_inputs: slot_tys.len() as u32 }
}

/// Columns for a batch run and the matching per-row `Value` views for the
/// interpreter. Slot 0 is a `u64` key column (loaded as i64, like the
/// relational calling convention); the rest alternate i64/f64.
pub struct Columns {
    pub keys: Vec<u64>,
    pub i64s: Vec<Vec<i64>>,
    pub f64s: Vec<Vec<f64>>,
    pub slot_tys: Vec<Ty>,
}

pub fn gen_columns(rng: &mut Rng, rows: usize, n_i64: usize, n_f64: usize) -> Columns {
    let keys = (0..rows)
        .map(|_| if rng.gen_bool(0.2) { u64::MAX - rng.gen_range(0..4u64) } else { rng.next_u64() })
        .collect();
    let i64s = (0..n_i64).map(|_| (0..rows).map(|_| gen_i64(rng)).collect()).collect();
    let f64s = (0..n_f64).map(|_| (0..rows).map(|_| gen_f64(rng)).collect()).collect();
    let mut slot_tys = vec![Ty::I64]; // the key loads as i64
    slot_tys.extend(std::iter::repeat_n(Ty::I64, n_i64));
    slot_tys.extend(std::iter::repeat_n(Ty::F64, n_f64));
    Columns { keys, i64s, f64s, slot_tys }
}

impl Columns {
    pub fn ir_cols(&self) -> Vec<ColRef<'_>> {
        let mut cols = vec![ColRef::KeyU64(&self.keys)];
        cols.extend(self.i64s.iter().map(|c| ColRef::I64(c)));
        cols.extend(self.f64s.iter().map(|c| ColRef::F64(c)));
        cols
    }

    /// [`Columns::ir_cols`] with slot 0 bound as row ids, which load as
    /// the row numbers — the keys of these columns must be `0..rows`.
    pub fn row_id_cols(&self) -> Vec<ColRef<'_>> {
        assert!(self.keys.iter().enumerate().all(|(i, &k)| k == i as u64));
        let mut cols = self.ir_cols();
        cols[0] = ColRef::RowIds(self.keys.len());
        cols
    }

    pub fn row(&self, i: usize) -> Vec<Value> {
        let mut row = vec![Value::I64(self.keys[i] as i64)];
        row.extend(self.i64s.iter().map(|c| Value::I64(c[i])));
        row.extend(self.f64s.iter().map(|c| Value::F64(c[i])));
        row
    }
}

/// One of the arms above, chosen by `arm`, over `slot_tys`.
pub fn gen_arm(rng: &mut Rng, arm: usize, slot_tys: &[Ty]) -> KernelBody {
    match arm % 4 {
        0 => gen_spliced(rng, slot_tys),
        1 => gen_repeated(rng, slot_tys),
        2 => gen_const_cmps(rng, slot_tys),
        _ => gen_conjunction(rng, slot_tys),
    }
}
