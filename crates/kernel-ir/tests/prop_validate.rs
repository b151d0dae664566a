//! Property tests for the translation validator: randomly generated
//! well-typed bodies go through every optimization level and through the
//! fuser, and every rewrite must prove out — [`Verdict::Refuted`] fails the
//! test with the rendered concrete counterexample.
//!
//! The generator mirrors `prop_batch`: it tracks a concrete type per
//! register, so every body it emits is well-typed and the validator's
//! type-guarded normalization rules genuinely fire. `Inconclusive` is
//! acceptable (rewrites the normalizer cannot relate fall to differential
//! trials), but the corpus asserts it stays rare — the symbolic prover, not
//! the fallback, must carry the load.

use kfusion_ir::fuse::{fuse, fuse_predicate_chain, FusedOutput, SlotSource};
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::symexec::{prove_body_equiv, prove_conjunction, prove_fuse_equiv, Verdict};
use kfusion_ir::{BinOp, CmpOp, Instr, KernelBody, Reg, Ty, UnOp, Value};
use kfusion_prng::Rng;

fn gen_i64(rng: &mut Rng) -> i64 {
    const POOL: &[i64] = &[0, 1, -1, 2, -2, 63, 64, 65, -64, i64::MIN, i64::MAX, i64::MIN + 1];
    if rng.gen_bool(0.4) {
        POOL[rng.gen_range(0..POOL.len())]
    } else {
        rng.next_u64() as i64
    }
}

fn gen_f64(rng: &mut Rng) -> f64 {
    const POOL: &[f64] = &[0.0, -0.0, 1.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    if rng.gen_bool(0.4) {
        POOL[rng.gen_range(0..POOL.len())]
    } else {
        (rng.next_u64() as i64 as f64) * 1e-3
    }
}

fn pick_of_ty(rng: &mut Rng, reg_ty: &[Ty], want: Ty) -> Option<Reg> {
    let candidates: Vec<Reg> =
        (0..reg_ty.len()).filter(|&r| reg_ty[r] == want).map(|r| r as Reg).collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

const TYS: [Ty; 3] = [Ty::I64, Ty::F64, Ty::Bool];

/// A random well-typed body over `slot_tys`, with the type of every
/// register (and so of every output) tracked and returned.
fn gen_body(rng: &mut Rng, slot_tys: &[Ty], extra: usize) -> (KernelBody, Vec<Ty>) {
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
    let n_out = rng.gen_range(1..4usize);
    let outputs: Vec<Reg> = (0..n_out).map(|_| rng.gen_range(0..reg_ty.len()) as Reg).collect();
    let out_tys = outputs.iter().map(|&r| reg_ty[r as usize]).collect();
    (KernelBody { instrs, outputs, n_inputs: slot_tys.len() as u32 }, out_tys)
}

fn gen_instr(rng: &mut Rng, reg_ty: &[Ty]) -> (Instr, Ty) {
    loop {
        match rng.gen_range(0..6u32) {
            0 => {
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

fn gen_slot_tys(rng: &mut Rng) -> Vec<Ty> {
    // Columns are i64 or f64 (the relational calling convention); bodies
    // still produce Bool registers through compares and casts.
    (0..rng.gen_range(1..4usize))
        .map(|_| if rng.gen_bool(0.5) { Ty::I64 } else { Ty::F64 })
        .collect()
}

/// A failed proof is a compiler bug; render the counterexample so the
/// failing seed reproduces the refutation directly.
fn assert_not_refuted(verdict: &Verdict, what: &str) {
    if let Verdict::Refuted(cx) = verdict {
        panic!("{what}: rewrite changed semantics\n{cx}");
    }
}

/// Every random body must validate through O1/O2/O3: no refutations, and
/// the symbolic prover (not the differential fallback) closes the vast
/// majority of instances.
#[test]
fn random_bodies_validate_through_every_level() {
    let mut verified = 0usize;
    let mut inconclusive = 0usize;
    for seed in 0..80u64 {
        let mut rng = Rng::seed_from_u64(0x0005_eedd_a110_u64 ^ (seed << 8));
        let slot_tys = gen_slot_tys(&mut rng);
        let extra = rng.gen_range(4..40usize);
        let (body, _) = gen_body(&mut rng, &slot_tys, extra);
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            // The sandwich inside `optimize` already proves this rewrite
            // (and panics on refutation); the explicit proof also counts
            // verdicts for the corpus-level assertion below.
            let opt = optimize(&body, level);
            let v = prove_body_equiv(&body, &opt);
            assert_not_refuted(&v, &format!("seed {seed} at {level}"));
            match v {
                Verdict::Verified => verified += 1,
                Verdict::Inconclusive { trials } => {
                    assert!(trials > 0, "seed {seed} at {level}: no clean trials");
                    inconclusive += 1;
                }
                Verdict::Refuted(_) => unreachable!(),
            }
        }
    }
    let total = verified + inconclusive;
    assert!(
        inconclusive * 20 <= total,
        "differential fallback carried {inconclusive}/{total} instances — \
         the normalizer is missing optimizer rules"
    );
}

/// Random predicate chains fuse ([`fuse_predicate_chain`]) and the fused
/// conjunction plus its optimized forms all prove out.
#[test]
fn random_predicate_chains_validate() {
    for seed in 0..40u64 {
        let mut rng = Rng::seed_from_u64(0xc4a1_0000 ^ (seed << 4));
        let slot_tys = gen_slot_tys(&mut rng);
        let n_preds = rng.gen_range(2..5usize);
        let preds: Vec<KernelBody> = (0..n_preds)
            .map(|_| {
                let extra = rng.gen_range(4..20usize);
                let (mut body, _) = gen_body(&mut rng, &slot_tys, extra);
                // A predicate is single-output and bool-typed: compare the
                // last i64 register against a constant if the random outputs
                // did not land on a bool.
                let bool_reg = body
                    .instrs
                    .iter()
                    .enumerate()
                    .rev()
                    .find_map(|(r, i)| matches!(i, Instr::Cmp { .. }).then_some(r as Reg));
                let out = bool_reg.unwrap_or_else(|| {
                    // Compare slot 0's load against a constant of the
                    // slot's own type, so the chain splices well-typed.
                    let value = match slot_tys[0] {
                        Ty::F64 => Value::F64(gen_f64(&mut rng)),
                        _ => Value::I64(gen_i64(&mut rng)),
                    };
                    let k = body.push(Instr::Const { value });
                    body.push(Instr::Cmp { op: CmpOp::Lt, lhs: 0, rhs: k })
                });
                body.outputs = vec![out];
                body
            })
            .collect();
        let fused = fuse_predicate_chain(&preds);
        assert_not_refuted(&prove_conjunction(&preds, &fused), &format!("seed {seed} chain"));
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let opt = optimize(&fused, level);
            assert_not_refuted(
                &prove_body_equiv(&fused, &opt),
                &format!("seed {seed} chain at {level}"),
            );
        }
    }
}

/// Random multi-body pipelines — each input slot wired to an external or to
/// a type-compatible earlier output — splice through [`fuse`] and the
/// splice proves equivalent to chaining the originals.
#[test]
fn random_fuse_pipelines_validate() {
    for seed in 0..40u64 {
        let mut rng = Rng::seed_from_u64(0xf0_5ed5 ^ (seed << 6));
        let ext_tys = gen_slot_tys(&mut rng);
        let n_bodies = rng.gen_range(2..4usize);
        let mut bodies: Vec<KernelBody> = Vec::new();
        let mut out_tys: Vec<Vec<Ty>> = Vec::new();
        let mut wiring: Vec<Vec<SlotSource>> = Vec::new();
        for _ in 0..n_bodies {
            // Each body reads the shared external layout; its wiring then
            // reroutes any slot to an earlier producer of the same type.
            let extra = rng.gen_range(4..24usize);
            let (body, outs) = gen_body(&mut rng, &ext_tys, extra);
            let wires = (0..ext_tys.len())
                .map(|s| {
                    let want = ext_tys[s];
                    let producers: Vec<SlotSource> = out_tys
                        .iter()
                        .enumerate()
                        .flat_map(|(b, outs)| {
                            outs.iter().enumerate().filter_map(move |(o, &t)| {
                                (t == want).then_some(SlotSource::Producer { body: b, output: o })
                            })
                        })
                        .collect();
                    if !producers.is_empty() && rng.gen_bool(0.5) {
                        producers[rng.gen_range(0..producers.len())]
                    } else {
                        SlotSource::External(s as u32)
                    }
                })
                .collect();
            wiring.push(wires);
            out_tys.push(outs);
            bodies.push(body);
        }
        let outputs: Vec<FusedOutput> = out_tys
            .iter()
            .enumerate()
            .flat_map(|(b, outs)| (0..outs.len()).map(move |o| FusedOutput { body: b, output: o }))
            .collect();
        // The fuse sandwich proves the splice on the way out; `Invalid`
        // (conflicting slot types across reroutes) is a legal generator
        // outcome, not a validation failure.
        let Ok(fused) = fuse(&bodies, &wiring, &outputs) else { continue };
        assert_not_refuted(
            &prove_fuse_equiv(&bodies, &wiring, &outputs, &fused),
            &format!("seed {seed} pipeline"),
        );
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let opt = optimize(&fused, level);
            assert_not_refuted(
                &prove_body_equiv(&fused, &opt),
                &format!("seed {seed} pipeline at {level}"),
            );
        }
    }
}
