//! Property tests: the vectorized batch engine ([`kfusion_ir::batch`]) is
//! bit-identical to the per-element interpreter ([`kfusion_ir::interp`]) on
//! randomly generated well-typed bodies.
//!
//! The generators (`bodies/mod.rs`) track a concrete type for every
//! register they emit, so every body they produce verifies and fully
//! resolves under `infer_with_slots` — the batch engine never gets to
//! decline. Beside bodies of random instructions they splice 2–5 members
//! with `fuse`, repeat subtrees, put constants on either side of compares
//! and build conjunction trees of compares. Input columns are salted with
//! the adversarial values the scalar semantics are defined over: 0
//! divisors, `i64::MIN / -1`, out-of-range shift amounts, NaN / ±0.0 /
//! ±inf floats, and `u64` keys above `i64::MAX`.

use kfusion_ir::batch::{mask_lane, BankView, BatchMachine, ColRef, CompiledKernel, BATCH_ROWS};
use kfusion_ir::fuse::{fuse, FusedOutput, SlotSource};
use kfusion_ir::interp::eval;
use kfusion_ir::{BinOp, CmpOp, Instr, KernelBody, Reg, Ty, UnOp, Value};
use kfusion_prng::Rng;

mod bodies;
use bodies::*;

/// Run `body` both ways over `cols` and assert every output lane is
/// bit-identical to the interpreter's row-at-a-time answer.
fn assert_batch_matches_interp(body: &KernelBody, cols: &Columns, rows: usize, what: &str) {
    assert_bound_matches_interp(body, cols, &cols.ir_cols(), rows, what)
}

/// [`assert_batch_matches_interp`] with `cols` bound as `ir_cols`.
fn assert_bound_matches_interp(
    body: &KernelBody,
    cols: &Columns,
    ir_cols: &[ColRef<'_>],
    rows: usize,
    what: &str,
) {
    let slot_seeds: Vec<Option<Ty>> = cols.slot_tys.iter().map(|&t| Some(t)).collect();
    let k = CompiledKernel::compile(body, &slot_seeds)
        .unwrap_or_else(|e| panic!("{what}: generated body failed to compile: {e}"));
    k.check_binding(ir_cols).expect("column binding");
    let mut bm = BatchMachine::new(&k);
    let mut base = 0;
    while base < rows {
        let n = (rows - base).min(BATCH_ROWS);
        bm.run(&k, ir_cols, base, n);
        for j in 0..n {
            let expected = eval(body, &cols.row(base + j))
                .unwrap_or_else(|e| panic!("{what}: interp failed on a well-typed body: {e}"));
            for (slot, &want) in expected.iter().enumerate() {
                let got = bm.output(&k, slot);
                match (want, got) {
                    (Value::I64(x), BankView::I64(v)) => {
                        assert_eq!(v[j], x, "{what}: i64 output {slot}, row {}", base + j)
                    }
                    (Value::F64(x), BankView::F64(v)) => assert_eq!(
                        v[j].to_bits(),
                        x.to_bits(),
                        "{what}: f64 output {slot}, row {} ({} vs {})",
                        base + j,
                        v[j],
                        x
                    ),
                    (Value::Bool(x), BankView::Bool(m)) => {
                        assert_eq!(
                            mask_lane(m, j),
                            x,
                            "{what}: bool output {slot}, row {}",
                            base + j
                        )
                    }
                    _ => panic!("{what}: engines disagree on output {slot}'s type"),
                }
            }
        }
        base += n;
    }
}

#[test]
fn random_bodies_are_bit_identical_to_interp() {
    // Non-multiple of both 64 and BATCH_ROWS, so the final batch has a
    // partial word whose tail lanes are garbage the engine must never leak.
    let rows = 2 * BATCH_ROWS + 389;
    for seed in 0..60u64 {
        let mut rng = Rng::seed_from_u64(0x9e3779b97f4a7c15 ^ seed);
        let cols = gen_columns(&mut rng, rows, 2, 2);
        let extra = rng.gen_range(8..32usize);
        let body = gen_body(&mut rng, &cols.slot_tys, extra);
        assert_batch_matches_interp(&body, &cols, rows, &format!("seed {seed}"));
    }
}

/// Deterministic gauntlet for the division/shift edge cases the random walk
/// might miss in any one run: x/y, x%y, x<<y, x>>y over a column pair salted
/// with 0, -1, `i64::MIN`, and shift counts far beyond 63.
#[test]
fn division_and_shift_edges_match_interp() {
    let xs: Vec<i64> =
        vec![i64::MIN, i64::MIN, i64::MAX, -1, 0, 7, -7, 1, i64::MIN, 123456789, -3, 64];
    let ys: Vec<i64> = vec![-1, 0, -1, i64::MIN, 0, -2, 2, 63, 64, -64, 65, 127];
    let rows = xs.len();
    let cols = Columns {
        keys: (0..rows as u64).collect(),
        i64s: vec![xs, ys],
        f64s: vec![],
        slot_tys: vec![Ty::I64, Ty::I64, Ty::I64],
    };
    let body = KernelBody {
        instrs: vec![
            Instr::LoadInput { slot: 0 },
            Instr::LoadInput { slot: 1 },
            Instr::LoadInput { slot: 2 },
            Instr::Bin { op: BinOp::Div, lhs: 1, rhs: 2 },
            Instr::Bin { op: BinOp::Rem, lhs: 1, rhs: 2 },
            Instr::Bin { op: BinOp::Shl, lhs: 1, rhs: 2 },
            Instr::Bin { op: BinOp::Shr, lhs: 1, rhs: 2 },
            Instr::Bin { op: BinOp::Mul, lhs: 1, rhs: 1 },
        ],
        outputs: vec![3, 4, 5, 6, 7],
        n_inputs: 3,
    };
    assert_batch_matches_interp(&body, &cols, rows, "div/shift gauntlet");
}

/// NaN propagation through f64 arithmetic, min/max, comparisons, and Select.
#[test]
fn nan_propagation_matches_interp() {
    let nan = f64::NAN;
    let xs = vec![nan, 1.0, nan, 0.0, -0.0, f64::INFINITY, nan, 2.5];
    let ys = vec![1.0, nan, nan, -0.0, 0.0, f64::NEG_INFINITY, nan, 2.5];
    let rows = xs.len();
    let cols = Columns {
        keys: (0..rows as u64).collect(),
        i64s: vec![],
        f64s: vec![xs, ys],
        slot_tys: vec![Ty::I64, Ty::F64, Ty::F64],
    };
    let body = KernelBody {
        instrs: vec![
            Instr::LoadInput { slot: 0 },
            Instr::LoadInput { slot: 1 },
            Instr::LoadInput { slot: 2 },
            Instr::Bin { op: BinOp::Min, lhs: 1, rhs: 2 },
            Instr::Bin { op: BinOp::Max, lhs: 1, rhs: 2 },
            Instr::Bin { op: BinOp::Div, lhs: 1, rhs: 2 },
            Instr::Cmp { op: CmpOp::Lt, lhs: 1, rhs: 2 },
            Instr::Cmp { op: CmpOp::Ne, lhs: 1, rhs: 2 },
            Instr::Select { cond: 6, then_r: 1, else_r: 2 },
        ],
        outputs: vec![3, 4, 5, 6, 7, 8],
        n_inputs: 3,
    };
    assert_batch_matches_interp(&body, &cols, rows, "nan gauntlet");
}

/// Run `arm` (`bodies::gen_arm`, or random instructions when `None`) over
/// 40 seeds, with slot 0 bound as a key column on even seeds and as row ids
/// on odd ones, each against the interpreter.
fn arm_matches_interp(arm: Option<usize>, salt: u64) {
    let rows = 2 * BATCH_ROWS + 389;
    for seed in 0..40u64 {
        let mut rng = Rng::seed_from_u64(salt ^ seed);
        let mut cols = gen_columns(&mut rng, rows, 2, 2);
        let body = match arm {
            Some(arm) => gen_arm(&mut rng, arm, &cols.slot_tys),
            None => {
                let extra = rng.gen_range(8..32usize);
                gen_body(&mut rng, &cols.slot_tys, extra)
            }
        };
        if seed % 2 == 0 {
            assert_batch_matches_interp(&body, &cols, rows, &format!("seed {seed}"));
        } else {
            cols.keys = (0..rows as u64).collect();
            let what = format!("seed {seed}, row ids");
            assert_bound_matches_interp(&body, &cols, &cols.row_id_cols(), rows, &what);
        }
    }
}

#[test]
fn row_id_slots_match_interp() {
    arm_matches_interp(None, 0x0b0d_1e55);
}

#[test]
fn spliced_bodies_match_interp() {
    arm_matches_interp(Some(0), 0x5b11_ce00);
}

#[test]
fn repeated_subtrees_match_interp() {
    arm_matches_interp(Some(1), 0x7e9e_a700);
}

#[test]
fn constants_on_either_side_of_a_compare_match_interp() {
    arm_matches_interp(Some(2), 0xc0f5_7a00);
}

#[test]
fn conjunction_trees_of_compares_match_interp() {
    arm_matches_interp(Some(3), 0xa11_a4d0);
}
