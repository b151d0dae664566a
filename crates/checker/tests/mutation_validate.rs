//! Mutation testing for the translation validator (DESIGN.md §12): inject
//! the classic compiler bugs the validator exists to catch — each as the
//! exact rewrite a buggy pass would emit — and assert every one is
//! [`Verdict::Refuted`] with a *concrete* counterexample, not merely
//! flagged. A validator that only ever says `Verified` proves nothing about
//! itself; these are its positive controls.

use kfusion_check::prover::{check_partition, partition, prove_body_equiv, Verdict};
use kfusion_ir::builder::{BodyBuilder, Expr};
use kfusion_ir::fuse::fuse_predicate_chain;
use kfusion_ir::interp::eval;
use kfusion_ir::{BinOp, CmpOp, Instr, KernelBody, Value};

/// The refutation must carry a concrete witness: an input row on which the
/// two bodies demonstrably disagree when re-evaluated from scratch.
fn assert_refuted_with_witness(original: &KernelBody, mutant: &KernelBody, what: &str) {
    match prove_body_equiv(original, mutant) {
        Verdict::Refuted(cx) => {
            assert_eq!(
                cx.original,
                eval(original, &cx.inputs),
                "{what}: counterexample must replay against the original"
            );
            assert_eq!(
                cx.rewritten,
                eval(mutant, &cx.inputs),
                "{what}: counterexample must replay against the mutant"
            );
            assert_ne!(cx.original, cx.rewritten, "{what}: witness shows no disagreement");
            let rendered = cx.render();
            assert!(rendered.contains("counterexample input:"), "{what}: {rendered}");
        }
        other => panic!("{what}: expected Refuted, got {other:?}"),
    }
}

/// Bug 1 — a CSE that ignores operand order: `in0 - in1` and `in1 - in0`
/// dedup into one register. Real CSE keys on (op, lhs, rhs); dropping the
/// operand side condition is the classic mutation.
#[test]
fn buggy_cse_merging_swapped_subtraction_is_refuted() {
    let mut b = BodyBuilder::new(2);
    b.emit_output(Expr::input(0).sub(Expr::input(1)));
    b.emit_output(Expr::input(1).sub(Expr::input(0)));
    let original = b.build();

    // The "optimized" body reuses the first difference for both outputs.
    let mut mutant = KernelBody::new(2);
    let x = mutant.push(Instr::LoadInput { slot: 0 });
    let y = mutant.push(Instr::LoadInput { slot: 1 });
    let d = mutant.push(Instr::Bin { op: BinOp::Sub, lhs: x, rhs: y });
    mutant.outputs = vec![d, d];

    assert_refuted_with_witness(&original, &mutant, "order-blind CSE");
}

/// Bug 2 — a range-check merge that keeps the *looser* bound:
/// `(x < 100) && (x < 70)` "simplifies" to `x < 100`. Any x in [70, 100)
/// witnesses the refutation.
#[test]
fn buggy_range_merge_keeping_loose_bound_is_refuted() {
    let preds: Vec<KernelBody> =
        [100, 70].iter().map(|&t| BodyBuilder::threshold_lt(0, t).build()).collect();
    let original = fuse_predicate_chain(&preds);
    let mutant = BodyBuilder::threshold_lt(0, 100).build();
    match prove_body_equiv(&original, &mutant) {
        Verdict::Refuted(cx) => {
            let Some(Value::I64(x)) = cx.inputs.first() else {
                panic!("loose range merge: expected an i64 witness, got {:?}", cx.inputs)
            };
            assert!(
                (70..100).contains(x),
                "loose range merge: witness {x} outside the disagreement window"
            );
        }
        other => panic!("loose range merge: expected Refuted, got {other:?}"),
    }
}

/// Bug 3 — De Morgan over floats: `!(x < 5.0)` rewritten to `x >= 5.0`.
/// The two differ exactly on NaN, which the adversarial pool supplies.
#[test]
fn buggy_float_compare_negation_is_refuted_by_nan() {
    let mut a = BodyBuilder::new(1);
    a.emit_output(Expr::input(0).lt(Expr::lit(5.0f64)).not());
    let original = a.build();
    let mut b = BodyBuilder::new(1);
    b.emit_output(Expr::input(0).ge(Expr::lit(5.0f64)));
    let mutant = b.build();
    match prove_body_equiv(&original, &mutant) {
        Verdict::Refuted(cx) => {
            assert!(
                cx.inputs.iter().any(|v| matches!(v, Value::F64(x) if x.is_nan())),
                "float negation: expected a NaN witness, got {:?}",
                cx.inputs
            );
        }
        other => panic!("float negation: expected Refuted, got {other:?}"),
    }
}

/// Bug 4 — a fused conjunction whose AND decays to OR (a one-bit splice
/// mutation): rows failing one filter but passing the other slip through.
#[test]
fn buggy_conjunction_decaying_to_or_is_refuted() {
    let preds: Vec<KernelBody> = [(0, 100), (1, 50)]
        .iter()
        .map(|&(slot, t)| BodyBuilder::threshold_lt(slot, t).build())
        .collect();
    let original = fuse_predicate_chain(&preds);
    let mut mutant = original.clone();
    let mut flipped = false;
    for instr in &mut mutant.instrs {
        if let Instr::Bin { op: op @ BinOp::And, .. } = instr {
            *op = BinOp::Or;
            flipped = true;
        }
    }
    assert!(flipped, "fused chain must contain the conjunction AND");
    assert_refuted_with_witness(&original, &mutant, "AND-to-OR splice");
}

/// Bug 5 — sign-flipped compare in an optimized predicate: the exact
/// rewrite `kfusion-lint --demo-defects` demonstrates, asserted here at the
/// prover level.
#[test]
fn buggy_sign_flip_is_refuted() {
    let original = BodyBuilder::threshold_lt(0, 100).build();
    let mut mutant = original.clone();
    for instr in &mut mutant.instrs {
        if let Instr::Cmp { op: op @ CmpOp::Lt, .. } = instr {
            *op = CmpOp::Gt;
        }
    }
    assert_refuted_with_witness(&original, &mutant, "sign flip");
}

/// Bug 6 — fission segment bounds off by one, both directions: an overlap
/// (an element computed twice) and a gap (an element never computed), each
/// reported with the witness element and caught by the segment lint.
#[test]
fn off_by_one_segment_bounds_are_refuted_with_witnesses() {
    let total = 1 << 20;
    let good = partition(total, 8);
    assert_eq!(check_partition(total, &good), Ok(()));

    let mut overlapping = good.clone();
    overlapping[3].lo -= 1; // recomputes the last element of segment 2
    let err = check_partition(total, &overlapping).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("computed twice"), "overlap witness missing: {msg}");
    let lints = kfusion_check::lint::lint_segments("mutation", total, &overlapping);
    assert!(
        lints.iter().any(|l| l.id == "fission-segment-overlap"),
        "segment lint must fire on the overlap"
    );

    let mut gapped = good.clone();
    gapped[5].lo += 1; // drops the first element of segment 5
    let err = check_partition(total, &gapped).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("never computed"), "gap witness missing: {msg}");

    let mut truncated = good;
    truncated.pop();
    let err = check_partition(total, &truncated).unwrap_err();
    assert!(err.to_string().contains("never computed"), "truncated tail is a gap: {err}");
}
