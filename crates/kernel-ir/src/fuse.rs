//! IR-level kernel fusion: splice the bodies of dependent kernel stages into
//! one straight-line body.
//!
//! This is the instruction-level half of the paper's kernel fusion (§III-C):
//! the operator-level machinery in `kfusion-core` decides *which* kernels to
//! fuse and interleaves their partition/compute/buffer/gather stages; this
//! module concatenates the per-thread compute bodies, wiring each consumer
//! input either to a producer output register (the "temporary data stays in
//! registers" benefit, Fig. 7(c)) or to a fresh external input slot.

use crate::ir::{BinOp, Instr, KernelBody, Reg};

/// Where a consumer body's input slot comes from in the fused kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotSource {
    /// An external input of the fused kernel (slot index in the fused body).
    External(u32),
    /// Output `output` of a previously spliced body (index into `bodies`).
    Producer {
        /// Index of the producer body in the fusion list.
        body: usize,
        /// Output slot of that producer.
        output: usize,
    },
}

/// An output of the fused kernel: output slot `output` of body `body`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FusedOutput {
    /// Index of the body in the fusion list.
    pub body: usize,
    /// Output slot of that body.
    pub output: usize,
}

/// Errors from [`fuse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseError {
    /// `wiring.len()` must equal `bodies.len()`.
    WiringArity {
        /// Number of bodies.
        bodies: usize,
        /// Number of wiring entries.
        wiring: usize,
    },
    /// Body `body` has `n_inputs` inputs but its wiring lists `wired` sources.
    SlotArity {
        /// Body index.
        body: usize,
        /// Expected inputs.
        n_inputs: u32,
        /// Provided sources.
        wired: usize,
    },
    /// A wiring entry references a producer at or after the consumer
    /// (fusion requires a topological order).
    ProducerNotEarlier {
        /// Consumer body index.
        consumer: usize,
        /// Referenced producer body index.
        producer: usize,
    },
    /// A referenced producer output slot does not exist.
    NoSuchOutput {
        /// Producer body index.
        body: usize,
        /// Requested output slot.
        output: usize,
    },
    /// The fused body failed verification (rendered diagnostic attached).
    /// Every fusion result is verified — a wiring that connects a producer
    /// output to a consumer slot of a different type surfaces here instead
    /// of as a runtime interpreter error.
    Invalid {
        /// The rendered [`crate::verify::VerifyError`] diagnostic.
        detail: String,
    },
    /// Translation validation refuted the splice: the fused body disagrees
    /// with the unfused chain on a concrete input.
    SemanticsChanged {
        /// The rendered counterexample.
        detail: String,
    },
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::WiringArity { bodies, wiring } => {
                write!(f, "{bodies} bodies but {wiring} wiring entries")
            }
            FuseError::SlotArity { body, n_inputs, wired } => {
                write!(f, "body {body} has {n_inputs} inputs but {wired} wired sources")
            }
            FuseError::ProducerNotEarlier { consumer, producer } => {
                write!(f, "body {consumer} consumes from body {producer}, which is not earlier")
            }
            FuseError::NoSuchOutput { body, output } => {
                write!(f, "body {body} has no output {output}")
            }
            FuseError::Invalid { detail } => {
                write!(f, "fused body failed verification: {detail}")
            }
            FuseError::SemanticsChanged { detail } => {
                write!(f, "fused body is not equivalent to the kernel chain:\n{detail}")
            }
        }
    }
}

impl std::error::Error for FuseError {}

/// Fuse `bodies` (in topological order) into one body.
///
/// `wiring[i][slot]` says where body `i`'s input slot comes from;
/// `outputs` lists which body outputs the fused kernel exposes, in order.
/// The result is *unoptimized*: producer→consumer links appear as `Copy`
/// instructions, exactly the redundancy the optimizer then removes —
/// mirroring how the paper fuses first and lets `-O3` clean up (Table III).
pub fn fuse(
    bodies: &[KernelBody],
    wiring: &[Vec<SlotSource>],
    outputs: &[FusedOutput],
) -> Result<KernelBody, FuseError> {
    if bodies.len() != wiring.len() {
        return Err(FuseError::WiringArity { bodies: bodies.len(), wiring: wiring.len() });
    }
    let mut fused = KernelBody::new(0);
    // out_regs[i][j]: fused register holding body i's output j.
    let mut out_regs: Vec<Vec<Reg>> = Vec::with_capacity(bodies.len());
    for (bi, body) in bodies.iter().enumerate() {
        let wires = &wiring[bi];
        if wires.len() != body.n_inputs as usize {
            return Err(FuseError::SlotArity {
                body: bi,
                n_inputs: body.n_inputs,
                wired: wires.len(),
            });
        }
        for w in wires {
            if let SlotSource::Producer { body: pb, output } = *w {
                if pb >= bi {
                    return Err(FuseError::ProducerNotEarlier { consumer: bi, producer: pb });
                }
                if output >= out_regs[pb].len() {
                    return Err(FuseError::NoSuchOutput { body: pb, output });
                }
            }
        }
        let base = fused.instrs.len() as Reg;
        for instr in &body.instrs {
            let mut instr = *instr;
            // Operands shift by this body's splice offset.
            instr.map_operands(|r| r + base);
            // Input loads reroute per the wiring.
            if let Instr::LoadInput { slot } = instr {
                instr = match wires[slot as usize] {
                    SlotSource::External(ext) => {
                        fused.n_inputs = fused.n_inputs.max(ext + 1);
                        Instr::LoadInput { slot: ext }
                    }
                    SlotSource::Producer { body: pb, output } => {
                        Instr::Copy { src: out_regs[pb][output] }
                    }
                };
            }
            fused.instrs.push(instr);
        }
        out_regs.push(body.outputs.iter().map(|&r| r + base).collect());
    }
    for fo in outputs {
        let regs = out_regs
            .get(fo.body)
            .ok_or(FuseError::NoSuchOutput { body: fo.body, output: fo.output })?;
        let reg = *regs
            .get(fo.output)
            .ok_or(FuseError::NoSuchOutput { body: fo.body, output: fo.output })?;
        fused.outputs.push(reg);
    }
    // A malformed or ill-typed splice is a real error in every build
    // profile, not a debug-only assert.
    if let Err(e) = crate::verify::verify(&fused) {
        return Err(FuseError::Invalid { detail: e.render(&fused) });
    }
    // Translation-validation sandwich: prove the splice computes exactly
    // what the unfused chain computes (the symbolic proof is immediate for
    // a correct splice — terms thread through the wiring unchanged).
    if crate::symexec::enabled() {
        if let crate::symexec::Verdict::Refuted(cx) =
            crate::symexec::prove_fuse_equiv(bodies, wiring, outputs, &fused)
        {
            return Err(FuseError::SemanticsChanged { detail: cx.render() });
        }
    }
    Ok(fused)
}

/// Fuse a chain of single-output boolean predicates over the *same* element
/// into one predicate that is their conjunction — the IR counterpart of
/// fusing back-to-back SELECTs (paper Fig. 6: filter₁ then filter₂ in one
/// kernel).
///
/// All predicates read the same external input slots; the fused body ANDs
/// their outputs.
///
/// # Panics
/// If `preds` is empty, or two of them read one slot at different types
/// ([`try_fuse_predicate_chain`] reports that instead).
pub fn fuse_predicate_chain(preds: &[KernelBody]) -> KernelBody {
    try_fuse_predicate_chain(preds).expect("predicates that read each slot at one type fuse")
}

/// [`fuse_predicate_chain`], or [`FuseError::Invalid`] when the conjunction
/// is ill-typed: two predicates read one input slot at different types, so
/// no column could feed both.
///
/// # Panics
/// If `preds` is empty.
pub fn try_fuse_predicate_chain(preds: &[KernelBody]) -> Result<KernelBody, FuseError> {
    assert!(!preds.is_empty(), "cannot fuse an empty predicate chain");
    let wiring: Vec<Vec<SlotSource>> =
        preds.iter().map(|p| (0..p.n_inputs).map(SlotSource::External).collect()).collect();
    // Splice all bodies, exposing every predicate output, then AND them.
    let outputs: Vec<FusedOutput> =
        (0..preds.len()).map(|b| FusedOutput { body: b, output: 0 }).collect();
    let mut fused = fuse(preds, &wiring, &outputs)?;
    let mut acc = fused.outputs[0];
    for k in 1..fused.outputs.len() {
        let rhs = fused.outputs[k];
        acc = fused.push(Instr::Bin { op: BinOp::And, lhs: acc, rhs });
    }
    fused.outputs = vec![acc];
    // Validate the conjunction against the member predicates directly.
    if crate::symexec::enabled() {
        if let crate::symexec::Verdict::Refuted(cx) =
            crate::symexec::prove_conjunction(preds, &fused)
        {
            panic!("fuse_predicate_chain changed semantics:\n{cx}");
        }
    }
    Ok(fused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BodyBuilder, Expr};
    use crate::interp::{eval, eval_predicate};
    use crate::opt::{optimize, OptLevel};
    use crate::value::Value;

    #[test]
    fn fused_predicate_chain_is_conjunction() {
        let a = BodyBuilder::threshold_lt(0, 100).build();
        let b = BodyBuilder::threshold_lt(0, 70).build();
        let fused = fuse_predicate_chain(&[a.clone(), b.clone()]);
        for v in [-10i64, 0, 69, 70, 99, 100, 150] {
            let expect = eval_predicate(&a, &[Value::I64(v)]).unwrap()
                && eval_predicate(&b, &[Value::I64(v)]).unwrap();
            assert_eq!(eval_predicate(&fused, &[Value::I64(v)]).unwrap(), expect);
        }
    }

    #[test]
    fn producer_consumer_wiring() {
        // Producer: out = in0 + in1. Consumer: out = in0 * 2 where in0 is the
        // producer's output. Fused: (a + b) * 2 with 2 external inputs.
        let mut p = BodyBuilder::new(2);
        p.emit_output(Expr::input(0).add(Expr::input(1)));
        let producer = p.build();

        let mut c = BodyBuilder::new(1);
        c.emit_output(Expr::input(0).mul(Expr::lit(2i64)));
        let consumer = c.build();

        let fused = fuse(
            &[producer, consumer],
            &[
                vec![SlotSource::External(0), SlotSource::External(1)],
                vec![SlotSource::Producer { body: 0, output: 0 }],
            ],
            &[FusedOutput { body: 1, output: 0 }],
        )
        .unwrap();

        let out = eval(&fused, &[Value::I64(3), Value::I64(4)]).unwrap();
        assert_eq!(out[0].as_i64(), Some(14));
        // The intermediate (a+b) flows through a register, not an input slot.
        assert_eq!(fused.n_inputs, 2);
    }

    #[test]
    fn fusion_plus_o3_beats_sum_of_parts() {
        use crate::cost::instruction_count;
        let a = BodyBuilder::threshold_lt(0, 100).build();
        let b = BodyBuilder::threshold_lt(0, 70).build();
        let separate_o3 = instruction_count(&optimize(&a, OptLevel::O3))
            + instruction_count(&optimize(&b, OptLevel::O3));
        let fused_o3 = instruction_count(&optimize(&fuse_predicate_chain(&[a, b]), OptLevel::O3));
        assert!(
            fused_o3 < separate_o3,
            "fused O3 {fused_o3} should beat separate O3 {separate_o3}"
        );
    }

    #[test]
    fn wiring_arity_checked() {
        let a = BodyBuilder::threshold_lt(0, 1).build();
        assert!(matches!(fuse(&[a], &[], &[]), Err(FuseError::WiringArity { .. })));
    }

    #[test]
    fn slot_arity_checked() {
        let a = BodyBuilder::threshold_lt(0, 1).build();
        assert!(matches!(fuse(&[a], &[vec![]], &[]), Err(FuseError::SlotArity { .. })));
    }

    #[test]
    fn forward_producer_rejected() {
        let a = BodyBuilder::threshold_lt(0, 1).build();
        let b = BodyBuilder::threshold_lt(0, 2).build();
        let err = fuse(
            &[a, b],
            &[vec![SlotSource::Producer { body: 1, output: 0 }], vec![SlotSource::External(0)]],
            &[],
        );
        assert!(matches!(err, Err(FuseError::ProducerNotEarlier { .. })));
    }

    #[test]
    fn missing_output_rejected() {
        let a = BodyBuilder::threshold_lt(0, 1).build();
        let err =
            fuse(&[a], &[vec![SlotSource::External(0)]], &[FusedOutput { body: 0, output: 5 }]);
        assert!(matches!(err, Err(FuseError::NoSuchOutput { .. })));
    }

    #[test]
    fn three_way_chain() {
        let preds: Vec<KernelBody> =
            [100, 70, 85].iter().map(|&t| BodyBuilder::threshold_lt(0, t).build()).collect();
        let fused = fuse_predicate_chain(&preds);
        let o3 = optimize(&fused, OptLevel::O3);
        // All three collapse to a single compare against 70.
        let cmps = o3.instrs.iter().filter(|i| matches!(i, Instr::Cmp { .. })).count();
        assert_eq!(cmps, 1, "{o3}");
        for v in [69i64, 70, 71, 100] {
            assert_eq!(
                eval_predicate(&fused, &[Value::I64(v)]).unwrap(),
                eval_predicate(&o3, &[Value::I64(v)]).unwrap()
            );
        }
    }
}
