//! Classic scalar optimization passes over [`KernelBody`].
//!
//! These are the passes whose *scope* kernel fusion enlarges (paper
//! §III-A, "Improved Compiler Optimization Benefits", Table III). Each pass
//! is a function `fn(&mut KernelBody) -> bool` returning whether it changed
//! anything; [`optimize`] runs the [`OptLevel`] pipelines.
//!
//! Semantics contract: passes preserve the [`crate::interp::eval`] result of
//! every *well-typed* body (one that evaluates without [`crate::interp::EvalError`]
//! on its intended input types). Ill-typed bodies are erroneous programs and
//! carry no semantics to preserve — the same stance a C compiler takes on
//! undefined behaviour.

mod combine;
mod const_fold;
mod copy_prop;
mod cse;
mod dce;
mod simplify_ranges;
mod strength;
mod types;

pub use combine::combine;
pub use const_fold::const_fold;
pub use copy_prop::copy_prop;
pub use cse::cse;
pub use dce::dce;
pub use simplify_ranges::simplify_ranges;
pub use strength::strength;
pub use types::infer_types;

use crate::ir::{KernelBody, Reg};

/// Optimization effort, mirroring the paper's `-O0` / `-O3` comparison
/// (Table III) with two intermediate points for ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No optimization: the naive front-end output, as measured in the
    /// paper's Table III column "Inst # (O0)".
    O0,
    /// Constant folding + dead-code elimination, one iteration.
    O1,
    /// One iteration of every pass.
    O2,
    /// Every pass to fixpoint — the paper's "Inst # (O3)" column.
    O3,
}

impl OptLevel {
    /// All levels, for sweeps.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O1 => write!(f, "O1"),
            OptLevel::O2 => write!(f, "O2"),
            OptLevel::O3 => write!(f, "O3"),
        }
    }
}

/// A pass pipeline: named passes run in order.
pub type Pipeline = &'static [(&'static str, fn(&mut KernelBody) -> bool)];

/// The full pipeline one [`OptLevel::O2`]/[`OptLevel::O3`] iteration runs.
pub const PIPELINE: Pipeline = &[
    ("const_fold", const_fold),
    ("copy_prop", copy_prop),
    ("combine", combine),
    ("strength", strength),
    ("copy_prop", copy_prop),
    ("cse", cse),
    ("copy_prop", copy_prop),
    ("simplify_ranges", simplify_ranges),
    ("dce", dce),
];

/// The [`OptLevel::O1`] pipeline: folding, propagation, cleanup.
pub const O1_PIPELINE: Pipeline =
    &[("const_fold", const_fold), ("copy_prop", copy_prop), ("dce", dce)];

/// Run one iteration of the full pass pipeline. Returns whether anything
/// changed.
pub fn run_all_once(body: &mut KernelBody) -> bool {
    run_pipeline(body, PIPELINE, 0, &mut Vec::new())
}

/// Run `pipeline` once, appending a [`PassRun`] per pass that changed the
/// body. Returns whether anything changed.
fn run_pipeline(
    body: &mut KernelBody,
    pipeline: Pipeline,
    iteration: usize,
    rewrites: &mut Vec<PassRun>,
) -> bool {
    let mut changed = false;
    for &(name, pass) in pipeline {
        let before = body.instrs.clone();
        if pass(body) {
            changed = true;
            rewrites.push(PassRun {
                pass: name,
                iteration,
                regs: changed_regs(&before, &body.instrs),
            });
        }
    }
    changed
}

/// Registers whose defining instruction differs between two snapshots
/// (indices past the shorter body count as changed — `dce` shrinks).
fn changed_regs(before: &[crate::ir::Instr], after: &[crate::ir::Instr]) -> Vec<Reg> {
    let n = before.len().max(after.len());
    (0..n).filter(|&i| before.get(i) != after.get(i)).map(|i| i as Reg).collect()
}

/// Iteration cap of the [`OptLevel::O3`] fixpoint loop.
pub const MAX_O3_ITERS: usize = 16;

/// One pass application that changed the body: which pass, in which
/// pipeline iteration, and which registers it rewrote. This is the log
/// that lets a validator refutation name the guilty pass instead of just
/// "somewhere in O3".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRun {
    /// Pass name, as in [`PIPELINE`].
    pub pass: &'static str,
    /// Zero-based pipeline iteration (always 0 below O3).
    pub iteration: usize,
    /// Registers whose defining instruction the pass changed.
    pub regs: Vec<Reg>,
}

/// What [`optimize_report`] observed while running the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OptReport {
    /// Pipeline iterations executed (each is one [`run_all_once`] at O2/O3).
    pub iterations: usize,
    /// Whether an iteration completed with no pass changing the body. Only
    /// O3 iterates, so this is vacuously true below it; at O3 it means the
    /// body genuinely reached a fixpoint within [`MAX_O3_ITERS`].
    pub converged: bool,
    /// Every pass application that changed the body, in execution order.
    pub rewrites: Vec<PassRun>,
}

/// Optimize a copy of `body` at `level`.
pub fn optimize(body: &KernelBody, level: OptLevel) -> KernelBody {
    optimize_report(body, level).0
}

/// Optimize a copy of `body` at `level`, reporting fixpoint behaviour.
pub fn optimize_report(body: &KernelBody, level: OptLevel) -> (KernelBody, OptReport) {
    let mut out = body.clone();
    let mut report = OptReport { iterations: 0, converged: true, rewrites: Vec::new() };
    match level {
        OptLevel::O0 => {}
        OptLevel::O1 => {
            run_pipeline(&mut out, O1_PIPELINE, 0, &mut report.rewrites);
            report.iterations = 1;
        }
        OptLevel::O2 => {
            run_pipeline(&mut out, PIPELINE, 0, &mut report.rewrites);
            report.iterations = 1;
        }
        OptLevel::O3 => {
            // Fixpoint iteration; the pipeline strictly shrinks or rewrites
            // toward normal forms, so this terminates quickly in practice.
            // The bound is a backstop against pass-interaction cycles.
            report.converged = false;
            for it in 0..MAX_O3_ITERS {
                report.iterations += 1;
                if !run_pipeline(&mut out, PIPELINE, it, &mut report.rewrites) {
                    report.converged = true;
                    break;
                }
            }
        }
    }
    // Pass sandwich: every optimize call verifies its output in release
    // builds too, and a failure names the culprit — the pipeline, or an
    // ill-typed input it was handed.
    if let Err(e) = crate::verify::verify(&out) {
        if let Err(e0) = crate::verify::verify(body) {
            panic!("optimize({level}) called on ill-typed body:\n{}", e0.render(body));
        }
        panic!("optimizer produced ill-typed IR at {level}:\n{}", e.render(&out));
    }
    // Translation-validation sandwich: prove the end-to-end rewrite
    // preserved semantics; on refutation, replay the pipeline step by step
    // so the panic names the guilty pass from the rewrite log.
    if crate::symexec::enabled() {
        if let crate::symexec::Verdict::Refuted(cx) = crate::symexec::prove_body_equiv(body, &out) {
            let guilty =
                find_guilty_pass(body, level).map(|p| format!(" (pass `{p}`)")).unwrap_or_default();
            panic!(
                "optimize({level}) changed semantics{guilty}:\n{cx}\nbefore:\n{body}\nafter:\n{out}"
            );
        }
    }
    (out, report)
}

/// Failure-path diagnosis: re-run the pipeline for `level`, validating
/// after each individual pass, and name the first pass whose application
/// is refuted.
fn find_guilty_pass(body: &KernelBody, level: OptLevel) -> Option<&'static str> {
    let pipeline = match level {
        OptLevel::O0 => return None,
        OptLevel::O1 => O1_PIPELINE,
        OptLevel::O2 | OptLevel::O3 => PIPELINE,
    };
    let iters = if level == OptLevel::O3 { MAX_O3_ITERS } else { 1 };
    let mut cur = body.clone();
    for _ in 0..iters {
        let mut changed = false;
        for &(name, pass) in pipeline {
            let before = cur.clone();
            if pass(&mut cur) {
                changed = true;
                if crate::symexec::prove_body_equiv(&before, &cur).is_refuted() {
                    return Some(name);
                }
            }
        }
        if !changed {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BodyBuilder, Expr};
    use crate::cost::instruction_count;
    use crate::interp::eval;
    use crate::value::Value;

    /// The single-kernel row of Table III: one threshold predicate shrinks
    /// under O3 (setp/selp wrapper collapses) but stays a real compare.
    #[test]
    fn table3_single_kernel_row() {
        let body = BodyBuilder::threshold_lt(0, 100).build();
        let o0 = instruction_count(&optimize(&body, OptLevel::O0));
        let o3_body = optimize(&body, OptLevel::O3);
        let o3 = instruction_count(&o3_body);
        assert_eq!(o0, 7, "load, const, cmp, 2x const, select + store");
        assert_eq!(o3, 4, "load, const, cmp + store");
        // Semantics preserved.
        for v in [-5i64, 50, 99, 100, 101] {
            assert_eq!(
                eval(&body, &[Value::I64(v)]).unwrap()[0].as_bool(),
                eval(&o3_body, &[Value::I64(v)]).unwrap()[0].as_bool(),
            );
        }
    }

    #[test]
    fn o3_is_idempotent() {
        let body = BodyBuilder::threshold_lt(0, 42).build();
        let once = optimize(&body, OptLevel::O3);
        let twice = optimize(&once, OptLevel::O3);
        assert_eq!(once, twice);
    }

    #[test]
    fn o3_reaches_fixpoint_within_bound() {
        let fused = crate::fuse::fuse_predicate_chain(
            &(0..8).map(|k| BodyBuilder::threshold_lt(0, 100 + k).build()).collect::<Vec<_>>(),
        );
        for body in [BodyBuilder::threshold_lt(0, 42).build(), fused] {
            let (out, report) = optimize_report(&body, OptLevel::O3);
            assert!(report.converged, "O3 hit the iteration cap on {body}");
            assert!(report.iterations <= MAX_O3_ITERS);
            // Fixpoint means one more pipeline sweep changes nothing.
            let mut again = out.clone();
            assert!(!run_all_once(&mut again), "claimed fixpoint was not one: {out}");
        }
    }

    #[test]
    fn optimize_report_counts_o0_as_zero_iterations() {
        let body = BodyBuilder::threshold_lt(0, 42).build();
        let (out, report) = optimize_report(&body, OptLevel::O0);
        assert_eq!(out, body);
        assert_eq!(report, OptReport { iterations: 0, converged: true, rewrites: Vec::new() });
    }

    #[test]
    fn rewrite_log_names_passes_and_registers() {
        let body = BodyBuilder::threshold_lt(0, 42).build();
        let (_, report) = optimize_report(&body, OptLevel::O3);
        assert!(!report.rewrites.is_empty(), "O3 rewrites the threshold body");
        for run in &report.rewrites {
            assert!(PIPELINE.iter().any(|&(n, _)| n == run.pass), "unknown pass {}", run.pass);
        }
        // At least one logged run names the registers it rewrote (a run with
        // no register changes only rerouted the output list).
        assert!(report.rewrites.iter().any(|r| !r.regs.is_empty()));
        // O0 logs nothing.
        let (_, r0) = optimize_report(&body, OptLevel::O0);
        assert!(r0.rewrites.is_empty());
    }

    #[test]
    fn levels_are_monotone_on_threshold() {
        let body = BodyBuilder::threshold_lt(0, 7).build();
        let counts: Vec<usize> =
            OptLevel::ALL.iter().map(|&l| instruction_count(&optimize(&body, l))).collect();
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "higher level should not add instructions: {counts:?}");
        }
    }

    #[test]
    fn fully_constant_body_folds_to_consts() {
        let mut b = BodyBuilder::new(0);
        b.emit_output(Expr::lit(6i64).mul(Expr::lit(7i64)));
        let body = b.build();
        let o3 = optimize(&body, OptLevel::O3);
        assert_eq!(eval(&o3, &[]).unwrap()[0].as_i64(), Some(42));
        assert_eq!(o3.instrs.len(), 1, "just the const: {o3}");
    }
}
