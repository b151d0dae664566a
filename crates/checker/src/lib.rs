//! `kfusion-check` — the static verification layer, as one façade crate.
//!
//! The three analyses live next to the data structures they check, so the
//! pass-sandwich wiring (`optimize`/`fuse`/`fuse_plan`/`simulate` verifying
//! their own outputs) needs no cross-crate cycles. This crate re-exports
//! them under one roof for tools that want to run the whole suite:
//!
//! * [`ir`] — the typed IR verifier over [`kfusion_ir::KernelBody`]:
//!   type-checks every instruction under the library calling convention and
//!   renders listing-anchored diagnostics ([`kfusion_ir::VerifyError::render`]).
//! * [`plan`] — the plan verifier and fusion-legality analysis over
//!   [`kfusion_core::PlanGraph`]: well-formedness (body typing, column
//!   bounds, sortedness preconditions) and fused-region legality (barriers,
//!   terminals, convexity).
//! * [`schedule`] — the stream-schedule hazard detector over
//!   [`kfusion_vgpu::Schedule`]: happens-before analysis flagging
//!   use-before-def, write-write and read-write races on named device
//!   buffers.
//! * [`lint`] — dataflow-powered diagnostics with deny/warn severities
//!   (DESIGN.md §8), driven by the `kfusion-lint` binary.
//!
//! The integration tests in this crate hold the layer to its contract:
//! optimization passes preserve verifier acceptance on random well-formed
//! bodies, and random mutations of well-formed bodies are rejected at least
//! as often as pure structural checking rejects them.

pub mod demo;
pub mod lint;
#[cfg(kfusion_model)]
pub mod model_scenarios;

/// The typed IR verifier (re-export of [`kfusion_ir::verify`]).
pub mod ir {
    pub use kfusion_ir::verify::{output_types, slot_types, verify, VerifyError};
}

/// The dataflow analyses the lints are built on (re-export of
/// [`kfusion_ir::dataflow`]).
pub mod dataflow {
    pub use kfusion_ir::dataflow::{available, liveness, range};
    pub use kfusion_ir::dataflow::{Analysis, BitSet, Direction, Solution};
}

/// Plan well-formedness + fusion legality (re-export of
/// [`kfusion_core::check`]).
pub mod plan {
    pub use kfusion_core::check::{
        check_fusion, check_plan, CheckError, FusionCheckError, PlanCheckError,
    };
}

/// Stream-schedule hazard detection (re-export of [`kfusion_vgpu::hazard`]).
pub mod schedule {
    pub use kfusion_vgpu::hazard::{check_schedule, find_hazards, CmdRef, Hazard};
}

/// Translation validation (re-export of [`kfusion_ir::symexec`] plus the
/// fission segment partition validator from [`kfusion_vgpu::segment`]).
pub mod prover {
    pub use kfusion_ir::symexec::{
        prove_body_equiv, prove_conjunction, prove_fuse_equiv, Counterexample, Verdict,
    };
    pub use kfusion_vgpu::segment::{check_partition, partition, SegRange, SegmentError};
}

/// Run every applicable analysis on a plan graph: the plan verifier, then
/// fusion legality of `fusion` if one is given.
pub fn check_all(
    graph: &kfusion_core::PlanGraph,
    fusion: Option<&kfusion_core::FusionPlan>,
) -> Result<(), plan::CheckError> {
    {
        let _span = kfusion_trace::host_span("checker", "check_plan");
        plan::check_plan(graph).map_err(plan::CheckError::Plan)?;
        kfusion_trace::counter("kfusion_checker_passes_total{pass=\"plan\"}", 1);
    }
    if let Some(f) = fusion {
        let _span = kfusion_trace::host_span("checker", "check_fusion");
        plan::check_fusion(graph, f).map_err(plan::CheckError::Fusion)?;
        kfusion_trace::counter("kfusion_checker_passes_total{pass=\"fusion\"}", 1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use kfusion_core::{fuse_plan, FusionBudget, OpKind, PlanGraph};
    use kfusion_ir::opt::OptLevel;
    use kfusion_relalg::ops::Agg;
    use kfusion_relalg::predicates;

    #[test]
    fn check_all_runs_both_analyses() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let _a = g.add(OpKind::Aggregate { aggs: vec![Agg::Count] }, vec![s]);
        let fusion = fuse_plan(&g, &FusionBudget { max_regs_per_thread: 63 }, OptLevel::O3);
        assert!(super::check_all(&g, Some(&fusion)).is_ok());
        // And a broken plan is rejected through the same entry point.
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let rk = g.add(OpKind::Rekey { col: 0 }, vec![i]);
        g.add(OpKind::Unique, vec![rk]);
        assert!(super::check_all(&g, None).is_err());
    }
}
