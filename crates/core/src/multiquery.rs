//! Cross-query kernel fusion — the paper's §III-A extension: "there are
//! opportunities to apply kernel fusion across queries since RA operators
//! from different queries can be fused."
//!
//! [`merge_plans`] splices several query plans into one multi-root
//! [`PlanGraph`], deduplicating plan-input leaves so queries that scan the
//! same relation share the upload: one PCIe transfer amortized across the
//! whole batch. The ordinary fusion pass then groups the merged graph.
//! Its sibling rule joins a SELECT to an *open* group over the same input
//! (the Fig. 2(c) shape), so chains of bare SELECTs from different queries
//! land in one kernel group. A query whose chain closes its group — at an
//! AGGREGATE, as Q6's does — keeps a group of its own: two merged Q6
//! variants are two 7-node fusion groups that share one `Input` leaf, and
//! each still reads the input itself. Making such sibling runs one walk is
//! ROADMAP item 8.

use crate::exec::{ExecConfig, Strategy};
use crate::fusion::FusionPlan;
use crate::graph::{NodeId, OpKind, PlanGraph};
use crate::report::Report;
use crate::CoreError;
use kfusion_relalg::Relation;
use kfusion_vgpu::GpuSystem;

/// Several queries spliced into one plan.
#[derive(Debug, Clone)]
pub struct MergedPlan {
    /// The combined graph (multi-root).
    pub graph: PlanGraph,
    /// Each original query's root, in input order.
    pub roots: Vec<NodeId>,
}

/// Splice `plans` into one graph, sharing `Input` leaves that read the same
/// executor input. The graph's `root` is the last plan's root, so one plan
/// whose `Input` leaves name distinct slots merges into itself, node for
/// node.
pub fn merge_plans(plans: &[PlanGraph]) -> MergedPlan {
    let mut graph = PlanGraph::new();
    let mut roots = Vec::with_capacity(plans.len());
    let mut shared_inputs: std::collections::HashMap<usize, NodeId> = Default::default();
    for plan in plans {
        let mut remap: Vec<NodeId> = Vec::with_capacity(plan.len());
        for node in &plan.nodes {
            let id = match &node.kind {
                OpKind::Input { input } => {
                    *shared_inputs.entry(*input).or_insert_with(|| graph.input(*input))
                }
                kind => graph.add(kind.clone(), node.inputs.iter().map(|&i| remap[i]).collect()),
            };
            remap.push(id);
        }
        roots.push(remap[plan.root]);
    }
    if let Some(&last) = roots.last() {
        graph.root = last;
    }
    MergedPlan { graph, roots }
}

/// The result of a batched execution.
#[derive(Debug)]
pub struct MultiResult {
    /// One output relation per original query, in order.
    pub outputs: Vec<Relation>,
    /// Simulated timing of the whole batch.
    pub report: Report,
    /// The fusion plan over the merged graph.
    pub fusion: FusionPlan,
    /// Every merged-graph node's measured output size.
    pub cards: crate::exec::Cardinalities,
}

/// Execute a merged batch of queries under `cfg`. Functionally identical to
/// running each query alone; the timing reflects shared scans and
/// cross-query fused kernels.
pub fn execute_multi(
    system: &GpuSystem,
    merged: &MergedPlan,
    inputs: &[Relation],
    cfg: &ExecConfig,
) -> Result<MultiResult, CoreError> {
    crate::exec::execute_multi_impl(system, &merged.graph, inputs, cfg, &merged.roots, None)
}

/// [`execute_multi`] with the compile-side pipeline already done: `fusion`
/// must come from [`crate::exec::prepare_fusion`] on a structurally
/// identical merged graph under the same `cfg` — the path `kfusion-server`
/// takes when a batch composition hits its plan cache.
pub fn execute_multi_prepared(
    system: &GpuSystem,
    merged: &MergedPlan,
    inputs: &[Relation],
    cfg: &ExecConfig,
    fusion: &crate::fusion::FusionPlan,
) -> Result<MultiResult, CoreError> {
    crate::exec::execute_multi_impl(system, &merged.graph, inputs, cfg, &merged.roots, Some(fusion))
}

/// Estimate of the batching benefit: simulated batch time vs the sum of the
/// queries run one at a time under the same strategy.
///
/// Degenerate inputs are errors, not silent `NaN`/`inf`: an empty `plans`
/// slice has no meaningful ratio (`0.0 / 0.0`), and a batch whose simulated
/// time is zero (or non-finite) cannot divide the separate total.
pub fn batching_speedup(
    system: &GpuSystem,
    plans: &[PlanGraph],
    inputs: &[Relation],
    strategy: Strategy,
) -> Result<f64, CoreError> {
    if plans.is_empty() {
        return Err(CoreError::Unsupported("batching_speedup over zero plans".into()));
    }
    let cfg = ExecConfig::new(strategy, system);
    let mut separate = 0.0;
    for p in plans {
        separate += crate::exec::execute(system, p, inputs, &cfg)?.report.total();
    }
    let merged = merge_plans(plans);
    let batch = execute_multi(system, &merged, inputs, &cfg)?;
    let batch_total = batch.report.total();
    if !(batch_total > 0.0 && batch_total.is_finite()) {
        return Err(CoreError::Unsupported(format!(
            "batching_speedup over a degenerate batch (simulated total {batch_total})"
        )));
    }
    Ok(separate / batch_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use kfusion_relalg::{gen, predicates};

    fn sys() -> GpuSystem {
        GpuSystem::c2070()
    }

    fn query(thresholds: &[u64]) -> PlanGraph {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for &t in thresholds {
            cur = g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![cur]);
        }
        g
    }

    #[test]
    fn merge_shares_input_leaves() {
        let merged = merge_plans(&[query(&[100]), query(&[200])]);
        let inputs = merged.graph.inputs().count();
        assert_eq!(inputs, 1, "same input index must merge");
        assert_eq!(merged.roots.len(), 2);
        assert!(merged.graph.validate().is_ok());
    }

    #[test]
    fn one_plan_merges_into_itself() {
        // Root included, even when it is not the last node.
        let mut g = query(&[100, 50]);
        g.root = 1;
        let merged = merge_plans(std::slice::from_ref(&g));
        assert_eq!(merged.roots, [1]);
        assert_eq!(crate::fingerprint_plan(&merged.graph), crate::fingerprint_plan(&g));
    }

    #[test]
    fn distinct_inputs_stay_distinct() {
        let mut q2 = PlanGraph::new();
        let i = q2.input(1);
        q2.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![i]);
        let merged = merge_plans(&[query(&[100]), q2]);
        let inputs = merged.graph.inputs().count();
        assert_eq!(inputs, 2);
    }

    #[test]
    fn cross_query_operators_fuse_into_one_kernel() {
        // Two different queries over the same relation: the fusion pass
        // merges their SELECTs into one shared-scan kernel (Fig. 2(c)
        // across query boundaries).
        let merged = merge_plans(&[query(&[100, 50]), query(&[300])]);
        let plan = crate::fusion::fuse_plan(
            &merged.graph,
            &crate::FusionBudget { max_regs_per_thread: 63 },
            kfusion_ir::opt::OptLevel::O3,
        );
        assert_eq!(plan.groups.len(), 1, "{:?}", plan.groups);
    }

    #[test]
    fn batched_outputs_match_individual_runs() {
        let plans = [query(&[1 << 30, 1 << 29]), query(&[1 << 31])];
        let input = gen::random_keys(200_000, 11);
        let s = sys();
        let cfg = ExecConfig::new(Strategy::Fusion, &s);
        let merged = merge_plans(&plans);
        let batch = execute_multi(&s, &merged, std::slice::from_ref(&input), &cfg).unwrap();
        for (p, got) in plans.iter().zip(&batch.outputs) {
            let alone = execute(&s, p, std::slice::from_ref(&input), &cfg).unwrap();
            assert_eq!(got, &alone.output);
        }
    }

    #[test]
    fn speedup_over_zero_plans_is_an_error_not_nan() {
        // Regression: `0.0 / 0.0` used to reach the caller as NaN.
        let input = gen::random_keys(16, 1);
        let r = batching_speedup(&sys(), &[], std::slice::from_ref(&input), Strategy::Fusion);
        assert!(matches!(r, Err(CoreError::Unsupported(_))), "{r:?}");
    }

    #[test]
    fn speedup_is_never_nan_or_inf_on_degenerate_batches() {
        // A batch over an empty relation is as degenerate as the executor
        // can produce; whatever the result, it must be a finite Ok or a
        // proper error — never NaN/inf.
        let empty = gen::random_keys(0, 1);
        let plans = [query(&[100]), query(&[200])];
        match batching_speedup(&sys(), &plans, std::slice::from_ref(&empty), Strategy::Fusion) {
            Ok(v) => assert!(v.is_finite(), "non-finite speedup {v}"),
            Err(CoreError::Unsupported(msg)) => assert!(msg.contains("degenerate"), "{msg}"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn prepared_multi_execution_matches_unprepared() {
        let plans = [query(&[1 << 30]), query(&[1 << 31])];
        let input = gen::random_keys(50_000, 13);
        let s = sys();
        let cfg = ExecConfig::new(Strategy::Fusion, &s);
        let merged = merge_plans(&plans);
        let fusion = crate::exec::prepare_fusion(&merged.graph, &cfg).unwrap();
        let prepared =
            execute_multi_prepared(&s, &merged, std::slice::from_ref(&input), &cfg, &fusion)
                .unwrap();
        let plain = execute_multi(&s, &merged, std::slice::from_ref(&input), &cfg).unwrap();
        assert_eq!(prepared.outputs, plain.outputs);
        assert_eq!(prepared.report.total(), plain.report.total());
    }

    #[test]
    fn batching_beats_running_queries_separately() {
        // The shared scan pays one upload and one skeleton for the batch.
        let plans = [query(&[1 << 30]), query(&[1 << 31]), query(&[3 << 29])];
        let input = gen::random_keys(1 << 20, 12);
        let s = sys();
        let speedup =
            batching_speedup(&s, &plans, std::slice::from_ref(&input), Strategy::Fusion).unwrap();
        assert!(speedup > 1.5, "cross-query batching speedup {speedup}");
    }
}
