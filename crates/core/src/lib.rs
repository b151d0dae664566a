//! `kfusion-core` — kernel fusion and kernel fission for relational query
//! plans: the primary contribution of the reproduced paper.
//!
//! The paper proposes two inter-kernel compiler optimizations for GPU data
//! warehousing:
//!
//! * **Kernel fusion** (§III) merges dependent data-parallel kernels so
//!   intermediate relations never cross PCIe or even GPU global memory, the
//!   multi-stage skeleton (partition/buffer/gather) is paid once, and the
//!   merged body enjoys a larger compiler-optimization scope.
//! * **Kernel fission** (§IV) splits a kernel into CTA segments pipelined
//!   over CUDA streams so PCIe transfers hide under computation.
//!
//! Module map:
//!
//! * [`graph`] — the logical operator DAG a query plan lowers to, and the
//!   operator table ([`OpKind::traits`], [`OpKind::body`]): each
//!   payload-independent fact about an operator, stated once.
//! * [`deps`] — the dependence classes ([`deps::Dep`]) the table sorts
//!   operators into: what fuses (elementwise chains, JOINs, terminal
//!   AGGREGATIONs), what doesn't (SORT/UNIQUE barriers), what fission can
//!   segment.
//! * [`fusion`] — the fusion pass: greedy group formation with merging
//!   (Fig. 2(f)) under a register-pressure budget.
//! * [`cost`] — the cost model: the register estimate bounding fusion
//!   depth, and an operator's sim price alone and as a group member.
//! * [`exec`] — the plan executor and the one schedule builder: functional
//!   evaluation (`exec/host.rs`; or given cardinalities) + simulated timing
//!   (`exec/schedule.rs`) under the paper's strategies (serial / round trip
//!   / fusion / fission / fusion+fission).
//! * [`microbench`] — the back-to-back SELECT *workload* of the paper's
//!   Figs. 4(a), 8–12, 14 and 16, run through [`exec`]; [`hetero`] adds a
//!   CPU share to its fission pipeline (§III-C's Ocelot direction).
//! * [`report`] — timing reports with the figures' breakdowns, plus
//!   Chrome-trace artifact export.
//! * [`explain`] — `EXPLAIN ANALYZE` trees: per-node rows, simulated and
//!   host time, fusion-group membership, register pressure.
//! * [`fingerprint`] — structural plan fingerprints, the key under which
//!   `kfusion-server`'s plan cache shares compiled fusion plans.
//!
//! # Example: fuse and run a SELECT chain
//!
//! ```
//! use kfusion_core::exec::Strategy;
//! use kfusion_core::microbench::{run, SelectChain};
//! use kfusion_vgpu::GpuSystem;
//!
//! let system = GpuSystem::c2070();
//! let chain = SelectChain::auto(1 << 20, &[0.5, 0.5]);
//! let serial = run(&system, &chain, Strategy::Serial).unwrap();
//! let fused = run(&system, &chain, Strategy::Fusion).unwrap();
//! assert!(fused.total() < serial.total());
//! ```

pub mod analyze;
pub mod check;
pub mod cost;
pub mod deps;
pub mod exec;
pub mod explain;
pub mod fingerprint;
pub mod fusion;
pub mod graph;
pub mod hetero;
pub mod microbench;
pub mod multiquery;
pub mod patterns;
pub mod report;

pub use cost::FusionBudget;
pub use fingerprint::{fingerprint_plan, Fingerprint, PlanKey};
pub use fusion::{fuse_plan, FusionPlan};
pub use graph::{NodeId, OpKind, PlanGraph};
pub use report::Report;

/// Errors from the core executor and benchmark engines.
#[derive(Debug)]
pub enum CoreError {
    /// A relational operator failed.
    Rel(kfusion_relalg::RelError),
    /// The device simulator rejected a schedule.
    Sim(kfusion_vgpu::SimError),
    /// The plan graph is structurally invalid.
    Graph(graph::GraphError),
    /// The static checker rejected the plan or its fusion.
    Check(check::CheckError),
    /// Strategy/plan combination the executor does not support.
    Unsupported(String),
    /// A plan node's evaluation panicked: the node and the panic message.
    Internal(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Rel(e) => write!(f, "relational operator failed: {e}"),
            CoreError::Sim(e) => write!(f, "simulation failed: {e}"),
            CoreError::Graph(e) => write!(f, "invalid plan graph: {e}"),
            CoreError::Check(e) => write!(f, "plan rejected by static checker: {e}"),
            CoreError::Unsupported(s) => write!(f, "unsupported: {s}"),
            CoreError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<kfusion_relalg::RelError> for CoreError {
    fn from(e: kfusion_relalg::RelError) -> Self {
        CoreError::Rel(e)
    }
}

impl From<kfusion_vgpu::SimError> for CoreError {
    fn from(e: kfusion_vgpu::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<graph::GraphError> for CoreError {
    fn from(e: graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<check::CheckError> for CoreError {
    fn from(e: check::CheckError) -> Self {
        CoreError::Check(e)
    }
}

impl From<check::PlanCheckError> for CoreError {
    fn from(e: check::PlanCheckError) -> Self {
        CoreError::Check(check::CheckError::Plan(e))
    }
}
