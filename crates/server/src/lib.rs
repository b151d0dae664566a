//! `kfusion-server` — a concurrent query service over the fusion engine.
//!
//! The paper's §III-A observes that "there are opportunities to apply
//! kernel fusion across queries since RA operators from different queries
//! can be fused" — but the executor crates below this one are
//! one-query-at-a-time libraries. This crate adds the serving layer a data
//! warehouse actually runs: many clients submit plans concurrently, and the
//! service turns that concurrency into the paper's cross-query fusion
//! opportunities instead of serializing it away. Three pieces compose:
//!
//! * **Plan cache** ([`cache::PlanCache`]) — the compile side of an
//!   execution (verify → fuse → optimize) depends only on the plan's
//!   *structure* and the service's one [`kfusion_core::exec::ExecConfig`],
//!   which the cache is built for, so it is keyed by the 128-bit structural
//!   fingerprint of the merged plan a dispatch runs and computed once per
//!   shape. Concurrent dispatches of the same shape share one
//!   `Arc<FusionPlan>`; hits and misses surface as
//!   `kfusion_server_plan_cache_*` counters.
//! * **Admission window** ([`service::QueryService`]'s admission thread) —
//!   submissions are grouped for a bounded count/time window; queries that
//!   scan overlapping inputs merge through
//!   [`kfusion_core::multiquery::merge_plans`] and execute as one batch
//!   (shared scans, cross-query fused kernels), with each query's result
//!   routed back over its own channel. A query that shares no scan is a
//!   batch of one and takes the same path.
//! * **Worker pool** — a `std::thread::scope`-based pool with bounded
//!   queues for backpressure ([`queue::BoundedQueue`]), per-query deadlines
//!   that reject rather than hang, and a graceful shutdown that drains
//!   in-flight batches.
//!
//! Everything the service does is traced on its own `server` track —
//! queue-wait, batch-form, and execute spans — so `kfusion-trace-check
//! --require-tracks server` can validate a load run end to end.
//!
//! The service changes *when* and *with whom* a plan executes, never *what*
//! it computes: a view and the relation it stands for hold the same tuples
//! under any fusion plan, so a batched or cache-hit execution is
//! byte-identical to a standalone [`kfusion_core::exec::execute`] (the
//! equivalence tests enforce this).

pub mod cache;
pub mod queue;
pub mod service;
pub mod sql;
pub mod stats;

pub use cache::{CacheStats, PlanCache};
pub use queue::BoundedQueue;
pub use service::{QueryOutcome, QueryService, QueryTicket, ServerConfig, ServiceClient};
pub use sql::{CompiledSql, RegistryError, SqlTicket, TableRegistry};
pub use stats::{
    FlightRecorder, HostStage, QueryRecord, RecordOutcome, ServerStats, SimStage, StageSummary,
    StatsHub, HOST_STAGES, SIM_STAGES,
};

use kfusion_core::CoreError;

/// Service-level errors delivered to submitters.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The engine rejected or failed the query (verifier, executor, or
    /// simulator error, stringified across the channel).
    Exec(String),
    /// The query's deadline passed while it was still queued; it was
    /// rejected without executing.
    DeadlineExceeded,
    /// The submission queue stayed full past the configured admission
    /// timeout — backpressure instead of unbounded buffering.
    Overloaded,
    /// The service is draining and no longer accepts submissions.
    ShuttingDown,
    /// The internal reply channel dropped without a result (a worker
    /// panicked); the query's fate is unknown.
    Disconnected,
    /// A [`QueryTicket::wait_timeout`] poll elapsed before the result
    /// arrived; the ticket is still live and can be waited on again.
    WaitTimedOut,
    /// SQL text failed to compile; carries the front end's positioned
    /// parse or lowering diagnostic.
    Compile(kfusion_frontend::CompileError),
    /// A text query was submitted to a service started without a table
    /// registry ([`QueryService::serve`] rather than
    /// [`QueryService::serve_catalog`]), so there are no named tables to
    /// compile against.
    NoCatalog,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Exec(e) => write!(f, "query execution failed: {e}"),
            ServerError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            ServerError::Overloaded => write!(f, "submission queue full (service overloaded)"),
            ServerError::ShuttingDown => write!(f, "service is shutting down"),
            ServerError::Disconnected => write!(f, "reply channel disconnected"),
            ServerError::WaitTimedOut => write!(f, "wait timed out (ticket still pending)"),
            ServerError::Compile(e) => write!(f, "SQL did not compile: {e}"),
            ServerError::NoCatalog => {
                write!(f, "service has no table registry (text queries need serve_catalog)")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<CoreError> for ServerError {
    fn from(e: CoreError) -> Self {
        ServerError::Exec(e.to_string())
    }
}
