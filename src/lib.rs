//! # kfusion
//!
//! A Rust reproduction of *"Optimizing Data Warehousing Applications for
//! GPUs Using Kernel Fusion/Fission"* (Wu et al., IPDPS workshops 2012):
//! kernel fusion and kernel fission for relational-algebra query plans,
//! evaluated on a discrete-event virtual GPU modeled after the paper's
//! Tesla C2070 + PCIe 2.0 testbed.
//!
//! The workspace splits into the paper's contribution and the substrates it
//! stands on, re-exported here under short names:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`core`] | `kfusion-core` | fusion/fission passes, plan executor + schedule builder, micro-benchmark workload |
//! | [`ir`] | `kfusion-ir` | kernel IR, optimizer (`O0`–`O3`), IR-level fusion |
//! | [`relalg`] | `kfusion-relalg` | host engine: RA operators as multi-stage kernels |
//! | [`vgpu`] | `kfusion-vgpu` | virtual GPU: device model, PCIe curves, DES scheduler |
//! | [`streampool`] | `kfusion-streampool` | the paper's Stream Pool runtime (Table IV) |
//! | [`tpch`] | `kfusion-tpch` | dbgen-lite + Q1/Q21/Q6 plans + reference executors |
//! | [`frontend`] | `kfusion-frontend` | SQL subset compiling to plan graphs |
//! | [`check`] | `kfusion-check` | static verification: typed IR verifier, fusion legality, schedule hazards |
//! | [`trace`] | `kfusion-trace` | tracing/metrics/EXPLAIN-ANALYZE: Chrome trace + Prometheus exporters |
//! | [`server`] | `kfusion-server` | concurrent query service: plan cache + admission batching over cross-query fusion |
//!
//! ## Quick start
//!
//! ```
//! use kfusion::core::exec::Strategy;
//! use kfusion::core::microbench::{run, SelectChain};
//! use kfusion::vgpu::GpuSystem;
//!
//! // The paper's headline experiment: two back-to-back 50% SELECTs.
//! let system = GpuSystem::c2070();
//! let chain = SelectChain::auto(1 << 20, &[0.5, 0.5]);
//!
//! let with_rt = run(&system, &chain, Strategy::SerialRoundTrip).unwrap();
//! let fused = run(&system, &chain, Strategy::Fusion).unwrap();
//! assert!(fused.throughput_gbps() > with_rt.throughput_gbps());
//! ```
//!
//! See `examples/` for runnable walkthroughs and `crates/bench/benches/`
//! for the harnesses that regenerate every table and figure of the paper
//! (EXPERIMENTS.md maps each to its target).

pub use kfusion_check as check;
pub use kfusion_core as core;
pub use kfusion_frontend as frontend;
pub use kfusion_ir as ir;
pub use kfusion_relalg as relalg;
pub use kfusion_server as server;
pub use kfusion_streampool as streampool;
pub use kfusion_tpch as tpch;
pub use kfusion_trace as trace;
pub use kfusion_vgpu as vgpu;
