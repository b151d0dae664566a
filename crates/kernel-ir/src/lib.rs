//! `kfusion-ir` — a small register-based kernel IR with an optimizer and a
//! per-element interpreter.
//!
//! The paper's kernel-fusion transformation is a *compiler* optimization: the
//! bodies of two dependent CUDA kernels are concatenated and the merged body
//! is handed to the regular optimization pipeline, which then eliminates the
//! redundancy that was invisible across kernel boundaries (paper §III-A,
//! Table III). This crate plays the role of PTX + `nvcc` in that story:
//!
//! * [`KernelBody`] is a straight-line, SSA-like program that computes one
//!   output element from one input element — the per-thread body of a
//!   data-parallel kernel stage.
//! * [`opt`] hosts the classic passes (constant folding/propagation, copy
//!   propagation, common-subexpression elimination, comparison combining,
//!   dead-code elimination) with [`opt::OptLevel::O0`]/[`opt::OptLevel::O3`]
//!   pipelines.
//! * [`fuse`] concatenates several bodies, wiring producer outputs to
//!   consumer inputs, exactly like kernel fusion splices dependent kernels.
//! * [`interp`] executes a body on concrete [`Value`]s; the relational
//!   operators in `kfusion-relalg` use it to evaluate predicates and
//!   arithmetic expressions per tuple, so optimized and unoptimized bodies
//!   are *runnable*, not just countable.
//! * [`cost`] reports instruction counts and register pressure; the virtual
//!   GPU charges kernel time from these numbers, which is how the "larger
//!   optimization scope" benefit of fusion (paper Fig. 7(f)) shows up in the
//!   reproduced throughput figures.
//!
//! # Example
//!
//! Build the two threshold predicates of Table III, fuse them, and watch the
//! optimizer collapse the fused body:
//!
//! ```
//! use kfusion_ir::{builder::BodyBuilder, fuse, opt, cost};
//!
//! // if (d < THRESHOLD1)  — one kernel
//! let a = BodyBuilder::threshold_lt(0, 100).build();
//! // if (d < THRESHOLD2)  — the next kernel, same input element
//! let b = BodyBuilder::threshold_lt(0, 70).build();
//!
//! let fused = fuse::fuse_predicate_chain(&[a.clone(), b.clone()]);
//! let o3 = opt::optimize(&fused, opt::OptLevel::O3);
//!
//! // The two compares against constants combine into a single compare.
//! assert!(cost::instruction_count(&o3) < cost::instruction_count(&fused));
//! ```

pub mod batch;
pub mod builder;
pub mod cost;
pub mod dataflow;
pub mod fuse;
pub mod interp;
pub mod ir;
pub mod opt;
pub mod symexec;
pub mod text;
pub mod value;
pub mod verify;

pub use ir::{BinOp, CmpOp, Instr, KernelBody, Reg, UnOp};
pub use value::{Ty, Value};
pub use verify::VerifyError;
