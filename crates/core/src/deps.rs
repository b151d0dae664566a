//! Dependence analysis: which operators may fuse, and which may be
//! segmented for fission.
//!
//! §III-C of the paper distinguishes two dependence classes between a
//! producer and a consumer kernel:
//!
//! 1. **Elementwise** — each output element depends on one input element;
//!    the array dependence decomposes into scalar dependences and the
//!    kernels fuse freely (e.g. SELECT→SELECT, Fig. 2(a)).
//! 2. **Full-producer** — the consumer needs the *complete* producer output
//!    before any element of its own (SORT, UNIQUE). These are fusion
//!    barriers: "SORT and UNIQUE cannot be fused with any other operators".
//!
//! AGGREGATION may terminate a fused kernel (Fig. 2(g) fuses
//! SELECT→AGGREGATION) but nothing can fuse *after* it inside the same
//! kernel, since its output exists only once the whole input is reduced.
//!
//! §IV adds the fission question — can output segment `i` be computed from
//! input segment `i` alone? — which only the strictly elementwise operators
//! answer yes to. [`Dep`] folds both into one class per operator, so
//! "segmentable ⇒ fusable" holds by construction; which operator is in
//! which class is a column of [`OpKind::traits`](crate::graph::OpKind::traits).

/// An operator's dependence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dep {
    /// A plan input: not an operator, a member of no kernel.
    Leaf,
    /// Output element `i` depends on input element `i` alone: fuses anywhere
    /// in a kernel *and* may be segmented for fission.
    Elementwise,
    /// Fuses anywhere in a kernel but cannot be segmented: a segment
    /// boundary can split a merge join's key group.
    Fusable,
    /// May appear only as the last member of a fused kernel (AGGREGATION).
    Terminal,
    /// May never fuse (SORT, UNIQUE, and — conservatively — the whole-tuple
    /// set operators, which the paper's Fig. 2 patterns do not cover).
    Barrier,
}

impl Dep {
    /// Whether the operator may share a fused kernel with others.
    pub fn fuses(self) -> bool {
        matches!(self, Dep::Elementwise | Dep::Fusable | Dep::Terminal)
    }

    /// Whether a kernel stays open to further members after this one.
    pub fn stays_open(self) -> bool {
        matches!(self, Dep::Elementwise | Dep::Fusable)
    }
}
