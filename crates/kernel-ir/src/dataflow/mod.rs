//! Dataflow analyses over straight-line [`KernelBody`] programs.
//!
//! The optimizer passes in [`crate::opt`] each carry a private, ad-hoc walk
//! of the body; this module factors the walking into one generic fixpoint
//! driver ([`solve`]) and expresses the classic analyses on top of it:
//!
//! * [`liveness`] — backward; powers the register-pressure metric that
//!   drives fusion-depth decisions ([`crate::cost::max_live_regs`]) and the
//!   dead-code / unused-input-slot lints.
//! * [`available`] — forward available expressions (the analysis CSE
//!   implicitly computes); surfaces missed-CSE facts for diagnostics.
//! * [`range`] — forward value-range (interval) abstract interpretation;
//!   proves predicates always-true/always-false and powers the
//!   dead-branch simplification pass ([`crate::opt::simplify_ranges`]).
//!
//! On straight-line SSA a single sweep in the right direction reaches the
//! fixpoint; the driver still iterates until the facts stop changing so the
//! framework generalizes (and so tests can *assert* convergence instead of
//! assuming it).

pub mod available;
pub mod liveness;
pub mod range;

use crate::ir::KernelBody;

/// Sweep direction of an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the first instruction to the last.
    Forward,
    /// Facts flow from the last instruction to the first.
    Backward,
}

/// Iteration cap of the fixpoint driver. Straight-line programs converge in
/// one sweep (plus one to confirm); the cap is a backstop so a buggy
/// transfer function cannot hang the compiler.
pub const MAX_SWEEPS: usize = 8;

/// One dataflow analysis: a fact lattice element per program point, a
/// boundary fact, and a per-instruction transfer function.
pub trait Analysis {
    /// The lattice element tracked at each program point.
    type Fact: Clone + PartialEq;

    /// Which way facts propagate.
    fn direction(&self) -> Direction;

    /// The fact at the boundary point (entry for forward analyses, exit for
    /// backward ones). Also used to seed every interior point.
    fn boundary(&self, body: &KernelBody) -> Self::Fact;

    /// The fact after instruction `idx` given the fact before it (forward),
    /// or before `idx` given the fact after it (backward).
    fn transfer(&self, body: &KernelBody, idx: usize, fact: &Self::Fact) -> Self::Fact;
}

/// A solved analysis: one fact per program point, plus convergence data.
///
/// Program point `i` sits *before* instruction `i`; point `n` (for a body of
/// `n` instructions) sits after the last instruction.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// `facts[i]` — the fact at program point `i` (length `n + 1`).
    pub facts: Vec<F>,
    /// Sweeps the driver ran, including the final confirming sweep.
    pub sweeps: usize,
    /// Whether a sweep completed with no fact changing. With
    /// [`MAX_SWEEPS`] ≥ 2 this is always true on straight-line bodies.
    pub converged: bool,
}

impl<F> Solution<F> {
    /// The fact before instruction `idx`.
    pub fn before(&self, idx: usize) -> &F {
        &self.facts[idx]
    }

    /// The fact after instruction `idx`.
    pub fn after(&self, idx: usize) -> &F {
        &self.facts[idx + 1]
    }
}

/// Run `analysis` over `body` to a fixpoint (bounded by [`MAX_SWEEPS`]).
pub fn solve<A: Analysis>(analysis: &A, body: &KernelBody) -> Solution<A::Fact> {
    let n = body.instrs.len();
    let mut facts = vec![analysis.boundary(body); n + 1];
    let mut sweeps = 0;
    let mut converged = false;
    while sweeps < MAX_SWEEPS {
        sweeps += 1;
        let mut changed = false;
        match analysis.direction() {
            Direction::Forward => {
                for i in 0..n {
                    let f = analysis.transfer(body, i, &facts[i]);
                    if f != facts[i + 1] {
                        facts[i + 1] = f;
                        changed = true;
                    }
                }
            }
            Direction::Backward => {
                for i in (0..n).rev() {
                    let f = analysis.transfer(body, i, &facts[i + 1]);
                    if f != facts[i] {
                        facts[i] = f;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    Solution { facts, sweeps, converged }
}

/// A dense bitset over register (or slot) indices — the fact type of the
/// set-valued analyses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set sized for `n` elements.
    pub fn new(n: usize) -> Self {
        BitSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Insert `i`; returns whether it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        if w < self.words.len() {
            self.words[w] &= !(1 << b);
        }
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter(move |b| w & (1 << b) != 0).map(move |b| wi * 64 + b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(70);
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(s.insert(65));
        assert!(!s.insert(3), "reinsert reports not-fresh");
        assert_eq!(s.len(), 2);
        assert!(s.contains(65) && !s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 65]);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bitset_grows_on_demand() {
        let mut s = BitSet::new(0);
        assert!(s.insert(200));
        assert!(s.contains(200));
    }
}
