//! Structural plan fingerprints — the key of the server's plan cache.
//!
//! Kernel Weaver's premise is that the verify → fuse → optimize pipeline
//! is worth paying **once per plan shape**: structurally identical plans
//! share one compiled [`FusionPlan`](crate::fusion::FusionPlan). The cache
//! key must be purely structural — two independently built `PlanGraph`s
//! with the same operators, bodies and wiring collide — and wide enough
//! that accidental collisions are negligible.
//!
//! The plan types' derived [`Hash`] (literals by their bits) is the one
//! description of a plan's structure; [`fingerprint_plan`] feeds it through
//! a [`Hasher`] that folds every word into **two independent 64-bit mix
//! lanes** (splitmix64-style finalizers with different seeds). Even a
//! collision cannot corrupt an answer: a prepared plan that does not
//! partition the graph it is handed
//! ([`FusionPlan::covers`](crate::fusion::FusionPlan::covers)) is
//! recompiled, and any partition gives the same answer (DESIGN.md, "Plan
//! fingerprints and the cache").

use crate::cost::FusionBudget;
use crate::graph::{NodeId, PlanGraph};
use kfusion_ir::opt::OptLevel;
use std::hash::{Hash, Hasher};

/// A 128-bit structural fingerprint (two independent 64-bit lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u64; 2]);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// The full plan-cache key: plan structure plus every knob the fusion pass
/// reads ([`FusionBudget`] and [`OptLevel`]). Two executions with equal
/// keys run the identical verify → fuse → optimize pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structural fingerprint of the graph.
    pub plan: Fingerprint,
    /// Register budget the fusion pass was given.
    pub max_regs_per_thread: u32,
    /// IR optimization level.
    pub level: OptLevel,
}

impl PlanKey {
    /// The cache key for fusing `graph` under `budget` at `level`.
    pub fn new(graph: &PlanGraph, budget: &FusionBudget, level: OptLevel) -> Self {
        PlanKey {
            plan: fingerprint_plan(graph),
            max_regs_per_thread: budget.max_regs_per_thread,
            level,
        }
    }
}

/// Two-lane mixer: the same word stream folded through two splitmix64
/// finalizers with independent seeds/increments.
struct Mixer {
    lanes: [u64; 2],
}

const LANE_SEEDS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xd1b5_4a32_d192_ed03];
const LANE_STEPS: [u64; 2] = [0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb];

impl Mixer {
    fn word(&mut self, w: u64) {
        for (lane, step) in self.lanes.iter_mut().zip(LANE_STEPS) {
            let mut z = (*lane ^ w).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(step);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *lane = z ^ (z >> 31);
        }
    }

    /// Both lanes after hashing `value` into a fresh mixer.
    fn fingerprint(value: &impl Hash) -> Fingerprint {
        let mut m = Mixer { lanes: LANE_SEEDS };
        value.hash(&mut m);
        Fingerprint(m.lanes)
    }
}

/// Every integer the derived `Hash`es write — discriminants, lengths,
/// registers, columns, literal bits — is one word. Byte slices (a slice of
/// integers hashes as its bytes) fold 8 bytes a word, the last zero-padded:
/// the derive writes every slice's length before it, so no byte count is
/// needed to tell `[1]` from `[1, 0]`. Without `#[inline]` every word is a
/// call from the codegen units the derives land in (~40 % slower a plan).
impl Hasher for Mixer {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            self.word(u64::from_le_bytes(*w));
        }
        if !tail.is_empty() {
            let mut last = [0; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.word(i as u64);
    }

    /// The first lane; the fingerprint is both.
    fn finish(&self) -> u64 {
        self.lanes[0]
    }
}

/// Fingerprint the structure of `graph`: node kinds (bodies included),
/// edges, and the root, in topological order.
pub fn fingerprint_plan(graph: &PlanGraph) -> Fingerprint {
    Mixer::fingerprint(graph)
}

/// Fingerprint a multi-root merged plan: the graph plus every root, in
/// order — so the same batch composition (and only that) gets a cache hit.
pub fn fingerprint_multi(graph: &PlanGraph, roots: &[NodeId]) -> Fingerprint {
    Mixer::fingerprint(&(graph, roots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpKind;
    use kfusion_ir::ir::Instr;
    use kfusion_ir::value::Value;
    use kfusion_ir::KernelBody;
    use kfusion_relalg::ops::{Agg, SortBy};
    use kfusion_relalg::predicates;

    fn chain(thresholds: &[u64]) -> PlanGraph {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for &t in thresholds {
            cur = g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![cur]);
        }
        g
    }

    #[test]
    fn identical_structure_same_fingerprint() {
        assert_eq!(fingerprint_plan(&chain(&[10, 20])), fingerprint_plan(&chain(&[10, 20])));
    }

    #[test]
    fn predicate_constants_distinguish_plans() {
        assert_ne!(fingerprint_plan(&chain(&[10, 20])), fingerprint_plan(&chain(&[10, 21])));
    }

    #[test]
    fn shape_changes_distinguish_plans() {
        assert_ne!(fingerprint_plan(&chain(&[10])), fingerprint_plan(&chain(&[10, 10])));
        // Same nodes, different wiring: two selects off one input vs chained.
        let mut fan = PlanGraph::new();
        let i = fan.input(0);
        let a = fan.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let _b = fan.add(OpKind::Select { pred: predicates::key_lt(20) }, vec![i]);
        let _ = a;
        assert_ne!(fingerprint_plan(&fan), fingerprint_plan(&chain(&[10, 20])));
    }

    #[test]
    fn input_index_is_structural() {
        let mut g = PlanGraph::new();
        let i = g.input(1);
        g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        assert_ne!(fingerprint_plan(&g), fingerprint_plan(&chain(&[10])));
    }

    #[test]
    fn plan_key_separates_budget_and_level() {
        let g = chain(&[10]);
        let b63 = FusionBudget { max_regs_per_thread: 63 };
        let b32 = FusionBudget { max_regs_per_thread: 32 };
        let k1 = PlanKey::new(&g, &b63, OptLevel::O3);
        assert_eq!(k1, PlanKey::new(&g, &b63, OptLevel::O3));
        assert_ne!(k1, PlanKey::new(&g, &b32, OptLevel::O3));
        assert_ne!(k1, PlanKey::new(&g, &b63, OptLevel::O0));
    }

    #[test]
    fn multi_fingerprint_covers_roots() {
        let merged = crate::multiquery::merge_plans(&[chain(&[10]), chain(&[20])]);
        let fp = fingerprint_multi(&merged.graph, &merged.roots);
        assert_eq!(fp, fingerprint_multi(&merged.graph, &merged.roots));
        assert_ne!(fp, fingerprint_multi(&merged.graph, &[merged.roots[0]]));
        assert_ne!(fp, fingerprint_plan(&merged.graph));
    }

    #[test]
    fn float_literals_hash_by_bits() {
        let body = |v: f64| {
            let mut b = kfusion_ir::builder::BodyBuilder::new(1);
            b.emit_output(
                kfusion_ir::builder::Expr::input(0).add(kfusion_ir::builder::Expr::lit(v)),
            );
            b.build()
        };
        let plan = |v: f64| {
            let mut g = PlanGraph::new();
            let i = g.input(0);
            g.add(OpKind::Arith { body: body(v) }, vec![i]);
            g
        };
        assert_eq!(fingerprint_plan(&plan(1.5)), fingerprint_plan(&plan(1.5)));
        assert_ne!(fingerprint_plan(&plan(0.0)), fingerprint_plan(&plan(-0.0)));
    }

    /// A plan whose root is `kind` over as many leaves as it reads.
    fn lone(kind: OpKind) -> PlanGraph {
        let mut g = PlanGraph::new();
        let leaves = [g.input(0), g.input(1)];
        let arity = kind.arity();
        g.add(kind, leaves[..arity].to_vec());
        g
    }

    fn body(instrs: Vec<Instr>, outputs: Vec<u32>, n_inputs: u32) -> KernelBody {
        KernelBody { instrs, outputs, n_inputs }
    }

    #[test]
    fn every_operator_and_payload_field_reaches_the_fingerprint() {
        let mut kinds = crate::graph::tests::all_kinds();
        let c = 1;
        kinds.extend(
            [Agg::Sum(c), Agg::Min(c), Agg::Max(c), Agg::Avg(c)]
                .map(|a| OpKind::Aggregate { aggs: vec![a] }),
        );
        kinds.extend(
            [
                SortBy::KeyDesc,
                SortBy::I64Col(c),
                SortBy::I64ColDesc(c),
                SortBy::F64Col(c),
                SortBy::F64ColDesc(c),
            ]
            .map(|by| OpKind::Sort { by }),
        );
        kinds.push(OpKind::Project { keep: vec![0, 1] });
        kinds.push(OpKind::Project { keep: vec![1, 0] });
        kinds.push(OpKind::Rekey { col: 1 });
        let loads = || vec![Instr::LoadInput { slot: 0 }, Instr::LoadInput { slot: 1 }];
        kinds.push(OpKind::Arith { body: body(loads(), vec![0, 1], 2) });
        kinds.push(OpKind::Arith { body: body(loads(), vec![0, 1], 3) });
        kinds.push(OpKind::Arith { body: body(loads(), vec![1, 0], 2) });
        for payload in [1, 2] {
            let nan = Value::F64(f64::from_bits(0x7ff8_0000_0000_0000 | payload));
            kinds.push(OpKind::Arith { body: body(vec![Instr::Const { value: nan }], vec![0], 0) });
        }

        let prints: Vec<(String, Fingerprint)> =
            kinds.into_iter().map(|k| (format!("{k:?}"), fingerprint_plan(&lone(k)))).collect();
        for (i, (a, fa)) in prints.iter().enumerate() {
            for (b, fb) in &prints[i + 1..] {
                assert_ne!(fa, fb, "{a} and {b} share a fingerprint");
            }
        }
    }
}
