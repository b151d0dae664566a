//! Back-to-back SELECT experiments — the workload behind the paper's
//! micro-benchmark figures (Figs. 4(a), 8, 9, 10, 11, 12, 14, 16).
//!
//! A [`SelectChain`] is the paper's workload: `k` SELECT operators applied
//! in sequence to `n` random 32-bit elements, each filtering an independent
//! pseudo-attribute derived from the element by multiplicative hashing (so
//! two 50% selections keep 25%, as the paper states). This module owns only
//! that description; [`run`] hands the chain, as a plan
//! ([`SelectChain::to_plan`]) with given cardinalities, to the one schedule
//! builder in [`crate::exec`] and returns its [`Report`].
//!
//! Data modes: `Real` generates, filters, and validates actual relations
//! (cardinalities are *measured*); `Synthetic` uses the expected
//! cardinalities so figure harnesses can sweep to the paper's 4-billion-
//! element x-axes without materializing 16 GB (the command stream and cost
//! model are identical — DESIGN.md §2 documents this substitution).

use crate::cost;
use crate::exec::{self, Cardinalities, ExecConfig, Strategy};
use crate::graph::{OpKind, PlanGraph};
use crate::report::Report;
use crate::CoreError;
use kfusion_ir::builder::{BodyBuilder, Expr};
use kfusion_ir::fuse::fuse_predicate_chain;
use kfusion_ir::opt::OptLevel;
use kfusion_ir::KernelBody;
use kfusion_relalg::{gen, ops, Relation};
use kfusion_vgpu::{Command, CommandClass, GpuSystem, HostMemKind, LaunchConfig, Schedule};

/// Where cardinalities come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Generate and actually filter relations; measure cardinalities.
    Real,
    /// Expected cardinalities only (for beyond-RAM sweeps).
    Synthetic,
}

/// The workload: a chain of SELECTs over random 32-bit elements.
#[derive(Debug, Clone)]
pub struct SelectChain {
    /// Element count.
    pub n: u64,
    /// Per-SELECT selectivity (independent attributes).
    pub selectivities: Vec<f64>,
    /// Logical bytes per element (4 in the paper's experiments).
    pub row_bytes: f64,
    /// RNG seed for `Real` mode.
    pub seed: u64,
    /// Real or synthetic cardinalities.
    pub mode: DataMode,
    /// Optimization level for kernel bodies.
    pub level: OptLevel,
}

/// Elements above which [`SelectChain::auto`] switches to synthetic mode.
pub const REAL_MODE_LIMIT: u64 = 1 << 26;

impl SelectChain {
    /// A chain over `n` elements with the given per-stage selectivities,
    /// choosing `Real` mode up to [`REAL_MODE_LIMIT`] elements and
    /// `Synthetic` beyond.
    pub fn auto(n: u64, selectivities: &[f64]) -> Self {
        SelectChain {
            n,
            selectivities: selectivities.to_vec(),
            row_bytes: 4.0,
            seed: 42,
            mode: if n <= REAL_MODE_LIMIT { DataMode::Real } else { DataMode::Synthetic },
            level: OptLevel::O3,
        }
    }

    /// Number of SELECT stages.
    pub fn depth(&self) -> usize {
        self.selectivities.len()
    }

    /// Stage `i`'s predicate: `((key * C_i) & 0xFFFF_FFFF) < t_i`.
    ///
    /// Multiplying by a per-stage odd constant is a bijection on the 32-bit
    /// key space, so each stage filters an (approximately) independent
    /// uniform attribute: chaining two 50% SELECTs keeps ~25%, exactly the
    /// paper's setup. Stage 0 uses the identity hash so single-SELECT
    /// experiments match Fig. 4(a) literally.
    pub fn predicate(&self, i: usize) -> KernelBody {
        let t = gen::threshold_for_selectivity(self.selectivities[i]) as i64;
        let mut b = BodyBuilder::new(1);
        let hashed = if i == 0 {
            Expr::input(0)
        } else {
            // Odd multipliers derived from the golden ratio, kept small so
            // the product stays within i64.
            let c = (0x9E37_79B9u64.wrapping_mul(2 * i as u64 + 1) & 0xF_FFFF) | 1;
            Expr::input(0).mul(Expr::lit(c as i64)).and(Expr::lit(0xFFFF_FFFFi64))
        };
        b.emit_output(Expr::select(hashed.lt(Expr::lit(t)), Expr::lit(true), Expr::lit(false)));
        b.build()
    }

    /// All stage predicates.
    pub fn predicates(&self) -> Vec<KernelBody> {
        (0..self.depth()).map(|i| self.predicate(i)).collect()
    }

    /// Cumulative cardinalities `[n, |after s1|, ..., |after sk|]`.
    ///
    /// `Real` mode measures them by running the chain functionally;
    /// `Synthetic` mode multiplies expected selectivities.
    pub fn cardinalities(&self) -> Result<Vec<u64>, CoreError> {
        match self.mode {
            DataMode::Synthetic => {
                let mut cards = vec![self.n];
                let mut cur = self.n as f64;
                for &s in &self.selectivities {
                    cur *= s;
                    cards.push(cur.round() as u64);
                }
                Ok(cards)
            }
            DataMode::Real => {
                let (_, counts) = self.materialize()?;
                let mut cards = vec![self.n];
                cards.extend(counts.iter().map(|&c| c as u64));
                Ok(cards)
            }
        }
    }

    /// Generate the input and run the chain functionally, returning the
    /// final relation and per-stage surviving counts.
    pub fn materialize(&self) -> Result<(Relation, Vec<usize>), CoreError> {
        let input = gen::random_keys(self.n as usize, self.seed);
        let (out, counts) = ops::select_chain_unfused(&input, &self.predicates())?;
        Ok((out, counts))
    }

    /// The chain as a plan: [`select_plan`] over the stage predicates.
    pub fn to_plan(&self) -> PlanGraph {
        select_plan(self.predicates())
    }

    /// `cards` (as [`SelectChain::cardinalities`] returns them) keyed by
    /// [`SelectChain::to_plan`]'s node ids.
    pub fn given(&self, cards: &[u64]) -> Cardinalities {
        Cardinalities { rows: cards.to_vec(), row_bytes: vec![self.row_bytes; cards.len()] }
    }
}

/// One `Input`, then one `Select` per predicate, each reading the last.
pub fn select_plan(preds: Vec<KernelBody>) -> PlanGraph {
    let mut g = PlanGraph::new();
    let mut cur = g.input(0);
    for pred in preds {
        cur = g.add(OpKind::Select { pred }, vec![cur]);
    }
    g
}

/// Simulate `chain` under `strategy` on `system`. In `Real` mode the
/// relations are actually filtered (and the measured cardinalities drive the
/// command stream).
pub fn run(
    system: &GpuSystem,
    chain: &SelectChain,
    strategy: Strategy,
) -> Result<Report, CoreError> {
    run_with_cards(system, chain, strategy, &chain.cardinalities()?)
}

/// [`run`] with precomputed cardinalities (lets harnesses reuse one
/// functional pass across strategies).
pub fn run_with_cards(
    system: &GpuSystem,
    chain: &SelectChain,
    strategy: Strategy,
    cards: &[u64],
) -> Result<Report, CoreError> {
    let cfg = ExecConfig { level: chain.level, ..ExecConfig::new(strategy, system) };
    exec::simulate_given(system, &chain.to_plan(), &chain.given(cards), &cfg)
}

/// The 16-thread CPU baseline of Fig. 4(a): the same chain on the Xeon
/// model (no PCIe in front of host memory).
pub fn run_cpu(cpu: &kfusion_vgpu::DeviceSpec, chain: &SelectChain) -> Result<Report, CoreError> {
    let cards = chain.cardinalities()?;
    let launch = LaunchConfig { ctas: cpu.sm_count * cpu.max_threads_per_sm, threads_per_cta: 1 };
    let mut total = 0.0;
    let mut spans = Vec::new();
    for i in 0..chain.depth() {
        let sel = stage_sel(&cards, i);
        let p = cost::cpu_select(chain.row_bytes, sel);
        let t = p.time(cpu, &launch, cards[i]);
        spans.push(kfusion_vgpu::des::Span {
            stream: 0,
            index: i,
            label: format!("cpu_select{i}"),
            class: CommandClass::Compute,
            engine: Some(kfusion_vgpu::Engine::Host),
            start: total,
            end: total + t,
        });
        total += t;
    }
    Ok(Report::from_row_bytes(kfusion_vgpu::Timeline { spans }, chain.n, chain.row_bytes))
}

fn stage_sel(cards: &[u64], i: usize) -> f64 {
    if cards[i] == 0 {
        0.0
    } else {
        cards[i + 1] as f64 / cards[i] as f64
    }
}

/// Fig. 12's three configurations for running SELECT(s) over `n` total
/// elements at `sel` selectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcurrentVariant {
    /// One SELECT, full launch configuration ("no stream (old)").
    NoStreamOld,
    /// One SELECT, half threads and CTAs ("no stream (new)").
    NoStreamNew,
    /// Two independent SELECTs of `n/2` each, half configuration, on two
    /// pool streams ("stream").
    Stream,
}

/// Run one Fig. 12 configuration end-to-end (transfers included, pinned as
/// async copies require). Halving a launch configuration is not a
/// fusion/fission strategy, so the three command streams are assembled
/// here, around the SELECT kernels [`exec`] emits for the node.
pub fn run_concurrent(
    system: &GpuSystem,
    n: u64,
    sel: f64,
    variant: ConcurrentVariant,
) -> Result<Report, CoreError> {
    let chain = SelectChain::auto(n, &[sel]);
    let cards = chain.cardinalities()?;
    let plan = chain.to_plan();
    let (io, pinned) = (CommandClass::InputOutput, HostMemKind::Pinned);
    let mk_cmds = |elems: u64, out: u64, halved: bool, tag: &str| {
        let given = chain.given(&[elems, out]);
        let mut cmds = vec![Command::h2d(format!("in{tag}"), io, given.bytes(0), pinned)];
        for (mut profile, elems) in cost::node_kernels(&plan, &given, plan.root, chain.level) {
            profile.name.push_str(tag);
            let launch = LaunchConfig::for_elements(elems.max(1), &system.spec);
            let launch = if halved { launch.halved() } else { launch };
            cmds.push(Command::kernel(profile, launch, elems));
        }
        cmds.push(Command::d2h(format!("out{tag}"), io, given.bytes(plan.root), pinned));
        cmds
    };
    let schedule = match variant {
        ConcurrentVariant::NoStreamOld => Schedule::serial(mk_cmds(n, cards[1], false, "")),
        ConcurrentVariant::NoStreamNew => Schedule::serial(mk_cmds(n, cards[1], true, "")),
        ConcurrentVariant::Stream => {
            let mut sched = Schedule::new();
            let a = sched.add_stream();
            let b = sched.add_stream();
            for cmd in mk_cmds(n / 2, cards[1] / 2, true, "[A]") {
                sched.push(a, cmd);
            }
            for cmd in mk_cmds(n - n / 2, cards[1] - cards[1] / 2, true, "[B]") {
                sched.push(b, cmd);
            }
            sched
        }
    };
    let timeline = system.simulate(&schedule)?;
    Ok(Report::from_row_bytes(timeline, n, chain.row_bytes))
}

/// Functional cross-check: the fused chain (single pass over the conjunction)
/// produces exactly the same relation as the unfused chain of SELECTs.
pub fn verify_chain_equivalence(chain: &SelectChain) -> Result<bool, CoreError> {
    let input = gen::random_keys(chain.n as usize, chain.seed);
    let preds = chain.predicates();
    let (unfused, _) = ops::select_chain_unfused(&input, &preds)?;
    let fused_pred = fuse_predicate_chain(&preds);
    let fused = ops::select(&input, &fused_pred)?;
    Ok(unfused == fused)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> GpuSystem {
        GpuSystem::c2070()
    }

    fn chain_2x50(n: u64) -> SelectChain {
        SelectChain::auto(n, &[0.5, 0.5])
    }

    #[test]
    fn real_cardinalities_match_expected_product() {
        // Two 50% SELECTs keep ~25% (paper §III-B).
        let chain = chain_2x50(1 << 20);
        let cards = chain.cardinalities().unwrap();
        let kept = cards[2] as f64 / cards[0] as f64;
        assert!((kept - 0.25).abs() < 0.01, "kept {kept}");
    }

    #[test]
    fn fused_equals_unfused_functionally() {
        let chain = SelectChain::auto(200_000, &[0.5, 0.3, 0.8]);
        assert!(verify_chain_equivalence(&chain).unwrap());
    }

    #[test]
    fn fused_beats_without_round_trip_beats_with_round_trip() {
        // Fig. 8(a)'s ordering.
        let chain = chain_2x50(1 << 22);
        let cards = chain.cardinalities().unwrap();
        let s = sys();
        let with_rt = run_with_cards(&s, &chain, Strategy::SerialRoundTrip, &cards).unwrap();
        let without = run_with_cards(&s, &chain, Strategy::Serial, &cards).unwrap();
        let fused = run_with_cards(&s, &chain, Strategy::Fusion, &cards).unwrap();
        assert!(
            fused.total() < without.total(),
            "fused {} vs without {}",
            fused.total(),
            without.total()
        );
        assert!(without.total() < with_rt.total());
    }

    #[test]
    fn compute_only_fusion_gain_is_large() {
        // Fig. 8(b): fused ~1.8x on the compute part.
        let chain = chain_2x50(1 << 22);
        let s = sys();
        let unfused = run(&s, &chain, Strategy::Serial).unwrap();
        let fused = run(&s, &chain, Strategy::Fusion).unwrap();
        let gain = unfused.compute_time() / fused.compute_time();
        assert!(gain > 1.4, "compute-only fusion gain {gain}");
    }

    #[test]
    fn round_trip_dominates_with_round_trip_breakdown() {
        // Fig. 9: round trip ≈ half of the with-round-trip execution.
        let chain = chain_2x50(1 << 24);
        let s = sys();
        let r = run(&s, &chain, Strategy::SerialRoundTrip).unwrap();
        let (_io, rt, _c) = r.breakdown_fractions();
        assert!(rt > 0.3, "round-trip share {rt}");
    }

    #[test]
    fn fission_beats_serial_on_large_data() {
        // Fig. 14's effect at a synthetic 2G elements.
        let chain = SelectChain::auto(2_000_000_000, &[0.5]);
        let s = sys();
        let cards = chain.cardinalities().unwrap();
        let serial = run_with_cards(&s, &chain, Strategy::SerialRoundTrip, &cards).unwrap();
        let fission =
            run_with_cards(&s, &chain, Strategy::Fission { segments: 32 }, &cards).unwrap();
        assert!(
            fission.total() < serial.total(),
            "fission {} vs serial {}",
            fission.total(),
            serial.total()
        );
    }

    #[test]
    fn fission_gantt_shows_overlapping_engines() {
        // Fig. 13 from a terminal: a real DES timeline through
        // `timeline_trace` + `Report::gantt`. Only the pipeline has several
        // engine rows busy in the same cells (boundary cells aside).
        let chain = SelectChain::auto(2_000_000_000, &[0.5]);
        let busy_together = |strategy| {
            let g = run(&sys(), &chain, strategy).unwrap().gantt(100);
            let rows: Vec<&[u8]> = g
                .lines()
                .filter_map(|l| Some(&l.as_bytes()[l.find('|')? + 1..l.len() - 1]))
                .collect();
            assert!(rows.len() >= 3, "H2D, compute and D2H rows:\n{g}");
            (0..100).filter(|&c| rows.iter().filter(|r| r[c] == b'#').count() > 1).count()
        };
        assert!(busy_together(Strategy::Serial) <= 6);
        assert!(busy_together(Strategy::Fission { segments: 32 }) > 50);
    }

    #[test]
    fn fig16_strategy_ordering() {
        // serial < fusion < fission < fusion+fission (in throughput).
        let chain = SelectChain::auto(1_000_000_000, &[0.5, 0.5]);
        let s = sys();
        let cards = chain.cardinalities().unwrap();
        let serial = run_with_cards(&s, &chain, Strategy::SerialRoundTrip, &cards).unwrap();
        let fused = run_with_cards(&s, &chain, Strategy::Fusion, &cards).unwrap();
        let fission =
            run_with_cards(&s, &chain, Strategy::Fission { segments: 32 }, &cards).unwrap();
        let both =
            run_with_cards(&s, &chain, Strategy::FusionFission { segments: 32 }, &cards).unwrap();
        assert!(fused.total() < serial.total());
        assert!(
            fission.total() < fused.total(),
            "fission {} vs fused {}",
            fission.total(),
            fused.total()
        );
        // Both pipelines are transfer-bound at this size; fusing the kernels
        // inside the pipeline must never hurt, and usually shaves a little.
        assert!(
            both.total() <= fission.total() * 1.01,
            "fused pipeline worse: {} vs {}",
            both.total(),
            fission.total()
        );
    }

    #[test]
    fn concurrent_stream_beats_halved_serial() {
        // Fig. 12: stream > no stream (new) everywhere.
        let s = sys();
        for n in [1u64 << 22, 1 << 25] {
            let new = run_concurrent(&s, n, 0.5, ConcurrentVariant::NoStreamNew).unwrap();
            let stream = run_concurrent(&s, n, 0.5, ConcurrentVariant::Stream).unwrap();
            assert!(
                stream.total() < new.total(),
                "stream {} vs new {} at n={n}",
                stream.total(),
                new.total()
            );
        }
    }

    #[test]
    fn halved_config_is_slower_than_full() {
        // Fig. 12: no stream (new) < no stream (old) everywhere.
        let s = sys();
        let old = run_concurrent(&s, 1 << 25, 0.5, ConcurrentVariant::NoStreamOld).unwrap();
        let new = run_concurrent(&s, 1 << 25, 0.5, ConcurrentVariant::NoStreamNew).unwrap();
        assert!(old.total() < new.total());
    }

    #[test]
    fn deeper_fusion_helps_more() {
        // Fig. 11(a): fusing 3 SELECTs gains more than fusing 2.
        let s = sys();
        let two = SelectChain::auto(1 << 22, &[0.5, 0.5]);
        let three = SelectChain::auto(1 << 22, &[0.5, 0.5, 0.5]);
        let gain = |c: &SelectChain| {
            let cards = c.cardinalities().unwrap();
            let unfused = run_with_cards(&s, c, Strategy::Serial, &cards).unwrap();
            let fused = run_with_cards(&s, c, Strategy::Fusion, &cards).unwrap();
            unfused.compute_time() / fused.compute_time()
        };
        let g2 = gain(&two);
        let g3 = gain(&three);
        assert!(g3 > g2, "gain3 {g3} <= gain2 {g2}");
    }

    #[test]
    fn non_divisible_sizes_are_segmented_exactly() {
        // 100 000 019 elements over 32 segments: `round(n / 32)` per segment
        // covers 100 000 032. Per-segment uploads and per-segment launches of
        // every kernel must sum to exactly the unsegmented command's size.
        use kfusion_vgpu::des::CommandKind;
        let s = sys();
        let mut chain = chain_2x50(100_000_019);
        chain.mode = DataMode::Synthetic;
        let given = chain.given(&chain.cardinalities().unwrap());
        for fused in [false, true] {
            let (whole, piped) = if fused {
                (Strategy::Fusion, Strategy::FusionFission { segments: 32 })
            } else {
                (Strategy::Serial, Strategy::Fission { segments: 32 })
            };
            let sizes = |strategy| {
                let cfg = ExecConfig::new(strategy, &s);
                let sched = exec::schedule_given(&s, &chain.to_plan(), &given, &cfg).unwrap();
                let mut by_name = std::collections::BTreeMap::<String, (u64, u32)>::new();
                for cmd in sched.streams.iter().flatten() {
                    let size = match &cmd.kind {
                        CommandKind::CopyH2D { bytes, .. } => *bytes,
                        CommandKind::Kernel { elems, .. } => *elems,
                        _ => continue,
                    };
                    let name = cmd.label.split('[').next().unwrap().to_string();
                    let e = by_name.entry(name).or_default();
                    *e = (e.0 + size, e.1 + 1);
                }
                by_name
            };
            let (whole, piped) = (sizes(whole), sizes(piped));
            assert_eq!(whole["in#0"], (400_000_076, 1));
            assert_eq!(whole.len(), piped.len());
            for (name, (total, pieces)) in &piped {
                assert_eq!(*pieces, 32, "{name} was not pipelined");
                assert_eq!(*total, whole[name].0, "{name}: segments do not sum to the whole");
            }
        }
    }

    #[test]
    fn synthetic_and_real_cards_agree() {
        let mut chain = chain_2x50(1 << 20);
        chain.mode = DataMode::Real;
        let real = chain.cardinalities().unwrap();
        chain.mode = DataMode::Synthetic;
        let synth = chain.cardinalities().unwrap();
        for (r, s) in real.iter().zip(&synth) {
            let diff = (*r as f64 - *s as f64).abs() / (*s as f64).max(1.0);
            assert!(diff < 0.02, "real {r} vs synth {s}");
        }
    }
}
