//! Backward liveness analysis.
//!
//! A register is *live* at a program point when some instruction at or after
//! that point (or an output slot) reads it. The maximum number of registers
//! simultaneously live — [`max_live_regs`] — is the per-thread register
//! footprint a back end that reuses registers across disjoint live ranges
//! would allocate, and is the number the fusion cost model and the virtual
//! GPU's occupancy model consume (paper §III-C: fusing too many kernels
//! "will create increased register pressure").

use super::{solve, Analysis, BitSet, Direction, Solution};
use crate::ir::{Instr, KernelBody};

/// The liveness analysis: backward, facts are sets of live registers.
pub struct Liveness;

impl Analysis for Liveness {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    /// At the exit point, exactly the output registers are live.
    fn boundary(&self, body: &KernelBody) -> BitSet {
        let mut out = BitSet::new(body.instrs.len());
        for &r in &body.outputs {
            out.insert(r as usize);
        }
        out
    }

    /// live_in(i) = (live_out(i) \ {def(i)}) ∪ uses(i), with the standard
    /// refinement that a dead definition contributes no uses — a value
    /// nobody reads is never materialized, so its operands are not kept
    /// alive on its behalf.
    fn transfer(&self, body: &KernelBody, idx: usize, after: &BitSet) -> BitSet {
        let mut live = after.clone();
        let defined_live = live.contains(idx);
        live.remove(idx);
        if defined_live {
            body.instrs[idx].for_each_operand(|r| {
                live.insert(r as usize);
            });
        }
        live
    }
}

/// Solve liveness for `body`: `facts[i]` is the set of registers live
/// *before* instruction `i`; `facts[n]` is the output set.
pub fn analyze(body: &KernelBody) -> Solution<BitSet> {
    solve(&Liveness, body)
}

/// Maximum number of simultaneously-live registers at any program point.
///
/// The count at point `i + 1` includes the value instruction `i` just
/// defined, so a definition and its operands briefly coexist — matching the
/// interval-scan metric this analysis replaces and what a real allocator
/// must hold across the defining instruction.
pub fn max_live_regs(body: &KernelBody) -> usize {
    analyze(body).facts.iter().map(BitSet::len).max().unwrap_or(0)
}

/// Instructions whose results never reach an output: not live immediately
/// after their own definition. These are exactly what DCE deletes — and
/// exactly what a lint should surface, because dead code in an authored
/// kernel is usually a wiring mistake, not an optimization opportunity.
pub fn dead_instrs(body: &KernelBody) -> Vec<usize> {
    let sol = analyze(body);
    (0..body.instrs.len()).filter(|&i| !sol.after(i).contains(i)).collect()
}

/// Input slots that are read by at least one *live* instruction.
///
/// A slot outside this set is either never loaded at all or loaded only by
/// dead code — either way the kernel's declared interface promises a column
/// it does not consume.
pub fn live_slots(body: &KernelBody) -> BitSet {
    let sol = analyze(body);
    let mut slots = BitSet::new(body.n_inputs as usize);
    for (i, instr) in body.instrs.iter().enumerate() {
        if let Instr::LoadInput { slot } = instr {
            if sol.after(i).contains(i) {
                slots.insert(*slot as usize);
            }
        }
    }
    slots
}

/// Input slots that are declared but never consumed (see [`live_slots`]),
/// restricted to slots some *other* declared slot outranks — i.e. the body
/// loads something, so the unconsumed slots are anomalies rather than a
/// deliberately constant kernel.
pub fn unused_loaded_slots(body: &KernelBody) -> Vec<u32> {
    let live = live_slots(body);
    let mut loaded = BitSet::new(body.n_inputs as usize);
    for instr in &body.instrs {
        if let Instr::LoadInput { slot } = instr {
            loaded.insert(*slot as usize);
        }
    }
    loaded.iter().filter(|&s| !live.contains(s)).map(|s| s as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BodyBuilder, Expr};
    use crate::ir::{BinOp, Instr};
    use crate::value::Value;

    /// Independent reference: the definition-to-last-use interval scan that
    /// the cost metric used before it delegated to liveness.
    fn interval_scan_pressure(body: &KernelBody) -> usize {
        let n = body.instrs.len();
        if n == 0 {
            return 0;
        }
        let mut last_use = vec![usize::MAX; n];
        for (i, instr) in body.instrs.iter().enumerate() {
            instr.for_each_operand(|r| last_use[r as usize] = i);
        }
        for &out in &body.outputs {
            last_use[out as usize] = n;
        }
        let mut delta = vec![0isize; n + 2];
        for (def, &lu) in last_use.iter().enumerate() {
            if lu == usize::MAX {
                continue;
            }
            delta[def + 1] += 1;
            delta[lu.min(n) + 1] -= 1;
        }
        let mut live = 0isize;
        let mut max_live = 0isize;
        for d in delta {
            live += d;
            max_live = max_live.max(live);
        }
        max_live as usize
    }

    #[test]
    fn straight_chain_keeps_two_live() {
        let mut b = BodyBuilder::new(1);
        b.emit_output(
            Expr::input(0).add(Expr::lit(1i64)).add(Expr::lit(1i64)).add(Expr::lit(1i64)),
        );
        let body = b.build();
        assert!(max_live_regs(&body) <= 3, "chain: {}", max_live_regs(&body));
    }

    #[test]
    fn matches_interval_scan_metric() {
        for body in [
            BodyBuilder::threshold_lt(0, 10).build(),
            crate::fuse::fuse_predicate_chain(
                &(0..6).map(|k| BodyBuilder::threshold_lt(0, k).build()).collect::<Vec<_>>(),
            ),
        ] {
            // No transitively-dead code in these bodies, so liveness and the
            // interval scan agree exactly; with dead code liveness is lower
            // (see `dead_chain_is_reported_transitively`).
            assert_eq!(max_live_regs(&body), interval_scan_pressure(&body), "{body}");
        }
    }

    #[test]
    fn dead_chain_is_reported_transitively() {
        // r0 = load, r1 = const, r2 = r0+r1 (dead), output = r0.
        let mut b = KernelBody::new(1);
        let x = b.push(Instr::LoadInput { slot: 0 });
        let c = b.push(Instr::Const { value: Value::I64(1) });
        let _s = b.push(Instr::Bin { op: BinOp::Add, lhs: x, rhs: c });
        b.outputs.push(x);
        // The add is dead; the const feeds only the dead add, so it is dead
        // too; the load is the output and stays.
        assert_eq!(dead_instrs(&b), vec![1, 2]);
        assert_eq!(max_live_regs(&b), 1, "dead code must not inflate pressure");
    }

    #[test]
    fn unused_loaded_slot_detected() {
        let mut b = KernelBody::new(3);
        let x = b.push(Instr::LoadInput { slot: 0 });
        let _dead = b.push(Instr::LoadInput { slot: 1 });
        b.outputs.push(x);
        assert_eq!(unused_loaded_slots(&b), vec![1]);
        // Slot 2 is never even loaded; only the loaded-but-dead slot is an
        // anomaly under this lint (subset reads are the calling convention).
        let live = live_slots(&b);
        assert!(live.contains(0) && !live.contains(1) && !live.contains(2));
    }

    #[test]
    fn converges_in_one_sweep_plus_confirmation() {
        let body = BodyBuilder::threshold_lt(0, 10).build();
        let sol = analyze(&body);
        assert!(sol.converged);
        assert!(sol.sweeps <= 2, "straight-line liveness took {} sweeps", sol.sweeps);
    }

    #[test]
    fn empty_body_has_no_live_regs() {
        assert_eq!(max_live_regs(&KernelBody::new(0)), 0);
        assert!(dead_instrs(&KernelBody::new(0)).is_empty());
    }
}
