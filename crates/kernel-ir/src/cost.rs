//! Static cost metrics: instruction counts and register pressure.
//!
//! These numbers are the bridge between the compiler-side story (Table III)
//! and the performance-side story (the throughput figures): the virtual GPU
//! charges per-element compute time proportional to [`instruction_count`],
//! and charges *spill traffic* when register pressure exceeds the device's
//! per-thread register budget — the paper's stated limit on how many
//! kernels can profitably fuse (§III-C: "kernel fusion will create
//! increased register pressure").
//!
//! # Two register metrics
//!
//! [`distinct_regs`] counts every register that carries a used value — what
//! a back end that never reuses registers would allocate. [`max_live_regs`]
//! is the liveness-analysis maximum of *simultaneously* live registers —
//! what a back end that reuses registers across disjoint live ranges needs.
//! They diverge on any chain: in
//!
//! ```text
//! r0 = load in[0]
//! r1 = const 1
//! r2 = Add r0, r1
//! r3 = const 1
//! r4 = Add r2, r3
//! out[0] = r4
//! ```
//!
//! five registers carry used values (`distinct_regs` = 5) but at most two
//! are ever live at once (`max_live_regs` = 2): `r0`/`r1` die at the first
//! add. Occupancy and fusion-budget decisions must consume the liveness
//! metric; the distinct count only bounds it from above.
//!
//! [`max_live_regs`] is therefore the one *cost* metric: the fusion budget,
//! the occupancy/spill model and `EXPLAIN` all read it (per group through
//! `kfusion_core::cost::group_regs`, whose summed-per-member fallback
//! covers only groups that cannot be spliced into one body).
//! [`distinct_regs`] is reporting-only — Table III's no-reuse column and
//! the upper bound `tests/prop_dataflow.rs` holds the liveness metric to —
//! and no decision consumes it.
//!
//! Note that optimization can *raise* `max_live_regs` while lowering the
//! instruction count: CSE replaces a recomputation with an extended live
//! range (pinned in `tests/prop_dataflow.rs::cse_can_trade_recompute_for_pressure`).
//! That trade-off is why the fusion budget measures the final optimized
//! body instead of assuming passes only ever help.

use crate::dataflow::liveness;
use crate::ir::KernelBody;

/// Dynamic instructions per element: every IR instruction plus one store per
/// output slot (the PTX `st.global` the paper's counts include).
pub fn instruction_count(body: &KernelBody) -> usize {
    body.instrs.len() + body.outputs.len()
}

/// Number of distinct registers carrying a used value (read by some
/// instruction or exposed as an output) — the no-reuse upper bound on
/// register pressure. See the module docs for where this diverges from
/// [`max_live_regs`]; keep cost decisions on the latter.
pub fn distinct_regs(body: &KernelBody) -> usize {
    let n = body.instrs.len();
    let mut used = vec![false; n];
    for instr in &body.instrs {
        instr.for_each_operand(|r| used[r as usize] = true);
    }
    for &out in &body.outputs {
        used[out as usize] = true;
    }
    used.iter().filter(|&&u| u).count()
}

/// Maximum number of simultaneously-live registers, from backward liveness
/// analysis ([`crate::dataflow::liveness`]). This is the per-thread register
/// footprint a register-reusing back end allocates, and the number the
/// fusion cost model and the virtual GPU's occupancy/spill model consume.
///
/// Unlike an interval scan over definition-to-last-use ranges, liveness is
/// transitively precise: a dead instruction keeps nothing alive, not even
/// its operands.
pub fn max_live_regs(body: &KernelBody) -> usize {
    liveness::max_live_regs(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BodyBuilder, Expr};
    use crate::opt::{optimize, OptLevel};

    #[test]
    fn empty_body_has_zero_cost() {
        let body = KernelBody::new(0);
        assert_eq!(instruction_count(&body), 0);
        assert_eq!(max_live_regs(&body), 0);
        assert_eq!(distinct_regs(&body), 0);
    }

    #[test]
    fn instruction_count_includes_stores() {
        let body = BodyBuilder::threshold_lt(0, 10).build();
        assert_eq!(instruction_count(&body), body.instrs.len() + 1);
    }

    #[test]
    fn pressure_of_linear_chain_is_small() {
        // ((in+1)+1)+1: at any point at most 2 regs live.
        let mut b = BodyBuilder::new(1);
        b.emit_output(
            Expr::input(0).add(Expr::lit(1i64)).add(Expr::lit(1i64)).add(Expr::lit(1i64)),
        );
        let p = max_live_regs(&b.build());
        assert!(p <= 3, "chain pressure was {p}");
    }

    #[test]
    fn chain_metrics_diverge_as_documented() {
        // The module-docs example: distinct counts the whole chain, liveness
        // sees only two values alive at once.
        let mut b = BodyBuilder::new(1);
        b.emit_output(Expr::input(0).add(Expr::lit(1i64)).add(Expr::lit(1i64)));
        let body = b.build();
        assert_eq!(distinct_regs(&body), 5);
        assert_eq!(max_live_regs(&body), 2);
    }

    #[test]
    fn max_live_never_exceeds_distinct() {
        for body in [
            BodyBuilder::threshold_lt(0, 10).build(),
            crate::fuse::fuse_predicate_chain(
                &(0..8).map(|k| BodyBuilder::threshold_lt(0, 100 + k).build()).collect::<Vec<_>>(),
            ),
        ] {
            assert!(max_live_regs(&body) <= distinct_regs(&body), "{body}");
        }
    }

    #[test]
    fn pressure_grows_with_parallel_lives() {
        // Right-associated sum: naive lowering loads every input before the
        // innermost add executes, keeping all six live simultaneously.
        let mut b = BodyBuilder::new(6);
        let e = Expr::input(0).add(
            Expr::input(1)
                .add(Expr::input(2).add(Expr::input(3).add(Expr::input(4).add(Expr::input(5))))),
        );
        b.emit_output(e);
        let wide = max_live_regs(&b.build());

        let mut c = BodyBuilder::new(1);
        c.emit_output(Expr::input(0).add(Expr::lit(1i64)));
        let narrow = max_live_regs(&c.build());
        assert!(wide > narrow, "wide={wide} narrow={narrow}");
    }

    #[test]
    fn o3_does_not_increase_pressure_on_threshold() {
        let body = BodyBuilder::threshold_lt(0, 10).build();
        let o3 = optimize(&body, OptLevel::O3);
        assert!(max_live_regs(&o3) <= max_live_regs(&body));
    }

    #[test]
    fn fused_chain_pressure_bounded() {
        use crate::fuse::fuse_predicate_chain;
        let preds: Vec<_> = (0..8).map(|k| BodyBuilder::threshold_lt(0, 100 + k).build()).collect();
        let fused = fuse_predicate_chain(&preds);
        // Naive fused body holds every predicate result live until the ANDs;
        // pressure must reflect that (this is the paper's fusion limit).
        assert!(max_live_regs(&fused) >= 4);
    }
}
