//! `demo-defects`: one seeded instance of each major defect class the lint
//! catalog (DESIGN.md §8) exists to catch.
//!
//! Shared between `kfusion-lint` (which renders/JSON-exports the report and
//! exits nonzero) and the golden test pinning the JSON output format. Each
//! entry is deliberately minimal — the smallest program that trips exactly
//! the intended lint.

use crate::lint::{
    lint_body, lint_certificates, lint_fusion, lint_model_violation, lint_schedule, LintReport,
};
use kfusion_core::cost::STAGE_REGS;
use kfusion_core::graph::{OpKind, PlanGraph};
use kfusion_core::{FusionBudget, FusionPlan};
use kfusion_ir::opt::OptLevel;
use kfusion_ir::{BinOp, CmpOp, Instr, KernelBody, Value};
use kfusion_model::{ViolationInfo, ViolationKind};
use kfusion_relalg::predicates;
use kfusion_vgpu::des::{Command, CommandClass, EventId, Schedule};
use kfusion_vgpu::{DeviceSpec, HostMemKind, KernelProfile, LaunchConfig};

/// Lint a deliberately broken plan/schedule/protocol corpus; always fails.
pub fn demo_defects() -> LintReport {
    let mut report = LintReport::default();

    // 1. A loaded-but-dead input slot (also dead code in the authored body).
    let dead_load = KernelBody {
        instrs: vec![
            Instr::LoadInput { slot: 0 },
            Instr::LoadInput { slot: 1 }, // never used
            Instr::Const { value: Value::I64(10) },
            Instr::Cmp { op: CmpOp::Lt, lhs: 0, rhs: 2 },
        ],
        outputs: vec![3],
        n_inputs: 2,
    };
    report.lints.extend(lint_body("defect: dead load", &dead_load, true));

    // 2. Dead arithmetic the author left behind (O3 removes it; the lint
    //    points at the source).
    let dead_math = KernelBody {
        instrs: vec![
            Instr::LoadInput { slot: 0 },
            Instr::Const { value: Value::I64(2) },
            Instr::Bin { op: BinOp::Mul, lhs: 0, rhs: 1 }, // dead
            Instr::Const { value: Value::I64(50) },
            Instr::Cmp { op: CmpOp::Lt, lhs: 0, rhs: 3 },
        ],
        outputs: vec![4],
        n_inputs: 1,
    };
    report.lints.extend(lint_body("defect: dead math", &dead_math, true));

    // 3. A filter that value-range analysis proves rejects every row:
    //    (x % 10) >= 100.
    let always_false = KernelBody {
        instrs: vec![
            Instr::LoadInput { slot: 0 },
            Instr::Const { value: Value::I64(10) },
            Instr::Bin { op: BinOp::Rem, lhs: 0, rhs: 1 },
            Instr::Const { value: Value::I64(100) },
            Instr::Cmp { op: CmpOp::Ge, lhs: 2, rhs: 3 },
        ],
        outputs: vec![4],
        n_inputs: 1,
    };
    report.lints.extend(lint_body("defect: impossible filter", &always_false, true));

    // 4. A hand-built fusion group whose analyzed register pressure blows
    //    the budget (six distinct-column predicates under a tiny budget).
    let mut g = PlanGraph::new();
    let mut cur = g.input(0);
    let mut members = Vec::new();
    for k in 0..6 {
        cur = g.add(OpKind::Select { pred: predicates::col_cmp_i64(k, CmpOp::Lt, 100) }, vec![cur]);
        members.push(cur);
    }
    let mut group_of = vec![None; g.nodes.len()];
    for &m in &members {
        group_of[m] = Some(0);
    }
    let fusion = FusionPlan { group_of, groups: vec![members] };
    let tiny = FusionBudget { max_regs_per_thread: STAGE_REGS + 2 };
    report.lints.extend(lint_fusion(&g, &fusion, &tiny, OptLevel::O3));

    // 5. A well-typed body the batch engine cannot take: its input slot
    //    demands a bool column, which no relational column supplies, so
    //    execution falls back to the per-tuple scalar interpreter.
    let bool_slot = KernelBody {
        instrs: vec![
            Instr::LoadInput { slot: 0 },
            Instr::Const { value: Value::I64(1) },
            Instr::LoadInput { slot: 1 },
            Instr::Select { cond: 2, then_r: 0, else_r: 1 },
        ],
        outputs: vec![3],
        n_inputs: 2,
    };
    report.lints.extend(lint_body("defect: unvectorizable body", &bool_slot, false));

    // 6. A single-stream schedule that serializes PCIe against compute.
    let spec = DeviceSpec::tesla_c2070();
    let k = KernelProfile::new("filter").instr_per_elem(8.0).bytes_read_per_elem(4.0);
    let serial = Schedule::serial(vec![
        Command::h2d("in", CommandClass::InputOutput, 64 << 20, HostMemKind::Pinned),
        Command::kernel(k.clone(), LaunchConfig::for_elements(1 << 20, &spec), 1 << 20)
            .reading("in"),
    ]);
    report.lints.extend(lint_schedule("defect: serial pipeline", &serial));

    // 7. A semantics-changing rewrite: the "optimizer" flipped the compare
    //    direction. The translation validator refutes it with a witness.
    {
        use kfusion_ir::builder::BodyBuilder;
        let original = BodyBuilder::threshold_lt(0, 100).build();
        let mut flipped = original.clone();
        for instr in &mut flipped.instrs {
            if let Instr::Cmp { op: op @ CmpOp::Lt, .. } = instr {
                *op = CmpOp::Gt;
            }
        }
        report.lints.extend(crate::lint::lint_rewrite(
            "defect: sign-flipped rewrite",
            &original,
            &flipped,
        ));
    }

    // 8. An off-by-one fission segmentation: segment 2 starts one element
    //    early, so the boundary element is computed twice.
    let mut segs = kfusion_vgpu::segment::partition(1 << 20, 4);
    segs[2].lo -= 1;
    report.lints.extend(crate::lint::lint_segments(
        "defect: overlapping fission segments",
        1 << 20,
        &segs,
    ));

    // 9. A cross-stream wait cycle: stream 0 waits on an event stream 1
    //    records only after waiting on an event stream 0 records only after
    //    its own wait. The wait-for-graph certifier refuses to certify it
    //    and names the cycle.
    let mut cyclic = Schedule::new();
    let s0 = cyclic.add_stream();
    let s1 = cyclic.add_stream();
    cyclic.push(s0, Command::wait(EventId(1)));
    cyclic.push(s0, Command::record(EventId(0)));
    cyclic.push(s1, Command::wait(EventId(0)));
    cyclic.push(s1, Command::record(EventId(1)));
    // 10. Two fission half-inputs staged concurrently on a (shrunken) device
    //     that can hold only one: the peak-memory certifier names the
    //     kernel launch where both are resident.
    let mut small = DeviceSpec::tesla_c2070();
    small.mem_capacity = 96 << 20;
    let over = Schedule::serial(vec![
        Command::h2d("seg0", CommandClass::InputOutput, 64 << 20, HostMemKind::Pinned),
        Command::h2d("seg1", CommandClass::InputOutput, 64 << 20, HostMemKind::Pinned),
        Command::kernel(k, LaunchConfig::for_elements(1 << 20, &small), 1 << 20)
            .reading("seg0")
            .reading("seg1"),
    ]);
    for (origin, sched) in [("defect: cyclic schedule", &cyclic), ("defect: over-capacity", &over)]
    {
        report.lints.extend(lint_certificates(origin, sched, &small));
    }

    // 11. An unchecked condvar wait, as the model checker reports it: the
    //     assertion only fails on executions where the explorer injected a
    //     spurious wakeup, which is the fingerprint of `if` where `while`
    //     was required. (The live exploration lives in the `kfusion-model`
    //     bin; this entry pins the violation→lint mapping.)
    let naked_wait = ViolationInfo {
        scenario: "seeded-naked-condvar-wait".into(),
        kind: ViolationKind::AssertionFailed,
        message: "consumer observed ready == false after its wait returned".into(),
        schedule: vec![
            "t1: lock(m0)".into(),
            "t1: wait(c1, m0)".into(),
            "spurious wakeup -> t1".into(),
            "t1: unlock(m0)".into(),
            "t1: panic".into(),
        ],
        replay: vec![1, 0],
        spurious_wakeups: 1,
    };
    report.lints.extend(lint_model_violation(&naked_wait));

    // 12. A steady-state allocation regression, as an allocation-counting
    //     harness would export it: a run that processed batches but whose
    //     per-batch loops allocated — a buffer sized per batch instead of
    //     per morsel. (Live measurement lives in the `steady_state_allocs`
    //     test; this entry pins the counter→lint mapping.)
    let mut leaky = kfusion_trace::Trace::default();
    leaky.counters.insert("kfusion_batch_batches_total".into(), 4096);
    leaky.counters.insert("kfusion_batch_allocs_total{scope=\"steady_state\"}".into(), 4096);
    leaky
        .counters
        .insert("kfusion_batch_alloc_bytes_total{scope=\"steady_state\"}".into(), 4096 * 8192);
    report.lints.extend(crate::lint::lint_alloc_counters("defect: per-batch buffer", &leaky));

    // 13. A service run whose observability doesn't balance: eight queries
    //     reached workers plus one deadline shed, but only eight lifecycle
    //     records closed (a worker path returned early without closing its
    //     QueryRecord), and the reply-stage histogram is one observation
    //     short of the completed count. (Live enforcement: the service's
    //     `run_group` closes a record on every path; the served-mix test
    //     gates the real counters. This entry pins the telemetry→lint
    //     mapping.)
    let mut unobserved = kfusion_trace::Trace::default();
    let c = &mut unobserved.counters;
    c.insert("kfusion_server_queries_executed_total".into(), 8);
    c.insert("kfusion_server_deadline_rejections_total".into(), 1);
    c.insert("kfusion_server_query_records_closed_total".into(), 8);
    c.insert("kfusion_server_queries_completed_total".into(), 7);
    let stage_hist = |n: u64| {
        let mut h = kfusion_trace::hist::Hist::new();
        for i in 0..n {
            h.record(1e-3 * (i + 1) as f64);
        }
        h
    };
    for stage in ["queue_wait", "batch_form", "compile", "execute", "reply", "total"] {
        let key = kfusion_trace::metrics::metric_key(
            "kfusion_server_stage_host_seconds",
            &[("stage", stage)],
        );
        unobserved.hists.insert(key, stage_hist(if stage == "reply" { 6 } else { 7 }));
    }
    for stage in ["h2d", "compute", "d2h", "total"] {
        let key = kfusion_trace::metrics::metric_key(
            "kfusion_server_stage_sim_seconds",
            &[("stage", stage)],
        );
        unobserved.hists.insert(key, stage_hist(7));
    }
    report
        .lints
        .extend(crate::lint::lint_unobserved_stages("defect: lost lifecycle record", &unobserved));

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_defect_class_fires_its_lint() {
        let report = demo_defects();
        let ids: Vec<&str> = report.lints.iter().map(|l| l.id).collect();
        for expected in [
            "unused-input-slot",
            "dead-code",
            "always-false-predicate",
            "over-budget-group",
            "missed-vectorization",
            "no-copy-compute-overlap",
            "fission-segment-overlap",
            "schedule-deadlock",
            "footprint-over-capacity",
            "unchecked-condvar-wait",
            "allocating-steady-state",
            "unobserved-stage",
        ] {
            assert!(ids.contains(&expected), "missing {expected} in {ids:?}");
        }
        assert!(ids.contains(&"rewrite-changed-semantics"), "{ids:?}");
        assert!(report.fails(false));
    }

    #[test]
    fn clean_schedules_earn_no_certificate_lints() {
        let spec = DeviceSpec::tesla_c2070();
        let sched = Schedule::serial(vec![Command::h2d(
            "in",
            CommandClass::InputOutput,
            1 << 20,
            HostMemKind::Pinned,
        )]);
        assert!(lint_certificates("clean", &sched, &spec).is_empty());
    }

    #[test]
    fn deadlock_violations_map_to_schedule_deadlock() {
        let v = ViolationInfo {
            scenario: "q".into(),
            kind: ViolationKind::Deadlock,
            message: "all blocked".into(),
            schedule: vec![],
            replay: vec![0, 1],
            spurious_wakeups: 0,
        };
        let lints = lint_model_violation(&v);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].id, "schedule-deadlock");
        assert!(lints[0].notes.iter().any(|n| n.contains("--replay q 0,1")), "{lints:?}");
        // Plain assertion failures (no spurious wakeup) are protocol bugs,
        // not lint-shaped: reported raw by the bin instead.
        let plain = ViolationInfo { kind: ViolationKind::AssertionFailed, ..v };
        assert!(lint_model_violation(&plain).is_empty());
    }
}
