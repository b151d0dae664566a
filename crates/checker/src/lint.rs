//! `kfusion-lint` — diagnostics over plans, bodies and schedules, built on
//! the dataflow framework (`kfusion_ir::dataflow`) and the verification
//! layer (DESIGN.md §7/§8).
//!
//! Where the verifiers reject programs that are *wrong* (ill-typed bodies,
//! non-convex fused regions, racing streams), the lints flag programs that
//! are *suspicious*: a filter that provably drops every row, a fused group
//! whose analyzed register pressure exceeds the device budget, a schedule
//! that never overlaps copy with compute. Each lint has a stable id and a
//! severity; [`LintReport::fails`] implements `--deny warnings`.
//!
//! The catalog (one line per lint) lives in DESIGN.md §8.

use kfusion_core::analyze::analyzed_group_regs;
use kfusion_core::graph::{BodyRole, NodeId, PlanGraph};
use kfusion_core::{fuse_plan, FusionBudget, FusionPlan};
use kfusion_ir::dataflow::{available, liveness, range};
use kfusion_ir::opt::{optimize_report, OptLevel};
use kfusion_ir::KernelBody;
use kfusion_trace::json::quote;
use kfusion_vgpu::des::{CommandKind, Schedule};

/// How a diagnostic counts toward the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; fails only under
    /// `--deny warnings`.
    Warn,
    /// Almost certainly a defect; always fails the run.
    Deny,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warn => write!(f, "warning"),
            Severity::Deny => write!(f, "error"),
        }
    }
}

/// One rendered diagnostic.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Stable kebab-case id (`always-false-predicate`, ...).
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// What was found, where (one line).
    pub message: String,
    /// Supporting evidence, one `= note:` line each.
    pub notes: Vec<String>,
}

impl Lint {
    fn new(id: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Lint { id, severity, message: message.into(), notes: Vec::new() }
    }

    fn note(mut self, n: impl Into<String>) -> Self {
        self.notes.push(n.into());
        self
    }

    /// Rustc-style rendering: `severity[id]: message` plus indented notes.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.id, self.message);
        for n in &self.notes {
            out.push_str("\n  = note: ");
            out.push_str(n);
        }
        out
    }

    /// One JSON object: `{"id","severity","message","notes"}`.
    pub fn to_json(&self) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| quote(n)).collect();
        format!(
            "{{\"id\":{},\"severity\":{},\"message\":{},\"notes\":[{}]}}",
            quote(self.id),
            quote(&self.severity.to_string()),
            quote(&self.message),
            notes.join(",")
        )
    }
}

/// Every diagnostic from one lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// The diagnostics, in discovery order.
    pub lints: Vec<Lint>,
}

impl LintReport {
    /// Number of `Deny` diagnostics.
    pub fn deny_count(&self) -> usize {
        self.lints.iter().filter(|l| l.severity == Severity::Deny).count()
    }

    /// Number of `Warn` diagnostics.
    pub fn warn_count(&self) -> usize {
        self.lints.iter().filter(|l| l.severity == Severity::Warn).count()
    }

    /// Whether the run fails: any deny-level lint, or (under
    /// `--deny warnings`) any lint at all.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.deny_count() > 0 || (deny_warnings && !self.lints.is_empty())
    }

    /// Render every diagnostic plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lints {
            out.push_str(&l.render());
            out.push_str("\n\n");
        }
        out.push_str(&format!("{} error(s), {} warning(s)", self.deny_count(), self.warn_count()));
        out
    }

    /// One JSON object: counts plus the lints in discovery order.
    pub fn to_json(&self) -> String {
        let lints: Vec<String> = self.lints.iter().map(Lint::to_json).collect();
        format!(
            "{{\"errors\":{},\"warnings\":{},\"lints\":[{}]}}",
            self.deny_count(),
            self.warn_count(),
            lints.join(",")
        )
    }
}

/// The `kfusion-lint --format json` document: one entry per linted target,
/// plus the overall exit verdict under the given `--deny warnings` setting.
/// Machine-readable so CI can diff results instead of grepping rendered
/// text.
pub fn targets_json(targets: &[(String, LintReport)], deny_warnings: bool) -> String {
    let failed = targets.iter().any(|(_, r)| r.fails(deny_warnings));
    let entries: Vec<String> = targets
        .iter()
        .map(|(name, r)| {
            let body = r.to_json();
            // Splice the target name into the report object.
            format!("{{\"target\":{},{}", quote(name), &body[1..])
        })
        .collect();
    format!(
        "{{\"tool\":\"kfusion-lint\",\"schema_version\":1,\"deny_warnings\":{},\"failed\":{},\"targets\":[{}]}}\n",
        deny_warnings,
        failed,
        entries.join(",")
    )
}

/// Lint one IR body. `origin` names it in messages; `is_predicate` enables
/// the value-range verdicts (a filter body's output 0 is its keep/drop
/// decision — an `Arith` body has no such reading).
pub fn lint_body(origin: &str, body: &KernelBody, is_predicate: bool) -> Vec<Lint> {
    let mut lints = Vec::new();

    // Everything below assumes a well-typed body.
    if let Err(e) = kfusion_ir::verify::verify(body) {
        lints.push(
            Lint::new(
                "ill-typed-body",
                Severity::Deny,
                format!("{origin}: body fails type verification"),
            )
            .note(e.to_string()),
        );
        return lints;
    }

    for slot in liveness::unused_loaded_slots(body) {
        lints.push(
            Lint::new(
                "unused-input-slot",
                Severity::Warn,
                format!("{origin}: input slot {slot} is loaded but the value is never used"),
            )
            .note("the load costs memory traffic and a register for nothing"),
        );
    }

    let dead = liveness::dead_instrs(body);
    if !dead.is_empty() {
        lints.push(
            Lint::new(
                "dead-code",
                Severity::Warn,
                format!(
                    "{origin}: {} dead instruction(s) in the authored body (indices {:?})",
                    dead.len(),
                    dead
                ),
            )
            .note("liveness analysis: no path from these definitions to an output"),
        );
    }

    let (o3, report) = optimize_report(body, OptLevel::O3);
    if !report.converged {
        lints.push(Lint::new(
            "opt-not-converged",
            Severity::Warn,
            format!(
                "{origin}: O3 pipeline still changing after {} iteration(s)",
                report.iterations
            ),
        ));
    }
    let dead_o3 = liveness::dead_instrs(&o3);
    if !dead_o3.is_empty() {
        lints.push(
            Lint::new(
                "dead-code-post-opt",
                Severity::Deny,
                format!("{origin}: {} dead instruction(s) survive O3", dead_o3.len()),
            )
            .note("dead-code elimination should have removed these; optimizer defect"),
        );
    }
    let redundant = available::redundant_exprs(&o3);
    if !redundant.is_empty() {
        let pairs: Vec<String> =
            redundant.iter().map(|(l, e)| format!("r{l} recomputes r{e}")).collect();
        lints.push(
            Lint::new(
                "missed-cse",
                Severity::Warn,
                format!("{origin}: {} expression(s) still redundant after O3", redundant.len()),
            )
            .note(pairs.join(", ")),
        );
    }

    // Would the batch engine take this body, or does execution fall back to
    // the per-tuple scalar interpreter? The relational layer binds i64/f64
    // columns, so slots left polymorphic by the body resolve at bind time —
    // seed them i64 here (every non-single verifier mask includes i64). Two
    // things defeat vectorization: a slot pinned to bool (no column can
    // supply it) and a body whose registers stay unresolved even then.
    let slots = kfusion_ir::verify::slot_types(body).expect("body verified above");
    if let Some(slot) = slots.iter().position(|t| *t == Some(kfusion_ir::Ty::Bool)) {
        lints.push(
            Lint::new(
                "missed-vectorization",
                Severity::Warn,
                format!(
                    "{origin}: input slot {slot} demands a bool column, which the relational \
                     layer never supplies"
                ),
            )
            .note("the body falls back to per-tuple interpretation and type-errors at run time"),
        );
    } else {
        let seeded: Vec<Option<kfusion_ir::Ty>> =
            slots.iter().map(|t| Some(t.unwrap_or(kfusion_ir::Ty::I64))).collect();
        if let Err(e) = kfusion_ir::batch::CompiledKernel::compile(body, &seeded) {
            lints.push(
                Lint::new(
                    "missed-vectorization",
                    Severity::Warn,
                    format!("{origin}: body does not compile for the vectorized batch engine"),
                )
                .note(e.to_string())
                .note("execution falls back to the per-tuple scalar interpreter"),
            );
        }
    }

    if is_predicate {
        match range::predicate_verdict(body) {
            range::PredicateVerdict::AlwaysFalse => lints.push(
                Lint::new(
                    "always-false-predicate",
                    Severity::Deny,
                    format!("{origin}: filter predicate is provably false for every input"),
                )
                .note("value-range analysis proves selectivity 0 — the query result is empty"),
            ),
            range::PredicateVerdict::AlwaysTrue => lints.push(
                Lint::new(
                    "always-true-predicate",
                    Severity::Warn,
                    format!("{origin}: filter predicate is provably true for every input"),
                )
                .note("selectivity 1 — the SELECT is a no-op and should be removed"),
            ),
            range::PredicateVerdict::Mixed => {}
        }
    }

    lints
}

/// Lint a fusion plan's groups against the device register budget, using
/// the *analyzed* pressure of each group's fused, optimized body.
pub fn lint_fusion(
    graph: &PlanGraph,
    fusion: &FusionPlan,
    budget: &FusionBudget,
    level: OptLevel,
) -> Vec<Lint> {
    let mut lints = Vec::new();
    if let Err(e) = kfusion_core::check::check_fusion(graph, fusion) {
        lints.push(
            Lint::new("illegal-fusion", Severity::Deny, "fusion plan fails legality analysis")
                .note(e.to_string()),
        );
        return lints;
    }
    for (gi, members) in fusion.groups.iter().enumerate() {
        let regs = analyzed_group_regs(graph, members, level);
        if regs > budget.max_regs_per_thread {
            let names: Vec<String> = members
                .iter()
                .map(|&m: &NodeId| format!("n{m}:{}", graph.nodes[m].kind.name()))
                .collect();
            lints.push(
                Lint::new(
                    "over-budget-group",
                    Severity::Deny,
                    format!(
                        "fused group {gi} needs {regs} registers/thread, budget is {}",
                        budget.max_regs_per_thread
                    ),
                )
                .note(format!("members: {}", names.join(", ")))
                .note("liveness analysis of the fused, optimized body — expect spills"),
            );
        }
    }
    lints
}

/// Lint a whole plan: well-formedness, every IR body, and the fusion the
/// greedy pass would build for it under `budget`.
pub fn lint_plan(graph: &PlanGraph, budget: &FusionBudget, level: OptLevel) -> LintReport {
    let mut report = LintReport::default();
    if let Err(e) = kfusion_core::check::check_plan(graph) {
        report.lints.push(
            Lint::new("invalid-plan", Severity::Deny, "plan fails well-formedness checking")
                .note(e.to_string()),
        );
        return report;
    }
    for (id, node) in graph.nodes.iter().enumerate() {
        if let Some((body, role)) = node.kind.body() {
            let origin = format!("node {id} ({})", node.kind.name());
            report.lints.extend(lint_body(&origin, body, role == BodyRole::Predicate));
        }
    }
    let fusion = fuse_plan(graph, budget, level);
    report.lints.extend(lint_fusion(graph, &fusion, budget, level));
    report
}

/// Lint a stream schedule: hazards (deny) and the structural
/// copy/compute-overlap check (warn) — a schedule that funnels every copy
/// and every kernel through one stream serializes PCIe against compute,
/// which is exactly what fission's multi-stream pipeline exists to avoid
/// (Fig. 8).
pub fn lint_schedule(origin: &str, schedule: &Schedule) -> Vec<Lint> {
    let mut lints = Vec::new();
    for h in kfusion_vgpu::hazard::find_hazards(schedule) {
        lints.push(
            Lint::new("schedule-hazard", Severity::Deny, format!("{origin}: {h}"))
                .note("insert a record/wait event edge to order the streams"),
        );
    }
    let mut copy_streams = Vec::new();
    let mut kernel_streams = Vec::new();
    for (s, cmds) in schedule.streams.iter().enumerate() {
        for c in cmds {
            match c.kind {
                CommandKind::CopyH2D { .. } | CommandKind::CopyD2H { .. }
                    if !copy_streams.contains(&s) =>
                {
                    copy_streams.push(s);
                }
                CommandKind::Kernel { .. } if !kernel_streams.contains(&s) => {
                    kernel_streams.push(s);
                }
                _ => {}
            }
        }
    }
    if !copy_streams.is_empty()
        && !kernel_streams.is_empty()
        && copy_streams == kernel_streams
        && copy_streams.len() == 1
    {
        lints.push(
            Lint::new(
                "no-copy-compute-overlap",
                Severity::Warn,
                format!("{origin}: all copies and kernels share stream {}", copy_streams[0]),
            )
            .note("transfers serialize against compute; segment the work across streams (kernel fission)"),
        );
    }
    lints
}

/// Lint a rewrite `original -> rewritten` through the translation validator
/// (DESIGN.md §12): a [`Refuted`](kfusion_ir::symexec::Verdict::Refuted)
/// verdict becomes a deny-level `rewrite-changed-semantics` diagnostic whose
/// notes carry the concrete counterexample.
pub fn lint_rewrite(origin: &str, original: &KernelBody, rewritten: &KernelBody) -> Vec<Lint> {
    let mut lints = Vec::new();
    if let kfusion_ir::symexec::Verdict::Refuted(cx) =
        kfusion_ir::symexec::prove_body_equiv(original, rewritten)
    {
        let mut lint = Lint::new(
            "rewrite-changed-semantics",
            Severity::Deny,
            format!("{origin}: rewritten body is not equivalent to the original"),
        );
        for line in cx.render().lines() {
            lint = lint.note(line.to_string());
        }
        lints.push(lint.note("translation validation refuted the rewrite (DESIGN.md §12)"));
    }
    lints
}

/// Lint a fission segmentation: the segments must partition `[0, total)`
/// exactly. Overlap (an element computed twice) and gap (an element dropped)
/// both surface as the deny-level `fission-segment-overlap` lint — the
/// message says which, and the note names the witness element.
pub fn lint_segments(
    origin: &str,
    total: u64,
    segs: &[kfusion_vgpu::segment::SegRange],
) -> Vec<Lint> {
    match kfusion_vgpu::segment::check_partition(total, segs) {
        Ok(()) => Vec::new(),
        Err(err) => {
            let rendered: Vec<String> = segs.iter().map(|s| s.to_string()).collect();
            vec![Lint::new(
                "fission-segment-overlap",
                Severity::Deny,
                format!("{origin}: segments do not partition the {total}-element space: {err}"),
            )
            .note(format!("segments: {}", rendered.join(" ")))
            .note("every element must be computed exactly once across the fission pipeline")]
        }
    }
}

/// Lint a schedule through the static certifiers (DESIGN.md §13): a
/// wait-for-graph cycle or orphaned wait becomes `schedule-deadlock`, and a
/// peak resident footprint exceeding device capacity becomes
/// `footprint-over-capacity`, each carrying the certifier's concrete
/// witness. Clean schedules produce no lints — the positive certificates
/// are reported by the `kfusion-model` bin instead.
pub fn lint_certificates(
    origin: &str,
    schedule: &Schedule,
    spec: &kfusion_vgpu::DeviceSpec,
) -> Vec<Lint> {
    let mut lints = Vec::new();
    if let Err(w) = kfusion_model::certify::certify_deadlock_free(schedule) {
        lints.push(
            Lint::new(
                "schedule-deadlock",
                Severity::Deny,
                format!("{origin}: schedule can deadlock: {w}"),
            )
            .note("wait-for-graph certification: every wait needs a matching record and an acyclic graph")
            .note("a conforming executor (DES or real streams) would stall forever on this schedule"),
        );
    }
    if let Err(w) = kfusion_model::certify::certify_memory_bound(schedule, spec) {
        lints.push(
            Lint::new(
                "footprint-over-capacity",
                Severity::Deny,
                format!("{origin}: resident footprint exceeds device memory: {w}"),
            )
            .note("peak-memory abstract interpretation over happens-before liveness (sound over-approximation)")
            .note("shrink fission segments or add round-trips so intermediates retire earlier"),
        );
    }
    lints
}

/// Lint a trace snapshot for steady-state allocations (DESIGN.md §14).
///
/// Harnesses that install the counting allocator
/// (`kfusion_trace::allocwatch`) export its totals as
/// `kfusion_batch_allocs_total{scope="steady_state"}` after a run. A
/// nonzero value alongside processed batches means a per-batch loop
/// allocated — the zero-allocation steady-state contract regressed, even
/// if every answer is still correct.
pub fn lint_alloc_counters(origin: &str, trace: &kfusion_trace::Trace) -> Vec<Lint> {
    let batches = trace.counter("kfusion_batch_batches_total");
    let allocs = trace.counter("kfusion_batch_allocs_total{scope=\"steady_state\"}");
    let bytes = trace.counter("kfusion_batch_alloc_bytes_total{scope=\"steady_state\"}");
    if batches == 0 || allocs == 0 {
        return Vec::new();
    }
    vec![Lint::new(
        "allocating-steady-state",
        Severity::Deny,
        format!(
            "{origin}: {allocs} allocations ({bytes} bytes) inside steady-state \
             regions across {batches} batches"
        ),
    )
    .note("per-batch loops must run entirely out of checked-out scratch banks and preallocated buffers (DESIGN.md §14)")
    .note("look for buffers sized per batch instead of per morsel, or a scratch checkout that moved inside the loop")]
}

/// Host-stage label values of `kfusion_server_stage_host_seconds`, as the
/// server emits them (the wire contract this lint checks, hardcoded so the
/// checker needs no dependency on the server crate).
const SERVER_HOST_STAGES: [&str; 6] =
    ["queue_wait", "batch_form", "compile", "execute", "reply", "total"];
/// Sim-stage label values of `kfusion_server_stage_sim_seconds`.
const SERVER_SIM_STAGES: [&str; 4] = ["h2d", "compute", "d2h", "total"];

/// Lint a trace snapshot for unobserved query stages (DESIGN.md §15).
///
/// The service closes one [`QueryRecord`] per query it picks up, and a
/// closed *completed* record feeds every stage histogram exactly once. Two
/// balances certify that from the emitted telemetry alone:
///
/// * `records_closed == executed + deadline_rejections` — a shortfall means
///   a query reached a worker but its lifecycle record never closed (an
///   early return skipped the close path), so its latency is missing from
///   every percentile;
/// * every `stage=...` series of the host/sim histogram families holds
///   exactly `queries_completed` observations — a short series means some
///   code path recorded only part of the lifecycle, skewing that stage's
///   percentiles low.
///
/// [`QueryRecord`]: ../../kfusion_server/stats/struct.QueryRecord.html
pub fn lint_unobserved_stages(origin: &str, trace: &kfusion_trace::Trace) -> Vec<Lint> {
    let executed = trace.counter("kfusion_server_queries_executed_total");
    let shed = trace.counter("kfusion_server_deadline_rejections_total");
    let closed = trace.counter("kfusion_server_query_records_closed_total");
    let completed = trace.counter("kfusion_server_queries_completed_total");
    if executed == 0 && closed == 0 {
        return Vec::new();
    }
    let mut lints = Vec::new();
    if closed != executed + shed {
        lints.push(
            Lint::new(
                "unobserved-stage",
                Severity::Deny,
                format!(
                    "{origin}: {executed} executed + {shed} deadline-shed queries but \
                     {closed} lifecycle records closed"
                ),
            )
            .note("every query a worker picks up must close its QueryRecord exactly once (DESIGN.md §15)")
            .note("an unclosed record drops the query from every latency percentile and the flight recorder"),
        );
    }
    for (family, stages) in [
        ("kfusion_server_stage_host_seconds", &SERVER_HOST_STAGES[..]),
        ("kfusion_server_stage_sim_seconds", &SERVER_SIM_STAGES[..]),
    ] {
        for stage in stages {
            let key = kfusion_trace::metrics::metric_key(family, &[("stage", stage)]);
            let count = trace.hist(&key).map_or(0, |h| h.count());
            if count != completed {
                lints.push(
                    Lint::new(
                        "unobserved-stage",
                        Severity::Deny,
                        format!(
                            "{origin}: stage histogram {family}{{stage=\"{stage}\"}} holds \
                             {count} observations for {completed} completed queries"
                        ),
                    )
                    .note("a completed record feeds every stage histogram exactly once; a short series skews that stage's percentiles low"),
                );
            }
        }
    }
    lints
}

/// Lint a model-checker violation (`kfusion-model`'s explorer output).
///
/// Only violations with a lint-shaped diagnosis map to lints: a deadlock
/// becomes `schedule-deadlock` (same id as the static certifier — both
/// prove "this protocol/schedule can stall forever", by different means),
/// and an assertion failure that needed an injected spurious wakeup becomes
/// `unchecked-condvar-wait` (the signature of `if` where `while` was
/// required around a condvar wait). Other assertion failures are protocol
/// bugs the `kfusion-model` bin reports directly with their schedule trace.
pub fn lint_model_violation(v: &kfusion_model::ViolationInfo) -> Vec<Lint> {
    let replay_note = format!("replay: kfusion-model --replay {} {}", v.scenario, v.replay_csv());
    match v.kind {
        kfusion_model::ViolationKind::Deadlock => vec![Lint::new(
            "schedule-deadlock",
            Severity::Deny,
            format!("scenario `{}`: {}", v.scenario, v.message),
        )
        .note("found by exhaustive interleaving exploration (kfusion-model)")
        .note(replay_note)],
        kfusion_model::ViolationKind::AssertionFailed if v.spurious_wakeups > 0 => {
            vec![Lint::new(
                "unchecked-condvar-wait",
                Severity::Deny,
                format!(
                    "scenario `{}`: an injected spurious wakeup breaks the protocol: {}",
                    v.scenario, v.message
                ),
            )
            .note("a condvar wait must re-check its predicate in a loop; `if !ready { wait() }` is not enough")
            .note(replay_note)]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_core::cost::STAGE_REGS;
    use kfusion_core::OpKind;
    use kfusion_ir::{BinOp, CmpOp, Instr, Value};
    use kfusion_relalg::predicates;
    use kfusion_vgpu::des::{Command, CommandClass, EventId};
    use kfusion_vgpu::{DeviceSpec, HostMemKind, KernelProfile, LaunchConfig};

    fn body_with_dead_load() -> KernelBody {
        KernelBody {
            instrs: vec![
                Instr::LoadInput { slot: 0 },
                Instr::LoadInput { slot: 1 }, // dead
                Instr::Const { value: Value::I64(10) },
                Instr::Cmp { op: CmpOp::Lt, lhs: 0, rhs: 2 },
            ],
            outputs: vec![3],
            n_inputs: 2,
        }
    }

    #[test]
    fn alloc_lint_needs_both_batches_and_allocations() {
        let mut t = kfusion_trace::Trace::default();
        assert!(lint_alloc_counters("x", &t).is_empty(), "empty trace is clean");
        t.counters.insert("kfusion_batch_batches_total".into(), 10);
        assert!(lint_alloc_counters("x", &t).is_empty(), "zero allocs is the healthy state");
        t.counters.insert("kfusion_batch_allocs_total{scope=\"steady_state\"}".into(), 3);
        let lints = lint_alloc_counters("x", &t);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].id, "allocating-steady-state");
        assert!(matches!(lints[0].severity, Severity::Deny));
    }

    #[test]
    fn unobserved_stage_lint_balances_counters_and_histograms() {
        let t = kfusion_trace::Trace::default();
        assert!(lint_unobserved_stages("x", &t).is_empty(), "idle service is clean");

        // A balanced run: 3 executed + 1 shed = 4 closed, 3 completed, and
        // every stage series holds 3 observations.
        let mut t = kfusion_trace::Trace::default();
        t.counters.insert("kfusion_server_queries_executed_total".into(), 3);
        t.counters.insert("kfusion_server_deadline_rejections_total".into(), 1);
        t.counters.insert("kfusion_server_query_records_closed_total".into(), 4);
        t.counters.insert("kfusion_server_queries_completed_total".into(), 3);
        let full = |n: u64| {
            let mut h = kfusion_trace::hist::Hist::new();
            for _ in 0..n {
                h.record(0.01);
            }
            h
        };
        for (family, stages) in [
            ("kfusion_server_stage_host_seconds", &SERVER_HOST_STAGES[..]),
            ("kfusion_server_stage_sim_seconds", &SERVER_SIM_STAGES[..]),
        ] {
            for stage in stages {
                let key = kfusion_trace::metrics::metric_key(family, &[("stage", stage)]);
                t.hists.insert(key, full(3));
            }
        }
        assert!(lint_unobserved_stages("x", &t).is_empty(), "balanced telemetry is clean");

        // Lose one record and one compile observation: two diagnostics.
        t.counters.insert("kfusion_server_query_records_closed_total".into(), 3);
        let key = kfusion_trace::metrics::metric_key(
            "kfusion_server_stage_host_seconds",
            &[("stage", "compile")],
        );
        t.hists.insert(key, full(2));
        let lints = lint_unobserved_stages("x", &t);
        assert_eq!(lints.len(), 2, "{lints:?}");
        assert!(lints.iter().all(|l| l.id == "unobserved-stage"));
        assert!(lints.iter().all(|l| matches!(l.severity, Severity::Deny)));
        assert!(lints.iter().any(|l| l.message.contains("compile")), "{lints:?}");
    }

    #[test]
    fn flags_unused_slot_and_dead_code() {
        let lints = lint_body("demo", &body_with_dead_load(), true);
        let ids: Vec<_> = lints.iter().map(|l| l.id).collect();
        assert!(ids.contains(&"unused-input-slot"), "{ids:?}");
        assert!(ids.contains(&"dead-code"), "{ids:?}");
        // O3 removes the dead load, so nothing survives post-opt.
        assert!(!ids.contains(&"dead-code-post-opt"), "{ids:?}");
    }

    #[test]
    fn flags_always_false_predicate() {
        // (x % 10) >= 100: the remainder is within (-10, 10).
        let body = KernelBody {
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
        let lints = lint_body("demo", &body, true);
        assert!(lints
            .iter()
            .any(|l| l.id == "always-false-predicate" && l.severity == Severity::Deny));
    }

    #[test]
    fn clean_predicate_produces_no_lints() {
        let lints = lint_body("demo", &predicates::key_lt(100), true);
        assert!(lints.is_empty(), "{:?}", lints.iter().map(|l| l.id).collect::<Vec<_>>());
    }

    #[test]
    fn flags_bool_input_slot_as_missed_vectorization() {
        use kfusion_ir::Ty;
        // select(in[1], in[0], 1): slot 1 is pinned bool — unbindable.
        let body = KernelBody {
            instrs: vec![
                Instr::LoadInput { slot: 0 },
                Instr::Const { value: Value::I64(1) },
                Instr::LoadInput { slot: 1 },
                Instr::Select { cond: 2, then_r: 0, else_r: 1 },
            ],
            outputs: vec![3],
            n_inputs: 2,
        };
        assert_eq!(kfusion_ir::verify::verify(&body), Ok(()));
        let lints = lint_body("demo", &body, false);
        assert!(
            lints.iter().any(|l| l.id == "missed-vectorization" && l.severity == Severity::Warn),
            "{:?}",
            lints.iter().map(|l| l.id).collect::<Vec<_>>()
        );
        // A polymorphic-but-numeric body vectorizes once columns bind: clean.
        let poly = predicates::col_cmp_col(0, CmpOp::Gt, 1);
        assert!(kfusion_ir::batch::CompiledKernel::compile(
            &poly,
            &[Some(Ty::I64), Some(Ty::I64), Some(Ty::I64)]
        )
        .is_ok());
        assert!(lint_body("demo", &poly, true).is_empty());
    }

    #[test]
    fn flags_over_budget_group() {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        let mut members = Vec::new();
        for k in 0..6 {
            cur = g.add(
                OpKind::Select { pred: predicates::col_cmp_i64(k, CmpOp::Lt, 100) },
                vec![cur],
            );
            members.push(cur);
        }
        let fusion = FusionPlan {
            group_of: {
                let mut v = vec![None; g.nodes.len()];
                for &m in &members {
                    v[m] = Some(0);
                }
                v
            },
            groups: vec![members],
        };
        let budget = FusionBudget { max_regs_per_thread: STAGE_REGS + 2 };
        let lints = lint_fusion(&g, &fusion, &budget, OptLevel::O3);
        assert!(lints.iter().any(|l| l.id == "over-budget-group"), "{lints:?}");
        // The greedy pass under the same budget splits the chain, so the
        // plan-level entry point stays clean.
        let report = lint_plan(&g, &budget, OptLevel::O3);
        assert!(!report.fails(true), "{}", report.render());
    }

    #[test]
    fn flags_serial_copy_compute_schedule() {
        let spec = DeviceSpec::tesla_c2070();
        let k = KernelProfile::new("k").instr_per_elem(4.0);
        let sched = Schedule::serial(vec![
            Command::h2d("in", CommandClass::InputOutput, 1 << 20, HostMemKind::Pinned),
            Command::kernel(k, LaunchConfig::for_elements(1 << 18, &spec), 1 << 18).reading("in"),
        ]);
        let lints = lint_schedule("demo", &sched);
        assert!(lints.iter().any(|l| l.id == "no-copy-compute-overlap"), "{lints:?}");

        // A two-stream schedule with an event edge is clean.
        let k2 = KernelProfile::new("k").instr_per_elem(4.0);
        let mut piped = Schedule::new();
        let up = piped.add_stream();
        let comp = piped.add_stream();
        piped.push(up, Command::h2d("in", CommandClass::InputOutput, 1 << 20, HostMemKind::Pinned));
        piped.push(up, Command::record(EventId(0)));
        piped.push(comp, Command::wait(EventId(0)));
        piped.push(
            comp,
            Command::kernel(k2, LaunchConfig::for_elements(1 << 18, &spec), 1 << 18).reading("in"),
        );
        assert!(lint_schedule("demo", &piped).is_empty());
    }

    #[test]
    fn flags_semantics_changing_rewrite() {
        // x < 100 "optimized" to x > 100: the prover must refute it and the
        // lint must carry a concrete witness input.
        let original = predicates::col_cmp_i64(0, CmpOp::Lt, 100);
        let rewritten = predicates::col_cmp_i64(0, CmpOp::Gt, 100);
        let lints = lint_rewrite("demo", &original, &rewritten);
        assert!(
            lints
                .iter()
                .any(|l| l.id == "rewrite-changed-semantics" && l.severity == Severity::Deny),
            "{lints:?}"
        );
        assert!(lints[0].notes.iter().any(|n| n.contains("in0")), "{lints:?}");
        // A faithful rewrite is clean.
        let same = kfusion_ir::opt::optimize(&original, kfusion_ir::opt::OptLevel::O3);
        assert!(lint_rewrite("demo", &original, &same).is_empty());
    }

    #[test]
    fn flags_overlapping_and_gapped_segments() {
        use kfusion_vgpu::segment::partition;
        let mut overl = partition(1 << 20, 4);
        overl[2].lo -= 1;
        let lints = lint_segments("demo", 1 << 20, &overl);
        assert!(
            lints.iter().any(|l| l.id == "fission-segment-overlap"
                && l.severity == Severity::Deny
                && l.message.contains("computed twice")),
            "{lints:?}"
        );
        let mut gap = partition(1 << 20, 4);
        gap[1].lo += 1;
        let lints = lint_segments("demo", 1 << 20, &gap);
        assert!(
            lints
                .iter()
                .any(|l| l.id == "fission-segment-overlap" && l.message.contains("never computed")),
            "{lints:?}"
        );
        assert!(lint_segments("demo", 1 << 20, &partition(1 << 20, 4)).is_empty());
    }

    #[test]
    fn report_fails_under_deny_warnings_only() {
        let mut report = LintReport::default();
        report.lints.push(Lint::new("dead-code", Severity::Warn, "x"));
        assert!(!report.fails(false));
        assert!(report.fails(true));
        assert!(report.render().contains("warning[dead-code]"));
    }
}
