//! kfusion-model: concurrency model checking and static schedule certification.
//!
//! Two independent static-analysis layers over the engine's concurrent
//! machinery:
//!
//! 1. **A loom-style concurrency model checker.** [`sync`] and [`time`] are
//!    drop-in shims for `std::sync` / `std::time::Instant`. In an ordinary
//!    build they are plain re-exports of std — production binaries are
//!    byte-identical. Compiled with `RUSTFLAGS="--cfg kfusion_model"`, every
//!    lock acquisition, condvar wait, notify, and atomic access instead
//!    yields to an explorer (`explore`) that serializes the threads of a
//!    small fixed scenario and enumerates **every** interleaving by stateless
//!    DFS over the scheduling choices (with an optional CHESS-style
//!    preemption bound). Deadlocks, lost wakeups, and assertion failures are
//!    reported as a [`ViolationInfo`] carrying a replayable choice prefix.
//! 2. **A static schedule certifier** ([`certify`]) over `vgpu` schedules:
//!    a wait-for-graph acyclicity proof of deadlock-freedom for any
//!    stream/event assignment, and a peak-resident-memory abstract
//!    interpretation certifying a segment plan's footprint never exceeds
//!    [`kfusion_vgpu::DeviceSpec`] capacity, with the violating timestep as
//!    witness otherwise.
//!
//! The shim is selected by a `cfg`, not a cargo feature, deliberately:
//! feature unification would silently instrument every crate in a workspace
//! build, while `--cfg kfusion_model` only exists in dedicated model-check
//! invocations (see the `model-check` CI job).

pub mod certify;
pub mod sync;
pub mod time;

#[cfg(kfusion_model)]
pub mod explore;
#[cfg(kfusion_model)]
pub mod rt;
#[cfg(kfusion_model)]
pub mod thread;

use std::fmt;

/// What kind of property violation the explorer found.
///
/// Defined outside `cfg(kfusion_model)` so downstream lint plumbing
/// (`kfusion-checker`) can classify violations without being built under the
/// model cfg itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Every unfinished thread is blocked and no timeout can fire: the
    /// scenario can never make progress (e.g. a lost wakeup).
    Deadlock,
    /// A scenario thread panicked — an `assert!` about the protocol's
    /// invariants failed under this interleaving.
    AssertionFailed,
    /// The execution exceeded the step budget without quiescing — a
    /// livelock, or a scenario too large for exhaustive exploration.
    StepLimit,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::Deadlock => write!(f, "deadlock"),
            ViolationKind::AssertionFailed => write!(f, "assertion-failure"),
            ViolationKind::StepLimit => write!(f, "step-limit"),
        }
    }
}

/// A property violation with everything needed to reproduce it: the
/// human-readable schedule trace and the machine-replayable choice prefix.
#[derive(Debug, Clone)]
pub struct ViolationInfo {
    /// Name of the scenario that failed.
    pub scenario: String,
    /// Classification of the failure.
    pub kind: ViolationKind,
    /// What went wrong (deadlocked thread states, or the panic message).
    pub message: String,
    /// The full scheduling event log of the failing execution, one line per
    /// scheduler action.
    pub schedule: Vec<String>,
    /// Choice indices reproducing this execution: feed to
    /// `kfusion-model --replay <scenario> <csv>` (or `explore::replay`).
    pub replay: Vec<usize>,
    /// How many spurious condvar wakeups the explorer injected on this
    /// execution. A failing assertion with `spurious_wakeups > 0` is the
    /// signature of an unchecked (`if` instead of `while`) condvar wait.
    pub spurious_wakeups: u32,
}

impl ViolationInfo {
    /// Comma-separated replay prefix, as accepted by `kfusion-model --replay`.
    pub fn replay_csv(&self) -> String {
        let strs: Vec<String> = self.replay.iter().map(|c| c.to_string()).collect();
        strs.join(",")
    }

    /// Multi-line report: classification, message, schedule trace, replay
    /// command.
    pub fn render(&self) -> String {
        let mut out =
            format!("violation[{}] in scenario `{}`: {}\n", self.kind, self.scenario, self.message);
        if self.spurious_wakeups > 0 {
            out.push_str(&format!("  ({} spurious wakeup(s) injected)\n", self.spurious_wakeups));
        }
        out.push_str("  schedule:\n");
        for ev in &self.schedule {
            out.push_str("    ");
            out.push_str(ev);
            out.push('\n');
        }
        out.push_str(&format!(
            "  replay: kfusion-model --replay {} {}\n",
            self.scenario,
            self.replay_csv()
        ));
        out
    }
}

impl fmt::Display for ViolationInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}
