//! Static schedule certification over `vgpu` schedules (always compiled —
//! no model cfg needed; these are whole-schedule proofs, not dynamic
//! exploration).
//!
//! Two certificates, both read from `vgpu`'s happens-before relation
//! ([`HappensBefore`]: program order within a stream, plus `record(e) →
//! wait(e)` edges across streams), the one the hazard detector audits:
//!
//! * [`certify_deadlock_free`] — the relation (the schedule's wait-for
//!   graph) is acyclic and every `wait` has a matching `record`, so a
//!   conforming executor (the DES, or real streams with events) can always
//!   retire the next command: the schedule cannot deadlock. On failure the
//!   witness is the first orphaned wait, or else a concrete command cycle.
//! * [`certify_memory_bound`] — an abstract interpretation of peak resident
//!   device memory: a buffer is considered resident at a command unless the
//!   happens-before relation *proves* all its uses are fully before or
//!   fully after that command. The per-command footprint therefore
//!   over-approximates every legal interleaving, so `peak ≤ capacity` is a
//!   sound certificate; on failure the witness names the violating command
//!   and the resident set.
//!
//! Soundness caveats (documented in DESIGN.md §13): buffer sizes come from
//! the transfer commands that touch them (a buffer only ever touched by
//! kernels contributes 0 bytes), and buffers with the same label are the
//! same buffer. Both match how `exec::fission_schedule` names and sizes its
//! segments.

use std::collections::HashMap;
use std::fmt;

use kfusion_vgpu::des::{CommandKind, Schedule};
use kfusion_vgpu::device::DeviceSpec;
use kfusion_vgpu::hazard::{CmdRef, HappensBefore};

/// Proof summary that a schedule cannot deadlock.
#[derive(Debug, Clone)]
pub struct DeadlockCert {
    /// Commands in the schedule.
    pub commands: usize,
    /// Streams in the schedule.
    pub streams: usize,
    /// Cross-stream `record → wait` edges in the wait-for graph.
    pub event_edges: usize,
}

impl fmt::Display for DeadlockCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadlock-free: {} commands / {} streams, wait-for graph acyclic ({} event edges)",
            self.commands, self.streams, self.event_edges
        )
    }
}

/// Counterexample to deadlock-freedom.
#[derive(Debug, Clone)]
pub enum DeadlockWitness {
    /// A cycle in the wait-for graph: each command waits (directly via an
    /// event, or transitively via stream order) on the next, and the last
    /// on the first.
    Cycle {
        /// The commands forming the cycle, in dependency order.
        cmds: Vec<CmdRef>,
    },
    /// A `wait(e)` with no `record(e)` anywhere in the schedule: the
    /// waiting stream blocks forever.
    UnmatchedWait {
        /// The orphaned wait command.
        cmd: CmdRef,
        /// The event it waits for.
        event: u32,
    },
}

impl fmt::Display for DeadlockWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlockWitness::Cycle { cmds } => {
                let chain: Vec<String> = cmds.iter().map(|c| c.to_string()).collect();
                write!(f, "wait-for cycle: {}", chain.join(" -> "))
            }
            DeadlockWitness::UnmatchedWait { cmd, event } => {
                write!(f, "{cmd} waits on event {event}, which no stream records")
            }
        }
    }
}

/// Counterexample to the memory bound: the first command whose resident
/// set exceeds device capacity.
#[derive(Debug, Clone)]
pub struct MemoryWitness {
    /// The violating timestep.
    pub at: CmdRef,
    /// Bytes resident at that command under the abstraction.
    pub resident_bytes: u64,
    /// Device capacity it exceeds.
    pub capacity: u64,
    /// The resident buffers (label, bytes), largest first.
    pub resident: Vec<(String, u64)>,
}

impl fmt::Display for MemoryWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at {}: {} bytes resident > capacity {} ({} buffers",
            self.at,
            self.resident_bytes,
            self.capacity,
            self.resident.len()
        )?;
        for (label, bytes) in self.resident.iter().take(4) {
            write!(f, ", {label}={bytes}B")?;
        }
        if self.resident.len() > 4 {
            write!(f, ", ...")?;
        }
        write!(f, ")")
    }
}

/// Proof summary that peak resident memory fits the device.
#[derive(Debug, Clone)]
pub struct MemoryCert {
    /// Peak resident bytes over all commands (the abstraction's maximum).
    pub peak_bytes: u64,
    /// Device capacity certified against.
    pub capacity: u64,
    /// The command where the peak occurs (first such).
    pub peak_at: CmdRef,
    /// Distinct device buffers seen.
    pub buffers: usize,
}

impl fmt::Display for MemoryCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory-bounded: peak {} / {} bytes ({} buffers), at {}",
            self.peak_bytes, self.capacity, self.buffers, self.peak_at
        )
    }
}

/// Prove the schedule's wait-for graph is acyclic and every wait matched —
/// i.e. the schedule cannot deadlock under any conforming executor. An
/// orphaned wait is reported before a cycle; with several, the first in
/// (stream, index) order.
pub fn certify_deadlock_free(schedule: &Schedule) -> Result<DeadlockCert, DeadlockWitness> {
    let hb = HappensBefore::new(schedule);
    if let Some((cmd, event)) = hb.orphaned_wait() {
        return Err(DeadlockWitness::UnmatchedWait { cmd, event });
    }
    if let Some(cmds) = hb.cycle() {
        return Err(DeadlockWitness::Cycle { cmds });
    }
    Ok(DeadlockCert {
        commands: hb.len(),
        streams: schedule.streams.len(),
        event_edges: hb.event_edges(),
    })
}

/// Certify that the schedule's peak resident device memory never exceeds
/// `spec.mem_capacity`, under the sound liveness abstraction described in
/// the module docs. A cyclic schedule or one with an orphaned wait degrades
/// to "everything is always resident" (no happens-before facts can be
/// proven), which stays sound.
pub fn certify_memory_bound(
    schedule: &Schedule,
    spec: &DeviceSpec,
) -> Result<MemoryCert, Box<MemoryWitness>> {
    let hb = HappensBefore::new(schedule);
    let n = hb.len();
    let ordered = hb.orphaned_wait().is_none();
    let before = |a: usize, b: usize| ordered && hb.before(a, b);

    // Buffer table: label -> (bytes, commands touching it). Sizes come from
    // the transfers; kernels only extend liveness.
    let mut buffers: Vec<(String, u64, Vec<usize>)> = Vec::new();
    let mut by_label: HashMap<&str, usize> = HashMap::new();
    for id in 0..n {
        let cmd = hb.command(id);
        let bytes = match cmd.kind {
            CommandKind::CopyH2D { bytes, .. } | CommandKind::CopyD2H { bytes, .. } => bytes,
            _ => 0,
        };
        for label in cmd.reads.iter().chain(cmd.writes.iter()) {
            let slot = *by_label.entry(label.as_str()).or_insert_with(|| {
                buffers.push((label.clone(), 0, Vec::new()));
                buffers.len() - 1
            });
            buffers[slot].1 = buffers[slot].1.max(bytes);
            buffers[slot].2.push(id);
        }
    }
    buffers.retain(|(_, bytes, _)| *bytes > 0);

    // A buffer is dead at `c` only if provably entirely before or entirely
    // after it; anything unordered must be assumed resident.
    let resident = |c: usize| {
        buffers.iter().filter(move |(_, _, touches)| {
            !(touches.iter().all(|&t| before(t, c)) || touches.iter().all(|&t| before(c, t)))
        })
    };
    let mut peak: u64 = 0;
    let mut peak_at: usize = 0;
    for c in 0..n {
        let resident_bytes: u64 = resident(c).map(|(_, bytes, _)| bytes).sum();
        if resident_bytes > spec.mem_capacity {
            let mut resident: Vec<(String, u64)> =
                resident(c).map(|(label, bytes, _)| (label.clone(), *bytes)).collect();
            resident.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            return Err(Box::new(MemoryWitness {
                at: hb.cref(c),
                resident_bytes,
                capacity: spec.mem_capacity,
                resident,
            }));
        }
        if resident_bytes > peak {
            peak = resident_bytes;
            peak_at = c;
        }
    }
    Ok(MemoryCert {
        peak_bytes: peak,
        capacity: spec.mem_capacity,
        peak_at: if hb.is_empty() {
            CmdRef { stream: 0, index: 0, label: "<empty>".to_string() }
        } else {
            hb.cref(peak_at)
        },
        buffers: buffers.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_vgpu::des::{Command, CommandClass, EventId, Schedule};
    use kfusion_vgpu::kernel::{KernelProfile, LaunchConfig};
    use kfusion_vgpu::pcie::HostMemKind;

    fn gpu() -> DeviceSpec {
        DeviceSpec::tesla_c2070()
    }

    fn kernel(name: &str) -> Command {
        let spec = gpu();
        let profile = KernelProfile::new(name).instr_per_elem(4.0).bytes_read_per_elem(4.0);
        let launch = LaunchConfig::for_elements(1024, &spec);
        Command::kernel(profile, launch, 1024)
    }

    fn pipeline() -> Schedule {
        let mut s = Schedule::new();
        s.add_stream();
        s.push(
            0,
            Command::h2d("in".to_string(), CommandClass::InputOutput, 100, HostMemKind::Pinned),
        );
        s.push(0, kernel("k").reading("in").writing("out"));
        s.push(
            0,
            Command::d2h("out".to_string(), CommandClass::InputOutput, 50, HostMemKind::Pinned),
        );
        s
    }

    #[test]
    fn serial_pipeline_is_certified() {
        let s = pipeline();
        let cert = certify_deadlock_free(&s).unwrap();
        assert_eq!(cert.commands, 3);
        assert_eq!(cert.event_edges, 0);
        let mem = certify_memory_bound(&s, &gpu()).unwrap();
        // Peak at the kernel: both the input and the output live.
        assert_eq!(mem.peak_bytes, 150);
        assert_eq!(mem.peak_at.index, 1);
    }

    #[test]
    fn cross_stream_wait_cycle_is_witnessed() {
        // stream 0: wait(1); record(0)   stream 1: wait(0); record(1)
        let mut s = Schedule::new();
        s.add_stream();
        s.add_stream();
        s.push(0, Command::wait(EventId(1)));
        s.push(0, Command::record(EventId(0)));
        s.push(1, Command::wait(EventId(0)));
        s.push(1, Command::record(EventId(1)));
        match certify_deadlock_free(&s) {
            Err(DeadlockWitness::Cycle { cmds }) => {
                assert!(cmds.len() >= 2, "cycle too short: {cmds:?}");
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn orphaned_wait_is_witnessed() {
        let mut s = Schedule::new();
        s.add_stream();
        s.push(0, Command::wait(EventId(7)));
        match certify_deadlock_free(&s) {
            Err(DeadlockWitness::UnmatchedWait { event, .. }) => assert_eq!(event, 7),
            other => panic!("expected an unmatched wait, got {other:?}"),
        }
    }

    #[test]
    fn the_first_orphaned_wait_is_the_witness() {
        // Two orphaned events: the witness is the first wait in (stream,
        // index) order on every run, not whichever event a hash seed
        // happens to visit first.
        let mut s = Schedule::new();
        s.add_stream();
        s.add_stream();
        s.push(0, kernel("k"));
        s.push(0, Command::wait(EventId(9)));
        s.push(1, Command::wait(EventId(3)));
        s.push(1, Command::wait(EventId(9)));
        for _ in 0..16 {
            match certify_deadlock_free(&s) {
                Err(DeadlockWitness::UnmatchedWait { cmd, event }) => {
                    assert_eq!((event, cmd.stream, cmd.index), (9, 0, 1));
                }
                other => panic!("expected an unmatched wait, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_cycle_with_a_tail_is_witnessed() {
        // The kernel after the cycle is stuck too but on no cycle; the
        // witness walks past it.
        let mut s = Schedule::new();
        s.add_stream();
        s.add_stream();
        s.push(0, Command::wait(EventId(1)));
        s.push(0, Command::record(EventId(0)));
        s.push(1, Command::wait(EventId(0)));
        s.push(1, Command::record(EventId(1)));
        s.push(1, kernel("tail"));
        match certify_deadlock_free(&s) {
            Err(DeadlockWitness::Cycle { cmds }) => {
                let at: Vec<_> = cmds.iter().map(|c| (c.stream, c.index)).collect();
                assert_eq!(at, [(0, 0), (0, 1), (1, 0), (1, 1)]);
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn record_wait_pairs_certify() {
        let mut s = Schedule::new();
        s.add_stream();
        s.add_stream();
        s.push(
            0,
            Command::h2d("a".to_string(), CommandClass::InputOutput, 10, HostMemKind::Pinned),
        );
        s.push(0, Command::record(EventId(0)));
        s.push(1, Command::wait(EventId(0)));
        s.push(1, kernel("k").reading("a"));
        let cert = certify_deadlock_free(&s).unwrap();
        assert_eq!(cert.event_edges, 1);
        certify_memory_bound(&s, &gpu()).unwrap();
    }

    #[test]
    fn over_capacity_names_the_violating_timestep() {
        let mut s = pipeline();
        // A second resident input pushes the kernel timestep over a tiny
        // device.
        s.streams[0].insert(
            1,
            Command::h2d("in2".to_string(), CommandClass::InputOutput, 100, HostMemKind::Pinned),
        );
        s.streams[0][2] = kernel("k").reading("in").reading("in2").writing("out");
        let mut small = gpu();
        small.mem_capacity = 200;
        let w = certify_memory_bound(&s, &small).unwrap_err();
        assert_eq!(w.resident_bytes, 250);
        assert_eq!(w.capacity, 200);
        assert!(w.resident.iter().any(|(l, _)| l == "in2"));
    }

    #[test]
    fn disjoint_phases_do_not_stack() {
        // Two back-to-back pipelines on one stream: the second input's
        // liveness must not overlap the first's (the first is provably
        // dead by then), so peak = one phase, not both.
        let mut s = Schedule::new();
        s.add_stream();
        for phase in 0..2 {
            let inp = format!("in{phase}");
            let out = format!("out{phase}");
            s.push(
                0,
                Command::h2d(inp.clone(), CommandClass::InputOutput, 100, HostMemKind::Pinned),
            );
            s.push(0, kernel("k").reading(&inp).writing(&out));
            s.push(0, Command::d2h(out, CommandClass::InputOutput, 50, HostMemKind::Pinned));
        }
        let mem = certify_memory_bound(&s, &gpu()).unwrap();
        assert_eq!(mem.peak_bytes, 150);
    }
}
