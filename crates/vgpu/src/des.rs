//! Deterministic discrete-event scheduler for stream command queues.
//!
//! CUDA semantics, reduced to what the paper's experiments exercise:
//! commands in one stream execute in issue order; commands in different
//! streams may overlap if they occupy different engines. The C2070 has one
//! compute engine and two DMA engines, so "one stream is downloading data to
//! GPU, the other stream is computing and the third stream is uploading
//! result to the CPU" (paper §IV-B) — exactly the overlap kernel fission
//! lives on.
//!
//! The scheduler is list scheduling over engine timelines: repeatedly pick
//! the ready stream-head command with the earliest feasible start. It is
//! fully deterministic (ties break toward the lowest stream index), so every
//! figure the harness regenerates is reproducible bit-for-bit.

use crate::kernel::{KernelProfile, LaunchConfig};
use crate::pcie::{Direction, HostMemKind};
use crate::GpuSystem;
use std::collections::HashMap;

/// Execution engines of the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The GPU's kernel execution engine (serial across kernels).
    Compute,
    /// DMA engine for host→device copies.
    CopyH2D,
    /// DMA engine for device→host copies (shared with [`Engine::CopyH2D`]
    /// when the device has a single copy engine).
    CopyD2H,
    /// The host CPU (used for the CPU-side gather after fission).
    Host,
}

/// Why a command exists, for the paper's execution-time breakdowns
/// (Fig. 9 splits *input/output* from *round trip* from *computation*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandClass {
    /// Transfer of original input or final output.
    InputOutput,
    /// Transfer of intermediate (temporary) data — the traffic fusion kills.
    RoundTrip,
    /// GPU kernel execution.
    Compute,
    /// Host-side work (e.g. the CPU gather kernel fission requires).
    HostWork,
    /// Synchronization bookkeeping (events); zero duration.
    Sync,
}

impl std::fmt::Display for CommandClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandClass::InputOutput => write!(f, "input/output"),
            CommandClass::RoundTrip => write!(f, "round trip"),
            CommandClass::Compute => write!(f, "computation"),
            CommandClass::HostWork => write!(f, "host work"),
            CommandClass::Sync => write!(f, "sync"),
        }
    }
}

/// Identifier for a cross-stream synchronization event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub u32);

/// What a command does.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandKind {
    /// Copy `bytes` from host to device.
    CopyH2D {
        /// Transfer size.
        bytes: u64,
        /// Host memory kind (pinned transfers are faster).
        mem: HostMemKind,
    },
    /// Copy `bytes` from device to host.
    CopyD2H {
        /// Transfer size.
        bytes: u64,
        /// Host memory kind.
        mem: HostMemKind,
    },
    /// Launch a kernel over `elems` elements.
    Kernel {
        /// Cost profile.
        profile: KernelProfile,
        /// Launch geometry.
        launch: LaunchConfig,
        /// Number of elements processed.
        elems: u64,
    },
    /// Occupy the host for a fixed duration.
    HostWork {
        /// Duration in seconds.
        seconds: f64,
    },
    /// Record `EventId` at the current stream position.
    RecordEvent(EventId),
    /// Block this stream until `EventId` has been recorded.
    WaitEvent(EventId),
}

/// A labelled, classified command in a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// Label shown in timelines (e.g. `"filter[seg3]"`).
    pub label: String,
    /// Breakdown class.
    pub class: CommandClass,
    /// Payload.
    pub kind: CommandKind,
    /// Named device buffers this command reads. H2D copies read nothing on
    /// the device; D2H copies read the buffer named by their label; kernels
    /// declare reads via [`Command::reading`].
    pub reads: Vec<String>,
    /// Named device buffers this command writes. H2D copies write the
    /// buffer named by their label; kernels declare writes via
    /// [`Command::writing`].
    pub writes: Vec<String>,
}

impl Command {
    /// A host→device input copy. Writes the device buffer named `label`.
    pub fn h2d(
        label: impl Into<String>,
        class: CommandClass,
        bytes: u64,
        mem: HostMemKind,
    ) -> Self {
        let label = label.into();
        Command {
            writes: vec![label.clone()],
            label,
            class,
            kind: CommandKind::CopyH2D { bytes, mem },
            reads: Vec::new(),
        }
    }

    /// A device→host output copy. Reads the device buffer named `label`.
    pub fn d2h(
        label: impl Into<String>,
        class: CommandClass,
        bytes: u64,
        mem: HostMemKind,
    ) -> Self {
        let label = label.into();
        Command {
            reads: vec![label.clone()],
            label,
            class,
            kind: CommandKind::CopyD2H { bytes, mem },
            writes: Vec::new(),
        }
    }

    /// A kernel launch. Declares no buffer accesses; chain
    /// [`Command::reading`]/[`Command::writing`] so the hazard detector can
    /// order it against copies.
    pub fn kernel(profile: KernelProfile, launch: LaunchConfig, elems: u64) -> Self {
        Command {
            label: profile.name.clone(),
            class: CommandClass::Compute,
            kind: CommandKind::Kernel { profile, launch, elems },
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Host-side work of a fixed duration.
    pub fn host_work(label: impl Into<String>, seconds: f64) -> Self {
        Command {
            label: label.into(),
            class: CommandClass::HostWork,
            kind: CommandKind::HostWork { seconds },
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Record an event.
    pub fn record(event: EventId) -> Self {
        Command {
            label: format!("record({})", event.0),
            class: CommandClass::Sync,
            kind: CommandKind::RecordEvent(event),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Wait on an event.
    pub fn wait(event: EventId) -> Self {
        Command {
            label: format!("wait({})", event.0),
            class: CommandClass::Sync,
            kind: CommandKind::WaitEvent(event),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Declare that this command reads the device buffer `buf`.
    pub fn reading(mut self, buf: impl Into<String>) -> Self {
        self.reads.push(buf.into());
        self
    }

    /// Declare that this command writes the device buffer `buf`.
    pub fn writing(mut self, buf: impl Into<String>) -> Self {
        self.writes.push(buf.into());
        self
    }
}

/// A set of FIFO command streams to simulate together.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Stream queues, executed with CUDA stream semantics.
    pub streams: Vec<Vec<Command>>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an empty stream, returning its index.
    pub fn add_stream(&mut self) -> usize {
        self.streams.push(Vec::new());
        self.streams.len() - 1
    }

    /// Append a command to stream `s`.
    ///
    /// # Panics
    /// If `s` is not a valid stream index.
    pub fn push(&mut self, s: usize, cmd: Command) {
        self.streams[s].push(cmd);
    }

    /// Build a single-stream schedule from a command list — the paper's
    /// "serial" executions.
    pub fn serial(cmds: Vec<Command>) -> Self {
        Schedule { streams: vec![cmds] }
    }
}

/// One executed command in the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stream the command came from.
    pub stream: usize,
    /// Position within the stream.
    pub index: usize,
    /// Command label.
    pub label: String,
    /// Breakdown class.
    pub class: CommandClass,
    /// Engine that executed it (`None` for sync pseudo-commands).
    pub engine: Option<Engine>,
    /// Simulated start time (s).
    pub start: f64,
    /// Simulated end time (s).
    pub end: f64,
}

impl Span {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The result of simulating a [`Schedule`].
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Executed spans, in completion order.
    pub spans: Vec<Span>,
}

impl Timeline {
    /// Simulated makespan: the latest span end (0 for an empty schedule).
    pub fn total(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Sum of span durations in `class`. Meaningful as a breakdown for
    /// serial schedules; for overlapped schedules it reports engine-busy
    /// time, which can exceed the makespan.
    pub fn time_in_class(&self, class: CommandClass) -> f64 {
        // `+ 0.0` canonicalizes the -0.0 an empty f64 sum produces.
        self.spans.iter().filter(|s| s.class == class).map(Span::duration).sum::<f64>() + 0.0
    }

    /// Sum of span durations whose label starts with `prefix`.
    pub fn time_with_label_prefix(&self, prefix: &str) -> f64 {
        self.spans.iter().filter(|s| s.label.starts_with(prefix)).map(Span::duration).sum::<f64>()
            + 0.0
    }

    /// Busy time of one engine.
    pub fn busy(&self, engine: Engine) -> f64 {
        self.spans.iter().filter(|s| s.engine == Some(engine)).map(Span::duration).sum::<f64>()
            + 0.0
    }
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Every remaining stream head is waiting on an event that will never be
    /// recorded.
    Deadlock {
        /// Streams still holding unexecuted commands.
        blocked_streams: Vec<usize>,
    },
    /// An event was recorded twice.
    DuplicateEvent(u32),
    /// The static hazard detector found a data race in the schedule.
    Hazard(crate::hazard::Hazard),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked_streams } => {
                write!(f, "deadlock: streams {blocked_streams:?} wait on unrecorded events")
            }
            SimError::DuplicateEvent(e) => write!(f, "event {e} recorded twice"),
            SimError::Hazard(h) => write!(f, "schedule hazard: {h}"),
        }
    }
}

impl std::error::Error for SimError {}

fn engine_of(kind: &CommandKind, copy_engines: u32) -> Option<Engine> {
    match kind {
        CommandKind::CopyH2D { .. } => Some(Engine::CopyH2D),
        CommandKind::CopyD2H { .. } => {
            // A single-copy-engine device serializes both directions.
            if copy_engines >= 2 {
                Some(Engine::CopyD2H)
            } else {
                Some(Engine::CopyH2D)
            }
        }
        CommandKind::Kernel { .. } => Some(Engine::Compute),
        CommandKind::HostWork { .. } => Some(Engine::Host),
        CommandKind::RecordEvent(_) | CommandKind::WaitEvent(_) => None,
    }
}

/// Simulate `schedule` on `system`, producing the executed [`Timeline`].
pub fn simulate(system: &GpuSystem, schedule: &Schedule) -> Result<Timeline, SimError> {
    let n_streams = schedule.streams.len();
    let mut head = vec![0usize; n_streams];
    let mut stream_end = vec![0.0f64; n_streams];
    let mut engine_free: HashMap<Engine, f64> = HashMap::new();
    let mut events: HashMap<u32, f64> = HashMap::new();
    let mut timeline = Timeline::default();
    let total_cmds: usize = schedule.streams.iter().map(Vec::len).sum();
    // Async copies that actually overlap other engine activity run below
    // bandwidthTest rates on this hardware generation; the penalty grows
    // with the number of contending streams (a 3+-stream fission pipeline
    // keeps both DMA engines, the kernel engine, and the host gather all
    // fighting for the link and the root complex). A copy is derated when,
    // at its start, some other engine is still busy — an approximation that
    // looks only at already-committed commands, which list scheduling
    // commits in (near) time order.
    let busy_streams = schedule.streams.iter().filter(|s| !s.is_empty()).count();
    let concurrent_derate = match busy_streams {
        0 | 1 => 1.0,
        2 => (1.0 + system.pcie.async_efficiency) / 2.0,
        _ => system.pcie.async_efficiency,
    };

    for _ in 0..total_cmds {
        // Find the ready head with the earliest feasible start.
        let mut best: Option<(f64, usize)> = None;
        for s in 0..n_streams {
            let Some(cmd) = schedule.streams[s].get(head[s]) else { continue };
            let est = match &cmd.kind {
                CommandKind::WaitEvent(e) => match events.get(&e.0) {
                    Some(&t) => stream_end[s].max(t),
                    None => continue, // blocked until another stream records it
                },
                kind => {
                    let engine_t = engine_of(kind, system.spec.copy_engines)
                        .map(|e| *engine_free.get(&e).unwrap_or(&0.0))
                        .unwrap_or(0.0);
                    stream_end[s].max(engine_t)
                }
            };
            if best.is_none_or(|(bt, _)| est < bt) {
                best = Some((est, s));
            }
        }
        let Some((start, s)) = best else {
            let blocked: Vec<usize> =
                (0..n_streams).filter(|&s| head[s] < schedule.streams[s].len()).collect();
            return Err(SimError::Deadlock { blocked_streams: blocked });
        };
        let cmd = &schedule.streams[s][head[s]];
        let engine = engine_of(&cmd.kind, system.spec.copy_engines);
        let copy_derate = {
            // Derate while any *other* stream still has pending or
            // in-flight work; a trailing copy after all streams drain runs
            // at full synchronous bandwidth.
            let others_active = (0..n_streams).any(|s2| {
                s2 != s && (head[s2] < schedule.streams[s2].len() || stream_end[s2] > start + 1e-15)
            });
            if others_active {
                concurrent_derate
            } else {
                1.0
            }
        };
        let duration = match &cmd.kind {
            CommandKind::CopyH2D { bytes, mem } => {
                system.pcie.transfer_time(*bytes, Direction::H2D, *mem) / copy_derate
            }
            CommandKind::CopyD2H { bytes, mem } => {
                system.pcie.transfer_time(*bytes, Direction::D2H, *mem) / copy_derate
            }
            CommandKind::Kernel { profile, launch, elems } => {
                profile.time(&system.spec, launch, *elems)
            }
            CommandKind::HostWork { seconds } => *seconds,
            CommandKind::RecordEvent(e) => {
                if events.insert(e.0, start).is_some() {
                    return Err(SimError::DuplicateEvent(e.0));
                }
                0.0
            }
            CommandKind::WaitEvent(_) => 0.0,
        };
        let end = start + duration;
        stream_end[s] = end;
        if let Some(e) = engine {
            engine_free.insert(e, end);
        }
        if kfusion_trace::enabled() {
            kfusion_trace::sim_span(
                crate::tracing::engine_track(engine),
                s as u32,
                &cmd.label,
                start,
                end,
            );
            kfusion_trace::counter("kfusion_sim_commands_total", 1);
            match &cmd.kind {
                CommandKind::CopyH2D { bytes, .. } => {
                    kfusion_trace::counter("kfusion_sim_pcie_bytes_total{dir=\"h2d\"}", *bytes)
                }
                CommandKind::CopyD2H { bytes, .. } => {
                    kfusion_trace::counter("kfusion_sim_pcie_bytes_total{dir=\"d2h\"}", *bytes)
                }
                _ => {}
            }
        }
        timeline.spans.push(Span {
            stream: s,
            index: head[s],
            label: cmd.label.clone(),
            class: cmd.class,
            engine,
            start,
            end,
        });
        head[s] += 1;
    }
    Ok(timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn sys() -> GpuSystem {
        GpuSystem::c2070()
    }

    fn kern(name: &str, n: u64) -> Command {
        let spec = DeviceSpec::tesla_c2070();
        let p = KernelProfile::new(name)
            .instr_per_elem(8.0)
            .bytes_read_per_elem(4.0)
            .bytes_written_per_elem(4.0);
        Command::kernel(p, LaunchConfig::for_elements(n, &spec), n)
    }

    const MB64: u64 = 64 << 20;

    #[test]
    fn serial_stream_executes_in_order() {
        let s = sys();
        let sched = Schedule::serial(vec![
            Command::h2d("in", CommandClass::InputOutput, MB64, HostMemKind::Pinned),
            kern("k", MB64 / 4),
            Command::d2h("out", CommandClass::InputOutput, MB64, HostMemKind::Pinned),
        ]);
        let t = s.simulate(&sched).unwrap();
        assert_eq!(t.spans.len(), 3);
        assert!(t.spans[0].end <= t.spans[1].start + 1e-12);
        assert!(t.spans[1].end <= t.spans[2].start + 1e-12);
        let sum: f64 = t.spans.iter().map(Span::duration).sum();
        assert!((t.total() - sum).abs() < 1e-9, "serial makespan == sum of parts");
    }

    #[test]
    fn independent_streams_overlap_on_different_engines() {
        let s = sys();
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, Command::h2d("inA", CommandClass::InputOutput, MB64, HostMemKind::Pinned));
        sched.push(b, kern("kB", MB64 / 4));
        let t = s.simulate(&sched).unwrap();
        // Copy and kernel both start at 0: full overlap.
        assert_eq!(t.spans[0].start, 0.0);
        assert_eq!(t.spans[1].start, 0.0);
        let serial_sum: f64 = t.spans.iter().map(Span::duration).sum();
        assert!(t.total() < serial_sum);
    }

    #[test]
    fn same_engine_serializes_across_streams() {
        let s = sys();
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, kern("k1", MB64));
        sched.push(b, kern("k2", MB64));
        let t = s.simulate(&sched).unwrap();
        // One compute engine: no overlap.
        let (s1, s2) = (&t.spans[0], &t.spans[1]);
        assert!(s1.end <= s2.start + 1e-12 || s2.end <= s1.start + 1e-12);
    }

    #[test]
    fn h2d_and_d2h_overlap_with_two_copy_engines() {
        let s = sys();
        assert_eq!(s.spec.copy_engines, 2);
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, Command::h2d("in", CommandClass::InputOutput, MB64, HostMemKind::Pinned));
        sched.push(b, Command::d2h("out", CommandClass::InputOutput, MB64, HostMemKind::Pinned));
        let t = s.simulate(&sched).unwrap();
        assert_eq!(t.spans[0].start, 0.0);
        assert_eq!(t.spans[1].start, 0.0);
    }

    #[test]
    fn single_copy_engine_serializes_directions() {
        let mut s = sys();
        s.spec.copy_engines = 1;
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, Command::h2d("in", CommandClass::InputOutput, MB64, HostMemKind::Pinned));
        sched.push(b, Command::d2h("out", CommandClass::InputOutput, MB64, HostMemKind::Pinned));
        let t = s.simulate(&sched).unwrap();
        let (s1, s2) = (&t.spans[0], &t.spans[1]);
        assert!(s1.end <= s2.start + 1e-12 || s2.end <= s1.start + 1e-12);
    }

    #[test]
    fn events_order_across_streams() {
        let s = sys();
        let e = EventId(0);
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, kern("producer", MB64));
        sched.push(a, Command::record(e));
        sched.push(b, Command::wait(e));
        sched.push(b, kern("consumer", MB64));
        let t = s.simulate(&sched).unwrap();
        let prod = t.spans.iter().find(|x| x.label == "producer").unwrap();
        let cons = t.spans.iter().find(|x| x.label == "consumer").unwrap();
        assert!(cons.start >= prod.end - 1e-12);
    }

    #[test]
    fn wait_on_never_recorded_event_deadlocks() {
        let s = sys();
        let sched = Schedule::serial(vec![Command::wait(EventId(9)), kern("k", 1024)]);
        assert!(matches!(s.simulate(&sched), Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn duplicate_event_record_is_an_error() {
        let s = sys();
        let sched =
            Schedule::serial(vec![Command::record(EventId(1)), Command::record(EventId(1))]);
        assert!(matches!(s.simulate(&sched), Err(SimError::DuplicateEvent(1))));
    }

    /// Kernel fission's Fig. 13 shape: `segments` segments of [32 MB H2D,
    /// compute-heavy kernel, D2H of `written` bytes per element], dealt
    /// round-robin over `streams` streams.
    fn pipeline(streams: usize, segments: usize, instr: f64, written: f64) -> Schedule {
        let spec = DeviceSpec::tesla_c2070();
        let seg_bytes = 32u64 << 20;
        let elems = seg_bytes / 4;
        let mut sched = Schedule::new();
        for _ in 0..streams {
            sched.add_stream();
        }
        for i in 0..segments {
            let p = KernelProfile::new(format!("k{i}"))
                .instr_per_elem(instr)
                .bytes_read_per_elem(4.0)
                .bytes_written_per_elem(written);
            let st = i % streams;
            let (input, output) = (format!("in{i}"), format!("out{i}"));
            let out_bytes = (elems as f64 * written) as u64;
            sched.push(
                st,
                Command::h2d(input, CommandClass::InputOutput, seg_bytes, HostMemKind::Pinned),
            );
            sched.push(st, Command::kernel(p, LaunchConfig::for_elements(elems, &spec), elems));
            sched.push(
                st,
                Command::d2h(output, CommandClass::InputOutput, out_bytes, HostMemKind::Pinned),
            );
        }
        sched
    }

    #[test]
    fn pipelined_segments_beat_serial() {
        // The kernel-fission effect in miniature: segments on 3 rotating
        // streams vs one stream. The kernel is compute-heavy so there is
        // work to hide the derated async transfers behind.
        let s = sys();
        let t_serial = s.simulate(&pipeline(1, 4, 400.0, 4.0)).unwrap().total();
        let t_pipe = s.simulate(&pipeline(3, 4, 400.0, 4.0)).unwrap().total();
        assert!(
            t_pipe < 0.8 * t_serial,
            "pipelining should hide transfers: serial {t_serial} vs pipe {t_pipe}"
        );
        // Six segments with half the output: 3 streams beat 1 by >= 15 %,
        // and the run gets within 25 % of its lower bound, the busiest
        // engine (H2D here).
        let t1 = s.simulate(&pipeline(1, 6, 500.0, 2.0)).unwrap().total();
        let t3 = s.simulate(&pipeline(3, 6, 500.0, 2.0)).unwrap();
        assert!(t3.total() < 0.85 * t1, "3-stream {} vs 1-stream {t1}", t3.total());
        let h2d_bound = t3.busy(Engine::CopyH2D);
        assert!(t3.total() < 1.25 * h2d_bound, "pipeline {} vs H2D bound {h2d_bound}", t3.total());
    }

    #[test]
    fn timeline_breakdown_classes() {
        let s = sys();
        let sched = Schedule::serial(vec![
            Command::h2d("in", CommandClass::InputOutput, MB64, HostMemKind::Pinned),
            Command::d2h("tmp_out", CommandClass::RoundTrip, MB64, HostMemKind::Paged),
            Command::h2d("tmp_in", CommandClass::RoundTrip, MB64, HostMemKind::Paged),
            kern("k", MB64 / 4),
        ]);
        let t = s.simulate(&sched).unwrap();
        assert!(
            t.time_in_class(CommandClass::RoundTrip) > t.time_in_class(CommandClass::InputOutput)
        );
        assert!(t.time_in_class(CommandClass::Compute) > 0.0);
        assert!(t.time_with_label_prefix("tmp_") > 0.0);
    }

    #[test]
    fn empty_class_sums_are_positive_zero() {
        // Rust's empty f64 sum is -0.0; the accessors must canonicalize so
        // reports never print "-0.0%".
        let t = Timeline::default();
        assert!(t.time_in_class(CommandClass::RoundTrip).is_sign_positive());
        assert!(t.time_with_label_prefix("x").is_sign_positive());
        assert!(t.busy(Engine::Host).is_sign_positive());
    }

    #[test]
    fn empty_schedule_is_fine() {
        let s = sys();
        let t = s.simulate(&Schedule::new()).unwrap();
        assert_eq!(t.total(), 0.0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn host_engine_runs_parallel_to_gpu() {
        let s = sys();
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, kern("gpu", MB64));
        sched.push(b, Command::host_work("cpu_gather", 0.01));
        let t = s.simulate(&sched).unwrap();
        assert_eq!(t.spans[0].start, 0.0);
        assert_eq!(t.spans[1].start, 0.0);
    }
}
