//! `kfusion-streampool` — the paper's Stream Pool runtime (§IV-A).
//!
//! CUDA leaves stream management to the programmer: creating/destroying
//! streams, assigning work, and arranging synchronization through low-level
//! APIs. The paper wraps this in a small library whose API (Table IV) this
//! crate reproduces over the virtual GPU's streams:
//!
//! | paper API              | here                                  |
//! |------------------------|---------------------------------------|
//! | `getAvailabeStream()`  | [`StreamPool::get_available_stream`]  |
//! | `setStreamCommand()`   | [`StreamPool::set_stream_command`]    |
//! | `startStreams()`       | [`StreamPool::start_streams`]         |
//! | `waitAll()`            | [`StreamPool::wait_all`]              |
//! | `selectWait()`         | [`StreamPool::select_wait`]           |
//! | `terminate()`          | [`StreamPool::terminate`]             |
//!
//! Because the virtual GPU is a discrete-event simulator, "execution" is
//! deferred: commands queue per stream, [`StreamPool::start_streams`]
//! submits the whole schedule to the simulator, and
//! [`StreamPool::wait_all`] yields the resulting [`Timeline`]. The
//! programmer-facing contract — no knowledge of which underlying stream is
//! used, point-to-point sync without raw events — is the paper's.
//!
//! # Example
//!
//! ```
//! use kfusion_streampool::StreamPool;
//! use kfusion_vgpu::{Command, CommandClass, GpuSystem, HostMemKind};
//!
//! let mut pool = StreamPool::new(GpuSystem::c2070(), 3);
//! let s = pool.get_available_stream().unwrap();
//! pool.set_stream_command(
//!     s,
//!     Command::h2d("in", CommandClass::InputOutput, 64 << 20, HostMemKind::Pinned),
//! ).unwrap();
//! pool.start_streams().unwrap();
//! let timeline = pool.wait_all().unwrap();
//! assert!(timeline.total() > 0.0);
//! ```

use kfusion_vgpu::des::EventId;
use kfusion_vgpu::{Command, GpuSystem, Schedule, SimError, Timeline};

/// Opaque handle to a pool stream. The caller never learns which underlying
/// CUDA-stream-equivalent it maps to — that detail is the pool's, as in the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamHandle(usize);

/// Stream Pool errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// The handle does not belong to this pool.
    UnknownStream,
    /// Commands cannot be queued after `start_streams`.
    AlreadyStarted,
    /// `wait_all` called before `start_streams`.
    NotStarted,
    /// The simulator rejected the schedule.
    Sim(SimError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnknownStream => write!(f, "unknown stream handle"),
            PoolError::AlreadyStarted => write!(f, "pool already started"),
            PoolError::NotStarted => write!(f, "pool not started"),
            PoolError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<SimError> for PoolError {
    fn from(e: SimError) -> Self {
        PoolError::Sim(e)
    }
}

#[derive(Debug, Default)]
struct StreamSlot {
    commands: Vec<Command>,
    taken: bool,
}

/// A pool of streams over one simulated GPU system.
#[derive(Debug)]
pub struct StreamPool {
    system: GpuSystem,
    slots: Vec<StreamSlot>,
    next_event: u32,
    started: bool,
    timeline: Option<Timeline>,
}

impl StreamPool {
    /// A pool of `n_streams` streams on `system`.
    ///
    /// The paper notes a C2070 needs **at least three** streams to saturate
    /// its concurrency (download + compute + upload, §IV-B); the pool does
    /// not enforce that, but [`StreamPool::recommended_streams`] reports it.
    pub fn new(system: GpuSystem, n_streams: usize) -> Self {
        StreamPool {
            system,
            slots: (0..n_streams).map(|_| StreamSlot::default()).collect(),
            next_event: 0,
            started: false,
            timeline: None,
        }
    }

    /// Minimum streams to fully exploit a device's engines: one per copy
    /// engine plus one for compute.
    pub fn recommended_streams(system: &GpuSystem) -> usize {
        system.spec.copy_engines as usize + 1
    }

    /// Number of streams in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no streams.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Claim an idle stream (`getAvailabeStream`): a slot that is neither
    /// taken nor holding queued commands. Returns `None` when no such stream
    /// exists; [`StreamPool::terminate`] frees them all.
    pub fn get_available_stream(&mut self) -> Option<StreamHandle> {
        let idx = self.slots.iter().position(|s| !s.taken && s.commands.is_empty())?;
        self.slots[idx].taken = true;
        Some(StreamHandle(idx))
    }

    /// Queue a command on a claimed stream (`setStreamCommand`).
    pub fn set_stream_command(&mut self, h: StreamHandle, cmd: Command) -> Result<(), PoolError> {
        if self.started {
            return Err(PoolError::AlreadyStarted);
        }
        self.slot_mut(h)?.commands.push(cmd);
        kfusion_trace::counter("kfusion_streampool_commands_total", 1);
        Ok(())
    }

    /// Point-to-point synchronization (`selectWait`): everything queued on
    /// `waiter` *after* this call starts only once everything currently
    /// queued on `on` has finished — without the caller touching events.
    pub fn select_wait(&mut self, waiter: StreamHandle, on: StreamHandle) -> Result<(), PoolError> {
        if self.started {
            return Err(PoolError::AlreadyStarted);
        }
        // Validate both handles before mutating either queue.
        self.slot_mut(on)?;
        self.slot_mut(waiter)?;
        let event = EventId(self.next_event);
        self.next_event += 1;
        self.slot_mut(on)?.commands.push(Command::record(event));
        self.slot_mut(waiter)?.commands.push(Command::wait(event));
        Ok(())
    }

    /// Begin execution (`startStreams`): submit the queued schedule to the
    /// device simulator.
    pub fn start_streams(&mut self) -> Result<(), PoolError> {
        if self.started {
            return Err(PoolError::AlreadyStarted);
        }
        let _span = kfusion_trace::host_span("streampool", "start_streams");
        let schedule =
            Schedule { streams: self.slots.iter().map(|s| s.commands.clone()).collect() };
        self.timeline = Some(self.system.simulate(&schedule)?);
        self.started = true;
        Ok(())
    }

    /// Wait for the end of execution (`waitAll`), yielding the executed
    /// timeline.
    pub fn wait_all(&mut self) -> Result<&Timeline, PoolError> {
        if !self.started {
            return Err(PoolError::NotStarted);
        }
        Ok(self.timeline.as_ref().expect("started implies timeline"))
    }

    /// End execution immediately (`terminate`): discard queued commands and
    /// any in-flight execution, returning the pool to its initial state.
    pub fn terminate(&mut self) {
        for s in &mut self.slots {
            s.commands.clear();
            s.taken = false;
        }
        self.next_event = 0;
        self.started = false;
        self.timeline = None;
    }

    fn slot_mut(&mut self, h: StreamHandle) -> Result<&mut StreamSlot, PoolError> {
        self.slots.get_mut(h.0).ok_or(PoolError::UnknownStream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_vgpu::{CommandClass, DeviceSpec, HostMemKind, KernelProfile, LaunchConfig};

    fn sys() -> GpuSystem {
        GpuSystem::c2070()
    }

    fn kern(name: &str, n: u64) -> Command {
        let spec = DeviceSpec::tesla_c2070();
        let p = KernelProfile::new(name)
            .instr_per_elem(10.0)
            .bytes_read_per_elem(4.0)
            .bytes_written_per_elem(2.0);
        Command::kernel(p, LaunchConfig::for_elements(n, &spec), n)
    }

    #[test]
    fn streams_are_claimed_exclusively() {
        let mut pool = StreamPool::new(sys(), 2);
        let a = pool.get_available_stream().unwrap();
        let b = pool.get_available_stream().unwrap();
        assert_ne!(a, b);
        assert!(pool.get_available_stream().is_none());
    }

    #[test]
    fn commands_execute_per_stream_in_order() {
        let mut pool = StreamPool::new(sys(), 2);
        let s = pool.get_available_stream().unwrap();
        pool.set_stream_command(
            s,
            Command::h2d("in", CommandClass::InputOutput, 1 << 20, HostMemKind::Pinned),
        )
        .unwrap();
        pool.set_stream_command(s, kern("k", 1 << 18)).unwrap();
        pool.start_streams().unwrap();
        let t = pool.wait_all().unwrap();
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans[0].end <= t.spans[1].start + 1e-12);
    }

    #[test]
    fn select_wait_orders_across_streams() {
        let mut pool = StreamPool::new(sys(), 2);
        let a = pool.get_available_stream().unwrap();
        let b = pool.get_available_stream().unwrap();
        pool.set_stream_command(a, kern("first", 1 << 22)).unwrap();
        pool.select_wait(b, a).unwrap();
        pool.set_stream_command(
            b,
            Command::d2h("out", CommandClass::InputOutput, 8 << 20, HostMemKind::Pinned),
        )
        .unwrap();
        pool.start_streams().unwrap();
        let t = pool.wait_all().unwrap();
        let first = t.spans.iter().find(|s| s.label == "first").unwrap();
        let out = t.spans.iter().find(|s| s.label == "out").unwrap();
        assert!(out.start >= first.end - 1e-12);
    }

    #[test]
    fn wait_before_start_is_an_error() {
        let mut pool = StreamPool::new(sys(), 1);
        assert!(matches!(pool.wait_all(), Err(PoolError::NotStarted)));
    }

    #[test]
    fn double_start_is_an_error() {
        let mut pool = StreamPool::new(sys(), 1);
        pool.start_streams().unwrap();
        assert!(matches!(pool.start_streams(), Err(PoolError::AlreadyStarted)));
        assert!(matches!(
            pool.set_stream_command(StreamHandle(0), kern("k", 1)),
            Err(PoolError::AlreadyStarted)
        ));
    }

    #[test]
    fn terminate_resets_everything() {
        let mut pool = StreamPool::new(sys(), 2);
        let s = pool.get_available_stream().unwrap();
        pool.set_stream_command(s, kern("k", 1 << 20)).unwrap();
        pool.start_streams().unwrap();
        pool.terminate();
        assert!(matches!(pool.wait_all(), Err(PoolError::NotStarted)));
        // Everything is claimable and queues are empty again.
        assert!(pool.get_available_stream().is_some());
        pool.start_streams().unwrap();
        assert_eq!(pool.wait_all().unwrap().spans.len(), 0);
    }

    #[test]
    fn unknown_handle_rejected() {
        let mut pool = StreamPool::new(sys(), 1);
        assert!(matches!(
            pool.set_stream_command(StreamHandle(7), kern("k", 1)),
            Err(PoolError::UnknownStream)
        ));
        assert!(matches!(
            pool.select_wait(StreamHandle(0), StreamHandle(7)),
            Err(PoolError::UnknownStream)
        ));
    }

    #[test]
    fn recommended_streams_for_c2070_is_three() {
        // Paper: "at least three streams are needed to fully utilize its
        // concurrency capacity".
        assert_eq!(StreamPool::recommended_streams(&sys()), 3);
    }
}
