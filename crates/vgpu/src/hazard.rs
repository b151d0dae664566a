//! Static hazard detection for stream schedules.
//!
//! CUDA orders commands within a stream, but commands in *different* streams
//! run in whatever order the engines allow unless an event edge
//! ([`CommandKind::RecordEvent`] → [`CommandKind::WaitEvent`]) forces one.
//! A pipeline that forgets such an edge usually still "works" in a timing
//! simulator — the bug is silent data corruption, not a crash. This module
//! finds those bugs before simulation.
//!
//! The analysis builds the **happens-before** relation over all commands —
//! the transitive closure of stream program order plus event edges,
//! [`HappensBefore`], which the schedule certificates of `kfusion-model`
//! read too — then audits every named device buffer (see [`Command::reads`] /
//! [`Command::writes`]):
//!
//! * [`Hazard::UseBeforeDef`] — a read with **no** write of the buffer
//!   ordered before it. The classic fission mistake: a compute kernel
//!   launched in one stream while the H2D copy of its input is still in
//!   flight in another.
//! * [`Hazard::WriteRace`] — two writes to the same buffer with no ordering
//!   between them (WAW).
//! * [`Hazard::ReadWriteRace`] — a read that *is* preceded by some write but
//!   races with another, unordered write (RAW/WAR in either resolution).
//!
//! Only buffers with at least one declared writer are audited, so reads of
//! externally initialized buffers (a D2H of a buffer no modelled command
//! produced) never false-positive. The detector is exact for the declared
//! access sets: it flags a pair if and only if no happens-before path
//! orders it.

use crate::des::{Command, CommandKind, Schedule};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Position of a command in a schedule, for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdRef {
    /// Stream index.
    pub stream: usize,
    /// Position within the stream.
    pub index: usize,
    /// The command's label.
    pub label: String,
}

impl fmt::Display for CmdRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` (stream {}, cmd {})", self.label, self.stream, self.index)
    }
}

/// A data race the happens-before analysis found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hazard {
    /// A read no write of the buffer happens-before.
    UseBeforeDef {
        /// The racing buffer.
        buffer: String,
        /// The reading command.
        read: CmdRef,
        /// The (unordered or later) write that should have fed it.
        write: CmdRef,
    },
    /// Two unordered writes to the same buffer.
    WriteRace {
        /// The racing buffer.
        buffer: String,
        /// One write.
        first: CmdRef,
        /// The other.
        second: CmdRef,
    },
    /// A read ordered after one write but racing with another.
    ReadWriteRace {
        /// The racing buffer.
        buffer: String,
        /// The reading command.
        read: CmdRef,
        /// The unordered write.
        write: CmdRef,
    },
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hazard::UseBeforeDef { buffer, read, write } => write!(
                f,
                "use-before-def of buffer \"{buffer}\": {read} may run before {write} \
                 completes; add an event edge (record/wait) between their streams"
            ),
            Hazard::WriteRace { buffer, first, second } => write!(
                f,
                "write-write race on buffer \"{buffer}\": {first} and {second} are \
                 unordered"
            ),
            Hazard::ReadWriteRace { buffer, read, write } => write!(
                f,
                "read-write race on buffer \"{buffer}\": {read} is unordered with \
                 {write}"
            ),
        }
    }
}

impl std::error::Error for Hazard {}

/// Bitset of command ids, one word per 64 commands.
struct IdSet(Vec<u64>);

impl IdSet {
    fn new(n: usize) -> Self {
        IdSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    fn union_in(&mut self, other: &IdSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
}

/// The happens-before relation of a schedule: stream program order plus a
/// `record(e) → wait(e)` edge for every record and wait of the same event,
/// closed transitively. [`find_hazards`] audits buffer accesses against it,
/// and `kfusion_model::certify` proves deadlock freedom and a memory bound
/// from it; each reads the facts below under its own policy.
///
/// Commands are numbered stream by stream in issue order, so id order is
/// (stream, index) order. A `wait(e)` that no command records is *orphaned*
/// and gets no edge. If the edges form a cycle the schedule cannot run:
/// then no pair is ordered and [`HappensBefore::cycle`] names one.
pub struct HappensBefore<'a> {
    schedule: &'a Schedule,
    /// id → (stream, index).
    at: Vec<(usize, usize)>,
    succs: Vec<Vec<usize>>,
    event_edges: usize,
    /// The first orphaned wait and its event.
    orphan: Option<(usize, u32)>,
    /// Commands the topological sort could not order: those on a cycle and
    /// after one. Empty iff the relation is acyclic.
    stuck: Vec<usize>,
    /// `before[b]` holds every `a` that happens-before `b` (empty if cyclic).
    before: Vec<IdSet>,
}

impl<'a> HappensBefore<'a> {
    /// Build the relation of `schedule`.
    pub fn new(schedule: &'a Schedule) -> Self {
        let mut at = Vec::new();
        for (s, cmds) in schedule.streams.iter().enumerate() {
            at.extend((0..cmds.len()).map(|i| (s, i)));
        }
        let n = at.len();

        // ---- edges: stream order, then record → wait ----------------------
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut records: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut waits: Vec<(usize, u32)> = Vec::new();
        for (id, &(s, i)) in at.iter().enumerate() {
            if i + 1 < schedule.streams[s].len() {
                succs[id].push(id + 1);
            }
            match schedule.streams[s][i].kind {
                CommandKind::RecordEvent(e) => records.entry(e.0).or_default().push(id),
                CommandKind::WaitEvent(e) => waits.push((id, e.0)),
                _ => {}
            }
        }
        let mut event_edges = 0;
        let mut orphan = None;
        for &(w, e) in &waits {
            match records.get(&e) {
                Some(rs) => {
                    for &r in rs {
                        succs[r].push(w);
                        event_edges += 1;
                    }
                }
                None => {
                    orphan.get_or_insert((w, e));
                }
            }
        }

        // ---- topological order (Kahn) -------------------------------------
        let mut indeg = vec![0usize; n];
        for ys in &succs {
            for &y in ys {
                indeg[y] += 1;
            }
        }
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(x) = ready.pop() {
            order.push(x);
            for &y in &succs[x] {
                indeg[y] -= 1;
                if indeg[y] == 0 {
                    ready.push(y);
                }
            }
        }
        let stuck: Vec<usize> = (0..n).filter(|&i| indeg[i] > 0).collect();

        // ---- transitive closure in topological order ----------------------
        let mut before: Vec<IdSet> = Vec::new();
        if stuck.is_empty() {
            before = (0..n).map(|_| IdSet::new(n)).collect();
            for &x in &order {
                for &y in &succs[x] {
                    // Split-borrow: x != y in a DAG.
                    let (src, dst) = if x < y {
                        let (a, b) = before.split_at_mut(y);
                        (&a[x], &mut b[0])
                    } else {
                        let (a, b) = before.split_at_mut(x);
                        (&b[0], &mut a[y])
                    };
                    dst.union_in(src);
                    dst.insert(x);
                }
            }
        }
        HappensBefore { schedule, at, succs, event_edges, orphan, stuck, before }
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether the schedule has no commands.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The command with id `id`.
    pub fn command(&self, id: usize) -> &'a Command {
        let (s, i) = self.at[id];
        &self.schedule.streams[s][i]
    }

    /// Where command `id` sits, for diagnostics.
    pub fn cref(&self, id: usize) -> CmdRef {
        let (stream, index) = self.at[id];
        CmdRef { stream, index, label: self.command(id).label.clone() }
    }

    /// Cross-stream `record → wait` edges.
    pub fn event_edges(&self) -> usize {
        self.event_edges
    }

    /// Whether the edges are acyclic, i.e. every command can be ordered.
    pub fn is_acyclic(&self) -> bool {
        self.stuck.is_empty()
    }

    /// Whether command `a` happens-before command `b` (strictly). Always
    /// false on a cyclic relation.
    pub fn before(&self, a: usize, b: usize) -> bool {
        self.is_acyclic() && self.before[b].contains(a)
    }

    /// The first orphaned wait in (stream, index) order, with its event.
    pub fn orphaned_wait(&self) -> Option<(CmdRef, u32)> {
        self.orphan.map(|(w, e)| (self.cref(w), e))
    }

    /// One cycle of the relation, in edge order, or `None` if it is acyclic.
    /// Each command on it waits (through an event or stream order) on the
    /// one before it, and the first on the last.
    pub fn cycle(&self) -> Option<Vec<CmdRef>> {
        // `stuck` is the cycles plus what comes after them. Drop the
        // commands that reach no cycle, then follow first successors from
        // the lowest id left until one repeats.
        let mut on = vec![false; self.len()];
        for &x in &self.stuck {
            on[x] = true;
        }
        let mut trimmed = true;
        while trimmed {
            trimmed = false;
            for &x in &self.stuck {
                if on[x] && !self.succs[x].iter().any(|&y| on[y]) {
                    on[x] = false;
                    trimmed = true;
                }
            }
        }
        let mut path = vec![*self.stuck.iter().find(|&&x| on[x])?];
        loop {
            let cur = path[path.len() - 1];
            let next = self.succs[cur]
                .iter()
                .copied()
                .find(|&y| on[y])
                .expect("a command left after trimming has a successor left");
            if let Some(p) = path.iter().position(|&x| x == next) {
                return Some(path[p..].iter().map(|&id| self.cref(id)).collect());
            }
            path.push(next);
        }
    }
}

/// Find every hazard in `schedule`, in deterministic order (by buffer name,
/// then command position). An empty result means the schedule's declared
/// buffer accesses are fully ordered.
///
/// A schedule whose event edges form a cycle cannot execute at all; the
/// analysis returns no hazards for it and leaves the diagnosis to the
/// simulator's deadlock detection. An orphaned wait orders nothing.
pub fn find_hazards(schedule: &Schedule) -> Vec<Hazard> {
    let rel = HappensBefore::new(schedule);
    if !rel.is_acyclic() {
        return Vec::new(); // the simulator reports the deadlock
    }
    let hb = |a: usize, b: usize| rel.before(a, b);

    let mut buffers: BTreeMap<&str, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for id in 0..rel.len() {
        let cmd = rel.command(id);
        for w in &cmd.writes {
            buffers.entry(w.as_str()).or_default().0.push(id);
        }
        for r in &cmd.reads {
            buffers.entry(r.as_str()).or_default().1.push(id);
        }
    }
    let mut hazards = Vec::new();
    for (buffer, (writers, readers)) in &buffers {
        if writers.is_empty() {
            continue; // nothing modelled produces it: externally initialized
        }
        for (k, &w1) in writers.iter().enumerate() {
            for &w2 in &writers[k + 1..] {
                if !hb(w1, w2) && !hb(w2, w1) {
                    hazards.push(Hazard::WriteRace {
                        buffer: buffer.to_string(),
                        first: rel.cref(w1),
                        second: rel.cref(w2),
                    });
                }
            }
        }
        for &r in readers {
            if !writers.iter().any(|&w| hb(w, r)) {
                hazards.push(Hazard::UseBeforeDef {
                    buffer: buffer.to_string(),
                    read: rel.cref(r),
                    write: rel.cref(writers[0]),
                });
            } else if let Some(&w) = writers.iter().find(|&&w| !hb(w, r) && !hb(r, w)) {
                hazards.push(Hazard::ReadWriteRace {
                    buffer: buffer.to_string(),
                    read: rel.cref(r),
                    write: rel.cref(w),
                });
            }
        }
    }
    hazards
}

/// [`find_hazards`], as a pass/fail gate returning the first hazard.
pub fn check_schedule(schedule: &Schedule) -> Result<(), Hazard> {
    match find_hazards(schedule).into_iter().next() {
        None => Ok(()),
        Some(h) => Err(h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{Command, CommandClass, EventId};
    use crate::device::DeviceSpec;
    use crate::kernel::{KernelProfile, LaunchConfig};
    use crate::pcie::HostMemKind;

    const MB: u64 = 1 << 20;

    fn h2d(label: &str) -> Command {
        Command::h2d(label, CommandClass::InputOutput, MB, HostMemKind::Pinned)
    }

    fn d2h(label: &str) -> Command {
        Command::d2h(label, CommandClass::InputOutput, MB, HostMemKind::Pinned)
    }

    fn kern(name: &str) -> Command {
        let spec = DeviceSpec::tesla_c2070();
        let p = KernelProfile::new(name).instr_per_elem(8.0).bytes_read_per_elem(4.0);
        Command::kernel(p, LaunchConfig::for_elements(1 << 18, &spec), 1 << 18)
    }

    #[test]
    fn serial_stream_has_no_hazards() {
        let sched =
            Schedule::serial(vec![h2d("in"), kern("k").reading("in").writing("out"), d2h("out")]);
        assert_eq!(find_hazards(&sched), Vec::new());
    }

    #[test]
    fn compute_before_h2d_completes_is_use_before_def() {
        // The seeded defect class: the kernel launches in stream 1 with no
        // event ordering it after stream 0's input upload.
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, h2d("in"));
        sched.push(b, kern("filter").reading("in"));
        let hs = find_hazards(&sched);
        assert_eq!(hs.len(), 1);
        match &hs[0] {
            Hazard::UseBeforeDef { buffer, read, write } => {
                assert_eq!(buffer, "in");
                assert_eq!((read.stream, read.index), (b, 0));
                assert_eq!((write.stream, write.index), (a, 0));
            }
            other => panic!("expected UseBeforeDef, got {other:?}"),
        }
        // The distinct diagnostic names the buffer and prescribes the fix.
        assert!(hs[0].to_string().contains("use-before-def"));
        assert!(hs[0].to_string().contains("record/wait"));
    }

    #[test]
    fn event_edge_resolves_use_before_def() {
        let e = EventId(0);
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, h2d("in"));
        sched.push(a, Command::record(e));
        sched.push(b, Command::wait(e));
        sched.push(b, kern("filter").reading("in"));
        assert_eq!(find_hazards(&sched), Vec::new());
    }

    #[test]
    fn an_orphaned_wait_orders_nothing() {
        // No stream records event 9, so the wait adds no edge and the read
        // still races the upload.
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, h2d("in"));
        sched.push(b, Command::wait(EventId(9)));
        sched.push(b, kern("filter").reading("in"));
        assert!(matches!(&find_hazards(&sched)[..], [Hazard::UseBeforeDef { .. }]));
    }

    #[test]
    fn happens_before_is_transitive_across_streams() {
        // a --e0--> b --e1--> c: stream c's read is ordered after stream a's
        // write only through the intermediate stream.
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        let c = sched.add_stream();
        sched.push(a, h2d("in"));
        sched.push(a, Command::record(EventId(0)));
        sched.push(b, Command::wait(EventId(0)));
        sched.push(b, Command::record(EventId(1)));
        sched.push(c, Command::wait(EventId(1)));
        sched.push(c, kern("k").reading("in"));
        assert_eq!(find_hazards(&sched), Vec::new());
    }

    #[test]
    fn unordered_double_upload_is_a_write_race() {
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, h2d("buf"));
        sched.push(b, h2d("buf"));
        let hs = find_hazards(&sched);
        assert!(matches!(&hs[0], Hazard::WriteRace { buffer, .. } if buffer == "buf"), "{hs:?}");
    }

    #[test]
    fn ordered_read_racing_a_second_write_is_a_read_write_race() {
        let e = EventId(0);
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        let c = sched.add_stream();
        sched.push(a, h2d("buf"));
        sched.push(a, Command::record(e));
        sched.push(b, Command::wait(e));
        sched.push(b, kern("k").reading("buf"));
        // A third stream re-uploads the buffer with no ordering at all
        // against the reader (it does race the first write too).
        sched.push(c, h2d("buf"));
        let hs = find_hazards(&sched);
        assert!(hs.iter().any(|h| matches!(h, Hazard::WriteRace { .. })), "{hs:?}");
        assert!(
            hs.iter().any(|h| matches!(
                h,
                Hazard::ReadWriteRace { buffer, .. } if buffer == "buf"
            )),
            "{hs:?}"
        );
    }

    #[test]
    fn reads_of_unwritten_buffers_are_ignored() {
        // D2H of a buffer no modelled command produced (e.g. device-resident
        // results in a hand-built bench schedule) must not false-positive.
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, d2h("out0"));
        sched.push(b, d2h("out1"));
        sched.push(b, kern("k").reading("resident"));
        assert_eq!(find_hazards(&sched), Vec::new());
    }

    #[test]
    fn cyclic_event_edges_defer_to_deadlock_detection() {
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, Command::wait(EventId(0)));
        sched.push(a, Command::record(EventId(1)));
        sched.push(b, Command::wait(EventId(1)));
        sched.push(b, Command::record(EventId(0)));
        assert_eq!(find_hazards(&sched), Vec::new());
        let sys = crate::GpuSystem::c2070();
        assert!(matches!(sys.simulate(&sched), Err(crate::SimError::Deadlock { .. })));
    }

    #[test]
    fn simulate_rejects_hazardous_schedules() {
        let mut sched = Schedule::new();
        let a = sched.add_stream();
        let b = sched.add_stream();
        sched.push(a, h2d("in"));
        sched.push(b, kern("filter").reading("in"));
        let sys = crate::GpuSystem::c2070();
        assert!(matches!(
            sys.simulate(&sched),
            Err(crate::SimError::Hazard(Hazard::UseBeforeDef { .. }))
        ));
    }
}
