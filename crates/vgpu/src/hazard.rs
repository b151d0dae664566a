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
//! the transitive closure of stream program order plus event edges — then
//! audits every named device buffer (see [`Command::reads`] /
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

use crate::des::{CommandKind, Schedule};
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

/// Find every hazard in `schedule`, in deterministic order (by buffer name,
/// then command position). An empty result means the schedule's declared
/// buffer accesses are fully ordered.
///
/// A schedule whose event edges form a cycle cannot execute at all; the
/// analysis returns no hazards for it and leaves the diagnosis to the
/// simulator's deadlock detection.
pub fn find_hazards(schedule: &Schedule) -> Vec<Hazard> {
    // ---- flatten ----------------------------------------------------------
    let mut ids: Vec<(usize, usize)> = Vec::new(); // id -> (stream, index)
    let mut id_of: Vec<Vec<usize>> = Vec::new(); // [stream][index] -> id
    for (s, cmds) in schedule.streams.iter().enumerate() {
        let mut row = Vec::with_capacity(cmds.len());
        for i in 0..cmds.len() {
            row.push(ids.len());
            ids.push((s, i));
        }
        id_of.push(row);
    }
    let n = ids.len();
    let cmd = |id: usize| &schedule.streams[ids[id].0][ids[id].1];
    let cref = |id: usize| {
        let (stream, index) = ids[id];
        CmdRef { stream, index, label: cmd(id).label.clone() }
    };

    // ---- happens-before edges ---------------------------------------------
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg: Vec<usize> = vec![0; n];
    let mut records: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut waits: HashMap<u32, Vec<usize>> = HashMap::new();
    for id in 0..n {
        let (s, i) = ids[id];
        if i + 1 < id_of[s].len() {
            succs[id].push(id_of[s][i + 1]);
            indeg[id_of[s][i + 1]] += 1;
        }
        match &cmd(id).kind {
            CommandKind::RecordEvent(e) => records.entry(e.0).or_default().push(id),
            CommandKind::WaitEvent(e) => waits.entry(e.0).or_default().push(id),
            _ => {}
        }
    }
    for (e, recs) in &records {
        if let Some(ws) = waits.get(e) {
            for &r in recs {
                for &w in ws {
                    succs[r].push(w);
                    indeg[w] += 1;
                }
            }
        }
    }

    // ---- transitive closure in topological order --------------------------
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
    if order.len() < n {
        return Vec::new(); // cyclic event edges: the simulator reports deadlock
    }
    let mut before: Vec<IdSet> = (0..n).map(|_| IdSet::new(n)).collect();
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
    let hb = |a: usize, b: usize| before[b].contains(a);

    // ---- audit each written buffer ----------------------------------------
    let mut buffers: BTreeMap<&str, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for id in 0..n {
        for w in &cmd(id).writes {
            buffers.entry(w.as_str()).or_default().0.push(id);
        }
        for r in &cmd(id).reads {
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
                        first: cref(w1),
                        second: cref(w2),
                    });
                }
            }
        }
        for &r in readers {
            if !writers.iter().any(|&w| hb(w, r)) {
                hazards.push(Hazard::UseBeforeDef {
                    buffer: buffer.to_string(),
                    read: cref(r),
                    write: cref(writers[0]),
                });
            } else if let Some(&w) = writers.iter().find(|&&w| !hb(w, r) && !hb(r, w)) {
                hazards.push(Hazard::ReadWriteRace {
                    buffer: buffer.to_string(),
                    read: cref(r),
                    write: cref(w),
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
