//! The deadlock certificate agrees with the simulator: on seeded random
//! schedules with record/wait edges — orphaned and cyclic waits included —
//! `certify_deadlock_free` holds exactly when `des::simulate` does not
//! deadlock.
//!
//! Each case index derives its own RNG stream, so a failure reproduces by
//! case number. Schedules that record an event twice are skipped: the
//! simulator rejects those for another reason.

use kfusion_model::certify::{certify_deadlock_free, DeadlockWitness};
use kfusion_prng::Rng;
use kfusion_vgpu::des::{self, Command, CommandClass, CommandKind, EventId, Schedule, SimError};
use kfusion_vgpu::{GpuSystem, HostMemKind};

const CASES: u64 = 512;

fn arb_schedule(rng: &mut Rng) -> Schedule {
    let events = rng.gen_range(1u32..5);
    let mut sched = Schedule::new();
    for _ in 0..rng.gen_range(1usize..5) {
        let s = sched.add_stream();
        for i in 0..rng.gen_range(0usize..7) {
            let cmd = match rng.gen_range(0usize..4) {
                0 => Command::record(EventId(rng.gen_range(0..events))),
                1 => Command::wait(EventId(rng.gen_range(0..events))),
                2 => Command::h2d(
                    format!("in{s}.{i}"),
                    CommandClass::InputOutput,
                    1 << 20,
                    HostMemKind::Pinned,
                ),
                _ => Command::host_work(format!("host{s}.{i}"), 1e-4),
            };
            sched.push(s, cmd);
        }
    }
    sched
}

fn records_an_event_twice(sched: &Schedule) -> bool {
    let mut recorded = Vec::new();
    for cmd in sched.streams.iter().flatten() {
        if let CommandKind::RecordEvent(e) = cmd.kind {
            if recorded.contains(&e.0) {
                return true;
            }
            recorded.push(e.0);
        }
    }
    false
}

#[test]
fn deadlock_certificate_holds_exactly_when_the_simulator_finishes() {
    let sys = GpuSystem::c2070();
    let (mut certified, mut orphans, mut cycles) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xDE << 32 | case);
        let sched = arb_schedule(&mut rng);
        if records_an_event_twice(&sched) {
            continue;
        }
        let cert = certify_deadlock_free(&sched);
        let sim = des::simulate(&sys, &sched);
        let deadlocked = match &sim {
            Ok(_) => false,
            Err(SimError::Deadlock { .. }) => true,
            Err(e) => panic!("case {case}: unexpected simulator error {e}"),
        };
        assert_eq!(cert.is_ok(), !deadlocked, "case {case}: {cert:?} vs {sim:?}\n{sched:?}");
        match cert {
            Ok(_) => certified += 1,
            Err(DeadlockWitness::UnmatchedWait { .. }) => orphans += 1,
            Err(DeadlockWitness::Cycle { .. }) => cycles += 1,
        }
    }
    // Every outcome must be well represented, or the agreement is vacuous.
    assert!(
        certified >= 50 && orphans >= 50 && cycles >= 20,
        "{certified} certified, {orphans} orphaned waits, {cycles} cycles"
    );
}
