//! The Replay Checker (paper §4.3, Fig. 7, Algorithm 1): per-SM control
//! for inter-warp DMR.
//!
//! The checker watches consecutive issue slots — the instruction issued
//! one cycle earlier is "in RF" while the current one is "in DEC/SCHED".
//! For every fully-utilized instruction `A` in RF it decides, given the
//! incoming instruction `B`:
//!
//! 1. `type(A) != type(B)` → `A`'s DMR copy co-executes on its (idle)
//!    unit while `B` executes: **free**.
//! 2. same type, the ReplayQ holds an entry `q` of a different type →
//!    `q` verifies now, `A` is enqueued.
//! 3. same type, ReplayQ full → one stall cycle; `A` re-executes eagerly
//!    using the operands still in the pipeline.
//! 4. otherwise → enqueue `A`.
//!
//! Idle issue slots verify the pending RF instruction or drain one queued
//! entry. A consumer reading an *unverified* result stalls until its
//! producer verifies (RAW rule) — the producer may sit in the ReplayQ
//! *or* still in the RF slot; both are equally unverified. At kernel end
//! the queue drains, one entry per cycle.
//!
//! Verification timestamps are charged after any stalls of the same issue
//! slot (`b.cycle + stalls`) and clamped strictly after the verified
//! instruction's own issue, so the per-SM verify stream is monotone —
//! the property `warped-trace`'s invariant layer checks online.

use crate::replayq::{ReplayEntry, ReplayQ};
use warped_isa::{Reg, UnitType};
pub use warped_trace::{CheckerStats, VerifyKind};
use warped_trace::{TraceEvent, TraceHandle};

/// A verification event: `entry` was verified at `cycle` via `kind`.
#[derive(Debug, Clone)]
pub struct VerifyEvent {
    /// The instruction being verified.
    pub entry: ReplayEntry,
    /// How the verification slot was obtained.
    pub kind: VerifyKind,
    /// Cycle of the redundant execution.
    pub cycle: u64,
}

/// The incoming (DEC-stage) instruction, as the checker sees it.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// Issuing warp (global uid).
    pub warp_uid: u64,
    /// Unit type it occupies.
    pub unit: UnitType,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source registers (RAW rule).
    pub srcs: [Option<Reg>; 4],
    /// Issue cycle.
    pub cycle: u64,
    /// Whether all 32 lanes are active *and* the instruction produces a
    /// verifiable result (only such instructions enter inter-warp DMR).
    pub needs_inter: bool,
    /// Active mask.
    pub mask: u32,
}

/// One unverified obligation as seen from outside the checker: either
/// the RF-slot instruction (`prev`) or a buffered ReplayQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Issuing warp (global uid).
    pub warp_uid: u64,
    /// Unit type the obligation occupies.
    pub unit: UnitType,
    /// Destination register, if any (RAW rule).
    pub dst: Option<Reg>,
    /// Issue cycle of the obligation.
    pub cycle: u64,
}

/// The checker's externally observable verification state: what is still
/// unverified and in which order. Used by `warped-analysis` to step its
/// abstract Algorithm 1 model differentially against this implementation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckerSnapshot {
    /// The RF-slot instruction awaiting a verification opportunity.
    pub prev: Option<SlotSnapshot>,
    /// Buffered entries, oldest first.
    pub queue: Vec<SlotSnapshot>,
}

/// Per-SM Replay Checker state.
#[derive(Debug)]
pub struct ReplayChecker {
    queue: ReplayQ,
    prev: Option<ReplayEntry>,
    sm_id: u32,
    trace: TraceHandle,
    /// Behaviour counters.
    pub stats: CheckerStats,
}

/// Written by hand so `clone_from` reuses the ReplayQ's buffer: the
/// model checker resets one scratch checker per explored transition.
impl Clone for ReplayChecker {
    fn clone(&self) -> Self {
        ReplayChecker {
            queue: self.queue.clone(),
            prev: self.prev,
            sm_id: self.sm_id,
            trace: self.trace.clone(),
            stats: self.stats,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.queue.clone_from(&source.queue);
        self.prev = source.prev;
        self.sm_id = source.sm_id;
        self.trace.clone_from(&source.trace);
        self.stats = source.stats;
    }
}

/// The RF-slot RAW predicate: `p` is an unverified producer of one of
/// `b`'s sources within the same warp.
fn raw_conflict(p: &ReplayEntry, b: &Incoming) -> bool {
    p.warp_uid == b.warp_uid
        && p.dst
            .is_some_and(|d| b.srcs.iter().flatten().any(|s| *s == d))
}

impl ReplayChecker {
    /// Create a checker with a ReplayQ of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ReplayChecker {
            queue: ReplayQ::new(capacity),
            prev: None,
            sm_id: 0,
            trace: TraceHandle::disabled(),
            stats: CheckerStats::default(),
        }
    }

    /// Route this checker's events to `trace`, identifying it as `sm_id`.
    pub fn attach_trace(&mut self, sm_id: usize, trace: TraceHandle) {
        self.sm_id = sm_id as u32;
        self.trace = trace;
    }

    /// Current queue occupancy (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Observable verification state: the RF slot plus the buffered
    /// queue, oldest first. Drives the differential model checker in
    /// `warped-analysis`.
    pub fn snapshot(&self) -> CheckerSnapshot {
        let mut s = CheckerSnapshot::default();
        self.snapshot_into(&mut s);
        s
    }

    /// [`snapshot`](Self::snapshot) into `out`, reusing its queue buffer.
    pub fn snapshot_into(&self, out: &mut CheckerSnapshot) {
        let slot = |e: &ReplayEntry| SlotSnapshot {
            warp_uid: e.warp_uid,
            unit: e.unit,
            dst: e.dst,
            cycle: e.cycle,
        };
        out.prev = self.prev.as_ref().map(slot);
        out.queue.clear();
        out.queue.extend(self.queue.iter().map(slot));
    }

    /// Record one verification: bump counters, emit the trace event, and
    /// push the comparator event. The timestamp is clamped strictly after
    /// the verified instruction's issue (dual-issue can resolve the RF
    /// slot in the issue cycle itself).
    fn verify(
        &mut self,
        entry: ReplayEntry,
        kind: VerifyKind,
        cycle: u64,
        events: &mut Vec<VerifyEvent>,
    ) {
        let cycle = cycle.max(entry.cycle + 1);
        self.stats.verify(kind);
        self.trace.emit(|| TraceEvent::Verify {
            sm: self.sm_id,
            cycle,
            warp: entry.warp_uid,
            unit: entry.unit,
            dst: entry.dst,
            kind,
            issued: entry.cycle,
            active: entry.mask.count_ones(),
        });
        events.push(VerifyEvent { entry, kind, cycle });
    }

    /// Buffer `a` in the ReplayQ (the caller checked it is not full).
    fn enqueue(&mut self, a: ReplayEntry, cycle: u64) {
        let (warp, unit, dst) = (a.warp_uid, a.unit, a.dst);
        self.queue.push(a);
        let depth = self.queue.len();
        self.stats.enqueue(depth);
        let capacity = self.queue.capacity() as u32;
        self.trace.emit(|| TraceEvent::Enqueue {
            sm: self.sm_id,
            cycle,
            warp,
            unit,
            dst,
            depth: depth as u32,
            capacity,
        });
    }

    /// Process one issued instruction. Pushes verification events and
    /// returns stall cycles to charge the SM.
    pub fn on_issue(&mut self, b: &Incoming, events: &mut Vec<VerifyEvent>) -> u64 {
        let mut stalls = 0u64;

        // RAW on unverified results: verify every conflicting producer
        // first, one stall cycle each (paper §4.3). Producers can sit in
        // the ReplayQ or still in the RF slot — both are unverified.
        while let Some(e) = self.queue.take_raw_hazard(b.warp_uid, &b.srcs) {
            stalls += 1;
            self.verify(e, VerifyKind::RawStall, b.cycle + stalls, events);
        }
        if self.prev.as_ref().is_some_and(|p| raw_conflict(p, b)) {
            let p = self.prev.take().expect("checked above");
            stalls += 1;
            self.verify(p, VerifyKind::RawStall, b.cycle + stalls, events);
        }

        if let Some(a) = self.prev.take() {
            if a.unit != b.unit {
                // Case 1: co-execute the DMR copy of A on its idle unit.
                self.verify(a, VerifyKind::CoExecute, b.cycle + stalls, events);
            } else if let Some(q) = self.queue.take_different_type(a.unit) {
                // Case 2: a queued different-type entry verifies now;
                // A takes its place in the queue.
                self.verify(q, VerifyKind::QueueCoExecute, b.cycle + stalls, events);
                self.enqueue(a, b.cycle);
            } else if self.queue.is_full() {
                // Case 3: stall one cycle, re-execute eagerly.
                stalls += 1;
                self.verify(a, VerifyKind::EagerStall, b.cycle + stalls, events);
            } else {
                // Case 4: buffer for later.
                self.enqueue(a, b.cycle);
            }
        } else if let Some(q) = self.queue.take_different_type(b.unit) {
            // Spare verification slot: drain one compatible entry.
            self.verify(q, VerifyKind::Drain, b.cycle + stalls, events);
        }

        if b.needs_inter {
            self.prev = Some(ReplayEntry {
                warp_uid: b.warp_uid,
                unit: b.unit,
                dst: b.dst,
                cycle: b.cycle,
                mask: b.mask,
            });
        }
        if stalls > 0 {
            self.stats.stall(stalls);
            self.trace.emit(|| TraceEvent::Stall {
                sm: self.sm_id,
                cycle: b.cycle,
                warp: b.warp_uid,
                cycles: stalls,
            });
        }
        stalls
    }

    /// Process an idle issue slot: all units are free, so the pending RF
    /// instruction (or one queued entry) verifies for free.
    pub fn on_idle(&mut self, cycle: u64, events: &mut Vec<VerifyEvent>) {
        if let Some(a) = self.prev.take() {
            self.verify(a, VerifyKind::IdleSlot, cycle, events);
        } else if let Some(q) = self.queue.take_any() {
            self.verify(q, VerifyKind::Drain, cycle, events);
        }
    }

    /// Kernel end: verify the pending instruction for free (units go
    /// idle) and drain the queue, one entry per cycle. Returns the cycles
    /// appended to the SM's completion time.
    pub fn on_done(&mut self, cycle: u64, events: &mut Vec<VerifyEvent>) -> u64 {
        if let Some(a) = self.prev.take() {
            self.verify(a, VerifyKind::IdleSlot, cycle, events);
        }
        let mut extra = 0;
        while let Some(q) = self.queue.take_any() {
            extra += 1;
            self.verify(q, VerifyKind::Drain, cycle + extra, events);
        }
        self.stats.drain(extra);
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incoming(warp: u64, unit: UnitType, cycle: u64, full: bool) -> Incoming {
        Incoming {
            warp_uid: warp,
            unit,
            dst: Some(Reg(1)),
            srcs: [None; 4],
            cycle,
            needs_inter: full,
            mask: u32::MAX,
        }
    }

    #[test]
    fn alternating_types_verify_free() {
        // Paper Fig. 4: interleaved add/load verifies with zero stalls.
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        let units = [UnitType::Sp, UnitType::LdSt, UnitType::Sp, UnitType::LdSt];
        let mut stalls = 0;
        for (t, u) in units.iter().enumerate() {
            stalls += c.on_issue(&incoming(t as u64, *u, t as u64, true), &mut ev);
        }
        stalls += c.on_done(4, &mut ev);
        assert_eq!(stalls, 0, "alternating types must be free");
        assert_eq!(ev.len(), 4);
        assert_eq!(c.stats.verified[VerifyKind::CoExecute as usize], 3);
        assert_eq!(c.stats.verified[VerifyKind::IdleSlot as usize], 1);
    }

    #[test]
    fn same_type_run_fills_queue_then_stalls() {
        let mut c = ReplayChecker::new(2);
        let mut ev = Vec::new();
        let mut stalls = 0;
        for t in 0..5u64 {
            stalls += c.on_issue(&incoming(t, UnitType::Sp, t, true), &mut ev);
        }
        // Instructions 0,1 enqueue; resolving 2 and 3 find a full queue
        // of same-type entries -> eager stalls.
        assert_eq!(stalls, 2);
        assert_eq!(c.stats.verified[VerifyKind::EagerStall as usize], 2);
        assert_eq!(c.queue_len(), 2);
    }

    #[test]
    fn zero_capacity_queue_stalls_every_same_type_pair() {
        let mut c = ReplayChecker::new(0);
        let mut ev = Vec::new();
        let mut stalls = 0;
        for t in 0..4u64 {
            stalls += c.on_issue(&incoming(t, UnitType::Sp, t, true), &mut ev);
        }
        assert_eq!(stalls, 3, "every resolved same-type pair stalls");
    }

    #[test]
    fn queued_entry_coexecutes_with_different_type_later() {
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        // Two SP instructions: first gets enqueued.
        c.on_issue(&incoming(0, UnitType::Sp, 0, true), &mut ev);
        c.on_issue(&incoming(1, UnitType::Sp, 1, true), &mut ev);
        assert_eq!(c.queue_len(), 1);
        // An LD/ST arrives: prev (SP) co-executes (case 1).
        c.on_issue(&incoming(2, UnitType::LdSt, 2, true), &mut ev);
        assert_eq!(c.stats.verified[VerifyKind::CoExecute as usize], 1);
        // Another LD/ST: prev is LD/ST, same type; queue holds an SP ->
        // case 2 verifies the queued SP.
        c.on_issue(&incoming(3, UnitType::LdSt, 3, true), &mut ev);
        assert_eq!(c.stats.verified[VerifyKind::QueueCoExecute as usize], 1);
        assert_eq!(c.queue_len(), 1); // the LD/ST took its place
    }

    #[test]
    fn idle_slot_verifies_pending_then_drains() {
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        c.on_issue(&incoming(0, UnitType::Sp, 0, true), &mut ev);
        c.on_issue(&incoming(1, UnitType::Sp, 1, true), &mut ev); // 0 enqueued
        c.on_idle(2, &mut ev); // verifies pending instr 1
        assert_eq!(c.stats.verified[VerifyKind::IdleSlot as usize], 1);
        c.on_idle(3, &mut ev); // drains instr 0
        assert_eq!(c.stats.verified[VerifyKind::Drain as usize], 1);
        assert_eq!(c.queue_len(), 0);
    }

    #[test]
    fn raw_hazard_forces_verification_with_stall() {
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        let mut producer = incoming(7, UnitType::Sp, 0, true);
        producer.dst = Some(Reg(5));
        c.on_issue(&producer, &mut ev);
        // Another same-type instruction pushes the producer into the queue.
        c.on_issue(&incoming(7, UnitType::Sp, 1, true), &mut ev);
        let s = c.snapshot();
        assert_eq!(s.queue.len(), 1);
        assert_eq!((s.queue[0].warp_uid, s.queue[0].dst), (7, Some(Reg(5))));
        // A consumer of r5 in the same warp must stall.
        let mut consumer = incoming(7, UnitType::Sp, 9, true);
        consumer.srcs = [Some(Reg(5)), None, None, None];
        let stalls = c.on_issue(&consumer, &mut ev);
        assert_eq!(stalls, 1);
        assert_eq!(c.stats.verified[VerifyKind::RawStall as usize], 1);
        let s = c.snapshot();
        assert!(
            s.prev.iter().chain(&s.queue).all(|e| e.dst != Some(Reg(5))),
            "the producer of r5 is verified: {s:?}"
        );
    }

    #[test]
    fn raw_hazard_on_rf_slot_producer_also_stalls() {
        // Regression: the producer is still in the RF slot (`prev`), not
        // yet in the ReplayQ. Its consumer must stall and force-verify it
        // exactly like a queued producer; the pre-fix checker scanned
        // only the queue and issued the consumer with no stall.
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        let mut producer = incoming(7, UnitType::Sp, 0, true);
        producer.dst = Some(Reg(5));
        c.on_issue(&producer, &mut ev);
        let s = c.snapshot();
        assert_eq!(s.prev.map(|p| (p.warp_uid, p.dst)), Some((7, Some(Reg(5)))));
        assert!(s.queue.is_empty());

        let mut consumer = incoming(7, UnitType::Sp, 1, true);
        consumer.srcs = [Some(Reg(5)), None, None, None];
        let stalls = c.on_issue(&consumer, &mut ev);
        assert_eq!(stalls, 1, "RF-slot producer must charge a RAW stall");
        assert_eq!(c.stats.verified[VerifyKind::RawStall as usize], 1);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].entry.warp_uid, 7);
        assert_eq!(ev[0].entry.cycle, 0, "the producer, not the consumer");
        assert_eq!(ev[0].cycle, 2, "verified behind the stall (cycle 1+1)");
        // The producer left the RF slot — it must not verify again.
        c.on_done(10, &mut ev);
        assert_eq!(c.stats.verified[VerifyKind::RawStall as usize], 1);
        assert_eq!(
            c.stats.total_verified(),
            2,
            "producer (raw) + consumer (idle at done)"
        );
    }

    #[test]
    fn rf_slot_raw_checks_registers_not_just_warp() {
        // Same warp, but the consumer reads a different register: no
        // hazard, the RF instruction resolves through the normal cases.
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        let mut producer = incoming(7, UnitType::Sp, 0, true);
        producer.dst = Some(Reg(5));
        c.on_issue(&producer, &mut ev);
        let mut consumer = incoming(7, UnitType::LdSt, 1, true);
        consumer.srcs = [Some(Reg(6)), None, None, None];
        let stalls = c.on_issue(&consumer, &mut ev);
        assert_eq!(stalls, 0);
        assert_eq!(c.stats.verified[VerifyKind::CoExecute as usize], 1);
        assert_eq!(c.stats.verified[VerifyKind::RawStall as usize], 0);
    }

    #[test]
    fn verify_timestamps_account_for_raw_stalls() {
        // Regression: a co-execution resolving in the same slot as a RAW
        // stall must be charged after the stall, not at the raw issue
        // cycle. Pre-fix, the RawStall landed at cycle 3 but the
        // CoExecute at cycle 2 — time ran backwards.
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        let mut producer = incoming(7, UnitType::Sp, 0, true);
        producer.dst = Some(Reg(5));
        c.on_issue(&producer, &mut ev);
        // Same-type instruction pushes the producer into the queue and
        // becomes the new RF occupant.
        let mut other = incoming(7, UnitType::Sp, 1, true);
        other.dst = Some(Reg(6));
        c.on_issue(&other, &mut ev);
        // Different-type consumer of r5: queue-RAW verifies the producer
        // behind a stall, then the RF occupant co-executes (case 1).
        let mut consumer = incoming(7, UnitType::LdSt, 2, true);
        consumer.srcs = [Some(Reg(5)), None, None, None];
        let stalls = c.on_issue(&consumer, &mut ev);
        assert_eq!(stalls, 1);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, VerifyKind::RawStall);
        assert_eq!(ev[0].cycle, 3);
        assert_eq!(ev[1].kind, VerifyKind::CoExecute);
        assert_eq!(ev[1].cycle, 3, "co-execution happens after the stall");
    }

    #[test]
    fn verify_cycle_is_strictly_after_issue() {
        // Dual-issue resolves the RF slot in the issue cycle itself; the
        // verification must still be stamped strictly later.
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        c.on_issue(&incoming(0, UnitType::Sp, 5, true), &mut ev);
        c.on_issue(&incoming(1, UnitType::LdSt, 5, true), &mut ev);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].entry.cycle, 5);
        assert_eq!(ev[0].cycle, 6);
    }

    #[test]
    fn verify_timestamps_are_monotone_over_random_sequences() {
        // LCG-driven pseudo-random instruction streams: whatever the
        // interleaving of units, registers, and idle slots, the verify
        // timestamps the checker emits must never decrease and must be
        // strictly after their instruction's issue.
        let mut seed: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for trial in 0..50 {
            let mut c = ReplayChecker::new((trial % 7) as usize);
            let mut ev = Vec::new();
            let mut cycle = 0u64;
            for _ in 0..200 {
                let r = next();
                if r % 5 == 0 {
                    c.on_idle(cycle, &mut ev);
                } else {
                    let unit = UnitType::ALL[(r % 3) as usize];
                    let mut b = incoming(r % 4, unit, cycle, r % 7 != 0);
                    b.dst = Some(Reg((r % 8) as u16));
                    b.srcs = [
                        Some(Reg(((r >> 3) % 8) as u16)),
                        ((r >> 6) % 2 == 0).then_some(Reg(((r >> 7) % 8) as u16)),
                        None,
                        None,
                    ];
                    cycle += c.on_issue(&b, &mut ev);
                }
                cycle += 1;
            }
            c.on_done(cycle, &mut ev);
            let mut last = 0u64;
            for e in &ev {
                assert!(
                    e.cycle > e.entry.cycle,
                    "trial {trial}: verify at {} not after issue at {}",
                    e.cycle,
                    e.entry.cycle
                );
                assert!(
                    e.cycle >= last,
                    "trial {trial}: verify went backwards {} -> {}",
                    last,
                    e.cycle
                );
                last = e.cycle;
            }
        }
    }

    #[test]
    fn partial_warps_still_resolve_the_rf_instruction() {
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        c.on_issue(&incoming(0, UnitType::Sp, 0, true), &mut ev);
        // Partial (needs_inter = false) different-type instruction still
        // gives the pending SP a free co-execution slot.
        c.on_issue(&incoming(1, UnitType::LdSt, 1, false), &mut ev);
        assert_eq!(c.stats.verified[VerifyKind::CoExecute as usize], 1);
        // And it does not become pending itself.
        let extra = c.on_done(2, &mut ev);
        assert_eq!(extra, 0);
        assert_eq!(c.stats.total_verified(), 1);
    }

    #[test]
    fn done_drains_one_entry_per_cycle() {
        let mut c = ReplayChecker::new(10);
        let mut ev = Vec::new();
        for t in 0..4u64 {
            c.on_issue(&incoming(t, UnitType::Sp, t, true), &mut ev);
        }
        // queue: 3 entries, prev: instr 3.
        let extra = c.on_done(10, &mut ev);
        assert_eq!(extra, 3);
        assert_eq!(c.stats.drain_cycles, 3);
        assert_eq!(c.stats.total_verified(), 4);
        assert_eq!(c.snapshot(), CheckerSnapshot::default(), "nothing left");
    }

    #[test]
    fn every_inter_instruction_is_eventually_verified() {
        // Pseudo-random unit sequence; at the end every instruction must
        // have exactly one verification event.
        let mut c = ReplayChecker::new(5);
        let mut ev = Vec::new();
        let units = [
            UnitType::Sp,
            UnitType::Sp,
            UnitType::Sfu,
            UnitType::Sp,
            UnitType::LdSt,
            UnitType::LdSt,
            UnitType::LdSt,
            UnitType::Sp,
            UnitType::Sfu,
            UnitType::Sp,
        ];
        for (t, u) in units.iter().enumerate() {
            c.on_issue(&incoming(t as u64, *u, t as u64, true), &mut ev);
        }
        c.on_done(100, &mut ev);
        assert_eq!(ev.len(), units.len());
        let mut warps: Vec<u64> = ev.iter().map(|e| e.entry.warp_uid).collect();
        warps.sort_unstable();
        assert_eq!(warps, (0..10).collect::<Vec<_>>());
    }
}
