//! Online checking of Algorithm-1 properties over the event stream.
//!
//! The [`InvariantSink`] assumes the run had inter-warp DMR enabled and
//! asserts, while events arrive:
//!
//! * **I1 — exactly-once**: every fully-utilized, result-producing
//!   instruction (the ones that enter inter-warp DMR) is verified exactly
//!   once, and every `Verify` names a known unverified instruction.
//! * **I2 — causality**: a verification happens strictly after the issue
//!   of the instruction it verifies.
//! * **I3 — monotonicity**: per SM, `Verify` timestamps never decrease
//!   (the Replay Checker is an in-order structure).
//! * **I4 — bounded queue**: ReplayQ occupancy never exceeds capacity.
//! * **I5 — RAW discipline**: when an instruction issues whose sources
//!   include a register with an unverified same-warp write, each such
//!   producer must be force-verified (`raw_stall`) before the SM's next
//!   issue slot; verifying an obligated producer any other way, or
//!   reaching the next slot with the obligation outstanding, is a
//!   violation.
//!
//! Cycles restart at zero on each kernel launch, so a `LaunchBegin`
//! closes out the previous launch (anything still unverified is a leak)
//! and resets the per-SM clocks.

use crate::event::{TraceEvent, VerifyKind};
use crate::sink::TraceSink;

/// How many violations are stored verbatim; the rest are only counted.
const MAX_STORED: usize = 64;

/// How many instructions from a warp's `head` a lookup compares before
/// it falls back to a binary search: verification is mostly in issue
/// order, so the one verified is nearly always among the first few.
const HEAD_PROBE: usize = 4;

/// Slots of an SM's warp cache, a power of two.
const WARP_CACHE: usize = 64;

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke ("I1".."I5").
    pub rule: &'static str,
    /// Human-readable description with event context.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)
    }
}

/// Violations found so far: the first [`MAX_STORED`] verbatim, the rest
/// counted.
#[derive(Debug, Default)]
struct Log {
    stored: Vec<Violation>,
    total: u64,
}

impl Log {
    fn violate(&mut self, rule: &'static str, message: String) {
        self.total += 1;
        if self.stored.len() < MAX_STORED {
            self.stored.push(Violation { rule, message });
        }
    }
}

/// One inter-warp-eligible instruction of a warp, named by its issue
/// cycle.
#[derive(Debug, Clone, Copy)]
struct Instr {
    issued: u64,
    /// Issued and awaiting verification.
    pending: bool,
    /// Verified once already this launch (a second verify is a double).
    verified: bool,
}

/// What the checker knows of one warp of one SM during a launch.
#[derive(Debug, Default)]
struct WarpState {
    /// Its instructions, sorted by issue cycle. A warp's issue cycles
    /// only grow, so registering one is an append.
    instrs: Vec<Instr>,
    /// No instruction before this index is pending. Verification is
    /// mostly in issue order, so the head is usually the one verified.
    head: usize,
    /// Unverified register writes as (register, issue cycle), in issue
    /// order.
    writes: Vec<(u16, u64)>,
}

impl WarpState {
    fn find(&self, issued: u64) -> Result<usize, usize> {
        let near = self.instrs[self.head..].iter().take(HEAD_PROBE);
        match near
            .take_while(|i| i.issued <= issued)
            .position(|i| i.issued == issued)
        {
            Some(k) => Ok(self.head + k),
            None => self.instrs.binary_search_by_key(&issued, |i| i.issued),
        }
    }

    /// Mark the instruction issued at `issued` pending.
    fn register(&mut self, issued: u64) {
        let fresh = Instr {
            issued,
            pending: true,
            verified: false,
        };
        let at = match self.instrs.last() {
            Some(last) if last.issued >= issued => match self.find(issued) {
                Ok(i) => {
                    self.instrs[i].pending = true;
                    i
                }
                Err(i) => {
                    self.instrs.insert(i, fresh);
                    i
                }
            },
            _ => {
                self.instrs.push(fresh);
                self.instrs.len() - 1
            }
        };
        self.head = self.head.min(at);
    }

    /// Verify the instruction issued at `issued`: returns whether it was
    /// pending, and whether it was not but had been verified before.
    fn verify(&mut self, issued: u64) -> (bool, bool) {
        let Ok(i) = self.find(issued) else {
            return (false, false);
        };
        let instr = &mut self.instrs[i];
        let known = instr.pending;
        let double = !known && instr.verified;
        instr.pending = false;
        instr.verified |= known;
        while self.instrs.get(self.head).is_some_and(|i| !i.pending) {
            self.head += 1;
        }
        (known, double)
    }

    /// The pending instructions' issue cycles, in order; clears them.
    fn take_pending(&mut self) -> impl Iterator<Item = u64> + '_ {
        let from = self.head;
        self.head = self.instrs.len();
        self.instrs[from..]
            .iter_mut()
            .filter_map(|i| std::mem::take(&mut i.pending).then_some(i.issued))
    }
}

/// One SM's checker state for the current launch.
#[derive(Debug)]
struct SmState {
    id: u32,
    /// Uids of the warps seen this launch, sorted; `warps[i]` belongs to
    /// `uids[i]`.
    uids: Vec<u64>,
    warps: Vec<WarpState>,
    /// Where recently found warps sit in `uids`, each in the slot
    /// [`cache_slot`] picks for its uid. A hint, checked against `uids`
    /// before use, so inserts and resets need not touch it. The resident
    /// warps of an SM fit, so a lookup rarely searches `uids`.
    cache: [u32; WARP_CACHE],
    /// RAW obligations open in the current issue slot:
    /// (warp, reg, producer issue cycle).
    obligations: Vec<(u64, u16, u64)>,
    /// Last verify timestamp seen on this SM (I3).
    last_verify: Option<u64>,
}

impl SmState {
    fn new(id: u32) -> Self {
        SmState {
            id,
            uids: Vec::new(),
            warps: Vec::new(),
            cache: [0; WARP_CACHE],
            obligations: Vec::new(),
            last_verify: None,
        }
    }

    /// Where warp `uid` sits in `uids`, or where it would go.
    fn find_warp(&mut self, uid: u64) -> Result<usize, usize> {
        let slot = &mut self.cache[cache_slot(uid)];
        let hint = *slot as usize;
        if self.uids.get(hint) == Some(&uid) {
            return Ok(hint);
        }
        let found = self.uids.binary_search(&uid);
        if let Ok(i) = found {
            *slot = i as u32;
        }
        found
    }

    /// Start tracking warp `uid` at `i`, where [`SmState::find_warp`]
    /// said it would go.
    fn insert_warp(&mut self, i: usize, uid: u64) {
        self.uids.insert(i, uid);
        self.warps.insert(i, WarpState::default());
        self.cache[cache_slot(uid)] = i as u32;
    }

    /// An issue slot boundary was reached: any RAW obligation still open
    /// means a consumer got past an unverified producer.
    fn close_slot(&mut self, cycle: u64, log: &mut Log) {
        let sm = self.id;
        for (warp, reg, issued) in self.obligations.drain(..) {
            log.violate(
                "I5",
                format!(
                    "sm {sm} cycle {cycle}: consumer proceeded while producer \
                     (warp {warp}, r{reg}, issued @{issued}) was still unverified"
                ),
            );
        }
    }

    /// Report every pending instruction as an I1 leak, in (warp, issue
    /// cycle) order, and stop expecting it.
    fn leak(&mut self, log: &mut Log, message: impl Fn(u64, u64) -> String) {
        for (&uid, warp) in self.uids.iter().zip(&mut self.warps) {
            for issued in warp.take_pending() {
                log.violate("I1", message(uid, issued));
            }
        }
    }

    /// Forget the launch.
    fn reset(&mut self) {
        self.uids.clear();
        self.warps.clear();
        self.obligations.clear();
        self.last_verify = None;
    }
}

/// The warp-cache slot of `uid`: Fibonacci hashing, so the uids of
/// consecutive blocks, which step by a block's warp count, spread over
/// the slots.
fn cache_slot(uid: u64) -> usize {
    (uid.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - WARP_CACHE.trailing_zeros())) as usize
}

/// Where SM `sm` sits in `sms` (sorted by id), or where it would go.
fn find_sm(sms: &[SmState], sm: u32) -> Result<usize, usize> {
    match sms.get(sm as usize) {
        Some(st) if st.id == sm => Ok(sm as usize),
        _ => sms.binary_search_by_key(&sm, |st| st.id),
    }
}

fn sm_or_insert(sms: &mut Vec<SmState>, sm: u32) -> &mut SmState {
    let i = find_sm(sms, sm).unwrap_or_else(|i| {
        sms.insert(i, SmState::new(sm));
        i
    });
    &mut sms[i]
}

/// A [`TraceSink`] that checks Algorithm-1 invariants online.
///
/// State is dense: SMs sorted by id (an SM's id is normally its index),
/// per SM the warps sorted by uid behind a small cache of recent lookups,
/// and per warp its instructions sorted by issue cycle with an advancing
/// head and its unverified register writes. Everything is dropped at
/// each `LaunchBegin`.
#[derive(Debug, Default)]
pub struct InvariantSink {
    sms: Vec<SmState>,
    log: Log,
    events: u64,
    finished: bool,
}

impl InvariantSink {
    /// Create a checker with no state.
    pub fn new() -> Self {
        InvariantSink::default()
    }

    /// Whether no invariant was violated so far.
    pub fn ok(&self) -> bool {
        self.log.total == 0
    }

    /// Total violations (including ones beyond the storage cap).
    pub fn total_violations(&self) -> u64 {
        self.log.total
    }

    /// The first 64 violations, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.log.stored
    }

    /// Events consumed.
    pub fn events_seen(&self) -> u64 {
        self.events
    }

    /// End-of-stream / end-of-launch: everything must have verified.
    /// Leaks are reported in (sm, warp, issue cycle) order.
    fn close_launch(&mut self) {
        for st in &mut self.sms {
            let sm = st.id;
            st.leak(&mut self.log, |warp, cycle| {
                format!("sm {sm}: instruction (warp {warp}, issued @{cycle}) was never verified")
            });
            st.reset();
        }
    }
}

impl TraceSink for InvariantSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match *ev {
            TraceEvent::LaunchBegin { .. } => self.close_launch(),
            TraceEvent::Issue {
                sm,
                cycle,
                warp,
                full,
                has_result,
                dst,
                ref srcs,
                ..
            } => {
                let st = sm_or_insert(&mut self.sms, sm);
                st.close_slot(cycle, &mut self.log);
                let registers = full && has_result;
                let w = match st.find_warp(warp) {
                    Ok(i) => i,
                    Err(i) if registers => {
                        st.insert_warp(i, warp);
                        i
                    }
                    Err(_) => return,
                };
                let w = &mut st.warps[w];
                // Open RAW obligations for every unverified same-warp
                // write feeding this instruction (deduped sources: one
                // register read twice is one hazard).
                let mut seen = [0u16; 4];
                let mut n = 0;
                for s in srcs.iter().flatten() {
                    if seen[..n].contains(&s.0) {
                        continue;
                    }
                    seen[n] = s.0;
                    n += 1;
                    for &(reg, c) in &w.writes {
                        if reg == s.0 {
                            st.obligations.push((warp, reg, c));
                        }
                    }
                }
                // Register the instruction itself (after the hazard scan:
                // an instruction is never its own producer).
                if registers {
                    w.register(cycle);
                    if let Some(r) = dst {
                        w.writes.push((r.0, cycle));
                    }
                }
            }
            TraceEvent::IntraPair { .. }
            | TraceEvent::Stall { .. }
            | TraceEvent::Error { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::TrialOutcome { .. } => {}
            TraceEvent::Enqueue {
                sm,
                cycle,
                depth,
                capacity,
                ..
            } => {
                if depth > capacity {
                    self.log.violate(
                        "I4",
                        format!(
                            "sm {sm} cycle {cycle}: ReplayQ occupancy {depth} \
                             exceeds capacity {capacity}"
                        ),
                    );
                }
            }
            TraceEvent::Verify {
                sm,
                cycle,
                warp,
                dst,
                kind,
                issued,
                ..
            } => {
                if cycle <= issued {
                    self.log.violate(
                        "I2",
                        format!(
                            "sm {sm}: verify of (warp {warp}, issued @{issued}) \
                             at cycle {cycle} is not strictly after issue"
                        ),
                    );
                }
                let st = sm_or_insert(&mut self.sms, sm);
                let mono = st.last_verify.is_none_or(|last| cycle >= last);
                st.last_verify = Some(cycle);
                let (known, double) = match st.find_warp(warp) {
                    Ok(i) => {
                        let w = &mut st.warps[i];
                        if let Some(r) = dst {
                            let this = |&(reg, c): &(u16, u64)| reg == r.0 && c == issued;
                            if let Some(at) = w.writes.iter().position(this) {
                                w.writes.remove(at);
                                // Only a malformed stream writes twice at one issue.
                                if w.writes[at..].iter().any(this) {
                                    w.writes.retain(|e| !this(e));
                                }
                            }
                        }
                        w.verify(issued)
                    }
                    Err(_) => (false, false),
                };
                let obligated = dst.is_some_and(|r| {
                    let ob = (warp, r.0, issued);
                    match st.obligations.iter().position(|o| *o == ob) {
                        Some(pos) => {
                            st.obligations.remove(pos);
                            true
                        }
                        None => false,
                    }
                });
                if !mono {
                    self.log.violate(
                        "I3",
                        format!(
                            "sm {sm}: verify timestamp went backwards to cycle {cycle} \
                             (warp {warp}, issued @{issued})"
                        ),
                    );
                }
                if double {
                    self.log.violate(
                        "I1",
                        format!(
                            "sm {sm} cycle {cycle}: (warp {warp}, issued @{issued}) \
                             verified twice"
                        ),
                    );
                } else if !known {
                    self.log.violate(
                        "I1",
                        format!(
                            "sm {sm} cycle {cycle}: verify of unknown instruction \
                             (warp {warp}, issued @{issued})"
                        ),
                    );
                }
                if obligated && kind != VerifyKind::RawStall {
                    self.log.violate(
                        "I5",
                        format!(
                            "sm {sm} cycle {cycle}: RAW-hazard producer \
                             (warp {warp}, issued @{issued}) verified via {} \
                             instead of a forced raw_stall",
                            kind.as_str()
                        ),
                    );
                }
            }
            TraceEvent::Idle { sm, cycle } => {
                if let Ok(i) = find_sm(&self.sms, sm) {
                    self.sms[i].close_slot(cycle, &mut self.log);
                }
            }
            TraceEvent::SmDone { sm, cycle, .. } => {
                let Ok(i) = find_sm(&self.sms, sm) else {
                    return;
                };
                let st = &mut self.sms[i];
                st.close_slot(cycle, &mut self.log);
                st.leak(&mut self.log, |warp, issued| {
                    format!(
                        "sm {sm} done @{cycle}: instruction (warp {warp}, \
                         issued @{issued}) was never verified"
                    )
                });
            }
        }
    }

    fn flush(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.close_launch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::{Reg, UnitType};

    fn issue(sm: u32, cycle: u64, warp: u64, dst: Option<u16>, srcs: &[u16]) -> TraceEvent {
        let mut s = [None; 4];
        for (i, r) in srcs.iter().enumerate() {
            s[i] = Some(Reg(*r));
        }
        TraceEvent::Issue {
            sm,
            cycle,
            warp,
            pc: 0,
            unit: UnitType::Sp,
            active: 32,
            full: true,
            has_result: true,
            dst: dst.map(Reg),
            srcs: s,
        }
    }

    fn verify(
        sm: u32,
        cycle: u64,
        warp: u64,
        dst: Option<u16>,
        kind: VerifyKind,
        issued: u64,
    ) -> TraceEvent {
        TraceEvent::Verify {
            sm,
            cycle,
            warp,
            unit: UnitType::Sp,
            dst: dst.map(Reg),
            kind,
            issued,
            active: 32,
        }
    }

    fn run(events: &[TraceEvent]) -> InvariantSink {
        let mut s = InvariantSink::new();
        for ev in events {
            s.event(ev);
        }
        s.flush();
        s
    }

    #[test]
    fn clean_stream_passes() {
        let s = run(&[
            issue(0, 0, 1, Some(5), &[]),
            issue(0, 1, 2, Some(6), &[]),
            verify(0, 1, 1, Some(5), VerifyKind::CoExecute, 0),
            verify(0, 2, 2, Some(6), VerifyKind::IdleSlot, 1),
            TraceEvent::SmDone {
                sm: 0,
                cycle: 2,
                drained: 0,
            },
        ]);
        assert!(s.ok(), "{:?}", s.violations());
        assert_eq!(s.events_seen(), 5);
    }

    #[test]
    fn unverified_instruction_is_a_leak() {
        let s = run(&[issue(0, 0, 1, Some(5), &[])]);
        assert_eq!(s.total_violations(), 1);
        assert_eq!(s.violations()[0].rule, "I1");
    }

    #[test]
    fn double_verify_is_flagged() {
        let s = run(&[
            issue(0, 0, 1, Some(5), &[]),
            verify(0, 1, 1, Some(5), VerifyKind::IdleSlot, 0),
            verify(0, 2, 1, Some(5), VerifyKind::Drain, 0),
        ]);
        assert!(s
            .violations()
            .iter()
            .any(|v| v.rule == "I1" && v.message.contains("twice")));
    }

    #[test]
    fn verify_at_issue_cycle_violates_causality() {
        let s = run(&[
            issue(0, 3, 1, Some(5), &[]),
            verify(0, 3, 1, Some(5), VerifyKind::CoExecute, 3),
        ]);
        assert!(s.violations().iter().any(|v| v.rule == "I2"));
    }

    #[test]
    fn backwards_verify_timestamps_are_flagged() {
        let s = run(&[
            issue(0, 0, 1, Some(5), &[]),
            issue(0, 1, 2, Some(6), &[]),
            verify(0, 5, 1, Some(5), VerifyKind::EagerStall, 0),
            verify(0, 2, 2, Some(6), VerifyKind::IdleSlot, 1),
        ]);
        assert!(s.violations().iter().any(|v| v.rule == "I3"));
    }

    #[test]
    fn queue_over_capacity_is_flagged() {
        let s = run(&[TraceEvent::Enqueue {
            sm: 0,
            cycle: 0,
            warp: 0,
            unit: UnitType::Sp,
            dst: None,
            depth: 5,
            capacity: 4,
        }]);
        assert!(s.violations().iter().any(|v| v.rule == "I4"));
    }

    #[test]
    fn raw_consumer_issuing_past_unverified_producer_is_flagged() {
        // Producer writes r5, consumer reads r5 next cycle, no raw_stall
        // verify before the following slot: exactly the pre-fix RF-slot
        // bug signature.
        let s = run(&[
            issue(0, 0, 7, Some(5), &[]),
            issue(0, 1, 7, Some(6), &[5]),
            TraceEvent::Idle { sm: 0, cycle: 2 },
        ]);
        assert!(
            s.violations().iter().any(|v| v.rule == "I5"),
            "{:?}",
            s.violations()
        );
    }

    #[test]
    fn raw_producer_verified_by_coexecute_instead_of_stall_is_flagged() {
        // Pre-fix case-1 path: the obligated producer gets a CoExecute
        // verify instead of a forced raw_stall.
        let s = run(&[
            issue(0, 0, 7, Some(5), &[]),
            issue(0, 1, 7, Some(6), &[5]),
            verify(0, 1, 7, Some(5), VerifyKind::CoExecute, 0),
        ]);
        assert!(
            s.violations()
                .iter()
                .any(|v| v.rule == "I5" && v.message.contains("coexec")),
            "{:?}",
            s.violations()
        );
    }

    #[test]
    fn raw_stall_discharges_the_obligation() {
        let s = run(&[
            issue(0, 0, 7, Some(5), &[]),
            issue(0, 1, 7, Some(6), &[5]),
            verify(0, 2, 7, Some(5), VerifyKind::RawStall, 0),
            verify(0, 2, 7, Some(6), VerifyKind::CoExecute, 1),
            TraceEvent::SmDone {
                sm: 0,
                cycle: 3,
                drained: 0,
            },
        ]);
        assert!(s.ok(), "{:?}", s.violations());
    }

    #[test]
    fn duplicate_src_registers_create_one_obligation() {
        let s = run(&[
            issue(0, 0, 7, Some(5), &[]),
            issue(0, 1, 7, Some(6), &[5, 5]),
            verify(0, 2, 7, Some(5), VerifyKind::RawStall, 0),
            verify(0, 2, 7, Some(6), VerifyKind::CoExecute, 1),
            TraceEvent::SmDone {
                sm: 0,
                cycle: 3,
                drained: 0,
            },
        ]);
        assert!(s.ok(), "{:?}", s.violations());
    }

    #[test]
    fn launch_boundary_resets_cycle_clocks() {
        let s = run(&[
            TraceEvent::LaunchBegin { index: 0 },
            issue(0, 0, 1, Some(5), &[]),
            verify(0, 9, 1, Some(5), VerifyKind::IdleSlot, 0),
            TraceEvent::LaunchBegin { index: 1 },
            // Cycles restart: a verify at cycle 1 is fine after the reset.
            issue(0, 0, 2, Some(5), &[]),
            verify(0, 1, 2, Some(5), VerifyKind::IdleSlot, 0),
        ]);
        assert!(s.ok(), "{:?}", s.violations());
    }

    #[test]
    fn flush_is_idempotent() {
        let mut s = InvariantSink::new();
        s.event(&issue(0, 0, 1, Some(5), &[]));
        s.flush();
        s.flush();
        assert_eq!(s.total_violations(), 1);
    }
}
