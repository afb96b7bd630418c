//! The typed event vocabulary of the trace layer.
//!
//! One event per observable pipeline fact: warp-instruction issue,
//! intra-warp DMR pairing, Replay-Checker enqueue / verification / stall,
//! SM idle slots and completion, comparator detections, and launch
//! boundaries (cycles restart at zero on each kernel launch).

use warped_isa::{Reg, UnitType};

/// How an instruction got verified: the verification slot the Replay
/// Checker in `warped-core` used (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyKind {
    /// Co-executed with a different-type successor (Algorithm 1 case 1).
    CoExecute,
    /// Dequeued alongside a different-type instruction (case 2).
    QueueCoExecute,
    /// Verified in an idle issue slot.
    IdleSlot,
    /// ReplayQ full: eager re-execution behind a stall (case 3).
    EagerStall,
    /// Forced verification of an unverified producer before a dependent
    /// consumer proceeds (RAW rule), 1 stall cycle each.
    RawStall,
    /// Drained at kernel end or into a spare slot.
    Drain,
}

impl VerifyKind {
    /// All kinds, in declaration order (stable indices for counters).
    pub const ALL: [VerifyKind; 6] = [
        VerifyKind::CoExecute,
        VerifyKind::QueueCoExecute,
        VerifyKind::IdleSlot,
        VerifyKind::EagerStall,
        VerifyKind::RawStall,
        VerifyKind::Drain,
    ];

    /// Stable counter index (declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Wire name used by the JSONL format.
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyKind::CoExecute => "coexec",
            VerifyKind::QueueCoExecute => "queue_coexec",
            VerifyKind::IdleSlot => "idle_slot",
            VerifyKind::EagerStall => "eager_stall",
            VerifyKind::RawStall => "raw_stall",
            VerifyKind::Drain => "drain",
        }
    }

    /// Parse a wire name back.
    pub fn from_wire(s: &str) -> Option<VerifyKind> {
        VerifyKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// Wire name of a unit type.
pub fn unit_str(u: UnitType) -> &'static str {
    match u {
        UnitType::Sp => "sp",
        UnitType::Sfu => "sfu",
        UnitType::LdSt => "ldst",
    }
}

/// Parse a unit-type wire name.
pub fn unit_from_str(s: &str) -> Option<UnitType> {
    UnitType::ALL.into_iter().find(|u| unit_str(*u) == s)
}

/// The fault-site wire names a [`TraceEvent::FaultInjected`] names:
/// `warped-faults`' `FaultSiteClass` spells its classes with these, in
/// its declaration order.
pub const FAULT_SITE_NAMES: [&str; 6] = [
    "lane_transient",
    "lane_stuck",
    "comparator",
    "rfu_mux",
    "replayq_meta",
    "rf_slot",
];

/// The outcome wire names a [`TraceEvent::TrialOutcome`] names:
/// `warped-faults`' `TrialOutcome` spells its classes with these, in its
/// declaration order.
pub const OUTCOME_NAMES: [&str; 4] = ["masked", "detected", "sdc", "hang"];

/// The entry of `names` equal to `s`: a parsed wire name as the
/// `&'static str` an event holds.
pub fn wire_name(names: &[&'static str], s: &str) -> Option<&'static str> {
    names.iter().copied().find(|n| *n == s)
}

/// One cycle-level pipeline event. `Copy`, so a batch of events moves and
/// clears without drop glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A kernel launch started on the GPU; SM cycle counters restart at
    /// zero. `index` counts launches of this `Gpu` instance.
    LaunchBegin {
        /// Launch sequence number (0-based).
        index: u32,
    },
    /// A warp-instruction issued (emitted before the observers run, so
    /// checker events for the same slot follow it).
    Issue {
        /// Issuing SM.
        sm: u32,
        /// Issue cycle.
        cycle: u64,
        /// Global warp uid.
        warp: u64,
        /// Program counter.
        pc: u32,
        /// Execution unit.
        unit: UnitType,
        /// Active lanes.
        active: u32,
        /// Whether all lanes were active.
        full: bool,
        /// Whether the instruction produces a verifiable result.
        has_result: bool,
        /// Destination register, if any.
        dst: Option<Reg>,
        /// Source registers.
        srcs: [Option<Reg>; 4],
    },
    /// Intra-warp DMR paired idle lanes against active lanes.
    IntraPair {
        /// SM of the issue slot.
        sm: u32,
        /// Issue cycle (pairing is same-cycle).
        cycle: u64,
        /// Global warp uid.
        warp: u64,
        /// Active lanes in the warp.
        active: u32,
        /// Active lanes that got a verifier.
        covered: u32,
    },
    /// The Replay Checker buffered an unverified instruction.
    Enqueue {
        /// SM of the checker.
        sm: u32,
        /// Cycle of the triggering issue slot.
        cycle: u64,
        /// Warp of the buffered instruction.
        warp: u64,
        /// Unit type the verification will need.
        unit: UnitType,
        /// Destination register of the buffered instruction.
        dst: Option<Reg>,
        /// Queue occupancy after the push.
        depth: u32,
        /// Queue capacity (occupancy must never exceed it).
        capacity: u32,
    },
    /// The Replay Checker verified an instruction.
    Verify {
        /// SM of the checker.
        sm: u32,
        /// Cycle of the redundant execution.
        cycle: u64,
        /// Warp of the verified instruction.
        warp: u64,
        /// Unit the copy ran on.
        unit: UnitType,
        /// Destination register of the verified instruction.
        dst: Option<Reg>,
        /// How the verification slot was obtained.
        kind: VerifyKind,
        /// Original issue cycle of the verified instruction.
        issued: u64,
        /// Active lanes of the verified instruction.
        active: u32,
    },
    /// The checker charged stall cycles for one issue slot.
    Stall {
        /// Stalling SM.
        sm: u32,
        /// Cycle of the issue slot that stalled.
        cycle: u64,
        /// Warp whose issue paid the stall.
        warp: u64,
        /// Stall cycles charged.
        cycles: u64,
    },
    /// An SM with resident work issued nothing this cycle.
    Idle {
        /// Idle SM.
        sm: u32,
        /// The idle cycle.
        cycle: u64,
    },
    /// An SM ran out of work and drained its checker.
    SmDone {
        /// Finished SM.
        sm: u32,
        /// Completion cycle *including* the drain.
        cycle: u64,
        /// Drain cycles appended to the SM's finish time.
        drained: u64,
    },
    /// The comparator detected a mismatch.
    Error {
        /// SM where the comparator fired.
        sm: u32,
        /// Cycle of the verification.
        cycle: u64,
        /// Warp whose instruction mismatched.
        warp: u64,
        /// Lane that executed the original computation.
        lane: u32,
    },
    /// A fault-injection campaign planted a fault for one trial (emitted
    /// before the trial's launch, outside any launch's cycle domain).
    FaultInjected {
        /// SM hosting the fault site.
        sm: u32,
        /// Campaign-global trial index.
        trial: u32,
        /// Fault-site wire name, one of [`FAULT_SITE_NAMES`].
        kind: &'static str,
        /// Physical lane of a lane fault; `u32::MAX` for checker-internal
        /// sites, which have no lane.
        lane: u32,
        /// Strike cycle of a transient; `0` for permanent faults.
        cycle: u64,
    },
    /// Outcome classification of one campaign trial against the golden
    /// run (emitted after the trial's launch completes).
    TrialOutcome {
        /// Campaign-global trial index.
        trial: u32,
        /// Outcome wire name, one of [`OUTCOME_NAMES`].
        outcome: &'static str,
    },
}

impl TraceEvent {
    /// Short tag naming the event type (the JSONL `ev` field).
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::LaunchBegin { .. } => "launch",
            TraceEvent::Issue { .. } => "issue",
            TraceEvent::IntraPair { .. } => "intra",
            TraceEvent::Enqueue { .. } => "enq",
            TraceEvent::Verify { .. } => "verify",
            TraceEvent::Stall { .. } => "stall",
            TraceEvent::Idle { .. } => "idle",
            TraceEvent::SmDone { .. } => "done",
            TraceEvent::Error { .. } => "error",
            TraceEvent::FaultInjected { .. } => "fault",
            TraceEvent::TrialOutcome { .. } => "trial",
        }
    }

    /// The SM the event belongs to (`None` for launch boundaries and
    /// campaign-level trial events).
    pub fn sm(&self) -> Option<u32> {
        match self {
            TraceEvent::LaunchBegin { .. } | TraceEvent::TrialOutcome { .. } => None,
            TraceEvent::FaultInjected { sm, .. } => Some(*sm),
            TraceEvent::Issue { sm, .. }
            | TraceEvent::IntraPair { sm, .. }
            | TraceEvent::Enqueue { sm, .. }
            | TraceEvent::Verify { sm, .. }
            | TraceEvent::Stall { sm, .. }
            | TraceEvent::Idle { sm, .. }
            | TraceEvent::SmDone { sm, .. }
            | TraceEvent::Error { sm, .. } => Some(*sm),
        }
    }

    /// The event's cycle (`None` for launch boundaries and campaign-level
    /// trial events — a `FaultInjected`'s `cycle` field is the planned
    /// strike cycle *inside* the upcoming launch, not a stream position).
    pub fn cycle(&self) -> Option<u64> {
        match self {
            TraceEvent::LaunchBegin { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::TrialOutcome { .. } => None,
            TraceEvent::Issue { cycle, .. }
            | TraceEvent::IntraPair { cycle, .. }
            | TraceEvent::Enqueue { cycle, .. }
            | TraceEvent::Verify { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::Idle { cycle, .. }
            | TraceEvent::SmDone { cycle, .. }
            | TraceEvent::Error { cycle, .. } => Some(*cycle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_and_indices() {
        for (i, k) in VerifyKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(VerifyKind::from_wire(k.as_str()), Some(k));
        }
        assert_eq!(VerifyKind::from_wire("nope"), None);
    }

    #[test]
    fn unit_roundtrip() {
        for u in UnitType::ALL {
            assert_eq!(unit_from_str(unit_str(u)), Some(u));
        }
        assert_eq!(unit_from_str("alu"), None);
    }

    #[test]
    fn wire_names_resolve_to_their_static_spelling() {
        for names in [&FAULT_SITE_NAMES[..], &OUTCOME_NAMES[..]] {
            for n in names {
                // A parsed name is borrowed from the line, not 'static.
                let parsed = n.to_string();
                assert_eq!(wire_name(names, &parsed), Some(*n));
            }
            assert_eq!(wire_name(names, "cosmic_ray"), None);
        }
    }

    #[test]
    fn accessors() {
        let e = TraceEvent::Idle { sm: 3, cycle: 9 };
        assert_eq!(e.tag(), "idle");
        assert_eq!(e.sm(), Some(3));
        assert_eq!(e.cycle(), Some(9));
        let l = TraceEvent::LaunchBegin { index: 0 };
        assert_eq!(l.sm(), None);
        assert_eq!(l.cycle(), None);
    }

    #[test]
    fn campaign_events_sit_outside_the_cycle_domain() {
        let f = TraceEvent::FaultInjected {
            sm: 1,
            trial: 7,
            kind: "lane_transient",
            lane: 9,
            cycle: 120,
        };
        assert_eq!(f.tag(), "fault");
        assert_eq!(f.sm(), Some(1));
        assert_eq!(f.cycle(), None, "strike cycle is not a stream position");
        let t = TraceEvent::TrialOutcome {
            trial: 7,
            outcome: "sdc",
        };
        assert_eq!(t.tag(), "trial");
        assert_eq!(t.sm(), None);
        assert_eq!(t.cycle(), None);
    }
}
