//! The coverage ledger: the Warped-DMR coverage and overhead counters and
//! the one rule that updates each of them.
//!
//! [`DmrReport`] and [`CheckerStats`] are counted in two ways from the
//! same methods: live, by the Warped-DMR engine and the Replay Checker in
//! `warped-core`, each calling the rule beside the event it emits; and
//! from a recorded stream, by [`MetricsSink`], which dispatches every
//! [`TraceEvent`] to the matching rule. `warped invariants` asserts that
//! the two reports are equal, which pins down the event vocabulary: if
//! an emission site goes missing, double-fires or carries a wrong field,
//! trace-then-replay diverges.

use crate::event::{TraceEvent, VerifyKind};
use crate::sink::TraceSink;

/// Fig. 1 bucket index for an active-lane count (edges 1, 2-11, 12-21,
/// 22-31, 32).
#[inline]
pub fn bucket_of(active: u32) -> usize {
    match active {
        0..=1 => 0,
        2..=11 => 1,
        12..=21 => 2,
        22..=31 => 3,
        _ => 4,
    }
}

/// Counters for the Replay Checker's behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Verifications by kind, indexed by [`VerifyKind::index`].
    pub verified: [u64; 6],
    /// Instructions that passed through the ReplayQ.
    pub enqueued: u64,
    /// Stall cycles charged (eager + RAW).
    pub stall_cycles: u64,
    /// Cycles spent draining at kernel end.
    pub drain_cycles: u64,
    /// High-water mark of queue occupancy.
    pub max_queue: usize,
}

impl CheckerStats {
    /// Total verified instructions.
    pub fn total_verified(&self) -> u64 {
        self.verified.iter().sum()
    }

    /// One verification of `kind` (a `verify` event).
    #[inline]
    pub fn verify(&mut self, kind: VerifyKind) {
        self.verified[kind.index()] += 1;
    }

    /// One instruction entered the ReplayQ, leaving `depth` entries in it
    /// (an `enq` event).
    #[inline]
    pub fn enqueue(&mut self, depth: usize) {
        self.enqueued += 1;
        self.max_queue = self.max_queue.max(depth);
    }

    /// `cycles` stall cycles charged to one issue slot (a `stall` event).
    #[inline]
    pub fn stall(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
    }

    /// `cycles` drain cycles appended at kernel end (a `done` event).
    #[inline]
    pub fn drain(&mut self, cycles: u64) {
        self.drain_cycles += cycles;
    }

    /// Fold another checker's counters into these (per-SM checkers into
    /// one chip-wide total).
    pub fn merge(&mut self, other: &CheckerStats) {
        for (a, b) in self.verified.iter_mut().zip(other.verified) {
            *a += b;
        }
        self.enqueued += other.enqueued;
        self.stall_cycles += other.stall_cycles;
        self.drain_cycles += other.drain_cycles;
        self.max_queue = self.max_queue.max(other.max_queue);
    }
}

/// Coverage and overhead summary of one protected run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DmrReport {
    /// Thread-instructions that produced verifiable results.
    pub total_thread_instrs: u64,
    /// Thread-instructions verified by intra-warp DMR.
    pub intra_covered: u64,
    /// Thread-instructions verified by inter-warp DMR.
    pub inter_covered: u64,
    /// Warp-instructions issued with a partial active mask.
    pub partial_instrs: u64,
    /// Warp-instructions issued fully utilized.
    pub full_instrs: u64,
    /// Partial-mask warp-instructions where intra-warp DMR verified only
    /// a strict subset of the active lanes (the paper's "<4% of cases it
    /// checks only a partial number of inputs").
    pub partially_checked_instrs: u64,
    /// Partial-mask warp-instructions where no active lane could be
    /// verified (saturated clusters).
    pub unchecked_partial_instrs: u64,
    /// Thread-instructions per active-count bucket (paper Fig. 1 edges:
    /// 1, 2-11, 12-21, 22-31, 32).
    pub bucket_total: [u64; 5],
    /// Covered thread-instructions per active-count bucket — the §3.3
    /// breakdown of where coverage is lost.
    pub bucket_covered: [u64; 5],
    /// Aggregated Replay Checker behaviour over all SMs.
    pub checker: CheckerStats,
    /// Mismatches flagged by the comparator.
    pub errors_detected: u64,
}

impl DmrReport {
    /// Fraction of executed thread-instructions verified, in percent —
    /// the paper's error-coverage metric (Fig. 9a).
    pub fn coverage_pct(&self) -> f64 {
        if self.total_thread_instrs == 0 {
            0.0
        } else {
            100.0 * (self.intra_covered + self.inter_covered) as f64
                / self.total_thread_instrs as f64
        }
    }

    /// Verified thread-instructions.
    pub fn covered_thread_instrs(&self) -> u64 {
        self.intra_covered + self.inter_covered
    }

    /// Share of the coverage provided by intra-warp DMR.
    pub fn intra_share(&self) -> f64 {
        let c = self.covered_thread_instrs();
        if c == 0 {
            0.0
        } else {
            self.intra_covered as f64 / c as f64
        }
    }

    /// Total stall cycles the DMR machinery charged.
    pub fn stall_cycles(&self) -> u64 {
        self.checker.stall_cycles
    }

    /// Coverage within one active-count bucket, percent.
    pub fn bucket_coverage_pct(&self, bucket: usize) -> f64 {
        if self.bucket_total[bucket] == 0 {
            0.0
        } else {
            100.0 * self.bucket_covered[bucket] as f64 / self.bucket_total[bucket] as f64
        }
    }

    /// Fraction of issued warp-instructions verified with only a partial
    /// set of inputs (paper §6 claims < 4% for its workloads).
    pub fn partial_check_fraction(&self) -> f64 {
        let total = self.partial_instrs + self.full_instrs;
        if total == 0 {
            0.0
        } else {
            self.partially_checked_instrs as f64 / total as f64
        }
    }

    /// Rebuild a report from a replayed trace's metrics registry. For a
    /// complete trace of a run this reproduces the live report
    /// bit-for-bit (`warped invariants` asserts it per benchmark).
    pub fn from_metrics(m: &MetricsSink) -> DmrReport {
        m.report.clone()
    }

    /// One warp-instruction issued with `active` lanes (an `issue`
    /// event). Only result-producing instructions count.
    #[inline]
    pub fn issue(&mut self, active: u32, full: bool, has_result: bool) {
        if !has_result {
            return;
        }
        let n = u64::from(active);
        self.total_thread_instrs += n;
        self.bucket_total[bucket_of(active)] += n;
        if full {
            self.full_instrs += 1;
        } else {
            self.partial_instrs += 1;
        }
    }

    /// Intra-warp DMR verified `covered` of a partial warp's `active`
    /// lanes (an `intra` event).
    #[inline]
    pub fn intra_pair(&mut self, active: u32, covered: u32) {
        self.intra_covered += u64::from(covered);
        self.bucket_covered[bucket_of(active)] += u64::from(covered);
        if covered == 0 {
            self.unchecked_partial_instrs += 1;
        } else if covered < active {
            self.partially_checked_instrs += 1;
        }
    }

    /// Inter-warp DMR verified an instruction of `active` lanes: the
    /// coverage half of a `verify` event (the checker counts its kind
    /// with [`CheckerStats::verify`]).
    #[inline]
    pub fn inter_verify(&mut self, active: u32) {
        let n = u64::from(active);
        self.inter_covered += n;
        self.bucket_covered[bucket_of(active)] += n;
    }

    /// The comparator flagged one mismatch (an `error` event).
    #[inline]
    pub fn error(&mut self) {
        self.errors_detected += 1;
    }
}

/// A [`TraceSink`] rebuilding a [`DmrReport`] from the event stream
/// alone, through the same rules the live engine counts with.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    /// The report rebuilt so far.
    pub report: DmrReport,
    /// Total events consumed.
    pub events_seen: u64,
}

impl MetricsSink {
    /// Create an empty registry.
    pub fn new() -> Self {
        MetricsSink::default()
    }
}

impl TraceSink for MetricsSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events_seen += 1;
        let r = &mut self.report;
        match ev {
            TraceEvent::Issue {
                active,
                full,
                has_result,
                ..
            } => r.issue(*active, *full, *has_result),
            TraceEvent::IntraPair {
                active, covered, ..
            } => r.intra_pair(*active, *covered),
            TraceEvent::Enqueue { depth, .. } => r.checker.enqueue(*depth as usize),
            TraceEvent::Verify { kind, active, .. } => {
                r.inter_verify(*active);
                r.checker.verify(*kind);
            }
            TraceEvent::Stall { cycles, .. } => r.checker.stall(*cycles),
            TraceEvent::SmDone { drained, .. } => r.checker.drain(*drained),
            TraceEvent::Error { .. } => r.error(),
            // Launch boundaries, idle slots and campaign-level trial
            // bookkeeping move no counter.
            TraceEvent::LaunchBegin { .. }
            | TraceEvent::Idle { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::TrialOutcome { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::UnitType;

    #[test]
    fn bucket_edges_match_fig1() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(11), 1);
        assert_eq!(bucket_of(12), 2);
        assert_eq!(bucket_of(21), 2);
        assert_eq!(bucket_of(22), 3);
        assert_eq!(bucket_of(31), 3);
        assert_eq!(bucket_of(32), 4);
    }

    #[test]
    fn counters_accumulate_per_event() {
        let mut m = MetricsSink::new();
        m.event(&TraceEvent::Issue {
            sm: 0,
            cycle: 0,
            warp: 0,
            pc: 0,
            unit: UnitType::Sp,
            active: 32,
            full: true,
            has_result: true,
            dst: None,
            srcs: [None; 4],
        });
        m.event(&TraceEvent::IntraPair {
            sm: 0,
            cycle: 1,
            warp: 1,
            active: 10,
            covered: 7,
        });
        m.event(&TraceEvent::Enqueue {
            sm: 0,
            cycle: 2,
            warp: 0,
            unit: UnitType::Sp,
            dst: None,
            depth: 3,
            capacity: 4,
        });
        m.event(&TraceEvent::Verify {
            sm: 0,
            cycle: 9,
            warp: 0,
            unit: UnitType::Sp,
            dst: None,
            kind: VerifyKind::Drain,
            issued: 0,
            active: 32,
        });
        m.event(&TraceEvent::Stall {
            sm: 0,
            cycle: 9,
            warp: 0,
            cycles: 2,
        });
        m.event(&TraceEvent::SmDone {
            sm: 0,
            cycle: 20,
            drained: 4,
        });
        m.event(&TraceEvent::Error {
            sm: 0,
            cycle: 9,
            warp: 0,
            lane: 3,
        });
        let r = &m.report;
        assert_eq!(r.total_thread_instrs, 32);
        assert_eq!(r.full_instrs, 1);
        assert_eq!(r.bucket_total[4], 32);
        assert_eq!(r.intra_covered, 7);
        assert_eq!(r.partially_checked_instrs, 1);
        assert_eq!(r.bucket_covered[1], 7);
        assert_eq!(r.checker.enqueued, 1);
        assert_eq!(r.checker.max_queue, 3);
        assert_eq!(r.inter_covered, 32);
        assert_eq!(r.checker.verified[VerifyKind::Drain.index()], 1);
        assert_eq!(r.checker.total_verified(), 1);
        assert_eq!(r.checker.stall_cycles, 2);
        assert_eq!(r.checker.drain_cycles, 4);
        assert_eq!(r.errors_detected, 1);
        assert_eq!(m.events_seen, 7);
    }
}
