//! The issue-stream observation interface.
//!
//! Everything that *watches* or *interferes with* execution — Warped-DMR's
//! Replay Checker, the DMTR baseline, and all statistics collectors —
//! implements [`IssueObserver`]. The simulator reports every issue slot of
//! every SM (including idle slots) and adds whatever stall cycles the
//! observer charges, which is how the ReplayQ-full and RAW-on-unverified
//! stalls of paper Algorithm 1 feed back into the timing model.

use crate::config::WARP_SIZE;
use warped_isa::{Instruction, Pc, Reg, UnitType};

/// Everything an observer sees about one issued warp-instruction.
#[derive(Debug)]
pub struct IssueInfo<'a> {
    /// SM-local cycle at which the instruction issued.
    pub cycle: u64,
    /// Which SM issued it.
    pub sm_id: usize,
    /// Warp slot within the SM (stable while the warp is resident).
    pub warp_slot: usize,
    /// Globally unique warp id (across blocks), for per-warp tracking.
    pub warp_uid: u64,
    /// Global block index.
    pub block: u64,
    /// Program counter of the instruction.
    pub pc: Pc,
    /// The instruction itself.
    pub instr: &'a Instruction,
    /// Execution unit it occupies.
    pub unit: UnitType,
    /// Active mask (bit per lane; logical thread order).
    pub active_mask: u32,
    /// Per-lane computed result: the ALU/SFU output, the evaluated
    /// predicate for branches, or the computed word address for memory
    /// operations (the part of a LD/ST that Warped-DMR verifies).
    /// Entries for inactive lanes are unspecified.
    pub results: &'a [u32; WARP_SIZE],
    /// Whether [`IssueInfo::results`] carries meaningful values:
    /// [`Instruction::has_result`] of the issued instruction (false only
    /// for `jump`/`bar`/`exit`).
    pub has_result: bool,
    /// Registers the instruction reads: [`Instruction::src_regs`],
    /// decoded once by the simulator. Observers read them here instead of
    /// decoding `instr` again.
    pub srcs: [Option<Reg>; 4],
    /// Register the instruction writes: [`Instruction::dst`].
    pub dst: Option<Reg>,
    /// Per source operand: issue-to-issue RAW distance in cycles from the
    /// producing instruction, aligned with [`IssueInfo::srcs`]. `None`
    /// when the operand is not a register or was never written.
    pub raw_dists: [Option<u64>; 4],
}

impl IssueInfo<'_> {
    /// Number of active lanes.
    pub fn active_count(&self) -> u32 {
        self.active_mask.count_ones()
    }

    /// Whether every lane of the warp is active (the case that needs
    /// inter-warp DMR).
    pub fn is_full(&self) -> bool {
        self.active_mask == u32::MAX
    }
}

/// Observer of the per-SM issue stream. All methods have no-op defaults.
///
/// Stall contract: cycles returned from [`IssueObserver::on_issue`] freeze
/// that SM's issue for that many subsequent cycles (the pipeline holds);
/// cycles returned from [`IssueObserver::on_sm_done`] extend the SM's
/// completion time (e.g. draining unverified ReplayQ entries).
pub trait IssueObserver {
    /// Called for each issued warp-instruction. Returns extra stall cycles
    /// to charge the issuing SM.
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        let _ = info;
        0
    }

    /// Called when an SM with resident work issues nothing this cycle.
    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        let _ = (sm_id, cycle);
    }

    /// Called once per SM when it runs out of work. Returns extra cycles
    /// appended to the SM's finish time.
    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        let _ = (sm_id, cycle);
        0
    }

    /// Called at the start of each simulated launch with its index in the
    /// GPU's launch sequence (0 for a fresh GPU's first launch). Launches
    /// replayed from a log ([`Gpu::follow_launches`](crate::Gpu::follow_launches))
    /// are not simulated and call no observer method.
    fn on_launch(&mut self, index: u32) {
        let _ = index;
    }

    /// Whether the observer has seen all it needs. Polled once per chip
    /// cycle; once it returns true the launch ends at the next cycle
    /// boundary with [`SimError::Stopped`](crate::SimError::Stopped).
    fn halted(&self) -> bool {
        false
    }
}

/// An observer that does nothing (plain, unprotected execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl IssueObserver for NullObserver {}

/// Fans one issue stream out to several observers, summing their stalls.
///
/// Used to combine a DMR engine with statistics collectors in one run.
#[derive(Default)]
pub struct MultiObserver<'a> {
    parts: Vec<&'a mut dyn IssueObserver>,
}

impl std::fmt::Debug for MultiObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MultiObserver({} parts)", self.parts.len())
    }
}

impl<'a> MultiObserver<'a> {
    /// Create an empty fan-out.
    pub fn new() -> Self {
        MultiObserver { parts: Vec::new() }
    }

    /// Add an observer.
    pub fn push(&mut self, obs: &'a mut dyn IssueObserver) -> &mut Self {
        self.parts.push(obs);
        self
    }
}

impl IssueObserver for MultiObserver<'_> {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        self.parts.iter_mut().map(|p| p.on_issue(info)).sum()
    }

    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        for p in &mut self.parts {
            p.on_idle(sm_id, cycle);
        }
    }

    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        self.parts
            .iter_mut()
            .map(|p| p.on_sm_done(sm_id, cycle))
            .sum()
    }

    fn on_launch(&mut self, index: u32) {
        for p in &mut self.parts {
            p.on_launch(index);
        }
    }

    fn halted(&self) -> bool {
        self.parts.iter().any(|p| p.halted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::Instruction;

    struct CountingObserver {
        issues: u64,
        idles: u64,
        stall_per_issue: u64,
        launches: Vec<u32>,
    }

    impl IssueObserver for CountingObserver {
        fn on_issue(&mut self, _info: &IssueInfo<'_>) -> u64 {
            self.issues += 1;
            self.stall_per_issue
        }
        fn on_idle(&mut self, _sm: usize, _cycle: u64) {
            self.idles += 1;
        }
        fn on_sm_done(&mut self, _sm: usize, _cycle: u64) -> u64 {
            7
        }
        fn on_launch(&mut self, index: u32) {
            self.launches.push(index);
        }
    }

    fn dummy_info<'a>(instr: &'a Instruction, results: &'a [u32; WARP_SIZE]) -> IssueInfo<'a> {
        IssueInfo {
            cycle: 1,
            sm_id: 0,
            warp_slot: 0,
            warp_uid: 0,
            block: 0,
            pc: Pc(0),
            instr,
            unit: instr.unit(),
            active_mask: 0x0000_00ff,
            results,
            has_result: false,
            srcs: [None; 4],
            dst: None,
            raw_dists: [None; 4],
        }
    }

    #[test]
    fn info_helpers() {
        let instr = Instruction::Bar;
        let results = [0u32; WARP_SIZE];
        let info = dummy_info(&instr, &results);
        assert_eq!(info.active_count(), 8);
        assert!(!info.is_full());
    }

    #[test]
    fn multi_observer_sums_stalls() {
        let mut a = CountingObserver {
            issues: 0,
            idles: 0,
            stall_per_issue: 2,
            launches: Vec::new(),
        };
        let mut c = CountingObserver {
            issues: 0,
            idles: 0,
            stall_per_issue: 3,
            launches: Vec::new(),
        };
        let mut m = MultiObserver::new();
        m.push(&mut a).push(&mut c);

        let instr = Instruction::Bar;
        let results = [0u32; WARP_SIZE];
        let info = dummy_info(&instr, &results);
        assert_eq!(m.on_issue(&info), 5);
        m.on_idle(0, 9);
        assert_eq!(m.on_sm_done(0, 10), 14);
        m.on_launch(3);
        drop(m);
        assert_eq!(a.issues, 1);
        assert_eq!(a.idles, 1);
        assert_eq!(c.issues, 1);
        assert_eq!((a.launches, c.launches), (vec![3], vec![3]));
    }

    struct Halting(bool);

    impl IssueObserver for Halting {
        fn halted(&self) -> bool {
            self.0
        }
    }

    #[test]
    fn multi_observer_halts_exactly_when_a_part_does() {
        assert!(!MultiObserver::new().halted());
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            let (mut x, mut y) = (Halting(a), Halting(b));
            let mut m = MultiObserver::new();
            m.push(&mut x).push(&mut y);
            assert_eq!(m.halted(), a || b, "parts {a} {b}");
        }
        assert!(!NullObserver.halted());
    }

    #[test]
    fn null_observer_charges_nothing() {
        let instr = Instruction::Bar;
        let results = [0u32; WARP_SIZE];
        let info = dummy_info(&instr, &results);
        let mut n = NullObserver;
        assert_eq!(n.on_issue(&info), 0);
        assert_eq!(n.on_sm_done(0, 0), 0);
    }
}
