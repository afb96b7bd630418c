//! Register-bank conflict modeling (paper §2.1).
//!
//! Each SIMT cluster owns four register banks; one 128-bit bank entry
//! feeds the same-named register to all four lanes at once. A 2R1W (or
//! MAD-style 3R1W) instruction can fetch all of its operands in one pass
//! *only if they live in distinct banks* — same-bank operands serialize,
//! and the operand buffering logic hides the extra pass behind the
//! 3-cycle RF stage "most of the time" (paper §2.1).
//!
//! The simulator therefore does not charge conflict cycles by default
//! (matching the paper's assumption); this module quantifies how often
//! the buffering is actually needed, which bounds the RFU's forwarding
//! pressure for intra-warp DMR.

use crate::observer::{IssueInfo, IssueObserver};
use warped_isa::Reg;

/// Number of register banks per SIMT cluster (paper Fig. 2).
pub const BANKS_PER_CLUSTER: usize = 4;

/// The bank a register lives in: registers stripe across banks by index,
/// as in the Gebhart et al. organization the paper borrows.
pub fn bank_of(reg: Reg) -> usize {
    reg.index() % BANKS_PER_CLUSTER
}

/// Number of serialized operand-fetch passes an instruction's source
/// registers need (1 = conflict-free).
pub fn fetch_passes(srcs: &[Option<Reg>; 4]) -> u32 {
    let mut per_bank = [0u32; BANKS_PER_CLUSTER];
    for r in srcs.iter().flatten() {
        per_bank[bank_of(*r)] += 1;
    }
    per_bank.iter().copied().max().unwrap_or(0).max(1)
}

/// Counts operand bank conflicts over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BankConflictCollector {
    /// Instructions that read at least one register operand.
    pub reading_instrs: u64,
    /// Instructions whose operands needed more than one fetch pass.
    pub conflicted_instrs: u64,
    /// Extra fetch passes beyond the first, summed.
    pub extra_passes: u64,
}

impl BankConflictCollector {
    /// Create an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of operand-reading instructions that conflicted.
    pub fn conflict_rate(&self) -> f64 {
        if self.reading_instrs == 0 {
            0.0
        } else {
            self.conflicted_instrs as f64 / self.reading_instrs as f64
        }
    }
}

impl IssueObserver for BankConflictCollector {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        if info.srcs.iter().all(Option::is_none) {
            return 0;
        }
        self.reading_instrs += 1;
        let passes = fetch_passes(&info.srcs);
        if passes > 1 {
            self.conflicted_instrs += 1;
            self.extra_passes += u64::from(passes - 1);
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::gpu::Gpu;
    use crate::launch::LaunchConfig;
    use warped_isa::KernelBuilder;

    #[test]
    fn bank_striping_is_modulo_four() {
        assert_eq!(bank_of(Reg(0)), 0);
        assert_eq!(bank_of(Reg(5)), 1);
        assert_eq!(bank_of(Reg(7)), 3);
        assert_eq!(bank_of(Reg(8)), 0);
    }

    #[test]
    fn distinct_banks_fetch_in_one_pass() {
        let srcs = [Some(Reg(0)), Some(Reg(1)), Some(Reg(2)), None];
        assert_eq!(fetch_passes(&srcs), 1);
    }

    #[test]
    fn same_bank_operands_serialize() {
        // r0 and r4 share bank 0: two passes.
        let srcs = [Some(Reg(0)), Some(Reg(4)), None, None];
        assert_eq!(fetch_passes(&srcs), 2);
        // Three same-bank operands: three passes.
        let srcs3 = [Some(Reg(0)), Some(Reg(4)), Some(Reg(8)), None];
        assert_eq!(fetch_passes(&srcs3), 3);
        // The same register twice still reads one entry per pass.
        let dup = [Some(Reg(0)), Some(Reg(0)), None, None];
        assert_eq!(fetch_passes(&dup), 2);
    }

    #[test]
    fn no_operands_means_one_trivial_pass() {
        assert_eq!(fetch_passes(&[None; 4]), 1);
    }

    #[test]
    fn collector_measures_a_conflicted_kernel() {
        // acc = r0 + r4 repeatedly: every add conflicts on bank 0.
        let mut b = KernelBuilder::new("conflict");
        let regs: Vec<Reg> = (0..6).map(|_| b.reg()).collect();
        let (a, c) = (regs[0], regs[4]); // bank 0 twice
        b.mov(a, 1u32);
        b.mov(c, 2u32);
        let d = regs[1];
        for _ in 0..8 {
            b.iadd(d, a, c);
        }
        let kernel = b.build().unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut coll = BankConflictCollector::new();
        gpu.launch(&kernel, &LaunchConfig::linear(1, 32), &mut coll)
            .unwrap();
        assert_eq!(coll.conflicted_instrs, 8);
        assert!(coll.conflict_rate() > 0.7, "rate {}", coll.conflict_rate());
    }

    #[test]
    fn benchmarks_mostly_avoid_conflicts() {
        // The builder allocates registers sequentially, which stripes
        // operands across banks — conflicts exist but are the minority,
        // justifying the paper's "operand buffering hides the latency
        // most of the time".
        use crate::observer::NullObserver;
        let _ = NullObserver; // silence unused in some cfgs
        let mut b = KernelBuilder::new("stream");
        let [x, y, z, w] = b.regs();
        b.mov(x, 1u32);
        b.mov(y, 2u32);
        for _ in 0..8 {
            b.iadd(z, x, y);
            b.iadd(w, z, y);
        }
        let kernel = b.build().unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut coll = BankConflictCollector::new();
        gpu.launch(&kernel, &LaunchConfig::linear(1, 32), &mut coll)
            .unwrap();
        assert_eq!(coll.conflicted_instrs, 0, "striped operands never collide");
    }
}
