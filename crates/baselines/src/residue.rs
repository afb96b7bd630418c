//! Residue checking (paper §6): self-checking arithmetic as the area-lean
//! alternative to DMR.
//!
//! A mod-3 residue unit rides along each ALU: it computes the operation
//! over the operands' residues and compares against the residue of the
//! full-width result. Because `2^k mod 3 ∈ {1, 2}` for every bit position
//! `k`, *any* single-bit corruption of a checked result changes its
//! residue and is caught — with a few gates instead of a whole spare
//! datapath.
//!
//! The catch, and the paper's point when contrasting it with Warped-DMR,
//! is applicability: residue arithmetic exists only for closed +,−,×
//! identities. Shifts, logic, comparisons, conversions and every SFU
//! transcendental have no residue identity, so those executions go
//! unchecked — "it cannot be used for exponent calculations" (§6).
//! Warped-DMR covers any operation the GPU can execute.

use warped_core::comparator::ErrorLog;
use warped_isa::{AluBinOp, Instruction};
use warped_sim::{IssueInfo, IssueObserver, LaneFault, WARP_SIZE};

/// Residue of a 32-bit word modulo 3.
pub fn residue3(v: u32) -> u32 {
    v % 3
}

/// Whether residue arithmetic can check this instruction (a +,−,× datapath
/// with a mod-3 identity).
pub fn is_checkable(instr: &Instruction) -> bool {
    match instr {
        Instruction::Bin { op, .. } => matches!(
            op,
            AluBinOp::IAdd | AluBinOp::ISub | AluBinOp::IMul | AluBinOp::IMulHi
        ),
        Instruction::IMad { .. } => true,
        // Float add/mul/fma: significand datapaths carry residue checkers
        // in real FPUs (Lipetz & Schwarz); exponent logic does not, but the
        // multiplier/adder arrays — where the area is — are covered.
        Instruction::FFma { .. } => true,
        _ => false,
    }
}

/// Statistics of a residue-checked run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidueStats {
    /// Thread-instructions with a residue identity (checked).
    pub checked_thread_instrs: u64,
    /// Thread-instructions executed with verifiable results.
    pub total_thread_instrs: u64,
}

impl ResidueStats {
    /// Checked fraction in percent — the scheme's coverage ceiling.
    pub fn coverage_pct(&self) -> f64 {
        if self.total_thread_instrs == 0 {
            0.0
        } else {
            100.0 * self.checked_thread_instrs as f64 / self.total_thread_instrs as f64
        }
    }
}

/// The residue-checking observer: zero timing cost, bounded coverage.
pub struct ResidueChecker {
    /// Coverage counters.
    pub stats: ResidueStats,
    errors: ErrorLog,
    oracle: Option<Box<dyn LaneFault>>,
}

impl std::fmt::Debug for ResidueChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidueChecker")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Default for ResidueChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl ResidueChecker {
    /// Create a residue checker.
    pub fn new() -> Self {
        ResidueChecker {
            stats: ResidueStats::default(),
            errors: ErrorLog::default(),
            oracle: None,
        }
    }

    /// Residue checking whose check sees lane results through `oracle`,
    /// for detection experiments. The residue unit has no checker-side
    /// fault sites of its own, so only the lane hook applies.
    pub fn with_oracle(oracle: Box<dyn LaneFault>) -> Self {
        ResidueChecker {
            oracle: Some(oracle),
            ..Self::new()
        }
    }

    /// Detected-error log.
    pub fn errors(&self) -> &ErrorLog {
        &self.errors
    }
}

impl IssueObserver for ResidueChecker {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        if !info.has_result {
            return 0;
        }
        let active = u64::from(info.active_count());
        self.stats.total_thread_instrs += active;
        if !is_checkable(info.instr) {
            return 0;
        }
        self.stats.checked_thread_instrs += active;
        if let Some(oracle) = self.oracle.as_deref() {
            for lane in 0..WARP_SIZE {
                if info.active_mask & (1 << lane) == 0 {
                    continue;
                }
                let golden = info.results[lane];
                let observed = oracle.corrupt(info.sm_id, lane, info.cycle, golden);
                // The residue unit recomputes the residue from the
                // operands (fault-free small logic) and compares with the
                // residue of the produced value.
                if residue3(observed) != residue3(golden) {
                    self.errors.record(warped_core::DetectedError {
                        sm: info.sm_id,
                        cycle: info.cycle,
                        warp_uid: info.warp_uid,
                        original_lane: lane,
                        verifier_lane: lane,
                    });
                }
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::{Operand, Reg, SfuOp};
    use warped_kernels::{Benchmark, WorkloadSize};
    use warped_sim::GpuConfig;

    #[test]
    fn single_bit_flips_always_change_the_residue() {
        // 2^k mod 3 is never 0, so a flip at any position is caught.
        for v in [0u32, 1, 0xdead_beef, u32::MAX, 0x8000_0000] {
            for k in 0..32 {
                assert_ne!(
                    residue3(v),
                    residue3(v ^ (1 << k)),
                    "flip of bit {k} in {v:#x} must change the residue"
                );
            }
        }
    }

    #[test]
    fn double_bit_flips_can_hide() {
        // Flipping bits whose weights cancel mod 3 (e.g. 2^0=1 and 2^1=2:
        // +1+2=3≡0) is invisible — residue checking is a single-fault
        // mechanism.
        let v = 0u32;
        let corrupted = v ^ 0b11;
        assert_eq!(residue3(v), residue3(corrupted));
    }

    #[test]
    fn checkable_classification_matches_the_paper() {
        let add = Instruction::Bin {
            op: AluBinOp::IAdd,
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
            b: Operand::Reg(Reg(2)),
        };
        assert!(is_checkable(&add));
        let xor = Instruction::Bin {
            op: AluBinOp::Xor,
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
            b: Operand::Reg(Reg(2)),
        };
        assert!(!is_checkable(&xor), "logic has no residue identity");
        let sin = Instruction::Sfu {
            op: SfuOp::Sin,
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
        };
        assert!(!is_checkable(&sin), "SFU transcendentals are uncheckable");
        let ld = Instruction::Ld {
            space: warped_isa::Space::Global,
            dst: Reg(0),
            addr: Operand::Reg(Reg(1)),
            offset: 0,
        };
        assert!(
            !is_checkable(&ld),
            "address adders could be, but the \
                paper's contrast is about computation checking"
        );
    }

    #[test]
    fn residue_coverage_is_well_below_warped_dmr() {
        let gpu = GpuConfig::small();
        for bench in [Benchmark::Sha, Benchmark::BitonicSort, Benchmark::Libor] {
            let w = bench.build(WorkloadSize::Tiny).unwrap();
            let mut r = ResidueChecker::new();
            let run = w.run_with(&gpu, &mut r).unwrap();
            w.check(&run).unwrap();
            let cov = r.stats.coverage_pct();
            assert!(
                cov < 60.0,
                "{bench}: residue checking cannot cover shifts/logic/SFU, got {cov:.1}%"
            );
            assert!(cov > 0.0, "{bench}: some arithmetic must be checkable");
        }
    }

    #[test]
    fn residue_detects_single_bit_faults_on_checked_ops_only() {
        struct FlipEverything;
        impl warped_sim::LaneFault for FlipEverything {
            fn corrupt(&self, _sm: usize, lane: usize, _c: u64, v: u32) -> u32 {
                if lane == 2 {
                    v ^ 1
                } else {
                    v
                }
            }
        }
        let gpu = GpuConfig::small();
        // MatrixMul's FFMA inner product is checkable: faults fire.
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let mut r = ResidueChecker::with_oracle(Box::new(FlipEverything));
        w.run_with(&gpu, &mut r).unwrap();
        assert!(r.errors().any(), "FFMA is residue-checked");
        // Residue checking adds zero cycles.
        let mut clean = ResidueChecker::new();
        let base = w.run_with(&gpu, &mut warped_sim::NullObserver).unwrap();
        let checked = w.run_with(&gpu, &mut clean).unwrap();
        assert_eq!(base.stats.cycles, checked.stats.cycles);
    }
}
