//! Static DMR cost prediction.
//!
//! Two tiers:
//!
//! * **Exact** — for straight-line kernels (no branches or jumps), the
//!   single-warp issue timing depends on nothing but the instruction
//!   sequence, so the predictor launches the kernel as one warp on a
//!   one-SM chip under Warped-DMR and reports the run's cycle, issue and
//!   ReplayQ counters. The simulator's issue loop is the only timing
//!   model; nothing here repeats its latencies.
//! * **Per-block estimate** — for general kernels, each basic block is
//!   fed through a fresh checker at one instruction per cycle (the
//!   densest schedule the SM can produce), bounding the ReplayQ pressure
//!   and queue-full stalls the block can generate per visit.

use crate::cfg::Cfg;
use warped_core::checker::{CheckerStats, Incoming, ReplayChecker, VerifyKind};
use warped_core::{DmrConfig, WarpedDmr};
use warped_isa::{Instruction, Kernel, UnitType};
use warped_sim::{Gpu, GpuConfig, LaunchConfig, WARP_SIZE};

/// Machine parameters the predictor models.
#[derive(Debug, Clone)]
pub struct PredictConfig {
    /// The chip [`predict_exact`] runs on, reduced to one SM.
    /// [`block_pressure`] does not read it.
    pub gpu: GpuConfig,
    /// ReplayQ capacity, as in [`DmrConfig::replayq_entries`].
    pub replayq_entries: usize,
}

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig {
            gpu: GpuConfig::paper(),
            replayq_entries: DmrConfig::default().replayq_entries,
        }
    }
}

/// Exact timing/stall prediction for a straight-line kernel executed by
/// one fully-populated warp on an otherwise idle SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactPrediction {
    /// SM completion cycle, including the end-of-kernel ReplayQ drain.
    pub cycles: u64,
    /// Warp-instructions issued.
    pub issued: u64,
    /// Cycles the warp could not issue (scoreboard waits).
    pub idle_cycles: u64,
    /// The Replay Checker's counters, field-for-field comparable with
    /// the aggregated [`CheckerStats`] of a simulator run.
    pub checker: CheckerStats,
}

/// Whether the kernel is straight-line: no branches or jumps, and a
/// single `Exit` as the last instruction. Barriers are permitted (they
/// cost nothing for a lone warp).
pub fn is_straight_line(kernel: &Kernel) -> bool {
    let code = kernel.code();
    let body_ok = code.iter().take(code.len().saturating_sub(1)).all(|i| {
        !matches!(
            i,
            Instruction::Branch { .. } | Instruction::Jump { .. } | Instruction::Exit
        )
    });
    body_ok && matches!(code.last(), Some(Instruction::Exit))
}

fn incoming(instr: &Instruction, cycle: u64) -> Incoming {
    Incoming {
        warp_uid: 0,
        unit: instr.unit(),
        dst: instr.dst(),
        srcs: instr.src_regs(),
        cycle,
        // One fully-populated warp: every result-producing instruction
        // enters inter-warp DMR.
        needs_inter: instr.has_result(),
        mask: u32::MAX,
    }
}

/// Run a straight-line kernel as one warp of 32 threads on a one-SM
/// copy of `config.gpu` under Warped-DMR, and return what the run
/// measured. `None` if the kernel is not straight-line, or if the launch
/// fails (a load or store past the chip's memory, for example).
///
/// No memory is set up: every parameter is 0, and reads of words the
/// fresh chip never allocated return 0. A straight-line kernel's timing
/// does not depend on the values it computes, so the prediction holds
/// for any parameters and inputs.
pub fn predict_exact(kernel: &Kernel, config: &PredictConfig) -> Option<ExactPrediction> {
    if !is_straight_line(kernel) {
        return None;
    }
    let chip = config.gpu.clone().with_sms(1);
    let mut engine = WarpedDmr::new(
        DmrConfig::default().with_replayq(config.replayq_entries),
        &chip,
    );
    // A `Param` index is a `u8`, so 256 zeros satisfy every kernel.
    let launch = LaunchConfig::linear(1, WARP_SIZE as u32).with_params(vec![0; 256]);
    let stats = Gpu::new(chip).launch(kernel, &launch, &mut engine).ok()?;
    Some(ExactPrediction {
        cycles: stats.cycles,
        issued: stats.warp_instructions,
        idle_cycles: stats.idle_cycles,
        checker: engine.report().checker,
    })
}

/// Static ReplayQ pressure bound for one basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPressure {
    /// Block id in the CFG.
    pub block: usize,
    /// Warp-instructions in the block.
    pub instrs: usize,
    /// Maximal same-unit run lengths, in order (the paper's Fig. 8a
    /// quantity: long runs are what fills the ReplayQ).
    pub runs: Vec<(UnitType, usize)>,
    /// Peak ReplayQ occupancy under the densest issue schedule.
    pub peak_queue: usize,
    /// Queue-full (eager) stalls per visit under that schedule.
    pub eager_stalls: u64,
    /// RAW-on-unverified stalls per visit under that schedule.
    pub raw_stalls: u64,
}

/// Split a block's instructions into maximal same-unit runs.
fn unit_runs(instrs: &[Instruction]) -> Vec<(UnitType, usize)> {
    let mut runs: Vec<(UnitType, usize)> = Vec::new();
    for i in instrs {
        let u = i.unit();
        match runs.last_mut() {
            Some((last, n)) if *last == u => *n += 1,
            _ => runs.push((u, 1)),
        }
    }
    runs
}

/// Estimate per-block ReplayQ pressure for every reachable block.
///
/// Each block is issued back-to-back (one instruction per cycle, the
/// schedule with the least free verification bandwidth), so the reported
/// stalls and occupancy are per-visit upper-pressure figures, not a
/// whole-program prediction — use [`predict_exact`] for that when the
/// kernel qualifies.
pub fn block_pressure(kernel: &Kernel, cfg: &Cfg, config: &PredictConfig) -> Vec<BlockPressure> {
    let code = kernel.code();
    cfg.blocks()
        .iter()
        .filter(|b| cfg.is_reachable(b.id))
        .map(|b| {
            let instrs = &code[b.start..b.end];
            let mut checker = ReplayChecker::new(config.replayq_entries);
            let mut events = Vec::new();
            for (t, instr) in instrs.iter().enumerate() {
                checker.on_issue(&incoming(instr, t as u64), &mut events);
            }
            let stats = checker.stats;
            BlockPressure {
                block: b.id,
                instrs: instrs.len(),
                runs: unit_runs(instrs),
                peak_queue: stats.max_queue,
                eager_stalls: stats.verified[VerifyKind::EagerStall as usize],
                raw_stalls: stats.verified[VerifyKind::RawStall as usize],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::{AluBinOp, Operand, Reg, SfuOp};

    fn addi(dst: u16, imm: u32) -> Instruction {
        Instruction::Bin {
            op: AluBinOp::IAdd,
            dst: Reg(dst),
            a: Operand::Imm(imm),
            b: Operand::Imm(0),
        }
    }

    fn sin(dst: u16, src: u16) -> Instruction {
        Instruction::Sfu {
            op: SfuOp::Sin,
            dst: Reg(dst),
            a: Operand::Reg(Reg(src)),
        }
    }

    #[test]
    fn straight_line_detection() {
        let k = Kernel::new("k", vec![addi(0, 1), Instruction::Exit], 4, 0).unwrap();
        assert!(is_straight_line(&k));
        let br = Instruction::Branch {
            pred: Reg(0),
            negate: false,
            target: Pc(2),
            reconv: Pc(2),
        };
        let k2 = Kernel::new("k", vec![br, addi(0, 1), Instruction::Exit], 4, 0).unwrap();
        assert!(!is_straight_line(&k2));
    }

    use warped_isa::Pc;

    #[test]
    fn independent_same_type_run_with_zero_queue_stalls() {
        // Independent SP adds, queue capacity 0: every resolved
        // same-type pair stalls one cycle (Algorithm 1 case 3).
        let code = vec![
            addi(0, 1),
            addi(1, 2),
            addi(2, 3),
            addi(3, 4),
            Instruction::Exit,
        ];
        let k = Kernel::new("k", code, 4, 0).unwrap();
        let cfg = PredictConfig {
            replayq_entries: 0,
            ..Default::default()
        };
        let p = predict_exact(&k, &cfg).unwrap();
        // Exit is also SP-typed, so adds 1..3 and Exit each resolve a
        // same-type predecessor against a full (zero-entry) queue.
        assert_eq!(p.checker.stall_cycles, 4);
        assert_eq!(p.issued, 5);
        assert_eq!(p.idle_cycles, 0);
    }

    #[test]
    fn dependent_chain_idles_and_verifies_free() {
        // r1 depends on r0: the 8-cycle RAW wait gives the checker idle
        // slots, so nothing ever stalls even with a zero-entry queue.
        let code = vec![addi(0, 1), sin(1, 0), Instruction::Exit];
        let k = Kernel::new("k", code, 4, 0).unwrap();
        let cfg = PredictConfig {
            replayq_entries: 0,
            ..Default::default()
        };
        let p = predict_exact(&k, &cfg).unwrap();
        assert_eq!(p.checker.stall_cycles, 0);
        assert!(p.idle_cycles >= 7, "RAW wait should idle: {p:?}");
    }

    #[test]
    fn non_straight_line_returns_none() {
        let br = Instruction::Branch {
            pred: Reg(0),
            negate: false,
            target: Pc(1),
            reconv: Pc(1),
        };
        let k = Kernel::new("k", vec![br, Instruction::Exit], 4, 0).unwrap();
        assert_eq!(predict_exact(&k, &PredictConfig::default()), None);
    }

    #[test]
    fn unit_runs_split_correctly() {
        let instrs = vec![addi(0, 1), addi(1, 2), sin(2, 0), addi(3, 1)];
        let runs = unit_runs(&instrs);
        assert_eq!(
            runs,
            vec![(UnitType::Sp, 2), (UnitType::Sfu, 1), (UnitType::Sp, 1),]
        );
    }

    #[test]
    fn block_pressure_reports_queue_growth() {
        let code = vec![
            addi(0, 1),
            addi(1, 2),
            addi(2, 3),
            addi(3, 4),
            Instruction::Exit,
        ];
        let k = Kernel::new("k", code, 4, 0).unwrap();
        let cfg = Cfg::build(&k);
        let pressure = block_pressure(
            &k,
            &cfg,
            &PredictConfig {
                replayq_entries: 10,
                ..Default::default()
            },
        );
        assert_eq!(pressure.len(), 1);
        // Dense same-type run: queue grows with each resolved pair.
        assert!(pressure[0].peak_queue >= 3, "{pressure:?}");
        assert_eq!(pressure[0].eager_stalls, 0);
    }

    #[test]
    fn straight_line_kernel_with_barriers() {
        // `is_straight_line` admits `Bar`. With one warp every barrier
        // releases at once, so each costs only its issue slot; the RAW
        // wait of `sin` on r0 still spans the first barrier.
        let code = vec![
            addi(0, 1),
            Instruction::Bar,
            sin(1, 0),
            addi(2, 3),
            Instruction::Bar,
            addi(3, 4),
            Instruction::Exit,
        ];
        let k = Kernel::new("k", code, 4, 0).unwrap();
        assert!(is_straight_line(&k));
        let predict = |replayq_entries| {
            let cfg = PredictConfig {
                replayq_entries,
                ..Default::default()
            };
            predict_exact(&k, &cfg).unwrap()
        };
        let p = predict(10);
        assert_eq!((p.cycles, p.issued, p.idle_cycles), (15, 7, 6));
        assert_eq!(p.checker.verified, [1, 0, 0, 0, 0, 3]);
        assert_eq!((p.checker.enqueued, p.checker.drain_cycles), (3, 2));
        let p = predict(0);
        assert_eq!((p.cycles, p.issued, p.idle_cycles), (14, 7, 5));
        assert_eq!(p.checker.verified, [1, 0, 0, 3, 0, 0]);
        assert_eq!(p.checker.stall_cycles, 3);
    }
}
