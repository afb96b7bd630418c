//! The streaming multiprocessor: issue loop, functional execution, and
//! timing.
//!
//! One SM issues at most one warp-instruction per cycle, selected by a
//! loose round-robin scheduler over resident warps whose scoreboard allows
//! issue. Execution units are super-pipelined: issue to the same unit on
//! back-to-back cycles is legal; dependent instructions wait on the
//! scoreboard (RF latency + unit latency).
//!
//! Scheduling runs on per-warp scalars: each warp slot caches the cycle
//! its next instruction clears the scoreboard, that instruction's unit and
//! its decoded registers, recomputed only when the slot's own state
//! changes. The issue reuses those registers for its RAW distances and
//! hands them to the observer, so an instruction is decoded once per
//! issue. Execution runs on warp vectors: each source operand is resolved
//! once into a [`Row`] and the opcode is dispatched once for all 32
//! lanes.

use crate::config::{GpuConfig, SchedulerPolicy, WARP_SIZE};
use crate::fault::LaneFault;
use crate::functional::{
    bin_vec, cmp_vec, eval_ffma, eval_imad, eval_sel, eval_sfu, map1, map3, un_vec,
};
use crate::launch::{LaunchConfig, RunStats, SimError};
use crate::memory::{GlobalMemory, SharedMemory};
use crate::observer::{IssueInfo, IssueObserver};
use crate::warp::{Row, Warp};
use std::sync::Arc;
use warped_isa::{Instruction, Kernel, Operand, Reg, RegUse, Space, SpecialReg, UnitType};

/// A block resident on an SM.
#[derive(Debug)]
pub struct BlockState {
    /// Global block index across the grid (row-major).
    pub global_index: u64,
    /// Block coordinates within the grid.
    pub cta: (u32, u32),
    /// The block's shared memory.
    pub shared: SharedMemory,
    /// Warps of this block that have not finished.
    pub live_warps: usize,
    /// Warp-slot indices occupied by this block.
    pub warp_slots: Vec<usize>,
}

/// One streaming multiprocessor.
pub struct Sm {
    /// SM index on the chip.
    pub id: usize,
    config: GpuConfig,
    warp_slots: Vec<Option<Warp>>,
    /// Per warp slot: the cycle its next instruction clears the
    /// scoreboard; `u64::MAX` when the slot is empty, parked at a barrier,
    /// or done.
    ready_at: Vec<u64>,
    /// Per warp slot: the unit of that next instruction.
    ready_unit: Vec<UnitType>,
    /// Per warp slot: the registers that next instruction reads and
    /// writes.
    ready_regs: Vec<RegUse>,
    /// A lower bound on `ready_at`: before this cycle nothing can issue.
    /// Lowered whenever a slot's readiness is set; made exact when a scan
    /// finds nothing ready.
    min_ready: u64,
    /// A `bar` issued or a warp finished since the last barrier pass.
    barrier_pass_due: bool,
    block_slots: Vec<Option<BlockState>>,
    /// Occupied entries of `block_slots`.
    resident_blocks: usize,
    /// Empty entries of `warp_slots`.
    free_warps: usize,
    rr_next: usize,
    stall_cycles_left: u64,
    fault: Option<Arc<dyn LaneFault>>,
    /// Counters accumulated so far. `cycles` and `sm_cycles` stay 0:
    /// the GPU knows when each SM finished.
    pub stats: RunStats,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("fault", &self.fault.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Outcome of one SM cycle, for the GPU's progress watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A warp-instruction issued.
    Issued,
    /// The pipeline is frozen by an observer-charged stall.
    Stalled,
    /// Nothing could issue (scoreboard/barrier/latency).
    Idle,
}

impl Sm {
    /// Create an empty SM.
    pub fn new(id: usize, config: GpuConfig) -> Self {
        let warps = config.max_warps_per_sm;
        let blocks = config.max_blocks_per_sm;
        Sm {
            id,
            config,
            warp_slots: (0..warps).map(|_| None).collect(),
            ready_at: vec![u64::MAX; warps],
            ready_unit: vec![UnitType::Sp; warps],
            ready_regs: vec![RegUse::default(); warps],
            min_ready: u64::MAX,
            barrier_pass_due: false,
            block_slots: (0..blocks).map(|_| None).collect(),
            resident_blocks: 0,
            free_warps: warps,
            rr_next: 0,
            stall_cycles_left: 0,
            fault: None,
            stats: RunStats::default(),
        }
    }

    /// Corrupt this SM's datapath with `fault` (fault-injection campaigns).
    pub fn set_fault(&mut self, fault: Arc<dyn LaneFault>) {
        self.fault = Some(fault);
    }

    /// Whether any block is resident.
    pub fn has_work(&self) -> bool {
        self.resident_blocks > 0
    }

    /// Whether a block needing `warps` warp slots can be accepted now.
    pub fn can_accept(&self, warps: usize) -> bool {
        self.resident_blocks < self.block_slots.len() && self.free_warps >= warps
    }

    /// Make a block resident.
    ///
    /// # Panics
    ///
    /// Panics if [`Sm::can_accept`] would return false (the GPU checks
    /// first).
    pub fn assign_block(
        &mut self,
        global_index: u64,
        cta: (u32, u32),
        kernel: &Kernel,
        launch: &LaunchConfig,
    ) {
        let wpb = launch.warps_per_block();
        let threads = launch.threads_per_block() as u32;
        let bslot = self
            .block_slots
            .iter()
            .position(Option::is_none)
            .expect("no free block slot");
        let free: Vec<usize> = self
            .warp_slots
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.is_none().then_some(i))
            .take(wpb)
            .collect();
        assert_eq!(free.len(), wpb, "not enough free warp slots");
        for (w, &slot) in free.iter().enumerate() {
            let uid = global_index * wpb as u64 + w as u64;
            self.warp_slots[slot] = Some(Warp::new(uid, bslot, w, threads, kernel.num_regs()));
            self.refresh(slot, kernel);
        }
        self.block_slots[bslot] = Some(BlockState {
            global_index,
            cta,
            shared: SharedMemory::new(kernel.shared_words()),
            live_warps: wpb,
            warp_slots: free,
        });
        self.resident_blocks += 1;
        self.free_warps -= wpb;
    }

    /// Advance one cycle: release barriers, then try to issue one
    /// warp-instruction.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors (out-of-bounds memory,
    /// missing parameters).
    pub fn step(
        &mut self,
        cycle: u64,
        kernel: &Kernel,
        launch: &LaunchConfig,
        global: &mut GlobalMemory,
        observer: &mut dyn IssueObserver,
    ) -> Result<StepOutcome, SimError> {
        if self.stall_cycles_left > 0 {
            self.stall_cycles_left -= 1;
            self.stats.stall_cycles += 1;
            return Ok(StepOutcome::Stalled);
        }
        if self.barrier_pass_due {
            self.release_barriers(kernel);
        }

        // Fermi dual scheduling (paper §2.2): two issues per cycle from
        // distinct warps; each scheduler owns its own SPs but the LD/ST
        // units and SFUs are shared, so two LD/ST (or two SFU)
        // instructions can never co-issue.
        let width = if self.config.dual_issue { 2 } else { 1 };
        let mut issued = 0usize;
        let mut first_pick: Option<(usize, UnitType)> = None;
        let mut total_stalls = 0u64;

        // Before `min_ready` no slot can issue: skip the scan.
        if cycle >= self.min_ready {
            while issued < width {
                let Some(idx) = self.pick(cycle, first_pick) else {
                    break;
                };
                let warp = self.warp_slots[idx].as_mut().expect("ready slot is empty");
                let (pc, mask) = warp.stack.top().expect("ready warp is done");
                let Some(&instr) = kernel.fetch(pc) else {
                    return Err(SimError::PcOutOfRange { pc: pc.0 });
                };
                if issued == 0 {
                    let n = self.warp_slots.len();
                    self.rr_next = match self.config.scheduler {
                        // GTO-style: keep issuing from the same warp until
                        // it cannot issue. Matches real warp schedulers and
                        // interleaves unit types at the SM level.
                        SchedulerPolicy::GreedyThenOldest => idx,
                        // Fair rotation: all warps march in near lock step.
                        SchedulerPolicy::LooseRoundRobin => (idx + 1) % n,
                    };
                    first_pick = Some((idx, instr.unit()));
                }
                total_stalls += self.issue(
                    idx, mask, &instr, pc, cycle, kernel, launch, global, observer,
                )?;
                issued += 1;
            }
            if issued == 0 {
                self.min_ready = self.ready_at.iter().copied().min().unwrap_or(u64::MAX);
            }
        }
        if issued > 0 {
            if issued == 2 {
                self.stats.dual_issues += 1;
            }
            self.stall_cycles_left = total_stalls;
            return Ok(StepOutcome::Issued);
        }
        observer.on_idle(self.id, cycle);
        self.stats.idle_cycles += 1;
        Ok(StepOutcome::Idle)
    }

    /// The first slot in rotation order from `rr_next` that can issue at
    /// `cycle`. For a second (dual) issue, `first` excludes the first
    /// pick's slot and a second instruction on its shared unit.
    fn pick(&self, cycle: u64, first: Option<(usize, UnitType)>) -> Option<usize> {
        let n = self.ready_at.len();
        (self.rr_next..n).chain(0..self.rr_next).find(|&idx| {
            self.ready_at[idx] <= cycle
                && first.is_none_or(|(fidx, funit)| {
                    let unit = self.ready_unit[idx];
                    idx != fidx && (unit == UnitType::Sp || unit != funit)
                })
        })
    }

    /// Recompute slot `slot`'s cached readiness after its state changed.
    fn refresh(&mut self, slot: usize, kernel: &Kernel) {
        (self.ready_at[slot], self.ready_unit[slot]) = match self.warp_slots[slot].as_mut() {
            Some(w) => readiness(w, kernel, &mut self.ready_regs[slot]),
            None => NOT_READY,
        };
        self.min_ready = self.min_ready.min(self.ready_at[slot]);
    }

    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        widx: usize,
        mask: u32,
        instr: &Instruction,
        pc: warped_isa::Pc,
        cycle: u64,
        kernel: &Kernel,
        launch: &LaunchConfig,
        global: &mut GlobalMemory,
        observer: &mut dyn IssueObserver,
    ) -> Result<u64, SimError> {
        let warp = self.warp_slots[widx].as_mut().expect("issuing empty slot");
        let bslot = warp.block_slot;
        let mut results: Row = [0; WARP_SIZE];

        // Decoded when the slot last refreshed, for this same instruction.
        let regs = self.ready_regs[widx];
        debug_assert_eq!(regs, instr.reg_use(), "stale decoded registers");
        let mut raw_dists = [None; 4];
        for (d, r) in raw_dists.iter_mut().zip(regs.srcs) {
            *d = r.and_then(|r| warp.raw_distance(r, cycle));
        }

        // Datapath corruption hook (fault campaigns): transforms every
        // value a unit produces — ALU/SFU results, load/store address
        // computations, branch decisions — before it reaches writeback.
        // It runs over the active lanes only when a fault is attached.
        let fault = self.fault.as_deref();
        let sm_id = self.id;
        let corrupt = |row: &mut Row| {
            if let Some(f) = fault {
                for lane in Lanes(mask) {
                    row[lane] = f.corrupt(sm_id, lane, cycle, row[lane]);
                }
            }
        };
        let config = &self.config;
        let ready_after = |unit: UnitType, space: Option<Space>| -> u64 {
            let exe = match (unit, space) {
                (UnitType::Sp, _) => config.sp_latency,
                (UnitType::Sfu, _) => config.sfu_latency,
                (UnitType::LdSt, Some(Space::Shared)) => config.shared_latency,
                (UnitType::LdSt, _) => config.global_latency,
            };
            cycle + config.writeback_latency(exe)
        };

        {
            let block = self.block_slots[bslot]
                .as_mut()
                .expect("warp's block missing");
            let src = |op: Operand| operand_row(warp, block, launch, op);

            // ALU and SFU ops compute every lane (inactive lanes of
            // `results` are unspecified); the shared tail below corrupts,
            // writes back and advances.
            let computed: Option<(Reg, UnitType)> = match *instr {
                Instruction::Bin { op, dst, a, b } => {
                    results = bin_vec(op, &src(a)?, &src(b)?);
                    Some((dst, UnitType::Sp))
                }
                Instruction::Un { op, dst, a } => {
                    results = un_vec(op, &src(a)?);
                    Some((dst, UnitType::Sp))
                }
                Instruction::IMad { dst, a, b, c } => {
                    results = map3(&src(a)?, &src(b)?, &src(c)?, eval_imad);
                    Some((dst, UnitType::Sp))
                }
                Instruction::FFma { dst, a, b, c } => {
                    results = map3(&src(a)?, &src(b)?, &src(c)?, eval_ffma);
                    Some((dst, UnitType::Sp))
                }
                Instruction::Setp { cmp, ty, dst, a, b } => {
                    results = cmp_vec(cmp, ty, &src(a)?, &src(b)?);
                    Some((dst, UnitType::Sp))
                }
                Instruction::Sel {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    results = map3(&src(cond)?, &src(if_true)?, &src(if_false)?, eval_sel);
                    Some((dst, UnitType::Sp))
                }
                Instruction::Sfu { op, dst, a } => {
                    results = map1(&src(a)?, |x| eval_sfu(op, x));
                    Some((dst, UnitType::Sfu))
                }
                Instruction::Ld {
                    space,
                    dst,
                    addr,
                    offset,
                } => {
                    // DMR verifies the address computation.
                    results = map1(&src(addr)?, |base| base.wrapping_add(offset as u32));
                    corrupt(&mut results);
                    let mut loaded: Row = [0; WARP_SIZE];
                    for lane in Lanes(mask) {
                        let a = results[lane];
                        loaded[lane] = match space {
                            Space::Global => global.read(a)?,
                            Space::Shared => block.shared.read(a)?,
                        };
                    }
                    write_masked(warp.row_mut(dst), mask, &loaded);
                    warp.note_write(dst, cycle, ready_after(UnitType::LdSt, Some(space)));
                    warp.stack.advance();
                    None
                }
                Instruction::St {
                    space,
                    addr,
                    offset,
                    src: value,
                } => {
                    results = map1(&src(addr)?, |base| base.wrapping_add(offset as u32));
                    let values = src(value)?;
                    corrupt(&mut results);
                    for lane in Lanes(mask) {
                        let a = results[lane];
                        match space {
                            Space::Global => global.write(a, values[lane])?,
                            Space::Shared => block.shared.write(a, values[lane])?,
                        }
                    }
                    warp.stack.advance();
                    None
                }
                Instruction::Branch {
                    pred,
                    negate,
                    target,
                    reconv,
                } => {
                    results = map1(warp.row(pred), |p| u32::from((p != 0) ^ negate));
                    corrupt(&mut results);
                    let mut taken = 0u32;
                    for lane in Lanes(mask) {
                        results[lane] = u32::from(results[lane] != 0);
                        taken |= results[lane] << lane;
                    }
                    warp.stack.branch(taken, target, reconv);
                    None
                }
                Instruction::Jump { target } => {
                    warp.stack.jump(target);
                    None
                }
                Instruction::Bar => {
                    warp.stack.advance();
                    warp.at_barrier = true;
                    self.barrier_pass_due = true;
                    None
                }
                Instruction::Exit => {
                    warp.stack.exit(mask);
                    None
                }
            };
            if let Some((dst, unit)) = computed {
                corrupt(&mut results);
                write_masked(warp.row_mut(dst), mask, &results);
                warp.note_write(dst, cycle, ready_after(unit, None));
                warp.stack.advance();
            }
        }

        let unit = instr.unit();
        let has_result = instr.has_result();
        let active = mask.count_ones() as u64;
        self.stats.warp_instructions += 1;
        self.stats.thread_instructions += active;
        self.stats.unit_instructions[unit.index()] += 1;
        self.stats.unit_thread_instructions[unit.index()] += active;
        self.stats.reg_reads += regs.srcs.iter().flatten().count() as u64 * active;
        if regs.dst.is_some() {
            self.stats.reg_writes += active;
        }

        let block_index = self.block_slots[bslot]
            .as_ref()
            .map(|b| b.global_index)
            .unwrap_or(0);
        let info = IssueInfo {
            cycle,
            sm_id: self.id,
            warp_slot: widx,
            warp_uid: warp.uid,
            block: block_index,
            pc,
            instr,
            unit,
            active_mask: mask,
            results: &results,
            has_result,
            srcs: regs.srcs,
            dst: regs.dst,
            raw_dists,
        };
        let stalls = observer.on_issue(&info);

        if warp.is_done() {
            self.warp_slots[widx] = None;
            self.free_warps += 1;
            let block = self.block_slots[bslot].as_mut().expect("block missing");
            block.live_warps -= 1;
            if block.live_warps == 0 {
                self.block_slots[bslot] = None;
                self.resident_blocks -= 1;
                self.stats.blocks += 1;
            }
            // Its block-mates may be waiting at a barrier for it.
            self.barrier_pass_due = true;
        }
        self.refresh(widx, kernel);
        Ok(stalls)
    }

    /// Release every block whose live warps all wait at the barrier. Only
    /// a `bar` issue or a warp exit can complete a barrier, so the pass
    /// runs only when one of those happened since the last pass.
    fn release_barriers(&mut self, kernel: &Kernel) {
        self.barrier_pass_due = false;
        let Sm {
            block_slots,
            warp_slots,
            ready_at,
            ready_unit,
            ready_regs,
            min_ready,
            ..
        } = self;
        for b in block_slots.iter().flatten() {
            let mut live = 0usize;
            let mut waiting = 0usize;
            for &s in &b.warp_slots {
                if let Some(w) = &warp_slots[s] {
                    live += 1;
                    if w.at_barrier {
                        waiting += 1;
                    }
                }
            }
            if live == 0 || waiting < live {
                continue;
            }
            for &s in &b.warp_slots {
                if let Some(w) = warp_slots[s].as_mut() {
                    w.at_barrier = false;
                    (ready_at[s], ready_unit[s]) = readiness(w, kernel, &mut ready_regs[s]);
                    *min_ready = (*min_ready).min(ready_at[s]);
                }
            }
        }
    }
}

/// The cached readiness of a slot that cannot issue.
const NOT_READY: (u64, UnitType) = (u64::MAX, UnitType::Sp);

/// When and on which unit `warp`'s next instruction can issue:
/// `u64::MAX` while it waits at a barrier or is done. The instruction's
/// registers go to `regs`, which is left as it was when nothing can
/// issue from it. A warp whose PC fetches nothing is ready at once, on
/// the SP unit (which has no dual-issue hazard), so the scan reaches it
/// where it always did and reports [`SimError::PcOutOfRange`].
fn readiness(warp: &mut Warp, kernel: &Kernel, regs: &mut RegUse) -> (u64, UnitType) {
    if warp.at_barrier {
        return NOT_READY;
    }
    match warp.stack.top() {
        Some((pc, _)) => match kernel.fetch(pc) {
            Some(instr) => {
                *regs = instr.reg_use();
                (warp.ready_at(regs), instr.unit())
            }
            None => (0, UnitType::Sp),
        },
        None => NOT_READY,
    }
}

/// The set lane indices of a mask, in lane order.
struct Lanes(u32);

impl Iterator for Lanes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        (self.0 != 0).then(|| {
            let lane = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            lane
        })
    }
}

/// Store the active lanes of `values` into `row`; a full mask is one row
/// store.
fn write_masked(row: &mut Row, mask: u32, values: &Row) {
    if mask == u32::MAX {
        *row = *values;
    } else {
        for lane in Lanes(mask) {
            row[lane] = values[lane];
        }
    }
}

/// Resolve a source operand for every lane: a register is its row, an
/// immediate or a parameter is a splat, a special register is computed
/// per lane.
fn operand_row(
    warp: &Warp,
    block: &BlockState,
    launch: &LaunchConfig,
    op: Operand,
) -> Result<Row, SimError> {
    Ok(match op {
        Operand::Reg(r) => *warp.row(r),
        Operand::Imm(v) => [v; WARP_SIZE],
        Operand::Param(i) => {
            [launch
                .params
                .get(i as usize)
                .copied()
                .ok_or(SimError::MissingParam { index: i })?; WARP_SIZE]
        }
        Operand::Special(s) => {
            std::array::from_fn(|lane| special_value(s, warp, block, launch, lane))
        }
    })
}

fn special_value(
    s: SpecialReg,
    warp: &Warp,
    block: &BlockState,
    launch: &LaunchConfig,
    lane: usize,
) -> u32 {
    let lin = warp.lane_base_tid + lane as u32;
    let bx = launch.block.0.max(1);
    match s {
        SpecialReg::TidX => lin % bx,
        SpecialReg::TidY => lin / bx,
        SpecialReg::NTidX => launch.block.0,
        SpecialReg::NTidY => launch.block.1,
        SpecialReg::CtaIdX => block.cta.0,
        SpecialReg::CtaIdY => block.cta.1,
        SpecialReg::NCtaIdX => launch.grid.0,
        SpecialReg::NCtaIdY => launch.grid.1,
        SpecialReg::LaneId => lane as u32,
        SpecialReg::WarpId => warp.warp_in_block as u32,
        SpecialReg::FlatTid => lin,
        SpecialReg::GlobalTid => {
            (block.global_index as u32) * launch.threads_per_block() as u32 + lin
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use warped_isa::KernelBuilder;

    fn small_sm() -> Sm {
        Sm::new(0, GpuConfig::small())
    }

    #[test]
    fn fresh_sm_has_no_work() {
        let sm = small_sm();
        assert!(!sm.has_work());
        assert!(sm.can_accept(4));
    }

    #[test]
    fn assign_block_occupies_slots() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.mov(r, 1u32);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 64);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        assert!(sm.has_work());
        // 2 warps taken of 32; can still accept a large block.
        assert!(sm.can_accept(30));
        assert!(!sm.can_accept(31));
    }

    #[test]
    fn single_warp_kernel_runs_to_completion() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let [tid, v] = b.regs();
        b.mov(tid, warped_isa::SpecialReg::FlatTid);
        b.iadd(v, tid, 10u32);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(16);
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut NullObserver)
                .unwrap();
            cycle += 1;
            assert!(cycle < 1000, "kernel did not finish");
        }
        assert_eq!(sm.stats.warp_instructions, 3); // mov, iadd, exit
        assert_eq!(sm.stats.blocks, 1);
    }

    #[test]
    fn dependent_instructions_respect_raw_latency() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let [a, c] = b.regs();
        b.mov(a, 1u32);
        b.iadd(c, a, a); // depends on mov
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(16);

        struct IssueCycles(Vec<u64>);
        impl IssueObserver for IssueCycles {
            fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
                self.0.push(info.cycle);
                0
            }
        }
        let mut obs = IssueCycles(Vec::new());
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut obs)
                .unwrap();
            cycle += 1;
            assert!(cycle < 1000);
        }
        // mov at 0; iadd must wait rf(3) + sp(5) = 8 cycles.
        assert_eq!(obs.0[0], 0);
        assert_eq!(obs.0[1], 8);
    }

    #[test]
    fn stores_reach_global_memory() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let [tid, addr] = b.regs();
        b.mov(tid, warped_isa::SpecialReg::FlatTid);
        let out = b.param(0);
        b.iadd(addr, out, tid);
        b.st_global(addr, 0, tid);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32).with_params(vec![4]);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(64);
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut NullObserver)
                .unwrap();
            cycle += 1;
            assert!(cycle < 1000);
        }
        assert_eq!(global.read(4).unwrap(), 0);
        assert_eq!(global.read(4 + 31).unwrap(), 31);
    }

    #[test]
    fn missing_param_is_reported() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        let p = b.param(3);
        b.mov(r, p);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(16);
        let err = sm
            .step(0, &kernel, &launch, &mut global, &mut NullObserver)
            .unwrap_err();
        assert_eq!(err, SimError::MissingParam { index: 3 });
    }

    #[test]
    fn barrier_releases_when_all_warps_arrive() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.mov(r, 1u32);
        b.bar();
        b.iadd(r, r, 1u32);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 64); // 2 warps
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(16);
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut NullObserver)
                .unwrap();
            cycle += 1;
            assert!(cycle < 10_000, "barrier deadlocked");
        }
        // 2 warps × 4 instructions (mov, bar, iadd, exit).
        assert_eq!(sm.stats.warp_instructions, 8);
    }

    #[test]
    fn barrier_releases_when_last_running_warp_exits() {
        // Warp 0 parks at `bar`; warp 1 skips the barrier, runs a short
        // dependent chain and exits. Its exit completes the barrier, so
        // warp 0 issues again on the very next cycle.
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let [w, p, r] = b.regs();
        b.mov(w, warped_isa::SpecialReg::WarpId);
        b.setp(warped_isa::CmpOp::Eq, warped_isa::CmpType::U32, p, w, 1u32);
        b.if_then(p, |b| {
            for _ in 0..3 {
                b.iadd(r, r, 1u32);
            }
            b.exit();
        });
        b.bar();
        b.iadd(r, r, 1u32);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 64); // 2 warps
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(16);

        struct Issues(Vec<(u64, Instruction, u64)>);
        impl IssueObserver for Issues {
            fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
                self.0.push((info.warp_uid, *info.instr, info.cycle));
                0
            }
        }
        let mut obs = Issues(Vec::new());
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut obs)
                .unwrap();
            cycle += 1;
            assert!(cycle < 10_000, "barrier deadlocked");
        }
        let at = |uid: u64, f: fn(&Instruction) -> bool| {
            obs.0
                .iter()
                .filter(|(u, i, _)| *u == uid && f(i))
                .map(|&(_, _, c)| c)
                .collect::<Vec<_>>()
        };
        let bar = at(0, |i| matches!(i, Instruction::Bar));
        let exit = at(1, |i| matches!(i, Instruction::Exit));
        let after = at(0, |i| matches!(i, Instruction::Bin { .. }));
        assert!(bar[0] < exit[0], "warp 0 must wait while warp 1 runs");
        assert_eq!(after, vec![exit[0] + 1]);
        // Warp 0: mov, setp, bra, bar, iadd, exit; warp 1: mov, setp,
        // bra, 3 × iadd, exit.
        assert_eq!(sm.stats.warp_instructions, 13);
        assert_eq!(sm.stats.blocks, 1);
    }

    #[test]
    fn divergent_branch_executes_both_sides() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let [lane, p, v, addr] = b.regs();
        b.mov(lane, warped_isa::SpecialReg::LaneId);
        b.setp(
            warped_isa::CmpOp::Lt,
            warped_isa::CmpType::U32,
            p,
            lane,
            16u32,
        );
        b.if_then_else(p, |b| b.mov(v, 111u32), |b| b.mov(v, 222u32));
        let out = b.param(0);
        b.iadd(addr, out, lane);
        b.st_global(addr, 0, v);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32).with_params(vec![0]);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(64);
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut NullObserver)
                .unwrap();
            cycle += 1;
            assert!(cycle < 10_000);
        }
        for lane in 0..32u32 {
            let expect = if lane < 16 { 111 } else { 222 };
            assert_eq!(global.read(lane).unwrap(), expect, "lane {lane}");
        }
    }
}
