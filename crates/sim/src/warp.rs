//! Warp context: registers, scoreboard, and divergence state.

use crate::config::WARP_SIZE;
use crate::simt_stack::SimtStack;
use warped_isa::{Reg, RegUse};

/// One 32-bit value per lane of a warp: a register row, or a source
/// operand resolved for every lane.
pub type Row = [u32; WARP_SIZE];

/// The populated-lane mask for a warp whose lanes cover linear thread ids
/// `base..base + WARP_SIZE` in a block of `threads_in_block` threads.
pub fn populated_mask(base: u32, threads_in_block: u32) -> u32 {
    let mut mask = 0u32;
    for lane in 0..WARP_SIZE as u32 {
        if base + lane < threads_in_block {
            mask |= 1 << lane;
        }
    }
    mask
}

/// Scoreboard state of one register. Both fields sit together so an
/// issue touches one place per register.
#[derive(Debug, Clone, Copy)]
struct RegTiming {
    /// Cycle at which the last write completes writeback.
    ready: u64,
    /// Issue cycle of the last write (`u64::MAX`: never written).
    written_at: u64,
}

/// One resident warp of 32 threads.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Globally unique warp id (stable across the launch).
    pub uid: u64,
    /// Resident-block slot this warp belongs to.
    pub block_slot: usize,
    /// Warp index within its block.
    pub warp_in_block: usize,
    /// Linear thread id of lane 0 within the block.
    pub lane_base_tid: u32,
    /// Divergence state.
    pub stack: SimtStack,
    /// Whether the warp is parked at a `bar.sync`.
    pub at_barrier: bool,
    regs: Vec<Row>,
    timing: Vec<RegTiming>,
}

impl Warp {
    /// Create a warp whose lanes cover linear tids
    /// `lane_base_tid..lane_base_tid + 32` of a block with
    /// `threads_in_block` threads, with a zeroed register frame of
    /// `num_regs` registers per lane.
    pub fn new(
        uid: u64,
        block_slot: usize,
        warp_in_block: usize,
        threads_in_block: u32,
        num_regs: u16,
    ) -> Self {
        let lane_base_tid = (warp_in_block * WARP_SIZE) as u32;
        let mask = populated_mask(lane_base_tid, threads_in_block);
        let n = num_regs as usize;
        Warp {
            uid,
            block_slot,
            warp_in_block,
            lane_base_tid,
            stack: SimtStack::new(mask),
            at_barrier: false,
            regs: vec![[0; WARP_SIZE]; n],
            timing: vec![
                RegTiming {
                    ready: 0,
                    written_at: u64::MAX,
                };
                n
            ],
        }
    }

    /// Register `reg` of every lane.
    #[inline]
    pub fn row(&self, reg: Reg) -> &Row {
        &self.regs[reg.index()]
    }

    /// Register `reg` of every lane, for writing.
    #[inline]
    pub fn row_mut(&mut self, reg: Reg) -> &mut Row {
        &mut self.regs[reg.index()]
    }

    /// The first cycle at which an instruction using `regs` clears the
    /// scoreboard: every source register and the destination (WAW) have
    /// completed writeback.
    #[inline]
    pub fn ready_at(&self, regs: &RegUse) -> u64 {
        let ready = |r: Option<Reg>| r.map_or(0, |r| self.timing[r.index()].ready);
        let [a, b, c, d] = regs.srcs;
        ready(regs.dst)
            .max(ready(a))
            .max(ready(b))
            .max(ready(c))
            .max(ready(d))
    }

    /// Record a write issued at `issue_cycle` completing at `ready_cycle`.
    pub fn note_write(&mut self, reg: Reg, issue_cycle: u64, ready_cycle: u64) {
        self.timing[reg.index()] = RegTiming {
            ready: ready_cycle,
            written_at: issue_cycle,
        };
    }

    /// Issue-to-issue RAW distance for reading `reg` at `cycle`
    /// (`None` if the register was never written).
    pub fn raw_distance(&self, reg: Reg, cycle: u64) -> Option<u64> {
        let w = self.timing[reg.index()].written_at;
        (w != u64::MAX).then(|| cycle.saturating_sub(w))
    }

    /// Whether all threads have exited.
    pub fn is_done(&self) -> bool {
        self.stack.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use warped_isa::{AluBinOp, Instruction, Operand, Pc, Space};

    fn add(dst: u16, a: u16, b: u16) -> Instruction {
        Instruction::Bin {
            op: AluBinOp::IAdd,
            dst: Reg(dst),
            a: Operand::Reg(Reg(a)),
            b: Operand::Reg(Reg(b)),
        }
    }

    #[test]
    fn populated_mask_shapes() {
        assert_eq!(populated_mask(0, 32), u32::MAX);
        assert_eq!(populated_mask(0, 8), 0xff);
        assert_eq!(populated_mask(32, 40), 0xff);
        assert_eq!(populated_mask(32, 32), 0);
        assert_eq!(populated_mask(0, 64), u32::MAX);
    }

    #[test]
    fn register_read_write_per_lane() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        w.row_mut(Reg(2))[5] = 99;
        assert_eq!(w.row(Reg(2))[5], 99);
        assert_eq!(w.row(Reg(2))[6], 0);
        assert_eq!(w.row(Reg(3))[5], 0);
    }

    #[test]
    fn scoreboard_blocks_raw_and_waw() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        let regs = add(0, 1, 2).reg_use();
        assert_eq!(w.ready_at(&regs), 0);
        // Pending write to a source blocks issue.
        w.note_write(Reg(1), 0, 8);
        assert_eq!(w.ready_at(&regs), 8);
        // Pending write to the destination (WAW) blocks issue.
        w.note_write(Reg(0), 9, 17);
        assert_eq!(w.ready_at(&regs), 17);
    }

    /// One instruction per register shape: two sources and a destination,
    /// three sources, a store (no destination), a branch (predicate only),
    /// an immediate source, and no registers at all.
    fn shape(kind: u8, (d, a, b, c): (u16, u16, u16, u16)) -> Instruction {
        let r = |i| Operand::Reg(Reg(i));
        match kind {
            0 => add(d, a, b),
            1 => Instruction::IMad {
                dst: Reg(d),
                a: r(a),
                b: r(b),
                c: r(c),
            },
            2 => Instruction::St {
                space: Space::Global,
                addr: r(a),
                offset: 0,
                src: r(b),
            },
            3 => Instruction::Branch {
                pred: Reg(a),
                negate: false,
                target: Pc(0),
                reconv: Pc(0),
            },
            4 => Instruction::Bin {
                op: AluBinOp::IAdd,
                dst: Reg(d),
                a: r(a),
                b: Operand::Imm(7),
            },
            _ => Instruction::Bar,
        }
    }

    proptest! {
        #[test]
        fn ready_at_is_the_least_ready_cycle(
            writes in proptest::collection::vec((0u16..4, 0u64..40), 0..6),
            regs in (0u16..4, 0u16..4, 0u16..4, 0u16..4),
            kind in 0u8..6,
        ) {
            let mut w = Warp::new(0, 0, 0, 32, 4);
            let mut ready = [0u64; 4];
            for (r, at) in writes {
                w.note_write(Reg(r), 0, at);
                ready[r as usize] = at;
            }
            let instr = shape(kind, regs);
            // The scoreboard rule spelled out: no pending write to a
            // source (RAW) or to the destination (WAW).
            let clear = |cycle: u64| {
                instr
                    .dst()
                    .into_iter()
                    .chain(instr.src_regs().into_iter().flatten())
                    .all(|r| ready[r.index()] <= cycle)
            };
            let at = w.ready_at(&instr.reg_use());
            prop_assert!(clear(at));
            prop_assert!(at == 0 || !clear(at - 1));
            for cycle in 0..48 {
                prop_assert_eq!(at <= cycle, clear(cycle));
            }
        }
    }

    #[test]
    fn raw_distance_tracks_last_writer() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        assert_eq!(w.raw_distance(Reg(1), 100), None);
        w.note_write(Reg(1), 10, 18);
        assert_eq!(w.raw_distance(Reg(1), 25), Some(15));
    }

    #[test]
    fn second_warp_of_block_covers_upper_tids() {
        let mut w = Warp::new(1, 0, 1, 48, 2);
        assert_eq!(w.lane_base_tid, 32);
        // 48-thread block: second warp has 16 populated lanes.
        let (_, mask) = w.stack.top().unwrap();
        assert_eq!(mask, 0xffff);
    }
}
