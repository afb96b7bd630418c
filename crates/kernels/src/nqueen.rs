//! N-Queens backtracking (paper Table 4: `gridDim = 256`,
//! `blockDim = 96`).
//!
//! The search space is partitioned by fixing the first `F` queen columns
//! from the global thread id; each thread then runs an iterative bitmask
//! backtracking search for the remaining rows. Threads whose fixed prefix
//! is invalid exit immediately and search depths vary wildly, so warps are
//! chronically underutilized — classic intra-warp DMR territory.

use crate::common::{check_exact, CheckError};
use crate::suite::{Buffer, WorkloadSize};
use warped_isa::{CmpOp, CmpType, Kernel, KernelBuilder, KernelError, SpecialReg};
use warped_sim::LaunchConfig;

/// The NQueen workload: count all N-queens solutions, partitioned over
/// threads by the first `fixed` rows.
#[derive(Debug)]
pub struct NQueen {
    blocks: u32,
    block_size: u32,
    n: u32,
    fixed: u32,
    kernel: Kernel,
}

/// Known solution counts for small boards.
const SOLUTIONS: [(u32, u64); 5] = [(6, 4), (7, 40), (8, 92), (9, 352), (10, 724)];

impl NQueen {
    /// Build the workload.
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (blocks, block_size, n, fixed) = match size {
            WorkloadSize::Tiny => (1u32, 96u32, 7u32, 2u32),
            WorkloadSize::Small => (8, 96, 9, 3),
            WorkloadSize::Full => (11, 96, 10, 3),
        };
        Ok(NQueen {
            blocks,
            block_size,
            n,
            fixed,
            kernel: Self::kernel(n, fixed)?,
        })
    }

    /// Board size.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Total number of solutions for this board size.
    pub fn expected_total(&self) -> u64 {
        SOLUTIONS
            .iter()
            .find(|(k, _)| *k == self.n)
            .map(|(_, v)| *v)
            .expect("unsupported board size")
    }

    fn kernel(n: u32, fixed: u32) -> Result<Kernel, KernelError> {
        let full: u32 = (1 << n) - 1;
        let stack_words = (n + 1) as usize;
        let mut b = KernelBuilder::new("nqueen");
        // Per-thread DFS stacks in shared memory: avail, cols, ld, rd.
        let per_thread = 4 * stack_words;
        let sh = b.alloc_shared(96 * per_thread);
        let [gtid, tid, cols, ld, rd, count, ok] = b.regs();
        b.mov(gtid, SpecialReg::GlobalTid);
        b.mov(tid, SpecialReg::FlatTid);
        let out = b.param(0);
        b.mov(cols, 0u32);
        b.mov(ld, 0u32);
        b.mov(rd, 0u32);
        b.mov(count, 0u32);
        b.mov(ok, 1u32);

        // Fix the first `fixed` queens from the thread id.
        let combos = n.pow(fixed);
        let in_range = b.reg();
        b.setp(CmpOp::Lt, CmpType::U32, in_range, gtid, combos);
        b.and(ok, ok, in_range);
        let g = b.reg();
        b.mov(g, gtid);
        for i in 0..fixed {
            let [c, bit, blocked, free] = b.regs();
            b.urem(c, g, n);
            // The quotient only feeds the next unrolled iteration.
            if i + 1 < fixed {
                b.udiv(g, g, n);
            }
            b.mov(bit, 1u32);
            b.shl(bit, bit, c);
            b.or(blocked, cols, ld);
            b.or(blocked, blocked, rd);
            b.and(blocked, blocked, bit);
            b.setp(CmpOp::Eq, CmpType::U32, free, blocked, 0u32);
            b.and(ok, ok, free);
            // Place (harmless when already invalid).
            b.or(cols, cols, bit);
            b.or(ld, ld, bit);
            b.shl(ld, ld, 1u32);
            b.or(rd, rd, bit);
            b.shr(rd, rd, 1u32);
        }

        b.if_then(ok, |b| {
            // Iterative DFS over rows fixed..n.
            let [depth, base, p, avail] = b.regs();
            b.mov(depth, fixed);
            b.imul(base, tid, per_thread as u32);
            b.iadd(base, base, sh as i32);
            // avail[fixed] = ~(cols|ld|rd) & full; store initial state.
            let store_state = |b: &mut KernelBuilder,
                               base: warped_isa::Reg,
                               depth: warped_isa::Reg,
                               which: u32,
                               v: warped_isa::Reg| {
                let a = b.reg();
                b.iadd(a, base, depth);
                b.st_shared(a, (which * (n + 1)) as i32, v);
            };
            let load_state = |b: &mut KernelBuilder,
                              base: warped_isa::Reg,
                              depth: warped_isa::Reg,
                              which: u32,
                              v: warped_isa::Reg| {
                let a = b.reg();
                b.iadd(a, base, depth);
                b.ld_shared(v, a, (which * (n + 1)) as i32);
            };
            let blocked = b.reg();
            b.or(blocked, cols, ld);
            b.or(blocked, blocked, rd);
            b.not(avail, blocked);
            b.and(avail, avail, full);
            store_state(b, base, depth, 0, avail);
            store_state(b, base, depth, 1, cols);
            store_state(b, base, depth, 2, ld);
            store_state(b, base, depth, 3, rd);

            let running = b.reg();
            b.mov(running, 1u32);
            b.while_loop(
                |b| {
                    b.mov(p, running);
                    p
                },
                |b| {
                    let av = b.reg();
                    load_state(b, base, depth, 0, av);
                    let nz = b.reg();
                    b.setp(CmpOp::Ne, CmpType::U32, nz, av, 0u32);
                    b.if_then_else(
                        nz,
                        |b| {
                            // Take the lowest available column.
                            let [bit, neg] = b.regs();
                            b.ineg(neg, av);
                            b.and(bit, av, neg);
                            b.xor(av, av, bit);
                            store_state(b, base, depth, 0, av);
                            let last = b.reg();
                            b.setp(CmpOp::Eq, CmpType::U32, last, depth, n - 1);
                            b.if_then_else(
                                last,
                                |b| b.iadd(count, count, 1u32),
                                |b| {
                                    // Descend with updated masks.
                                    let [c2, l2, r2, bl] = b.regs();
                                    load_state(b, base, depth, 1, c2);
                                    load_state(b, base, depth, 2, l2);
                                    load_state(b, base, depth, 3, r2);
                                    b.or(c2, c2, bit);
                                    b.or(l2, l2, bit);
                                    b.shl(l2, l2, 1u32);
                                    b.or(r2, r2, bit);
                                    b.shr(r2, r2, 1u32);
                                    b.iadd(depth, depth, 1u32);
                                    b.or(bl, c2, l2);
                                    b.or(bl, bl, r2);
                                    let av2 = b.reg();
                                    b.not(av2, bl);
                                    b.and(av2, av2, full);
                                    store_state(b, base, depth, 0, av2);
                                    store_state(b, base, depth, 1, c2);
                                    store_state(b, base, depth, 2, l2);
                                    store_state(b, base, depth, 3, r2);
                                },
                            );
                        },
                        |b| {
                            // Backtrack.
                            let bottom = b.reg();
                            b.setp(CmpOp::Eq, CmpType::U32, bottom, depth, fixed);
                            b.if_then_else(
                                bottom,
                                |b| b.mov(running, 0u32),
                                |b| b.isub(depth, depth, 1u32),
                            );
                        },
                    );
                },
            );
        });
        let oaddr = b.reg();
        b.iadd(oaddr, out, gtid);
        b.st_global(oaddr, 0, count);
        b.build()
    }

    /// CPU reference: per-thread solution counts via the same
    /// prefix-partitioned search.
    pub fn reference(&self) -> Vec<u32> {
        let threads = (self.blocks * self.block_size) as usize;
        let n = self.n;
        let full = (1u32 << n) - 1;
        (0..threads)
            .map(|t| {
                let combos = n.pow(self.fixed) as usize;
                if t >= combos {
                    return 0;
                }
                let (mut cols, mut ld, mut rd) = (0u32, 0u32, 0u32);
                let mut g = t as u32;
                for _ in 0..self.fixed {
                    let c = g % n;
                    g /= n;
                    let bit = 1u32 << c;
                    if (cols | ld | rd) & bit != 0 {
                        return 0;
                    }
                    cols |= bit;
                    ld = (ld | bit) << 1;
                    rd = (rd | bit) >> 1;
                }
                fn solve(cols: u32, ld: u32, rd: u32, full: u32, row: u32, n: u32) -> u32 {
                    if row == n {
                        return 1;
                    }
                    let mut avail = !(cols | ld | rd) & full;
                    let mut cnt = 0;
                    while avail != 0 {
                        let bit = avail & avail.wrapping_neg();
                        avail ^= bit;
                        cnt += solve(
                            cols | bit,
                            (ld | bit) << 1,
                            (rd | bit) >> 1,
                            full,
                            row + 1,
                            n,
                        );
                    }
                    cnt
                }
                solve(cols, ld, rd, full, self.fixed, n)
            })
            .collect()
    }
}

impl crate::suite::OneLaunch for NQueen {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn geometry(&self) -> LaunchConfig {
        LaunchConfig::linear(self.blocks, self.block_size)
    }

    fn inputs(&self) -> Vec<Buffer<'_>> {
        Vec::new()
    }

    fn output_lens(&self) -> Vec<usize> {
        vec![(self.blocks * self.block_size) as usize]
    }

    fn check(&self, output: &[u32]) -> Result<(), CheckError> {
        check_exact(output, &self.reference())?;
        let total: u64 = output.iter().map(|&c| c as u64).sum();
        if total != self.expected_total() {
            return Err(CheckError::Property {
                what: format!(
                    "total solutions {total} != known {} for n={}",
                    self.expected_total(),
                    self.n
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;
    use warped_sim::{Gpu, GpuConfig, NullObserver};

    #[test]
    fn tiny_nqueen_counts_40_solutions_for_n7() {
        let w = NQueen::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
        let total: u64 = run.output.iter().map(|&c| c as u64).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn reference_totals_match_known_counts() {
        for size in [WorkloadSize::Tiny, WorkloadSize::Small] {
            let w = NQueen::new(size).unwrap();
            let total: u64 = w.reference().iter().map(|&c| c as u64).sum();
            assert_eq!(total, w.expected_total(), "n={}", w.n());
        }
    }

    #[test]
    fn nqueen_is_divergent() {
        use warped_sim::collectors::ActiveThreadCollector;
        let w = NQueen::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = ActiveThreadCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        let partial: f64 = (0..4).map(|i| c.histogram().fraction(i)).sum();
        assert!(partial > 0.3, "backtracking should diverge, got {partial}");
    }
}
