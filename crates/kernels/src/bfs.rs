//! Level-synchronous breadth-first search (paper Table 4:
//! `graph65536.txt`, `gridDim = 256`, `blockDim = 256`).
//!
//! One thread per node per level; a thread does real work only when its
//! node is in the current frontier, so most warps run with zero or a few
//! active lanes — the paper's most intra-warp-friendly benchmark (over 40%
//! of BFS instructions execute single-threaded, Fig. 1, and its coverage
//! is ~100% with near-zero overhead, Fig. 9).
//!
//! The host relaunches the kernel once per level until the `changed` flag
//! stays clear, exactly like the CUDA SDK sample.

use crate::common::{check_exact, CheckError, Footprint, SplitMix32};
use crate::suite::{Program, ProgramRun, WorkloadSize};
use warped_isa::{CmpOp, CmpType, Kernel, KernelBuilder, KernelError, SpecialReg};
use warped_sim::{Gpu, IssueObserver, LaunchConfig, SimError};

const INF: u32 = u32::MAX;

/// The BFS workload: single-source shortest hop counts over a random
/// sparse directed graph in CSR form.
#[derive(Debug)]
pub struct Bfs {
    nodes: u32,
    block_size: u32,
    row_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    kernel: Kernel,
}

impl Bfs {
    /// Build the workload (graph seeded deterministically).
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (nodes, degree, block_size) = match size {
            WorkloadSize::Tiny => (256u32, 4u32, 64u32),
            WorkloadSize::Small => (4096, 6, 256),
            WorkloadSize::Full => (16384, 6, 256),
        };
        let mut rng = SplitMix32::new(0xbf5);
        let mut row_offsets = Vec::with_capacity(nodes as usize + 1);
        let mut col_indices = Vec::new();
        row_offsets.push(0);
        for v in 0..nodes {
            let deg = 1 + rng.below(degree);
            for _ in 0..deg {
                // Bias edges forward so the BFS tree has several levels.
                let w = if rng.below(2) == 0 {
                    (v + 1 + rng.below(nodes / 8)) % nodes
                } else {
                    rng.below(nodes)
                };
                col_indices.push(w);
            }
            row_offsets.push(col_indices.len() as u32);
        }
        Ok(Bfs {
            nodes,
            block_size,
            row_offsets,
            col_indices,
            kernel: Self::kernel()?,
        })
    }

    fn kernel() -> Result<Kernel, KernelError> {
        let mut b = KernelBuilder::new("bfs");
        let [v, f, addr, start, end, e, p] = b.regs();
        b.mov(v, SpecialReg::GlobalTid);
        let (fin, fout, row, col, cost, changed, lvl) = (
            b.param(0),
            b.param(1),
            b.param(2),
            b.param(3),
            b.param(4),
            b.param(5),
            b.param(6),
        );
        b.iadd(addr, fin, v);
        b.ld_global(f, addr, 0);
        b.if_then(f, |b| {
            b.st_global(addr, 0, 0u32); // clear own frontier flag
            let raddr = b.reg();
            b.iadd(raddr, row, v);
            b.ld_global(start, raddr, 0);
            b.ld_global(end, raddr, 1);
            b.mov(e, start);
            b.while_loop(
                |b| {
                    b.setp(CmpOp::Lt, CmpType::U32, p, e, end);
                    p
                },
                |b| {
                    let [w, caddr, c, q] = b.regs();
                    let eaddr = b.reg();
                    b.iadd(eaddr, col, e);
                    b.ld_global(w, eaddr, 0);
                    b.iadd(caddr, cost, w);
                    b.ld_global(c, caddr, 0);
                    b.setp(CmpOp::Eq, CmpType::U32, q, c, INF);
                    b.if_then(q, |b| {
                        b.st_global(caddr, 0, lvl);
                        let faddr = b.reg();
                        b.iadd(faddr, fout, w);
                        b.st_global(faddr, 0, 1u32);
                        b.st_global(changed, 0, 1u32);
                    });
                    b.iadd(e, e, 1u32);
                },
            );
        });
        b.build()
    }

    /// CPU reference: hop counts from node 0 (`u32::MAX` = unreachable).
    pub fn reference(&self) -> Vec<u32> {
        let n = self.nodes as usize;
        let mut cost = vec![INF; n];
        cost[0] = 0;
        let mut frontier = vec![0usize];
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                let (s, e) = (
                    self.row_offsets[v] as usize,
                    self.row_offsets[v + 1] as usize,
                );
                for &w in &self.col_indices[s..e] {
                    if cost[w as usize] == INF {
                        cost[w as usize] = level;
                        next.push(w as usize);
                    }
                }
            }
            frontier = next;
        }
        cost
    }
}

impl Program for Bfs {
    fn execute(
        &self,
        gpu: &mut Gpu,
        observer: &mut dyn IssueObserver,
    ) -> Result<ProgramRun, SimError> {
        let n = self.nodes as usize;
        let fin = gpu.alloc_words(n);
        let fout = gpu.alloc_words(n);
        let row = gpu.alloc_words(self.row_offsets.len());
        let col = gpu.alloc_words(self.col_indices.len());
        let cost = gpu.alloc_words(n);
        let changed = gpu.alloc_words(1);
        gpu.write_words(row, &self.row_offsets);
        gpu.write_words(col, &self.col_indices);
        let mut costs = vec![INF; n];
        costs[0] = 0;
        gpu.write_words(cost, &costs);
        let mut f0 = vec![0u32; n];
        f0[0] = 1;
        gpu.write_words(fin, &f0);

        let blocks = self.nodes / self.block_size;
        let mut run = ProgramRun::default();
        let mut flags = (fin, fout);
        for level in 1..=n as u32 {
            gpu.write_words(changed, &[0]);
            let launch = LaunchConfig::linear(blocks, self.block_size)
                .with_params(vec![flags.0, flags.1, row, col, cost, changed, level]);
            let stats = gpu.launch(&self.kernel, &launch, observer)?;
            run.absorb(&stats);
            if gpu.read_words(changed, 1)[0] == 0 {
                break;
            }
            flags = (flags.1, flags.0);
        }
        run.output = gpu.read_words(cost, n);
        Ok(run)
    }

    fn check(&self, run: &ProgramRun) -> Result<(), CheckError> {
        check_exact(&run.output, &self.reference())
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn block_threads(&self) -> u32 {
        self.block_size
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            input_words: (self.row_offsets.len() + self.col_indices.len() + 3 * self.nodes as usize)
                as u64,
            output_words: self.nodes as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_sim::{GpuConfig, NullObserver};

    #[test]
    fn tiny_bfs_matches_reference() {
        let w = Bfs::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
        assert!(run.launches >= 2, "expected a multi-level BFS");
    }

    #[test]
    fn bfs_is_heavily_underutilized() {
        use warped_sim::collectors::ActiveThreadCollector;
        let w = Bfs::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = ActiveThreadCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        // Lone-thread bucket must be substantial (paper: >40%).
        assert!(
            c.histogram().fraction(0) + c.histogram().fraction(1) > 0.2,
            "BFS should spend much time at low utilization"
        );
    }

    #[test]
    fn source_cost_is_zero_and_neighbors_one() {
        let w = Bfs::new(WorkloadSize::Tiny).unwrap();
        let r = w.reference();
        assert_eq!(r[0], 0);
        let (s, e) = (w.row_offsets[0] as usize, w.row_offsets[1] as usize);
        for &n in &w.col_indices[s..e] {
            assert!(r[n as usize] <= 1);
        }
    }
}
