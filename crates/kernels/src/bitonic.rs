//! In-shared-memory bitonic sort (paper Table 4: `gridDim = 1`,
//! `blockDim = 512`).
//!
//! One thread per element; each compare-exchange step is guarded by
//! `partner > tid`, which deactivates half the lanes of every warp — the
//! heavy intra-warp underutilization the paper highlights for BitonicSort
//! (up to 77%, §2.2).

use crate::common::{check_exact, CheckError, SplitMix32};
use crate::suite::{Buffer, WorkloadSize};
use warped_isa::{CmpOp, CmpType, Kernel, KernelBuilder, KernelError, SpecialReg};
use warped_sim::LaunchConfig;

/// The BitonicSort workload: sorts `block_size` u32 keys per block
/// ascending.
#[derive(Debug)]
pub struct BitonicSort {
    blocks: u32,
    block_size: u32,
    input: Vec<u32>,
    kernel: Kernel,
}

impl BitonicSort {
    /// Build the workload.
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (blocks, block_size) = match size {
            WorkloadSize::Tiny => (1, 128),
            WorkloadSize::Small => (4, 512),
            WorkloadSize::Full => (60, 512),
        };
        let mut rng = SplitMix32::new(0xb170);
        let input: Vec<u32> = (0..blocks * block_size).map(|_| rng.next_u32()).collect();
        Ok(BitonicSort {
            blocks,
            block_size,
            input,
            kernel: Self::kernel(block_size)?,
        })
    }

    fn kernel(n: u32) -> Result<Kernel, KernelError> {
        let mut b = KernelBuilder::new("bitonicSort");
        let sh = b.alloc_shared(n as usize);
        let [tid, gid, v, ixj, addr, sh_t] = b.regs();
        b.mov(tid, SpecialReg::FlatTid);
        b.mov(gid, SpecialReg::GlobalTid);
        let inp = b.param(0);
        b.iadd(addr, inp, gid);
        b.ld_global(v, addr, 0);
        b.iadd(sh_t, tid, sh as i32);
        b.st_shared(sh_t, 0, v);
        b.bar();

        // Both sort loops have compile-time bounds; emit them unrolled as
        // nvcc does, so the issue stream carries the paper's heavy
        // intra-warp divergence rather than loop-control instructions.
        let mut kk = 2u32;
        while kk <= n {
            let mut jj = kk >> 1;
            while jj > 0 {
                b.xor(ixj, tid, jj);
                let gt = b.reg();
                b.setp(CmpOp::Gt, CmpType::U32, gt, ixj, tid);
                b.if_then(gt, |b| {
                    let [mine, theirs, dir, sh_o] = b.regs();
                    b.ld_shared(mine, sh_t, 0);
                    b.iadd(sh_o, ixj, sh as i32);
                    b.ld_shared(theirs, sh_o, 0);
                    // ascending iff (tid & k) == 0
                    b.and(dir, tid, kk);
                    let asc = b.reg();
                    b.setp(CmpOp::Eq, CmpType::U32, asc, dir, 0u32);
                    // swap if (asc && mine > theirs) || (!asc && mine < theirs)
                    let gt2 = b.reg();
                    b.setp(CmpOp::Gt, CmpType::U32, gt2, mine, theirs);
                    let lt2 = b.reg();
                    b.setp(CmpOp::Lt, CmpType::U32, lt2, mine, theirs);
                    let want = b.reg();
                    b.sel(want, asc, gt2, lt2);
                    b.if_then(want, |b| {
                        b.st_shared(sh_t, 0, theirs);
                        b.st_shared(sh_o, 0, mine);
                    });
                });
                b.bar();
                jj >>= 1;
            }
            kk <<= 1;
        }
        let out = b.param(1);
        let oaddr = b.reg();
        b.iadd(oaddr, out, gid);
        let r = b.reg();
        b.ld_shared(r, sh_t, 0);
        b.st_global(oaddr, 0, r);
        b.build()
    }

    /// CPU reference: each block's chunk sorted ascending.
    pub fn reference(&self) -> Vec<u32> {
        let bs = self.block_size as usize;
        let mut out = self.input.clone();
        for chunk in out.chunks_mut(bs) {
            chunk.sort_unstable();
        }
        out
    }
}

impl crate::suite::OneLaunch for BitonicSort {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn geometry(&self) -> LaunchConfig {
        LaunchConfig::linear(self.blocks, self.block_size)
    }

    fn inputs(&self) -> Vec<Buffer<'_>> {
        vec![self.input.as_slice().into()]
    }

    fn output_lens(&self) -> Vec<usize> {
        vec![self.input.len()]
    }

    fn check(&self, output: &[u32]) -> Result<(), CheckError> {
        check_exact(output, &self.reference())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;
    use warped_sim::{Gpu, GpuConfig, NullObserver};

    #[test]
    fn tiny_sort_matches_reference() {
        let w = BitonicSort::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
    }

    #[test]
    fn heavy_divergence_as_in_paper() {
        use warped_sim::collectors::ActiveThreadCollector;
        let w = BitonicSort::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = ActiveThreadCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        // The compare-exchange body always runs at half utilization.
        let partial: f64 = (0..4).map(|i| c.histogram().fraction(i)).sum();
        assert!(
            partial > 0.3,
            "bitonic sort should be heavily divergent, partial={partial}"
        );
    }

    #[test]
    fn output_is_sorted_property() {
        let w = BitonicSort::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        for chunk in run.output.chunks(128) {
            assert!(chunk.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
