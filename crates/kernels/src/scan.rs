//! Per-block exclusive prefix sum (paper Table 4 "Scan Array":
//! `gridDim = 10000`, `blockDim = 256`).
//!
//! The CUDA-SDK work-efficient (Blelloch) scan: an up-sweep and a
//! down-sweep over `2 × blockDim` elements in shared memory, each step
//! guarded by `tid < d` with `d` halving — so active thread counts walk
//! 128, 64, 32, ..., 1, producing the strongly graded partial-warp
//! activity of the paper's SCAN bar in Fig. 1.

use crate::common::{check_exact, CheckError, SplitMix32};
use crate::suite::{Buffer, WorkloadSize};
use warped_isa::{CmpOp, CmpType, Kernel, KernelBuilder, KernelError, Reg, SpecialReg};
use warped_sim::LaunchConfig;

/// The Scan workload: per-block exclusive prefix sums of u32 values
/// (wrapping addition) over `2 × block_size` elements per block.
#[derive(Debug)]
pub struct Scan {
    blocks: u32,
    block_size: u32,
    input: Vec<u32>,
    kernel: Kernel,
}

impl Scan {
    /// Build the workload.
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (blocks, block_size) = match size {
            WorkloadSize::Tiny => (2u32, 64u32),
            WorkloadSize::Small => (16, 256),
            WorkloadSize::Full => (120, 256),
        };
        let n_elems = 2 * blocks * block_size;
        let mut rng = SplitMix32::new(0x5ca7);
        let input: Vec<u32> = (0..n_elems).map(|_| rng.below(1000)).collect();
        Ok(Scan {
            blocks,
            block_size,
            input,
            kernel: Self::kernel(block_size)?,
        })
    }

    /// Elements scanned per block.
    fn elems_per_block(&self) -> u32 {
        2 * self.block_size
    }

    fn kernel(block_size: u32) -> Result<Kernel, KernelError> {
        let n = 2 * block_size; // elements per block
        let mut b = KernelBuilder::new("scan");
        let sh = b.alloc_shared(n as usize);
        let [tid, gbase] = b.regs();
        b.mov(tid, SpecialReg::FlatTid);
        let cta = b.reg();
        b.mov(cta, SpecialReg::CtaIdX);
        b.imul(gbase, cta, n);
        let inp = b.param(0);
        let out = b.param(1);

        // Each thread stages two elements.
        let stage = |b: &mut KernelBuilder, which: u32| {
            let [src, v, dst] = b.regs();
            b.iadd(src, gbase, tid);
            b.iadd(src, src, inp);
            b.ld_global(v, src, (which * block_size) as i32);
            b.iadd(dst, tid, (sh + which * block_size) as i32);
            b.st_shared(dst, 0, v);
        };
        stage(&mut b, 0);
        stage(&mut b, 1);
        b.bar();

        // Both sweeps have compile-time trip counts, so emit them fully
        // unrolled as nvcc does for the SDK scan (`#pragma unroll`): the
        // issue stream then carries the paper's graded divergence instead
        // of full-mask loop-control instructions.
        let compute_pair = |b: &mut KernelBuilder, offset: u32, tid: Reg| -> (Reg, Reg) {
            // ai = offset*(2*tid+1) - 1; bi = offset*(2*tid+2) - 1
            let [ai, bi, t2] = b.regs();
            b.shl(t2, tid, 1u32);
            let a1 = b.reg();
            b.iadd(a1, t2, 1u32);
            b.imul(a1, a1, offset);
            b.isub(ai, a1, 1u32);
            let b1 = b.reg();
            b.iadd(b1, t2, 2u32);
            b.imul(b1, b1, offset);
            b.isub(bi, b1, 1u32);
            (ai, bi)
        };

        // Up-sweep: for d = n/2; d > 0; d >>= 1 (offset doubles).
        let mut dd = block_size;
        let mut off = 1u32;
        while dd > 0 {
            let q = b.reg();
            b.setp(CmpOp::Lt, CmpType::U32, q, tid, dd);
            b.if_then(q, |b| {
                let (ai, bi) = compute_pair(b, off, tid);
                let [va, vb, aa, ab] = b.regs();
                b.iadd(aa, ai, sh as i32);
                b.ld_shared(va, aa, 0);
                b.iadd(ab, bi, sh as i32);
                b.ld_shared(vb, ab, 0);
                b.iadd(vb, vb, va);
                b.st_shared(ab, 0, vb);
            });
            b.bar();
            off <<= 1;
            dd >>= 1;
        }

        // Clear the last element (thread 0 only).
        let z = b.reg();
        b.setp(CmpOp::Eq, CmpType::U32, z, tid, 0u32);
        b.if_then(z, |b| {
            b.st_shared(sh + n - 1, 0, 0u32);
        });
        b.bar();

        // Down-sweep: for d = 1; d < n; d <<= 1 (offset halves).
        let mut dd = 1u32;
        while dd < n {
            off >>= 1;
            let q = b.reg();
            b.setp(CmpOp::Lt, CmpType::U32, q, tid, dd);
            b.if_then(q, |b| {
                let (ai, bi) = compute_pair(b, off, tid);
                let [va, vb, aa, ab] = b.regs();
                b.iadd(aa, ai, sh as i32);
                b.ld_shared(va, aa, 0);
                b.iadd(ab, bi, sh as i32);
                b.ld_shared(vb, ab, 0);
                // sh[ai] = sh[bi]; sh[bi] += old sh[ai]
                b.st_shared(aa, 0, vb);
                b.iadd(vb, vb, va);
                b.st_shared(ab, 0, vb);
            });
            b.bar();
            dd <<= 1;
        }

        // Write back both elements.
        let unstage = |b: &mut KernelBuilder, which: u32| {
            let [src, v, dst] = b.regs();
            b.iadd(src, tid, (sh + which * block_size) as i32);
            b.ld_shared(v, src, 0);
            b.iadd(dst, gbase, tid);
            b.iadd(dst, dst, out);
            b.st_global(dst, (which * block_size) as i32, v);
        };
        unstage(&mut b, 0);
        unstage(&mut b, 1);
        b.build()
    }

    /// CPU reference: per-block wrapping *exclusive* prefix sum.
    pub fn reference(&self) -> Vec<u32> {
        let n = self.elems_per_block() as usize;
        let mut out = Vec::with_capacity(self.input.len());
        for chunk in self.input.chunks(n) {
            let mut acc = 0u32;
            for &x in chunk {
                out.push(acc);
                acc = acc.wrapping_add(x);
            }
        }
        out
    }
}

impl crate::suite::OneLaunch for Scan {
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
    fn tiny_scan_matches_reference() {
        let w = Scan::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
    }

    #[test]
    fn scan_has_strong_partial_warp_activity() {
        use warped_sim::collectors::ActiveThreadCollector;
        let w = Scan::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = ActiveThreadCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        // The halving guards must produce plenty of partial warps.
        let partial: f64 = (0..4).map(|i| c.histogram().fraction(i)).sum();
        assert!(
            partial > 0.25,
            "Blelloch scan should be divergence-rich, got {partial}"
        );
    }

    #[test]
    fn reference_is_exclusive_and_per_block() {
        let w = Scan::new(WorkloadSize::Tiny).unwrap();
        let r = w.reference();
        assert_eq!(r[0], 0);
        let n = w.elems_per_block() as usize;
        assert_eq!(r[n], 0, "second block restarts");
        assert_eq!(r[1], w.input[0]);
    }
}
