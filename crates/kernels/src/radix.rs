//! Per-block LSD radix sort (paper Table 4: `-n=4194304 -keysonly`).
//!
//! Sorts 16-bit keys with 16 stable 1-bit split passes. Each pass builds
//! a flag array, scans it (Hillis–Steele in shared memory), and scatters —
//! a barrier-heavy mix of SP and LD/ST work with the shrinking-stride
//! divergence of the embedded scan.

use crate::common::{check_exact, CheckError, SplitMix32};
use crate::suite::{Buffer, WorkloadSize};
use warped_isa::{CmpOp, CmpType, Kernel, KernelBuilder, KernelError, Reg, SpecialReg};
use warped_sim::LaunchConfig;

const KEY_BITS: u32 = 16;

/// The RadixSort workload: per-block ascending sort of 16-bit keys.
#[derive(Debug)]
pub struct RadixSort {
    blocks: u32,
    block_size: u32,
    input: Vec<u32>,
    kernel: Kernel,
}

impl RadixSort {
    /// Build the workload.
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (blocks, block_size) = match size {
            WorkloadSize::Tiny => (1u32, 64u32),
            WorkloadSize::Small => (8, 256),
            WorkloadSize::Full => (60, 256),
        };
        let mut rng = SplitMix32::new(0x4ad1);
        let input: Vec<u32> = (0..blocks * block_size)
            .map(|_| rng.next_u32() & 0xffff)
            .collect();
        Ok(RadixSort {
            blocks,
            block_size,
            input,
            kernel: Self::kernel(block_size)?,
        })
    }

    /// Emit an in-place inclusive Hillis–Steele scan over `sh[0..n]`,
    /// leaving each thread's inclusive sum in `incl`.
    fn emit_scan(b: &mut KernelBuilder, sh_base: u32, n: u32, tid: Reg, incl: Reg) {
        let sh_t = b.reg();
        b.iadd(sh_t, tid, sh_base as i32);
        let d = b.reg();
        let p = b.reg();
        b.mov(d, 1u32);
        b.while_loop(
            |b| {
                b.setp(CmpOp::Lt, CmpType::U32, p, d, n);
                p
            },
            |b| {
                let q = b.reg();
                b.setp(CmpOp::Ge, CmpType::U32, q, tid, d);
                let t = b.reg();
                b.mov(t, 0u32);
                b.if_then(q, |b| {
                    let o = b.reg();
                    b.isub(o, sh_t, d);
                    b.ld_shared(t, o, 0);
                });
                b.bar();
                b.if_then(q, |b| {
                    let cur = b.reg();
                    b.ld_shared(cur, sh_t, 0);
                    b.iadd(cur, cur, t);
                    b.st_shared(sh_t, 0, cur);
                });
                b.bar();
                b.shl(d, d, 1u32);
            },
        );
        b.ld_shared(incl, sh_t, 0);
    }

    fn kernel(n: u32) -> Result<Kernel, KernelError> {
        let mut b = KernelBuilder::new("radixSort");
        let sh_keys = b.alloc_shared(n as usize);
        let sh_scan = b.alloc_shared(n as usize);
        let [tid, gid, key, addr, sh_t, bit, pass] = b.regs();
        b.mov(tid, SpecialReg::FlatTid);
        b.mov(gid, SpecialReg::GlobalTid);
        let (inp, out) = (b.param(0), b.param(1));
        b.iadd(addr, inp, gid);
        b.ld_global(key, addr, 0);
        b.iadd(sh_t, tid, sh_keys as i32);
        b.st_shared(sh_t, 0, key);
        b.bar();

        b.for_range(pass, 0u32, KEY_BITS, 1, |b, pass| {
            // flag = 1 - bit(pass) of my key
            b.ld_shared(key, sh_t, 0);
            b.shr(bit, key, pass);
            b.and(bit, bit, 1u32);
            let notbit = b.reg();
            b.xor(notbit, bit, 1u32);
            let scan_t = b.reg();
            b.iadd(scan_t, tid, sh_scan as i32);
            b.st_shared(scan_t, 0, notbit);
            b.bar();
            let incl = b.reg();
            Self::emit_scan(b, sh_scan, n, tid, incl);
            b.bar();
            // total zeros = inclusive sum at last thread
            let tz = b.reg();
            b.ld_shared(tz, sh_scan + n - 1, 0);
            // excl = incl - notbit
            let excl = b.reg();
            b.isub(excl, incl, notbit);
            // pos = bit==0 ? excl : tz + tid - excl
            let ones_pos = b.reg();
            b.isub(ones_pos, tid, excl);
            b.iadd(ones_pos, ones_pos, tz);
            let pos = b.reg();
            b.sel(pos, bit, ones_pos, excl);
            b.bar();
            let dst = b.reg();
            b.iadd(dst, pos, sh_keys as i32);
            b.st_shared(dst, 0, key);
            b.bar();
        });

        let oaddr = b.reg();
        b.iadd(oaddr, out, gid);
        let r = b.reg();
        b.ld_shared(r, sh_t, 0);
        b.st_global(oaddr, 0, r);
        b.build()
    }

    /// CPU reference: per-block sorted chunks.
    pub fn reference(&self) -> Vec<u32> {
        let bs = self.block_size as usize;
        let mut out = self.input.clone();
        for chunk in out.chunks_mut(bs) {
            chunk.sort_unstable();
        }
        out
    }
}

impl crate::suite::OneLaunch for RadixSort {
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
    fn tiny_radix_matches_reference() {
        let w = RadixSort::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
    }

    #[test]
    fn keys_are_16_bit() {
        let w = RadixSort::new(WorkloadSize::Tiny).unwrap();
        assert!(w.input.iter().all(|&k| k <= 0xffff));
    }

    #[test]
    fn radix_mixes_units_with_barriers() {
        use warped_sim::collectors::UnitTypeCollector;
        let w = RadixSort::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = UnitTypeCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        assert!(c.fraction(warped_isa::UnitType::LdSt) > 0.1);
        assert!(c.fraction(warped_isa::UnitType::Sp) > 0.4);
    }
}
