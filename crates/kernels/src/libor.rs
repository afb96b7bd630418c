//! LIBOR market-model Monte Carlo (paper Table 4: `gridDim = 64`,
//! `blockDim = 64`).
//!
//! Each thread evolves one interest-rate path with a geometric step driven
//! by a hashed pseudo-random shock and accumulates a discounted call-style
//! payoff. The `exp2` per step keeps the SFU busy, while the hash and
//! accumulation run on SPs — the alternating unit mix that inter-warp DMR
//! co-executes nearly for free (paper Fig. 4). Warps are always full.

use crate::common::{check_f32, device_hash, CheckError};
use crate::suite::{Buffer, WorkloadSize};
use warped_isa::{Kernel, KernelBuilder, KernelError, Reg, SpecialReg};
use warped_sim::LaunchConfig;

const VOL: f32 = 0.2;
const STRIKE: f32 = 1.0;
const DISCOUNT: f32 = 0.97;
const U_SCALE: f32 = 1.0 / (1 << 24) as f32;

/// The Libor workload: per-thread Monte Carlo paths.
#[derive(Debug)]
pub struct Libor {
    blocks: u32,
    block_size: u32,
    steps: u32,
    kernel: Kernel,
}

impl Libor {
    /// Build the workload.
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (blocks, block_size, steps) = match size {
            WorkloadSize::Tiny => (1u32, 32u32, 8u32),
            WorkloadSize::Small => (8, 64, 20),
            WorkloadSize::Full => (64, 64, 40),
        };
        Ok(Libor {
            blocks,
            block_size,
            steps,
            kernel: Self::kernel(steps)?,
        })
    }

    /// Emit the device hash (must mirror
    /// [`device_hash`](crate::common::device_hash)).
    fn emit_hash(b: &mut KernelBuilder, dst: Reg, src: Reg) {
        let t = b.reg();
        b.shr(t, src, 16u32);
        b.xor(dst, src, t);
        b.imul(dst, dst, 0x7feb_352du32);
        b.shr(t, dst, 15u32);
        b.xor(dst, dst, t);
        b.imul(dst, dst, 0x846c_a68bu32);
        b.shr(t, dst, 16u32);
        b.xor(dst, dst, t);
    }

    fn kernel(steps: u32) -> Result<Kernel, KernelError> {
        let mut b = KernelBuilder::new("libor");
        let [tid, x, acc, disc, s] = b.regs();
        b.mov(tid, SpecialReg::GlobalTid);
        // x = 1.0 + 0.001 * (tid % 64)
        let m = b.reg();
        b.and(m, tid, 63u32);
        let mf = b.reg();
        b.cvt_u2f(mf, m);
        b.fmul(mf, mf, 0.001f32);
        b.fadd(x, mf, 1.0f32);
        b.mov(acc, 0.0f32);
        b.mov(disc, 1.0f32);
        b.for_range(s, 0u32, steps, 1, |b, s| {
            // seed = tid * steps + s, hashed to a uniform in [0,1)
            let seed = b.reg();
            b.imad(seed, tid, steps, s);
            let h = b.reg();
            Self::emit_hash(b, h, seed);
            let u = b.reg();
            b.shr(u, h, 8u32);
            b.cvt_u2f(u, u);
            b.fmul(u, u, U_SCALE);
            // z = u - 0.5; exponent = z*vol - 0.5*vol^2
            let z = b.reg();
            b.fsub(z, u, 0.5f32);
            let ex = b.reg();
            b.fmul(ex, z, VOL);
            b.fsub(ex, ex, 0.5 * VOL * VOL);
            let g = b.reg();
            b.ex2(g, ex); // SFU
            b.fmul(x, x, g);
            // payoff += disc * max(x - strike, 0)
            let pay = b.reg();
            b.fsub(pay, x, STRIKE);
            b.fmax(pay, pay, 0.0f32);
            b.ffma(acc, disc, pay, acc);
            b.fmul(disc, disc, DISCOUNT);
        });
        let out = b.param(0);
        let addr = b.reg();
        b.iadd(addr, out, tid);
        b.st_global(addr, 0, acc);
        b.build()
    }

    /// CPU reference: identical path arithmetic per thread.
    pub fn reference(&self) -> Vec<f32> {
        let threads = self.blocks * self.block_size;
        (0..threads)
            .map(|tid| {
                let mut x = 1.0f32 + 0.001 * (tid & 63) as f32;
                let mut acc = 0.0f32;
                let mut disc = 1.0f32;
                for s in 0..self.steps {
                    let h = device_hash(tid.wrapping_mul(self.steps).wrapping_add(s));
                    let u = (h >> 8) as f32 * U_SCALE;
                    let z = u - 0.5;
                    let ex = z * VOL - 0.5 * VOL * VOL;
                    x *= ex.exp2();
                    let pay = (x - STRIKE).max(0.0);
                    acc = disc.mul_add(pay, acc);
                    disc *= DISCOUNT;
                }
                acc
            })
            .collect()
    }
}

impl crate::suite::OneLaunch for Libor {
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
        check_f32(output, &self.reference(), 1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;
    use warped_sim::{Gpu, GpuConfig, NullObserver};

    #[test]
    fn tiny_libor_matches_reference() {
        let w = Libor::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
    }

    #[test]
    fn libor_uses_the_sfu_every_step() {
        use warped_sim::collectors::UnitTypeCollector;
        let w = Libor::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = UnitTypeCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        assert!(c.count(warped_isa::UnitType::Sfu) >= 8);
        assert!(c.fraction(warped_isa::UnitType::Sfu) > 0.02);
    }

    #[test]
    fn payoffs_are_nonnegative() {
        let w = Libor::new(WorkloadSize::Tiny).unwrap();
        for p in w.reference() {
            assert!(p >= 0.0);
        }
    }
}
