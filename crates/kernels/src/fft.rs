//! Radix-2 Cooley–Tukey FFT in shared memory (paper Table 4 "FFT/CUFFT":
//! `gridDim = 32`, `blockDim = 25`).
//!
//! Like the paper's CUFFT configuration, the block size is deliberately
//! *not* a multiple of the warp size: the trailing warp runs at 24/32
//! lanes, so most underutilized warps sit above 70% utilization — the
//! regime where intra-warp DMR can verify only a minority of active lanes,
//! making CUFFT the paper's lowest-coverage benchmark (Fig. 9a).
//! Twiddle factors are computed on the SFU (`sin`/`cos`/`rcp`) every
//! butterfly, mixing unit types heavily.

use crate::common::{check_f32, to_bits, CheckError, SplitMix32};
use crate::suite::{Buffer, WorkloadSize};
use warped_isa::{CmpOp, CmpType, Kernel, KernelBuilder, KernelError, Reg, SpecialReg};
use warped_sim::LaunchConfig;

/// The FFT workload: one `n`-point complex FFT per block.
#[derive(Debug)]
pub struct Fft {
    blocks: u32,
    block_size: u32,
    n: u32,
    re: Vec<f32>,
    im: Vec<f32>,
    kernel: Kernel,
}

impl Fft {
    /// Build the workload.
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (blocks, block_size, n) = match size {
            WorkloadSize::Tiny => (1u32, 24u32, 64u32),
            WorkloadSize::Small => (8, 56, 128),
            WorkloadSize::Full => (60, 56, 128),
        };
        let mut rng = SplitMix32::new(0xff7);
        let total = (blocks * n) as usize;
        let re: Vec<f32> = (0..total).map(|_| rng.unit_f32() - 0.5).collect();
        let im: Vec<f32> = (0..total).map(|_| rng.unit_f32() - 0.5).collect();
        Ok(Fft {
            blocks,
            block_size,
            n,
            re,
            im,
            kernel: Self::kernel(n, block_size)?,
        })
    }

    /// Emit `dst = bit_reverse(src)` over `bits` bits.
    fn emit_bitrev(b: &mut KernelBuilder, dst: Reg, src: Reg, bits: u32) {
        let x = b.reg();
        b.mov(x, src);
        b.mov(dst, 0u32);
        for i in 0..bits {
            let bit = b.reg();
            b.and(bit, x, 1u32);
            b.shl(dst, dst, 1u32);
            b.or(dst, dst, bit);
            // The shifted-out value only feeds the next iteration.
            if i + 1 < bits {
                b.shr(x, x, 1u32);
            }
        }
    }

    fn kernel(n: u32, nthreads: u32) -> Result<Kernel, KernelError> {
        let bits = n.trailing_zeros();
        let mut b = KernelBuilder::new("fft");
        let sh_re = b.alloc_shared(n as usize);
        let sh_im = b.alloc_shared(n as usize);
        let [tid, base, i, p] = b.regs();
        b.mov(tid, SpecialReg::FlatTid);
        let cta = b.reg();
        b.mov(cta, SpecialReg::CtaIdX);
        b.imul(base, cta, n);
        let (in_re, in_im, out_re, out_im) = (b.param(0), b.param(1), b.param(2), b.param(3));

        // Bit-reversed load: sh[i] = in[base + rev(i)].
        b.mov(i, tid);
        b.while_loop(
            |b| {
                b.setp(CmpOp::Lt, CmpType::U32, p, i, n);
                p
            },
            |b| {
                let rev = b.reg();
                Self::emit_bitrev(b, rev, i, bits);
                let src = b.reg();
                b.iadd(src, base, rev);
                let [vre, vim, a1, a2] = b.regs();
                b.iadd(a1, src, in_re);
                b.ld_global(vre, a1, 0);
                b.iadd(a2, src, in_im);
                b.ld_global(vim, a2, 0);
                let d1 = b.reg();
                b.iadd(d1, i, sh_re as i32);
                b.st_shared(d1, 0, vre);
                let d2 = b.reg();
                b.iadd(d2, i, sh_im as i32);
                b.st_shared(d2, 0, vim);
                b.iadd(i, i, nthreads);
            },
        );
        b.bar();

        // Butterfly stages.
        let [half, ps, j, pj] = b.regs();
        b.mov(half, 1u32);
        b.while_loop(
            |b| {
                b.setp(CmpOp::Lt, CmpType::U32, ps, half, n);
                ps
            },
            |b| {
                // scale = -2*pi / (2*half), via SFU rcp
                let [mf, inv, scale] = b.regs();
                b.shl(mf, half, 1u32);
                b.cvt_u2f(mf, mf);
                b.rcp(inv, mf);
                b.fmul(scale, inv, -std::f32::consts::TAU);
                b.mov(j, tid);
                b.while_loop(
                    |b| {
                        b.setp(CmpOp::Lt, CmpType::U32, pj, j, n / 2);
                        pj
                    },
                    |b| {
                        let [t, k, idx1, idx2] = b.regs();
                        b.urem(t, j, half);
                        b.isub(k, j, t);
                        b.shl(k, k, 1u32);
                        b.iadd(idx1, k, t);
                        b.iadd(idx2, idx1, half);
                        // twiddle = (cos, sin)(t * scale)
                        let [tf, ang, c, s] = b.regs();
                        b.cvt_u2f(tf, t);
                        b.fmul(ang, tf, scale);
                        b.cos(c, ang);
                        b.sin(s, ang);
                        // Load u = x[idx1], v = x[idx2].
                        let [ure, uim, vre, vim, a] = b.regs();
                        b.iadd(a, idx1, sh_re as i32);
                        b.ld_shared(ure, a, 0);
                        b.iadd(a, idx1, sh_im as i32);
                        b.ld_shared(uim, a, 0);
                        b.iadd(a, idx2, sh_re as i32);
                        b.ld_shared(vre, a, 0);
                        b.iadd(a, idx2, sh_im as i32);
                        b.ld_shared(vim, a, 0);
                        // wv = w * v (complex).
                        let [wre, wim, tmp] = b.regs();
                        b.fmul(wre, c, vre);
                        b.fmul(tmp, s, vim);
                        b.fsub(wre, wre, tmp);
                        b.fmul(wim, c, vim);
                        b.fmul(tmp, s, vre);
                        b.fadd(wim, wim, tmp);
                        // x[idx1] = u + wv ; x[idx2] = u - wv
                        let r = b.reg();
                        b.fadd(r, ure, wre);
                        b.iadd(a, idx1, sh_re as i32);
                        b.st_shared(a, 0, r);
                        b.fadd(r, uim, wim);
                        b.iadd(a, idx1, sh_im as i32);
                        b.st_shared(a, 0, r);
                        b.fsub(r, ure, wre);
                        b.iadd(a, idx2, sh_re as i32);
                        b.st_shared(a, 0, r);
                        b.fsub(r, uim, wim);
                        b.iadd(a, idx2, sh_im as i32);
                        b.st_shared(a, 0, r);
                        b.iadd(j, j, nthreads);
                    },
                );
                b.bar();
                b.shl(half, half, 1u32);
            },
        );

        // Store results.
        b.mov(i, tid);
        b.while_loop(
            |b| {
                b.setp(CmpOp::Lt, CmpType::U32, p, i, n);
                p
            },
            |b| {
                let [v, a, o] = b.regs();
                b.iadd(a, i, sh_re as i32);
                b.ld_shared(v, a, 0);
                b.iadd(o, base, i);
                b.iadd(o, o, out_re);
                b.st_global(o, 0, v);
                b.iadd(a, i, sh_im as i32);
                b.ld_shared(v, a, 0);
                b.iadd(o, base, i);
                b.iadd(o, o, out_im);
                b.st_global(o, 0, v);
                b.iadd(i, i, nthreads);
            },
        );
        b.build()
    }

    /// CPU reference: direct O(n²) DFT per block in f64.
    pub fn reference(&self) -> (Vec<f32>, Vec<f32>) {
        let n = self.n as usize;
        let mut out_re = Vec::with_capacity(self.re.len());
        let mut out_im = Vec::with_capacity(self.im.len());
        for blk in 0..self.blocks as usize {
            let base = blk * n;
            for k in 0..n {
                let (mut sr, mut si) = (0.0f64, 0.0f64);
                for (j, (r, i)) in self.re[base..base + n]
                    .iter()
                    .zip(&self.im[base..base + n])
                    .enumerate()
                {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    let (s, c) = ang.sin_cos();
                    sr += *r as f64 * c - *i as f64 * s;
                    si += *r as f64 * s + *i as f64 * c;
                }
                out_re.push(sr as f32);
                out_im.push(si as f32);
            }
        }
        (out_re, out_im)
    }
}

impl crate::suite::OneLaunch for Fft {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn geometry(&self) -> LaunchConfig {
        LaunchConfig::linear(self.blocks, self.block_size)
    }

    fn inputs(&self) -> Vec<Buffer<'_>> {
        vec![to_bits(&self.re).into(), to_bits(&self.im).into()]
    }

    fn output_lens(&self) -> Vec<usize> {
        vec![self.re.len(), self.im.len()]
    }

    fn check(&self, output: &[u32]) -> Result<(), CheckError> {
        let (ref_re, ref_im) = self.reference();
        let total = ref_re.len();
        if output.len() != 2 * total {
            return Err(CheckError::WrongLength {
                got: output.len(),
                expected: 2 * total,
            });
        }
        // FFT accumulates rounding over log2(n) stages; allow a loose but
        // meaningful tolerance relative to the signal magnitude.
        check_f32(&output[..total], &ref_re, 2e-3)?;
        check_f32(&output[total..], &ref_im, 2e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;
    use warped_sim::{Gpu, GpuConfig, NullObserver};

    #[test]
    fn tiny_fft_matches_dft_reference() {
        let w = Fft::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
    }

    #[test]
    fn fft_runs_high_but_partial_utilization() {
        use warped_sim::collectors::ActiveThreadCollector;
        let w = Fft::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = ActiveThreadCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        // blockDim 24: the single warp runs at 22-31 active lanes mostly.
        assert!(
            c.histogram().fraction(3) > 0.5,
            "CUFFT should live in the 22-31 bucket"
        );
    }

    #[test]
    fn fft_uses_sfu_for_twiddles() {
        use warped_sim::collectors::UnitTypeCollector;
        let w = Fft::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = UnitTypeCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        // 6 stages x (1 rcp + ~2 sin/cos warp-instructions per j-iteration).
        assert!(c.count(warped_isa::UnitType::Sfu) >= 24);
    }
}
