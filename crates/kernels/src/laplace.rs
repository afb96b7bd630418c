//! Jacobi relaxation for the 2-D Laplace equation (paper Table 4:
//! `gridDim = 25×4`, `blockDim = 32×4`).
//!
//! Ping-pong 5-point stencil: interior points average their four
//! neighbours; boundary points carry Dirichlet values. The interior guard
//! deactivates edge lanes, giving the mild divergence and the SP/LD-ST mix
//! the paper reports for Laplace.

use crate::common::{check_f32, to_bits, CheckError, Footprint, SplitMix32};
use crate::suite::{Program, ProgramRun, WorkloadSize};
use warped_isa::{CmpOp, CmpType, Kernel, KernelBuilder, KernelError, SpecialReg};
use warped_sim::{Gpu, IssueObserver, LaunchConfig, SimError};

/// The Laplace workload: `iters` Jacobi sweeps over a `w × h` grid.
#[derive(Debug)]
pub struct Laplace {
    width: u32,
    height: u32,
    iters: u32,
    input: Vec<f32>,
    kernel: Kernel,
}

impl Laplace {
    /// Build the workload.
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (width, height, iters) = match size {
            WorkloadSize::Tiny => (32u32, 8u32, 2u32),
            WorkloadSize::Small => (128, 32, 4),
            WorkloadSize::Full => (320, 64, 6),
        };
        let mut rng = SplitMix32::new(0x1a91);
        let input: Vec<f32> = (0..width * height).map(|_| rng.unit_f32()).collect();
        Ok(Laplace {
            width,
            height,
            iters,
            input,
            kernel: Self::kernel(width)?,
        })
    }

    fn kernel(width: u32) -> Result<Kernel, KernelError> {
        let mut b = KernelBuilder::new("laplace");
        let [x, y, idx, p, q] = b.regs();
        let (inp, out, h) = (b.param(0), b.param(1), b.param(2));
        let bx = b.reg();
        b.mov(bx, SpecialReg::CtaIdX);
        let tx = b.reg();
        b.mov(tx, SpecialReg::TidX);
        b.imad(x, bx, 32u32, tx);
        let by = b.reg();
        b.mov(by, SpecialReg::CtaIdY);
        let ty = b.reg();
        b.mov(ty, SpecialReg::TidY);
        b.imad(y, by, 4u32, ty);
        b.imad(idx, y, width, x);

        // interior = x>0 && x<w-1 && y>0 && y<h-1
        b.setp(CmpOp::Gt, CmpType::U32, p, x, 0u32);
        b.setp(CmpOp::Lt, CmpType::U32, q, x, width - 1);
        b.and(p, p, q);
        b.setp(CmpOp::Gt, CmpType::U32, q, y, 0u32);
        b.and(p, p, q);
        let hm1 = b.reg();
        b.isub(hm1, h, 1u32);
        b.setp(CmpOp::Lt, CmpType::U32, q, y, hm1);
        b.and(p, p, q);

        let src = b.reg();
        b.iadd(src, inp, idx);
        let dst = b.reg();
        b.iadd(dst, out, idx);
        b.if_then_else(
            p,
            |b| {
                let [n, s, e, w2, acc] = b.regs();
                b.ld_global(n, src, -(width as i32));
                b.ld_global(s, src, width as i32);
                b.ld_global(e, src, 1);
                b.ld_global(w2, src, -1);
                b.fadd(acc, n, s);
                b.fadd(acc, acc, e);
                b.fadd(acc, acc, w2);
                b.fmul(acc, acc, 0.25f32);
                b.st_global(dst, 0, acc);
            },
            |b| {
                // Boundary: copy through.
                let v = b.reg();
                b.ld_global(v, src, 0);
                b.st_global(dst, 0, v);
            },
        );
        b.build()
    }

    /// CPU reference: the same ping-pong Jacobi sweeps, matching the
    /// kernel's accumulation order.
    pub fn reference(&self) -> Vec<f32> {
        let (w, h) = (self.width as usize, self.height as usize);
        let mut cur = self.input.clone();
        let mut next = vec![0.0f32; w * h];
        for _ in 0..self.iters {
            for y in 0..h {
                for x in 0..w {
                    let idx = y * w + x;
                    next[idx] = if x > 0 && x < w - 1 && y > 0 && y < h - 1 {
                        ((cur[idx - w] + cur[idx + w]) + cur[idx + 1] + cur[idx - 1]) * 0.25
                    } else {
                        cur[idx]
                    };
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }
}

impl Program for Laplace {
    fn execute(
        &self,
        gpu: &mut Gpu,
        observer: &mut dyn IssueObserver,
    ) -> Result<ProgramRun, SimError> {
        let n = self.input.len();
        let a = gpu.alloc_words(n);
        let bbuf = gpu.alloc_words(n);
        gpu.write_words(a, &to_bits(&self.input));
        let grid = (self.width / 32, self.height / 4);
        let mut run = ProgramRun::default();
        let mut bufs = (a, bbuf);
        for _ in 0..self.iters {
            let launch =
                LaunchConfig::grid2d(grid, (32, 4)).with_params(vec![bufs.0, bufs.1, self.height]);
            let stats = gpu.launch(&self.kernel, &launch, observer)?;
            run.absorb(&stats);
            bufs = (bufs.1, bufs.0);
        }
        run.output = gpu.read_words(bufs.0, n);
        Ok(run)
    }

    fn check(&self, run: &ProgramRun) -> Result<(), CheckError> {
        check_f32(&run.output, &self.reference(), 1e-5)
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn block_threads(&self) -> u32 {
        32 * 4
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            input_words: self.input.len() as u64,
            output_words: self.input.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_sim::{GpuConfig, NullObserver};

    #[test]
    fn tiny_laplace_matches_reference() {
        let w = Laplace::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
        assert_eq!(run.launches, 2);
    }

    #[test]
    fn boundary_values_are_preserved() {
        let w = Laplace::new(WorkloadSize::Tiny).unwrap();
        let r = w.reference();
        assert_eq!(r[0], w.input[0]);
        let last = w.input.len() - 1;
        assert_eq!(r[last], w.input[last]);
    }

    #[test]
    fn interior_smooths_toward_neighbors() {
        let w = Laplace::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        // Output length intact and finite everywhere.
        assert_eq!(run.output.len(), w.input.len());
        assert!(run.output.iter().all(|v| f32::from_bits(*v).is_finite()));
    }
}
