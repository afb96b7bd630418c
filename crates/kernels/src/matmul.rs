//! Tiled dense matrix multiply (paper Table 4: `gridDim = 8×5`,
//! `blockDim = 16×16`).
//!
//! Classic shared-memory tiling: each 16×16 block stages one tile of A and
//! one tile of B in shared memory, then runs the fully unrolled inner
//! product — `LDS, LDS, FFMA` sixteen times per tile, the instruction
//! pattern of the SDK kernel. Warps are always fully utilized, so this
//! workload is covered entirely by *inter-warp* DMR — it is the paper's
//! worst case without a ReplayQ (>70% overhead, Fig. 9b) and the showcase
//! for the 10-entry queue.

use crate::common::{check_f32, to_bits, CheckError, SplitMix32};
use crate::suite::{Buffer, WorkloadSize};
use warped_isa::{Kernel, KernelBuilder, KernelError, SpecialReg};
use warped_sim::LaunchConfig;

const TILE: usize = 16;

/// The MatrixMul workload: `C = A × B` for square `n × n` f32 matrices.
#[derive(Debug)]
pub struct MatrixMul {
    n: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    kernel: Kernel,
}

impl MatrixMul {
    /// Build the workload: generate matrices and assemble the kernel.
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let n = match size {
            WorkloadSize::Tiny => 32,
            WorkloadSize::Small => 64,
            WorkloadSize::Full => 160,
        };
        let mut rng = SplitMix32::new(0x1001);
        let a: Vec<f32> = (0..n * n).map(|_| rng.unit_f32() - 0.5).collect();
        let b: Vec<f32> = (0..n * n).map(|_| rng.unit_f32() - 0.5).collect();
        Ok(MatrixMul {
            n,
            a,
            b,
            kernel: Self::kernel(n)?,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    fn kernel(n: usize) -> Result<Kernel, KernelError> {
        let mut bld = KernelBuilder::new("matrixMul");
        let sh_a = bld.alloc_shared(TILE * TILE);
        let sh_b = bld.alloc_shared(TILE * TILE);
        let [tx, ty, row, col, acc, t, addr, v, sh_idx] = bld.regs();

        bld.mov(tx, SpecialReg::TidX);
        bld.mov(ty, SpecialReg::TidY);
        let cy = bld.reg();
        bld.mov(cy, SpecialReg::CtaIdY);
        bld.imad(row, cy, TILE as u32, ty);
        let cx = bld.reg();
        bld.mov(cx, SpecialReg::CtaIdX);
        bld.imad(col, cx, TILE as u32, tx);
        bld.mov(acc, 0.0f32);
        // shared index of this thread within a tile: ty*16 + tx
        bld.imad(sh_idx, ty, TILE as u32, tx);

        let tiles = (n / TILE) as u32;
        let a_base = bld.param(0);
        let b_base = bld.param(1);
        bld.for_range(t, 0u32, tiles, 1, |bld, t| {
            // Stage A[row][t*16 + tx]
            let tmp = bld.reg();
            bld.imad(tmp, row, n as u32, a_base); // row*n + A
            bld.imad(addr, t, TILE as u32, tmp);
            bld.iadd(addr, addr, tx);
            bld.ld_global(v, addr, 0);
            let dst = bld.reg();
            bld.iadd(dst, sh_idx, sh_a as i32);
            bld.st_shared(dst, 0, v);
            // Stage B[t*16 + ty][col]
            let brow = bld.reg();
            bld.imad(brow, t, TILE as u32, ty);
            bld.imad(addr, brow, n as u32, b_base);
            bld.iadd(addr, addr, col);
            bld.ld_global(v, addr, 0);
            bld.iadd(dst, sh_idx, sh_b as i32);
            bld.st_shared(dst, 0, v);
            bld.bar();
            // Unrolled inner product: LDS, LDS, FFMA per k, as the SDK
            // kernel's sass interleaves them.
            let arow = bld.reg();
            bld.imad(arow, ty, TILE as u32, sh_a);
            let bcol = bld.reg();
            bld.iadd(bcol, tx, sh_b as i32);
            for k in 0..TILE {
                let [va, vb] = bld.regs();
                bld.ld_shared(va, arow, k as i32);
                bld.ld_shared(vb, bcol, (k * TILE) as i32);
                bld.ffma(acc, va, vb, acc);
            }
            bld.bar();
        });
        // C[row*n + col] = acc
        let c_base = bld.param(2);
        let out = bld.reg();
        bld.imad(out, row, n as u32, c_base);
        bld.iadd(out, out, col);
        bld.st_global(out, 0, acc);
        bld.build()
    }

    /// CPU reference with the kernel's exact accumulation order (FMA over
    /// ascending k), so results agree to rounding.
    pub fn reference(&self) -> Vec<f32> {
        let n = self.n;
        let mut c = vec![0.0f32; n * n];
        for row in 0..n {
            for col in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc = self.a[row * n + k].mul_add(self.b[k * n + col], acc);
                }
                c[row * n + col] = acc;
            }
        }
        c
    }
}

impl crate::suite::OneLaunch for MatrixMul {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn geometry(&self) -> LaunchConfig {
        let g = (self.n / TILE) as u32;
        LaunchConfig::grid2d((g, g), (TILE as u32, TILE as u32))
    }

    fn inputs(&self) -> Vec<Buffer<'_>> {
        vec![to_bits(&self.a).into(), to_bits(&self.b).into()]
    }

    fn output_lens(&self) -> Vec<usize> {
        vec![self.n * self.n]
    }

    fn check(&self, output: &[u32]) -> Result<(), CheckError> {
        check_f32(output, &self.reference(), 1e-5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;
    use warped_sim::{Gpu, GpuConfig, NullObserver};

    #[test]
    fn tiny_matmul_matches_reference() {
        let w = MatrixMul::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
        assert_eq!(run.launches, 1);
        assert!(run.stats.cycles > 0);
    }

    #[test]
    fn warps_are_fully_utilized() {
        use warped_sim::collectors::ActiveThreadCollector;
        let w = MatrixMul::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = ActiveThreadCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        assert!(
            c.full_warp_fraction() > 0.99,
            "matmul should run full warps, got {}",
            c.full_warp_fraction()
        );
    }

    #[test]
    fn footprint_scales_with_n() {
        let w = MatrixMul::new(WorkloadSize::Tiny).unwrap();
        assert_eq!(w.footprint().input_words, 2 * 32 * 32);
        assert_eq!(w.footprint().output_words, 32 * 32);
    }

    #[test]
    fn corrupted_output_fails_check() {
        let w = MatrixMul::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        run.output[7] ^= 1 << 30;
        assert!(w.check(&run).is_err());
    }
}
