//! SHA-1 over independent 512-bit chunks (paper Table 4: direct mode,
//! `blockDim = 64`).
//!
//! Each thread runs the full 80-round SHA-1 compression on its own chunk.
//! As nvcc of the paper's era did (arrays index-dependently accessed live
//! in local memory), the 16-word message-schedule window stays in
//! (shared) memory: every round mixes a burst of integer SP work with a
//! few LD/ST accesses, giving SHA the longest — but bounded —
//! instruction-type switching distances of the suite (paper Fig. 8a),
//! which is exactly what stresses the ReplayQ.

use crate::common::{check_exact, CheckError, SplitMix32};
use crate::suite::{Buffer, WorkloadSize};
use warped_isa::{Kernel, KernelBuilder, KernelError, Reg, SpecialReg};
use warped_sim::LaunchConfig;

const IV: [u32; 5] = [
    0x6745_2301,
    0xefcd_ab89,
    0x98ba_dcfe,
    0x1032_5476,
    0xc3d2_e1f0,
];
const K: [u32; 4] = [0x5a82_7999, 0x6ed9_eba1, 0x8f1b_bcdc, 0xca62_c1d6];

/// The SHA workload: SHA-1 compression of one 16-word chunk per thread.
#[derive(Debug)]
pub struct Sha {
    blocks: u32,
    block_size: u32,
    input: Vec<u32>,
    kernel: Kernel,
}

impl Sha {
    /// Build the workload.
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (blocks, block_size) = match size {
            WorkloadSize::Tiny => (1u32, 32u32),
            WorkloadSize::Small => (8, 64),
            WorkloadSize::Full => (60, 64),
        };
        let chunks = blocks * block_size;
        let mut rng = SplitMix32::new(0x54a1);
        let input: Vec<u32> = (0..chunks * 16).map(|_| rng.next_u32()).collect();
        Ok(Sha {
            blocks,
            block_size,
            input,
            kernel: Self::kernel(block_size)?,
        })
    }

    /// Emit `dst = rotl(src, n)` (3 instructions).
    fn rotl(b: &mut KernelBuilder, dst: Reg, src: Reg, n: u32) {
        let t = b.reg();
        b.shl(t, src, n);
        let u = b.reg();
        b.shr(u, src, 32 - n);
        b.or(dst, t, u);
    }

    fn kernel(block_size: u32) -> Result<Kernel, KernelError> {
        let mut b = KernelBuilder::new("sha1");
        // Per-thread 16-word message-schedule window in shared memory
        // (nvcc 2.3 would place the W[] array in local memory).
        let sh = b.alloc_shared((block_size * 16) as usize);
        let [tid, base, wbase] = b.regs();
        b.mov(tid, SpecialReg::GlobalTid);
        let inp = b.param(0);
        b.imad(base, tid, 16u32, inp);
        let ltid = b.reg();
        b.mov(ltid, SpecialReg::FlatTid);
        b.imad(wbase, ltid, 16u32, sh as i32);
        for i in 0..16 {
            let v = b.reg();
            b.ld_global(v, base, i);
            b.st_shared(wbase, i, v);
        }
        let mut a = b.reg();
        let mut bb = b.reg();
        let mut c = b.reg();
        let mut d = b.reg();
        let mut e = b.reg();
        b.mov(a, IV[0]);
        b.mov(bb, IV[1]);
        b.mov(c, IV[2]);
        b.mov(d, IV[3]);
        b.mov(e, IV[4]);

        for t in 0..80usize {
            let wt = b.reg();
            if t >= 16 {
                // W[t&15] = rotl1(W[(t-3)&15] ^ W[(t-8)&15] ^ W[(t-14)&15] ^ W[t&15])
                let [x, y] = b.regs();
                b.ld_shared(x, wbase, ((t - 3) & 15) as i32);
                b.ld_shared(y, wbase, ((t - 8) & 15) as i32);
                b.xor(x, x, y);
                b.ld_shared(y, wbase, ((t - 14) & 15) as i32);
                b.xor(x, x, y);
                b.ld_shared(y, wbase, (t & 15) as i32);
                b.xor(x, x, y);
                Self::rotl(&mut b, wt, x, 1);
                b.st_shared(wbase, (t & 15) as i32, wt);
            } else {
                b.ld_shared(wt, wbase, (t & 15) as i32);
            }
            let f = b.reg();
            match t / 20 {
                0 => {
                    // (b & c) | (!b & d)
                    let nb = b.reg();
                    b.and(f, bb, c);
                    b.not(nb, bb);
                    b.and(nb, nb, d);
                    b.or(f, f, nb);
                }
                1 | 3 => {
                    b.xor(f, bb, c);
                    b.xor(f, f, d);
                }
                _ => {
                    // (b&c) | (b&d) | (c&d)
                    let t1 = b.reg();
                    let t2 = b.reg();
                    b.and(f, bb, c);
                    b.and(t1, bb, d);
                    b.and(t2, c, d);
                    b.or(f, f, t1);
                    b.or(f, f, t2);
                }
            }
            let tmp = b.reg();
            Self::rotl(&mut b, tmp, a, 5);
            b.iadd(tmp, tmp, f);
            b.iadd(tmp, tmp, e);
            b.iadd(tmp, tmp, K[t / 20]);
            b.iadd(tmp, tmp, wt);
            let c_new = b.reg();
            Self::rotl(&mut b, c_new, bb, 30);
            // Rotate the working variables by renaming.
            e = d;
            d = c;
            c = c_new;
            bb = a;
            a = tmp;
        }
        for (i, (reg, iv)) in [(a, IV[0]), (bb, IV[1]), (c, IV[2]), (d, IV[3]), (e, IV[4])]
            .into_iter()
            .enumerate()
        {
            let h = b.reg();
            b.iadd(h, reg, iv);
            let out = b.param(1);
            let oaddr = b.reg();
            b.imad(oaddr, tid, 5u32, out);
            b.st_global(oaddr, i as i32, h);
        }
        b.build()
    }

    /// CPU reference: identical SHA-1 compression per chunk.
    pub fn reference(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for chunk in self.input.chunks(16) {
            let mut w = [0u32; 80];
            w[..16].copy_from_slice(chunk);
            for t in 16..80 {
                w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
            }
            let (mut a, mut b, mut c, mut d, mut e) = (IV[0], IV[1], IV[2], IV[3], IV[4]);
            for (t, wt) in w.iter().enumerate() {
                let f = match t / 20 {
                    0 => (b & c) | (!b & d),
                    1 | 3 => b ^ c ^ d,
                    _ => (b & c) | (b & d) | (c & d),
                };
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(K[t / 20])
                    .wrapping_add(*wt);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
            out.extend_from_slice(&[
                a.wrapping_add(IV[0]),
                b.wrapping_add(IV[1]),
                c.wrapping_add(IV[2]),
                d.wrapping_add(IV[3]),
                e.wrapping_add(IV[4]),
            ]);
        }
        out
    }
}

impl crate::suite::OneLaunch for Sha {
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
        vec![(self.blocks * self.block_size * 5) as usize]
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
    fn tiny_sha_matches_reference() {
        let w = Sha::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
    }

    #[test]
    fn reference_matches_known_sha1_vector() {
        // SHA-1 compression of the padded block for the empty message must
        // give the famous da39a3ee... digest.
        let mut w = Sha::new(WorkloadSize::Tiny).unwrap();
        let mut block = [0u32; 16];
        block[0] = 0x8000_0000; // padding bit; length = 0
        w.input[..16].copy_from_slice(&block);
        let r = w.reference();
        assert_eq!(
            &r[..5],
            &[
                0xda39_a3ee,
                0x5e6b_4b0d,
                0x3255_bfef,
                0x9560_1890,
                0xafd8_0709
            ]
        );
    }

    #[test]
    fn sha_is_sp_dominated() {
        use warped_sim::collectors::UnitTypeCollector;
        let w = Sha::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = UnitTypeCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        assert!(
            c.fraction(warped_isa::UnitType::Sp) > 0.55,
            "SHA should remain SP-dominated"
        );
        assert!(
            c.fraction(warped_isa::UnitType::LdSt) > 0.1,
            "the W[] window lives in memory"
        );
    }
}
