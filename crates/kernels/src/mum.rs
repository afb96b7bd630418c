//! MUMmer-style DNA string matching (paper Table 4: `NC_003997.20k.fna`
//! query set).
//!
//! Each thread extends a match between its query and the reference genome
//! at a given position: a data-dependent `while` loop that runs anywhere
//! from 0 to `query_len` iterations. Neighbouring threads exit at
//! different times, so warps spend most of the kernel partially utilized —
//! the MUM bar of paper Fig. 1.

use crate::common::{check_exact, CheckError, SplitMix32};
use crate::suite::{Buffer, WorkloadSize};
use warped_isa::{CmpOp, CmpType, Kernel, KernelBuilder, KernelError, SpecialReg};
use warped_sim::LaunchConfig;

/// The MUM workload: longest-common-prefix matching of queries against a
/// reference string (one symbol per word, alphabet {0,1,2,3}).
#[derive(Debug)]
pub struct Mum {
    blocks: u32,
    block_size: u32,
    query_len: u32,
    reference_text: Vec<u32>,
    queries: Vec<u32>,
    positions: Vec<u32>,
    kernel: Kernel,
}

impl Mum {
    /// Build the workload (reference text and queries seeded
    /// deterministically; queries are mutated copies so match lengths
    /// vary).
    ///
    /// # Errors
    ///
    /// Propagates kernel assembly errors.
    pub fn new(size: WorkloadSize) -> Result<Self, KernelError> {
        let (blocks, block_size, ref_len, query_len) = match size {
            WorkloadSize::Tiny => (2u32, 64u32, 1024u32, 16u32),
            WorkloadSize::Small => (16, 128, 8192, 24),
            WorkloadSize::Full => (64, 128, 20000, 32),
        };
        let mut rng = SplitMix32::new(0x303);
        let reference_text: Vec<u32> = (0..ref_len).map(|_| rng.below(4)).collect();
        let threads = blocks * block_size;
        let mut queries = Vec::with_capacity((threads * query_len) as usize);
        let mut positions = Vec::with_capacity(threads as usize);
        for _ in 0..threads {
            let pos = rng.below(ref_len - query_len);
            positions.push(pos);
            for k in 0..query_len {
                let c = reference_text[(pos + k) as usize];
                // ~15% mutation rate ends matches at varied depths.
                if rng.below(100) < 15 {
                    queries.push((c + 1 + rng.below(3)) % 4);
                } else {
                    queries.push(c);
                }
            }
        }
        Ok(Mum {
            blocks,
            block_size,
            query_len,
            reference_text,
            queries,
            positions,
            kernel: Self::kernel(query_len)?,
        })
    }

    fn kernel(query_len: u32) -> Result<Kernel, KernelError> {
        let mut b = KernelBuilder::new("mum");
        let [tid, pos, l, p, qbase] = b.regs();
        b.mov(tid, SpecialReg::GlobalTid);
        let (reft, qry, posbuf, out) = (b.param(0), b.param(1), b.param(2), b.param(3));
        let a = b.reg();
        b.iadd(a, posbuf, tid);
        b.ld_global(pos, a, 0);
        b.imad(qbase, tid, query_len, qry);
        b.mov(l, 0u32);
        // while l < qlen && ref[pos+l] == qry[l]: l++
        let keep = b.reg();
        b.mov(keep, 1u32);
        b.while_loop(
            |b| {
                b.setp(CmpOp::Lt, CmpType::U32, p, l, query_len);
                b.and(p, p, keep);
                p
            },
            |b| {
                let [rc, qc, raddr, qaddr, eq] = b.regs();
                b.iadd(raddr, pos, l);
                b.iadd(raddr, raddr, reft);
                b.ld_global(rc, raddr, 0);
                b.iadd(qaddr, qbase, l);
                b.ld_global(qc, qaddr, 0);
                b.setp(CmpOp::Eq, CmpType::U32, eq, rc, qc);
                b.if_then_else(eq, |b| b.iadd(l, l, 1u32), |b| b.mov(keep, 0u32));
            },
        );
        let oaddr = b.reg();
        b.iadd(oaddr, out, tid);
        b.st_global(oaddr, 0, l);
        b.build()
    }

    /// CPU reference: match lengths per query.
    pub fn reference(&self) -> Vec<u32> {
        let q = self.query_len as usize;
        self.positions
            .iter()
            .enumerate()
            .map(|(t, &pos)| {
                let mut l = 0usize;
                while l < q && self.reference_text[pos as usize + l] == self.queries[t * q + l] {
                    l += 1;
                }
                l as u32
            })
            .collect()
    }
}

impl crate::suite::OneLaunch for Mum {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn geometry(&self) -> LaunchConfig {
        LaunchConfig::linear(self.blocks, self.block_size)
    }

    fn inputs(&self) -> Vec<Buffer<'_>> {
        vec![
            self.reference_text.as_slice().into(),
            self.queries.as_slice().into(),
            self.positions.as_slice().into(),
        ]
    }

    fn output_lens(&self) -> Vec<usize> {
        vec![self.positions.len()]
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
    fn tiny_mum_matches_reference() {
        let w = Mum::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let run = w.execute(&mut gpu, &mut NullObserver).unwrap();
        w.check(&run).unwrap();
    }

    #[test]
    fn match_lengths_vary() {
        let w = Mum::new(WorkloadSize::Tiny).unwrap();
        let r = w.reference();
        let distinct: std::collections::BTreeSet<u32> = r.iter().copied().collect();
        assert!(distinct.len() > 3, "mutations should spread match lengths");
        assert!(r.iter().all(|&l| l <= w.query_len));
    }

    #[test]
    fn mum_diverges_within_warps() {
        use warped_sim::collectors::ActiveThreadCollector;
        let w = Mum::new(WorkloadSize::Tiny).unwrap();
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut c = ActiveThreadCollector::new();
        w.execute(&mut gpu, &mut c).unwrap();
        let partial: f64 = (0..4).map(|i| c.histogram().fraction(i)).sum();
        assert!(
            partial > 0.2,
            "staggered loop exits should diverge, got {partial}"
        );
    }
}
