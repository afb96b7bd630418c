//! End-to-end evaluation of the five error-detection schemes of paper
//! Fig. 10.

use crate::dmtr::Dmtr;
use crate::transfer::PcieModel;
use warped_core::{DmrConfig, WarpedDmr};
use warped_kernels::{Footprint, Workload};
use warped_sim::{Gpu, GpuConfig, NullObserver, SimError};

/// The schemes compared in paper Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Unprotected execution.
    Original,
    /// Kernel + all transfers executed twice (software DMR).
    RNaive,
    /// Thread blocks duplicated within the launch; output transferred
    /// twice for CPU-side comparison.
    RThread,
    /// Every instruction re-executed one cycle later on its own unit.
    Dmtr,
    /// This paper.
    WarpedDmr,
}

impl SchemeKind {
    /// All schemes, in the paper's legend order.
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::Original,
        SchemeKind::RNaive,
        SchemeKind::RThread,
        SchemeKind::Dmtr,
        SchemeKind::WarpedDmr,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Original => "Original",
            SchemeKind::RNaive => "R-Naive",
            SchemeKind::RThread => "R-Thread",
            SchemeKind::Dmtr => "DMTR",
            SchemeKind::WarpedDmr => "Warped-DMR",
        }
    }

    /// Price one program run under this scheme end to end: the
    /// `kernel_cycles` of its simulated run on `gpu` plus the transfers
    /// of `footprint` over `pcie`.
    ///
    /// R-Naive invokes the whole program twice, so its kernel cycles and
    /// transfers both double; the simulator is deterministic, so the
    /// second invocation takes exactly as long as the first. R-Thread
    /// copies the output back twice (the original and redundant blocks'
    /// results are compared on the CPU).
    pub fn price(
        self,
        kernel_cycles: u64,
        footprint: &Footprint,
        gpu: &GpuConfig,
        pcie: &PcieModel,
    ) -> EndToEnd {
        let one_way = pcie.footprint_ns(footprint);
        let (kernel_cycles, transfer_ns) = match self {
            SchemeKind::RNaive => (2 * kernel_cycles, 2.0 * one_way),
            SchemeKind::RThread => (
                kernel_cycles,
                one_way + pcie.transfer_ns(footprint.output_words),
            ),
            SchemeKind::Original | SchemeKind::Dmtr | SchemeKind::WarpedDmr => {
                (kernel_cycles, one_way)
            }
        };
        EndToEnd {
            kernel_cycles,
            kernel_ns: kernel_cycles as f64 * gpu.clock_ns,
            transfer_ns,
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Kernel + transfer breakdown of one scheme's execution (the stacked
/// bars of Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Simulated kernel cycles (all launches).
    pub kernel_cycles: u64,
    /// Kernel time in nanoseconds.
    pub kernel_ns: f64,
    /// Host↔device transfer time in nanoseconds.
    pub transfer_ns: f64,
}

impl EndToEnd {
    /// Total wall time.
    pub fn total_ns(&self) -> f64 {
        self.kernel_ns + self.transfer_ns
    }
}

/// The chip R-Thread runs on: `config` with every thread block launched
/// twice in the same launch.
pub fn r_thread_gpu(config: &GpuConfig) -> Gpu {
    let mut gpu = Gpu::new(config.clone());
    gpu.set_block_redundancy(2);
    gpu
}

/// Simulate `workload` under `scheme` and [price](SchemeKind::price) the
/// run. Original and R-Naive both simulate the unprotected run.
///
/// `dmr` configures the Warped-DMR scheme (ignored by the others).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_scheme(
    scheme: SchemeKind,
    workload: &Workload,
    gpu_config: &GpuConfig,
    dmr: &DmrConfig,
    pcie: &PcieModel,
) -> Result<EndToEnd, SimError> {
    let run = match scheme {
        SchemeKind::Original | SchemeKind::RNaive => {
            workload.run_with(gpu_config, &mut NullObserver)?
        }
        SchemeKind::RThread => workload.run_on(&mut r_thread_gpu(gpu_config), &mut NullObserver)?,
        SchemeKind::Dmtr => workload.run_with(gpu_config, &mut Dmtr::new())?,
        SchemeKind::WarpedDmr => {
            workload.run_with(gpu_config, &mut WarpedDmr::new(dmr.clone(), gpu_config))?
        }
    };
    Ok(scheme.price(run.stats.cycles, &workload.footprint(), gpu_config, pcie))
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_kernels::{Benchmark, WorkloadSize};

    #[test]
    fn scheme_names_are_unique() {
        let mut names: Vec<&str> = SchemeKind::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn fig10_ordering_on_matmul() {
        let gpu = GpuConfig::small();
        let dmr = DmrConfig::default();
        let pcie = PcieModel::default();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let mut t = std::collections::HashMap::new();
        for s in SchemeKind::ALL {
            t.insert(s, run_scheme(s, &w, &gpu, &dmr, &pcie).unwrap());
        }
        let orig = t[&SchemeKind::Original].total_ns();
        // Everyone pays at least the original's cost.
        for s in SchemeKind::ALL {
            assert!(
                t[&s].total_ns() >= orig * 0.999,
                "{s} cheaper than original"
            );
        }
        // R-Naive is the most expensive scheme (paper §5.3).
        for s in [SchemeKind::RThread, SchemeKind::Dmtr, SchemeKind::WarpedDmr] {
            assert!(
                t[&SchemeKind::RNaive].total_ns() >= t[&s].total_ns(),
                "R-Naive should cost at least as much as {s}"
            );
        }
        // Warped-DMR beats DMTR.
        assert!(t[&SchemeKind::WarpedDmr].total_ns() < t[&SchemeKind::Dmtr].total_ns());
        // R-Naive runs and transfers twice as much as Original.
        assert_eq!(
            t[&SchemeKind::RNaive].kernel_cycles,
            2 * t[&SchemeKind::Original].kernel_cycles
        );
        assert!(
            (t[&SchemeKind::RNaive].transfer_ns - 2.0 * t[&SchemeKind::Original].transfer_ns).abs()
                < 1e-6
        );
    }

    #[test]
    fn rthread_doubles_kernel_work_when_saturated() {
        let gpu = GpuConfig::small(); // 2 SMs, quickly saturated
        let dmr = DmrConfig::default();
        let pcie = PcieModel::default();
        let w = Benchmark::Scan.build(WorkloadSize::Small).unwrap();
        let orig = run_scheme(SchemeKind::Original, &w, &gpu, &dmr, &pcie).unwrap();
        let rt = run_scheme(SchemeKind::RThread, &w, &gpu, &dmr, &pcie).unwrap();
        assert!(
            rt.kernel_cycles as f64 > 1.5 * orig.kernel_cycles as f64,
            "16 blocks on 2 SMs cannot hide duplicates: {} vs {}",
            rt.kernel_cycles,
            orig.kernel_cycles
        );
    }

    #[test]
    fn rthread_hides_on_idle_sms() {
        // One block on a 2-SM GPU: the duplicate runs on the idle SM.
        let gpu = GpuConfig::small();
        let dmr = DmrConfig::default();
        let pcie = PcieModel::default();
        let w = Benchmark::BitonicSort.build(WorkloadSize::Tiny).unwrap(); // 1 block
        let orig = run_scheme(SchemeKind::Original, &w, &gpu, &dmr, &pcie).unwrap();
        let rt = run_scheme(SchemeKind::RThread, &w, &gpu, &dmr, &pcie).unwrap();
        assert!(
            (rt.kernel_cycles as f64) < 1.2 * orig.kernel_cycles as f64,
            "duplicate of a single block should hide on the idle SM: {} vs {}",
            rt.kernel_cycles,
            orig.kernel_cycles
        );
    }
}
