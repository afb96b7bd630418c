//! The benchmark registry: [`Benchmark`], [`Workload`], and the
//! [`Program`] trait each workload implements.
//!
//! Nine programs launch their kernel once. Each states its kernel, launch
//! geometry, input buffers, output lengths and check (`OneLaunch`); one
//! host harness allocates the inputs then the outputs, passes their base
//! addresses as the kernel parameters in that order, and derives the
//! [`Footprint`] and block size from the same buffers and geometry. BFS
//! and Laplace loop on the host, so they implement [`Program`] themselves.

use crate::common::{CheckError, Footprint};
use crate::{bfs, bitonic, fft, laplace, libor, matmul, mum, nqueen, radix, scan, sha};
use std::borrow::Cow;
use warped_isa::{Kernel, KernelError};
use warped_sim::{Gpu, GpuConfig, IssueInfo, IssueObserver, LaunchConfig, RunStats, SimError};
use warped_trace::{TraceEvent, TraceHandle};

/// Workload scale. The algorithms are identical across sizes; only input
/// dimensions change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorkloadSize {
    /// Smallest inputs — unit tests and doctests.
    Tiny,
    /// Quick experiments (seconds for the full suite).
    #[default]
    Small,
    /// Figure-quality runs (paper-shaped utilization across 30 SMs).
    Full,
}

/// One complete GPU program: input generation, one or more kernel
/// launches (possibly host-controlled, like BFS's per-level loop), and a
/// CPU reference for validation.
pub trait Program {
    /// Allocate, upload, launch (all phases), and read back. Returns the
    /// accumulated statistics and the primary output buffer.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the simulator.
    fn execute(
        &self,
        gpu: &mut Gpu,
        observer: &mut dyn IssueObserver,
    ) -> Result<ProgramRun, SimError>;

    /// Validate a run against the CPU reference.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] describing the first discrepancy.
    fn check(&self, run: &ProgramRun) -> Result<(), CheckError>;

    /// Host↔device transfer volume (for the Fig. 10 PCIe model).
    fn footprint(&self) -> Footprint;

    /// The (single) device kernel this program launches, for disassembly
    /// and tracing.
    fn kernel(&self) -> &warped_isa::Kernel;

    /// Threads per block of every launch this program performs (all
    /// suite programs use a fixed block geometry). Determines the warp
    /// shapes — full warps plus at most one partial tail warp — that
    /// static coverage certification must account for.
    fn block_threads(&self) -> u32;
}

/// A host buffer to upload: borrowed from the workload, or converted
/// (e.g. f32 to bits) for the upload.
pub(crate) type Buffer<'a> = Cow<'a, [u32]>;

/// A program that launches its kernel once, with the base addresses of
/// its buffers — inputs, then outputs — as the kernel parameters.
pub(crate) trait OneLaunch {
    /// The device kernel.
    fn kernel(&self) -> &Kernel;

    /// Grid and block geometry; the harness supplies the parameters.
    fn geometry(&self) -> LaunchConfig;

    /// The buffers uploaded before the launch, in parameter order.
    fn inputs(&self) -> Vec<Buffer<'_>>;

    /// The word lengths of the buffers read back after it, in parameter
    /// order.
    fn output_lens(&self) -> Vec<usize>;

    /// Validate the concatenated outputs against the CPU reference.
    fn check(&self, output: &[u32]) -> Result<(), CheckError>;
}

impl<T: OneLaunch> Program for T {
    fn execute(
        &self,
        gpu: &mut Gpu,
        observer: &mut dyn IssueObserver,
    ) -> Result<ProgramRun, SimError> {
        let inputs = self.inputs();
        let mut params: Vec<u32> = inputs.iter().map(|b| gpu.alloc_words(b.len())).collect();
        let outputs: Vec<(u32, usize)> = self
            .output_lens()
            .into_iter()
            .map(|n| (gpu.alloc_words(n), n))
            .collect();
        for (&base, data) in params.iter().zip(&inputs) {
            gpu.write_words(base, data);
        }
        params.extend(outputs.iter().map(|&(base, _)| base));
        let launch = self.geometry().with_params(params);
        let mut run = ProgramRun::default();
        run.absorb(&gpu.launch(OneLaunch::kernel(self), &launch, observer)?);
        run.output = outputs
            .into_iter()
            .flat_map(|(base, n)| gpu.read_words(base, n))
            .collect();
        Ok(run)
    }

    fn check(&self, run: &ProgramRun) -> Result<(), CheckError> {
        OneLaunch::check(self, &run.output)
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            input_words: self.inputs().iter().map(|b| b.len() as u64).sum(),
            output_words: self.output_lens().into_iter().sum::<usize>() as u64,
        }
    }

    fn kernel(&self) -> &Kernel {
        OneLaunch::kernel(self)
    }

    fn block_threads(&self) -> u32 {
        self.geometry().threads_per_block() as u32
    }
}

/// The result of executing a [`Workload`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramRun {
    /// Statistics accumulated over all launches of the program.
    pub stats: RunStats,
    /// Number of kernel launches performed.
    pub launches: u32,
    /// Primary output buffer, read back from device memory.
    pub output: Vec<u32>,
}

impl ProgramRun {
    /// Fold one launch's statistics into the accumulated totals
    /// (cycles add up because launches are sequential).
    pub fn absorb(&mut self, s: &RunStats) {
        self.stats.cycles += s.cycles;
        self.stats.add_counters(s);
        self.launches += 1;
    }
}

/// The paper's benchmark suite (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Breadth-first search over a sparse graph.
    Bfs,
    /// N-Queens backtracking.
    NQueen,
    /// MUMmer-style DNA string matching.
    Mum,
    /// Per-block inclusive prefix sum.
    Scan,
    /// In-shared-memory bitonic sort.
    BitonicSort,
    /// Jacobi/Laplace 2-D stencil solver.
    Laplace,
    /// Tiled dense matrix multiply.
    MatrixMul,
    /// Per-block LSD radix sort.
    RadixSort,
    /// SHA-1 over independent chunks.
    Sha,
    /// LIBOR market-model Monte Carlo.
    Libor,
    /// Radix-2 FFT (paper: CUFFT).
    Fft,
}

impl Benchmark {
    /// All benchmarks in the paper's figure order.
    pub const ALL: [Benchmark; 11] = [
        Benchmark::Bfs,
        Benchmark::NQueen,
        Benchmark::Mum,
        Benchmark::Scan,
        Benchmark::BitonicSort,
        Benchmark::Laplace,
        Benchmark::MatrixMul,
        Benchmark::RadixSort,
        Benchmark::Sha,
        Benchmark::Libor,
        Benchmark::Fft,
    ];

    /// Name as printed in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Bfs => "BFS",
            Benchmark::NQueen => "Nqueen",
            Benchmark::Mum => "MUM",
            Benchmark::Scan => "SCAN",
            Benchmark::BitonicSort => "BitonicSort",
            Benchmark::Laplace => "Laplace",
            Benchmark::MatrixMul => "MatrixMul",
            Benchmark::RadixSort => "RadixSort",
            Benchmark::Sha => "SHA",
            Benchmark::Libor => "Libor",
            Benchmark::Fft => "CUFFT",
        }
    }

    /// Application category (paper Table 4).
    pub fn category(&self) -> &'static str {
        match self {
            Benchmark::Laplace | Benchmark::Mum | Benchmark::Fft => "Scientific",
            Benchmark::Bfs | Benchmark::MatrixMul | Benchmark::Scan => "Linear Algebra/Primitives",
            Benchmark::Libor => "Financial",
            Benchmark::Sha => "Compression/Encryption",
            Benchmark::RadixSort | Benchmark::BitonicSort => "Sorting",
            Benchmark::NQueen => "AI/Simulation",
        }
    }

    /// Parse a benchmark from its (case-insensitive) name.
    pub fn from_name(s: &str) -> Option<Benchmark> {
        let l = s.to_ascii_lowercase();
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name().to_ascii_lowercase() == l)
            .or(match l.as_str() {
                "fft" => Some(Benchmark::Fft),
                "bitonic" => Some(Benchmark::BitonicSort),
                "radix" => Some(Benchmark::RadixSort),
                "matmul" => Some(Benchmark::MatrixMul),
                _ => None,
            })
    }

    /// Construct the workload at the given size (inputs are seeded
    /// deterministically from the benchmark identity).
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] if kernel assembly fails (a bug in the
    /// workload definition, not an input problem).
    pub fn build(&self, size: WorkloadSize) -> Result<Workload, KernelError> {
        let inner: Box<dyn Program + Send + Sync> = match self {
            Benchmark::Bfs => Box::new(bfs::Bfs::new(size)?),
            Benchmark::NQueen => Box::new(nqueen::NQueen::new(size)?),
            Benchmark::Mum => Box::new(mum::Mum::new(size)?),
            Benchmark::Scan => Box::new(scan::Scan::new(size)?),
            Benchmark::BitonicSort => Box::new(bitonic::BitonicSort::new(size)?),
            Benchmark::Laplace => Box::new(laplace::Laplace::new(size)?),
            Benchmark::MatrixMul => Box::new(matmul::MatrixMul::new(size)?),
            Benchmark::RadixSort => Box::new(radix::RadixSort::new(size)?),
            Benchmark::Sha => Box::new(sha::Sha::new(size)?),
            Benchmark::Libor => Box::new(libor::Libor::new(size)?),
            Benchmark::Fft => Box::new(fft::Fft::new(size)?),
        };
        Ok(Workload {
            benchmark: *self,
            inner,
        })
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A built benchmark: kernels assembled, inputs generated, reference
/// ready. See the [crate-level example](crate).
pub struct Workload {
    benchmark: Benchmark,
    // `Send + Sync` so experiment harnesses and fault campaigns can
    // share one built workload across worker threads.
    inner: Box<dyn Program + Send + Sync>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workload({})", self.name())
    }
}

impl Workload {
    /// Benchmark name.
    pub fn name(&self) -> &'static str {
        self.benchmark.name()
    }

    /// Run the program on `gpu` under `observer`: the one entry point
    /// every other `run_*` method wraps. The caller configures the GPU
    /// (datapath fault, block redundancy, launch-log recording or
    /// replay); its memory is reset first. Launch-log indices count the
    /// GPU's launches, so record or replay on a GPU that has not launched.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_on(
        &self,
        gpu: &mut Gpu,
        observer: &mut dyn IssueObserver,
    ) -> Result<ProgramRun, SimError> {
        gpu.reset_memory();
        self.inner.execute(gpu, observer)
    }

    /// Run on a fresh GPU of the given configuration under `observer`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_with(
        &self,
        config: &GpuConfig,
        observer: &mut dyn IssueObserver,
    ) -> Result<ProgramRun, SimError> {
        self.run_on(&mut Gpu::new(config.clone()), observer)
    }

    /// Run on a fresh GPU with cycle-level tracing attached: `trace`
    /// receives a `LaunchBegin`, `Issue`, `Idle` and `SmDone` event for
    /// every launch, issue slot, idle slot and SM completion `observer`
    /// sees. Give the observer (e.g. a `WarpedDmr` engine) a clone of the
    /// same handle for the full stream. The run's events reach the sink
    /// in batches ([`TraceHandle::batched`]), all of them before this
    /// returns, on `Ok` and `Err` alike.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_traced(
        &self,
        config: &GpuConfig,
        observer: &mut dyn IssueObserver,
        trace: TraceHandle,
    ) -> Result<ProgramRun, SimError> {
        trace.batched(|| {
            let mut traced = Traced {
                inner: observer,
                trace: trace.clone(),
            };
            self.run_with(config, &mut traced)
        })
    }

    /// Validate a run against the CPU reference.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] describing the first discrepancy.
    pub fn check(&self, run: &ProgramRun) -> Result<(), CheckError> {
        self.inner.check(run)
    }

    /// Host↔device transfer volume.
    pub fn footprint(&self) -> Footprint {
        self.inner.footprint()
    }

    /// The device kernel, for disassembly (`warped disasm`) and tracing.
    pub fn kernel(&self) -> &warped_isa::Kernel {
        self.inner.kernel()
    }

    /// Threads per block of every launch (fixed per program).
    pub fn block_threads(&self) -> u32 {
        self.inner.block_threads()
    }
}

/// Turns what the simulator reports to `inner` into trace events.
///
/// `LaunchBegin`, `Issue` and `Idle` are emitted before `inner` sees the
/// call, so the checker events of an issue slot follow its `Issue`.
/// `SmDone` is emitted after `inner` returns, stamped at the finish time
/// (drain included), so it sorts after the checker's drain verifies.
struct Traced<'a> {
    inner: &'a mut dyn IssueObserver,
    trace: TraceHandle,
}

impl IssueObserver for Traced<'_> {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        self.trace.emit(|| TraceEvent::Issue {
            sm: info.sm_id as u32,
            cycle: info.cycle,
            warp: info.warp_uid,
            pc: info.pc.0,
            unit: info.unit,
            active: info.active_count(),
            full: info.is_full(),
            has_result: info.has_result,
            dst: info.dst,
            srcs: info.srcs,
        });
        self.inner.on_issue(info)
    }

    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        self.trace.emit(|| TraceEvent::Idle {
            sm: sm_id as u32,
            cycle,
        });
        self.inner.on_idle(sm_id, cycle);
    }

    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        let drained = self.inner.on_sm_done(sm_id, cycle);
        self.trace.emit(|| TraceEvent::SmDone {
            sm: sm_id as u32,
            cycle: cycle + drained,
            drained,
        });
        drained
    }

    fn on_launch(&mut self, index: u32) {
        self.trace.emit(|| TraceEvent::LaunchBegin { index });
        self.inner.on_launch(index);
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use warped_sim::{LaneFault, LaunchLog, LaunchSet};

    #[test]
    fn names_are_unique_and_paper_spelled() {
        let mut names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(names.contains(&"CUFFT"));
        assert!(names.contains(&"BFS"));
    }

    #[test]
    fn from_name_roundtrips_and_aliases() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
            assert_eq!(Benchmark::from_name(&b.name().to_lowercase()), Some(b));
        }
        assert_eq!(Benchmark::from_name("fft"), Some(Benchmark::Fft));
        assert_eq!(Benchmark::from_name("matmul"), Some(Benchmark::MatrixMul));
        assert_eq!(Benchmark::from_name("nope"), None);
    }

    #[test]
    fn categories_cover_table4() {
        let cats: std::collections::BTreeSet<&str> =
            Benchmark::ALL.iter().map(|b| b.category()).collect();
        assert_eq!(cats.len(), 6);
    }

    /// Run `w` on a fresh GPU of `config` set up by `configure`,
    /// returning the run, the GPU and the launches it simulated.
    fn run_on_fresh(
        w: &Workload,
        config: &GpuConfig,
        configure: impl FnOnce(&mut Gpu),
    ) -> (Result<ProgramRun, SimError>, Gpu, Vec<u32>) {
        struct Simulated(Vec<u32>);
        impl IssueObserver for Simulated {
            fn on_launch(&mut self, index: u32) {
                self.0.push(index);
            }
        }
        let mut gpu = Gpu::new(config.clone());
        configure(&mut gpu);
        let mut simulated = Simulated(Vec::new());
        let run = w.run_on(&mut gpu, &mut simulated);
        (run, gpu, simulated.0)
    }

    /// BFS Tiny, its fault-free run on `config`, the run's launch log and
    /// the GPU that recorded it.
    fn recorded_bfs(config: &GpuConfig) -> (Workload, ProgramRun, Arc<LaunchLog>, Gpu) {
        let w = Benchmark::Bfs.build(WorkloadSize::Tiny).unwrap();
        let (full, mut recorder, _) = run_on_fresh(&w, config, Gpu::record_launches);
        let full = full.unwrap();
        let log = Arc::new(recorder.take_launch_log().unwrap());
        assert!(full.launches >= 3, "BFS Tiny is a multi-launch program");
        assert_eq!(log.len(), full.launches as usize);
        (w, full, log, recorder)
    }

    #[test]
    fn every_followed_launch_set_of_bfs_matches_the_full_run() {
        let config = GpuConfig::small();
        let (w, full, log, recorder) = recorded_bfs(&config);
        let n = full.launches;
        // Every replayed prefix, every one-launch set, and every
        // two-launch set with a gap.
        let prefixes = (0..=n).map(LaunchSet::from);
        let singles = (0..n).map(LaunchSet::of);
        let gapped =
            (0..n).flat_map(|i| (i + 2..n).map(move |j| LaunchSet::from_bits(1 << i | 1 << j)));
        for set in prefixes.chain(singles).chain(gapped) {
            let (run, gpu, simulated) =
                run_on_fresh(&w, &config, |gpu| gpu.follow_launches(log.clone(), set));
            assert_eq!(run.unwrap(), full, "simulating {set:?}");
            assert_eq!(gpu.global_mem(), recorder.global_mem(), "{set:?}");
            let expected: Vec<u32> = (0..n).filter(|&k| set.contains(k)).collect();
            assert_eq!(simulated, expected, "{set:?}: on track throughout");
        }
    }

    #[test]
    fn a_launch_that_writes_otherwise_leaves_the_log() {
        use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

        /// Flips bit 0 of every value lane 0 produces in launch `.1`;
        /// `.0` is the running launch.
        struct FlipIn(AtomicU32, u32);
        impl LaneFault for FlipIn {
            fn corrupt(&self, _sm: usize, lane: usize, _cycle: u64, value: u32) -> u32 {
                if lane == 0 && self.0.load(Relaxed) == self.1 {
                    value ^ 1
                } else {
                    value
                }
            }
        }
        /// Tells the fault which launch runs; notes the simulated ones.
        struct Launches(Arc<FlipIn>, Vec<u32>);
        impl IssueObserver for Launches {
            fn on_launch(&mut self, index: u32) {
                self.0 .0.store(index, Relaxed);
                self.1.push(index);
            }
        }
        // BFS with launch `k` faulty, following `log` with `{k}` if given.
        let run = |w: &Workload, k: u32, log: Option<&Arc<LaunchLog>>| {
            let fault = Arc::new(FlipIn(AtomicU32::new(u32::MAX), k));
            let mut gpu = Gpu::new(GpuConfig::small());
            gpu.set_fault(fault.clone());
            if let Some(log) = log {
                gpu.follow_launches(log.clone(), LaunchSet::of(k));
            }
            let mut launches = Launches(fault, Vec::new());
            let run = w.run_on(&mut gpu, &mut launches).unwrap();
            (run, gpu, launches.1)
        };

        let (w, full, log, recorder) = recorded_bfs(&GpuConfig::small());
        let n = full.launches;
        let (mut on_track, mut off_track) = (0, 0);
        for k in 0..n {
            let (reference, faulty, _) = run(&w, k, None);
            let (followed, gpu, simulated) = run(&w, k, Some(&log));
            assert_eq!(followed, reference, "launch {k} faulty");
            assert_eq!(gpu.global_mem(), faulty.global_mem(), "launch {k} faulty");
            let rest: Vec<u32> = (k..reference.launches).collect();
            if faulty.global_mem() != recorder.global_mem() || reference.launches != n {
                // Launch k wrote otherwise than the log says, so every
                // later launch is simulated.
                assert_eq!(simulated, rest, "launch {k} faulty");
                off_track += usize::from(rest.len() > 1);
            } else if simulated == [k] {
                on_track += 1;
            } else {
                assert_eq!(simulated, rest, "launch {k} faulty");
            }
        }
        assert!(on_track > 0 && off_track > 0, "{on_track}, {off_track}");
    }

    #[test]
    fn a_log_of_another_run_is_refused() {
        let config = GpuConfig::small();
        let (bfs, _, log, _) = recorded_bfs(&config);
        let mismatch = SimError::ReplayMismatch { launch: 0 };
        let replay = |w: &Workload, config: &GpuConfig| {
            run_on_fresh(w, config, |gpu| {
                gpu.follow_launches(log.clone(), LaunchSet::from(2))
            })
            .0
        };
        let scan = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        assert_eq!(
            replay(&scan, &config),
            Err(mismatch.clone()),
            "another workload"
        );
        let bigger = Benchmark::Bfs.build(WorkloadSize::Small).unwrap();
        assert_eq!(
            replay(&bigger, &config),
            Err(mismatch.clone()),
            "another size"
        );
        let chip = GpuConfig::small().with_sms(1);
        assert_eq!(replay(&bfs, &chip), Err(mismatch), "another chip");
        assert!(replay(&bfs, &config).is_ok());
    }

    #[test]
    fn absorb_accumulates() {
        let mut run = ProgramRun::default();
        let s = RunStats {
            cycles: 10,
            warp_instructions: 5,
            unit_instructions: [3, 1, 1],
            ..Default::default()
        };
        run.absorb(&s);
        run.absorb(&s);
        assert_eq!(run.stats.cycles, 20);
        assert_eq!(run.stats.warp_instructions, 10);
        assert_eq!(run.stats.unit_instructions, [6, 2, 2]);
        assert_eq!(run.launches, 2);
    }
}
