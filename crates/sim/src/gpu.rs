//! The GPU chip: block dispatch across SMs and the global cycle loop.

use crate::config::GpuConfig;
use crate::fault::LaneFault;
use crate::launch::{LaunchConfig, RunStats, SimError};
use crate::memory::GlobalMemory;
use crate::observer::IssueObserver;
use crate::replay::{LaunchLog, LaunchSet};
use crate::sm::{Sm, StepOutcome};
use std::sync::Arc;
use warped_isa::Kernel;

/// The simulated GPU: configuration plus device-global memory.
///
/// Memory persists across launches so hosts can upload inputs, launch, and
/// read back outputs, mirroring the CUDA flow:
///
/// ```
/// use warped_sim::{Gpu, GpuConfig, LaunchConfig, NullObserver};
/// use warped_isa::KernelBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut gpu = Gpu::new(GpuConfig::small());
/// let buf = gpu.alloc_words(32);
/// gpu.write_words(buf, &[7; 32]);
///
/// let mut b = KernelBuilder::new("incr");
/// let [tid, v, addr] = b.regs();
/// b.mov(tid, warped_isa::SpecialReg::GlobalTid);
/// b.iadd(addr, b.param(0), tid);
/// b.ld_global(v, addr, 0);
/// b.iadd(v, v, 1u32);
/// b.st_global(addr, 0, v);
/// let kernel = b.build()?;
///
/// gpu.launch(&kernel, &LaunchConfig::linear(1, 32).with_params(vec![buf]), &mut NullObserver)?;
/// assert_eq!(gpu.read_words(buf, 32), vec![8; 32]);
/// # Ok(())
/// # }
/// ```
pub struct Gpu {
    config: GpuConfig,
    global: GlobalMemory,
    block_redundancy: u32,
    fault: Option<Arc<dyn LaneFault>>,
    launch_seq: u32,
    /// The log being recorded, if any ([`Gpu::record_launches`]).
    recording: Option<LaunchLog>,
    /// The log being followed, if any ([`Gpu::follow_launches`]).
    follow: Option<Follow>,
}

/// A run following a [`LaunchLog`].
struct Follow {
    log: Arc<LaunchLog>,
    /// The launches simulated while on track.
    simulate: LaunchSet,
    /// Whether global memory is the recorded run's at the next launch.
    on_track: bool,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("config", &self.config)
            .field("block_redundancy", &self.block_redundancy)
            .field("fault", &self.fault.is_some())
            .field("launch_seq", &self.launch_seq)
            .field("recording", &self.recording.is_some())
            .field(
                "follow",
                &self.follow.as_ref().map(|f| (f.simulate, f.on_track)),
            )
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Create a GPU with zeroed global memory.
    ///
    /// # Panics
    ///
    /// Panics if `config` is internally inconsistent
    /// (see [`GpuConfig::assert_valid`]).
    pub fn new(config: GpuConfig) -> Self {
        config.assert_valid();
        let global = GlobalMemory::new(config.global_mem_words);
        Gpu {
            config,
            global,
            block_redundancy: 1,
            fault: None,
            launch_seq: 0,
            recording: None,
            follow: None,
        }
    }

    /// Corrupt the execution datapath of subsequent launches with `fault`
    /// (fault-injection campaigns), called with each thread's logical
    /// lane. Unlike a DMR comparator calling the same hook, this changes
    /// real machine state, so silent data corruption and hangs become
    /// reachable outcomes.
    pub fn set_fault(&mut self, fault: Arc<dyn LaneFault>) {
        self.fault = Some(fault);
    }

    /// Execute every logical thread block `copies` times per launch
    /// (default 1). Redundant copies receive the *same* block coordinates
    /// and global thread ids, so they recompute — and re-store — identical
    /// values. This models the R-Thread software scheme (Dimitrov et al.),
    /// where a kernel's block count is doubled for redundancy.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero.
    pub fn set_block_redundancy(&mut self, copies: u32) {
        assert!(copies > 0, "need at least one copy of each block");
        self.block_redundancy = copies;
    }

    /// Record a [`LaunchLog`] of every subsequent launch that finishes:
    /// its kernel, geometry and parameters, the global words it changed
    /// and its statistics. Entry `i` of the log is launch `i` of this GPU.
    /// A launch that fails ends the recording.
    ///
    /// # Panics
    ///
    /// Panics if this GPU has launched before.
    pub fn record_launches(&mut self) {
        assert_eq!(self.launch_seq, 0, "record a launch log from launch 0");
        self.recording = Some(LaunchLog::new(&self.config, self.block_redundancy));
    }

    /// The log recorded since [`Gpu::record_launches`], or `None` when
    /// not recording (or a launch failed). Recording stops.
    pub fn take_launch_log(&mut self) -> Option<LaunchLog> {
        self.recording.take()
    }

    /// Follow `log`: while the run is on track, simulate the launches in
    /// `simulate` and replay every other launch from the log instead of
    /// simulating it. A replayed launch applies the recorded memory
    /// changes and returns the recorded statistics, calling neither the
    /// observer nor the fault. `LaunchSet::from(k)` replays the prefix
    /// `0..k` and simulates the rest.
    ///
    /// The run starts on track. A simulated launch keeps it on track only
    /// if it is the recorded launch and changes global memory exactly as
    /// the log says, word for word; once off track, every later launch is
    /// simulated. Following is therefore exact when each launch outside
    /// `simulate` would, on the recorded memory, do what the recorded
    /// launch did: the host program is the recorded one and no fault acts
    /// in that launch.
    ///
    /// A replayed launch that is not the recorded one (another kernel,
    /// geometry, parameter list or chip) fails with
    /// [`SimError::ReplayMismatch`] instead of diverging silently.
    pub fn follow_launches(&mut self, log: Arc<LaunchLog>, simulate: LaunchSet) {
        self.follow = Some(Follow {
            log,
            simulate,
            on_track: true,
        });
    }

    /// The chip configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Reserve `len` words of global memory (host-side `cudaMalloc`).
    pub fn alloc_words(&mut self, len: usize) -> u32 {
        self.global.alloc(len)
    }

    /// Upload data (host-side `cudaMemcpy` host→device).
    pub fn write_words(&mut self, base: u32, data: &[u32]) {
        self.global.write_slice(base, data);
    }

    /// Download data (host-side `cudaMemcpy` device→host).
    pub fn read_words(&self, base: u32, len: usize) -> Vec<u32> {
        self.global.read_slice(base, len)
    }

    /// Zero memory and release all allocations (between experiments).
    pub fn reset_memory(&mut self) {
        self.global.reset();
    }

    /// Direct access to global memory (fault campaigns, debugging).
    pub fn global_mem(&self) -> &GlobalMemory {
        &self.global
    }

    /// Execute `kernel` with geometry `launch`, reporting every issue slot
    /// to `observer` (or replay it, see [`Gpu::follow_launches`]).
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyLaunch`] / [`SimError::BlockTooLarge`] for bad
    ///   geometry.
    /// * Functional errors (out-of-bounds access, missing parameter)
    ///   surfaced from any lane.
    /// * [`SimError::Deadlock`] if no instruction issues for an
    ///   implausibly long time (barrier deadlock).
    /// * [`SimError::Hang`] when the config's cycle budget
    ///   ([`GpuConfig::max_cycles`]) trips.
    /// * [`SimError::Stopped`] at the first cycle boundary after
    ///   `observer` reports [`IssueObserver::halted`].
    /// * [`SimError::ReplayMismatch`] when a launch to replay is not the
    ///   recorded one.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        observer: &mut dyn IssueObserver,
    ) -> Result<RunStats, SimError> {
        kernel.validate().map_err(|_| SimError::EmptyLaunch)?;
        if launch.num_blocks() == 0 || launch.threads_per_block() == 0 {
            return Err(SimError::EmptyLaunch);
        }
        let wpb = launch.warps_per_block();
        if wpb > self.config.max_warps_per_sm {
            return Err(SimError::BlockTooLarge {
                warps: wpb,
                max: self.config.max_warps_per_sm,
            });
        }

        let index = self.launch_seq;
        self.launch_seq += 1;
        let follow = self.follow.as_ref().filter(|f| f.on_track);
        if let Some(f) = follow.filter(|f| !f.simulate.contains(index)) {
            return f.log.replay(
                index,
                &self.config,
                self.block_redundancy,
                kernel,
                launch,
                &mut self.global,
            );
        }
        if follow.is_none() && self.recording.is_none() {
            return self.simulate(index, kernel, launch, observer);
        }
        // Recording and following both need the words this launch changes.
        let before = self.global.clone();
        let stats = self.simulate(index, kernel, launch, observer);
        let Ok(stats) = stats else {
            self.recording = None;
            return stats;
        };
        let writes = self.global.changes_since(&before);
        if let Some(f) = self.follow.as_mut().filter(|f| f.on_track) {
            f.on_track = f.log.is_logged(
                index,
                &self.config,
                self.block_redundancy,
                kernel,
                launch,
                &writes,
            );
        }
        if let Some(log) = &mut self.recording {
            log.push(kernel, launch, writes, &stats);
        }
        Ok(stats)
    }

    /// Simulate launch `index` (already validated) cycle by cycle.
    fn simulate(
        &mut self,
        index: u32,
        kernel: &Kernel,
        launch: &LaunchConfig,
        observer: &mut dyn IssueObserver,
    ) -> Result<RunStats, SimError> {
        let wpb = launch.warps_per_block();
        observer.on_launch(index);

        let mut sms: Vec<Sm> = (0..self.config.num_sms)
            .map(|i| {
                let mut sm = Sm::new(i, self.config.clone());
                if let Some(fault) = &self.fault {
                    sm.set_fault(fault.clone());
                }
                sm
            })
            .collect();

        // Pending blocks in row-major order, handed out on demand.
        // With block redundancy, physical block `b` stands in for logical
        // block `b % num_blocks` (same ctaid, same global thread ids).
        let gx = launch.grid.0;
        let logical_blocks = launch.num_blocks();
        let total_blocks = logical_blocks * self.block_redundancy as u64;
        let mut next_block: u64 = 0;
        let assign_to = |sm: &mut Sm, next_block: &mut u64| {
            while *next_block < total_blocks && sm.can_accept(wpb) {
                let b = *next_block % logical_blocks;
                let cta = ((b % gx as u64) as u32, (b / gx as u64) as u32);
                sm.assign_block(b, cta, kernel, launch);
                *next_block += 1;
            }
        };
        // Initial distribution is round-robin — one block per SM per pass —
        // matching real hardware's breadth-first block scheduler.
        loop {
            let mut placed = false;
            for sm in &mut sms {
                if next_block < total_blocks && sm.can_accept(wpb) {
                    let b = next_block % logical_blocks;
                    let cta = ((b % gx as u64) as u32, (b / gx as u64) as u32);
                    sm.assign_block(b, cta, kernel, launch);
                    next_block += 1;
                    placed = true;
                }
            }
            if !placed || next_block >= total_blocks {
                break;
            }
        }

        let watchdog = self.config.global_latency + 10_000;
        let cycle_budget = self.config.max_cycles;
        let mut cycle: u64 = 0;
        let mut last_progress: u64 = 0;
        let mut finish: Vec<u64> = vec![0; sms.len()];
        let mut done: Vec<bool> = vec![false; sms.len()];

        loop {
            // Polled before each chip cycle, so an observer that halts
            // during cycle c (or before the launch) sees nothing past it.
            if observer.halted() {
                return Err(SimError::Stopped { cycle });
            }
            let mut any_work = false;
            for (i, sm) in sms.iter_mut().enumerate() {
                if !sm.has_work() {
                    if !done[i] && next_block >= total_blocks {
                        let drain = observer.on_sm_done(i, cycle);
                        finish[i] = cycle + drain;
                        done[i] = true;
                    }
                    continue;
                }
                any_work = true;
                let outcome = sm.step(cycle, kernel, launch, &mut self.global, observer)?;
                if outcome != StepOutcome::Idle {
                    last_progress = cycle;
                }
                if next_block < total_blocks {
                    assign_to(sm, &mut next_block);
                }
            }
            if !any_work && next_block >= total_blocks {
                break;
            }
            cycle += 1;
            if cycle.saturating_sub(last_progress) > watchdog {
                return Err(SimError::Deadlock { cycle });
            }
            if cycle_budget != 0 && cycle >= cycle_budget {
                return Err(SimError::Hang { cycle });
            }
        }
        // Report completion for SMs that finished exactly at loop exit.
        for (i, sm) in sms.iter().enumerate() {
            if !done[i] {
                debug_assert!(!sm.has_work());
                let drain = observer.on_sm_done(i, cycle);
                finish[i] = cycle + drain;
            }
        }

        let mut stats = RunStats {
            cycles: finish.iter().copied().max().unwrap_or(0),
            sm_cycles: finish,
            ..Default::default()
        };
        for sm in &sms {
            stats.add_counters(&sm.stats);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use warped_isa::{CmpOp, CmpType, KernelBuilder, SpecialReg};

    fn saxpy_kernel() -> Kernel {
        // y[i] = a*x[i] + y[i]
        let mut b = KernelBuilder::new("saxpy");
        let [tid, x, y, ax, addr_x, addr_y] = b.regs();
        b.mov(tid, SpecialReg::GlobalTid);
        b.iadd(addr_x, b.param(0), tid);
        b.iadd(addr_y, b.param(1), tid);
        b.ld_global(x, addr_x, 0);
        b.ld_global(y, addr_y, 0);
        b.fmul(ax, x, b.param(2));
        b.fadd(y, ax, y);
        b.st_global(addr_y, 0, y);
        b.build().unwrap()
    }

    #[test]
    fn saxpy_multi_block_result() {
        let mut gpu = Gpu::new(GpuConfig::small());
        let n = 256usize;
        let xb = gpu.alloc_words(n);
        let yb = gpu.alloc_words(n);
        let xs: Vec<u32> = (0..n).map(|i| (i as f32).to_bits()).collect();
        let ys: Vec<u32> = (0..n).map(|_| 1.0f32.to_bits()).collect();
        gpu.write_words(xb, &xs);
        gpu.write_words(yb, &ys);
        let launch = LaunchConfig::linear(4, 64).with_params(vec![xb, yb, 2.0f32.to_bits()]);
        let stats = gpu
            .launch(&saxpy_kernel(), &launch, &mut NullObserver)
            .unwrap();
        assert_eq!(stats.blocks, 4);
        assert!(stats.cycles > 0);
        let out = gpu.read_words(yb, n);
        for (i, w) in out.iter().enumerate() {
            assert_eq!(f32::from_bits(*w), 2.0 * i as f32 + 1.0, "element {i}");
        }
    }

    #[test]
    fn more_blocks_than_resident_capacity() {
        // 2 SMs × 8 blocks resident; 40 blocks must rotate through.
        let mut gpu = Gpu::new(GpuConfig::small());
        let n = 40 * 32;
        let buf = gpu.alloc_words(n);
        let mut b = KernelBuilder::new("fill");
        let [tid, addr] = b.regs();
        b.mov(tid, SpecialReg::GlobalTid);
        b.iadd(addr, b.param(0), tid);
        b.st_global(addr, 0, tid);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(40, 32).with_params(vec![buf]);
        let stats = gpu.launch(&kernel, &launch, &mut NullObserver).unwrap();
        assert_eq!(stats.blocks, 40);
        let out = gpu.read_words(buf, n);
        for (i, w) in out.iter().enumerate() {
            assert_eq!(*w as usize, i);
        }
    }

    #[test]
    fn empty_launch_rejected() {
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.mov(r, 0u32);
        let kernel = b.build().unwrap();
        let err = gpu
            .launch(&kernel, &LaunchConfig::linear(0, 32), &mut NullObserver)
            .unwrap_err();
        assert_eq!(err, SimError::EmptyLaunch);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.mov(r, 0u32);
        let kernel = b.build().unwrap();
        let err = gpu
            .launch(&kernel, &LaunchConfig::linear(1, 2048), &mut NullObserver)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::BlockTooLarge { warps: 64, max: 32 }
        ));
    }

    #[test]
    fn cycle_budget_trips_as_hang() {
        let mut gpu = Gpu::new(GpuConfig::small().with_cycle_budget(3));
        let n = 256usize;
        let xb = gpu.alloc_words(n);
        let yb = gpu.alloc_words(n);
        let launch = LaunchConfig::linear(4, 64).with_params(vec![xb, yb, 0]);
        let err = gpu
            .launch(&saxpy_kernel(), &launch, &mut NullObserver)
            .unwrap_err();
        assert_eq!(err, SimError::Hang { cycle: 3 });
    }

    #[test]
    fn halting_observer_stops_at_the_next_cycle_boundary() {
        use crate::observer::IssueInfo;

        /// Halts once it has seen `after` issues; records every issue
        /// cycle and the cycle of the halting issue.
        struct HaltAfter {
            after: usize,
            cycles: Vec<u64>,
            halted_at: Option<u64>,
        }
        impl IssueObserver for HaltAfter {
            fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
                self.cycles.push(info.cycle);
                if self.cycles.len() == self.after {
                    self.halted_at = Some(info.cycle);
                }
                0
            }
            fn halted(&self) -> bool {
                self.cycles.len() >= self.after
            }
        }

        let run = |after| {
            let mut gpu = Gpu::new(GpuConfig::small());
            let n = 256usize;
            let xb = gpu.alloc_words(n);
            let yb = gpu.alloc_words(n);
            let launch = LaunchConfig::linear(4, 64).with_params(vec![xb, yb, 0]);
            let mut obs = HaltAfter {
                after,
                cycles: Vec::new(),
                halted_at: None,
            };
            let res = gpu.launch(&saxpy_kernel(), &launch, &mut obs);
            (res, obs)
        };
        let (full, obs) = run(usize::MAX);
        assert!(full.is_ok(), "an observer that never halts changes nothing");
        let issues = obs.cycles.len();

        for after in [1, 5, issues / 2] {
            let (res, obs) = run(after);
            let c = obs.halted_at.expect("halts within the run");
            assert_eq!(
                res,
                Err(SimError::Stopped { cycle: c + 1 }),
                "after {after}"
            );
            assert!(
                obs.cycles.iter().all(|&x| x <= c),
                "nothing issues past the halting cycle"
            );
        }
        let (res, obs) = run(0);
        assert_eq!(res, Err(SimError::Stopped { cycle: 0 }));
        assert!(
            obs.cycles.is_empty(),
            "a halted observer stops the launch before cycle 0"
        );
    }

    /// Three launches of `y = 2x + y` over one buffer pair, each seeing
    /// the previous one's output, on a GPU set up by `configure`.
    /// Returns the launches' results, the observer's launch indices and
    /// the GPU.
    fn three_saxpys(
        configure: impl FnOnce(&mut Gpu),
    ) -> (Vec<Result<RunStats, SimError>>, Vec<u32>, Gpu) {
        struct Launches(Vec<u32>);
        impl IssueObserver for Launches {
            fn on_launch(&mut self, index: u32) {
                self.0.push(index);
            }
        }
        let mut gpu = Gpu::new(GpuConfig::small());
        configure(&mut gpu);
        let n = 64usize;
        let xb = gpu.alloc_words(n);
        let yb = gpu.alloc_words(n);
        let xs: Vec<u32> = (0..n).map(|i| (i as f32).to_bits()).collect();
        gpu.write_words(xb, &xs);
        let launch = LaunchConfig::linear(2, 32).with_params(vec![xb, yb, 2.0f32.to_bits()]);
        let mut seen = Launches(Vec::new());
        let results = (0..3)
            .map(|_| gpu.launch(&saxpy_kernel(), &launch, &mut seen))
            .collect();
        (results, seen.0, gpu)
    }

    #[test]
    fn replayed_launches_reproduce_memory_and_stats() {
        let (full, seen, mut recorder) = three_saxpys(Gpu::record_launches);
        assert_eq!(seen, vec![0, 1, 2], "observers learn each launch index");
        let log = Arc::new(recorder.take_launch_log().expect("recorded"));
        assert_eq!(log.len(), 3);
        assert!(
            recorder.take_launch_log().is_none(),
            "taking ends recording"
        );
        for until in 0..=4 {
            let (replayed, seen, gpu) =
                three_saxpys(|gpu| gpu.follow_launches(log.clone(), LaunchSet::from(until)));
            assert_eq!(replayed, full, "until {until}");
            assert_eq!(gpu.global_mem(), recorder.global_mem(), "until {until}");
            let simulated: Vec<u32> = (until.min(3)..3).collect();
            assert_eq!(seen, simulated, "replayed launches reach no observer");
        }
    }

    #[test]
    fn replaying_another_launch_is_a_typed_error() {
        let (_, _, mut recorder) = three_saxpys(Gpu::record_launches);
        let log = Arc::new(recorder.take_launch_log().unwrap());
        let mismatch = Err(SimError::ReplayMismatch { launch: 0 });

        // Another kernel.
        let mut gpu = Gpu::new(GpuConfig::small());
        gpu.follow_launches(log.clone(), LaunchSet::from(1));
        let mut b = KernelBuilder::new("other");
        let r = b.reg();
        b.mov(r, 0u32);
        let other = b.build().unwrap();
        let l = LaunchConfig::linear(2, 32).with_params(vec![0, 64, 2.0f32.to_bits()]);
        assert_eq!(gpu.launch(&other, &l, &mut NullObserver), mismatch);

        // The same kernel with other parameters.
        let mut gpu = Gpu::new(GpuConfig::small());
        gpu.follow_launches(log.clone(), LaunchSet::from(1));
        let l = LaunchConfig::linear(2, 32).with_params(vec![0, 64, 3.0f32.to_bits()]);
        assert_eq!(gpu.launch(&saxpy_kernel(), &l, &mut NullObserver), mismatch);

        // Another chip, and past the log's end.
        let (results, _, _) = three_saxpys(|gpu| {
            *gpu = Gpu::new(GpuConfig::small().with_sms(1));
            gpu.follow_launches(log.clone(), LaunchSet::from(1));
        });
        assert_eq!(results[0], mismatch);
        let mut gpu = Gpu::new(GpuConfig::small());
        gpu.follow_launches(
            Arc::new(LaunchLog::new(gpu.config(), 1)),
            LaunchSet::from(1),
        );
        assert_eq!(gpu.launch(&saxpy_kernel(), &l, &mut NullObserver), mismatch);

        // A budget is not part of a launch's identity.
        let (results, _, _) = three_saxpys(|gpu| {
            *gpu = Gpu::new(GpuConfig::small().with_cycle_budget(1 << 20));
            gpu.follow_launches(log.clone(), LaunchSet::from(3));
        });
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn generous_cycle_budget_does_not_perturb_the_run() {
        let run = |budget| {
            let mut gpu = Gpu::new(GpuConfig::small().with_cycle_budget(budget));
            let n = 64usize;
            let xb = gpu.alloc_words(n);
            let yb = gpu.alloc_words(n);
            let launch = LaunchConfig::linear(2, 32).with_params(vec![xb, yb, 0]);
            let stats = gpu.launch(&saxpy_kernel(), &launch, &mut NullObserver);
            (stats.unwrap(), gpu.read_words(yb, n))
        };
        assert_eq!(run(0), run(1 << 20));
    }

    #[test]
    fn injected_datapath_fault_corrupts_architectural_output() {
        use crate::fault::LaneFault;

        // Flip bit 0 of everything lane 5 produces after cycle 0: the
        // stored saxpy result for that lane must differ from the clean run.
        struct FlipLane5;
        impl LaneFault for FlipLane5 {
            fn corrupt(&self, _sm: usize, lane: usize, _cycle: u64, value: u32) -> u32 {
                if lane == 5 {
                    value ^ 1
                } else {
                    value
                }
            }
        }

        let run = |faulty: bool| {
            let mut gpu = Gpu::new(GpuConfig::small());
            if faulty {
                gpu.set_fault(std::sync::Arc::new(FlipLane5));
            }
            let n = 32usize;
            let xb = gpu.alloc_words(n);
            let yb = gpu.alloc_words(n);
            let xs: Vec<u32> = (0..n).map(|i| (i as f32).to_bits()).collect();
            gpu.write_words(xb, &xs);
            gpu.write_words(yb, &vec![1.0f32.to_bits(); n]);
            let launch = LaunchConfig::linear(1, 32).with_params(vec![xb, yb, 2.0f32.to_bits()]);
            gpu.launch(&saxpy_kernel(), &launch, &mut NullObserver)
                .unwrap();
            gpu.read_words(yb, n)
        };
        let clean = run(false);
        let dirty = run(true);
        assert_ne!(clean, dirty, "fault must reach architectural state");
        // Determinism: the corrupted run reproduces bit-for-bit.
        assert_eq!(dirty, run(true));
    }

    #[test]
    fn reduction_with_barriers_and_divergence() {
        // Shared-memory tree reduction of 64 values per block.
        let mut gpu = Gpu::new(GpuConfig::small());
        let n = 64usize;
        let inb = gpu.alloc_words(n);
        let outb = gpu.alloc_words(1);
        gpu.write_words(inb, &vec![1u32; n]);

        let mut b = KernelBuilder::new("reduce");
        let sh = b.alloc_shared(n);
        let [tid, v, addr, s, p, t, sh_addr, sh_addr2] = b.regs();
        b.mov(tid, SpecialReg::FlatTid);
        b.iadd(addr, b.param(0), tid);
        b.ld_global(v, addr, 0);
        b.iadd(sh_addr, tid, sh as i32);
        b.st_shared(sh_addr, 0, v);
        b.bar();
        b.mov(s, (n as u32) / 2);
        b.while_loop(
            |b| {
                b.setp(CmpOp::Gt, CmpType::U32, p, s, 0u32);
                p
            },
            |b| {
                let q = b.reg();
                b.setp(CmpOp::Lt, CmpType::U32, q, tid, s);
                b.if_then(q, |b| {
                    b.iadd(sh_addr2, sh_addr, s);
                    b.ld_shared(t, sh_addr2, 0);
                    let cur = b.reg();
                    b.ld_shared(cur, sh_addr, 0);
                    b.iadd(cur, cur, t);
                    b.st_shared(sh_addr, 0, cur);
                });
                b.bar();
                b.shr(s, s, 1u32);
            },
        );
        let zero = b.reg();
        b.setp(CmpOp::Eq, CmpType::U32, zero, tid, 0u32);
        b.if_then(zero, |b| {
            let r0 = b.reg();
            b.ld_shared(r0, sh as i32 as u32, 0);
            b.st_global(b.param(1), 0, r0);
        });
        let kernel = b.build().unwrap();

        let launch = LaunchConfig::linear(1, n as u32).with_params(vec![inb, outb]);
        gpu.launch(&kernel, &launch, &mut NullObserver).unwrap();
        assert_eq!(gpu.read_words(outb, 1)[0], n as u32);
    }
}
