//! Kernel launch configuration, run statistics, and simulation errors.

use crate::config::{GpuConfig, WARP_SIZE};
use std::error::Error;
use std::fmt;
use warped_isa::Space;

/// Grid/block geometry and kernel parameters for one launch, mirroring
/// CUDA's `<<<grid, block>>>(params...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Grid dimensions (blocks), x and y.
    pub grid: (u32, u32),
    /// Block dimensions (threads), x and y.
    pub block: (u32, u32),
    /// Kernel parameters (word values: buffer bases, sizes, f32 bits),
    /// read by [`Operand::Param`](warped_isa::Operand::Param).
    pub params: Vec<u32>,
}

impl LaunchConfig {
    /// A 1-D launch: `grid_x` blocks of `block_x` threads.
    pub fn linear(grid_x: u32, block_x: u32) -> Self {
        LaunchConfig {
            grid: (grid_x, 1),
            block: (block_x, 1),
            params: Vec::new(),
        }
    }

    /// A 2-D launch.
    pub fn grid2d(grid: (u32, u32), block: (u32, u32)) -> Self {
        LaunchConfig {
            grid,
            block,
            params: Vec::new(),
        }
    }

    /// Attach kernel parameters.
    #[must_use]
    pub fn with_params(mut self, params: Vec<u32>) -> Self {
        self.params = params;
        self
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> usize {
        self.block.0 as usize * self.block.1 as usize
    }

    /// Warps per block (threads rounded up to warp granularity).
    pub fn warps_per_block(&self) -> usize {
        self.threads_per_block().div_ceil(WARP_SIZE)
    }

    /// Total blocks in the grid.
    pub fn num_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64
    }
}

/// Errors surfaced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A lane addressed memory outside its space.
    MemOutOfBounds {
        /// Which space was addressed.
        space: Space,
        /// The offending word address.
        addr: u32,
    },
    /// The block needs more warps than an SM can host.
    BlockTooLarge {
        /// Warps the block requires.
        warps: usize,
        /// Warps an SM provides.
        max: usize,
    },
    /// A launch with zero blocks or zero threads per block.
    EmptyLaunch,
    /// An instruction read a kernel parameter that was not supplied.
    MissingParam {
        /// The parameter index.
        index: u8,
    },
    /// No instruction was issued for an implausibly long time — almost
    /// always a barrier deadlock in the kernel under test.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
    /// A warp ran past the end of the kernel (defensive; validated kernels
    /// cannot reach this).
    PcOutOfRange {
        /// The bad program counter value.
        pc: u32,
    },
    /// The launch exceeded its cycle budget ([`GpuConfig::max_cycles`]).
    /// Distinct from [`SimError::Deadlock`]: the machine was still making
    /// progress, it just ran implausibly long — how an injected fault that
    /// corrupts a loop bound or branch predicate manifests.
    Hang {
        /// Cycle at which the budget tripped.
        cycle: u64,
    },
    /// The observer asked the launch to end
    /// ([`IssueObserver::halted`](crate::IssueObserver::halted)): it has
    /// seen everything it needs, so the rest of the run is not simulated.
    /// Not a machine failure; no state after this cycle exists.
    Stopped {
        /// First cycle not simulated.
        cycle: u64,
    },
    /// A launch the GPU was told to replay
    /// ([`Gpu::follow_launches`](crate::Gpu::follow_launches)) does not
    /// match the log: another kernel, geometry, parameter list or chip
    /// than the recorded launch, or an index past the log's end.
    /// Replaying it would not reproduce what the recorded run did.
    ReplayMismatch {
        /// Index of the launch in the GPU's launch sequence.
        launch: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemOutOfBounds { space, addr } => {
                write!(f, "out-of-bounds {space} access at word {addr}")
            }
            SimError::BlockTooLarge { warps, max } => {
                write!(f, "block needs {warps} warps but an SM hosts {max}")
            }
            SimError::EmptyLaunch => write!(f, "launch has no threads"),
            SimError::MissingParam { index } => {
                write!(f, "kernel read parameter {index} that was not supplied")
            }
            SimError::Deadlock { cycle } => {
                write!(f, "no progress by cycle {cycle} (barrier deadlock?)")
            }
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} past end of kernel"),
            SimError::Hang { cycle } => {
                write!(f, "launch exceeded its budget at cycle {cycle} (hang)")
            }
            SimError::Stopped { cycle } => {
                write!(f, "observer stopped the launch at cycle {cycle}")
            }
            SimError::ReplayMismatch { launch } => {
                write!(
                    f,
                    "launch {launch} does not match the launch log it replays"
                )
            }
        }
    }
}

impl Error for SimError {}

/// Aggregate statistics of one kernel execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Kernel latency in cycles: the cycle at which the last SM finished
    /// (including observer-charged drain cycles).
    pub cycles: u64,
    /// Per-SM finish cycles.
    pub sm_cycles: Vec<u64>,
    /// Warp-instructions issued.
    pub warp_instructions: u64,
    /// Thread-instructions executed (sum of active lanes over all issues).
    pub thread_instructions: u64,
    /// Issue slots in which an SM with resident work issued nothing.
    pub idle_cycles: u64,
    /// Stall cycles charged by observers (DMR machinery).
    pub stall_cycles: u64,
    /// Warp-instructions per execution-unit type, indexed by
    /// [`UnitType::index`](warped_isa::UnitType::index).
    pub unit_instructions: [u64; 3],
    /// Thread-instructions per execution-unit type.
    pub unit_thread_instructions: [u64; 3],
    /// Register-file reads (thread granularity), for the power model.
    pub reg_reads: u64,
    /// Register-file writes (thread granularity), for the power model.
    pub reg_writes: u64,
    /// Blocks executed.
    pub blocks: u64,
    /// Cycles in which an SM's two schedulers both issued
    /// (dual-issue mode only).
    pub dual_issues: u64,
}

impl RunStats {
    /// Add `other`'s counters (everything but `cycles` and
    /// `sm_cycles`) to this record's.
    pub fn add_counters(&mut self, other: &RunStats) {
        self.warp_instructions += other.warp_instructions;
        self.thread_instructions += other.thread_instructions;
        self.idle_cycles += other.idle_cycles;
        self.stall_cycles += other.stall_cycles;
        for u in 0..3 {
            self.unit_instructions[u] += other.unit_instructions[u];
            self.unit_thread_instructions[u] += other.unit_thread_instructions[u];
        }
        self.reg_reads += other.reg_reads;
        self.reg_writes += other.reg_writes;
        self.blocks += other.blocks;
        self.dual_issues += other.dual_issues;
    }

    /// Kernel wall time in nanoseconds under `config`'s clock.
    pub fn time_ns(&self, config: &GpuConfig) -> f64 {
        self.cycles as f64 * config.clock_ns
    }

    /// Warp-instructions per cycle across the chip.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_launch_geometry() {
        let l = LaunchConfig::linear(10, 256);
        assert_eq!(l.threads_per_block(), 256);
        assert_eq!(l.warps_per_block(), 8);
        assert_eq!(l.num_blocks(), 10);
    }

    #[test]
    fn grid2d_and_partial_warp() {
        let l = LaunchConfig::grid2d((5, 4), (16, 3));
        assert_eq!(l.threads_per_block(), 48);
        assert_eq!(l.warps_per_block(), 2); // 48 threads -> 1.5 warps -> 2
        assert_eq!(l.num_blocks(), 20);
    }

    #[test]
    fn stats_derivations() {
        let s = RunStats {
            cycles: 100,
            warp_instructions: 50,
            thread_instructions: 800,
            unit_instructions: [40, 5, 5],
            ..Default::default()
        };
        assert_eq!(s.ipc(), 0.5);
        let cfg = GpuConfig::default();
        assert_eq!(s.time_ns(&cfg), 125.0);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = RunStats::default();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn error_messages_render() {
        for e in [
            SimError::MemOutOfBounds {
                space: Space::Global,
                addr: 3,
            },
            SimError::BlockTooLarge { warps: 40, max: 32 },
            SimError::EmptyLaunch,
            SimError::MissingParam { index: 2 },
            SimError::Deadlock { cycle: 9 },
            SimError::PcOutOfRange { pc: 1 },
            SimError::Hang { cycle: 77 },
            SimError::Stopped { cycle: 5 },
            SimError::ReplayMismatch { launch: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
