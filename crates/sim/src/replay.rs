//! Launch logs: what each launch of a run did, so that a later run of
//! the same program can replay a prefix of its launches instead of
//! simulating them.
//!
//! A launch is a pure function of the chip, the kernel, its geometry and
//! parameters, and global memory at launch time. A log entry keeps the
//! first four as the launch's identity and the memory words the launch
//! changed, with its [`RunStats`]. A run whose launches `0..k` see the
//! same memory as the recorded run's therefore gets, from each replayed
//! launch, exactly the memory and statistics simulation would give.
//! Fault campaigns use this to start every trial at the first launch its
//! fault can touch.

use crate::config::GpuConfig;
use crate::launch::{LaunchConfig, RunStats, SimError};
use crate::memory::GlobalMemory;
use warped_isa::Kernel;

/// One recorded launch.
#[derive(Debug, Clone)]
struct Entry {
    kernel: Kernel,
    launch: LaunchConfig,
    /// `(address, value)` of every global word the launch changed.
    writes: Vec<(u32, u32)>,
    stats: RunStats,
}

/// The launches of one run, in launch order: recorded by
/// [`Gpu::record_launches`](crate::Gpu::record_launches), replayed by
/// [`Gpu::replay_launches`](crate::Gpu::replay_launches).
#[derive(Debug, Clone)]
pub struct LaunchLog {
    /// The recording chip with its cycle budget cleared: a budget never
    /// changes a launch that finished, so a replay under another budget
    /// is still exact.
    chip: GpuConfig,
    block_redundancy: u32,
    entries: Vec<Entry>,
}

/// `config` without its cycle budget.
fn unbudgeted(config: &GpuConfig) -> GpuConfig {
    GpuConfig {
        max_cycles: 0,
        ..config.clone()
    }
}

impl LaunchLog {
    pub(crate) fn new(chip: &GpuConfig, block_redundancy: u32) -> Self {
        LaunchLog {
            chip: unbudgeted(chip),
            block_redundancy,
            entries: Vec::new(),
        }
    }

    /// Append a finished launch that turned `before` into `after`.
    pub(crate) fn push(
        &mut self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        before: &GlobalMemory,
        after: &GlobalMemory,
        stats: &RunStats,
    ) {
        self.entries.push(Entry {
            kernel: kernel.clone(),
            launch: launch.clone(),
            writes: after.changes_since(before),
            stats: stats.clone(),
        });
    }

    /// Launches recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no launch was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replay launch `index` into `global`: check that the launch is the
    /// recorded one, apply its memory changes and return its statistics.
    pub(crate) fn replay(
        &self,
        index: u32,
        chip: &GpuConfig,
        block_redundancy: u32,
        kernel: &Kernel,
        launch: &LaunchConfig,
        global: &mut GlobalMemory,
    ) -> Result<RunStats, SimError> {
        let mismatch = SimError::ReplayMismatch { launch: index };
        let entry = self.entries.get(index as usize).ok_or(mismatch.clone())?;
        if entry.kernel != *kernel
            || entry.launch != *launch
            || block_redundancy != self.block_redundancy
            || unbudgeted(chip) != self.chip
        {
            return Err(mismatch);
        }
        for &(addr, value) in &entry.writes {
            global.write(addr, value).map_err(|_| mismatch.clone())?;
        }
        Ok(entry.stats.clone())
    }
}
