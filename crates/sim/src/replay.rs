//! Launch logs: what each launch of a run did, so that a later run of
//! the same program can follow it, simulating only some of its launches
//! and replaying the others from the log.
//!
//! A launch is a pure function of the chip, the kernel, its geometry and
//! parameters, and global memory at launch time. A log entry keeps the
//! first four as the launch's identity and the memory words the launch
//! changed, with its [`RunStats`]. A following run is *on track* while
//! its memory at each launch is the recorded run's memory at that launch;
//! a launch replayed on track therefore gives exactly the memory and
//! statistics simulation would give. A simulated launch keeps the run on
//! track when it is the recorded launch and changes memory exactly as
//! the log says; otherwise the run is off track and every later launch
//! is simulated. Fault campaigns use this to simulate only the launches a
//! fault touches.

use crate::config::GpuConfig;
use crate::launch::{LaunchConfig, RunStats, SimError};
use crate::memory::GlobalMemory;
use warped_isa::Kernel;

/// A set of launch indices: the launches a run following a [`LaunchLog`]
/// simulates ([`Gpu::follow_launches`](crate::Gpu::follow_launches)).
///
/// Bit `i` stands for launch `i` below 63 and bit 63 for every launch
/// from 63 on. Past launch 62 a set therefore over-approximates: a long
/// program simulates more of its launches, never fewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaunchSet(u64);

impl LaunchSet {
    /// No launch.
    pub const EMPTY: LaunchSet = LaunchSet(0);

    /// The set holding launch `index` (and every launch from 63 on when
    /// `index` is 63 or more).
    pub fn of(index: u32) -> Self {
        LaunchSet(1 << index.min(63))
    }

    /// Whether launch `index` is in the set.
    pub fn contains(self, index: u32) -> bool {
        self.0 & LaunchSet::of(index).0 != 0
    }

    /// Whether the set holds no launch.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The set as a bit mask (bit `i` for launch `i`, bit 63 for every
    /// launch from 63 on).
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The set with bit mask `bits` (see [`LaunchSet::bits`]).
    pub fn from_bits(bits: u64) -> Self {
        LaunchSet(bits)
    }
}

impl From<u32> for LaunchSet {
    /// Launch `first` and every later launch: the run replays the prefix
    /// `0..first` and simulates the rest.
    fn from(first: u32) -> Self {
        LaunchSet(u64::MAX << first.min(63))
    }
}

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
/// [`Gpu::record_launches`](crate::Gpu::record_launches), followed by
/// [`Gpu::follow_launches`](crate::Gpu::follow_launches).
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

    /// Append a finished launch that changed the global words `writes`.
    pub(crate) fn push(
        &mut self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        writes: Vec<(u32, u32)>,
        stats: &RunStats,
    ) {
        self.entries.push(Entry {
            kernel: kernel.clone(),
            launch: launch.clone(),
            writes,
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

    /// Entry `index`, if it records this launch: the same kernel,
    /// geometry, parameters and chip.
    fn entry(
        &self,
        index: u32,
        chip: &GpuConfig,
        block_redundancy: u32,
        kernel: &Kernel,
        launch: &LaunchConfig,
    ) -> Option<&Entry> {
        self.entries.get(index as usize).filter(|e| {
            e.kernel == *kernel
                && e.launch == *launch
                && block_redundancy == self.block_redundancy
                && unbudgeted(chip) == self.chip
        })
    }

    /// Whether launch `index`, which changed the global words `writes`,
    /// is the recorded launch and changed memory exactly as it did.
    pub(crate) fn is_logged(
        &self,
        index: u32,
        chip: &GpuConfig,
        block_redundancy: u32,
        kernel: &Kernel,
        launch: &LaunchConfig,
        writes: &[(u32, u32)],
    ) -> bool {
        self.entry(index, chip, block_redundancy, kernel, launch)
            .is_some_and(|e| e.writes == writes)
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
        let entry = self
            .entry(index, chip, block_redundancy, kernel, launch)
            .ok_or(mismatch.clone())?;
        for &(addr, value) in &entry.writes {
            global.write(addr, value).map_err(|_| mismatch.clone())?;
        }
        Ok(entry.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_sets_saturate_at_launch_63() {
        let s62 = LaunchSet::of(62);
        assert!(s62.contains(62));
        assert!(!s62.contains(61) && !s62.contains(63) && !s62.contains(1000));
        // Launch 63 stands for every later launch, with no shift overflow.
        for index in [63, 64, 1000, u32::MAX] {
            let s = LaunchSet::of(index);
            assert_eq!(s, LaunchSet::of(63), "{index}");
            assert!(s.contains(63) && s.contains(64) && s.contains(1000));
            assert!(!s.contains(62));
            assert_eq!(LaunchSet::from(index), s, "launches from {index}");
        }
        let from62 = LaunchSet::from(62);
        assert_eq!(from62.bits(), 0b11 << 62);
        assert!(from62.contains(62) && from62.contains(1000) && !from62.contains(61));
        assert!(LaunchSet::from(0).contains(0) && LaunchSet::EMPTY.is_empty());
        assert_eq!(LaunchSet::from_bits(s62.bits()), s62);
    }
}
