//! Sampling real execution sites for fault injection.
//!
//! Transient faults only matter where computation happens. A profiling
//! run with [`ExecutionSampler`] reservoir-samples issued instructions
//! (uniformly over the whole run) so a campaign can aim its particle
//! strikes at `(SM, cycle, active thread)` triples that actually executed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use warped_sim::{IssueInfo, IssueObserver, WARP_SIZE};

/// One sampled issue event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledIssue {
    /// SM that issued.
    pub sm: usize,
    /// Issue cycle.
    pub cycle: u64,
    /// Logical active mask.
    pub mask: u32,
    /// Warp uid.
    pub warp_uid: u64,
}

impl SampledIssue {
    /// Pick a uniformly random active lane of this event's mask using
    /// the caller's generator (campaign chunks each own one, so trial
    /// streams stay independent of thread count).
    pub fn random_active_thread(&self, rng: &mut StdRng) -> usize {
        let k = rng.random_range(0..self.mask.count_ones() as usize);
        let mut seen = 0;
        for lane in 0..WARP_SIZE {
            if self.mask & (1 << lane) != 0 {
                if seen == k {
                    return lane;
                }
                seen += 1;
            }
        }
        unreachable!("mask has fewer set bits than count_ones claimed")
    }
}

/// Random bit position for an injected flip, from the caller's
/// generator.
pub fn random_bit(rng: &mut StdRng) -> u8 {
    rng.random_range(0..32) as u8
}

/// Reservoir sampler over the issue stream (only instructions that
/// produce verifiable results are eligible).
#[derive(Debug)]
pub struct ExecutionSampler {
    reservoir: Vec<SampledIssue>,
    capacity: usize,
    seen: u64,
    rng: StdRng,
}

impl ExecutionSampler {
    /// Sample up to `capacity` events, deterministically from `seed`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        ExecutionSampler {
            reservoir: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sampled events after the profiling run.
    pub fn samples(&self) -> &[SampledIssue] {
        &self.reservoir
    }

    /// Total eligible events observed.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl IssueObserver for ExecutionSampler {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        if !info.has_result || info.active_mask == 0 {
            return 0;
        }
        self.seen += 1;
        let s = SampledIssue {
            sm: info.sm_id,
            cycle: info.cycle,
            mask: info.active_mask,
            warp_uid: info.warp_uid,
        };
        if self.reservoir.len() < self.capacity {
            self.reservoir.push(s);
        } else {
            let j = self.rng.random_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.reservoir[j as usize] = s;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_kernels::{Benchmark, WorkloadSize};
    use warped_sim::GpuConfig;

    #[test]
    fn sampler_fills_from_a_real_run() {
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let mut s = ExecutionSampler::new(64, 42);
        w.run_with(&GpuConfig::small(), &mut s).unwrap();
        assert_eq!(s.samples().len(), 64);
        assert!(s.seen() > 64);
        for ev in s.samples() {
            assert_ne!(ev.mask, 0);
        }
    }

    #[test]
    fn sampler_is_seed_deterministic() {
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let mut a = ExecutionSampler::new(16, 7);
        let mut b = ExecutionSampler::new(16, 7);
        w.run_with(&GpuConfig::small(), &mut a).unwrap();
        w.run_with(&GpuConfig::small(), &mut b).unwrap();
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn random_active_thread_is_active() {
        let mut rng = StdRng::seed_from_u64(1);
        let ev = SampledIssue {
            sm: 0,
            cycle: 0,
            mask: 0b1010_1010,
            warp_uid: 0,
        };
        for _ in 0..50 {
            let t = ev.random_active_thread(&mut rng);
            assert_ne!(ev.mask & (1 << t), 0);
        }
    }

    #[test]
    fn small_runs_underfill_the_reservoir() {
        let mut s = ExecutionSampler::new(1_000_000, 3);
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        w.run_with(&GpuConfig::small(), &mut s).unwrap();
        assert_eq!(s.samples().len() as u64, s.seen());
        assert!(!s.samples().is_empty());
    }
}
