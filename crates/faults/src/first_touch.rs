//! The first launch at which each drawn fault can act, recorded once per
//! campaign from a fault-free run, so that every trial pass can start at
//! that launch and replay the earlier ones (see [`crate::resilient`]).
//!
//! A drawn fault acts only through two hooks: the simulator's datapath
//! hook ([`LaneFault::corrupt`], the architectural pass) and the
//! protection engine's [`FaultOracle`] (the detection pass). A lane fault
//! keys both on `(sm, lane, cycle)` when it is a transient and on
//! `(sm, lane)` when it is stuck-at. The recording run attaches identity
//! hooks that note, per watched key, the first launch that calls them
//! with it. Until that launch the fault transforms nothing, so a trial's
//! launches before it are the fault-free launches.
//!
//! Only the keys the campaign's trials will look up are watched, so
//! memory stays proportional to the distinct drawn strikes.

use crate::model::FaultModel;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;
use warped_core::{FaultOracle, LaneSite};
use warped_sim::{IssueObserver, LaneFault, WARP_SIZE};

/// The hook a fault key is looked up through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hook {
    /// The simulator's datapath ([`LaneFault`], logical lanes).
    Arch,
    /// The protection engine's [`FaultOracle::transform`].
    Detect,
}

/// A key no launch touched.
const NEVER: u32 = u32::MAX;

fn never() -> [AtomicU32; WARP_SIZE] {
    std::array::from_fn(|_| AtomicU32::new(NEVER))
}

/// Keep the first launch that touched `cell`. Launches only grow, so the
/// first store is final.
fn touch(cell: &AtomicU32, launch: u32) {
    if cell.load(Relaxed) == NEVER {
        cell.store(launch, Relaxed);
    }
}

/// The watched keys of one hook and their first-touch launches, per lane.
struct Table {
    /// A bit per hash bucket of the watched strikes: most hook calls are
    /// at an unwatched `(sm, cycle)` and stop at one bit test.
    filter: Vec<u64>,
    /// Watched transient strikes `(sm, cycle)`, sorted.
    strikes: Vec<(usize, u64)>,
    /// Per watched strike.
    at_strike: Vec<[AtomicU32; WARP_SIZE]>,
    /// Per SM, at any cycle; empty unless a stuck-at key is watched.
    any_cycle: Vec<[AtomicU32; WARP_SIZE]>,
}

/// Filter bucket of a strike, for a filter of `buckets` (a power of two).
fn bucket(sm: usize, cycle: u64, buckets: usize) -> usize {
    (cycle as usize ^ sm.wrapping_mul(0x9e37_79b9)) & (buckets - 1)
}

impl Table {
    fn new(strikes: &BTreeSet<(usize, u64)>, stuck_sms: usize) -> Self {
        // About 64 buckets per strike keeps false hits near 1.5%.
        let buckets = (strikes.len() * 64).next_power_of_two().max(64);
        let mut filter = vec![0u64; buckets / 64];
        for &(sm, cycle) in strikes {
            let b = bucket(sm, cycle, buckets);
            filter[b / 64] |= 1 << (b % 64);
        }
        Table {
            filter,
            strikes: strikes.iter().copied().collect(),
            at_strike: strikes.iter().map(|_| never()).collect(),
            any_cycle: (0..stuck_sms).map(|_| never()).collect(),
        }
    }

    fn record(&self, site: LaneSite, cycle: u64, launch: u32) {
        if let Some(lanes) = self.any_cycle.get(site.sm) {
            touch(&lanes[site.lane], launch);
        }
        let b = bucket(site.sm, cycle, self.filter.len() * 64);
        if self.filter[b / 64] & (1 << (b % 64)) == 0 {
            return;
        }
        if let Ok(i) = self.strikes.binary_search(&(site.sm, cycle)) {
            touch(&self.at_strike[i][site.lane], launch);
        }
    }

    fn first(&self, fault: &FaultModel) -> Option<u32> {
        let cell = match *fault {
            FaultModel::TransientFlip { site, cycle, .. } => self
                .strikes
                .binary_search(&(site.sm, cycle))
                .ok()
                .map(|i| &self.at_strike[i][site.lane]),
            FaultModel::StuckAt { site, .. } => {
                self.any_cycle.get(site.sm).map(|lanes| &lanes[site.lane])
            }
        };
        // An unwatched key has no bound: start at launch 0.
        let launch = cell.map_or(0, |c| c.load(Relaxed));
        (launch != NEVER).then_some(launch)
    }
}

/// The first launch at which each watched fault key is touched, per hook.
pub(crate) struct FirstTouch {
    /// The launch being simulated.
    launch: AtomicU32,
    /// Per [`Hook`]; `None` when the hook has no watched key.
    tables: [Option<Table>; 2],
}

impl FirstTouch {
    /// An index for a chip of `sms` SMs watching `keys`.
    pub(crate) fn new(sms: usize, keys: impl IntoIterator<Item = (Hook, FaultModel)>) -> Arc<Self> {
        let mut strikes: [BTreeSet<(usize, u64)>; 2] = Default::default();
        let mut stuck = [false; 2];
        let mut watched = [false; 2];
        for (hook, fault) in keys {
            let h = hook as usize;
            watched[h] = true;
            match fault {
                FaultModel::TransientFlip { site, cycle, .. } => {
                    strikes[h].insert((site.sm, cycle));
                }
                FaultModel::StuckAt { .. } => stuck[h] = true,
            }
        }
        let table =
            |h: usize| watched[h].then(|| Table::new(&strikes[h], if stuck[h] { sms } else { 0 }));
        Arc::new(FirstTouch {
            launch: AtomicU32::new(0),
            tables: [table(0), table(1)],
        })
    }

    /// Whether any key is watched through `hook`.
    pub(crate) fn watches(&self, hook: Hook) -> bool {
        self.tables[hook as usize].is_some()
    }

    fn record(&self, hook: Hook, site: LaneSite, cycle: u64) {
        if let Some(table) = &self.tables[hook as usize] {
            table.record(site, cycle, self.launch.load(Relaxed));
        }
    }

    /// The first launch in which `fault` can change a value through
    /// `hook`: `None` when no launch reaches its key, `Some(0)` when the
    /// key was not watched.
    pub(crate) fn first(&self, hook: Hook, fault: &FaultModel) -> Option<u32> {
        self.tables[hook as usize]
            .as_ref()
            .map_or(Some(0), |t| t.first(fault))
    }
}

/// The recording hooks of a fault-free run: the datapath hook for the
/// GPU, the oracle for the protection engine, and the observer that
/// tells both which launch is running. None of them changes a value.
pub(crate) struct Recorder(pub(crate) Arc<FirstTouch>);

impl LaneFault for Recorder {
    fn corrupt(&self, sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
        self.0.record(Hook::Arch, LaneSite { sm, lane }, cycle);
        value
    }
}

impl FaultOracle for Recorder {
    fn transform(&self, site: LaneSite, cycle: u64, value: u32) -> u32 {
        self.0.record(Hook::Detect, site, cycle);
        value
    }
}

impl IssueObserver for Recorder {
    fn on_launch(&mut self, index: u32) {
        self.0.launch.store(index, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITE: LaneSite = LaneSite { sm: 1, lane: 7 };

    fn transient(site: LaneSite, cycle: u64) -> FaultModel {
        FaultModel::TransientFlip {
            site,
            cycle,
            bit: 0,
        }
    }

    #[test]
    fn keeps_the_first_launch_per_hook_and_key() {
        let stuck = FaultModel::StuckAt {
            site: SITE,
            bit: 3,
            value: true,
        };
        let lane8 = LaneSite { sm: 1, lane: 8 };
        let index = FirstTouch::new(
            2,
            [
                (Hook::Arch, transient(SITE, 40)),
                (Hook::Arch, transient(SITE, 40)),
                (Hook::Arch, stuck),
                (Hook::Arch, transient(LaneSite { sm: 0, lane: 7 }, 9)),
                (Hook::Detect, transient(lane8, 40)),
            ],
        );
        let mut rec = Recorder(index.clone());
        assert_eq!(index.first(Hook::Arch, &stuck), None, "nothing ran yet");
        assert_eq!(index.first(Hook::Arch, &transient(SITE, 40)), None);

        rec.on_launch(2);
        assert_eq!(rec.corrupt(1, 7, 40, 5), 5, "recording changes nothing");
        rec.on_launch(3);
        rec.corrupt(1, 7, 40, 5);
        rec.corrupt(1, 7, 41, 5);
        assert_eq!(rec.transform(lane8, 40, 6), 6);
        rec.transform(SITE, 40, 6);

        assert_eq!(index.first(Hook::Arch, &transient(SITE, 40)), Some(2));
        assert_eq!(index.first(Hook::Arch, &stuck), Some(2));
        assert_eq!(index.first(Hook::Detect, &transient(lane8, 40)), Some(3));
        let sm0 = transient(LaneSite { sm: 0, lane: 7 }, 9);
        assert_eq!(index.first(Hook::Arch, &sm0), None);
        // Unwatched keys have no bound.
        assert_eq!(index.first(Hook::Arch, &transient(SITE, 41)), Some(0));
        assert_eq!(index.first(Hook::Detect, &stuck), Some(0));
        assert!(index.watches(Hook::Detect));
        let arch_only = FirstTouch::new(2, [(Hook::Arch, stuck)]);
        assert!(!arch_only.watches(Hook::Detect));
        assert_eq!(arch_only.first(Hook::Detect, &stuck), Some(0));
    }
}
