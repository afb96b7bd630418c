//! The launches in which each drawn fault can act, recorded once per
//! campaign from a fault-free run, so that every trial pass simulates
//! only those launches and replays the others (see [`crate::resilient`]).
//!
//! A drawn fault's lane half acts only through [`LaneFault::corrupt`],
//! called from two places: the simulator's datapath (the architectural
//! pass, logical lanes) and the protection engine's comparator (the
//! detection pass, through its [`FaultOracle`]). A lane fault keys both
//! on `(sm, lane, cycle)` when it is a transient and on `(sm, lane)` when
//! it is stuck-at. The recording run attaches an identity [`Recorder`] at
//! each place that notes, per watched key, the set of launches that call
//! it with that key ([`LaunchSet`]; launch 63 stands for every later
//! one). In a launch outside that set the fault transforms nothing, so
//! while a trial's memory is the fault-free run's, that launch is the
//! fault-free launch.
//!
//! Only the keys the campaign's trials will look up are watched, so
//! memory stays proportional to the distinct drawn strikes.

use crate::model::FaultModel;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use warped_core::{FaultOracle, LaneSite};
use warped_sim::{IssueObserver, LaneFault, LaunchSet, WARP_SIZE};

/// The caller of [`LaneFault::corrupt`] a fault key is looked up through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hook {
    /// The simulator's datapath (logical lanes).
    Arch,
    /// The protection engine's comparator.
    Detect,
}

/// The [`LaunchSet`] bits of one key per lane, all empty.
fn untouched() -> [AtomicU64; WARP_SIZE] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// Add `launch` to the set in `cell`. A key is usually touched many
/// times per launch, so only the first touch pays the read-modify-write.
fn touch(cell: &AtomicU64, launch: u32) {
    let bit = LaunchSet::of(launch).bits();
    if cell.load(Relaxed) & bit == 0 {
        cell.fetch_or(bit, Relaxed);
    }
}

/// The watched keys of one hook and the launches that touch them, per
/// lane.
struct Table {
    /// A bit per hash bucket of the watched strikes: most hook calls are
    /// at an unwatched `(sm, cycle)` and stop at one bit test.
    filter: Vec<u64>,
    /// Watched transient strikes `(sm, cycle)`, sorted.
    strikes: Vec<(usize, u64)>,
    /// Per watched strike.
    at_strike: Vec<[AtomicU64; WARP_SIZE]>,
    /// Per SM, at any cycle; empty unless a stuck-at key is watched.
    any_cycle: Vec<[AtomicU64; WARP_SIZE]>,
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
            at_strike: strikes.iter().map(|_| untouched()).collect(),
            any_cycle: (0..stuck_sms).map(|_| untouched()).collect(),
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

    fn touches(&self, fault: &FaultModel) -> LaunchSet {
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
        // An unwatched key has no bound: every launch.
        cell.map_or(LaunchSet::from(0), |c| {
            LaunchSet::from_bits(c.load(Relaxed))
        })
    }
}

/// The launches that touch each watched fault key, per hook.
pub(crate) struct Touches {
    /// The launch being simulated.
    launch: AtomicU32,
    /// Per [`Hook`]; `None` when the hook has no watched key.
    tables: [Option<Table>; 2],
}

impl Touches {
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
        Arc::new(Touches {
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

    /// The launches in which `fault` can change a value through `hook`:
    /// empty when no launch reaches its key, every launch when the key
    /// was not watched.
    pub(crate) fn touches(&self, hook: Hook, fault: &FaultModel) -> LaunchSet {
        self.tables[hook as usize]
            .as_ref()
            .map_or(LaunchSet::from(0), |t| t.touches(fault))
    }
}

/// A recording hook of a fault-free run, noting the keys its [`Hook`]'s
/// caller passes: on the GPU for [`Hook::Arch`], as the protection
/// engine's oracle (with a healthy checker) for [`Hook::Detect`]. As an
/// observer it tells the index which launch is running. It changes no
/// value.
pub(crate) struct Recorder(pub(crate) Arc<Touches>, pub(crate) Hook);

impl LaneFault for Recorder {
    fn corrupt(&self, sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
        self.0.record(self.1, LaneSite { sm, lane }, cycle);
        value
    }
}

impl FaultOracle for Recorder {}

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

    /// The set of `launches`.
    fn set(launches: &[u32]) -> LaunchSet {
        LaunchSet::from_bits(launches.iter().fold(0, |s, &k| s | LaunchSet::of(k).bits()))
    }

    #[test]
    fn keeps_every_touching_launch_per_hook_and_key() {
        let stuck = FaultModel::StuckAt {
            site: SITE,
            bit: 3,
            value: true,
        };
        let lane8 = LaneSite { sm: 1, lane: 8 };
        let index = Touches::new(
            2,
            [
                (Hook::Arch, transient(SITE, 40)),
                (Hook::Arch, transient(SITE, 40)),
                (Hook::Arch, stuck),
                (Hook::Arch, transient(LaneSite { sm: 0, lane: 7 }, 9)),
                (Hook::Detect, transient(lane8, 40)),
            ],
        );
        let arch = Recorder(index.clone(), Hook::Arch);
        let detect = Recorder(index.clone(), Hook::Detect);
        let mut launches = Recorder(index.clone(), Hook::Arch);
        assert!(index.touches(Hook::Arch, &stuck).is_empty(), "nothing ran");
        assert!(index.touches(Hook::Arch, &transient(SITE, 40)).is_empty());

        launches.on_launch(2);
        assert_eq!(arch.corrupt(1, 7, 40, 5), 5, "recording changes nothing");
        launches.on_launch(3);
        arch.corrupt(1, 7, 41, 5);
        assert_eq!(detect.corrupt(1, 8, 40, 6), 6);
        detect.corrupt(1, 7, 40, 6);
        launches.on_launch(5);
        arch.corrupt(1, 7, 40, 5);
        detect.corrupt(1, 8, 40, 6);
        launches.on_launch(70);
        arch.corrupt(1, 7, 40, 5);

        let at40 = index.touches(Hook::Arch, &transient(SITE, 40));
        assert_eq!(at40, set(&[2, 5, 63]), "a gap at 3 and 4, and past 63");
        assert!(at40.contains(1000), "launch 63 stands for every later one");
        assert_eq!(index.touches(Hook::Arch, &stuck), set(&[2, 3, 5, 63]));
        let detect_lane8 = index.touches(Hook::Detect, &transient(lane8, 40));
        assert_eq!(detect_lane8, set(&[3, 5]));
        // Each recorder fills only its own hook's table: the datapath
        // calls at lane 7 are absent from the detection table, and the
        // comparator calls at lane 8 from the datapath one, though both
        // tables watch strike (1, 40).
        let detect_lane7 = index.touches(Hook::Detect, &transient(SITE, 40));
        assert_eq!(detect_lane7, set(&[3]));
        assert!(index.touches(Hook::Arch, &transient(lane8, 40)).is_empty());
        let sm0 = transient(LaneSite { sm: 0, lane: 7 }, 9);
        assert!(index.touches(Hook::Arch, &sm0).is_empty());
        // Unwatched keys have no bound.
        let every = LaunchSet::from(0);
        assert_eq!(index.touches(Hook::Arch, &transient(SITE, 41)), every);
        assert_eq!(index.touches(Hook::Detect, &stuck), every);
        assert!(index.watches(Hook::Detect));
        let arch_only = Touches::new(2, [(Hook::Arch, stuck)]);
        assert!(!arch_only.watches(Hook::Detect));
        assert_eq!(arch_only.touches(Hook::Detect, &stuck), every);
    }
}
