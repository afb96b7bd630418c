//! Fault trials start each pass at a launch boundary with a fresh
//! protection engine, replaying the earlier launches. That is exact only
//! if neither engine carries verification state across a boundary: the
//! Replay Checker's RF slot and ReplayQ, and DMTR's pending slots, all
//! drain when an SM finishes. Pinned here after every launch of every
//! suite kernel.

use warped::baselines::Dmtr;
use warped::dmr::checker::CheckerSnapshot;
use warped::dmr::{DmrConfig, WarpedDmr};
use warped::kernels::{Benchmark, WorkloadSize};
use warped::sim::{GpuConfig, IssueInfo, IssueObserver};

/// Forwards to `engine` and checks `drained` at every launch boundary.
struct AtBoundaries<'a, E> {
    engine: &'a mut E,
    drained: fn(&E) -> bool,
    name: &'static str,
    boundaries: u32,
}

impl<E: IssueObserver> IssueObserver for AtBoundaries<'_, E> {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        self.engine.on_issue(info)
    }

    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        self.engine.on_idle(sm_id, cycle);
    }

    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        self.engine.on_sm_done(sm_id, cycle)
    }

    fn on_launch(&mut self, index: u32) {
        if index > 0 {
            assert!(
                (self.drained)(self.engine),
                "{}: state left over before launch {index}",
                self.name
            );
            self.boundaries += 1;
        }
    }
}

/// Run `bench` under `engine`, checking `drained` after every launch.
fn check<E: IssueObserver>(bench: Benchmark, engine: &mut E, drained: fn(&E) -> bool) {
    let gpu = GpuConfig::small();
    let w = bench.build(WorkloadSize::Tiny).unwrap();
    let mut watch = AtBoundaries {
        engine,
        drained,
        name: bench.name(),
        boundaries: 0,
    };
    let run = w.run_with(&gpu, &mut watch).unwrap();
    assert_eq!(watch.boundaries + 1, run.launches, "{bench}");
    assert!(
        drained(watch.engine),
        "{bench}: state left after the last launch"
    );
}

#[test]
fn replay_checkers_are_empty_after_every_launch() {
    for bench in Benchmark::ALL {
        let mut engine = WarpedDmr::new(DmrConfig::default(), &GpuConfig::small());
        check(bench, &mut engine, |e| {
            e.checkers()
                .iter()
                .all(|c| c.snapshot() == CheckerSnapshot::default())
        });
    }
}

#[test]
fn dmtr_holds_no_pending_slot_after_any_launch() {
    for bench in Benchmark::ALL {
        check(bench, &mut Dmtr::new(), |d| d.pending() == 0);
    }
}
