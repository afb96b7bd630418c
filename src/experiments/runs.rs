//! The run plan of the figures and suite-wide ablations. Each table lists
//! the runs it reads as [`RunKey`]s; [`Runs::simulate`] simulates each
//! distinct (benchmark, run) once, checks it against the CPU reference
//! and keeps what the tables read of it. Every statistic of a bare run
//! comes from that one run, as a simulator feeds its counters in a pass.

use crate::experiments::{ExperimentConfig, ExperimentError};
use warped_baselines::{r_thread_gpu, Dmtr, ResidueChecker, ResidueStats};
use warped_core::{DmrConfig, DmrReport, WarpedDmr};
use warped_kernels::{Benchmark, Footprint};
use warped_sim::collectors::{
    ActiveThreadCollector, RawDistanceCollector, TypeSwitchCollector, UnitTypeCollector,
};
use warped_sim::{GpuConfig, MultiObserver, NullObserver, RunStats, SchedulerPolicy};

/// The chip a bare or Warped-DMR run simulates: the configured one, or a
/// variant of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chip {
    /// The configured chip.
    Configured,
    /// The configured chip under this warp-scheduler policy.
    Scheduler(SchedulerPolicy),
    /// The configured chip with Fermi's second warp scheduler.
    DualIssue,
}

impl Chip {
    /// This chip made from the configured `gpu`.
    pub fn resolve(self, gpu: &GpuConfig) -> GpuConfig {
        match self {
            Chip::Configured => gpu.clone(),
            Chip::Scheduler(policy) => gpu.clone().with_scheduler(policy),
            Chip::DualIssue => gpu.clone().with_dual_issue(),
        }
    }
}

/// One way to run a benchmark for a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunKey {
    /// Unprotected on this chip, carrying the Fig. 1/5/8 [`Collectors`].
    Bare(Chip),
    /// Under Warped-DMR with this configuration on this chip.
    Dmr(Chip, DmrConfig),
    /// Unprotected with every thread block launched twice (R-Thread).
    RThread,
    /// Under dual modular temporal redundancy.
    Dmtr,
    /// Under the mod-3 residue checker (paper §6).
    Residue,
}

impl RunKey {
    /// The run `self` names on the configured `gpu`: the key on
    /// [`Chip::Configured`] and the chip it resolves to. Two keys are
    /// one run when these agree, however they name the chip.
    fn resolve(&self, gpu: &GpuConfig) -> (RunKey, GpuConfig) {
        let (key, chip) = match self {
            RunKey::Bare(chip) => (RunKey::Bare(Chip::Configured), chip),
            RunKey::Dmr(chip, dmr) => (RunKey::Dmr(Chip::Configured, dmr.clone()), chip),
            other => (other.clone(), &Chip::Configured),
        };
        (key, chip.resolve(gpu))
    }
}

/// The passive statistics of a bare run (Fig. 1, 5, 8a, 8b). None
/// charges a stall, so together they see the issue stream of a run with
/// no observer at all.
#[derive(Debug, Clone, Default)]
pub struct Collectors {
    /// Active threads per issue (Fig. 1).
    pub active: ActiveThreadCollector,
    /// Issues per execution-unit type (Fig. 5).
    pub units: UnitTypeCollector,
    /// Cycles between unit-type switches (Fig. 8a).
    pub switches: TypeSwitchCollector,
    /// RAW dependency distances (Fig. 8b).
    pub raw: RawDistanceCollector,
}

impl Collectors {
    /// One observer feeding all four collectors.
    pub fn observer(&mut self) -> MultiObserver<'_> {
        let mut all = MultiObserver::new();
        all.push(&mut self.active)
            .push(&mut self.units)
            .push(&mut self.switches)
            .push(&mut self.raw);
        all
    }
}

/// What the tables read of one checked run; its output is dropped.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    /// Statistics over all launches.
    pub(crate) stats: RunStats,
    /// The Warped-DMR ledger of a [`RunKey::Dmr`] run.
    pub(crate) report: Option<DmrReport>,
    /// The issue-stream statistics of a [`RunKey::Bare`] run.
    collectors: Option<Collectors>,
    /// The residue checker's coverage of a [`RunKey::Residue`] run.
    residue: Option<ResidueStats>,
}

/// The checked runs of every benchmark under each distinct planned key.
#[derive(Debug, Clone)]
pub struct Runs {
    gpu: GpuConfig,
    keys: Vec<RunKey>,
    footprints: Vec<Footprint>,
    /// Benchmark-major: `Benchmark::ALL[b]` under `keys[k]` is
    /// `runs[b * keys.len() + k]`.
    runs: Vec<Run>,
}

impl Runs {
    /// Build every benchmark once, then simulate and check it under each
    /// distinct run of `keys`, one job per run on `cfg.runner()`. Keys
    /// whose chips resolve alike against `cfg.gpu` are one run.
    ///
    /// # Errors
    ///
    /// The first workload, simulator or result-check error, in benchmark
    /// then key order.
    pub fn simulate(cfg: &ExperimentConfig, keys: &[RunKey]) -> Result<Runs, ExperimentError> {
        let (mut distinct, mut resolved) = (Vec::new(), Vec::new());
        for key in keys {
            let run = key.resolve(&cfg.gpu);
            if !resolved.contains(&run) {
                distinct.push(key.clone());
                resolved.push(run);
            }
        }
        let runner = cfg.runner();
        let workloads = runner.try_map(Benchmark::ALL, |bench| bench.build(cfg.size))?;
        let jobs = workloads
            .iter()
            .flat_map(|w| resolved.iter().map(move |run| (w, run)));
        let runs = runner.try_map(jobs, |(w, (key, gpu))| -> Result<Run, ExperimentError> {
            let (mut report, mut collectors, mut residue) = (None, None, None);
            let run = match key {
                RunKey::Bare(_) => {
                    let mut c = Collectors::default();
                    let run = w.run_with(gpu, &mut c.observer())?;
                    collectors = Some(c);
                    run
                }
                RunKey::Dmr(_, dmr) => {
                    let mut engine = WarpedDmr::new(dmr.clone(), gpu);
                    let run = w.run_with(gpu, &mut engine)?;
                    report = Some(engine.report());
                    run
                }
                RunKey::RThread => w.run_on(&mut r_thread_gpu(gpu), &mut NullObserver)?,
                RunKey::Dmtr => w.run_with(gpu, &mut Dmtr::new())?,
                RunKey::Residue => {
                    let mut checker = ResidueChecker::new();
                    let run = w.run_with(gpu, &mut checker)?;
                    residue = Some(checker.stats);
                    run
                }
            };
            w.check(&run)?;
            Ok(Run {
                stats: run.stats,
                report,
                collectors,
                residue,
            })
        })?;
        Ok(Runs {
            gpu: cfg.gpu.clone(),
            keys: distinct,
            footprints: workloads.iter().map(|w| w.footprint()).collect(),
            runs,
        })
    }

    /// The configured chip every [`Chip`] was made from.
    pub(crate) fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The distinct runs simulated, each as first planned: each ran once
    /// per benchmark.
    pub fn keys(&self) -> &[RunKey] {
        &self.keys
    }

    /// Host↔device transfer volume of `bench`.
    pub(crate) fn footprint(&self, bench: Benchmark) -> Footprint {
        self.footprints[index(bench)]
    }

    /// The run of `bench` under `key`, or under any key that resolves
    /// to the same run.
    ///
    /// # Panics
    ///
    /// If the plan did not include `key`: a table read a run it did not
    /// declare. So do [`collectors`](Self::collectors),
    /// [`report`](Self::report) and [`residue`](Self::residue).
    pub(crate) fn get(&self, bench: Benchmark, key: &RunKey) -> &Run {
        let run = key.resolve(&self.gpu);
        let mut planned = self.keys.iter().map(|k| k.resolve(&self.gpu));
        let k = planned.position(|planned| planned == run);
        let k = k.unwrap_or_else(|| panic!("run {key:?} was not planned"));
        &self.runs[index(bench) * self.keys.len() + k]
    }

    /// The issue-stream statistics of `bench`'s bare run on `chip`.
    pub(crate) fn collectors(&self, bench: Benchmark, chip: Chip) -> &Collectors {
        let run = self.get(bench, &RunKey::Bare(chip));
        run.collectors.as_ref().expect("a bare run has collectors")
    }

    /// The Warped-DMR ledger of `bench` under `dmr` on the configured chip.
    pub(crate) fn report(&self, bench: Benchmark, dmr: &DmrConfig) -> &DmrReport {
        let run = self.get(bench, &RunKey::Dmr(Chip::Configured, dmr.clone()));
        run.report.as_ref().expect("a Warped-DMR run has a report")
    }

    /// The residue checker's coverage of `bench`.
    pub(crate) fn residue(&self, bench: Benchmark) -> ResidueStats {
        let run = self.get(bench, &RunKey::Residue);
        run.residue.expect("a residue run has residue statistics")
    }
}

fn index(bench: Benchmark) -> usize {
    let b = Benchmark::ALL.iter().position(|&b| b == bench);
    b.expect("Benchmark::ALL lists every benchmark")
}
