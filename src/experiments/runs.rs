//! The run plan of the figure set. Each figure lists the runs it reads as
//! [`RunKey`]s; [`Runs::simulate`] simulates each distinct (benchmark,
//! key) once, checks it against the CPU reference and keeps what the
//! figures read of it. Every statistic of the bare run comes from that
//! one run, the way a simulator feeds all its counters from one pass.

use crate::experiments::{ExperimentConfig, ExperimentError};
use warped_baselines::{r_thread_gpu, Dmtr};
use warped_core::{DmrConfig, DmrReport, WarpedDmr};
use warped_kernels::{Benchmark, Footprint};
use warped_sim::collectors::{
    ActiveThreadCollector, RawDistanceCollector, TypeSwitchCollector, UnitTypeCollector,
};
use warped_sim::{GpuConfig, MultiObserver, NullObserver, RunStats};

/// One way to run a benchmark for a figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunKey {
    /// Unprotected, carrying the Fig. 1/5/8 [`Collectors`].
    Bare,
    /// Under Warped-DMR with this configuration.
    Dmr(DmrConfig),
    /// Unprotected with every thread block launched twice (R-Thread).
    RThread,
    /// Under dual modular temporal redundancy.
    Dmtr,
}

/// The passive statistics of a bare run (Fig. 1, 5, 8a and 8b). None
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

/// What the figures read of one checked run; its output is dropped.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    /// Statistics over all launches.
    pub(crate) stats: RunStats,
    /// The Warped-DMR ledger of a [`RunKey::Dmr`] run.
    pub(crate) report: Option<DmrReport>,
    /// The issue-stream statistics of a [`RunKey::Bare`] run.
    collectors: Option<Collectors>,
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
    /// distinct key of `keys`, one job per run on `cfg.runner()`.
    ///
    /// # Errors
    ///
    /// The first workload, simulator or result-check error, in benchmark
    /// then key order.
    pub fn simulate(cfg: &ExperimentConfig, keys: &[RunKey]) -> Result<Runs, ExperimentError> {
        let mut distinct: Vec<RunKey> = Vec::new();
        for key in keys {
            if !distinct.contains(key) {
                distinct.push(key.clone());
            }
        }
        let runner = cfg.runner();
        let workloads = runner.try_map(Benchmark::ALL, |bench| bench.build(cfg.size))?;
        let jobs = workloads
            .iter()
            .flat_map(|w| distinct.iter().map(move |key| (w, key)));
        let runs = runner.try_map(jobs, |(w, key)| -> Result<Run, ExperimentError> {
            let (mut report, mut collectors) = (None, None);
            let run = match key {
                RunKey::Bare => {
                    let mut c = Collectors::default();
                    let run = w.run_with(&cfg.gpu, &mut c.observer())?;
                    collectors = Some(c);
                    run
                }
                RunKey::Dmr(dmr) => {
                    let mut engine = WarpedDmr::new(dmr.clone(), &cfg.gpu);
                    let run = w.run_with(&cfg.gpu, &mut engine)?;
                    report = Some(engine.report());
                    run
                }
                RunKey::RThread => w.run_on(&mut r_thread_gpu(&cfg.gpu), &mut NullObserver)?,
                RunKey::Dmtr => w.run_with(&cfg.gpu, &mut Dmtr::new())?,
            };
            w.check(&run)?;
            Ok(Run {
                stats: run.stats,
                report,
                collectors,
            })
        })?;
        Ok(Runs {
            gpu: cfg.gpu.clone(),
            keys: distinct,
            footprints: workloads.iter().map(|w| w.footprint()).collect(),
            runs,
        })
    }

    /// The chip every run was simulated on.
    pub(crate) fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The distinct keys simulated, in first-planned order: each ran once
    /// per benchmark.
    pub fn keys(&self) -> &[RunKey] {
        &self.keys
    }

    /// Host↔device transfer volume of `bench`.
    pub(crate) fn footprint(&self, bench: Benchmark) -> Footprint {
        self.footprints[index(bench)]
    }

    /// The run of `bench` under `key`.
    ///
    /// # Panics
    ///
    /// If the plan did not include `key`: a figure read a run it did not
    /// declare. So do [`collectors`](Self::collectors) without
    /// [`RunKey::Bare`] and [`report`](Self::report) without its
    /// [`RunKey::Dmr`].
    pub(crate) fn get(&self, bench: Benchmark, key: &RunKey) -> &Run {
        let k = self.keys.iter().position(|planned| planned == key);
        let k = k.unwrap_or_else(|| panic!("run {key:?} was not planned"));
        &self.runs[index(bench) * self.keys.len() + k]
    }

    /// The issue-stream statistics of `bench`'s bare run.
    pub(crate) fn collectors(&self, bench: Benchmark) -> &Collectors {
        let run = self.get(bench, &RunKey::Bare);
        run.collectors.as_ref().expect("a bare run has collectors")
    }

    /// The Warped-DMR ledger of `bench` under `dmr`.
    pub(crate) fn report(&self, bench: Benchmark, dmr: &DmrConfig) -> &DmrReport {
        let run = self.get(bench, &RunKey::Dmr(dmr.clone()));
        run.report.as_ref().expect("a Warped-DMR run has a report")
    }
}

fn index(bench: Benchmark) -> usize {
    let b = Benchmark::ALL.iter().position(|&b| b == bench);
    b.expect("Benchmark::ALL lists every benchmark")
}
