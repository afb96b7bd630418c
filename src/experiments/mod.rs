//! Experiment harnesses: one module per table/figure of the paper's
//! evaluation (see DESIGN.md §5 for the experiment index).
//!
//! Every harness returns structured results *and* a rendered
//! [`Table`](warped_stats::Table) whose rows/series match what the paper
//! plots. The `warped` CLI prints them; EXPERIMENTS.md records them.
//!
//! The figure modules ([`fig1`], [`fig5`], [`fig8`], [`fig9a`],
//! [`fig9b`], [`fig10`], [`fig11`], [`coverage_profile`]) and the
//! mechanism, scheduler and dual-scheduler [`ablation`]s simulate
//! nothing. Each lists the runs it reads as [`RunKey`](runs::RunKey)s
//! and builds its table from a [`Runs`](runs::Runs) plan. The CLI's
//! `figures`, `ablation` and `all` plan the union of their tables' keys,
//! so each distinct (benchmark, run) is simulated and checked once. The
//! sampling sweep reads its baseline there; it, lane shuffling, the
//! fault experiments, invariants and certification simulate their own
//! runs (Sampling-DMR, fault hooks, traces, other sizes).

pub mod ablation;
pub mod certify;
pub mod config_tables;
pub mod coverage_profile;
pub mod faults_exp;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig8;
pub mod fig9a;
pub mod fig9b;
pub mod invariants;
pub mod runs;

use std::error::Error;
use std::fmt;
use warped_kernels::{CheckError, WorkloadSize};
use warped_sim::{GpuConfig, SimError};

/// Anything an experiment can fail with.
#[derive(Debug)]
pub enum ExperimentError {
    /// Kernel assembly failed (a workload bug).
    Kernel(warped_isa::KernelError),
    /// The simulator rejected or aborted a run.
    Sim(SimError),
    /// A workload produced wrong results.
    Check(CheckError),
    /// A trace invariant was violated or a trace replay diverged
    /// (see [`invariants`]).
    Invariant(String),
    /// The harness was invoked wrongly: unknown command or benchmark,
    /// malformed flag value, or an inconsistent flag combination.
    Usage(String),
    /// An output artifact could not be written.
    Io {
        /// What the harness was writing.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A resilient fault campaign could not run at all (broken golden
    /// run or unusable checkpoint journal).
    Campaign(warped_faults::CampaignError),
    /// A campaign that must complete skipped chunks after they exhausted
    /// their retry budget (see [`faults_exp::complete_campaign`]).
    PartialCampaign {
        /// Benchmark name.
        bench: String,
        /// Fault-site class wire name.
        class: String,
        /// Indices of the skipped chunks.
        failed_chunks: Vec<u32>,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Kernel(e) => write!(f, "kernel assembly: {e}"),
            ExperimentError::Sim(e) => write!(f, "simulation: {e}"),
            ExperimentError::Check(e) => write!(f, "result validation: {e}"),
            ExperimentError::Invariant(msg) => write!(f, "trace invariant: {msg}"),
            ExperimentError::Usage(msg) => write!(f, "{msg}"),
            ExperimentError::Io { path, source } => write!(f, "writing {path}: {source}"),
            ExperimentError::Campaign(e) => write!(f, "fault campaign: {e}"),
            ExperimentError::PartialCampaign {
                bench,
                class,
                failed_chunks,
            } => write!(
                f,
                "fault campaign {bench}/{class}: chunks {failed_chunks:?} failed after \
                 exhausting their retries"
            ),
        }
    }
}

impl Error for ExperimentError {}

impl From<warped_isa::KernelError> for ExperimentError {
    fn from(e: warped_isa::KernelError) -> Self {
        ExperimentError::Kernel(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

impl From<CheckError> for ExperimentError {
    fn from(e: CheckError) -> Self {
        ExperimentError::Check(e)
    }
}

impl From<warped_faults::CampaignError> for ExperimentError {
    fn from(e: warped_faults::CampaignError) -> Self {
        ExperimentError::Campaign(e)
    }
}

/// Scale/chip pairing for an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Workload inputs.
    pub size: WorkloadSize,
    /// Simulated chip.
    pub gpu: GpuConfig,
    /// Worker threads for the experiment fan-out (a run plan and each
    /// other harness run their independent (benchmark, config) jobs
    /// through a [`warped_runner::Runner`] of this size). Results are collected
    /// in submission order, so output is identical for any value.
    /// Defaults to [`warped_runner::default_threads`]
    /// (`WARPED_THREADS` or the machine's available parallelism).
    pub threads: usize,
}

impl ExperimentConfig {
    /// Fast setting: small inputs on a 4-SM chip (seconds for the whole
    /// suite; the shapes already hold).
    pub fn quick() -> Self {
        ExperimentConfig {
            size: WorkloadSize::Small,
            gpu: GpuConfig {
                num_sms: 4,
                ..GpuConfig::default()
            },
            threads: warped_runner::default_threads(),
        }
    }

    /// Figure-quality setting: full inputs on the paper's 30-SM chip
    /// (paper Table 3).
    pub fn paper() -> Self {
        ExperimentConfig {
            size: WorkloadSize::Full,
            gpu: GpuConfig::paper(),
            threads: warped_runner::default_threads(),
        }
    }

    /// Test setting: tiny inputs on a 2-SM chip (unit and integration
    /// tests).
    pub fn test_tiny() -> Self {
        ExperimentConfig {
            size: WorkloadSize::Tiny,
            gpu: GpuConfig::small(),
            threads: warped_runner::default_threads(),
        }
    }

    /// A copy running the fan-out on `threads` workers (zero clamps
    /// to one).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The job runner every harness fans out through.
    pub fn runner(&self) -> warped_runner::Runner {
        warped_runner::Runner::new(self.threads)
    }
}
