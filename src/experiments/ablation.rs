//! Ablations of the design choices DESIGN.md calls out: which DMR
//! mechanism earns the coverage, what lane shuffling buys, what the warp
//! scheduler does to instruction-type runs, and how duty-cycled
//! (Sampling-)DMR trades coverage for overhead.

use crate::experiments::faults_exp::complete_campaign;
use crate::experiments::{ExperimentConfig, ExperimentError};
use warped_baselines::ResidueChecker;
use warped_core::{DmrConfig, SamplingConfig, SamplingDmr, WarpedDmr};
use warped_faults::{FaultSiteClass, ResilientOptions};
use warped_isa::UnitType;
use warped_kernels::{Benchmark, WorkloadSize};
use warped_sim::collectors::TypeSwitchCollector;
use warped_sim::{GpuConfig, NullObserver, SchedulerPolicy};
use warped_stats::Table;

/// Mechanism ablation: coverage with both mechanisms, intra-warp only,
/// and inter-warp only.
#[derive(Debug, Clone, Copy)]
pub struct MechanismRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Both mechanisms (the paper's design).
    pub both: f64,
    /// Intra-warp DMR alone.
    pub intra_only: f64,
    /// Inter-warp DMR alone.
    pub inter_only: f64,
    /// Mod-3 residue checking (paper §6 alternative) — the fraction of
    /// executions that even *have* a residue identity.
    pub residue: f64,
}

/// Run the mechanism ablation over the whole suite.
///
/// # Errors
///
/// Propagates workload and simulator errors.
pub fn mechanisms(cfg: &ExperimentConfig) -> Result<(Vec<MechanismRow>, Table), ExperimentError> {
    let variants = [
        DmrConfig::default(),
        DmrConfig {
            enable_inter: false,
            ..DmrConfig::default()
        },
        DmrConfig {
            enable_intra: false,
            ..DmrConfig::default()
        },
    ];
    let rows = cfg.runner().try_map(
        Benchmark::ALL,
        |bench| -> Result<MechanismRow, ExperimentError> {
            let w = bench.build(cfg.size)?;
            let mut cov = [0.0f64; 3];
            for (i, v) in variants.iter().enumerate() {
                let mut engine = WarpedDmr::new(v.clone(), &cfg.gpu);
                let run = w.run_with(&cfg.gpu, &mut engine)?;
                w.check(&run)?;
                cov[i] = engine.report().coverage_pct();
            }
            let mut residue = ResidueChecker::new();
            let run = w.run_with(&cfg.gpu, &mut residue)?;
            w.check(&run)?;
            Ok(MechanismRow {
                benchmark: bench,
                both: cov[0],
                intra_only: cov[1],
                inter_only: cov[2],
                residue: residue.stats.coverage_pct(),
            })
        },
    )?;
    let mut table = Table::new(vec![
        "benchmark",
        "both (%)",
        "intra only (%)",
        "inter only (%)",
        "residue chk (%)",
    ]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            format!("{:.2}", r.both),
            format!("{:.2}", r.intra_only),
            format!("{:.2}", r.inter_only),
            format!("{:.2}", r.residue),
        ]);
    }
    Ok((rows, table))
}

/// Scheduler ablation: average SP-run length and Warped-DMR overhead
/// under greedy vs round-robin warp scheduling.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Mean SP run length (cycles) under greedy scheduling.
    pub greedy_sp_run: Option<f64>,
    /// Mean SP run length under loose round-robin.
    pub rr_sp_run: Option<f64>,
    /// Warped-DMR normalized cycles under greedy.
    pub greedy_overhead: f64,
    /// Warped-DMR normalized cycles under round-robin.
    pub rr_overhead: f64,
}

/// Run the scheduler ablation.
///
/// # Errors
///
/// Propagates workload and simulator errors.
pub fn scheduler(cfg: &ExperimentConfig) -> Result<(Vec<SchedulerRow>, Table), ExperimentError> {
    let rows = cfg.runner().try_map(
        Benchmark::ALL,
        |bench| -> Result<SchedulerRow, ExperimentError> {
            let w = bench.build(cfg.size)?;
            let mut per_policy = Vec::new();
            for policy in [
                SchedulerPolicy::GreedyThenOldest,
                SchedulerPolicy::LooseRoundRobin,
            ] {
                let gpu = GpuConfig {
                    scheduler: policy,
                    ..cfg.gpu.clone()
                };
                let mut switches = TypeSwitchCollector::new();
                let base = w.run_with(&gpu, &mut switches)?;
                w.check(&base)?;
                let mut engine = WarpedDmr::new(DmrConfig::default(), &gpu);
                let with = w.run_with(&gpu, &mut engine)?;
                per_policy.push((
                    switches.average(UnitType::Sp),
                    with.stats.cycles as f64 / base.stats.cycles.max(1) as f64,
                ));
            }
            Ok(SchedulerRow {
                benchmark: bench,
                greedy_sp_run: per_policy[0].0,
                rr_sp_run: per_policy[1].0,
                greedy_overhead: per_policy[0].1,
                rr_overhead: per_policy[1].1,
            })
        },
    )?;
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
    let mut table = Table::new(vec![
        "benchmark",
        "SP run, greedy",
        "SP run, round-robin",
        "overhead, greedy",
        "overhead, round-robin",
    ]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            fmt(r.greedy_sp_run),
            fmt(r.rr_sp_run),
            format!("{:.3}", r.greedy_overhead),
            format!("{:.3}", r.rr_overhead),
        ]);
    }
    Ok((rows, table))
}

/// Sampling-DMR duty sweep on one fully-utilized benchmark: coverage and
/// overhead vs duty cycle (the Nomura et al. trade-off of paper §6).
#[derive(Debug, Clone, Copy)]
pub struct SamplingRow {
    /// Duty fraction of each epoch.
    pub duty: f64,
    /// Coverage over the whole run, percent.
    pub coverage_pct: f64,
    /// Cycles normalized to the unprotected run.
    pub normalized_cycles: f64,
}

/// Run the sampling sweep over MatrixMul.
///
/// # Errors
///
/// Propagates workload and simulator errors.
pub fn sampling(cfg: &ExperimentConfig) -> Result<(Vec<SamplingRow>, Table), ExperimentError> {
    let w = Benchmark::MatrixMul.build(cfg.size)?;
    let base = w.run_with(&cfg.gpu, &mut NullObserver)?.stats.cycles.max(1);
    let mut rows = Vec::new();
    for duty in [0.1f64, 0.25, 0.5, 1.0] {
        let inner = WarpedDmr::new(DmrConfig::default(), &cfg.gpu);
        let mut s = SamplingDmr::new(inner, SamplingConfig::with_duty(2000, duty));
        let run = w.run_with(&cfg.gpu, &mut s)?;
        w.check(&run)?;
        rows.push(SamplingRow {
            duty,
            coverage_pct: s.report().overall_coverage_pct(),
            normalized_cycles: run.stats.cycles as f64 / base as f64,
        });
    }
    let mut table = Table::new(vec!["duty", "coverage (%)", "normalized cycles"]);
    for r in &rows {
        table.row(vec![
            format!("{:.2}", r.duty),
            format!("{:.2}", r.coverage_pct),
            format!("{:.3}", r.normalized_cycles),
        ]);
    }
    Ok((rows, table))
}

/// Dual-scheduler ablation (paper §2.2): Fermi's second warp scheduler
/// speeds kernels up, but heterogeneous units stay underutilized — the
/// opportunity inter-warp DMR rides on survives.
#[derive(Debug, Clone, Copy)]
pub struct DualIssueRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Kernel cycles with one scheduler.
    pub single_cycles: u64,
    /// Kernel cycles with two schedulers.
    pub dual_cycles: u64,
    /// Fraction of issuing cycles in which both schedulers fired.
    pub dual_fire_rate: f64,
}

impl DualIssueRow {
    /// Speedup from the second scheduler.
    pub fn speedup(&self) -> f64 {
        self.single_cycles as f64 / self.dual_cycles.max(1) as f64
    }
}

/// Run the dual-scheduler ablation.
///
/// # Errors
///
/// Propagates workload and simulator errors.
pub fn dual_issue(cfg: &ExperimentConfig) -> Result<(Vec<DualIssueRow>, Table), ExperimentError> {
    let rows = cfg.runner().try_map(
        Benchmark::ALL,
        |bench| -> Result<DualIssueRow, ExperimentError> {
            let w = bench.build(cfg.size)?;
            let single = w.run_with(&cfg.gpu, &mut NullObserver)?;
            w.check(&single)?;
            let dual_gpu = cfg.gpu.clone().with_dual_issue();
            let dual = w.run_with(&dual_gpu, &mut NullObserver)?;
            w.check(&dual)?;
            // An issuing cycle produced 1 or 2 instructions; dual_issues
            // counts the 2s.
            let issue_cycles = dual.stats.warp_instructions - dual.stats.dual_issues;
            Ok(DualIssueRow {
                benchmark: bench,
                single_cycles: single.stats.cycles,
                dual_cycles: dual.stats.cycles,
                dual_fire_rate: if issue_cycles == 0 {
                    0.0
                } else {
                    dual.stats.dual_issues as f64 / issue_cycles as f64
                },
            })
        },
    )?;
    let mut table = Table::new(vec![
        "benchmark",
        "cycles, 1 sched",
        "cycles, 2 sched",
        "speedup",
        "dual-fire (%)",
    ]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            r.single_cycles.to_string(),
            r.dual_cycles.to_string(),
            format!("{:.2}x", r.speedup()),
            format!("{:.1}", 100.0 * r.dual_fire_rate),
        ]);
    }
    Ok((rows, table))
}

/// Lane-shuffling ablation: stuck-at detection with and without
/// shuffling, per campaign benchmark.
///
/// # Errors
///
/// Propagates workload and simulator errors, and refuses a campaign
/// that skipped chunks ([`complete_campaign`]).
pub fn shuffling(cfg: &ExperimentConfig, trials: u32, seed: u64) -> Result<Table, ExperimentError> {
    let mut table = Table::new(vec![
        "benchmark",
        "stuck-at detected, shuffled (%)",
        "stuck-at detected, affinity (%)",
    ]);
    // Campaigns parallelize internally; keep the benchmark loop serial.
    let opts = ResilientOptions {
        detect_only: true,
        ..ResilientOptions::default().with_threads(cfg.threads)
    };
    let off_cfg = DmrConfig {
        lane_shuffle: false,
        ..DmrConfig::default()
    };
    for bench in [Benchmark::MatrixMul, Benchmark::Sha, Benchmark::Libor] {
        let w = bench.build(WorkloadSize::Tiny)?;
        let campaign = |dmr: &DmrConfig| {
            let class = FaultSiteClass::LaneStuckAt;
            complete_campaign(&w, &cfg.gpu, dmr, class, trials, seed, &opts)
        };
        let on = campaign(&DmrConfig::default())?;
        let off = campaign(&off_cfg)?;
        table.row(vec![
            bench.name().to_string(),
            format!("{:.1}", on.detection_rate_pct()),
            format!("{:.1}", off.detection_rate_pct()),
        ]);
    }
    Ok(table)
}
