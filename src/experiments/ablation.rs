//! Ablations of the design choices DESIGN.md calls out: which DMR
//! mechanism earns the coverage, what lane shuffling buys, what the warp
//! scheduler does to instruction-type runs, and how duty-cycled
//! (Sampling-)DMR trades coverage for overhead.

use crate::experiments::faults_exp::complete_campaign;
use crate::experiments::runs::{Chip, RunKey, Runs};
use crate::experiments::{ExperimentConfig, ExperimentError};
use warped_core::{DmrConfig, SamplingConfig, SamplingDmr, WarpedDmr};
use warped_faults::{FaultSiteClass, ResilientOptions};
use warped_isa::UnitType;
use warped_kernels::{Benchmark, WorkloadSize};
use warped_sim::SchedulerPolicy;
use warped_stats::Table;

/// The runs `warped ablation` reads from the plan: those of the
/// mechanism, scheduler and dual-scheduler ablations and the sampling
/// sweep's unprotected baseline.
pub fn keys() -> Vec<RunKey> {
    let mut keys = [mechanism_keys(), scheduler_keys(), dual_issue_keys()].concat();
    keys.extend(sampling_keys());
    keys
}

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

/// The three Warped-DMR configurations of the mechanism ablation: both
/// mechanisms (the default), intra-warp only, inter-warp only.
fn mechanism_configs() -> [DmrConfig; 3] {
    let with = |enable_intra, enable_inter| DmrConfig {
        enable_intra,
        enable_inter,
        ..DmrConfig::default()
    };
    [with(true, true), with(true, false), with(false, true)]
}

/// The runs the mechanism ablation reads: Warped-DMR with both, the
/// intra-warp and the inter-warp mechanism, and the residue checker.
pub fn mechanism_keys() -> Vec<RunKey> {
    let dmr = mechanism_configs().map(|c| RunKey::Dmr(Chip::Configured, c));
    [&dmr[..], &[RunKey::Residue]].concat()
}

/// The mechanism ablation from planned runs.
pub fn build_mechanisms(runs: &Runs) -> (Vec<MechanismRow>, Table) {
    let rows = Benchmark::ALL
        .map(|bench| {
            let cov = mechanism_configs().map(|c| runs.report(bench, &c).coverage_pct());
            MechanismRow {
                benchmark: bench,
                both: cov[0],
                intra_only: cov[1],
                inter_only: cov[2],
                residue: runs.residue(bench).coverage_pct(),
            }
        })
        .to_vec();
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
    (rows, table)
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

/// The chip under each warp-scheduler policy the scheduler ablation
/// compares: greedy-then-oldest, then loose round-robin.
const POLICIES: [Chip; 2] = [
    Chip::Scheduler(SchedulerPolicy::GreedyThenOldest),
    Chip::Scheduler(SchedulerPolicy::LooseRoundRobin),
];

/// The runs the scheduler ablation reads: unprotected and under the
/// default Warped-DMR configuration, on the chip under each policy.
pub fn scheduler_keys() -> Vec<RunKey> {
    let runs = |chip| [RunKey::Bare(chip), RunKey::Dmr(chip, DmrConfig::default())];
    POLICIES.into_iter().flat_map(runs).collect()
}

/// The scheduler ablation from planned runs.
pub fn build_scheduler(runs: &Runs) -> (Vec<SchedulerRow>, Table) {
    let rows = Benchmark::ALL
        .map(|bench| {
            let [greedy, rr] = POLICIES.map(|chip| {
                let cycles = |key: RunKey| runs.get(bench, &key).stats.cycles;
                let base = cycles(RunKey::Bare(chip));
                let with = cycles(RunKey::Dmr(chip, DmrConfig::default()));
                (
                    runs.collectors(bench, chip).switches.average(UnitType::Sp),
                    with as f64 / base.max(1) as f64,
                )
            });
            SchedulerRow {
                benchmark: bench,
                greedy_sp_run: greedy.0,
                rr_sp_run: rr.0,
                greedy_overhead: greedy.1,
                rr_overhead: rr.1,
            }
        })
        .to_vec();
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
    (rows, table)
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

/// The run the sampling sweep reads from the plan: its unprotected
/// baseline.
pub fn sampling_keys() -> Vec<RunKey> {
    vec![RunKey::Bare(Chip::Configured)]
}

/// Run the sampling sweep over MatrixMul at `cfg.size` on the chip of
/// `runs`, normalized to its planned unprotected MatrixMul run.
///
/// # Errors
///
/// Propagates workload and simulator errors.
pub fn sampling(
    cfg: &ExperimentConfig,
    runs: &Runs,
) -> Result<(Vec<SamplingRow>, Table), ExperimentError> {
    let (gpu, w) = (runs.gpu(), Benchmark::MatrixMul.build(cfg.size)?);
    let base = runs.get(Benchmark::MatrixMul, &RunKey::Bare(Chip::Configured));
    let base = base.stats.cycles.max(1);
    let mut rows = Vec::new();
    for duty in [0.1f64, 0.25, 0.5, 1.0] {
        let inner = WarpedDmr::new(DmrConfig::default(), gpu);
        let mut s = SamplingDmr::new(inner, SamplingConfig::with_duty(2000, duty));
        let run = w.run_with(gpu, &mut s)?;
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

/// The runs the dual-scheduler ablation reads: unprotected with one
/// scheduler and with two.
pub fn dual_issue_keys() -> Vec<RunKey> {
    [Chip::Configured, Chip::DualIssue].map(RunKey::Bare).into()
}

/// The dual-scheduler ablation from planned runs.
pub fn build_dual_issue(runs: &Runs) -> (Vec<DualIssueRow>, Table) {
    let rows = Benchmark::ALL
        .map(|bench| {
            let single = &runs.get(bench, &RunKey::Bare(Chip::Configured)).stats;
            let dual = &runs.get(bench, &RunKey::Bare(Chip::DualIssue)).stats;
            // An issuing cycle produced 1 or 2 instructions; dual_issues
            // counts the 2s, so it is 0 when no cycle issued.
            let issue_cycles = dual.warp_instructions - dual.dual_issues;
            DualIssueRow {
                benchmark: bench,
                single_cycles: single.cycles,
                dual_cycles: dual.cycles,
                dual_fire_rate: dual.dual_issues as f64 / issue_cycles.max(1) as f64,
            }
        })
        .to_vec();
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
    (rows, table)
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
