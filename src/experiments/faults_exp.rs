//! Fault-injection validation: measured detection rates vs. the analytic
//! coverage of Fig. 9a, plus the §3.2 lane-shuffling demonstration.

use crate::experiments::{ExperimentConfig, ExperimentError};
use warped_core::{DmrConfig, WarpedDmr};
use warped_faults::{
    resilient_campaign, CampaignResult, FaultSiteClass, Protection, ResilientOptions,
    ResilientReport, TrialOutcome,
};
use warped_kernels::{Benchmark, Workload, WorkloadSize};
use warped_sim::GpuConfig;
use warped_stats::Table;

/// One benchmark's row of the fault-validation experiment.
#[derive(Debug, Clone, Copy)]
pub struct FaultRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Analytic coverage (Fig. 9a metric) at this size.
    pub analytic_coverage_pct: f64,
    /// Measured transient detection rate under Warped-DMR.
    pub transient_detection_pct: f64,
    /// Measured stuck-at detection rate under Warped-DMR (shuffled).
    pub stuck_detection_pct: f64,
    /// Measured stuck-at detection rate under DMTR (core affinity).
    pub dmtr_stuck_detection_pct: f64,
}

/// Benchmarks exercised by the campaign (one intra-heavy, one
/// inter-heavy, one mixed — a full sweep would re-simulate hundreds of
/// runs).
pub const CAMPAIGN_BENCHMARKS: [Benchmark; 3] =
    [Benchmark::Bfs, Benchmark::MatrixMul, Benchmark::Scan];

/// Run the campaigns. Injection always runs at `Tiny` size (each trial
/// is a full simulation); `trials` faults of each kind per benchmark.
///
/// # Errors
///
/// Propagates workload and simulator errors, and refuses a campaign
/// that skipped chunks ([`complete_campaign`]).
pub fn run(
    cfg: &ExperimentConfig,
    trials: u32,
    seed: u64,
) -> Result<(Vec<FaultRow>, Table), ExperimentError> {
    let dmr = DmrConfig::default();
    // The campaigns parallelize their trial chunks internally, so the
    // benchmark loop stays serial (no nested oversubscription).
    let opts = ResilientOptions {
        detect_only: true,
        ..ResilientOptions::default().with_threads(cfg.threads)
    };
    let dmtr = ResilientOptions {
        protection: Protection::Dmtr,
        ..opts.clone()
    };
    let mut rows = Vec::new();
    for bench in CAMPAIGN_BENCHMARKS {
        let w = bench.build(WorkloadSize::Tiny)?;
        let mut engine = WarpedDmr::new(dmr.clone(), &cfg.gpu);
        let run = w.run_with(&cfg.gpu, &mut engine)?;
        w.check(&run)?;
        let analytic = engine.report().coverage_pct();

        let campaign =
            |class, opts| complete_campaign(&w, &cfg.gpu, &dmr, class, trials, seed, opts);
        let transient = campaign(FaultSiteClass::LaneTransient, &opts)?;
        let stuck = campaign(FaultSiteClass::LaneStuckAt, &opts)?;
        let dmtr_stuck = campaign(FaultSiteClass::LaneStuckAt, &dmtr)?;

        rows.push(FaultRow {
            benchmark: bench,
            analytic_coverage_pct: analytic,
            transient_detection_pct: transient.detection_rate_pct(),
            stuck_detection_pct: stuck.detection_rate_pct(),
            dmtr_stuck_detection_pct: dmtr_stuck.detection_rate_pct(),
        });
    }
    let mut table = Table::new(vec![
        "benchmark",
        "analytic coverage (%)",
        "transient detected (%)",
        "stuck-at detected (%)",
        "DMTR stuck-at detected (%)",
    ]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            format!("{:.2}", r.analytic_coverage_pct),
            format!("{:.1}", r.transient_detection_pct),
            format!("{:.1}", r.stuck_detection_pct),
            format!("{:.1}", r.dmtr_stuck_detection_pct),
        ]);
    }
    Ok((rows, table))
}

/// Run a campaign whose rates are meaningless unless every planned
/// trial ran, such as a detection rate printed as a table cell.
///
/// # Errors
///
/// [`ExperimentError::PartialCampaign`] when chunks exhausted their
/// retry budget and were skipped, and [`ExperimentError::Campaign`]
/// when the campaign could not run at all.
pub fn complete_campaign(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    class: FaultSiteClass,
    trials: u32,
    seed: u64,
    opts: &ResilientOptions,
) -> Result<CampaignResult, ExperimentError> {
    let report = resilient_campaign(workload, gpu, dmr, class, trials, seed, opts)?;
    if report.failed_chunks.is_empty() {
        Ok(report.result)
    } else {
        Err(ExperimentError::PartialCampaign {
            bench: report.bench,
            class: class.to_string(),
            failed_chunks: report.failed_chunks,
        })
    }
}

/// One resilient campaign: `trials` faults of the given site class on
/// one benchmark, classified against a golden run into the full
/// masked / detected / SDC / hang taxonomy. Injection runs at `Tiny`
/// size, like [`run`] (a trial runs up to two simulations).
///
/// # Errors
///
/// Propagates workload errors and [`warped_faults::CampaignError`]
/// (broken golden run, unusable checkpoint journal). Chunks that
/// exhaust their retry budget are *not* errors — they surface as
/// `skipped` trials and widened intervals in the report.
pub fn resilient(
    cfg: &ExperimentConfig,
    bench: Benchmark,
    class: FaultSiteClass,
    trials: u32,
    seed: u64,
    opts: &ResilientOptions,
) -> Result<ResilientReport, ExperimentError> {
    let w = bench.build(WorkloadSize::Tiny)?;
    let dmr = DmrConfig::default();
    Ok(resilient_campaign(
        &w, &cfg.gpu, &dmr, class, trials, seed, opts,
    )?)
}

/// Render resilient-campaign reports as one table row per campaign,
/// with a 95% Wilson interval on every class rate (widened by skipped
/// trials when a chunk was dropped after exhausting its retries).
pub fn taxonomy_table(reports: &[ResilientReport]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "fault site",
        "trials",
        "skipped",
        "masked (%)",
        "detected (%)",
        "SDC (%)",
        "hang (%)",
    ]);
    for r in reports {
        let cell = |class: TrialOutcome| {
            let (lo, hi) = r.result.interval_pct(class);
            format!("{:.1} [{lo:.1}, {hi:.1}]", r.result.rate_pct(class))
        };
        table.row(vec![
            r.bench.clone(),
            r.class.to_string(),
            r.result.trials.to_string(),
            r.result.skipped.to_string(),
            cell(TrialOutcome::Masked),
            cell(TrialOutcome::Detected),
            cell(TrialOutcome::Sdc),
            cell(TrialOutcome::Hang),
        ]);
    }
    table
}
