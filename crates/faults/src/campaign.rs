//! Monte-Carlo fault-injection campaigns.
//!
//! Each trial injects one fault into a protected run and records whether
//! the DMR comparator caught it. Transient detection rates validate the
//! analytic coverage of paper Fig. 9a; stuck-at campaigns demonstrate the
//! lane-shuffling claim of §3.2 (same-core verification hides permanent
//! faults).
//!
//! ## Parallelism and determinism
//!
//! Trials are grouped into fixed-size chunks (see
//! [`CampaignOptions::chunk_trials`]) and the chunks run through a
//! [`warped_runner::Runner`]. Chunk `c` owns a private `StdRng` seeded
//! `seed ^ c`, and chunk boundaries depend only on the chunk size —
//! never on the worker count — so a campaign's result is bit-identical
//! at any `--threads` setting.

use crate::resilient::{draw_fault, golden_profile, DrawnFault, FaultSiteClass};
use rand::rngs::StdRng;
use rand::SeedableRng;
use warped_baselines::Dmtr;
use warped_core::{DmrConfig, WarpedDmr};
use warped_kernels::Workload;
use warped_runner::Runner;
use warped_sim::{GpuConfig, SimError};

/// Default reservoir capacity of the profiling sampler: enough sites
/// for statistically tight campaigns on every suite benchmark while
/// keeping the profiling pass cheap.
pub const DEFAULT_SAMPLER_CAPACITY: usize = 4096;

/// Default trials per RNG chunk. Small enough that modest campaigns
/// still spread across workers, large enough that per-chunk seeding
/// stays a rounding error of total cost.
pub const DEFAULT_CHUNK_TRIALS: u32 = 8;

/// Tuning knobs of a campaign (the Monte-Carlo geometry, not the fault
/// model). [`Default`] gives the documented constants and sizes the
/// worker pool like every other layer
/// ([`warped_runner::default_threads`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Reservoir capacity of the profiling
    /// [`ExecutionSampler`](crate::injector::ExecutionSampler)
    /// (default [`DEFAULT_SAMPLER_CAPACITY`]).
    pub sampler_capacity: usize,
    /// Trials per seeding chunk (default [`DEFAULT_CHUNK_TRIALS`]).
    /// Changing this changes which faults a seed draws; changing the
    /// thread count never does.
    pub chunk_trials: u32,
    /// Worker threads running trial chunks concurrently.
    pub threads: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            sampler_capacity: DEFAULT_SAMPLER_CAPACITY,
            chunk_trials: DEFAULT_CHUNK_TRIALS,
            threads: warped_runner::default_threads(),
        }
    }
}

impl CampaignOptions {
    /// A copy with the given worker count (zero clamps to one).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Which engine protects the runs of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Warped-DMR with the given behaviour baked into its `DmrConfig`.
    WarpedDmr,
    /// The DMTR baseline (core affinity — same-lane verification).
    Dmtr,
}

/// Outcome of a campaign.
///
/// The legacy detection campaigns ([`transient_campaign`],
/// [`stuck_at_campaign`]) populate `trials`/`detected` only; the
/// resilient campaigns ([`crate::resilient::resilient_campaign`])
/// classify every trial into the full masked/detected/SDC/hang
/// taxonomy and additionally record the planned-vs-completed gap when
/// chunks were skipped after exhausting their retry budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Faults injected (trials that actually completed).
    pub trials: u32,
    /// Trials the comparator caught (or that trapped: DUE).
    pub detected: u32,
    /// Trials whose output was bit-identical to golden.
    pub masked: u32,
    /// Silent data corruptions (clean completion, wrong output).
    pub sdc: u32,
    /// Trials that exceeded their cycle/wall budget undetected.
    pub hangs: u32,
    /// Trials the campaign planned (`trials + skipped`); zero in
    /// legacy campaigns, which never skip.
    pub planned: u32,
    /// Trials lost to chunks that exhausted their retry budget.
    pub skipped: u32,
}

impl CampaignResult {
    /// Detected fraction in percent (of completed trials).
    pub fn detection_rate_pct(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            100.0 * self.detected as f64 / self.trials as f64
        }
    }

    /// Completed-trial count for one outcome class.
    pub fn count(&self, class: crate::outcome::TrialOutcome) -> u32 {
        use crate::outcome::TrialOutcome;
        match class {
            TrialOutcome::Masked => self.masked,
            TrialOutcome::Detected => self.detected,
            TrialOutcome::Sdc => self.sdc,
            TrialOutcome::Hang => self.hangs,
        }
    }

    /// The interval denominator: planned trials when known (resilient
    /// campaigns), completed trials otherwise.
    pub fn denominator(&self) -> u32 {
        if self.planned > 0 {
            self.planned
        } else {
            self.trials
        }
    }

    /// Observed rate of one class, in percent of the denominator.
    pub fn rate_pct(&self, class: crate::outcome::TrialOutcome) -> f64 {
        let n = self.denominator();
        if n == 0 {
            0.0
        } else {
            100.0 * f64::from(self.count(class)) / f64::from(n)
        }
    }

    /// 95% Wilson interval for one class's rate, in percent.
    ///
    /// Skipped trials widen the interval pessimistically: each one
    /// *might* have landed in this class, so the lower bound assumes
    /// none did and the upper bound assumes all did. With nothing
    /// skipped this is the plain Wilson interval.
    pub fn interval_pct(&self, class: crate::outcome::TrialOutcome) -> (f64, f64) {
        let n = self.denominator();
        let c = self.count(class);
        let (lo, _) = crate::outcome::wilson_interval(c, n);
        let (_, hi) = crate::outcome::wilson_interval(c.saturating_add(self.skipped).min(n), n);
        (100.0 * lo, 100.0 * hi)
    }
}

/// Run one detection trial. Warped-DMR sees the drawn fault on its
/// mapped physical lane; DMTR has no lane mapping, so it sees the fault
/// on the thread's own lane.
fn run_protected(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    fault: &DrawnFault,
) -> Result<bool, SimError> {
    match protection {
        Protection::WarpedDmr => {
            let mut engine = WarpedDmr::with_oracle(dmr.clone(), gpu, Box::new(fault.detect));
            workload.run_with(gpu, &mut engine)?;
            Ok(engine.errors().any())
        }
        Protection::Dmtr => {
            let mut engine = Dmtr::with_oracle(Box::new(fault.arch));
            workload.run_with(gpu, &mut engine)?;
            Ok(engine.errors().any())
        }
    }
}

/// Profile once, then run `trials` injected simulations in parallel
/// chunks (chunk `c` reseeds `seed ^ c`; results are summed in chunk
/// order, so the outcome is independent of the worker count).
#[allow(clippy::too_many_arguments)]
fn chunked_campaign(
    class: FaultSiteClass,
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    trials: u32,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<CampaignResult, SimError> {
    let (_, sampler) = golden_profile(workload, gpu, dmr, protection, seed, opts.sampler_capacity)?;
    let samples = sampler.samples();
    if samples.is_empty() || trials == 0 {
        return Ok(CampaignResult::default());
    }
    let chunk = opts.chunk_trials.max(1);
    let chunks = trials.div_ceil(chunk);
    let per_chunk =
        Runner::new(opts.threads).try_map(0..chunks, |c| -> Result<CampaignResult, SimError> {
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(c));
            let mut result = CampaignResult::default();
            for _ in 0..chunk.min(trials - c * chunk) {
                let fault = draw_fault(class, samples, dmr, &mut rng);
                result.trials += 1;
                if run_protected(workload, gpu, dmr, protection, &fault)? {
                    result.detected += 1;
                }
            }
            Ok(result)
        })?;
    Ok(per_chunk
        .into_iter()
        .fold(CampaignResult::default(), |mut acc, r| {
            acc.trials += r.trials;
            acc.detected += r.detected;
            acc
        }))
}

/// Inject `trials` transient bit flips at sampled execution sites and
/// count detections, with default [`CampaignOptions`].
///
/// # Errors
///
/// Propagates simulator errors from the profiling or injected runs.
pub fn transient_campaign(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    trials: u32,
    seed: u64,
) -> Result<CampaignResult, SimError> {
    transient_campaign_with(
        workload,
        gpu,
        dmr,
        protection,
        trials,
        seed,
        &CampaignOptions::default(),
    )
}

/// [`transient_campaign`] with explicit [`CampaignOptions`].
///
/// # Errors
///
/// Propagates simulator errors from the profiling or injected runs.
pub fn transient_campaign_with(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    trials: u32,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<CampaignResult, SimError> {
    chunked_campaign(
        FaultSiteClass::LaneTransient,
        workload,
        gpu,
        dmr,
        protection,
        trials,
        seed,
        opts,
    )
}

/// Inject `trials` permanent stuck-at faults on lanes that demonstrably
/// execute work, and count detections, with default [`CampaignOptions`].
///
/// # Errors
///
/// Propagates simulator errors.
pub fn stuck_at_campaign(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    trials: u32,
    seed: u64,
) -> Result<CampaignResult, SimError> {
    stuck_at_campaign_with(
        workload,
        gpu,
        dmr,
        protection,
        trials,
        seed,
        &CampaignOptions::default(),
    )
}

/// [`stuck_at_campaign`] with explicit [`CampaignOptions`].
///
/// # Errors
///
/// Propagates simulator errors.
pub fn stuck_at_campaign_with(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    trials: u32,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<CampaignResult, SimError> {
    chunked_campaign(
        FaultSiteClass::LaneStuckAt,
        workload,
        gpu,
        dmr,
        protection,
        trials,
        seed,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_kernels::{Benchmark, WorkloadSize};

    #[test]
    fn transients_on_fully_covered_workload_are_all_detected() {
        // MatrixMul is 100% covered by inter-warp DMR: every injected
        // transient must be caught.
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let r = transient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            Protection::WarpedDmr,
            6,
            11,
        )
        .unwrap();
        assert_eq!(r.trials, 6);
        assert_eq!(
            r.detection_rate_pct(),
            100.0,
            "detected {}/{}",
            r.detected,
            r.trials
        );
    }

    #[test]
    fn stuck_at_hidden_by_dmtr_but_caught_by_warped_dmr() {
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let dmr = DmrConfig::default();
        let warped = stuck_at_campaign(&w, &gpu, &dmr, Protection::WarpedDmr, 4, 3).unwrap();
        assert_eq!(
            warped.detection_rate_pct(),
            100.0,
            "lane shuffling must expose stuck-at faults ({}/{})",
            warped.detected,
            warped.trials
        );
        let dmtr = stuck_at_campaign(&w, &gpu, &dmr, Protection::Dmtr, 4, 3).unwrap();
        assert_eq!(
            dmtr.detected, 0,
            "core affinity hides permanent faults on full warps"
        );
    }

    #[test]
    fn detection_rate_tracks_coverage_on_partially_covered_workload() {
        // CUFFT never fills its warps (blockDim 24), so only intra-warp
        // DMR applies. Cross mapping covers one of every three active
        // lanes of the 24-wide masks: detection must be partial.
        let gpu = GpuConfig::small();
        let w = Benchmark::Fft.build(WorkloadSize::Tiny).unwrap();
        let cfg = DmrConfig::default();
        let r = transient_campaign(&w, &gpu, &cfg, Protection::WarpedDmr, 12, 1234).unwrap();
        assert!(r.detected > 0, "some transients detected");
        assert!(
            r.detected < r.trials,
            "partially covered FFT cannot catch everything ({}/{})",
            r.detected,
            r.trials
        );

        // And in-order mapping on contiguous masks catches ~nothing --
        // the motivation for the paper's cross mapping.
        let in_order = DmrConfig::baseline_in_order();
        let r2 = transient_campaign(&w, &gpu, &in_order, Protection::WarpedDmr, 12, 1234).unwrap();
        assert!(
            r2.detected <= r.detected,
            "in-order {} should not beat cross {}",
            r2.detected,
            r.detected
        );
    }

    #[test]
    fn empty_campaign_is_zero() {
        assert_eq!(CampaignResult::default().detection_rate_pct(), 0.0);
    }
}
