//! Trial-outcome taxonomy and confidence intervals.
//!
//! Each resilient-campaign trial compares the injected run's final
//! architectural state against a fault-free golden run and lands in
//! exactly one class, following the standard GPU fault-injection
//! taxonomy (masked / DUE / SDC / hang):
//!
//! * [`TrialOutcome::Detected`] — the DMR comparator fired, or the
//!   machine trapped with a non-hang simulator error (a detected,
//!   unrecoverable error — DUE).
//! * [`TrialOutcome::Hang`] — the injected run exceeded its cycle or
//!   wall-clock budget without the checker firing.
//! * [`TrialOutcome::Sdc`] — the run completed, nothing fired, and the
//!   output differs from golden: silent data corruption.
//! * [`TrialOutcome::Masked`] — the run completed bit-identical to
//!   golden; the fault was architecturally absorbed.
//!
//! Detection takes precedence: a trial where the comparator fired is
//! `Detected` even if the run subsequently hung or corrupted output,
//! because a real deployment would have triggered recovery at the
//! detection point.
//!
//! Class rates come with Wilson score intervals ([`wilson_interval`]),
//! which stay honest at the small trial counts and extreme rates
//! (0%/100%) these campaigns routinely produce.

/// Outcome class of one fault-injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrialOutcome {
    /// Output bit-identical to the golden run.
    Masked,
    /// The checker fired (or the machine trapped): DUE.
    Detected,
    /// Silent data corruption: clean completion, wrong output.
    Sdc,
    /// Cycle/wall-clock budget exceeded without detection.
    Hang,
}

impl TrialOutcome {
    /// All classes, in declaration order (stable counter indices).
    pub const ALL: [TrialOutcome; 4] = [
        TrialOutcome::Masked,
        TrialOutcome::Detected,
        TrialOutcome::Sdc,
        TrialOutcome::Hang,
    ];

    /// Wire name (trace events, journal records, JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            TrialOutcome::Masked => "masked",
            TrialOutcome::Detected => "detected",
            TrialOutcome::Sdc => "sdc",
            TrialOutcome::Hang => "hang",
        }
    }

    /// Parse a wire name back.
    pub fn from_wire(s: &str) -> Option<TrialOutcome> {
        TrialOutcome::ALL.into_iter().find(|o| o.as_str() == s)
    }
}

impl std::fmt::Display for TrialOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Classified trial counts of a campaign.
///
/// An outcome campaign puts every completed trial in exactly one
/// class. A detection-only campaign (see
/// [`ResilientOptions::detect_only`](crate::ResilientOptions::detect_only))
/// measures only whether the comparator fired: it fills `detected` and
/// leaves the classes it never measured at zero. Either way `trials`
/// is `planned - skipped`, because a completed chunk runs all of its
/// trials.
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
    /// Trials the campaign planned (`trials + skipped`).
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
    pub fn count(&self, class: TrialOutcome) -> u32 {
        match class {
            TrialOutcome::Masked => self.masked,
            TrialOutcome::Detected => self.detected,
            TrialOutcome::Sdc => self.sdc,
            TrialOutcome::Hang => self.hangs,
        }
    }

    /// The interval denominator: planned trials when known, completed
    /// trials otherwise.
    pub fn denominator(&self) -> u32 {
        if self.planned > 0 {
            self.planned
        } else {
            self.trials
        }
    }

    /// Observed rate of one class, in percent of the denominator.
    pub fn rate_pct(&self, class: TrialOutcome) -> f64 {
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
    pub fn interval_pct(&self, class: TrialOutcome) -> (f64, f64) {
        let n = self.denominator();
        let c = self.count(class);
        let (lo, _) = wilson_interval(c, n);
        let (_, hi) = wilson_interval(c.saturating_add(self.skipped).min(n), n);
        (100.0 * lo, 100.0 * hi)
    }
}

/// z for a 95% two-sided interval.
const Z95: f64 = 1.96;

/// Wilson score interval for `successes` out of `n` Bernoulli trials at
/// 95% confidence, as `(lower, upper)` fractions in `[0, 1]`.
///
/// Unlike the normal approximation, the Wilson interval never escapes
/// `[0, 1]` and stays informative at 0 or `n` successes — exactly the
/// regimes fully-covered (100% detected) and fully-masked campaigns
/// live in. `n == 0` yields the vacuous `(0, 1)`.
pub fn wilson_interval(successes: u32, n: u32) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let s = successes.min(n);
    let n_f = f64::from(n);
    let p = f64::from(s) / n_f;
    let z2 = Z95 * Z95;
    let denom = 1.0 + z2 / n_f;
    let centre = p + z2 / (2.0 * n_f);
    let spread = Z95 * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    // At the exact extremes the algebra collapses to 0 (resp. 1) but
    // floating point leaves a stray ulp; snap so rates of exactly 0%
    // and 100% render cleanly.
    let lo = if s == 0 {
        0.0
    } else {
        ((centre - spread) / denom).max(0.0)
    };
    let hi = if s == n {
        1.0
    } else {
        ((centre + spread) / denom).min(1.0)
    };
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_campaign_is_zero() {
        assert_eq!(CampaignResult::default().detection_rate_pct(), 0.0);
    }

    #[test]
    fn wire_names_roundtrip() {
        for o in TrialOutcome::ALL {
            assert_eq!(TrialOutcome::from_wire(o.as_str()), Some(o));
            assert_eq!(format!("{o}"), o.as_str());
        }
        assert_eq!(TrialOutcome::from_wire("crash"), None);
    }

    #[test]
    fn wilson_brackets_the_point_estimate() {
        let (lo, hi) = wilson_interval(30, 100);
        assert!(lo < 0.30 && 0.30 < hi);
        assert!(lo > 0.20 && hi < 0.41, "95% interval at n=100 is tight-ish");
    }

    #[test]
    fn wilson_is_informative_at_the_extremes() {
        let (lo, hi) = wilson_interval(0, 20);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.25, "zero successes still bound above");
        let (lo, hi) = wilson_interval(20, 20);
        assert_eq!(hi, 1.0);
        assert!(lo > 0.75 && lo < 1.0, "all successes still bound below");
    }

    #[test]
    fn wilson_narrows_with_n() {
        let (lo1, hi1) = wilson_interval(5, 10);
        let (lo2, hi2) = wilson_interval(500, 1000);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn wilson_degenerate_inputs() {
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
        // successes > n clamps rather than escaping [0, 1].
        let (lo, hi) = wilson_interval(30, 20);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        assert_eq!(hi, 1.0);
    }
}
