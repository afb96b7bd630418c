//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, fastest and slower-half repetitions, failure accounting and metric-name
//! validation.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`: the smallest value
/// with at least `p`% of the samples at or below it. `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles the tail rule may report, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_CANDIDATES`] that leaves at least
/// ten samples beyond it (`n · (1 − p/100) ≥ 10`), or `None` when even
/// the median has fewer than ten samples above it (`n < 20`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Geometric mean of the positive values of `xs`; `0.0` when there are
/// none.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Repeated timings of the same operations: every pass of a run
/// repeats each operation (cell) once. On the shared 2-vCPU machines the
/// benchmark was tuned on, the host is usually busy with other tenants
/// and now and then runs a quarter faster for some seconds; how much of
/// a run falls in such a spell varies from run to run. The end-to-end
/// figures therefore take each cell's mean over the slower half of its
/// repetitions ([`Cells::slow_half_mean_ms`]), which moved least between
/// runs: the fastest repetition moved two to three times as much, and
/// the mean of all repetitions about half as much again. The per-layer
/// figures take each cell's fastest repetition, the cost of the layer
/// with the least interference.
#[derive(Debug, Default, Clone)]
pub struct Cells {
    samples: BTreeMap<String, Vec<u64>>,
}

impl Cells {
    /// Record one repetition of `cell` taking `ns`.
    pub fn record(&mut self, cell: impl Into<String>, ns: u64) {
        self.samples.entry(cell.into()).or_default().push(ns);
    }

    /// The fastest repetition of `cell`, in ns.
    pub fn fastest(&self, cell: &str) -> Option<u64> {
        self.samples.get(cell).and_then(|v| v.iter().min().copied())
    }

    /// Every cell's fastest repetition, in ms, in cell order.
    pub fn fastest_ms(&self) -> Vec<f64> {
        self.samples
            .values()
            .filter_map(|v| v.iter().min())
            .map(|&ns| ns as f64 * 1e-6)
            .collect()
    }

    /// Every cell's mean over the slower half of its repetitions (the
    /// slower `ceil(n / 2)` of `n`), in ms, in cell order.
    pub fn slow_half_mean_ms(&self) -> Vec<f64> {
        self.samples
            .values()
            .filter(|v| !v.is_empty())
            .map(|v| {
                let mut v = v.clone();
                v.sort_unstable();
                let slow = &v[v.len() / 2..];
                slow.iter().sum::<u64>() as f64 * 1e-6 / slow.len() as f64
            })
            .collect()
    }

    /// Every repetition of every cell, in ms.
    pub fn all_ms(&self) -> Vec<f64> {
        self.samples
            .values()
            .flatten()
            .map(|&ns| ns as f64 * 1e-6)
            .collect()
    }
}

/// Operations attempted and failed over a run. Every check the
/// benchmark makes is one attempted operation; a check that does not
/// hold is one failure.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    /// Record one attempted operation that succeeded when `ok` is true.
    /// `what` describes the failure and is kept only for the first one.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    /// Record `attempted` operations of which `failed` failed.
    pub fn batch(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Record a fallible operation: an `Err` is one failure.
    pub fn result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Description of the first failure, if any.
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }

    /// `failed / attempted`; `0.0` before anything was attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a valid metric name: non-empty, at most 64
/// characters of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The chosen percentile always leaves at least ten samples above.
        for n in 20..3_000 {
            let p = tail_percentile(n).expect("n >= 20");
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = percentile(&xs, p);
            assert!(xs.iter().filter(|&&x| x > v).count() >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn geometric_mean_skips_non_positive_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0]), 0.0);
    }

    #[test]
    fn cells_keep_each_operations_fastest_and_slow_half_repetitions() {
        let mut c = Cells::default();
        for (cell, ns) in [
            ("a", 3_000_000),
            ("b", 9_000_000),
            ("a", 1_000_000),
            ("b", 4_000_000),
        ] {
            c.record(cell, ns);
        }
        c.record("a", 2_000_000);
        assert_eq!(c.fastest("a"), Some(1_000_000));
        assert_eq!(c.fastest("missing"), None);
        assert_eq!(c.fastest_ms(), vec![1.0, 4.0]);
        // a: 3, 1, 2 ms -> the slower two, 2 and 3; b: 9, 4 ms -> 9.
        assert_eq!(c.slow_half_mean_ms(), vec![2.5, 9.0]);
        assert_eq!(c.all_ms().len(), 5);
        // A single repetition is its own slower half.
        c.record("c", 5_000_000);
        assert_eq!(c.slow_half_mean_ms()[2], 5.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.check(true, || unreachable!("only failures are described"));
        t.check(false, || "first".to_string());
        t.check(false, || "second".to_string());
        assert_eq!(t.result::<u8, String>("op", Ok(1)), Some(1));
        assert_eq!(t.result::<u8, String>("op", Err("boom".to_string())), None);
        t.batch(5, 0, || unreachable!("nothing failed"));
        t.batch(0, 0, || unreachable!("nothing failed"));
        assert_eq!(t.attempted(), 10);
        assert_eq!(t.failed(), 3);
        assert_eq!(t.fail_ratio(), 0.3);
        assert_eq!(t.first_failure(), Some("first"));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "sim.bare_ms.BFS",
            "faults.golden_ms.lane_transient",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
