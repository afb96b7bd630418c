//! Trace invariant suite: run every benchmark with cycle-level tracing
//! streamed into an [`InvariantSink`] and a [`MetricsSink`] at once,
//! check the Algorithm-1 invariants (I1–I5, see `docs/tracing.md`), and
//! prove the trace is *complete* by comparing the [`DmrReport`] rebuilt
//! from the metrics bit-for-bit against the live engine's.
//!
//! This is the harness that caught the two Algorithm-1 bugs this layer
//! was built for: a consumer issuing past its unverified producer in the
//! RF slot (no RAW stall — invariant I5), and verify timestamps that
//! ignored preceding RAW stalls (invariant I3).

use crate::experiments::{ExperimentConfig, ExperimentError};
use warped_core::{DmrConfig, DmrReport, WarpedDmr};
use warped_kernels::Benchmark;
use warped_stats::Table;
use warped_trace::{Fanout, InvariantSink, MetricsSink, TraceHandle};

/// One benchmark's invariant-suite result.
#[derive(Debug, Clone)]
pub struct InvariantRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Trace events streamed over the whole program (all launches).
    pub events: u64,
    /// Total verify events the live engine reported.
    pub verified: u64,
    /// Invariant violations found in the stream.
    pub violations: u64,
    /// First violation message, if any (for diagnostics).
    pub first_violation: Option<String>,
    /// Whether the [`DmrReport`] rebuilt from the [`MetricsSink`] fed the
    /// same stream reproduced the live one exactly.
    pub replay_exact: bool,
}

impl InvariantRow {
    /// Did this benchmark pass the whole suite?
    pub fn pass(&self) -> bool {
        self.violations == 0 && self.replay_exact
    }
}

/// Run one benchmark traced and check it. Used by the suite below and by
/// the CLI's single-benchmark mode.
///
/// # Errors
///
/// Propagates workload and simulator errors. Invariant violations are
/// *reported* in the row, not raised as errors — callers decide.
pub fn check_benchmark(
    bench: Benchmark,
    cfg: &ExperimentConfig,
) -> Result<InvariantRow, ExperimentError> {
    let w = bench.build(cfg.size)?;
    let mut engine = WarpedDmr::new(DmrConfig::default(), &cfg.gpu);
    let (inv, inv_h) = TraceHandle::shared(InvariantSink::new());
    let (metrics, metrics_h) = TraceHandle::shared(MetricsSink::new());
    let handle = TraceHandle::new(Fanout::new(vec![inv_h, metrics_h]));
    engine.set_trace(handle.clone());
    let run = w.run_traced(&cfg.gpu, &mut engine, handle.clone())?;
    handle.flush();
    w.check(&run)?;
    let live = engine.report();
    let inv = inv.lock().expect("invariant sink poisoned");
    let metrics = metrics.lock().expect("metrics sink poisoned");

    Ok(InvariantRow {
        benchmark: bench,
        events: metrics.events_seen,
        verified: live.checker.total_verified(),
        violations: inv.total_violations(),
        first_violation: inv.violations().first().map(|v| v.to_string()),
        replay_exact: DmrReport::from_metrics(&metrics) == live,
    })
}

/// Run the invariant suite over the whole benchmark suite.
///
/// # Errors
///
/// Propagates workload and simulator errors. Returns
/// [`ExperimentError::Invariant`] only from [`require_clean`]; this
/// function reports per-benchmark outcomes in the rows.
pub fn run(cfg: &ExperimentConfig) -> Result<(Vec<InvariantRow>, Table), ExperimentError> {
    let rows = cfg
        .runner()
        .try_map(Benchmark::ALL, |bench| check_benchmark(bench, cfg))?;
    let mut table = Table::new(vec![
        "benchmark".to_string(),
        "events".to_string(),
        "verified".to_string(),
        "violations".to_string(),
        "replay".to_string(),
        "status".to_string(),
    ]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            r.events.to_string(),
            r.verified.to_string(),
            r.violations.to_string(),
            if r.replay_exact { "exact" } else { "MISMATCH" }.to_string(),
            if r.pass() { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    Ok((rows, table))
}

/// Turn any failing row into an [`ExperimentError::Invariant`] — the
/// strict mode `scripts/lint.sh` and `warped invariants --check` use.
///
/// # Errors
///
/// Returns [`ExperimentError::Invariant`] naming the first failing
/// benchmark.
pub fn require_clean(rows: &[InvariantRow]) -> Result<(), ExperimentError> {
    for r in rows {
        if r.violations > 0 {
            return Err(ExperimentError::Invariant(format!(
                "{}: {} invariant violation(s); first: {}",
                r.benchmark.name(),
                r.violations,
                r.first_violation.as_deref().unwrap_or("(none recorded)")
            )));
        }
        if !r.replay_exact {
            return Err(ExperimentError::Invariant(format!(
                "{}: trace replay did not reproduce the live DmrReport",
                r.benchmark.name()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_tiny_is_clean_and_replay_exact() {
        let cfg = ExperimentConfig::test_tiny();
        let row = check_benchmark(Benchmark::Scan, &cfg).unwrap();
        assert!(row.events > 0);
        assert!(row.verified > 0);
        assert_eq!(row.violations, 0, "{:?}", row.first_violation);
        assert!(row.replay_exact);
        assert!(row.pass());
    }

    #[test]
    fn require_clean_flags_a_failing_row() {
        let good = InvariantRow {
            benchmark: Benchmark::Scan,
            events: 10,
            verified: 5,
            violations: 0,
            first_violation: None,
            replay_exact: true,
        };
        assert!(require_clean(std::slice::from_ref(&good)).is_ok());
        let bad = InvariantRow {
            violations: 2,
            first_violation: Some("I5: raw hazard".to_string()),
            ..good.clone()
        };
        let err = require_clean(&[bad]).unwrap_err();
        assert!(err.to_string().contains("I5"));
        let mismatch = InvariantRow {
            replay_exact: false,
            ..good
        };
        assert!(require_clean(&[mismatch]).is_err());
    }
}
