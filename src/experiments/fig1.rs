//! Paper Fig. 1: execution-time breakdown by number of active threads.

use crate::experiments::runs::{Chip, RunKey, Runs};
use warped_kernels::Benchmark;
use warped_stats::Table;

/// One benchmark's bar of Fig. 1.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// `(bucket label, fraction of issued instructions)` in the paper's
    /// bucket order (1, 2-11, 12-21, 22-31, 32).
    pub fractions: Vec<(String, f64)>,
}

impl Fig1Row {
    /// Fraction of instructions issued by fully-utilized warps.
    pub fn full_fraction(&self) -> f64 {
        self.fractions.last().map(|(_, f)| *f).unwrap_or(0.0)
    }
}

/// The runs Fig. 1 reads: the bare run's active-thread histogram.
pub fn keys() -> Vec<RunKey> {
    vec![RunKey::Bare(Chip::Configured)]
}

/// Fig. 1 from planned runs: active-thread counts per issue.
pub fn build(runs: &Runs) -> (Vec<Fig1Row>, Table) {
    let rows = Benchmark::ALL
        .map(|bench| {
            let active = &runs.collectors(bench, Chip::Configured).active;
            Fig1Row {
                benchmark: bench,
                fractions: active.histogram().fractions(),
            }
        })
        .to_vec();
    let labels: Vec<String> = rows[0].fractions.iter().map(|(l, _)| l.clone()).collect();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(labels.iter().map(|l| format!("{l} (%)")));
    let mut table = Table::new(headers);
    for r in &rows {
        let mut cells = vec![r.benchmark.name().to_string()];
        cells.extend(r.fractions.iter().map(|(_, f)| format!("{:.1}", 100.0 * f)));
        table.row(cells);
    }
    (rows, table)
}
