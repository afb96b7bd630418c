//! Paper Fig. 9b: kernel cycles under Warped-DMR, normalized to the
//! unprotected baseline, as the ReplayQ size sweeps 0 / 1 / 5 / 10.

use crate::experiments::runs::{Chip, RunKey, Runs};
use warped_core::DmrConfig;
use warped_kernels::Benchmark;
use warped_stats::Table;

/// The ReplayQ sizes of Fig. 9b.
pub const REPLAYQ_SIZES: [usize; 4] = [0, 1, 5, 10];

/// One benchmark's four bars of Fig. 9b.
#[derive(Debug, Clone, Copy)]
pub struct Fig9bRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Unprotected kernel cycles.
    pub base_cycles: u64,
    /// Normalized cycles for ReplayQ sizes 0, 1, 5, 10.
    pub normalized: [f64; 4],
}

impl Fig9bRow {
    /// Overhead (fraction above 1.0) at the given sweep index.
    pub fn overhead(&self, idx: usize) -> f64 {
        self.normalized[idx] - 1.0
    }
}

/// The Warped-DMR run of each sweep point.
fn sweep_key(entries: usize) -> RunKey {
    RunKey::Dmr(Chip::Configured, DmrConfig::default().with_replayq(entries))
}

/// The runs Fig. 9b reads: the unprotected baseline the sweep
/// normalizes against, then one Warped-DMR run per ReplayQ size.
pub fn keys() -> Vec<RunKey> {
    let mut keys = vec![RunKey::Bare(Chip::Configured)];
    keys.extend(REPLAYQ_SIZES.map(sweep_key));
    keys
}

/// Fig. 9b from planned runs: kernel cycles per ReplayQ size,
/// normalized to the unprotected run.
pub fn build(runs: &Runs) -> (Vec<Fig9bRow>, Table) {
    let rows = Benchmark::ALL
        .map(|bench| {
            let cycles = |key: &RunKey| runs.get(bench, key).stats.cycles;
            let base_cycles = cycles(&RunKey::Bare(Chip::Configured)).max(1);
            Fig9bRow {
                benchmark: bench,
                base_cycles,
                normalized: REPLAYQ_SIZES
                    .map(|q| cycles(&sweep_key(q)) as f64 / base_cycles as f64),
            }
        })
        .to_vec();
    let mut table = Table::new(vec![
        "benchmark",
        "base cycles",
        "Q=0",
        "Q=1",
        "Q=5",
        "Q=10",
    ]);
    for r in &rows {
        let mut cells = vec![r.benchmark.name().to_string(), r.base_cycles.to_string()];
        cells.extend(r.normalized.iter().map(|n| format!("{n:.3}")));
        table.row(cells);
    }
    let mut avg_cells = vec!["AVERAGE".to_string(), String::new()];
    avg_cells.extend(averages(&rows).map(|avg| format!("{avg:.3}")));
    table.row(avg_cells);
    (rows, table)
}

/// Average normalized cycles per ReplayQ size — the paper's
/// 1.41 / 1.32 / 1.24 / 1.16 series.
pub fn averages(rows: &[Fig9bRow]) -> [f64; 4] {
    let n = rows.len().max(1) as f64;
    std::array::from_fn(|i| rows.iter().map(|r| r.normalized[i]).sum::<f64>() / n)
}
