//! Paper Fig. 11: power and energy of Warped-DMR normalized to the
//! unprotected baseline.

use crate::experiments::runs::{Chip, RunKey, Runs};
use warped_core::DmrConfig;
use warped_kernels::Benchmark;
use warped_power::{estimate, PowerParams};
use warped_stats::Table;

/// One benchmark's two bars of Fig. 11.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Total power with Warped-DMR / without.
    pub power_ratio: f64,
    /// Energy with Warped-DMR / without.
    pub energy_ratio: f64,
}

/// The runs Fig. 11 reads: unprotected and under the default
/// Warped-DMR configuration.
pub fn keys() -> Vec<RunKey> {
    let dmr = RunKey::Dmr(Chip::Configured, DmrConfig::default());
    vec![RunKey::Bare(Chip::Configured), dmr]
}

/// Fig. 11 from planned runs: power and energy with Warped-DMR against
/// without.
pub fn build(runs: &Runs) -> (Vec<Fig11Row>, Table) {
    let params = PowerParams::default();
    let gpu = runs.gpu();
    let dmr = DmrConfig::default();
    let rows = Benchmark::ALL
        .map(|bench| {
            let base_run = runs.get(bench, &RunKey::Bare(Chip::Configured));
            let base = estimate(&base_run.stats, gpu, &params, None);
            let dmr_run = runs.get(bench, &RunKey::Dmr(Chip::Configured, dmr.clone()));
            let with = estimate(&dmr_run.stats, gpu, &params, dmr_run.report.as_ref());
            Fig11Row {
                benchmark: bench,
                power_ratio: with.power_ratio(&base),
                energy_ratio: with.energy_ratio(&base),
            }
        })
        .to_vec();
    let mut table = Table::new(vec!["benchmark", "power ratio", "energy ratio"]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            format!("{:.3}", r.power_ratio),
            format!("{:.3}", r.energy_ratio),
        ]);
    }
    let (power, energy) = averages(&rows);
    table.row(vec![
        "AVERAGE".to_string(),
        format!("{power:.3}"),
        format!("{energy:.3}"),
    ]);
    (rows, table)
}

/// Average `(power, energy)` ratios — the paper's (1.11, 1.31) pair.
pub fn averages(rows: &[Fig11Row]) -> (f64, f64) {
    let n = rows.len().max(1) as f64;
    (
        rows.iter().map(|r| r.power_ratio).sum::<f64>() / n,
        rows.iter().map(|r| r.energy_ratio).sum::<f64>() / n,
    )
}
