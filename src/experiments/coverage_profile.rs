//! Coverage by warp utilization (paper §3.3 / §5.2): *where* the
//! coverage gaps of Fig. 9a come from.
//!
//! The paper's analysis: intra-warp DMR covers 100% when active ≤ half
//! the warp; above that it degrades toward `#inactive / #active`; fully
//! utilized warps are handed to inter-warp DMR, which always reaches
//! 100%. This harness slices measured coverage by the Fig. 1 activity
//! buckets and shows exactly that profile — e.g. CUFFT's loss lives
//! entirely in the 22–31 bucket.

use crate::experiments::runs::{Chip, RunKey, Runs};
use warped_core::DmrConfig;
use warped_kernels::Benchmark;
use warped_stats::Table;

/// One benchmark's coverage-by-utilization profile.
#[derive(Debug, Clone, Copy)]
pub struct ProfileRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Coverage % per bucket (1 / 2-11 / 12-21 / 22-31 / 32); `None`
    /// where the benchmark never issued in that bucket.
    pub per_bucket: [Option<f64>; 5],
    /// Overall coverage %.
    pub overall: f64,
}

/// Bucket labels matching paper Fig. 1.
pub const BUCKET_LABELS: [&str; 5] = ["1", "2-11", "12-21", "22-31", "32"];

/// The runs the profile reads: the paper's best configuration.
pub fn keys() -> Vec<RunKey> {
    vec![RunKey::Dmr(Chip::Configured, DmrConfig::default())]
}

/// The profile from planned runs: coverage per activity bucket over the
/// whole suite.
pub fn build(runs: &Runs) -> (Vec<ProfileRow>, Table) {
    let rows = Benchmark::ALL
        .map(|bench| {
            let r = runs.report(bench, &DmrConfig::default());
            ProfileRow {
                benchmark: bench,
                per_bucket: std::array::from_fn(|i| {
                    (r.bucket_total[i] > 0).then(|| r.bucket_coverage_pct(i))
                }),
                overall: r.coverage_pct(),
            }
        })
        .to_vec();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(BUCKET_LABELS.iter().map(|l| format!("{l} (%)")));
    headers.push("overall (%)".to_string());
    let mut table = Table::new(headers);
    for r in &rows {
        let mut cells = vec![r.benchmark.name().to_string()];
        cells.extend(
            r.per_bucket
                .iter()
                .map(|b| b.map_or("-".to_string(), |v| format!("{v:.1}"))),
        );
        cells.push(format!("{:.2}", r.overall));
        table.row(cells);
    }
    (rows, table)
}

/// The §3.3 theory in closed form: expected intra-warp coverage fraction
/// for `active` active threads of a 32-lane warp under ideal (balanced)
/// pairing.
pub fn theoretical_intra_coverage(active: u32) -> f64 {
    if active == 0 {
        return 0.0;
    }
    let idle = 32u32.saturating_sub(active);
    if active <= idle {
        1.0
    } else {
        idle as f64 / active as f64
    }
}
