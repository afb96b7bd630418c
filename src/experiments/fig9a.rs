//! Paper Fig. 9a: error coverage under the three Warped-DMR hardware
//! configurations (4-lane clusters, 8-lane clusters, 4-lane + cross
//! thread-core mapping).

use crate::experiments::runs::{Chip, RunKey, Runs};
use warped_core::DmrConfig;
use warped_kernels::Benchmark;
use warped_stats::Table;

/// One benchmark's three bars of Fig. 9a (coverage %).
#[derive(Debug, Clone, Copy)]
pub struct Fig9aRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// 4-lane SIMT cluster, in-order thread mapping.
    pub four_lane: f64,
    /// 8-lane SIMT cluster, in-order thread mapping.
    pub eight_lane: f64,
    /// 4-lane cluster with the modified (cross) mapping — the paper's
    /// proposal.
    pub cross_mapping: f64,
    /// Share of the cross-mapping coverage owed to intra-warp DMR.
    pub intra_share: f64,
}

/// The three configurations of Fig. 9a.
pub fn configs() -> [(&'static str, DmrConfig); 3] {
    [
        ("4-lane cluster", DmrConfig::baseline_in_order()),
        ("8-lane cluster", DmrConfig::eight_lane_cluster()),
        ("cross mapping", DmrConfig::default()),
    ]
}

/// The runs Fig. 9a reads: one Warped-DMR run per configuration.
pub fn keys() -> Vec<RunKey> {
    configs()
        .map(|(_, c)| RunKey::Dmr(Chip::Configured, c))
        .into()
}

/// Fig. 9a from planned runs: coverage under each configuration.
pub fn build(runs: &Runs) -> (Vec<Fig9aRow>, Table) {
    let [four, eight, cross] = configs().map(|(_, c)| c);
    let rows = Benchmark::ALL
        .map(|bench| {
            let best = runs.report(bench, &cross);
            Fig9aRow {
                benchmark: bench,
                four_lane: runs.report(bench, &four).coverage_pct(),
                eight_lane: runs.report(bench, &eight).coverage_pct(),
                cross_mapping: best.coverage_pct(),
                intra_share: best.intra_share(),
            }
        })
        .to_vec();
    let mut table = Table::new(vec![
        "benchmark",
        "4-lane cluster (%)",
        "8-lane cluster (%)",
        "cross mapping (%)",
        "intra share (%)",
    ]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            format!("{:.2}", r.four_lane),
            format!("{:.2}", r.eight_lane),
            format!("{:.2}", r.cross_mapping),
            format!("{:.1}", 100.0 * r.intra_share),
        ]);
    }
    let (a, b, c) = averages(&rows);
    let intra = rows.iter().map(|r| r.intra_share).sum::<f64>() / rows.len() as f64;
    table.row(vec![
        "AVERAGE".to_string(),
        format!("{a:.2}"),
        format!("{b:.2}"),
        format!("{c:.2}"),
        format!("{:.1}", 100.0 * intra),
    ]);
    (rows, table)
}

/// Average coverage of each configuration across benchmarks
/// `(4-lane, 8-lane, cross)` — the paper's 89.60 / 91.91 / 96.43 triplet.
pub fn averages(rows: &[Fig9aRow]) -> (f64, f64, f64) {
    let n = rows.len().max(1) as f64;
    (
        rows.iter().map(|r| r.four_lane).sum::<f64>() / n,
        rows.iter().map(|r| r.eight_lane).sum::<f64>() / n,
        rows.iter().map(|r| r.cross_mapping).sum::<f64>() / n,
    )
}
