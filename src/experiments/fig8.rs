//! Paper Fig. 8: the two factors sizing the ReplayQ — (a) instruction
//! type switching distances, (b) RAW dependency distances.

use crate::experiments::runs::{Chip, RunKey, Runs};
use warped_isa::UnitType;
use warped_kernels::Benchmark;
use warped_stats::{LogHistogram, Table};

/// The runs Fig. 8a and 8b read: the bare run's issue stream.
pub fn keys() -> Vec<RunKey> {
    vec![RunKey::Bare(Chip::Configured)]
}

/// One benchmark's bars of Fig. 8a.
#[derive(Debug, Clone, Copy)]
pub struct Fig8aRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Average cycles an SP run extends before switching unit type.
    pub sp: Option<f64>,
    /// Same for SFU runs.
    pub sfu: Option<f64>,
    /// Same for LD/ST runs.
    pub ldst: Option<f64>,
}

/// Fig. 8a from planned runs: average cycle distance before the issue
/// stream switches to a different execution-unit type.
pub fn build_switch_distances(runs: &Runs) -> (Vec<Fig8aRow>, Table) {
    let rows = Benchmark::ALL
        .map(|bench| {
            let c = &runs.collectors(bench, Chip::Configured).switches;
            Fig8aRow {
                benchmark: bench,
                sp: c.average(UnitType::Sp),
                sfu: c.average(UnitType::Sfu),
                ldst: c.average(UnitType::LdSt),
            }
        })
        .to_vec();
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
    let mut table = Table::new(vec!["benchmark", "SP", "SFU", "LD/ST"]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            fmt(r.sp),
            fmt(r.sfu),
            fmt(r.ldst),
        ]);
    }
    (rows, table)
}

/// One benchmark's series of Fig. 8b.
#[derive(Debug, Clone)]
pub struct Fig8bRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Smallest RAW distance observed (the pipeline floor, ≥ 8).
    pub min: Option<u64>,
    /// Fraction of dependencies at distance ≥ 100 cycles.
    pub frac_over_100: f64,
    /// The full log-scale histogram.
    pub histogram: LogHistogram,
}

/// Fig. 8b from planned runs: issue-to-issue RAW dependency distance
/// distribution.
pub fn build_raw_distances(runs: &Runs) -> (Vec<Fig8bRow>, Table) {
    let rows = Benchmark::ALL
        .map(|bench| {
            let c = &runs.collectors(bench, Chip::Configured).raw;
            let h = c.histogram().clone();
            Fig8bRow {
                benchmark: bench,
                min: c.min_distance(),
                // >= 100 has no exact bucket edge; >= 128 is the closest.
                frac_over_100: h.fraction_at_least(128),
                histogram: h,
            }
        })
        .to_vec();
    let mut table = Table::new(vec![
        "benchmark",
        "min",
        ">=128 cyc (%)",
        "[8,16)",
        "[16,32)",
        "[32,64)",
        "[64,128)",
        "[128,256)",
        "[256,512)",
        "[512,1024)",
        "1024+",
    ]);
    for r in &rows {
        let h = &r.histogram;
        let total = h.total().max(1) as f64;
        let pct = |b: usize| format!("{:.1}", 100.0 * h.count(b) as f64 / total);
        let tail: u64 = (10..h.num_buckets().max(10)).map(|b| h.count(b)).sum();
        table.row(vec![
            r.benchmark.name().to_string(),
            r.min.map_or("-".into(), |m| m.to_string()),
            format!("{:.1}", 100.0 * r.frac_over_100),
            pct(3),
            pct(4),
            pct(5),
            pct(6),
            pct(7),
            pct(8),
            pct(9),
            format!("{:.1}", 100.0 * tail as f64 / total),
        ]);
    }
    (rows, table)
}
