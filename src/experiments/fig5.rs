//! Paper Fig. 5: execution-time breakdown by instruction (unit) type.

use crate::experiments::runs::{Chip, RunKey, Runs};
use warped_isa::UnitType;
use warped_kernels::Benchmark;
use warped_stats::Table;

/// One benchmark's bar of Fig. 5.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Fraction of instructions on SPs.
    pub sp: f64,
    /// Fraction on SFUs.
    pub sfu: f64,
    /// Fraction on LD/ST units.
    pub ldst: f64,
}

/// The runs Fig. 5 reads: the bare run's unit mix.
pub fn keys() -> Vec<RunKey> {
    vec![RunKey::Bare(Chip::Configured)]
}

/// Fig. 5 from planned runs: issued instructions by unit.
pub fn build(runs: &Runs) -> (Vec<Fig5Row>, Table) {
    let rows = Benchmark::ALL
        .map(|bench| {
            let c = &runs.collectors(bench, Chip::Configured).units;
            Fig5Row {
                benchmark: bench,
                sp: c.fraction(UnitType::Sp),
                sfu: c.fraction(UnitType::Sfu),
                ldst: c.fraction(UnitType::LdSt),
            }
        })
        .to_vec();
    let mut table = Table::new(vec!["benchmark", "SP (%)", "SFU (%)", "LD/ST (%)"]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            format!("{:.1}", 100.0 * r.sp),
            format!("{:.1}", 100.0 * r.sfu),
            format!("{:.1}", 100.0 * r.ldst),
        ]);
    }
    (rows, table)
}
