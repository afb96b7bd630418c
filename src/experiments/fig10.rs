//! Paper Fig. 10: end-to-end execution time (kernel + host↔device
//! transfers) of the five error-detection schemes.

use crate::experiments::runs::{Chip, RunKey, Runs};
use warped_baselines::{EndToEnd, PcieModel, SchemeKind};
use warped_core::DmrConfig;
use warped_kernels::Benchmark;
use warped_stats::Table;

/// One benchmark's five stacked bars of Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Kernel/transfer breakdown per scheme, in
    /// [`SchemeKind::ALL`] order.
    pub schemes: Vec<(SchemeKind, EndToEnd)>,
}

impl Fig10Row {
    /// Total time of `kind` normalized to the Original scheme.
    pub fn normalized(&self, kind: SchemeKind) -> f64 {
        let orig = self
            .schemes
            .iter()
            .find(|(k, _)| *k == SchemeKind::Original)
            .map(|(_, e)| e.total_ns())
            .unwrap_or(1.0);
        self.schemes
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, e)| e.total_ns() / orig)
            .unwrap_or(0.0)
    }
}

/// The run each scheme prices. Original and R-Naive price the one
/// unprotected run: R-Naive's second invocation is identical.
fn key(kind: SchemeKind) -> RunKey {
    match kind {
        SchemeKind::Original | SchemeKind::RNaive => RunKey::Bare(Chip::Configured),
        SchemeKind::RThread => RunKey::RThread,
        SchemeKind::Dmtr => RunKey::Dmtr,
        SchemeKind::WarpedDmr => RunKey::Dmr(Chip::Configured, DmrConfig::default()),
    }
}

/// The runs Fig. 10 reads: one per scheme.
pub fn keys() -> Vec<RunKey> {
    SchemeKind::ALL.map(key).to_vec()
}

/// Fig. 10 from planned runs: every scheme's run priced end to end.
pub fn build(runs: &Runs) -> (Vec<Fig10Row>, Table) {
    let pcie = PcieModel::default();
    let rows = Benchmark::ALL
        .map(|bench| {
            let fp = runs.footprint(bench);
            let price = |kind: SchemeKind| {
                let cycles = runs.get(bench, &key(kind)).stats.cycles;
                kind.price(cycles, &fp, runs.gpu(), &pcie)
            };
            Fig10Row {
                benchmark: bench,
                schemes: SchemeKind::ALL.map(|kind| (kind, price(kind))).to_vec(),
            }
        })
        .to_vec();
    let mut headers = vec!["benchmark".to_string()];
    for kind in SchemeKind::ALL {
        headers.push(format!("{kind} kern(us)"));
        headers.push(format!("{kind} xfer(us)"));
    }
    headers.push("Warped/Orig".to_string());
    let mut table = Table::new(headers);
    for r in &rows {
        let mut cells = vec![r.benchmark.name().to_string()];
        for (_, e) in &r.schemes {
            cells.push(format!("{:.1}", e.kernel_ns / 1000.0));
            cells.push(format!("{:.1}", e.transfer_ns / 1000.0));
        }
        cells.push(format!("{:.3}", r.normalized(SchemeKind::WarpedDmr)));
        table.row(cells);
    }
    (rows, table)
}
