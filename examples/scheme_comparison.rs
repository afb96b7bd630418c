//! Compare all five error-detection schemes (paper Fig. 10) on one
//! benchmark, with the kernel / PCIe-transfer breakdown.
//!
//! ```text
//! cargo run --release --example scheme_comparison [benchmark]
//! ```

use warped::baselines::{run_scheme, PcieModel, SchemeKind};
use warped::dmr::DmrConfig;
use warped::kernels::{Benchmark, WorkloadSize};
use warped::sim::{GpuConfig, NullObserver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "MatrixMul".to_string());
    let bench = Benchmark::from_name(&name).ok_or_else(|| format!("unknown benchmark {name}"))?;

    let gpu = GpuConfig {
        num_sms: 4,
        ..GpuConfig::default()
    };
    let w = bench.build(WorkloadSize::Small)?;
    let pcie = PcieModel::default();
    let dmr = DmrConfig::default();

    println!("benchmark: {bench}");
    println!(
        "{:12} {:>12} {:>12} {:>12} {:>10}",
        "scheme", "kernel (us)", "xfer (us)", "total (us)", "vs orig"
    );
    // Original and R-Naive price the same unprotected run: simulate it once.
    let bare = w.run_with(&gpu, &mut NullObserver)?;
    let price_bare = |kind: SchemeKind| kind.price(bare.stats.cycles, &w.footprint(), &gpu, &pcie);
    let orig = price_bare(SchemeKind::Original);
    for kind in SchemeKind::ALL {
        let e = match kind {
            SchemeKind::Original | SchemeKind::RNaive => price_bare(kind),
            _ => run_scheme(kind, &w, &gpu, &dmr, &pcie)?,
        };
        println!(
            "{:12} {:>12.1} {:>12.1} {:>12.1} {:>9.2}x",
            kind.name(),
            e.kernel_ns / 1000.0,
            e.transfer_ns / 1000.0,
            e.total_ns() / 1000.0,
            e.total_ns() / orig.total_ns(),
        );
    }
    println!(
        "\nR-Naive pays double transfers and kernels; R-Thread hides only on idle SMs;\n\
         DMTR halves throughput; Warped-DMR detects opportunistically (paper §5.3)."
    );
    Ok(())
}
