//! Inject real faults into protected runs: transients (detected when the
//! afflicted execution is covered) and permanent stuck-at faults (hidden
//! by same-core verification, exposed by Warped-DMR's lane shuffling —
//! paper §3.2).
//!
//! ```text
//! cargo run --release --example fault_campaign [trials]
//! ```

use warped::dmr::DmrConfig;
use warped::experiments::faults_exp::complete_campaign;
use warped::faults::{FaultSiteClass, Protection, ResilientOptions};
use warped::kernels::{Benchmark, WorkloadSize};
use warped::sim::GpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trials: u32 = std::env::args()
        .nth(1)
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(10);
    let gpu = GpuConfig::small();
    let dmr = DmrConfig::default();
    let seed = 2026;
    let warped_dmr = ResilientOptions {
        detect_only: true,
        ..ResilientOptions::default()
    };
    let dmtr = ResilientOptions {
        protection: Protection::Dmtr,
        ..warped_dmr.clone()
    };

    println!("{trials} faults of each kind per benchmark\n");
    println!(
        "{:12} {:>16} {:>16} {:>18}",
        "benchmark", "transient (WD)", "stuck-at (WD)", "stuck-at (DMTR)"
    );
    for bench in [
        Benchmark::Bfs,
        Benchmark::Scan,
        Benchmark::MatrixMul,
        Benchmark::Sha,
    ] {
        let w = bench.build(WorkloadSize::Tiny)?;
        let rate = |class, opts| {
            complete_campaign(&w, &gpu, &dmr, class, trials, seed, opts)
                .map(|r| r.detection_rate_pct())
        };
        println!(
            "{:12} {:>13.1}%   {:>13.1}%   {:>15.1}%",
            bench.name(),
            rate(FaultSiteClass::LaneTransient, &warped_dmr)?,
            rate(FaultSiteClass::LaneStuckAt, &warped_dmr)?,
            rate(FaultSiteClass::LaneStuckAt, &dmtr)?,
        );
    }
    println!(
        "\nTransient detection tracks the analytic coverage of Fig. 9a.\n\
         DMTR re-executes on the same core, so permanent faults corrupt both\n\
         runs identically and hide — the problem lane shuffling solves."
    );
    Ok(())
}
