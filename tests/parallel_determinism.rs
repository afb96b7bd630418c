//! The parallel experiment engine's contract: the worker count changes
//! wall-clock time, never results. A figure harness and a fault campaign
//! must produce byte-identical output on one worker and on four.

use warped::dmr::DmrConfig;
use warped::experiments::faults_exp::complete_campaign;
use warped::experiments::runs::Runs;
use warped::experiments::{
    coverage_profile, fig1, fig10, fig11, fig5, fig8, fig9a, fig9b, ExperimentConfig,
};
use warped::faults::{
    resilient_campaign, CampaignResult, FaultSiteClass, Protection, ResilientOptions,
};
use warped::kernels::{Benchmark, WorkloadSize};
use warped::sim::GpuConfig;

fn at_threads(threads: usize) -> ExperimentConfig {
    ExperimentConfig::test_tiny().with_threads(threads)
}

#[test]
fn figure_harness_is_thread_count_invariant() {
    // One plan over the runs of every figure, as `warped figures` and
    // `warped all` simulate them, built into every figure's table.
    let keys = [
        fig1::keys(),
        fig5::keys(),
        fig8::keys(),
        fig9a::keys(),
        fig9b::keys(),
        fig10::keys(),
        fig11::keys(),
        coverage_profile::keys(),
    ]
    .concat();
    let tables = |threads| {
        let runs = Runs::simulate(&at_threads(threads), &keys).unwrap();
        [
            fig1::build(&runs).1,
            fig5::build(&runs).1,
            fig8::build_switch_distances(&runs).1,
            fig8::build_raw_distances(&runs).1,
            fig9a::build(&runs).1,
            fig9b::build(&runs).1,
            fig10::build(&runs).1,
            fig11::build(&runs).1,
            coverage_profile::build(&runs).1,
        ]
        .map(|t| t.to_csv())
    };
    assert_eq!(
        tables(1),
        tables(3),
        "figure tables must be byte-identical at --threads 1 vs 3"
    );
}

#[test]
fn cell_fanout_harness_is_thread_count_invariant() {
    // The plan splits each benchmark into one job per distinct run —
    // fig9a reads three — and must hand every row the same runs at any
    // worker count.
    let table = |threads| {
        let runs = Runs::simulate(&at_threads(threads), &fig9a::keys()).unwrap();
        fig9a::build(&runs).1
    };
    let (serial, parallel) = (table(1), table(3));
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

/// A detection-only SCAN campaign at the given geometry and worker count.
fn detection_campaign(
    protection: Protection,
    chunk_trials: u32,
    threads: usize,
    trials: u32,
    seed: u64,
) -> CampaignResult {
    let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
    let opts = ResilientOptions {
        chunk_trials,
        protection,
        detect_only: true,
        ..ResilientOptions::default()
    }
    .with_threads(threads);
    let class = FaultSiteClass::LaneTransient;
    let dmr = DmrConfig::default();
    complete_campaign(&w, &GpuConfig::small(), &dmr, class, trials, seed, &opts).unwrap()
}

#[test]
fn fault_campaign_is_thread_count_invariant() {
    // 20 trials at chunk size 8 -> chunks of 8/8/4: exercises the
    // partial tail chunk as well.
    let run = |threads| detection_campaign(Protection::WarpedDmr, 8, threads, 20, 99);
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "campaign result depends on thread count");
    assert_eq!(serial.trials, 20);
}

#[test]
fn dmtr_campaign_is_thread_count_invariant() {
    // DMTR stalls the schedule differently from Warped-DMR: its profile,
    // detection and architectural runs must be just as worker-agnostic.
    let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
    let run = |threads| {
        let opts = ResilientOptions {
            protection: Protection::Dmtr,
            ..ResilientOptions::default()
        }
        .with_threads(threads);
        let dmr = DmrConfig::default();
        let class = FaultSiteClass::LaneTransient;
        resilient_campaign(&w, &GpuConfig::small(), &dmr, class, 20, 99, &opts)
            .unwrap()
            .to_json()
    };
    assert_eq!(
        run(1),
        run(4),
        "DMTR outcome campaign depends on thread count"
    );
    let serial = detection_campaign(Protection::Dmtr, 8, 1, 20, 99);
    let parallel = detection_campaign(Protection::Dmtr, 8, 4, 20, 99);
    assert_eq!(serial, parallel, "DMTR detection depends on thread count");
    assert_eq!(serial.trials, 20);
}

#[test]
fn campaign_chunk_size_is_the_seeding_contract() {
    // Changing the worker count never changes the draws; changing the
    // chunk size may (documented on `ResilientOptions::chunk_trials`).
    // Guard that the former holds even with an odd chunk size.
    let run = |threads| detection_campaign(Protection::WarpedDmr, 3, threads, 10, 7);
    assert_eq!(run(1), run(2));
}
