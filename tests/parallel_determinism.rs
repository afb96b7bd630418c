//! The parallel experiment engine's contract: the worker count changes
//! wall-clock time, never results. A figure harness and a fault campaign
//! must produce byte-identical output on one worker and on four.

use warped::dmr::DmrConfig;
use warped::experiments::faults_exp::complete_campaign;
use warped::experiments::{fig1, fig9a, ExperimentConfig};
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
    let (_, serial) = fig1::run(&at_threads(1)).unwrap();
    let (_, parallel) = fig1::run(&at_threads(4)).unwrap();
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "fig1 table must be byte-identical at --threads 1 vs 4"
    );
}

#[test]
fn cell_fanout_harness_is_thread_count_invariant() {
    // fig9a splits each benchmark into three config cells — the regroup
    // step must reassemble rows identically at any worker count.
    let (_, serial) = fig9a::run(&at_threads(1)).unwrap();
    let (_, parallel) = fig9a::run(&at_threads(3)).unwrap();
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
