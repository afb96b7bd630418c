//! End-to-end fault injection: the detection claims of the paper hold on
//! whole benchmark runs.

use warped::dmr::{DmrConfig, FaultOracle, LaneSite, WarpedDmr};
use warped::experiments::faults_exp::complete_campaign;
use warped::experiments::{ablation, faults_exp, ExperimentConfig, ExperimentError};
use warped::faults::{
    CampaignResult, FaultModel, FaultSiteClass, ForcedPanic, Protection, ResilientOptions,
};
use warped::kernels::{Benchmark, Workload, WorkloadSize};
use warped::runner::RetryPolicy;
use warped::sim::GpuConfig;

fn gpu() -> GpuConfig {
    GpuConfig::small()
}

fn detect_opts(protection: Protection) -> ResilientOptions {
    ResilientOptions {
        protection,
        detect_only: true,
        ..ResilientOptions::default()
    }
}

/// A detection-only campaign that must run every planned trial.
fn detect(
    w: &Workload,
    class: FaultSiteClass,
    cfg: &DmrConfig,
    protection: Protection,
    trials: u32,
    seed: u64,
) -> CampaignResult {
    complete_campaign(
        w,
        &gpu(),
        cfg,
        class,
        trials,
        seed,
        &detect_opts(protection),
    )
    .unwrap()
}

#[test]
fn transient_detection_tracks_analytic_coverage() {
    // Fully covered workload: 100% detection.
    let w = Benchmark::Sha.build(WorkloadSize::Tiny).unwrap();
    let r = detect(
        &w,
        FaultSiteClass::LaneTransient,
        &DmrConfig::default(),
        Protection::WarpedDmr,
        5,
        42,
    );
    assert_eq!(r.detected, r.trials, "SHA is 100% covered");
}

#[test]
fn uncovered_executions_produce_silent_corruptions() {
    // With intra-warp DMR disabled, BFS (almost all partial warps) leaks
    // most transients.
    let cfg = DmrConfig {
        enable_intra: false,
        ..DmrConfig::default()
    };
    let w = Benchmark::Bfs.build(WorkloadSize::Tiny).unwrap();
    let r = detect(
        &w,
        FaultSiteClass::LaneTransient,
        &cfg,
        Protection::WarpedDmr,
        8,
        7,
    );
    assert!(
        r.detected < r.trials,
        "disabling intra-warp DMR must lose coverage ({}/{})",
        r.detected,
        r.trials
    );
}

#[test]
fn lane_shuffling_is_what_exposes_permanent_faults() {
    let w = Benchmark::Libor.build(WorkloadSize::Tiny).unwrap();
    let with_shuffle = DmrConfig::default();
    let r1 = detect(
        &w,
        FaultSiteClass::LaneStuckAt,
        &with_shuffle,
        Protection::WarpedDmr,
        4,
        9,
    );
    assert_eq!(r1.detected, r1.trials, "shuffled copies see the stuck lane");

    let no_shuffle = DmrConfig {
        lane_shuffle: false,
        ..DmrConfig::default()
    };
    let r2 = detect(
        &w,
        FaultSiteClass::LaneStuckAt,
        &no_shuffle,
        Protection::WarpedDmr,
        4,
        9,
    );
    assert_eq!(
        r2.detected, 0,
        "without shuffling, full-warp copies rerun on the faulty lane"
    );
}

#[test]
fn multi_bit_and_repeated_faults_still_detected() {
    // Two independent engines with different stuck bits both fire.
    for bit in [0u8, 15, 31] {
        let fault = FaultModel::StuckAt {
            site: LaneSite { sm: 0, lane: 6 },
            bit,
            value: true,
        };
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let mut engine = WarpedDmr::with_oracle(DmrConfig::default(), &gpu(), Box::new(fault));
        w.run_with(&gpu(), &mut engine).unwrap();
        assert!(
            engine.errors().any(),
            "stuck bit {bit} must be detected somewhere in the run"
        );
        // Errors carry plausible sites.
        for e in engine.errors().events().iter().take(16) {
            assert!(e.original_lane < 32);
            assert!(e.verifier_lane < 32);
            assert_ne!(e.original_lane, e.verifier_lane);
        }
    }
}

#[test]
fn detection_reports_identify_the_faulty_lane() {
    struct Stuck;
    impl FaultOracle for Stuck {
        fn transform(&self, site: LaneSite, _c: u64, v: u32) -> u32 {
            if site.lane == 9 {
                v ^ 0xf0
            } else {
                v
            }
        }
    }
    let w = Benchmark::Sha.build(WorkloadSize::Tiny).unwrap();
    let mut engine = WarpedDmr::with_oracle(DmrConfig::default(), &gpu(), Box::new(Stuck));
    w.run_with(&gpu(), &mut engine).unwrap();
    assert!(engine.errors().any());
    // Every event involves the faulty lane on one side — the per-SP
    // isolation granularity the paper argues for in §3.4.
    for e in engine.errors().events() {
        assert!(
            e.original_lane == 9 || e.verifier_lane == 9,
            "event blames lanes {} -> {}",
            e.original_lane,
            e.verifier_lane
        );
    }
}

// The tests below pin the detection-only campaigns byte-for-byte: the
// tables and counts were captured when these campaigns still ran on a
// separate detection engine, so a change to the fault draw's RNG order,
// the lane mapping or the profiling engine shows up here, not only as a
// shifted rate somewhere downstream.

#[test]
fn fault_validation_table_is_pinned() {
    let (_, t) = faults_exp::run(&ExperimentConfig::test_tiny(), 4, 7).unwrap();
    assert_eq!(
        t.to_csv(),
        "benchmark,analytic coverage (%),transient detected (%),stuck-at detected (%),\
         DMTR stuck-at detected (%)\n\
         BFS,99.34,100.0,75.0,0.0\n\
         MatrixMul,100.00,100.0,100.0,0.0\n\
         SCAN,100.00,100.0,100.0,0.0\n"
    );
}

#[test]
fn shuffling_ablation_table_is_pinned() {
    let t = ablation::shuffling(&ExperimentConfig::test_tiny(), 3, 99).unwrap();
    assert_eq!(
        t.to_csv(),
        "benchmark,stuck-at detected, shuffled (%),stuck-at detected, affinity (%)\n\
         MatrixMul,100.0,0.0\n\
         SHA,100.0,0.0\n\
         Libor,100.0,0.0\n"
    );
}

#[test]
fn legacy_campaign_counts_are_pinned() {
    // Partially covered configurations, where detection depends on
    // exactly which sample, thread and bit each trial draws.
    let no_intra = DmrConfig {
        enable_intra: false,
        ..DmrConfig::default()
    };
    let mut out = String::new();
    for (bench, cfg, name) in [
        (Benchmark::Bfs, no_intra, "BFS no-intra"),
        (Benchmark::Fft, DmrConfig::default(), "CUFFT cross"),
        (
            Benchmark::Fft,
            DmrConfig::baseline_in_order(),
            "CUFFT in-order",
        ),
        (Benchmark::Bfs, DmrConfig::default(), "BFS default"),
    ] {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        for p in [Protection::WarpedDmr, Protection::Dmtr] {
            let t = detect(&w, FaultSiteClass::LaneTransient, &cfg, p, 24, 1234);
            let s = detect(&w, FaultSiteClass::LaneStuckAt, &cfg, p, 24, 1234);
            out += &format!(
                "{name} {p:?}: transient {}/{} stuck {}/{}\n",
                t.detected, t.trials, s.detected, s.trials
            );
        }
    }
    assert_eq!(
        out,
        "BFS no-intra WarpedDmr: transient 3/24 stuck 16/24\n\
         BFS no-intra Dmtr: transient 24/24 stuck 0/24\n\
         CUFFT cross WarpedDmr: transient 15/24 stuck 24/24\n\
         CUFFT cross Dmtr: transient 24/24 stuck 0/24\n\
         CUFFT in-order WarpedDmr: transient 0/24 stuck 0/24\n\
         CUFFT in-order Dmtr: transient 24/24 stuck 0/24\n\
         BFS default WarpedDmr: transient 24/24 stuck 17/24\n\
         BFS default Dmtr: transient 24/24 stuck 0/24\n"
    );
}

#[test]
fn partial_detection_campaign_is_an_error() {
    // A chunk that keeps failing past its retry budget is skipped; a
    // detection rate over the remaining trials must not pass as complete.
    let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
    let opts = ResilientOptions {
        chunk_trials: 2,
        retry: RetryPolicy::none(),
        forced_panic: Some(ForcedPanic {
            chunk: 1,
            attempts: 1,
        }),
        ..detect_opts(Protection::WarpedDmr)
    };
    let class = FaultSiteClass::LaneTransient;
    let dmr = DmrConfig::default();
    match complete_campaign(&w, &gpu(), &dmr, class, 6, 5, &opts) {
        Err(ExperimentError::PartialCampaign {
            bench,
            class,
            failed_chunks,
        }) => {
            assert_eq!(bench, "SCAN");
            assert_eq!(class, "lane_transient");
            assert_eq!(failed_chunks, vec![1]);
        }
        other => panic!("a skipped chunk must be an error, got {other:?}"),
    }
    // Within the budget the same campaign completes.
    let opts = ResilientOptions {
        retry: RetryPolicy {
            retries: 1,
            backoff_ms: 0,
            backoff_cap_ms: 0,
        },
        ..opts
    };
    let r = complete_campaign(&w, &gpu(), &dmr, class, 6, 5, &opts).unwrap();
    assert_eq!((r.trials, r.planned, r.skipped), (6, 6, 0));
}
