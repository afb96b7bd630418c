//! End-to-end fault injection: the detection claims of the paper hold on
//! whole benchmark runs.

use warped::dmr::{DmrConfig, FaultOracle, LaneSite, WarpedDmr};
use warped::experiments::faults_exp::complete_campaign;
use warped::experiments::{ablation, faults_exp, ExperimentConfig, ExperimentError};
use warped::faults::{
    resilient_campaign, CampaignResult, FaultModel, FaultSiteClass, ForcedPanic, Protection,
    ResilientOptions,
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
    impl warped::sim::LaneFault for Stuck {
        fn corrupt(&self, _sm: usize, lane: usize, _c: u64, v: u32) -> u32 {
            if lane == 9 {
                v ^ 0xf0
            } else {
                v
            }
        }
    }
    impl FaultOracle for Stuck {}
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

/// Every site class on a multi-launch (BFS) and a single-launch (SCAN)
/// workload, under both engines, in outcome and detection-only mode, one
/// line each.
fn outcome_campaign_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for bench in [Benchmark::Bfs, Benchmark::Scan] {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        for protection in [Protection::WarpedDmr, Protection::Dmtr] {
            for detect_only in [false, true] {
                let opts = ResilientOptions {
                    chunk_trials: 2,
                    threads: 2,
                    protection,
                    detect_only,
                    ..ResilientOptions::default()
                };
                for class in FaultSiteClass::ALL {
                    let r =
                        resilient_campaign(&w, &gpu(), &DmrConfig::default(), class, 8, 31, &opts)
                            .unwrap();
                    let mode = if detect_only { "detect" } else { "outcome" };
                    lines.push(format!("{protection:?} {mode} {}", r.to_json()));
                }
            }
        }
    }
    lines
}

#[test]
fn outcome_campaigns_are_pinned() {
    // Captured while every trial still ran its detection and
    // architectural passes to completion: a shortcut that changes any
    // trial's class moves a count here.
    let expected = [
        r#"WarpedDmr outcome {"bench":"BFS","class":"lane_transient","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"BFS","class":"lane_stuck","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":3,"pct":37.5000,"ci_lo_pct":13.6842,"ci_hi_pct":69.4262},"detected":{"count":5,"pct":62.5000,"ci_lo_pct":30.5738,"ci_hi_pct":86.3158},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"BFS","class":"comparator","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":3,"pct":37.5000,"ci_lo_pct":13.6842,"ci_hi_pct":69.4262},"sdc":{"count":5,"pct":62.5000,"ci_lo_pct":30.5738,"ci_hi_pct":86.3158},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"BFS","class":"rfu_mux","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"BFS","class":"replayq_meta","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":6,"pct":75.0000,"ci_lo_pct":40.9270,"ci_hi_pct":92.8522},"sdc":{"count":2,"pct":25.0000,"ci_lo_pct":7.1478,"ci_hi_pct":59.0730},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"BFS","class":"rf_slot","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"BFS","class":"lane_transient","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"BFS","class":"lane_stuck","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":5,"pct":62.5000,"ci_lo_pct":30.5738,"ci_hi_pct":86.3158},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"BFS","class":"comparator","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"BFS","class":"rfu_mux","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"BFS","class":"replayq_meta","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":5,"pct":62.5000,"ci_lo_pct":30.5738,"ci_hi_pct":86.3158},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"BFS","class":"rf_slot","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"BFS","class":"lane_transient","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"BFS","class":"lane_stuck","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":3,"pct":37.5000,"ci_lo_pct":13.6842,"ci_hi_pct":69.4262},"detected":{"count":2,"pct":25.0000,"ci_lo_pct":7.1478,"ci_hi_pct":59.0730},"sdc":{"count":3,"pct":37.5000,"ci_lo_pct":13.6842,"ci_hi_pct":69.4262},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"BFS","class":"comparator","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"BFS","class":"rfu_mux","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"BFS","class":"replayq_meta","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"BFS","class":"rf_slot","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"BFS","class":"lane_transient","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"BFS","class":"lane_stuck","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"BFS","class":"comparator","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"BFS","class":"rfu_mux","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"BFS","class":"replayq_meta","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"BFS","class":"rf_slot","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"SCAN","class":"lane_transient","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"SCAN","class":"lane_stuck","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":2,"pct":25.0000,"ci_lo_pct":7.1478,"ci_hi_pct":59.0730},"detected":{"count":6,"pct":75.0000,"ci_lo_pct":40.9270,"ci_hi_pct":92.8522},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"SCAN","class":"comparator","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":3,"pct":37.5000,"ci_lo_pct":13.6842,"ci_hi_pct":69.4262},"detected":{"count":3,"pct":37.5000,"ci_lo_pct":13.6842,"ci_hi_pct":69.4262},"sdc":{"count":2,"pct":25.0000,"ci_lo_pct":7.1478,"ci_hi_pct":59.0730},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"SCAN","class":"rfu_mux","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"SCAN","class":"replayq_meta","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":3,"pct":37.5000,"ci_lo_pct":13.6842,"ci_hi_pct":69.4262},"detected":{"count":5,"pct":62.5000,"ci_lo_pct":30.5738,"ci_hi_pct":86.3158},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr outcome {"bench":"SCAN","class":"rf_slot","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"SCAN","class":"lane_transient","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"SCAN","class":"lane_stuck","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":6,"pct":75.0000,"ci_lo_pct":40.9270,"ci_hi_pct":92.8522},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"SCAN","class":"comparator","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"SCAN","class":"rfu_mux","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"SCAN","class":"replayq_meta","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":5,"pct":62.5000,"ci_lo_pct":30.5738,"ci_hi_pct":86.3158},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"WarpedDmr detect {"bench":"SCAN","class":"rf_slot","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"SCAN","class":"lane_transient","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"SCAN","class":"lane_stuck","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":2,"pct":25.0000,"ci_lo_pct":7.1478,"ci_hi_pct":59.0730},"detected":{"count":4,"pct":50.0000,"ci_lo_pct":21.5213,"ci_hi_pct":78.4787},"sdc":{"count":2,"pct":25.0000,"ci_lo_pct":7.1478,"ci_hi_pct":59.0730},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"SCAN","class":"comparator","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"SCAN","class":"rfu_mux","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"SCAN","class":"replayq_meta","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr outcome {"bench":"SCAN","class":"rf_slot","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"SCAN","class":"lane_transient","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"SCAN","class":"lane_stuck","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"SCAN","class":"comparator","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"SCAN","class":"rfu_mux","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"SCAN","class":"replayq_meta","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
        r#"Dmtr detect {"bench":"SCAN","class":"rf_slot","seed":31,"chunk_trials":2,"chunks":4,"planned":8,"completed":8,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"detected":{"count":8,"pct":100.0000,"ci_lo_pct":67.5584,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":32.4416},"failed_chunks":[]}"#,
    ];
    let lines = outcome_campaign_lines();
    assert_eq!(lines.len(), expected.len());
    for (got, want) in lines.iter().zip(expected) {
        assert_eq!(got, want);
    }
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

#[test]
fn timed_fault_campaign_is_pinned() {
    // The campaigns perfbench's fault-campaign workload times: BFS at the
    // quick size on the quick chip, one worker, seed 1. A speedup that
    // reclassifies any timed trial moves a count here.
    let cfg = ExperimentConfig::quick();
    let w = Benchmark::Bfs.build(cfg.size).unwrap();
    let opts = ResilientOptions::default().with_threads(1);
    let dmr = DmrConfig::default();
    let got: Vec<String> = [
        FaultSiteClass::LaneTransient,
        FaultSiteClass::ComparatorVerdict,
    ]
    .into_iter()
    .map(|class| {
        resilient_campaign(&w, &cfg.gpu, &dmr, class, 32, 1, &opts)
            .unwrap()
            .to_json()
    })
    .collect();
    assert_eq!(
        got,
        [
            r#"{"bench":"BFS","class":"lane_transient","seed":1,"chunk_trials":8,"chunks":4,"planned":32,"completed":32,"skipped":0,"masked":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":10.7183},"detected":{"count":32,"pct":100.0000,"ci_lo_pct":89.2817,"ci_hi_pct":100.0000},"sdc":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":10.7183},"hang":{"count":0,"pct":0.0000,"ci_lo_pct":0.0000,"ci_hi_pct":10.7183},"failed_chunks":[]}"#,
            r#"{"bench":"BFS","class":"comparator","seed":1,"chunk_trials":8,"chunks":4,"planned":32,"completed":32,"skipped":0,"masked":{"count":21,"pct":65.6250,"ci_lo_pct":48.3108,"ci_hi_pct":79.5898},"detected":{"count":4,"pct":12.5000,"ci_lo_pct":4.9701,"ci_hi_pct":28.0686},"sdc":{"count":6,"pct":18.7500,"ci_lo_pct":8.8894,"ci_hi_pct":35.3095},"hang":{"count":1,"pct":3.1250,"ci_lo_pct":0.5538,"ci_hi_pct":15.7446},"failed_chunks":[]}"#,
        ]
    );
}

#[test]
fn detection_order_is_pinned_for_fig9a_configs() {
    // A stuck lane under each Fig. 9a configuration: the order of the
    // comparator's pairs (intra-warp verifier by verifier, then inter-warp
    // lane by lane) decides which detections the log keeps first, so any
    // change to how the pairing is computed moves a digest here even when
    // the coverage counts stay put. The first 16 detections are digested
    // on their own and the whole stored log (up to 4096) beside them.
    struct Stuck;
    impl warped::sim::LaneFault for Stuck {
        fn corrupt(&self, _sm: usize, lane: usize, _c: u64, v: u32) -> u32 {
            if lane == 5 {
                v ^ 0x8000_0000
            } else {
                v
            }
        }
    }
    impl FaultOracle for Stuck {}
    /// FNV-1a-64 over the bytes of `text`.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
    let mut out = String::new();
    for bench in [Benchmark::Bfs, Benchmark::NQueen, Benchmark::Fft] {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        for (name, cfg) in [
            ("in-order", DmrConfig::baseline_in_order()),
            ("8-lane", DmrConfig::eight_lane_cluster()),
            ("cross", DmrConfig::default()),
        ] {
            let mut engine = WarpedDmr::with_oracle(cfg, &gpu(), Box::new(Stuck));
            w.run_with(&gpu(), &mut engine).unwrap();
            let log = engine.errors().events();
            let r = engine.report();
            out += &format!(
                "{bench} {name}: total {} intra {} inter {} first16 {:016x} log {:016x} \
                 report {:016x}\n",
                engine.errors().total(),
                r.intra_covered,
                r.inter_covered,
                fnv(&format!("{:?}", &log[..log.len().min(16)])),
                fnv(&format!("{log:?}")),
                fnv(&format!("{r:?}")),
            );
        }
    }
    assert_eq!(
        out,
        "BFS in-order: total 1803 intra 7682 inter 13312 first16 a2af0e26336a5fa1 \
         log 58486300788dde8b report 7d2d197920f9e90c\n\
         BFS 8-lane: total 2915 intra 7722 inter 13312 first16 a2af0e26336a5fa1 \
         log 212df6eda050dc5f report 0c655d5a2f679284\n\
         BFS cross: total 1790 intra 7746 inter 13312 first16 a2af0e26336a5fa1 \
         log ee2ff8c8dedb6905 report 839d59f3b178a2e9\n\
         Nqueen in-order: total 2107 intra 19422 inter 3840 first16 a31b3889196a5d47 \
         log 1bf27b3d74af932e report 500d8340692ceffe\n\
         Nqueen 8-lane: total 3701 intra 19602 inter 3840 first16 a31b3889196a5d47 \
         log 2a141eff84a052cb report 4f29471927e63b1b\n\
         Nqueen cross: total 240 intra 15016 inter 3840 first16 a31b3889196a5d47 \
         log 941f8df66fbf0aef report 8e8cf52f0cb4c977\n\
         CUFFT in-order: total 0 intra 0 inter 0 first16 09612b07b5ecb5a5 \
         log 09612b07b5ecb5a5 report 62e25cae7c6c0523\n\
         CUFFT 8-lane: total 0 intra 0 inter 0 first16 09612b07b5ecb5a5 \
         log 09612b07b5ecb5a5 report 62e25cae7c6c0523\n\
         CUFFT cross: total 278 intra 5824 inter 0 first16 168d1129d45f2c20 \
         log 44731a44943cfad9 report 3815d52b73df3b2e\n"
    );
}
