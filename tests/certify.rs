//! Certification suite.
//!
//! Two independent guarantees, end to end:
//!
//! 1. The bounded model check of the Replay Checker (`model_check`)
//!    explores every issue/idle/done schedule up to the default depth
//!    differentially against the abstract Algorithm-1 model and finds
//!    zero invariant violations and zero model/implementation
//!    divergences — across every ReplayQ capacity it sweeps.
//! 2. For every shipped benchmark kernel and both thread→core mappings,
//!    the static coverage certificate (`certify_coverage`) is *sound*:
//!    its lower bound never exceeds the coverage the simulator actually
//!    measures on a real run.

use std::sync::OnceLock;

use warped::analysis::{
    certify_coverage, model_check, Cfg, InstrClass, MaskFlowConfig, ModelCheckConfig,
    ModelCheckReport,
};
use warped::dmr::{DmrConfig, ThreadCoreMapping, WarpedDmr};
use warped::experiments::certify::certify;
use warped::experiments::ExperimentConfig;
use warped::kernels::{Benchmark, WorkloadSize};
use warped::runner::Runner;
use warped::sim::GpuConfig;

/// The default-depth model check, run once per test binary and shared by
/// the tests that read it.
fn default_report() -> &'static ModelCheckReport {
    static REPORT: OnceLock<ModelCheckReport> = OnceLock::new();
    REPORT.get_or_init(|| model_check(&ModelCheckConfig::default()))
}

#[test]
fn model_check_is_clean_and_nontrivial_at_default_depth() {
    let report = default_report();
    if let Some(v) = report.violations.first() {
        panic!(
            "model check found {} violation(s); first:\n{}",
            report.violations.len(),
            v.render()
        );
    }
    assert!(!report.truncated, "state budget cut exploration short");
    // The acceptance bar: a non-toy state space. At the default depth the
    // sweep covers well over 10^4 distinct canonical checker states.
    assert!(
        report.states() >= 10_000,
        "only {} states explored — model or action set degenerated",
        report.states()
    );
    assert!(report.transitions() > report.states());
    // Every configured capacity contributed, and deeper queues reach
    // strictly more states.
    let per: Vec<u64> = report.per_capacity.iter().map(|c| c.states).collect();
    assert_eq!(per.len(), ModelCheckConfig::default().capacities.len());
    assert!(per.windows(2).all(|w| w[0] < w[1]), "states {per:?}");
}

/// The default-depth state space, per capacity, exactly: a memo key that
/// merges two distinct states or splits one moves these counts.
#[test]
fn default_state_space_is_pinned() {
    let per: Vec<(usize, u64, u64)> = default_report()
        .per_capacity
        .iter()
        .map(|c| (c.capacity, c.states, c.transitions))
        .collect();
    assert_eq!(
        per,
        [
            (0, 7, 452),
            (1, 94, 9248),
            (2, 1606, 199_586),
            (3, 14767, 1_071_686)
        ]
    );
}

#[test]
fn static_coverage_bound_is_sound_for_every_benchmark() {
    let gpu = GpuConfig::small();
    Runner::from_env().map(Benchmark::ALL, |bench| {
        for mapping in [ThreadCoreMapping::InOrder, ThreadCoreMapping::CrossCluster] {
            let dmr_cfg = DmrConfig {
                mapping,
                ..DmrConfig::default()
            };
            let w = bench.build(WorkloadSize::Tiny).unwrap();
            let cfg = Cfg::build(w.kernel());
            let cert = certify_coverage(
                w.kernel(),
                &cfg,
                &dmr_cfg,
                w.block_threads(),
                &MaskFlowConfig::default(),
            );
            assert!(
                !cert.overflowed,
                "{bench}: abstract interpreter blew its budget"
            );
            assert_eq!(cert.per_instr.len(), w.kernel().code().len());
            assert_eq!(cert.count(InstrClass::Unreachable), 0, "{bench}");

            let mut engine = WarpedDmr::new(dmr_cfg, &gpu);
            let run = w.run_with(&gpu, &mut engine).unwrap();
            w.check(&run).unwrap();
            let measured = engine.report().coverage_pct();
            assert!(
                cert.bound_pct <= measured + 1e-9,
                "{bench} {mapping:?}: certified bound {:.4}% exceeds measured {:.4}%",
                cert.bound_pct,
                measured
            );
        }
    });
}

#[test]
fn sha_certificate_is_tight() {
    // SHA is branch-free modulo uniform control flow: every
    // result-producing instruction runs fully populated, so the static
    // bound reaches the measured 100% exactly — the certificate is not
    // just sound but tight.
    let w = Benchmark::Sha.build(WorkloadSize::Tiny).unwrap();
    let cfg = Cfg::build(w.kernel());
    let cert = certify_coverage(
        w.kernel(),
        &cfg,
        &DmrConfig::default(),
        w.block_threads(),
        &MaskFlowConfig::default(),
    );
    assert_eq!(cert.count(InstrClass::Unverifiable), 0);
    assert!((cert.bound_pct - 100.0).abs() < 1e-9, "{}", cert.bound_pct);
}

/// The `warped certify <bench> --depth 4 --json` document, byte for byte,
/// from the composition the CLI calls (quick size and chip, default DMR).
#[test]
fn certify_json_is_pinned() {
    const SHA: &str = r#"{"schema_version":1,"bench":"SHA","model":{"depth":4,"states":2485,"transitions":73784,"violations":0,"truncated":false,"per_capacity":[{"capacity":0,"states":7,"transitions":452},{"capacity":1,"states":94,"transitions":9248},{"capacity":2,"states":598,"transitions":32042},{"capacity":3,"states":1786,"transitions":32042}]},"coverage":{"kernel":"sha1","shapes":1,"abstract_states":2,"overflowed":false,"classes":{"inter":1836,"intra":0,"unverifiable":0,"no-result":1,"unreachable":0},"bound_pct":100.0000,"measured_pct":100.0000}}"#;
    const BITONIC: &str = r#"{"schema_version":1,"bench":"BitonicSort","model":{"depth":4,"states":2485,"transitions":73784,"violations":0,"truncated":false,"per_capacity":[{"capacity":0,"states":7,"transitions":452},{"capacity":1,"states":94,"transitions":9248},{"capacity":2,"states":598,"transitions":32042},{"capacity":3,"states":1786,"transitions":32042}]},"coverage":{"kernel":"bitonicSort","shapes":1,"abstract_states":227,"overflowed":false,"classes":{"inter":144,"intra":0,"unverifiable":495,"no-result":47,"unreachable":0},"bound_pct":0.0000,"measured_pct":69.2706}}"#;
    let model = ModelCheckConfig {
        depth: 4,
        ..ModelCheckConfig::default()
    };
    for (bench, pin) in [(Benchmark::Sha, SHA), (Benchmark::BitonicSort, BITONIC)] {
        let c = certify(bench, &model, &ExperimentConfig::quick()).unwrap();
        c.check().unwrap();
        assert_eq!(c.to_json(), pin, "{bench}");
    }
}
