//! The trace layer's end-to-end contract, over the real benchmark suite:
//!
//! 1. **Invariants** — every benchmark at Tiny scale produces an event
//!    stream satisfying I1–I5 (exactly-once verify, verify-after-issue,
//!    monotone verify cycles, bounded ReplayQ, discharged RAW
//!    obligations). See `docs/tracing.md`.
//! 2. **Completeness** — replaying a recorded trace through a
//!    [`MetricsSink`](warped::trace::MetricsSink) reproduces the live
//!    engine's `DmrReport` bit-for-bit.
//! 3. **Non-perturbation** — attaching a sink changes nothing: traced
//!    and untraced runs yield identical reports and cycle counts.
//! 4. **Wire format** — a real trace survives a JSONL round-trip.
//! 5. **Bug detection** — synthetic streams reproducing the two
//!    pre-fix Algorithm-1 bugs are flagged by the invariant layer.

use warped::dmr::{DmrConfig, DmrReport, WarpedDmr};
use warped::experiments::{invariants, ExperimentConfig};
use warped::kernels::Benchmark;
use warped::trace::{
    replay, CollectSink, InvariantSink, MetricsSink, TraceEvent, TraceHandle, VerifyKind,
};

/// Full suite at Tiny: invariants hold and every trace replays to the
/// exact live report. This is the same check `warped invariants --check`
/// and `scripts/lint.sh` run.
#[test]
fn invariant_suite_is_clean_and_replay_exact_on_all_benchmarks() {
    let cfg = ExperimentConfig::test_tiny();
    let (rows, _) = invariants::run(&cfg).unwrap();
    assert_eq!(rows.len(), Benchmark::ALL.len());
    for r in &rows {
        assert_eq!(
            r.violations,
            0,
            "{}: {:?}",
            r.benchmark.name(),
            r.first_violation
        );
        assert!(
            r.replay_exact,
            "{}: replayed DmrReport diverged from the live one",
            r.benchmark.name()
        );
        assert!(r.events > 0, "{}: empty trace", r.benchmark.name());
    }
    invariants::require_clean(&rows).unwrap();
}

/// Tracing must not perturb the simulation: the same run with and
/// without a sink attached produces identical cycles and reports.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let cfg = ExperimentConfig::test_tiny();
    for bench in [Benchmark::Scan, Benchmark::MatrixMul] {
        let w = bench.build(cfg.size).unwrap();

        let mut plain = WarpedDmr::new(DmrConfig::default(), &cfg.gpu);
        let run_plain = w.run_with(&cfg.gpu, &mut plain).unwrap();

        let mut traced = WarpedDmr::new(DmrConfig::default(), &cfg.gpu);
        let (_collector, handle) = TraceHandle::shared(CollectSink::new());
        traced.set_trace(handle.clone());
        let run_traced = w.run_traced(&cfg.gpu, &mut traced, handle).unwrap();

        assert_eq!(run_plain.stats.cycles, run_traced.stats.cycles, "{bench}");
        assert_eq!(plain.report(), traced.report(), "{bench}");
    }
}

/// A real benchmark trace must survive serialization to JSONL and back,
/// and still replay to the exact live report.
#[test]
fn jsonl_roundtrip_preserves_a_real_trace() {
    let cfg = ExperimentConfig::test_tiny();
    let w = Benchmark::BitonicSort.build(cfg.size).unwrap();
    let mut engine = WarpedDmr::new(DmrConfig::default(), &cfg.gpu);
    let (collector, handle) = TraceHandle::shared(CollectSink::new());
    engine.set_trace(handle.clone());
    w.run_traced(&cfg.gpu, &mut engine, handle).unwrap();
    let events = collector.lock().unwrap().take();
    assert!(!events.is_empty());

    let mut text = String::new();
    for ev in &events {
        text.push_str(&warped::trace::jsonl::to_line(ev));
        text.push('\n');
    }
    let back = replay::read_jsonl(text.as_bytes()).unwrap();
    assert_eq!(events, back, "JSONL round-trip changed the stream");

    let mut metrics = MetricsSink::new();
    replay::feed(&back, &mut metrics);
    assert_eq!(DmrReport::from_metrics(&metrics), engine.report());
}

// --- synthetic pre-fix streams ------------------------------------------
//
// These reconstruct, as event streams, exactly what the checker emitted
// before the two Algorithm-1 fixes. The invariant layer must flag both —
// that is the "caught and locked down" part of this PR.

fn issue(cycle: u64, warp: u64, dst: Option<u16>, src: Option<u16>) -> TraceEvent {
    TraceEvent::Issue {
        sm: 0,
        cycle,
        warp,
        pc: cycle as u32,
        unit: warped::isa::UnitType::Sp,
        active: 32,
        full: true,
        has_result: true,
        dst: dst.map(warped::isa::Reg),
        srcs: [src.map(warped::isa::Reg), None, None, None],
    }
}

/// The violations as their `Display` renders them, for byte-exact pins.
fn rendered(inv: &InvariantSink) -> Vec<String> {
    inv.violations().iter().map(|v| v.to_string()).collect()
}

fn verify(cycle: u64, warp: u64, kind: VerifyKind, issued: u64) -> TraceEvent {
    TraceEvent::Verify {
        sm: 0,
        cycle,
        warp,
        unit: warped::isa::UnitType::Sp,
        dst: Some(warped::isa::Reg(1)),
        kind,
        issued,
        active: 32,
    }
}

/// Pre-fix bug (a): a consumer reading r1 issues while the unverified
/// producer of r1 sits in the RF slot; the old checker verified the
/// producer via the free CoExecute path with **no RAW stall**. I5 must
/// flag the non-RawStall discharge.
#[test]
fn invariants_flag_the_prefix_rf_slot_raw_bug() {
    let events = [
        TraceEvent::LaunchBegin { index: 0 },
        issue(1, 7, Some(1), None), // producer: writes r1, lands in prev
        issue(2, 7, None, Some(1)), // consumer: reads r1 — RAW on prev
        // Old behaviour: different instruction type freed the producer
        // as a CoExecute at the consumer's cycle, without stalling.
        verify(2, 7, VerifyKind::CoExecute, 1),
        TraceEvent::SmDone {
            sm: 0,
            cycle: 3,
            drained: 0,
        },
    ];
    let mut inv = InvariantSink::new();
    replay::feed(&events, &mut inv);
    assert!(
        inv.violations().iter().any(|v| v.rule == "I5"),
        "expected an I5 RAW-obligation violation, got {:?}",
        inv.violations()
    );
    assert_eq!(
        rendered(&inv),
        [
            "[I5] sm 0 cycle 2: RAW-hazard producer (warp 7, issued @1) verified via coexec \
             instead of a forced raw_stall",
            "[I1] sm 0 done @3: instruction (warp 7, issued @2) was never verified",
        ]
    );
}

/// Pre-fix bug (b): verify timestamps ignored preceding RAW stalls, so
/// a slot-resolution verify could be stamped *earlier* than the RAW
/// verify emitted just before it. I3 (per-SM verify monotonicity) must
/// flag the backwards timestamp.
#[test]
fn invariants_flag_the_prefix_timestamp_regression() {
    let events = [
        TraceEvent::LaunchBegin { index: 0 },
        issue(1, 3, Some(1), None),
        issue(5, 3, Some(2), Some(1)), // RAW: forces a stall-verify...
        verify(6, 3, VerifyKind::RawStall, 1),
        // ...but the old code stamped the following slot resolution at
        // b.cycle + 1 = 6 -> then a same-slot EagerStall at b.cycle = 5:
        // time runs backwards.
        verify(5, 3, VerifyKind::EagerStall, 5),
        TraceEvent::SmDone {
            sm: 0,
            cycle: 8,
            drained: 0,
        },
    ];
    let mut inv = InvariantSink::new();
    replay::feed(&events, &mut inv);
    assert!(
        inv.violations().iter().any(|v| v.rule == "I3"),
        "expected an I3 monotonicity violation, got {:?}",
        inv.violations()
    );
    assert_eq!(
        rendered(&inv),
        [
            "[I2] sm 0: verify of (warp 3, issued @5) at cycle 5 is not strictly after issue",
            "[I3] sm 0: verify timestamp went backwards to cycle 5 (warp 3, issued @5)",
        ]
    );
}

/// And the fixed checker's real output on the same RAW scenario is
/// clean: producer discharged by a RawStall verify, one stall charged,
/// monotone timestamps.
#[test]
fn fixed_stream_for_the_same_scenario_is_clean() {
    let events = [
        TraceEvent::LaunchBegin { index: 0 },
        issue(1, 7, Some(1), None),
        issue(2, 7, None, Some(1)),
        verify(3, 7, VerifyKind::RawStall, 1),
        TraceEvent::Stall {
            sm: 0,
            cycle: 2,
            warp: 7,
            cycles: 1,
        },
        // End of kernel: the consumer left in the RF slot is drained.
        verify(4, 7, VerifyKind::Drain, 2),
        TraceEvent::SmDone {
            sm: 0,
            cycle: 4,
            drained: 1,
        },
    ];
    let mut inv = InvariantSink::new();
    replay::feed(&events, &mut inv);
    assert!(inv.ok(), "{:?}", inv.violations());
}
