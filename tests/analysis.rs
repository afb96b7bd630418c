//! End-to-end checks for the static analyzer: every shipped benchmark
//! kernel is structurally clean, and on straight-line kernels the DMR
//! cost predictor reproduces the simulator's ReplayQ counters exactly.

use warped::analysis::{analyze, is_straight_line, predict_exact, ExactPrediction, PredictConfig};
use warped::dmr::checker::CheckerStats;
use warped::dmr::{DmrConfig, WarpedDmr};
use warped::experiments::ExperimentConfig;
use warped::isa::UnitType;
use warped::isa::{Kernel, KernelBuilder};
use warped::kernels::{Benchmark, WorkloadSize};
use warped::sim::{Gpu, GpuConfig, LaunchConfig};
use warped::trace::{CollectSink, TraceEvent, TraceHandle};

fn predict_config(gpu: &GpuConfig) -> PredictConfig {
    PredictConfig {
        gpu: gpu.clone(),
        replayq_entries: DmrConfig::default().replayq_entries,
    }
}

#[test]
fn every_benchmark_kernel_is_structurally_clean() {
    let cfg = PredictConfig::default();
    for bench in Benchmark::ALL {
        let w = bench.build(WorkloadSize::Tiny).expect("workload builds");
        let a = analyze(w.kernel(), &cfg);
        assert!(a.is_clean(), "{bench}: structural lints {:?}", a.lints);
        assert!(
            a.warnings.is_empty(),
            "{bench}: dataflow warnings {:?}",
            a.warnings
        );
        assert!(!a.pressure.is_empty(), "{bench}: no pressure rows");
    }
}

/// Run `kernel` as one warp of 32 threads on a fresh `gpu_cfg` chip
/// under Warped-DMR, with one buffer of each of `buffer_words` lengths
/// allocated and passed as a parameter; return the checker counters
/// and total cycles.
fn measure(kernel: &Kernel, gpu_cfg: &GpuConfig, buffer_words: &[usize]) -> (CheckerStats, u64) {
    let mut gpu = Gpu::new(gpu_cfg.clone());
    let params = buffer_words.iter().map(|&n| gpu.alloc_words(n)).collect();
    let mut engine = WarpedDmr::new(DmrConfig::default(), gpu_cfg);
    let launch = LaunchConfig::linear(1, 32).with_params(params);
    let stats = gpu
        .launch(kernel, &launch, &mut engine)
        .expect("launch succeeds");
    (engine.report().checker, stats.cycles)
}

/// A dense SP burst followed by dependent SFU work: long same-type runs
/// pressure the ReplayQ while the RAW chain opens idle slots.
fn sp_sfu_mix_kernel() -> Kernel {
    let mut b = KernelBuilder::new("mix");
    let mut regs = Vec::new();
    for i in 0..12u32 {
        let r = b.reg();
        b.iadd(r, i, 7u32);
        regs.push(r);
    }
    let s = b.reg();
    b.sin(s, regs[0]);
    let t = b.reg();
    b.fmul(t, s, regs[1]);
    let u = b.reg();
    b.sqrt(u, t);
    b.exit();
    b.build().unwrap()
}

/// Global loads and stores through parameter 0, bringing the 200-cycle
/// memory latency into the timing.
fn memtouch_kernel() -> Kernel {
    let mut b = KernelBuilder::new("memtouch");
    let tid = b.reg();
    b.mov(tid, warped::isa::SpecialReg::GlobalTid);
    let addr = b.reg();
    let base = b.param(0);
    b.imad(addr, tid, 1u32, base);
    let v = b.reg();
    b.ld_global(v, addr, 0);
    let w = b.reg();
    b.iadd(w, v, 5u32);
    b.st_global(addr, 32, w);
    b.exit();
    b.build().unwrap()
}

/// `predict_exact` runs a straight-line kernel as one warp on a one-SM
/// chip with nothing allocated, so its loads read zeros. Its cycles and
/// checker counters must equal `measured`, those of the same warp on the
/// two-SM small chip with the kernel's buffers allocated: one-warp
/// timing depends on neither.
fn assert_one_warp_timing_matches(kernel: &Kernel, measured: (CheckerStats, u64)) {
    let name = kernel.name();
    assert!(is_straight_line(kernel), "{name} not straight-line");
    let p = predict_exact(kernel, &predict_config(&GpuConfig::small())).expect("straight-line");
    assert_eq!(p.checker, measured.0, "{name}: checker stats diverge");
    assert_eq!(p.cycles, measured.1, "{name}: cycle count diverges");
}

#[test]
fn predictor_matches_simulator_on_sha() {
    // SHA at Tiny scale is exactly one block of 32 threads, run through
    // its own host code with real inputs.
    let gpu_cfg = GpuConfig::small();
    let sha = Benchmark::Sha.build(WorkloadSize::Tiny).unwrap();
    let mut engine = WarpedDmr::new(DmrConfig::default(), &gpu_cfg);
    let run = sha.run_with(&gpu_cfg, &mut engine).expect("SHA runs");
    let measured = (engine.report().checker, run.stats.cycles);
    assert!(
        measured.0.total_verified() > 0,
        "SHA should exercise inter-warp verification"
    );
    assert_one_warp_timing_matches(sha.kernel(), measured);
}

#[test]
fn predictor_matches_simulator_on_sp_sfu_mix() {
    let mix = sp_sfu_mix_kernel();
    let measured = measure(&mix, &GpuConfig::small(), &[]);
    assert!(
        measured.0.enqueued > 0,
        "the SP burst should pass through the ReplayQ: {measured:?}"
    );
    assert_one_warp_timing_matches(&mix, measured);
}

#[test]
fn predictor_matches_simulator_on_memory_kernel() {
    let mem = memtouch_kernel();
    assert_one_warp_timing_matches(&mem, measure(&mem, &GpuConfig::small(), &[64]));
}

#[test]
fn sha_exact_prediction_is_pinned() {
    // Recorded from the hand-written scoreboard replay that predicted
    // these numbers before `predict_exact` ran the simulator itself, so
    // the predictor still has a reference outside the simulator.
    let w = Benchmark::Sha.build(WorkloadSize::Tiny).unwrap();
    let predict = |replayq_entries| {
        let cfg = PredictConfig {
            replayq_entries,
            ..PredictConfig::default()
        };
        predict_exact(w.kernel(), &cfg).expect("SHA is straight-line")
    };
    // verified: co-execute, queue co-execute, idle slot, eager stall,
    // RAW stall, drain.
    assert_eq!(
        predict(10),
        ExactPrediction {
            cycles: 15728,
            issued: 1837,
            idle_cycles: 13891,
            checker: CheckerStats {
                verified: [279, 0, 1023, 0, 0, 534],
                enqueued: 534,
                stall_cycles: 0,
                drain_cycles: 0,
                max_queue: 4,
            },
        }
    );
    assert_eq!(
        predict(0),
        ExactPrediction {
            cycles: 15890,
            issued: 1837,
            idle_cycles: 13519,
            checker: CheckerStats {
                verified: [279, 0, 1023, 534, 0, 0],
                enqueued: 0,
                stall_cycles: 534,
                drain_cycles: 0,
                max_queue: 0,
            },
        }
    );
}

#[test]
fn per_block_pressure_covers_all_reachable_blocks() {
    let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
    let a = analyze(w.kernel(), &PredictConfig::default());
    assert!(a.exact.is_none(), "MatrixMul has a loop");
    let reachable = a
        .cfg
        .blocks()
        .iter()
        .filter(|b| a.cfg.is_reachable(b.id))
        .count();
    assert_eq!(a.pressure.len(), reachable);
    // Every instruction of every reachable block is accounted for.
    let counted: usize = a.pressure.iter().map(|p| p.instrs).sum();
    let total: usize = a
        .cfg
        .blocks()
        .iter()
        .filter(|b| a.cfg.is_reachable(b.id))
        .map(|b| b.end - b.start)
        .sum();
    assert_eq!(counted, total);
}

#[test]
fn bitonic_block_pressure_is_pinned_and_trace_consistent() {
    // Regression pin for the per-block ReplayQ pressure of a branchy
    // suite kernel: BitonicSort's sort network is all divergent
    // compare-exchange blocks, the worst case for the per-visit bound.
    let w = Benchmark::BitonicSort.build(WorkloadSize::Tiny).unwrap();
    let a = analyze(w.kernel(), &PredictConfig::default());
    assert_eq!(a.pressure.len(), 85, "reachable block count drifted");

    let pin = |id: usize| {
        a.pressure
            .iter()
            .find(|p| p.block == id)
            .unwrap_or_else(|| panic!("no pressure row for b{id}"))
    };
    // Entry block: the index setup then the first load/compare mix.
    let b0 = pin(0);
    assert_eq!(
        (b0.instrs, b0.peak_queue, b0.eager_stalls, b0.raw_stalls),
        (10, 1, 0, 5)
    );
    assert_eq!(
        b0.runs,
        vec![
            (UnitType::Sp, 3),
            (UnitType::LdSt, 1),
            (UnitType::Sp, 1),
            (UnitType::LdSt, 1),
            (UnitType::Sp, 4),
        ]
    );
    // Compare-exchange body: the long SP tail is what fills the queue.
    let b1 = pin(1);
    assert_eq!(
        (b1.instrs, b1.peak_queue, b1.eager_stalls, b1.raw_stalls),
        (9, 2, 0, 6)
    );
    // Swap arm (pure LD/ST) and reconverged increment (pure SP): single
    // same-unit runs never grow the queue past the co-execute slot.
    let b2 = pin(2);
    assert_eq!((b2.instrs, b2.peak_queue, b2.raw_stalls), (2, 1, 0));
    let b3 = pin(3);
    assert_eq!((b3.instrs, b3.peak_queue, b3.raw_stalls), (4, 0, 2));
    let max_peak = a.pressure.iter().map(|p| p.peak_queue).max().unwrap();
    assert_eq!(max_peak, 2, "densest per-visit occupancy bound drifted");

    // Cross-check against a traced simulator run: the cycle-level event
    // stream must agree with the live checker counters, every enqueue
    // must respect the configured capacity, and the multi-warp
    // high-water must dominate the static single-visit peak (warps
    // share the per-SM queue, so real occupancy only stacks higher).
    let gpu = GpuConfig::small();
    let mut engine = WarpedDmr::new(DmrConfig::default(), &gpu);
    let (collector, handle) = TraceHandle::shared(CollectSink::new());
    engine.set_trace(handle.clone());
    let run = w.run_traced(&gpu, &mut engine, handle).unwrap();
    w.check(&run).unwrap();
    let events = collector.lock().unwrap().take();
    let report = engine.report();

    let mut enqueues = 0u64;
    let mut max_depth = 0u32;
    for ev in &events {
        if let TraceEvent::Enqueue {
            depth, capacity, ..
        } = ev
        {
            enqueues += 1;
            max_depth = max_depth.max(*depth);
            assert!(depth <= capacity, "queue overflowed: {ev:?}");
        }
    }
    assert_eq!(enqueues, report.checker.enqueued, "trace lost enqueues");
    assert_eq!(
        max_depth as usize, report.checker.max_queue,
        "trace high-water diverges from the live counter"
    );
    assert!(
        max_depth as usize >= max_peak,
        "measured high-water {max_depth} below static per-visit peak {max_peak}"
    );
}

#[test]
fn json_report_is_well_formed_for_every_benchmark() {
    let cfg = PredictConfig::default();
    for bench in Benchmark::ALL {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let a = analyze(w.kernel(), &cfg);
        let json = a.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{bench}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{bench}: unbalanced braces"
        );
        assert!(json.contains("\"clean\":true"), "{bench}");
    }
}

/// FNV-1a-64 over bytes, as `tests/issue_stream_pins.rs` digests traces.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `Analysis::to_json` for every kernel at the CLI's `analyze` inputs
/// (quick size and chip), byte for byte: the two documents under 1 KB as
/// exact strings, the rest as FNV-1a-64 digests.
#[test]
fn analyze_json_is_pinned() {
    const LAPLACE: &str = r#"{"schema_version":1,"kernel":"laplace","num_instrs":31,"clean":true,"blocks":[{"id":0,"start":0,"end":18,"succs":[2,1],"reachable":true},{"id":1,"start":18,"end":28,"succs":[3],"reachable":true},{"id":2,"start":28,"end":30,"succs":[3],"reachable":true},{"id":3,"start":30,"end":31,"succs":[],"reachable":true}],"lints":[],"warnings":[],"pressure":[{"block":0,"instrs":18,"runs":[{"unit":"Sp","len":18}],"peak_queue":2,"eager_stalls":0,"raw_stalls":15},{"block":1,"instrs":10,"runs":[{"unit":"LdSt","len":4},{"unit":"Sp","len":4},{"unit":"LdSt","len":1},{"unit":"Sp","len":1}],"peak_queue":3,"eager_stalls":0,"raw_stalls":7},{"block":2,"instrs":2,"runs":[{"unit":"LdSt","len":2}],"peak_queue":0,"eager_stalls":0,"raw_stalls":1},{"block":3,"instrs":1,"runs":[{"unit":"Sp","len":1}],"peak_queue":0,"eager_stalls":0,"raw_stalls":0}],"exact":null}"#;
    const LIBOR: &str = r#"{"schema_version":1,"kernel":"libor","num_instrs":36,"clean":true,"blocks":[{"id":0,"start":0,"end":8,"succs":[1],"reachable":true},{"id":1,"start":8,"end":10,"succs":[3,2],"reachable":true},{"id":2,"start":10,"end":33,"succs":[1],"reachable":true},{"id":3,"start":33,"end":36,"succs":[],"reachable":true}],"lints":[],"warnings":[],"pressure":[{"block":0,"instrs":8,"runs":[{"unit":"Sp","len":8}],"peak_queue":3,"eager_stalls":0,"raw_stalls":4},{"block":1,"instrs":2,"runs":[{"unit":"Sp","len":2}],"peak_queue":0,"eager_stalls":0,"raw_stalls":1},{"block":2,"instrs":23,"runs":[{"unit":"Sp","len":15},{"unit":"Sfu","len":1},{"unit":"Sp","len":7}],"peak_queue":3,"eager_stalls":0,"raw_stalls":19},{"block":3,"instrs":3,"runs":[{"unit":"Sp","len":1},{"unit":"LdSt","len":1},{"unit":"Sp","len":1}],"peak_queue":0,"eager_stalls":0,"raw_stalls":1}],"exact":null}"#;
    let digests = [
        (Benchmark::Bfs, 0x129e01b376248611),
        (Benchmark::NQueen, 0x0cdb1b8743470623),
        (Benchmark::Mum, 0xde92686ad9dfc8a2),
        (Benchmark::Scan, 0xd874e041654b9f8e),
        (Benchmark::BitonicSort, 0x1623c23d0d659fcf),
        (Benchmark::MatrixMul, 0x5591dd58118b93b0),
        (Benchmark::RadixSort, 0xda1ca048b2dde3f7),
        (Benchmark::Sha, 0xc567c334f1614c9a),
        (Benchmark::Fft, 0xde96ffe1f529aa7b),
    ];
    let quick = ExperimentConfig::quick();
    let cfg = predict_config(&quick.gpu);
    let json =
        |bench: Benchmark| analyze(bench.build(quick.size).unwrap().kernel(), &cfg).to_json();
    assert_eq!(json(Benchmark::Laplace), LAPLACE);
    assert_eq!(json(Benchmark::Libor), LIBOR);
    for (bench, pin) in digests {
        let got = fnv1a(json(bench).as_bytes());
        assert_eq!(got, pin, "{bench}: analyze JSON moved; now {got:#018x}");
    }
}
