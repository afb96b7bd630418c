//! Integration: every benchmark runs correctly under every protection
//! scheme, and the coverage/overhead relationships the paper reports hold
//! end to end.

use warped::baselines::Dmtr;
use warped::dmr::{DmrConfig, ThreadCoreMapping, WarpedDmr};
use warped::kernels::{Benchmark, WorkloadSize};
use warped::runner::Runner;
use warped::sim::{GpuConfig, NullObserver};

fn gpu() -> GpuConfig {
    GpuConfig::small()
}

// The suite sweeps fan out through the same worker pool the experiment
// harnesses use (`WARPED_THREADS` sizes it); per-benchmark assertion
// panics propagate to the test like in the serial loop.
fn suite_runner() -> Runner {
    Runner::from_env()
}

#[test]
fn all_benchmarks_validate_unprotected() {
    suite_runner().map(Benchmark::ALL, |bench| {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let run = w.run_with(&gpu(), &mut NullObserver).unwrap();
        w.check(&run)
            .unwrap_or_else(|e| panic!("{bench} failed validation: {e}"));
        assert!(run.stats.cycles > 0, "{bench} reported zero cycles");
        assert!(run.stats.warp_instructions > 0);
    });
}

#[test]
fn all_benchmarks_validate_under_warped_dmr() {
    suite_runner().map(Benchmark::ALL, |bench| {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let mut engine = WarpedDmr::new(DmrConfig::default(), &gpu());
        let run = w.run_with(&gpu(), &mut engine).unwrap();
        w.check(&run)
            .unwrap_or_else(|e| panic!("{bench} corrupted by DMR observer: {e}"));
        let r = engine.report();
        // Tiny CUFFT (24-thread blocks, no full warps) bottoms out near
        // 45% — everything else sits far higher.
        assert!(
            r.coverage_pct() > 30.0 && r.coverage_pct() <= 100.0,
            "{bench}: implausible coverage {:.2}%",
            r.coverage_pct()
        );
        assert_eq!(r.errors_detected, 0, "{bench}: healthy run flagged errors");
    });
}

#[test]
fn all_benchmarks_validate_under_dmtr() {
    suite_runner().map(Benchmark::ALL, |bench| {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let mut engine = Dmtr::new();
        let run = w.run_with(&gpu(), &mut engine).unwrap();
        w.check(&run)
            .unwrap_or_else(|e| panic!("{bench} corrupted by DMTR observer: {e}"));
        assert!(
            (engine.stats.coverage_pct() - 100.0).abs() < 1e-9,
            "{bench}: DMTR must verify everything"
        );
    });
}

#[test]
fn dmr_observers_never_change_cycle_free_results() {
    // The observer may stretch time but the architectural output must be
    // bit-identical with and without it.
    for bench in [Benchmark::Sha, Benchmark::BitonicSort, Benchmark::Bfs] {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let base = w.run_with(&gpu(), &mut NullObserver).unwrap();
        let mut engine = WarpedDmr::new(DmrConfig::default(), &gpu());
        let protected = w.run_with(&gpu(), &mut engine).unwrap();
        assert_eq!(base.output, protected.output, "{bench} output changed");
        assert!(protected.stats.cycles >= base.stats.cycles * 9 / 10);
    }
}

#[test]
fn warped_dmr_is_cheaper_than_dmtr_on_every_benchmark() {
    suite_runner().map(Benchmark::ALL, |bench| {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let mut wd = WarpedDmr::new(DmrConfig::default(), &gpu());
        let warped = w.run_with(&gpu(), &mut wd).unwrap().stats.cycles;
        let mut dt = Dmtr::new();
        let dmtr = w.run_with(&gpu(), &mut dt).unwrap().stats.cycles;
        assert!(
            warped <= dmtr,
            "{bench}: Warped-DMR ({warped}) costs more than DMTR ({dmtr})"
        );
    });
}

#[test]
fn coverage_shapes_match_the_paper() {
    let run_cov = |bench: Benchmark, cfg: DmrConfig| -> f64 {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let mut engine = WarpedDmr::new(cfg, &gpu());
        let run = w.run_with(&gpu(), &mut engine).unwrap();
        w.check(&run).unwrap();
        engine.report().coverage_pct()
    };
    // Fully parallel kernels: 100% inter-warp coverage.
    for bench in [Benchmark::MatrixMul, Benchmark::Sha, Benchmark::Libor] {
        assert!((run_cov(bench, DmrConfig::default()) - 100.0).abs() < 1e-9);
    }
    // BFS: intra-warp handles nearly everything.
    assert!(run_cov(Benchmark::Bfs, DmrConfig::default()) > 99.0);
    // CUFFT: the lowest coverage of the suite (paper Fig. 9a).
    let fft = run_cov(Benchmark::Fft, DmrConfig::default());
    for bench in [Benchmark::Bfs, Benchmark::MatrixMul, Benchmark::Scan] {
        assert!(fft < run_cov(bench, DmrConfig::default()));
    }
    // Cross mapping >= in-order on the contiguous-divergence benchmarks.
    let cross = run_cov(Benchmark::Fft, DmrConfig::default());
    let in_order = run_cov(Benchmark::Fft, DmrConfig::baseline_in_order());
    assert!(cross > in_order, "cross {cross} <= in-order {in_order}");
}

#[test]
fn replayq_sweep_is_monotone_on_burst_heavy_kernels() {
    // SHA's long SP bursts make it the clean ReplayQ stress (Fig. 8a/9b).
    let w = Benchmark::Sha.build(WorkloadSize::Tiny).unwrap();
    let mut cycles = Vec::new();
    for q in [0usize, 1, 5, 10] {
        let mut engine = WarpedDmr::new(DmrConfig::default().with_replayq(q), &gpu());
        cycles.push(w.run_with(&gpu(), &mut engine).unwrap().stats.cycles);
    }
    assert!(
        cycles.windows(2).all(|w| w[0] >= w[1]),
        "cycles must not increase with queue size: {cycles:?}"
    );
    assert!(cycles[0] > cycles[3], "queue must help SHA: {cycles:?}");
}

#[test]
fn mapping_ablation_runs_both_ways() {
    for mapping in [ThreadCoreMapping::InOrder, ThreadCoreMapping::CrossCluster] {
        let cfg = DmrConfig {
            mapping,
            ..DmrConfig::default()
        };
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let mut engine = WarpedDmr::new(cfg, &gpu());
        let run = w.run_with(&gpu(), &mut engine).unwrap();
        w.check(&run).unwrap();
    }
}

/// What each benchmark's host code moves and launches: the footprint
/// Fig. 10 prices PCIe transfers from, and the block size static
/// certification derives warp shapes from.
#[test]
fn host_facts_are_pinned() {
    use Benchmark::*;
    use WorkloadSize::{Full, Small, Tiny};
    // (input_words, output_words, block_threads) at Tiny, Small, Full.
    let pins = [
        (
            Bfs,
            [(1673, 256, 64), (30798, 4096, 256), (122868, 16384, 256)],
        ),
        (NQueen, [(0, 96, 96), (0, 768, 96), (0, 1056, 96)]),
        (
            Mum,
            [(3200, 128, 64), (59392, 2048, 128), (290336, 8192, 128)],
        ),
        (
            Scan,
            [(256, 256, 64), (8192, 8192, 256), (61440, 61440, 256)],
        ),
        (
            BitonicSort,
            [(128, 128, 128), (2048, 2048, 512), (30720, 30720, 512)],
        ),
        (
            Laplace,
            [(256, 256, 128), (4096, 4096, 128), (20480, 20480, 128)],
        ),
        (
            MatrixMul,
            [(2048, 1024, 256), (8192, 4096, 256), (51200, 25600, 256)],
        ),
        (
            RadixSort,
            [(64, 64, 64), (2048, 2048, 256), (15360, 15360, 256)],
        ),
        (Sha, [(512, 160, 32), (8192, 2560, 64), (61440, 19200, 64)]),
        (Libor, [(0, 32, 32), (0, 512, 64), (0, 4096, 64)]),
        (Fft, [(128, 128, 24), (2048, 2048, 56), (15360, 15360, 56)]),
    ];
    assert_eq!(pins.map(|(b, _)| b), Benchmark::ALL);
    for (bench, facts) in pins {
        for (size, expected) in [Tiny, Small, Full].into_iter().zip(facts) {
            let w = bench.build(size).unwrap();
            let f = w.footprint();
            let got = (f.input_words, f.output_words, w.block_threads());
            assert_eq!(got, expected, "{bench} {size:?}");
        }
    }
}
