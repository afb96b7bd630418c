//! Integration: each figure harness produces structurally sane series —
//! fractions sum to one, averages sit in the paper's orderings, schemes
//! rank as §5.3 reports — and the run plan behind them simulates each
//! distinct run once without changing any run.

use warped::baselines::SchemeKind;
use warped::dmr::DmrConfig;
use warped::experiments::runs::{Chip, Collectors, RunKey, Runs};
use warped::experiments::{
    ablation, config_tables, coverage_profile, fig1, fig10, fig11, fig5, fig8, fig9a, fig9b,
    ExperimentConfig,
};
use warped::kernels::Benchmark;
use warped::sim::{NullObserver, SchedulerPolicy};

fn cfg() -> ExperimentConfig {
    ExperimentConfig::test_tiny()
}

/// `build` over a plan of only `keys` at `test_tiny`.
fn planned<T>(keys: Vec<RunKey>, build: impl FnOnce(&Runs) -> T) -> T {
    build(&Runs::simulate(&cfg(), &keys).unwrap())
}

#[test]
fn fig1_fractions_sum_to_one_per_benchmark() {
    let (rows, table) = planned(fig1::keys(), fig1::build);
    assert_eq!(rows.len(), Benchmark::ALL.len());
    assert_eq!(table.len(), rows.len());
    for r in &rows {
        let sum: f64 = r.fractions.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9, "{}: sum {sum}", r.benchmark);
    }
    // The headline contrasts.
    let get = |b: Benchmark| {
        rows.iter()
            .find(|r| r.benchmark == b)
            .unwrap()
            .full_fraction()
    };
    assert!(get(Benchmark::MatrixMul) > 0.99);
    assert!(get(Benchmark::Bfs) < 0.5, "BFS must be underutilized");
    assert!(get(Benchmark::BitonicSort) < 0.6);
}

#[test]
fn fig5_unit_mix_sums_to_one_and_shapes_hold() {
    let (rows, _) = planned(fig5::keys(), fig5::build);
    for r in &rows {
        assert!(
            (r.sp + r.sfu + r.ldst - 1.0).abs() < 1e-9,
            "{}",
            r.benchmark
        );
    }
    let get = |b: Benchmark| rows.iter().find(|r| r.benchmark == b).unwrap();
    assert!(get(Benchmark::Sha).sp > 0.5, "SHA is SP-dominated");
    assert!(
        get(Benchmark::Sha).ldst > 0.1,
        "SHA's W[] window lives in memory"
    );
    assert!(get(Benchmark::Libor).sfu > 0.02, "Libor uses the SFU");
    assert!(
        get(Benchmark::Fft).sfu > 0.015,
        "FFT computes twiddles on SFU"
    );
    assert!(get(Benchmark::Bfs).ldst > 0.1, "BFS chases pointers");
}

#[test]
fn fig8a_switch_distances_are_bounded() {
    let (rows, _) = planned(fig8::keys(), fig8::build_switch_distances);
    for r in &rows {
        for d in [r.sp, r.sfu, r.ldst].into_iter().flatten() {
            assert!(d >= 1.0, "{}: run shorter than a cycle", r.benchmark);
            assert!(d < 5000.0, "{}: implausible run {d}", r.benchmark);
        }
        assert!(
            r.sp.is_some(),
            "{}: every kernel issues SP work",
            r.benchmark
        );
    }
}

#[test]
fn fig8b_raw_distances_respect_pipeline_floor() {
    let (rows, _) = planned(fig8::keys(), fig8::build_raw_distances);
    for r in &rows {
        let min = r
            .min
            .unwrap_or_else(|| panic!("{}: no RAW deps", r.benchmark));
        assert!(min >= 8, "{}: RAW below the 8-cycle floor", r.benchmark);
        assert!((0.0..=1.0).contains(&r.frac_over_100));
    }
    // Long-distance dependencies exist somewhere (paper: "almost half of
    // the registers have greater than 100 cycles of distance").
    assert!(rows.iter().any(|r| r.frac_over_100 > 0.05));
}

#[test]
fn fig9a_configuration_ordering_holds_on_average() {
    let (rows, _) = planned(fig9a::keys(), fig9a::build);
    let (four, eight, cross) = fig9a::averages(&rows);
    assert!(
        four <= eight + 1e-9,
        "8-lane clusters pair at least as well"
    );
    assert!(four < cross, "cross mapping must beat the baseline");
    for r in &rows {
        for v in [r.four_lane, r.eight_lane, r.cross_mapping] {
            assert!((0.0..=100.0 + 1e-9).contains(&v), "{}", r.benchmark);
        }
    }
}

#[test]
fn fig9b_overhead_decreases_with_queue_size_on_average() {
    let (rows, _) = planned(fig9b::keys(), fig9b::build);
    let avg = fig9b::averages(&rows);
    assert!(
        avg[0] >= avg[3],
        "Q=0 average {} must be the most expensive (Q=10 {})",
        avg[0],
        avg[3]
    );
    assert!(
        avg[3] < 1.7,
        "Q=10 average overhead implausibly high: {}",
        avg[3]
    );
    for r in &rows {
        for v in r.normalized {
            assert!(v > 0.5 && v < 3.5, "{}: normalized {v}", r.benchmark);
        }
    }
}

#[test]
fn fig10_scheme_ranking_matches_the_paper() {
    let (rows, _) = planned(fig10::keys(), fig10::build);
    for r in &rows {
        let naive = r.normalized(SchemeKind::RNaive);
        let warped = r.normalized(SchemeKind::WarpedDmr);
        let dmtr = r.normalized(SchemeKind::Dmtr);
        assert!(
            naive >= warped,
            "{}: R-Naive {naive} cheaper than Warped-DMR {warped}",
            r.benchmark
        );
        assert!(
            warped <= dmtr + 1e-9,
            "{}: Warped-DMR {warped} above DMTR {dmtr}",
            r.benchmark
        );
        // DMR stalls perturb warp interleaving; tiny divergence-heavy
        // runs can jitter a hair below 1.0.
        assert!(
            warped >= 0.95,
            "{}: {warped} far below unprotected",
            r.benchmark
        );
    }
}

#[test]
fn fig11_ratios_are_plausible() {
    let (rows, _) = planned(fig11::keys(), fig11::build);
    let (p, e) = fig11::averages(&rows);
    assert!(p > 0.9 && p < 1.6, "average power ratio {p}");
    assert!(e > 1.0 && e < 2.5, "average energy ratio {e}");
    assert!(e >= p * 0.999, "energy ratio embeds the time stretch");
}

#[test]
fn coverage_profile_matches_section_33_theory() {
    use warped::experiments::coverage_profile::{self, theoretical_intra_coverage};
    // Closed-form checks of the paper's coverage formula.
    assert_eq!(theoretical_intra_coverage(0), 0.0);
    assert_eq!(theoretical_intra_coverage(8), 1.0);
    assert_eq!(theoretical_intra_coverage(16), 1.0);
    assert!((theoretical_intra_coverage(24) - 8.0 / 24.0).abs() < 1e-12);
    assert!((theoretical_intra_coverage(32) - 0.0).abs() < 1e-12);

    let (rows, _) = planned(coverage_profile::keys(), coverage_profile::build);
    for r in &rows {
        // Fully-utilized warps are always 100% covered (inter-warp DMR).
        if let Some(full) = r.per_bucket[4] {
            assert!((full - 100.0).abs() < 1e-9, "{}: bucket 32", r.benchmark);
        }
        // Single-thread warps are always coverable (three idle mates).
        if let Some(one) = r.per_bucket[0] {
            assert!((one - 100.0).abs() < 1e-9, "{}: bucket 1", r.benchmark);
        }
        // The high-utilization partial bucket is where losses live:
        // never *better* than the ≤ half-warp buckets by construction.
        if let (Some(hi), Some(lo)) = (r.per_bucket[3], r.per_bucket[1]) {
            assert!(
                hi <= lo + 1e-9,
                "{}: 22-31 ({hi}) > 2-11 ({lo})",
                r.benchmark
            );
        }
    }
}

#[test]
fn config_tables_render() {
    let t1 = config_tables::table1();
    let text = t1.render();
    // Spot-check the paper's Table 1 entries.
    assert!(text.contains("1st"));
    let t3 = config_tables::table3(&cfg().gpu);
    assert!(t3.render().contains("Warp Size"));
    let t4 = config_tables::table4();
    assert_eq!(t4.len(), Benchmark::ALL.len());
}

/// FNV-1a-64 over bytes, as `tests/analysis.rs` digests its documents.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every figure and ablation table at `test_tiny`, byte for byte: the
/// FNV-1a-64 digest of each table's CSV.
#[test]
fn figure_tables_are_pinned() {
    let c = cfg();
    let tables = [
        (
            "fig1",
            planned(fig1::keys(), fig1::build).1,
            0xf2d329360d713a47,
        ),
        (
            "fig5",
            planned(fig5::keys(), fig5::build).1,
            0x1ae4a45357d9244a,
        ),
        (
            "fig8a",
            planned(fig8::keys(), fig8::build_switch_distances).1,
            0x4743bbcffa6081c4,
        ),
        (
            "fig8b",
            planned(fig8::keys(), fig8::build_raw_distances).1,
            0x688b323a013be34c,
        ),
        (
            "fig9a",
            planned(fig9a::keys(), fig9a::build).1,
            0x481a723740ba7f2d,
        ),
        (
            "fig9b",
            planned(fig9b::keys(), fig9b::build).1,
            0xd5a82e40fc849e43,
        ),
        (
            "fig10",
            planned(fig10::keys(), fig10::build).1,
            0xef925c4a9b1a8915,
        ),
        (
            "fig11",
            planned(fig11::keys(), fig11::build).1,
            0xc798fcc376a31b84,
        ),
        (
            "profile",
            planned(coverage_profile::keys(), coverage_profile::build).1,
            0x4f8ab21eb65ea5c1,
        ),
        (
            "mechanisms",
            planned(ablation::mechanism_keys(), ablation::build_mechanisms).1,
            0x74ac2e8f34a8c625,
        ),
        (
            "scheduler",
            planned(ablation::scheduler_keys(), ablation::build_scheduler).1,
            0x452ea0f4cecf394a,
        ),
        (
            "dual_issue",
            planned(ablation::dual_issue_keys(), ablation::build_dual_issue).1,
            0xd94f0faeb901d60b,
        ),
        (
            "sampling",
            planned(ablation::sampling_keys(), |runs| {
                ablation::sampling(&c, runs)
            })
            .unwrap()
            .1,
            0x15a295bdd2a038d0,
        ),
        (
            "shuffling",
            ablation::shuffling(&c, 3, 99).unwrap(),
            0xafa2616a712e333f,
        ),
    ];
    let mut moved = Vec::new();
    for (name, table, pin) in tables {
        let got = fnv1a(table.to_csv().as_bytes());
        if got != pin {
            moved.push(format!("{name}: now {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "figure tables moved: {moved:?}");
}

/// The run plan shares one bare run between Fig. 1, 5, 8, the
/// unprotected baselines and the ablations. That rests on the collectors
/// charging no stall: on every chip the ablations use, the run carrying
/// all four equals the run with no observer.
#[test]
fn collectors_never_change_the_run() {
    let chips = [
        Chip::Configured,
        Chip::Scheduler(SchedulerPolicy::LooseRoundRobin),
        Chip::DualIssue,
    ];
    for chip in chips {
        let gpu = chip.resolve(&cfg().gpu);
        for bench in Benchmark::ALL {
            let w = bench.build(cfg().size).unwrap();
            let mut collectors = Collectors::default();
            let observed = w.run_with(&gpu, &mut collectors.observer()).unwrap();
            let bare = w.run_with(&gpu, &mut NullObserver).unwrap();
            assert_eq!(
                observed, bare,
                "{bench} on {chip:?}: the collectors changed the run"
            );
        }
    }
}

#[test]
fn the_plan_simulates_each_distinct_run_once() {
    let bare = RunKey::Bare(Chip::Configured);
    let default = RunKey::Dmr(Chip::Configured, DmrConfig::default());
    let repeated = [
        bare.clone(),
        default.clone(),
        bare.clone(),
        RunKey::Dmr(Chip::Configured, DmrConfig::default().with_replayq(10)),
    ];
    let runs = Runs::simulate(&cfg(), &repeated).unwrap();
    assert_eq!(runs.keys(), [bare.clone(), default.clone()]);

    // A key naming the configured chip another way is the same run:
    // greedy-then-oldest on a greedy-then-oldest chip...
    let greedy = Chip::Scheduler(SchedulerPolicy::GreedyThenOldest);
    let round_robin = Chip::Scheduler(SchedulerPolicy::LooseRoundRobin);
    assert_eq!(cfg().gpu.scheduler, SchedulerPolicy::GreedyThenOldest);
    let renamed = [
        bare.clone(),
        default.clone(),
        RunKey::Bare(greedy),
        RunKey::Dmr(greedy, DmrConfig::default()),
    ];
    let runs = Runs::simulate(&cfg(), &renamed).unwrap();
    assert_eq!(runs.keys(), [bare.clone(), default.clone()]);
    // Lookups resolve the same way: the scheduler ablation finds its
    // greedy runs under the configured chip's keys.
    let spelled = [
        bare.clone(),
        default,
        RunKey::Bare(round_robin),
        RunKey::Dmr(round_robin, DmrConfig::default()),
    ];
    let (_, shared) = ablation::build_scheduler(&Runs::simulate(&cfg(), &spelled).unwrap());
    let (_, own) = planned(ablation::scheduler_keys(), ablation::build_scheduler);
    assert_eq!(shared.to_csv(), own.to_csv());
    // ...and round-robin on a round-robin chip, where greedy is not.
    let rr_cfg = ExperimentConfig {
        gpu: round_robin.resolve(&cfg().gpu),
        ..cfg()
    };
    let chips = [
        bare.clone(),
        RunKey::Bare(round_robin),
        RunKey::Bare(greedy),
    ];
    let runs = Runs::simulate(&rr_cfg, &chips).unwrap();
    assert_eq!(runs.keys(), [bare, RunKey::Bare(greedy)]);

    // The whole figure set, `profile` included, reads nine distinct runs
    // per benchmark; `warped all` adds the ablations' for fifteen.
    let figure_set = [
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
    let runs = Runs::simulate(&cfg(), &figure_set).unwrap();
    assert_eq!(runs.keys().len(), 9);
    let all = [figure_set, ablation::keys()].concat();
    let runs = Runs::simulate(&cfg(), &all).unwrap();
    assert_eq!(runs.keys().len(), 15);
}
