//! Integration: the design-choice ablations behave as the design claims.

use warped::experiments::runs::{RunKey, Runs};
use warped::experiments::{ablation, ExperimentConfig};

fn cfg() -> ExperimentConfig {
    ExperimentConfig::test_tiny()
}

/// `build` over a plan of only `keys` at `test_tiny`.
fn planned<T>(keys: Vec<RunKey>, build: impl FnOnce(&Runs) -> T) -> T {
    build(&Runs::simulate(&cfg(), &keys).unwrap())
}

#[test]
fn mechanisms_are_complementary() {
    // The paper's central claim: intra- and inter-warp DMR complement
    // each other. Combined coverage must (approximately) dominate each
    // alone, and neither mechanism alone suffices across the suite.
    let (rows, table) = planned(ablation::mechanism_keys(), ablation::build_mechanisms);
    assert_eq!(table.len(), rows.len());
    for r in &rows {
        assert!(
            r.both + 1e-6 >= r.intra_only,
            "{}: both {} < intra {}",
            r.benchmark,
            r.both,
            r.intra_only
        );
        assert!(
            r.both + 1e-6 >= r.inter_only,
            "{}: both {} < inter {}",
            r.benchmark,
            r.both,
            r.inter_only
        );
    }
    // Some benchmark leans heavily on intra-warp DMR...
    assert!(
        rows.iter().any(|r| r.both - r.inter_only > 15.0),
        "someone needs the intra mechanism: {rows:?}"
    );
    // ...and some needs inter (intra alone is weak).
    assert!(rows.iter().any(|r| r.intra_only < 10.0 && r.both > 99.0));
}

#[test]
fn greedy_scheduling_shortens_type_runs() {
    let (rows, _) = planned(ablation::scheduler_keys(), ablation::build_scheduler);
    let shorter = rows
        .iter()
        .filter(|r| match (r.greedy_sp_run, r.rr_sp_run) {
            (Some(g), Some(rr)) => g <= rr + 1e-9,
            _ => false,
        })
        .count();
    assert!(
        shorter * 3 >= rows.len() * 2,
        "greedy should shorten SP runs on most benchmarks ({shorter}/{})",
        rows.len()
    );
}

#[test]
fn sampling_trades_coverage_for_overhead_monotonically() {
    let (rows, _) = planned(ablation::sampling_keys(), |runs| {
        ablation::sampling(&cfg(), runs)
    })
    .unwrap();
    assert_eq!(rows.len(), 4);
    for w in rows.windows(2) {
        assert!(w[0].duty < w[1].duty);
        assert!(
            w[0].coverage_pct <= w[1].coverage_pct + 1e-9,
            "coverage must grow with duty: {rows:?}"
        );
        assert!(
            w[0].normalized_cycles <= w[1].normalized_cycles + 0.02,
            "overhead must grow with duty: {rows:?}"
        );
    }
    // Full duty equals plain Warped-DMR coverage on matmul: 100%.
    assert!((rows[3].coverage_pct - 100.0).abs() < 1e-6);
    // Low duty costs close to nothing.
    assert!(rows[0].normalized_cycles < rows[3].normalized_cycles);
}

#[test]
fn dual_schedulers_speed_up_but_never_double() {
    let (rows, _) = planned(ablation::dual_issue_keys(), ablation::build_dual_issue);
    for r in &rows {
        let s = r.speedup();
        assert!(
            (0.95..=2.0).contains(&s),
            "{}: implausible speedup {s}",
            r.benchmark
        );
        assert!((0.0..=1.0).contains(&r.dual_fire_rate));
    }
    // §2.2: even with two schedulers, not all units are busy — nobody
    // reaches the structural 2.0x.
    assert!(rows.iter().all(|r| r.speedup() < 1.99));
    // And at least one benchmark benefits substantially.
    assert!(rows.iter().any(|r| r.speedup() > 1.3));
}

#[test]
fn dual_issue_preserves_results() {
    use warped::kernels::{Benchmark, WorkloadSize};
    use warped::sim::NullObserver;
    let base_gpu = cfg().gpu;
    let dual_gpu = base_gpu.clone().with_dual_issue();
    for bench in [Benchmark::RadixSort, Benchmark::Sha] {
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let a = w.run_with(&base_gpu, &mut NullObserver).unwrap();
        let b = w.run_with(&dual_gpu, &mut NullObserver).unwrap();
        assert_eq!(a.output, b.output, "{bench}: dual issue changed results");
        w.check(&b).unwrap();
    }
}

#[test]
fn shuffling_table_shows_the_hidden_error_problem() {
    let t = ablation::shuffling(&cfg(), 3, 99).unwrap();
    let text = t.render();
    // Column order: shuffled then affinity; affinity must be all zeros.
    for line in text.lines().skip(2) {
        let cells: Vec<&str> = line.split_whitespace().collect();
        let shuffled: f64 = cells[cells.len() - 2].parse().unwrap();
        let affinity: f64 = cells[cells.len() - 1].parse().unwrap();
        assert_eq!(affinity, 0.0, "core affinity must hide stuck-at faults");
        assert!(shuffled > 99.0, "shuffling must expose them");
    }
}
