//! The `figure-suite` workload: every benchmark at full size on the
//! paper's 30-SM chip, as three jobs each — bare, Warped-DMR, and
//! Warped-DMR with a streamed trace — fanned out through the runner.

use crate::spans::{Ctx, Spans};
use crate::stats::{median, percentile, Cells, Tally};
use crate::{elapsed_ns, ms, timed, Opts, Outcome, Passes};
use std::time::Instant;
use warped::dmr::{DmrConfig, DmrReport, WarpedDmr};
use warped::experiments::ExperimentConfig;
use warped::kernels::{Benchmark, ProgramRun, Workload};
use warped::runner::Runner;
use warped::sim::{GpuConfig, NullObserver};
use warped::trace::{Fanout, InvariantSink, MetricsSink, TraceHandle, VerifyKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Job {
    Bare,
    Dmr,
    Traced,
}

const JOBS: [Job; 3] = [Job::Bare, Job::Dmr, Job::Traced];

/// What one job measured and produced.
struct JobOut {
    bench: usize,
    job: Job,
    queue_ns: u64,
    run_ns: u64,
    check_ns: u64,
    run: Option<ProgramRun>,
    report: Option<DmrReport>,
    /// Traced jobs only: events seen, invariant violations, and whether
    /// the metrics replay reproduced the live report.
    events: u64,
    violations: u64,
    replay_exact: bool,
    error: Option<String>,
}

impl JobOut {
    /// Simulated facts that must repeat exactly on every pass.
    fn signature(&self) -> Option<(u64, u64, u64, u64)> {
        let s = &self.run.as_ref()?.stats;
        Some((
            s.cycles,
            s.warp_instructions,
            s.thread_instructions,
            self.events,
        ))
    }
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let cfg = ExperimentConfig::paper();
    // One worker: with two, each job's time depends on which job shares
    // the host with it, and on a 2-vCPU host that spread exceeds the
    // bound. The jobs still go through `Runner::map`.
    let runner = Runner::new(1);
    let mut out = Outcome::new(format!(
        "scale=Full chip={} SMs workers={}",
        cfg.gpu.num_sms,
        runner.threads()
    ));

    let build = || -> Vec<_> { Benchmark::ALL.iter().map(|b| b.build(cfg.size)).collect() };
    let (setup_ns, built) = timed(build);
    let mut workloads = Vec::new();
    for (b, w) in Benchmark::ALL.iter().zip(built) {
        if let Some(w) = out.tally.result(&format!("{b}: Benchmark::build"), w) {
            workloads.push(w);
        }
    }
    if workloads.len() != Benchmark::ALL.len() {
        return out;
    }

    let mut acc = Acc::default();
    let passes = Passes::run(
        opts,
        setup_ns,
        || drop(build()),
        |spans| {
            let root = Ctx {
                trace: spans.new_trace(),
                parent: None,
            };
            let t0 = Instant::now();
            let mut outs = spans.time(root, "runner", "Runner::map", |c| {
                fan_out(&runner, &workloads, &cfg.gpu, spans, c)
            });
            acc.map_ns += elapsed_ns(t0);
            check_pass(&outs, &mut out.tally, acc.first.as_deref());
            for o in &mut outs {
                let cell = format!("{}/{:?}", Benchmark::ALL[o.bench], o.job);
                acc.total.record(cell.clone(), o.run_ns + o.check_ns);
                acc.run.record(cell.clone(), o.run_ns);
                acc.check.record(cell, o.check_ns);
                acc.queue_ms.push(ms(o.queue_ns));
                acc.busy_ns += o.run_ns + o.check_ns;
                if let Some(r) = &mut o.run {
                    r.output = Vec::new();
                }
            }
            acc.first.get_or_insert(outs);
        },
    );
    out.set_setup(passes);
    report(&mut out, &acc, &cfg.gpu, runner.threads());
    out
}

/// Timings over all passes, and the first pass's jobs (outputs dropped)
/// for the simulated counts, which repeat exactly.
#[derive(Default)]
struct Acc {
    total: Cells,
    run: Cells,
    check: Cells,
    queue_ms: Vec<f64>,
    busy_ns: u64,
    map_ns: u64,
    first: Option<Vec<JobOut>>,
}

/// Submit all 33 jobs at once and run them on the runner's workers.
/// Uses `Runner::map` rather than `try_map` so that each job's failure
/// is counted on its own instead of only the first.
fn fan_out(
    runner: &Runner,
    workloads: &[Workload],
    gpu: &GpuConfig,
    spans: &Spans,
    parent: Ctx,
) -> Vec<JobOut> {
    let cells: Vec<(usize, Job)> = (0..workloads.len())
        .flat_map(|b| JOBS.map(|j| (b, j)))
        .collect();
    let submitted = Instant::now();
    runner.map(cells, |(b, job)| {
        let queue_ns = elapsed_ns(submitted);
        let ctx = Ctx {
            trace: spans.new_trace(),
            parent: parent.parent,
        };
        spans.time(ctx, "runner", "job", |c| {
            run_job(&workloads[b], b, job, gpu, spans, c, queue_ns)
        })
    })
}

fn run_job(
    w: &Workload,
    bench: usize,
    job: Job,
    gpu: &GpuConfig,
    spans: &Spans,
    ctx: Ctx,
    queue_ns: u64,
) -> JobOut {
    let mut out = JobOut {
        bench,
        job,
        queue_ns,
        run_ns: 0,
        check_ns: 0,
        run: None,
        report: None,
        events: 0,
        violations: 0,
        replay_exact: true,
        error: None,
    };
    let (run_ns, result) = match job {
        Job::Bare => timed(|| {
            spans.time(ctx, "sim", "Workload::run_with(NullObserver)", |_| {
                w.run_with(gpu, &mut NullObserver).map(|r| (r, None))
            })
        }),
        Job::Dmr => timed(|| {
            spans.time(ctx, "core", "Workload::run_with(WarpedDmr)", |_| {
                let mut engine = WarpedDmr::new(DmrConfig::default(), gpu);
                w.run_with(gpu, &mut engine)
                    .map(|r| (r, Some(engine.report())))
            })
        }),
        Job::Traced => timed(|| {
            spans.time(ctx, "trace", "Workload::run_traced(Fanout)", |_| {
                let (inv, inv_h) = TraceHandle::shared(InvariantSink::new());
                let (met, met_h) = TraceHandle::shared(MetricsSink::new());
                let fan = TraceHandle::new(Fanout::new(vec![inv_h, met_h]));
                let mut engine = WarpedDmr::new(DmrConfig::default(), gpu);
                engine.set_trace(fan.clone());
                let r = w.run_traced(gpu, &mut engine, fan.clone());
                fan.flush();
                let live = engine.report();
                let met = met.lock().expect("metrics sink poisoned");
                out.events = met.events_seen;
                out.replay_exact = DmrReport::from_metrics(&met) == live;
                out.violations = inv
                    .lock()
                    .expect("invariant sink poisoned")
                    .total_violations();
                r.map(|r| (r, Some(live)))
            })
        }),
    };
    out.run_ns = run_ns;
    match result {
        Ok((run, report)) => {
            let (check_ns, checked) =
                timed(|| spans.time(ctx, "kernels", "Workload::check", |_| w.check(&run)));
            out.check_ns = check_ns;
            if let Err(e) = checked {
                out.error = Some(format!("{}: check: {e}", w.name()));
            }
            out.run = Some(run);
            out.report = report;
        }
        Err(e) => out.error = Some(format!("{}: {e}", w.name())),
    }
    out
}

/// Count every check of one pass: each job ran and passed
/// `Workload::check`; both DMR jobs match the bare output; the traced job
/// broke no invariant and its metrics replay matches the live report;
/// every job's simulated counts equal those of the first pass.
fn check_pass(outs: &[JobOut], tally: &mut Tally, first: Option<&[JobOut]>) {
    for o in outs {
        tally.check(o.error.is_none(), || o.error.clone().unwrap_or_default());
    }
    let bare_of = |b: usize| outs.iter().find(|o| o.bench == b && o.job == Job::Bare);
    for o in outs.iter().filter(|o| o.job != Job::Bare) {
        let name = Benchmark::ALL[o.bench].name();
        let same = match (&o.run, bare_of(o.bench).and_then(|b| b.run.as_ref())) {
            (Some(r), Some(b)) => r.output == b.output,
            _ => false,
        };
        tally.check(same, || {
            format!("{name}: {:?} output differs from bare", o.job)
        });
        if o.job == Job::Traced {
            tally.check(o.violations == 0, || {
                format!("{name}: {} invariant violation(s)", o.violations)
            });
            tally.check(o.replay_exact, || {
                format!("{name}: MetricsSink replay differs from the live DmrReport")
            });
        }
    }
    if let Some(first) = first {
        for (o, f) in outs.iter().zip(first) {
            tally.check(o.signature() == f.signature(), || {
                format!(
                    "{}: {:?} simulated counts changed between passes",
                    Benchmark::ALL[o.bench],
                    o.job
                )
            });
        }
    }
}

fn report(out: &mut Outcome, acc: &Acc, gpu: &GpuConfig, workers: usize) {
    let Some(first) = &acc.first else {
        return;
    };
    let stat = |job: Job, f: &dyn Fn(&ProgramRun) -> u64| -> f64 {
        first
            .iter()
            .filter(|o| o.job == job)
            .filter_map(|o| o.run.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    // Fastest run time of one job kind, per benchmark and summed.
    let fastest = |job: Job, b: Benchmark| -> f64 {
        acc.run.fastest(&format!("{b}/{job:?}")).unwrap_or(0) as f64
    };
    let fastest_sum = |job: Job| -> f64 { Benchmark::ALL.iter().map(|&b| fastest(job, b)).sum() };

    // End to end.
    let warp_all: f64 = JOBS
        .iter()
        .map(|&j| stat(j, &|r| r.stats.warp_instructions))
        .sum();
    out.set_ops(&acc.total, warp_all, "job_ms");
    if let Some(per_s) = out.e2e.get("work_per_s") {
        out.aliases.push(format!(
            "suite_kwips = {:.3} k warp-instr per worker-second",
            per_s / 1e3
        ));
    }

    // warped-kernels.
    out.layers
        .set("kernels.check_ms", median(&acc.check.fastest_ms()));

    // warped-sim: the bare jobs.
    let bare_ns = fastest_sum(Job::Bare);
    let bare_warp = stat(Job::Bare, &|r| r.stats.warp_instructions);
    let bare_cycles = stat(Job::Bare, &|r| r.stats.cycles);
    let slots = bare_cycles * gpu.num_sms as f64;
    out.layers
        .set("sim.bare_ns_per_warp_instr", bare_ns / bare_warp);
    out.layers.set("sim.bare_ns_per_sm_cycle", bare_ns / slots);
    for b in Benchmark::ALL {
        out.layers
            .set(format!("sim.bare_ms.{b}"), fastest(Job::Bare, b) * 1e-6);
        let engine = fastest(Job::Dmr, b) - fastest(Job::Bare, b);
        out.layers.set(format!("core.engine_ms.{b}"), engine * 1e-6);
    }
    out.layers.set("sim.cycles", bare_cycles);
    out.layers.set("sim.warp_instrs", bare_warp);
    out.layers.set(
        "sim.thread_instrs",
        stat(Job::Bare, &|r| r.stats.thread_instructions),
    );
    out.layers
        .set("sim.idle_sm_cycle_frac", 1.0 - bare_warp / slots);
    out.layers.set(
        "sim.stall_cycles",
        stat(Job::Dmr, &|r| r.stats.stall_cycles),
    );

    // warped-core: the Warped-DMR job minus the bare job.
    let dmr_ns = fastest_sum(Job::Dmr);
    out.layers.set(
        "core.engine_ns_per_warp_instr",
        crate::per_unit_delta(dmr_ns, bare_ns, bare_warp),
    );
    let reports: Vec<&DmrReport> = first
        .iter()
        .filter(|o| o.job == Job::Dmr)
        .filter_map(|o| o.report.as_ref())
        .collect();
    let rsum =
        |f: &dyn Fn(&DmrReport) -> u64| -> f64 { reports.iter().map(|r| f(r)).sum::<u64>() as f64 };
    let covered = rsum(&|r| r.covered_thread_instrs());
    let dmr_cycles = stat(Job::Dmr, &|r| r.stats.cycles);
    out.layers.set("core.dmr_cycles", dmr_cycles);
    out.layers.set("core.verified_thread_instrs", covered);
    out.layers.set(
        "core.replayq_stalls",
        rsum(&|r| r.checker.verified[VerifyKind::EagerStall as usize]),
    );
    out.layers
        .set("core.intra_share", rsum(&|r| r.intra_covered) / covered);

    // warped-trace: the traced job minus the Warped-DMR job.
    let traced: Vec<&JobOut> = first.iter().filter(|o| o.job == Job::Traced).collect();
    let events = traced.iter().map(|o| o.events).sum::<u64>() as f64;
    out.layers.set(
        "trace.sink_ns_per_event",
        crate::per_unit_delta(fastest_sum(Job::Traced), dmr_ns, events),
    );
    out.layers.set("trace.events", events);
    out.layers.set(
        "trace.invariant_violations",
        traced.iter().map(|o| o.violations).sum::<u64>() as f64,
    );
    out.layers.set(
        "trace.replay_mismatches",
        traced.iter().filter(|o| !o.replay_exact).count() as f64,
    );

    // warped-runner.
    out.layers
        .set("runner.queue_wait_ms_p50", percentile(&acc.queue_ms, 50.0));
    out.layers
        .set("runner.queue_wait_ms_p90", percentile(&acc.queue_ms, 90.0));
    out.layers.set(
        "runner.busy_frac",
        acc.busy_ns as f64 / (workers as f64 * acc.map_ns as f64),
    );

    // The modelled design, next to the paper's headline.
    let total = rsum(&|r| r.total_thread_instrs);
    let coverage = 100.0 * covered / total;
    let overhead = 100.0 * (dmr_cycles / bare_cycles - 1.0);
    out.layers.set("model.dmr_coverage_pct", coverage);
    out.layers.set("model.dmr_overhead_pct", overhead);
    out.aliases.push(format!(
        "dmr_coverage_pct = {coverage:.4} % (paper: 96.43 %), dmr_overhead_pct = {overhead:.4} % \
         (paper: 16 %); simulated by a model not validated against hardware, so no error figure"
    ));
}
