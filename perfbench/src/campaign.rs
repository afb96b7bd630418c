//! The `fault-campaign` workload: resilient fault campaigns on BFS at
//! small size on the 4-SM chip, over a healthy-checker site class and a
//! broken-comparator one. The campaign seed is the benchmark's seed.

use crate::metrics::SITES;
use crate::spans::Ctx;
use crate::stats::{median, Cells};
use crate::{elapsed_ns, ms, timed, Opts, Outcome, Passes};
use std::collections::BTreeMap;
use std::time::Instant;
use warped::dmr::DmrConfig;
use warped::experiments::ExperimentConfig;
use warped::faults::{resilient_campaign, ResilientOptions, ResilientReport};
use warped::kernels::Benchmark;
use warped::trace::{TraceEvent, TraceHandle, TraceSink};

/// Trials per campaign: enough that the seed's share of hanging trials
/// moves the per-run throughput by little.
const TRIALS: u32 = 32;

/// Campaign workers. One, as in the figure-suite workload: two workers
/// slow each other's trials by an amount that varies from run to run.
const WORKERS: usize = 1;

/// Times each trial from its `FaultInjected` event to its
/// `TrialOutcome` event.
#[derive(Default)]
struct TrialClock {
    started: BTreeMap<u32, Instant>,
    done: Vec<(u32, u64)>,
}

impl TraceSink for TrialClock {
    fn event(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::FaultInjected { trial, .. } => {
                self.started.insert(*trial, Instant::now());
            }
            TraceEvent::TrialOutcome { trial, .. } => {
                if let Some(t0) = self.started.remove(trial) {
                    self.done.push((*trial, elapsed_ns(t0)));
                }
            }
            _ => {}
        }
    }
}

/// Timings over all passes, and each site's first report (a fixed seed
/// classifies every pass the same way).
#[derive(Default)]
struct Acc {
    trials: Cells,
    golden: Cells,
    retries: u32,
    first: BTreeMap<&'static str, ResilientReport>,
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let cfg = ExperimentConfig::quick();
    let dmr = DmrConfig::default();
    let mut out = Outcome::new(format!(
        "scale=Small chip={} SMs workers={} bench=BFS trials_per_campaign={TRIALS}",
        cfg.gpu.num_sms, WORKERS
    ));
    let build = || Benchmark::Bfs.build(cfg.size);
    let (setup_ns, built) = timed(build);
    let Some(w) = out.tally.result("BFS: Benchmark::build", built) else {
        return out;
    };

    let mut acc = Acc::default();
    let passes = Passes::run(
        opts,
        setup_ns,
        || drop(build()),
        |spans| {
            for site in SITES {
                let ctx = Ctx {
                    trace: spans.new_trace(),
                    parent: None,
                };
                let base = ResilientOptions::default().with_threads(WORKERS);
                let (golden_ns, golden) = timed(|| {
                    spans.time(ctx, "faults", "resilient_campaign(0 trials)", |_| {
                        resilient_campaign(&w, &cfg.gpu, &dmr, site, 0, opts.seed, &base)
                    })
                });
                if out
                    .tally
                    .result(&format!("{site}: golden run"), golden)
                    .is_some()
                {
                    acc.golden.record(site.as_str(), golden_ns);
                }

                let (clock, handle) = TraceHandle::shared(TrialClock::default());
                let with_clock = ResilientOptions {
                    trace: handle,
                    ..base
                };
                let result = spans.time(ctx, "faults", "resilient_campaign", |_| {
                    resilient_campaign(&w, &cfg.gpu, &dmr, site, TRIALS, opts.seed, &with_clock)
                });
                let Some(report) = out.tally.result(&format!("{site}: campaign"), result) else {
                    continue;
                };
                // Every planned trial is an operation; a skipped one failed.
                let r = &report.result;
                out.tally
                    .batch(u64::from(r.planned), u64::from(r.skipped), || {
                        format!("{site}: {} trial(s) skipped", r.skipped)
                    });
                // The same seed must classify every trial the same way.
                let expected = acc
                    .first
                    .entry(site.as_str())
                    .or_insert_with(|| report.clone());
                out.tally.check(expected.to_json() == report.to_json(), || {
                    format!("{site}: campaign result changed between passes")
                });
                acc.retries += report.retries_used;
                for (trial, ns) in clock.lock().expect("trial clock poisoned").done.drain(..) {
                    acc.trials.record(format!("{site}/{trial:04}"), ns);
                }
            }
        },
    );
    out.set_setup(passes);
    report(&mut out, &acc);
    out
}

fn report(out: &mut Outcome, acc: &Acc) {
    let completed: u32 = acc.first.values().map(|r| r.result.trials).sum();
    out.set_ops(&acc.trials, f64::from(completed), "trial_ms");
    if let Some(per_s) = out.e2e.get("work_per_s") {
        out.aliases
            .push(format!("trials_per_s = {per_s:.4} per worker-second"));
    }

    let mut sdc = 0;
    for site in SITES {
        let n = site.as_str();
        let golden = acc.golden.fastest(n).unwrap_or(0);
        out.layers.set(format!("faults.golden_ms.{n}"), ms(golden));
        let mut of_site = Cells::default();
        for t in 0..TRIALS {
            if let Some(ns) = acc.trials.fastest(&format!("{n}/{t:04}")) {
                of_site.record(t.to_string(), ns);
            }
        }
        out.layers.set(
            format!("faults.trial_ms.{n}"),
            median(&of_site.fastest_ms()),
        );
        if let Some(r) = acc.first.get(n) {
            let c = &r.result;
            let done = f64::from(c.trials.max(1));
            out.layers.set(
                format!("faults.detected_frac.{n}"),
                f64::from(c.detected) / done,
            );
            // Trials the detection run did not catch are decided by the
            // architectural run (a trap there also counts as detected).
            let arch = c.masked + c.sdc + c.hangs;
            out.layers.set(
                format!("faults.arch_decisive_frac.{n}"),
                f64::from(arch) / done,
            );
            sdc += c.sdc;
        }
    }
    let sum = |f: &dyn Fn(&ResilientReport) -> u32| -> f64 {
        f64::from(acc.first.values().map(f).sum::<u32>())
    };
    out.layers
        .set("faults.hang_trials", sum(&|r| r.result.hangs));
    out.layers
        .set("faults.skipped_trials", sum(&|r| r.result.skipped));
    out.layers.set("faults.retries", f64::from(acc.retries));
    let sdc_pct = 100.0 * f64::from(sdc) / f64::from(completed.max(1));
    out.layers.set("model.sdc_pct", sdc_pct);
    out.aliases.push(format!(
        "sdc_pct = {sdc_pct:.4} % of completed trials over both site classes (simulated)"
    ));
}
