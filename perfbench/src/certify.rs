//! The `certify` workload: the bounded model check of the Replay
//! Checker at the default depth over ReplayQ capacities 0–3, then CFG
//! construction, analysis and static coverage certification of every
//! kernel. No simulation runs.

use crate::spans::Ctx;
use crate::stats::Cells;
use crate::{ms, timed, Opts, Outcome, Passes};
use warped::analysis::{
    analyze, certify_coverage, model_check, Cfg, MaskFlowConfig, ModelCheckConfig, PredictConfig,
    DEFAULT_DEPTH,
};
use warped::dmr::DmrConfig;
use warped::kernels::{Benchmark, WorkloadSize};

const CAPACITIES: [usize; 4] = [0, 1, 2, 3];

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(format!(
        "scale=Small depth={DEFAULT_DEPTH} capacities=0-3 workers=1"
    ));
    let build = || -> Vec<_> {
        Benchmark::ALL
            .iter()
            .map(|b| b.build(WorkloadSize::Small))
            .collect()
    };
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

    let predict = PredictConfig::default();
    let dmr = DmrConfig::default();
    let flow = MaskFlowConfig::default();
    let (mut mc, mut ops) = (Cells::default(), Cells::default());
    let (mut cfg_c, mut analyze_c, mut cert_c) =
        (Cells::default(), Cells::default(), Cells::default());
    let mut counts: Option<(u64, u64, u64)> = None;
    let passes = Passes::run(
        opts,
        setup_ns,
        || drop(build()),
        |spans| {
            let ctx = Ctx {
                trace: spans.new_trace(),
                parent: None,
            };
            spans.time(ctx, "analysis", "certify pass", |ctx| {
                let (mut states, mut transitions, mut abstract_states) = (0, 0, 0);
                for cap in CAPACITIES {
                    let config = ModelCheckConfig {
                        depth: DEFAULT_DEPTH,
                        capacities: vec![cap],
                        ..ModelCheckConfig::default()
                    };
                    let (ns, report) = timed(|| {
                        spans.time(ctx, "analysis", "model_check", |_| model_check(&config))
                    });
                    mc.record(format!("cap{cap}"), ns);
                    ops.record(format!("model_check/cap{cap}"), ns);
                    out.tally.check(report.violations.is_empty(), || {
                        format!(
                            "model_check cap {cap}: {} violation(s)",
                            report.violations.len()
                        )
                    });
                    out.tally.check(!report.truncated, || {
                        format!("model_check cap {cap}: truncated")
                    });
                    states += report.states();
                    transitions += report.transitions();
                }
                for w in &workloads {
                    let k = w.kernel();
                    let (cn, graph) =
                        timed(|| spans.time(ctx, "analysis", "Cfg::build", |_| Cfg::build(k)));
                    let (an, _) =
                        timed(|| spans.time(ctx, "analysis", "analyze", |_| analyze(k, &predict)));
                    let (zn, cert) = timed(|| {
                        spans.time(ctx, "analysis", "certify_coverage", |_| {
                            certify_coverage(k, &graph, &dmr, w.block_threads(), &flow)
                        })
                    });
                    cfg_c.record(w.name(), cn);
                    analyze_c.record(w.name(), an);
                    cert_c.record(w.name(), zn);
                    ops.record(format!("kernel/{}", w.name()), cn + an + zn);
                    abstract_states += cert.states;
                }
                // The model check is exhaustive: its counts repeat exactly.
                let now = (states, transitions, abstract_states);
                let expected = *counts.get_or_insert(now);
                out.tally.check(expected == now, || {
                    "certify counts changed between passes".to_string()
                });
            });
        },
    );
    out.set_setup(passes);

    let (states, transitions, abstract_states) = counts.unwrap_or_default();
    // work_per_s counts transitions against the model-check calls only.
    let mc_ms: f64 = mc.slow_half_mean_ms().iter().sum();
    let per_s = transitions as f64 / (mc_ms * 1e-3);
    out.set_ops(&ops, 0.0, "op_ms");
    out.e2e.set("work_per_s", per_s);
    out.aliases
        .push(format!("mc_transitions_per_s = {per_s:.1} 1/s"));
    let cert_total: f64 = ops.slow_half_mean_ms().iter().sum();
    out.aliases.push(format!(
        "certify_s = {:.6} s (sum of the operations' slower-half means)",
        cert_total * 1e-3
    ));
    for cap in CAPACITIES {
        let ns = mc.fastest(&format!("cap{cap}")).unwrap_or(0);
        out.layers.set(format!("analysis.mc_ms.cap{cap}"), ms(ns));
    }
    let total_ms = |c: &Cells| c.fastest_ms().iter().sum::<f64>();
    out.layers.set("analysis.cfg_ms", total_ms(&cfg_c));
    out.layers.set("analysis.analyze_ms", total_ms(&analyze_c));
    out.layers.set("analysis.cert_ms", total_ms(&cert_c));
    out.layers.set("analysis.mc_states", states as f64);
    out.layers
        .set("analysis.mc_transitions", transitions as f64);
    out.layers
        .set("analysis.abstract_states", abstract_states as f64);
    out
}
