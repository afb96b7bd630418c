//! Metric definitions: the end-to-end metrics every workload reports,
//! the per-layer catalog, and which end-to-end metric each layer metric
//! is expected to move on which workload.

use crate::stats::valid_metric_name;
use std::collections::BTreeMap;
use warped::faults::FaultSiteClass;
use warped::kernels::Benchmark;

/// Fault-site classes the fault-campaign workload injects into: a
/// healthy checker (every trial detected) and a fail-silent comparator
/// (most outcomes decided by the architectural pass).
pub const SITES: [FaultSiteClass; 2] = [
    FaultSiteClass::LaneTransient,
    FaultSiteClass::ComparatorVerdict,
];

/// A metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload (or
    /// the prediction of no change).
    pub moves: &'static str,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        moves,
    }
}

/// The end-to-end metrics, reported by every workload with tracing off.
/// `moves` gives the workload-specific meaning.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def(
            "setup_s",
            "s",
            "lower",
            "Benchmark::build of every benchmark the workload uses, median of repeated set-ups",
        ),
        def(
            "work_per_s",
            "1/s",
            "higher",
            "work per host second of one worker, each operation at the mean of the slower half \
             of its repetitions: simulated warp-instructions (figure-suite; suite_kwips x 1000), trials (fault-campaign; \
             trials_per_s), model-check transitions (certify)",
        ),
        def(
            "op_ms_geomean",
            "ms",
            "lower",
            "geometric mean over operations of each one's host latency, the mean of the slower \
             half of its repetitions: a (benchmark, pass) job with its check (job_ms), a fault trial (trial_ms), a \
             model-check call or one kernel's Cfg/analyze/certify",
        ),
        def(
            "peak_rss_mb",
            "MB",
            "lower",
            "VmHWM of the benchmark process at the end of the run",
        ),
    ]
}

/// Every per-layer metric, in report order. Every traced run reports
/// all of them; a layer the workload never calls reports `0`.
pub fn per_layer() -> Vec<Def> {
    let mut v = vec![
        def(
            "kernels.build_ms",
            "ms",
            "lower",
            "setup_s on every workload",
        ),
        def(
            "kernels.check_ms",
            "ms",
            "lower",
            "op_ms_geomean (job_ms) on figure-suite",
        ),
        def(
            "sim.bare_ns_per_warp_instr",
            "ns",
            "lower",
            "work_per_s and op_ms_geomean on figure-suite; work_per_s on fault-campaign",
        ),
        def(
            "sim.bare_ns_per_sm_cycle",
            "ns",
            "lower",
            "work_per_s on figure-suite, most on the idle-heavy kernels (BFS, MUM, SHA)",
        ),
    ];
    for b in Benchmark::ALL {
        v.push(def(
            format!("sim.bare_ms.{}", b.name()),
            "ms",
            "lower",
            "work_per_s on figure-suite",
        ));
    }
    v.extend([
        def("sim.cycles", "count", "lower", "simulated; repeats exactly"),
        def(
            "sim.warp_instrs",
            "count",
            "lower",
            "simulated; repeats exactly",
        ),
        def(
            "sim.thread_instrs",
            "count",
            "lower",
            "simulated; repeats exactly",
        ),
        def(
            "sim.idle_sm_cycle_frac",
            "ratio",
            "lower",
            "simulated; repeats exactly",
        ),
        def(
            "sim.stall_cycles",
            "count",
            "lower",
            "simulated; repeats exactly",
        ),
        def(
            "core.engine_ns_per_warp_instr",
            "ns",
            "lower",
            "work_per_s on figure-suite and on fault-campaign",
        ),
    ]);
    for b in Benchmark::ALL {
        v.push(def(
            format!("core.engine_ms.{}", b.name()),
            "ms",
            "lower",
            "work_per_s on figure-suite",
        ));
    }
    v.extend([
        def(
            "core.dmr_cycles",
            "count",
            "lower",
            "simulated; repeats exactly",
        ),
        def(
            "core.verified_thread_instrs",
            "count",
            "higher",
            "simulated; repeats exactly",
        ),
        def(
            "core.replayq_stalls",
            "count",
            "lower",
            "simulated; repeats exactly",
        ),
        def(
            "core.intra_share",
            "ratio",
            "higher",
            "simulated; repeats exactly",
        ),
        def(
            "trace.sink_ns_per_event",
            "ns",
            "lower",
            "work_per_s and op_ms_geomean on figure-suite",
        ),
        def(
            "trace.events",
            "count",
            "lower",
            "figure-suite; repeats exactly",
        ),
        def(
            "trace.invariant_violations",
            "count",
            "lower",
            "figure-suite; must be 0",
        ),
        def(
            "trace.replay_mismatches",
            "count",
            "lower",
            "figure-suite; must be 0",
        ),
        def(
            "runner.queue_wait_ms_p50",
            "ms",
            "lower",
            "work_per_s on figure-suite",
        ),
        def(
            "runner.queue_wait_ms_p90",
            "ms",
            "lower",
            "work_per_s on figure-suite",
        ),
        def(
            "runner.busy_frac",
            "ratio",
            "higher",
            "work_per_s on figure-suite",
        ),
    ]);
    for s in SITES {
        let n = s.as_str();
        v.extend([
            def(
                format!("faults.golden_ms.{n}"),
                "ms",
                "lower",
                "work_per_s on fault-campaign",
            ),
            def(
                format!("faults.trial_ms.{n}"),
                "ms",
                "lower",
                "op_ms_geomean (trial_ms) on fault-campaign",
            ),
            def(
                format!("faults.detected_frac.{n}"),
                "ratio",
                "higher",
                "simulated; repeats at a fixed seed",
            ),
            def(
                format!("faults.arch_decisive_frac.{n}"),
                "ratio",
                "lower",
                "work_per_s on fault-campaign: share of trials the architectural pass decided",
            ),
        ]);
    }
    v.extend([
        def(
            "faults.hang_trials",
            "count",
            "lower",
            "simulated; repeats at a fixed seed",
        ),
        def(
            "faults.skipped_trials",
            "count",
            "lower",
            "fault-campaign; must be 0",
        ),
        def(
            "faults.retries",
            "count",
            "lower",
            "fault-campaign; must be 0",
        ),
    ]);
    for cap in 0..4 {
        v.push(def(
            format!("analysis.mc_ms.cap{cap}"),
            "ms",
            "lower",
            "work_per_s (mc_transitions_per_s) on certify",
        ));
    }
    v.extend([
        def(
            "analysis.cfg_ms",
            "ms",
            "lower",
            "work_per_s and op_ms_geomean on certify",
        ),
        def(
            "analysis.analyze_ms",
            "ms",
            "lower",
            "work_per_s and op_ms_geomean on certify",
        ),
        def(
            "analysis.cert_ms",
            "ms",
            "lower",
            "work_per_s and op_ms_geomean on certify",
        ),
        def(
            "analysis.mc_states",
            "count",
            "higher",
            "certify; repeats exactly",
        ),
        def(
            "analysis.mc_transitions",
            "count",
            "higher",
            "certify; repeats exactly",
        ),
        def(
            "analysis.abstract_states",
            "count",
            "lower",
            "certify; repeats exactly",
        ),
        def(
            "model.dmr_coverage_pct",
            "%",
            "higher",
            "simulated, figure-suite (paper: 96.43%)",
        ),
        def(
            "model.dmr_overhead_pct",
            "%",
            "lower",
            "simulated, figure-suite (paper: 16%)",
        ),
        def(
            "model.sdc_pct",
            "%",
            "lower",
            "simulated, fault-campaign, both site classes",
        ),
    ]);
    for layer in LAYERS {
        v.push(def(
            format!("self_ms.{layer}"),
            "ms",
            "lower",
            "span self time of the layer per traced pass",
        ));
    }
    v.push(def(
        "tracing_overhead_pct",
        "%",
        "lower",
        "fastest pass with spans over fastest pass without, minus one",
    ));
    v
}

/// Per-layer metrics (by name prefix) predicted not to change on the
/// listed workloads, which never call that layer; their traced runs
/// report `0` for them.
pub const NO_CHANGE: [(&str, &str); 4] = [
    ("analysis.*", "figure-suite, fault-campaign"),
    ("trace.*", "fault-campaign, certify"),
    ("faults.*", "figure-suite, certify"),
    ("sim.*, core.*", "certify"),
];

/// Layers (workspace crates) the spans are attributed to.
pub const LAYERS: [&str; 7] = [
    "kernels", "sim", "core", "trace", "runner", "faults", "analysis",
];

/// Measured values by metric name. Setting a name outside the catalog
/// is a bug in the benchmark and panics.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Set `name` to `value`.
    ///
    /// # Panics
    ///
    /// If `name` is not a valid metric name.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name {name:?}");
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names set that `defs` does not define.
    pub fn unknown<'a>(&'a self, defs: &[Def]) -> Vec<&'a str> {
        self.0
            .keys()
            .filter(|k| !defs.iter().any(|d| &d.name == *k))
            .map(String::as_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut all: Vec<Def> = end_to_end();
        all.extend(per_layer());
        assert!(all.len() <= 16 + 128);
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        for d in &all {
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let text = include_str!("../../BENCHMARK.json");
        for d in end_to_end().iter().chain(per_layer().iter()) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn unknown_names_are_reported() {
        let mut v = Values::default();
        v.set("sim.cycles", 1.0);
        v.set("sim.cyclez", 1.0);
        assert_eq!(v.unknown(&per_layer()), vec!["sim.cyclez"]);
    }
}
