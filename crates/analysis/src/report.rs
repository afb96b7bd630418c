//! Rendering of the analyzer's results into text and JSON: the
//! `warped analyze` report ([`Analysis`]) and the `warped certify`
//! document ([`certify_json`]).
//!
//! Both JSON documents are built with the workspace's one JSON writer,
//! [`warped_trace::json::Obj`], and carry [`SCHEMA_VERSION`].

use crate::cfg::Cfg;
use crate::coverage::{CoverageCert, InstrClass};
use crate::dataflow::{DefUse, Liveness};
use crate::diag::{DataflowWarning, StructuralLint};
use crate::modelcheck::ModelCheckReport;
use crate::predict::{BlockPressure, ExactPrediction};
use std::fmt::Write as _;
use warped_isa::Pc;
use warped_trace::json::Obj;

/// Version of the JSON schema of [`Analysis::to_json`] and
/// [`certify_json`].
///
/// Version 1 introduced the `schema_version` field itself and per-diagnostic
/// pc spans (`span: {lo, hi}`, inclusive instruction indices) on every lint
/// and warning. Consumers should reject reports with a version they do not
/// understand.
pub const SCHEMA_VERSION: u32 = 1;

/// Everything the analyzer derives from one kernel.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Kernel name.
    pub name: String,
    /// Instruction count.
    pub num_instrs: usize,
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Structural lints (zero for every shipped benchmark kernel).
    pub lints: Vec<StructuralLint>,
    /// Def-use chains.
    pub def_use: DefUse,
    /// Per-block liveness.
    pub liveness: Liveness,
    /// Dataflow warnings.
    pub warnings: Vec<DataflowWarning>,
    /// Per-block ReplayQ pressure estimates (reachable blocks only).
    pub pressure: Vec<BlockPressure>,
    /// Exact stall prediction, for straight-line kernels.
    pub exact: Option<ExactPrediction>,
}

impl Analysis {
    /// True when the kernel has no structural lints.
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }

    /// Human-readable multi-line report.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "kernel {} — {} instrs, {} blocks ({} reachable)",
            self.name,
            self.num_instrs,
            self.cfg.blocks().len(),
            self.cfg
                .blocks()
                .iter()
                .filter(|b| self.cfg.is_reachable(b.id))
                .count(),
        );

        let _ = writeln!(s, "\ncontrol flow:");
        for b in self.cfg.blocks() {
            let succs: Vec<String> = b.succs.iter().map(|x| format!("b{x}")).collect();
            let _ = writeln!(
                s,
                "  b{} [{}..{}] -> {}{}",
                b.id,
                b.start,
                b.end,
                if succs.is_empty() {
                    "exit".to_string()
                } else {
                    succs.join(", ")
                },
                if self.cfg.is_reachable(b.id) {
                    ""
                } else {
                    "  (unreachable)"
                },
            );
        }

        if self.lints.is_empty() {
            let _ = writeln!(s, "\nstructural lints: none");
        } else {
            let _ = writeln!(s, "\nstructural lints:");
            for l in &self.lints {
                let _ = writeln!(s, "  error: {l}");
            }
        }

        if self.warnings.is_empty() {
            let _ = writeln!(s, "dataflow warnings: none");
        } else {
            let _ = writeln!(s, "dataflow warnings:");
            for w in &self.warnings {
                let _ = writeln!(s, "  warn: {w}");
            }
        }

        let _ = writeln!(s, "\nreplayq pressure (dense-issue bound per visit):");
        for p in &self.pressure {
            let runs: Vec<String> = p.runs.iter().map(|(u, n)| format!("{u:?}x{n}")).collect();
            let _ = writeln!(
                s,
                "  b{}: {} instrs, runs [{}], peak queue {}, eager stalls {}, raw stalls {}",
                p.block,
                p.instrs,
                runs.join(" "),
                p.peak_queue,
                p.eager_stalls,
                p.raw_stalls,
            );
        }

        match &self.exact {
            Some(e) => {
                let _ = writeln!(
                    s,
                    "\nexact prediction (straight-line, 1 warp of 32):\n  \
                     cycles {} (issued {}, idle {}, drain {})\n  \
                     stall cycles {}, enqueued {}, max queue {}, verified {}",
                    e.cycles,
                    e.issued,
                    e.idle_cycles,
                    e.checker.drain_cycles,
                    e.checker.stall_cycles,
                    e.checker.enqueued,
                    e.checker.max_queue,
                    e.checker.total_verified(),
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "\nexact prediction: n/a (kernel has control flow; see per-block bounds)"
                );
            }
        }
        s
    }

    /// Machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let diag = |kind: &str, message: String, (lo, hi): (Pc, Pc)| {
            Obj::default()
                .str("kind", kind)
                .str("message", &message)
                .val("span", Obj::default().val("lo", lo.0).val("hi", hi.0))
        };
        let blocks = self.cfg.blocks().iter().map(|b| {
            Obj::default()
                .val("id", b.id)
                .val("start", b.start)
                .val("end", b.end)
                .arr("succs", &b.succs)
                .val("reachable", self.cfg.is_reachable(b.id))
        });
        let lints = self
            .lints
            .iter()
            .map(|l| diag(l.kind(), l.to_string(), l.span()));
        let warnings = self
            .warnings
            .iter()
            .map(|w| diag(w.kind(), w.to_string(), w.span()));
        let pressure = self.pressure.iter().map(|p| {
            let runs = p
                .runs
                .iter()
                .map(|(u, n)| Obj::default().str("unit", &format!("{u:?}")).val("len", n));
            Obj::default()
                .val("block", p.block)
                .val("instrs", p.instrs)
                .arr("runs", runs)
                .val("peak_queue", p.peak_queue)
                .val("eager_stalls", p.eager_stalls)
                .val("raw_stalls", p.raw_stalls)
        });
        let exact = self.exact.as_ref().map(|e| {
            Obj::default()
                .val("cycles", e.cycles)
                .val("issued", e.issued)
                .val("idle_cycles", e.idle_cycles)
                .val("stall_cycles", e.checker.stall_cycles)
                .val("enqueued", e.checker.enqueued)
                .val("drain_cycles", e.checker.drain_cycles)
                .val("max_queue", e.checker.max_queue)
                .val("verified", e.checker.total_verified())
        });
        Obj::default()
            .val("schema_version", SCHEMA_VERSION)
            .str("kernel", &self.name)
            .val("num_instrs", self.num_instrs)
            .val("clean", self.is_clean())
            .arr("blocks", blocks)
            .arr("lints", lints)
            .arr("warnings", warnings)
            .arr("pressure", pressure)
            .opt("exact", exact)
            .to_string()
    }
}

/// The `warped certify --json` document: the Replay Checker model check
/// `mc`, the static coverage certificate `cert` of `bench`'s kernel, and
/// the coverage a simulated run measured (percent).
pub fn certify_json(
    bench: &str,
    mc: &ModelCheckReport,
    cert: &CoverageCert,
    measured_pct: f64,
) -> String {
    let capacities = mc.per_capacity.iter().map(|c| {
        Obj::default()
            .val("capacity", c.capacity)
            .val("states", c.states)
            .val("transitions", c.transitions)
    });
    let model = Obj::default()
        .val("depth", mc.depth)
        .val("states", mc.states())
        .val("transitions", mc.transitions())
        .val("violations", mc.violations.len())
        .val("truncated", mc.truncated)
        .arr("per_capacity", capacities);
    let classes = InstrClass::ALL
        .into_iter()
        .fold(Obj::default(), |o, c| o.val(c.tag(), cert.count(c)));
    let coverage = Obj::default()
        .str("kernel", &cert.kernel)
        .val("shapes", cert.shapes.len())
        .val("abstract_states", cert.states)
        .val("overflowed", cert.overflowed)
        .val("classes", classes)
        .val("bound_pct", format_args!("{:.4}", cert.bound_pct))
        .val("measured_pct", format_args!("{measured_pct:.4}"));
    Obj::default()
        .val("schema_version", SCHEMA_VERSION)
        .str("bench", bench)
        .val("model", model)
        .val("coverage", coverage)
        .to_string()
}
