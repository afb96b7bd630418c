//! Rendering of a full analysis into text and JSON.
//!
//! The workspace deliberately carries no serde dependency, so the JSON
//! emitter is hand-rolled over the small, fixed report shape.

use crate::cfg::Cfg;
use crate::dataflow::{DefUse, Liveness};
use crate::diag::{DataflowWarning, StructuralLint};
use crate::predict::{BlockPressure, ExactPrediction};
use std::fmt::Write as _;
use warped_trace::json_str;

/// Version of the JSON report schema emitted by [`Analysis::to_json`].
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
        let mut s = String::new();
        s.push('{');
        let _ = write!(
            s,
            "\"schema_version\":{SCHEMA_VERSION},\"kernel\":{},\"num_instrs\":{},\"clean\":{}",
            json_str(&self.name),
            self.num_instrs,
            self.is_clean(),
        );

        s.push_str(",\"blocks\":[");
        for (i, b) in self.cfg.blocks().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let succs: Vec<String> = b.succs.iter().map(|x| x.to_string()).collect();
            let _ = write!(
                s,
                "{{\"id\":{},\"start\":{},\"end\":{},\"succs\":[{}],\"reachable\":{}}}",
                b.id,
                b.start,
                b.end,
                succs.join(","),
                self.cfg.is_reachable(b.id),
            );
        }
        s.push(']');

        s.push_str(",\"lints\":[");
        for (i, l) in self.lints.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let (lo, hi) = l.span();
            let _ = write!(
                s,
                "{{\"kind\":{},\"message\":{},\"span\":{{\"lo\":{},\"hi\":{}}}}}",
                json_str(l.kind()),
                json_str(&l.to_string()),
                lo.0,
                hi.0,
            );
        }
        s.push(']');

        s.push_str(",\"warnings\":[");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let (lo, hi) = w.span();
            let _ = write!(
                s,
                "{{\"kind\":{},\"message\":{},\"span\":{{\"lo\":{},\"hi\":{}}}}}",
                json_str(w.kind()),
                json_str(&w.to_string()),
                lo.0,
                hi.0,
            );
        }
        s.push(']');

        s.push_str(",\"pressure\":[");
        for (i, p) in self.pressure.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let runs: Vec<String> = p
                .runs
                .iter()
                .map(|(u, n)| format!("{{\"unit\":{},\"len\":{}}}", json_str(&format!("{u:?}")), n))
                .collect();
            let _ = write!(
                s,
                "{{\"block\":{},\"instrs\":{},\"runs\":[{}],\"peak_queue\":{},\
                 \"eager_stalls\":{},\"raw_stalls\":{}}}",
                p.block,
                p.instrs,
                runs.join(","),
                p.peak_queue,
                p.eager_stalls,
                p.raw_stalls,
            );
        }
        s.push(']');

        match &self.exact {
            Some(e) => {
                let _ = write!(
                    s,
                    ",\"exact\":{{\"cycles\":{},\"issued\":{},\"idle_cycles\":{},\
                     \"stall_cycles\":{},\"enqueued\":{},\"drain_cycles\":{},\
                     \"max_queue\":{},\"verified\":{}}}",
                    e.cycles,
                    e.issued,
                    e.idle_cycles,
                    e.checker.stall_cycles,
                    e.checker.enqueued,
                    e.checker.drain_cycles,
                    e.checker.max_queue,
                    e.checker.total_verified(),
                );
            }
            None => s.push_str(",\"exact\":null"),
        }
        s.push('}');
        s
    }
}
