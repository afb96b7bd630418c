//! Chrome `about:tracing` / Perfetto export.
//!
//! Each trace event becomes a one-cycle "complete" (`"ph":"X"`) slice
//! with `ts` = cycle, `pid` = SM, `tid` = warp (0 for SM-wide events),
//! so loading the file shows per-SM swimlanes with one row per warp.
//! A launch boundary becomes a global instant (`"ph":"i"`) event. Each
//! slice is one [`Obj`] on its own line, and carries its event's JSONL
//! line as the escaped string `args.event`.

use crate::event::{unit_str, TraceEvent};
use crate::json::Obj;
use crate::jsonl::to_line;
use std::io::Write;

/// Write `events` as a Chrome `{"traceEvents": [...]}` document, one
/// slice per line.
pub fn write(events: &[TraceEvent], out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "{{\"traceEvents\":[")?;
    let mut launch = 0u32;
    for (i, ev) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        let (name, tid) = slice_name(ev);
        let slice = Obj::default().str("name", &name);
        let slice = if let TraceEvent::LaunchBegin { index } = ev {
            launch = *index;
            slice
                .str("ph", "i")
                .str("s", "g")
                .val("ts", 0)
                .val("pid", 0)
                .val("tid", 0)
        } else {
            let args = Obj::default()
                .val("launch", launch)
                .str("event", &to_line(ev));
            slice
                .str("ph", "X")
                .val("ts", ev.cycle().unwrap_or(0))
                .val("dur", 1)
                .val("pid", ev.sm().unwrap_or(0))
                .val("tid", tid)
                .val("args", args)
        };
        writeln!(out, "{slice}{comma}")?;
    }
    writeln!(out, "]}}")
}

/// Slice label and thread id (warp uid, or 0 for SM-wide events).
fn slice_name(ev: &TraceEvent) -> (String, u64) {
    match ev {
        TraceEvent::LaunchBegin { index } => (format!("launch {index}"), 0),
        TraceEvent::Issue { warp, unit, .. } => (format!("issue {}", unit_str(*unit)), *warp),
        TraceEvent::IntraPair { warp, .. } => ("intra-pair".into(), *warp),
        TraceEvent::Enqueue { warp, depth, .. } => (format!("enqueue d={depth}"), *warp),
        TraceEvent::Verify { warp, kind, .. } => (format!("verify {}", kind.as_str()), *warp),
        TraceEvent::Stall { warp, cycles, .. } => (format!("stall {cycles}"), *warp),
        TraceEvent::Idle { .. } => ("idle".into(), 0),
        TraceEvent::SmDone { drained, .. } => (format!("done drain={drained}"), 0),
        TraceEvent::Error { warp, lane, .. } => (format!("error lane {lane}"), *warp),
        TraceEvent::FaultInjected { trial, kind, .. } => (format!("fault {kind} t{trial}"), 0),
        TraceEvent::TrialOutcome { trial, outcome } => (format!("trial {trial} {outcome}"), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_well_formed() {
        let events = [
            TraceEvent::LaunchBegin { index: 0 },
            TraceEvent::Idle { sm: 1, cycle: 3 },
            TraceEvent::Stall {
                sm: 0,
                cycle: 5,
                warp: 2,
                cycles: 1,
            },
        ];
        let mut buf = Vec::new();
        write(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("launch 0"));
        // every slice line but the last inside the array ends with a comma
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].ends_with(','));
        assert!(lines[2].ends_with(','));
        assert!(!lines[3].ends_with(','));
    }
}
