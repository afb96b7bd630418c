//! The [`TraceSink`] trait and generic sinks.

use crate::event::TraceEvent;
use crate::handle::TraceHandle;

/// A consumer of the trace event stream.
///
/// Sinks receive events in emission order: per SM, an `Issue` precedes
/// the checker events of the same issue slot, and verify timestamps are
/// non-decreasing (the invariant layer enforces this).
pub trait TraceSink {
    /// Consume one event.
    fn event(&mut self, ev: &TraceEvent);

    /// End of stream: flush buffers, run end-of-trace checks.
    fn flush(&mut self) {}
}

/// A sink that discards everything (placeholders and overhead tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _ev: &TraceEvent) {}
}

/// In-memory capture of the full event stream (trace-then-replay and
/// tests).
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    events: Vec<TraceEvent>,
}

impl CollectSink {
    /// Create an empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Captured events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Take the captured events, leaving the collector empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for CollectSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }
}

/// Duplicates the stream to several [`TraceHandle`]s, so one run can feed
/// e.g. an invariant checker, a metrics registry, and a JSONL writer at
/// once while each stays independently accessible. Each output borrows
/// the event ([`TraceHandle::forward`]); nothing is cloned.
#[derive(Clone, Default)]
pub struct Fanout {
    outputs: Vec<TraceHandle>,
}

impl Fanout {
    /// Fan out to `outputs`.
    pub fn new(outputs: Vec<TraceHandle>) -> Self {
        Fanout { outputs }
    }
}

impl std::fmt::Debug for Fanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fanout({} outputs)", self.outputs.len())
    }
}

impl TraceSink for Fanout {
    fn event(&mut self, ev: &TraceEvent) {
        for h in &self.outputs {
            h.forward(ev);
        }
    }

    fn flush(&mut self) {
        for h in &self.outputs {
            h.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_captures_and_takes() {
        let mut c = CollectSink::new();
        c.event(&TraceEvent::Idle { sm: 0, cycle: 1 });
        c.event(&TraceEvent::Idle { sm: 0, cycle: 2 });
        assert_eq!(c.events().len(), 2);
        let taken = c.take();
        assert_eq!(taken.len(), 2);
        assert!(c.events().is_empty());
    }

    #[test]
    fn fanout_duplicates_to_all_outputs() {
        let (a, ha) = TraceHandle::shared(CollectSink::new());
        let (b, hb) = TraceHandle::shared(CollectSink::new());
        let mut f = Fanout::new(vec![ha, hb]);
        f.event(&TraceEvent::Idle { sm: 1, cycle: 5 });
        f.flush();
        assert_eq!(a.lock().unwrap().events().len(), 1);
        assert_eq!(b.lock().unwrap().events().len(), 1);
    }
}
