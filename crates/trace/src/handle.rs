//! [`TraceHandle`]: the zero-cost-when-disabled emission point.

use crate::event::TraceEvent;
use crate::sink::TraceSink;
use std::sync::{Arc, Mutex};

/// A cloneable, thread-safe handle the pipeline emits events through.
///
/// The default handle is *disabled*: [`TraceHandle::emit`] is a single
/// `Option` check and the event-constructor closure never runs, so an
/// untraced run pays nothing. `disabled_handle_never_builds_events`
/// asserts that; `tracing_does_not_perturb_the_simulation` asserts that
/// an enabled handle changes no result; the untraced figure-suite jobs
/// of `perfbench` time the disabled path. An enabled handle serializes events into one shared sink behind a
/// mutex: one uncontended lock per event, which the traced figure-suite
/// job of `perfbench` times as `trace.sink_ns_per_event`.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Mutex<dyn TraceSink + Send>>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TraceHandle({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl TraceHandle {
    /// The no-op handle (same as `TraceHandle::default()`).
    pub fn disabled() -> Self {
        TraceHandle { inner: None }
    }

    /// Wrap a sink, giving up direct access to it (use
    /// [`TraceHandle::shared`] to keep a typed reference).
    pub fn new(sink: impl TraceSink + Send + 'static) -> Self {
        TraceHandle {
            inner: Some(Arc::new(Mutex::new(sink))),
        }
    }

    /// Wrap a sink and also return the shared, still-typed reference so
    /// results can be read back after the run.
    pub fn shared<S: TraceSink + Send + 'static>(sink: S) -> (Arc<Mutex<S>>, TraceHandle) {
        let arc = Arc::new(Mutex::new(sink));
        let handle = TraceHandle {
            inner: Some(arc.clone() as Arc<Mutex<dyn TraceSink + Send>>),
        };
        (arc, handle)
    }

    /// Whether events will actually be recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one event. The closure is only evaluated when the handle is
    /// enabled, so callers can build events from hot-path data for free.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.inner {
            let ev = build();
            sink.lock().expect("trace sink poisoned").event(&ev);
        }
    }

    /// Pass an already-built event to the sink, borrowed (how a
    /// [`Fanout`](crate::Fanout) feeds its outputs without cloning).
    #[inline]
    pub fn forward(&self, ev: &TraceEvent) {
        if let Some(sink) = &self.inner {
            sink.lock().expect("trace sink poisoned").event(ev);
        }
    }

    /// Signal end of stream to the sink (flush buffers, run end-of-trace
    /// invariant checks).
    pub fn flush(&self) {
        if let Some(sink) = &self.inner {
            sink.lock().expect("trace sink poisoned").flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;

    #[test]
    fn disabled_handle_never_builds_events() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        h.emit(|| unreachable!("must not be called"));
        h.flush();
    }

    #[test]
    fn shared_handle_records_and_reads_back() {
        let (store, h) = TraceHandle::shared(CollectSink::new());
        assert!(h.enabled());
        let h2 = h.clone();
        h.emit(|| TraceEvent::Idle { sm: 0, cycle: 1 });
        h2.emit(|| TraceEvent::Idle { sm: 0, cycle: 2 });
        h.flush();
        assert_eq!(store.lock().unwrap().events().len(), 2);
    }
}
