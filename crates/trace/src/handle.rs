//! [`TraceHandle`]: the zero-cost-when-disabled emission point, and the
//! run-scoped batch that delivers a traced run's events.

use crate::event::TraceEvent;
use crate::sink::TraceSink;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// Events an open batch holds before it is delivered to its sink: 4096
/// events of at most 64 bytes, a 256 KB buffer.
pub const BATCH_EVENTS: usize = 4096;

/// A cloneable, thread-safe handle the pipeline emits events through.
///
/// The default handle is *disabled*: [`TraceHandle::emit`] is a single
/// `Option` check and the event-constructor closure never runs, so an
/// untraced run pays nothing. `disabled_handle_never_builds_events`
/// asserts that; `tracing_does_not_perturb_the_simulation` asserts that
/// an enabled handle changes no result; the untraced figure-suite jobs
/// of `perfbench` time the disabled path.
///
/// An enabled handle serializes events into one shared sink behind a
/// mutex. Outside a batch, each event is delivered before `emit` returns,
/// under one lock. Inside [`TraceHandle::batched`] (which
/// `Workload::run_traced` in `warped-kernels` opens around a run), every
/// event the running thread emits to the same sink, through any clone of
/// the handle, joins a batch that reaches the sink in emission order,
/// [`BATCH_EVENTS`] at a time, under one lock per batch. The traced
/// figure-suite job of `perfbench` times that path as
/// `trace.sink_ns_per_event`.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<SharedSink>,
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
            inner: Some(arc.clone() as SharedSink),
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
    /// The event joins this thread's open batch if it collects for this
    /// handle's sink (see [`TraceHandle::batched`]); otherwise the sink
    /// has it before `emit` returns.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.inner {
            send(sink, build());
        }
    }

    /// Deliver already-built events to the sink now, under one lock, after
    /// any batch open on this thread (how a [`Fanout`](crate::Fanout)
    /// feeds its outputs; nothing is cloned).
    pub fn forward(&self, events: &[TraceEvent]) {
        if let Some(sink) = &self.inner {
            deliver_open();
            deliver(sink, events);
        }
    }

    /// Run `run` with a batch open on this thread for this handle's
    /// sink: every event emitted to that sink meanwhile, through any clone
    /// of the handle, is delivered in emission order, [`BATCH_EVENTS`] at
    /// a time under one lock. The rest is delivered before `batched`
    /// returns or unwinds. Emits to other sinks, and emits from other
    /// threads, stay synchronous, so a sink that times events as they
    /// arrive must not be a batch's sink. A batch open on entry is
    /// delivered first and reopened on exit. A disabled handle just runs
    /// `run`.
    pub fn batched<R>(&self, run: impl FnOnce() -> R) -> R {
        let Some(sink) = &self.inner else {
            return run();
        };
        let _open = OpenBatch::new(sink.clone());
        run()
    }

    /// Signal end of stream to the sink (flush buffers, run end-of-trace
    /// invariant checks), after delivering any batch open on this thread.
    pub fn flush(&self) {
        if let Some(sink) = &self.inner {
            deliver_open();
            sink.lock().expect("trace sink poisoned").flush();
        }
    }
}

/// The events collected for one sink and not yet delivered to it.
struct Batch {
    sink: SharedSink,
    events: Vec<TraceEvent>,
}

impl Batch {
    /// Deliver what the batch holds, keeping its buffer. A panicking sink
    /// leaves the batch empty, so nothing is delivered twice.
    fn deliver(&mut self) {
        if !self.events.is_empty() {
            let mut events = std::mem::take(&mut self.events);
            deliver(&self.sink, &events);
            events.clear();
            self.events = events;
        }
    }
}

thread_local! {
    /// The batch [`TraceHandle::batched`] opened on this thread, if any.
    /// It stays borrowed while it delivers, so an emit from inside a sink
    /// finds no batch and is delivered synchronously.
    static OPEN: RefCell<Option<Batch>> = const { RefCell::new(None) };
}

/// Drop guard of [`TraceHandle::batched`]: on return and on unwind alike,
/// it delivers its batch and reopens the one it displaced.
struct OpenBatch {
    outer: Option<Batch>,
}

impl OpenBatch {
    fn new(sink: SharedSink) -> Self {
        // Until it reopens, the outer batch's sink is fed synchronously:
        // what the batch holds must reach the sink first.
        deliver_open();
        let batch = Batch {
            sink,
            events: Vec::with_capacity(BATCH_EVENTS),
        };
        OpenBatch {
            outer: OPEN.with(|open| open.replace(Some(batch))),
        }
    }
}

impl Drop for OpenBatch {
    fn drop(&mut self) {
        let closed = OPEN.with(|open| open.replace(self.outer.take()));
        // No `expect` here: a poisoned sink has already panicked, and a
        // second panic while the run unwinds would abort the process.
        if let Some(Batch { sink, events }) = closed {
            if let Ok(mut sink) = sink.lock() {
                sink.events(&events);
            }
        }
    }
}

/// Hand `ev` to `sink`: into this thread's open batch if it collects for
/// `sink` (delivering the batch once full), else straight to the sink.
#[inline]
fn send(sink: &SharedSink, ev: TraceEvent) {
    let unbatched = OPEN.with(|open| {
        let Ok(mut open) = open.try_borrow_mut() else {
            return Some(ev);
        };
        match open.as_mut() {
            Some(batch) if Arc::ptr_eq(&batch.sink, sink) => {
                batch.events.push(ev);
                if batch.events.len() >= BATCH_EVENTS {
                    batch.deliver();
                }
                None
            }
            _ => Some(ev),
        }
    });
    if let Some(ev) = unbatched {
        deliver(sink, std::slice::from_ref(&ev));
    }
}

/// Deliver whatever the batch open on this thread holds.
fn deliver_open() {
    OPEN.with(|open| {
        if let Ok(mut open) = open.try_borrow_mut() {
            if let Some(batch) = open.as_mut() {
                batch.deliver();
            }
        }
    });
}

fn deliver(sink: &SharedSink, events: &[TraceEvent]) {
    sink.lock().expect("trace sink poisoned").events(events);
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

    fn idle(cycle: u64) -> TraceEvent {
        TraceEvent::Idle { sm: 0, cycle }
    }

    fn cycles(store: &Mutex<CollectSink>) -> Vec<u64> {
        let store = store.lock().unwrap();
        store
            .events()
            .iter()
            .filter_map(TraceEvent::cycle)
            .collect()
    }

    /// Counts the deliveries it receives.
    #[derive(Default)]
    struct Deliveries {
        events: usize,
        deliveries: usize,
    }

    impl TraceSink for Deliveries {
        fn event(&mut self, _: &TraceEvent) {
            unreachable!("a batch arrives through `events`")
        }

        fn events(&mut self, evs: &[TraceEvent]) {
            self.events += evs.len();
            self.deliveries += 1;
        }
    }

    #[test]
    fn a_batch_is_delivered_when_full_and_on_exit() {
        let (store, h) = TraceHandle::shared(Deliveries::default());
        let n = 2 * BATCH_EVENTS + 5;
        h.batched(|| {
            for c in 0..n as u64 {
                h.clone().emit(|| idle(c));
            }
            let s = store.lock().unwrap();
            assert_eq!((s.events, s.deliveries), (2 * BATCH_EVENTS, 2));
        });
        let s = store.lock().unwrap();
        assert_eq!((s.events, s.deliveries), (n, 3));
    }

    #[test]
    fn batched_events_arrive_in_order_and_others_at_once() {
        let (a_store, a) = TraceHandle::shared(CollectSink::new());
        let (b_store, b) = TraceHandle::shared(CollectSink::new());
        a.batched(|| {
            a.emit(|| idle(1));
            b.emit(|| idle(10));
            assert!(cycles(&a_store).is_empty(), "A's event waits in the batch");
            assert_eq!(cycles(&b_store), [10], "B's event is delivered at once");
            // A nested batch for B delivers A's open batch first, feeds A
            // synchronously, and hands A its batch back on exit.
            b.batched(|| {
                a.emit(|| idle(2));
                b.emit(|| idle(11));
                assert_eq!(cycles(&a_store), [1, 2]);
                assert_eq!(cycles(&b_store), [10]);
            });
            assert_eq!(cycles(&b_store), [10, 11]);
            a.emit(|| idle(3));
            assert_eq!(cycles(&a_store), [1, 2]);
            // `flush` delivers the open batch before it flushes.
            a.flush();
            assert_eq!(cycles(&a_store), [1, 2, 3]);
            a.emit(|| idle(4));
        });
        assert_eq!(cycles(&a_store), [1, 2, 3, 4]);
        a.emit(|| idle(5));
        assert_eq!(cycles(&a_store), [1, 2, 3, 4, 5], "no batch is left open");
    }

    #[test]
    fn a_full_batch_fits_in_a_quarter_megabyte() {
        assert!(BATCH_EVENTS * std::mem::size_of::<TraceEvent>() <= 256 * 1024);
    }

    // Events carry no heap data, so delivering and clearing a batch runs
    // no drop glue.
    const _: fn() = || {
        fn copy<T: Copy>() {}
        copy::<TraceEvent>();
    };
}
