//! How a traced run's events reach their sinks. Inside
//! `Workload::run_traced` they travel in batches of
//! [`BATCH_EVENTS`](warped::trace::BATCH_EVENTS); these tests pin what
//! the batching must not change:
//!
//! 1. **Nothing is lost** — a run that ends in an error, or unwinds from
//!    a panicking observer, has delivered every event it emitted.
//! 2. **Everything else stays synchronous** — an emit outside a run, or
//!    to another handle inside one, reaches its sink before `emit`
//!    returns, also on a thread that unwound out of a run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use warped::dmr::{DmrConfig, WarpedDmr};
use warped::experiments::ExperimentConfig;
use warped::kernels::{Benchmark, Workload};
use warped::sim::{GpuConfig, IssueInfo, IssueObserver, NullObserver, SimError};
use warped::trace::{CollectSink, TraceEvent, TraceHandle, BATCH_EVENTS};

/// Counts the calls it forwards, panicking on issue `panic_at` (1-based).
struct Counting<'a> {
    inner: &'a mut dyn IssueObserver,
    calls: usize,
    issues: u64,
    panic_at: u64,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a mut dyn IssueObserver) -> Self {
        Counting {
            inner,
            calls: 0,
            issues: 0,
            panic_at: u64::MAX,
        }
    }
}

impl IssueObserver for Counting<'_> {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        self.calls += 1;
        self.issues += 1;
        assert!(
            self.issues < self.panic_at,
            "observer gave up at issue {}",
            self.issues
        );
        self.inner.on_issue(info)
    }

    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        self.calls += 1;
        self.inner.on_idle(sm_id, cycle);
    }

    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        self.calls += 1;
        self.inner.on_sm_done(sm_id, cycle)
    }

    fn on_launch(&mut self, index: u32) {
        self.calls += 1;
        self.inner.on_launch(index);
    }
}

/// The events `run_traced` emits itself, one per observer call.
fn simulator_events(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::LaunchBegin { .. }
                    | TraceEvent::Issue { .. }
                    | TraceEvent::Idle { .. }
                    | TraceEvent::SmDone { .. }
            )
        })
        .count()
}

/// BFS under Warped-DMR, traced into a collector: the result, the
/// collected stream and the number of observer calls.
fn traced_bfs(w: &Workload, gpu: &GpuConfig) -> (Result<(), SimError>, Vec<TraceEvent>, usize) {
    let (store, handle) = TraceHandle::shared(CollectSink::new());
    let mut engine = WarpedDmr::new(DmrConfig::default(), gpu);
    engine.set_trace(handle.clone());
    let mut counting = Counting::new(&mut engine);
    let result = w.run_traced(gpu, &mut counting, handle).map(|_| ());
    let calls = counting.calls;
    let events = store.lock().unwrap().take();
    (result, events, calls)
}

/// A run cut short by its cycle budget returns `Err` with every event it
/// emitted delivered, the last partial batch included: the stream is a
/// prefix of the unbudgeted run's and holds one simulator event per
/// observer call.
#[test]
fn a_hung_run_still_delivers_every_event() {
    let cfg = ExperimentConfig::test_tiny();
    let w = Benchmark::Bfs.build(cfg.size).unwrap();
    let (full_result, full, _) = traced_bfs(&w, &cfg.gpu);
    full_result.unwrap();

    // Cut the longest launch halfway through.
    let mut longest = 0;
    for e in &full {
        if let TraceEvent::SmDone { cycle, .. } = e {
            longest = longest.max(*cycle);
        }
    }
    let budgeted = cfg.gpu.clone().with_cycle_budget(longest / 2);
    let (result, cut, calls) = traced_bfs(&w, &budgeted);

    assert!(
        matches!(result, Err(SimError::Hang { .. })),
        "the budget must trip: {result:?}"
    );
    assert!(
        calls > BATCH_EVENTS,
        "{calls} observer calls: the run must emit more than one batch"
    );
    assert!(cut.len() < full.len());
    assert_eq!(cut[..], full[..cut.len()], "not a prefix of the full run");
    assert_eq!(simulator_events(&cut), calls, "events were dropped");
}

/// Outside a run, an emit reaches its sink before `emit` returns.
#[test]
fn an_emit_outside_a_run_is_delivered_at_once() {
    let (store, handle) = TraceHandle::shared(CollectSink::new());
    handle.emit(|| TraceEvent::Idle { sm: 0, cycle: 1 });
    assert_eq!(store.lock().unwrap().events().len(), 1);
}

/// Emits to another handle from inside `run_traced`.
struct EmitsElsewhere {
    other: TraceHandle,
    store: Arc<Mutex<CollectSink>>,
    sent: usize,
}

impl IssueObserver for EmitsElsewhere {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        self.other.emit(|| TraceEvent::Idle {
            sm: info.sm_id as u32,
            cycle: info.cycle,
        });
        self.sent += 1;
        assert_eq!(
            self.store.lock().unwrap().events().len(),
            self.sent,
            "an emit to another handle waited for the run's batch"
        );
        0
    }
}

/// Inside a run traced on handle A, an emit to handle B reaches B's sink
/// before `emit` returns.
#[test]
fn an_emit_to_another_handle_inside_a_run_is_delivered_at_once() {
    let cfg = ExperimentConfig::test_tiny();
    let w = Benchmark::Scan.build(cfg.size).unwrap();
    let (a_store, a) = TraceHandle::shared(CollectSink::new());
    let (store, other) = TraceHandle::shared(CollectSink::new());
    let mut observer = EmitsElsewhere {
        other,
        store,
        sent: 0,
    };
    w.run_traced(&cfg.gpu, &mut observer, a).unwrap();
    assert!(observer.sent > 0);
    assert!(!a_store.lock().unwrap().events().is_empty());
}

/// An observer that panics inside `run_traced` loses no event emitted
/// before the panic, and leaves no batch open on the thread: the next
/// emit on it, to the same sink, is delivered at once.
#[test]
fn a_panicking_run_loses_nothing_and_leaves_delivery_synchronous() {
    let cfg = ExperimentConfig::test_tiny();
    let w = Benchmark::Bfs.build(cfg.size).unwrap();
    let (full_store, handle) = TraceHandle::shared(CollectSink::new());
    w.run_traced(&cfg.gpu, &mut Counting::new(&mut NullObserver), handle)
        .unwrap();
    let full = full_store.lock().unwrap().take();
    let issues = |events: &[TraceEvent]| {
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Issue { .. }))
            .count() as u64
    };

    // Panic halfway through the second batch.
    assert!(full.len() > BATCH_EVENTS * 3 / 2);
    let panic_at = issues(&full[..BATCH_EVENTS * 3 / 2]);
    assert!(panic_at > issues(&full[..BATCH_EVENTS]));
    let (store, handle) = TraceHandle::shared(CollectSink::new());
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let mut null = NullObserver;
        let mut observer = Counting::new(&mut null);
        observer.panic_at = panic_at;
        w.run_traced(&cfg.gpu, &mut observer, handle.clone())
    }));
    assert!(unwound.is_err(), "the observer must have panicked");

    let cut = store.lock().unwrap().events().to_vec();
    assert_eq!(cut[..], full[..cut.len()], "not a prefix of the full run");
    assert_eq!(
        issues(&cut),
        panic_at,
        "events emitted before the panic were lost"
    );

    handle.emit(|| TraceEvent::Idle { sm: 0, cycle: 0 });
    assert_eq!(
        store.lock().unwrap().events().len(),
        cut.len() + 1,
        "a batch stayed open after the unwind"
    );
}
