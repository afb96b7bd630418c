//! # warped-trace
//!
//! Cycle-level event tracing and online invariant checking for the whole
//! simulation pipeline, in the spirit of GPGPU-Sim's cycle-accurate
//! validation discipline (Bakhoda et al., ISPASS 2009) and DIVA's
//! checker-verifies-core philosophy (Austin, MICRO 1999).
//!
//! The Replay Checker and the Warped-DMR engine (`warped-core`) emit
//! typed [`TraceEvent`]s through a [`TraceHandle`]. The simulator's own
//! facts (launch boundaries, issue and idle slots, SM completion) reach
//! the trace through the one channel the simulator has, its issue-stream
//! observer: `Workload::run_traced` in `warped-kernels` wraps the run's
//! observer and emits those events. A disabled handle (the default) is a
//! single `Option` check per site and the event constructors are never
//! run, so tracing costs nothing unless it is switched on. Within
//! `run_traced` an enabled handle delivers the run's events in batches,
//! in emission order and under one sink lock per batch
//! ([`TraceHandle::batched`]); elsewhere each event reaches the sink
//! before `emit` returns.
//!
//! Built-in [`TraceSink`]s:
//!
//! * [`MetricsSink`] — rebuilds a [`DmrReport`] from the stream through
//!   the same counter rules the live engine uses; replaying a recorded
//!   trace through it reproduces the live report bit-for-bit (see
//!   `warped invariants`).
//! * [`InvariantSink`] — asserts Algorithm-1 properties online: every
//!   inter-warp-eligible instruction is verified exactly once, verify
//!   timestamps are strictly after issue and monotone per SM, ReplayQ
//!   occupancy never exceeds capacity, and a RAW consumer never proceeds
//!   past an unverified same-warp producer without a forced
//!   stall-verification.
//! * [`CollectSink`] / [`Fanout`] — in-memory capture and sink
//!   composition.
//!
//! A collected stream is written out with [`jsonl::to_line`] (one flat
//! JSON object per line, read back by [`replay::read_jsonl`]) or
//! [`chrome::write`] (a Chrome `about:tracing` / Perfetto document).
//! Both are built with [`json::Obj`], the workspace's one JSON writer.
//!
//! ```
//! use warped_trace::{CollectSink, TraceEvent, TraceHandle};
//!
//! let (store, handle) = TraceHandle::shared(CollectSink::new());
//! handle.emit(|| TraceEvent::Idle { sm: 0, cycle: 7 });
//! assert_eq!(store.lock().unwrap().events().len(), 1);
//!
//! let off = TraceHandle::disabled();
//! off.emit(|| unreachable!("disabled handles never build events"));
//! ```

pub mod chrome;
pub mod event;
pub mod handle;
pub mod invariant;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod replay;
pub mod sink;

pub use event::{TraceEvent, VerifyKind, FAULT_SITE_NAMES, OUTCOME_NAMES};
pub use handle::{TraceHandle, BATCH_EVENTS};
pub use invariant::InvariantSink;
pub use jsonl::{parse_flat, FieldMap, ParseError, Scalar};
pub use metrics::{bucket_of, CheckerStats, DmrReport, MetricsSink};
pub use sink::{CollectSink, Fanout, TraceSink};
