//! # warped-faults
//!
//! Fault models and Monte-Carlo injection campaigns validating
//! Warped-DMR's analytic coverage (paper §3.3 / Fig. 9a) with *observed*
//! detection rates:
//!
//! * [`model::FaultModel`] — single-event transient bit flips and
//!   permanent stuck-at faults on individual SIMT lanes, implementing
//!   the one lane hook, [`warped_sim::LaneFault`].
//! * [`injector::ExecutionSampler`] — reservoir-samples real issue events
//!   from a profiling run so transients are injected where computation
//!   actually happened.
//! * [`resilient`] — the campaign engine, protecting runs with
//!   Warped-DMR or the DMTR baseline. By default each trial lands in one
//!   masked / detected / SDC / hang class ([`outcome`]); detection-only
//!   campaigns count the trials the comparator caught (transient rates
//!   vs Fig. 9a, and the stuck-at faults DMTR's core affinity hides,
//!   §3.2). It also models checker-internal fault sites
//!   ([`model::CheckerFault`]), retries panicking chunks and keeps an
//!   fsynced checkpoint [`journal`]. Each trial pass starts at the first
//!   launch its fault can touch (`first_touch`) and replays the earlier
//!   fault-free launches from a launch log.

mod first_touch;
pub mod injector;
pub mod journal;
pub mod model;
pub mod outcome;
pub mod resilient;

pub use injector::ExecutionSampler;
pub use journal::{ChunkCounts, ChunkRecord, Journal, JournalError, JournalHeader};
pub use model::{CheckerFault, CompoundFault, FaultModel};
pub use outcome::{wilson_interval, CampaignResult, TrialOutcome};
pub use resilient::{
    resilient_campaign, CampaignError, FaultSiteClass, ForcedPanic, Protection, ResilientOptions,
    ResilientReport,
};
