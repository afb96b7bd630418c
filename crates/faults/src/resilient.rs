//! The fault-injection campaign engine: resilient, resumable campaigns
//! with the masked / detected / SDC / hang outcome taxonomy.
//!
//! A campaign profiles the workload once, then runs its trials in
//! fixed-size chunks. Each trial injects one drawn fault into runs
//! protected by Warped-DMR or the DMTR baseline ([`Protection`]). By
//! default every trial is classified against a fault-free **golden
//! run** (see [`crate::outcome::TrialOutcome`]); a detection-only
//! campaign ([`ResilientOptions::detect_only`]) asks only *did the
//! comparator fire?* The engine survives the failure modes that kill
//! long campaigns in practice:
//!
//! * **Panic isolation** — each trial chunk runs under
//!   [`warped_runner::Runner::map_retry`]: a panicking chunk is caught,
//!   retried with capped backoff, and — if it keeps failing — *skipped*,
//!   degrading the campaign to a partial result with honestly widened
//!   confidence intervals instead of losing everything.
//! * **Watchdog** — injected runs execute under a cycle budget
//!   (default: 8× the golden run plus slack), so a fault that wedges the
//!   simulated machine classifies as [`TrialOutcome::Hang`] instead of
//!   wedging the campaign, at the same cycle on every host.
//! * **Crash-safe checkpointing** — with a [`Journal`] attached, every
//!   finished chunk is durably recorded; resuming replays finished
//!   chunks from disk and produces **bit-identical** results to an
//!   uninterrupted campaign, at any worker count.
//!
//! ## Up to two simulations per trial
//!
//! Detection and architectural outcome are measured at different
//! levels, so a trial may run twice from the same drawn fault:
//!
//! 1. a **detection run** — clean datapath, the protection engine's
//!    comparator sees the fault through its [`FaultOracle`] (this is
//!    where checker-internal faults act). Warped-DMR sees the
//!    [`CompoundFault`], its lane half on the mapped physical lane; DMTR
//!    has no lane mapping, so it sees the datapath fault on the thread's
//!    own lane;
//! 2. an **architectural run** — the same datapath fault, a
//!    [`FaultModel`] on the thread's logical lane, attached to the
//!    simulator itself as its [`warped_sim::LaneFault`], corrupting real
//!    values; its final output is compared against golden.
//!
//! Both runs keep the protection engine attached as an observer so
//! their issue schedules match the golden profile (protection stalls
//! shift cycles; a transient sampled at cycle *c* must strike cycle *c*).
//!
//! Only what can still change the trial's class is simulated:
//!
//! * the detection run ends at the first comparator mismatch: the
//!   engine reports itself [`IssueObserver::halted`] once it fired and
//!   the launch ends with [`SimError::Stopped`]; a comparator that fired
//!   never un-fires;
//! * under Warped-DMR a fail-silent draw
//!   ([`CompoundFault::is_fail_silent`]: the comparator stuck at "pass"
//!   on the lane fault's own SM) runs no detection run, since nothing
//!   can fire;
//! * a detected trial runs no architectural run, since detection takes
//!   precedence over every architectural result. A detection-only
//!   campaign never runs it.
//!
//! ## Each pass simulates only the launches its fault touches
//!
//! Once per campaign, a second fault-free run records a launch log
//! ([`LaunchLog`]: each launch's identity, memory changes and statistics)
//! and, for the strikes the seeded draws use, the set of launches in
//! which each fault key reaches [`warped_sim::LaneFault::corrupt`] from
//! the caller the pass depends on: the datapath for the architectural
//! run, the engine's comparator for the detection run. A pass follows
//! the log ([`Gpu::follow_launches`]): it simulates the launches in its
//! fault's set and replays the others, until a simulated launch changes
//! memory otherwise than the log says; from then on it simulates every
//! launch. The replays cannot change the class:
//!
//! * a replayed launch sees the golden memory (the run is on track) and
//!   the fault transforms no value in it, so it is the golden launch:
//!   same memory in, same schedule, same memory out;
//! * a simulated launch stays on track only if its identity and its
//!   memory changes equal the log's, word for word, so the next launch
//!   again sees the golden memory;
//! * cycle budgets are per launch, and a golden launch never hangs;
//! * both engines drain at the end of every launch (the ReplayChecker
//!   queue and RF slot, DMTR's pending slots), so a fresh engine at a
//!   launch boundary has the golden engine's timing state;
//! * the trial reads only whether the comparator fired and the final
//!   output, never the engine counters of replayed launches.
//!
//! A transient masked in the launch it touches therefore replays the
//! rest of the program, and a detection run, whose datapath is clean,
//! simulates only the launches its fault touches. A checker half that
//! can raise a mismatch by itself (`rfu_mux`, `rf_slot`) is not indexed,
//! so its detection run simulates every launch. A pass whose fault no
//! launch touches is decided without simulating: its detection run
//! cannot fire, and its architectural run is the golden run (masked).

use crate::first_touch::{Hook, Recorder, Touches};
use crate::injector::{random_bit, ExecutionSampler, SampledIssue};
use crate::journal::{ChunkCounts, ChunkRecord, Journal, JournalError, JournalHeader};
use crate::model::{CheckerFault, CompoundFault, FaultModel};
use crate::outcome::{CampaignResult, TrialOutcome};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use warped_baselines::Dmtr;
use warped_core::mapping::physical_lane;
use warped_core::{DmrConfig, ErrorLog, FaultOracle, LaneSite, WarpedDmr};
use warped_kernels::{ProgramRun, Workload};
use warped_runner::{Attempted, RetryPolicy, Runner};
use warped_sim::{
    Gpu, GpuConfig, IssueInfo, IssueObserver, LaunchLog, LaunchSet, MultiObserver, SimError,
    WARP_SIZE,
};
use warped_trace::json::Obj;
use warped_trace::{TraceEvent, TraceHandle, FAULT_SITE_NAMES};

/// Which hardware site a campaign injects into. The first two target
/// the datapath (execution units); the rest target the detection
/// hardware itself — each paired with a datapath transient on the same
/// SM, measuring how much coverage survives a broken checker (the
/// paper's §3.2 "who checks the checker" question).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSiteClass {
    /// Single-event transient on an execution-unit output bit.
    LaneTransient,
    /// Permanent stuck-at defect on an execution-unit output bit.
    LaneStuckAt,
    /// Comparator verdict stuck at "equal" + a lane transient: the
    /// fail-silent checker case.
    ComparatorVerdict,
    /// RFU operand-mux select broken in the struck cluster + a lane
    /// transient: a fail-loud checker.
    RfuMuxSelect,
    /// ReplayQ entry active-mask bit dead for the struck lane + a lane
    /// transient: inter-warp verification silently skips the lane.
    ReplayqMeta,
    /// Weak cell in the unverified-result RF slot + a lane transient:
    /// stored originals read back corrupted.
    RfSlot,
}

impl FaultSiteClass {
    /// All classes, in declaration order.
    pub const ALL: [FaultSiteClass; 6] = [
        FaultSiteClass::LaneTransient,
        FaultSiteClass::LaneStuckAt,
        FaultSiteClass::ComparatorVerdict,
        FaultSiteClass::RfuMuxSelect,
        FaultSiteClass::ReplayqMeta,
        FaultSiteClass::RfSlot,
    ];

    /// Wire name (CLI `--site`, journal header, trace events): the
    /// trace layer's [`FAULT_SITE_NAMES`] entry in declaration order.
    pub fn as_str(self) -> &'static str {
        FAULT_SITE_NAMES[self as usize]
    }

    /// Parse a wire name back.
    pub fn from_wire(s: &str) -> Option<FaultSiteClass> {
        FaultSiteClass::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// Whether this class injects into the checker hardware (and pairs
    /// the checker fault with a same-SM datapath transient).
    pub fn is_checker_site(self) -> bool {
        !matches!(
            self,
            FaultSiteClass::LaneTransient | FaultSiteClass::LaneStuckAt
        )
    }
}

impl std::fmt::Display for FaultSiteClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Test hook: force chunk `chunk` to panic on its first `attempts`
/// attempts, exercising the retry/degradation machinery on demand.
/// The panic is raised *before* any trial runs, so a chunk that
/// eventually succeeds produces exactly the counts it would have
/// produced without the forced panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedPanic {
    /// The chunk to poison.
    pub chunk: u32,
    /// How many leading attempts panic. With `attempts` ≤ the retry
    /// budget the chunk recovers; above it, the chunk is skipped.
    pub attempts: u32,
}

/// Default reservoir capacity of the profiling sampler: enough sites
/// for statistically tight campaigns on every suite benchmark while
/// keeping the profiling pass cheap.
pub const DEFAULT_SAMPLER_CAPACITY: usize = 4096;

/// Default trials per RNG chunk. Small enough that modest campaigns
/// still spread across workers, large enough that per-chunk seeding
/// stays a rounding error of total cost.
pub const DEFAULT_CHUNK_TRIALS: u32 = 8;

/// Which engine protects the runs of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Warped-DMR, configured by the campaign's `DmrConfig`.
    WarpedDmr,
    /// The DMTR baseline (core affinity — same-lane verification).
    Dmtr,
}

/// Tuning knobs of a resilient campaign.
#[derive(Clone)]
pub struct ResilientOptions {
    /// Reservoir capacity of the profiling sampler.
    pub sampler_capacity: usize,
    /// Trials per chunk (part of the seeding contract: chunk `c` seeds
    /// `seed ^ c`, so this changes which faults a seed draws).
    pub chunk_trials: u32,
    /// Worker threads. Never affects results.
    pub threads: usize,
    /// Retry budget and backoff for panicking chunks.
    pub retry: RetryPolicy,
    /// Cycle budget per injected launch; `0` = auto (8× the golden
    /// run's total cycles, plus 10 000 slack).
    pub cycle_budget: u64,
    /// Journal path for crash-safe checkpointing (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Replay finished chunks from the journal instead of truncating
    /// it (`--resume`).
    pub resume: bool,
    /// Test hook: poison one chunk's leading attempts.
    pub forced_panic: Option<ForcedPanic>,
    /// Trace handle for `FaultInjected` / `TrialOutcome` events.
    pub trace: TraceHandle,
    /// The engine protecting the profile, detection and architectural
    /// runs (default Warped-DMR).
    pub protection: Protection,
    /// Run only each trial's detection pass (default off). A trial then
    /// counts as `detected` when the comparator fired and otherwise lands
    /// in no class (and emits no `TrialOutcome` event): its architectural
    /// outcome is never measured.
    pub detect_only: bool,
}

impl Default for ResilientOptions {
    fn default() -> Self {
        ResilientOptions {
            sampler_capacity: DEFAULT_SAMPLER_CAPACITY,
            chunk_trials: DEFAULT_CHUNK_TRIALS,
            threads: warped_runner::default_threads(),
            retry: RetryPolicy::default(),
            cycle_budget: 0,
            checkpoint: None,
            resume: false,
            forced_panic: None,
            trace: TraceHandle::disabled(),
            protection: Protection::WarpedDmr,
            detect_only: false,
        }
    }
}

impl std::fmt::Debug for ResilientOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientOptions")
            .field("sampler_capacity", &self.sampler_capacity)
            .field("chunk_trials", &self.chunk_trials)
            .field("threads", &self.threads)
            .field("retry", &self.retry)
            .field("cycle_budget", &self.cycle_budget)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("forced_panic", &self.forced_panic)
            .field("trace", &self.trace.enabled())
            .field("protection", &self.protection)
            .field("detect_only", &self.detect_only)
            .finish()
    }
}

impl ResilientOptions {
    /// A copy with the given worker count (zero clamps to one).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Why a resilient campaign could not produce a result at all (partial
/// results from skipped chunks are *not* errors — they surface as
/// `skipped > 0` in the report).
#[derive(Debug)]
pub enum CampaignError {
    /// The golden/profiling run failed — nothing can be classified
    /// against a broken baseline.
    Golden(SimError),
    /// The checkpoint journal could not be created, read, or appended.
    Journal(JournalError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Golden(e) => write!(f, "golden run failed: {e}"),
            CampaignError::Journal(e) => write!(f, "checkpoint journal: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// The result of a resilient campaign: taxonomy counts plus the
/// orchestration facts needed to judge (and reproduce) the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientReport {
    /// Benchmark name (paper spelling).
    pub bench: String,
    /// The injected fault-site class.
    pub class: FaultSiteClass,
    /// Campaign seed.
    pub seed: u64,
    /// Trials per chunk.
    pub chunk_trials: u32,
    /// Total chunks the campaign planned.
    pub chunks: u32,
    /// Classified trial counts (with `planned`/`skipped` filled in).
    pub result: CampaignResult,
    /// Indices of chunks skipped after exhausting their retry budget.
    pub failed_chunks: Vec<u32>,
    /// Extra attempts spent on panicking chunks this run. Not part of
    /// [`ResilientReport::to_json`]: it depends on where a previous run
    /// was interrupted, and the JSON must be bit-identical between an
    /// uninterrupted campaign and a resumed one.
    pub retries_used: u32,
    /// Chunks replayed from the journal this run (not in the JSON,
    /// same reason).
    pub resumed_chunks: u32,
}

impl ResilientReport {
    /// Canonical JSON rendering. Deterministic: depends only on the
    /// campaign definition (bench, class, geometry, seed) and the
    /// classified counts — never on thread count, scheduling, or how
    /// many interruptions/resumes it took to finish.
    pub fn to_json(&self) -> String {
        let r = &self.result;
        let doc = Obj::default()
            .str("bench", &self.bench)
            .str("class", self.class.as_str())
            .val("seed", self.seed)
            .val("chunk_trials", self.chunk_trials)
            .val("chunks", self.chunks)
            .val("planned", r.planned)
            .val("completed", r.trials)
            .val("skipped", r.skipped);
        let doc = TrialOutcome::ALL.into_iter().fold(doc, |doc, class| {
            let (lo, hi) = r.interval_pct(class);
            let rate = Obj::default()
                .val("count", r.count(class))
                .val("pct", format_args!("{:.4}", r.rate_pct(class)))
                .val("ci_lo_pct", format_args!("{lo:.4}"))
                .val("ci_hi_pct", format_args!("{hi:.4}"));
            doc.val(class.as_str(), rate)
        });
        doc.arr("failed_chunks", &self.failed_chunks).to_string()
    }
}

/// One drawn trial: the datapath fault on the logical lane, the same
/// fault on the mapped physical lane with the checker half, and the
/// metadata the trace events report.
#[derive(Debug, Clone, Copy)]
struct DrawnFault {
    /// What Warped-DMR's comparator sees: the datapath fault on the
    /// mapped physical lane, plus the checker half.
    detect: CompoundFault,
    /// What the simulator's datapath actually suffers, on the logical
    /// lane (= thread).
    arch: FaultModel,
    /// Afflicted SM.
    sm: usize,
    /// Physical lane of the datapath fault (`u32::MAX` in events for
    /// checker classes, where the checker is the site of interest).
    physical: usize,
    /// Strike cycle (0 for permanent faults).
    strike: u64,
}

impl DrawnFault {
    /// The fault the comparator of `protection` sees. Warped-DMR sees the
    /// lane half on its mapped physical lane, through the checker half;
    /// DMTR has no lane mapping and none of Warped-DMR's checker
    /// hardware, so it sees the datapath fault on the thread's own lane.
    fn seen_by(&self, protection: Protection) -> CompoundFault {
        match protection {
            Protection::WarpedDmr => self.detect,
            Protection::Dmtr => CompoundFault::lane_only(self.arch),
        }
    }
}

/// Draw one fault. The draw order — sample, thread, bit, then the stuck
/// value (`lane_stuck`) or the RF-slot bit (`rf_slot`) — is part of the
/// seeding contract the determinism tests pin down.
fn draw_fault(
    class: FaultSiteClass,
    samples: &[SampledIssue],
    dmr: &DmrConfig,
    rng: &mut StdRng,
) -> DrawnFault {
    let ev = samples[rng.random_range(0..samples.len())];
    let thread = ev.random_active_thread(rng);
    let bit = random_bit(rng);
    let physical = physical_lane(dmr.mapping, thread, WARP_SIZE, dmr.cluster_size);
    let stuck = (class == FaultSiteClass::LaneStuckAt).then(|| rng.random_bool(0.5));
    // One fault, on the lane each hook's caller names: the simulator
    // computes thread results by logical index, the engine models the
    // original execution on the mapped physical lane.
    let lane_fault = |lane| {
        let site = LaneSite { sm: ev.sm, lane };
        match stuck {
            Some(value) => FaultModel::StuckAt { site, bit, value },
            None => FaultModel::TransientFlip {
                site,
                cycle: ev.cycle,
                bit,
            },
        }
    };
    let cluster_size = dmr.cluster_size.max(1);
    let checker = match class {
        FaultSiteClass::LaneTransient | FaultSiteClass::LaneStuckAt => None,
        FaultSiteClass::ComparatorVerdict => Some(CheckerFault::ComparatorStuckPass { sm: ev.sm }),
        FaultSiteClass::RfuMuxSelect => Some(CheckerFault::RfuMuxSelect {
            sm: ev.sm,
            cluster: physical / cluster_size,
            cluster_size,
        }),
        FaultSiteClass::ReplayqMeta => Some(CheckerFault::ReplayqMaskDrop {
            sm: ev.sm,
            bit: thread as u8,
        }),
        FaultSiteClass::RfSlot => Some(CheckerFault::StoredResultFlip {
            sm: ev.sm,
            bit: random_bit(rng),
        }),
    };
    DrawnFault {
        detect: CompoundFault {
            lane: lane_fault(physical),
            checker,
        },
        arch: lane_fault(thread),
        sm: ev.sm,
        physical,
        strike: if stuck.is_some() { 0 } else { ev.cycle },
    }
}

/// The protection engine of one run. Every pass of a campaign (profile,
/// footprint, detection, architectural) builds its engine here, so all of
/// them follow the same issue schedule.
///
/// As an observer it halts the launch at the first comparator mismatch:
/// [`Engine::fired`] never goes back to false, so the rest of the run
/// could not change the verdict. Only a detection pass's oracle can make
/// it fire; the other passes carry none, or a recording one that changes
/// no value.
enum Engine {
    WarpedDmr(Box<WarpedDmr>),
    Dmtr(Dmtr),
}

impl Engine {
    /// An engine for `protection` whose comparator sees hardware through
    /// `oracle`, if any.
    fn new(
        protection: Protection,
        dmr: &DmrConfig,
        gpu: &GpuConfig,
        oracle: Option<Box<dyn FaultOracle>>,
    ) -> Engine {
        match (protection, oracle) {
            (Protection::WarpedDmr, None) => {
                Engine::WarpedDmr(Box::new(WarpedDmr::new(dmr.clone(), gpu)))
            }
            (Protection::WarpedDmr, Some(o)) => {
                Engine::WarpedDmr(Box::new(WarpedDmr::with_oracle(dmr.clone(), gpu, o)))
            }
            (Protection::Dmtr, None) => Engine::Dmtr(Dmtr::new()),
            (Protection::Dmtr, Some(o)) => Engine::Dmtr(Dmtr::with_oracle(o)),
        }
    }

    /// The comparator's detections so far.
    fn errors(&self) -> &ErrorLog {
        match self {
            Engine::WarpedDmr(e) => e.errors(),
            Engine::Dmtr(e) => e.errors(),
        }
    }

    /// Whether the comparator fired.
    fn fired(&self) -> bool {
        self.errors().any()
    }
}

impl IssueObserver for Engine {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        match self {
            Engine::WarpedDmr(e) => e.on_issue(info),
            Engine::Dmtr(e) => e.on_issue(info),
        }
    }

    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        match self {
            Engine::WarpedDmr(e) => e.on_idle(sm_id, cycle),
            Engine::Dmtr(e) => e.on_idle(sm_id, cycle),
        }
    }

    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        match self {
            Engine::WarpedDmr(e) => e.on_sm_done(sm_id, cycle),
            Engine::Dmtr(e) => e.on_sm_done(sm_id, cycle),
        }
    }

    fn on_launch(&mut self, index: u32) {
        match self {
            Engine::WarpedDmr(e) => e.on_launch(index),
            Engine::Dmtr(e) => e.on_launch(index),
        }
    }

    fn halted(&self) -> bool {
        self.fired()
    }
}

/// Profile the workload under the *same* protection engine its trials
/// run (protection stalls shift the schedule, so sampled cycles must
/// align with the injected runs) and capture the golden architectural
/// output.
fn golden_profile(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    seed: u64,
    capacity: usize,
) -> Result<(ProgramRun, ExecutionSampler), SimError> {
    let mut sampler = ExecutionSampler::new(capacity, seed);
    let mut engine = Engine::new(protection, dmr, gpu, None);
    let mut multi = MultiObserver::new();
    multi.push(&mut engine).push(&mut sampler);
    let run = workload.run_with(gpu, &mut multi)?;
    Ok((run, sampler))
}

/// What a campaign records from its fault-free runs, once: the output
/// every trial is classified against, the launch log trial passes
/// follow, and the launches each drawn fault can act in.
struct Golden {
    run: ProgramRun,
    /// `None` when no pass is indexed, so every pass simulates every
    /// launch.
    log: Option<Arc<LaunchLog>>,
    touch: Arc<Touches>,
}

impl Golden {
    /// A GPU of `chip` that follows the log, simulating `simulate`.
    fn gpu_following(&self, chip: &GpuConfig, simulate: LaunchSet) -> Gpu {
        let mut gpu = Gpu::new(chip.clone());
        if let Some(log) = &self.log {
            gpu.follow_launches(log.clone(), simulate);
        }
        gpu
    }

    /// The launches the detection run of `f` simulates; empty when it
    /// cannot fire.
    fn detection_launches(&self, protection: Protection, f: &DrawnFault) -> LaunchSet {
        match detection_touch(protection, f) {
            DetectionTouch::Never => LaunchSet::EMPTY,
            DetectionTouch::Every => LaunchSet::from(0),
            DetectionTouch::Key(lane) => self.touch.touches(Hook::Detect, &lane),
        }
    }
}

/// The second fault-free run: record the launch log and the launches
/// that touch each of `keys`, attaching a recording hook only where a key is
/// watched (the recording hooks change no value). Its result must equal
/// `profile`, the first run's. With no key at all, nothing is recorded.
///
/// # Panics
///
/// Panics if the two fault-free runs differ, which would make the
/// simulator nondeterministic.
fn golden_footprint(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    profile: ProgramRun,
    keys: impl IntoIterator<Item = (Hook, FaultModel)>,
) -> Result<Golden, SimError> {
    let touch = Touches::new(gpu.num_sms, keys);
    if !touch.watches(Hook::Arch) && !touch.watches(Hook::Detect) {
        return Ok(Golden {
            run: profile,
            log: None,
            touch,
        });
    }
    let mut chip = Gpu::new(gpu.clone());
    chip.record_launches();
    if touch.watches(Hook::Arch) {
        chip.set_fault(Arc::new(Recorder(touch.clone(), Hook::Arch)));
    }
    let oracle = touch
        .watches(Hook::Detect)
        .then(|| -> Box<dyn FaultOracle> { Box::new(Recorder(touch.clone(), Hook::Detect)) });
    let mut engine = Engine::new(protection, dmr, gpu, oracle);
    // As an observer, a recorder of either hook tells the index which
    // launch runs.
    let mut launches = Recorder(touch.clone(), Hook::Arch);
    let mut multi = MultiObserver::new();
    multi.push(&mut engine).push(&mut launches);
    let run = workload.run_on(&mut chip, &mut multi)?;
    assert_eq!(run, profile, "the two fault-free runs differ");
    let log = chip
        .take_launch_log()
        .expect("every recorded launch finished");
    Ok(Golden {
        run,
        log: Some(Arc::new(log)),
        touch,
    })
}

/// Which launches can make a trial's detection run fire.
#[derive(Debug, Clone, Copy)]
enum DetectionTouch {
    /// None: nothing can fire.
    Never,
    /// Any launch.
    Every,
    /// The launches in which the engine's comparator sees this lane
    /// fault.
    Key(FaultModel),
}

/// Which launches can make the detection run of `f` fire, from the fault
/// its engine sees ([`DrawnFault::seen_by`]). A fail-silent draw cannot
/// fire; a fail-silent checker half only swallows or skips comparisons,
/// so the lane half decides; any other checker half can raise a mismatch
/// by itself and is not indexed.
fn detection_touch(protection: Protection, f: &DrawnFault) -> DetectionTouch {
    let seen = f.seen_by(protection);
    match seen.checker {
        _ if seen.is_fail_silent() => DetectionTouch::Never,
        Some(c) if !c.is_fail_silent() => DetectionTouch::Every,
        _ => DetectionTouch::Key(seen.lane),
    }
}

/// The fault keys the passes of `f`'s trial look up.
fn trial_keys(opts: &ResilientOptions, f: &DrawnFault) -> impl Iterator<Item = (Hook, FaultModel)> {
    let detect = match detection_touch(opts.protection, f) {
        DetectionTouch::Key(lane) => Some((Hook::Detect, lane)),
        DetectionTouch::Never | DetectionTouch::Every => None,
    };
    let arch = (!opts.detect_only).then_some((Hook::Arch, f.arch));
    detect.into_iter().chain(arch)
}

/// The chip the architectural passes run on: `gpu` with the campaign's
/// cycle budget (auto: 8× the golden run plus slack).
fn budgeted(gpu: &GpuConfig, golden: &ProgramRun, opts: &ResilientOptions) -> GpuConfig {
    let budget = if opts.cycle_budget != 0 {
        opts.cycle_budget
    } else {
        golden.stats.cycles.saturating_mul(8).saturating_add(10_000)
    };
    gpu.clone().with_cycle_budget(budget)
}

/// Run the simulations that decide one trial and classify it; `None`
/// when a detection-only trial's comparator stayed silent
/// (unclassified). Each pass simulates the launches its fault touches
/// and replays the others while it stays on track (see the module docs).
///
/// Detection wins: a trial where the checker fired is `Detected` whatever
/// the corrupted run would have done (hang, wrong output) — a real
/// deployment triggers recovery at the detection point — so a detected
/// trial runs no architectural pass.
fn run_trial(
    workload: &Workload,
    clean_gpu: &GpuConfig,
    budgeted_gpu: &GpuConfig,
    dmr: &DmrConfig,
    opts: &ResilientOptions,
    fault: &DrawnFault,
    golden: &Golden,
) -> Result<Option<TrialOutcome>, SimError> {
    // 1. Detection run: clean datapath, faulty oracle, stopped at the
    //    first mismatch. A fail-silent draw cannot fire under Warped-DMR,
    //    and a draw no launch touches cannot fire at all, so they run
    //    none. The sim is bit-identical to golden, so it runs unbudgeted
    //    (it cannot hang) and any other SimError here is a genuine bug to
    //    surface.
    let launches = golden.detection_launches(opts.protection, fault);
    let detected = !launches.is_empty() && {
        let oracle = Box::new(fault.seen_by(opts.protection));
        let mut engine = Engine::new(opts.protection, dmr, clean_gpu, Some(oracle));
        let mut gpu = golden.gpu_following(clean_gpu, launches);
        match workload.run_on(&mut gpu, &mut engine) {
            Ok(_) | Err(SimError::Stopped { .. }) => engine.fired(),
            Err(e) => return Err(e),
        }
    };
    if detected {
        return Ok(Some(TrialOutcome::Detected));
    }
    if opts.detect_only {
        return Ok(None);
    }

    // 2. Architectural run, simulating the launches the fault touches.
    let launches = golden.touch.touches(Hook::Arch, &fault.arch);
    if launches.is_empty() {
        return Ok(Some(TrialOutcome::Masked));
    }
    let mut gpu = golden.gpu_following(budgeted_gpu, launches);
    let arch = arch_pass(workload, &mut gpu, dmr, opts.protection, fault);
    Ok(Some(match arch {
        Err(e @ SimError::ReplayMismatch { .. }) => return Err(e),
        Err(SimError::Hang { .. }) => TrialOutcome::Hang,
        // Any other trap (deadlock, bad access from a corrupted
        // address…) is an observable failure: a detected,
        // unrecoverable error rather than silent corruption.
        Err(_) => TrialOutcome::Detected,
        Ok(run) if run.output != golden.run.output => TrialOutcome::Sdc,
        Ok(_) => TrialOutcome::Masked,
    }))
}

/// The architectural pass of `fault`'s trial on `gpu`: real corruption,
/// under the budget of `gpu`'s config. The protection engine rides along
/// (without an oracle) purely so the issue schedule matches the profile
/// run's cycle numbering.
fn arch_pass(
    workload: &Workload,
    gpu: &mut Gpu,
    dmr: &DmrConfig,
    protection: Protection,
    fault: &DrawnFault,
) -> Result<ProgramRun, SimError> {
    let mut observer = Engine::new(protection, dmr, gpu.config(), None);
    gpu.set_fault(Arc::new(fault.arch));
    workload.run_on(gpu, &mut observer)
}

/// The faults chunk `c` of a campaign draws, in trial order: `n` draws
/// from `StdRng::seed_from_u64(seed ^ c)`.
fn chunk_faults(
    class: FaultSiteClass,
    samples: &[SampledIssue],
    dmr: &DmrConfig,
    seed: u64,
    c: u32,
    n: u32,
) -> Vec<DrawnFault> {
    let mut rng = StdRng::seed_from_u64(seed ^ u64::from(c));
    (0..n)
        .map(|_| draw_fault(class, samples, dmr, &mut rng))
        .collect()
}

/// Run a resilient campaign: `trials` injections of `class` into
/// `workload` protected by `opts.protection` (configured by `dmr`),
/// classified or, with `opts.detect_only`, only checked for detection.
///
/// Chunk `c` draws its trials from `StdRng::seed_from_u64(seed ^ c)`
/// and results are folded in chunk order, so the outcome is
/// bit-identical at any `opts.threads` — and, via the checkpoint
/// journal, across any interrupt/resume pattern.
///
/// # Errors
///
/// [`CampaignError::Golden`] if the fault-free profiling run fails and
/// [`CampaignError::Journal`] on checkpoint I/O or identity errors.
/// Chunks that exhaust their retry budget are *not* errors: they
/// surface as `skipped` trials and widened intervals in the report.
///
/// # Panics
///
/// Panics only if the two fault-free runs differ (a nondeterministic
/// simulator); panics *inside* trial chunks (including the
/// [`ForcedPanic`] test hook) are caught and converted to retries.
pub fn resilient_campaign(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    class: FaultSiteClass,
    trials: u32,
    seed: u64,
    opts: &ResilientOptions,
) -> Result<ResilientReport, CampaignError> {
    let chunk = opts.chunk_trials.max(1);
    let (profile, sampler) = golden_profile(
        workload,
        gpu,
        dmr,
        opts.protection,
        seed,
        opts.sampler_capacity.max(1),
    )
    .map_err(CampaignError::Golden)?;
    let samples = sampler.samples();

    let empty_report = |chunks| ResilientReport {
        bench: workload.name().to_string(),
        class,
        seed,
        chunk_trials: chunk,
        chunks,
        result: CampaignResult {
            planned: trials,
            ..Default::default()
        },
        failed_chunks: Vec::new(),
        retries_used: 0,
        resumed_chunks: 0,
    };
    if trials == 0 || samples.is_empty() {
        return Ok(empty_report(0));
    }

    // A journal records its engine and mode with the site class, so it
    // never resumes under another one.
    let mut key = class.as_str().to_string();
    if opts.protection == Protection::Dmtr {
        key.push_str("+dmtr");
    }
    if opts.detect_only {
        key.push_str("+detect");
    }
    let header = JournalHeader {
        bench: workload.name().to_string(),
        class: key,
        trials,
        chunk_trials: chunk,
        seed,
        sampler: opts.sampler_capacity as u64,
    };
    let (journal, done) = match &opts.checkpoint {
        Some(path) if opts.resume => {
            let (j, done) = Journal::resume(path, &header)?;
            (Some(j), done)
        }
        Some(path) => (Some(Journal::create(path, &header)?), BTreeMap::new()),
        None => (None, BTreeMap::new()),
    };

    // Draws are pure functions of `seed ^ chunk`, so the fault keys every
    // chunk's trials will look up are known before any trial runs.
    let chunks = trials.div_ceil(chunk);
    let trials_in = |c: u32| chunk.min(trials - c * chunk);
    let keys = (0..chunks)
        .flat_map(|c| chunk_faults(class, samples, dmr, seed, c, trials_in(c)))
        .flat_map(|f| trial_keys(opts, &f));
    let golden = golden_footprint(workload, gpu, dmr, opts.protection, profile, keys)
        .map_err(CampaignError::Golden)?;
    let budgeted_gpu = budgeted(gpu, &golden.run, opts);
    let journal = journal.map(Mutex::new);
    let cached = &done;
    let attempted = Runner::new(opts.threads).map_retry(
        0..chunks,
        opts.retry,
        |c, attempt| -> (ChunkCounts, bool) {
            if let Some(ChunkRecord::Done { counts, .. }) = cached.get(&c) {
                return (*counts, true);
            }
            if let Some(fp) = opts.forced_panic {
                if fp.chunk == c && attempt < fp.attempts {
                    panic!("forced campaign panic: chunk {c}, attempt {attempt}");
                }
            }
            // Re-seeded identically on every attempt, so a chunk that
            // panicked and recovered draws exactly the same faults.
            let mut counts = ChunkCounts::default();
            let faults = chunk_faults(class, samples, dmr, seed, c, trials_in(c));
            for (trial, fault) in (c * chunk..).zip(&faults) {
                opts.trace.emit(|| TraceEvent::FaultInjected {
                    sm: fault.sm as u32,
                    trial,
                    kind: class.as_str(),
                    lane: if class.is_checker_site() {
                        u32::MAX
                    } else {
                        fault.physical as u32
                    },
                    cycle: fault.strike,
                });
                let outcome = run_trial(workload, gpu, &budgeted_gpu, dmr, opts, fault, &golden)
                    .unwrap_or_else(|e| panic!("trial {trial} failed: {e}"));
                if let Some(outcome) = outcome {
                    opts.trace.emit(|| TraceEvent::TrialOutcome {
                        trial,
                        outcome: outcome.as_str(),
                    });
                    counts.record(outcome);
                }
            }
            if let Some(j) = &journal {
                j.lock()
                    .expect("journal mutex poisoned")
                    .append(&ChunkRecord::Done {
                        index: c,
                        attempts: attempt + 1,
                        counts,
                    })
                    .unwrap_or_else(|e| panic!("checkpoint append failed: {e}"));
            }
            (counts, false)
        },
    );

    let mut journal = journal.map(|m| m.into_inner().expect("journal mutex poisoned"));
    let mut total = ChunkCounts::default();
    let mut failed_chunks = Vec::new();
    let mut retries_used = 0;
    let mut resumed_chunks = 0;
    let mut skipped = 0;
    for (i, a) in attempted.into_iter().enumerate() {
        let c = i as u32;
        match a {
            Attempted::Done {
                value: (counts, from_cache),
                attempts,
            } => {
                retries_used += attempts - 1;
                if from_cache {
                    resumed_chunks += 1;
                }
                total.absorb(&counts);
            }
            Attempted::Failed { attempts, .. } => {
                retries_used += attempts - 1;
                failed_chunks.push(c);
                skipped += trials_in(c);
                if let Some(j) = &mut journal {
                    j.append(&ChunkRecord::Failed { index: c, attempts })?;
                }
            }
        }
    }

    Ok(ResilientReport {
        bench: workload.name().to_string(),
        class,
        seed,
        chunk_trials: chunk,
        chunks,
        result: CampaignResult {
            trials: trials - skipped,
            detected: total.detected,
            masked: total.masked,
            sdc: total.sdc,
            hangs: total.hang,
            planned: trials,
            skipped,
        },
        failed_chunks,
        retries_used,
        resumed_chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_kernels::{Benchmark, WorkloadSize};
    use warped_sim::LaneFault;

    fn tiny_opts() -> ResilientOptions {
        ResilientOptions {
            sampler_capacity: 256,
            chunk_trials: 2,
            threads: 2,
            retry: RetryPolicy {
                retries: 2,
                backoff_ms: 0,
                backoff_cap_ms: 0,
            },
            ..Default::default()
        }
    }

    #[test]
    fn fully_covered_workload_detects_every_lane_transient() {
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        for detect_only in [false, true] {
            let opts = ResilientOptions {
                detect_only,
                ..tiny_opts()
            };
            let r = resilient_campaign(
                &w,
                &gpu,
                &DmrConfig::default(),
                FaultSiteClass::LaneTransient,
                6,
                11,
                &opts,
            )
            .unwrap();
            assert_eq!(r.result.trials, 6);
            assert_eq!(r.result.planned, 6);
            assert_eq!(r.result.detected, 6, "MatrixMul is 100% inter-covered");
            assert_eq!(r.result.skipped, 0);
            assert!(r.failed_chunks.is_empty());
            let (lo, hi) = r.result.interval_pct(TrialOutcome::Detected);
            assert!(lo > 50.0 && hi == 100.0);
        }
    }

    #[test]
    fn stuck_at_hidden_by_dmtr_but_caught_by_warped_dmr() {
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let run = |protection| {
            let opts = ResilientOptions {
                protection,
                detect_only: true,
                ..tiny_opts()
            };
            let r = resilient_campaign(
                &w,
                &gpu,
                &DmrConfig::default(),
                FaultSiteClass::LaneStuckAt,
                4,
                3,
                &opts,
            )
            .unwrap()
            .result;
            assert_eq!(r.trials, 4);
            assert_eq!(
                (r.masked, r.sdc, r.hangs),
                (0, 0, 0),
                "detection-only trials are never classified otherwise"
            );
            r
        };
        let warped = run(Protection::WarpedDmr);
        assert_eq!(
            warped.detected, 4,
            "lane shuffling must expose stuck-at faults"
        );
        let dmtr = run(Protection::Dmtr);
        assert_eq!(
            dmtr.detected, 0,
            "core affinity hides permanent faults on full warps"
        );
    }

    #[test]
    fn dead_comparator_turns_detections_into_sdc() {
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let dmr = DmrConfig::default();
        let opts = tiny_opts();
        let healthy =
            resilient_campaign(&w, &gpu, &dmr, FaultSiteClass::LaneTransient, 6, 7, &opts).unwrap();
        let broken = resilient_campaign(
            &w,
            &gpu,
            &dmr,
            FaultSiteClass::ComparatorVerdict,
            6,
            7,
            &opts,
        )
        .unwrap();
        assert_eq!(healthy.result.detected, 6);
        // With the comparator dead, the only detections left are
        // machine traps (corrupted addresses etc.) — comparator-driven
        // coverage is gone and silent corruption appears.
        assert!(
            broken.result.detected < healthy.result.detected,
            "a dead comparator must lose comparator-driven detections: {:?}",
            broken.result
        );
        assert!(
            broken.result.sdc > 0,
            "swallowed detections surface as silent corruption: {:?}",
            broken.result
        );
        assert_eq!(
            broken.result.detected + broken.result.sdc + broken.result.masked + broken.result.hangs,
            6,
            "every trial still classifies"
        );
    }

    #[test]
    fn tiny_cycle_budget_classifies_undetected_trials_as_hang() {
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        // A 1-cycle budget makes every architectural run "hang", and a
        // dead comparator guarantees detection never preempts it.
        let opts = ResilientOptions {
            cycle_budget: 1,
            ..tiny_opts()
        };
        let r = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::ComparatorVerdict,
            4,
            3,
            &opts,
        )
        .unwrap();
        assert_eq!(r.result.hangs, 4, "{:?}", r.result);
    }

    #[test]
    fn forced_panic_within_budget_is_transparent() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let base = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            8,
            5,
            &tiny_opts(),
        )
        .unwrap();
        let hurt_opts = ResilientOptions {
            forced_panic: Some(ForcedPanic {
                chunk: 1,
                attempts: 2,
            }),
            ..tiny_opts()
        };
        let hurt = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            8,
            5,
            &hurt_opts,
        )
        .unwrap();
        assert_eq!(hurt.result, base.result, "retries must not change results");
        assert_eq!(hurt.to_json(), base.to_json());
        assert_eq!(hurt.retries_used, 2);
        assert_eq!(base.retries_used, 0);
    }

    #[test]
    fn exhausted_retries_degrade_to_a_partial_result() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let opts = ResilientOptions {
            forced_panic: Some(ForcedPanic {
                chunk: 0,
                attempts: 100,
            }),
            ..tiny_opts()
        };
        let r = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            8,
            5,
            &opts,
        )
        .unwrap();
        assert_eq!(r.failed_chunks, vec![0]);
        assert_eq!(r.result.skipped, 2);
        assert_eq!(r.result.trials, 6);
        assert_eq!(r.result.planned, 8);
        // The degraded interval must be wider than the clean one.
        let clean = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            8,
            5,
            &tiny_opts(),
        )
        .unwrap();
        let (dlo, dhi) = r.result.interval_pct(TrialOutcome::Detected);
        let (clo, chi) = clean.result.interval_pct(TrialOutcome::Detected);
        assert!(
            dhi - dlo > chi - clo,
            "skipping must widen: [{dlo:.1},{dhi:.1}] vs [{clo:.1},{chi:.1}]"
        );
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Fft.build(WorkloadSize::Tiny).unwrap();
        let mut reports = Vec::new();
        for threads in [1, 2, 4] {
            let opts = tiny_opts().with_threads(threads);
            reports.push(
                resilient_campaign(
                    &w,
                    &gpu,
                    &DmrConfig::default(),
                    FaultSiteClass::LaneTransient,
                    10,
                    42,
                    &opts,
                )
                .unwrap()
                .to_json(),
            );
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
    }

    #[test]
    fn trace_events_cover_every_trial() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let (store, handle) = TraceHandle::shared(warped_trace::CollectSink::new());
        let opts = ResilientOptions {
            trace: handle,
            threads: 1,
            ..tiny_opts()
        };
        let r = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::RfSlot,
            4,
            9,
            &opts,
        )
        .unwrap();
        assert_eq!(r.result.trials, 4);
        let events = store.lock().unwrap().events().to_vec();
        let faults: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FaultInjected { .. }))
            .collect();
        let outcomes: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TrialOutcome { trial, outcome } => Some((*trial, *outcome)),
                _ => None,
            })
            .collect();
        assert_eq!(faults.len(), 4);
        assert_eq!(outcomes.len(), 4);
        for f in &faults {
            if let TraceEvent::FaultInjected { kind, lane, .. } = f {
                assert_eq!(*kind, "rf_slot");
                assert_eq!(*lane, u32::MAX, "checker sites have no lane");
            }
        }
        for o in TrialOutcome::ALL {
            let n = outcomes.iter().filter(|(_, s)| *s == o.as_str()).count() as u32;
            assert_eq!(n, r.result.count(o), "trace tally matches report for {o}");
        }
    }

    #[test]
    fn journal_never_resumes_under_another_engine_or_mode() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let path = std::env::temp_dir().join(format!(
            "warped_resilient_mode_{}.jsonl",
            std::process::id()
        ));
        let run = |protection, detect_only, resume| {
            let opts = ResilientOptions {
                protection,
                detect_only,
                resume,
                checkpoint: Some(path.clone()),
                ..tiny_opts()
            };
            let class = FaultSiteClass::LaneTransient;
            resilient_campaign(&w, &gpu, &DmrConfig::default(), class, 2, 1, &opts)
        };
        run(Protection::WarpedDmr, false, false).unwrap();
        for (protection, detect_only) in [
            (Protection::Dmtr, false),
            (Protection::WarpedDmr, true),
            (Protection::Dmtr, true),
        ] {
            let err = run(protection, detect_only, true).unwrap_err();
            assert!(
                matches!(
                    err,
                    CampaignError::Journal(JournalError::HeaderMismatch { field: "class", .. })
                ),
                "{protection:?} detect_only={detect_only}: {err}"
            );
        }
        let resumed = run(Protection::WarpedDmr, false, true).unwrap();
        assert_eq!(resumed.resumed_chunks, 1);
        let _ = std::fs::remove_file(&path);
    }

    /// The engine of `fault`'s detection pass under `protection`.
    fn detection_engine(
        protection: Protection,
        dmr: &DmrConfig,
        gpu: &GpuConfig,
        fault: &DrawnFault,
    ) -> Engine {
        Engine::new(
            protection,
            dmr,
            gpu,
            Some(Box::new(fault.seen_by(protection))),
        )
    }

    /// The trial loop without shortcuts: both passes simulate every
    /// launch, the detection pass always runs to completion, and the
    /// architectural pass runs unless the campaign is detection-only.
    fn full_trial(
        workload: &Workload,
        gpu: &GpuConfig,
        budgeted_gpu: &GpuConfig,
        dmr: &DmrConfig,
        opts: &ResilientOptions,
        fault: &DrawnFault,
        golden: &ProgramRun,
    ) -> Option<TrialOutcome> {
        // The bare engines, which never halt a run.
        let oracle = Box::new(fault.seen_by(opts.protection));
        let detected = match opts.protection {
            Protection::WarpedDmr => {
                let mut engine = WarpedDmr::with_oracle(dmr.clone(), gpu, oracle);
                workload.run_with(gpu, &mut engine).unwrap();
                engine.errors().any()
            }
            Protection::Dmtr => {
                let mut engine = Dmtr::with_oracle(oracle);
                workload.run_with(gpu, &mut engine).unwrap();
                engine.errors().any()
            }
        };
        if opts.detect_only {
            return detected.then_some(TrialOutcome::Detected);
        }
        let mut observer = Engine::new(opts.protection, dmr, budgeted_gpu, None);
        let mut chip = Gpu::new(budgeted_gpu.clone());
        chip.set_fault(Arc::new(fault.arch));
        let arch = workload.run_on(&mut chip, &mut observer);
        Some(match arch {
            _ if detected => TrialOutcome::Detected,
            Err(SimError::Hang { .. }) => TrialOutcome::Hang,
            Err(_) => TrialOutcome::Detected,
            Ok(run) if run.output != golden.output => TrialOutcome::Sdc,
            Ok(_) => TrialOutcome::Masked,
        })
    }

    /// `per_class` draws of every site class from the profile of `bench`
    /// under `protection`, with the golden record a campaign drawing
    /// them would keep.
    fn draws(
        bench: Benchmark,
        protection: Protection,
        per_class: usize,
    ) -> (Workload, Golden, Vec<(FaultSiteClass, DrawnFault)>) {
        let gpu = GpuConfig::small();
        let dmr = DmrConfig::default();
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let (profile, sampler) = golden_profile(&w, &gpu, &dmr, protection, 5, 256).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut out = Vec::new();
        for class in FaultSiteClass::ALL {
            for _ in 0..per_class {
                out.push((class, draw_fault(class, sampler.samples(), &dmr, &mut rng)));
            }
        }
        let opts = ResilientOptions {
            protection,
            ..tiny_opts()
        };
        let keys = out.iter().flat_map(|(_, f)| trial_keys(&opts, f));
        let golden = golden_footprint(&w, &gpu, &dmr, protection, profile, keys).unwrap();
        (w, golden, out)
    }

    /// Besides the outcome classes: for every draw that touches a launch,
    /// the architectural pass as `run_trial` runs it, following the
    /// golden log, ends as the unfollowed faulted run does, with the same
    /// `ProgramRun` (or error) and the same global memory.
    #[test]
    fn run_trial_matches_the_full_reference() {
        let gpu = GpuConfig::small();
        let dmr = DmrConfig::default();
        let mut compared = 0;
        for bench in [Benchmark::Bfs, Benchmark::Scan] {
            for protection in [Protection::WarpedDmr, Protection::Dmtr] {
                let (w, golden, faults) = draws(bench, protection, 12);
                let budgeted_gpu = budgeted(&gpu, &golden.run, &tiny_opts());
                for (class, f) in &faults {
                    let launches = golden.touch.touches(Hook::Arch, &f.arch);
                    if launches.is_empty() {
                        continue;
                    }
                    let mut following = golden.gpu_following(&budgeted_gpu, launches);
                    let mut full = Gpu::new(budgeted_gpu.clone());
                    let context = format!("{bench:?} {protection:?} {class}: {f:?}");
                    assert_eq!(
                        arch_pass(&w, &mut following, &dmr, protection, f),
                        arch_pass(&w, &mut full, &dmr, protection, f),
                        "{context}"
                    );
                    assert_eq!(following.global_mem(), full.global_mem(), "{context}");
                    compared += 1;
                }
                for detect_only in [false, true] {
                    let opts = ResilientOptions {
                        protection,
                        detect_only,
                        ..tiny_opts()
                    };
                    for (class, f) in &faults {
                        let fast = run_trial(&w, &gpu, &budgeted_gpu, &dmr, &opts, f, &golden);
                        let full = full_trial(&w, &gpu, &budgeted_gpu, &dmr, &opts, f, &golden.run);
                        assert_eq!(
                            fast.unwrap(),
                            full,
                            "{bench:?} {protection:?} {class} detect_only={detect_only}: {f:?}"
                        );
                    }
                }
            }
        }
        assert!(compared > 0, "no draw reached the architectural pass");
    }

    /// What `fault` does in each pass of its trial.
    struct Effects {
        /// Launches in which the architectural pass corrupts a value,
        /// simulating every launch.
        corrupted: LaunchSet,
        /// The same, following the golden log as [`run_trial`] does.
        corrupted_following: LaunchSet,
        /// The launches that following pass simulates, and how many
        /// launches its program ran if it finished.
        simulated: Vec<u32>,
        launches: Option<u32>,
        /// Launches in which the detection pass, simulating every launch,
        /// mismatches.
        fired: LaunchSet,
    }

    fn effects(
        w: &Workload,
        gpu: &GpuConfig,
        budgeted_gpu: &GpuConfig,
        dmr: &DmrConfig,
        protection: Protection,
        fault: &DrawnFault,
        golden: &Golden,
    ) -> Effects {
        use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

        /// The running launch and the launches a value changed in.
        #[derive(Default)]
        struct Corrupted(AtomicU32, AtomicU64);
        struct Watch(Arc<Corrupted>, FaultModel);
        impl LaneFault for Watch {
            fn corrupt(&self, sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
                let out = self.1.corrupt(sm, lane, cycle, value);
                if out != value {
                    let launch = LaunchSet::of(self.0 .0.load(Relaxed));
                    self.0 .1.fetch_or(launch.bits(), Relaxed);
                }
                out
            }
        }
        /// Tells [`Watch`] the running launch; notes the simulated ones.
        struct Launches(Arc<Corrupted>, Vec<u32>);
        impl IssueObserver for Launches {
            fn on_launch(&mut self, index: u32) {
                self.0 .0.store(index, Relaxed);
                self.1.push(index);
            }
        }
        let watched_pass = |mut chip: Gpu| {
            let corrupted = Arc::new(Corrupted::default());
            chip.set_fault(Arc::new(Watch(corrupted.clone(), fault.arch)));
            let mut engine = Engine::new(protection, dmr, budgeted_gpu, None);
            let mut launches = Launches(corrupted.clone(), Vec::new());
            let mut multi = MultiObserver::new();
            multi.push(&mut engine).push(&mut launches);
            let run = w.run_on(&mut chip, &mut multi);
            let simulated = launches.1;
            let set = LaunchSet::from_bits(corrupted.1.load(Relaxed));
            (set, simulated, run.ok().map(|r| r.launches))
        };
        let (corrupted, _, _) = watched_pass(Gpu::new(budgeted_gpu.clone()));
        let following = golden.touch.touches(Hook::Arch, &fault.arch);
        let (corrupted_following, simulated, launches) =
            watched_pass(golden.gpu_following(budgeted_gpu, following));

        /// The detection engine, the running launch, the launches the
        /// engine mismatched in and its mismatches so far.
        struct FiredIn<'a>(&'a mut Engine, u32, u64, u64);
        impl FiredIn<'_> {
            fn note(&mut self) {
                let total = self.0.errors().total();
                if total > self.3 {
                    self.2 |= LaunchSet::of(self.1).bits();
                    self.3 = total;
                }
            }
        }
        impl IssueObserver for FiredIn<'_> {
            fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
                let stalls = self.0.on_issue(info);
                self.note();
                stalls
            }
            fn on_idle(&mut self, sm_id: usize, cycle: u64) {
                self.0.on_idle(sm_id, cycle);
                self.note();
            }
            fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
                let drain = self.0.on_sm_done(sm_id, cycle);
                self.note();
                drain
            }
            fn on_launch(&mut self, index: u32) {
                self.0.on_launch(index);
                self.1 = index;
            }
        }
        let mut engine = detection_engine(protection, dmr, gpu, fault);
        let mut fired = FiredIn(&mut engine, 0, 0, 0);
        w.run_with(gpu, &mut fired).unwrap();
        Effects {
            corrupted,
            corrupted_following,
            simulated,
            launches,
            fired: LaunchSet::from_bits(fired.2),
        }
    }

    #[test]
    fn every_launch_a_fault_acts_in_is_simulated() {
        let gpu = GpuConfig::small();
        let dmr = DmrConfig::default();
        let mut gaps = 0;
        for bench in [Benchmark::Bfs, Benchmark::Scan] {
            for protection in [Protection::WarpedDmr, Protection::Dmtr] {
                let (w, golden, faults) = draws(bench, protection, 4);
                let budgeted_gpu = budgeted(&gpu, &golden.run, &tiny_opts());
                for (class, f) in &faults {
                    let e = effects(&w, &gpu, &budgeted_gpu, &dmr, protection, f, &golden);
                    let arch = golden.touch.touches(Hook::Arch, &f.arch);
                    let detect = golden.detection_launches(protection, f);
                    let ctx = format!(
                        "{bench:?} {protection:?} {class}: arch {arch:?} vs corrupted {:?}, \
                         detection {detect:?} vs mismatches {:?}",
                        e.corrupted, e.fired
                    );
                    // Sound: the architectural pass simulates every launch
                    // in which its fault changes a value. On track those
                    // are in its set; past the first launch that leaves
                    // the log (which is in the set), every launch is
                    // simulated.
                    assert_eq!(e.corrupted_following, e.corrupted, "{ctx}");
                    let first = |s: LaunchSet| (0..64).find(|&k| s.contains(k));
                    if let Some(k) = first(e.corrupted) {
                        assert!(arch.contains(k), "{ctx}");
                    }
                    // A detection pass never leaves the log (its datapath
                    // is clean), so every launch that mismatches is in
                    // its set.
                    assert_eq!(e.fired.bits() & !detect.bits(), 0, "{ctx}");
                    // Exact for a transient (every lane_transient and
                    // comparator draw): its first touch flips a bit.
                    if !f.arch.is_permanent() {
                        assert_eq!(first(arch), first(e.corrupted), "{ctx}");
                    }
                    if bench == Benchmark::Scan {
                        assert!(arch.bits() <= 1, "SCAN has one launch: {ctx}");
                    }
                    // A launch replayed after a simulated one.
                    if let (Some(&k), Some(n)) = (e.simulated.first(), e.launches) {
                        gaps += usize::from(e.simulated != (k..n).collect::<Vec<_>>());
                    }
                }
            }
        }
        assert!(
            gaps > 0,
            "some BFS pass must replay a launch after simulating one"
        );
    }

    /// The engine-side lane half of every draw is its datapath half with
    /// the lane mapped through the thread→core mapping, and each engine
    /// sees the half its comparator names.
    #[test]
    fn both_halves_of_a_draw_are_one_fault_on_two_lanes() {
        let gpu = GpuConfig::small();
        let dmr = DmrConfig::default();
        let w = Benchmark::Bfs.build(WorkloadSize::Tiny).unwrap();
        let (_, sampler) = golden_profile(&w, &gpu, &dmr, Protection::WarpedDmr, 5, 256).unwrap();
        let mapped = |site: LaneSite| LaneSite {
            sm: site.sm,
            lane: physical_lane(dmr.mapping, site.lane, WARP_SIZE, dmr.cluster_size),
        };
        let mut moved = 0;
        for class in FaultSiteClass::ALL {
            for seed in 0..4 {
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..8 {
                    let f = draw_fault(class, sampler.samples(), &dmr, &mut rng);
                    let ctx = format!("{class} seed {seed}: {f:?}");
                    let (arch, detect) = (f.arch, f.detect.lane);
                    match (arch, detect) {
                        (
                            FaultModel::TransientFlip { site, cycle, bit },
                            FaultModel::TransientFlip {
                                site: d_site,
                                cycle: d_cycle,
                                bit: d_bit,
                            },
                        ) => {
                            assert_ne!(class, FaultSiteClass::LaneStuckAt, "{ctx}");
                            assert_eq!(
                                (mapped(site), cycle, bit),
                                (d_site, d_cycle, d_bit),
                                "{ctx}"
                            );
                            assert_eq!(f.strike, cycle, "{ctx}");
                        }
                        (
                            FaultModel::StuckAt { site, bit, value },
                            FaultModel::StuckAt {
                                site: d_site,
                                bit: d_bit,
                                value: d_value,
                            },
                        ) => {
                            assert_eq!(class, FaultSiteClass::LaneStuckAt, "{ctx}");
                            assert_eq!(
                                (mapped(site), bit, value),
                                (d_site, d_bit, d_value),
                                "{ctx}"
                            );
                            assert_eq!(f.strike, 0, "{ctx}");
                        }
                        _ => panic!("the halves differ in kind: {ctx}"),
                    }
                    assert_eq!((f.sm, f.physical), (detect.site().sm, detect.site().lane));
                    assert_eq!(f.detect.checker.is_some(), class.is_checker_site(), "{ctx}");
                    assert_eq!(f.seen_by(Protection::WarpedDmr), f.detect, "{ctx}");
                    assert_eq!(
                        f.seen_by(Protection::Dmtr),
                        CompoundFault::lane_only(arch),
                        "{ctx}"
                    );
                    moved += usize::from(arch.site() != detect.site());
                }
            }
        }
        assert!(moved > 0, "the cross-cluster mapping moves some lane");
    }

    #[test]
    fn fail_silent_draws_never_fire() {
        let gpu = GpuConfig::small();
        let dmr = DmrConfig::default();
        for bench in [Benchmark::Bfs, Benchmark::Scan] {
            let (w, _, faults) = draws(bench, Protection::WarpedDmr, 6);
            for (class, f) in &faults {
                // Every comparator draw pairs the dead comparator with a
                // transient on its own SM, so none runs a detection pass.
                assert_eq!(
                    f.detect.is_fail_silent(),
                    *class == FaultSiteClass::ComparatorVerdict,
                    "{bench:?} {class}: {f:?}"
                );
                if f.detect.is_fail_silent() {
                    let mut engine = detection_engine(Protection::WarpedDmr, &dmr, &gpu, f);
                    w.run_with(&gpu, &mut engine).unwrap();
                    assert!(!engine.fired(), "{bench:?} {class}: {f:?}");
                }
            }
        }
    }

    #[test]
    fn detection_pass_stops_at_the_first_mismatch() {
        let gpu = GpuConfig::small();
        let dmr = DmrConfig::default();
        let (w, golden, faults) = draws(Benchmark::Scan, Protection::WarpedDmr, 4);
        for (_, f) in faults
            .iter()
            .filter(|(c, _)| *c == FaultSiteClass::LaneTransient)
        {
            let mut engine = detection_engine(Protection::WarpedDmr, &dmr, &gpu, f);
            let res = w.run_with(&gpu, &mut engine);
            match res {
                Err(SimError::Stopped { cycle }) => assert!(cycle <= golden.run.stats.cycles),
                other => panic!("SCAN detects every lane transient: {other:?}"),
            }
            assert!(engine.fired());
        }
    }

    #[test]
    fn wire_names_roundtrip() {
        for c in FaultSiteClass::ALL {
            assert_eq!(FaultSiteClass::from_wire(c.as_str()), Some(c));
            assert_eq!(format!("{c}"), c.as_str());
        }
        assert_eq!(FaultSiteClass::from_wire("cosmic_ray"), None);
        assert!(FaultSiteClass::ComparatorVerdict.is_checker_site());
        assert!(!FaultSiteClass::LaneTransient.is_checker_site());
    }

    #[test]
    fn zero_trials_is_an_empty_report() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let r = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            0,
            1,
            &tiny_opts(),
        )
        .unwrap();
        assert_eq!(r.result.trials, 0);
        assert_eq!(r.chunks, 0);
    }
}
