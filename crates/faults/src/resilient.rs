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
//! * **Watchdogs** — injected runs execute under a cycle budget
//!   (default: 8× the golden run plus slack) and an optional wall-clock
//!   budget, so a fault that wedges the simulated machine classifies as
//!   [`TrialOutcome::Hang`] instead of wedging the campaign.
//! * **Crash-safe checkpointing** — with a [`Journal`] attached, every
//!   finished chunk is durably recorded; resuming replays finished
//!   chunks from disk and produces **bit-identical** results to an
//!   uninterrupted campaign, at any worker count.
//!
//! ## Two simulations per trial
//!
//! Detection and architectural outcome are measured at different
//! levels, so each trial runs twice from the same drawn fault:
//!
//! 1. a **detection run** — clean datapath, the protection engine
//!    carries the fault as a [`FaultOracle`](warped_core::FaultOracle)
//!    (this is where checker-internal faults act). Warped-DMR sees the
//!    [`CompoundFault`] on the mapped physical lane; DMTR has no lane
//!    mapping, so it sees the datapath fault on the thread's own lane;
//! 2. an **architectural run** — the same datapath fault attached to
//!    the simulator itself ([`warped_sim::LaneFault`]), corrupting real
//!    values; its final output is compared against golden. A
//!    detection-only campaign skips this run.
//!
//! Both runs keep the protection engine attached as an observer so
//! their issue schedules match the golden profile (protection stalls
//! shift cycles; a transient sampled at cycle *c* must strike cycle *c*).

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
use warped_core::{DmrConfig, LaneSite, WarpedDmr};
use warped_kernels::{ProgramRun, Workload};
use warped_runner::{Attempted, RetryPolicy, Runner};
use warped_sim::{GpuConfig, IssueObserver, LaneFault, MultiObserver, SimError, WARP_SIZE};
use warped_trace::{TraceEvent, TraceHandle};

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

    /// Wire name (CLI `--site`, journal header, trace events).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSiteClass::LaneTransient => "lane_transient",
            FaultSiteClass::LaneStuckAt => "lane_stuck",
            FaultSiteClass::ComparatorVerdict => "comparator",
            FaultSiteClass::RfuMuxSelect => "rfu_mux",
            FaultSiteClass::ReplayqMeta => "replayq_meta",
            FaultSiteClass::RfSlot => "rf_slot",
        }
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
    /// Wall-clock budget per injected launch in milliseconds; `0`
    /// disables it. See `GpuConfig::wall_budget_ms` for the
    /// determinism caveat (the *hang cycle* becomes timing-dependent;
    /// the hang classification itself remains correct).
    pub wall_budget_ms: u64,
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
            wall_budget_ms: 0,
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
            .field("wall_budget_ms", &self.wall_budget_ms)
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
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"bench\":\"{}\",\"class\":\"{}\",\"seed\":{},\"chunk_trials\":{},\"chunks\":{},\
             \"planned\":{},\"completed\":{},\"skipped\":{}",
            self.bench,
            self.class.as_str(),
            self.seed,
            self.chunk_trials,
            self.chunks,
            r.planned,
            r.trials,
            r.skipped,
        ));
        for class in TrialOutcome::ALL {
            let (lo, hi) = r.interval_pct(class);
            s.push_str(&format!(
                ",\"{}\":{{\"count\":{},\"pct\":{:.4},\"ci_lo_pct\":{:.4},\"ci_hi_pct\":{:.4}}}",
                class.as_str(),
                r.count(class),
                r.rate_pct(class),
                lo,
                hi,
            ));
        }
        s.push_str(",\"failed_chunks\":[");
        for (i, c) in self.failed_chunks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&c.to_string());
        }
        s.push_str("]}");
        s
    }
}

/// One drawn trial: the engine-level oracle, the sim-level datapath
/// fault, and the metadata the trace events report.
#[derive(Debug, Clone, Copy)]
struct DrawnFault {
    /// What the DMR engine models (datapath + checker halves), on the
    /// mapped physical lane.
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

/// Draw one fault. The draw order — sample, thread, bit, then
/// class-specific extras — is part of the seeding contract the
/// determinism tests pin down.
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
    // The engine models the original execution on the mapped physical
    // lane; the simulator computes thread results by logical index.
    let detect_site = LaneSite {
        sm: ev.sm,
        lane: physical,
    };
    let arch_site = LaneSite {
        sm: ev.sm,
        lane: thread,
    };
    let transient = |site| FaultModel::TransientFlip {
        site,
        cycle: ev.cycle,
        bit,
    };
    let (detect, arch, strike) = match class {
        FaultSiteClass::LaneTransient => (
            CompoundFault::lane_only(transient(detect_site)),
            transient(arch_site),
            ev.cycle,
        ),
        FaultSiteClass::LaneStuckAt => {
            let value = rng.random_bool(0.5);
            (
                CompoundFault::lane_only(FaultModel::StuckAt {
                    site: detect_site,
                    bit,
                    value,
                }),
                FaultModel::StuckAt {
                    site: arch_site,
                    bit,
                    value,
                },
                0,
            )
        }
        FaultSiteClass::ComparatorVerdict => (
            CompoundFault::with_checker(
                transient(detect_site),
                CheckerFault::ComparatorStuckPass { sm: ev.sm },
            ),
            transient(arch_site),
            ev.cycle,
        ),
        FaultSiteClass::RfuMuxSelect => (
            CompoundFault::with_checker(
                transient(detect_site),
                CheckerFault::RfuMuxSelect {
                    sm: ev.sm,
                    cluster: physical / dmr.cluster_size.max(1),
                    cluster_size: dmr.cluster_size.max(1),
                },
            ),
            transient(arch_site),
            ev.cycle,
        ),
        FaultSiteClass::ReplayqMeta => (
            CompoundFault::with_checker(
                transient(detect_site),
                CheckerFault::ReplayqMaskDrop {
                    sm: ev.sm,
                    bit: thread as u8,
                },
            ),
            transient(arch_site),
            ev.cycle,
        ),
        FaultSiteClass::RfSlot => {
            let stored_bit = random_bit(rng);
            (
                CompoundFault::with_checker(
                    transient(detect_site),
                    CheckerFault::StoredResultFlip {
                        sm: ev.sm,
                        bit: stored_bit,
                    },
                ),
                transient(arch_site),
                ev.cycle,
            )
        }
    };
    DrawnFault {
        detect,
        arch,
        sm: ev.sm,
        physical,
        strike,
    }
}

/// The sim-level datapath fault of one trial: [`FaultModel::transform`]
/// applied at every unit-output point, with the site's lane read as the
/// *logical* lane index the simulator computes with.
#[derive(Debug, Clone, Copy)]
struct ArchFault(FaultModel);

impl LaneFault for ArchFault {
    fn corrupt(&self, sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
        use warped_core::FaultOracle;
        self.0.transform(LaneSite { sm, lane }, cycle, value)
    }
}

/// The protection engine of one run. Every pass of a campaign (profile,
/// detection, architectural) builds its engine here, so all of them
/// follow the same issue schedule.
enum Engine {
    WarpedDmr(Box<WarpedDmr>),
    Dmtr(Dmtr),
}

impl Engine {
    /// An engine for `protection`, carrying `fault` as its oracle when
    /// given: Warped-DMR sees the drawn fault on the mapped physical
    /// lane (`detect`), DMTR on the thread's own lane (`arch`).
    fn new(
        protection: Protection,
        dmr: &DmrConfig,
        gpu: &GpuConfig,
        fault: Option<&DrawnFault>,
    ) -> Engine {
        match (protection, fault) {
            (Protection::WarpedDmr, None) => {
                Engine::WarpedDmr(Box::new(WarpedDmr::new(dmr.clone(), gpu)))
            }
            (Protection::WarpedDmr, Some(f)) => Engine::WarpedDmr(Box::new(
                WarpedDmr::with_oracle(dmr.clone(), gpu, Box::new(f.detect)),
            )),
            (Protection::Dmtr, None) => Engine::Dmtr(Dmtr::new()),
            (Protection::Dmtr, Some(f)) => Engine::Dmtr(Dmtr::with_oracle(Box::new(f.arch))),
        }
    }

    fn observer(&mut self) -> &mut dyn IssueObserver {
        match self {
            Engine::WarpedDmr(e) => e.as_mut(),
            Engine::Dmtr(e) => e,
        }
    }

    /// Whether the comparator fired.
    fn fired(&self) -> bool {
        match self {
            Engine::WarpedDmr(e) => e.errors().any(),
            Engine::Dmtr(e) => e.errors().any(),
        }
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
    multi.push(engine.observer()).push(&mut sampler);
    let run = workload.run_with(gpu, &mut multi)?;
    Ok((run, sampler))
}

/// Run one trial's simulations and classify the outcome; `None` when a
/// detection-only trial's comparator stayed silent (unclassified).
///
/// Detection wins: a trial where the checker fired is `Detected` even
/// if the corrupted run subsequently hung or produced wrong output — a
/// real deployment triggers recovery at the detection point.
fn run_trial(
    workload: &Workload,
    clean_gpu: &GpuConfig,
    budgeted_gpu: &GpuConfig,
    dmr: &DmrConfig,
    opts: &ResilientOptions,
    fault: &DrawnFault,
    golden: &ProgramRun,
) -> Result<Option<TrialOutcome>, SimError> {
    // 1. Detection run: clean datapath, faulty oracle. The sim is
    //    bit-identical to golden, so it runs unbudgeted (it cannot
    //    hang) and any SimError here is a genuine bug to surface.
    let mut engine = Engine::new(opts.protection, dmr, clean_gpu, Some(fault));
    workload.run_with(clean_gpu, engine.observer())?;
    let detected = engine.fired();
    if opts.detect_only {
        return Ok(detected.then_some(TrialOutcome::Detected));
    }

    // 2. Architectural run: real corruption, budgets armed. The
    //    protection engine rides along (without an oracle) purely so the
    //    issue schedule matches the profile run's cycle numbering.
    let mut observer = Engine::new(opts.protection, dmr, budgeted_gpu, None);
    let arch = workload.run_faulted(
        budgeted_gpu,
        observer.observer(),
        Arc::new(ArchFault(fault.arch)),
    );
    Ok(Some(match arch {
        Err(SimError::Hang { .. }) => {
            if detected {
                TrialOutcome::Detected
            } else {
                TrialOutcome::Hang
            }
        }
        // Any other trap (deadlock, bad access from a corrupted
        // address…) is an observable failure: a detected,
        // unrecoverable error rather than silent corruption.
        Err(_) => TrialOutcome::Detected,
        Ok(run) => {
            if detected {
                TrialOutcome::Detected
            } else if run.output != golden.output {
                TrialOutcome::Sdc
            } else {
                TrialOutcome::Masked
            }
        }
    }))
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
/// Never panics itself; panics *inside* trial chunks (including the
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
    let (golden, sampler) = golden_profile(
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

    let budget = if opts.cycle_budget != 0 {
        opts.cycle_budget
    } else {
        golden.stats.cycles.saturating_mul(8).saturating_add(10_000)
    };
    let budgeted_gpu = gpu
        .clone()
        .with_cycle_budget(budget)
        .with_wall_budget_ms(opts.wall_budget_ms);

    let chunks = trials.div_ceil(chunk);
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
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(c));
            let mut counts = ChunkCounts::default();
            let lo = c * chunk;
            for t in 0..chunk.min(trials - lo) {
                let trial = lo + t;
                let fault = draw_fault(class, samples, dmr, &mut rng);
                opts.trace.emit(|| TraceEvent::FaultInjected {
                    sm: fault.sm as u32,
                    trial,
                    kind: class.as_str().to_string(),
                    lane: if class.is_checker_site() {
                        u32::MAX
                    } else {
                        fault.physical as u32
                    },
                    cycle: fault.strike,
                });
                let outcome = run_trial(workload, gpu, &budgeted_gpu, dmr, opts, &fault, &golden)
                    .unwrap_or_else(|e| panic!("trial {trial} detection run failed: {e}"));
                if let Some(outcome) = outcome {
                    opts.trace.emit(|| TraceEvent::TrialOutcome {
                        trial,
                        outcome: outcome.as_str().to_string(),
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
                skipped += chunk.min(trials - c * chunk);
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
                TraceEvent::TrialOutcome { trial, outcome } => Some((*trial, outcome.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(faults.len(), 4);
        assert_eq!(outcomes.len(), 4);
        for f in &faults {
            if let TraceEvent::FaultInjected { kind, lane, .. } = f {
                assert_eq!(kind, "rf_slot");
                assert_eq!(*lane, u32::MAX, "checker sites have no lane");
            }
        }
        for o in TrialOutcome::ALL {
            let n = outcomes.iter().filter(|(_, s)| s == o.as_str()).count() as u32;
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
