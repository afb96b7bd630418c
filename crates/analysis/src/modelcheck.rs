//! Bounded model checking of the Replay Checker (paper §4.3, Algorithm 1).
//!
//! A small-step abstract model of the checker — ReplayQ occupancy,
//! per-slot unverified destination registers, RAW obligations — is
//! explored exhaustively over every instruction-type × destination/source
//! register sequence up to a depth bound, and stepped *differentially*
//! against the real [`warped_core::checker::ReplayChecker`]: after every
//! transition the model's expected verification events, stall charge, and
//! resulting obligation state must agree with the implementation's, and
//! the combined state must satisfy the trace invariants I1–I5
//! (`docs/tracing.md`). Any disagreement is reported as a minimized
//! counterexample rendered as a failing kernel.
//!
//! States are memoized under a canonical key that renames warps and
//! registers in first-appearance order, collapsing symmetric states
//! (warp identity and register numbering never influence Algorithm 1's
//! decisions, only *equality* between them does). Issue timestamps are
//! likewise canonicalized away: the checker's transition relation does
//! not depend on absolute cycles, so two states differing only in
//! timestamps behave identically. Timestamp invariants (I2 strictly-after
//! issue, I3 per-SM monotonicity) are still checked on **every explored
//! transition** — edges into already-known states run the full
//! differential step; only re-expansion is skipped.
//!
//! Exploration is breadth-first with parent pointers, so the first
//! violation found on any path is already a shortest — i.e. minimized —
//! counterexample trace.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use warped_core::checker::{
    CheckerSnapshot, Incoming, ReplayChecker, SlotSnapshot, VerifyEvent, VerifyKind,
};
use warped_isa::{Reg, UnitType};
use warped_sim::WARP_SIZE;

/// Default exploration depth for `warped certify` (also used by the
/// suite tests); chosen so the default run visits well over 10^4
/// distinct canonical states across [`DEFAULT_CAPACITIES`] (measured:
/// ~16.5k states, ~1.3M transitions) while staying interactive.
pub const DEFAULT_DEPTH: usize = 7;

/// ReplayQ capacities explored by default. Zero capacity forces the
/// eager-stall path on every same-type pair; small capacities exercise
/// the full/enqueue boundary that a large queue never reaches.
pub const DEFAULT_CAPACITIES: [usize; 4] = [0, 1, 2, 3];

const UNITS: [UnitType; 3] = [UnitType::Sp, UnitType::Sfu, UnitType::LdSt];

/// Model-checker parameters.
#[derive(Debug, Clone)]
pub struct ModelCheckConfig {
    /// Maximum number of transitions along any explored path.
    pub depth: usize,
    /// ReplayQ capacities to explore (each gets its own state space).
    pub capacities: Vec<usize>,
    /// Safety valve: stop expanding once this many distinct states have
    /// been seen for one capacity (sets [`ModelCheckReport::truncated`]).
    pub max_states: usize,
}

impl Default for ModelCheckConfig {
    fn default() -> Self {
        ModelCheckConfig {
            depth: DEFAULT_DEPTH,
            capacities: DEFAULT_CAPACITIES.to_vec(),
            max_states: 2_000_000,
        }
    }
}

/// One step of a counterexample trace: what was fed to the checker.
#[derive(Debug, Clone)]
pub enum Step {
    /// An issued instruction (`unit`, warp, optional dst, optional first
    /// source, whether it enters inter-warp DMR).
    Issue {
        /// Unit type occupied by the instruction.
        unit: UnitType,
        /// Issuing warp uid.
        warp: u64,
        /// Destination register, if any.
        dst: Option<Reg>,
        /// First source register, if any (the RAW-relevant one).
        src: Option<Reg>,
        /// Whether the instruction enters inter-warp DMR.
        inter: bool,
    },
    /// An idle issue slot.
    Idle,
    /// Kernel end (drain).
    Done,
}

impl Step {
    fn render(&self, t: usize) -> String {
        match self {
            Step::Issue {
                unit,
                warp,
                dst,
                src,
                inter,
            } => {
                let mut s = format!("@{t:<3} issue {:<5} w{warp}", unit.to_string());
                if let Some(d) = dst {
                    s.push_str(&format!(" -> r{}", d.0));
                }
                if let Some(r) = src {
                    s.push_str(&format!(", reads r{}", r.0));
                }
                if *inter {
                    s.push_str("   ; inter");
                }
                s
            }
            Step::Idle => format!("@{t:<3} idle"),
            Step::Done => format!("@{t:<3} done"),
        }
    }
}

/// A minimized divergence or invariant violation: the shortest input
/// sequence reaching it plus a description of what went wrong.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// ReplayQ capacity of the run that failed.
    pub capacity: usize,
    /// Input sequence from the empty checker, in order.
    pub steps: Vec<Step>,
    /// What diverged or which invariant failed.
    pub description: String,
}

impl Counterexample {
    /// Render as a failing kernel: the issue sequence followed by the
    /// divergence, ready to paste into a bug report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "; counterexample — ReplayQ capacity {}, {} steps\n",
            self.capacity,
            self.steps.len()
        );
        for (t, step) in self.steps.iter().enumerate() {
            out.push_str(&step.render(t));
            out.push('\n');
        }
        out.push_str(&format!("FAIL: {}\n", self.description));
        out
    }
}

/// Per-capacity exploration counters.
#[derive(Debug, Clone, Copy)]
pub struct CapacityResult {
    /// The ReplayQ capacity explored.
    pub capacity: usize,
    /// Distinct canonical states reached.
    pub states: u64,
    /// Transitions stepped differentially (including edges into known
    /// states).
    pub transitions: u64,
}

/// Result of a [`model_check`] run.
#[derive(Debug, Clone)]
pub struct ModelCheckReport {
    /// Depth bound used.
    pub depth: usize,
    /// Counters per explored capacity.
    pub per_capacity: Vec<CapacityResult>,
    /// Violations found (empty on a healthy checker).
    pub violations: Vec<Counterexample>,
    /// True if `max_states` cut exploration short for some capacity.
    pub truncated: bool,
}

impl ModelCheckReport {
    /// Total distinct canonical states across all capacities.
    pub fn states(&self) -> u64 {
        self.per_capacity.iter().map(|c| c.states).sum()
    }

    /// Total transitions stepped differentially.
    pub fn transitions(&self) -> u64 {
        self.per_capacity.iter().map(|c| c.transitions).sum()
    }
}

// ---------------------------------------------------------------------
// The abstract model: Algorithm 1 over obligation slots.
// ---------------------------------------------------------------------

/// An issued instruction as the model sees it (concrete ids; the
/// canonicalization lives in the memo key, not the model).
#[derive(Debug, Clone)]
struct IssueSpec {
    unit: UnitType,
    warp: u64,
    dst: Option<Reg>,
    srcs: [Option<Reg>; 4],
    inter: bool,
    cycle: u64,
}

/// A verification the model expects: which obligation, how, when.
type ModelEvent = (SlotSnapshot, VerifyKind, u64);

fn take_oldest(
    q: &mut Vec<SlotSnapshot>,
    f: impl Fn(&SlotSnapshot) -> bool,
) -> Option<SlotSnapshot> {
    let i = (0..q.len()).find(|&i| f(&q[i]))?;
    Some(q.remove(i))
}

/// Timestamp rule: the redundant execution lands strictly after the
/// obligation's own issue (dual-issue can resolve the RF slot within the
/// issue cycle itself).
fn emit(ev: &mut Vec<ModelEvent>, slot: SlotSnapshot, kind: VerifyKind, cycle: u64) {
    ev.push((slot, kind, cycle.max(slot.cycle + 1)));
}

/// Algorithm 1, one issue slot. Returns the expected verification events
/// (in order) and the stall cycles charged.
fn model_issue(s: &mut CheckerSnapshot, capacity: usize, b: &IssueSpec) -> (Vec<ModelEvent>, u64) {
    let mut ev = Vec::new();
    let mut stalls = 0u64;
    let raw = |e: &SlotSnapshot| {
        e.warp_uid == b.warp
            && e.dst
                .is_some_and(|d| b.srcs.iter().flatten().any(|s| *s == d))
    };

    // RAW rule: every unverified producer of one of b's sources verifies
    // first, one stall cycle each — buffered entries and the RF slot are
    // equally unverified.
    while let Some(e) = take_oldest(&mut s.queue, raw) {
        stalls += 1;
        emit(&mut ev, e, VerifyKind::RawStall, b.cycle + stalls);
    }
    if s.prev.as_ref().is_some_and(raw) {
        let p = s.prev.take().expect("checked above");
        stalls += 1;
        emit(&mut ev, p, VerifyKind::RawStall, b.cycle + stalls);
    }

    if let Some(a) = s.prev.take() {
        if a.unit != b.unit {
            // Case 1: A's DMR copy co-executes on its idle unit.
            emit(&mut ev, a, VerifyKind::CoExecute, b.cycle + stalls);
        } else if let Some(q) = take_oldest(&mut s.queue, |e| e.unit != a.unit) {
            // Case 2: a buffered different-type entry verifies; A takes
            // its place.
            emit(&mut ev, q, VerifyKind::QueueCoExecute, b.cycle + stalls);
            s.queue.push(a);
        } else if s.queue.len() >= capacity {
            // Case 3: queue full — stall once, re-execute eagerly.
            stalls += 1;
            emit(&mut ev, a, VerifyKind::EagerStall, b.cycle + stalls);
        } else {
            // Case 4: buffer.
            s.queue.push(a);
        }
    } else if let Some(q) = take_oldest(&mut s.queue, |e| e.unit != b.unit) {
        // Spare slot on a different unit: drain one compatible entry.
        emit(&mut ev, q, VerifyKind::Drain, b.cycle + stalls);
    }

    if b.inter {
        s.prev = Some(SlotSnapshot {
            warp_uid: b.warp,
            unit: b.unit,
            dst: b.dst,
            cycle: b.cycle,
        });
    }
    (ev, stalls)
}

/// Algorithm 1, idle slot: the RF obligation (or one buffered entry)
/// verifies for free.
fn model_idle(s: &mut CheckerSnapshot, cycle: u64) -> Vec<ModelEvent> {
    let mut ev = Vec::new();
    if let Some(a) = s.prev.take() {
        emit(&mut ev, a, VerifyKind::IdleSlot, cycle);
    } else if !s.queue.is_empty() {
        let q = s.queue.remove(0);
        emit(&mut ev, q, VerifyKind::Drain, cycle);
    }
    ev
}

/// Algorithm 1, kernel end: RF obligation verifies free, the queue
/// drains one entry per cycle. Returns the drain cycles charged.
fn model_done(s: &mut CheckerSnapshot, cycle: u64) -> (Vec<ModelEvent>, u64) {
    let mut ev = Vec::new();
    if let Some(a) = s.prev.take() {
        emit(&mut ev, a, VerifyKind::IdleSlot, cycle);
    }
    let mut extra = 0;
    while !s.queue.is_empty() {
        let q = s.queue.remove(0);
        extra += 1;
        emit(&mut ev, q, VerifyKind::Drain, cycle + extra);
    }
    (ev, extra)
}

// ---------------------------------------------------------------------
// Canonicalization.
// ---------------------------------------------------------------------

/// Canonical memo key: warps and registers renamed in first-appearance
/// order (RF slot first, then the queue oldest-first), issue timestamps
/// dropped. Two states with the same key are indistinguishable to
/// Algorithm 1's transition relation.
fn canonical_key(s: &CheckerSnapshot) -> Vec<u8> {
    let mut warps: HashMap<u64, u8> = HashMap::new();
    let mut regs: HashMap<u16, u8> = HashMap::new();
    let mut key = Vec::with_capacity(2 + 3 * (1 + s.queue.len()));
    key.push(s.prev.is_some() as u8);
    for slot in s.prev.iter().chain(s.queue.iter()) {
        let nw = warps.len() as u8;
        key.push(*warps.entry(slot.warp_uid).or_insert(nw));
        key.push(slot.unit as u8);
        match slot.dst {
            None => key.push(0),
            Some(r) => {
                let nr = regs.len() as u8;
                key.push(1 + *regs.entry(r.0).or_insert(nr));
            }
        }
    }
    key
}

// ---------------------------------------------------------------------
// Differential exploration.
// ---------------------------------------------------------------------

struct Node {
    checker: ReplayChecker,
    cycle: u64,
    last_verify: u64,
    next_warp: u64,
    next_reg: u16,
    depth: usize,
    parent: Option<(usize, Step)>,
}

fn fmt_slot(s: &SlotSnapshot) -> String {
    match s.dst {
        Some(d) => format!("w{} {} r{} @{}", s.warp_uid, s.unit, d.0, s.cycle),
        None => format!("w{} {} - @{}", s.warp_uid, s.unit, s.cycle),
    }
}

fn fmt_state(s: &CheckerSnapshot) -> String {
    let prev = match &s.prev {
        Some(p) => fmt_slot(p),
        None => "-".into(),
    };
    let q: Vec<String> = s.queue.iter().map(fmt_slot).collect();
    format!("prev[{prev}] queue[{}]", q.join(", "))
}

/// Compare one differential step: model events/charge/state vs the
/// implementation's, plus the I1–I5 obligations. Returns the first
/// discrepancy as a description.
#[allow(clippy::too_many_arguments)]
fn check_step(
    pre: &CheckerSnapshot,
    post_model: &CheckerSnapshot,
    post_real: &CheckerSnapshot,
    model_ev: &[ModelEvent],
    real_ev: &[VerifyEvent],
    model_charge: u64,
    real_charge: u64,
    capacity: usize,
    issued: Option<&IssueSpec>,
    last_verify: u64,
) -> Option<String> {
    if model_charge != real_charge {
        return Some(format!(
            "model charges {model_charge} stall/drain cycles, implementation charged {real_charge}"
        ));
    }
    if model_ev.len() != real_ev.len() {
        return Some(format!(
            "model expects {} verification(s), implementation produced {}",
            model_ev.len(),
            real_ev.len()
        ));
    }
    for (i, ((slot, kind, cycle), real)) in model_ev.iter().zip(real_ev).enumerate() {
        let rslot = SlotSnapshot {
            warp_uid: real.entry.warp_uid,
            unit: real.entry.unit,
            dst: real.entry.dst,
            cycle: real.entry.cycle,
        };
        if rslot != *slot || real.kind != *kind || real.cycle != *cycle {
            return Some(format!(
                "verification {i}: model expects [{} {kind:?} @{cycle}], implementation produced [{} {:?} @{}]",
                fmt_slot(slot),
                fmt_slot(&rslot),
                real.kind,
                real.cycle
            ));
        }
    }
    if post_model != post_real {
        return Some(format!(
            "state divergence: model {} vs implementation {}",
            fmt_state(post_model),
            fmt_state(post_real)
        ));
    }
    // I4: bounded occupancy.
    if post_real.queue.len() > capacity {
        return Some(format!(
            "I4 violated: queue occupancy {} exceeds capacity {capacity}",
            post_real.queue.len()
        ));
    }
    // I1: exactly-once — obligations are conserved: everything that
    // entered either verified exactly once or is still pending.
    let mut pool: Vec<SlotSnapshot> = pre.prev.iter().chain(pre.queue.iter()).copied().collect();
    if let Some(b) = issued {
        if b.inter {
            pool.push(SlotSnapshot {
                warp_uid: b.warp,
                unit: b.unit,
                dst: b.dst,
                cycle: b.cycle,
            });
        }
    }
    for (slot, _, _) in model_ev {
        match pool.iter().position(|p| p == slot) {
            Some(i) => {
                pool.remove(i);
            }
            None => {
                return Some(format!(
                    "I1 violated: [{}] verified but was never an obligation",
                    fmt_slot(slot)
                ));
            }
        }
    }
    for slot in post_real.prev.iter().chain(post_real.queue.iter()) {
        match pool.iter().position(|p| p == slot) {
            Some(i) => {
                pool.remove(i);
            }
            None => {
                return Some(format!(
                    "I1 violated: pending [{}] appeared from nowhere",
                    fmt_slot(slot)
                ));
            }
        }
    }
    if !pool.is_empty() {
        return Some(format!(
            "I1 violated: obligation [{}] vanished without a verification",
            fmt_slot(&pool[0])
        ));
    }
    // I2/I3: verifications land strictly after their issue and the
    // per-SM verify stream is monotone.
    let mut last = last_verify;
    for (slot, _, cycle) in model_ev {
        if *cycle <= slot.cycle {
            return Some(format!(
                "I2 violated: [{}] verified at {cycle}, not after its issue",
                fmt_slot(slot)
            ));
        }
        if *cycle < last {
            return Some(format!(
                "I3 violated: verify stream goes back in time ({cycle} after {last})"
            ));
        }
        last = *cycle;
    }
    // I5: after an issue, no unverified *producer* of b's sources
    // remains — b itself (now the RF obligation) is not its own
    // producer even when it rewrites one of its sources.
    if let Some(b) = issued {
        let b_slot = SlotSnapshot {
            warp_uid: b.warp,
            unit: b.unit,
            dst: b.dst,
            cycle: b.cycle,
        };
        let pending_raw = post_real
            .prev
            .iter()
            .chain(post_real.queue.iter())
            .filter(|e| **e != b_slot)
            .any(|e| {
                e.warp_uid == b.warp
                    && e.dst
                        .is_some_and(|d| b.srcs.iter().flatten().any(|s| *s == d))
            });
        if pending_raw {
            return Some(format!(
                "I5 violated: RAW obligation on w{} survives the consumer's issue",
                b.warp
            ));
        }
    }
    None
}

fn incoming_of(b: &IssueSpec) -> Incoming {
    Incoming {
        warp_uid: b.warp,
        unit: b.unit,
        dst: b.dst,
        srcs: b.srcs,
        cycle: b.cycle,
        needs_inter: b.inter,
        mask: u32::MAX,
        results: [0; WARP_SIZE],
    }
}

/// Enumerate the issue actions worth exploring from `snap`: every unit
/// type, each distinct pending warp (capped) plus a fresh one, dst
/// choices covering fresh/pending/none, and source choices covering the
/// same-warp RAW hit, the cross-warp non-hit, and an unknown register.
fn issue_actions(snap: &CheckerSnapshot, next_warp: u64, next_reg: u16) -> Vec<IssueSpec> {
    let slots: Vec<&SlotSnapshot> = snap.prev.iter().chain(snap.queue.iter()).collect();
    let mut warps: Vec<u64> = Vec::new();
    for s in &slots {
        if !warps.contains(&s.warp_uid) {
            warps.push(s.warp_uid);
        }
    }
    warps.truncate(2);
    warps.push(next_warp);

    let mut actions = Vec::new();
    for &unit in &UNITS {
        for &warp in &warps {
            let same = slots
                .iter()
                .find(|s| s.warp_uid == warp && s.dst.is_some())
                .and_then(|s| s.dst);
            let other = slots
                .iter()
                .find(|s| s.warp_uid != warp && s.dst.is_some())
                .and_then(|s| s.dst);
            let mut dsts: Vec<Option<Reg>> = vec![None, Some(Reg(next_reg))];
            if let Some(d) = same {
                dsts.push(Some(d));
            }
            let mut srcs: Vec<Option<Reg>> = vec![None, Some(Reg(next_reg + 1))];
            if let Some(r) = same {
                srcs.push(Some(r));
            }
            if let Some(r) = other {
                if Some(r) != same {
                    srcs.push(Some(r));
                }
            }
            for &dst in &dsts {
                for &src in &srcs {
                    for inter in [false, true] {
                        actions.push(IssueSpec {
                            unit,
                            warp,
                            dst,
                            srcs: [src, None, None, None],
                            inter,
                            cycle: 0, // filled in at the node
                        });
                    }
                }
            }
        }
    }
    actions
}

fn trace_of(nodes: &[Node], mut idx: usize, last: Step) -> Vec<Step> {
    let mut steps = vec![last];
    while let Some((p, step)) = &nodes[idx].parent {
        steps.push(step.clone());
        idx = *p;
    }
    steps.reverse();
    steps
}

/// Explore every checker behaviour up to `config.depth` transitions for
/// each capacity, differentially stepping model and implementation.
pub fn model_check(config: &ModelCheckConfig) -> ModelCheckReport {
    let mut report = ModelCheckReport {
        depth: config.depth,
        per_capacity: Vec::new(),
        violations: Vec::new(),
        truncated: false,
    };
    for &capacity in &config.capacities {
        let res = explore_capacity(capacity, config, &mut report.violations);
        report.truncated |= res.1;
        report.per_capacity.push(res.0);
    }
    report
}

fn explore_capacity(
    capacity: usize,
    config: &ModelCheckConfig,
    violations: &mut Vec<Counterexample>,
) -> (CapacityResult, bool) {
    let mut nodes: Vec<Node> = Vec::new();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut frontier: VecDeque<usize> = VecDeque::new();
    let mut transitions = 0u64;
    let mut truncated = false;

    let root = ReplayChecker::new(capacity);
    seen.insert(canonical_key(&root.snapshot()));
    nodes.push(Node {
        checker: root,
        cycle: 0,
        last_verify: 0,
        next_warp: 0,
        next_reg: 0,
        depth: 0,
        parent: None,
    });
    frontier.push_back(0);

    while let Some(idx) = frontier.pop_front() {
        if nodes[idx].depth >= config.depth {
            continue;
        }
        let snap = nodes[idx].checker.snapshot();
        let cycle = nodes[idx].cycle;
        let (next_warp, next_reg) = (nodes[idx].next_warp, nodes[idx].next_reg);
        let last_verify = nodes[idx].last_verify;

        let mut steps: Vec<(Step, Option<IssueSpec>)> =
            vec![(Step::Idle, None), (Step::Done, None)];
        for mut b in issue_actions(&snap, next_warp, next_reg) {
            b.cycle = cycle;
            let step = Step::Issue {
                unit: b.unit,
                warp: b.warp,
                dst: b.dst,
                src: b.srcs[0],
                inter: b.inter,
            };
            steps.push((step, Some(b)));
        }

        for (step, issue) in steps {
            transitions += 1;
            let mut checker = nodes[idx].checker.clone();
            let mut model = snap.clone();
            let mut real_ev = Vec::new();

            let stepped = catch_unwind(AssertUnwindSafe(|| match &issue {
                Some(b) => {
                    let real_charge = checker.on_issue(&incoming_of(b), &mut real_ev);
                    let (model_ev, model_charge) = model_issue(&mut model, capacity, b);
                    (model_ev, model_charge, real_charge)
                }
                None => match &step {
                    Step::Idle => {
                        checker.on_idle(cycle, &mut real_ev);
                        (model_idle(&mut model, cycle), 0, 0)
                    }
                    _ => {
                        let real_charge = checker.on_done(cycle, &mut real_ev);
                        let (model_ev, model_charge) = model_done(&mut model, cycle);
                        (model_ev, model_charge, real_charge)
                    }
                },
            }));

            let (charge, failure) = match stepped {
                Err(_) => (0, Some("implementation panicked".to_string())),
                Ok((model_ev, model_charge, real_charge)) => (
                    real_charge,
                    check_step(
                        &snap,
                        &model,
                        &checker.snapshot(),
                        &model_ev,
                        &real_ev,
                        model_charge,
                        real_charge,
                        capacity,
                        issue.as_ref(),
                        last_verify,
                    ),
                ),
            };
            if let Some(description) = failure {
                violations.push(Counterexample {
                    capacity,
                    steps: trace_of(&nodes, idx, step.clone()),
                    description,
                });
                continue;
            }

            if seen.len() >= config.max_states {
                truncated = true;
                continue;
            }
            let key = canonical_key(&checker.snapshot());
            if seen.contains(&key) {
                continue;
            }
            seen.insert(key);
            let max_verify = real_ev.iter().map(|e| e.cycle).max().unwrap_or(0);
            nodes.push(Node {
                checker,
                cycle: cycle + 1 + charge,
                last_verify: last_verify.max(max_verify),
                next_warp: next_warp + 1,
                next_reg: next_reg + 2,
                depth: nodes[idx].depth + 1,
                parent: Some((idx, step)),
            });
            frontier.push_back(nodes.len() - 1);
        }
    }

    (
        CapacityResult {
            capacity,
            states: seen.len() as u64,
            transitions,
        },
        truncated,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_key_collapses_symmetric_states() {
        let slot = |w, r| SlotSnapshot {
            warp_uid: w,
            unit: UnitType::Sp,
            dst: Some(Reg(r)),
            cycle: 0,
        };
        let a = CheckerSnapshot {
            prev: Some(slot(3, 7)),
            queue: vec![slot(9, 2)],
        };
        let b = CheckerSnapshot {
            prev: Some(slot(0, 0)),
            queue: vec![slot(1, 1)],
        };
        assert_eq!(canonical_key(&a), canonical_key(&b));
        // ...but not states that differ in warp *equality*.
        let c = CheckerSnapshot {
            prev: Some(slot(3, 7)),
            queue: vec![slot(3, 2)],
        };
        assert_ne!(canonical_key(&a), canonical_key(&c));
    }

    #[test]
    fn shallow_exploration_is_clean_and_nontrivial() {
        let cfg = ModelCheckConfig {
            depth: 3,
            capacities: vec![0, 2],
            max_states: 100_000,
        };
        let report = model_check(&cfg);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.states() > 100, "only {} states", report.states());
        assert!(!report.truncated);
    }

    #[test]
    fn counterexample_renders_as_kernel() {
        let cex = Counterexample {
            capacity: 2,
            steps: vec![
                Step::Issue {
                    unit: UnitType::Sp,
                    warp: 0,
                    dst: Some(Reg(0)),
                    src: None,
                    inter: true,
                },
                Step::Idle,
            ],
            description: "demo".into(),
        };
        let text = cex.render();
        assert!(text.contains("issue SP"));
        assert!(text.contains("-> r0"));
        assert!(text.contains("idle"));
        assert!(text.contains("FAIL: demo"));
    }
}
