//! Differential test of the online invariant checker.
//!
//! `warped::trace::InvariantSink` keeps dense per-SM, per-warp state.
//! The module [`oracle`] below is the hash-map checker it replaced,
//! unchanged apart from its imports. Both must agree on every stream:
//! the same `total_violations()`, the same `violations()` (rule, message
//! and order) and the same `events_seen()`, checked after every event.
//!
//! Streams come from three sources: well-formed streams from a small
//! model of the Replay Checker, the same streams with random mutations
//! (dropped, duplicated, swapped or rewritten events), and events drawn
//! at random from small domains so that keys collide. The live stream of
//! every suite kernel at Tiny scale is compared too.

use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use warped::dmr::{DmrConfig, WarpedDmr};
use warped::experiments::ExperimentConfig;
use warped::isa::{Reg, UnitType};
use warped::kernels::Benchmark;
use warped::trace::{Fanout, InvariantSink, TraceEvent, TraceHandle, TraceSink, VerifyKind};

/// The invariant checker as it was before the dense rewrite.
#[allow(dead_code)]
mod oracle {
    use std::collections::HashMap;
    use warped::trace::TraceSink;
    use warped::trace::{TraceEvent, VerifyKind};

    /// How many violations are stored verbatim; the rest are only counted.
    const MAX_STORED: usize = 64;

    /// One invariant violation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Violation {
        /// Which invariant broke ("I1".."I5").
        pub rule: &'static str,
        /// Human-readable description with event context.
        pub message: String,
    }

    impl std::fmt::Display for Violation {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "[{}] {}", self.rule, self.message)
        }
    }

    #[derive(Debug, Default)]
    struct SmState {
        /// Issued inter-warp-eligible instructions awaiting verification,
        /// keyed (warp, issue cycle).
        pending: HashMap<(u64, u64), ()>,
        /// Instructions already verified once (double-verify detection).
        verified: HashMap<(u64, u64), ()>,
        /// Unverified register writes: (warp, reg) → issue cycles.
        writes: HashMap<(u64, u16), Vec<u64>>,
        /// RAW obligations open in the current issue slot:
        /// (warp, reg, producer issue cycle).
        obligations: Vec<(u64, u16, u64)>,
        /// Last verify timestamp seen on this SM (I3).
        last_verify: Option<u64>,
    }

    /// A [`TraceSink`] that checks Algorithm-1 invariants online.
    #[derive(Debug, Default)]
    pub struct InvariantSink {
        sms: HashMap<u32, SmState>,
        stored: Vec<Violation>,
        total: u64,
        events: u64,
        finished: bool,
    }

    impl InvariantSink {
        /// Create a checker with no state.
        pub fn new() -> Self {
            InvariantSink::default()
        }

        /// Whether no invariant was violated so far.
        pub fn ok(&self) -> bool {
            self.total == 0
        }

        /// Total violations (including ones beyond the storage cap).
        pub fn total_violations(&self) -> u64 {
            self.total
        }

        /// The first [`MAX_STORED`] violations, in detection order.
        pub fn violations(&self) -> &[Violation] {
            &self.stored
        }

        /// Events consumed.
        pub fn events_seen(&self) -> u64 {
            self.events
        }

        fn violate(&mut self, rule: &'static str, message: String) {
            self.total += 1;
            if self.stored.len() < MAX_STORED {
                self.stored.push(Violation { rule, message });
            }
        }

        /// An issue slot boundary was reached on `sm`: any RAW obligation
        /// still open means a consumer got past an unverified producer.
        fn close_slot(&mut self, sm: u32, cycle: u64) {
            let open = match self.sms.get_mut(&sm) {
                Some(st) if !st.obligations.is_empty() => std::mem::take(&mut st.obligations),
                _ => return,
            };
            for (warp, reg, issued) in open {
                self.violate(
                    "I5",
                    format!(
                        "sm {sm} cycle {cycle}: consumer proceeded while producer \
                         (warp {warp}, r{reg}, issued @{issued}) was still unverified"
                    ),
                );
            }
        }

        /// End-of-stream / end-of-launch: everything must have verified.
        fn close_launch(&mut self) {
            let mut leaks: Vec<(u32, u64, u64)> = Vec::new();
            for (sm, st) in &mut self.sms {
                for (warp, cycle) in st.pending.keys() {
                    leaks.push((*sm, *warp, *cycle));
                }
                st.pending.clear();
                st.verified.clear();
                st.writes.clear();
                st.obligations.clear();
                st.last_verify = None;
            }
            leaks.sort_unstable();
            for (sm, warp, cycle) in leaks {
                self.violate(
                    "I1",
                    format!(
                        "sm {sm}: instruction (warp {warp}, issued @{cycle}) was never verified"
                    ),
                );
            }
        }
    }

    impl TraceSink for InvariantSink {
        fn event(&mut self, ev: &TraceEvent) {
            self.events += 1;
            match ev {
                TraceEvent::LaunchBegin { .. } => self.close_launch(),
                TraceEvent::Issue {
                    sm,
                    cycle,
                    warp,
                    full,
                    has_result,
                    dst,
                    srcs,
                    ..
                } => {
                    self.close_slot(*sm, *cycle);
                    let st = self.sms.entry(*sm).or_default();
                    // Open RAW obligations for every unverified same-warp
                    // write feeding this instruction (deduped sources: one
                    // register read twice is one hazard).
                    let mut seen: Vec<u16> = Vec::new();
                    for s in srcs.iter().flatten() {
                        if seen.contains(&s.0) {
                            continue;
                        }
                        seen.push(s.0);
                        if let Some(cycles) = st.writes.get(&(*warp, s.0)) {
                            for c in cycles {
                                st.obligations.push((*warp, s.0, *c));
                            }
                        }
                    }
                    // Register the instruction itself (after the hazard scan:
                    // an instruction is never its own producer).
                    if *full && *has_result {
                        st.pending.insert((*warp, *cycle), ());
                        if let Some(r) = dst {
                            st.writes.entry((*warp, r.0)).or_default().push(*cycle);
                        }
                    }
                }
                TraceEvent::IntraPair { .. }
                | TraceEvent::Stall { .. }
                | TraceEvent::Error { .. }
                | TraceEvent::FaultInjected { .. }
                | TraceEvent::TrialOutcome { .. } => {}
                TraceEvent::Enqueue {
                    sm,
                    cycle,
                    depth,
                    capacity,
                    ..
                } => {
                    if depth > capacity {
                        self.violate(
                            "I4",
                            format!(
                                "sm {sm} cycle {cycle}: ReplayQ occupancy {depth} \
                                 exceeds capacity {capacity}"
                            ),
                        );
                    }
                }
                TraceEvent::Verify {
                    sm,
                    cycle,
                    warp,
                    dst,
                    kind,
                    issued,
                    ..
                } => {
                    let kind = *kind;
                    if cycle <= issued {
                        self.violate(
                            "I2",
                            format!(
                                "sm {sm}: verify of (warp {warp}, issued @{issued}) \
                                 at cycle {cycle} is not strictly after issue"
                            ),
                        );
                    }
                    let st = self.sms.entry(*sm).or_default();
                    let mono = st.last_verify.is_none_or(|last| *cycle >= last);
                    st.last_verify = Some(*cycle);
                    let key = (*warp, *issued);
                    let known = st.pending.remove(&key).is_some();
                    let double = !known && st.verified.contains_key(&key);
                    if known {
                        st.verified.insert(key, ());
                    }
                    if let Some(r) = dst {
                        if let Some(cycles) = st.writes.get_mut(&(*warp, r.0)) {
                            cycles.retain(|c| c != issued);
                            if cycles.is_empty() {
                                st.writes.remove(&(*warp, r.0));
                            }
                        }
                    }
                    let mut obligated = false;
                    if let Some(r) = dst {
                        let ob = (*warp, r.0, *issued);
                        if let Some(pos) = st.obligations.iter().position(|o| *o == ob) {
                            st.obligations.remove(pos);
                            obligated = true;
                        }
                    }
                    if !mono {
                        self.violate(
                            "I3",
                            format!(
                                "sm {sm}: verify timestamp went backwards to cycle {cycle} \
                                 (warp {warp}, issued @{issued})"
                            ),
                        );
                    }
                    if double {
                        self.violate(
                            "I1",
                            format!(
                                "sm {sm} cycle {cycle}: (warp {warp}, issued @{issued}) \
                                 verified twice"
                            ),
                        );
                    } else if !known {
                        self.violate(
                            "I1",
                            format!(
                                "sm {sm} cycle {cycle}: verify of unknown instruction \
                                 (warp {warp}, issued @{issued})"
                            ),
                        );
                    }
                    if obligated && kind != VerifyKind::RawStall {
                        self.violate(
                            "I5",
                            format!(
                                "sm {sm} cycle {cycle}: RAW-hazard producer \
                                 (warp {warp}, issued @{issued}) verified via {} \
                                 instead of a forced raw_stall",
                                kind.as_str()
                            ),
                        );
                    }
                }
                TraceEvent::Idle { sm, cycle } => self.close_slot(*sm, *cycle),
                TraceEvent::SmDone { sm, cycle, .. } => {
                    self.close_slot(*sm, *cycle);
                    let leftover: Vec<(u64, u64)> = self
                        .sms
                        .get(sm)
                        .map(|st| {
                            let mut v: Vec<_> = st.pending.keys().copied().collect();
                            v.sort_unstable();
                            v
                        })
                        .unwrap_or_default();
                    if let Some(st) = self.sms.get_mut(sm) {
                        st.pending.clear();
                    }
                    for (warp, issued) in leftover {
                        self.violate(
                            "I1",
                            format!(
                                "sm {sm} done @{cycle}: instruction (warp {warp}, \
                                 issued @{issued}) was never verified"
                            ),
                        );
                    }
                }
            }
        }

        fn flush(&mut self) {
            if self.finished {
                return;
            }
            self.finished = true;
            self.close_launch();
        }
    }
}

/// Feed `head`, flush, feed `tail`, flush again through both checkers,
/// comparing their counts after every event and their reports at the
/// end. Returns the oracle for callers that inspect what was found.
fn compare(head: &[TraceEvent], tail: &[TraceEvent]) -> oracle::InvariantSink {
    let mut new = InvariantSink::new();
    let mut old = oracle::InvariantSink::new();
    for part in [head, tail] {
        for ev in part {
            new.event(ev);
            old.event(ev);
            assert_eq!(new.total_violations(), old.total_violations(), "{ev:?}");
        }
        new.flush();
        old.flush();
    }
    assert_eq!(new.total_violations(), old.total_violations());
    assert_eq!(new.events_seen(), old.events_seen());
    assert_eq!(new.ok(), old.ok());
    let got: Vec<_> = new
        .violations()
        .iter()
        .map(|v| (v.rule, v.message.as_str()))
        .collect();
    let want: Vec<_> = old
        .violations()
        .iter()
        .map(|v| (v.rule, v.message.as_str()))
        .collect();
    assert_eq!(got, want);
    old
}

fn unit(n: u64) -> UnitType {
    UnitType::ALL[n as usize % UnitType::ALL.len()]
}

/// One SM of the well-formed model: its clock, its last verify stamp and
/// the instructions awaiting verification as (warp, issue cycle, dst).
#[derive(Default)]
struct ModelSm {
    cycle: u64,
    last_verify: u64,
    pending: Vec<(u64, u64, Option<Reg>)>,
}

/// A stream a correct Replay Checker could emit. Per SM, slots advance
/// the clock; an issue whose sources read an unverified same-warp write
/// force-verifies those producers by `raw_stall` in its own slot; other
/// pending instructions are verified in random order by the other kinds,
/// at monotone stamps strictly after issue; every SM drains before its
/// `SmDone`. SMs interleave at random and launches restart the clocks.
fn well_formed(seed: u64) -> Vec<TraceEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for index in 0..rng.random_range(1..4u32) {
        out.push(TraceEvent::LaunchBegin { index });
        let nsm = rng.random_range(1..4u32);
        let mut sms: Vec<ModelSm> = (0..nsm).map(|_| ModelSm::default()).collect();
        for _ in 0..rng.random_range(0..80) {
            let sm = rng.random_range(0..nsm);
            let st = &mut sms[sm as usize];
            st.cycle += rng.random_range(1..3u64);
            let cycle = st.cycle;
            match rng.random_range(0..8) {
                0 => out.push(TraceEvent::Idle { sm, cycle }),
                1 | 2 if !st.pending.is_empty() => {
                    let (warp, issued, dst) =
                        st.pending.remove(rng.random_range(0..st.pending.len()));
                    let kind = VerifyKind::ALL[rng.random_range(0..VerifyKind::ALL.len())];
                    let kind = if kind == VerifyKind::RawStall {
                        VerifyKind::Drain
                    } else {
                        kind
                    };
                    st.last_verify = st.last_verify.max(cycle).max(issued + 1);
                    out.push(TraceEvent::Verify {
                        sm,
                        cycle: st.last_verify,
                        warp,
                        unit: unit(warp),
                        dst,
                        kind,
                        issued,
                        active: 32,
                    });
                }
                3 => out.push(TraceEvent::IntraPair {
                    sm,
                    cycle,
                    warp: rng.random_range(0..4),
                    active: 12,
                    covered: rng.random_range(0..13),
                }),
                _ => {
                    let warp = rng.random_range(0..4u64);
                    let full = rng.random_bool(0.85);
                    let has_result = rng.random_bool(0.85);
                    let dst = rng.random_bool(0.85).then(|| Reg(rng.random_range(0..5)));
                    let mut srcs = [None; 4];
                    for s in srcs.iter_mut().take(rng.random_range(0..4)) {
                        *s = Some(Reg(rng.random_range(0..5)));
                    }
                    out.push(TraceEvent::Issue {
                        sm,
                        cycle,
                        warp,
                        pc: cycle as u32,
                        unit: unit(warp),
                        active: if full { 32 } else { 7 },
                        full,
                        has_result,
                        dst,
                        srcs,
                    });
                    // RAW rule: every unverified same-warp producer of a
                    // source is force-verified before the next slot.
                    let mut stalls = 0;
                    let mut k = 0;
                    while k < st.pending.len() {
                        let (w, issued, pdst) = st.pending[k];
                        if w == warp && pdst.is_some() && srcs.contains(&pdst) {
                            st.pending.remove(k);
                            st.last_verify = st.last_verify.max(cycle + 1);
                            stalls += 1;
                            out.push(TraceEvent::Verify {
                                sm,
                                cycle: st.last_verify,
                                warp,
                                unit: unit(warp),
                                dst: pdst,
                                kind: VerifyKind::RawStall,
                                issued,
                                active: 32,
                            });
                        } else {
                            k += 1;
                        }
                    }
                    if stalls > 0 {
                        out.push(TraceEvent::Stall {
                            sm,
                            cycle,
                            warp,
                            cycles: stalls,
                        });
                    }
                    if full && has_result {
                        st.pending.push((warp, cycle, dst));
                        out.push(TraceEvent::Enqueue {
                            sm,
                            cycle,
                            warp,
                            unit: unit(warp),
                            dst,
                            depth: st.pending.len() as u32,
                            capacity: 64,
                        });
                    }
                }
            }
        }
        for (sm, st) in sms.iter_mut().enumerate() {
            let sm = sm as u32;
            let drained = st.pending.len() as u64;
            for (warp, issued, dst) in st.pending.drain(..) {
                st.last_verify = st.last_verify.max(st.cycle + 1).max(issued + 1);
                out.push(TraceEvent::Verify {
                    sm,
                    cycle: st.last_verify,
                    warp,
                    unit: unit(warp),
                    dst,
                    kind: VerifyKind::Drain,
                    issued,
                    active: 32,
                });
            }
            out.push(TraceEvent::SmDone {
                sm,
                cycle: st.last_verify.max(st.cycle),
                drained,
            });
        }
    }
    out
}

/// An event drawn from small domains, so SMs, warps, cycles and
/// registers collide often.
fn random_event(rng: &mut StdRng) -> TraceEvent {
    let sm = rng.random_range(0..3u32);
    let cycle = rng.random_range(0..12u64);
    let warp = rng.random_range(0..3u64);
    let reg = |rng: &mut StdRng| rng.random_bool(0.8).then(|| Reg(rng.random_range(0..3)));
    match rng.random_range(0..14) {
        0 => TraceEvent::LaunchBegin {
            index: rng.random_range(0..3),
        },
        1..=5 => TraceEvent::Issue {
            sm,
            cycle,
            warp,
            pc: 0,
            unit: unit(warp),
            active: 32,
            full: rng.random_bool(0.8),
            has_result: rng.random_bool(0.8),
            dst: reg(rng),
            srcs: [reg(rng), reg(rng), reg(rng), reg(rng)],
        },
        6..=9 => TraceEvent::Verify {
            sm,
            cycle,
            warp,
            unit: unit(warp),
            dst: reg(rng),
            kind: VerifyKind::ALL[rng.random_range(0..VerifyKind::ALL.len())],
            issued: rng.random_range(0..12),
            active: 32,
        },
        10 => TraceEvent::Enqueue {
            sm,
            cycle,
            warp,
            unit: unit(warp),
            dst: reg(rng),
            depth: rng.random_range(0..6),
            capacity: rng.random_range(0..6),
        },
        11 => TraceEvent::Idle { sm, cycle },
        12 => TraceEvent::SmDone {
            sm,
            cycle,
            drained: 0,
        },
        _ => match rng.random_range(0..4) {
            0 => TraceEvent::Stall {
                sm,
                cycle,
                warp,
                cycles: 1,
            },
            1 => TraceEvent::Error {
                sm,
                cycle,
                warp,
                lane: 3,
            },
            2 => TraceEvent::FaultInjected {
                sm,
                trial: 0,
                kind: "comparator".into(),
                lane: u32::MAX,
                cycle,
            },
            _ => TraceEvent::TrialOutcome {
                trial: 0,
                outcome: "masked".into(),
            },
        },
    }
}

/// Break a well-formed stream: drop, duplicate, swap, rewrite or insert
/// events.
fn mutate(events: &mut Vec<TraceEvent>, rng: &mut StdRng) {
    for _ in 0..rng.random_range(1..5) {
        if events.is_empty() {
            events.push(random_event(rng));
            continue;
        }
        let i = rng.random_range(0..events.len());
        match rng.random_range(0..6) {
            0 => {
                events.remove(i);
            }
            1 => {
                let ev = events[i].clone();
                let at = rng.random_range(i..events.len() + 1);
                events.insert(at, ev);
            }
            2 => {
                let j = rng.random_range(0..events.len());
                events.swap(i, j);
            }
            3 => {
                let at = rng.random_range(0..events.len() + 1);
                events.insert(at, random_event(rng));
            }
            _ => match &mut events[i] {
                TraceEvent::Verify {
                    cycle,
                    kind,
                    issued,
                    ..
                } => match rng.random_range(0..3) {
                    0 => *kind = VerifyKind::ALL[rng.random_range(0..VerifyKind::ALL.len())],
                    1 => *cycle = cycle.saturating_sub(rng.random_range(1..4)),
                    _ => *issued += rng.random_range(1..3),
                },
                TraceEvent::Enqueue {
                    depth, capacity, ..
                } => *depth = *capacity + 1,
                TraceEvent::Issue { srcs, dst, .. } => srcs[0] = *dst,
                _ => {}
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The model's streams are clean under both checkers.
    #[test]
    fn well_formed_streams_agree_and_are_clean(seed in any::<u64>()) {
        let old = compare(&well_formed(seed), &[]);
        prop_assert!(old.ok(), "{:?}", old.violations());
    }
}

/// Which kind of violation a message reports, for coverage accounting.
fn class(rule: &str, message: &str) -> &'static str {
    match rule {
        "I1" if message.contains(" done @") => "leak at SmDone",
        "I1" if message.contains("never verified") => "leak at launch end",
        "I1" if message.contains("twice") => "double verify",
        "I1" => "unknown verify",
        "I2" => "verify not after issue",
        "I3" => "backwards verify",
        "I4" => "ReplayQ over capacity",
        "I5" if message.contains("consumer proceeded") => "open RAW obligation",
        _ => "RAW producer not stalled",
    }
}

/// Mutated model streams and random streams, with a flush in the middle
/// (events after a flush are still checked; a second flush is a no-op).
/// Every class of violation, and the storage cap, must be exercised.
#[test]
fn malformed_streams_agree() {
    let mut seen = std::collections::BTreeSet::new();
    let mut capped = false;
    let cases = (any::<u64>(), any::<bool>(), 0usize..200, 0usize..20);
    TestRunner::new(ProptestConfig::with_cases(2048)).run(&cases, |(seed, random, len, tail)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = if random {
            (0..len).map(|_| random_event(&mut rng)).collect()
        } else {
            let mut e = well_formed(seed);
            mutate(&mut e, &mut rng);
            e
        };
        let tail = events.split_off(events.len() - tail.min(events.len()));
        let old = compare(&events, &tail);
        capped |= old.total_violations() > old.violations().len() as u64;
        for v in old.violations() {
            seen.insert(class(v.rule, &v.message));
        }
    });
    let all = [
        "leak at SmDone",
        "leak at launch end",
        "double verify",
        "unknown verify",
        "verify not after issue",
        "backwards verify",
        "ReplayQ over capacity",
        "open RAW obligation",
        "RAW producer not stalled",
    ];
    for c in all {
        assert!(
            seen.contains(c),
            "no stream produced a {c} violation: {seen:?}"
        );
    }
    assert!(capped, "no stream overflowed the stored-violation cap");
}

/// The live stream of every suite kernel at Tiny scale, fed to both
/// checkers at once through a `Fanout`.
#[test]
fn suite_streams_agree() {
    let cfg = ExperimentConfig::test_tiny();
    for bench in Benchmark::ALL {
        let w = bench.build(cfg.size).unwrap();
        let (new, new_h) = TraceHandle::shared(InvariantSink::new());
        let (old, old_h) = TraceHandle::shared(oracle::InvariantSink::new());
        let fan = TraceHandle::new(Fanout::new(vec![new_h, old_h]));
        let mut engine = WarpedDmr::new(DmrConfig::default(), &cfg.gpu);
        engine.set_trace(fan.clone());
        w.run_traced(&cfg.gpu, &mut engine, fan.clone()).unwrap();
        fan.flush();
        let (new, old) = (new.lock().unwrap(), old.lock().unwrap());
        assert!(new.events_seen() > 0, "{bench}: empty trace");
        assert_eq!(new.events_seen(), old.events_seen(), "{bench}");
        assert_eq!(new.total_violations(), 0, "{bench}: {:?}", new.violations());
        assert_eq!(old.total_violations(), 0, "{bench}: {:?}", old.violations());
    }
}
