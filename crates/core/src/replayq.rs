//! The ReplayQ (paper §4.3): a small per-SM buffer of unverified
//! instructions awaiting an idle execution unit.
//!
//! A hardware entry holds the opcode/unit type, the source values needed
//! to re-execute, and the original result to compare against — ~516
//! bytes per entry, ~5 KB for the 10-entry queue the paper sizes from
//! Fig. 8 (type-switch distances ≤ 20, RAW distances ≥ 8 cycles). The
//! model entry keeps only the control metadata Algorithm 1 decides on;
//! the engine holds the lane results for its comparator, and only when a
//! fault oracle can make them differ.
//!
//! The queue never holds more than its capacity (10 at most in every
//! configuration the paper sweeps), so it lives in one contiguous buffer,
//! oldest first: a type-directed or RAW dequeue is one scan of a slice
//! and a short shift.

use warped_isa::{Reg, UnitType};

/// One buffered, unverified instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayEntry {
    /// Issuing warp (global uid).
    pub warp_uid: u64,
    /// Execution unit the verification needs.
    pub unit: UnitType,
    /// Destination register (RAW hazards against consumers).
    pub dst: Option<Reg>,
    /// Issue cycle of the original execution.
    pub cycle: u64,
    /// Active mask (always full for inter-warp DMR, kept for generality).
    pub mask: u32,
}

/// Fixed-capacity FIFO of unverified instructions with type-directed
/// dequeue.
#[derive(Debug)]
pub struct ReplayQ {
    /// Buffered entries, oldest first; never longer than `capacity`.
    entries: Vec<ReplayEntry>,
    capacity: usize,
}

/// Written by hand so `clone_from` reuses the entry buffer (a derived
/// `Clone` does not forward it to the fields).
impl Clone for ReplayQ {
    fn clone(&self) -> Self {
        ReplayQ {
            entries: self.entries.clone(),
            capacity: self.capacity,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
        self.capacity = source.capacity;
    }
}

impl ReplayEntry {
    /// Hardware storage cost of one entry (paper §4.3.1): 32 lanes ×
    /// 3 source operands × 4 bytes, plus 32 lanes × 4 bytes of original
    /// results, plus 2–4 bytes of opcode — "total of 514 ∼ 516 bytes".
    pub const MIN_BYTES: usize = 32 * 3 * 4 + 32 * 4 + 2;
    /// Upper bound of the paper's entry-size range.
    pub const MAX_BYTES: usize = 32 * 3 * 4 + 32 * 4 + 4;
}

impl ReplayQ {
    /// Hardware storage of the whole queue in bytes (paper §4.3.1: "the
    /// ReplayQ size with 10 entries is around 5KB... only 4% of the
    /// register file size").
    pub fn storage_bytes(&self) -> usize {
        self.capacity * ReplayEntry::MAX_BYTES
    }

    /// Create a queue holding at most `capacity` entries (0 = always
    /// full, the paper's worst case).
    pub fn new(capacity: usize) -> Self {
        ReplayQ {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a push would be rejected.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Buffer an unverified instruction.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers must check — Algorithm 1
    /// stalls instead of overflowing).
    pub fn push(&mut self, e: ReplayEntry) {
        assert!(!self.is_full(), "ReplayQ overflow");
        self.entries.push(e);
    }

    /// Remove and return the oldest entry whose unit type differs from
    /// `unit` (the co-execution candidate of Algorithm 1).
    pub fn take_different_type(&mut self, unit: UnitType) -> Option<ReplayEntry> {
        let idx = self.entries.iter().position(|e| e.unit != unit)?;
        Some(self.entries.remove(idx))
    }

    /// Remove and return the oldest entry of any type (idle-cycle drain).
    pub fn take_any(&mut self) -> Option<ReplayEntry> {
        (!self.entries.is_empty()).then(|| self.entries.remove(0))
    }

    /// Remove and return the oldest entry of `warp_uid` whose destination
    /// is one of `srcs` (the RAW-on-unverified hazard).
    pub fn take_raw_hazard(
        &mut self,
        warp_uid: u64,
        srcs: &[Option<Reg>; 4],
    ) -> Option<ReplayEntry> {
        let idx = self.entries.iter().position(|e| {
            e.warp_uid == warp_uid
                && e.dst
                    .is_some_and(|d| srcs.iter().flatten().any(|s| *s == d))
        })?;
        Some(self.entries.remove(idx))
    }

    /// Iterate buffered entries (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &ReplayEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn entry(warp: u64, unit: UnitType, dst: Option<u16>, cycle: u64) -> ReplayEntry {
        ReplayEntry {
            warp_uid: warp,
            unit,
            dst: dst.map(Reg),
            cycle,
            mask: u32::MAX,
        }
    }

    #[test]
    fn entry_size_matches_paper_431() {
        assert_eq!(ReplayEntry::MIN_BYTES, 514);
        assert_eq!(ReplayEntry::MAX_BYTES, 516);
        // 10 entries ≈ 5 KB, about 4% of a 128 KB register file.
        let q = ReplayQ::new(10);
        assert_eq!(q.storage_bytes(), 5160);
        let rf_bytes = 128 * 1024;
        let share = q.storage_bytes() as f64 / rf_bytes as f64;
        assert!((0.035..0.045).contains(&share), "share {share}");
    }

    #[test]
    fn zero_capacity_is_always_full() {
        let q = ReplayQ::new(0);
        assert!(q.is_full());
        assert!(q.is_empty());
    }

    #[test]
    fn push_fills_to_capacity() {
        let mut q = ReplayQ::new(2);
        q.push(entry(0, UnitType::Sp, None, 0));
        assert!(!q.is_full());
        q.push(entry(1, UnitType::Sp, None, 1));
        assert!(q.is_full());
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ReplayQ overflow")]
    fn overflow_panics() {
        let mut q = ReplayQ::new(1);
        q.push(entry(0, UnitType::Sp, None, 0));
        q.push(entry(1, UnitType::Sp, None, 1));
    }

    #[test]
    fn take_different_type_picks_oldest_match() {
        let mut q = ReplayQ::new(4);
        q.push(entry(0, UnitType::Sp, None, 0));
        q.push(entry(1, UnitType::LdSt, None, 1));
        q.push(entry(2, UnitType::Sfu, None, 2));
        let got = q.take_different_type(UnitType::Sp).unwrap();
        assert_eq!(got.warp_uid, 1, "oldest non-SP entry is the LD/ST one");
        assert!(q.take_different_type(UnitType::Sfu).unwrap().warp_uid == 0);
        // Remaining: the SFU entry; same type -> none.
        assert!(q.take_different_type(UnitType::Sfu).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn raw_hazard_matches_warp_and_register() {
        let mut q = ReplayQ::new(4);
        q.push(entry(7, UnitType::Sp, Some(3), 0));
        q.push(entry(8, UnitType::Sp, Some(3), 1));
        let srcs = [Some(Reg(3)), None, None, None];
        // Different warp, same register: no hazard.
        assert!(q.take_raw_hazard(9, &srcs).is_none());
        // Same warp: hazard on warp 7's entry only.
        let got = q.take_raw_hazard(7, &srcs).unwrap();
        assert_eq!(got.warp_uid, 7);
        assert_eq!(q.len(), 1);
        // No-dst entries never conflict.
        let mut q2 = ReplayQ::new(1);
        q2.push(entry(7, UnitType::LdSt, None, 0));
        assert!(q2.take_raw_hazard(7, &srcs).is_none());
    }

    #[test]
    fn take_any_is_fifo() {
        let mut q = ReplayQ::new(3);
        q.push(entry(0, UnitType::Sp, None, 0));
        q.push(entry(1, UnitType::Sp, None, 1));
        assert_eq!(q.take_any().unwrap().warp_uid, 0);
        assert_eq!(q.take_any().unwrap().warp_uid, 1);
        assert!(q.take_any().is_none());
    }

    /// One queue operation of the differential test.
    #[derive(Debug, Clone)]
    enum Op {
        Push(ReplayEntry),
        TakeDifferentType(UnitType),
        TakeAny,
        TakeRawHazard(u64, [Option<Reg>; 4]),
    }

    fn unit() -> impl Strategy<Value = UnitType> {
        (0usize..UnitType::ALL.len()).prop_map(|i| UnitType::ALL[i])
    }

    /// A register out of four, or none: tiny ranges make RAW hazards
    /// collide.
    fn reg() -> impl Strategy<Value = Option<Reg>> {
        (0u16..5).prop_map(|r| (r < 4).then_some(Reg(r)))
    }

    fn push() -> impl Strategy<Value = Op> {
        (0u64..3, unit(), reg(), any::<u64>()).prop_map(|(warp_uid, unit, dst, cycle)| {
            Op::Push(ReplayEntry {
                warp_uid,
                unit,
                dst,
                cycle,
                mask: cycle as u32,
            })
        })
    }

    fn raw_hazard() -> impl Strategy<Value = Op> {
        (0u64..3, (reg(), reg(), reg(), reg()))
            .prop_map(|(warp, (a, b, c, d))| Op::TakeRawHazard(warp, [a, b, c, d]))
    }

    /// Pushes and the two type-directed takes twice as often as `take_any`.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            push(),
            push(),
            unit().prop_map(Op::TakeDifferentType),
            unit().prop_map(Op::TakeDifferentType),
            Just(Op::TakeAny),
            raw_hazard(),
            raw_hazard(),
        ]
    }

    /// The queue's semantics spelled out over a `VecDeque`.
    struct Reference(VecDeque<ReplayEntry>);

    impl Reference {
        fn take(&mut self, pred: impl Fn(&ReplayEntry) -> bool) -> Option<ReplayEntry> {
            let i = self.0.iter().position(pred)?;
            self.0.remove(i)
        }
    }

    proptest! {
        #[test]
        fn contiguous_queue_matches_a_deque_reference(
            capacity in 0usize..6,
            ops in prop::collection::vec(op(), 0..64),
        ) {
            let mut q = ReplayQ::new(capacity);
            let mut r = Reference(VecDeque::new());
            for op in ops {
                let (got, want) = match op {
                    Op::Push(e) => {
                        if r.0.len() >= capacity {
                            prop_assert!(q.is_full());
                            continue;
                        }
                        q.push(e);
                        r.0.push_back(e);
                        (None, None)
                    }
                    Op::TakeDifferentType(u) => {
                        (q.take_different_type(u), r.take(|e| e.unit != u))
                    }
                    Op::TakeAny => (q.take_any(), r.0.pop_front()),
                    Op::TakeRawHazard(w, srcs) => (
                        q.take_raw_hazard(w, &srcs),
                        r.take(|e| {
                            e.warp_uid == w
                                && e.dst.is_some_and(|d| srcs.contains(&Some(d)))
                        }),
                    ),
                };
                prop_assert_eq!(got, want);
                prop_assert_eq!(q.len(), r.0.len());
                prop_assert!(q.iter().eq(r.0.iter()));
            }
        }

        #[test]
        fn clone_from_keeps_contents_and_buffer(
            entries in prop::collection::vec((0u64..3, unit(), reg()), 0..4),
        ) {
            let mut src = ReplayQ::new(4);
            for (i, (warp_uid, unit, dst)) in entries.into_iter().enumerate() {
                src.push(ReplayEntry {
                    warp_uid,
                    unit,
                    dst,
                    cycle: i as u64,
                    mask: u32::MAX,
                });
            }
            let mut scratch = ReplayQ::new(4);
            let buffer = scratch.entries.as_ptr();
            scratch.clone_from(&src);
            prop_assert!(scratch.iter().eq(src.iter()));
            prop_assert_eq!(scratch.entries.as_ptr(), buffer, "clone_from reallocated");
        }
    }
}
