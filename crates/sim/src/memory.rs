//! Word-addressed memories.
//!
//! Both memory spaces are assumed ECC-protected (paper §1: "Memory is
//! assumed to be protected by ECC... the loaded data is always error
//! free"), so Warped-DMR verifies only the *address computation* of memory
//! instructions. Latency is a fixed per-space constant from
//! [`GpuConfig`](crate::GpuConfig).

use crate::launch::SimError;
use std::collections::BTreeMap;
use warped_isa::Space;

/// Device-global memory: 32-bit words addressed `0..capacity`, with a
/// bump allocator for buffer placement.
///
/// Allocated words live in a dense array that grows with each
/// allocation. A store past the allocation (but inside the capacity),
/// which only a corrupted address makes, lands in a sparse side map.
/// Every word that differs from zero is therefore in one of two small
/// places: a fresh chip costs no memory, and a launch log can diff a
/// launch's effect exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalMemory {
    /// Words `0..allocated`.
    words: Vec<u32>,
    /// Non-zero words past the allocation, by address.
    stray: BTreeMap<u32, u32>,
    capacity: usize,
}

impl GlobalMemory {
    /// Create a zeroed global memory of `words` 32-bit words.
    pub fn new(words: usize) -> Self {
        GlobalMemory {
            words: Vec::new(),
            stray: BTreeMap::new(),
            capacity: words,
        }
    }

    /// Reserve `len` words, returning the base word address.
    ///
    /// # Panics
    ///
    /// Panics when the memory is exhausted (configuration error, not a
    /// simulated fault).
    pub fn alloc(&mut self, len: usize) -> u32 {
        let base = self.words.len();
        assert!(
            base + len <= self.capacity,
            "global memory exhausted: {} + {} > {}",
            base,
            len,
            self.capacity
        );
        // Exact growth: buffers are allocated once per run, and spare
        // capacity would only raise the footprint.
        self.words.reserve_exact(len);
        self.words.resize(base + len, 0);
        // Stray stores into the new range become allocated words.
        let mut moved = self.stray.split_off(&(base as u32));
        if let Ok(end) = u32::try_from(base + len) {
            self.stray.append(&mut moved.split_off(&end));
        }
        for (addr, value) in moved {
            self.words[addr as usize] = value;
        }
        base as u32
    }

    /// Read one word.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when `addr` is past the end.
    #[inline]
    pub fn read(&self, addr: u32) -> Result<u32, SimError> {
        match self.words.get(addr as usize) {
            Some(w) => Ok(*w),
            None => self.read_stray(addr),
        }
    }

    #[cold]
    fn read_stray(&self, addr: u32) -> Result<u32, SimError> {
        if (addr as usize) < self.capacity {
            Ok(self.stray.get(&addr).copied().unwrap_or(0))
        } else {
            Err(SimError::MemOutOfBounds {
                space: Space::Global,
                addr,
            })
        }
    }

    /// Write one word.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when `addr` is past the end.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        match self.words.get_mut(addr as usize) {
            Some(w) => {
                *w = value;
                Ok(())
            }
            None => self.write_stray(addr, value),
        }
    }

    #[cold]
    fn write_stray(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        if (addr as usize) >= self.capacity {
            return Err(SimError::MemOutOfBounds {
                space: Space::Global,
                addr,
            });
        }
        if value == 0 {
            self.stray.remove(&addr);
        } else {
            self.stray.insert(addr, value);
        }
        Ok(())
    }

    /// Bulk host → device copy.
    ///
    /// # Panics
    ///
    /// Panics if the target range is out of bounds (host-side bug).
    pub fn write_slice(&mut self, base: u32, data: &[u32]) {
        let b = base as usize;
        match self.words.get_mut(b..b + data.len()) {
            Some(dst) => dst.copy_from_slice(data),
            None => {
                for (i, v) in data.iter().enumerate() {
                    self.write(base + i as u32, *v)
                        .expect("host write past the end of global memory");
                }
            }
        }
    }

    /// Bulk device → host copy.
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds (host-side bug).
    pub fn read_slice(&self, base: u32, len: usize) -> Vec<u32> {
        let b = base as usize;
        match self.words.get(b..b + len) {
            Some(src) => src.to_vec(),
            None => (0..len)
                .map(|i| {
                    self.read(base + i as u32)
                        .expect("host read past the end of global memory")
                })
                .collect(),
        }
    }

    /// Total capacity in words.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Words currently allocated.
    pub fn allocated(&self) -> usize {
        self.words.len()
    }

    /// Release all allocations and zero memory (between experiments).
    pub fn reset(&mut self) {
        self.words.clear();
        self.stray.clear();
    }

    /// The words whose value differs from `before`, an earlier copy of
    /// this memory with the same allocation, as `(address, value)` pairs
    /// in address order.
    pub(crate) fn changes_since(&self, before: &GlobalMemory) -> Vec<(u32, u32)> {
        debug_assert_eq!(self.words.len(), before.words.len());
        let mut out: Vec<(u32, u32)> = self
            .words
            .iter()
            .zip(&before.words)
            .enumerate()
            .filter(|(_, (now, was))| now != was)
            .map(|(a, (now, _))| (a as u32, *now))
            .collect();
        let was = |a: &u32| before.stray.get(a).copied().unwrap_or(0);
        let now = |a: &u32| self.stray.get(a).copied().unwrap_or(0);
        let mut stray: Vec<(u32, u32)> = self
            .stray
            .keys()
            .chain(before.stray.keys())
            .filter(|a| now(a) != was(a))
            .map(|a| (*a, now(a)))
            .collect();
        stray.sort_unstable();
        stray.dedup();
        out.extend(stray);
        out
    }
}

/// Per-block shared memory (scratchpad).
#[derive(Debug, Clone)]
pub struct SharedMemory {
    words: Vec<u32>,
}

impl SharedMemory {
    /// Create a zeroed shared memory of `words` words (the kernel's
    /// declared requirement).
    pub fn new(words: usize) -> Self {
        SharedMemory {
            words: vec![0; words],
        }
    }

    /// Read one word.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when `addr` is past the block's
    /// shared allocation.
    pub fn read(&self, addr: u32) -> Result<u32, SimError> {
        self.words
            .get(addr as usize)
            .copied()
            .ok_or(SimError::MemOutOfBounds {
                space: Space::Shared,
                addr,
            })
    }

    /// Write one word.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when `addr` is past the block's
    /// shared allocation.
    pub fn write(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        match self.words.get_mut(addr as usize) {
            Some(w) => {
                *w = value;
                Ok(())
            }
            None => Err(SimError::MemOutOfBounds {
                space: Space::Shared,
                addr,
            }),
        }
    }

    /// Size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the block declared no shared memory.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_bump_and_disjoint() {
        let mut m = GlobalMemory::new(100);
        let a = m.alloc(10);
        let b = m.alloc(20);
        assert_eq!(a, 0);
        assert_eq!(b, 10);
        assert_eq!(m.allocated(), 30);
        assert_eq!(m.capacity(), 100);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMemory::new(8);
        m.write(3, 42).unwrap();
        assert_eq!(m.read(3).unwrap(), 42);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut m = GlobalMemory::new(4);
        assert!(matches!(
            m.read(4),
            Err(SimError::MemOutOfBounds {
                space: Space::Global,
                addr: 4
            })
        ));
        assert!(m.write(9, 0).is_err());
    }

    #[test]
    fn slices_copy_data() {
        let mut m = GlobalMemory::new(16);
        let base = m.alloc(4);
        m.write_slice(base, &[1, 2, 3, 4]);
        assert_eq!(m.read_slice(base, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = GlobalMemory::new(8);
        let b = m.alloc(2);
        m.write(b, 9).unwrap();
        m.reset();
        assert_eq!(m.allocated(), 0);
        assert_eq!(m.read(b).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "global memory exhausted")]
    fn over_allocation_panics() {
        let mut m = GlobalMemory::new(4);
        m.alloc(5);
    }

    #[test]
    fn stores_past_the_allocation_stay_sparse_and_exact() {
        let mut m = GlobalMemory::new(1 << 20);
        let base = m.alloc(4);
        m.write(900_000, 7).unwrap();
        assert_eq!(m.read(900_000).unwrap(), 7);
        assert_eq!(m.read(900_001).unwrap(), 0);
        assert_eq!(m.allocated(), 4, "a stray store allocates nothing");
        assert_eq!(m.read_slice(899_999, 3), vec![0, 7, 0]);
        m.write(900_000, 0).unwrap();
        assert_eq!(m, {
            let mut fresh = GlobalMemory::new(1 << 20);
            fresh.alloc(4);
            fresh
        });
        // An allocation over a stray word takes its value along.
        m.write(6, 3).unwrap();
        m.alloc(8);
        assert_eq!(m.read_slice(base, 8), vec![0, 0, 0, 0, 0, 0, 3, 0]);
        assert!(m.write(1 << 20, 1).is_err());
    }

    #[test]
    fn changes_since_lists_exactly_the_changed_words() {
        let mut m = GlobalMemory::new(64);
        m.alloc(8);
        m.write(40, 9).unwrap();
        let before = m.clone();
        m.write(2, 5).unwrap();
        m.write(3, 0).unwrap(); // unchanged
        m.write(40, 0).unwrap();
        m.write(50, 1).unwrap();
        assert_eq!(m.changes_since(&before), vec![(2, 5), (40, 0), (50, 1)]);
        let mut replayed = before.clone();
        for (a, v) in m.changes_since(&before) {
            replayed.write(a, v).unwrap();
        }
        assert_eq!(replayed, m);
    }

    #[test]
    fn shared_memory_bounds() {
        let mut s = SharedMemory::new(2);
        s.write(1, 5).unwrap();
        assert_eq!(s.read(1).unwrap(), 5);
        assert!(s.read(2).is_err());
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(SharedMemory::new(0).is_empty());
    }
}
