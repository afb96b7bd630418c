//! Architectural fault injection into the execution datapath.
//!
//! A [`LaneFault`] is the one model of a faulty execution lane. Attached
//! to the [`Gpu`](crate::Gpu) it corrupts the value an execution unit
//! actually produces, so the fault propagates into registers, memory,
//! addresses, and branch decisions — and the final architectural output
//! can be compared against a fault-free golden run to classify the trial
//! as masked / detected / SDC / hang. The DMR engines in `warped-core`
//! call the same hook from their comparators (through `FaultOracle`, which
//! adds the checker's own fault sites) to see what a faulty lane would
//! have produced; that view never changes the simulated machine state.

/// A fault in one SM's execution datapath.
///
/// `corrupt` transforms a value computed on `lane` of `sm` at `cycle`.
/// Which lane index a caller passes depends on who asks:
///
/// * the simulator calls it once per *produced value* at the point the
///   unit hands it to writeback (ALU/SFU results, load/store address
///   computations, and branch taken-decisions as `0`/`1`) with the
///   warp's **logical** lane (the thread's position in the warp); a
///   campaign modelling a physical-lane fault applies its thread→core
///   mapping before attaching the fault;
/// * the DMR engines' comparators call it with the **physical** lane that
///   ran the original or the redundant copy.
///
/// Implementations must be cheap and pure: the same `(sm, lane, cycle,
/// value)` must always yield the same result, or campaign runs stop being
/// reproducible.
pub trait LaneFault: Send + Sync {
    /// Transform a value produced on `lane` of `sm` at `cycle`.
    fn corrupt(&self, sm: usize, lane: usize, cycle: u64, value: u32) -> u32;
}

/// A fault-free datapath (identity transform), useful as a default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFault;

impl LaneFault for NoFault {
    fn corrupt(&self, _sm: usize, _lane: usize, _cycle: u64, value: u32) -> u32 {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fault_is_identity() {
        assert_eq!(NoFault.corrupt(0, 3, 99, 0xDEAD), 0xDEAD);
    }
}
