//! # warped-baselines
//!
//! The comparison error-detection schemes of the paper's §5.3 (Fig. 10),
//! plus the host↔device transfer model they are judged with:
//!
//! * [`RNaive`](scheme::SchemeKind::RNaive) — invoke the kernel (and all
//!   transfers) twice, compare outputs on the CPU (Dimitrov et al.).
//! * [`RThread`](scheme::SchemeKind::RThread) — duplicate every thread
//!   block inside one launch; redundancy hides only when idle SMs exist;
//!   the output transfer doubles.
//! * [`Dmtr`] — dual modular *temporal* redundancy: every
//!   instruction re-executes on its own unit one cycle later (a
//!   simplified SRT with one cycle of slack, paper §5.3); with core
//!   affinity, so permanent faults can hide.
//! * [`ResidueChecker`] — mod-3 residue self-checking arithmetic (§6,
//!   Lipetz & Schwarz): near-zero cost but only +,−,× datapaths are
//!   checkable.
//! * Warped-DMR itself, via [`warped_core::WarpedDmr`].
//!
//! [`SchemeKind::price`] turns a run's kernel cycles into the kernel +
//! transfer end-to-end time of paper Fig. 10; [`run_scheme`] simulates
//! one workload under a scheme and prices the run.

pub mod dmtr;
pub mod residue;
pub mod scheme;
pub mod transfer;

pub use dmtr::Dmtr;
pub use residue::{ResidueChecker, ResidueStats};
pub use scheme::{r_thread_gpu, run_scheme, EndToEnd, SchemeKind};
pub use transfer::PcieModel;
