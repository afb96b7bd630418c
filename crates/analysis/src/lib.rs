//! Static kernel verifier and DMR cost predictor for Warped-DMR.
//!
//! The simulator in `warped-sim` tells you what a kernel *did*; this
//! crate tells you, before any execution, what a kernel *can* do:
//!
//! * **Structure** — [`Cfg::build`] splits the instruction stream into
//!   basic blocks at branch targets and reconvergence points, then
//!   [`Cfg::lints`] flags unreachable blocks, reconvergence PCs that do
//!   not post-dominate their branch, regions with no path to `Exit`,
//!   and code that falls off the end of the kernel.
//! * **Dataflow** — [`def_use`] builds def-use chains over reaching
//!   definitions, [`liveness`] computes per-block live sets, and
//!   [`maybe_uninit_reads`] / [`dead_writes`] flag reads of
//!   never-written registers and writes no one observes.
//! * **DMR cost** — for straight-line kernels, [`predict_exact`]
//!   launches one warp on a one-SM chip under Warped-DMR, so its cycle
//!   count and ReplayQ stall counters are the simulator's own;
//!   [`block_pressure`] bounds the per-block queue pressure for kernels
//!   with control flow.
//! * **Certification** — [`model_check`] explores every Replay Checker
//!   behaviour up to a depth bound differentially against the real
//!   implementation (invariants I1–I5, divergences reported as
//!   minimized counterexamples), and [`certify_coverage`] turns an
//!   abstract interpretation of active masks ([`analyze_masks`]) into a
//!   per-kernel static coverage lower bound (`warped certify` on the
//!   CLI, `docs/certification.md` for the semantics).
//!
//! [`analyze`] bundles all of it into one [`Analysis`] with text and
//! JSON rendering (`warped analyze <bench>` on the CLI).
//!
//! ```
//! use warped_analysis::{analyze, PredictConfig};
//! use warped_isa::KernelBuilder;
//!
//! let mut b = KernelBuilder::new("demo");
//! let r0 = b.reg();
//! b.iadd(r0, 1u32, 2u32);
//! b.exit();
//! let kernel = b.build().unwrap();
//!
//! let analysis = analyze(&kernel, &PredictConfig::default());
//! assert!(analysis.is_clean());
//! assert!(analysis.exact.is_some(), "straight-line => exact prediction");
//! ```

mod bitset;
pub mod cfg;
pub mod coverage;
pub mod dataflow;
pub mod diag;
pub mod mask;
pub mod modelcheck;
pub mod predict;
pub mod report;

pub use cfg::{BasicBlock, Cfg, Terminator};
pub use coverage::{certify_coverage, warp_shapes, CoverageCert, InstrClass, InstrCoverage};
pub use dataflow::{dead_writes, def_use, liveness, maybe_uninit_reads, Def, DefUse, Liveness};
pub use diag::{DataflowWarning, StructuralLint};
pub use mask::{analyze_masks, AbstractMask, MaskFlow, MaskFlowConfig};
pub use modelcheck::{
    model_check, Counterexample, ModelCheckConfig, ModelCheckReport, DEFAULT_DEPTH,
};
pub use predict::{
    block_pressure, is_straight_line, predict_exact, BlockPressure, ExactPrediction, PredictConfig,
};
pub use report::{certify_json, Analysis, SCHEMA_VERSION};

use warped_isa::Kernel;

/// Run every pass over `kernel` and collect the results.
pub fn analyze(kernel: &Kernel, config: &PredictConfig) -> Analysis {
    let cfg = Cfg::build(kernel);
    let lints = cfg.lints();
    let def_use = def_use(kernel, &cfg);
    let lv = liveness(kernel, &cfg);
    let mut warnings = maybe_uninit_reads(kernel, &cfg);
    warnings.extend(dead_writes(&def_use, &cfg));
    let pressure = block_pressure(kernel, &cfg, config);
    let exact = predict_exact(kernel, config);
    Analysis {
        name: kernel.name().to_string(),
        num_instrs: kernel.code().len(),
        cfg,
        lints,
        def_use,
        liveness: lv,
        warnings,
        pressure,
        exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::KernelBuilder;

    #[test]
    fn analyze_bundles_every_pass() {
        let mut b = KernelBuilder::new("bundle");
        let r0 = b.reg();
        let r1 = b.reg();
        b.iadd(r0, 1u32, 2u32);
        b.iadd(r1, r0, r0);
        b.exit();
        let kernel = b.build().unwrap();
        let a = analyze(&kernel, &PredictConfig::default());
        assert!(a.is_clean());
        assert_eq!(a.cfg.blocks().len(), 1);
        assert_eq!(a.pressure.len(), 1);
        let exact = a.exact.as_ref().expect("straight-line");
        assert_eq!(exact.issued, 3);
        let text = a.to_text();
        assert!(text.contains("structural lints: none"), "{text}");
        let json = a.to_json();
        assert!(json.contains("\"clean\":true"), "{json}");
        assert!(json.contains("\"exact\":{"), "{json}");
    }
}
