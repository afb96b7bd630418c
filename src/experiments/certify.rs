//! `warped certify`: the bounded model check of the Replay Checker
//! (paper Algorithm 1) plus one kernel's static coverage certificate,
//! checked for soundness against the coverage a real run measures.
//!
//! [`certify`] composes the three inputs once, so the CLI and the pinned
//! `certify --json` test read the same thing; [`Certification::check`]
//! is the one pass/fail rule.

use crate::experiments::{ExperimentConfig, ExperimentError};
use warped_analysis::{
    certify_coverage, certify_json, model_check, Cfg, CoverageCert, MaskFlowConfig,
    ModelCheckConfig, ModelCheckReport,
};
use warped_core::{DmrConfig, WarpedDmr};
use warped_kernels::Benchmark;

/// Everything `warped certify` reports for one benchmark.
#[derive(Debug, Clone)]
pub struct Certification {
    /// The benchmark whose kernel was certified.
    pub bench: Benchmark,
    /// The Replay Checker model check (independent of the kernel).
    pub model: ModelCheckReport,
    /// The static coverage certificate under the default DMR config.
    pub cert: CoverageCert,
    /// Coverage the simulator measured on a run at the config's size and
    /// chip, in percent.
    pub measured_pct: f64,
}

impl Certification {
    /// The pass/fail rule: the model check found no violation and was not
    /// cut short by its state budget, and the certified lower bound does
    /// not exceed the measured coverage.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Invariant`] naming the first rule broken.
    pub fn check(&self) -> Result<(), ExperimentError> {
        let (bench, mc) = (self.bench, &self.model);
        if !mc.violations.is_empty() {
            return Err(ExperimentError::Invariant(format!(
                "{bench}: model check found {} violation(s) at depth {}",
                mc.violations.len(),
                mc.depth
            )));
        }
        if mc.truncated {
            return Err(ExperimentError::Invariant(format!(
                "{bench}: model check truncated by its state budget at depth {}",
                mc.depth
            )));
        }
        if self.cert.bound_pct > self.measured_pct + 1e-9 {
            return Err(ExperimentError::Invariant(format!(
                "{bench}: certified bound {:.4}% exceeds measured coverage {:.4}%",
                self.cert.bound_pct, self.measured_pct
            )));
        }
        Ok(())
    }

    /// The `certify --json` document.
    pub fn to_json(&self) -> String {
        certify_json(
            &self.bench.to_string(),
            &self.model,
            &self.cert,
            self.measured_pct,
        )
    }
}

/// Model-check the Replay Checker under `model`, certify `bench`'s kernel
/// under the default DMR config, and measure its coverage on a run at
/// `cfg`'s size and chip.
///
/// # Errors
///
/// Propagates workload and simulator errors and a failed result check.
/// A failed certification is *reported* in the result, not raised; see
/// [`Certification::check`].
pub fn certify(
    bench: Benchmark,
    model: &ModelCheckConfig,
    cfg: &ExperimentConfig,
) -> Result<Certification, ExperimentError> {
    let w = bench.build(cfg.size)?;
    let model = model_check(model);
    let dmr_cfg = DmrConfig::default();
    let cert = certify_coverage(
        w.kernel(),
        &Cfg::build(w.kernel()),
        &dmr_cfg,
        w.block_threads(),
        &MaskFlowConfig::default(),
    );
    let mut engine = WarpedDmr::new(dmr_cfg, &cfg.gpu);
    let run = w.run_with(&cfg.gpu, &mut engine)?;
    w.check(&run)?;
    Ok(Certification {
        bench,
        model,
        cert,
        measured_pct: engine.report().coverage_pct(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_truncated_model_check_fails() {
        let cfg = ExperimentConfig::test_tiny();
        let tiny = ModelCheckConfig {
            depth: 3,
            capacities: vec![1],
            max_states: 4,
        };
        let c = certify(Benchmark::Sha, &tiny, &cfg).unwrap();
        assert!(c.model.truncated && c.model.violations.is_empty());
        let err = c.check().unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");

        let full = ModelCheckConfig {
            max_states: 1000,
            ..tiny
        };
        let c = certify(Benchmark::Sha, &full, &cfg).unwrap();
        assert!(!c.model.truncated);
        c.check().unwrap();
    }
}
