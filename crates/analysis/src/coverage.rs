//! Static DMR coverage certification.
//!
//! Combines the abstract mask interpretation (`mask.rs`) with the
//! engine's own RFU pairing (`warped_core::rfu`) and thread→core mapping
//! (`warped_core::mapping`) to classify every static instruction and to
//! compute a **certified lower bound** on the dynamic coverage the
//! simulator will measure (`DmrReport::coverage_pct`) for any execution
//! of the kernel under the given launch geometry.
//!
//! ## Soundness argument
//!
//! Every dynamic issue of instruction `pc` runs under a concrete active
//! mask admitted by one of the abstract masks `mask.rs` records at `pc`
//! (the abstract transition system over-approximates the PDOM stack).
//! For one concrete mask, the engine's covered-lane fraction is exact:
//! a full mask is inter-warp verified (every obligation eventually
//! verifies — see `every_inter_instruction_is_eventually_verified`),
//! otherwise the per-cluster RFU pairing covers `covered/active` lanes.
//! [`min_fraction`] minimizes that fraction over *all* concretizations
//! of an abstract mask by dynamic programming over per-cluster choices,
//! so it lower-bounds the fraction of every admitted issue. Since the
//! measured coverage is a ratio of sums and each summand's ratio is at
//! least the kernel-wide minimum (mediant inequality), the minimum over
//! result-producing reachable instructions and warp shapes is a lower
//! bound on `DmrReport::coverage_pct`.

use crate::cfg::Cfg;
use crate::mask::{analyze_masks, AbstractMask, MaskFlowConfig};
use warped_core::{mapping, rfu, DmrConfig};
use warped_isa::Kernel;
use warped_sim::WARP_SIZE;

const FULL: u32 = u32::MAX;

/// How a static instruction's redundant execution is obtained, in the
/// best static knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrClass {
    /// Always issues fully populated: verified by the Replay Checker
    /// (inter-warp DMR).
    InterVerified,
    /// May issue with idle lanes, and in every admissible mask the RFU
    /// pairs at least one active lane: partially or fully covered by
    /// intra-warp DMR.
    IntraVerifiable,
    /// Some admissible mask leaves every active lane unverified.
    Unverifiable,
    /// Produces no verifiable result (control flow / barrier): outside
    /// DMR's scope and outside the coverage denominator.
    NoResult,
    /// No abstract execution reaches it.
    Unreachable,
}

impl InstrClass {
    /// Every class, in report order.
    pub const ALL: [InstrClass; 5] = [
        InstrClass::InterVerified,
        InstrClass::IntraVerifiable,
        InstrClass::Unverifiable,
        InstrClass::NoResult,
        InstrClass::Unreachable,
    ];

    /// Stable lowercase tag for reports and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            InstrClass::InterVerified => "inter",
            InstrClass::IntraVerifiable => "intra",
            InstrClass::Unverifiable => "unverifiable",
            InstrClass::NoResult => "no-result",
            InstrClass::Unreachable => "unreachable",
        }
    }
}

/// Per-instruction certification result.
#[derive(Debug, Clone)]
pub struct InstrCoverage {
    /// Instruction index.
    pub pc: usize,
    /// Static classification.
    pub class: InstrClass,
    /// Certified minimum covered-lane fraction over every admissible
    /// issue of this instruction (1.0 for `NoResult`/`Unreachable`,
    /// which never enter the coverage denominator).
    pub min_fraction: f64,
}

/// A certified static coverage bound for one kernel + launch geometry.
#[derive(Debug, Clone)]
pub struct CoverageCert {
    /// Kernel name.
    pub kernel: String,
    /// Distinct initial warp shapes implied by the block size.
    pub shapes: Vec<u32>,
    /// Per-instruction classification (index = pc).
    pub per_instr: Vec<InstrCoverage>,
    /// Certified lower bound on `DmrReport::coverage_pct` (percent).
    pub bound_pct: f64,
    /// Abstract stack states explored, summed over shapes.
    pub states: u64,
    /// True if the abstract interpreter hit a budget and widened.
    pub overflowed: bool,
}

impl CoverageCert {
    /// Instructions in `class`.
    pub fn count(&self, class: InstrClass) -> usize {
        self.per_instr.iter().filter(|i| i.class == class).count()
    }
}

/// The distinct warp shapes of a block of `block_threads` threads
/// (warps are carved 32 at a time; the last may be partial).
pub fn warp_shapes(block_threads: u32) -> Vec<u32> {
    let mut shapes = Vec::new();
    let mut base = 0;
    while base < block_threads {
        let s = warped_sim::warp::populated_mask(base, block_threads);
        if s != 0 && !shapes.contains(&s) {
            shapes.push(s);
        }
        base += WARP_SIZE as u32;
    }
    shapes
}

/// Minimum covered-lane fraction over every concrete mask `m` with
/// `must ⊆ m ⊆ may`, `m ≠ 0`, under `dmr`. Exact with respect to the
/// engine: full masks take the inter-warp path, partial masks the
/// per-cluster RFU pairing (full clusters pair nothing).
pub fn min_fraction(m: AbstractMask, dmr: &DmrConfig) -> f64 {
    if m.must == FULL {
        return if dmr.enable_inter { 1.0 } else { 0.0 };
    }
    let cs = dmr.cluster_size;
    let nclusters = WARP_SIZE / cs;
    let cluster_full: u32 = if cs == 32 { FULL } else { (1 << cs) - 1 };
    let phys_must = mapping::map_mask(dmr.mapping, m.must, WARP_SIZE, cs);
    let phys_may = mapping::map_mask(dmr.mapping, m.may, WARP_SIZE, cs);

    // best[a] = minimum covered lanes over all concretizations with
    // exactly `a` active lanes (None if unachievable).
    let mut best: Vec<Option<u32>> = vec![None; WARP_SIZE + 1];
    best[0] = Some(0);
    for c in 0..nclusters {
        let lo = (phys_must >> (c * cs)) & cluster_full;
        let hi = (phys_may >> (c * cs)) & cluster_full;
        // Per-cluster: minimum covered lanes for each active count.
        let mut per_act: Vec<Option<u32>> = vec![None; cs + 1];
        let free = hi & !lo;
        let mut sub = free;
        loop {
            let s = lo | sub;
            let act = s.count_ones() as usize;
            let cov = if s == 0 || s == cluster_full || !dmr.enable_intra {
                0
            } else {
                rfu::assign(s, cs).covered_count()
            };
            per_act[act] = Some(per_act[act].map_or(cov, |p: u32| p.min(cov)));
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & free;
        }
        let mut next: Vec<Option<u32>> = vec![None; WARP_SIZE + 1];
        for (a, b) in best.iter().enumerate() {
            let Some(b) = b else { continue };
            for (act, cov) in per_act.iter().enumerate() {
                let Some(cov) = cov else { continue };
                let slot = &mut next[a + act];
                let total = b + cov;
                *slot = Some(slot.map_or(total, |p| p.min(total)));
            }
        }
        best = next;
    }

    let mut frac = f64::INFINITY;
    for (a, b) in best.iter().enumerate().take(WARP_SIZE).skip(1) {
        if let Some(cov) = b {
            frac = frac.min(f64::from(*cov) / a as f64);
        }
    }
    if best[WARP_SIZE].is_some() {
        // Every lane active ⇒ the concretization is the full mask ⇒
        // inter-warp DMR, not the RFU.
        frac = frac.min(if dmr.enable_inter { 1.0 } else { 0.0 });
    }
    if frac.is_finite() {
        frac
    } else {
        // `may = 0`: no lane can execute — vacuously covered.
        1.0
    }
}

/// Certify `kernel` under `dmr` for a launch whose blocks hold
/// `block_threads` threads.
pub fn certify_coverage(
    kernel: &Kernel,
    cfg: &Cfg,
    dmr: &DmrConfig,
    block_threads: u32,
    flow_config: &MaskFlowConfig,
) -> CoverageCert {
    let shapes = warp_shapes(block_threads);
    let n = kernel.code().len();
    let mut masks_per_pc: Vec<Vec<AbstractMask>> = vec![Vec::new(); n];
    let mut states = 0;
    let mut overflowed = false;
    for &shape in &shapes {
        let flow = analyze_masks(kernel, cfg, shape, flow_config);
        states += flow.states;
        overflowed |= flow.overflowed;
        for (pc, ms) in flow.per_pc.into_iter().enumerate() {
            for m in ms {
                if !masks_per_pc[pc].contains(&m) {
                    masks_per_pc[pc].push(m);
                }
            }
        }
    }

    let mut per_instr = Vec::with_capacity(n);
    let mut bound = f64::INFINITY;
    for (pc, masks) in masks_per_pc.iter().enumerate() {
        let instr = &kernel.code()[pc];
        let (class, frac) = if !instr.has_result() {
            (InstrClass::NoResult, 1.0)
        } else if masks.is_empty() {
            (InstrClass::Unreachable, 1.0)
        } else {
            let frac = masks
                .iter()
                .map(|&m| min_fraction(m, dmr))
                .fold(f64::INFINITY, f64::min);
            let class = if masks.iter().all(|m| m.must == FULL) {
                InstrClass::InterVerified
            } else if frac > 0.0 {
                InstrClass::IntraVerifiable
            } else {
                InstrClass::Unverifiable
            };
            bound = bound.min(frac);
            (class, frac)
        };
        per_instr.push(InstrCoverage {
            pc,
            class,
            min_fraction: frac,
        });
    }

    CoverageCert {
        kernel: kernel.name().to_string(),
        shapes,
        per_instr,
        bound_pct: if bound.is_finite() {
            100.0 * bound
        } else {
            0.0
        },
        states,
        overflowed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use warped_core::ThreadCoreMapping;
    use warped_isa::{AluBinOp, Instruction, KernelBuilder, Operand, Reg};

    fn dmr() -> DmrConfig {
        DmrConfig::default()
    }

    #[test]
    fn full_exact_mask_is_inter_covered() {
        assert_eq!(min_fraction(AbstractMask::exact(FULL), &dmr()), 1.0);
        let mut off = dmr();
        off.enable_inter = false;
        assert_eq!(min_fraction(AbstractMask::exact(FULL), &off), 0.0);
    }

    #[test]
    fn half_populated_cross_mapping_is_fully_covered() {
        // 16 contiguous threads cross-mapped: two active per 4-lane
        // cluster, each pairs with an idle lane.
        let m = AbstractMask::exact(0xffff);
        assert_eq!(min_fraction(m, &dmr()), 1.0);
        // In-order mapping packs them into four full clusters: nothing
        // pairs.
        let mut inorder = dmr();
        inorder.mapping = ThreadCoreMapping::InOrder;
        assert_eq!(min_fraction(m, &inorder), 0.0);
    }

    #[test]
    fn unknown_mask_admits_a_dead_cluster_full_case() {
        // must=0, may=full admits "exactly one full cluster", which the
        // RFU cannot pair: the certified minimum is 0.
        let m = AbstractMask { must: 0, may: FULL };
        assert_eq!(min_fraction(m, &dmr()), 0.0);
    }

    #[test]
    fn single_lane_uncertainty_keeps_nonzero_fraction() {
        // Exactly one cluster, lane known-active plus one unknown lane:
        // every concretization has an idle verifier available.
        let m = AbstractMask {
            must: 0b0001,
            may: 0b0011,
        };
        let f = min_fraction(m, &dmr());
        assert!(f >= 0.5, "fraction {f}");
    }

    #[test]
    fn straight_line_full_block_certifies_100_pct() {
        let mut b = KernelBuilder::new("k");
        b.push(Instruction::Bin {
            op: AluBinOp::IAdd,
            dst: Reg(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        });
        b.push(Instruction::Exit);
        let k = b.build().expect("valid");
        let cfg = Cfg::build(&k);
        let cert = certify_coverage(&k, &cfg, &dmr(), 64, &MaskFlowConfig::default());
        assert_eq!(cert.shapes, vec![FULL]);
        assert_eq!(cert.bound_pct, 100.0);
        assert_eq!(cert.per_instr[0].class, InstrClass::InterVerified);
        assert_eq!(cert.per_instr[1].class, InstrClass::NoResult);
    }

    #[test]
    fn partial_tail_warp_lowers_but_stays_sound() {
        let mut b = KernelBuilder::new("k");
        b.push(Instruction::Bin {
            op: AluBinOp::IAdd,
            dst: Reg(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        });
        b.push(Instruction::Exit);
        let k = b.build().expect("valid");
        let cfg = Cfg::build(&k);
        // 48 threads: one full warp + one half warp. The half warp is
        // fully intra-coverable under cross mapping.
        let cert = certify_coverage(&k, &cfg, &dmr(), 48, &MaskFlowConfig::default());
        assert_eq!(cert.shapes.len(), 2);
        assert_eq!(cert.bound_pct, 100.0);
        assert_eq!(cert.per_instr[0].class, InstrClass::IntraVerifiable);
    }
}
