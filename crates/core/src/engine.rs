//! The Warped-DMR engine: ties intra-warp and inter-warp DMR to the
//! simulator's issue stream.

use crate::checker::{Incoming, ReplayChecker, VerifyEvent};
use crate::comparator::{compare_staged, CompareStage, ErrorLog, FaultOracle};
use crate::config::DmrConfig;
use crate::intra::LaneTables;
use warped_sim::{GpuConfig, IssueInfo, IssueObserver, WARP_SIZE};
use warped_trace::{TraceEvent, TraceHandle};
// The report and its counter rules live in the trace layer, so the live
// engine and the trace-replay path count through the same code.
pub use warped_trace::DmrReport;

/// The Warped-DMR engine. Attach it to a launch as an
/// [`IssueObserver`]; see the [crate-level example](crate).
pub struct WarpedDmr {
    config: DmrConfig,
    /// The intra-warp pairs and lane mappings of `config`.
    geometry: &'static LaneTables,
    checkers: Vec<ReplayChecker>,
    /// The verifications of the current call, settled before it returns.
    events: Vec<VerifyEvent>,
    report: DmrReport,
    errors: ErrorLog,
    oracle: Option<Box<dyn FaultOracle>>,
    // Per SM, the lane results of each unverified full-warp instruction,
    // keyed by (warp uid, issue cycle): the inter-warp comparator's
    // reference values. Kept only while an oracle is attached; without
    // one, the comparator cannot see a difference.
    lanes: Vec<Vec<(u64, u64, [u32; WARP_SIZE])>>,
    trace: TraceHandle,
}

impl std::fmt::Debug for WarpedDmr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpedDmr")
            .field("config", &self.config)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl WarpedDmr {
    /// Create an engine for a GPU of `gpu.num_sms` SMs.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid for the warp size (see
    /// [`DmrConfig::assert_valid`]).
    pub fn new(config: DmrConfig, gpu: &GpuConfig) -> Self {
        WarpedDmr {
            // Validates `config` before anything is built from it.
            geometry: LaneTables::of(&config),
            checkers: (0..gpu.num_sms)
                .map(|_| ReplayChecker::new(config.replayq_entries))
                .collect(),
            config,
            events: Vec::new(),
            report: DmrReport::default(),
            errors: ErrorLog::default(),
            oracle: None,
            lanes: vec![Vec::new(); gpu.num_sms],
            trace: TraceHandle::disabled(),
        }
    }

    /// Route the engine's events (intra-warp pairings, checker activity,
    /// comparator detections) to `trace`. Run under
    /// `Workload::run_traced` (in `warped-kernels`) with the same handle
    /// for the full stream: it adds the simulator's launch, issue, idle
    /// and SM-completion events around this engine's.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        for (i, c) in self.checkers.iter_mut().enumerate() {
            c.attach_trace(i, trace.clone());
        }
        self.trace = trace;
    }

    /// Create an engine whose comparator sees hardware through `oracle`
    /// (fault-injection campaigns).
    pub fn with_oracle(config: DmrConfig, gpu: &GpuConfig, oracle: Box<dyn FaultOracle>) -> Self {
        let mut e = Self::new(config, gpu);
        e.oracle = Some(oracle);
        e
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DmrConfig {
        &self.config
    }

    /// Coverage/overhead summary so far.
    pub fn report(&self) -> DmrReport {
        let mut r = self.report.clone();
        for c in &self.checkers {
            r.checker.merge(&c.stats);
        }
        r
    }

    /// Detected-error log.
    pub fn errors(&self) -> &ErrorLog {
        &self.errors
    }

    /// The per-SM Replay Checkers, indexed by SM.
    pub fn checkers(&self) -> &[ReplayChecker] {
        &self.checkers
    }

    /// Make sure SM `sm` has a checker, even beyond the GPU the engine
    /// was built for.
    #[inline]
    fn reach(&mut self, sm: usize) {
        if sm >= self.checkers.len() {
            self.add_checkers(sm);
        }
    }

    #[cold]
    fn add_checkers(&mut self, sm: usize) {
        let cap = self.config.replayq_entries;
        while self.checkers.len() <= sm {
            let mut c = ReplayChecker::new(cap);
            c.attach_trace(self.checkers.len(), self.trace.clone());
            self.checkers.push(c);
            self.lanes.push(Vec::new());
        }
    }

    /// Count, and with an oracle compare, the verifications the checker
    /// of SM `sm` just pushed to `events`.
    fn settle_events(&mut self, sm: usize) {
        for ev in self.events.drain(..) {
            self.report.inter_verify(ev.entry.mask.count_ones());
            if let Some(oracle) = self.oracle.as_deref() {
                let lanes = &mut self.lanes[sm];
                let key = (ev.entry.warp_uid, ev.entry.cycle);
                let i = lanes
                    .iter()
                    .position(|&(w, c, _)| (w, c) == key)
                    .expect("every verified instruction's lanes were kept at issue");
                let (_, _, results) = lanes.swap_remove(i);
                // A ReplayQ metadata fault can only *drop* mask bits: a
                // phantom set bit would compare garbage the entry never
                // stored, so the corrupted mask is intersected with the
                // real one. Dropped bits silently skip verification.
                let stored_mask = oracle.entry_mask(sm, ev.entry.mask) & ev.entry.mask;
                for (t, &result) in results.iter().enumerate() {
                    if stored_mask & (1 << t) == 0 {
                        continue;
                    }
                    let orig = self.geometry.physical_lane(t);
                    let ver = self.geometry.verify_lane(orig);
                    if compare_staged(
                        oracle,
                        &mut self.errors,
                        CompareStage::Inter,
                        sm,
                        ev.entry.warp_uid,
                        result,
                        orig,
                        ev.entry.cycle,
                        ver,
                        ev.cycle,
                    ) {
                        self.report.error();
                        self.trace.emit(|| TraceEvent::Error {
                            sm: sm as u32,
                            cycle: ev.cycle,
                            warp: ev.entry.warp_uid,
                            lane: orig as u32,
                        });
                    }
                }
            }
        }
    }
}

impl IssueObserver for WarpedDmr {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        let full = info.is_full();
        self.report
            .issue(info.active_count(), full, info.has_result);

        // Intra-warp DMR: spatial redundancy on idle lanes, zero cost.
        if info.has_result && !full && self.config.enable_intra {
            let phys = self.geometry.physical_mask(info.active_mask);
            let (active, covered) = (info.active_count(), self.geometry.covered(phys));
            self.report.intra_pair(active, covered);
            self.trace.emit(|| TraceEvent::IntraPair {
                sm: info.sm_id as u32,
                cycle: info.cycle,
                warp: info.warp_uid,
                active,
                covered,
            });
            if let Some(oracle) = self.oracle.as_deref() {
                for (ver, act, thread) in self.geometry.pairs(phys) {
                    if compare_staged(
                        oracle,
                        &mut self.errors,
                        CompareStage::Intra,
                        info.sm_id,
                        info.warp_uid,
                        info.results[thread],
                        act,
                        info.cycle,
                        ver,
                        info.cycle,
                    ) {
                        self.report.error();
                        self.trace.emit(|| TraceEvent::Error {
                            sm: info.sm_id as u32,
                            cycle: info.cycle,
                            warp: info.warp_uid,
                            lane: act as u32,
                        });
                    }
                }
            }
        }

        if !self.config.enable_inter {
            return 0;
        }
        let incoming = Incoming {
            warp_uid: info.warp_uid,
            unit: info.unit,
            dst: info.dst,
            srcs: info.srcs,
            cycle: info.cycle,
            needs_inter: full && info.has_result,
            mask: info.active_mask,
        };
        let sm = info.sm_id;
        self.reach(sm);
        let stalls = self.checkers[sm].on_issue(&incoming, &mut self.events);
        // The checker never verifies an instruction in its own issue slot.
        if self.oracle.is_some() && incoming.needs_inter {
            self.lanes[sm].push((info.warp_uid, info.cycle, *info.results));
        }
        self.settle_events(sm);
        stalls
    }

    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        if !self.config.enable_inter {
            return;
        }
        self.reach(sm_id);
        self.checkers[sm_id].on_idle(cycle, &mut self.events);
        self.settle_events(sm_id);
    }

    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        if !self.config.enable_inter {
            return 0;
        }
        self.reach(sm_id);
        let drain = self.checkers[sm_id].on_done(cycle, &mut self.events);
        self.settle_events(sm_id);
        drain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_kernels::{Benchmark, WorkloadSize};
    use warped_sim::GpuConfig;

    fn run(bench: Benchmark, config: DmrConfig) -> (DmrReport, u64) {
        let gpu_cfg = GpuConfig::small();
        let w = bench.build(WorkloadSize::Tiny).unwrap();
        let mut dmr = WarpedDmr::new(config, &gpu_cfg);
        let run = w.run_with(&gpu_cfg, &mut dmr).unwrap();
        w.check(&run).unwrap();
        (dmr.report(), run.stats.cycles)
    }

    #[test]
    fn full_config_covers_everything_verifiable_on_matmul() {
        // MatrixMul is always fully utilized: inter-warp DMR must verify
        // 100% of it.
        let (r, _) = run(Benchmark::MatrixMul, DmrConfig::default());
        assert_eq!(r.partial_instrs, 0);
        assert!(r.full_instrs > 0);
        assert!((r.coverage_pct() - 100.0).abs() < 1e-9);
        assert_eq!(r.intra_covered, 0);
    }

    #[test]
    fn bfs_is_covered_mostly_by_intra_warp() {
        let (r, _) = run(Benchmark::Bfs, DmrConfig::default());
        assert!(r.coverage_pct() > 99.0, "got {}", r.coverage_pct());
        assert!(r.intra_share() > 0.3, "intra share {}", r.intra_share());
    }

    #[test]
    fn cross_mapping_beats_in_order_on_contiguous_divergence() {
        // CUFFT's 24-contiguous-lane masks are the paper's motivating
        // case for the modified thread-core mapping (§4.2).
        let (cross, _) = run(Benchmark::Fft, DmrConfig::default());
        let (in_order, _) = run(Benchmark::Fft, DmrConfig::baseline_in_order());
        assert!(
            cross.coverage_pct() > in_order.coverage_pct(),
            "cross {} <= in-order {}",
            cross.coverage_pct(),
            in_order.coverage_pct()
        );
    }

    #[test]
    fn bigger_replayq_reduces_stalls() {
        let (q0, _) = run(Benchmark::Sha, DmrConfig::default().with_replayq(0));
        let (q10, _) = run(Benchmark::Sha, DmrConfig::default().with_replayq(10));
        assert!(
            q10.stall_cycles() <= q0.stall_cycles(),
            "q10 {} > q0 {}",
            q10.stall_cycles(),
            q0.stall_cycles()
        );
        assert!(
            q0.stall_cycles() > 0,
            "SHA bursts must stall a 0-entry queue"
        );
    }

    #[test]
    fn disabled_mechanisms_drop_coverage() {
        let cfg_no_inter = DmrConfig {
            enable_inter: false,
            ..DmrConfig::default()
        };
        let (r, _) = run(Benchmark::MatrixMul, cfg_no_inter);
        assert_eq!(
            r.coverage_pct(),
            0.0,
            "matmul without inter-warp is uncovered"
        );

        let cfg_no_intra = DmrConfig {
            enable_intra: false,
            ..DmrConfig::default()
        };
        let (r2, _) = run(Benchmark::Bfs, cfg_no_intra);
        assert!(r2.coverage_pct() < 90.0);
    }

    #[test]
    fn healthy_run_detects_no_errors() {
        let gpu_cfg = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let mut dmr = WarpedDmr::new(DmrConfig::default(), &gpu_cfg);
        w.run_with(&gpu_cfg, &mut dmr).unwrap();
        assert_eq!(dmr.report().errors_detected, 0);
    }

    #[test]
    fn stuck_lane_is_detected_with_shuffle_but_not_without() {
        struct Stuck;
        impl warped_sim::LaneFault for Stuck {
            fn corrupt(&self, _sm: usize, lane: usize, _c: u64, v: u32) -> u32 {
                if lane == 5 {
                    v ^ 0x8000_0000
                } else {
                    v
                }
            }
        }
        impl FaultOracle for Stuck {}
        let gpu_cfg = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();

        let mut with = WarpedDmr::with_oracle(DmrConfig::default(), &gpu_cfg, Box::new(Stuck));
        w.run_with(&gpu_cfg, &mut with).unwrap();
        assert!(
            with.report().errors_detected > 0,
            "lane shuffling must expose the stuck lane"
        );

        let cfg = DmrConfig {
            lane_shuffle: false,
            ..DmrConfig::default()
        };
        let mut without = WarpedDmr::with_oracle(cfg, &gpu_cfg, Box::new(Stuck));
        w.run_with(&gpu_cfg, &mut without).unwrap();
        assert_eq!(
            without.report().errors_detected,
            0,
            "core affinity hides the stuck lane on fully-utilized warps"
        );
    }

    #[test]
    fn bucket_accounting_sums_to_totals() {
        let gpu_cfg = GpuConfig::small();
        for bench in [Benchmark::Fft, Benchmark::BitonicSort, Benchmark::MatrixMul] {
            let w = bench.build(WorkloadSize::Tiny).unwrap();
            let mut dmr = WarpedDmr::new(DmrConfig::default(), &gpu_cfg);
            w.run_with(&gpu_cfg, &mut dmr).unwrap();
            let r = dmr.report();
            assert_eq!(
                r.bucket_total.iter().sum::<u64>(),
                r.total_thread_instrs,
                "{bench}: bucket totals"
            );
            assert_eq!(
                r.bucket_covered.iter().sum::<u64>(),
                r.covered_thread_instrs(),
                "{bench}: bucket covered"
            );
            for i in 0..5 {
                assert!(
                    r.bucket_covered[i] <= r.bucket_total[i],
                    "{bench}: bucket {i} overcovered"
                );
            }
        }
    }

    #[test]
    fn report_math() {
        let r = DmrReport {
            total_thread_instrs: 200,
            intra_covered: 50,
            inter_covered: 100,
            ..Default::default()
        };
        assert!((r.coverage_pct() - 75.0).abs() < 1e-9);
        assert!((r.intra_share() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.covered_thread_instrs(), 150);
        assert_eq!(DmrReport::default().coverage_pct(), 0.0);
    }
}
