//! Pins the SM issue stream bit for bit.
//!
//! An observer folds everything the simulator reports — every issue slot
//! (cycle, SM, warp, PC, mask, per-lane results, RAW distances), every idle
//! slot and every SM completion — plus the final `RunStats` and output
//! words into one FNV-1a-64 digest per (scheme, kernel). The pinned values
//! were captured before the issue loop moved to scalar scheduling and a
//! warp-wide datapath; any change to scheduling order, timing, results or
//! fault application moves at least one digest.
//!
//! Two more digests pin the bytes of a traced Warped-DMR run: its JSONL
//! lines and its Chrome document, for a multi-launch program (BFS) and a
//! straight-line one (SHA).

use std::sync::Arc;
use warped::dmr::{DmrConfig, WarpedDmr};
use warped::kernels::{Benchmark, ProgramRun, WorkloadSize};
use warped::sim::{
    Gpu, GpuConfig, IssueInfo, IssueObserver, LaneFault, MultiObserver, SchedulerPolicy, SimError,
};
use warped::trace::{self, CollectSink, TraceEvent, TraceHandle};

/// FNV-1a over bytes; a word is its eight little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

struct StreamDigest(Fnv);

impl IssueObserver for StreamDigest {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        let h = &mut self.0;
        h.word(1);
        h.word(info.cycle);
        h.word(info.sm_id as u64);
        h.word(info.warp_slot as u64);
        h.word(info.warp_uid);
        h.word(info.block);
        h.word(u64::from(info.pc.0));
        h.word(u64::from(info.active_mask));
        h.word(u64::from(info.has_result));
        if info.has_result {
            for lane in 0..32 {
                if info.active_mask & (1 << lane) != 0 {
                    h.word(u64::from(info.results[lane]));
                }
            }
        }
        for d in info.raw_dists {
            h.word(d.map_or(u64::MAX, |d| d));
        }
        0
    }

    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        self.0.word(2);
        self.0.word(sm_id as u64);
        self.0.word(cycle);
    }

    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        self.0.word(3);
        self.0.word(sm_id as u64);
        self.0.word(cycle);
        0
    }
}

/// Flip one of bits 0-4, chosen by the cycle, of every value lane 5
/// produces. A flipped branch decision becomes a non-zero word other than
/// 1, so the pin also covers how the SM normalizes it.
struct FlipLane5;

impl LaneFault for FlipLane5 {
    fn corrupt(&self, _sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
        if lane == 5 {
            value ^ (1 << (cycle % 5))
        } else {
            value
        }
    }
}

fn fold_run(mut d: StreamDigest, run: Result<ProgramRun, SimError>) -> u64 {
    let h = &mut d.0;
    match run {
        Ok(run) => {
            let s = &run.stats;
            for v in [
                s.cycles,
                s.warp_instructions,
                s.thread_instructions,
                s.idle_cycles,
                s.stall_cycles,
                s.reg_reads,
                s.reg_writes,
                s.blocks,
                s.dual_issues,
                u64::from(run.launches),
            ] {
                h.word(v);
            }
            for v in s.sm_cycles.iter().chain(&s.unit_instructions) {
                h.word(*v);
            }
            for v in &s.unit_thread_instructions {
                h.word(*v);
            }
            h.word(run.output.len() as u64);
            for w in &run.output {
                h.word(u64::from(*w));
            }
        }
        Err(e) => {
            for b in format!("{e:?}").bytes() {
                h.word(u64::from(b));
            }
        }
    }
    d.0 .0
}

fn digest(scheme: &str, bench: Benchmark) -> u64 {
    let w = bench.build(WorkloadSize::Tiny).unwrap();
    let gpu = GpuConfig::small();
    let mut d = StreamDigest(Fnv::new());
    let run = match scheme {
        "gto" => w.run_with(&gpu, &mut d),
        "lrr" => {
            let gpu = GpuConfig {
                scheduler: SchedulerPolicy::LooseRoundRobin,
                ..gpu
            };
            w.run_with(&gpu, &mut d)
        }
        "dual" => {
            let gpu = GpuConfig {
                dual_issue: true,
                ..gpu
            };
            w.run_with(&gpu, &mut d)
        }
        "dmr" => {
            let mut engine = WarpedDmr::new(DmrConfig::default(), &gpu);
            let mut m = MultiObserver::new();
            m.push(&mut engine).push(&mut d);
            let run = w.run_with(&gpu, &mut m);
            drop(m);
            run
        }
        "fault" => {
            let mut chip = Gpu::new(gpu.with_cycle_budget(1 << 20));
            chip.set_fault(Arc::new(FlipLane5));
            w.run_on(&mut chip, &mut d)
        }
        _ => unreachable!("unknown scheme {scheme}"),
    };
    fold_run(d, run)
}

fn check(scheme: &str, pins: &[u64; 11]) {
    let got: Vec<u64> = Benchmark::ALL.iter().map(|&b| digest(scheme, b)).collect();
    let table: String = got.iter().map(|d| format!("    0x{d:016x},\n")).collect();
    assert_eq!(got, pins, "{scheme} digests moved; now:\n{table}");
}

#[test]
fn greedy_then_oldest_stream_is_pinned() {
    check(
        "gto",
        &[
            0xc7fdb9a2735bab11,
            0xb5541d96042cc088,
            0x6bb5c7faef6f46da,
            0x84bff87aefd2e90b,
            0x12ca1c3b87c14847,
            0xae3c1d7baf124858,
            0x302b5f714d09c807,
            0xf51f0889e50e3391,
            0xc1831be4808e9f4f,
            0xfbfda526f30326ca,
            0x5c88e5c1cf9b222c,
        ],
    );
}

#[test]
fn loose_round_robin_stream_is_pinned() {
    check(
        "lrr",
        &[
            0x3e264731ccb861c0,
            0x9313c1419c385dda,
            0x324d669e8a4a9b77,
            0x0c717853caf408be,
            0x7c4abe648d5539d5,
            0xb22d58b979ac4134,
            0x3783a1e2ab578d9b,
            0x08d82bec749bd20f,
            0xc1831be4808e9f4f,
            0xfbfda526f30326ca,
            0x5c88e5c1cf9b222c,
        ],
    );
}

#[test]
fn dual_issue_stream_is_pinned() {
    check(
        "dual",
        &[
            0xfb664bd499085990,
            0xc3d774b452374a28,
            0xc6ad87b359455b74,
            0xe736f5354edd1c13,
            0xead20fa5024d9505,
            0x1acbf7a2c7124561,
            0x03e55844f612b0ac,
            0x72131c5c37e2e48d,
            0xc1831be4808e9f4f,
            0xfbfda526f30326ca,
            0x5c88e5c1cf9b222c,
        ],
    );
}

#[test]
fn warped_dmr_stream_is_pinned() {
    check(
        "dmr",
        &[
            0xc7fdb9a2735bab11,
            0xc993f9af5cf2c60b,
            0xebb0823fe3690a5a,
            0x84bff87aefd2e90b,
            0x544745f11ce68247,
            0x637e2b8c94736c4c,
            0xbcaf25468c79235b,
            0x0b8137424e0dfe43,
            0xc1831be4808e9f4f,
            0xfbfda526f30326ca,
            0x5c88e5c1cf9b222c,
        ],
    );
}

#[test]
fn lane_fault_stream_is_pinned() {
    check(
        "fault",
        &[
            0x1a1e0e9c2c135c23,
            0x22a51371b17f9153,
            0xf03d79929e5ffa93,
            0x90de3413ee3ec55b,
            0x66b28001569fb0be,
            0x754ee4c77ae103fc,
            0x508fcd425bc8d298,
            0xb330f6266286103c,
            0xc2408d36d4f66660,
            0x7c2a973946025b81,
            0x9c5d1357099af945,
        ],
    );
}

/// The full event stream of a traced Warped-DMR run, as `warped trace`
/// records it.
fn traced_events(bench: Benchmark) -> Vec<TraceEvent> {
    let w = bench.build(WorkloadSize::Tiny).unwrap();
    let gpu = GpuConfig::small();
    let mut engine = WarpedDmr::new(DmrConfig::default(), &gpu);
    let (store, handle) = TraceHandle::shared(CollectSink::new());
    engine.set_trace(handle.clone());
    let run = w.run_traced(&gpu, &mut engine, handle).unwrap();
    w.check(&run).unwrap();
    let events = store.lock().unwrap().take();
    events
}

/// Digests of the JSONL lines and of the Chrome document.
fn trace_digests(bench: Benchmark) -> [u64; 2] {
    let events = traced_events(bench);
    let mut jsonl = Fnv::new();
    for ev in &events {
        jsonl.bytes(trace::jsonl::to_line(ev).as_bytes());
        jsonl.bytes(b"\n");
    }
    let mut doc = Vec::new();
    trace::chrome::write(&events, &mut doc).unwrap();
    let mut chrome = Fnv::new();
    chrome.bytes(&doc);
    [jsonl.0, chrome.0]
}

#[test]
fn traced_bfs_bytes_are_pinned() {
    let got = trace_digests(Benchmark::Bfs);
    assert_eq!(
        got,
        [0x7dc436b470c8ad84, 0x5b80c9da08b6d899],
        "BFS trace digests moved; now {got:#018x?}"
    );
}

#[test]
fn traced_sha_bytes_are_pinned() {
    let got = trace_digests(Benchmark::Sha);
    assert_eq!(
        got,
        [0x07417612c48fe2ec, 0x786a89b4a88ae5e8],
        "SHA trace digests moved; now {got:#018x?}"
    );
}
