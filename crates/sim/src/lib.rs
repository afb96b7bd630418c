//! # warped-sim
//!
//! A from-scratch, cycle-level SIMT GPGPU simulator — the substrate the
//! Warped-DMR reproduction runs on (the paper used GPGPU-Sim v3.0.2; see
//! DESIGN.md for the substitution argument).
//!
//! The model follows the paper's Fermi-style baseline (paper Table 3 and
//! Fig. 2/7):
//!
//! * a chip of [`GpuConfig::num_sms`] streaming multiprocessors (SMs);
//! * each SM issues **at most one warp-instruction per cycle** to one of
//!   three execution-unit types (SP / SFU / LD-ST), which are
//!   super-pipelined (back-to-back issue allowed);
//! * warps of 32 threads sharing one PC, with branch divergence handled by
//!   a PDOM-style [`SimtStack`];
//! * a per-warp scoreboard enforcing RAW/WAW hazards across the
//!   FETCH(1) / DEC(1) / RF(3) / EXE(op-dependent) pipeline;
//! * per-block shared memory and device-global memory with fixed latencies
//!   (both assumed ECC-protected, per the paper).
//!
//! Execution is *functional + timing*: instructions compute real values
//! (the benchmark kernels produce checkable results) while the issue/stall
//! schedule produces the cycle counts the experiments report.
//!
//! Warped-DMR, the DMTR baseline, and all statistics collectors attach to
//! the simulator through the [`IssueObserver`] trait, which sees every
//! issue slot (and idle slot) of every SM and may charge stall cycles —
//! exactly the vantage point of the paper's Replay Checker sitting between
//! the DEC and RF stages. The observer is the simulator's only output
//! channel: cycle-level tracing wraps it from outside (`run_traced` in
//! `warped-kernels`), so this crate does not depend on `warped-trace`.
//!
//! ```
//! use warped_isa::{KernelBuilder, SpecialReg};
//! use warped_sim::{Gpu, GpuConfig, LaunchConfig, NullObserver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // out[i] = i * 2
//! let mut b = KernelBuilder::new("double");
//! let [tid, v, addr] = b.regs();
//! b.mov(tid, SpecialReg::GlobalTid);
//! b.shl(v, tid, 1u32);
//! let out = b.param(0);
//! b.iadd(addr, out, tid);
//! b.st_global(addr, 0, v);
//! let kernel = b.build()?;
//!
//! let mut gpu = Gpu::new(GpuConfig::small());
//! let out_buf = gpu.alloc_words(64);
//! let launch = LaunchConfig::linear(2, 32).with_params(vec![out_buf]);
//! let stats = gpu.launch(&kernel, &launch, &mut NullObserver)?;
//! assert!(stats.cycles > 0);
//! assert_eq!(gpu.read_words(out_buf, 64)[5], 10);
//! # Ok(())
//! # }
//! ```

pub mod collectors;
pub mod config;
pub mod fault;
pub mod functional;
pub mod gpu;
pub mod launch;
pub mod memory;
pub mod observer;
pub mod regfile;
pub mod replay;
pub mod simt_stack;
pub mod sm;
pub mod value;
pub mod warp;

pub use config::{GpuConfig, SchedulerPolicy, WARP_SIZE};
pub use fault::{LaneFault, NoFault};
pub use gpu::Gpu;
pub use launch::{LaunchConfig, RunStats, SimError};
pub use observer::{IssueInfo, IssueObserver, MultiObserver, NullObserver};
pub use replay::{LaunchLog, LaunchSet};
pub use simt_stack::SimtStack;
