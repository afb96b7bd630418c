//! # warped-isa
//!
//! Instruction set architecture and kernel intermediate representation for the
//! Warped-DMR GPGPU reproduction (Jeon & Annavaram, MICRO 2012).
//!
//! The ISA is a small, PTX-flavoured register machine executed in SIMT
//! fashion by [`warped-sim`]. Instructions are classified into the three
//! execution-unit types the paper's inter-warp DMR distinguishes:
//! shader processors ([`UnitType::Sp`]), special function units
//! ([`UnitType::Sfu`]) and load/store units ([`UnitType::LdSt`]).
//!
//! Kernels are built with [`KernelBuilder`], which provides structured
//! control flow (`if`/`else`, `while`, counted loops) and records the
//! immediate post-dominator of every divergent branch so the simulator's
//! SIMT reconvergence stack can merge threads exactly where real hardware
//! would.
//!
//! ```
//! use warped_isa::{KernelBuilder, SpecialReg};
//!
//! # fn main() -> Result<(), warped_isa::KernelError> {
//! let mut b = KernelBuilder::new("axpy");
//! let tid = b.reg();
//! let x = b.reg();
//! b.mov(tid, SpecialReg::TidX);
//! let in_base = b.param(0);
//! let addr = b.reg();
//! b.iadd(addr, in_base, tid);
//! b.ld_global(x, addr, 0);
//! b.fmul(x, x, 2.0f32);
//! b.st_global(addr, 0, x);
//! b.exit();
//! let kernel = b.build()?;
//! assert_eq!(kernel.name(), "axpy");
//! # Ok(())
//! # }
//! ```
//!
//! [`warped-sim`]: ../warped_sim/index.html

pub mod builder;
pub mod disasm;
pub mod instruction;
pub mod kernel;
pub mod op;
pub mod reg;

pub use builder::KernelBuilder;
pub use instruction::{Instruction, Operand, Pc, RegUse, Space};
pub use kernel::{Kernel, KernelError};
pub use op::{AluBinOp, AluUnOp, CmpOp, CmpType, SfuOp, UnitType};
pub use reg::{Reg, SpecialReg};
