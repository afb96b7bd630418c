//! Instruction encoding.
//!
//! Instructions are SIMT: one instruction is executed by every active lane
//! of a warp, each lane reading its own copies of the register operands.

use crate::op::{AluBinOp, AluUnOp, CmpOp, CmpType, SfuOp, UnitType};
use crate::reg::{Reg, SpecialReg};
use std::fmt;

/// Program counter: an index into a kernel's instruction vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pc(pub u32);

impl Pc {
    /// Sentinel used for the root SIMT-stack entry, which never reconverges.
    pub const INVALID: Pc = Pc(u32::MAX);

    /// Index into the instruction vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The next sequential program counter.
    #[inline]
    pub fn next(self) -> Pc {
        Pc(self.0 + 1)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Pc::INVALID {
            f.write_str("@invalid")
        } else {
            write!(f, "@{}", self.0)
        }
    }
}

/// Memory space addressed by loads and stores.
///
/// Both spaces are word-addressed: an address of `n` names the `n`-th 32-bit
/// word. The paper assumes all memories are ECC protected, so Warped-DMR
/// verifies only the address computation of memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device-global memory, shared by all blocks (high latency).
    Global,
    /// Per-block shared memory / scratchpad (low latency).
    Shared,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Space::Global => "global",
            Space::Shared => "shared",
        })
    }
}

/// A readable instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A per-thread general-purpose register.
    Reg(Reg),
    /// A 32-bit immediate (bit pattern; may encode an f32).
    Imm(u32),
    /// A hardware special register (`%tid`, `%ctaid`, ...).
    Special(SpecialReg),
    /// A kernel launch parameter (uniform across all threads).
    Param(u8),
}

impl Operand {
    /// The register read by this operand, if any.
    #[inline]
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v as u32)
    }
}

impl From<f32> for Operand {
    fn from(v: f32) -> Self {
        Operand::Imm(v.to_bits())
    }
}

impl From<SpecialReg> for Operand {
    fn from(s: SpecialReg) -> Self {
        Operand::Special(s)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "0x{v:x}"),
            Operand::Special(s) => write!(f, "{s}"),
            Operand::Param(i) => write!(f, "%param{i}"),
        }
    }
}

/// A single SIMT instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// Two-operand ALU operation: `dst = op(a, b)`.
    Bin {
        /// The operation.
        op: AluBinOp,
        /// Destination register.
        dst: Reg,
        /// First operand.
        a: Operand,
        /// Second operand.
        b: Operand,
    },
    /// One-operand ALU operation: `dst = op(a)`.
    Un {
        /// The operation.
        op: AluUnOp,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Operand,
    },
    /// Integer multiply-add: `dst = a * b + c` (wrapping, low 32 bits).
    IMad {
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// Fused float multiply-add: `dst = a * b + c`.
    FFma {
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// Set predicate: `dst = (a cmp b) ? 1 : 0`.
    Setp {
        /// Comparison predicate.
        cmp: CmpOp,
        /// Operand interpretation.
        ty: CmpType,
        /// Destination register (holds 0 or 1).
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Select: `dst = cond != 0 ? if_true : if_false`.
    Sel {
        /// Destination register.
        dst: Reg,
        /// Condition operand.
        cond: Operand,
        /// Value when condition is non-zero.
        if_true: Operand,
        /// Value when condition is zero.
        if_false: Operand,
    },
    /// Special-function operation: `dst = op(a)` on the SFU.
    Sfu {
        /// The transcendental operation.
        op: SfuOp,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Operand,
    },
    /// Load: `dst = mem[addr + offset]` (word addressed).
    Ld {
        /// Memory space.
        space: Space,
        /// Destination register.
        dst: Reg,
        /// Base word address.
        addr: Operand,
        /// Word offset added to the base.
        offset: i32,
    },
    /// Store: `mem[addr + offset] = src` (word addressed).
    St {
        /// Memory space.
        space: Space,
        /// Base word address.
        addr: Operand,
        /// Word offset added to the base.
        offset: i32,
        /// Value to store.
        src: Operand,
    },
    /// Conditional branch. Lanes whose `pred != 0` (xor `negate`) jump to
    /// `target`; others fall through. `reconv` is the immediate
    /// post-dominator where diverged lanes rejoin.
    Branch {
        /// Predicate register (0 = false, non-zero = true).
        pred: Reg,
        /// When true, lanes with `pred == 0` take the branch instead.
        negate: bool,
        /// Branch target.
        target: Pc,
        /// Reconvergence point (immediate post-dominator).
        reconv: Pc,
    },
    /// Unconditional jump (uniform; never diverges).
    Jump {
        /// Jump target.
        target: Pc,
    },
    /// Block-wide barrier (`bar.sync`). All live warps of the block must
    /// arrive before any proceeds.
    Bar,
    /// Terminate the executing lanes.
    Exit,
}

/// The registers one instruction reads and writes: what the scoreboard,
/// the RAW rule and the trace need of each issue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegUse {
    /// Registers read, as [`Instruction::src_regs`].
    pub srcs: [Option<Reg>; 4],
    /// Register written, as [`Instruction::dst`].
    pub dst: Option<Reg>,
}

impl Instruction {
    /// Which execution unit this instruction occupies when issued.
    ///
    /// Control instructions execute on the SP datapath, matching the paper's
    /// three-way SP / SFU / LD-ST classification.
    pub fn unit(&self) -> UnitType {
        // Deny-by-default: every variant is matched explicitly so a new
        // opcode fails to compile until its unit is classified.
        match self {
            Instruction::Sfu { .. } => UnitType::Sfu,
            Instruction::Ld { .. } | Instruction::St { .. } => UnitType::LdSt,
            Instruction::Bin { .. }
            | Instruction::Un { .. }
            | Instruction::IMad { .. }
            | Instruction::FFma { .. }
            | Instruction::Setp { .. }
            | Instruction::Sel { .. }
            | Instruction::Branch { .. }
            | Instruction::Jump { .. }
            | Instruction::Bar
            | Instruction::Exit => UnitType::Sp,
        }
    }

    /// The destination register written by this instruction, if any.
    #[inline]
    pub fn dst(&self) -> Option<Reg> {
        // Deny-by-default: adding a variant forces a decision here, so
        // the dataflow pass and the RAW rule can never silently miss a
        // new opcode's definition.
        match *self {
            Instruction::Bin { dst, .. }
            | Instruction::Un { dst, .. }
            | Instruction::IMad { dst, .. }
            | Instruction::FFma { dst, .. }
            | Instruction::Setp { dst, .. }
            | Instruction::Sel { dst, .. }
            | Instruction::Sfu { dst, .. }
            | Instruction::Ld { dst, .. } => Some(dst),
            Instruction::St { .. }
            | Instruction::Branch { .. }
            | Instruction::Jump { .. }
            | Instruction::Bar
            | Instruction::Exit => None,
        }
    }

    /// Registers read by this instruction (up to 4).
    ///
    /// The returned array is padded with `None`; duplicates are possible
    /// when the same register appears as several operands.
    #[inline]
    pub fn src_regs(&self) -> [Option<Reg>; 4] {
        fn r(o: &Operand) -> Option<Reg> {
            o.reg()
        }
        match self {
            Instruction::Bin { a, b, .. } => [r(a), r(b), None, None],
            Instruction::Un { a, .. } => [r(a), None, None, None],
            Instruction::IMad { a, b, c, .. } | Instruction::FFma { a, b, c, .. } => {
                [r(a), r(b), r(c), None]
            }
            Instruction::Setp { a, b, .. } => [r(a), r(b), None, None],
            Instruction::Sel {
                cond,
                if_true,
                if_false,
                ..
            } => [r(cond), r(if_true), r(if_false), None],
            Instruction::Sfu { a, .. } => [r(a), None, None, None],
            Instruction::Ld { addr, .. } => [r(addr), None, None, None],
            Instruction::St { addr, src, .. } => [r(addr), r(src), None, None],
            Instruction::Branch { pred, .. } => [Some(*pred), None, None, None],
            Instruction::Jump { .. } | Instruction::Bar | Instruction::Exit => {
                [None, None, None, None]
            }
        }
    }

    /// Whether issuing this produces a per-lane value Warped-DMR verifies
    /// (all but `jump`, `bar` and `exit`, which stay outside both DMR
    /// paths and the coverage denominator).
    #[inline]
    pub fn has_result(&self) -> bool {
        !matches!(
            self,
            Instruction::Jump { .. } | Instruction::Bar | Instruction::Exit
        )
    }

    /// The registers this instruction reads and writes, decoded together.
    /// The simulator decodes each issue's registers once, through this,
    /// and hands them to every observer in its `IssueInfo`.
    #[inline]
    pub fn reg_use(&self) -> RegUse {
        RegUse {
            srcs: self.src_regs(),
            dst: self.dst(),
        }
    }

    /// Whether this is a control-flow instruction (branch, jump, exit).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. } | Instruction::Jump { .. } | Instruction::Exit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_classification() {
        let add = Instruction::Bin {
            op: AluBinOp::IAdd,
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
            b: Operand::Imm(3),
        };
        assert_eq!(add.unit(), UnitType::Sp);

        let sin = Instruction::Sfu {
            op: SfuOp::Sin,
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
        };
        assert_eq!(sin.unit(), UnitType::Sfu);

        let ld = Instruction::Ld {
            space: Space::Global,
            dst: Reg(0),
            addr: Operand::Reg(Reg(1)),
            offset: 0,
        };
        assert_eq!(ld.unit(), UnitType::LdSt);

        let br = Instruction::Branch {
            pred: Reg(2),
            negate: false,
            target: Pc(5),
            reconv: Pc(9),
        };
        assert_eq!(br.unit(), UnitType::Sp);
    }

    #[test]
    fn dst_and_srcs() {
        let mad = Instruction::IMad {
            dst: Reg(3),
            a: Operand::Reg(Reg(0)),
            b: Operand::Reg(Reg(1)),
            c: Operand::Reg(Reg(2)),
        };
        assert_eq!(mad.dst(), Some(Reg(3)));
        let srcs = mad.src_regs();
        assert_eq!(srcs, [Some(Reg(0)), Some(Reg(1)), Some(Reg(2)), None]);
        assert_eq!(
            mad.reg_use(),
            RegUse {
                srcs,
                dst: Some(Reg(3))
            }
        );

        let st = Instruction::St {
            space: Space::Shared,
            addr: Operand::Reg(Reg(4)),
            offset: 1,
            src: Operand::Imm(0),
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.src_regs(), [Some(Reg(4)), None, None, None]);
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(1)), Operand::Reg(Reg(1)));
        assert_eq!(Operand::from(7u32), Operand::Imm(7));
        assert_eq!(Operand::from(-1i32), Operand::Imm(u32::MAX));
        assert_eq!(Operand::from(1.0f32), Operand::Imm(1.0f32.to_bits()));
    }

    #[test]
    fn pc_helpers() {
        assert_eq!(Pc(3).next(), Pc(4));
        assert_eq!(Pc(3).index(), 3);
        assert_eq!(Pc::INVALID.to_string(), "@invalid");
        assert_eq!(Pc(3).to_string(), "@3");
    }

    #[test]
    fn control_classification() {
        assert!(Instruction::Exit.is_control());
        assert!(Instruction::Jump { target: Pc(0) }.is_control());
        assert!(!Instruction::Bar.is_control());
    }
}
