//! Pure functional semantics of every opcode.
//!
//! The `eval_*` helpers compute one lane's result and are the only
//! definition of each opcode. The SM executes a whole warp at once through
//! the `*_vec` wrappers, which dispatch the opcode once and then run a
//! straight loop over all 32 lanes. Keeping the helpers pure makes the ISA
//! semantics independently testable and lets the fault-injection campaign
//! re-derive "golden" values.

use crate::value::{as_f32, f32_to_i32, f32_to_u32, fmax, fmin, from_f32};
use crate::warp::Row;
use crate::WARP_SIZE;
use warped_isa::{AluBinOp, AluUnOp, CmpOp, CmpType, SfuOp};

/// `per_variant!(op in Enum [A, B, ...] => body)` expands `body` once per
/// listed variant, with `op` rebound to that variant. Each arm then calls
/// an inlined `eval_*` on a constant opcode, so its `match` folds away and
/// the arm is a plain lane loop. Listing every variant keeps the `match`
/// exhaustive: a new opcode fails to compile here until it is added.
macro_rules! per_variant {
    ($op:ident in $ty:ident [$($var:ident),+ $(,)?] => $body:expr) => {
        match $op {
            $($ty::$var => {
                let $op = $ty::$var;
                $body
            })+
        }
    };
}

/// Apply `f` to every lane of `a`.
#[inline(always)]
pub(crate) fn map1(a: &Row, f: impl Fn(u32) -> u32) -> Row {
    let mut out = [0; WARP_SIZE];
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
    out
}

/// Apply `f` lane-wise to `a` and `b`.
#[inline(always)]
fn map2(a: &Row, b: &Row, f: impl Fn(u32, u32) -> u32) -> Row {
    let mut out = [0; WARP_SIZE];
    for (l, o) in out.iter_mut().enumerate() {
        *o = f(a[l], b[l]);
    }
    out
}

/// Apply `f` lane-wise to `a`, `b` and `c`.
#[inline(always)]
pub(crate) fn map3(a: &Row, b: &Row, c: &Row, f: impl Fn(u32, u32, u32) -> u32) -> Row {
    let mut out = [0; WARP_SIZE];
    for (l, o) in out.iter_mut().enumerate() {
        *o = f(a[l], b[l], c[l]);
    }
    out
}

/// [`eval_bin`] on every lane.
pub fn bin_vec(op: AluBinOp, a: &Row, b: &Row) -> Row {
    per_variant!(op in AluBinOp [
        IAdd, ISub, IMul, IMulHi, IMin, IMax, UMin, UMax, And, Or, Xor,
        Shl, Shr, Sra, URem, UDiv, FAdd, FSub, FMul, FMin, FMax,
    ] => map2(a, b, |x, y| eval_bin(op, x, y)))
}

/// [`eval_un`] on every lane.
pub fn un_vec(op: AluUnOp, a: &Row) -> Row {
    per_variant!(op in AluUnOp [
        Mov, Not, INeg, FNeg, FAbs, CvtI2F, CvtU2F, CvtF2I, CvtF2U, Clz, Popc,
    ] => map1(a, |x| eval_un(op, x)))
}

/// [`eval_cmp`] on every lane.
pub fn cmp_vec(cmp: CmpOp, ty: CmpType, a: &Row, b: &Row) -> Row {
    per_variant!(ty in CmpType [I32, U32, F32] => per_variant!(
        cmp in CmpOp [Eq, Ne, Lt, Le, Gt, Ge] => map2(a, b, |x, y| eval_cmp(cmp, ty, x, y))
    ))
}

/// Evaluate a two-operand ALU op.
#[inline(always)]
pub fn eval_bin(op: AluBinOp, a: u32, b: u32) -> u32 {
    match op {
        AluBinOp::IAdd => a.wrapping_add(b),
        AluBinOp::ISub => a.wrapping_sub(b),
        AluBinOp::IMul => a.wrapping_mul(b),
        AluBinOp::IMulHi => ((a as u64 * b as u64) >> 32) as u32,
        AluBinOp::IMin => (a as i32).min(b as i32) as u32,
        AluBinOp::IMax => (a as i32).max(b as i32) as u32,
        AluBinOp::UMin => a.min(b),
        AluBinOp::UMax => a.max(b),
        AluBinOp::And => a & b,
        AluBinOp::Or => a | b,
        AluBinOp::Xor => a ^ b,
        AluBinOp::Shl => a << (b & 31),
        AluBinOp::Shr => a >> (b & 31),
        AluBinOp::Sra => ((a as i32) >> (b & 31)) as u32,
        AluBinOp::URem => a.checked_rem(b).unwrap_or(0),
        AluBinOp::UDiv => a.checked_div(b).unwrap_or(0),
        AluBinOp::FAdd => from_f32(as_f32(a) + as_f32(b)),
        AluBinOp::FSub => from_f32(as_f32(a) - as_f32(b)),
        AluBinOp::FMul => from_f32(as_f32(a) * as_f32(b)),
        AluBinOp::FMin => from_f32(fmin(as_f32(a), as_f32(b))),
        AluBinOp::FMax => from_f32(fmax(as_f32(a), as_f32(b))),
    }
}

/// Evaluate a one-operand ALU op.
#[inline(always)]
pub fn eval_un(op: AluUnOp, a: u32) -> u32 {
    match op {
        AluUnOp::Mov => a,
        AluUnOp::Not => !a,
        AluUnOp::INeg => (a as i32).wrapping_neg() as u32,
        AluUnOp::FNeg => from_f32(-as_f32(a)),
        AluUnOp::FAbs => from_f32(as_f32(a).abs()),
        AluUnOp::CvtI2F => from_f32(a as i32 as f32),
        AluUnOp::CvtU2F => from_f32(a as f32),
        AluUnOp::CvtF2I => f32_to_i32(as_f32(a)) as u32,
        AluUnOp::CvtF2U => f32_to_u32(as_f32(a)),
        AluUnOp::Clz => a.leading_zeros(),
        AluUnOp::Popc => a.count_ones(),
    }
}

/// Evaluate an integer multiply-add (`a * b + c`, wrapping).
pub fn eval_imad(a: u32, b: u32, c: u32) -> u32 {
    a.wrapping_mul(b).wrapping_add(c)
}

/// Evaluate a fused float multiply-add.
pub fn eval_ffma(a: u32, b: u32, c: u32) -> u32 {
    from_f32(as_f32(a).mul_add(as_f32(b), as_f32(c)))
}

/// Evaluate a transcendental SFU op.
pub fn eval_sfu(op: SfuOp, a: u32) -> u32 {
    let x = as_f32(a);
    let r = match op {
        SfuOp::Sin => x.sin(),
        SfuOp::Cos => x.cos(),
        SfuOp::Sqrt => x.sqrt(),
        SfuOp::Rsqrt => 1.0 / x.sqrt(),
        SfuOp::Rcp => 1.0 / x,
        SfuOp::Ex2 => x.exp2(),
        SfuOp::Lg2 => x.log2(),
    };
    from_f32(r)
}

/// Evaluate a comparison, returning 1 or 0.
#[inline(always)]
pub fn eval_cmp(cmp: CmpOp, ty: CmpType, a: u32, b: u32) -> u32 {
    let r = match ty {
        CmpType::I32 => {
            let (a, b) = (a as i32, b as i32);
            match cmp {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        }
        CmpType::U32 => match cmp {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        },
        CmpType::F32 => {
            let (a, b) = (as_f32(a), as_f32(b));
            match cmp {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        }
    };
    r as u32
}

/// Evaluate a select.
pub fn eval_sel(cond: u32, if_true: u32, if_false: u32) -> u32 {
    if cond != 0 {
        if_true
    } else {
        if_false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BIN_OPS: [AluBinOp; 21] = {
        use AluBinOp::*;
        [
            IAdd, ISub, IMul, IMulHi, IMin, IMax, UMin, UMax, And, Or, Xor, Shl, Shr, Sra, URem,
            UDiv, FAdd, FSub, FMul, FMin, FMax,
        ]
    };
    const UN_OPS: [AluUnOp; 11] = {
        use AluUnOp::*;
        [
            Mov, Not, INeg, FNeg, FAbs, CvtI2F, CvtU2F, CvtF2I, CvtF2U, Clz, Popc,
        ]
    };
    const CMP_OPS: [CmpOp; 6] = {
        use CmpOp::*;
        [Eq, Ne, Lt, Le, Gt, Ge]
    };
    const CMP_TYPES: [CmpType; 3] = [CmpType::I32, CmpType::U32, CmpType::F32];

    fn lanes() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(any::<u32>(), 32..33)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The warp-wide wrappers dispatch each opcode to its own `eval_*`
        /// and keep lanes aligned.
        #[test]
        fn vec_ops_match_per_lane_eval(a in lanes(), b in lanes(), small in lanes(), tie in any::<u32>()) {
            let a: Row = a.try_into().unwrap();
            // Mix in small operands (shift amounts, divisors, exact
            // floats) and lanes with equal operands (comparison ties).
            let b: Row = std::array::from_fn(|l| match (tie >> l) & 3 {
                0 => a[l],
                1 => small[l] % 33,
                _ => b[l],
            });
            for op in BIN_OPS {
                let got = bin_vec(op, &a, &b);
                for l in 0..WARP_SIZE {
                    prop_assert_eq!(got[l], eval_bin(op, a[l], b[l]), "{:?} lane {}", op, l);
                }
            }
            for op in UN_OPS {
                let got = un_vec(op, &b);
                for l in 0..WARP_SIZE {
                    prop_assert_eq!(got[l], eval_un(op, b[l]), "{:?} lane {}", op, l);
                }
            }
            for ty in CMP_TYPES {
                for cmp in CMP_OPS {
                    let got = cmp_vec(cmp, ty, &a, &b);
                    for l in 0..WARP_SIZE {
                        prop_assert_eq!(
                            got[l],
                            eval_cmp(cmp, ty, a[l], b[l]),
                            "{:?} {:?} lane {}", cmp, ty, l
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn integer_ops_wrap() {
        assert_eq!(eval_bin(AluBinOp::IAdd, u32::MAX, 1), 0);
        assert_eq!(eval_bin(AluBinOp::ISub, 0, 1), u32::MAX);
        assert_eq!(eval_bin(AluBinOp::IMul, 0x8000_0000, 2), 0);
    }

    #[test]
    fn mulhi_matches_wide_product() {
        assert_eq!(eval_bin(AluBinOp::IMulHi, u32::MAX, u32::MAX), 0xffff_fffe);
        assert_eq!(eval_bin(AluBinOp::IMulHi, 2, 3), 0);
    }

    #[test]
    fn signed_vs_unsigned_minmax() {
        let neg1 = -1i32 as u32;
        assert_eq!(eval_bin(AluBinOp::IMin, neg1, 1), neg1);
        assert_eq!(eval_bin(AluBinOp::UMin, neg1, 1), 1);
        assert_eq!(eval_bin(AluBinOp::IMax, neg1, 1), 1);
        assert_eq!(eval_bin(AluBinOp::UMax, neg1, 1), neg1);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(eval_bin(AluBinOp::Shl, 1, 33), 2);
        assert_eq!(eval_bin(AluBinOp::Shr, 0x8000_0000, 31), 1);
        assert_eq!(eval_bin(AluBinOp::Sra, 0x8000_0000, 31), u32::MAX);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        assert_eq!(eval_bin(AluBinOp::UDiv, 5, 0), 0);
        assert_eq!(eval_bin(AluBinOp::URem, 5, 0), 0);
        assert_eq!(eval_bin(AluBinOp::UDiv, 7, 2), 3);
        assert_eq!(eval_bin(AluBinOp::URem, 7, 2), 1);
    }

    #[test]
    fn float_ops_bitcast() {
        let a = 1.5f32.to_bits();
        let b = 2.5f32.to_bits();
        assert_eq!(eval_bin(AluBinOp::FAdd, a, b), 4.0f32.to_bits());
        assert_eq!(eval_bin(AluBinOp::FMul, a, b), 3.75f32.to_bits());
        assert_eq!(eval_ffma(a, b, a), (1.5f32.mul_add(2.5, 1.5)).to_bits());
    }

    #[test]
    fn unary_ops() {
        assert_eq!(eval_un(AluUnOp::Not, 0), u32::MAX);
        assert_eq!(eval_un(AluUnOp::INeg, 5), (-5i32) as u32);
        assert_eq!(eval_un(AluUnOp::Clz, 1), 31);
        assert_eq!(eval_un(AluUnOp::Popc, 0b1011), 3);
        assert_eq!(
            eval_un(AluUnOp::CvtI2F, (-2i32) as u32),
            (-2.0f32).to_bits()
        );
        assert_eq!(eval_un(AluUnOp::CvtF2I, 3.9f32.to_bits()), 3);
    }

    #[test]
    fn imad_composes() {
        assert_eq!(eval_imad(3, 4, 5), 17);
        assert_eq!(eval_imad(u32::MAX, 2, 3), 1);
    }

    #[test]
    fn sfu_ops_are_close() {
        let x = 0.5f32;
        let sin = f32::from_bits(eval_sfu(SfuOp::Sin, x.to_bits()));
        assert!((sin - x.sin()).abs() < 1e-6);
        let r = f32::from_bits(eval_sfu(SfuOp::Rcp, 4.0f32.to_bits()));
        assert_eq!(r, 0.25);
        let e = f32::from_bits(eval_sfu(SfuOp::Ex2, 3.0f32.to_bits()));
        assert_eq!(e, 8.0);
    }

    #[test]
    fn comparisons_respect_type() {
        let neg1 = -1i32 as u32;
        assert_eq!(eval_cmp(CmpOp::Lt, CmpType::I32, neg1, 0), 1);
        assert_eq!(eval_cmp(CmpOp::Lt, CmpType::U32, neg1, 0), 0);
        let a = 1.0f32.to_bits();
        let b = 2.0f32.to_bits();
        assert_eq!(eval_cmp(CmpOp::Lt, CmpType::F32, a, b), 1);
        let nan = f32::NAN.to_bits();
        assert_eq!(eval_cmp(CmpOp::Eq, CmpType::F32, nan, nan), 0);
        assert_eq!(eval_cmp(CmpOp::Ne, CmpType::F32, nan, nan), 1);
    }

    #[test]
    fn select_picks_branch() {
        assert_eq!(eval_sel(1, 10, 20), 10);
        assert_eq!(eval_sel(0, 10, 20), 20);
        assert_eq!(eval_sel(0xff, 10, 20), 10);
    }
}
