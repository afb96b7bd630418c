//! Shared workload infrastructure: deterministic input generation,
//! host↔device transfer footprints, and result checking.

use std::error::Error;
use std::fmt;

/// Deterministic 32-bit generator (SplitMix-style) for reproducible
/// workload inputs. Not cryptographic; chosen so host and experiments are
/// seed-stable across platforms.
#[derive(Debug, Clone)]
pub struct SplitMix32 {
    state: u64,
}

impl SplitMix32 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix32 { state: seed }
    }

    /// Next raw 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as u32
    }

    /// Uniform value in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u32) -> u32 {
        self.next_u32() % bound.max(1)
    }

    /// Uniform f32 in `[0, 1)`.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }
}

/// The integer hash used *inside* kernels that need per-thread
/// pseudo-randomness (Libor, MUM). The IR emits exactly these operations,
/// so the CPU reference can replay them bit-exactly.
pub fn device_hash(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    x
}

/// Host↔device transfer volume of a workload, in 32-bit words. Drives the
/// PCIe model of the paper's Fig. 10 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Words copied host → device before the kernel(s).
    pub input_words: u64,
    /// Words copied device → host after the kernel(s).
    pub output_words: u64,
}

/// A GPU result failed validation against the CPU reference.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// A word-for-word comparison failed.
    Mismatch {
        /// Which output element differs.
        index: usize,
        /// Value the GPU produced.
        got: u32,
        /// Value the CPU reference produced.
        expected: u32,
    },
    /// A float comparison exceeded tolerance.
    FloatMismatch {
        /// Which output element differs.
        index: usize,
        /// Value the GPU produced.
        got: f32,
        /// Value the CPU reference produced.
        expected: f32,
        /// Allowed absolute-or-relative tolerance.
        tolerance: f32,
    },
    /// Output has the wrong length.
    WrongLength {
        /// GPU output length.
        got: usize,
        /// Expected length.
        expected: usize,
    },
    /// A structural property failed (e.g. "output is sorted").
    Property {
        /// Description of the violated property.
        what: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Mismatch {
                index,
                got,
                expected,
            } => write!(
                f,
                "output[{index}] = {got:#x}, reference says {expected:#x}"
            ),
            CheckError::FloatMismatch {
                index,
                got,
                expected,
                tolerance,
            } => write!(
                f,
                "output[{index}] = {got}, reference says {expected} (tol {tolerance})"
            ),
            CheckError::WrongLength { got, expected } => {
                write!(f, "output has {got} words, expected {expected}")
            }
            CheckError::Property { what } => write!(f, "property violated: {what}"),
        }
    }
}

impl Error for CheckError {}

/// Compare two u32 output vectors exactly.
///
/// # Errors
///
/// Returns the first [`CheckError::Mismatch`] (or
/// [`CheckError::WrongLength`]).
pub fn check_exact(got: &[u32], expected: &[u32]) -> Result<(), CheckError> {
    if got.len() != expected.len() {
        return Err(CheckError::WrongLength {
            got: got.len(),
            expected: expected.len(),
        });
    }
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        if g != e {
            return Err(CheckError::Mismatch {
                index: i,
                got: *g,
                expected: *e,
            });
        }
    }
    Ok(())
}

/// Compare two f32 output vectors (bit vectors) with a combined
/// absolute/relative tolerance.
///
/// # Errors
///
/// Returns the first [`CheckError::FloatMismatch`] (or
/// [`CheckError::WrongLength`]).
pub fn check_f32(got: &[u32], expected: &[f32], tolerance: f32) -> Result<(), CheckError> {
    if got.len() != expected.len() {
        return Err(CheckError::WrongLength {
            got: got.len(),
            expected: expected.len(),
        });
    }
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        let gf = f32::from_bits(*g);
        let bound = tolerance * (1.0 + e.abs());
        if !(gf - e).abs().le(&bound) {
            return Err(CheckError::FloatMismatch {
                index: i,
                got: gf,
                expected: *e,
                tolerance,
            });
        }
    }
    Ok(())
}

/// Convert a slice of f32 to its bit representation (for device upload).
pub fn to_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix32::new(42);
        let mut b = SplitMix32::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = SplitMix32::new(43);
        assert_ne!(a.next_u32(), c.next_u32());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix32::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn unit_f32_in_range() {
        let mut r = SplitMix32::new(7);
        for _ in 0..1000 {
            let x = r.unit_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn device_hash_spreads() {
        // Not a statistical test — just that nearby inputs diverge.
        assert_ne!(device_hash(1), device_hash(2));
        assert_eq!(device_hash(0), 0); // fixed point by construction
        assert_ne!(device_hash(3), device_hash(4));
    }

    #[test]
    fn check_exact_reports_first_difference() {
        assert!(check_exact(&[1, 2, 3], &[1, 2, 3]).is_ok());
        let err = check_exact(&[1, 9, 3], &[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            CheckError::Mismatch {
                index: 1,
                got: 9,
                expected: 2
            }
        );
        assert!(matches!(
            check_exact(&[1], &[1, 2]),
            Err(CheckError::WrongLength {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn check_f32_tolerates_small_error() {
        let e = [1.0f32, 2.0];
        let g = vec![1.0000001f32.to_bits(), 2.0f32.to_bits()];
        assert!(check_f32(&g, &e, 1e-5).is_ok());
        let bad = vec![1.1f32.to_bits(), 2.0f32.to_bits()];
        assert!(check_f32(&bad, &e, 1e-5).is_err());
    }

    #[test]
    fn check_f32_rejects_nan() {
        let e = [1.0f32];
        let g = vec![f32::NAN.to_bits()];
        assert!(check_f32(&g, &e, 1e-3).is_err());
    }

    #[test]
    fn error_display_nonempty() {
        let errs: [CheckError; 4] = [
            CheckError::Mismatch {
                index: 0,
                got: 1,
                expected: 2,
            },
            CheckError::FloatMismatch {
                index: 0,
                got: 1.0,
                expected: 2.0,
                tolerance: 0.1,
            },
            CheckError::WrongLength {
                got: 1,
                expected: 2,
            },
            CheckError::Property {
                what: "sortedness".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
