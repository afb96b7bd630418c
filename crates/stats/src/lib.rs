//! # warped-stats
//!
//! Generic metrics substrate used across the Warped-DMR reproduction:
//!
//! * [`RangeHistogram`] — counts over contiguous integer ranges (paper
//!   Fig. 1's active-thread buckets, Fig. 5's unit-type shares).
//! * [`LogHistogram`] — power-of-two buckets (paper Fig. 8b's RAW
//!   dependency distances, which span 1..&gt;1000 cycles).
//! * [`RunLengthTracker`] — average run lengths of a keyed event stream
//!   (paper Fig. 8a's instruction-type switching distances).
//! * [`Table`] — aligned text and CSV rendering for experiment output.
//! * [`bars::stacked`] — ASCII stacked bar charts (terminal renditions of
//!   the paper's Fig. 1 / Fig. 5).
//!
//! The crate is deliberately dependency-free and domain-agnostic; the
//! simulator attaches these structures to its issue stream.
//!
//! ```
//! use warped_stats::RangeHistogram;
//!
//! // Paper Fig. 1 buckets: 1, 2-11, 12-21, 22-31, 32 active threads.
//! let mut h = RangeHistogram::new(&[1, 2, 12, 22, 32]);
//! h.record(1, 1);
//! h.record(17, 3);
//! assert_eq!(h.count(2), 3); // bucket [12, 22)
//! assert!((h.fraction(0) - 0.25).abs() < 1e-9);
//! ```

pub mod bars;
pub mod histogram;
pub mod runlength;
pub mod table;

pub use histogram::{LogHistogram, RangeHistogram};
pub use runlength::RunLengthTracker;
pub use table::Table;
