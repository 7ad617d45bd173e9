//! Address sequences and multimedia workload generators.
//!
//! The paper evaluates address generators on the deterministic address
//! streams of data-transfer-intensive multimedia kernels. This crate
//! provides:
//!
//! * [`AddressSequence`] — an ordered stream of one-dimensional
//!   addresses with run-length and periodicity utilities,
//! * [`ArrayShape`]/[`Layout`] — 2-D array geometry and the
//!   linear ↔ (row, column) decomposition of paper §5 / Table 1,
//! * [`loopnest`] — a small affine loop-nest trace engine,
//! * [`workloads`] — the paper's concrete access patterns: the
//!   block-matching motion-estimation read/write sequences (Fig. 7),
//!   the separable DCT scan, the zoom-by-two image-scaling sequence
//!   and the FIFO/incremental sequence, plus generic block, raster,
//!   transpose and strided scans.
//!
//! # Example
//!
//! Reproduce paper Table 1 (4×4 image, 2×2 macroblocks, `m = 0`):
//!
//! ```
//! use adgen_seq::{workloads, ArrayShape, Layout};
//!
//! let shape = ArrayShape::new(4, 4);
//! let lin = workloads::motion_est_read(shape, 2, 2, 0);
//! assert_eq!(
//!     lin.as_slice(),
//!     &[0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
//! );
//! let (rows, cols) = lin.decompose(shape, Layout::RowMajor).unwrap();
//! assert_eq!(rows.as_slice(), &[0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3]);
//! assert_eq!(cols.as_slice(), &[0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3]);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod analysis;
pub mod error;
pub mod generator;
pub mod io;
pub mod loopnest;
pub mod sequence;
pub mod shape;
pub mod workloads;

pub use analysis::{RegularityClass, SequenceProfile};
pub use error::SeqError;
pub use generator::{AddressGenerator, ReplayGenerator};
pub use loopnest::{AffineIndex, LoopNest, LoopVar};
pub use sequence::AddressSequence;
pub use shape::{ArrayShape, Layout};
