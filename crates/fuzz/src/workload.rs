//! The loop-nest workload the four structural families
//! (`srag-vs-cntag`, `gate-level`, `cosim`, `sliced-vs-scalar`) run:
//! its draw, its description, its reference stream and its shrink
//! steps.

use std::fmt;

use adgen_core::composite::Srag2d;
use adgen_exec::Prng;
use adgen_seq::{workloads, AddressSequence, ArrayShape, Layout};

use crate::draw::pow2;
use crate::families::Context;

/// Which of the paper's loop-nest workloads a structural case runs.
///
/// Only kernels that both the SRAG mapper and the counter-cascade
/// baseline can realize are eligible, so every architecture in the
/// oracle matrix produces the same stream by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkloadKind {
    /// Raster / FIFO scan.
    Fifo,
    /// Block-matching motion estimation (`mb`×`mb` macroblocks,
    /// search range `m`).
    MotionEst,
    /// Zoom-by-two read pattern.
    ZoomByTwo,
    /// Transpose / separable-DCT column scan.
    Transpose,
}

impl WorkloadKind {
    /// Short stable label used in failure reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            WorkloadKind::Fifo => "fifo",
            WorkloadKind::MotionEst => "motion_est",
            WorkloadKind::ZoomByTwo => "zoom_by_two",
            WorkloadKind::Transpose => "transpose",
        }
    }
}

/// A workload kernel on a power-of-two array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Workload {
    /// Workload kernel.
    pub(crate) kind: WorkloadKind,
    /// Array width (power of two).
    pub(crate) width: u32,
    /// Array height (power of two).
    pub(crate) height: u32,
    /// Macroblock edge (motion estimation only): a power of two
    /// dividing both dimensions.
    pub(crate) mb: u32,
}

impl Workload {
    /// Draws a kernel, a `2^1..=2^max_log` shape and a macroblock.
    pub(crate) fn draw(rng: &mut Prng, max_log: u32) -> Workload {
        let kind = match rng.next_range(4) {
            0 => WorkloadKind::Fifo,
            1 => WorkloadKind::MotionEst,
            2 => WorkloadKind::ZoomByTwo,
            _ => WorkloadKind::Transpose,
        };
        let width = pow2(rng, 1, max_log);
        let height = pow2(rng, 1, max_log);
        let mb = pow2(rng, 0, width.min(height).trailing_zeros());
        Workload {
            kind,
            width,
            height,
            mb,
        }
    }

    /// The array shape.
    pub(crate) fn shape(&self) -> ArrayShape {
        ArrayShape::new(self.width, self.height)
    }

    /// The kernel's reference address stream; `m` is the motion
    /// estimation search range.
    pub(crate) fn reference(&self, m: u32) -> AddressSequence {
        let shape = self.shape();
        match self.kind {
            WorkloadKind::Fifo => workloads::fifo(shape),
            WorkloadKind::MotionEst => workloads::motion_est_read(shape, self.mb, self.mb, m),
            WorkloadKind::ZoomByTwo => workloads::zoom_by_two(shape),
            WorkloadKind::Transpose => workloads::transpose_scan(shape),
        }
    }

    /// The row-major SRAG pair that generates `reference`.
    pub(crate) fn srag_pair(&self, reference: &AddressSequence) -> Result<Srag2d, String> {
        Srag2d::map(reference, self.shape(), Layout::RowMajor)
            .ctx("SRAG mapping failed on a mappable workload")
    }

    /// Smaller arrays, biggest cut first: both sides halved, then
    /// each side alone, with the macroblock clamped to fit.
    pub(crate) fn smaller(&self) -> Vec<Workload> {
        let (w, h) = (self.width, self.height);
        [
            (w > 2 && h > 2, w / 2, h / 2),
            (w > 2, w / 2, h),
            (h > 2, w, h / 2),
        ]
        .into_iter()
        .filter(|&(fits, ..)| fits)
        .map(|(_, width, height)| Workload {
            width,
            height,
            mb: self.mb.min(width).min(height),
            ..*self
        })
        .collect()
    }

    /// Simpler kernels on the same array: half the macroblock, then
    /// the FIFO scan.
    pub(crate) fn simpler(&self) -> Vec<Workload> {
        let mut out = Vec::new();
        if self.mb > 1 {
            out.push(Workload {
                mb: self.mb / 2,
                ..*self
            });
        }
        if self.kind != WorkloadKind::Fifo {
            out.push(Workload {
                kind: WorkloadKind::Fifo,
                ..*self
            });
        }
        out
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Workload { width, height, .. } = self;
        write!(f, "{} {width}x{height} mb={}", self.kind.label(), self.mb)
    }
}
