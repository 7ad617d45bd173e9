//! The Fig. 7 workload recipe shared by every campaign binary.
//!
//! `explore4`, `faultcamp`, `simbench` and `bankcamp` all center on
//! the paper's motion-estimation kernel at one of two sizes: a 4x4
//! CI smoke array and the paper's full 8x8 array. The shape, the
//! read sequence, the cycle budget and the SEU sample counts used to
//! be rebuilt by hand in each binary; this module is the single
//! source of truth so the published numbers cannot drift apart.

use adgen_cntag::CntAgSpec;
use adgen_seq::{AddressSequence, ArrayShape};

use crate::experiments::PaperWorkload;

/// The paper-Fig. 7 campaign recipe at smoke or full size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig7Recipe {
    /// Whether this is the CI-sized smoke variant.
    pub smoke: bool,
    /// Array shape: 4x4 smoke, 8x8 full.
    pub shape: ArrayShape,
    /// SEU samples for the fault campaigns (`faultcamp`, `simbench`).
    pub seu_samples: usize,
}

impl Fig7Recipe {
    /// Builds the recipe for the requested size.
    pub fn new(smoke: bool) -> Self {
        let shape = if smoke {
            ArrayShape::new(4, 4)
        } else {
            ArrayShape::new(8, 8)
        };
        Fig7Recipe {
            smoke,
            shape,
            seu_samples: if smoke { 16 } else { 48 },
        }
    }

    /// The motion-estimation read sequence (paper Fig. 7, mb = 2,
    /// m = 0) at this recipe's shape.
    pub fn sequence(&self) -> AddressSequence {
        PaperWorkload::MotionEst.sequence(self.shape)
    }

    /// Replay length of [`Fig7Recipe::sequence`] in cycles.
    pub fn cycles(&self) -> u32 {
        self.sequence().len() as u32
    }

    /// The counter-AG program equivalent to the read sequence.
    pub fn cntag_program(&self) -> CntAgSpec {
        PaperWorkload::MotionEst.cntag_program(self.shape)
    }

    /// SEU samples for `explore4`'s four-way comparison, which runs a
    /// lighter universe per architecture than the fault campaigns.
    pub fn explore_seu_samples(&self) -> usize {
        if self.smoke {
            12
        } else {
            32
        }
    }

    /// Default best-of iteration count for `simbench` timing loops.
    pub fn simbench_iters(&self) -> u32 {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// The three priced workloads of Figs. 8-10: the motion-estimation
    /// kernel plus the raster and transpose scan patterns, each paired
    /// with its counter-AG program.
    pub fn explore_cases(&self) -> Vec<(&'static str, AddressSequence, CntAgSpec)> {
        [
            ("motion_est", PaperWorkload::MotionEst),
            ("raster", PaperWorkload::Fifo),
            ("transpose", PaperWorkload::Dct),
        ]
        .into_iter()
        .map(|(label, w)| (label, w.sequence(self.shape), w.cntag_program(self.shape)))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_and_full_sizes_match_the_published_campaigns() {
        let smoke = Fig7Recipe::new(true);
        assert_eq!(smoke.shape, ArrayShape::new(4, 4));
        assert_eq!(smoke.seu_samples, 16);
        assert_eq!(smoke.explore_seu_samples(), 12);
        assert_eq!(smoke.simbench_iters(), 1);

        let full = Fig7Recipe::new(false);
        assert_eq!(full.shape, ArrayShape::new(8, 8));
        assert_eq!(full.seu_samples, 48);
        assert_eq!(full.explore_seu_samples(), 32);
        assert_eq!(full.simbench_iters(), 3);
    }

    #[test]
    fn sequence_and_cycles_agree() {
        for smoke in [true, false] {
            let r = Fig7Recipe::new(smoke);
            assert_eq!(r.cycles() as usize, r.sequence().len());
            assert!(!r.sequence().is_empty());
            // Fig. 7's 2x2 macroblock at both sizes.
            let mb2 = adgen_seq::workloads::motion_est_read(r.shape, 2, 2, 0);
            assert_eq!(r.sequence(), mb2);
            assert_eq!(r.cntag_program(), CntAgSpec::motion_est(r.shape, 2, 2, 0));
        }
    }

    #[test]
    fn explore_cases_cover_the_three_workloads() {
        let r = Fig7Recipe::new(true);
        let names: Vec<&str> = r.explore_cases().iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, ["motion_est", "raster", "transpose"]);
    }
}
