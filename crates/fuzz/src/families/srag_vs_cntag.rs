//! `srag-vs-cntag`: workload → behavioural SRAG pair vs.
//! counter-cascade CntAG vs. the reference trace, over two full
//! periods.

use adgen_cntag::{CntAgSimulator, CntAgSpec};
use adgen_exec::Prng;
use adgen_seq::AddressGenerator;

use super::{BreakMode, CheckResult, Family};
use crate::workload::{Workload, WorkloadKind};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The workload, on an array of up to 32×32.
    pub(crate) wl: Workload,
    /// Search range (motion estimation only).
    pub(crate) m: u32,
}

impl Family for Case {
    const KIND: &'static str = "srag-vs-cntag";

    fn generate(rng: &mut Prng) -> Self {
        let wl = Workload::draw(rng, 5);
        // A nonzero search range multiplies the period by (2m)^2; cap
        // the behavioural work on large arrays.
        let m =
            if wl.kind == WorkloadKind::MotionEst && wl.width * wl.height <= 256 && rng.one_in(2) {
                1
            } else {
                0
            };
        Case { wl, m }
    }

    fn describe(&self) -> String {
        format!("{} m={}", self.wl, self.m)
    }

    fn check(&self, _: BreakMode) -> CheckResult {
        let Case { wl, m } = *self;
        let shape = wl.shape();
        let reference = wl.reference(m);
        let period = reference.len();

        // CntAG behavioural stream over two periods.
        let program = match wl.kind {
            WorkloadKind::Fifo => CntAgSpec::raster(shape),
            WorkloadKind::MotionEst => CntAgSpec::motion_est(shape, wl.mb, wl.mb, m),
            WorkloadKind::ZoomByTwo => CntAgSpec::zoom_by_two(shape),
            WorkloadKind::Transpose => CntAgSpec::transpose(shape),
        };
        let cnt_stream = CntAgSimulator::new(program).collect_sequence(2 * period);

        // SRAG pair behavioural stream over two periods.
        let srag_stream = wl
            .srag_pair(&reference)?
            .simulator()
            .collect_sequence(2 * period);

        for (i, &expected) in reference.iter().chain(reference.iter()).enumerate() {
            let c = cnt_stream.as_slice()[i];
            let s = srag_stream.as_slice()[i];
            if c != expected {
                return Err(format!(
                    "CntAG diverges from reference at step {i}: {c} vs {expected}"
                ));
            }
            if s != expected {
                return Err(format!(
                    "SRAG diverges from reference at step {i}: {s} vs {expected}"
                ));
            }
        }
        Ok(())
    }

    /// Smaller arrays, then no search range, then simpler kernels (the
    /// FIFO scan drops the search range too).
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for wl in self.wl.smaller() {
            out.push(Case { wl, ..*self });
        }
        if self.m > 0 {
            out.push(Case { m: 0, ..*self });
        }
        for wl in self.wl.simpler() {
            let m = if wl.kind == self.wl.kind { self.m } else { 0 };
            out.push(Case { wl, m });
        }
        out
    }
}
