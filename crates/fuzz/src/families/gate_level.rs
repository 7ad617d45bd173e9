//! `gate-level`: workload → behavioural SRAG pair vs. gate-level
//! elaboration (compiled and event-driven simulators, plus
//! netlist-level equivalence between control styles / chaining).

use adgen_core::arch::ControlStyle;
use adgen_core::composite::GateLevelGenerator;
use adgen_exec::{splitmix64, Prng};
use adgen_netlist::{check_equivalence_random, EventSimulator, Netlist, Simulator};
use adgen_seq::AddressGenerator;

use super::{BreakMode, CheckResult, Context, Family};
use crate::workload::Workload;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The workload, on an array of up to 16×16.
    pub(crate) wl: Workload,
    /// Control style of the primary elaboration.
    pub(crate) style: ControlStyle,
}

impl Family for Case {
    const KIND: &'static str = "gate-level";

    fn generate(rng: &mut Prng) -> Self {
        let wl = Workload::draw(rng, 4);
        let style = match rng.next_range(10) {
            0..=4 => ControlStyle::BinaryCounters,
            5..=7 => ControlStyle::RingCounters,
            _ => ControlStyle::InteractingFsms,
        };
        Case { wl, style }
    }

    fn describe(&self) -> String {
        format!("{} style={:?}", self.wl, self.style)
    }

    fn check(&self, _: BreakMode) -> CheckResult {
        let Case { wl, style } = *self;
        let reference = wl.reference(0);
        let period = reference.len();
        let pair = wl.srag_pair(&reference)?;
        let design = pair
            .elaborate_with_style(style)
            .map_err(|e| format!("elaboration ({style:?}) failed: {e}"))?;

        // Behavioural vs gate level through the shared generator trait,
        // past one period boundary.
        let steps = period + period.min(64) + 3;
        let mut behavioural = pair.simulator();
        let mut gate = GateLevelGenerator::new(&design).ctx("gate sim")?;
        let want = behavioural.collect_sequence(steps);
        let got = gate.collect_sequence(steps);
        if want != got {
            let at = want
                .iter()
                .zip(got.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(format!(
                "gate level diverges from behavioural at step {at}: {} vs {}",
                got.as_slice()[at],
                want.as_slice()[at]
            ));
        }

        // Compiled vs event-driven simulation of the same netlist under
        // stimulus with stalls and a mid-stream reset.
        let mut lev = Simulator::new(&design.netlist).ctx("compiled sim")?;
        let mut evt = EventSimulator::new(&design.netlist).ctx("event sim")?;
        let cycles = (period + 16).min(512);
        let mut stim = splitmix64(0x9a7e ^ (u64::from(wl.width) << 8) ^ u64::from(wl.height));
        for cycle in 0..cycles {
            stim = splitmix64(stim);
            let reset = cycle == 0 || stim.is_multiple_of(97);
            let next = !stim.is_multiple_of(5); // occasional stall
            lev.step_bools(&[reset, next]).ctx("compiled step")?;
            evt.step_bools(&[reset, next]).ctx("event step")?;
            for (k, &net) in design.netlist.outputs().iter().enumerate() {
                if lev.value(net) != evt.value(net) {
                    return Err(format!(
                        "event-driven sim diverges from compiled at cycle {cycle}, output {k}: \
                         {:?} vs {:?}",
                        evt.value(net),
                        lev.value(net)
                    ));
                }
            }
        }

        // Netlist-level equivalence across control styles (and against
        // the chained variant where the pattern allows it).
        let seed = splitmix64(u64::from(wl.width) ^ (u64::from(wl.height) << 16) ^ period as u64);
        let cycles = (2 * period + 8).min(600) as u64;
        if style != ControlStyle::BinaryCounters {
            let baseline = pair.elaborate().ctx("baseline elaboration")?;
            // InteractingFsms netlists expose the FSM terminal-state
            // flags as additional primary outputs, so interface-level
            // equivalence only applies when the output lists line up
            // (always true for RingCounters); the FSM style is still
            // covered by the stream and simulator cross-checks above.
            if baseline.netlist.outputs().len() != design.netlist.outputs().len() {
                return Ok(());
            }
            let what = format!("{style:?} netlist inequivalent to BinaryCounters");
            equivalent(&baseline.netlist, &design.netlist, cycles, seed, &what)?;
        }
        if pair.chainable() {
            let plain = pair.elaborate().ctx("baseline elaboration")?;
            let chained = pair
                .elaborate_chained()
                .ctx("chained elaboration")?
                .expect("chainable pattern elaborates chained");
            let what = "chained netlist inequivalent to plain";
            equivalent(&plain.netlist, &chained.netlist, cycles, seed, what)?;
        }
        Ok(())
    }

    fn candidates(&self) -> Vec<Self> {
        let wls = [self.wl.smaller(), self.wl.simpler()].concat();
        wls.into_iter().map(|wl| Case { wl, ..*self }).collect()
    }
}

/// Bounded random equivalence of `a` and `b`; a counterexample is
/// reported as `{what} at cycle …, output …`.
fn equivalent(a: &Netlist, b: &Netlist, cycles: u64, seed: u64, what: &str) -> CheckResult {
    match check_equivalence_random(a, b, cycles, seed).ctx("equivalence setup")? {
        Ok(()) => Ok(()),
        Err(ce) => Err(format!(
            "{what} at cycle {}, output {}",
            ce.cycle, ce.output_index
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

    #[test]
    fn shape_halving_respects_macroblock_divisibility() {
        let case = Case {
            wl: Workload {
                kind: WorkloadKind::MotionEst,
                width: 8,
                height: 8,
                mb: 4,
            },
            style: ControlStyle::BinaryCounters,
        };
        for Case { wl, .. } in case.candidates() {
            assert!(wl.width.is_multiple_of(wl.mb) && wl.height.is_multiple_of(wl.mb));
        }
    }
}
