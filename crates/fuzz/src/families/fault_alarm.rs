//! `fault-alarm`: single injected fault on a hardened SRAG select
//! ring → the one-hot checker must raise `alarm` within one ring
//! period of the fault activating, or the fault must be proven benign
//! by bounded equivalence against the golden run.

use adgen_core::arch::{ShiftRegisterSpec, SragSpec};
use adgen_core::HardenedSragNetlist;
use adgen_exec::Prng;
use adgen_fault::{
    classify, driving_flip_flops, replay, replay_event, CampaignSpec, Classification, Fault,
};
use adgen_netlist::Logic;

use super::{BreakMode, CheckResult, Context, Family};
use crate::shrink::halve_or_decrement;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Ring length (number of select lines), `1..=10`.
    pub(crate) n: u32,
    /// Divide count (cycles per token step), `1..=3`.
    pub(crate) dc: u32,
    /// Fault model: 0 = stuck-at-0, 1 = stuck-at-1, 2 = SEU.
    pub(crate) kind: u8,
    /// Which select line (stuck-at) or ring flip-flop (SEU) is
    /// faulted; `< n`.
    pub(crate) target: u32,
    /// Activation cycle of an SEU (ignored for stuck-ats, which are
    /// present from reset).
    pub(crate) cycle: u32,
}

impl Family for Case {
    const KIND: &'static str = "fault-alarm";

    /// Any length/divide-count combination, all three fault models,
    /// any line or flip-flop, with SEU activation anywhere in the
    /// first two ring periods.
    fn generate(rng: &mut Prng) -> Self {
        let n = rng.next_in(1, 11) as u32;
        let dc = rng.next_in(1, 4) as u32;
        let kind = rng.next_range(3) as u8;
        let target = rng.next_range(u64::from(n)) as u32;
        let cycle = rng.next_in(1, u64::from(2 * n * dc) + 1) as u32;
        Case {
            n,
            dc,
            kind,
            target,
            cycle,
        }
    }

    fn describe(&self) -> String {
        let target = self.target;
        let fault = match self.kind {
            0 => format!("sa0 on line {target}"),
            1 => format!("sa1 on line {target}"),
            _ => format!("seu on ff {target} at cycle {}", self.cycle),
        };
        format!("ring n={} dc={}, {fault}", self.n, self.dc)
    }

    /// The self-checking contract of the hardened SRAG, per fault: an
    /// injected stuck-at on a select line or SEU on a ring flip-flop
    /// must raise `alarm` within one ring period of activating — or
    /// be proven benign by bounded equivalence (the faulty trace,
    /// outputs and final state, equals the golden run over the whole
    /// window). The compiled and event-driven replays must also agree
    /// on the faulty trace, cross-checking the injection hooks
    /// themselves.
    fn check(&self, _: BreakMode) -> CheckResult {
        let Case {
            n,
            dc,
            kind,
            target,
            cycle,
        } = *self;
        let spec = SragSpec::new(
            vec![ShiftRegisterSpec::new((0..n).collect())],
            dc as usize,
            n as usize,
            n as usize,
        );
        let hard = HardenedSragNetlist::elaborate(&spec).ctx("hardened elaboration failed")?;

        let period = n * dc; // one full token lap
        let activation = if kind == 2 { cycle } else { 1 };
        let deadline = activation + period;
        let camp = CampaignSpec {
            netlist: &hard.netlist,
            cycles: deadline + period,
            alarm_output: Some(hard.alarm_output_index()),
        };
        let fault = match kind {
            0 | 1 => Fault::StuckAt {
                net: hard.select_lines[target as usize],
                value: kind == 1,
            },
            _ => {
                let ffs = driving_flip_flops(&hard.netlist, &[hard.ring_ffs[target as usize]]);
                let ff = *ffs
                    .first()
                    .ok_or_else(|| format!("ring net {target} has no flip-flop driver"))?;
                Fault::Seu { ff, cycle }
            }
        };

        let golden = replay(&camp, None);
        let alarm = hard.alarm_output_index();
        if let Some(at) = golden
            .outputs
            .iter()
            .position(|row| row[alarm] == Logic::One)
        {
            return Err(format!("golden run raises alarm at cycle {}", at + 1));
        }

        let faulty = replay(&camp, Some(fault));
        let faulty_evt = replay_event(&camp, Some(fault));
        if faulty != faulty_evt {
            return Err("compiled and event-driven faulty replays disagree".into());
        }

        match classify(&golden, &faulty, camp.alarm_output) {
            Classification::Detected {
                cycle: c,
                alarm: true,
            } => {
                if c < activation {
                    Err(format!(
                        "alarm fired at cycle {c}, before the fault activates at {activation}"
                    ))
                } else if c > deadline {
                    Err(format!(
                        "alarm missed its deadline: fired at cycle {c}, fault active from \
                         {activation}, ring period {period}"
                    ))
                } else {
                    Ok(())
                }
            }
            Classification::Detected {
                cycle: c,
                alarm: false,
            } => Err(format!(
                "outputs corrupted at cycle {c} without the alarm firing first"
            )),
            Classification::Silent => Err("fault silently corrupted ring state".into()),
            // Bounded equivalence: identical outputs and final state.
            Classification::Benign => Ok(()),
        }
    }

    /// A shorter ring first (target clamped into range), divide count
    /// one, an earlier SEU, line zero, then a simpler fault model.
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for n in halve_or_decrement(self.n) {
            let target = self.target.min(n - 1);
            out.push(Case { n, target, ..*self });
        }
        if self.dc > 1 {
            out.push(Case { dc: 1, ..*self });
        }
        for cycle in halve_or_decrement(self.cycle) {
            out.push(Case { cycle, ..*self });
        }
        if self.target > 0 {
            out.push(Case { target: 0, ..*self });
        }
        if self.kind > 0 {
            let kind = self.kind - 1;
            out.push(Case { kind, ..*self });
        }
        out
    }
}
