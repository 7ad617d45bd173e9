//! `sliced-vs-scalar`: workload → gate-level elaboration driven
//! through the bit-sliced simulator with an independent stimulus and
//! fault plan per lane, cross-checked lane-by-lane against
//! `EventSimulator` twins.

use adgen_exec::Prng;
use adgen_fault::flip_flop_ids;
use adgen_netlist::{EventSimulator, InstId, LaneMask, Logic, NetId, Netlist, Simulator};

use super::{BreakMode, CheckResult, Context, Family};
use crate::draw::{seam_biased, LANE_SEAMS};
use crate::shrink::fewer_lanes;
use crate::workload::Workload;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The workload, on an array of up to 8×8: the oracle cost is
    /// `lanes` scalar simulations.
    pub(crate) wl: Workload,
    /// Lane count of the sliced simulator (`1..=128`, biased toward
    /// word seams).
    pub(crate) lanes: u32,
    /// Clock cycles driven.
    pub(crate) cycles: u32,
    /// Seed of the per-lane stimulus / fault-plan streams.
    pub(crate) salt: u64,
}

impl Family for Case {
    const KIND: &'static str = "sliced-vs-scalar";

    fn generate(rng: &mut Prng) -> Self {
        Case {
            wl: Workload::draw(rng, 3),
            lanes: seam_biased(rng, &LANE_SEAMS, 128),
            cycles: rng.next_in(4, 33) as u32,
            salt: rng.next_u64(),
        }
    }

    fn describe(&self) -> String {
        format!(
            "{} lanes={} cycles={} salt={:#x}",
            self.wl, self.lanes, self.cycles, self.salt
        )
    }

    /// The tentpole differential: a compiled simulation carrying
    /// `lanes` independently-stimulated, independently-faulted
    /// machines must agree lane-for-lane with one [`EventSimulator`]
    /// per lane — on every output every cycle, on the per-lane effect
    /// of every SEU hook, and on the final flip-flop state. The
    /// event-driven twins walk the raw netlist, so they check the gate
    /// compiler too.
    fn check(&self, _: BreakMode) -> CheckResult {
        let Case { wl, cycles, .. } = *self;
        let design = wl
            .srag_pair(&wl.reference(0))?
            .elaborate()
            .ctx("elaboration failed")?;
        let netlist = &design.netlist;
        let lanes = self.lanes as usize;

        let ffs = flip_flop_ids(netlist);
        let plans: Vec<LanePlan> = (0..lanes)
            .map(|lane| lane_plan(self.salt, lane, cycles, netlist, &ffs))
            .collect();

        let mut sliced = Simulator::with_lanes(netlist, lanes).ctx("sliced sim")?;
        let mut twins = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            twins.push(EventSimulator::new(netlist).ctx("event twin")?);
        }

        for (lane, plan) in plans.iter().enumerate() {
            for &(net, value) in &plan.forces {
                sliced.force_net_lanes(net, value, &LaneMask::single(lane, lanes));
                twins[lane].force_net(net, value);
            }
        }

        for cycle in 0..cycles {
            for (lane, plan) in plans.iter().enumerate() {
                for &(ff, at) in &plan.upsets {
                    if at == cycle {
                        let flipped =
                            sliced.upset_flip_flop_lanes(ff, &LaneMask::single(lane, lanes));
                        let twin_flipped = twins[lane].upset_flip_flop(ff);
                        if flipped.get(lane) != twin_flipped {
                            return Err(format!(
                                "SEU effect disagrees at cycle {cycle}, lane {lane}: sliced \
                                 flipped={}, event twin flipped={twin_flipped}",
                                flipped.get(lane)
                            ));
                        }
                    }
                }
            }
            let rows: Vec<Vec<Logic>> = plans
                .iter()
                .map(|p| p.stim[cycle as usize].clone())
                .collect();
            sliced.step_per_lane(&rows).ctx("sliced step")?;
            for (lane, plan) in plans.iter().enumerate() {
                twins[lane]
                    .step(&plan.stim[cycle as usize])
                    .ctx("event step")?;
            }

            for (lane, twin) in twins.iter().enumerate() {
                let got = sliced.output_values_lane(lane);
                let want = twin.output_values();
                if got != want {
                    let at = got.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(0);
                    return Err(format!(
                        "sliced lane {lane} diverges from its event twin at cycle {cycle}, \
                         output {at}: {:?} vs {:?}",
                        got[at], want[at]
                    ));
                }
            }
        }

        for (lane, twin) in twins.iter().enumerate() {
            if sliced.flip_flop_states_lane(lane) != twin.flip_flop_states() {
                return Err(format!(
                    "final flip-flop state of lane {lane} disagrees with its event twin"
                ));
            }
        }
        Ok(())
    }

    /// Smaller arrays, fewer lanes, fewer cycles, then simpler
    /// kernels.
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for wl in self.wl.smaller() {
            out.push(Case { wl, ..*self });
        }
        for lanes in fewer_lanes(self.lanes) {
            out.push(Case { lanes, ..*self });
        }
        if self.cycles > 1 {
            let cycles = self.cycles / 2;
            out.push(Case { cycles, ..*self });
        }
        for wl in self.wl.simpler() {
            out.push(Case { wl, ..*self });
        }
        out
    }
}

/// Everything one lane of the sliced simulator does over a run:
/// stuck-at forces present from reset, SEU strikes at given cycles,
/// and an independent stimulus vector per cycle. Lane 0 always stays
/// clean (no forces, no upsets) so the run carries a golden lane, as
/// the fault campaign does.
struct LanePlan {
    forces: Vec<(NetId, Logic)>,
    upsets: Vec<(InstId, u32)>,
    stim: Vec<Vec<Logic>>,
}

/// Draws the plan of `lane` from its own `Prng` stream, so a plan is
/// a pure function of `(salt, lane)` and survives lane-count shrinks
/// unchanged for the lanes that remain.
fn lane_plan(salt: u64, lane: usize, cycles: u32, netlist: &Netlist, ffs: &[InstId]) -> LanePlan {
    let mut rng = Prng::for_stream(salt, lane as u64);
    let mut forces = Vec::new();
    let mut upsets = Vec::new();
    if lane > 0 {
        for _ in 0..rng.next_range(3) {
            let value = match rng.next_range(3) {
                0 => Logic::Zero,
                1 => Logic::One,
                _ => Logic::X,
            };
            let net =
                netlist.net_id_from_index(rng.next_range(netlist.nets().len() as u64) as usize);
            forces.push((net, value));
        }
        if !ffs.is_empty() {
            for _ in 0..rng.next_range(3) {
                let ff = ffs[rng.next_range(ffs.len() as u64) as usize];
                upsets.push((ff, rng.next_range(u64::from(cycles)) as u32));
            }
        }
    }
    let stim = (0..cycles)
        .map(|cycle| {
            (0..netlist.inputs().len())
                .map(|input| {
                    if input == 0 {
                        // Input 0 is the reset line: pulse it on cycle
                        // 0, then re-assert it rarely.
                        Logic::from_bool(cycle == 0 || rng.one_in(43))
                    } else {
                        match rng.next_range(10) {
                            0..=1 => Logic::Zero,
                            9 => Logic::X,
                            _ => Logic::One,
                        }
                    }
                })
                .collect()
        })
        .collect();
    LanePlan {
        forces,
        upsets,
        stim,
    }
}
