//! Hardened (self-checking) SRAG variants.
//!
//! The SRAG's strength — select lines driven straight from flip-flop
//! outputs, no decoder anywhere — is also its weakness: almost every
//! register state is *illegal* (anything but exactly one hot), and a
//! single stuck-at or particle strike silently corrupts every
//! subsequent memory access because no decoder exists to mask or trap
//! it. The hardened variants close that gap with two circuits,
//! elaborated by [`build_into`](crate::netlist::build_into) when
//! [`BuildOptions::harden`] is set:
//!
//! * **Two-hot checker** — a chained exactly-one-hot detector over
//!   the ring Q nets (`p1` = "≥ 1 hot", `p2` = "≥ 2 hot", `alarm` =
//!   `¬p1 ∨ p2`), exported as an extra primary output. Any
//!   single-bit ring corruption leaves the zero-hot or two-hot
//!   region, so the alarm is raised the very cycle the bad state
//!   becomes visible.
//! * **Watchdog resync** — the alarm is ORed into the ring
//!   flip-flops' reset/set pins, reloading the reset token pattern
//!   (`s₀,₀` hot) on the next clock edge. The reset/set pin has
//!   priority over the shift enable, so recovery happens even while
//!   the generator is stalled. The address stream restarts from the
//!   first line rather than staying corrupt forever; the one-cycle
//!   alarm pulse tells the system the stream was resynchronized.
//!
//! Both hardened netlists here are the plain elaborations with that
//! flag set: the shared scaffold in [`crate::netlist`] ORs the
//! rings' alarms into one and exports it as the last primary output.
//!
//! The control counters (`DivCnt`/`PassCnt`) are deliberately *not*
//! covered: a corrupted counter perturbs timing but never violates
//! the one-hot select discipline, so it cannot silently write the
//! wrong cell pattern into an ADDM array the way a ring fault can.
//! The fault-injection campaigns in `adgen-fault` quantify exactly
//! that split.

use adgen_netlist::{NetId, Netlist, NetlistError, Simulator};
use adgen_seq::{ArrayShape, Layout};

use crate::arch::{ControlStyle, SragSpec};
use crate::composite::Srag2d;
use crate::error::SragError;
use crate::netlist::{elaborate_one, BuildOptions};

/// Options of every hardened build: binary counters, own `DivCnt`.
const HARDENED: BuildOptions = BuildOptions {
    style: ControlStyle::BinaryCounters,
    external_enable: None,
    harden: true,
};

/// The alarm a [`HARDENED`] elaboration exports, or a typed error
/// naming the missing net should the scaffold ever return none.
fn checked(alarm: Option<NetId>) -> Result<NetId, SragError> {
    let net = "alarm".to_string();
    alarm.ok_or(SragError::Netlist(NetlistError::UndrivenNet { net }))
}

/// A gate-level self-checking SRAG: the plain generator plus the
/// one-hot checker and watchdog resync path.
#[derive(Debug, Clone)]
pub struct HardenedSragNetlist {
    /// The implementation. Primary inputs: `reset` (index 0), `next`
    /// (index 1). Primary outputs: the select lines in line order,
    /// then `alarm` as the last output.
    pub netlist: Netlist,
    /// Select-line nets, indexed by line number.
    pub select_lines: Vec<NetId>,
    /// The shift-register Q nets in token order — the fault targets
    /// the checker protects.
    pub ring_ffs: Vec<NetId>,
    /// The `next` input net.
    pub next_input: NetId,
    /// One-hot violation flag (combinational over the ring Q nets).
    pub alarm: NetId,
    /// The architecture this netlist implements.
    pub spec: SragSpec,
}

impl HardenedSragNetlist {
    /// Elaborates the hardened variant of `spec`.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn elaborate(spec: &SragSpec) -> Result<Self, SragError> {
        let (netlist, next, [parts], alarm) = elaborate_one(spec, "hard_", &HARDENED)?;
        Ok(HardenedSragNetlist {
            netlist,
            select_lines: parts.select_lines,
            ring_ffs: parts.ring_ffs,
            next_input: next,
            alarm: checked(alarm)?,
            spec: spec.clone(),
        })
    }

    /// Output index of the alarm (the last primary output).
    pub fn alarm_output_index(&self) -> usize {
        self.select_lines.len()
    }

    /// Decodes the presented address; `None` unless exactly one-hot.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        sim.one_hot(&self.select_lines)
    }

    /// Whether the checker flags the current cycle.
    #[cfg(test)]
    fn alarm_raised(&self, sim: &Simulator<'_>) -> bool {
        sim.value(self.alarm) == adgen_netlist::Logic::One
    }
}

/// The hardened two-hot pair: one netlist, two checked rings, one
/// combined alarm.
#[derive(Debug, Clone)]
pub struct HardenedSrag2dNetlist {
    /// The implementation. Inputs: `reset`, `next`. Outputs: row
    /// lines, then column lines, then `alarm`.
    pub netlist: Netlist,
    /// Row select nets (RS), indexed by row.
    pub row_lines: Vec<NetId>,
    /// Column select nets (CS), indexed by column.
    pub col_lines: Vec<NetId>,
    /// Row-ring Q nets in token order.
    pub row_ring_ffs: Vec<NetId>,
    /// Column-ring Q nets in token order.
    pub col_ring_ffs: Vec<NetId>,
    /// The `next` input net.
    pub next_input: NetId,
    /// Combined alarm: row checker OR column checker.
    pub alarm: NetId,
    /// Array geometry.
    pub shape: ArrayShape,
    /// Data layout.
    pub layout: Layout,
}

impl HardenedSrag2dNetlist {
    /// Output index of the alarm (the last primary output).
    pub fn alarm_output_index(&self) -> usize {
        self.row_lines.len() + self.col_lines.len()
    }

    /// Decodes the currently presented linear address, or `None` if
    /// either dimension is not exactly one-hot.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        let r = sim.one_hot(&self.row_lines)?;
        let c = sim.one_hot(&self.col_lines)?;
        self.shape.to_linear(r, c, self.layout).ok()
    }

    /// Whether the combined checker flags the current cycle.
    #[cfg(test)]
    fn alarm_raised(&self, sim: &Simulator<'_>) -> bool {
        sim.value(self.alarm) == adgen_netlist::Logic::One
    }
}

impl Srag2d {
    /// Elaborates the hardened variant of both SRAGs into a single
    /// netlist: each ring gets its own checker and resync path, and
    /// the two alarms are ORed into one output.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn elaborate_hardened(&self) -> Result<HardenedSrag2dNetlist, SragError> {
        let (netlist, next, [row, col], alarm) = self.elaborate_pair("hard_", HARDENED, false)?;
        Ok(HardenedSrag2dNetlist {
            netlist,
            row_lines: row.select_lines,
            col_lines: col.select_lines,
            row_ring_ffs: row.ring_ffs,
            col_ring_ffs: col.ring_ffs,
            next_input: next,
            alarm: checked(alarm)?,
            shape: self.shape(),
            layout: self.layout(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ShiftRegisterSpec, SragSpec};
    use crate::netlist::SragNetlist;
    use adgen_netlist::{AreaReport, Library, Logic};
    use adgen_seq::workloads;

    fn ring_ff_inst(design: &HardenedSragNetlist, name: &str) -> adgen_netlist::InstId {
        let idx = design
            .netlist
            .instances()
            .iter()
            .position(|i| i.name() == name)
            .expect("ring flip-flop exists");
        design.netlist.inst_id_from_index(idx)
    }

    #[test]
    fn hardened_ring_matches_plain_behaviour_fault_free() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![5, 1, 4, 0]),
                ShiftRegisterSpec::new(vec![3, 7, 6, 2]),
            ],
            2,
            4,
            8,
        );
        let plain = SragNetlist::elaborate(&spec).unwrap();
        let hard = HardenedSragNetlist::elaborate(&spec).unwrap();
        let mut ps = Simulator::new(&plain.netlist).unwrap();
        let mut hs = Simulator::new(&hard.netlist).unwrap();
        ps.step_bools(&[true, false]).unwrap();
        hs.step_bools(&[true, false]).unwrap();
        for cycle in 0..64 {
            ps.step_bools(&[false, true]).unwrap();
            hs.step_bools(&[false, true]).unwrap();
            assert_eq!(
                plain.observed_address(&ps),
                hard.observed_address(&hs),
                "cycle {cycle}"
            );
            assert!(!hard.alarm_raised(&hs), "spurious alarm at cycle {cycle}");
        }
    }

    #[test]
    fn seu_on_ring_raises_alarm_and_resyncs() {
        let spec = SragSpec::ring(6);
        let hard = HardenedSragNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&hard.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for _ in 0..3 {
            sim.step_bools(&[false, true]).unwrap();
        }
        // Flip a ring flip-flop that does not hold the token: the
        // state becomes two-hot.
        let victim = ring_ff_inst(&hard, "sr0_ff4");
        assert!(sim.upset_flip_flop(victim));
        sim.step_bools(&[false, true]).unwrap();
        assert!(hard.alarm_raised(&sim), "two-hot state must raise alarm");
        assert_eq!(hard.observed_address(&sim), None);
        // Next cycle the watchdog reload has taken effect: alarm low,
        // token back at line 0.
        sim.step_bools(&[false, true]).unwrap();
        assert!(!hard.alarm_raised(&sim), "alarm clears after resync");
        assert_eq!(hard.observed_address(&sim), Some(0), "token reloaded");
        // One-hot discipline holds from here on.
        for cycle in 0..12 {
            sim.step_bools(&[false, true]).unwrap();
            assert!(hard.observed_address(&sim).is_some(), "cycle {cycle}");
            assert!(!hard.alarm_raised(&sim), "cycle {cycle}");
        }
    }

    #[test]
    fn stuck_at_on_select_line_keeps_alarm_asserted() {
        let spec = SragSpec::ring(4);
        let hard = HardenedSragNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&hard.netlist).unwrap();
        // Stuck-at-1 on line 2 from power-on.
        sim.force_net(hard.select_lines[2], Logic::One);
        sim.step_bools(&[true, false]).unwrap();
        let mut alarmed = 0;
        for _ in 0..8 {
            sim.step_bools(&[false, true]).unwrap();
            alarmed += usize::from(hard.alarm_raised(&sim));
        }
        // The token is elsewhere at least half the time, so the
        // two-hot condition (and the alarm) recurs.
        assert!(alarmed >= 4, "alarm fired only {alarmed}/8 cycles");
    }

    #[test]
    fn hardening_costs_area_but_keeps_interface() {
        let spec = SragSpec::ring(8);
        let plain = SragNetlist::elaborate(&spec).unwrap();
        let hard = HardenedSragNetlist::elaborate(&spec).unwrap();
        let lib = Library::vcl018();
        let pa = AreaReport::of(&plain.netlist, &lib).total();
        let ha = AreaReport::of(&hard.netlist, &lib).total();
        assert!(ha > pa, "checker and resync gates cost area");
        assert_eq!(
            hard.netlist.num_flip_flops(),
            plain.netlist.num_flip_flops(),
            "hardening adds no state bits"
        );
        assert_eq!(hard.alarm_output_index(), 8);
    }

    #[test]
    fn hardened_pair_round_trips_paper_example() {
        let shape = ArrayShape::new(4, 4);
        let lin = workloads::motion_est_read(shape, 2, 2, 0);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        let design = pair.elaborate_hardened().unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for (i, &expected) in lin.iter().enumerate() {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(design.observed_address(&sim), Some(expected), "step {i}");
            assert!(!design.alarm_raised(&sim), "step {i}");
        }
    }

    #[test]
    fn hardened_pair_flags_column_ring_fault() {
        let shape = ArrayShape::new(4, 4);
        let lin = workloads::motion_est_read(shape, 2, 2, 0);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        let design = pair.elaborate_hardened().unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.force_net(design.col_lines[1], Logic::Zero);
        sim.step_bools(&[true, false]).unwrap();
        let mut alarmed = false;
        for _ in 0..lin.len() {
            sim.step_bools(&[false, true]).unwrap();
            alarmed |= design.alarm_raised(&sim);
        }
        assert!(alarmed, "zero-hot column state must raise the alarm");
    }
}
