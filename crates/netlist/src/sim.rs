//! Cycle-accurate logic simulation with `0/1/X` semantics: the
//! three-valued [`Logic`] level and the [`SimControl`] surface both
//! engines share.
//!
//! Each clock cycle settles the combinational network, then updates
//! every flip-flop from its sampled data/control pins. Flip-flops
//! power up as [`Logic::X`]; designs are expected to assert the global
//! reset for at least one cycle to reach a defined state — exactly the
//! discipline the paper's generators (which all have a `Reset` input)
//! follow.
//!
//! There are two engines. The compiled [`Simulator`](crate::Simulator)
//! steps a flattened gate program on one machine or on many bit-sliced
//! lanes; it is the ground-truth check, used throughout the workspace,
//! that an elaborated netlist implements its behavioural model. The
//! [`EventSimulator`](crate::EventSimulator) walks the raw netlist and
//! is the oracle that checks the compiled engine.

use crate::error::NetlistError;
use crate::graph::{InstId, NetId};

/// Three-valued logic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown / uninitialized.
    #[default]
    X,
}

impl Logic {
    /// Converts from `bool`.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Converts to `bool` if defined.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    pub(crate) fn not(self) -> Self {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }

    pub(crate) fn and(self, rhs: Self) -> Self {
        match (self, rhs) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    pub(crate) fn or(self, rhs: Self) -> Self {
        match (self, rhs) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    pub(crate) fn xor(self, rhs: Self) -> Self {
        match (self, rhs) {
            (Logic::X, _) | (_, Logic::X) => Logic::X,
            (a, b) => Logic::from_bool(a != b),
        }
    }

    /// `self` if both agree, otherwise `X`.
    pub(crate) fn merge(self, rhs: Self) -> Self {
        if self == rhs {
            self
        } else {
            Logic::X
        }
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        Logic::from_bool(b)
    }
}

/// The control surface both simulation engines expose: stimulus,
/// fault injection (stuck-ats and single-event upsets), and state
/// readback. Fault-campaign and fuzz harnesses are written against
/// this trait so the compiled [`Simulator`](crate::Simulator) and the
/// event-driven [`EventSimulator`](crate::EventSimulator) are
/// interchangeable.
///
/// For a multi-lane [`Simulator`](crate::Simulator) the trait is the
/// *scalar view*: forces and upsets broadcast to every lane and reads
/// come from lane 0; the lane-masked batch hooks live on the
/// simulator itself.
pub trait SimControl {
    /// Pins `net` at `value` for every subsequent cycle — the
    /// stuck-at fault model. The override replaces whatever the net's
    /// driver produces, as seen both by combinational fanout and by
    /// flip-flop pin sampling; re-forcing a net replaces its value.
    fn force_net(&mut self, net: NetId, value: Logic);

    /// Removes every active [`force_net`](Self::force_net) override;
    /// nets resume following their drivers on the next
    /// [`step`](Self::step).
    fn clear_forces(&mut self);

    /// Flips the stored state of flip-flop `inst` — a single-event
    /// upset. `0 ↔ 1`; an `X` state is left unchanged. Returns
    /// whether a flip happened.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a sequential instance.
    fn upset_flip_flop(&mut self, inst: InstId) -> bool;

    /// Stored state of every sequential instance, in instance order.
    fn flip_flop_states(&self) -> Vec<Logic>;

    /// Number of clock cycles simulated so far.
    fn cycle(&self) -> u64;

    /// Cumulative combinational evaluation count. What one
    /// "evaluation" means is engine-specific — one gate on one 64-lane
    /// word for the compiled engine (so gates × cycles on one lane),
    /// an actual re-evaluation for the event-driven one; see DESIGN.md
    /// §11 for the exact accounting semantics of each engine.
    fn evaluations(&self) -> u64;

    /// Current value of `net` (as of the last [`step`](Self::step)).
    fn value(&self, net: NetId) -> Logic;

    /// Values of the primary outputs, in declaration order.
    fn output_values(&self) -> Vec<Logic>;

    /// Advances one clock cycle; `inputs` supplies one value per
    /// primary input in declaration order (index 0 is the global
    /// reset).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] on a wrong-width
    /// stimulus.
    fn step(&mut self, inputs: &[Logic]) -> Result<(), NetlistError>;

    /// Convenience wrapper over [`step`](Self::step) taking `bool`s.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Self::step).
    fn step_bools(&mut self, inputs: &[bool]) -> Result<(), NetlistError> {
        let v: Vec<Logic> = inputs.iter().map(|&b| Logic::from_bool(b)).collect();
        self.step(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, EventSimulator, Netlist, Simulator};

    #[test]
    fn logic_tables() {
        use Logic::*;
        assert_eq!(One.and(X), X);
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(One.or(X), One);
        assert_eq!(Zero.or(X), X);
        assert_eq!(One.xor(X), X);
        assert_eq!(X.not(), X);
        assert_eq!(One.merge(One), One);
        assert_eq!(One.merge(Zero), X);
        assert_eq!(Logic::from_bool(true), One);
        assert_eq!(One.to_bool(), Some(true));
        assert_eq!(X.to_bool(), None);
    }

    #[test]
    fn combinational_gate_eval() {
        let mut n = Netlist::new("comb");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.gate(CellKind::Xor2, &[a, b]).unwrap();
        n.add_output(y);
        let mut sim = Simulator::new(&n).unwrap();
        for (av, bv, exp) in [
            (false, false, Logic::Zero),
            (false, true, Logic::One),
            (true, false, Logic::One),
            (true, true, Logic::Zero),
        ] {
            sim.step_bools(&[false, av, bv]).unwrap();
            assert_eq!(sim.value(y), exp);
        }
    }

    #[test]
    fn toggle_ff_divides_by_two() {
        let mut n = Netlist::new("tff");
        let q = n.add_net("q");
        let qn = n.add_net("qn");
        n.add_instance("inv", CellKind::Inv, &[q], &[qn]).unwrap();
        let rst = n.reset();
        n.add_instance("ff", CellKind::Dffr, &[qn, rst], &[q])
            .unwrap();
        n.add_output(q);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true]).unwrap(); // reset cycle
        let mut seen = Vec::new();
        for _ in 0..6 {
            sim.step_bools(&[false]).unwrap();
            seen.push(sim.value(q));
        }
        use Logic::*;
        assert_eq!(seen, vec![Zero, One, Zero, One, Zero, One]);
    }

    #[test]
    fn uninitialized_ff_is_x_until_reset() {
        let mut n = Netlist::new("x");
        let d = n.add_input("d");
        let rst = n.reset();
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dffr, &[d, rst], &[q])
            .unwrap();
        n.add_output(q);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        assert_eq!(sim.value(q), Logic::X, "before any capture, Q is X");
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(
            sim.value(q),
            Logic::Zero,
            "reset captured on the first edge"
        );
    }

    #[test]
    fn enable_holds_state() {
        let mut n = Netlist::new("en");
        let d = n.add_input("d");
        let en = n.add_input("en");
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dffe, &[d, en], &[q])
            .unwrap();
        n.add_output(q);
        let mut sim = Simulator::new(&n).unwrap();
        // load 1 with en=1
        sim.step_bools(&[false, true, true]).unwrap();
        sim.step_bools(&[false, false, false]).unwrap();
        assert_eq!(sim.value(q), Logic::One);
        // hold with en=0 while d=0
        sim.step_bools(&[false, false, false]).unwrap();
        assert_eq!(sim.value(q), Logic::One);
        // capture 0 with en=1
        sim.step_bools(&[false, false, true]).unwrap();
        assert_eq!(sim.value(q), Logic::One, "capture visible next cycle");
        sim.step_bools(&[false, false, false]).unwrap();
        assert_eq!(sim.value(q), Logic::Zero);
    }

    #[test]
    fn set_ff_resets_high() {
        let mut n = Netlist::new("set");
        let d = n.add_input("d");
        let rst = n.reset();
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dffs, &[d, rst], &[q])
            .unwrap();
        n.add_output(q);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(sim.value(q), Logic::One);
    }

    #[test]
    fn mux_selects() {
        let mut n = Netlist::new("mux");
        let d0 = n.add_input("d0");
        let d1 = n.add_input("d1");
        let s = n.add_input("s");
        let y = n.gate(CellKind::Mux2, &[d0, d1, s]).unwrap();
        n.add_output(y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[false, true, false, false]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        sim.step_bools(&[false, true, false, true]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        // X select with agreeing data stays defined.
        sim.step(&[Logic::Zero, Logic::One, Logic::One, Logic::X])
            .unwrap();
        assert_eq!(sim.value(y), Logic::One);
    }

    #[test]
    fn input_width_checked() {
        let mut n = Netlist::new("w");
        let a = n.add_input("a");
        n.add_output(a);
        let mut sim = Simulator::new(&n).unwrap();
        let err = sim.step_bools(&[false]).unwrap_err();
        assert!(matches!(err, NetlistError::InputWidthMismatch { .. }));
    }

    #[test]
    fn forced_net_overrides_driver_and_ff_sampling() {
        // a -> buf -> y; force y to 1 and the AND downstream sees it.
        let mut n = Netlist::new("force");
        let a = n.add_input("a");
        let y = n.gate(CellKind::Buf, &[a]).unwrap();
        let rst = n.reset();
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dffr, &[y, rst], &[q])
            .unwrap();
        n.add_output(q);
        let mut sim = Simulator::new(&n).unwrap();
        sim.force_net(y, Logic::One);
        sim.step_bools(&[true, false]).unwrap(); // reset
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(sim.value(y), Logic::One, "stuck-at-1 despite a=0");
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(sim.value(q), Logic::One, "FF sampled the forced value");
        sim.clear_forces();
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero, "driver resumes after clear");
    }

    #[test]
    fn forced_primary_input_is_pinned() {
        let mut n = Netlist::new("fpi");
        let a = n.add_input("a");
        let y = n.gate(CellKind::Buf, &[a]).unwrap();
        n.add_output(y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.force_net(a, Logic::Zero);
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn upset_flips_ff_state_once() {
        let mut n = Netlist::new("seu");
        let rst = n.reset();
        let q = n.add_net("q");
        // Hold-type FF with enable tied low: state is frozen at 0.
        let lo = n.gate(CellKind::TieLo, &[]).unwrap();
        n.add_instance("ff", CellKind::Dffre, &[q, lo, rst], &[q])
            .unwrap();
        n.add_output(q);
        let ff = n.inst_id_from_index(n.num_instances() - 1);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true]).unwrap();
        sim.step_bools(&[false]).unwrap();
        assert_eq!(sim.value(q), Logic::Zero);
        assert!(sim.upset_flip_flop(ff));
        sim.step_bools(&[false]).unwrap();
        assert_eq!(sim.value(q), Logic::One, "flip visible on Q next cycle");
        assert_eq!(sim.flip_flop_states(), vec![Logic::One]);
    }

    #[test]
    fn upset_leaves_x_state_alone() {
        let mut n = Netlist::new("seux");
        let d = n.add_input("d");
        let rst = n.reset();
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dffr, &[d, rst], &[q])
            .unwrap();
        n.add_output(q);
        let ff = n.inst_id_from_index(0);
        let mut sim = Simulator::new(&n).unwrap();
        assert!(!sim.upset_flip_flop(ff), "power-up X cannot flip");
    }

    /// Every cell, alone in a netlist with one primary input per pin,
    /// under every `0/1/X` pin combination: the compiled program must
    /// agree with the event-driven engine, which walks the raw
    /// netlist. A pin-order slip in the compiler shows up here as an
    /// asymmetric gate (mux, AOI/OAI) disagreeing. Each flip-flop kind
    /// drives Q as an output and sees every combination from each
    /// stored state (`0`, `1` and `X`), loaded by a cycle that enables
    /// the flip-flop and holds its reset or set low; Q and the stored
    /// state must agree every cycle.
    #[test]
    fn compiled_gates_match_the_raw_netlist_walk_on_every_input() {
        const LEVELS: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];
        for kind in CellKind::ALL {
            let mut n = Netlist::new(kind.name());
            let pins: Vec<NetId> = (0..kind.num_inputs())
                .map(|i| n.add_input(format!("p{i}")))
                .collect();
            let y = if kind.is_sequential() {
                let q = n.add_net("q");
                n.add_instance("ff", kind, &pins, &[q]).unwrap();
                q
            } else {
                n.gate(kind, &pins).unwrap()
            };
            n.add_output(y);
            let mut compiled = Simulator::new(&n).unwrap();
            let mut raw = EventSimulator::new(&n).unwrap();
            let mut step = |inputs: &[Logic]| {
                compiled.step(inputs).unwrap();
                raw.step(inputs).unwrap();
                assert_eq!(compiled.value(y), raw.value(y), "{kind:?} on {inputs:?}");
                let states = compiled.flip_flop_states();
                assert_eq!(states, raw.flip_flop_states(), "{kind:?} on {inputs:?}");
                states
            };
            let stored: &[Logic] = if kind.is_sequential() {
                &LEVELS
            } else {
                &[Logic::X]
            };
            for &state in stored {
                for combo in 0..3usize.pow(pins.len() as u32) {
                    if kind.is_sequential() {
                        // Pin 0 is D; pin 1 is the enable of the
                        // enabled kinds and the reset or set of the
                        // others; pin 2 is always a reset or set.
                        let enabled =
                            matches!(kind, CellKind::Dffe | CellKind::Dffre | CellKind::Dffse);
                        let mut load = vec![Logic::Zero, state];
                        load.extend((1..pins.len()).map(|i| Logic::from_bool(i == 1 && enabled)));
                        assert_eq!(step(&load), [state], "{kind:?} loads {state:?}");
                    }
                    let mut inputs = vec![Logic::Zero];
                    inputs
                        .extend((0..pins.len()).map(|i| LEVELS[combo / 3usize.pow(i as u32) % 3]));
                    step(&inputs);
                }
            }
        }
    }

    /// The exact `sim.evaluations` accounting holds with a force
    /// active: every gate counts once per cycle, forced or not.
    #[test]
    fn evaluations_are_cycles_times_gates_with_a_force_active() {
        let mut n = Netlist::new("acct");
        let a = n.add_input("a");
        let x = n.gate(CellKind::Inv, &[a]).unwrap();
        let y = n.gate(CellKind::Nand2, &[a, x]).unwrap();
        let rst = n.reset();
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dffr, &[y, rst], &[q])
            .unwrap();
        n.add_output(q);
        let mut sim = Simulator::new(&n).unwrap();
        sim.force_net(x, Logic::One);
        for cycle in 0..5 {
            sim.step_bools(&[cycle == 0, cycle % 2 == 1]).unwrap();
        }
        assert_eq!(sim.evaluations(), 5 * 2);
        assert_eq!(sim.value(x), Logic::One, "the force held");
    }

    #[test]
    fn tie_cells() {
        let mut n = Netlist::new("tie");
        let hi = n.gate(CellKind::TieHi, &[]).unwrap();
        let lo = n.gate(CellKind::TieLo, &[]).unwrap();
        let y = n.gate(CellKind::And2, &[hi, lo]).unwrap();
        n.add_output(y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[false]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        assert_eq!(sim.value(hi), Logic::One);
    }
}
