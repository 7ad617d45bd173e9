//! Levelized cycle-accurate logic simulation with `0/1/X` semantics.
//!
//! The simulator evaluates the combinational network once per clock
//! cycle in topological order, then updates every flip-flop from its
//! sampled data/control pins. Flip-flops power up as [`Logic::X`];
//! designs are expected to assert the global reset for at least one
//! cycle to reach a defined state — exactly the discipline the paper's
//! generators (which all have a `Reset` input) follow.
//!
//! Simulation is used throughout the workspace as the ground-truth
//! check that an elaborated netlist implements its behavioural model.

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::graph::{InstId, NetId, Netlist};
use crate::program::{Program, MAX_PINS};
use adgen_obs as obs;

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

/// The control surface every simulation engine exposes: stimulus,
/// fault injection (stuck-ats and single-event upsets), and state
/// readback. Fault-campaign and fuzz harnesses are written against
/// this trait so the levelized, event-driven and bit-sliced engines
/// are interchangeable.
///
/// For the bit-sliced engine the trait is the *scalar view*: forces
/// and upsets broadcast to every lane and reads come from lane 0; the
/// lane-masked batch hooks live on
/// [`SlicedSimulator`](crate::sim_sliced::SlicedSimulator) itself.
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
    /// "evaluation" means is engine-specific — gates × cycles for the
    /// levelized engine, actual re-evaluations for the event-driven
    /// one, gate-words for the sliced one; see DESIGN.md §11 for the
    /// exact accounting semantics of each engine.
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

/// Active stuck-at overrides, shared by the scalar engines (crate
/// internal). An association list: fault campaigns force a handful of
/// nets at most, so linear scans beat a map.
#[derive(Debug, Clone, Default)]
pub(crate) struct ForceList {
    entries: Vec<(NetId, Logic)>,
}

impl ForceList {
    /// Adds or replaces the override on `net`.
    pub(crate) fn set(&mut self, net: NetId, value: Logic) {
        match self.entries.iter_mut().find(|(n, _)| *n == net) {
            Some(slot) => slot.1 = value,
            None => self.entries.push((net, value)),
        }
    }

    /// The override on `net`, if any.
    pub(crate) fn get(&self, net: NetId) -> Option<Logic> {
        self.entries
            .iter()
            .find(|(n, _)| *n == net)
            .map(|&(_, v)| v)
    }

    pub(crate) fn entries(&self) -> &[(NetId, Logic)] {
        &self.entries
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Clears the list and hands back the overrides that were active
    /// (the event-driven engine re-wakes their drivers).
    pub(crate) fn take(&mut self) -> Vec<(NetId, Logic)> {
        std::mem::take(&mut self.entries)
    }
}

/// Applies a single-event upset to one stored state slot (crate
/// internal; the shared body of every engine's `upset_flip_flop`).
///
/// # Panics
///
/// Panics if `inst` is not a sequential instance.
pub(crate) fn upset_state_slot(netlist: &Netlist, inst: InstId, slot: &mut Logic) -> bool {
    assert!(
        netlist.instance(inst).kind().is_sequential(),
        "single-event upsets only apply to flip-flops"
    );
    match *slot {
        Logic::Zero => {
            *slot = Logic::One;
            true
        }
        Logic::One => {
            *slot = Logic::Zero;
            true
        }
        Logic::X => false,
    }
}

/// Collects the stored state of every sequential instance in instance
/// order from a per-instance state vector by walking the raw netlist
/// (crate internal; the event-driven engine's `flip_flop_states`).
pub(crate) fn collect_flip_flop_states(netlist: &Netlist, state: &[Logic]) -> Vec<Logic> {
    netlist
        .instances()
        .iter()
        .enumerate()
        .filter(|(_, inst)| inst.kind().is_sequential())
        .map(|(idx, _)| state[idx])
        .collect()
}

/// Cycle-accurate simulator over a validated [`Netlist`].
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    program: Program,
    values: Vec<Logic>,
    state: Vec<Logic>,
    /// Active net overrides (stuck-at faults); tiny in practice.
    forced: ForceList,
    cycle: u64,
    evaluations: u64,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Fails if the netlist does not [`validate`](Netlist::validate).
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        Ok(Simulator {
            netlist,
            program: Program::compile(netlist)?,
            values: vec![Logic::X; netlist.nets().len()],
            state: vec![Logic::X; netlist.instances().len()],
            forced: ForceList::default(),
            cycle: 0,
            evaluations: 0,
        })
    }

    /// Pins `net` at `value` for every subsequent cycle — the
    /// stuck-at fault model. The override replaces whatever the net's
    /// driver (primary input, gate, tie cell or flip-flop Q) produces,
    /// as seen both by combinational fanout and by flip-flop pin
    /// sampling. Forcing an already-forced net replaces its value.
    pub fn force_net(&mut self, net: NetId, value: Logic) {
        self.forced.set(net, value);
    }

    /// Removes every active [`force_net`](Self::force_net) override;
    /// the nets resume following their drivers on the next
    /// [`step`](Self::step).
    pub fn clear_forces(&mut self) {
        self.forced.clear();
    }

    /// Flips the stored state of flip-flop `inst` — a single-event
    /// upset. `0 ↔ 1`; an `X` state is left unchanged. Returns whether
    /// a flip happened. The corrupted value is presented on Q during
    /// the next [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a sequential instance.
    pub fn upset_flip_flop(&mut self, inst: InstId) -> bool {
        upset_state_slot(self.netlist, inst, &mut self.state[inst.index()])
    }

    /// Stored state of every sequential instance, in instance order —
    /// the campaign engine compares these against a golden run to
    /// recognize latent (silent) corruption.
    pub fn flip_flop_states(&self) -> Vec<Logic> {
        self.program
            .ffs
            .iter()
            .map(|ff| self.state[ff.inst as usize])
            .collect()
    }

    /// Number of clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Combinational gate evaluations performed. The levelized engine
    /// settles every gate every cycle, so this is exactly
    /// `cycles × comb_gates` — the dense baseline the event-driven
    /// and bit-sliced engines are measured against.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Current value of `net` (as of the last [`step`](Self::step)).
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Values of the primary outputs, in declaration order.
    pub fn output_values(&self) -> Vec<Logic> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// Advances one clock cycle.
    ///
    /// `inputs` supplies one value per primary input in declaration
    /// order (index 0 is the global reset). The combinational network
    /// settles, the post-settle net values become observable through
    /// [`value`](Self::value), and every flip-flop captures its next
    /// state at the end of the call.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if the slice length
    /// does not match the number of primary inputs.
    pub fn step(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        self.step_from(inputs.iter().copied())
    }

    /// Convenience wrapper over [`step`](Self::step) taking `bool`s.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Self::step).
    pub fn step_bools(&mut self, inputs: &[bool]) -> Result<(), NetlistError> {
        self.step_from(inputs.iter().map(|&b| Logic::from_bool(b)))
    }

    /// The shared step body: drive inputs, present state on Q, apply
    /// forces, settle the gates in program order, capture next state.
    fn step_from(
        &mut self,
        inputs: impl ExactSizeIterator<Item = Logic>,
    ) -> Result<(), NetlistError> {
        let pis = self.netlist.inputs();
        if inputs.len() != pis.len() {
            return Err(NetlistError::InputWidthMismatch {
                expected: pis.len(),
                found: inputs.len(),
            });
        }
        let values = &mut self.values;
        for (&net, v) in pis.iter().zip(inputs) {
            values[net.index()] = v;
        }
        for ff in &self.program.ffs {
            values[ff.q as usize] = self.state[ff.inst as usize];
        }
        for &(net, v) in self.forced.entries() {
            values[net.index()] = v;
        }
        let pins = |values: &[Logic], ins: &[u32; MAX_PINS]| ins.map(|i| values[i as usize]);
        for g in &self.program.gates {
            let v = eval_gate(g.kind, &pins(values, &g.ins));
            values[g.out as usize] = self.forced.get(NetId(g.out)).unwrap_or(v);
        }
        let gates = self.program.gates.len() as u64;
        self.evaluations += gates;
        if obs::enabled() {
            obs::add(obs::Ctr::SimEvaluations, gates);
        }
        // Capture next state in place: pins read settled nets, never
        // another flip-flop's stored state.
        for ff in &self.program.ffs {
            let slot = &mut self.state[ff.inst as usize];
            *slot = ff_next_state(ff.kind, *slot, &pins(values, &ff.ins));
        }
        self.cycle += 1;
        Ok(())
    }
}

impl SimControl for Simulator<'_> {
    fn force_net(&mut self, net: NetId, value: Logic) {
        Simulator::force_net(self, net, value);
    }

    fn clear_forces(&mut self) {
        Simulator::clear_forces(self);
    }

    fn upset_flip_flop(&mut self, inst: InstId) -> bool {
        Simulator::upset_flip_flop(self, inst)
    }

    fn flip_flop_states(&self) -> Vec<Logic> {
        Simulator::flip_flop_states(self)
    }

    fn cycle(&self) -> u64 {
        Simulator::cycle(self)
    }

    fn evaluations(&self) -> u64 {
        Simulator::evaluations(self)
    }

    fn value(&self, net: NetId) -> Logic {
        Simulator::value(self, net)
    }

    fn output_values(&self) -> Vec<Logic> {
        Simulator::output_values(self)
    }

    fn step(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        Simulator::step(self, inputs)
    }

    fn step_bools(&mut self, inputs: &[bool]) -> Result<(), NetlistError> {
        Simulator::step_bools(self, inputs)
    }
}

/// Evaluates a combinational cell on the given pin values (crate
/// internal; shared by the levelized and event-driven simulators).
///
/// # Panics
///
/// Panics (via `unreachable!`) on sequential kinds.
pub(crate) fn eval_gate(kind: CellKind, pins: &[Logic]) -> Logic {
    {
        let v = |i: usize| pins[i];
        match kind {
            CellKind::Inv => v(0).not(),
            CellKind::Buf => v(0),
            CellKind::Nand2 => v(0).and(v(1)).not(),
            CellKind::Nand3 => v(0).and(v(1)).and(v(2)).not(),
            CellKind::Nand4 => v(0).and(v(1)).and(v(2)).and(v(3)).not(),
            CellKind::Nor2 => v(0).or(v(1)).not(),
            CellKind::Nor3 => v(0).or(v(1)).or(v(2)).not(),
            CellKind::Nor4 => v(0).or(v(1)).or(v(2)).or(v(3)).not(),
            CellKind::And2 => v(0).and(v(1)),
            CellKind::And3 => v(0).and(v(1)).and(v(2)),
            CellKind::And4 => v(0).and(v(1)).and(v(2)).and(v(3)),
            CellKind::Or2 => v(0).or(v(1)),
            CellKind::Or3 => v(0).or(v(1)).or(v(2)),
            CellKind::Or4 => v(0).or(v(1)).or(v(2)).or(v(3)),
            CellKind::Xor2 => v(0).xor(v(1)),
            CellKind::Xnor2 => v(0).xor(v(1)).not(),
            CellKind::Aoi21 => v(0).and(v(1)).or(v(2)).not(),
            CellKind::Oai21 => v(0).or(v(1)).and(v(2)).not(),
            CellKind::Mux2 => match v(2) {
                Logic::Zero => v(0),
                Logic::One => v(1),
                Logic::X => v(0).merge(v(1)),
            },
            CellKind::TieHi => Logic::One,
            CellKind::TieLo => Logic::Zero,
            // Sequential outputs are presented from state, not eval'd.
            _ => unreachable!("sequential cell in combinational order"),
        }
    }
}

/// Computes a flip-flop's next state from its current state and
/// sampled pin values (crate internal; shared by both simulators).
///
/// # Panics
///
/// Panics (via `unreachable!`) on combinational kinds.
pub(crate) fn ff_next_state(kind: CellKind, cur: Logic, pins: &[Logic]) -> Logic {
    {
        match kind {
            CellKind::Dff => pins[0],
            CellKind::Dffe => match pins[1] {
                Logic::One => pins[0],
                Logic::Zero => cur,
                Logic::X => pins[0].merge(cur),
            },
            CellKind::Dffr => match pins[1] {
                Logic::One => Logic::Zero,
                Logic::Zero => pins[0],
                Logic::X => Logic::Zero.merge(pins[0]),
            },
            CellKind::Dffs => match pins[1] {
                Logic::One => Logic::One,
                Logic::Zero => pins[0],
                Logic::X => Logic::One.merge(pins[0]),
            },
            CellKind::Dffre => {
                let no_rst = match pins[1] {
                    Logic::One => pins[0],
                    Logic::Zero => cur,
                    Logic::X => pins[0].merge(cur),
                };
                match pins[2] {
                    Logic::One => Logic::Zero,
                    Logic::Zero => no_rst,
                    Logic::X => Logic::Zero.merge(no_rst),
                }
            }
            CellKind::Dffse => {
                let no_set = match pins[1] {
                    Logic::One => pins[0],
                    Logic::Zero => cur,
                    Logic::X => pins[0].merge(cur),
                };
                match pins[2] {
                    Logic::One => Logic::One,
                    Logic::Zero => no_set,
                    Logic::X => Logic::One.merge(no_set),
                }
            }
            _ => unreachable!("combinational cell treated as flip-flop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Every combinational cell, alone in a netlist with one primary
    /// input per pin, under every `0/1/X` pin combination: the
    /// compiled program must agree with the event-driven engine, which
    /// walks the raw netlist. A pin-order slip in the compiler shows
    /// up here as an asymmetric gate (mux, AOI/OAI) disagreeing.
    #[test]
    fn compiled_gates_match_the_raw_netlist_walk_on_every_input() {
        const LEVELS: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];
        for kind in CellKind::ALL.into_iter().filter(|k| !k.is_sequential()) {
            let mut n = Netlist::new(kind.name());
            let pins: Vec<NetId> = (0..kind.num_inputs())
                .map(|i| n.add_input(format!("p{i}")))
                .collect();
            let y = n.gate(kind, &pins).unwrap();
            n.add_output(y);
            let mut compiled = Simulator::new(&n).unwrap();
            let mut raw = crate::EventSimulator::new(&n).unwrap();
            for combo in 0..3usize.pow(pins.len() as u32) {
                let mut inputs = vec![Logic::Zero];
                inputs.extend((0..pins.len()).map(|i| LEVELS[combo / 3usize.pow(i as u32) % 3]));
                compiled.step(&inputs).unwrap();
                raw.step(&inputs).unwrap();
                assert_eq!(compiled.value(y), raw.value(y), "{kind:?} on {inputs:?}");
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
