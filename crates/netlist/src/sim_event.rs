//! Event-driven cycle simulation: only gates whose inputs changed
//! are re-evaluated.
//!
//! The compiled [`Simulator`](crate::Simulator) evaluates every gate
//! every cycle; an SRAG moves a single token per shift, so the vast
//! majority of its nets are quiescent. [`EventSimulator`] keeps the
//! same cycle semantics and external API but propagates only
//! *changes*, processing affected gates in topological-rank order so
//! every gate is evaluated at most once per cycle.
//!
//! It is the oracle of the compiled engine. It walks the raw
//! [`Netlist`] and evaluates with its own scalar truth tables
//! (`eval_gate`, `ff_next_state`), so a bug in the gate compiler
//! or the packed kernel cannot hit both engines at once. The two are
//! cross-checked for exact equivalence throughout the test suite and
//! by the `sliced-vs-scalar`, `gate-level` and `fault-alarm` fuzz
//! families.

use std::collections::BinaryHeap;

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::graph::{Driver, InstId, NetId, Netlist};
use crate::sim::{Logic, SimControl};
use adgen_obs as obs;

/// Event-driven cycle-accurate simulator with the same semantics as
/// [`Simulator`](crate::Simulator).
#[derive(Debug, Clone)]
pub struct EventSimulator<'a> {
    netlist: &'a Netlist,
    /// Topological rank per instance (combinational only; sequential
    /// instances have rank 0 and are never queued).
    rank: Vec<u32>,
    values: Vec<Logic>,
    state: Vec<Logic>,
    queued: Vec<bool>,
    /// Sequential instances whose sampled pins may have changed.
    dirty_ffs: Vec<bool>,
    /// Active net overrides (stuck-at faults); tiny in practice.
    forced: ForceList,
    /// Nets whose force was just cleared; their drivers re-evaluate
    /// on the next step.
    released: Vec<NetId>,
    cycle: u64,
    evaluations: u64,
}

impl<'a> EventSimulator<'a> {
    /// Prepares a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Fails if the netlist does not [`validate`](Netlist::validate).
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let order = netlist.comb_topo_order()?;
        let mut rank = vec![0u32; netlist.instances().len()];
        for (r, id) in order.iter().enumerate() {
            rank[id.index()] = r as u32;
        }
        Ok(EventSimulator {
            netlist,
            rank,
            values: vec![Logic::X; netlist.nets().len()],
            state: vec![Logic::X; netlist.instances().len()],
            queued: vec![false; netlist.instances().len()],
            dirty_ffs: vec![true; netlist.instances().len()],
            forced: ForceList::default(),
            released: Vec::new(),
            cycle: 0,
            evaluations: 0,
        })
    }

    /// Pins `net` at `value` for every subsequent cycle — the
    /// stuck-at fault model, with the same semantics as
    /// [`Simulator::force_net`](crate::Simulator::force_net).
    pub fn force_net(&mut self, net: NetId, value: Logic) {
        self.forced.set(net, value);
    }

    /// Removes every active [`force_net`](Self::force_net) override.
    /// The released nets re-evaluate from their drivers on the next
    /// [`step`](Self::step).
    pub fn clear_forces(&mut self) {
        for (net, _) in self.forced.take() {
            self.released.push(net);
        }
    }

    /// Flips the stored state of flip-flop `inst` — a single-event
    /// upset with the same semantics as
    /// [`Simulator::upset_flip_flop`](crate::Simulator::upset_flip_flop).
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a sequential instance.
    pub fn upset_flip_flop(&mut self, inst: InstId) -> bool {
        assert!(
            self.netlist.instance(inst).kind().is_sequential(),
            "single-event upsets only apply to flip-flops"
        );
        let idx = inst.index();
        let flipped = self.state[idx] != Logic::X;
        self.state[idx] = self.state[idx].not();
        self.dirty_ffs[idx] |= flipped;
        flipped
    }

    /// Stored state of every sequential instance, in instance order.
    pub fn flip_flop_states(&self) -> Vec<Logic> {
        self.netlist
            .instances()
            .iter()
            .zip(&self.state)
            .filter(|(inst, _)| inst.kind().is_sequential())
            .map(|(_, &v)| v)
            .collect()
    }

    /// Number of clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total combinational gate evaluations performed — the
    /// event-driven saving shows as this staying far below
    /// `cycles × gates`.
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

    /// Advances one clock cycle; see
    /// [`Simulator::step`](crate::Simulator::step) for the semantics.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] on a wrong-width
    /// stimulus.
    pub fn step(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        let pis = self.netlist.inputs();
        if inputs.len() != pis.len() {
            return Err(NetlistError::InputWidthMismatch {
                expected: pis.len(),
                found: inputs.len(),
            });
        }
        let evals_at_entry = self.evaluations;
        // Min-heap of (rank, instance) via Reverse ordering.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u32)>> = BinaryHeap::new();
        let set_net = |values: &mut Vec<Logic>,
                       queued: &mut Vec<bool>,
                       dirty_ffs: &mut Vec<bool>,
                       heap: &mut BinaryHeap<std::cmp::Reverse<(u32, u32)>>,
                       rank: &[u32],
                       netlist: &Netlist,
                       forced: &ForceList,
                       net: NetId,
                       v: Logic| {
            // An active stuck-at override wins over any driver.
            let v = forced.get(net).unwrap_or(v);
            if values[net.index()] == v {
                return;
            }
            values[net.index()] = v;
            for &(load, _pin) in netlist.net(net).loads() {
                let idx = load.index();
                if netlist.instance(load).kind().is_sequential() {
                    dirty_ffs[idx] = true;
                } else if !queued[idx] {
                    queued[idx] = true;
                    heap.push(std::cmp::Reverse((rank[idx], idx as u32)));
                }
            }
        };

        // Drive primary inputs.
        for (&net, &v) in pis.iter().zip(inputs) {
            set_net(
                &mut self.values,
                &mut self.queued,
                &mut self.dirty_ffs,
                &mut heap,
                &self.rank,
                self.netlist,
                &self.forced,
                net,
                v,
            );
        }
        // Present flip-flop state on Q pins.
        for (idx, inst) in self.netlist.instances().iter().enumerate() {
            if inst.kind().is_sequential() {
                let v = self.state[idx];
                for &q in inst.outputs() {
                    set_net(
                        &mut self.values,
                        &mut self.queued,
                        &mut self.dirty_ffs,
                        &mut heap,
                        &self.rank,
                        self.netlist,
                        &self.forced,
                        q,
                        v,
                    );
                }
            } else if inst.kind() == CellKind::TieHi && self.cycle == 0 {
                for &o in inst.outputs() {
                    set_net(
                        &mut self.values,
                        &mut self.queued,
                        &mut self.dirty_ffs,
                        &mut heap,
                        &self.rank,
                        self.netlist,
                        &self.forced,
                        o,
                        Logic::One,
                    );
                }
            } else if inst.kind() == CellKind::TieLo && self.cycle == 0 {
                for &o in inst.outputs() {
                    set_net(
                        &mut self.values,
                        &mut self.queued,
                        &mut self.dirty_ffs,
                        &mut heap,
                        &self.rank,
                        self.netlist,
                        &self.forced,
                        o,
                        Logic::Zero,
                    );
                }
            }
        }
        // Seed active faults: pin each forced net and queue its loads
        // even if no regular event touched it this cycle.
        for i in 0..self.forced.entries().len() {
            let (net, v) = self.forced.entries()[i];
            set_net(
                &mut self.values,
                &mut self.queued,
                &mut self.dirty_ffs,
                &mut heap,
                &self.rank,
                self.netlist,
                &self.forced,
                net,
                v,
            );
        }
        // Wake the drivers of just-released nets so the stale pinned
        // values are recomputed (PI and Q drives above already handle
        // input- and flip-flop-driven nets).
        for net in std::mem::take(&mut self.released) {
            if let Some(Driver::Inst { inst, .. }) = self.netlist.net(net).driver() {
                let idx = inst.index();
                let kind = self.netlist.instance(inst).kind();
                if kind.is_sequential() {
                    continue;
                }
                if kind.num_inputs() == 0 {
                    // Tie cells fire events only at cycle 0; restore
                    // their constant directly.
                    let v = if kind == CellKind::TieHi {
                        Logic::One
                    } else {
                        Logic::Zero
                    };
                    set_net(
                        &mut self.values,
                        &mut self.queued,
                        &mut self.dirty_ffs,
                        &mut heap,
                        &self.rank,
                        self.netlist,
                        &self.forced,
                        net,
                        v,
                    );
                } else if !self.queued[idx] {
                    self.queued[idx] = true;
                    heap.push(std::cmp::Reverse((self.rank[idx], idx as u32)));
                }
            }
        }
        // Propagate changes in rank order.
        while let Some(std::cmp::Reverse((_, idx))) = heap.pop() {
            let idx = idx as usize;
            self.queued[idx] = false;
            let inst = self.netlist.instance(InstId(idx as u32));
            if inst.kind().num_inputs() == 0 {
                continue;
            }
            let pins: Vec<Logic> = inst
                .inputs()
                .iter()
                .map(|&i| self.values[i.index()])
                .collect();
            let v = eval_gate(inst.kind(), &pins);
            self.evaluations += 1;
            for &o in inst.outputs() {
                set_net(
                    &mut self.values,
                    &mut self.queued,
                    &mut self.dirty_ffs,
                    &mut heap,
                    &self.rank,
                    self.netlist,
                    &self.forced,
                    o,
                    v,
                );
            }
        }
        // Capture next state for flip-flops whose pins changed.
        for (idx, inst) in self.netlist.instances().iter().enumerate() {
            if !inst.kind().is_sequential() || !self.dirty_ffs[idx] {
                continue;
            }
            self.dirty_ffs[idx] = false;
            let pins: Vec<Logic> = inst
                .inputs()
                .iter()
                .map(|&i| self.values[i.index()])
                .collect();
            self.state[idx] = ff_next_state(inst.kind(), self.state[idx], &pins);
            // If the captured state differs from the presented value,
            // next cycle's presentation must fire events; mark dirty
            // so the FF is re-sampled if pins stay changed. (The Q
            // present in the next step handles propagation; the FF
            // itself re-captures only when pins change again, but a
            // hold-type FF with static pins still needs re-capture
            // when its own Q changed — its D may depend on Q.)
            if inst
                .inputs()
                .iter()
                .any(|&i| self.values[i.index()] != self.state[idx])
            {
                // Conservatively re-sample next cycle; cheap and safe.
                self.dirty_ffs[idx] = true;
            }
        }
        self.cycle += 1;
        if obs::enabled() {
            obs::add(obs::Ctr::SimEvaluations, self.evaluations - evals_at_entry);
        }
        Ok(())
    }

    /// Convenience wrapper over [`step`](Self::step) taking `bool`s.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Self::step).
    pub fn step_bools(&mut self, inputs: &[bool]) -> Result<(), NetlistError> {
        let v: Vec<Logic> = inputs.iter().map(|&b| Logic::from_bool(b)).collect();
        self.step(&v)
    }
}

impl SimControl for EventSimulator<'_> {
    fn force_net(&mut self, net: NetId, value: Logic) {
        EventSimulator::force_net(self, net, value);
    }

    fn clear_forces(&mut self) {
        EventSimulator::clear_forces(self);
    }

    fn upset_flip_flop(&mut self, inst: InstId) -> bool {
        EventSimulator::upset_flip_flop(self, inst)
    }

    fn flip_flop_states(&self) -> Vec<Logic> {
        EventSimulator::flip_flop_states(self)
    }

    fn cycle(&self) -> u64 {
        EventSimulator::cycle(self)
    }

    fn evaluations(&self) -> u64 {
        EventSimulator::evaluations(self)
    }

    fn value(&self, net: NetId) -> Logic {
        EventSimulator::value(self, net)
    }

    fn output_values(&self) -> Vec<Logic> {
        EventSimulator::output_values(self)
    }

    fn step(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        EventSimulator::step(self, inputs)
    }
}

/// Active stuck-at overrides. An association list: fault campaigns
/// force a handful of nets at most, so linear scans beat a map.
#[derive(Debug, Clone, Default)]
struct ForceList {
    entries: Vec<(NetId, Logic)>,
}

impl ForceList {
    /// Adds or replaces the override on `net`.
    fn set(&mut self, net: NetId, value: Logic) {
        match self.entries.iter_mut().find(|(n, _)| *n == net) {
            Some(slot) => slot.1 = value,
            None => self.entries.push((net, value)),
        }
    }

    /// The override on `net`, if any.
    fn get(&self, net: NetId) -> Option<Logic> {
        self.entries
            .iter()
            .find(|(n, _)| *n == net)
            .map(|&(_, v)| v)
    }

    fn entries(&self) -> &[(NetId, Logic)] {
        &self.entries
    }

    /// Clears the list and hands back the overrides that were active
    /// (the event-driven engine re-wakes their drivers).
    fn take(&mut self) -> Vec<(NetId, Logic)> {
        std::mem::take(&mut self.entries)
    }
}

/// Evaluates a combinational cell on the given pin values — the scalar
/// truth tables the compiled engine's packed evaluator is checked
/// against.
///
/// # Panics
///
/// Panics (via `unreachable!`) on sequential kinds.
fn eval_gate(kind: CellKind, pins: &[Logic]) -> Logic {
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

/// Computes a flip-flop's next state from its current state and
/// sampled pin values.
///
/// # Panics
///
/// Panics (via `unreachable!`) on combinational kinds.
fn ff_next_state(kind: CellKind, cur: Logic, pins: &[Logic]) -> Logic {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    /// Both simulators must agree on every net, every cycle, for a
    /// stimulus with stalls and mid-stream resets.
    fn cross_check(netlist: &Netlist, cycles: usize) {
        let mut reference = Simulator::new(netlist).unwrap();
        let mut event = EventSimulator::new(netlist).unwrap();
        let num_inputs = netlist.inputs().len();
        let mut lcg = 42u64;
        for cycle in 0..cycles {
            let mut inputs = vec![Logic::Zero; num_inputs];
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = lcg >> 33;
            // Occasionally reset; other inputs pseudo-random.
            inputs[0] = Logic::from_bool(cycle == 0 || r.is_multiple_of(17));
            for (k, v) in inputs.iter_mut().enumerate().skip(1) {
                *v = Logic::from_bool((r >> k) & 1 == 1);
            }
            reference.step(&inputs).unwrap();
            event.step(&inputs).unwrap();
            for i in 0..netlist.nets().len() {
                let id = netlist.net_id_from_index(i);
                assert_eq!(
                    reference.value(id),
                    event.value(id),
                    "cycle {cycle}, net {}",
                    netlist.net(id).name()
                );
            }
        }
    }

    #[test]
    fn agrees_on_counters() {
        let mut n = Netlist::new("cnt");
        let en = n.add_input("en");
        let c = adgen_test_counter(&mut n, en);
        n.add_output(c);
        cross_check(&n, 80);
    }

    /// Small helper: 3-bit counter carry out.
    fn adgen_test_counter(n: &mut Netlist, en: NetId) -> NetId {
        // Hand-rolled 3-bit counter (avoids a dev-dependency cycle on
        // adgen-synth).
        let rst = n.reset();
        let q: Vec<NetId> = (0..3).map(|i| n.add_net(format!("q{i}"))).collect();
        let c1 = en;
        let c2 = n.gate(CellKind::And2, &[en, q[0]]).unwrap();
        let c3 = n.gate(CellKind::And3, &[en, q[0], q[1]]).unwrap();
        for (i, &c) in [c1, c2, c3].iter().enumerate() {
            let d = n.gate(CellKind::Xor2, &[q[i], c]).unwrap();
            n.add_instance(format!("ff{i}"), CellKind::Dffr, &[d, rst], &[q[i]])
                .unwrap();
        }
        n.gate(CellKind::And4, &[en, q[0], q[1], q[2]]).unwrap()
    }

    #[test]
    fn agrees_on_ring_with_muxes() {
        let mut n = Netlist::new("ring");
        let en = n.add_input("en");
        let sel = n.add_input("sel");
        let rst = n.reset();
        let q: Vec<NetId> = (0..4).map(|i| n.add_net(format!("r{i}"))).collect();
        for i in 0..4 {
            let prev = q[(i + 3) % 4];
            let alt = q[(i + 2) % 4];
            let d = n.gate(CellKind::Mux2, &[prev, alt, sel]).unwrap();
            let kind = if i == 0 {
                CellKind::Dffse
            } else {
                CellKind::Dffre
            };
            n.add_instance(format!("ff{i}"), kind, &[d, en, rst], &[q[i]])
                .unwrap();
            n.add_output(q[i]);
        }
        cross_check(&n, 60);
    }

    #[test]
    fn agrees_on_tie_cells_and_constants() {
        let mut n = Netlist::new("ties");
        let hi = n.gate(CellKind::TieHi, &[]).unwrap();
        let lo = n.gate(CellKind::TieLo, &[]).unwrap();
        let a = n.add_input("a");
        let y = n.gate(CellKind::Aoi21, &[hi, a, lo]).unwrap();
        n.add_output(y);
        cross_check(&n, 20);
    }

    #[test]
    fn agrees_under_stuck_at_and_upset() {
        // Ring of 4 FFs: inject a stuck-at on a Q net mid-run, clear
        // it, then flip one FF — both simulators must stay identical
        // on every net, every cycle.
        let mut n = Netlist::new("fault_ring");
        let en = n.add_input("en");
        let rst = n.reset();
        let q: Vec<NetId> = (0..4).map(|i| n.add_net(format!("r{i}"))).collect();
        let mut ff_ids = Vec::new();
        for i in 0..4 {
            let prev = q[(i + 3) % 4];
            let kind = if i == 0 {
                CellKind::Dffse
            } else {
                CellKind::Dffre
            };
            n.add_instance(format!("ff{i}"), kind, &[prev, en, rst], &[q[i]])
                .unwrap();
            ff_ids.push(n.inst_id_from_index(n.num_instances() - 1));
            n.add_output(q[i]);
        }
        let mut reference = Simulator::new(&n).unwrap();
        let mut event = EventSimulator::new(&n).unwrap();
        let check = |reference: &Simulator<'_>, event: &EventSimulator<'_>, tag: &str| {
            for i in 0..n.nets().len() {
                let id = n.net_id_from_index(i);
                assert_eq!(
                    reference.value(id),
                    event.value(id),
                    "{tag}, net {}",
                    n.net(id).name()
                );
            }
            assert_eq!(
                reference.flip_flop_states(),
                event.flip_flop_states(),
                "{tag} states"
            );
        };
        let drive = |reference: &mut Simulator<'_>,
                     event: &mut EventSimulator<'_>,
                     rst_v: bool,
                     tag: &str| {
            reference.step_bools(&[rst_v, true]).unwrap();
            event.step_bools(&[rst_v, true]).unwrap();
            check(reference, event, tag);
        };
        drive(&mut reference, &mut event, true, "reset");
        for c in 0..3 {
            drive(&mut reference, &mut event, false, &format!("pre {c}"));
        }
        // Stuck-at-1 on r2.
        reference.force_net(q[2], Logic::One);
        event.force_net(q[2], Logic::One);
        for c in 0..6 {
            drive(&mut reference, &mut event, false, &format!("sa1 {c}"));
        }
        reference.clear_forces();
        event.clear_forces();
        for c in 0..4 {
            drive(&mut reference, &mut event, false, &format!("clear {c}"));
        }
        // Single-event upset on ff1.
        assert_eq!(
            reference.upset_flip_flop(ff_ids[1]),
            event.upset_flip_flop(ff_ids[1])
        );
        for c in 0..6 {
            drive(&mut reference, &mut event, false, &format!("seu {c}"));
        }
    }

    #[test]
    fn evaluation_count_is_sparse_for_quiet_designs() {
        // A wide bank of independent FFs driven by one input: after
        // the input settles, nothing should be re-evaluated.
        let mut n = Netlist::new("bank");
        let d = n.add_input("d");
        let rst = n.reset();
        let mut gates = 0;
        for i in 0..50 {
            let w = n.gate(CellKind::Buf, &[d]).unwrap();
            gates += 1;
            let q = n.add_net(format!("q{i}"));
            n.add_instance(format!("ff{i}"), CellKind::Dffr, &[w, rst], &[q])
                .unwrap();
            n.add_output(q);
        }
        let mut sim = EventSimulator::new(&n).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        let after_reset = sim.evaluations();
        for _ in 0..100 {
            sim.step_bools(&[false, false]).unwrap();
        }
        // One re-evaluation burst when reset fell; then silence.
        assert!(
            sim.evaluations() <= after_reset + gates,
            "evaluations {} vs baseline {}",
            sim.evaluations(),
            after_reset
        );
    }
}
