//! The compiled gate program the [`Simulator`](crate::Simulator)
//! steps from (crate internal).
//!
//! [`Netlist`] is built for construction and analysis: instances are
//! reached through [`InstId`](crate::InstId)s and carry their names
//! and cell kinds beside their pins. A simulator that walks it pays a
//! pointer chase per gate and a slice per pin on every cycle.
//! [`Program::compile`] flattens the netlist once — when a
//! [`Simulator`](crate::Simulator) is constructed, on one lane or
//! many — into two arrays of fixed-width records:
//!
//! * [`Gate`]s: the combinational instances in topological order,
//!   `{kind, out, ins}`;
//! * [`FlipFlop`]s: the sequential instances in instance order,
//!   `{kind, inst, q, ins}`.
//!
//! Every `vcl018` cell has exactly one output and at most
//! [`MAX_PINS`] inputs ([`CellKind::num_outputs`],
//! [`CellKind::num_inputs`]), so a record is a handful of words and
//! the settle loop is a linear scan. Unused pin slots hold net 0 (the
//! global reset, which every netlist has), so an engine may gather
//! all [`MAX_PINS`] pins without a length check; the evaluators only
//! read the first `num_inputs` of them.
//!
//! The event-driven engine deliberately keeps walking the raw
//! [`Netlist`], so every differential check of the compiled engine
//! compares it against an oracle that does not go through this
//! compiler.

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::graph::{NetId, Netlist};

/// Widest input-pin list of any cell kind; both the netlist's inline
/// pins and the compiled records hold this many.
pub(crate) const MAX_PINS: usize = 4;

/// One combinational gate: evaluate `kind` on `ins`, drive `out`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gate {
    pub(crate) kind: CellKind,
    /// Output net index.
    pub(crate) out: u32,
    /// Input net indices in pin order, padded with net 0.
    pub(crate) ins: [u32; MAX_PINS],
}

/// One flip-flop: present state slot `inst` on `q`, capture from `ins`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlipFlop {
    pub(crate) kind: CellKind,
    /// Instance index (the engines keep state per instance).
    pub(crate) inst: u32,
    /// Q net index.
    pub(crate) q: u32,
    /// Input net indices in pin order, padded with net 0.
    pub(crate) ins: [u32; MAX_PINS],
}

/// A netlist compiled for cycle simulation.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    /// Combinational gates in topological order.
    pub(crate) gates: Vec<Gate>,
    /// Flip-flops in instance order.
    pub(crate) ffs: Vec<FlipFlop>,
}

impl Program {
    /// Validates `netlist` (or reuses its cached validation) and
    /// flattens it.
    ///
    /// # Errors
    ///
    /// Fails if the netlist does not [`validate`](Netlist::validate).
    pub(crate) fn compile(netlist: &Netlist) -> Result<Program, NetlistError> {
        let order = netlist.validated_order()?;
        let pins = |inputs: &[NetId]| {
            let mut ins = [0u32; MAX_PINS];
            for (slot, net) in ins.iter_mut().zip(inputs) {
                *slot = net.0;
            }
            ins
        };
        let gates = order
            .iter()
            .map(|&id| {
                let inst = netlist.instance(id);
                Gate {
                    kind: inst.kind(),
                    out: inst.outputs()[0].0,
                    ins: pins(inst.inputs()),
                }
            })
            .collect();
        let ffs = netlist
            .instances()
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.kind().is_sequential())
            .map(|(idx, inst)| FlipFlop {
                kind: inst.kind(),
                inst: idx as u32,
                q: inst.outputs()[0].0,
                ins: pins(inst.inputs()),
            })
            .collect();
        Ok(Program { gates, ffs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_follow_topological_and_instance_order() {
        let mut n = Netlist::new("p");
        let a = n.add_input("a");
        let q = n.add_net("q");
        let x = n.gate(CellKind::Nand2, &[a, q]).unwrap();
        let y = n.gate(CellKind::Inv, &[x]).unwrap();
        let rst = n.reset();
        n.add_instance("ff", CellKind::Dffr, &[y, rst], &[q])
            .unwrap();
        n.add_output(q);
        let p = Program::compile(&n).unwrap();
        assert_eq!((p.gates.len(), p.ffs.len()), (2, 1));
        let nand = p.gates[0];
        assert_eq!(nand.kind, CellKind::Nand2);
        assert_eq!(nand.out, x.0);
        assert_eq!(
            nand.ins,
            [a.0, q.0, 0, 0],
            "pin order kept, padded with net 0"
        );
        assert_eq!(p.gates[1].ins[0], x.0, "inverter after its driver");
        let ff = p.ffs[0];
        assert_eq!((ff.kind, ff.inst, ff.q), (CellKind::Dffr, 2, q.0));
        assert_eq!(ff.ins, [y.0, rst.0, 0, 0]);
    }

    #[test]
    fn invalid_netlists_do_not_compile() {
        let mut n = Netlist::new("bad");
        let dangling = n.add_net("dangling");
        n.add_output(dangling);
        assert!(Program::compile(&n).is_err());
    }
}
