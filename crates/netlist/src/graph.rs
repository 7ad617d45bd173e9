//! The flat structural netlist IR.
//!
//! A [`Netlist`] is a set of [`Net`]s connected by cell [`Instance`]s.
//! Construction is incremental: create nets with [`Netlist::add_net`]
//! or [`Netlist::add_input`], connect them with
//! [`Netlist::add_instance`], and finally check structural invariants
//! with [`Netlist::validate`].
//!
//! Clocking is implicit: every sequential cell is driven by a single
//! global clock that is not represented as a net. A dedicated global
//! `reset` primary input is created with every netlist and is available
//! through [`Netlist::reset`]; generators wire it to the reset/set pins
//! of their state elements.

use std::collections::HashSet;
use std::fmt;

use crate::cell::CellKind;
use crate::error::NetlistError;

/// Identifier of a net within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a cell instance within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub(crate) u32);

impl InstId {
    /// The raw index of this instance.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The net is a primary input, driven from outside the netlist.
    Input,
    /// The net is driven by output pin `pin` of instance `inst`.
    Inst {
        /// Driving instance.
        inst: InstId,
        /// Output pin index on the driving instance.
        pin: usize,
    },
}

/// A single electrical node.
#[derive(Debug, Clone)]
pub struct Net {
    name: String,
    driver: Option<Driver>,
    loads: Vec<(InstId, usize)>,
}

impl Net {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The net's driver, if connected.
    pub fn driver(&self) -> Option<Driver> {
        self.driver
    }

    /// The `(instance, input-pin)` pairs this net fans out to.
    pub fn loads(&self) -> &[(InstId, usize)] {
        &self.loads
    }
}

/// One placed standard cell.
#[derive(Debug, Clone)]
pub struct Instance {
    name: String,
    kind: CellKind,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
}

impl Instance {
    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The library cell this instance is.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Nets connected to the input pins, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Nets connected to the output pins, in pin order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }
}

/// A flat gate-level netlist.
///
/// See the [module documentation](self) for the construction model.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    insts: Vec<Instance>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    reset: NetId,
    fresh: u64,
}

impl Netlist {
    /// Creates an empty netlist. A global `reset` primary input is
    /// created automatically (see [`Netlist::reset`]).
    pub fn new(name: impl Into<String>) -> Self {
        let mut n = Netlist {
            name: name.into(),
            nets: Vec::new(),
            insts: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            reset: NetId(0),
            fresh: 0,
        };
        let reset = n.add_input("reset");
        n.reset = reset;
        n
    }

    /// The netlist (module) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dedicated global reset net (always primary input 0).
    pub fn reset(&self) -> NetId {
        self.reset
    }

    /// Adds an undriven net. It must be driven by a later
    /// [`add_instance`](Netlist::add_instance) call for
    /// [`validate`](Netlist::validate) to pass.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.into(),
            driver: None,
            loads: Vec::new(),
        });
        id
    }

    /// Adds a net with an auto-generated unique name using `prefix`.
    fn fresh_net(&mut self, prefix: &str) -> NetId {
        self.fresh += 1;
        let name = format!("{prefix}_{}", self.fresh);
        self.add_net(name)
    }

    /// Adds a primary input net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.nets[id.index()].driver = Some(Driver::Input);
        self.inputs.push(id);
        id
    }

    /// Marks an existing net as a primary output. A net may be marked
    /// more than once; duplicates are ignored.
    pub fn add_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Instantiates a cell.
    ///
    /// `inputs` and `outputs` are nets connected to the cell pins in
    /// the pin order documented on [`CellKind`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PinCountMismatch`] if the slice lengths
    /// do not match the cell kind, [`NetlistError::UnknownNet`] for
    /// out-of-range net ids, and [`NetlistError::MultipleDrivers`] if
    /// any output net already has a driver.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> Result<InstId, NetlistError> {
        let name = name.into();
        if inputs.len() != kind.num_inputs() {
            return Err(NetlistError::PinCountMismatch {
                instance: name,
                expected: kind.num_inputs(),
                found: inputs.len(),
                direction: "input",
            });
        }
        if outputs.len() != kind.num_outputs() {
            return Err(NetlistError::PinCountMismatch {
                instance: name,
                expected: kind.num_outputs(),
                found: outputs.len(),
                direction: "output",
            });
        }
        for &n in inputs.iter().chain(outputs.iter()) {
            if n.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet { index: n.index() });
            }
        }
        for &o in outputs {
            if self.nets[o.index()].driver.is_some() {
                return Err(NetlistError::MultipleDrivers {
                    net: self.nets[o.index()].name.clone(),
                });
            }
        }
        let id = InstId(self.insts.len() as u32);
        for (pin, &i) in inputs.iter().enumerate() {
            self.nets[i.index()].loads.push((id, pin));
        }
        for (pin, &o) in outputs.iter().enumerate() {
            self.nets[o.index()].driver = Some(Driver::Inst { inst: id, pin });
        }
        self.insts.push(Instance {
            name,
            kind,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
        });
        Ok(id)
    }

    /// Convenience: instantiate a single-output gate with a fresh
    /// auto-named output net; returns the output net.
    ///
    /// # Errors
    ///
    /// Same conditions as [`add_instance`](Netlist::add_instance).
    pub fn gate(&mut self, kind: CellKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        let out = self.fresh_net(kind.name());
        self.fresh += 1;
        let name = format!("u_{}_{}", kind.name(), self.fresh);
        self.add_instance(name, kind, inputs, &[out])?;
        Ok(out)
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All instances.
    pub fn instances(&self) -> &[Instance] {
        &self.insts
    }

    /// The net with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The [`NetId`] of the net stored at position `index` (ids are
    /// dense indices in creation order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn net_id_from_index(&self, index: usize) -> NetId {
        assert!(index < self.nets.len(), "net index out of range");
        NetId(index as u32)
    }

    /// The [`InstId`] of the instance stored at position `index` (ids
    /// are dense indices in creation order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn inst_id_from_index(&self, index: usize) -> InstId {
        assert!(
            index < self.instances().len(),
            "instance index out of range"
        );
        InstId(index as u32)
    }

    /// The instance with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.insts[id.index()]
    }

    /// Primary input nets, in creation order (index 0 is `reset`).
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in creation order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Number of cell instances.
    pub fn num_instances(&self) -> usize {
        self.insts.len()
    }

    /// Number of sequential (state-holding) instances.
    pub fn num_flip_flops(&self) -> usize {
        self.insts.iter().filter(|i| i.kind.is_sequential()).count()
    }

    /// Reconnects input pin `pin` of `inst` from its current net to
    /// `new_net`. Used by netlist transformation passes such as
    /// fanout-buffer insertion.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `new_net` is out of
    /// range and [`NetlistError::PinCountMismatch`] if `pin` is not a
    /// valid input pin of `inst`.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of range.
    pub fn rewire_input(
        &mut self,
        inst: InstId,
        pin: usize,
        new_net: NetId,
    ) -> Result<(), NetlistError> {
        if new_net.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet {
                index: new_net.index(),
            });
        }
        let instance = &mut self.insts[inst.index()];
        if pin >= instance.inputs.len() {
            return Err(NetlistError::PinCountMismatch {
                instance: instance.name.clone(),
                expected: instance.inputs.len(),
                found: pin + 1,
                direction: "input",
            });
        }
        let old = instance.inputs[pin];
        instance.inputs[pin] = new_net;
        let old_net = &mut self.nets[old.index()];
        old_net.loads.retain(|&(i, p)| !(i == inst && p == pin));
        self.nets[new_net.index()].loads.push((inst, pin));
        Ok(())
    }

    /// Checks structural invariants:
    ///
    /// * every net is driven (primary input or exactly one cell output),
    /// * instance names are unique,
    /// * the combinational subgraph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        for net in &self.nets {
            if net.driver.is_none() {
                return Err(NetlistError::UndrivenNet {
                    net: net.name.clone(),
                });
            }
        }
        let mut seen = HashSet::with_capacity(self.insts.len());
        for inst in &self.insts {
            if !seen.insert(inst.name.as_str()) {
                return Err(NetlistError::DuplicateInstanceName {
                    name: inst.name.clone(),
                });
            }
        }
        self.comb_topo_order().map(|_| ())
    }

    /// Topological order of the *combinational* instances.
    ///
    /// Sequential instances break timing/evaluation paths and are not
    /// included. Order is suitable for single-pass evaluation or
    /// arrival-time propagation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the
    /// combinational subgraph is cyclic.
    pub fn comb_topo_order(&self) -> Result<Vec<InstId>, NetlistError> {
        // Kahn's algorithm over combinational instances. The in-degree
        // of an instance is the number of its input pins driven by
        // other combinational instances.
        let n = self.insts.len();
        let mut indeg = vec![0usize; n];
        for (idx, inst) in self.insts.iter().enumerate() {
            if inst.kind.is_sequential() {
                continue;
            }
            for &i in &inst.inputs {
                if let Some(Driver::Inst { inst: d, .. }) = self.nets[i.index()].driver {
                    if !self.insts[d.index()].kind.is_sequential() {
                        indeg[idx] += 1;
                    }
                }
            }
        }
        let mut queue: Vec<usize> = (0..n)
            .filter(|&i| !self.insts[i].kind.is_sequential() && indeg[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(InstId(i as u32));
            for &o in &self.insts[i].outputs {
                for &(load, _) in &self.nets[o.index()].loads {
                    let l = load.index();
                    if self.insts[l].kind.is_sequential() {
                        continue;
                    }
                    indeg[l] -= 1;
                    if indeg[l] == 0 {
                        queue.push(l);
                    }
                }
            }
        }
        let num_comb = self
            .insts
            .iter()
            .filter(|i| !i.kind.is_sequential())
            .count();
        if order.len() != num_comb {
            let stuck = (0..n)
                .find(|&i| !self.insts[i].kind.is_sequential() && indeg[i] > 0)
                .expect("cycle implies a stuck instance");
            return Err(NetlistError::CombinationalCycle {
                instance: self.insts[stuck].name.clone(),
            });
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv_chain(len: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let mut cur = n.add_input("in");
        for i in 0..len {
            let out = n.add_net(format!("w{i}"));
            n.add_instance(format!("inv{i}"), CellKind::Inv, &[cur], &[out])
                .unwrap();
            cur = out;
        }
        n.add_output(cur);
        n
    }

    #[test]
    fn build_and_validate_chain() {
        let n = inv_chain(5);
        assert_eq!(n.num_instances(), 5);
        assert_eq!(n.inputs().len(), 2); // reset + in
        assert_eq!(n.outputs().len(), 1);
        n.validate().unwrap();
    }

    #[test]
    fn reset_is_first_input() {
        let n = Netlist::new("t");
        assert_eq!(n.inputs()[0], n.reset());
        assert_eq!(n.net(n.reset()).name(), "reset");
    }

    #[test]
    fn pin_count_checked() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_net("y");
        let err = n
            .add_instance("g", CellKind::Nand2, &[a], &[y])
            .unwrap_err();
        assert!(matches!(err, NetlistError::PinCountMismatch { .. }));
    }

    #[test]
    fn double_drive_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_net("y");
        n.add_instance("g0", CellKind::Inv, &[a], &[y]).unwrap();
        let err = n.add_instance("g1", CellKind::Inv, &[a], &[y]).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn undriven_net_detected() {
        let mut n = Netlist::new("t");
        let a = n.add_net("floating");
        let _ = a;
        let err = n.validate().unwrap_err();
        assert!(matches!(err, NetlistError::UndrivenNet { .. }));
    }

    #[test]
    fn duplicate_instance_names_detected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y0 = n.add_net("y0");
        let y1 = n.add_net("y1");
        n.add_instance("g", CellKind::Inv, &[a], &[y0]).unwrap();
        n.add_instance("g", CellKind::Inv, &[a], &[y1]).unwrap();
        let err = n.validate().unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateInstanceName { .. }));
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let b = n.add_net("b");
        n.add_instance("g0", CellKind::Inv, &[a], &[b]).unwrap();
        n.add_instance("g1", CellKind::Inv, &[b], &[a]).unwrap();
        let err = n.validate().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle { .. }));
    }

    #[test]
    fn ff_breaks_cycle() {
        // inv -> dff -> back to inv: legal sequential loop.
        let mut n = Netlist::new("t");
        let q = n.add_net("q");
        let d = n.add_net("d");
        n.add_instance("inv", CellKind::Inv, &[q], &[d]).unwrap();
        let rst = n.reset();
        n.add_instance("ff", CellKind::Dffr, &[d, rst], &[q])
            .unwrap();
        n.validate().unwrap();
        assert_eq!(n.num_flip_flops(), 1);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let n = inv_chain(10);
        let order = n.comb_topo_order().unwrap();
        assert_eq!(order.len(), 10);
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        for (idx, inst) in n.instances().iter().enumerate() {
            for &i in inst.inputs() {
                if let Some(Driver::Inst { inst: d, .. }) = n.net(i).driver() {
                    assert!(pos[&d] < pos[&InstId(idx as u32)]);
                }
            }
        }
    }

    #[test]
    fn gate_helper_auto_names() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.gate(CellKind::Nand2, &[a, b]).unwrap();
        n.add_output(y);
        n.validate().unwrap();
        assert_eq!(n.num_instances(), 1);
    }

    #[test]
    fn rewire_input_moves_load() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_net("y");
        let g = n.add_instance("g", CellKind::Inv, &[a], &[y]).unwrap();
        assert_eq!(n.net(a).loads().len(), 1);
        n.rewire_input(g, 0, b).unwrap();
        assert!(n.net(a).loads().is_empty());
        assert_eq!(n.net(b).loads(), &[(g, 0)]);
        assert_eq!(n.instance(g).inputs(), &[b]);
        n.validate().unwrap();
    }

    #[test]
    fn rewire_input_checks_pin() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_net("y");
        let g = n.add_instance("g", CellKind::Inv, &[a], &[y]).unwrap();
        assert!(n.rewire_input(g, 5, a).is_err());
        assert!(n.rewire_input(g, 0, NetId(99)).is_err());
    }

    #[test]
    fn unknown_net_rejected() {
        let mut n = Netlist::new("t");
        let bogus = NetId(999);
        let y = n.add_net("y");
        let err = n
            .add_instance("g", CellKind::Inv, &[bogus], &[y])
            .unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNet { .. }));
    }
}
