//! The flat structural netlist IR.
//!
//! A [`Netlist`] is a set of [`Net`]s connected by cell [`Instance`]s.
//! Construction is incremental: create nets with [`Netlist::add_net`]
//! or [`Netlist::add_input`], connect them with
//! [`Netlist::add_instance`], and finally check structural invariants
//! with [`Netlist::validate`].
//!
//! A successful validation keeps the combinational order it computed,
//! so timing and simulation reuse it instead of validating and
//! sorting again, and the first simulator built on the netlist
//! compiles the gate program from it into the same cache, so every
//! later simulator borrows that one program. Every `&mut self` method
//! drops both: the next validation sees the edit.
//!
//! Clocking is implicit: every sequential cell is driven by a single
//! global clock that is not represented as a net. A dedicated global
//! `reset` primary input is created with every netlist and is available
//! through [`Netlist::reset`]; generators wire it to the reset/set pins
//! of their state elements.

use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

use adgen_obs as obs;

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::program::{Program, MAX_PINS};

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
    /// Marked as a primary output.
    output: bool,
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

/// One placed standard cell. Every cell has one output and at most
/// `MAX_PINS` inputs, so the pins are stored inline.
#[derive(Debug, Clone)]
pub struct Instance {
    name: String,
    kind: CellKind,
    /// Input nets in pin order; slots past `num_inputs` hold net 0.
    inputs: [NetId; MAX_PINS],
    num_inputs: u8,
    output: NetId,
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
        &self.inputs[..usize::from(self.num_inputs)]
    }

    /// Nets connected to the output pins, in pin order.
    pub fn outputs(&self) -> &[NetId] {
        std::slice::from_ref(&self.output)
    }
}

/// What a successful validation leaves behind until the next edit.
#[derive(Debug)]
struct Validated {
    /// The combinational instances in topological order.
    order: Vec<InstId>,
    /// The gate program compiled from `order`, filled when the first
    /// simulator of the netlist is built.
    program: OnceLock<Program>,
}

/// A clone keeps the validated order and compiles its own program on
/// first use: clones are edited independently, so they share nothing.
impl Clone for Validated {
    fn clone(&self) -> Self {
        Validated {
            order: self.order.clone(),
            program: OnceLock::new(),
        }
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
    /// The last successful validation and the program compiled from
    /// it; emptied by every edit.
    validated: OnceLock<Validated>,
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
            validated: OnceLock::new(),
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
        self.validated.take();
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.into(),
            driver: None,
            loads: Vec::new(),
            output: false,
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
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn add_output(&mut self, net: NetId) {
        self.validated.take();
        let mark = &mut self.nets[net.index()].output;
        if !*mark {
            *mark = true;
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
        self.validated.take();
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
        let output = outputs[0];
        self.nets[output.index()].driver = Some(Driver::Inst { inst: id, pin: 0 });
        let mut pins = [NetId(0); MAX_PINS];
        pins[..inputs.len()].copy_from_slice(inputs);
        self.insts.push(Instance {
            name,
            kind,
            inputs: pins,
            num_inputs: inputs.len() as u8,
            output,
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

    /// Caps the fanout of `net` at `max_fanout` with one level of
    /// buffers: if it drives more than `max_fanout` pins, its loads
    /// move, in load order, onto fresh [`CellKind::Buf`] gates of
    /// `ceil(loads / max_fanout)` loads each. Afterwards `net` drives
    /// exactly those buffers, in creation order. Returns the number of
    /// buffers inserted (0 when the net is within the bound).
    ///
    /// A buffer may itself drive more than `max_fanout` pins; splitting
    /// the buffers in turn builds a tree.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `net` is out of range.
    ///
    /// # Panics
    ///
    /// Panics if `max_fanout` is zero.
    pub fn split_fanout(&mut self, net: NetId, max_fanout: usize) -> Result<usize, NetlistError> {
        self.validated.take();
        let loads = match self.nets.get_mut(net.index()) {
            None => return Err(NetlistError::UnknownNet { index: net.index() }),
            Some(n) if n.loads.len() <= max_fanout => return Ok(0),
            Some(n) => std::mem::take(&mut n.loads),
        };
        let mut inserted = 0;
        for group in loads.chunks(loads.len().div_ceil(max_fanout)) {
            let buf = self.gate(CellKind::Buf, &[net])?;
            inserted += 1;
            for &(inst, pin) in group {
                self.insts[inst.index()].inputs[pin] = buf;
            }
            self.nets[buf.index()].loads = group.to_vec();
        }
        Ok(inserted)
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
        self.validation().map(|_| ())
    }

    /// The combinational order of a valid netlist, cached until the
    /// next edit.
    pub(crate) fn validated_order(&self) -> Result<&[InstId], NetlistError> {
        Ok(&self.validation()?.order)
    }

    /// The gate program of a valid netlist: compiled by the first call
    /// after a validation, then borrowed by every later one until the
    /// next edit.
    pub(crate) fn program(&self) -> Result<&Program, NetlistError> {
        let validated = self.validation()?;
        Ok(validated
            .program
            .get_or_init(|| Program::compile(self, &validated.order)))
    }

    /// The cached validation, or [`validate`](Self::validate)'s checks
    /// followed by [`comb_topo_order`](Self::comb_topo_order), whose
    /// result is cached until the next edit. Only the validation that
    /// fills the cache counts in `netlist.validations`.
    fn validation(&self) -> Result<&Validated, NetlistError> {
        if let Some(validated) = self.validated.get() {
            return Ok(validated);
        }
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
        let order = self.comb_topo_order()?;
        // Workers sharing one netlist may race to fill the cache; only
        // the winner counts, so the total is the same at any job count.
        let mut filled = false;
        let validated = self.validated.get_or_init(|| {
            filled = true;
            Validated {
                order,
                program: OnceLock::new(),
            }
        });
        if filled {
            obs::add(obs::Ctr::NetlistValidations, 1);
        }
        Ok(validated)
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
            for &i in inst.inputs() {
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
            for &(load, _) in &self.nets[self.insts[i].output.index()].loads {
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
    use crate::sim::Logic;
    use crate::sim_sliced::Simulator;

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

    /// `src` driving `loads` inverters, each inverter an output.
    fn fanout(loads: usize) -> (Netlist, NetId) {
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        let src = n.gate(CellKind::Inv, &[a]).unwrap();
        for _ in 0..loads {
            let y = n.gate(CellKind::Inv, &[src]).unwrap();
            n.add_output(y);
        }
        (n, src)
    }

    #[test]
    fn split_fanout_groups_loads_in_order() {
        let (mut n, src) = fanout(10);
        let before = n.net(src).loads().to_vec();
        assert_eq!(
            n.split_fanout(src, 4).unwrap(),
            4,
            "groups of ceil(10/4) = 3"
        );
        let bufs: Vec<InstId> = n.net(src).loads().iter().map(|&(i, _)| i).collect();
        assert_eq!(
            n.net(src).loads(),
            &[(bufs[0], 0), (bufs[1], 0), (bufs[2], 0), (bufs[3], 0)]
        );
        assert!(bufs.windows(2).all(|w| w[0] < w[1]), "creation order");
        let moved: Vec<(InstId, usize)> = bufs
            .iter()
            .flat_map(|&b| {
                assert_eq!(n.instance(b).kind(), CellKind::Buf);
                assert_eq!(n.instance(b).inputs(), &[src]);
                n.net(n.instance(b).outputs()[0]).loads().to_vec()
            })
            .collect();
        assert_eq!(moved, before, "every load moved once, in load order");
        for (k, &(load, pin)) in before.iter().enumerate() {
            let buf_out = n.instance(bufs[k / 3]).outputs()[0];
            assert_eq!(n.instance(load).inputs()[pin], buf_out);
        }
        n.validate().unwrap();
    }

    #[test]
    fn split_fanout_leaves_bounded_nets_alone() {
        let (mut n, src) = fanout(4);
        assert_eq!(n.split_fanout(src, 4).unwrap(), 0);
        assert_eq!(n.net(src).loads().len(), 4);
        assert_eq!(n.num_instances(), 5);
        assert!(matches!(
            n.split_fanout(NetId(99), 4),
            Err(NetlistError::UnknownNet { index: 99 })
        ));
    }

    #[test]
    fn output_marks_ignore_duplicates_and_keep_first_mark_order() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        for net in [b, a, b, c, a, b] {
            n.add_output(net);
        }
        assert_eq!(n.outputs(), &[b, a, c]);
    }

    #[test]
    fn inline_pins_keep_pin_order() {
        let mut n = Netlist::new("t");
        let ins: Vec<NetId> = (0..4).map(|i| n.add_input(format!("x{i}"))).collect();
        let y = n.gate(CellKind::Nand4, &ins).unwrap();
        let z = n.gate(CellKind::Inv, &[y]).unwrap();
        let tie = n.gate(CellKind::TieHi, &[]).unwrap();
        let [nand, inv, hi] = [0, 1, 2].map(|i| n.instance(InstId(i)));
        assert_eq!((nand.inputs(), nand.outputs()), (&ins[..], &[y][..]));
        assert_eq!((inv.inputs(), inv.outputs()), (&[y][..], &[z][..]));
        assert_eq!((hi.inputs(), hi.outputs()), (&[][..], &[tie][..]));
    }

    /// What the three consumers of a validation report on `n`.
    fn consumers(n: &Netlist) -> [Result<(), NetlistError>; 3] {
        let lib = crate::cell::Library::vcl018();
        [
            n.validate(),
            crate::sta::TimingContext::new(n, &lib).map(|_| ()),
            Simulator::new(n).map(|_| ()),
        ]
    }

    #[test]
    fn every_edit_after_validation_is_seen() {
        // An undriven net.
        let mut n = inv_chain(3);
        n.validate().unwrap();
        n.add_net("floating");
        for r in consumers(&n) {
            assert!(matches!(r, Err(NetlistError::UndrivenNet { .. })), "{r:?}");
        }

        // An instance closing a combinational cycle.
        let mut n = inv_chain(3);
        n.validate().unwrap();
        let back = n.add_net("back");
        let y = n.gate(CellKind::Inv, &[back]).unwrap();
        n.add_instance("close", CellKind::Inv, &[y], &[back])
            .unwrap();
        for r in consumers(&n) {
            assert!(
                matches!(r, Err(NetlistError::CombinationalCycle { .. })),
                "{r:?}"
            );
        }

        // A duplicate instance name.
        let mut n = inv_chain(3);
        n.validate().unwrap();
        let w = n.add_net("w");
        let a = n.inputs()[1];
        n.add_instance("inv0", CellKind::Inv, &[a], &[w]).unwrap();
        for r in consumers(&n) {
            assert!(
                matches!(r, Err(NetlistError::DuplicateInstanceName { .. })),
                "{r:?}"
            );
        }
    }

    #[test]
    fn a_split_after_validation_is_timed_and_simulated() {
        let lib = crate::cell::Library::vcl018();
        let critical = |n: &Netlist| {
            crate::sta::TimingContext::new(n, &lib)
                .unwrap()
                .run()
                .critical_path_ps()
        };
        let (mut n, src) = fanout(6);
        n.validate().unwrap();
        assert_eq!(n.validated_order().unwrap().len(), 7);
        let unsplit = critical(&n);
        n.split_fanout(src, 2).unwrap();
        assert_eq!(
            n.validated_order().unwrap().len(),
            9,
            "two buffers sorted in"
        );
        let (mut never_validated, src) = fanout(6);
        never_validated.split_fanout(src, 2).unwrap();
        assert_eq!(critical(&n), critical(&never_validated), "buffer timed");
        assert_ne!(critical(&n), unsplit);
        let bufs: Vec<NetId> = n
            .net(src)
            .loads()
            .iter()
            .map(|&(b, _)| n.instance(b).outputs()[0])
            .collect();
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        for b in bufs {
            assert_eq!(sim.value(b), Logic::Zero, "buffer simulated");
        }
    }

    /// A one-machine simulator of `n` after one cycle of `inputs`.
    fn simulate<'n>(n: &'n Netlist, inputs: &[bool]) -> Result<Simulator<'n>, NetlistError> {
        let mut sim = Simulator::new(n)?;
        sim.step_bools(inputs)?;
        Ok(sim)
    }

    #[test]
    fn every_edit_after_a_simulation_is_simulated() {
        let (mut n, src) = fanout(4);
        simulate(&n, &[false, true]).unwrap();

        // `add_input` (and so `add_net`) changes the input width.
        let b = n.add_input("b");
        assert!(simulate(&n, &[false, true]).is_err());
        simulate(&n, &[false, true, true]).unwrap();

        // `gate` (and so `add_instance`) adds a gate to the program.
        let y = n.gate(CellKind::Nand2, &[src, b]).unwrap();
        let sim = simulate(&n, &[false, false, true]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        assert_eq!(sim.output_values().len(), 4);

        // `add_output` adds an output.
        n.add_output(y);
        let sim = simulate(&n, &[false, false, true]).unwrap();
        assert_eq!(sim.output_values().len(), 5);
        assert_eq!(sim.output_values()[4], Logic::Zero);

        // `split_fanout` puts buffers between `src` and its loads.
        let gates = n.program().unwrap().gates.len();
        assert_eq!(n.split_fanout(src, 2).unwrap(), 2);
        let sim = simulate(&n, &[false, false, true]).unwrap();
        assert_eq!(n.program().unwrap().gates.len(), gates + 2);
        for &(buf, _) in n.net(src).loads() {
            let out = n.instance(buf).outputs()[0];
            assert_eq!(sim.value(out), Logic::One, "buffer simulated");
        }

        // `add_net` leaves an undriven net.
        n.add_net("floating");
        assert!(matches!(
            simulate(&n, &[false, false, true]),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn a_clone_edited_on_its_own_does_not_share_the_program() {
        let (n, src) = fanout(3);
        simulate(&n, &[false, true]).unwrap();
        let program: *const Program = n.program().unwrap();
        let mut edited = n.clone();
        assert!(!std::ptr::eq(program, edited.program().unwrap()));
        let y = edited.gate(CellKind::Inv, &[src]).unwrap();
        edited.add_output(y);
        assert_eq!(
            simulate(&edited, &[false, true])
                .unwrap()
                .output_values()
                .len(),
            4
        );
        assert_eq!(
            simulate(&n, &[false, true]).unwrap().output_values().len(),
            3
        );
        assert!(std::ptr::eq(program, n.program().unwrap()));
    }

    #[test]
    fn clones_keep_their_own_validation() {
        let n = inv_chain(3);
        n.validate().unwrap();
        let mut edited = n.clone();
        edited.add_net("floating");
        assert!(edited.validate().is_err());
        n.validate().unwrap();

        let mut original = inv_chain(3);
        original.validate().unwrap();
        let copy = original.clone();
        original.add_net("floating");
        assert!(original.validate().is_err());
        copy.validate().unwrap();
    }

    #[test]
    fn errors_keep_their_precedence_and_are_not_cached() {
        // Undriven net, duplicate name and cycle at once.
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let u = n.add_net("u");
        n.add_instance("g", CellKind::Inv, &[a], &[b]).unwrap();
        n.add_instance("g", CellKind::Inv, &[b], &[a]).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                n.validate(),
                Err(NetlistError::UndrivenNet { net }) if net == "u"
            ));
        }
        let rst = n.reset();
        n.add_instance("h", CellKind::Inv, &[rst], &[u]).unwrap();
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DuplicateInstanceName { name }) if name == "g"
        ));
    }

    #[test]
    fn only_the_validation_that_fills_the_cache_counts() {
        let n = inv_chain(4);
        obs::start();
        for r in consumers(&n) {
            r.unwrap();
        }
        n.validate().unwrap();
        let rec = obs::take();
        assert_eq!(rec.counter(obs::Ctr::NetlistValidations), 1);
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
