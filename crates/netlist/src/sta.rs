//! Static timing analysis with a logical-effort/Elmore delay model.
//!
//! The model matches what a synthesis tool's pre-layout reports give:
//! each gate contributes `intrinsic + R_drive × C_load`, where `C_load`
//! sums the input capacitance of every fanout pin, a per-fanout wire
//! estimate, and an optional external load on primary outputs.
//!
//! Launch points are primary inputs (arrival 0) and flip-flop `Q`
//! outputs (arrival = clock-to-Q). Capture points are flip-flop data
//! and control pins (plus setup) and primary outputs. The *critical
//! path* is the worst capture-point arrival; it equals the minimum
//! clock period at which the circuit (with its outputs sampled
//! externally) can run — the quantity the paper plots in its delay
//! figures.

use adgen_obs as obs;

use crate::cell::Library;
use crate::error::NetlistError;
use crate::graph::{InstId, NetId, Netlist};

/// Result of timing a netlist. See the [module docs](self) for the
/// delay model.
#[derive(Debug, Clone)]
pub struct TimingAnalysis {
    critical_ps: f64,
}

impl TimingAnalysis {
    /// Times `netlist` against `library` with no external output load.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from validation (undriven nets,
    /// combinational cycles, …).
    pub fn run(netlist: &Netlist, library: &Library) -> Result<Self, NetlistError> {
        Self::run_with_output_load(netlist, library, 0.0)
    }

    /// Times `netlist` with `output_load_ff` femtofarads of external
    /// capacitance on every primary output (e.g. modeling the select
    /// lines of a memory array).
    ///
    /// One-shot convenience over [`TimingContext`]; when timing the
    /// same netlist at several output loads, build the context once and
    /// call [`TimingContext::run_with_output_load`] repeatedly.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from validation.
    pub fn run_with_output_load(
        netlist: &Netlist,
        library: &Library,
        output_load_ff: f64,
    ) -> Result<Self, NetlistError> {
        Ok(TimingContext::new(netlist, library)?.run_with_output_load(output_load_ff))
    }

    /// Worst capture-point arrival in picoseconds (the minimum clock
    /// period).
    pub fn critical_path_ps(&self) -> f64 {
        self.critical_ps
    }

    /// [`critical_path_ps`](Self::critical_path_ps) in nanoseconds, the
    /// unit used by the paper's figures.
    pub fn critical_path_ns(&self) -> f64 {
        self.critical_ps / 1000.0
    }
}

/// The latest arrival among `inputs`.
fn worst_input(inputs: &[NetId], arrival: &[f64]) -> f64 {
    inputs
        .iter()
        .map(|&i| arrival[i.index()])
        .max_by(f64::total_cmp)
        .unwrap_or(f64::NEG_INFINITY)
}

/// Reusable timing state for repeated analyses of one netlist.
///
/// Construction validates the netlist (reusing its cached validation
/// and combinational order when it has one), interns every
/// instance's cell spec numbers (intrinsic delay, drive resistance,
/// setup), records the sequential and tie-cell instance indices, and
/// precomputes each net's base capacitive load from its fanout (a
/// CSR-free flattening of the per-net load walk). Each
/// [`run_with_output_load`](Self::run_with_output_load) call is then a
/// pure array sweep — no name lookups, no per-instance kind scans, no
/// re-validation — which matters when a sweep times the same elaborated
/// netlist at many output loads (e.g. the per-array-size delay
/// figures).
#[derive(Debug, Clone)]
pub struct TimingContext<'a> {
    netlist: &'a Netlist,
    /// Combinational instances in topological order, borrowed from
    /// the netlist's validation.
    order: &'a [InstId],
    /// Per-net: true if the net is a primary output.
    is_output: Vec<bool>,
    /// Per-net: fanout load in fF, excluding any external output load
    /// (but including the output's own wire-cap term).
    base_load_ff: Vec<f64>,
    /// Indices of sequential instances (launch *and* capture points).
    seq: Vec<InstId>,
    /// Indices of zero-input combinational (tie) instances.
    ties: Vec<InstId>,
    /// Per-instance interned spec numbers, indexed by `InstId::index`.
    intrinsic_ps: Vec<f64>,
    drive_res_kohm: Vec<f64>,
    setup_ps: Vec<f64>,
}

impl<'a> TimingContext<'a> {
    /// Validates `netlist` and precomputes everything that does not
    /// depend on the external output load.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from validation (undriven nets,
    /// combinational cycles, …).
    pub fn new(netlist: &'a Netlist, library: &'a Library) -> Result<Self, NetlistError> {
        let _span = obs::span_arg("sta.ctx.build", netlist.nets().len() as u64);
        obs::add(obs::Ctr::StaCtxBuilds, 1);
        let order = netlist.validated_order()?;
        let num_nets = netlist.nets().len();
        let num_insts = netlist.instances().len();

        let mut is_output = vec![false; num_nets];
        for &o in netlist.outputs() {
            is_output[o.index()] = true;
        }

        let mut intrinsic_ps = Vec::with_capacity(num_insts);
        let mut drive_res_kohm = Vec::with_capacity(num_insts);
        let mut setup_ps = Vec::with_capacity(num_insts);
        let mut input_cap_ff = Vec::with_capacity(num_insts);
        let mut seq = Vec::new();
        let mut ties = Vec::new();
        for (idx, inst) in netlist.instances().iter().enumerate() {
            let spec = library.spec(inst.kind());
            intrinsic_ps.push(spec.intrinsic_ps);
            drive_res_kohm.push(spec.drive_res_kohm);
            setup_ps.push(spec.setup_ps);
            input_cap_ff.push(spec.input_cap_ff);
            let id = InstId(idx as u32);
            if inst.kind().is_sequential() {
                seq.push(id);
            } else if inst.kind().num_inputs() == 0 {
                ties.push(id);
            }
        }

        let wire = library.wire_cap_per_fanout_ff;
        let mut base_load_ff = vec![0.0f64; num_nets];
        for (i, net) in netlist.nets().iter().enumerate() {
            let mut c = 0.0;
            for &(inst, _pin) in net.loads() {
                c += input_cap_ff[inst.index()] + wire;
            }
            if is_output[i] {
                c += wire;
            }
            base_load_ff[i] = c;
        }

        Ok(TimingContext {
            netlist,
            order,
            is_output,
            base_load_ff,
            seq,
            ties,
            intrinsic_ps,
            drive_res_kohm,
            setup_ps,
        })
    }

    /// Times the netlist with no external output load.
    pub fn run(&self) -> TimingAnalysis {
        self.run_with_output_load(0.0)
    }

    /// Times the netlist with `output_load_ff` femtofarads of external
    /// capacitance on every primary output.
    pub fn run_with_output_load(&self, output_load_ff: f64) -> TimingAnalysis {
        let _span = obs::span("sta.run");
        obs::add(obs::Ctr::StaRuns, 1);
        let netlist = self.netlist;
        let num_nets = netlist.nets().len();
        let load_ff = |net: NetId| -> f64 {
            let i = net.index();
            self.base_load_ff[i]
                + if self.is_output[i] {
                    output_load_ff
                } else {
                    0.0
                }
        };

        let mut arrival = vec![f64::NEG_INFINITY; num_nets];

        for &pi in netlist.inputs() {
            arrival[pi.index()] = 0.0;
        }
        for &id in &self.seq {
            let idx = id.index();
            for &q in netlist.instances()[idx].outputs() {
                arrival[q.index()] = self.intrinsic_ps[idx] + self.drive_res_kohm[idx] * load_ff(q);
            }
        }
        for &id in &self.ties {
            // Tie cells launch at time zero.
            for &o in netlist.instances()[id.index()].outputs() {
                arrival[o.index()] = 0.0;
            }
        }

        for &id in self.order {
            let idx = id.index();
            let inst = &netlist.instances()[idx];
            if inst.inputs().is_empty() {
                continue;
            }
            let worst_arr = worst_input(inst.inputs(), &arrival);
            for &o in inst.outputs() {
                let t = worst_arr + self.intrinsic_ps[idx] + self.drive_res_kohm[idx] * load_ff(o);
                arrival[o.index()] = t;
            }
        }

        // Capture points.
        let mut critical = 0.0f64;
        for &inst in &self.seq {
            let idx = inst.index();
            let setup = self.setup_ps[idx];
            for &net in netlist.instances()[idx].inputs() {
                let t = arrival[net.index()] + setup;
                if t > critical {
                    critical = t;
                }
            }
        }
        for &o in netlist.outputs() {
            let t = arrival[o.index()];
            if t > critical {
                critical = t;
            }
        }

        TimingAnalysis {
            critical_ps: critical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn lib() -> Library {
        Library::vcl018()
    }

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
    fn longer_chain_is_slower() {
        let t2 = TimingAnalysis::run(&inv_chain(2), &lib()).unwrap();
        let t8 = TimingAnalysis::run(&inv_chain(8), &lib()).unwrap();
        assert!(t8.critical_path_ps() > t2.critical_path_ps());
        // Delay is roughly linear in depth.
        let per_stage2 = t2.critical_path_ps() / 2.0;
        let per_stage8 = t8.critical_path_ps() / 8.0;
        assert!((per_stage2 - per_stage8).abs() / per_stage2 < 0.30);
    }

    #[test]
    fn output_load_increases_delay() {
        let n = inv_chain(3);
        let t0 = TimingAnalysis::run_with_output_load(&n, &lib(), 0.0).unwrap();
        let t1 = TimingAnalysis::run_with_output_load(&n, &lib(), 50.0).unwrap();
        assert!(t1.critical_path_ps() > t0.critical_path_ps());
    }

    #[test]
    fn fanout_increases_delay() {
        // One inverter driving k loads.
        let build = |k: usize| {
            let mut n = Netlist::new("fan");
            let a = n.add_input("a");
            let y = n.add_net("y");
            n.add_instance("drv", CellKind::Inv, &[a], &[y]).unwrap();
            for i in 0..k {
                let o = n.add_net(format!("o{i}"));
                n.add_instance(format!("ld{i}"), CellKind::Inv, &[y], &[o])
                    .unwrap();
                n.add_output(o);
            }
            n
        };
        let t1 = TimingAnalysis::run(&build(1), &lib()).unwrap();
        let t8 = TimingAnalysis::run(&build(8), &lib()).unwrap();
        assert!(t8.critical_path_ps() > t1.critical_path_ps());
    }

    #[test]
    fn register_endpoint_includes_setup() {
        let mut n = Netlist::new("reg");
        let d = n.add_input("d");
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dff, &[d], &[q]).unwrap();
        n.add_output(q);
        let t = TimingAnalysis::run(&n, &lib()).unwrap();
        // Endpoint is either the FF D pin (0 + setup = 90) or the Q
        // output (clk-to-q ≈ 186). Q is later: the critical path is
        // exactly the Q output's arrival.
        let library = lib();
        let ff = library.spec(CellKind::Dff);
        let q_arrival = ff.intrinsic_ps + ff.drive_res_kohm * library.wire_cap_per_fanout_ff;
        assert!(q_arrival > ff.setup_ps);
        assert_eq!(t.critical_path_ps(), q_arrival);
        assert!(t.critical_path_ps() > 150.0);
    }

    #[test]
    fn reg_to_reg_path() {
        // ff0.q -> inv -> ff1.d : critical = clkq + inv + setup.
        let mut n = Netlist::new("r2r");
        let d0 = n.add_input("d0");
        let q0 = n.add_net("q0");
        n.add_instance("ff0", CellKind::Dff, &[d0], &[q0]).unwrap();
        let w = n.add_net("w");
        n.add_instance("inv", CellKind::Inv, &[q0], &[w]).unwrap();
        let q1 = n.add_net("q1");
        n.add_instance("ff1", CellKind::Dff, &[w], &[q1]).unwrap();
        n.add_output(q1);
        let t = TimingAnalysis::run(&n, &lib()).unwrap();
        // q1 output: clkq + small load; reg-to-reg: clkq + inv + setup.
        // The reg-to-reg path must dominate: the critical path ends
        // exactly at ff1's D pin.
        let library = lib();
        let (ff, inv) = (library.spec(CellKind::Dff), library.spec(CellKind::Inv));
        let wire = library.wire_cap_per_fanout_ff;
        let q0_arrival = ff.intrinsic_ps + ff.drive_res_kohm * (inv.input_cap_ff + wire);
        let w_arrival =
            q0_arrival + inv.intrinsic_ps + inv.drive_res_kohm * (ff.input_cap_ff + wire);
        assert_eq!(t.critical_path_ps(), w_arrival + ff.setup_ps);
        assert!(t.critical_path_ps() > 280.0);
    }

    #[test]
    fn inputs_launch_at_zero() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_net("y");
        n.add_instance("g", CellKind::Inv, &[a], &[y]).unwrap();
        n.add_output(y);
        let t = TimingAnalysis::run(&n, &lib()).unwrap();
        // The output's arrival is the inverter's delay alone.
        let library = lib();
        let inv = library.spec(CellKind::Inv);
        let delay = inv.intrinsic_ps + inv.drive_res_kohm * library.wire_cap_per_fanout_ff;
        assert!(delay > 0.0);
        assert_eq!(t.critical_path_ps(), 0.0 + delay);
    }

    #[test]
    fn invalid_netlist_rejected() {
        let mut n = Netlist::new("bad");
        n.add_net("floating");
        assert!(TimingAnalysis::run(&n, &lib()).is_err());
        assert!(TimingContext::new(&n, &lib()).is_err());
    }

    #[test]
    fn context_reuse_matches_one_shot_runs() {
        let mut n = Netlist::new("mix");
        let a = n.add_input("a");
        let w = n.gate(CellKind::Nand2, &[a, a]).unwrap();
        let y = n.gate(CellKind::Inv, &[w]).unwrap();
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dff, &[y], &[q]).unwrap();
        let z = n.gate(CellKind::Inv, &[q]).unwrap();
        n.add_output(z);

        let library = lib();
        let ctx = TimingContext::new(&n, &library).unwrap();
        for load in [0.0, 12.5, 80.0] {
            let fresh = TimingAnalysis::run_with_output_load(&n, &library, load).unwrap();
            let reused = ctx.run_with_output_load(load);
            assert_eq!(reused.critical_path_ps(), fresh.critical_path_ps());
        }
    }
}
