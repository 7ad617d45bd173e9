//! Activity-based dynamic power estimation.
//!
//! The paper's §7: *"we expect this decoder decoupling approach to
//! reduce power dissipation, \[but\] in this work we have not carried
//! out a rigorous study of it."* This module carries that study out
//! for the workspace's netlists: it simulates a design under a
//! caller-provided stimulus, counts `0↔1` transitions on every net,
//! and evaluates the standard CV²f switching model
//!
//! ```text
//! P_dyn = ½ · Vdd² · f · Σ_nets (C_net · α_net)  +  P_clock
//! ```
//!
//! where `α_net` is the measured toggle rate (toggles per cycle),
//! `C_net` the capacitive load from the library's pin capacitances
//! plus wire estimates, and `P_clock` accounts for the clock pin of
//! every sequential cell toggling twice per cycle.

use crate::cell::Library;
use crate::error::NetlistError;
use crate::graph::Netlist;
use crate::sim::Logic;
use crate::sim_sliced::Simulator;

/// Supply voltage of the `vcl018` process, volts.
pub const VDD: f64 = 1.8;

/// Clock-pin capacitance of a sequential cell, femtofarads.
pub const CLOCK_PIN_CAP_FF: f64 = 3.0;

/// Result of a power measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Dynamic switching power in microwatts at the given frequency.
    pub dynamic_uw: f64,
    /// Clock-tree load power in microwatts (FF clock pins only).
    pub clock_uw: f64,
    /// Average signal toggles per cycle, summed over all nets.
    pub toggles_per_cycle: f64,
    /// Effective switched capacitance per cycle, femtofarads
    /// (`Σ C·α`, excluding the clock).
    pub switched_cap_ff: f64,
    /// Number of cycles measured (excluding the reset cycle).
    pub cycles: u64,
    /// Clock frequency used, megahertz.
    pub frequency_mhz: f64,
}

impl PowerReport {
    /// Total of dynamic and clock power, microwatts.
    pub fn total_uw(&self) -> f64 {
        self.dynamic_uw + self.clock_uw
    }
}

/// How flip-flop clock pins are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockModel {
    /// Every sequential cell sees every clock edge (no gating).
    #[default]
    FreeRunning,
    /// Enable-equipped flip-flops (`dffe`/`dffre`/`dffse`) receive the
    /// clock only on cycles where their enable is high, as if each
    /// enable drove an integrated clock gate — the standard low-power
    /// implementation of enabled registers.
    Gated,
}

/// Simulates `netlist` for `cycles` cycles, driving the primary
/// inputs from `stimulus` (called with the cycle index; element 0 of
/// the returned vector is the global reset), and evaluates the
/// switching-power model at `frequency_mhz` under every model in
/// `clock_models`.
///
/// One reset cycle (`reset = 1`, all other inputs 0) followed by one
/// idle settling cycle is applied first; both are excluded from the
/// counts.
///
/// All models share **one** simulation: the signal trajectory does
/// not depend on how the clock pins are driven, so the toggle counts
/// are shared and only the clocked flip-flop cycles are counted per
/// model. Returns one report per model, in `clock_models` order.
///
/// # Errors
///
/// Propagates simulator construction/step errors (invalid netlist or
/// wrong stimulus width).
pub fn measure_power<F, const N: usize>(
    netlist: &Netlist,
    library: &Library,
    frequency_mhz: f64,
    cycles: u64,
    clock_models: [ClockModel; N],
    mut stimulus: F,
) -> Result<[PowerReport; N], NetlistError>
where
    F: FnMut(u64) -> Vec<Logic>,
{
    let mut sim = Simulator::new(netlist)?;
    let num_inputs = netlist.inputs().len();
    let mut reset_vec = vec![Logic::Zero; num_inputs];
    reset_vec[0] = Logic::One;
    sim.step(&reset_vec)?;
    // One uncounted settling cycle so the reset de-assertion edge and
    // the post-reset state propagation do not pollute the activity
    // statistics.
    sim.step(&vec![Logic::Zero; num_inputs])?;

    // Per-net load capacitance (same model as the STA).
    let load_ff: Vec<f64> = netlist
        .nets()
        .iter()
        .map(|net| {
            let mut c = 0.0;
            for &(inst, _pin) in net.loads() {
                c += library.spec(netlist.instance(inst).kind()).input_cap_ff;
                c += library.wire_cap_per_fanout_ff;
            }
            c
        })
        .collect();

    // The enable pins of the flip-flops that can be clock-gated.
    use crate::cell::CellKind;
    let gate_enables: Vec<crate::graph::NetId> = netlist
        .instances()
        .iter()
        .filter_map(|inst| match inst.kind() {
            CellKind::Dffe | CellKind::Dffre | CellKind::Dffse => Some(inst.inputs()[1]),
            _ => None,
        })
        .collect();
    let always_clocked = netlist.num_flip_flops() - gate_enables.len();

    // Starting from all-X words, the first tally only snapshots the
    // settled values.
    let mut prev = vec![(0, !0); netlist.nets().len()];
    let mut toggles = vec![0u64; netlist.nets().len()];
    sim.tally_toggles(&mut prev, &mut toggles);
    let mut clocked_ff_cycles = [0u64; N];
    for cycle in 0..cycles {
        let inputs = stimulus(cycle);
        sim.step(&inputs)?;
        sim.tally_toggles(&mut prev, &mut toggles);
        // X counts as clocked: the gate cannot be assumed closed on an
        // undefined enable.
        let enabled = gate_enables
            .iter()
            .filter(|&&en| sim.value(en) != Logic::Zero)
            .count();
        for (clocked, model) in clocked_ff_cycles.iter_mut().zip(&clock_models) {
            let gated_clocked = match model {
                ClockModel::FreeRunning => gate_enables.len(),
                ClockModel::Gated => enabled,
            };
            *clocked += (always_clocked + gated_clocked) as u64;
        }
    }

    let cycles_f = cycles.max(1) as f64;
    let switched_cap_ff: f64 = toggles
        .iter()
        .zip(&load_ff)
        .map(|(&t, &c)| c * t as f64 / cycles_f)
        .sum();
    let toggles_per_cycle = toggles.iter().sum::<u64>() as f64 / cycles_f;

    // P = ½ C V² f; fF × V² × MHz = 1e-15 × 1e6 W = 1e-9 W, so the
    // result in µW carries a 1e-3 factor.
    let to_uw = |cap_ff: f64| 0.5 * cap_ff * VDD * VDD * frequency_mhz * 1.0e-3;
    let dynamic_uw = to_uw(switched_cap_ff);
    Ok(clocked_ff_cycles.map(|clocked| {
        let clock_cap = (clocked as f64 / cycles_f) * CLOCK_PIN_CAP_FF * 2.0;
        PowerReport {
            dynamic_uw,
            clock_uw: to_uw(clock_cap),
            toggles_per_cycle,
            switched_cap_ff,
            cycles,
            frequency_mhz,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    const FREE: [ClockModel; 1] = [ClockModel::FreeRunning];
    const BOTH: [ClockModel; 2] = [ClockModel::FreeRunning, ClockModel::Gated];

    fn toggle_ff() -> Netlist {
        let mut n = Netlist::new("tff");
        let q = n.add_net("q");
        let qn = n.add_net("qn");
        n.add_instance("inv", CellKind::Inv, &[q], &[qn]).unwrap();
        let rst = n.reset();
        n.add_instance("ff", CellKind::Dffr, &[qn, rst], &[q])
            .unwrap();
        n.add_output(q);
        n
    }

    #[test]
    fn toggle_ff_switches_every_cycle() {
        let lib = Library::vcl018();
        let n = toggle_ff();
        let [report] = measure_power(&n, &lib, 100.0, 64, FREE, |_| vec![Logic::Zero]).unwrap();
        // q and qn each toggle every cycle → about 2 toggles/cycle.
        assert!(
            (report.toggles_per_cycle - 2.0).abs() < 0.1,
            "toggles/cycle {}",
            report.toggles_per_cycle
        );
        assert!(report.dynamic_uw > 0.0);
        assert!(report.clock_uw > 0.0);
        assert!(report.total_uw() > report.dynamic_uw);
    }

    #[test]
    fn idle_circuit_burns_only_clock_power() {
        let lib = Library::vcl018();
        let mut n = Netlist::new("idle");
        let d = n.add_input("d");
        let rst = n.reset();
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dffr, &[d, rst], &[q])
            .unwrap();
        n.add_output(q);
        // d held at 0 forever → no signal activity after reset.
        let [report] = measure_power(&n, &lib, 100.0, 32, FREE, |_| {
            vec![Logic::Zero, Logic::Zero]
        })
        .unwrap();
        assert_eq!(report.toggles_per_cycle, 0.0);
        assert_eq!(report.dynamic_uw, 0.0);
        assert!(report.clock_uw > 0.0);
    }

    #[test]
    fn power_scales_with_frequency() {
        let lib = Library::vcl018();
        let n = toggle_ff();
        let [at_100] = measure_power(&n, &lib, 100.0, 32, FREE, |_| vec![Logic::Zero]).unwrap();
        let [at_200] = measure_power(&n, &lib, 200.0, 32, FREE, |_| vec![Logic::Zero]).unwrap();
        let ratio = at_200.total_uw() / at_100.total_uw();
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn x_transitions_do_not_count() {
        let lib = Library::vcl018();
        let mut n = Netlist::new("x");
        let d = n.add_input("d");
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dff, &[d], &[q]).unwrap();
        n.add_output(q);
        // The plain DFF starts at X; the first defined value is not a
        // toggle.
        let [report] =
            measure_power(&n, &lib, 100.0, 4, FREE, |_| vec![Logic::Zero, Logic::Zero]).unwrap();
        assert_eq!(report.toggles_per_cycle, 0.0);
    }

    #[test]
    fn gated_clock_reduces_clock_power_when_enables_are_low() {
        let lib = Library::vcl018();
        // An enabled FF that is never enabled.
        let mut n = Netlist::new("gate");
        let d = n.add_input("d");
        let en = n.add_input("en");
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dffe, &[d, en], &[q])
            .unwrap();
        n.add_output(q);
        let idle = |_| vec![Logic::Zero, Logic::Zero, Logic::Zero];
        let [free, gated] = measure_power(&n, &lib, 100.0, 16, BOTH, idle).unwrap();
        assert!(free.clock_uw > 0.0);
        assert_eq!(gated.clock_uw, 0.0, "never-enabled FF draws no clock");
    }

    #[test]
    fn gating_does_not_affect_ungateable_ffs() {
        let lib = Library::vcl018();
        let n = toggle_ff(); // uses a Dffr — no enable pin
        let [free, gated] =
            measure_power(&n, &lib, 100.0, 16, BOTH, |_| vec![Logic::Zero]).unwrap();
        assert_eq!(free.clock_uw, gated.clock_uw);
    }

    #[test]
    fn stimulus_width_checked() {
        let lib = Library::vcl018();
        let n = toggle_ff();
        let err = measure_power(&n, &lib, 100.0, 4, FREE, |_| vec![]).unwrap_err();
        assert!(matches!(err, NetlistError::InputWidthMismatch { .. }));
    }
}
