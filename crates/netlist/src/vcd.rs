//! Value Change Dump (VCD) recording of simulation runs, for viewing
//! generator behaviour in any waveform viewer (GTKWave etc.)
//! alongside the exported Verilog.

use std::fmt::Write as _;

use crate::graph::Netlist;
use crate::sim::Logic;
use crate::sim_sliced::Simulator;

/// Records the values of every net across a simulation session and
/// renders a VCD file. One [`sample`](VcdTrace::sample) call per
/// simulated cycle; each cycle occupies one timescale unit.
///
/// # Example
///
/// ```
/// use adgen_netlist::{CellKind, Netlist, Simulator};
/// use adgen_netlist::vcd::VcdTrace;
///
/// # fn main() -> Result<(), adgen_netlist::NetlistError> {
/// let mut n = Netlist::new("toggle");
/// let q = n.add_net("q");
/// let qn = n.add_net("qn");
/// n.add_instance("inv", CellKind::Inv, &[q], &[qn])?;
/// let rst = n.reset();
/// n.add_instance("ff", CellKind::Dffr, &[qn, rst], &[q])?;
/// n.add_output(q);
///
/// let mut sim = Simulator::new(&n)?;
/// let mut trace = VcdTrace::new(&n);
/// sim.step_bools(&[true])?;
/// trace.sample(&sim);
/// for _ in 0..4 {
///     sim.step_bools(&[false])?;
///     trace.sample(&sim);
/// }
/// let text = trace.finish();
/// assert!(text.starts_with("$timescale"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VcdTrace {
    header: String,
    body: String,
    ids: Vec<String>,
    prev: Vec<Option<Logic>>,
    time: u64,
}

impl VcdTrace {
    /// Prepares a trace covering every net of `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        let mut header = String::new();
        let _ = writeln!(header, "$timescale 1ns $end");
        let _ = writeln!(header, "$scope module {} $end", sanitize(netlist.name()));
        let mut ids = Vec::with_capacity(netlist.nets().len());
        for (i, net) in netlist.nets().iter().enumerate() {
            let id = id_code(i);
            let _ = writeln!(header, "$var wire 1 {id} {} $end", sanitize(net.name()));
            ids.push(id);
        }
        let _ = writeln!(header, "$upscope $end");
        let _ = writeln!(header, "$enddefinitions $end");
        VcdTrace {
            header,
            body: String::new(),
            ids,
            prev: vec![None; netlist.nets().len()],
            time: 0,
        }
    }

    /// Records the current net values of `sim` as the next time step,
    /// emitting only changes.
    ///
    /// # Panics
    ///
    /// Panics if `sim` simulates a different netlist (net count
    /// mismatch).
    pub fn sample(&mut self, sim: &Simulator<'_>) {
        let mut changes = String::new();
        for i in 0..self.ids.len() {
            let net = crate::graph::NetId(i as u32);
            let now = sim.value(net);
            if self.prev[i] != Some(now) {
                let ch = match now {
                    Logic::Zero => '0',
                    Logic::One => '1',
                    Logic::X => 'x',
                };
                let _ = writeln!(changes, "{ch}{}", self.ids[i]);
                self.prev[i] = Some(now);
            }
        }
        if !changes.is_empty() {
            let _ = writeln!(self.body, "#{}", self.time);
            self.body.push_str(&changes);
        }
        self.time += 1;
    }

    /// Number of time steps recorded so far.
    pub fn steps(&self) -> u64 {
        self.time
    }

    /// Renders the complete VCD file.
    pub fn finish(self) -> String {
        let mut out = self.header;
        out.push_str(&self.body);
        let _ = writeln!(out, "#{}", self.time);
        out
    }
}

/// VCD identifier codes: printable ASCII 33..=126, multi-character
/// beyond 94 signals.
fn id_code(mut index: usize) -> String {
    const BASE: usize = 94;
    let mut code = String::new();
    loop {
        code.push((b'!' + (index % BASE) as u8) as char);
        index /= BASE;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    code
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn toggle() -> Netlist {
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
    fn records_toggling_waveform() {
        let n = toggle();
        let mut sim = Simulator::new(&n).unwrap();
        let mut trace = VcdTrace::new(&n);
        sim.step_bools(&[true]).unwrap();
        trace.sample(&sim);
        for _ in 0..4 {
            sim.step_bools(&[false]).unwrap();
            trace.sample(&sim);
        }
        assert_eq!(trace.steps(), 5);
        let text = trace.finish();
        assert!(text.contains("$var wire 1"));
        assert!(text.contains("$enddefinitions $end"));
        // q toggles every cycle after reset: several value changes.
        let q_id = "\"";
        let _ = q_id;
        assert!(text.matches("#").count() >= 4, "time markers present");
        assert!(text.contains('x'), "initial X recorded");
    }

    #[test]
    fn only_changes_are_emitted() {
        let mut n = Netlist::new("const");
        let a = n.add_input("a");
        let y = n.gate(CellKind::Buf, &[a]).unwrap();
        n.add_output(y);
        let mut sim = Simulator::new(&n).unwrap();
        let mut trace = VcdTrace::new(&n);
        for _ in 0..5 {
            sim.step_bools(&[false, true]).unwrap();
            trace.sample(&sim);
        }
        let text = trace.finish();
        // Values settle after the first sample; later samples add no
        // change blocks, so only #0 and the final timestamp appear.
        // (Count timestamp lines, not '#' characters — '#' is also a
        // legal signal id code.)
        let timestamps = text.lines().filter(|l| l.starts_with('#')).count();
        assert_eq!(timestamps, 2, "{text}");
    }

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let id = id_code(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)), "{id}");
            assert!(seen.insert(id), "duplicate at {i}");
        }
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(94).len(), 2);
    }
}
