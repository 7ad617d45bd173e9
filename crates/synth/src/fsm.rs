//! The generalized FSM address generator of paper §3.
//!
//! For a deterministic address sequence of length `N`, the address
//! generator for a decoder-decoupled memory can be written as an FSM
//! with `N` states whose outputs drive the select lines directly
//! (paper Fig. 2). This module models such machines symbolically and
//! synthesizes them to gates under a chosen [`Encoding`] and
//! [`OutputStyle`], using the Espresso-style minimizer for the
//! next-state and output logic — the "symbolic state machine" arm of
//! the paper's Figures 3 and 4.
//!
//! Machines advance on a `next` input (state-register enable) and
//! initialize to state 0 on the global reset.

use std::time::{Duration, Instant};

use adgen_netlist::{CellKind, Library, NetId, Netlist, Price};
use adgen_obs as obs;

use crate::cover::Cover;
use crate::encoding::Encoding;
use crate::error::{PriceError, SynthError};
use crate::espresso;
use crate::techmap::{insert_fanout_buffers, literal_rails, map_sop, or_tree};

/// Maximum fanout allowed before buffer trees are inserted, matching
/// a typical 0.18 µm synthesis max-fanout constraint.
pub const MAX_FANOUT: usize = 12;

/// A Moore machine with a single `advance` stimulus: in state `s` it
/// emits `output[s]`, and on `next` it moves to `next_state[s]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fsm {
    next_state: Vec<usize>,
    output: Vec<u64>,
}

impl Fsm {
    /// Builds a machine from explicit transition and output tables.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::EmptyStateSpace`] for empty tables,
    /// [`SynthError::StateOutOfRange`] for dangling transitions, and
    /// requires both tables to have the same length (the mismatch is
    /// reported as `StateOutOfRange` on the shorter table).
    pub fn new(next_state: Vec<usize>, output: Vec<u64>) -> Result<Self, SynthError> {
        if next_state.is_empty() || output.is_empty() {
            return Err(SynthError::EmptyStateSpace);
        }
        if next_state.len() != output.len() {
            return Err(SynthError::StateOutOfRange {
                state: next_state.len().min(output.len()),
                num_states: next_state.len().max(output.len()),
            });
        }
        let n = next_state.len();
        if let Some(&bad) = next_state.iter().find(|&&s| s >= n) {
            return Err(SynthError::StateOutOfRange {
                state: bad,
                num_states: n,
            });
        }
        Ok(Fsm { next_state, output })
    }

    /// The machine realizing a cyclic address sequence: state `i`
    /// outputs `addresses[i]` and advances to `(i + 1) mod N`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::EmptyStateSpace`] for an empty sequence.
    pub fn cyclic_sequence(addresses: &[u32]) -> Result<Self, SynthError> {
        if addresses.is_empty() {
            return Err(SynthError::EmptyStateSpace);
        }
        let n = addresses.len();
        Fsm::new(
            (0..n).map(|i| (i + 1) % n).collect(),
            addresses.iter().map(|&a| a as u64).collect(),
        )
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.next_state.len()
    }

    /// Behavioural reference: the output stream over `steps` advances
    /// starting from state 0 (the first element is state 0's output).
    pub fn simulate(&self, steps: usize) -> Vec<u64> {
        let mut s = 0usize;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            out.push(self.output[s]);
            s = self.next_state[s];
        }
        out
    }

    /// Synthesizes the machine to a gate-level netlist.
    ///
    /// The produced netlist has primary inputs `reset` (index 0,
    /// created by [`Netlist::new`]) and `next` (index 1), and one
    /// primary output per select line or address bit depending on
    /// `style`. See [`SynthesizedFsm`] for the handle.
    ///
    /// Binary and Gray encodings run every next-state and output
    /// function through the two-level minimizer; the one-hot encoding
    /// uses its known direct structure (each next-state bit is a
    /// disjunction of predecessor bits), since minimization with the
    /// full unused-code don't-care set provably reduces to exactly
    /// that.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::OutputOutOfRange`] when an output value
    /// does not fit `style`, plus any netlist construction error.
    pub fn synthesize(
        &self,
        encoding: Encoding,
        style: OutputStyle,
    ) -> Result<SynthesizedFsm, SynthError> {
        self.synthesize_budgeted(encoding, style, espresso::EffortBudget::synthesis_default())
    }

    /// [`synthesize`](Self::synthesize) under an explicit
    /// [`espresso::EffortBudget`] governing every logic minimization
    /// of the run (one per next-state bit and output function). A
    /// budget too small to reach the cost fixpoint yields a larger
    /// but still functionally correct netlist, reported via
    /// [`SynthesizedFsm::truncated`] — the knob the serving layer
    /// exposes per request, and the reason truncated and full-effort
    /// results must never share a cache entry.
    ///
    /// # Errors
    ///
    /// As for [`synthesize`](Self::synthesize).
    pub fn synthesize_budgeted(
        &self,
        encoding: Encoding,
        style: OutputStyle,
        budget: espresso::EffortBudget,
    ) -> Result<SynthesizedFsm, SynthError> {
        let _span = obs::span_arg("fsm.synthesize", self.num_states() as u64);
        let started = Instant::now();
        let n = self.num_states();
        // Validate outputs against the style.
        let limit = style.limit();
        if let Some(&bad) = self.output.iter().find(|&&v| v >= limit) {
            return Err(SynthError::OutputOutOfRange { value: bad, limit });
        }

        let mut netlist = Netlist::new(format!("fsm_{n}s"));
        let next_in = netlist.add_input("next");

        let mut truncated = false;
        let result = match encoding {
            // One-hot needs no minimizer, so no effort can truncate.
            Encoding::OneHot => self.synthesize_one_hot(&mut netlist, next_in, style, "")?,
            _ => self.synthesize_coded(
                &mut netlist,
                next_in,
                encoding,
                style,
                "",
                budget,
                &mut truncated,
            )?,
        };
        insert_fanout_buffers(&mut netlist, MAX_FANOUT)?;
        netlist.validate().map_err(SynthError::from)?;
        Ok(SynthesizedFsm {
            netlist,
            outputs: result,
            encoding,
            style,
            synthesis_time: started.elapsed(),
            truncated,
        })
    }

    /// Builds this machine into an existing netlist, advancing on
    /// `advance` and prefixing all instance/net names with `prefix`
    /// so several machines can interact in one design — the paper's
    /// §4 "interacting FSMs" control option. Returns the output nets.
    /// The caller runs fanout buffering and validation.
    ///
    /// # Errors
    ///
    /// As for [`synthesize`](Self::synthesize).
    pub fn build_into(
        &self,
        netlist: &mut Netlist,
        advance: NetId,
        encoding: Encoding,
        style: OutputStyle,
        prefix: &str,
    ) -> Result<Vec<NetId>, SynthError> {
        let _span = obs::span_arg("fsm.build_into", self.num_states() as u64);
        let limit = style.limit();
        if let Some(&bad) = self.output.iter().find(|&&v| v >= limit) {
            return Err(SynthError::OutputOutOfRange { value: bad, limit });
        }
        match encoding {
            Encoding::OneHot => self.synthesize_one_hot(netlist, advance, style, prefix),
            _ => self.synthesize_coded(
                netlist,
                advance,
                encoding,
                style,
                prefix,
                espresso::EffortBudget::synthesis_default(),
                &mut false,
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn synthesize_coded(
        &self,
        netlist: &mut Netlist,
        next_in: NetId,
        encoding: Encoding,
        style: OutputStyle,
        prefix: &str,
        budget: espresso::EffortBudget,
        truncated: &mut bool,
    ) -> Result<Vec<NetId>, SynthError> {
        let n = self.num_states();
        let bits = encoding.num_bits(n);
        let codes: Vec<u64> = (0..n).map(|s| encoding.code(s, n)).collect();

        // Don't-care set: unused code words.
        let mut used = vec![false; 1 << bits];
        for &code in &codes {
            used[code as usize] = true;
        }
        let dc_minterms: Vec<u64> = (0..(1u64 << bits)).filter(|&m| !used[m as usize]).collect();
        let dc = Cover::from_minterms(bits, &dc_minterms);

        // Every function below is defined row by row over the used
        // codes: its on-set is the codes of the states where it is 1, in
        // state order, and its off-set the other states' codes. The
        // minimizer builds that off-set only when it runs on it, and
        // otherwise complements on ∪ dc.
        let codes_where = |pred: &dyn Fn(usize) -> bool| -> Vec<u64> {
            (0..n).filter(|&s| pred(s)).map(|s| codes[s]).collect()
        };
        let mut minimize = |on: Vec<u64>, is_on: &dyn Fn(usize) -> bool| {
            let off_minterms = n - on.len();
            let off = || Cover::from_minterms(bits, &codes_where(&|s| !is_on(s)));
            let on = Cover::from_minterms(bits, &on);
            let outcome = espresso::minimize_with_lazy_off_budgeted(
                on,
                dc.clone(),
                off_minterms,
                off,
                budget,
            );
            *truncated |= outcome.truncated;
            outcome.cover
        };

        // State register.
        let q: Vec<NetId> = (0..bits)
            .map(|b| netlist.add_net(format!("{prefix}state_q{b}")))
            .collect();
        let qn = literal_rails(netlist, &q)?;

        // Next-state logic per bit.
        let code0 = codes[0];
        let rst = netlist.reset();
        for b in 0..bits {
            let is_on = |s: usize| (codes[self.next_state[s]] >> b) & 1 == 1;
            let cover = minimize(codes_where(&is_on), &is_on);
            let d = map_sop(netlist, &cover, &q, &qn)?;
            // Reset loads the code of state 0.
            let kind = if (code0 >> b) & 1 == 1 {
                CellKind::Dffse
            } else {
                CellKind::Dffre
            };
            netlist.add_instance(
                format!("{prefix}state_ff{b}"),
                kind,
                &[d, next_in, rst],
                &[q[b]],
            )?;
        }

        // Output logic.
        let mut outs = Vec::new();
        match style {
            OutputStyle::SelectLines { num_lines } => {
                // States in order of output value, each value's states
                // in state order: each line's on-states are the next run.
                let mut by_output: Vec<usize> = (0..n).collect();
                by_output.sort_by_key(|&s| self.output[s]);
                let mut rest = &by_output[..];
                for line in 0..num_lines as u64 {
                    let run = rest.partition_point(|&s| self.output[s] == line);
                    let (members, tail) = rest.split_at(run);
                    rest = tail;
                    let on = members.iter().map(|&s| codes[s]).collect();
                    let cover = minimize(on, &|s| self.output[s] == line);
                    let y = map_sop(netlist, &cover, &q, &qn)?;
                    netlist.add_output(y);
                    outs.push(y);
                }
            }
            OutputStyle::BinaryAddress { bits: abits } => {
                for b in 0..abits {
                    let is_on = |s: usize| (self.output[s] >> b) & 1 == 1;
                    let cover = minimize(codes_where(&is_on), &is_on);
                    let y = map_sop(netlist, &cover, &q, &qn)?;
                    netlist.add_output(y);
                    outs.push(y);
                }
            }
        }
        Ok(outs)
    }

    fn synthesize_one_hot(
        &self,
        netlist: &mut Netlist,
        next_in: NetId,
        style: OutputStyle,
        prefix: &str,
    ) -> Result<Vec<NetId>, SynthError> {
        let n = self.num_states();
        let rst = netlist.reset();
        let q: Vec<NetId> = (0..n)
            .map(|s| netlist.add_net(format!("{prefix}hot_q{s}")))
            .collect();
        for s in 0..n {
            let preds: Vec<NetId> = (0..n)
                .filter(|&p| self.next_state[p] == s)
                .map(|p| q[p])
                .collect();
            let d = or_tree(netlist, &preds)?;
            let kind = if s == 0 {
                CellKind::Dffse
            } else {
                CellKind::Dffre
            };
            netlist.add_instance(
                format!("{prefix}hot_ff{s}"),
                kind,
                &[d, next_in, rst],
                &[q[s]],
            )?;
        }
        let mut outs = Vec::new();
        match style {
            OutputStyle::SelectLines { num_lines } => {
                for line in 0..num_lines {
                    let members: Vec<NetId> = (0..n)
                        .filter(|&s| self.output[s] == line as u64)
                        .map(|s| q[s])
                        .collect();
                    let y = or_tree(netlist, &members)?;
                    netlist.add_output(y);
                    outs.push(y);
                }
            }
            OutputStyle::BinaryAddress { bits } => {
                for b in 0..bits {
                    let members: Vec<NetId> = (0..n)
                        .filter(|&s| (self.output[s] >> b) & 1 == 1)
                        .map(|s| q[s])
                        .collect();
                    let y = or_tree(netlist, &members)?;
                    netlist.add_output(y);
                    outs.push(y);
                }
            }
        }
        Ok(outs)
    }
}

/// How the FSM presents its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputStyle {
    /// One select line per memory row/column/cell — the
    /// decoder-decoupled interface of paper Fig. 2.
    SelectLines {
        /// Number of select lines.
        num_lines: usize,
    },
    /// A binary-coded address for a conventional RAM.
    BinaryAddress {
        /// Address width in bits.
        bits: usize,
    },
}

impl OutputStyle {
    fn limit(self) -> u64 {
        match self {
            OutputStyle::SelectLines { num_lines } => num_lines as u64,
            OutputStyle::BinaryAddress { bits } => {
                if bits >= 64 {
                    u64::MAX
                } else {
                    1u64 << bits
                }
            }
        }
    }
}

/// A synthesized FSM: the netlist plus its interface and the
/// synthesis-time measurement used by the paper's §3 runtime
/// comparison.
#[derive(Debug, Clone)]
pub struct SynthesizedFsm {
    /// The gate-level implementation. Inputs: `reset`, `next`.
    pub netlist: Netlist,
    /// Output nets (select lines or address bits, LSB first).
    pub outputs: Vec<NetId>,
    /// The state encoding used.
    pub encoding: Encoding,
    /// The output style used.
    pub style: OutputStyle,
    /// Wall-clock synthesis time (logic minimization + mapping).
    pub synthesis_time: Duration,
    /// Whether any logic minimization of the run exhausted its
    /// [`espresso::EffortBudget`] and returned a correct but
    /// unminimized cover. Always `false` under the default
    /// synthesis budget for the workloads in this workspace.
    pub truncated: bool,
}

impl SynthesizedFsm {
    /// Decodes the current outputs of a simulator over this netlist
    /// into an address value: for select lines, the index of the
    /// single hot line; for binary addresses, the coded value.
    /// Returns `None` if outputs are X or (for select lines) not
    /// exactly one-hot.
    pub fn observed_address(&self, sim: &adgen_netlist::Simulator<'_>) -> Option<u64> {
        match self.style {
            OutputStyle::SelectLines { .. } => sim.one_hot(&self.outputs).map(u64::from),
            OutputStyle::BinaryAddress { .. } => sim.word(&self.outputs),
        }
    }
}

/// A cyclic address FSM synthesized to gates and priced.
#[derive(Debug, Clone)]
pub struct PricedFsm {
    /// The synthesized machine.
    pub fsm: SynthesizedFsm,
    /// [`Price::of`] its netlist.
    pub price: Price,
}

/// Synthesizes the cyclic FSM replaying `addresses` under `encoding`,
/// `style` and `budget`, then prices the netlist with [`Price::of`].
///
/// # Errors
///
/// [`PriceError::Synth`] when synthesis rejects the sequence (empty,
/// or an address `style` cannot represent); [`PriceError::Timing`]
/// when timing analysis of the synthesized netlist fails.
pub fn price_cyclic(
    addresses: &[u32],
    encoding: Encoding,
    style: OutputStyle,
    budget: espresso::EffortBudget,
    library: &Library,
) -> Result<PricedFsm, PriceError> {
    let fsm = Fsm::cyclic_sequence(addresses)
        .and_then(|f| f.synthesize_budgeted(encoding, style, budget))
        .map_err(PriceError::Synth)?;
    let price = Price::of(&fsm.netlist, library).map_err(PriceError::Timing)?;
    Ok(PricedFsm { fsm, price })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_netlist::Simulator;

    /// Synthesizes the cyclic FSM for `addresses` and checks it against
    /// the behavioural model by gate-level simulation over two full
    /// periods.
    fn synthesize_verified(
        addresses: &[u32],
        encoding: Encoding,
        style: OutputStyle,
    ) -> Result<SynthesizedFsm, SynthError> {
        let fsm = Fsm::cyclic_sequence(addresses)?;
        let design = fsm.synthesize(encoding, style)?;
        let mut sim = Simulator::new(&design.netlist)?;
        // Reset (inputs: reset, next).
        sim.step_bools(&[true, false])?;
        let expected = fsm.simulate(2 * addresses.len());
        for (i, &e) in expected.iter().enumerate() {
            sim.step_bools(&[false, true])?;
            let got = design.observed_address(&sim);
            assert_eq!(
                got,
                Some(e),
                "gate-level FSM diverged at step {i}: expected {e}, got {got:?}"
            );
        }
        Ok(design)
    }

    #[test]
    fn fsm_construction_validation() {
        assert!(matches!(
            Fsm::new(vec![], vec![]),
            Err(SynthError::EmptyStateSpace)
        ));
        assert!(matches!(
            Fsm::new(vec![5], vec![0]),
            Err(SynthError::StateOutOfRange { .. })
        ));
        assert!(matches!(
            Fsm::new(vec![0, 1], vec![0]),
            Err(SynthError::StateOutOfRange { .. })
        ));
        assert!(Fsm::cyclic_sequence(&[]).is_err());
    }

    #[test]
    fn behavioural_simulation_cycles() {
        let fsm = Fsm::cyclic_sequence(&[5, 1, 4]).unwrap();
        assert_eq!(fsm.simulate(7), vec![5, 1, 4, 5, 1, 4, 5]);
    }

    #[test]
    fn output_out_of_range_detected() {
        let fsm = Fsm::cyclic_sequence(&[0, 9]).unwrap();
        let err = fsm
            .synthesize(Encoding::Binary, OutputStyle::SelectLines { num_lines: 4 })
            .unwrap_err();
        assert!(matches!(err, SynthError::OutputOutOfRange { .. }));
    }

    #[test]
    fn binary_fsm_select_lines_match_behaviour() {
        let seq = [5u32, 1, 4, 0, 3, 7, 6, 2];
        let design = synthesize_verified(
            &seq,
            Encoding::Binary,
            OutputStyle::SelectLines { num_lines: 8 },
        )
        .unwrap();
        assert!(design.netlist.num_flip_flops() >= 3);
        assert!(design.synthesis_time.as_nanos() > 0);
    }

    #[test]
    fn gray_fsm_matches_behaviour() {
        let seq = [0u32, 1, 2, 3, 4, 5];
        synthesize_verified(
            &seq,
            Encoding::Gray,
            OutputStyle::SelectLines { num_lines: 6 },
        )
        .unwrap();
    }

    #[test]
    fn one_hot_fsm_matches_behaviour() {
        let seq = [2u32, 0, 3, 1];
        let design = synthesize_verified(
            &seq,
            Encoding::OneHot,
            OutputStyle::SelectLines { num_lines: 4 },
        )
        .unwrap();
        assert_eq!(design.netlist.num_flip_flops(), 4);
    }

    #[test]
    fn binary_address_style_matches_behaviour() {
        let seq = [0u32, 1, 2, 3, 4, 5, 6, 7];
        let design = synthesize_verified(
            &seq,
            Encoding::Binary,
            OutputStyle::BinaryAddress { bits: 3 },
        )
        .unwrap();
        assert_eq!(design.outputs.len(), 3);
    }

    #[test]
    fn non_power_of_two_uses_dont_cares() {
        // 5 states in 3 bits: 3 unused codes become don't-cares.
        let seq = [0u32, 1, 2, 3, 4];
        synthesize_verified(
            &seq,
            Encoding::Binary,
            OutputStyle::SelectLines { num_lines: 5 },
        )
        .unwrap();
    }

    #[test]
    fn repeated_addresses_in_sequence() {
        // The same address in several states (FSM handles what the
        // SRAG needs a divider for).
        let seq = [3u32, 3, 1, 1, 2, 2];
        synthesize_verified(
            &seq,
            Encoding::Binary,
            OutputStyle::SelectLines { num_lines: 4 },
        )
        .unwrap();
    }

    #[test]
    fn reset_returns_to_state_zero() {
        let seq = [4u32, 2, 7];
        let design = Fsm::cyclic_sequence(&seq)
            .unwrap()
            .synthesize(Encoding::Binary, OutputStyle::SelectLines { num_lines: 8 })
            .unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(4));
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(2));
        // Mid-sequence reset.
        sim.step_bools(&[true, false]).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(4));
    }

    #[test]
    fn next_low_holds_state() {
        let seq = [1u32, 2, 3];
        let design = Fsm::cyclic_sequence(&seq)
            .unwrap()
            .synthesize(Encoding::Binary, OutputStyle::SelectLines { num_lines: 4 })
            .unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(1));
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(1), "held without next");
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(
            design.observed_address(&sim),
            Some(1),
            "advance visible next cycle"
        );
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(2));
    }
}
