//! Structural elaboration of a decomposed (fold) address generator:
//! one mod-`len` cycle counter feeding the linear component functions
//! of a [`Decomposition`] — constant ties, counter-bit taps and XOR
//! folds. Residue bits are *not* elaborated here; they come from a
//! separately synthesized FSM (see
//! [`price_decomposed`](crate::decompose::price_decomposed)).
//!
//! Interface: inputs `reset` (the IR's implicit index 0) and `next`;
//! one primary output per linear address bit, ascending bit order.
//! The engines' read-after-step convention applies: outputs observed
//! after a step show the state entering that step, so the first tick
//! after reset presents the stream's `t = 0` address.

use adgen_netlist::{CellKind, Logic, NetId, Netlist, SimControl};
use adgen_synth::fsm::MAX_FANOUT;
use adgen_synth::mapgen::{build_equality_const, build_incrementer};
use adgen_synth::techmap::insert_fanout_buffers;

use crate::decompose::{BitPlan, Decomposition};
use crate::error::BankError;

/// The elaborated fold generator.
#[derive(Debug, Clone)]
pub struct FoldAgNetlist {
    /// The netlist; drive it with any simulation engine, STA, or the
    /// Verilog/VCD emitters.
    pub netlist: Netlist,
    /// Counter width in bits.
    pub cnt_bits: u32,
    /// Counter period (the stream length).
    pub len: usize,
    /// `(address bit, output net)` pairs in ascending bit order — the
    /// linear bits this circuit serves.
    pub outputs: Vec<(u32, NetId)>,
    /// Counter flip-flop outputs — the SEU target pool.
    pub state_nets: Vec<NetId>,
}

/// The stimulus vector for one reset cycle.
pub fn reset_inputs() -> Vec<bool> {
    vec![true, false]
}

/// The stimulus vector for one running tick.
pub fn tick_inputs() -> Vec<bool> {
    vec![false, true]
}

impl FoldAgNetlist {
    /// Elaborates the linear part of `d`.
    ///
    /// # Errors
    ///
    /// Rejects a decomposition with no linear bits (the residue FSM
    /// would be the whole generator) and propagates netlist
    /// construction failures.
    pub fn elaborate(d: &Decomposition) -> Result<Self, BankError> {
        if d.linear_bits() == 0 {
            return Err(BankError::Netlist(
                "decomposition has no linear bits to elaborate".to_string(),
            ));
        }
        let width = d.cnt_bits as usize;
        let mut n = Netlist::new("fold_ag");
        let rst = n.inputs()[0];
        let next = n.add_input("next");

        // --- mod-len cycle counter ---------------------------------
        let q: Vec<NetId> = (0..width).map(|i| n.add_net(format!("cnt_q{i}"))).collect();
        let inc = build_incrementer(&mut n, &q)?;
        // Wrap when inc == len; a full-period counter wraps for free.
        let natural = d.len == 1usize << d.cnt_bits;
        let d_bits: Vec<NetId> = if natural {
            inc.clone()
        } else {
            let last = build_equality_const(&mut n, &inc, d.len as u64)?;
            let not_last = n.gate(CellKind::Inv, &[last])?;
            inc.iter()
                .map(|&b| n.gate(CellKind::And2, &[b, not_last]))
                .collect::<Result<_, _>>()?
        };
        for (i, (&qb, &db)) in q.iter().zip(&d_bits).enumerate() {
            n.add_instance(
                format!("u_cnt{i}"),
                CellKind::Dffre,
                &[db, next, rst],
                &[qb],
            )?;
        }

        // --- component functions -----------------------------------
        let mut tie_hi: Option<NetId> = None;
        let mut tie_lo: Option<NetId> = None;
        let mut outputs = Vec::with_capacity(d.linear_bits() as usize);
        for (j, plan) in d.plans.iter().enumerate() {
            let net = match plan {
                BitPlan::Residue { .. } => continue,
                BitPlan::Constant { value: true } => *match &mut tie_hi {
                    Some(net) => net,
                    slot => slot.insert(n.gate(CellKind::TieHi, &[])?),
                },
                BitPlan::Constant { value: false } => *match &mut tie_lo {
                    Some(net) => net,
                    slot => slot.insert(n.gate(CellKind::TieLo, &[])?),
                },
                BitPlan::CounterBit { bit } => q[*bit as usize],
                BitPlan::XorFold { terms, invert } => {
                    let mut acc = q[terms[0] as usize];
                    for &k in &terms[1..] {
                        acc = n.gate(CellKind::Xor2, &[acc, q[k as usize]])?;
                    }
                    if *invert {
                        acc = n.gate(CellKind::Inv, &[acc])?;
                    }
                    acc
                }
            };
            n.add_output(net);
            outputs.push((j as u32, net));
        }

        insert_fanout_buffers(&mut n, MAX_FANOUT)?;
        n.validate()?;
        Ok(FoldAgNetlist {
            netlist: n,
            cnt_bits: d.cnt_bits,
            len: d.len,
            outputs,
            state_nets: q,
        })
    }

    /// Assembles the linear address bits from primary-output values
    /// (residue bits read as 0; any `X` bit reads as 0).
    pub fn read_addr(&self, values: &[Logic]) -> u32 {
        self.outputs
            .iter()
            .zip(values)
            .fold(0u32, |a, (&(j, _), &v)| {
                a | (u32::from(v == Logic::One) << j)
            })
    }

    /// Resets, then collects the first `count` addresses (linear bits
    /// only).
    ///
    /// # Errors
    ///
    /// Propagates simulator stimulus errors.
    pub fn collect<S: SimControl + ?Sized>(
        &self,
        sim: &mut S,
        count: usize,
    ) -> Result<Vec<u32>, BankError> {
        sim.step_bools(&reset_inputs())?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            sim.step_bools(&tick_inputs())?;
            out.push(self.read_addr(&sim.output_values()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_netlist::Simulator;

    /// Mask of the linear bits of `d`.
    fn linear_mask(d: &Decomposition) -> u32 {
        d.plans
            .iter()
            .enumerate()
            .filter(|(_, p)| !matches!(p, BitPlan::Residue { .. }))
            .fold(0u32, |m, (j, _)| m | (1 << j))
    }

    fn replay_matches(stream: &[u32]) {
        let d = Decomposition::of(stream).unwrap();
        let fold = FoldAgNetlist::elaborate(&d).unwrap();
        let mut sim = Simulator::new(&fold.netlist).unwrap();
        let got = fold.collect(&mut sim, stream.len()).unwrap();
        let mask = linear_mask(&d);
        let want: Vec<u32> = stream.iter().map(|&a| a & mask).collect();
        assert_eq!(got, want, "gate-level replay diverged");
    }

    #[test]
    fn gate_level_replay_counter_and_gray() {
        replay_matches(&(0u32..16).collect::<Vec<_>>());
        replay_matches(&(0u32..16).map(|t| t ^ (t >> 1)).collect::<Vec<_>>());
    }

    #[test]
    fn gate_level_replay_non_power_of_two_length() {
        // len 6: the counter needs the explicit wrap compare.
        replay_matches(&[0, 1, 2, 3, 4, 5]);
        // Mixed: bit 2 is constant, bit 0 lands in the residue.
        replay_matches(&[4, 5, 6, 4, 5, 6]);
    }

    #[test]
    fn gate_level_replay_qpp_local_stream() {
        for w in [16u32, 32] {
            let f1 = w / 2 + 1;
            let stream: Vec<u32> = (0..w).map(|t| (f1 * t) % w).collect();
            let d = Decomposition::of(&stream).unwrap();
            assert!(d.is_fully_linear());
            replay_matches(&stream);
        }
    }

    #[test]
    fn replay_wraps_around_the_period() {
        let stream = vec![0, 1, 2, 3, 4];
        let d = Decomposition::of(&stream).unwrap();
        let fold = FoldAgNetlist::elaborate(&d).unwrap();
        let mut sim = Simulator::new(&fold.netlist).unwrap();
        let got = fold.collect(&mut sim, 10).unwrap();
        let mask = linear_mask(&d);
        let want: Vec<u32> = (0..10).map(|t| stream[t % 5] & mask).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn all_residue_decomposition_rejected() {
        // Length-4 stream whose both bits are irregular.
        let d = Decomposition::of(&[0, 0, 1, 2]).unwrap();
        assert_eq!(d.linear_bits(), 0);
        assert!(FoldAgNetlist::elaborate(&d).is_err());
    }
}
