//! The multi-counter SRAG extension sketched at the end of paper §4:
//! "The restrictions on DivCnt and PassCnt … can be relaxed by using
//! multiple counters that provide more flexibility in the sequences
//! that can be generated."
//!
//! This module implements that relaxation concretely:
//!
//! * **per-address division counts** — every flip-flop (select line)
//!   carries its own hold count; a single division counter compares
//!   against a *steered* terminal value selected by the active line,
//! * **per-register pass counts** — each shift register has its own
//!   pass counter, enabled only while that register holds the token.
//!
//! Both counter-example sequences the paper uses to illustrate the
//! base restrictions (`5,5,5,1,1,…` for DivCnt and the 12-vs-8-pass
//! sequence for PassCnt) become mappable.

use adgen_netlist::{CellKind, NetId, Netlist, Simulator};
use adgen_seq::sequence::UniqueEntry;
use adgen_seq::{AddressGenerator, AddressSequence};
use adgen_synth::mapgen::build_mod_counter;
use adgen_synth::techmap::{and_tree, or_tree};

use crate::arch::ShiftRegisterSpec;
use crate::error::SragError;
use crate::mapper::{group_runs, Grouping};
use crate::netlist::{finish, observed_one_hot, Ring};

/// Architecture of a multi-counter SRAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiCounterSragSpec {
    /// Shift registers in token order.
    pub registers: Vec<ShiftRegisterSpec>,
    /// Hold count for each flip-flop, parallel to
    /// `registers[i].lines()[j]` — the per-address `dC`.
    pub div_counts: Vec<Vec<usize>>,
    /// Shift-enables each register keeps the token for — the
    /// per-register `pC`.
    pub pass_counts: Vec<usize>,
    /// Number of select lines.
    pub num_lines: usize,
}

impl MultiCounterSragSpec {
    /// Validates and builds a specification.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree, a count is zero, a pass count is
    /// not a multiple of its register length, or a line repeats.
    pub fn new(
        registers: Vec<ShiftRegisterSpec>,
        div_counts: Vec<Vec<usize>>,
        pass_counts: Vec<usize>,
        num_lines: usize,
    ) -> Self {
        assert!(!registers.is_empty(), "need at least one register");
        assert_eq!(registers.len(), div_counts.len(), "div_counts shape");
        assert_eq!(registers.len(), pass_counts.len(), "pass_counts shape");
        let mut seen = std::collections::HashSet::new();
        for ((r, d), &p) in registers.iter().zip(&div_counts).zip(&pass_counts) {
            assert_eq!(r.len(), d.len(), "per-flip-flop div counts");
            assert!(d.iter().all(|&x| x > 0), "div counts must be nonzero");
            assert!(p > 0 && p % r.len() == 0, "pass count multiple of length");
            for &l in r.lines() {
                assert!((l as usize) < num_lines, "line out of range");
                assert!(seen.insert(l), "line mapped twice");
            }
        }
        MultiCounterSragSpec {
            registers,
            div_counts,
            pass_counts,
            num_lines,
        }
    }

    /// Total flip-flops.
    pub fn num_flip_flops(&self) -> usize {
        self.registers.iter().map(ShiftRegisterSpec::len).sum()
    }

    /// One full period of the generated sequence.
    pub fn period(&self) -> usize {
        let mut total = 0;
        for (i, r) in self.registers.iter().enumerate() {
            let iterations = self.pass_counts[i] / r.len();
            let per_pass: usize = self.div_counts[i].iter().sum();
            total += iterations * per_pass;
        }
        total
    }
}

/// Behavioural multi-counter SRAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiCounterSragSimulator {
    spec: MultiCounterSragSpec,
    register: usize,
    position: usize,
    div: usize,
    pass: usize,
}

impl MultiCounterSragSimulator {
    /// Creates a simulator in the reset state.
    pub fn new(spec: MultiCounterSragSpec) -> Self {
        MultiCounterSragSimulator {
            spec,
            register: 0,
            position: 0,
            div: 0,
            pass: 0,
        }
    }

    /// The architecture being simulated.
    pub fn spec(&self) -> &MultiCounterSragSpec {
        &self.spec
    }
}

impl AddressGenerator for MultiCounterSragSimulator {
    fn reset(&mut self) {
        self.register = 0;
        self.position = 0;
        self.div = 0;
        self.pass = 0;
    }

    fn advance(&mut self) {
        let hold = self.spec.div_counts[self.register][self.position];
        if self.div + 1 < hold {
            self.div += 1;
            return;
        }
        self.div = 0;
        let reg_len = self.spec.registers[self.register].len();
        let pass = self.pass + 1 == self.spec.pass_counts[self.register];
        if pass {
            self.pass = 0;
            self.register = (self.register + 1) % self.spec.registers.len();
            self.position = 0;
        } else {
            self.pass += 1;
            self.position = (self.position + 1) % reg_len;
        }
    }

    fn current(&self) -> u32 {
        self.spec.registers[self.register].lines()[self.position]
    }
}

/// Maps a sequence onto a multi-counter SRAG under the relaxed
/// restrictions.
///
/// Remaining requirements: every occurrence of an address must repeat
/// the same number of consecutive times (its personal `dC`), and the
/// initial-grouping heuristic plus verification must succeed — the
/// relaxation removes the *uniformity* requirements, not the
/// structural ones.
///
/// # Errors
///
/// * [`SragError::EmptySequence`] for an empty input.
/// * [`SragError::DivCntViolation`] if one address shows two
///   different repetition counts.
/// * [`SragError::PassCntViolation`] if a register's workload is not
///   a multiple of its length.
/// * [`SragError::GroupingFailure`] if verification fails.
pub fn map_sequence_relaxed(sequence: &AddressSequence) -> Result<MultiCounterSragSpec, SragError> {
    if sequence.is_empty() {
        return Err(SragError::EmptySequence);
    }
    let runs = sequence.run_length_encode();
    let Grouping {
        unique,
        ranks,
        group_of,
        groups,
        segments,
        num_lines,
        ..
    } = group_runs(&runs);
    // Per-address division counts must be self-consistent: each run
    // of an address is as long as its first one, run `Z` of its rank.
    let hold = |e: &UniqueEntry| runs[e.first_position].1;
    {
        let mut position = 0usize;
        for (&(address, len), &rank) in runs.iter().zip(&ranks) {
            let expected = hold(&unique[rank]);
            if len != expected {
                return Err(SragError::DivCntViolation {
                    expected,
                    found: len,
                    address,
                    position,
                });
            }
            position += len;
        }
    }

    // Per-register pass counts: every token visit of a register must
    // produce the same number of reduced elements, but different
    // registers may differ — that is the relaxation. Registers first
    // appear in R in index order, so a register's first segment is
    // the next one to record.
    let mut pass_counts: Vec<usize> = Vec::with_capacity(groups.len());
    for &(register, len) in &segments {
        match pass_counts.get(register) {
            None => pass_counts.push(len),
            Some(&expected) if expected != len => {
                return Err(SragError::PassCntViolation {
                    expected,
                    found: len,
                    register,
                });
            }
            Some(_) => {}
        }
    }
    for (register, (g, &p)) in groups.iter().zip(&pass_counts).enumerate() {
        if p % g.len() != 0 {
            return Err(SragError::PassCntViolation {
                expected: p,
                found: g.len(),
                register,
            });
        }
    }
    let mut div_counts: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
    for (e, &g) in unique.iter().zip(&group_of) {
        div_counts[g].push(hold(e));
    }
    let spec = MultiCounterSragSpec::new(
        groups.into_iter().map(ShiftRegisterSpec::new).collect(),
        div_counts,
        pass_counts,
        num_lines,
    );

    // Verification.
    let mut sim = MultiCounterSragSimulator::new(spec.clone());
    sim.reset();
    for (position, &(expected, len)) in runs.iter().enumerate() {
        let generated = sim.current();
        if generated != expected {
            return Err(SragError::GroupingFailure {
                position,
                expected,
                generated,
            });
        }
        for _ in 0..len {
            sim.advance();
        }
    }
    Ok(spec)
}

/// Gate-level multi-counter SRAG.
#[derive(Debug, Clone)]
pub struct MultiCounterSragNetlist {
    /// The implementation. Inputs: `reset`, `next`. Outputs: select
    /// lines in line order.
    pub netlist: Netlist,
    /// Select-line nets by line index.
    pub select_lines: Vec<NetId>,
}

impl MultiCounterSragNetlist {
    /// Elaborates a multi-counter SRAG: one steered division counter
    /// plus one pass counter per register.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn elaborate(spec: &MultiCounterSragSpec) -> Result<Self, SragError> {
        let mut n = Netlist::new(format!("mcsrag_{}ff", spec.num_flip_flops()));
        let next = n.add_input("next");
        let rst = n.reset();
        let num_regs = spec.registers.len();

        // Flip-flop output nets first: the control logic reads them.
        let ring = Ring::new(&mut n, &spec.registers, "");
        let q = &ring.q;

        // --- Division side: one counter, steered terminal count. ---
        let max_hold = spec.div_counts.iter().flatten().copied().max().unwrap_or(1);
        let enable = if max_hold == 1 {
            next
        } else {
            let width = (usize::BITS - (max_hold - 1).leading_zeros()) as usize;
            let divq: Vec<NetId> = (0..width).map(|b| n.add_net(format!("divq{b}"))).collect();
            // Steered terminal value: bit b = OR of active lines whose
            // (hold-1) has bit b set.
            let target = (0..width)
                .map(|b| {
                    let contributors: Vec<NetId> = q
                        .iter()
                        .flatten()
                        .zip(spec.div_counts.iter().flatten())
                        .filter(|&(_, &hold)| ((hold - 1) >> b) & 1 == 1)
                        .map(|(&line_q, _)| line_q)
                        .collect();
                    or_tree(&mut n, &contributors)
                })
                .collect::<Result<Vec<_>, _>>()?;
            // enable = next & (divq == target).
            let eq_bits = (0..width)
                .map(|b| n.gate(CellKind::Xnor2, &[divq[b], target[b]]))
                .collect::<Result<Vec<_>, _>>()?;
            let eq = and_tree(&mut n, &eq_bits)?;
            let enable = n.gate(CellKind::And2, &[next, eq])?;
            // Counter: increments on next, clears on enable.
            let not_enable = n.gate(CellKind::Inv, &[enable])?;
            let mut p: Vec<NetId> = divq.clone();
            let mut stride = 1;
            while stride < width {
                for i in (stride..width).rev() {
                    p[i] = n.gate(CellKind::And2, &[p[i], p[i - stride]])?;
                }
                stride *= 2;
            }
            let mut c = vec![next];
            for &pi in &p[..width - 1] {
                c.push(n.gate(CellKind::And2, &[next, pi])?);
            }
            for b in 0..width {
                let inc = n.gate(CellKind::Xor2, &[divq[b], c[b]])?;
                let d = n.gate(CellKind::And2, &[not_enable, inc])?;
                n.add_instance(format!("div_ff{b}"), CellKind::Dffr, &[d, rst], &[divq[b]])?;
            }
            enable
        };

        // --- Pass side: one counter per register, gated by token
        // residency. A single register never passes (recirculation
        // only). ---
        let pass = if num_regs == 1 {
            vec![n.gate(CellKind::TieLo, &[])?]
        } else {
            let mut pass = Vec::with_capacity(num_regs);
            for (i, qi) in q.iter().enumerate() {
                let token_here = or_tree(&mut n, qi)?;
                let count_en = n.gate(CellKind::And2, &[enable, token_here])?;
                let name = format!("pass{i}");
                pass.push(
                    build_mod_counter(&mut n, spec.pass_counts[i] as u64, count_en, &name)?.wrap,
                );
            }
            pass
        };

        // --- Shift registers with per-register pass steering. ---
        // Head flip-flop: recirculate own tail unless the token is
        // leaving this register (own pass), and accept the previous
        // register's tail when its pass fires. With per-register pass
        // signals a plain mux would duplicate the token on departure,
        // so the head uses gated OR steering.
        let head = |n: &mut Netlist, i: usize, recirc: NetId, tail: NetId| {
            if num_regs == 1 {
                return Ok(recirc);
            }
            let prev = (i + num_regs - 1) % num_regs;
            let stay = n.gate(CellKind::Inv, &[pass[i]])?;
            let kept = n.gate(CellKind::And2, &[recirc, stay])?;
            let incoming = n.gate(CellKind::And2, &[tail, pass[prev]])?;
            Ok(n.gate(CellKind::Or2, &[kept, incoming])?)
        };
        let select_lines = ring.close(&mut n, spec.num_lines, enable, rst, head)?;
        finish(&mut n, select_lines.iter().copied())?;
        Ok(MultiCounterSragNetlist {
            netlist: n,
            select_lines,
        })
    }

    /// Decodes the presented address from a running simulator.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        observed_one_hot(sim, &self.select_lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's DivCnt counter-example now maps.
    #[test]
    fn paper_divcnt_counterexample_maps() {
        let s = AddressSequence::from_vec(vec![5, 5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]);
        let spec = map_sequence_relaxed(&s).unwrap();
        let mut sim = MultiCounterSragSimulator::new(spec);
        assert_eq!(sim.collect_sequence(s.len()), s);
    }

    /// The paper's PassCnt counter-example now maps.
    #[test]
    fn paper_passcnt_counterexample_maps() {
        let s = AddressSequence::from_vec(vec![
            5, 1, 4, 0, 5, 1, 4, 0, 5, 1, 4, 0, 3, 7, 6, 2, 3, 7, 6, 2,
        ]);
        let spec = map_sequence_relaxed(&s).unwrap();
        assert_eq!(spec.pass_counts, vec![12, 8]);
        let mut sim = MultiCounterSragSimulator::new(spec);
        assert_eq!(sim.collect_sequence(2 * s.len()), s.repeated(2));
    }

    #[test]
    fn inconsistent_per_address_repetition_rejected() {
        // Address 5 repeats 2× then 3×: not even per-address uniform.
        let s = AddressSequence::from_vec(vec![5, 5, 1, 5, 5, 5, 1]);
        assert!(matches!(
            map_sequence_relaxed(&s),
            Err(SragError::DivCntViolation { .. })
        ));
    }

    #[test]
    fn uniform_sequences_still_map() {
        let s = AddressSequence::from_vec(vec![0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3]);
        let spec = map_sequence_relaxed(&s).unwrap();
        let mut sim = MultiCounterSragSimulator::new(spec);
        assert_eq!(sim.collect_sequence(s.len()), s);
    }

    #[test]
    fn grouping_failure_still_detected() {
        let s = AddressSequence::from_vec(vec![1, 2, 3, 4, 3, 2, 1, 4]);
        assert!(matches!(
            map_sequence_relaxed(&s),
            Err(SragError::GroupingFailure { .. })
        ));
    }

    #[test]
    fn gate_level_matches_behaviour_divcnt_case() {
        let s = AddressSequence::from_vec(vec![5, 5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]);
        let spec = map_sequence_relaxed(&s).unwrap();
        let design = MultiCounterSragNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        let mut model = MultiCounterSragSimulator::new(spec);
        sim.step_bools(&[true, false]).unwrap();
        model.reset();
        for cycle in 0..(2 * s.len()) {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(
                design.observed_address(&sim),
                Some(model.current()),
                "cycle {cycle}"
            );
            model.advance();
        }
    }

    #[test]
    fn gate_level_matches_behaviour_passcnt_case() {
        let s = AddressSequence::from_vec(vec![
            5, 1, 4, 0, 5, 1, 4, 0, 5, 1, 4, 0, 3, 7, 6, 2, 3, 7, 6, 2,
        ]);
        let spec = map_sequence_relaxed(&s).unwrap();
        let design = MultiCounterSragNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        let mut model = MultiCounterSragSimulator::new(spec);
        sim.step_bools(&[true, false]).unwrap();
        model.reset();
        for cycle in 0..(2 * s.len()) {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(
                design.observed_address(&sim),
                Some(model.current()),
                "cycle {cycle}"
            );
            model.advance();
        }
    }

    #[test]
    fn gate_level_with_next_gaps() {
        let s = AddressSequence::from_vec(vec![7, 7, 2, 2, 2, 4]);
        let spec = map_sequence_relaxed(&s).unwrap();
        let design = MultiCounterSragNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        let mut model = MultiCounterSragSimulator::new(spec);
        sim.step_bools(&[true, false]).unwrap();
        model.reset();
        let mut lcg = 99u64;
        for cycle in 0..40 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let advance = (lcg >> 33) & 1 == 1;
            sim.step_bools(&[false, advance]).unwrap();
            assert_eq!(
                design.observed_address(&sim),
                Some(model.current()),
                "cycle {cycle}"
            );
            if advance {
                model.advance();
            }
        }
    }

    #[test]
    fn period_accounts_for_non_uniform_counts() {
        let s = AddressSequence::from_vec(vec![5, 5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]);
        let spec = map_sequence_relaxed(&s).unwrap();
        assert_eq!(spec.period(), s.len());
    }
}
