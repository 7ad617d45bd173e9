//! Cycle-accurate behavioural model of an SRAG.
//!
//! Implements the token/counter semantics of paper §4 exactly: on
//! every `next` stimulus the `DivCnt` advances; every `div_count`-th
//! stimulus enables a shift, moving the token one flip-flop onward;
//! every `pass_count`-th shift asserts `pass`, hopping the token to
//! the following register. After reset the token sits on flip-flop
//! `s₀,₀`, i.e. the first address of the sequence is presented
//! immediately — the same convention as the synthesized netlists.

use adgen_seq::AddressGenerator;

use crate::arch::SragSpec;

/// Behavioural SRAG simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SragSimulator {
    spec: SragSpec,
    register: usize,
    position: usize,
    div_count: usize,
    pass_count: usize,
}

impl SragSimulator {
    /// Creates a simulator in the reset state.
    pub fn new(spec: SragSpec) -> Self {
        SragSimulator {
            spec,
            register: 0,
            position: 0,
            div_count: 0,
            pass_count: 0,
        }
    }

    /// The architecture being simulated.
    pub fn spec(&self) -> &SragSpec {
        &self.spec
    }

    /// The select-line vector at this cycle: exactly one line is hot.
    pub fn select_lines(&self) -> Vec<bool> {
        let mut v = vec![false; self.spec.num_lines];
        v[self.current() as usize] = true;
        v
    }
}

impl AddressGenerator for SragSimulator {
    fn reset(&mut self) {
        self.register = 0;
        self.position = 0;
        self.div_count = 0;
        self.pass_count = 0;
    }

    fn advance(&mut self) {
        // DivCnt counts next pulses up to div_count.
        if self.div_count + 1 < self.spec.div_count {
            self.div_count += 1;
            return;
        }
        self.div_count = 0;
        // Shift enable fires; PassCnt counts enables up to pass_count.
        let pass = self.pass_count + 1 == self.spec.pass_count;
        self.pass_count = (self.pass_count + 1) % self.spec.pass_count;
        // Token moves one flip-flop; at the end of a register it
        // recirculates, unless `pass` hops it to the next register.
        let reg_len = self.spec.registers[self.register].len();
        if pass {
            debug_assert_eq!(
                self.position,
                reg_len - 1,
                "pass must coincide with the register boundary (pC = Mi x iterations)"
            );
            self.register = (self.register + 1) % self.spec.num_registers();
            self.position = 0;
        } else if self.position + 1 == reg_len {
            self.position = 0;
        } else {
            self.position += 1;
        }
    }

    fn current(&self) -> u32 {
        self.spec.registers[self.register].lines()[self.position]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ShiftRegisterSpec;

    /// The SRAG of paper Fig. 5 with `dC = 2`, always passing:
    /// S = ((5,1,4,0),(3,7,6,2)), pC = 4 gives
    /// `5,5,1,1,4,4,0,0,3,3,7,7,6,6,2,2`.
    #[test]
    fn paper_example_div_two() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![5, 1, 4, 0]),
                ShiftRegisterSpec::new(vec![3, 7, 6, 2]),
            ],
            2,
            4,
            8,
        );
        let mut sim = SragSimulator::new(spec);
        let got = sim.collect_sequence(16);
        assert_eq!(
            got.as_slice(),
            &[5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]
        );
    }

    /// The SRAG of paper Fig. 5 with `pC = 8`, `dC = 1`:
    /// `5,1,4,0,5,1,4,0,3,7,6,2,3,7,6,2`.
    #[test]
    fn paper_example_pass_eight() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![5, 1, 4, 0]),
                ShiftRegisterSpec::new(vec![3, 7, 6, 2]),
            ],
            1,
            8,
            8,
        );
        let mut sim = SragSimulator::new(spec);
        let got = sim.collect_sequence(16);
        assert_eq!(
            got.as_slice(),
            &[5, 1, 4, 0, 5, 1, 4, 0, 3, 7, 6, 2, 3, 7, 6, 2]
        );
    }

    #[test]
    fn sequence_is_periodic() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![0, 1]),
                ShiftRegisterSpec::new(vec![2, 3]),
            ],
            2,
            4,
            4,
        );
        let period = spec.period();
        let mut sim = SragSimulator::new(spec);
        let two = sim.collect_sequence(2 * period);
        assert_eq!(&two.as_slice()[..period], &two.as_slice()[period..]);
    }

    #[test]
    fn exactly_one_line_hot_every_cycle() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![5, 1, 4, 0]),
                ShiftRegisterSpec::new(vec![3, 7, 6, 2]),
            ],
            3,
            8,
            8,
        );
        let mut sim = SragSimulator::new(spec);
        for _ in 0..100 {
            let hot = sim.select_lines().iter().filter(|&&b| b).count();
            assert_eq!(hot, 1);
            sim.advance();
        }
    }

    #[test]
    fn ring_generates_incremental() {
        let mut sim = SragSimulator::new(SragSpec::ring(5));
        assert_eq!(
            sim.collect_sequence(10).as_slice(),
            &[0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn reset_mid_sequence_restarts() {
        let mut sim = SragSimulator::new(SragSpec::ring(4));
        sim.advance();
        sim.advance();
        assert_eq!(sim.current(), 2);
        sim.reset();
        assert_eq!(sim.current(), 0);
        assert_eq!(sim, SragSimulator::new(SragSpec::ring(4)));
    }
}
