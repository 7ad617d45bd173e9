//! Bounded sequential equivalence checking between two netlists.
//!
//! The workspace's central verification pattern — "do these two
//! implementations produce the same outputs under the same stimulus?"
//! — as a library API. Two netlists are compared cycle by cycle on
//! their primary outputs under (a) a deterministic pseudo-random
//! stimulus with resets and stalls and (b, for small input counts) an
//! exhaustive sweep of input combinations per cycle window. This is
//! bounded checking, not a proof, but with the reset discipline of
//! the generators in this workspace a bounded run past one full
//! period is conclusive in practice.

use crate::error::NetlistError;
use crate::graph::Netlist;
use crate::sim::Logic;
use crate::sim_sliced::Simulator;

/// A witness of divergence between two netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// Cycle index (0-based, counting applied stimulus vectors).
    pub cycle: u64,
    /// The stimulus vector applied on that cycle.
    pub inputs: Vec<Logic>,
    /// Index of the first differing primary output.
    pub output_index: usize,
    /// The first netlist's value.
    pub left: Logic,
    /// The second netlist's value.
    pub right: Logic,
}

/// Outcome of an equivalence check.
pub type EquivResult = Result<(), CounterExample>;

/// Checks that `left` and `right` produce identical primary-output
/// vectors for `cycles` cycles of deterministic pseudo-random
/// stimulus (seeded by `seed`), starting with a reset cycle.
/// Occasional mid-stream resets and input stalls are included.
///
/// # Errors
///
/// Returns [`NetlistError::InputWidthMismatch`] if the two netlists
/// have different primary-input or primary-output counts.
///
/// The inner [`EquivResult`] carries the first divergence found.
pub fn check_equivalence_random(
    left: &Netlist,
    right: &Netlist,
    cycles: u64,
    seed: u64,
) -> Result<EquivResult, NetlistError> {
    let num_inputs = check_interfaces(left, right)?;
    let mut a = Simulator::new(left)?;
    let mut b = Simulator::new(right)?;
    let mut lcg = seed.wrapping_mul(2654435761).wrapping_add(99);
    for cycle in 0..cycles {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = lcg >> 33;
        let mut inputs = vec![Logic::Zero; num_inputs];
        inputs[0] = Logic::from_bool(cycle == 0 || r.is_multiple_of(29));
        for (k, v) in inputs.iter_mut().enumerate().skip(1) {
            *v = Logic::from_bool((r >> k) & 1 == 1);
        }
        if let Some(ce) = step_and_compare(&mut a, &mut b, &inputs, cycle)? {
            return Ok(Err(ce));
        }
    }
    Ok(Ok(()))
}

/// Checks equivalence under an exhaustive per-cycle input sweep: for
/// `rounds` rounds, every combination of non-reset inputs is applied
/// once (preceded by a reset cycle each round). Only practical for
/// netlists with few inputs; returns
/// [`NetlistError::InputWidthMismatch`] if the non-reset input count
/// exceeds 12.
///
/// # Errors
///
/// As for [`check_equivalence_random`].
pub fn check_equivalence_exhaustive(
    left: &Netlist,
    right: &Netlist,
    rounds: u32,
) -> Result<EquivResult, NetlistError> {
    let num_inputs = check_interfaces(left, right)?;
    let free = num_inputs - 1;
    if free > 12 {
        return Err(NetlistError::InputWidthMismatch {
            expected: 12,
            found: free,
        });
    }
    let mut a = Simulator::new(left)?;
    let mut b = Simulator::new(right)?;
    let mut cycle = 0u64;
    for _ in 0..rounds {
        let mut reset = vec![Logic::Zero; num_inputs];
        reset[0] = Logic::One;
        if let Some(ce) = step_and_compare(&mut a, &mut b, &reset, cycle)? {
            return Ok(Err(ce));
        }
        cycle += 1;
        for word in 0..(1u64 << free) {
            let mut inputs = vec![Logic::Zero; num_inputs];
            for k in 0..free {
                inputs[k + 1] = Logic::from_bool((word >> k) & 1 == 1);
            }
            if let Some(ce) = step_and_compare(&mut a, &mut b, &inputs, cycle)? {
                return Ok(Err(ce));
            }
            cycle += 1;
        }
    }
    Ok(Ok(()))
}

fn check_interfaces(left: &Netlist, right: &Netlist) -> Result<usize, NetlistError> {
    if left.inputs().len() != right.inputs().len() {
        return Err(NetlistError::InputWidthMismatch {
            expected: left.inputs().len(),
            found: right.inputs().len(),
        });
    }
    if left.outputs().len() != right.outputs().len() {
        return Err(NetlistError::InputWidthMismatch {
            expected: left.outputs().len(),
            found: right.outputs().len(),
        });
    }
    Ok(left.inputs().len())
}

fn step_and_compare(
    a: &mut Simulator<'_>,
    b: &mut Simulator<'_>,
    inputs: &[Logic],
    cycle: u64,
) -> Result<Option<CounterExample>, NetlistError> {
    a.step(inputs)?;
    b.step(inputs)?;
    let av = a.output_values();
    let bv = b.output_values();
    for (i, (&l, &r)) in av.iter().zip(&bv).enumerate() {
        if l != r {
            return Ok(Some(CounterExample {
                cycle,
                inputs: inputs.to_vec(),
                output_index: i,
                left: l,
                right: r,
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    /// Two structurally different implementations of XOR.
    fn xor_direct() -> Netlist {
        let mut n = Netlist::new("x1");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.gate(CellKind::Xor2, &[a, b]).unwrap();
        n.add_output(y);
        n
    }

    fn xor_from_nands() -> Netlist {
        let mut n = Netlist::new("x2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let nab = n.gate(CellKind::Nand2, &[a, b]).unwrap();
        let l = n.gate(CellKind::Nand2, &[a, nab]).unwrap();
        let r = n.gate(CellKind::Nand2, &[b, nab]).unwrap();
        let y = n.gate(CellKind::Nand2, &[l, r]).unwrap();
        n.add_output(y);
        n
    }

    fn and_gate() -> Netlist {
        let mut n = Netlist::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.gate(CellKind::And2, &[a, b]).unwrap();
        n.add_output(y);
        n
    }

    #[test]
    fn equivalent_combinational_implementations_pass() {
        let a = xor_direct();
        let b = xor_from_nands();
        assert!(check_equivalence_random(&a, &b, 200, 1).unwrap().is_ok());
        assert!(check_equivalence_exhaustive(&a, &b, 2).unwrap().is_ok());
    }

    #[test]
    fn divergence_is_witnessed() {
        let a = xor_direct();
        let b = and_gate();
        let ce = check_equivalence_exhaustive(&a, &b, 1)
            .unwrap()
            .unwrap_err();
        // XOR and AND differ on (0,1), (1,0) and (1,1)... the first
        // differing vector in sweep order is a=1,b=0.
        assert_eq!(ce.output_index, 0);
        assert_ne!(ce.left, ce.right);
        assert!(ce.cycle > 0, "reset cycle matches trivially");
    }

    #[test]
    fn sequential_designs_compare_over_time() {
        // A toggle FF vs itself must pass; vs a pass-through must
        // fail.
        let toggle = |name: &str| {
            let mut n = Netlist::new(name);
            let q = n.add_net("q");
            let qn = n.add_net("qn");
            n.add_instance("inv", CellKind::Inv, &[q], &[qn]).unwrap();
            let rst = n.reset();
            n.add_instance("ff", CellKind::Dffr, &[qn, rst], &[q])
                .unwrap();
            n.add_output(q);
            n
        };
        let a = toggle("a");
        let b = toggle("b");
        assert!(check_equivalence_random(&a, &b, 100, 3).unwrap().is_ok());

        let mut c = Netlist::new("c");
        let q = c.add_net("q");
        let rst = c.reset();
        let d = c.gate(CellKind::TieLo, &[]).unwrap();
        c.add_instance("ff", CellKind::Dffr, &[d, rst], &[q])
            .unwrap();
        c.add_output(q);
        let ce = check_equivalence_random(&a, &c, 100, 3)
            .unwrap()
            .unwrap_err();
        assert!(ce.cycle <= 3, "toggle diverges quickly, got {}", ce.cycle);
    }

    #[test]
    fn interface_mismatch_rejected() {
        let a = xor_direct();
        let mut b = Netlist::new("narrow");
        let x = b.add_input("x");
        b.add_output(x);
        assert!(check_equivalence_random(&a, &b, 10, 0).is_err());
    }
}
