//! The address-map decomposition pass: factor an arbitrary 1-D
//! address stream into cheap component functions — constants, counter
//! bits, XOR folds of counter bits — plus an FSM residue for whatever
//! refuses to linearize, then price both the factored generator and a
//! monolithic per-stream FSM through the cell library to pick the
//! cheaper one per bank.
//!
//! The factorization is exact by construction: each output bit `j` is
//! solved as a GF(2)-affine function of the cycle counter's bits,
//! `bit_j(a[t]) = c XOR (XOR over k in S of t_k)`, via Gaussian
//! elimination over the `len` observed cycles. Bits with no solution
//! become the residue, packed densely into a small value stream that
//! a synthesized FSM replays. [`Decomposition::reconstruct`] therefore
//! equals the input stream bit-exactly — the invariant the
//! `bank-vs-reference` fuzz family walls off.
//!
//! [`Decomposition::of`] is pure table math (no synthesis), cheap
//! enough for a fuzz oracle; pricing is a separate, explicitly
//! requested step.

use adgen_exec::par_map;
use adgen_netlist::{Library, Price};
use adgen_synth::{price_cyclic, EffortBudget, Encoding, OutputStyle};

use crate::error::BankError;
use crate::netlist::FoldAgNetlist;

/// Decompose input cap: bounds the GF(2) solve (`len` equations) and
/// the residue FSM state space.
pub const MAX_DECOMPOSE_LEN: usize = 1 << 16;

/// How one output address bit is produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitPlan {
    /// The bit is constant across the whole stream.
    Constant {
        /// The constant value.
        value: bool,
    },
    /// The bit equals one counter bit directly (free wiring).
    CounterBit {
        /// Which counter bit.
        bit: u32,
    },
    /// The bit is an XOR fold of two or more counter bits, optionally
    /// inverted (or a single inverted bit).
    XorFold {
        /// Counter bits XORed together, ascending.
        terms: Vec<u32>,
        /// Whether the fold is complemented.
        invert: bool,
    },
    /// No affine solution exists; the bit comes from the residue FSM.
    Residue {
        /// Position inside the packed residue value.
        index: u32,
    },
}

/// An exact factorization of an address stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Output address width in bits.
    pub addr_bits: u32,
    /// Cycle-counter width: `ceil(log2(len))`, at least 1.
    pub cnt_bits: u32,
    /// Stream length (the counter wraps modulo this).
    pub len: usize,
    /// One plan per address bit, LSB first.
    pub plans: Vec<BitPlan>,
    /// Packed residue values, one per cycle; empty when every bit
    /// linearized.
    pub residue: Vec<u32>,
}

impl Decomposition {
    /// Factors `stream` exactly.
    ///
    /// # Errors
    ///
    /// [`BankError::EmptyStream`] and [`BankError::StreamTooLong`]
    /// (cap [`MAX_DECOMPOSE_LEN`]).
    pub fn of(stream: &[u32]) -> Result<Self, BankError> {
        if stream.is_empty() {
            return Err(BankError::EmptyStream);
        }
        if stream.len() > MAX_DECOMPOSE_LEN {
            return Err(BankError::StreamTooLong {
                len: stream.len(),
                max: MAX_DECOMPOSE_LEN,
            });
        }
        let max = stream.iter().copied().max().unwrap_or(0);
        let addr_bits = (32 - max.leading_zeros()).max(1);
        let cnt_bits = (usize::BITS - (stream.len() - 1).leading_zeros()).max(1);

        let mut plans = Vec::with_capacity(addr_bits as usize);
        let mut residue_cols: Vec<u32> = Vec::new();
        for j in 0..addr_bits {
            match solve_bit(stream, j, cnt_bits) {
                Some((terms, invert)) => plans.push(classify(terms, invert)),
                None => {
                    plans.push(BitPlan::Residue {
                        index: residue_cols.len() as u32,
                    });
                    residue_cols.push(j);
                }
            }
        }

        let residue = if residue_cols.is_empty() {
            Vec::new()
        } else {
            stream
                .iter()
                .map(|&a| {
                    residue_cols
                        .iter()
                        .enumerate()
                        .fold(0u32, |v, (i, &j)| v | (((a >> j) & 1) << i))
                })
                .collect()
        };

        Ok(Decomposition {
            addr_bits,
            cnt_bits,
            len: stream.len(),
            plans,
            residue,
        })
    }

    /// Replays the factorization: bit-exact equal to the input stream
    /// by construction.
    pub fn reconstruct(&self) -> Vec<u32> {
        (0..self.len)
            .map(|t| {
                self.plans.iter().enumerate().fold(0u32, |a, (j, plan)| {
                    a | (u32::from(self.eval(plan, t)) << j)
                })
            })
            .collect()
    }

    /// Number of residue (non-linearized) address bits.
    pub fn residue_bits(&self) -> u32 {
        self.plans
            .iter()
            .filter(|p| matches!(p, BitPlan::Residue { .. }))
            .count() as u32
    }

    /// Number of address bits served without the residue FSM.
    pub fn linear_bits(&self) -> u32 {
        self.addr_bits - self.residue_bits()
    }

    /// Whether every bit linearized (no residue FSM needed).
    pub fn is_fully_linear(&self) -> bool {
        self.residue.is_empty()
    }

    /// Distinct values in the packed residue stream.
    pub fn residue_states(&self) -> usize {
        let mut v = self.residue.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    /// Abstract per-component cost model (gate-count flavored, used
    /// for ranking components before any synthesis runs): constants
    /// are free, a counter bit is a wire off an existing register, an
    /// XOR fold pays per term, and the residue pays for an FSM over
    /// its state alphabet.
    pub fn component_cost(&self, plan: &BitPlan) -> u32 {
        match plan {
            BitPlan::Constant { .. } => 0,
            BitPlan::CounterBit { .. } => 1,
            BitPlan::XorFold { terms, .. } => 1 + terms.len() as u32,
            BitPlan::Residue { .. } => 8 + self.residue_states() as u32,
        }
    }

    fn eval(&self, plan: &BitPlan, t: usize) -> bool {
        match plan {
            BitPlan::Constant { value } => *value,
            BitPlan::CounterBit { bit } => (t >> bit) & 1 == 1,
            BitPlan::XorFold { terms, invert } => {
                terms.iter().fold(*invert, |v, &k| v ^ ((t >> k) & 1 == 1))
            }
            BitPlan::Residue { index } => (self.residue[t] >> index) & 1 == 1,
        }
    }
}

fn classify(terms: Vec<u32>, invert: bool) -> BitPlan {
    match (terms.len(), invert) {
        (0, value) => BitPlan::Constant { value },
        (1, false) => BitPlan::CounterBit { bit: terms[0] },
        _ => BitPlan::XorFold { terms, invert },
    }
}

/// Solves `bit_j(stream[t]) = c XOR (XOR over k in S of t_k)` over
/// GF(2), returning `(S, c)` or `None` when inconsistent. Rows pack
/// into a `u64`: bits `0..cnt_bits` are the counter-bit coefficients,
/// bit `cnt_bits` the constant's, bit `cnt_bits + 1` the RHS.
/// Deterministic: ascending pivot columns, free variables forced to 0.
fn solve_bit(stream: &[u32], j: u32, cnt_bits: u32) -> Option<(Vec<u32>, bool)> {
    let cols = cnt_bits + 1;
    debug_assert!(cols < 64);
    let mut rows: Vec<u64> = stream
        .iter()
        .enumerate()
        .map(|(t, &a)| {
            let rhs = u64::from((a >> j) & 1);
            (t as u64) | (1u64 << cnt_bits) | (rhs << cols)
        })
        .collect();

    let mut pivots: Vec<(u32, usize)> = Vec::new();
    let mut next = 0usize;
    for col in 0..cols {
        let Some(p) = (next..rows.len()).find(|&r| (rows[r] >> col) & 1 == 1) else {
            continue;
        };
        rows.swap(next, p);
        let pivot = rows[next];
        for (r, row) in rows.iter_mut().enumerate() {
            if r != next && (*row >> col) & 1 == 1 {
                *row ^= pivot;
            }
        }
        pivots.push((col, next));
        next += 1;
    }
    // A zero coefficient row demanding RHS 1 means no affine solution.
    if rows[next..].iter().any(|&row| (row >> cols) & 1 == 1) {
        return None;
    }
    // Full (Jordan) elimination above plus free variables at 0 make
    // each pivot variable equal its row's RHS.
    let mut terms = Vec::new();
    let mut invert = false;
    for &(col, r) in &pivots {
        if (rows[r] >> cols) & 1 == 1 {
            if col == cnt_bits {
                invert = true;
            } else {
                terms.push(col);
            }
        }
    }
    Some((terms, invert))
}

/// Which implementation a priced bank settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorChoice {
    /// The decomposed generator (counter + folds + residue FSM) won.
    Decomposed,
    /// The monolithic per-stream FSM won (or tied).
    MonolithicFsm,
}

/// One bank's priced factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedBank {
    /// Bank index.
    pub bank: u32,
    /// Address bits served by linear components.
    pub linear_bits: u32,
    /// Address bits left to the residue FSM.
    pub residue_bits: u32,
    /// Distinct residue FSM states (0 when fully linear).
    pub residue_states: usize,
    /// Price of the decomposed generator.
    pub decomposed: Price,
    /// Price of the monolithic FSM over the same stream.
    pub monolithic: Price,
    /// The cheaper (by area) implementation.
    pub choice: GeneratorChoice,
}

/// A priced plan across all banks.
#[derive(Debug, Clone, PartialEq)]
pub struct BankPlan {
    /// Per-bank results, bank order.
    pub banks: Vec<PricedBank>,
    /// Sum of the decomposed areas.
    pub decomposed_area: f64,
    /// Sum of the monolithic areas.
    pub monolithic_area: f64,
}

impl BankPlan {
    /// Area saved by the decomposed generators vs monolithic FSMs,
    /// as a percentage of the monolithic total.
    pub fn win_pct(&self) -> f64 {
        if self.monolithic_area == 0.0 {
            0.0
        } else {
            (self.monolithic_area - self.decomposed_area) / self.monolithic_area * 100.0
        }
    }
}

/// Prices the decomposed generator: the fold netlist (mod-`len`
/// counter + XOR trees) for the linear bits, beside a binary-encoded
/// FSM replaying the packed residue.
///
/// # Errors
///
/// Netlist construction, timing analysis or residue synthesis
/// failures.
pub fn price_decomposed(d: &Decomposition, library: &Library) -> Result<Price, BankError> {
    let mut price = Price::default();
    if d.linear_bits() > 0 {
        let fold = FoldAgNetlist::elaborate(d)?;
        price = price.beside(Price::of(&fold.netlist, library)?);
    }
    if !d.is_fully_linear() {
        let bits = d.residue_bits() as usize;
        price = price.beside(price_binary_fsm(&d.residue, bits, library)?);
    }
    Ok(price)
}

/// Prices the monolithic alternative: one binary-encoded FSM whose
/// cyclic output table is the whole stream.
///
/// # Errors
///
/// Synthesis or timing failures.
pub fn price_monolithic(stream: &[u32], library: &Library) -> Result<Price, BankError> {
    let max = stream.iter().copied().max().unwrap_or(0);
    let bits = ((32 - max.leading_zeros()).max(1)) as usize;
    price_binary_fsm(stream, bits, library)
}

/// The binary-encoded cyclic FSM over `stream`, `bits` wide, at the
/// default synthesis effort.
fn price_binary_fsm(stream: &[u32], bits: usize, library: &Library) -> Result<Price, BankError> {
    let style = OutputStyle::BinaryAddress { bits };
    let budget = EffortBudget::synthesis_default();
    Ok(price_cyclic(stream, Encoding::Binary, style, budget, library)?.price)
}

/// Decomposes and prices every bank's local stream (one worker per
/// bank under `jobs`), picking the cheaper implementation per bank.
/// Deterministic and jobs-invariant: `par_map` preserves input order
/// and each bank's pricing is independent.
///
/// # Errors
///
/// Any per-bank decompose/pricing failure (first bank in order wins).
pub fn plan_banks(
    streams: &[Vec<u32>],
    library: &Library,
    jobs: usize,
) -> Result<BankPlan, BankError> {
    let priced: Vec<Result<PricedBank, BankError>> = par_map(streams, jobs, |i, stream| {
        let d = Decomposition::of(stream)?;
        let decomposed = price_decomposed(&d, library)?;
        let monolithic = price_monolithic(stream, library)?;
        Ok(PricedBank {
            bank: i as u32,
            linear_bits: d.linear_bits(),
            residue_bits: d.residue_bits(),
            residue_states: d.residue_states(),
            decomposed,
            monolithic,
            choice: if decomposed.area < monolithic.area {
                GeneratorChoice::Decomposed
            } else {
                GeneratorChoice::MonolithicFsm
            },
        })
    });
    let banks = priced.into_iter().collect::<Result<Vec<_>, _>>()?;
    let decomposed_area = banks.iter().map(|b| b.decomposed.area).sum();
    let monolithic_area = banks.iter().map(|b| b.monolithic.area).sum();
    Ok(BankPlan {
        banks,
        decomposed_area,
        monolithic_area,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(stream: &[u32]) -> Decomposition {
        let d = Decomposition::of(stream).unwrap();
        assert_eq!(d.reconstruct(), stream, "reconstruct() != input");
        d
    }

    #[test]
    fn counter_stream_is_pure_counter_bits() {
        let stream: Vec<u32> = (0..16).collect();
        let d = round_trip(&stream);
        assert!(d.is_fully_linear());
        assert_eq!(d.addr_bits, 4);
        for (j, p) in d.plans.iter().enumerate() {
            assert_eq!(*p, BitPlan::CounterBit { bit: j as u32 });
        }
    }

    #[test]
    fn constant_stream_is_all_constants() {
        let d = round_trip(&[5, 5, 5, 5]);
        assert!(d.is_fully_linear());
        assert_eq!(d.plans[0], BitPlan::Constant { value: true });
        assert_eq!(d.plans[1], BitPlan::Constant { value: false });
        assert_eq!(d.plans[2], BitPlan::Constant { value: true });
    }

    #[test]
    fn gray_code_uses_xor_folds() {
        let stream: Vec<u32> = (0u32..16).map(|t| t ^ (t >> 1)).collect();
        let d = round_trip(&stream);
        assert!(d.is_fully_linear());
        // Gray bit j = t_j ^ t_{j+1}; the top bit stays a counter bit.
        assert_eq!(
            d.plans[0],
            BitPlan::XorFold {
                terms: vec![0, 1],
                invert: false
            }
        );
        assert_eq!(d.plans[3], BitPlan::CounterBit { bit: 3 });
    }

    #[test]
    fn contention_free_qpp_local_stream_is_linear() {
        // The per-bank local stream of the f1 = W/2 + 1, f2 = W QPP:
        // q(t) = f1 * t mod W. Fully GF(2)-affine by construction.
        for w in [16u32, 32] {
            let f1 = w / 2 + 1;
            let stream: Vec<u32> = (0..w).map(|t| (f1 * t) % w).collect();
            let d = round_trip(&stream);
            assert!(d.is_fully_linear(), "W={w}: {:?}", d.plans);
        }
    }

    #[test]
    fn irregular_stream_lands_in_the_residue() {
        // A stream with no affine structure in its low bit.
        let stream = vec![0, 3, 1, 2, 3, 0, 2, 2];
        let d = round_trip(&stream);
        assert!(!d.is_fully_linear());
        assert_eq!(d.residue.len(), 8);
        assert!(d.residue_states() > 1);
    }

    #[test]
    fn residue_packing_is_dense_and_indexed() {
        // Bits 0 and 2 irregular (single impulses), bit 1 constant 0.
        let stream = vec![0, 0, 0, 4, 0, 0, 0, 1];
        let d = round_trip(&stream);
        assert_eq!(d.residue_bits(), 2);
        assert_eq!(d.plans[1], BitPlan::Constant { value: false });
        let idx: Vec<_> = d
            .plans
            .iter()
            .filter_map(|p| match p {
                BitPlan::Residue { index } => Some(*index),
                _ => None,
            })
            .collect();
        // Residue indices are dense from 0 in bit order.
        for (i, &x) in idx.iter().enumerate() {
            assert_eq!(x, i as u32);
        }
        assert_eq!(d.residue_bits() as usize, idx.len());
    }

    #[test]
    fn component_costs_are_monotone() {
        let stream = vec![0, 3, 1, 2, 3, 0, 2, 2];
        let d = Decomposition::of(&stream).unwrap();
        let constant = d.component_cost(&BitPlan::Constant { value: true });
        let counter = d.component_cost(&BitPlan::CounterBit { bit: 0 });
        let fold = d.component_cost(&BitPlan::XorFold {
            terms: vec![0, 1],
            invert: false,
        });
        let residue = d.component_cost(&BitPlan::Residue { index: 0 });
        assert!(constant < counter, "{constant} < {counter}");
        assert!(counter < fold, "{counter} < {fold}");
        assert!(fold < residue, "{fold} < {residue}");
    }

    #[test]
    fn empty_and_oversized_inputs_rejected() {
        assert!(matches!(
            Decomposition::of(&[]),
            Err(BankError::EmptyStream)
        ));
        let long = vec![0u32; MAX_DECOMPOSE_LEN + 1];
        assert!(matches!(
            Decomposition::of(&long),
            Err(BankError::StreamTooLong { .. })
        ));
    }

    #[test]
    fn decompose_is_deterministic() {
        let stream = vec![7, 1, 4, 4, 2, 9, 0, 3];
        assert_eq!(
            Decomposition::of(&stream).unwrap(),
            Decomposition::of(&stream).unwrap()
        );
    }
}
