//! The arithmetic-based address generator — the third generator
//! style of the paper's landscape.
//!
//! The paper picks the counter-based style as its baseline "because,
//! for regular access patterns, it performs better than
//! arithmetic-based address generators \[7\]" and suggests falling back
//! to "CntAG architecture or an arithmetic-based architecture" when
//! the SRAG cannot implement a pattern (§7). This module provides
//! that third style so the comparison (and the fallback) is actually
//! available: an accumulator register updated by a small ROM of
//! address *deltas*, in the spirit of ADOPT's incremental address
//! arithmetic.
//!
//! The generator is far more general than a counter cascade — any
//! sequence whose delta stream is periodic with a short period maps —
//! at the cost of an adder in the address loop.

use adgen_netlist::{CellKind, Library, NetId, Netlist, Simulator};
use adgen_seq::{AddressGenerator, AddressSequence, ArrayShape, Layout};
use adgen_synth::mapgen::{build_adder, build_mod_counter, build_rom};
use adgen_synth::SynthError;

use crate::netlist::{decode, require_power_of_two, AddressLoop};

/// Largest supported delta-ROM period (two-level ROM synthesis cost
/// grows steeply beyond this).
pub const MAX_DELTA_PERIOD: usize = 256;

/// Program of an arithmetic address generator: an initial address
/// plus a periodic delta stream, accumulated modulo `2^width`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArithAgSpec {
    /// The minimal-period delta stream (applied cyclically).
    pub deltas: Vec<u64>,
    /// The first address of the sequence (loaded on reset).
    pub initial: u64,
    /// Accumulator width in bits.
    pub width: u32,
    /// The array being addressed (used for the decoder stage).
    pub shape: ArrayShape,
    /// Linearization (row-major only, as in the paper).
    pub layout: Layout,
}

impl ArithAgSpec {
    /// Derives the program from an address sequence: computes the
    /// cyclic delta stream (including the wrap-around delta from the
    /// last element back to the first) and collapses it to its
    /// minimal period.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::ShapeNotPowerOfTwo`] unless both
    /// dimensions are powers of two (the address split feeding the
    /// decoders needs it), [`SynthError::EmptyStateSpace`] for an
    /// empty sequence and [`SynthError::WidthTooLarge`] when the
    /// minimal delta period exceeds [`MAX_DELTA_PERIOD`].
    pub fn from_sequence(
        sequence: &AddressSequence,
        shape: ArrayShape,
    ) -> Result<Self, SynthError> {
        require_power_of_two(shape)?;
        if sequence.is_empty() {
            return Err(SynthError::EmptyStateSpace);
        }
        let width = shape.row_bits() + shape.col_bits();
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let v = sequence.as_slice();
        let len = v.len();
        let deltas: Vec<u64> = (0..len)
            .map(|i| {
                let a = u64::from(v[i]);
                let b = u64::from(v[(i + 1) % len]);
                b.wrapping_sub(a) & mask
            })
            .collect();
        // Minimal period: smallest divisor p of len with deltas[i] ==
        // deltas[i mod p].
        let period = (1..=len)
            .filter(|p| len.is_multiple_of(*p))
            .find(|&p| (0..len).all(|i| deltas[i] == deltas[i % p]))
            .expect("len itself is always a period");
        if period > MAX_DELTA_PERIOD {
            return Err(SynthError::WidthTooLarge {
                width: period as u32,
                max: MAX_DELTA_PERIOD as u32,
            });
        }
        Ok(ArithAgSpec {
            deltas: deltas[..period].to_vec(),
            initial: u64::from(v[0]),
            width,
            shape,
            layout: Layout::RowMajor,
        })
    }

    /// The delta-stream period.
    pub fn period(&self) -> usize {
        self.deltas.len()
    }
}

/// Behavioural arithmetic address generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArithAgSimulator {
    spec: ArithAgSpec,
    address: u64,
    index: usize,
}

impl ArithAgSimulator {
    /// Creates a simulator in the reset state.
    pub fn new(spec: ArithAgSpec) -> Self {
        let address = spec.initial;
        ArithAgSimulator {
            spec,
            address,
            index: 0,
        }
    }

    /// The program being simulated.
    pub fn spec(&self) -> &ArithAgSpec {
        &self.spec
    }
}

impl AddressGenerator for ArithAgSimulator {
    fn reset(&mut self) {
        self.address = self.spec.initial;
        self.index = 0;
    }

    fn advance(&mut self) {
        let mask = if self.spec.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.spec.width) - 1
        };
        self.address = self.address.wrapping_add(self.spec.deltas[self.index]) & mask;
        self.index = (self.index + 1) % self.spec.deltas.len();
    }

    fn current(&self) -> u32 {
        self.address as u32
    }
}

/// Gate-level arithmetic generator: index counter → delta ROM →
/// adder → accumulator → decoders.
#[derive(Debug, Clone)]
pub struct ArithAgNetlist {
    /// The implementation. Inputs: `reset`, `next`. Outputs: row
    /// select lines, column select lines, then the accumulator's row
    /// bits and its column bits.
    pub netlist: Netlist,
    /// Row select nets.
    pub row_lines: Vec<NetId>,
    /// Column select nets.
    pub col_lines: Vec<NetId>,
    /// Accumulator (binary address) nets, LSB first.
    pub addr: Vec<NetId>,
    /// The program this netlist implements.
    pub spec: ArithAgSpec,
    /// Index counter, delta ROM, adder and accumulator alone, with
    /// `addr` as outputs: the address loop [`Self::serial_delay_ps`]
    /// times.
    address_loop: AddressLoop,
}

impl ArithAgNetlist {
    /// Elaborates `spec` to gates.
    ///
    /// # Errors
    ///
    /// Propagates structural-generation failures.
    pub fn elaborate(spec: &ArithAgSpec) -> Result<Self, SynthError> {
        let mut n = Netlist::new(format!(
            "arithag_{}x{}",
            spec.shape.width(),
            spec.shape.height()
        ));
        let next = n.add_input("next");
        let rst = n.reset();
        let w = spec.width as usize;

        // Accumulator register nets first.
        let addr: Vec<NetId> = (0..w).map(|i| n.add_net(format!("acc{i}"))).collect();

        // Delta index counter and ROM.
        let idx = build_mod_counter(&mut n, spec.deltas.len() as u64, next, "idx")?;
        let delta = build_rom(&mut n, &idx.q, &spec.deltas, spec.width)?;

        // Accumulate.
        let sum = build_adder(&mut n, &addr, &delta)?;
        for i in 0..w {
            let kind = if (spec.initial >> i) & 1 == 1 {
                CellKind::Dffse
            } else {
                CellKind::Dffre
            };
            n.add_instance(format!("acc_ff{i}"), kind, &[sum[i], next, rst], &[addr[i]])?;
        }

        // Decode, as the conventional RAM would.
        let col_bits = spec.shape.col_bits() as usize;
        let decoded = decode(n, &addr, &addr[col_bits..], &addr[..col_bits], spec.shape)?;
        Ok(ArithAgNetlist {
            netlist: decoded.netlist,
            row_lines: decoded.row_lines,
            col_lines: decoded.col_lines,
            addr,
            spec: spec.clone(),
            address_loop: decoded.address_loop,
        })
    }

    /// The paper-style serial delay accounting: the address loop's
    /// critical path (index counter → ROM → adder → accumulator)
    /// plus the worst standalone decoder, in picoseconds — the same
    /// methodology as
    /// [`CntAgNetlist::serial_delay_ps`](crate::CntAgNetlist::serial_delay_ps)
    /// for the counter-based design. The loop is the one
    /// [`Self::elaborate`] built, so its delta ROM is not minimized
    /// again.
    ///
    /// # Errors
    ///
    /// Propagates timing failures.
    pub fn serial_delay_ps(&self, library: &Library) -> Result<f64, SynthError> {
        self.address_loop.serial_delay_ps(library)
    }

    /// Decodes the presented linear address from a running simulator
    /// via the accumulator bits. `None` if any bit is X.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        sim.word(&self.addr).and_then(|a| u32::try_from(a).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_seq::workloads;

    fn verify(seq: &AddressSequence, shape: ArrayShape, periods: usize) {
        let spec = ArithAgSpec::from_sequence(seq, shape).unwrap();
        // Behavioural round trip.
        let mut model = ArithAgSimulator::new(spec.clone());
        assert_eq!(model.collect_sequence(seq.len()), *seq, "behavioural");
        // Gate level.
        let design = ArithAgNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        let mut model = ArithAgSimulator::new(spec);
        sim.step_bools(&[true, false]).unwrap();
        model.reset();
        for step in 0..periods * seq.len() {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(
                design.observed_address(&sim),
                Some(model.current()),
                "step {step}"
            );
            model.advance();
        }
    }

    #[test]
    fn fifo_has_unit_delta_period() {
        let shape = ArrayShape::new(8, 8);
        let seq = workloads::fifo(shape);
        let spec = ArithAgSpec::from_sequence(&seq, shape).unwrap();
        // Deltas: +1 everywhere except the wrap-around, which is
        // 1 - 64 ≡ 1 (mod 64)! So the period is 1.
        assert_eq!(spec.period(), 1);
        verify(&seq, shape, 2);
    }

    #[test]
    fn dct_scan_maps_with_full_period() {
        // Within the scan the delta stream is (8,8,8,8,8,8,8,9)
        // repeating, but the cyclic wrap-around step (63 → 0, delta 1)
        // breaks the period-8 pattern, so the minimal cyclic period is
        // the full length.
        let shape = ArrayShape::new(8, 8);
        let seq = workloads::transpose_scan(shape);
        let spec = ArithAgSpec::from_sequence(&seq, shape).unwrap();
        assert_eq!(spec.period(), 64);
        verify(&seq, shape, 2);
    }

    #[test]
    fn zoom_maps() {
        let shape = ArrayShape::new(4, 4);
        let seq = workloads::zoom_by_two(shape);
        verify(&seq, shape, 2);
    }

    #[test]
    fn motion_est_maps() {
        let shape = ArrayShape::new(8, 8);
        let seq = workloads::motion_est_read(shape, 2, 2, 0);
        verify(&seq, shape, 2);
    }

    #[test]
    fn srag_unmappable_sequence_maps_arithmetically() {
        // The paper's grouping counter-example: the SRAG rejects it;
        // the arithmetic generator does not care.
        let shape = ArrayShape::new(4, 2);
        let seq = AddressSequence::from_vec(vec![1, 2, 3, 4, 3, 2, 1, 4]);
        verify(&seq, shape, 2);
    }

    #[test]
    fn excessive_period_rejected() {
        let shape = ArrayShape::new(32, 32);
        // A pseudo-random walk has no short delta period.
        let mut lcg = 1u64;
        let seq: AddressSequence = (0..512)
            .map(|_| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((lcg >> 33) % 1024) as u32
            })
            .collect();
        assert!(matches!(
            ArithAgSpec::from_sequence(&seq, shape),
            Err(SynthError::WidthTooLarge { .. })
        ));
    }

    #[test]
    fn non_power_of_two_shape_is_a_typed_error() {
        let shape = ArrayShape::new(6, 4);
        assert_eq!(
            ArithAgSpec::from_sequence(&workloads::raster(shape), shape),
            Err(SynthError::ShapeNotPowerOfTwo {
                width: 6,
                height: 4
            })
        );
    }

    #[test]
    fn empty_sequence_rejected() {
        let shape = ArrayShape::new(4, 4);
        assert!(matches!(
            ArithAgSpec::from_sequence(&AddressSequence::new(), shape),
            Err(SynthError::EmptyStateSpace)
        ));
    }

    #[test]
    fn counter_based_beats_arithmetic_on_regular_patterns() {
        // The paper's stated reason for choosing CntAG as baseline
        // ([7]): on regular patterns the counter style is faster than
        // the arithmetic style (the adder sits in the address loop).
        use crate::netlist::CntAgNetlist;
        use crate::spec::CntAgSpec;
        use adgen_netlist::{Library, TimingAnalysis};
        let lib = Library::vcl018();
        let shape = ArrayShape::new(32, 32);
        let seq = workloads::fifo(shape);
        let arith =
            ArithAgNetlist::elaborate(&ArithAgSpec::from_sequence(&seq, shape).unwrap()).unwrap();
        let arith_delay = TimingAnalysis::run(&arith.netlist, &lib)
            .unwrap()
            .critical_path_ps();
        let counter = CntAgNetlist::elaborate(&CntAgSpec::raster(shape)).unwrap();
        let cnt_delay = counter
            .components()
            .unwrap()
            .timer(&lib)
            .unwrap()
            .delays_at(0.0)
            .counter_ps;
        assert!(
            arith_delay > cnt_delay,
            "arith {arith_delay} vs counter {cnt_delay}"
        );
    }
}
