//! The table-lookup address generator: an index counter addressing a
//! ROM of precomputed addresses.
//!
//! This is the most general conventional design — it implements *any*
//! finite sequence — and the least efficient for long ones, since the
//! ROM grows with the full sequence length rather than with its
//! structure. It completes the conventional-design spectrum:
//!
//! | style | state | combinational core | applicability |
//! |---|---|---|---|
//! | counter cascade ([`CntAgSpec`](crate::CntAgSpec)) | `log₂` bits | none | affine power-of-two kernels |
//! | arithmetic ([`ArithAgSpec`](crate::ArithAgSpec)) | accumulator + small index | adder + delta ROM | short-period delta streams |
//! | table lookup (this module) | index counter | full address ROM | anything |

use adgen_netlist::{Library, NetId, Netlist, Simulator};
use adgen_seq::{AddressGenerator, AddressSequence, ArrayShape, Layout};
use adgen_synth::mapgen::{build_mod_counter, build_rom};
use adgen_synth::SynthError;

use crate::netlist::{decode, require_power_of_two, AddressLoop};

/// Largest supported sequence length (two-level ROM synthesis cost).
pub const MAX_ROM_DEPTH: usize = 512;

/// Program of a table-lookup generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RomAgSpec {
    /// The addresses, in sequence order (replayed cyclically).
    pub addresses: Vec<u64>,
    /// Address width in bits.
    pub width: u32,
    /// The array being addressed.
    pub shape: ArrayShape,
    /// Linearization.
    pub layout: Layout,
}

impl RomAgSpec {
    /// Wraps a sequence, collapsing it to its minimal period first.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::ShapeNotPowerOfTwo`] unless both
    /// dimensions are powers of two, [`SynthError::EmptyStateSpace`]
    /// for an empty sequence and [`SynthError::WidthTooLarge`] when
    /// the minimal period exceeds [`MAX_ROM_DEPTH`].
    pub fn from_sequence(
        sequence: &AddressSequence,
        shape: ArrayShape,
    ) -> Result<Self, SynthError> {
        require_power_of_two(shape)?;
        if sequence.is_empty() {
            return Err(SynthError::EmptyStateSpace);
        }
        let period = sequence.minimal_period();
        if period > MAX_ROM_DEPTH {
            return Err(SynthError::WidthTooLarge {
                width: period as u32,
                max: MAX_ROM_DEPTH as u32,
            });
        }
        Ok(RomAgSpec {
            addresses: sequence.as_slice()[..period]
                .iter()
                .map(|&a| u64::from(a))
                .collect(),
            width: shape.row_bits() + shape.col_bits(),
            shape,
            layout: Layout::RowMajor,
        })
    }

    /// ROM depth after period collapsing.
    pub fn depth(&self) -> usize {
        self.addresses.len()
    }
}

/// Behavioural table-lookup generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RomAgSimulator {
    spec: RomAgSpec,
    index: usize,
}

impl RomAgSimulator {
    /// Creates a simulator in the reset state.
    pub fn new(spec: RomAgSpec) -> Self {
        RomAgSimulator { spec, index: 0 }
    }
}

impl AddressGenerator for RomAgSimulator {
    fn reset(&mut self) {
        self.index = 0;
    }

    fn advance(&mut self) {
        self.index = (self.index + 1) % self.spec.addresses.len();
    }

    fn current(&self) -> u32 {
        self.spec.addresses[self.index] as u32
    }
}

/// Gate-level table-lookup generator: index counter → address ROM →
/// decoders.
#[derive(Debug, Clone)]
pub struct RomAgNetlist {
    /// The implementation. Inputs: `reset`, `next`. Outputs: row
    /// lines, column lines, then the ROM output's row bits and its
    /// column bits.
    pub netlist: Netlist,
    /// Row select nets.
    pub row_lines: Vec<NetId>,
    /// Column select nets.
    pub col_lines: Vec<NetId>,
    /// Binary address nets, LSB first.
    pub addr: Vec<NetId>,
    /// The program this netlist implements.
    pub spec: RomAgSpec,
    /// Index counter and ROM alone, with `addr` as outputs: the
    /// address loop [`Self::serial_delay_ps`] times.
    address_loop: AddressLoop,
}

impl RomAgNetlist {
    /// Elaborates `spec` to gates.
    ///
    /// # Errors
    ///
    /// Propagates structural-generation failures.
    pub fn elaborate(spec: &RomAgSpec) -> Result<Self, SynthError> {
        let mut n = Netlist::new(format!(
            "romag_{}x{}",
            spec.shape.width(),
            spec.shape.height()
        ));
        let next = n.add_input("next");
        let idx = build_mod_counter(&mut n, spec.addresses.len() as u64, next, "idx")?;
        let addr = build_rom(&mut n, &idx.q, &spec.addresses, spec.width)?;
        let col_bits = spec.shape.col_bits() as usize;
        let decoded = decode(n, &addr, &addr[col_bits..], &addr[..col_bits], spec.shape)?;
        Ok(RomAgNetlist {
            netlist: decoded.netlist,
            row_lines: decoded.row_lines,
            col_lines: decoded.col_lines,
            addr,
            spec: spec.clone(),
            address_loop: decoded.address_loop,
        })
    }

    /// Paper-style serial delay: index-counter-plus-ROM critical path
    /// plus the worst standalone decoder, in picoseconds. The loop is
    /// the one [`Self::elaborate`] built, so its ROM is not minimized
    /// again.
    ///
    /// # Errors
    ///
    /// Propagates timing failures.
    pub fn serial_delay_ps(&self, library: &Library) -> Result<f64, SynthError> {
        self.address_loop.serial_delay_ps(library)
    }

    /// Decodes the presented linear address via the binary address
    /// bits. `None` if any bit is X.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        sim.word(&self.addr).and_then(|a| u32::try_from(a).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_seq::workloads;

    fn verify(seq: &AddressSequence, shape: ArrayShape) {
        let spec = RomAgSpec::from_sequence(seq, shape).unwrap();
        let mut model = RomAgSimulator::new(spec.clone());
        assert_eq!(model.collect_sequence(seq.len()), *seq, "behavioural");
        let design = RomAgNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        let mut model = RomAgSimulator::new(spec);
        sim.step_bools(&[true, false]).unwrap();
        model.reset();
        for step in 0..2 * seq.len() {
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
    fn replays_arbitrary_sequences() {
        let shape = ArrayShape::new(8, 8);
        verify(
            &AddressSequence::from_vec(vec![17, 3, 3, 60, 0, 42, 9]),
            shape,
        );
    }

    #[test]
    fn serpentine_and_motion_est_replay() {
        let shape = ArrayShape::new(8, 8);
        verify(&workloads::serpentine(shape), shape);
        verify(&workloads::motion_est_read(shape, 2, 2, 0), shape);
    }

    #[test]
    fn period_collapsing_shrinks_the_rom() {
        let shape = ArrayShape::new(8, 8);
        let seq = AddressSequence::from_vec(vec![4, 9, 4, 9, 4, 9, 4, 9]);
        let spec = RomAgSpec::from_sequence(&seq, shape).unwrap();
        assert_eq!(spec.depth(), 2);
        verify(&seq, shape);
    }

    #[test]
    fn depth_limit_enforced() {
        let shape = ArrayShape::new(32, 32);
        let mut lcg = 3u64;
        let seq: AddressSequence = (0..(MAX_ROM_DEPTH as u32 + 1))
            .map(|_| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((lcg >> 33) % 1024) as u32
            })
            .collect();
        assert!(matches!(
            RomAgSpec::from_sequence(&seq, shape),
            Err(SynthError::WidthTooLarge { .. })
        ));
    }

    #[test]
    fn non_power_of_two_shape_is_a_typed_error() {
        let shape = ArrayShape::new(6, 4);
        assert_eq!(
            RomAgSpec::from_sequence(&workloads::raster(shape), shape),
            Err(SynthError::ShapeNotPowerOfTwo {
                width: 6,
                height: 4
            })
        );
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            RomAgSpec::from_sequence(&AddressSequence::new(), ArrayShape::new(4, 4)),
            Err(SynthError::EmptyStateSpace)
        ));
    }

    #[test]
    fn minimizer_rediscovers_counter_structure_on_regular_patterns() {
        use adgen_netlist::{AreaReport, Library};
        // On the motion-est pattern the addresses are a pure bit
        // permutation of the index counter, so espresso collapses
        // every "ROM" output to a single literal — the table-lookup
        // generator degenerates to (nearly) the counter cascade. A
        // structurally random sequence cannot compress and pays the
        // full two-level cost.
        let lib = Library::vcl018();
        let shape = ArrayShape::new(16, 16);
        let area_of = |seq: &AddressSequence| {
            let d =
                RomAgNetlist::elaborate(&RomAgSpec::from_sequence(seq, shape).unwrap()).unwrap();
            AreaReport::of(&d.netlist, &lib).total()
        };
        let regular = area_of(&workloads::motion_est_read(shape, 2, 2, 0));
        let mut lcg = 11u64;
        let random: AddressSequence = (0..256)
            .map(|_| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((lcg >> 33) % 256) as u32
            })
            .collect();
        let irregular = area_of(&random);
        assert!(
            irregular > 3.0 * regular,
            "irregular {irregular} vs regular {regular}"
        );
    }
}
