//! Gate-level elaboration of the counter-based address generator,
//! the decode step every decoder-backed generator (CntAG, ArithAG,
//! RomAG) shares, and the per-component delay breakdown of paper
//! Fig. 9.

use adgen_netlist::{Library, NetId, Netlist, Simulator, TimingAnalysis, TimingContext};
use adgen_obs as obs;
use adgen_seq::ArrayShape;
use adgen_synth::fsm::MAX_FANOUT;
use adgen_synth::mapgen::{build_decoder, build_mod_counter};
use adgen_synth::techmap::insert_fanout_buffers;
use adgen_synth::SynthError;

use crate::spec::CntAgSpec;

/// External capacitance assumed on every select line, modelling the
/// output-load constraint a synthesis run applies at the boundary to
/// the memory cell array (the array's internal delay itself is
/// excluded, as in the paper). The serial delay accounting times the
/// decoder outputs under it, and the comparison harness the SRAG's
/// select lines, so both architectures drive identical loads.
pub const SELECT_LINE_LOAD_FF: f64 = 30.0;

/// A gate-level CntAG: counter cascade → binary address → decoders →
/// select lines.
#[derive(Debug, Clone)]
pub struct CntAgNetlist {
    /// The implementation. Inputs: `reset` (index 0), `next`
    /// (index 1). Outputs: row select lines, then column select
    /// lines, then the binary row/column address bits.
    pub netlist: Netlist,
    /// Row select nets (first `height` decoder outputs).
    pub row_lines: Vec<NetId>,
    /// Column select nets (first `width` decoder outputs).
    pub col_lines: Vec<NetId>,
    /// Binary row-address nets, LSB first.
    pub row_addr: Vec<NetId>,
    /// Binary column-address nets, LSB first.
    pub col_addr: Vec<NetId>,
    /// The program this netlist implements.
    pub spec: CntAgSpec,
    /// The counter cascade alone, every stage bit an output: the
    /// address loop of the serial delay and Fig. 9's counter block.
    address_loop: AddressLoop,
}

impl CntAgNetlist {
    /// Elaborates `spec` to gates.
    ///
    /// # Errors
    ///
    /// Propagates structural-generation failures.
    pub fn elaborate(spec: &CntAgSpec) -> Result<Self, SynthError> {
        let _span = obs::span_arg(
            "cntag.elaborate",
            u64::from(spec.shape.width()) * u64::from(spec.shape.height()),
        );
        spec.validate();
        let mut n = Netlist::new(format!(
            "cntag_{}x{}",
            spec.shape.width(),
            spec.shape.height()
        ));
        let next = n.add_input("next");

        // Counter cascade: each stage's wrap enables the following
        // stage, mirroring the loop nest.
        let mut enable = next;
        let mut stage_q: Vec<Vec<NetId>> = Vec::with_capacity(spec.stages.len());
        for (i, stage) in spec.stages.iter().enumerate() {
            let c = build_mod_counter(&mut n, stage.modulus, enable, &format!("st{i}"))?;
            stage_q.push(c.q);
            enable = c.wrap;
        }

        // Address words.
        let pick = |sources: &[crate::spec::BitSource]| -> Vec<NetId> {
            sources
                .iter()
                .map(|b| stage_q[b.stage][b.bit as usize])
                .collect()
        };
        let row_addr = pick(&spec.row_bits);
        let col_addr = pick(&spec.col_bits);

        // Decoders (the RAM's built-in decoding, paper Fig. 1).
        let decoded = decode(n, &stage_q.concat(), &row_addr, &col_addr, spec.shape)?;
        Ok(CntAgNetlist {
            netlist: decoded.netlist,
            row_lines: decoded.row_lines,
            col_lines: decoded.col_lines,
            row_addr,
            col_addr,
            spec: spec.clone(),
            address_loop: decoded.address_loop,
        })
    }

    /// Decodes the presented linear address from a running simulator
    /// via the select lines. `None` unless both line groups are
    /// defined and exactly one-hot.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        let r = sim.one_hot(&self.row_lines)?;
        let c = sim.one_hot(&self.col_lines)?;
        self.spec.shape.to_linear(r, c, self.spec.layout).ok()
    }

    /// The paper's serial delay accounting for the conventional
    /// design (Fig. 9 text: "the total delay is the sum of the
    /// counter delay and the worst of the row or the column decoder
    /// delay"), in picoseconds. The counter cascade is the one
    /// [`Self::elaborate`] built.
    ///
    /// # Errors
    ///
    /// Propagates timing-analysis failures.
    pub fn serial_delay_ps(&self, library: &Library) -> Result<f64, SynthError> {
        self.address_loop.serial_delay_ps(library)
    }

    /// The isolated blocks paper Fig. 9 times: the counter cascade
    /// [`Self::elaborate`] built, and a standalone row and column
    /// decoder driven from registered address bits (one decoder when
    /// the two have the same address bits and lines). Pair with
    /// [`ComponentNetlists::timer`] to time them at several loads.
    ///
    /// # Errors
    ///
    /// Propagates decoder-construction failures.
    pub fn components(&self) -> Result<ComponentNetlists<'_>, SynthError> {
        let _span = obs::span("cntag.components.elaborate");
        obs::add(obs::Ctr::CntagComponentBuilds, 1);
        let AddressLoop { netlist, row, col } = &self.address_loop;
        Ok(ComponentNetlists {
            counter: netlist,
            decoders: standalone_decoders(*row, *col)?,
        })
    }
}

/// Per-component delays of the CntAG (paper Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentDelays {
    /// Critical path of the counter cascade alone, in picoseconds.
    pub counter_ps: f64,
    /// Input-to-output delay of the row decoder alone.
    pub row_decoder_ps: f64,
    /// Input-to-output delay of the column decoder alone.
    pub col_decoder_ps: f64,
}

impl ComponentDelays {
    /// The paper's total: counter plus the worst decoder.
    pub fn total_ps(&self) -> f64 {
        self.counter_ps + self.row_decoder_ps.max(self.col_decoder_ps)
    }
}

/// A CntAG's isolated component netlists (counter cascade, row and
/// column decoders), from [`CntAgNetlist::components`], so a load or
/// frequency sweep does not rebuild them per point. Pair with
/// [`Self::timer`] to get a reusable [`ComponentTimer`].
#[derive(Debug, Clone)]
pub struct ComponentNetlists<'a> {
    counter: &'a Netlist,
    decoders: Vec<Netlist>,
}

impl ComponentNetlists<'_> {
    /// The component netlists: the counter cascade, then each
    /// standalone decoder (row first).
    pub fn netlists(&self) -> impl Iterator<Item = &Netlist> {
        std::iter::once(self.counter).chain(&self.decoders)
    }

    /// Builds timing contexts over the component netlists. The
    /// counter's delay is load-independent and computed here once;
    /// each [`ComponentTimer::delays_at`] call then only re-times the
    /// decoders.
    ///
    /// # Errors
    ///
    /// Propagates validation/timing failures.
    pub fn timer<'b>(&'b self, library: &'b Library) -> Result<ComponentTimer<'b>, SynthError> {
        Ok(ComponentTimer {
            counter_ps: TimingContext::new(self.counter, library)?
                .run()
                .critical_path_ps(),
            decoders: self
                .decoders
                .iter()
                .map(|n| TimingContext::new(n, library))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Reusable per-load timer over a [`ComponentNetlists`].
#[derive(Debug, Clone)]
pub struct ComponentTimer<'a> {
    counter_ps: f64,
    /// One context per block of `standalone_decoders`: the row
    /// decoder first, the column decoder last.
    decoders: Vec<TimingContext<'a>>,
}

impl ComponentTimer<'_> {
    /// The component delays with `select_line_load_ff` femtofarads of
    /// external load on every select line.
    pub fn delays_at(&self, select_line_load_ff: f64) -> ComponentDelays {
        let _span = obs::span("cntag.components.delays_at");
        obs::add(obs::Ctr::CntagComponentRuns, 1);
        let decoder_ps: Vec<f64> = self
            .decoders
            .iter()
            .map(|ctx| {
                ctx.run_with_output_load(select_line_load_ff)
                    .critical_path_ps()
            })
            .collect();
        ComponentDelays {
            counter_ps: self.counter_ps,
            row_decoder_ps: decoder_ps[0],
            col_decoder_ps: decoder_ps[decoder_ps.len() - 1],
        }
    }
}

/// The address loop of a decoder-backed generator — every gate in
/// front of its decoders, taken before [`decode`] appends them — and
/// the `(address_bits, lines_kept)` of its row and column decoders:
/// what the paper's serial delay accounting times.
#[derive(Debug, Clone)]
pub(crate) struct AddressLoop {
    netlist: Netlist,
    row: (usize, usize),
    col: (usize, usize),
}

impl AddressLoop {
    /// The paper's serial delay: the loop's critical path plus the
    /// worst standalone decoder under [`SELECT_LINE_LOAD_FF`], in
    /// picoseconds.
    pub(crate) fn serial_delay_ps(&self, library: &Library) -> Result<f64, SynthError> {
        let loop_ps = TimingAnalysis::run(&self.netlist, library)?.critical_path_ps();
        Ok(loop_ps + decoders_delay_ps(self.row, self.col, library)?)
    }
}

/// A decoder-backed generator after [`decode`].
pub(crate) struct Decoded {
    /// The whole design, fanout-buffered and validated.
    pub(crate) netlist: Netlist,
    /// The first `height` row decoder outputs.
    pub(crate) row_lines: Vec<NetId>,
    /// The first `width` column decoder outputs.
    pub(crate) col_lines: Vec<NetId>,
    /// The loop as it stood before the decoders.
    pub(crate) address_loop: AddressLoop,
}

/// The decode step of every decoder-backed generator, run once its
/// address loop is built in `n`:
///
/// 1. snapshot the loop, with `loop_outputs` as outputs and fanout
///    buffers inserted;
/// 2. build the row decoder over `row_addr`, then the column decoder
///    over `col_addr` (the RAM's built-in decoding, paper Fig. 1);
/// 3. keep the first `shape.height()` row and `shape.width()` column
///    lines;
/// 4. mark as outputs the row lines, the column lines, `row_addr`,
///    then `col_addr`;
/// 5. insert fanout buffers and validate.
pub(crate) fn decode(
    mut n: Netlist,
    loop_outputs: &[NetId],
    row_addr: &[NetId],
    col_addr: &[NetId],
    shape: ArrayShape,
) -> Result<Decoded, SynthError> {
    let mut address_loop = n.clone();
    for &net in loop_outputs {
        address_loop.add_output(net);
    }
    insert_fanout_buffers(&mut address_loop, MAX_FANOUT)?;

    let (height, width) = (shape.height() as usize, shape.width() as usize);
    let row_lines: Vec<NetId> = build_decoder(&mut n, row_addr)?
        .into_iter()
        .take(height)
        .collect();
    let col_lines: Vec<NetId> = build_decoder(&mut n, col_addr)?
        .into_iter()
        .take(width)
        .collect();
    for &net in row_lines
        .iter()
        .chain(&col_lines)
        .chain(row_addr)
        .chain(col_addr)
    {
        n.add_output(net);
    }
    insert_fanout_buffers(&mut n, MAX_FANOUT)?;
    n.validate()?;
    Ok(Decoded {
        netlist: n,
        row_lines,
        col_lines,
        address_loop: AddressLoop {
            netlist: address_loop,
            row: (row_addr.len(), height),
            col: (col_addr.len(), width),
        },
    })
}

/// A binary address splits between row and column decoders only on a
/// shape whose sides are both powers of two.
pub(crate) fn require_power_of_two(shape: ArrayShape) -> Result<(), SynthError> {
    let (width, height) = (shape.width(), shape.height());
    if width.is_power_of_two() && height.is_power_of_two() {
        Ok(())
    } else {
        Err(SynthError::ShapeNotPowerOfTwo { width, height })
    }
}

/// The standalone row and column decoders of a binary address, each
/// given as `(address_bits, lines_kept)` and built as a combinational
/// block with registered-address inputs: the row decoder, then the
/// column decoder unless the two pairs match (every square shape),
/// when one block serves both.
fn standalone_decoders(
    row: (usize, usize),
    col: (usize, usize),
) -> Result<Vec<Netlist>, SynthError> {
    let distinct = if col == row {
        vec![row]
    } else {
        vec![row, col]
    };
    distinct
        .into_iter()
        .map(|(address_bits, lines_kept)| {
            let mut n = Netlist::new("component_decoder");
            let addr: Vec<NetId> = (0..address_bits)
                .map(|b| n.add_input(format!("a{b}")))
                .collect();
            let outs = build_decoder(&mut n, &addr)?;
            for &o in outs.iter().take(lines_kept) {
                n.add_output(o);
            }
            insert_fanout_buffers(&mut n, MAX_FANOUT)?;
            Ok(n)
        })
        .collect()
}

/// The slower of a binary address's standalone row and column
/// decoders, each given as `(address_bits, lines_kept)`, under
/// [`SELECT_LINE_LOAD_FF`] — the decode term of the paper's serial
/// accounting, shared by every decoder-based generator style. When
/// the two pairs match (every square shape) one decoder is built and
/// timed.
///
/// # Errors
///
/// Propagates construction/timing failures.
pub fn decoders_delay_ps(
    row: (usize, usize),
    col: (usize, usize),
    library: &Library,
) -> Result<f64, SynthError> {
    let mut worst_ps = 0.0_f64;
    for decoder in standalone_decoders(row, col)? {
        let timing = TimingAnalysis::run_with_output_load(&decoder, library, SELECT_LINE_LOAD_FF)?;
        worst_ps = worst_ps.max(timing.critical_path_ps());
    }
    Ok(worst_ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CntAgSimulator;
    use adgen_seq::AddressGenerator;

    /// Fig. 9's component delays of `spec` under the select-line load.
    fn component_delays(spec: &CntAgSpec, library: &Library) -> ComponentDelays {
        let design = CntAgNetlist::elaborate(spec).unwrap();
        let components = design.components().unwrap();
        components
            .timer(library)
            .unwrap()
            .delays_at(SELECT_LINE_LOAD_FF)
    }

    fn verify_against_behaviour(spec: CntAgSpec, steps: usize) {
        let design = CntAgNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        let mut model = CntAgSimulator::new(spec);
        sim.step_bools(&[true, false]).unwrap();
        model.reset();
        for cycle in 0..steps {
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
    fn raster_gate_level_matches() {
        verify_against_behaviour(CntAgSpec::raster(ArrayShape::new(4, 4)), 40);
    }

    #[test]
    fn motion_est_gate_level_matches() {
        verify_against_behaviour(CntAgSpec::motion_est(ArrayShape::new(4, 4), 2, 2, 0), 40);
    }

    #[test]
    fn zoom_gate_level_matches() {
        verify_against_behaviour(CntAgSpec::zoom_by_two(ArrayShape::new(4, 4)), 70);
    }

    #[test]
    fn transpose_gate_level_matches() {
        verify_against_behaviour(CntAgSpec::transpose(ArrayShape::new(8, 4)), 40);
    }

    #[test]
    fn select_lines_stay_one_hot_without_next() {
        let spec = CntAgSpec::raster(ArrayShape::new(4, 4));
        let design = CntAgNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(0));
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(0));
    }

    #[test]
    fn component_delays_are_positive_and_grow() {
        let lib = Library::vcl018();
        let small = component_delays(&CntAgSpec::raster(ArrayShape::new(16, 16)), &lib);
        let large = component_delays(&CntAgSpec::raster(ArrayShape::new(256, 256)), &lib);
        assert!(small.counter_ps > 0.0);
        assert!(large.row_decoder_ps > small.row_decoder_ps);
        assert!(large.total_ps() > small.total_ps());
        assert_eq!(
            large.total_ps(),
            large.counter_ps + large.row_decoder_ps.max(large.col_decoder_ps)
        );
    }

    #[test]
    fn serial_delay_is_the_fig9_total_at_the_select_line_load() {
        let lib = Library::vcl018();
        for spec in [
            CntAgSpec::raster(ArrayShape::new(16, 16)),
            CntAgSpec::transpose(ArrayShape::new(8, 4)),
            CntAgSpec::zoom_by_two(ArrayShape::new(8, 8)),
            CntAgSpec::motion_est(ArrayShape::new(32, 16), 4, 4, 1),
        ] {
            let serial = CntAgNetlist::elaborate(&spec)
                .unwrap()
                .serial_delay_ps(&lib)
                .unwrap();
            let fig9 = component_delays(&spec, &lib).total_ps();
            assert_eq!(serial.to_bits(), fig9.to_bits(), "{:?}", spec.shape);
        }
    }

    #[test]
    fn decoder_delay_grows_faster_than_counter_delay() {
        // Paper Fig. 9's claim: "as the array size increases the
        // decoder delay begins to dominate". In our library the
        // decoder's *growth rate* with array size clearly exceeds the
        // counter's (the counter only deepens with log-log of the
        // array), which is the structural effect behind the paper's
        // figure; the absolute crossover point depends on the cell
        // library and is documented in EXPERIMENTS.md.
        let lib = Library::vcl018();
        let small = component_delays(&CntAgSpec::raster(ArrayShape::new(16, 16)), &lib);
        let large = component_delays(&CntAgSpec::raster(ArrayShape::new(256, 256)), &lib);
        let decoder_growth = large.row_decoder_ps / small.row_decoder_ps;
        let counter_growth = large.counter_ps / small.counter_ps;
        assert!(
            decoder_growth > counter_growth,
            "decoder growth {decoder_growth} vs counter growth {counter_growth}"
        );
    }
}
