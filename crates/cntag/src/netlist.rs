//! Gate-level elaboration of the counter-based address generator,
//! including the row/column address decoders, plus the
//! per-component delay breakdown of paper Fig. 9.

use adgen_netlist::{Library, NetId, Netlist, Simulator, TimingAnalysis, TimingContext};
use adgen_obs as obs;
use adgen_synth::fsm::MAX_FANOUT;
use adgen_synth::mapgen::{build_decoder, build_mod_counter};
use adgen_synth::techmap::insert_fanout_buffers;
use adgen_synth::SynthError;

use crate::spec::CntAgSpec;

/// External capacitance assumed on every select line, modelling the
/// output-load constraint a synthesis run applies at the boundary to
/// the memory cell array (the array's internal delay itself is
/// excluded, as in the paper). Used by [`component_delays`] for the
/// decoder outputs and by the comparison harness for the SRAG's
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
            stage_q.push(c.q.clone());
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
        let row_dec = build_decoder(&mut n, &row_addr)?;
        let col_dec = build_decoder(&mut n, &col_addr)?;
        let row_lines: Vec<NetId> = row_dec
            .into_iter()
            .take(spec.shape.height() as usize)
            .collect();
        let col_lines: Vec<NetId> = col_dec
            .into_iter()
            .take(spec.shape.width() as usize)
            .collect();

        for &l in row_lines.iter().chain(&col_lines) {
            n.add_output(l);
        }
        for &a in row_addr.iter().chain(&col_addr) {
            n.add_output(a);
        }
        insert_fanout_buffers(&mut n, MAX_FANOUT)?;
        n.validate()?;
        Ok(CntAgNetlist {
            netlist: n,
            row_lines,
            col_lines,
            row_addr,
            col_addr,
            spec: spec.clone(),
        })
    }

    /// Decodes the presented linear address from a running simulator
    /// via the select lines. `None` unless both line groups are
    /// defined and exactly one-hot.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        let one_hot = |lines: &[NetId]| -> Option<u32> {
            let mut hot = None;
            for (i, &l) in lines.iter().enumerate() {
                match sim.value(l).to_bool()? {
                    true if hot.is_none() => hot = Some(i as u32),
                    true => return None,
                    false => {}
                }
            }
            hot
        };
        let r = one_hot(&self.row_lines)?;
        let c = one_hot(&self.col_lines)?;
        self.spec.shape.to_linear(r, c, self.spec.layout).ok()
    }

    /// The paper's serial delay accounting for the conventional
    /// design (Fig. 9 text: "the total delay is the sum of the
    /// counter delay and the worst of the row or the column decoder
    /// delay"), in picoseconds.
    ///
    /// # Errors
    ///
    /// Propagates timing-analysis failures.
    pub fn serial_delay_ps(&self, library: &Library) -> Result<f64, SynthError> {
        let c = component_delays(&self.spec, library)?;
        Ok(c.total_ps())
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

/// Times the CntAG's components in isolation, as the paper's Fig. 9
/// does: the counter cascade as a standalone sequential block and
/// each decoder as a standalone combinational block driven from
/// registered address bits.
///
/// # Errors
///
/// Propagates construction/timing failures.
pub fn component_delays(
    spec: &CntAgSpec,
    library: &Library,
) -> Result<ComponentDelays, SynthError> {
    component_delays_with_load(spec, library, SELECT_LINE_LOAD_FF)
}

/// [`component_delays`] with an explicit select-line load, for
/// interconnect-sensitivity studies.
///
/// # Errors
///
/// Propagates construction/timing failures.
pub fn component_delays_with_load(
    spec: &CntAgSpec,
    library: &Library,
    select_line_load_ff: f64,
) -> Result<ComponentDelays, SynthError> {
    let components = ComponentNetlists::elaborate(spec)?;
    let timer = components.timer(library)?;
    Ok(timer.delays_at(select_line_load_ff))
}

/// The CntAG's isolated component netlists (counter cascade, row and
/// column decoders), elaborated once so a load or frequency sweep
/// does not rebuild them per point. Pair with [`Self::timer`] to get
/// a reusable [`ComponentTimer`].
#[derive(Debug, Clone)]
pub struct ComponentNetlists {
    counter: Netlist,
    row_decoder: Netlist,
    col_decoder: Netlist,
}

impl ComponentNetlists {
    /// Elaborates the three component netlists of `spec`.
    ///
    /// # Errors
    ///
    /// Propagates structural-generation failures.
    pub fn elaborate(spec: &CntAgSpec) -> Result<Self, SynthError> {
        let _span = obs::span("cntag.components.elaborate");
        obs::add(obs::Ctr::CntagComponentBuilds, 1);
        spec.validate();
        let counter = {
            let mut n = Netlist::new("cntag_counter");
            let next = n.add_input("next");
            let mut enable = next;
            for (i, stage) in spec.stages.iter().enumerate() {
                let c = build_mod_counter(&mut n, stage.modulus, enable, &format!("st{i}"))?;
                for &q in &c.q {
                    n.add_output(q);
                }
                enable = c.wrap;
            }
            insert_fanout_buffers(&mut n, MAX_FANOUT)?;
            n
        };
        Ok(ComponentNetlists {
            counter,
            row_decoder: standalone_decoder(spec.row_bits.len(), spec.shape.height() as usize)?,
            col_decoder: standalone_decoder(spec.col_bits.len(), spec.shape.width() as usize)?,
        })
    }

    /// Builds timing contexts over the component netlists. The
    /// counter's delay is load-independent and computed here once;
    /// each [`ComponentTimer::delays_at`] call then only re-times the
    /// two decoders.
    ///
    /// # Errors
    ///
    /// Propagates validation/timing failures.
    pub fn timer<'a>(&'a self, library: &'a Library) -> Result<ComponentTimer<'a>, SynthError> {
        Ok(ComponentTimer {
            counter_ps: TimingContext::new(&self.counter, library)?
                .run()
                .critical_path_ps(),
            row: TimingContext::new(&self.row_decoder, library)?,
            col: TimingContext::new(&self.col_decoder, library)?,
        })
    }
}

/// Reusable per-load timer over a [`ComponentNetlists`].
#[derive(Debug, Clone)]
pub struct ComponentTimer<'a> {
    counter_ps: f64,
    row: TimingContext<'a>,
    col: TimingContext<'a>,
}

impl ComponentTimer<'_> {
    /// The component delays with `select_line_load_ff` femtofarads of
    /// external load on every select line.
    pub fn delays_at(&self, select_line_load_ff: f64) -> ComponentDelays {
        let _span = obs::span("cntag.components.delays_at");
        obs::add(obs::Ctr::CntagComponentRuns, 1);
        ComponentDelays {
            counter_ps: self.counter_ps,
            row_decoder_ps: self
                .row
                .run_with_output_load(select_line_load_ff)
                .critical_path_ps(),
            col_decoder_ps: self
                .col
                .run_with_output_load(select_line_load_ff)
                .critical_path_ps(),
        }
    }
}

/// A standalone `address_bits → lines_kept` decoder block with
/// registered-address inputs, shared by the one-shot and memoized
/// delay paths.
fn standalone_decoder(address_bits: usize, lines_kept: usize) -> Result<Netlist, SynthError> {
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
}

/// Input-to-output delay of a standalone `address_bits → lines_kept`
/// decoder under the standard select-line load — the decode term of
/// the paper's serial accounting, shared by every decoder-based
/// generator style.
///
/// # Errors
///
/// Propagates construction/timing failures.
pub fn decoder_delay_ps(
    address_bits: usize,
    lines_kept: usize,
    library: &Library,
) -> Result<f64, SynthError> {
    let n = standalone_decoder(address_bits, lines_kept)?;
    Ok(TimingAnalysis::run_with_output_load(&n, library, SELECT_LINE_LOAD_FF)?.critical_path_ps())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CntAgSimulator;
    use adgen_seq::{AddressGenerator, ArrayShape};

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
        let small = component_delays(&CntAgSpec::raster(ArrayShape::new(16, 16)), &lib).unwrap();
        let large = component_delays(&CntAgSpec::raster(ArrayShape::new(256, 256)), &lib).unwrap();
        assert!(small.counter_ps > 0.0);
        assert!(large.row_decoder_ps > small.row_decoder_ps);
        assert!(large.total_ps() > small.total_ps());
        assert_eq!(
            large.total_ps(),
            large.counter_ps + large.row_decoder_ps.max(large.col_decoder_ps)
        );
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
        let small = component_delays(&CntAgSpec::raster(ArrayShape::new(16, 16)), &lib).unwrap();
        let large = component_delays(&CntAgSpec::raster(ArrayShape::new(256, 256)), &lib).unwrap();
        let decoder_growth = large.row_decoder_ps / small.row_decoder_ps;
        let counter_growth = large.counter_ps / small.counter_ps;
        assert!(
            decoder_growth > counter_growth,
            "decoder growth {decoder_growth} vs counter growth {counter_growth}"
        );
    }
}
