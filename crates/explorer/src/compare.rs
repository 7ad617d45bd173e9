//! Head-to-head SRAG vs CntAG evaluation — the measurement kernel
//! behind paper Figures 8, 10 and Table 3.

use adgen_cntag::netlist::SELECT_LINE_LOAD_FF;
use adgen_cntag::{CntAgNetlist, CntAgSpec, ComponentDelays};
use adgen_core::composite::Srag2d;
use adgen_core::SragError;
use adgen_netlist::{AreaReport, Library, TimingContext};
use adgen_obs as obs;
use adgen_seq::{AddressSequence, ArrayShape, Layout};

/// One row of a comparison: both architectures implementing the same
/// address sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// SRAG critical path (whole two-hot generator), picoseconds.
    pub srag_delay_ps: f64,
    /// CntAG delay under the paper's serial accounting (counter +
    /// worst decoder), picoseconds.
    pub cntag_delay_ps: f64,
    /// SRAG total area, cell units.
    pub srag_area: f64,
    /// CntAG total area (counters + decoders), cell units.
    pub cntag_area: f64,
    /// SRAG flip-flop count.
    pub srag_flip_flops: usize,
    /// CntAG flip-flop count.
    pub cntag_flip_flops: usize,
}

impl ComparisonRow {
    /// The paper's *delay reduction factor*: CntAG delay over SRAG
    /// delay (>1 means the SRAG is faster).
    pub fn delay_reduction_factor(&self) -> f64 {
        self.cntag_delay_ps / self.srag_delay_ps
    }

    /// The paper's *area increase factor*: SRAG area over CntAG area
    /// (>1 means the SRAG is bigger).
    pub fn area_increase_factor(&self) -> f64 {
        self.srag_area / self.cntag_area
    }
}

/// Maps `sequence` onto a two-hot SRAG, elaborates both it and the
/// given counter-based program, and measures delay and area of each
/// under the standard select-line load [`SELECT_LINE_LOAD_FF`].
///
/// # Errors
///
/// Propagates mapping and elaboration failures (e.g. the sequence
/// violates an SRAG restriction).
pub fn compare_srag_cntag(
    sequence: &AddressSequence,
    shape: ArrayShape,
    cntag_program: &CntAgSpec,
    library: &Library,
) -> Result<ComparisonRow, SragError> {
    let loads = [SELECT_LINE_LOAD_FF];
    let mut points =
        compare_srag_cntag_load_sweep(sequence, shape, cntag_program, library, &loads, 1)?;
    Ok(points.swap_remove(0).0)
}

/// [`compare_srag_cntag`] at each of `loads_ff` femtofarads on both
/// architectures' select lines — the §7 interconnect-sensitivity
/// study's knob (select lines grow with the array and drive its
/// cells, so their capacitance is the interconnect term both designs
/// must pay). Each point also carries the CntAG component delays
/// behind its row's `cntag_delay_ps` (paper Fig. 9).
///
/// The SRAG pair and the CntAG are mapped and elaborated **once**,
/// the CntAG's Fig. 9 blocks are taken from that one elaboration
/// ([`CntAgNetlist::components`]), their timing state is cached in a
/// [`TimingContext`] / [`adgen_cntag::ComponentTimer`], and only the
/// load-dependent timing runs per point, fanned across `jobs` worker
/// threads (`0` means all available cores; a single load is timed on
/// the caller's thread). Points come back in `loads_ff` order
/// regardless of `jobs`.
///
/// # Errors
///
/// As for [`compare_srag_cntag`].
pub fn compare_srag_cntag_load_sweep(
    sequence: &AddressSequence,
    shape: ArrayShape,
    cntag_program: &CntAgSpec,
    library: &Library,
    loads_ff: &[f64],
    jobs: usize,
) -> Result<Vec<(ComparisonRow, ComponentDelays)>, SragError> {
    let _span = obs::span_arg(
        "explorer.compare",
        u64::from(shape.width()) * u64::from(shape.height()),
    );
    let srag = Srag2d::map(sequence, shape, Layout::RowMajor)?.elaborate()?;
    let srag_ctx = TimingContext::new(&srag.netlist, library)?;
    let srag_area = AreaReport::of(&srag.netlist, library).total();
    let srag_flip_flops = srag.netlist.num_flip_flops();

    let cntag = CntAgNetlist::elaborate(cntag_program)?;
    let components = cntag.components()?;
    let timer = components.timer(library)?;
    let cntag_area = AreaReport::of(&cntag.netlist, library).total();
    let cntag_flip_flops = cntag.netlist.num_flip_flops();

    let point = |load_ff: f64| {
        let cntag_components = timer.delays_at(load_ff);
        let row = ComparisonRow {
            srag_delay_ps: srag_ctx.run_with_output_load(load_ff).critical_path_ps(),
            cntag_delay_ps: cntag_components.total_ps(),
            srag_area,
            cntag_area,
            srag_flip_flops,
            cntag_flip_flops,
        };
        (row, cntag_components)
    };
    // One point is no fan-out: callers that compare one point per
    // item of their own `par_map` (Fig. 8-10, Table 3) add no items.
    Ok(match *loads_ff {
        [load_ff] => vec![point(load_ff)],
        _ => adgen_exec::par_map(loads_ff, jobs, |_, &load_ff| point(load_ff)),
    })
}

/// Power measurements for both architectures on the same stream —
/// the study the paper's §7 defers ("we expect this decoder
/// decoupling approach to reduce power dissipation … we have not
/// carried out a rigorous study of it").
#[derive(Debug, Clone, PartialEq)]
pub struct PowerComparisonRow {
    /// SRAG power with a free-running clock.
    pub srag: adgen_netlist::PowerReport,
    /// CntAG power with a free-running clock.
    pub cntag: adgen_netlist::PowerReport,
    /// SRAG power with enable-derived clock gating — the natural
    /// low-power implementation of its enabled shift flip-flops.
    pub srag_gated: adgen_netlist::PowerReport,
    /// CntAG power under the same gating rule (its plain counter
    /// flip-flops have no enables to gate from, so this usually
    /// equals the free-running figure).
    pub cntag_gated: adgen_netlist::PowerReport,
}

impl PowerComparisonRow {
    /// CntAG total power over SRAG total power with free-running
    /// clocks (>1 means the SRAG dissipates less).
    pub fn power_reduction_factor(&self) -> f64 {
        self.cntag.total_uw() / self.srag.total_uw()
    }

    /// The same factor with enable-derived clock gating applied to
    /// both designs.
    pub fn gated_power_reduction_factor(&self) -> f64 {
        self.cntag_gated.total_uw() / self.srag_gated.total_uw()
    }
}

/// Measures activity-based dynamic power of the SRAG pair and the
/// CntAG while both stream through `cycles` consecutive accesses of
/// `sequence` at `frequency_mhz`, under both clock models.
///
/// # Errors
///
/// Propagates mapping, elaboration and simulation failures.
pub fn compare_power(
    sequence: &AddressSequence,
    shape: ArrayShape,
    cntag_program: &CntAgSpec,
    library: &Library,
    frequency_mhz: f64,
    cycles: u64,
) -> Result<PowerComparisonRow, SragError> {
    use adgen_netlist::{measure_power, ClockModel, Logic};
    let srag = Srag2d::map(sequence, shape, Layout::RowMajor)?.elaborate()?;
    let cntag = CntAgNetlist::elaborate(cntag_program)?;
    let streaming = |_cycle: u64| vec![Logic::Zero, Logic::One];
    // One simulation per design yields both clock models' reports.
    let run = |n: &adgen_netlist::Netlist| {
        let models = [ClockModel::FreeRunning, ClockModel::Gated];
        measure_power(n, library, frequency_mhz, cycles, models, streaming).map_err(SragError::from)
    };
    let [srag, srag_gated] = run(&srag.netlist)?;
    let [cntag, cntag_gated] = run(&cntag.netlist)?;
    Ok(PowerComparisonRow {
        srag,
        cntag,
        srag_gated,
        cntag_gated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_seq::workloads;

    #[test]
    fn motion_est_srag_is_faster_but_bigger() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(32, 32);
        let seq = workloads::motion_est_read(shape, 4, 4, 0);
        let program = CntAgSpec::motion_est(shape, 4, 4, 0);
        let row = compare_srag_cntag(&seq, shape, &program, &lib).unwrap();
        assert!(
            row.delay_reduction_factor() > 1.2,
            "SRAG should be clearly faster: factor {}",
            row.delay_reduction_factor()
        );
        assert!(
            row.area_increase_factor() > 1.5,
            "SRAG should be clearly bigger: factor {}",
            row.area_increase_factor()
        );
    }

    #[test]
    fn cntag_delay_gap_widens_with_array_size() {
        // Paper Fig. 8: the CntAG falls further behind as the array
        // grows (its decoder deepens with the address width, while
        // the SRAG's select path stays flip-flop-direct). On the FIFO
        // workload both architectures' *counters* scale identically,
        // so the robust cross-library claim is the widening absolute
        // gap.
        let lib = Library::vcl018();
        let row_at = |n: u32| {
            let shape = ArrayShape::new(n, n);
            let seq = workloads::fifo(shape);
            let program = CntAgSpec::raster(shape);
            compare_srag_cntag(&seq, shape, &program, &lib).unwrap()
        };
        let small = row_at(16);
        let large = row_at(128);
        let small_gap = small.cntag_delay_ps - small.srag_delay_ps;
        let large_gap = large.cntag_delay_ps - large.srag_delay_ps;
        assert!(small_gap > 0.0, "SRAG must already win at 16x16");
        assert!(
            large_gap > small_gap,
            "gap should widen: {small_gap} -> {large_gap}"
        );
    }

    #[test]
    fn power_study_decomposition() {
        // The §7 study the paper deferred, carried out here. Findings
        // in this model (documented in EXPERIMENTS.md): the
        // decoder-switching argument holds — the SRAG's *signal*
        // switching power is well below the CntAG's on streaming
        // patterns — but the SRAG's H+W flip-flop clock load
        // dominates its total, so the expected overall power win does
        // not materialize even with enable-derived clock gating.
        let lib = Library::vcl018();
        let shape = ArrayShape::new(64, 64);
        let seq = workloads::fifo(shape);
        let row = compare_power(&seq, shape, &CntAgSpec::raster(shape), &lib, 100.0, 256).unwrap();
        // Decoder switching saved:
        assert!(
            row.srag.dynamic_uw < row.cntag.dynamic_uw,
            "SRAG switching {} vs CntAG {}",
            row.srag.dynamic_uw,
            row.cntag.dynamic_uw
        );
        // …but paid for in clock power:
        assert!(
            row.srag.clock_uw > row.cntag.clock_uw,
            "SRAG clock {} vs CntAG {}",
            row.srag.clock_uw,
            row.cntag.clock_uw
        );
        // Gating strictly helps the SRAG side:
        assert!(row.srag_gated.total_uw() <= row.srag.total_uw());
        assert!(
            row.gated_power_reduction_factor() >= row.power_reduction_factor(),
            "gating must not hurt the SRAG: {} -> {}",
            row.power_reduction_factor(),
            row.gated_power_reduction_factor()
        );
    }

    #[test]
    fn one_power_simulation_serves_both_clock_models() {
        use adgen_netlist::{measure_power, ClockModel, Logic};
        let lib = Library::vcl018();
        let shape = ArrayShape::new(16, 16);
        let seq = workloads::motion_est_read(shape, 2, 2, 0);
        let program = CntAgSpec::motion_est(shape, 2, 2, 0);
        let srag = Srag2d::map(&seq, shape, Layout::RowMajor)
            .unwrap()
            .elaborate()
            .unwrap();
        let cntag = CntAgNetlist::elaborate(&program).unwrap();
        let designs = [&srag.netlist, &cntag.netlist];
        let models = [ClockModel::FreeRunning, ClockModel::Gated];
        let streaming = |_cycle: u64| vec![Logic::Zero, Logic::One];

        let shared =
            designs.map(|n| measure_power(n, &lib, 100.0, 128, models, streaming).unwrap());
        // One simulation per (design, model).
        obs::start();
        let separate = designs.map(|n| {
            models.map(|m| {
                let [report] = measure_power(n, &lib, 100.0, 128, [m], streaming).unwrap();
                report
            })
        });
        let per_model_evaluations = obs::take().counter(obs::Ctr::SimEvaluations);
        assert_eq!(shared, separate);
        // Gating matters on the SRAG: its enabled shift flip-flops
        // idle on most cycles.
        assert!(separate[0][1].clock_uw < separate[0][0].clock_uw);

        obs::start();
        let row = compare_power(&seq, shape, &program, &lib, 100.0, 128).unwrap();
        let evaluations = obs::take().counter(obs::Ctr::SimEvaluations);
        assert_eq!(
            [[row.srag, row.srag_gated], [row.cntag, row.cntag_gated]],
            separate
        );
        assert!(evaluations > 0);
        assert_eq!(2 * evaluations, per_model_evaluations);
    }

    /// The comparison point at `load_ff`, measured from scratch: the
    /// SRAG pair timed in one shot, and the CntAG counter cascade and
    /// its row and column decoders each built and timed on their own.
    fn reference_point(
        seq: &AddressSequence,
        shape: ArrayShape,
        program: &CntAgSpec,
        lib: &Library,
        load_ff: f64,
    ) -> (ComparisonRow, ComponentDelays) {
        use adgen_netlist::{NetId, Netlist, TimingAnalysis};
        use adgen_synth::fsm::MAX_FANOUT;
        use adgen_synth::mapgen::{build_decoder, build_mod_counter};
        use adgen_synth::techmap::insert_fanout_buffers;

        let srag = Srag2d::map(seq, shape, Layout::RowMajor)
            .unwrap()
            .elaborate()
            .unwrap();
        let cntag = CntAgNetlist::elaborate(program).unwrap();
        let time = |n: &Netlist, load_ff: f64| {
            TimingAnalysis::run_with_output_load(n, lib, load_ff)
                .unwrap()
                .critical_path_ps()
        };

        let mut counter = Netlist::new("counter");
        let mut enable = counter.add_input("next");
        for (i, stage) in program.stages.iter().enumerate() {
            let c =
                build_mod_counter(&mut counter, stage.modulus, enable, &format!("st{i}")).unwrap();
            for &q in &c.q {
                counter.add_output(q);
            }
            enable = c.wrap;
        }
        insert_fanout_buffers(&mut counter, MAX_FANOUT).unwrap();
        let decoder = |address_bits: usize, lines: u32| {
            let mut n = Netlist::new("decoder");
            let addr: Vec<NetId> = (0..address_bits)
                .map(|b| n.add_input(format!("a{b}")))
                .collect();
            let outs = build_decoder(&mut n, &addr).unwrap();
            for &o in outs.iter().take(lines as usize) {
                n.add_output(o);
            }
            insert_fanout_buffers(&mut n, MAX_FANOUT).unwrap();
            time(&n, load_ff)
        };
        let components = ComponentDelays {
            counter_ps: time(&counter, 0.0),
            row_decoder_ps: decoder(program.row_bits.len(), shape.height()),
            col_decoder_ps: decoder(program.col_bits.len(), shape.width()),
        };
        let row = ComparisonRow {
            srag_delay_ps: time(&srag.netlist, load_ff),
            cntag_delay_ps: components.counter_ps
                + components.row_decoder_ps.max(components.col_decoder_ps),
            srag_area: AreaReport::of(&srag.netlist, lib).total(),
            cntag_area: AreaReport::of(&cntag.netlist, lib).total(),
            srag_flip_flops: srag.netlist.num_flip_flops(),
            cntag_flip_flops: cntag.netlist.num_flip_flops(),
        };
        (row, components)
    }

    #[test]
    fn load_sweep_matches_a_reference_built_from_scratch() {
        let lib = Library::vcl018();
        let loads = [0.0, 30.0, 90.0, 240.0];
        for (w, h) in [(16, 16), (16, 8), (8, 32)] {
            let shape = ArrayShape::new(w, h);
            let seq = workloads::motion_est_read(shape, 2, 2, 0);
            let program = CntAgSpec::motion_est(shape, 2, 2, 0);
            let want: Vec<_> = loads
                .iter()
                .map(|&load| reference_point(&seq, shape, &program, &lib, load))
                .collect();
            for jobs in [1, 4] {
                let swept =
                    compare_srag_cntag_load_sweep(&seq, shape, &program, &lib, &loads, jobs)
                        .unwrap();
                assert_eq!(swept, want, "{w}x{h} jobs {jobs}");
            }
            let paper = compare_srag_cntag(&seq, shape, &program, &lib).unwrap();
            assert_eq!(paper, want[1].0, "{w}x{h} at the select-line load");
        }
    }

    #[test]
    fn srag_flip_flops_scale_with_dimensions() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(16, 16);
        let seq = workloads::fifo(shape);
        let row = compare_srag_cntag(&seq, shape, &CntAgSpec::raster(shape), &lib).unwrap();
        // 16 row + 16 col shift FFs (plus a few counter bits).
        assert!(row.srag_flip_flops >= 32);
        assert!(row.cntag_flip_flops <= 10);
    }
}
