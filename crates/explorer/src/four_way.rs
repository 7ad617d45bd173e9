//! The four-way architecture shoot-out: symbolic FSM, SRAG, CntAG
//! and the programmable affine AGU implementing the *same* address
//! sequence, measured on the same three axes — delay, area (with the
//! affine programming-register premium split out) and fault
//! resilience over a uniform output-stuck-at + SEU universe.
//!
//! The paper's Fig. 7 compares the dedicated architectures; the
//! affine family buys runtime reprogrammability for a register-chain
//! premium, and this module prices that trade explicitly. It also
//! hosts [`verify_affine_bit_exact`], the acceptance gate that the
//! affine row actually reproduces the input — affine part replayed at
//! gate level on both simulation engines, residual appended.

use adgen_affine::{fit_sequence, price_affine, AffineAgNetlist, AffineFit, AffinePriceError};
use adgen_cntag::{CntAgNetlist, CntAgSpec};
use adgen_core::composite::Srag2d;
use adgen_fault::{fault_universe, flip_flop_ids, run_campaign, CampaignSpec};
use adgen_netlist::{EventSimulator, Library, Netlist, Price, SimControl, Simulator};
use adgen_seq::{AddressSequence, ArrayShape, Layout};
use adgen_synth::{price_cyclic, EffortBudget, Encoding, OutputStyle, PriceError};

use crate::candidates::{
    behind_decoders, binary_decoder_ps, require_power_of_two, serial_price, Architecture,
    FamilyError,
};

/// One architecture's measurements in the shoot-out.
#[derive(Debug, Clone, PartialEq)]
pub struct FourWayRow {
    /// Which architecture this row measures.
    pub architecture: Architecture,
    /// Address-to-select delay, picoseconds: critical path plus the
    /// standalone decoder stage for the binary-address families (FSM,
    /// CntAG, affine); the SRAG drives its select lines directly.
    pub delay_ps: f64,
    /// Total area in cell units (affine includes the residual FSM).
    pub area: f64,
    /// Total flip-flop count.
    pub flip_flops: usize,
    /// Flip-flops spent purely on runtime programmability — the
    /// affine configuration chain. Zero for the dedicated families.
    pub program_flip_flops: usize,
    /// Fault coverage (detected / non-benign, %) over this row's
    /// universe.
    pub fault_coverage_pct: f64,
    /// Faults that corrupted state without reaching an output in the
    /// window.
    pub silent_faults: usize,
    /// Universe size this row was measured against.
    pub faults: usize,
}

/// The full shoot-out result, rows in fixed order: FSM, SRAG, CntAG,
/// affine.
#[derive(Debug, Clone, PartialEq)]
pub struct FourWayComparison {
    /// One row per architecture.
    pub rows: Vec<FourWayRow>,
    /// The affine fit the affine row was built from (spec, coverage,
    /// residual).
    pub affine_fit: AffineFit,
}

impl FourWayComparison {
    /// The row for `architecture`, if present.
    pub fn row(&self, architecture: Architecture) -> Option<&FourWayRow> {
        self.rows.iter().find(|r| r.architecture == architecture)
    }
}

/// One row's campaign: [`fault_universe`] over the netlist's primary
/// outputs and *all* of its flip-flops. The same logical recipe on
/// every architecture keeps coverage figures comparable even though
/// the concrete fault lists differ with the structure (a bigger design
/// exposes more strike targets — that is part of the comparison, not
/// a bias). Returns coverage, silent faults and universe size.
fn campaign_figures(
    netlist: &Netlist,
    cycles: u32,
    seu_samples: usize,
    seed: u64,
    jobs: usize,
) -> (f64, usize, usize) {
    let ffs = flip_flop_ids(netlist);
    let faults = fault_universe(netlist.outputs(), &ffs, cycles, seu_samples, seed);
    let spec = CampaignSpec {
        netlist,
        cycles,
        alarm_output: None,
    };
    let report = run_campaign(&spec, &faults, jobs);
    (report.coverage_pct(), report.silent(), faults.len())
}

/// Runs the shoot-out for one sequence over a power-of-two `shape`:
/// builds all four implementations, prices them with the same
/// accounting as [`crate::evaluate`] (the binary-address FSM and the
/// affine AGU behind the standalone decoders), and runs the identical
/// fault-universe recipe on each netlist (`cycles` observation window,
/// `seu_samples` SEUs from `seed`, replays fanned over `jobs` workers
/// — results are jobs-invariant).
///
/// The affine row's campaign runs on the programmable AGU itself
/// (the architecture under comparison); its residual FSM, when one
/// exists, is priced into area/delay but not struck.
///
/// # Errors
///
/// [`FamilyError::ShapeNotPowerOfTwo`] if the shape is not
/// power-of-two-sided, or the first family (in row order) that fails
/// to implement the sequence (the four-way comparison is only
/// meaningful when all four rows exist).
#[allow(clippy::too_many_arguments)]
pub fn compare_four_way(
    sequence: &AddressSequence,
    shape: ArrayShape,
    cntag_program: &CntAgSpec,
    library: &Library,
    cycles: u32,
    seu_samples: usize,
    seed: u64,
    jobs: usize,
) -> Result<FourWayComparison, FamilyError> {
    require_power_of_two(shape)?;
    let decoders_ps = binary_decoder_ps(shape, library).map_err(|e| FamilyError::Synth("", e))?;
    let mut rows = Vec::with_capacity(4);
    // Every row runs the same campaign recipe on its own netlist.
    let mut row = |architecture, netlist: &Netlist, price: Price, program_flip_flops| {
        let (fault_coverage_pct, silent_faults, faults) =
            campaign_figures(netlist, cycles, seu_samples, seed, jobs);
        rows.push(FourWayRow {
            architecture,
            delay_ps: price.delay_ps,
            area: price.area,
            flip_flops: price.flip_flops,
            program_flip_flops,
            fault_coverage_pct,
            silent_faults,
            faults,
        });
    };

    // Symbolic FSM: one machine emitting the full binary address,
    // feeding the same standalone decoders as the other
    // binary-address families.
    let bits = (shape.width().trailing_zeros() + shape.height().trailing_zeros()) as usize;
    let style = OutputStyle::BinaryAddress { bits };
    let budget = EffortBudget::synthesis_default();
    let fsm = price_cyclic(
        sequence.as_slice(),
        Encoding::Binary,
        style,
        budget,
        library,
    )
    .map_err(|e| match e {
        PriceError::Synth(e) => FamilyError::Synth("FSM: ", e),
        PriceError::Timing(e) => FamilyError::Timing(e),
    })?;
    let fsm_price = behind_decoders(fsm.price, decoders_ps);
    row(
        Architecture::SymbolicFsm(Encoding::Binary),
        &fsm.fsm.netlist,
        fsm_price,
        0,
    );

    // SRAG: the two-hot pair, select lines flip-flop-direct.
    let srag = Srag2d::map(sequence, shape, Layout::RowMajor)
        .and_then(|m| m.elaborate())
        .map_err(FamilyError::Srag)?;
    let srag_price = Price::of(&srag.netlist, library).map_err(FamilyError::Timing)?;
    row(Architecture::Srag, &srag.netlist, srag_price, 0);

    // CntAG: counter cascade + decoders, the paper's serial delay
    // accounting.
    let cntag =
        CntAgNetlist::elaborate(cntag_program).map_err(|e| FamilyError::Synth("CntAG: ", e))?;
    let cntag_delay = cntag
        .serial_delay_ps(library)
        .map_err(|e| FamilyError::Synth("", e))?;
    let cntag_price = serial_price(cntag_delay, &cntag.netlist, library);
    row(Architecture::CntAg, &cntag.netlist, cntag_price, 0);

    // Affine: the programmable AGU plus an FSM for the residual.
    let fit = fit_sequence(sequence.as_slice()).map_err(FamilyError::Affine)?;
    let affine = price_affine(&fit, library).map_err(|e| match e {
        AffinePriceError::Elaborate(e) => FamilyError::Affine(e),
        AffinePriceError::Residual(e) => FamilyError::Synth("affine residual FSM: ", e),
        AffinePriceError::Timing(e) => FamilyError::Timing(e),
    })?;
    let affine_price = behind_decoders(affine.price, decoders_ps);
    row(
        Architecture::Affine,
        &affine.agu.netlist,
        affine_price,
        affine.agu.config_bits(),
    );

    Ok(FourWayComparison {
        rows,
        affine_fit: fit,
    })
}

/// Proves the affine row reproduces `sequence` bit-exactly: fits the
/// sequence, checks the behavioural reconstruction (affine part plus
/// residual), elaborates the AGU, and replays the affine part at gate
/// level on both simulation engines — compiled and event-driven.
/// Returns the verified fit.
///
/// # Errors
///
/// Returns a message naming the engine (or the mapper) on the first
/// divergence.
pub fn verify_affine_bit_exact(sequence: &AddressSequence) -> Result<AffineFit, String> {
    let fit = fit_sequence(sequence.as_slice()).map_err(|e| e.to_string())?;
    if fit.reconstruct() != sequence.as_slice() {
        return Err("mapper reconstruction diverged from the input".to_string());
    }
    let design = AffineAgNetlist::elaborate(&fit.spec).map_err(|e| e.to_string())?;
    let expected = &sequence.as_slice()[..fit.covered];
    let max_ticks = 2 * fit.spec.program_ticks() + 8;

    let run = |sim: &mut dyn SimControl, engine: &str| -> Result<(), String> {
        design.reset_sim(sim).map_err(|e| e.to_string())?;
        let emitted = design
            .collect_emitted(sim, fit.covered, max_ticks)
            .map_err(|e| format!("{engine}: {e}"))?;
        if emitted != expected {
            return Err(format!("{engine}: gate-level stream diverged from input"));
        }
        Ok(())
    };
    let mut compiled = Simulator::new(&design.netlist).map_err(|e| e.to_string())?;
    run(&mut compiled, "compiled")?;
    let mut evt = EventSimulator::new(&design.netlist).map_err(|e| e.to_string())?;
    run(&mut evt, "event-driven")?;
    Ok(fit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_seq::workloads;

    #[test]
    fn motion_est_four_way_has_all_rows_and_prices_the_premium() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(8, 8);
        let seq = workloads::motion_est_read(shape, 2, 2, 0);
        let program = CntAgSpec::motion_est(shape, 2, 2, 0);
        let cmp =
            compare_four_way(&seq, shape, &program, &lib, seq.len() as u32, 8, 2026, 2).unwrap();
        assert_eq!(cmp.rows.len(), 4);
        for row in &cmp.rows {
            assert!(row.delay_ps > 0.0 && row.area > 0.0, "{}", row.architecture);
            assert!(row.faults > 0, "{}", row.architecture);
        }
        // Only the affine family pays for programmability...
        let affine = cmp.row(Architecture::Affine).unwrap();
        assert!(affine.program_flip_flops > 0);
        for arch in [
            Architecture::SymbolicFsm(Encoding::Binary),
            Architecture::Srag,
            Architecture::CntAg,
        ] {
            assert_eq!(cmp.row(arch).unwrap().program_flip_flops, 0);
        }
        // ...and the Fig. 7 workload fits with no residual.
        assert!(cmp.affine_fit.is_exact());
    }

    #[test]
    fn four_way_rows_are_jobs_invariant() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(4, 4);
        let seq = workloads::motion_est_read(shape, 2, 2, 0);
        let program = CntAgSpec::motion_est(shape, 2, 2, 0);
        let a = compare_four_way(&seq, shape, &program, &lib, 16, 6, 7, 1).unwrap();
        let b = compare_four_way(&seq, shape, &program, &lib, 16, 6, 7, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn affine_is_bit_exact_on_both_engines() {
        let shape = ArrayShape::new(8, 8);
        for seq in [
            workloads::motion_est_read(shape, 2, 2, 0),
            workloads::raster(shape),
            workloads::transpose_scan(shape),
        ] {
            let fit = verify_affine_bit_exact(&seq).unwrap();
            assert_eq!(fit.covered + fit.residual.len(), seq.len());
        }
    }

    #[test]
    fn non_power_of_two_shape_is_rejected() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(6, 6);
        let seq = workloads::raster(shape);
        let program = CntAgSpec::raster(ArrayShape::new(8, 8));
        let err = compare_four_way(&seq, shape, &program, &lib, 8, 2, 1, 1).unwrap_err();
        assert_eq!(err, FamilyError::ShapeNotPowerOfTwo);
        assert_eq!(err.to_string(), "array dimensions are not powers of two");
    }
}
