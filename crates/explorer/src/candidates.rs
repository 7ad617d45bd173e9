//! Candidate enumeration and evaluation for one address sequence.

use adgen_affine::{fit_sequence, price_affine, AffineError};
use adgen_bank::{price_decomposed, Decomposition};
use adgen_cntag::netlist::decoders_delay_ps;
use adgen_cntag::{ArithAgNetlist, ArithAgSpec, CntAgNetlist, CntAgSpec, RomAgNetlist, RomAgSpec};
use adgen_core::composite::Srag2d;
use adgen_core::multi_counter::{map_sequence_relaxed, MultiCounterSragNetlist};
use adgen_core::SragError;
use adgen_netlist::{AreaReport, Library, Netlist, NetlistError, Price};
use adgen_obs as obs;
use adgen_seq::{AddressSequence, ArrayShape, Layout};
use adgen_synth::{price_cyclic, EffortBudget, Encoding, OutputStyle, SynthError};

/// An address-generator architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Two-hot shift-register generator (the paper's contribution).
    Srag,
    /// SRAG with relaxed per-register/per-address counters (§4
    /// extension).
    MultiCounterSrag,
    /// Counter cascade + decoders (the conventional baseline).
    CntAg,
    /// Accumulator + delta-ROM arithmetic generator (the weaker
    /// conventional style the paper cites).
    ArithAg,
    /// Index counter + full address ROM: the universal table-lookup
    /// fallback.
    RomAg,
    /// Symbolic FSM synthesized with the given encoding (paper §3).
    SymbolicFsm(Encoding),
    /// Runtime-programmable 2-deep affine AGU (Versat-style); pays a
    /// programming-register premium and an FSM for any non-affine
    /// residual, but needs no resynthesis per sequence.
    Affine,
    /// Decomposed generator from the bank-layer address-map
    /// factorization: a cycle counter feeding constant/counter-bit/
    /// XOR-fold components plus a binary FSM for the residue bits.
    Decomposed,
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Architecture::Srag => write!(f, "SRAG"),
            Architecture::MultiCounterSrag => write!(f, "MC-SRAG"),
            Architecture::CntAg => write!(f, "CntAG"),
            Architecture::ArithAg => write!(f, "ArithAG"),
            Architecture::RomAg => write!(f, "RomAG"),
            Architecture::SymbolicFsm(e) => write!(f, "FSM({e:?})"),
            Architecture::Affine => write!(f, "Affine"),
            Architecture::Decomposed => write!(f, "Decomposed"),
        }
    }
}

/// A successfully evaluated implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Which architecture produced it.
    pub architecture: Architecture,
    /// Critical-path delay in picoseconds.
    pub delay_ps: f64,
    /// Area in cell units.
    pub area: f64,
    /// Number of flip-flops.
    pub flip_flops: usize,
}

/// The outcome of exploring one sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Implementable candidates with their measurements.
    pub candidates: Vec<Candidate>,
    /// Architectures that could not implement the sequence, with the
    /// reason.
    pub rejected: Vec<(Architecture, String)>,
}

impl Evaluation {
    /// The candidate for `architecture`, if it was implementable.
    pub fn candidate(&self, architecture: Architecture) -> Option<&Candidate> {
        self.candidates
            .iter()
            .find(|c| c.architecture == architecture)
    }
}

/// Knobs for [`evaluate`].
#[derive(Debug, Clone)]
pub struct EvaluateOptions {
    /// Counter-cascade program for the CntAG baseline, when one
    /// exists for the workload (arbitrary sequences have none).
    pub cntag_program: Option<CntAgSpec>,
    /// Upper bound on sequence length for attempting symbolic-FSM
    /// synthesis (logic minimization cost grows steeply; the paper
    /// reports six hours at N = 256 on its tooling).
    pub fsm_state_limit: usize,
    /// Encodings to try for the symbolic FSM.
    pub fsm_encodings: Vec<Encoding>,
}

impl Default for EvaluateOptions {
    fn default() -> Self {
        EvaluateOptions {
            cntag_program: None,
            fsm_state_limit: 64,
            fsm_encodings: vec![Encoding::Binary],
        }
    }
}

/// Evaluates every architecture family on `sequence` over a
/// `shape`-sized array (row-major layout), returning measured
/// candidates and per-architecture rejection reasons.
pub fn evaluate(
    sequence: &AddressSequence,
    shape: ArrayShape,
    library: &Library,
    options: &EvaluateOptions,
) -> Evaluation {
    evaluate_jobs(sequence, shape, library, options, 1)
}

/// [`evaluate`] with the architecture families fanned across `jobs`
/// worker threads (`0` means all available cores). The result is
/// identical to the serial evaluation: candidates and rejections both
/// come back in the fixed family order (SRAG, MC-SRAG, CntAG,
/// ArithAG, RomAG, each requested FSM encoding, Affine, then
/// Decomposed) regardless of which thread finished first.
pub fn evaluate_jobs(
    sequence: &AddressSequence,
    shape: ArrayShape,
    library: &Library,
    options: &EvaluateOptions,
    jobs: usize,
) -> Evaluation {
    let _eval_span = obs::span_arg("explorer.evaluate", sequence.len() as u64);
    let mut families = vec![
        Architecture::Srag,
        Architecture::MultiCounterSrag,
        Architecture::CntAg,
        Architecture::ArithAg,
        Architecture::RomAg,
    ];
    families.extend(
        options
            .fsm_encodings
            .iter()
            .map(|&e| Architecture::SymbolicFsm(e)),
    );
    families.push(Architecture::Affine);
    families.push(Architecture::Decomposed);

    // One span (and one counter tick) per candidate architecture
    // enumerated — not per comparison — so a trace of an exploration
    // shows where each family's evaluation time went. The span arg is
    // the family's index in the fixed enumeration order.
    let results = adgen_exec::par_map(&families, jobs, |i, &arch| {
        let _candidate_span = obs::span_arg("explorer.candidate", i as u64);
        obs::add(obs::Ctr::ExplorerCandidates, 1);
        price_family(arch, sequence, shape, library, options)
    });

    let mut candidates = Vec::new();
    let mut rejected = Vec::new();
    for (architecture, result) in families.into_iter().zip(results) {
        match result {
            Ok(price) => candidates.push(Candidate {
                architecture,
                delay_ps: price.delay_ps,
                area: price.area,
                flip_flops: price.flip_flops,
            }),
            Err(e) => rejected.push((architecture, e.to_string())),
        }
    }
    Evaluation {
        candidates,
        rejected,
    }
}

/// Why a family cannot implement a sequence; displayed as the
/// rejection reason.
type Rejection = Box<dyn std::error::Error + Send + Sync>;

/// Prices one architecture family.
fn price_family(
    arch: Architecture,
    sequence: &AddressSequence,
    shape: ArrayShape,
    library: &Library,
    options: &EvaluateOptions,
) -> Result<Price, Rejection> {
    // Rejects a machine of `states` states, described by `what`, that
    // exceeds the FSM synthesis limit.
    let fsm_limit = |states: usize, what: String| -> Result<(), Rejection> {
        if states > options.fsm_state_limit {
            let limit = options.fsm_state_limit;
            return Err(format!("{what} exceeds FSM synthesis limit {limit}").into());
        }
        Ok(())
    };
    match arch {
        Architecture::Srag => {
            let design = Srag2d::map(sequence, shape, Layout::RowMajor)?.elaborate()?;
            Ok(Price::of(&design.netlist, library)?)
        }

        // Multi-counter SRAG: evaluated on the two decomposed streams.
        Architecture::MultiCounterSrag => {
            let (rows, cols) = sequence
                .decompose(shape, Layout::RowMajor)
                .map_err(SragError::from)?;
            let r = map_sequence_relaxed(&rows)?;
            let c = map_sequence_relaxed(&cols)?;
            let rn = MultiCounterSragNetlist::elaborate(&r)?;
            let cn = MultiCounterSragNetlist::elaborate(&c)?;
            let price = |n: &Netlist| Price::of(n, library).map_err(SragError::from);
            Ok(price(&rn.netlist)?.beside(price(&cn.netlist)?))
        }

        // CntAG baseline, when a counter program exists.
        Architecture::CntAg => {
            let program = options
                .cntag_program
                .as_ref()
                .ok_or("no counter-cascade program known for this sequence")?;
            let design = CntAgNetlist::elaborate(program)?;
            let delay = design.serial_delay_ps(library)?;
            Ok(serial_price(delay, &design.netlist, library))
        }

        // Arithmetic generator: applicable whenever the delta stream
        // has a short period and the shape is power-of-two.
        Architecture::ArithAg => {
            require_power_of_two(shape)?;
            let design = ArithAgNetlist::elaborate(&ArithAgSpec::from_sequence(sequence, shape)?)?;
            let delay = design.serial_delay_ps(library)?;
            Ok(serial_price(delay, &design.netlist, library))
        }

        // Table-lookup generator: the universal fallback.
        Architecture::RomAg => {
            require_power_of_two(shape)?;
            let design = RomAgNetlist::elaborate(&RomAgSpec::from_sequence(sequence, shape)?)?;
            let delay = design.serial_delay_ps(library)?;
            Ok(serial_price(delay, &design.netlist, library))
        }

        // Symbolic FSMs on the decomposed streams (one machine per
        // dimension, as in the ADDM model).
        Architecture::SymbolicFsm(encoding) => {
            fsm_limit(
                sequence.len(),
                format!("sequence length {}", sequence.len()),
            )?;
            let (rows, cols) = sequence.decompose(shape, Layout::RowMajor)?;
            let price_dim = |s: &AddressSequence, num_lines: u32| {
                let style = OutputStyle::SelectLines {
                    num_lines: num_lines as usize,
                };
                price_cyclic(
                    s.as_slice(),
                    encoding,
                    style,
                    EffortBudget::synthesis_default(),
                    library,
                )
                .map(|p| p.price)
            };
            Ok(price_dim(&rows, shape.height())?.beside(price_dim(&cols, shape.width())?))
        }

        // Programmable affine AGU plus an FSM for any residual; its
        // binary address drives standalone row/column decoders, so the
        // shape must split on powers of two like the other
        // decoder-based families.
        Architecture::Affine => {
            require_power_of_two(shape)?;
            let fit = fit_sequence(sequence.as_slice())?;
            let states = fit.residual.len();
            fsm_limit(states, format!("affine residual of {states} addresses"))?;
            let priced = price_affine(&fit, library)?;
            Ok(behind_decoders(
                priced.price,
                binary_decoder_ps(shape, library)?,
            ))
        }

        // Decomposed generator (bank-layer factorization): like the
        // affine AGU it presents a binary address, so it pays the
        // same standalone row/column decoders.
        Architecture::Decomposed => {
            require_power_of_two(shape)?;
            let d = Decomposition::of(sequence.as_slice())?;
            let states = d.residue_states();
            fsm_limit(states, format!("decompose residue of {states} states"))?;
            let price = price_decomposed(&d, library)?;
            Ok(behind_decoders(price, binary_decoder_ps(shape, library)?))
        }
    }
}

/// Area and flip-flops of `netlist` with a delay from the family's own
/// serial accounting (CntAG, ArithAG, RomAG), not from a timing run.
pub(crate) fn serial_price(delay_ps: f64, netlist: &Netlist, library: &Library) -> Price {
    Price {
        delay_ps,
        area: AreaReport::of(netlist, library).total(),
        flip_flops: netlist.num_flip_flops(),
    }
}

/// A binary address needs row/column decoders in front of the array,
/// which exist only for power-of-two-sided shapes.
///
/// # Errors
///
/// [`FamilyError::ShapeNotPowerOfTwo`] otherwise.
pub(crate) fn require_power_of_two(shape: ArrayShape) -> Result<(), FamilyError> {
    if shape.width().is_power_of_two() && shape.height().is_power_of_two() {
        Ok(())
    } else {
        Err(FamilyError::ShapeNotPowerOfTwo)
    }
}

/// Delay of the slower of the standalone row and column decoders a
/// binary-address generator drives on a power-of-two `shape`.
///
/// # Errors
///
/// Decoder construction or timing failures.
pub(crate) fn binary_decoder_ps(shape: ArrayShape, library: &Library) -> Result<f64, SynthError> {
    let bits_and_lines = |lines: u32| (lines.trailing_zeros() as usize, lines as usize);
    decoders_delay_ps(
        bits_and_lines(shape.height()),
        bits_and_lines(shape.width()),
        library,
    )
}

/// `price` with `decoders_ps` on its critical path: a binary address
/// reaches the select lines through the row/column decoders.
pub(crate) fn behind_decoders(price: Price, decoders_ps: f64) -> Price {
    Price {
        delay_ps: price.delay_ps + decoders_ps,
        ..price
    }
}

/// Why a family could not be built on a shape: the power-of-two check
/// here and every row of [`crate::compare_four_way`].
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyError {
    /// The array is not power-of-two-sided, so a binary address has
    /// no row/column decoders to drive.
    ShapeNotPowerOfTwo,
    /// A netlist could not be synthesized or elaborated. The message
    /// leads with the failing part: `"FSM: "`, `"CntAG: "`,
    /// `"affine residual FSM: "`, or `""` for a decoder or CntAG
    /// component.
    Synth(&'static str, SynthError),
    /// The sequence violates the SRAG mapping restrictions.
    Srag(SragError),
    /// The affine fit or the AGU elaboration failed.
    Affine(AffineError),
    /// Timing analysis of a netlist failed.
    Timing(NetlistError),
}

impl std::fmt::Display for FamilyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FamilyError::ShapeNotPowerOfTwo => write!(f, "array dimensions are not powers of two"),
            FamilyError::Synth(part, e) => write!(f, "{part}{e}"),
            FamilyError::Srag(e) => write!(f, "SRAG: {e}"),
            FamilyError::Affine(e) => write!(f, "affine: {e}"),
            FamilyError::Timing(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FamilyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_seq::workloads;

    #[test]
    fn motion_est_yields_full_candidate_set() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(8, 8);
        let seq = workloads::motion_est_read(shape, 2, 2, 0);
        let options = EvaluateOptions {
            cntag_program: Some(CntAgSpec::motion_est(shape, 2, 2, 0)),
            ..EvaluateOptions::default()
        };
        let eval = evaluate(&seq, shape, &lib, &options);
        assert!(eval.candidate(Architecture::Srag).is_some());
        assert!(eval.candidate(Architecture::MultiCounterSrag).is_some());
        assert!(eval.candidate(Architecture::CntAg).is_some());
        assert!(eval.candidate(Architecture::ArithAg).is_some());
        assert!(eval.candidate(Architecture::RomAg).is_some());
        assert!(eval
            .candidate(Architecture::SymbolicFsm(Encoding::Binary))
            .is_some());
        assert!(eval.candidate(Architecture::Affine).is_some());
        assert!(eval.candidate(Architecture::Decomposed).is_some());
        assert!(eval.rejected.is_empty());
    }

    #[test]
    fn affine_pays_a_programming_premium_but_fits_motion_est() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(8, 8);
        let seq = workloads::motion_est_read(shape, 2, 2, 0);
        let eval = evaluate(&seq, shape, &lib, &EvaluateOptions::default());
        let affine = eval.candidate(Architecture::Affine).expect("affine row");
        // The programming chain alone is dozens of flip-flops — more
        // state than the SRAG needs for this workload.
        let srag = eval.candidate(Architecture::Srag).expect("srag row");
        assert!(affine.flip_flops > srag.flip_flops);
        assert!(affine.area > 0.0 && affine.delay_ps > 0.0);
    }

    #[test]
    fn unmappable_sequence_rejects_srag_with_reason() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(4, 4);
        // Rows stream 0,0,1 has uneven repetition — violates DivCnt
        // for both SRAG variants.
        let seq = AddressSequence::from_vec(vec![0, 4, 5, 1, 0, 2]);
        let eval = evaluate(&seq, shape, &lib, &EvaluateOptions::default());
        let srag_rejection = eval.rejected.iter().find(|(a, _)| *a == Architecture::Srag);
        assert!(srag_rejection.is_some(), "rejected: {:?}", eval.rejected);
        // The FSM still implements it.
        assert!(eval
            .candidate(Architecture::SymbolicFsm(Encoding::Binary))
            .is_some());
    }

    #[test]
    fn fsm_limit_enforced() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(16, 16);
        let seq = workloads::fifo(shape);
        let options = EvaluateOptions {
            fsm_state_limit: 10,
            ..EvaluateOptions::default()
        };
        let eval = evaluate(&seq, shape, &lib, &options);
        assert!(eval.rejected.iter().any(
            |(a, reason)| matches!(a, Architecture::SymbolicFsm(_)) && reason.contains("limit")
        ));
    }

    #[test]
    fn non_power_of_two_arrays_reject_decoder_based_families_gracefully() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(6, 6);
        // Raster over a 6-wide array: rows repeat 6x, still
        // SRAG-mappable.
        let seq = workloads::raster(shape);
        let eval = evaluate(&seq, shape, &lib, &EvaluateOptions::default());
        assert!(eval.candidate(Architecture::Srag).is_some());
        for family in [Architecture::ArithAg, Architecture::RomAg] {
            let (_, reason) = eval
                .rejected
                .iter()
                .find(|(a, _)| *a == family)
                .unwrap_or_else(|| panic!("{family} should be rejected"));
            assert!(reason.contains("powers of two"), "{family}: {reason}");
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let lib = Library::vcl018();
        let shape = ArrayShape::new(8, 8);
        let seq = workloads::motion_est_read(shape, 2, 2, 0);
        let options = EvaluateOptions {
            cntag_program: Some(CntAgSpec::motion_est(shape, 2, 2, 0)),
            fsm_encodings: vec![Encoding::Binary, Encoding::Gray],
            ..EvaluateOptions::default()
        };
        let serial = evaluate(&seq, shape, &lib, &options);
        for jobs in [0, 2, 7] {
            let parallel = evaluate_jobs(&seq, shape, &lib, &options, jobs);
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Architecture::Srag.to_string(), "SRAG");
        assert_eq!(Architecture::CntAg.to_string(), "CntAG");
        assert!(Architecture::SymbolicFsm(Encoding::Gray)
            .to_string()
            .contains("Gray"));
    }
}
