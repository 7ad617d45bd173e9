//! Error type shared by the affine spec, mapper and elaborator.

use adgen_netlist::NetlistError;
use adgen_synth::SynthError;

/// Everything that can go wrong while specifying, fitting or
/// elaborating an affine address generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AffineError {
    /// The spec violates a structural constraint (zero period, duty
    /// above period, a field wider than its register, …).
    InvalidSpec(String),
    /// The mapper was handed an empty sequence.
    EmptySequence,
    /// The mapper was handed a sequence longer than [`MAX_MAP_LEN`]
    /// (the bound keeps divisor search and verification replay
    /// linear-ish).
    ///
    /// [`MAX_MAP_LEN`]: crate::mapper::MAX_MAP_LEN
    SequenceTooLong { len: usize, max: usize },
    /// Netlist construction failed.
    Netlist(NetlistError),
    /// A structural building block (counter, adder, comparator)
    /// rejected its parameters.
    Synth(SynthError),
}

impl std::fmt::Display for AffineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AffineError::InvalidSpec(why) => write!(f, "invalid affine spec: {why}"),
            AffineError::EmptySequence => write!(f, "cannot fit an empty sequence"),
            AffineError::SequenceTooLong { len, max } => {
                write!(
                    f,
                    "sequence of {len} addresses exceeds the mapper cap {max}"
                )
            }
            AffineError::Netlist(e) => write!(f, "netlist error: {e}"),
            AffineError::Synth(e) => write!(f, "synthesis error: {e}"),
        }
    }
}

impl std::error::Error for AffineError {}

/// Why [`crate::price::price_affine`] could not price a fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AffinePriceError {
    /// The programmable AGU could not be elaborated.
    Elaborate(AffineError),
    /// The residual FSM could not be synthesized.
    Residual(SynthError),
    /// Timing analysis of the AGU or the residual FSM failed.
    Timing(NetlistError),
}

impl std::fmt::Display for AffinePriceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AffinePriceError::Elaborate(e) => e.fmt(f),
            AffinePriceError::Residual(e) => write!(f, "residual FSM: {e}"),
            AffinePriceError::Timing(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for AffinePriceError {}

impl From<NetlistError> for AffineError {
    fn from(e: NetlistError) -> Self {
        AffineError::Netlist(e)
    }
}

impl From<SynthError> for AffineError {
    fn from(e: SynthError) -> Self {
        AffineError::Synth(e)
    }
}
