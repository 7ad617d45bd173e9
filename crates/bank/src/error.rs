//! Error type for the multi-bank layer.

use std::fmt;

/// Everything that can go wrong building banked models, interleaver
/// permutations, schedules and decompositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BankError {
    /// A bank count outside the supported range (or, for the XOR-fold
    /// map, not a power of two).
    InvalidBankCount {
        /// The offending count.
        banks: u32,
        /// Why it is unusable.
        reason: &'static str,
    },
    /// Interleaver parameters that do not produce a permutation.
    InvalidInterleaver(String),
    /// A decompose input that is empty.
    EmptyStream,
    /// A decompose input longer than [`crate::decompose::MAX_DECOMPOSE_LEN`].
    StreamTooLong {
        /// Input length.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// A schedule whose stream length is not a multiple of the lane
    /// count (windows must tile the stream exactly).
    UnevenWindows {
        /// Stream length.
        len: usize,
        /// Requested lanes.
        lanes: u32,
    },
    /// An address outside the map's covered range.
    AddressOutOfRange {
        /// The address.
        addr: u32,
        /// Exclusive upper bound the map covers.
        capacity: u32,
    },
    /// A per-cycle access vector whose width disagrees with the model.
    LaneCountMismatch {
        /// Lanes the model was built for.
        expected: usize,
        /// Lanes presented.
        found: usize,
    },
    /// The conflict-free-schedule gate: a factorization was requested
    /// for a schedule that has bank conflicts.
    ConflictedSchedule {
        /// Cycles with at least one conflict.
        conflict_cycles: usize,
        /// Total serialization stalls.
        stall_cycles: usize,
    },
    /// A strict per-bank memory access failed.
    Mem(String),
    /// FSM synthesis of a residue failed.
    Synth(String),
    /// Affine fitting of a component failed.
    Affine(String),
    /// Netlist construction or analysis failed.
    Netlist(String),
}

impl fmt::Display for BankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BankError::InvalidBankCount { banks, reason } => {
                write!(f, "invalid bank count {banks}: {reason}")
            }
            BankError::InvalidInterleaver(why) => write!(f, "invalid interleaver: {why}"),
            BankError::EmptyStream => write!(f, "decompose input is empty"),
            BankError::StreamTooLong { len, max } => {
                write!(
                    f,
                    "decompose input of {len} addresses exceeds the cap of {max}"
                )
            }
            BankError::UnevenWindows { len, lanes } => write!(
                f,
                "stream length {len} is not a multiple of the {lanes}-lane window"
            ),
            BankError::AddressOutOfRange { addr, capacity } => {
                write!(f, "address {addr} is outside the map's capacity {capacity}")
            }
            BankError::LaneCountMismatch { expected, found } => {
                write!(
                    f,
                    "access vector has {found} lanes, model expects {expected}"
                )
            }
            BankError::ConflictedSchedule {
                conflict_cycles,
                stall_cycles,
            } => write!(
                f,
                "schedule is not conflict-free: {conflict_cycles} conflicted cycles, \
                 {stall_cycles} stall cycles"
            ),
            BankError::Mem(e) => write!(f, "bank access: {e}"),
            BankError::Synth(e) => write!(f, "residue synthesis: {e}"),
            BankError::Affine(e) => write!(f, "affine component: {e}"),
            BankError::Netlist(e) => write!(f, "netlist: {e}"),
        }
    }
}

impl std::error::Error for BankError {}

impl From<adgen_memory::MemError> for BankError {
    fn from(e: adgen_memory::MemError) -> Self {
        BankError::Mem(e.to_string())
    }
}

impl From<adgen_netlist::NetlistError> for BankError {
    fn from(e: adgen_netlist::NetlistError) -> Self {
        BankError::Netlist(e.to_string())
    }
}

impl From<adgen_synth::SynthError> for BankError {
    fn from(e: adgen_synth::SynthError) -> Self {
        BankError::Synth(e.to_string())
    }
}

impl From<adgen_synth::PriceError> for BankError {
    fn from(e: adgen_synth::PriceError) -> Self {
        match e {
            adgen_synth::PriceError::Synth(e) => e.into(),
            adgen_synth::PriceError::Timing(e) => e.into(),
        }
    }
}

impl From<adgen_affine::AffineError> for BankError {
    fn from(e: adgen_affine::AffineError) -> Self {
        BankError::Affine(e.to_string())
    }
}
