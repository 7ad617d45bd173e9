//! Error type for logic synthesis.

use std::error::Error;
use std::fmt;

use adgen_netlist::NetlistError;

/// Errors from FSM synthesis and structural generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// A netlist construction step failed.
    Netlist(NetlistError),
    /// An FSM was defined with no states.
    EmptyStateSpace,
    /// A transition or output refers to a state outside the machine.
    StateOutOfRange {
        /// The offending state index.
        state: usize,
        /// Number of states in the machine.
        num_states: usize,
    },
    /// An output value does not fit the requested output style (e.g. a
    /// select-line index beyond the line count, or an address that
    /// does not fit the coded width).
    OutputOutOfRange {
        /// The offending output value.
        value: u64,
        /// The representable limit (exclusive).
        limit: u64,
    },
    /// A requested bit width exceeds what the generators support.
    WidthTooLarge {
        /// Requested width.
        width: u32,
        /// Supported maximum.
        max: u32,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Netlist(e) => write!(f, "netlist error: {e}"),
            SynthError::EmptyStateSpace => write!(f, "finite state machine has no states"),
            SynthError::StateOutOfRange { state, num_states } => {
                write!(
                    f,
                    "state {state} out of range for {num_states}-state machine"
                )
            }
            SynthError::OutputOutOfRange { value, limit } => {
                write!(
                    f,
                    "output value {value} exceeds representable limit {limit}"
                )
            }
            SynthError::WidthTooLarge { width, max } => {
                write!(f, "bit width {width} exceeds supported maximum {max}")
            }
        }
    }
}

impl Error for SynthError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for SynthError {
    fn from(e: NetlistError) -> Self {
        SynthError::Netlist(e)
    }
}

/// Why [`crate::fsm::price_cyclic`] could not price a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PriceError {
    /// Synthesis rejected the sequence.
    Synth(SynthError),
    /// Timing analysis of the synthesized netlist failed.
    Timing(NetlistError),
}

impl fmt::Display for PriceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriceError::Synth(e) => e.fmt(f),
            PriceError::Timing(e) => e.fmt(f),
        }
    }
}

impl Error for PriceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_netlist_error_with_source() {
        let e = SynthError::from(NetlistError::UndrivenNet { net: "x".into() });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("netlist error"));
    }

    #[test]
    fn display_variants() {
        assert!(SynthError::EmptyStateSpace
            .to_string()
            .contains("no states"));
        let s = SynthError::StateOutOfRange {
            state: 9,
            num_states: 4,
        }
        .to_string();
        assert!(s.contains('9') && s.contains('4'));
    }
}
