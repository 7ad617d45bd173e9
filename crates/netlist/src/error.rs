//! Error type shared by the netlist infrastructure.

use std::error::Error;
use std::fmt;

/// Errors produced while building, validating, timing or simulating a
/// netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// An instance was created with the wrong number of input or output
    /// connections for its cell kind.
    PinCountMismatch {
        /// Offending instance name.
        instance: String,
        /// Expected number of pins.
        expected: usize,
        /// Number of pins actually supplied.
        found: usize,
        /// `"input"` or `"output"`.
        direction: &'static str,
    },
    /// Two drivers were connected to the same net.
    MultipleDrivers {
        /// Name of the multiply-driven net.
        net: String,
    },
    /// A net has no driver (neither a primary input nor a cell output).
    UndrivenNet {
        /// Name of the floating net.
        net: String,
    },
    /// A referenced net id does not exist in this netlist.
    UnknownNet {
        /// The out-of-range id.
        index: usize,
    },
    /// The combinational portion of the netlist contains a cycle.
    CombinationalCycle {
        /// Name of an instance participating in the cycle.
        instance: String,
    },
    /// Two instances share a name.
    DuplicateInstanceName {
        /// The duplicated name.
        name: String,
    },
    /// The simulator was driven with the wrong number of input values.
    InputWidthMismatch {
        /// Expected number of primary-input values.
        expected: usize,
        /// Number supplied.
        found: usize,
    },
    /// A simulator was loaded with the wrong number of flip-flop
    /// states.
    StateWidthMismatch {
        /// Number of flip-flops in the netlist.
        expected: usize,
        /// Number of states supplied.
        found: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::PinCountMismatch {
                instance,
                expected,
                found,
                direction,
            } => write!(
                f,
                "instance `{instance}` expects {expected} {direction} pins, found {found}"
            ),
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net `{net}` has more than one driver")
            }
            NetlistError::UndrivenNet { net } => write!(f, "net `{net}` has no driver"),
            NetlistError::UnknownNet { index } => write!(f, "net id {index} does not exist"),
            NetlistError::CombinationalCycle { instance } => write!(
                f,
                "combinational cycle detected through instance `{instance}`"
            ),
            NetlistError::DuplicateInstanceName { name } => {
                write!(f, "duplicate instance name `{name}`")
            }
            NetlistError::InputWidthMismatch { expected, found } => {
                write!(f, "expected {expected} primary input values, found {found}")
            }
            NetlistError::StateWidthMismatch { expected, found } => {
                write!(f, "expected {expected} flip-flop states, found {found}")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NetlistError::MultipleDrivers { net: "x".into() };
        let msg = e.to_string();
        assert!(msg.contains("net `x`"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<NetlistError>();
    }
}
