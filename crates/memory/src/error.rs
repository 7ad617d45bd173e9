//! Error type for memory models.

use std::error::Error;
use std::fmt;

/// Errors from memory-array accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// More than one row select line was asserted — the data-corruption
    /// hazard the paper's §7 requires the address generator to
    /// guarantee against.
    MultiHotRowSelect {
        /// Number of asserted lines.
        asserted: usize,
    },
    /// More than one column select line was asserted.
    MultiHotColSelect {
        /// Number of asserted lines.
        asserted: usize,
    },
    /// No select line was asserted in one of the dimensions.
    NoSelect,
    /// A select vector had the wrong length for the array.
    SelectWidthMismatch {
        /// `"row"` or `"column"`.
        dimension: &'static str,
        /// Expected vector length.
        expected: usize,
        /// Supplied vector length.
        found: usize,
    },
    /// A binary address exceeded the array bounds.
    AddressOutOfRange {
        /// Offending row.
        row: u32,
        /// Offending column.
        col: u32,
    },
    /// A cell was read before ever being written.
    UninitializedRead {
        /// Row of the cell.
        row: u32,
        /// Column of the cell.
        col: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::MultiHotRowSelect { asserted } => write!(
                f,
                "{asserted} row select lines asserted simultaneously (data corruption hazard)"
            ),
            MemError::MultiHotColSelect { asserted } => write!(
                f,
                "{asserted} column select lines asserted simultaneously (data corruption hazard)"
            ),
            MemError::NoSelect => write!(f, "no select line asserted"),
            MemError::SelectWidthMismatch {
                dimension,
                expected,
                found,
            } => write!(
                f,
                "{dimension} select vector has {found} lines, array needs {expected}"
            ),
            MemError::AddressOutOfRange { row, col } => {
                write!(f, "address (row {row}, col {col}) outside the array")
            }
            MemError::UninitializedRead { row, col } => {
                write!(f, "read of uninitialized cell (row {row}, col {col})")
            }
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_hazard() {
        let e = MemError::MultiHotRowSelect { asserted: 2 };
        assert!(e.to_string().contains("corruption"));
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<MemError>();
    }
}
