//! The address decoder-decoupled memory array.

use adgen_seq::ArrayShape;

use crate::error::MemError;

/// A 2-D memory cell array accessed through raw row/column select
/// vectors — no internal address decoder exists (paper Fig. 2).
///
/// Every access validates the two-hot discipline: exactly one row
/// line and exactly one column line asserted. This models (and
/// tests for) the physical safety requirement of paper §7: a
/// violating [`write`](Self::write) or [`read`](Self::read) returns
/// the violation and changes no cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Addm {
    shape: ArrayShape,
    cells: Vec<Option<u64>>,
}

impl Addm {
    /// Creates an array of uninitialized cells.
    pub fn new(shape: ArrayShape) -> Self {
        Addm {
            cells: vec![None; shape.capacity() as usize],
            shape,
        }
    }

    /// The array geometry.
    pub fn shape(&self) -> ArrayShape {
        self.shape
    }

    /// Writes `value` to the cell selected by the two select vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::SelectWidthMismatch`],
    /// [`MemError::MultiHotRowSelect`] /
    /// [`MemError::MultiHotColSelect`] or [`MemError::NoSelect`] when
    /// the select discipline is violated.
    pub fn write(
        &mut self,
        row_select: &[bool],
        col_select: &[bool],
        value: u64,
    ) -> Result<(), MemError> {
        let (r, c) = self.decode_selects(row_select, col_select)?;
        self.cells[(r * self.shape.width() + c) as usize] = Some(value);
        Ok(())
    }

    /// Reads the cell selected by the two select vectors.
    ///
    /// # Errors
    ///
    /// Select-discipline violations as for [`write`](Self::write),
    /// plus [`MemError::UninitializedRead`] for never-written cells.
    pub fn read(&self, row_select: &[bool], col_select: &[bool]) -> Result<u64, MemError> {
        let (r, c) = self.decode_selects(row_select, col_select)?;
        self.cells[(r * self.shape.width() + c) as usize]
            .ok_or(MemError::UninitializedRead { row: r, col: c })
    }

    /// Direct cell inspection for test harnesses (row-major index).
    pub fn peek(&self, row: u32, col: u32) -> Option<u64> {
        if row >= self.shape.height() || col >= self.shape.width() {
            return None;
        }
        self.cells[(row * self.shape.width() + col) as usize]
    }

    fn decode_selects(
        &self,
        row_select: &[bool],
        col_select: &[bool],
    ) -> Result<(u32, u32), MemError> {
        if row_select.len() != self.shape.height() as usize {
            return Err(MemError::SelectWidthMismatch {
                dimension: "row",
                expected: self.shape.height() as usize,
                found: row_select.len(),
            });
        }
        if col_select.len() != self.shape.width() as usize {
            return Err(MemError::SelectWidthMismatch {
                dimension: "column",
                expected: self.shape.width() as usize,
                found: col_select.len(),
            });
        }
        let rows: Vec<usize> = row_select
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        let cols: Vec<usize> = col_select
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        if rows.len() > 1 {
            return Err(MemError::MultiHotRowSelect {
                asserted: rows.len(),
            });
        }
        if cols.len() > 1 {
            return Err(MemError::MultiHotColSelect {
                asserted: cols.len(),
            });
        }
        match (rows.first(), cols.first()) {
            (Some(&r), Some(&c)) => Ok((r as u32, c as u32)),
            _ => Err(MemError::NoSelect),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_hot(n: usize, i: usize) -> Vec<bool> {
        let mut v = vec![false; n];
        v[i] = true;
        v
    }

    #[test]
    fn write_then_read_round_trip() {
        let shape = ArrayShape::new(4, 3);
        let mut m = Addm::new(shape);
        m.write(&one_hot(3, 1), &one_hot(4, 2), 42).unwrap();
        assert_eq!(m.read(&one_hot(3, 1), &one_hot(4, 2)).unwrap(), 42);
        assert_eq!(m.peek(1, 2), Some(42));
        assert_eq!(m.peek(0, 0), None);
    }

    #[test]
    fn multi_hot_row_rejected() {
        let shape = ArrayShape::new(2, 2);
        let mut m = Addm::new(shape);
        let err = m.write(&[true, true], &one_hot(2, 0), 1).unwrap_err();
        assert_eq!(err, MemError::MultiHotRowSelect { asserted: 2 });
    }

    #[test]
    fn multi_hot_col_rejected() {
        let shape = ArrayShape::new(2, 2);
        let m = Addm::new(shape);
        let err = m.read(&one_hot(2, 0), &[true, true]).unwrap_err();
        assert_eq!(err, MemError::MultiHotColSelect { asserted: 2 });
    }

    #[test]
    fn dead_selects_rejected() {
        let shape = ArrayShape::new(2, 2);
        let m = Addm::new(shape);
        assert_eq!(
            m.read(&[false, false], &one_hot(2, 0)).unwrap_err(),
            MemError::NoSelect
        );
    }

    #[test]
    fn width_mismatch_rejected() {
        let shape = ArrayShape::new(4, 2);
        let m = Addm::new(shape);
        let err = m.read(&one_hot(3, 0), &one_hot(4, 0)).unwrap_err();
        assert!(matches!(err, MemError::SelectWidthMismatch { .. }));
    }

    #[test]
    fn uninitialized_read_reported() {
        let shape = ArrayShape::new(2, 2);
        let m = Addm::new(shape);
        assert_eq!(
            m.read(&one_hot(2, 1), &one_hot(2, 1)).unwrap_err(),
            MemError::UninitializedRead { row: 1, col: 1 }
        );
    }
}
