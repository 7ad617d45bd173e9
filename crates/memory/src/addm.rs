//! The address decoder-decoupled memory array.

use adgen_seq::ArrayShape;

use crate::error::MemError;

/// One recorded select-discipline violation from a degraded-mode
/// access — the graceful alternative to either erroring out or
/// silently corrupting cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectAlarm {
    /// Zero-based running index of the degraded access that tripped
    /// (reads and writes share the counter).
    pub access: usize,
    /// Whether the offending access was a write.
    pub write: bool,
    /// The violation that would have been returned by the strict API.
    pub cause: MemError,
}

/// A 2-D memory cell array accessed through raw row/column select
/// vectors — no internal address decoder exists (paper Fig. 2).
///
/// Every access validates the two-hot discipline: exactly one row
/// line and exactly one column line asserted. This models (and
/// tests for) the physical safety requirement of paper §7.
///
/// Two access styles are offered: the strict [`write`](Self::write) /
/// [`read`](Self::read) API fails the whole run on the first
/// violation, while the degraded
/// [`write_degraded`](Self::write_degraded) /
/// [`read_degraded`](Self::read_degraded) API — matching what a
/// hardened self-checking generator gives the system — skips the
/// offending access, records a [`SelectAlarm`], and keeps the array
/// contents intact. A multi-select write in particular becomes a
/// recorded alarm instead of silent multi-cell corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Addm {
    shape: ArrayShape,
    cells: Vec<Option<u64>>,
    alarms: Vec<SelectAlarm>,
    degraded_accesses: usize,
}

impl Addm {
    /// Creates an array of uninitialized cells.
    pub fn new(shape: ArrayShape) -> Self {
        Addm {
            cells: vec![None; shape.capacity() as usize],
            shape,
            alarms: Vec::new(),
            degraded_accesses: 0,
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

    /// Degraded-mode write: on a select-discipline violation the
    /// access is *skipped* — no cell changes — and a [`SelectAlarm`]
    /// is recorded. Returns whether the write actually landed.
    pub fn write_degraded(&mut self, row_select: &[bool], col_select: &[bool], value: u64) -> bool {
        let access = self.degraded_accesses;
        self.degraded_accesses += 1;
        match self.decode_selects(row_select, col_select) {
            Ok((r, c)) => {
                self.cells[(r * self.shape.width() + c) as usize] = Some(value);
                true
            }
            Err(cause) => {
                self.alarms.push(SelectAlarm {
                    access,
                    write: true,
                    cause,
                });
                false
            }
        }
    }

    /// Degraded-mode read: select-discipline violations and
    /// uninitialized cells yield `None` plus a recorded
    /// [`SelectAlarm`] instead of an error.
    pub fn read_degraded(&mut self, row_select: &[bool], col_select: &[bool]) -> Option<u64> {
        let access = self.degraded_accesses;
        self.degraded_accesses += 1;
        let cause = match self.decode_selects(row_select, col_select) {
            Ok((r, c)) => match self.cells[(r * self.shape.width() + c) as usize] {
                Some(v) => return Some(v),
                None => MemError::UninitializedRead { row: r, col: c },
            },
            Err(cause) => cause,
        };
        self.alarms.push(SelectAlarm {
            access,
            write: false,
            cause,
        });
        None
    }

    /// Alarms recorded by degraded-mode accesses, in access order.
    pub fn alarms(&self) -> &[SelectAlarm] {
        &self.alarms
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
    fn degraded_multi_select_write_is_recorded_not_corrupting() {
        let shape = ArrayShape::new(2, 2);
        let mut m = Addm::new(shape);
        m.write(&one_hot(2, 0), &one_hot(2, 0), 7).unwrap();
        // A two-hot row write is skipped: cell (0,0) keeps its value,
        // nothing else is touched, and the violation is on record.
        assert!(!m.write_degraded(&[true, true], &one_hot(2, 0), 99));
        assert_eq!(m.peek(0, 0), Some(7));
        assert_eq!(m.peek(1, 0), None);
        assert_eq!(
            m.alarms(),
            &[SelectAlarm {
                access: 0,
                write: true,
                cause: MemError::MultiHotRowSelect { asserted: 2 },
            }]
        );
        // A clean degraded write still lands and records nothing new.
        assert!(m.write_degraded(&one_hot(2, 1), &one_hot(2, 1), 5));
        assert_eq!(m.peek(1, 1), Some(5));
        assert_eq!(m.alarms().len(), 1);
    }

    #[test]
    fn degraded_read_records_and_returns_none() {
        let shape = ArrayShape::new(2, 2);
        let mut m = Addm::new(shape);
        assert_eq!(m.read_degraded(&[false, false], &one_hot(2, 0)), None);
        assert_eq!(m.read_degraded(&one_hot(2, 1), &one_hot(2, 1)), None);
        assert!(m.write_degraded(&one_hot(2, 1), &one_hot(2, 1), 3));
        assert_eq!(m.read_degraded(&one_hot(2, 1), &one_hot(2, 1)), Some(3));
        let alarms = m.alarms();
        assert_eq!(alarms.len(), 2);
        assert_eq!(alarms[0].cause, MemError::NoSelect);
        assert!(!alarms[0].write);
        assert_eq!(
            alarms[1].cause,
            MemError::UninitializedRead { row: 1, col: 1 }
        );
        assert_eq!(alarms[1].access, 1);
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
