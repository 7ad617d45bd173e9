//! The B-bank ADDM model: per-bank [`Addm`] arrays behind a
//! [`BankMap`], with cycle-level conflict/stall accounting.
//!
//! Cycle accesses serialize conflicting lanes (and charge the stalls)
//! but fail hard on select-discipline violations.

use adgen_memory::Addm;
use adgen_seq::ArrayShape;

use crate::error::BankError;
use crate::map::BankMap;
use crate::workloads::Interleaver;

/// A bank-mapped array of [`Addm`] instances.
#[derive(Debug, Clone)]
pub struct BankedAddm {
    map: BankMap,
    shape: ArrayShape,
    banks: Vec<Addm>,
    lanes: u32,
    cycles: usize,
    conflict_cycles: usize,
    stall_cycles: usize,
}

impl BankedAddm {
    /// Builds `map.banks()` arrays, each shaped as near-square as the
    /// per-bank window allows (largest divisor `h <= sqrt(window)`
    /// rows), served by `lanes` parallel consumers per cycle.
    ///
    /// # Errors
    ///
    /// The map must validate and `lanes` must be nonzero.
    pub fn new(map: BankMap, lanes: u32) -> Result<Self, BankError> {
        map.validate()?;
        if lanes == 0 {
            return Err(BankError::InvalidBankCount {
                banks: 0,
                reason: "at least one lane is required",
            });
        }
        let shape = local_shape(map.window());
        let banks = (0..map.banks()).map(|_| Addm::new(shape)).collect();
        Ok(BankedAddm {
            map,
            shape,
            banks,
            lanes,
            cycles: 0,
            conflict_cycles: 0,
            stall_cycles: 0,
        })
    }

    /// The bank-mapping function.
    pub fn map(&self) -> &BankMap {
        &self.map
    }

    /// Per-bank array geometry.
    pub fn shape(&self) -> ArrayShape {
        self.shape
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.map.banks()
    }

    /// Cycles accounted so far.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Cycles in which two or more lanes hit the same bank.
    pub fn conflict_cycles(&self) -> usize {
        self.conflict_cycles
    }

    /// Total serialization stalls charged by conflicting cycles.
    pub fn stall_cycles(&self) -> usize {
        self.stall_cycles
    }

    /// Fraction of accounted cycles that conflicted, in `[0, 1]`.
    pub fn conflict_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.conflict_cycles as f64 / self.cycles as f64
        }
    }

    /// One strict write cycle: each lane writes `(flat_addr, value)`.
    /// Conflicting lanes serialize (stalls are charged, every write
    /// still lands).
    ///
    /// # Errors
    ///
    /// Lane-count mismatch, out-of-range addresses, or a strict
    /// per-bank access failure.
    fn write_cycle(&mut self, accesses: &[(u32, u64)]) -> Result<(), BankError> {
        let split = self.account_cycle(accesses.iter().map(|&(a, _)| a))?;
        for ((bank, local), &(_, value)) in split.into_iter().zip(accesses) {
            let (rows, cols) = self.selects(local);
            self.banks[bank as usize].write(&rows, &cols, value)?;
        }
        Ok(())
    }

    /// One strict read cycle: each lane reads a flat address; values
    /// come back in lane order. Conflicting lanes serialize.
    ///
    /// # Errors
    ///
    /// As for [`write_cycle`](Self::write_cycle), plus uninitialized
    /// reads.
    fn read_cycle(&mut self, addrs: &[u32]) -> Result<Vec<u64>, BankError> {
        let split = self.account_cycle(addrs.iter().copied())?;
        let mut values = Vec::with_capacity(addrs.len());
        for (bank, local) in split {
            let (rows, cols) = self.selects(local);
            values.push(self.banks[bank as usize].read(&rows, &cols)?);
        }
        Ok(values)
    }

    /// Direct cell inspection of one bank.
    #[cfg(test)]
    fn peek(&self, bank: u32, local: u32) -> Option<u64> {
        if bank >= self.banks() || local >= self.map.window() {
            return None;
        }
        let (row, col) = self.local_rc(local);
        self.banks[bank as usize].peek(row, col)
    }

    /// Splits a cycle's flat addresses, charges conflict/stall
    /// accounting, and returns the `(bank, local)` pairs in lane
    /// order.
    fn account_cycle(
        &mut self,
        addrs: impl ExactSizeIterator<Item = u32>,
    ) -> Result<Vec<(u32, u32)>, BankError> {
        if addrs.len() != self.lanes as usize {
            return Err(BankError::LaneCountMismatch {
                expected: self.lanes as usize,
                found: addrs.len(),
            });
        }
        let mut split = Vec::with_capacity(self.lanes as usize);
        let mut hits = vec![0u32; self.banks() as usize];
        for addr in addrs {
            let (bank, local) = self.map.split(addr)?;
            hits[bank as usize] += 1;
            split.push((bank, local));
        }
        let extra: u32 = hits.iter().filter(|&&c| c > 1).map(|&c| c - 1).sum();
        self.cycles += 1;
        if extra > 0 {
            self.conflict_cycles += 1;
            self.stall_cycles += extra as usize;
        }
        Ok(split)
    }

    fn local_rc(&self, local: u32) -> (u32, u32) {
        (local / self.shape.width(), local % self.shape.width())
    }

    /// One-hot row/column selects for a local address (`local` is in
    /// the window: [`BankMap::split`] guarantees it).
    fn selects(&self, local: u32) -> (Vec<bool>, Vec<bool>) {
        let mut rows = vec![false; self.shape.height() as usize];
        let mut cols = vec![false; self.shape.width() as usize];
        let (r, c) = self.local_rc(local);
        rows[r as usize] = true;
        cols[c as usize] = true;
        (rows, cols)
    }
}

/// Near-square geometry for a per-bank window: the largest divisor
/// `h <= sqrt(window)` becomes the height.
fn local_shape(window: u32) -> ArrayShape {
    let mut h = 1;
    let mut d = 1;
    while d * d <= window {
        if window.is_multiple_of(d) {
            h = d;
        }
        d += 1;
    }
    ArrayShape::new(window / h, h)
}

/// Outcome of a full interleaver cosim run.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedRun {
    /// Parallel lanes used in both phases.
    pub lanes: u32,
    /// Cycles per phase (`n / lanes`).
    pub window: usize,
    /// Conflicted cycles in the linear write phase.
    pub write_conflicts: usize,
    /// Stalls charged by the write phase.
    pub write_stalls: usize,
    /// Conflicted cycles in the permuted read phase.
    pub read_conflicts: usize,
    /// Stalls charged by the read phase.
    pub read_stalls: usize,
    /// Read payloads that matched the identity pattern (all `n` on a
    /// healthy run).
    pub verified: usize,
}

impl InterleavedRun {
    /// Whether both phases ran without a single bank conflict.
    pub fn conflict_free(&self) -> bool {
        self.write_conflicts == 0 && self.read_conflicts == 0
    }
}

/// End-to-end cosim: writes the identity payload linearly through
/// `lanes` parallel windows, then reads it back through the
/// interleaver permutation, verifying every payload.
///
/// # Errors
///
/// The interleaver length must equal the map's capacity and divide
/// evenly into `lanes` windows; strict access failures propagate.
pub fn run_interleaved(
    interleaver: &Interleaver,
    map: &BankMap,
    lanes: u32,
) -> Result<InterleavedRun, BankError> {
    let perm = interleaver.permutation()?;
    let n = perm.len();
    if n != map.capacity() as usize {
        return Err(BankError::AddressOutOfRange {
            addr: interleaver.len(),
            capacity: map.capacity(),
        });
    }
    if lanes == 0 || n % lanes as usize != 0 {
        return Err(BankError::UnevenWindows { len: n, lanes });
    }
    let window = n / lanes as usize;
    let mut model = BankedAddm::new(*map, lanes)?;

    for t in 0..window {
        let writes: Vec<(u32, u64)> = (0..lanes as usize)
            .map(|p| {
                let a = (p * window + t) as u32;
                (a, u64::from(a))
            })
            .collect();
        model.write_cycle(&writes)?;
    }
    let write_conflicts = model.conflict_cycles();
    let write_stalls = model.stall_cycles();

    let addrs = perm.as_slice();
    let mut verified = 0usize;
    for t in 0..window {
        let cycle: Vec<u32> = (0..lanes as usize).map(|p| addrs[p * window + t]).collect();
        let values = model.read_cycle(&cycle)?;
        verified += cycle
            .iter()
            .zip(&values)
            .filter(|&(&a, &v)| v == u64::from(a))
            .count();
    }

    Ok(InterleavedRun {
        lanes,
        window,
        write_conflicts,
        write_stalls,
        read_conflicts: model.conflict_cycles() - write_conflicts,
        read_stalls: model.stall_cycles() - write_stalls,
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_shape_is_near_square() {
        assert_eq!(local_shape(16), ArrayShape::new(4, 4));
        assert_eq!(local_shape(32), ArrayShape::new(8, 4));
        assert_eq!(local_shape(12), ArrayShape::new(4, 3));
        assert_eq!(local_shape(7), ArrayShape::new(7, 1));
    }

    #[test]
    fn strict_cycle_round_trip_with_conflict_accounting() {
        let map = BankMap::HighBits {
            banks: 2,
            window: 8,
        };
        let mut m = BankedAddm::new(map, 2).unwrap();
        // Lane 0 in bank 0, lane 1 in bank 1: clean cycle.
        m.write_cycle(&[(0, 10), (8, 11)]).unwrap();
        // Both lanes in bank 0: one conflict, one stall, writes land.
        m.write_cycle(&[(1, 20), (2, 21)]).unwrap();
        assert_eq!(m.conflict_cycles(), 1);
        assert_eq!(m.stall_cycles(), 1);
        assert_eq!(m.cycles(), 2);
        assert_eq!(m.read_cycle(&[1, 8]).unwrap(), vec![20, 11]);
        assert_eq!(m.peek(0, 2), Some(21));
        assert!((m.conflict_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lane_count_enforced() {
        let map = BankMap::LowBits {
            banks: 2,
            window: 4,
        };
        let mut m = BankedAddm::new(map, 2).unwrap();
        assert!(matches!(
            m.read_cycle(&[0]),
            Err(BankError::LaneCountMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn interleaved_cosim_verifies_identity_payload() {
        let qpp = Interleaver::qpp_contention_free(64, 4).unwrap();
        let map = BankMap::HighBits {
            banks: 4,
            window: 16,
        };
        let run = run_interleaved(&qpp, &map, 4).unwrap();
        assert!(run.conflict_free(), "{run:?}");
        assert_eq!(run.verified, 64);
        assert_eq!(run.window, 16);
    }

    #[test]
    fn interleaved_cosim_counts_conflicts_for_a_bad_map() {
        let qpp = Interleaver::qpp_contention_free(64, 4).unwrap();
        // LowBits breaks the contention-freedom the QPP was built for.
        let map = BankMap::LowBits {
            banks: 4,
            window: 16,
        };
        let run = run_interleaved(&qpp, &map, 4).unwrap();
        assert!(!run.conflict_free());
        assert_eq!(run.verified, 64, "conflicts stall but never corrupt");
    }

    #[test]
    fn capacity_mismatch_rejected() {
        let qpp = Interleaver::qpp_contention_free(64, 4).unwrap();
        let map = BankMap::HighBits {
            banks: 4,
            window: 8,
        };
        assert!(run_interleaved(&qpp, &map, 4).is_err());
    }
}
