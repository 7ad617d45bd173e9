//! Window scheduling of a permutation stream across parallel lanes,
//! with bank-conflict accounting.
//!
//! A length-`n` stream served by `L` lanes is cut into `L` contiguous
//! windows of `n / L` addresses; at cycle `t` lane `p` consumes
//! `stream[p * window + t]` (the SAGE parallel-window discipline).
//! Each cycle's `L` accesses land on banks according to a [`BankMap`];
//! two lanes hitting the same bank in the same cycle is a conflict
//! that a real memory would serialize into stall cycles.
//!
//! [`window_schedule`] is the conflict-free gate for everything
//! downstream: per-bank streams for the decompose pass are only
//! produced when **no** cycle conflicts, because only then does each
//! bank see exactly one local address per cycle.

use adgen_seq::AddressSequence;

use crate::error::BankError;
use crate::map::BankMap;

/// Outcome of scheduling a stream across parallel lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Parallel consumers.
    pub lanes: u32,
    /// Cycles per window (`stream.len() / lanes`).
    pub window: usize,
    /// Cycles in which at least two lanes hit the same bank.
    pub conflict_cycles: usize,
    /// Total serialization penalty: for each cycle,
    /// `sum(hits_per_bank - 1)` over banks hit more than once.
    pub stall_cycles: usize,
    /// Per-bank local-address streams, one entry per cycle —
    /// `Some` iff the schedule is conflict-free.
    pub bank_streams: Option<Vec<Vec<u32>>>,
}

impl Schedule {
    /// Whether every cycle was conflict-free.
    pub fn conflict_free(&self) -> bool {
        self.conflict_cycles == 0
    }

    /// Fraction of cycles with a conflict, in `[0, 1]`.
    pub fn conflict_rate(&self) -> f64 {
        if self.window == 0 {
            0.0
        } else {
            self.conflict_cycles as f64 / self.window as f64
        }
    }

    /// The per-bank streams, or the conflict gate error.
    ///
    /// # Errors
    ///
    /// [`BankError::ConflictedSchedule`] when any cycle conflicted.
    pub fn bank_streams(&self) -> Result<&[Vec<u32>], BankError> {
        self.bank_streams
            .as_deref()
            .ok_or(BankError::ConflictedSchedule {
                conflict_cycles: self.conflict_cycles,
                stall_cycles: self.stall_cycles,
            })
    }
}

/// Schedules `stream` across `lanes` parallel windows under `map`.
///
/// # Errors
///
/// The map must validate, the stream must be non-empty, its length
/// must be a multiple of `lanes`, and every address must fall inside
/// the map's capacity.
pub fn window_schedule(
    stream: &AddressSequence,
    map: &BankMap,
    lanes: u32,
) -> Result<Schedule, BankError> {
    map.validate()?;
    if lanes == 0 {
        return Err(BankError::InvalidBankCount {
            banks: 0,
            reason: "at least one lane is required",
        });
    }
    let len = stream.len();
    if len == 0 {
        return Err(BankError::EmptyStream);
    }
    if !len.is_multiple_of(lanes as usize) {
        return Err(BankError::UnevenWindows { len, lanes });
    }
    let window = len / lanes as usize;
    let banks = map.banks() as usize;

    let mut conflict_cycles = 0usize;
    let mut stall_cycles = 0usize;
    // bank_streams[b][t] = local address bank b serves at cycle t
    // (only meaningful while the schedule stays conflict-free).
    let mut bank_streams: Vec<Vec<u32>> = vec![Vec::with_capacity(window); banks];
    let mut clean = true;
    let mut hits = vec![0u32; banks];

    let addrs = stream.as_slice();
    for t in 0..window {
        hits.fill(0);
        let mut cycle_locals: Vec<(usize, u32)> = Vec::with_capacity(lanes as usize);
        for p in 0..lanes as usize {
            let (bank, local) = map.split(addrs[p * window + t])?;
            hits[bank as usize] += 1;
            cycle_locals.push((bank as usize, local));
        }
        let extra: u32 = hits.iter().filter(|&&c| c > 1).map(|&c| c - 1).sum();
        if extra > 0 {
            conflict_cycles += 1;
            stall_cycles += extra as usize;
            clean = false;
        } else if clean {
            // One access per bank this cycle; a bank not hit by any
            // lane idles — repeat its previous local address (address
            // 0 on the first cycle) so every bank stream has exactly
            // one entry per cycle.
            let mut cycle = vec![None; banks];
            for (bank, local) in cycle_locals {
                cycle[bank] = Some(local);
            }
            for (b, slot) in cycle.into_iter().enumerate() {
                let fill = slot.unwrap_or_else(|| bank_streams[b].last().copied().unwrap_or(0));
                bank_streams[b].push(fill);
            }
        }
    }

    Ok(Schedule {
        lanes,
        window,
        conflict_cycles,
        stall_cycles,
        bank_streams: if clean { Some(bank_streams) } else { None },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Interleaver;

    #[test]
    fn contention_free_qpp_schedules_cleanly() {
        let perm = Interleaver::qpp_contention_free(64, 4)
            .unwrap()
            .permutation()
            .unwrap();
        let map = BankMap::HighBits {
            banks: 4,
            window: 16,
        };
        let s = window_schedule(&perm, &map, 4).unwrap();
        assert!(s.conflict_free());
        assert_eq!(s.window, 16);
        assert_eq!(s.stall_cycles, 0);
        let streams = s.bank_streams().unwrap();
        assert_eq!(streams.len(), 4);
        // Reassembling (bank, local) per cycle recovers the stream's
        // multiset of addresses exactly once each.
        let mut seen = [false; 64];
        for t in 0..s.window {
            for (b, lane) in streams.iter().enumerate() {
                let a = map.join(b as u32, lane[t]).unwrap();
                assert!(!seen[a as usize]);
                seen[a as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn identity_stream_conflicts_under_high_bits() {
        // Four lanes walking consecutive windows of the identity all
        // stay inside their own bank under HighBits — conflict-free.
        let id = AddressSequence::from_vec((0..64).collect());
        let map = BankMap::HighBits {
            banks: 4,
            window: 16,
        };
        assert!(window_schedule(&id, &map, 4).unwrap().conflict_free());
        // Under LowBits every lane hits the same bank each cycle:
        // all 16 cycles conflict, 3 stalls each.
        let map = BankMap::LowBits {
            banks: 4,
            window: 16,
        };
        let s = window_schedule(&id, &map, 4).unwrap();
        assert_eq!(s.conflict_cycles, 16);
        assert_eq!(s.stall_cycles, 48);
        assert!(s.bank_streams.is_none());
        assert!(matches!(
            s.bank_streams(),
            Err(BankError::ConflictedSchedule {
                conflict_cycles: 16,
                stall_cycles: 48
            })
        ));
    }

    #[test]
    fn uneven_windows_rejected() {
        let seq = AddressSequence::from_vec((0..10).collect());
        let map = BankMap::HighBits {
            banks: 2,
            window: 8,
        };
        assert!(matches!(
            window_schedule(&seq, &map, 4),
            Err(BankError::UnevenWindows { len: 10, lanes: 4 })
        ));
    }

    #[test]
    fn single_lane_never_conflicts() {
        let perm = Interleaver::Random { n: 32, seed: 3 }
            .permutation()
            .unwrap();
        let map = BankMap::XorFold {
            banks: 4,
            window: 8,
        };
        let s = window_schedule(&perm, &map, 1).unwrap();
        assert!(s.conflict_free());
        assert_eq!(s.window, 32);
    }
}
