//! The automatic mapping procedure of paper §5 (the authors'
//! `SRAdGen` tool).
//!
//! Given a one-dimensional address sequence `I`, the mapper derives
//!
//! * `D` — consecutive repetition counts, which must all equal the
//!   common division count `dC`,
//! * `R` — the run-collapsed (reduced) sequence,
//! * `U`, `O`, `Z` — the unique addresses of `R` in first-appearance
//!   order with their occurrence counts and first positions,
//! * `S` — the grouping of select lines onto shift registers, and
//! * `P` — the per-register workloads, which must all equal the
//!   common pass count `pC`,
//!
//! and finally *verifies* the grouped machine against the input
//! (initial grouping may fail, e.g. for `1,2,3,4,3,2,1,4`; paper §5).

use adgen_seq::sequence::UniqueEntry;
use adgen_seq::{AddressGenerator, AddressSequence};

use crate::arch::{ShiftRegisterSpec, SragSpec};
use crate::error::SragError;
use crate::sim::SragSimulator;

/// The result of a successful mapping: the architecture plus every
/// intermediate set, so paper Table 2 can be reproduced verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// The mapped architecture.
    pub spec: SragSpec,
    /// `D`: run length of each run of `I`.
    pub division_counts: Vec<usize>,
    /// `R`: the reduced sequence.
    pub reduced: AddressSequence,
    /// `U`: unique addresses in first-appearance order.
    pub unique: Vec<u32>,
    /// `O`: occurrence count of each unique address in `R`.
    pub occurrences: Vec<usize>,
    /// `Z`: first position of each unique address in `R`.
    pub first_positions: Vec<usize>,
    /// `P`: reduced elements produced by each shift register per pass.
    pub pass_counts: Vec<usize>,
}

/// Maps an address sequence onto an SRAG, or explains precisely which
/// architectural restriction the sequence violates.
///
/// Expected O(len) time whatever the address values: one run-length
/// pass, one hashed pass that ranks the addresses of `R` and the O(len)
/// verification simulation. The ranking hash
/// ([`AddressSequence::rank_in_order`]) is one multiply and fold per
/// element, keyed per call from the standard library's `RandomState`:
/// the addresses may come from a client, who must not be able to pick
/// a set that collides and makes the pass quadratic.
///
/// # Errors
///
/// * [`SragError::EmptySequence`] for an empty input.
/// * [`SragError::DivCntViolation`] if consecutive repetition counts
///   differ (paper's single-`DivCnt` restriction).
/// * [`SragError::PassCntViolation`] if register workloads differ
///   (paper's single-`PassCnt` restriction).
/// * [`SragError::GroupingFailure`] if the §5 verification step finds
///   the grouped machine does not reproduce the sequence.
///
/// # Example
///
/// ```
/// use adgen_core::mapper::map_sequence;
/// use adgen_seq::AddressSequence;
///
/// # fn main() -> Result<(), adgen_core::SragError> {
/// let cols = AddressSequence::from_vec(vec![0,1,0,1,2,3,2,3,0,1,0,1,2,3,2,3]);
/// let m = map_sequence(&cols)?;
/// assert_eq!(m.spec.div_count, 1);
/// assert_eq!(m.spec.pass_count, 4);
/// assert_eq!(m.spec.num_registers(), 2);
/// # Ok(())
/// # }
/// ```
pub fn map_sequence(sequence: &AddressSequence) -> Result<Mapping, SragError> {
    if sequence.is_empty() {
        return Err(SragError::EmptySequence);
    }

    // Step 1: division counts D; all must be equal, giving dC.
    let runs = sequence.run_length_encode();
    let div_count = runs[0].1;
    {
        let mut position = 0usize;
        for &(address, len) in &runs {
            if len != div_count {
                return Err(SragError::DivCntViolation {
                    expected: div_count,
                    found: len,
                    address,
                    position,
                });
            }
            position += len;
        }
    }
    let division_counts: Vec<usize> = runs.iter().map(|&(_, l)| l).collect();

    // Steps 2–5: R, U/O/Z, the initial grouping and the register
    // segments behind P.
    let Grouping {
        reduced,
        unique: entries,
        groups,
        segments,
        num_lines,
        ..
    } = group_runs(&runs);
    let unique: Vec<u32> = entries.iter().map(|e| e.address).collect();
    let occurrences: Vec<usize> = entries.iter().map(|e| e.occurrences).collect();
    let first_positions: Vec<usize> = entries.iter().map(|e| e.first_position).collect();

    // Every segment must have the same length for a single PassCnt
    // to exist.
    let pass_count = segments[0].1;
    if let Some(&(register, found)) = segments.iter().find(|&&(_, len)| len != pass_count) {
        return Err(SragError::PassCntViolation {
            expected: pass_count,
            found,
            register,
        });
    }
    let pass_counts: Vec<usize> = vec![pass_count; groups.len()];
    // Each register's occurrences must be uniform for pC = Mᵢ ×
    // iterations to hold; a mixed register cannot produce its segment
    // by recirculation. Report as a grouping failure at the first
    // divergence found by verification below — but catch the obvious
    // arithmetic case early as a PassCnt violation.
    for (register, g) in groups.iter().enumerate() {
        if !pass_count.is_multiple_of(g.len()) {
            return Err(SragError::PassCntViolation {
                expected: pass_count,
                found: g.len(),
                register,
            });
        }
    }

    let spec = SragSpec::new(
        groups.into_iter().map(ShiftRegisterSpec::new).collect(),
        div_count,
        pass_count,
        num_lines,
    );

    // Step 6: verification — the grouped machine must reproduce R
    // (and hence I). Simulate one full period.
    let mut sim = SragSimulator::new(spec.clone());
    sim.reset();
    for (position, &expected) in reduced.iter().enumerate() {
        let generated = sim.current();
        if generated != expected {
            return Err(SragError::GroupingFailure {
                position,
                expected,
                generated,
            });
        }
        for _ in 0..div_count {
            sim.advance();
        }
    }

    Ok(Mapping {
        spec,
        division_counts,
        reduced,
        unique,
        occurrences,
        first_positions,
        pass_counts,
    })
}

/// Steps 2–5 of §5, which both mappers share, derived from the runs
/// of `I`.
pub(crate) struct Grouping {
    /// `R`: the reduced sequence.
    pub(crate) reduced: AddressSequence,
    /// `U`, `O` and `Z`, in first-appearance order; an entry's index is
    /// its address's rank.
    pub(crate) unique: Vec<UniqueEntry>,
    /// The rank of each element of `R`.
    pub(crate) ranks: Vec<usize>,
    /// The register (index into `groups`) of each rank.
    pub(crate) group_of: Vec<usize>,
    /// `S`: the initial grouping of lines onto shift registers.
    pub(crate) groups: Vec<Vec<u32>>,
    /// `R` run-length encoded at register granularity: one
    /// `(register, length)` entry per maximal run of consecutive
    /// elements of one group. The lengths are the paper's `P` — the
    /// reduced-sequence length a register produces per token visit.
    pub(crate) segments: Vec<(usize, usize)>,
    /// Select lines needed: the largest address plus one.
    pub(crate) num_lines: usize,
}

/// Derives [`Grouping`] from `runs` (nonempty, as returned by
/// [`AddressSequence::run_length_encode`]) in one hashed pass that
/// ranks each address of `R` by first appearance; everything after it
/// indexes dense tables by rank, so the cost is O(len R) expected
/// whatever the address values.
pub(crate) fn group_runs(runs: &[(u32, usize)]) -> Grouping {
    let reduced: AddressSequence = runs.iter().map(|&(a, _)| a).collect();
    let (unique, ranks) = reduced.rank_in_order();

    // Step 4: initial grouping. Consecutive unique addresses uₖ,uₖ₊₁
    // join the same register iff they occur equally often and first
    // appear at consecutive positions of R.
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut group_of = Vec::with_capacity(unique.len());
    for (k, e) in unique.iter().enumerate() {
        let joinable = k > 0
            && e.occurrences == unique[k - 1].occurrences
            && e.first_position == unique[k - 1].first_position + 1;
        match groups.last_mut() {
            Some(g) if joinable => g.push(e.address),
            _ => groups.push(vec![e.address]),
        }
        group_of.push(groups.len() - 1);
    }

    // Step 5: register segments, whose lengths give P.
    let mut segments: Vec<(usize, usize)> = Vec::new();
    for &rank in &ranks {
        let g = group_of[rank];
        match segments.last_mut() {
            Some((last, len)) if *last == g => *len += 1,
            _ => segments.push((g, 1)),
        }
    }

    let num_lines = unique
        .iter()
        .fold(0, |lines, e| lines.max(e.address as usize + 1));
    Grouping {
        reduced,
        unique,
        ranks,
        group_of,
        groups,
        segments,
        num_lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_as() -> AddressSequence {
        AddressSequence::from_vec(vec![0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3])
    }

    /// Paper Table 2 end to end.
    #[test]
    fn paper_table2_parameters() {
        let m = map_sequence(&row_as()).unwrap();
        assert_eq!(m.division_counts, vec![2; 8]);
        assert_eq!(m.reduced.as_slice(), &[0, 1, 0, 1, 2, 3, 2, 3]);
        assert_eq!(m.unique, vec![0, 1, 2, 3]);
        assert_eq!(m.occurrences, vec![2, 2, 2, 2]);
        assert_eq!(m.first_positions, vec![0, 1, 4, 5]);
        assert_eq!(m.pass_counts, vec![4, 4]);
        assert_eq!(m.spec.div_count, 2);
        assert_eq!(m.spec.pass_count, 4);
        let regs: Vec<&[u32]> = m.spec.registers.iter().map(|r| r.lines()).collect();
        assert_eq!(regs, vec![&[0u32, 1][..], &[2u32, 3][..]]);
    }

    #[test]
    fn mapped_machine_reproduces_input() {
        let s = row_as();
        let m = map_sequence(&s).unwrap();
        let mut sim = SragSimulator::new(m.spec);
        assert_eq!(sim.collect_sequence(s.len()), s);
    }

    #[test]
    fn incremental_maps_to_ring() {
        let s = AddressSequence::from_vec((0..16).collect());
        let m = map_sequence(&s).unwrap();
        assert_eq!(m.spec.num_registers(), 1);
        assert_eq!(m.spec.div_count, 1);
        assert_eq!(m.spec.pass_count, 16);
        assert_eq!(m.spec.num_flip_flops(), 16);
    }

    #[test]
    fn div_cnt_violation_reported_with_position() {
        // Paper's counter-example: 5,5,5,1,1,… has dC 3 for address 5
        // but 2 elsewhere.
        let s = AddressSequence::from_vec(vec![5, 5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]);
        let err = map_sequence(&s).unwrap_err();
        match err {
            SragError::DivCntViolation {
                expected,
                found,
                address,
                position,
            } => {
                assert_eq!(expected, 3);
                assert_eq!(found, 2);
                assert_eq!(address, 1);
                assert_eq!(position, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn pass_cnt_violation_reported() {
        // Paper's counter-example: S₀ would need pC 12, S₁ pC 8.
        let s = AddressSequence::from_vec(vec![
            5, 1, 4, 0, 5, 1, 4, 0, 5, 1, 4, 0, 3, 7, 6, 2, 3, 7, 6, 2,
        ]);
        let err = map_sequence(&s).unwrap_err();
        match err {
            SragError::PassCntViolation {
                expected, found, ..
            } => {
                assert_eq!(expected.max(found), 12);
                assert_eq!(expected.min(found), 8);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn grouping_failure_detected_by_verification() {
        // Paper's §5 example where initial grouping fails.
        let s = AddressSequence::from_vec(vec![1, 2, 3, 4, 3, 2, 1, 4]);
        let err = map_sequence(&s).unwrap_err();
        assert!(
            matches!(err, SragError::GroupingFailure { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn empty_sequence_rejected() {
        assert!(matches!(
            map_sequence(&AddressSequence::new()),
            Err(SragError::EmptySequence)
        ));
    }

    #[test]
    fn single_address_sequence() {
        let s = AddressSequence::from_vec(vec![3, 3, 3]);
        let m = map_sequence(&s).unwrap();
        assert_eq!(m.spec.div_count, 3);
        assert_eq!(m.spec.num_flip_flops(), 1);
        let mut sim = SragSimulator::new(m.spec);
        assert_eq!(sim.collect_sequence(6).as_slice(), &[3, 3, 3, 3, 3, 3]);
    }

    #[test]
    fn paper_fig5_sequences_map() {
        let a = AddressSequence::from_vec(vec![5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]);
        let m = map_sequence(&a).unwrap();
        assert_eq!(m.spec.div_count, 2);
        let b = AddressSequence::from_vec(vec![5, 1, 4, 0, 5, 1, 4, 0, 3, 7, 6, 2, 3, 7, 6, 2]);
        let m = map_sequence(&b).unwrap();
        assert_eq!(m.spec.div_count, 1);
        assert_eq!(m.spec.pass_count, 8);
        assert_eq!(m.spec.num_registers(), 2);
    }

    #[test]
    fn column_sequence_of_table1_maps() {
        let cols = AddressSequence::from_vec(vec![0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3]);
        let m = map_sequence(&cols).unwrap();
        assert_eq!(m.spec.div_count, 1);
        assert_eq!(m.spec.pass_count, 4);
        let mut sim = SragSimulator::new(m.spec);
        assert_eq!(sim.collect_sequence(cols.len()), cols);
    }

    #[test]
    fn rotate90_maps_with_descending_line_order() {
        use adgen_seq::{workloads, ArrayShape, Layout};
        // The SRAG does not care about numeric line order: the
        // rotate-90 scan's descending row stream maps onto a ring
        // whose flip-flops are wired 7,6,…,0.
        let shape = ArrayShape::new(8, 8);
        let lin = workloads::rotate90(shape);
        let (rows, cols) = lin.decompose(shape, Layout::RowMajor).unwrap();
        let m = map_sequence(&rows).unwrap();
        assert_eq!(m.spec.num_registers(), 1);
        assert_eq!(
            m.spec.registers[0].lines(),
            &[7, 6, 5, 4, 3, 2, 1, 0],
            "descending ring"
        );
        let mut sim = SragSimulator::new(m.spec);
        assert_eq!(sim.collect_sequence(rows.len()), rows);
        // Column stream maps too (each column held H cycles).
        let mc = map_sequence(&cols).unwrap();
        assert_eq!(mc.spec.div_count, 8);
    }

    #[test]
    fn sparse_labels_map_like_dense_ones() {
        use adgen_seq::{workloads, ArrayShape, Layout};
        // Only rank matters to the mapper: relabelling the rotate-90
        // streams of a 4×4 array into labels spread over the whole u32
        // range, u32::MAX included, keeps dC, pC and every register's
        // shape, with the registers holding the relabelled lines.
        let labels = [0, 7, 1 << 31, u32::MAX];
        let lines = |registers: &[ShiftRegisterSpec]| -> Vec<Vec<u32>> {
            registers.iter().map(|r| r.lines().to_vec()).collect()
        };
        let shape = ArrayShape::new(4, 4);
        let (rows, cols) = workloads::rotate90(shape)
            .decompose(shape, Layout::RowMajor)
            .unwrap();
        for dense in [rows, cols] {
            let sparse: AddressSequence = dense.iter().map(|&a| labels[a as usize]).collect();
            let d = map_sequence(&dense).unwrap();
            let s = map_sequence(&sparse).unwrap();
            assert_eq!(s.spec.div_count, d.spec.div_count);
            assert_eq!(s.spec.pass_count, d.spec.pass_count);
            assert_eq!(s.spec.num_lines, u32::MAX as usize + 1);
            let relabelled: Vec<Vec<u32>> = lines(&d.spec.registers)
                .into_iter()
                .map(|r| r.into_iter().map(|a| labels[a as usize]).collect())
                .collect();
            assert_eq!(lines(&s.spec.registers), relabelled);
            assert_eq!(s.occurrences, d.occurrences);
            assert_eq!(s.first_positions, d.first_positions);
            let relaxed = crate::multi_counter::map_sequence_relaxed(&sparse).unwrap();
            assert_eq!(lines(&relaxed.registers), relabelled);
            let mut sim = SragSimulator::new(s.spec);
            assert_eq!(sim.collect_sequence(sparse.len()), sparse);
        }
    }

    #[test]
    fn mapping_round_trip_property_examples() {
        use adgen_seq::{workloads, ArrayShape, Layout};
        // Every paper workload's row and column streams must map and
        // round-trip.
        let shape = ArrayShape::new(8, 8);
        let sequences = [
            workloads::motion_est_read(shape, 2, 2, 0),
            workloads::fifo(shape),
            workloads::zoom_by_two(shape),
            workloads::transpose_scan(shape),
        ];
        for lin in sequences {
            let (rows, cols) = lin.decompose(shape, Layout::RowMajor).unwrap();
            for dim in [rows, cols] {
                let m = map_sequence(&dim).expect("workload dimension must map");
                let mut sim = SragSimulator::new(m.spec);
                assert_eq!(sim.collect_sequence(dim.len()), dim);
            }
        }
    }
}
