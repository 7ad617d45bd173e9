//! `mapper`: raw 1-D sequence → mapper accept/reject vs. the
//! brute-force restriction checker, plus round-trip on accept.

use std::collections::{HashMap, HashSet};

use adgen_core::arch::{ShiftRegisterSpec, SragSpec};
use adgen_core::mapper::{map_sequence, Mapping};
use adgen_core::sim::SragSimulator;
use adgen_core::SragError;
use adgen_exec::{splitmix64, Prng};
use adgen_seq::{AddressGenerator, AddressSequence};

use super::{BreakMode, CheckResult, Family};
use crate::draw::{boundary_sequence, mutated, noise_sequence, srag_realizable_sequence};
use crate::oracle::{naive_verdict, NaiveVerdict};
use crate::shrink::sequence_candidates;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The raw address sequence under test.
    pub(crate) seq: Vec<u32>,
}

impl Family for Case {
    const KIND: &'static str = "mapper";

    /// Mapper cases mix four strategies: sequences synthesized from a
    /// random (valid) SRAG architecture, boundary shapes, mutations of
    /// valid sequences (which mostly violate a restriction), and raw
    /// noise.
    fn generate(rng: &mut Prng) -> Self {
        let seq = match rng.next_range(10) {
            0..=3 => srag_realizable_sequence(rng),
            4 => boundary_sequence(rng),
            5..=7 => {
                let s = srag_realizable_sequence(rng);
                mutated(rng, s)
            }
            _ => noise_sequence(rng),
        };
        Case { seq }
    }

    fn describe(&self) -> String {
        format!("sequence {:?}", self.seq)
    }

    fn check(&self, break_mode: BreakMode) -> CheckResult {
        let seq = &self.seq[..];
        let input = AddressSequence::from_vec(seq.to_vec());
        let mapped = map_sequence(&input);
        check_relabelled(seq, &mapped)?;
        let naive = naive_verdict(seq, break_mode);
        match (&mapped, &naive) {
            (
                Ok(m),
                NaiveVerdict::Accept {
                    div_count,
                    pass_count,
                    groups,
                },
            ) => {
                if m.spec.div_count != *div_count {
                    return Err(format!(
                        "dC disagrees: mapper {} vs brute-force {div_count}",
                        m.spec.div_count
                    ));
                }
                if m.spec.pass_count != *pass_count {
                    return Err(format!(
                        "pC disagrees: mapper {} vs brute-force {pass_count}",
                        m.spec.pass_count
                    ));
                }
                let mapper_groups: Vec<Vec<u32>> = m
                    .spec
                    .registers
                    .iter()
                    .map(|r| r.lines().to_vec())
                    .collect();
                if &mapper_groups != groups {
                    return Err(format!(
                        "grouping disagrees: mapper {mapper_groups:?} vs brute-force {groups:?}"
                    ));
                }
                // Round trip: the accepted architecture must regenerate
                // the input exactly, and continue periodically.
                let mut sim = SragSimulator::new(m.spec.clone());
                let got = sim.collect_sequence(seq.len());
                if got.as_slice() != seq {
                    return Err(format!(
                        "accepted architecture does not reproduce input: got {:?}",
                        got.as_slice()
                    ));
                }
                let period = m.spec.period();
                if period <= 256 {
                    let two = sim.collect_sequence(2 * period);
                    if two.as_slice()[..period] != two.as_slice()[period..] {
                        return Err(format!("accepted architecture is not {period}-periodic"));
                    }
                }
                Ok(())
            }
            (Err(SragError::EmptySequence), NaiveVerdict::Empty) => Ok(()),
            (Err(SragError::DivCntViolation { .. }), NaiveVerdict::DivCnt) => Ok(()),
            (Err(SragError::PassCntViolation { .. }), NaiveVerdict::PassCnt) => Ok(()),
            (Err(SragError::GroupingFailure { .. }), NaiveVerdict::Grouping) => Ok(()),
            _ => Err(format!(
                "verdict disagrees: mapper {:?} vs brute-force {:?}",
                mapped.as_ref().map(|m| m.spec.to_string()),
                naive
            )),
        }
    }

    fn candidates(&self) -> Vec<Self> {
        sequence_candidates(&self.seq)
            .into_iter()
            .map(|seq| Case { seq })
            .collect()
    }
}

/// The mapper sees an address only through its first-appearance rank,
/// so relabelling the case through an injective map into the full
/// `u32` range must relabel its mapping (or its error) and change
/// nothing else. The first address becomes `u32::MAX`; the rest draw
/// from a PRNG seeded by the case, so a shrunk case replays its own
/// relabelling.
fn check_relabelled(seq: &[u32], mapped: &Result<Mapping, SragError>) -> CheckResult {
    let mut rng = Prng::new(seq.iter().fold(0, |h, &a| splitmix64(h ^ u64::from(a))));
    let mut labels: HashMap<u32, u32> = HashMap::new();
    let mut used: HashSet<u32> = HashSet::new();
    for &a in seq {
        labels.entry(a).or_insert_with(|| {
            let mut label = u32::MAX;
            while !used.insert(label) {
                label = rng.next_u32();
            }
            label
        });
    }
    let relabel = |a: u32| labels[&a];
    let relabelled: AddressSequence = seq.iter().map(|&a| relabel(a)).collect();
    let expected = match mapped {
        Ok(m) => Ok(Mapping {
            spec: SragSpec::new(
                m.spec
                    .registers
                    .iter()
                    .map(|r| {
                        ShiftRegisterSpec::new(r.lines().iter().map(|&a| relabel(a)).collect())
                    })
                    .collect(),
                m.spec.div_count,
                m.spec.pass_count,
                relabelled.iter().fold(0, |n, &a| n.max(a as usize + 1)),
            ),
            division_counts: m.division_counts.clone(),
            reduced: m.reduced.iter().map(|&a| relabel(a)).collect(),
            unique: m.unique.iter().map(|&a| relabel(a)).collect(),
            occurrences: m.occurrences.clone(),
            first_positions: m.first_positions.clone(),
            pass_counts: m.pass_counts.clone(),
        }),
        Err(SragError::DivCntViolation {
            expected,
            found,
            address,
            position,
        }) => Err(SragError::DivCntViolation {
            expected: *expected,
            found: *found,
            address: relabel(*address),
            position: *position,
        }),
        Err(SragError::GroupingFailure {
            position,
            expected,
            generated,
        }) => Err(SragError::GroupingFailure {
            position: *position,
            expected: relabel(*expected),
            generated: relabel(*generated),
        }),
        Err(e) => Err(e.clone()),
    };
    let got = map_sequence(&relabelled);
    if got != expected {
        return Err(format!(
            "relabelling changed the mapping: {relabelled} gave {got:?}, expected {expected:?}"
        ));
    }
    Ok(())
}
