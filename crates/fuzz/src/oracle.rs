//! Independent reference implementations ("oracles") the fuzzer
//! cross-checks the production code against.
//!
//! Each oracle re-derives its answer in the most naive style possible
//! — direct scans, `Vec<Tri>` literal vectors, analytic arithmetic
//! instead of state machines — precisely so that a shared bug between
//! implementation and oracle is unlikely. The SRAG restriction
//! checker follows paper §5 step by step; the cube oracle is the
//! unpacked representation the bit-packed kernel replaced.

use std::fmt;

use adgen_synth::Tri;

/// A literal code for shrinkable cube storage: 0 = Zero, 1 = One,
/// 2 = DontCare. Kept as `u8` so cube cases stay `Eq + Clone` plain
/// data.
pub type LitCode = u8;

/// Dev-only switches that deliberately corrupt one oracle, used to
/// demonstrate end-to-end failure reporting and shrinking. Never
/// enabled in a real run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakMode {
    /// Oracles answer honestly.
    #[default]
    None,
    /// The naive mapper checker misclassifies any sequence containing
    /// a run of three or more equal addresses as a `DivCnt`
    /// violation.
    Mapper,
    /// The cube oracle denies `covers` whenever the covering cube has
    /// at least one don't-care literal.
    Cube,
}

impl BreakMode {
    /// Parses the `--dev-break` CLI value.
    pub fn parse(s: &str) -> Option<BreakMode> {
        [BreakMode::Mapper, BreakMode::Cube]
            .into_iter()
            .find(|m| m.cli_value() == Some(s))
    }

    /// The `--dev-break` value selecting this mode; `None` for honest
    /// oracles.
    pub fn cli_value(self) -> Option<&'static str> {
        match self {
            BreakMode::None => None,
            BreakMode::Mapper => Some("mapper"),
            BreakMode::Cube => Some("cube"),
        }
    }
}

/// The naive checker's verdict on a raw 1-D sequence, mirroring the
/// mapper's error classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NaiveVerdict {
    /// The sequence satisfies every SRAG restriction; the derived
    /// parameters are attached for cross-checking.
    Accept {
        /// Common division count `dC`.
        div_count: usize,
        /// Common pass count `pC`.
        pass_count: usize,
        /// The line grouping, in token order.
        groups: Vec<Vec<u32>>,
    },
    /// Empty input.
    Empty,
    /// Run lengths are not uniform.
    DivCnt,
    /// Register workloads are not uniform (or indivisible).
    PassCnt,
    /// The grouped machine does not reproduce the sequence.
    Grouping,
}

/// Brute-force SRAG restriction checker: a from-scratch rederivation
/// of paper §5 over plain slices. Where the mapper verifies its
/// grouping by *simulating* the token machine, this checker
/// reconstructs the expected reduced stream *analytically* (register
/// visits in round-robin order, each emitting `pC` recirculated
/// elements), so agreement between the two is a genuine two-sided
/// check.
pub fn naive_verdict(seq: &[u32], break_mode: BreakMode) -> NaiveVerdict {
    if seq.is_empty() {
        return NaiveVerdict::Empty;
    }

    // Run-length encode by direct scan.
    let mut runs: Vec<(u32, usize)> = Vec::new();
    for &a in seq {
        match runs.last_mut() {
            Some((addr, len)) if *addr == a => *len += 1,
            _ => runs.push((a, 1)),
        }
    }
    let div_count = runs[0].1;
    if runs.iter().any(|&(_, len)| len != div_count) {
        return NaiveVerdict::DivCnt;
    }
    if break_mode == BreakMode::Mapper && div_count >= 3 {
        // Deliberately wrong: uniform long runs are perfectly legal.
        return NaiveVerdict::DivCnt;
    }

    // Reduced sequence, unique addresses, occurrences, first
    // positions.
    let reduced: Vec<u32> = runs.iter().map(|&(a, _)| a).collect();
    let mut unique: Vec<u32> = Vec::new();
    let mut occurrences: Vec<usize> = Vec::new();
    let mut first_positions: Vec<usize> = Vec::new();
    for (pos, &a) in reduced.iter().enumerate() {
        if let Some(k) = unique.iter().position(|&u| u == a) {
            occurrences[k] += 1;
        } else {
            unique.push(a);
            occurrences.push(1);
            first_positions.push(pos);
        }
    }

    // Initial grouping: uₖ joins uₖ₋₁'s register iff equally frequent
    // and first seen at the immediately following reduced position.
    let mut groups: Vec<Vec<u32>> = vec![vec![unique[0]]];
    for k in 1..unique.len() {
        if occurrences[k] == occurrences[k - 1] && first_positions[k] == first_positions[k - 1] + 1
        {
            groups.last_mut().expect("nonempty").push(unique[k]);
        } else {
            groups.push(vec![unique[k]]);
        }
    }

    // Pass counts: run-length encode the reduced stream at register
    // granularity; all segment lengths must agree and divide evenly
    // into whole recirculation laps.
    let which_group = |a: u32| -> usize {
        groups
            .iter()
            .position(|g| g.contains(&a))
            .expect("every address was grouped")
    };
    let mut segments: Vec<usize> = Vec::new();
    let mut last_group = usize::MAX;
    for &a in &reduced {
        let g = which_group(a);
        if g == last_group {
            *segments.last_mut().expect("segment open") += 1;
        } else {
            segments.push(1);
            last_group = g;
        }
    }
    let pass_count = segments[0];
    if segments.iter().any(|&len| len != pass_count) {
        return NaiveVerdict::PassCnt;
    }
    if groups.iter().any(|g| !pass_count.is_multiple_of(g.len())) {
        return NaiveVerdict::PassCnt;
    }

    // Verification, analytically: visit registers round-robin; each
    // visit emits pass_count elements by cycling the register's
    // lines.
    let mut expected: Vec<u32> = Vec::with_capacity(reduced.len());
    let mut visit = 0usize;
    while expected.len() < reduced.len() {
        let g = &groups[visit % groups.len()];
        for i in 0..pass_count {
            if expected.len() == reduced.len() {
                break;
            }
            expected.push(g[i % g.len()]);
        }
        visit += 1;
    }
    if expected != reduced {
        return NaiveVerdict::Grouping;
    }

    NaiveVerdict::Accept {
        div_count,
        pass_count,
        groups,
    }
}

/// Reference cube over explicit `Tri` literals — the unpacked
/// representation the bit-packed `Cube` kernel replaced, re-stated
/// here as the differential oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleCube {
    lits: Vec<Tri>,
}

/// Decodes a [`LitCode`] vector into `Tri` literals.
pub fn decode_lits(codes: &[LitCode]) -> Vec<Tri> {
    codes
        .iter()
        .map(|&c| match c {
            0 => Tri::Zero,
            1 => Tri::One,
            _ => Tri::DontCare,
        })
        .collect()
}

impl OracleCube {
    /// Builds the oracle cube from its literals.
    pub fn new(lits: Vec<Tri>) -> Self {
        OracleCube { lits }
    }

    /// Builds the oracle cube from literal codes.
    pub fn from_codes(codes: &[LitCode]) -> Self {
        OracleCube::new(decode_lits(codes))
    }

    /// The literal vector.
    pub fn lits(&self) -> &[Tri] {
        &self.lits
    }

    /// Number of bound literals.
    pub fn num_literals(&self) -> usize {
        self.lits.iter().filter(|&&l| l != Tri::DontCare).count()
    }

    /// Minterm membership by per-variable scan.
    pub fn contains_minterm(&self, minterm: u64) -> bool {
        self.lits.iter().enumerate().all(|(i, &l)| match l {
            Tri::DontCare => true,
            Tri::One => i < 64 && (minterm >> i) & 1 == 1,
            Tri::Zero => i >= 64 || (minterm >> i) & 1 == 0,
        })
    }

    /// Whether every minterm of `other` is in `self`.
    pub fn covers(&self, other: &OracleCube, break_mode: BreakMode) -> bool {
        if break_mode == BreakMode::Cube && self.lits.contains(&Tri::DontCare) {
            // Deliberately wrong: don't-cares are exactly what makes
            // covering possible.
            return false;
        }
        self.lits
            .iter()
            .zip(&other.lits)
            .all(|(&s, &o)| s == Tri::DontCare || s == o)
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &OracleCube) -> Option<OracleCube> {
        let mut lits = Vec::with_capacity(self.lits.len());
        for (&s, &o) in self.lits.iter().zip(&other.lits) {
            lits.push(match (s, o) {
                (Tri::DontCare, x) | (x, Tri::DontCare) => x,
                (a, b) if a == b => a,
                _ => return None,
            });
        }
        Some(OracleCube { lits })
    }

    /// Single-variable cofactor.
    pub fn cofactor(&self, var: usize, value: bool) -> Option<OracleCube> {
        match (self.lits[var], value) {
            (Tri::One, false) | (Tri::Zero, true) => None,
            _ => {
                let mut c = self.clone();
                c.lits[var] = Tri::DontCare;
                Some(c)
            }
        }
    }

    /// Cube cofactor: free every variable `other` binds; `None` when
    /// disjoint.
    pub fn cofactor_cube(&self, other: &OracleCube) -> Option<OracleCube> {
        self.intersect(other)?;
        let mut c = self.clone();
        for (i, &o) in other.lits.iter().enumerate() {
            if o != Tri::DontCare {
                c.lits[i] = Tri::DontCare;
            }
        }
        Some(c)
    }

    /// Quine–McCluskey sibling merge: exact union when the cubes
    /// differ in exactly one variable bound to opposite values.
    pub fn sibling_merge(&self, other: &OracleCube) -> Option<OracleCube> {
        let mut diff = None;
        for (i, (&s, &o)) in self.lits.iter().zip(&other.lits).enumerate() {
            if s == o {
                continue;
            }
            let opposite = matches!((s, o), (Tri::Zero, Tri::One) | (Tri::One, Tri::Zero));
            if !opposite || diff.is_some() {
                return None;
            }
            diff = Some(i);
        }
        let var = diff?;
        let mut c = self.clone();
        c.lits[var] = Tri::DontCare;
        Some(c)
    }
}

/// PLA-style rendering: most significant variable first, matching
/// `Cube`'s `Display`.
impl fmt::Display for OracleCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.lits.iter().rev().try_for_each(|l| {
            f.write_str(match l {
                Tri::Zero => "0",
                Tri::One => "1",
                Tri::DontCare => "-",
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_accepts_paper_table2() {
        let v = naive_verdict(
            &[0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3],
            BreakMode::None,
        );
        match v {
            NaiveVerdict::Accept {
                div_count,
                pass_count,
                groups,
            } => {
                assert_eq!(div_count, 2);
                assert_eq!(pass_count, 4);
                assert_eq!(groups, vec![vec![0, 1], vec![2, 3]]);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn naive_rejects_paper_counterexamples() {
        assert_eq!(
            naive_verdict(
                &[5, 5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2],
                BreakMode::None
            ),
            NaiveVerdict::DivCnt
        );
        assert_eq!(
            naive_verdict(
                &[5, 1, 4, 0, 5, 1, 4, 0, 5, 1, 4, 0, 3, 7, 6, 2, 3, 7, 6, 2],
                BreakMode::None
            ),
            NaiveVerdict::PassCnt
        );
        assert_eq!(
            naive_verdict(&[1, 2, 3, 4, 3, 2, 1, 4], BreakMode::None),
            NaiveVerdict::Grouping
        );
        assert_eq!(naive_verdict(&[], BreakMode::None), NaiveVerdict::Empty);
    }

    #[test]
    fn broken_mode_misclassifies_long_runs() {
        assert_eq!(
            naive_verdict(&[3, 3, 3], BreakMode::Mapper),
            NaiveVerdict::DivCnt
        );
        assert!(matches!(
            naive_verdict(&[3, 3, 3], BreakMode::None),
            NaiveVerdict::Accept { .. }
        ));
    }
}
