//! The case families and their registry.
//!
//! A family is one module. Its `Case` struct is the family's input as
//! plain data — no handles, no closures — so it can be regenerated
//! from a seed, mutated by the shrinker, and printed as a
//! reproduction recipe. The struct implements [`Family`]: generator,
//! description, oracle check and shrink candidates. The only other
//! place that names a family is its row in the `registry!` call
//! below, which also holds the family's share of the first draw.

use adgen_exec::Prng;

use crate::oracle::BreakMode;
use crate::shrink::distinct;

pub(crate) mod affine;
pub(crate) mod bank;
pub(crate) mod cosim;
pub(crate) mod cube;
pub(crate) mod espresso;
pub(crate) mod fault_alarm;
pub(crate) mod frame_fuzz;
pub(crate) mod gate_level;
pub(crate) mod mapper;
pub(crate) mod sliced_vs_scalar;
pub(crate) mod srag_vs_cntag;
pub(crate) mod wide_cover;

/// Outcome of one oracle-matrix evaluation: `Ok` or a divergence
/// description.
pub(crate) type CheckResult = Result<(), String>;

/// Reports a library error as a divergence, prefixed with what
/// failed.
pub(crate) trait Context<T> {
    /// `Err(e)` becomes `Err("{what}: {e}")`.
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Context<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// What one case family provides.
pub(crate) trait Family: Sized {
    /// Stable kind label for reports and the determinism test.
    const KIND: &'static str;
    /// Draws a case; the registry has already spent the family draw.
    fn generate(rng: &mut Prng) -> Self;
    /// One-line description of the concrete input, for
    /// counterexample reports.
    fn describe(&self) -> String;
    /// Runs the case through the family's oracle matrix, returning
    /// the first divergence.
    fn check(&self, break_mode: BreakMode) -> CheckResult;
    /// Proposed simplifications, biggest cut first.
    fn candidates(&self) -> Vec<Self>;
}

/// Declares [`FuzzCase`] with one variant per family, and
/// [`generate_case`] picking a family by its range of the first
/// `0..100` draw.
macro_rules! registry {
    ($($draws:pat => $variant:ident($case:ty),)+) => {
        /// One generated fuzz input: a case of one family (the
        /// families are listed in the crate docs).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum FuzzCase {
            $($variant($case),)+
        }

        /// Generates the case for `case_seed`.
        ///
        /// The first draw selects the case family; everything after
        /// is family-specific. Weights favour the cheap algebraic
        /// families so a default run spends most of its time in the
        /// mapper and cube oracles while still exercising gate-level
        /// and co-simulation paths every few cases.
        pub fn generate_case(case_seed: u64) -> FuzzCase {
            let mut rng = Prng::new(case_seed);
            match rng.next_range(100) {
                $($draws => FuzzCase::$variant(<$case>::generate(&mut rng)),)+
            }
        }

        impl FuzzCase {
            /// Stable kind label for reports and the determinism test.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(FuzzCase::$variant(_) => <$case>::KIND,)+
                }
            }

            /// One-line description of the concrete input, for
            /// counterexample reports.
            pub fn describe(&self) -> String {
                match self {
                    $(FuzzCase::$variant(c) => c.describe(),)+
                }
            }

            /// Runs the case through its family's oracle matrix.
            pub(crate) fn check(&self, break_mode: BreakMode) -> CheckResult {
                match self {
                    $(FuzzCase::$variant(c) => c.check(break_mode),)+
                }
            }

            /// Its family's shrink candidates, each proposed once.
            pub(crate) fn candidates(&self) -> Vec<FuzzCase> {
                match self {
                    $(FuzzCase::$variant(c) => distinct(c.candidates())
                        .into_iter()
                        .map(FuzzCase::$variant)
                        .collect(),)+
                }
            }
        }
    };
}

registry! {
    0..=17 => Mapper(mapper::Case),
    18..=21 => BankVsReference(bank::Case),
    22..=27 => AffineVsReference(affine::Case),
    // Each frame-fuzz case boots a real server, so the family is
    // deliberately rare: ~2% of draws keeps a default run fast while
    // still hitting every attack shape across a few hundred cases.
    28..=29 => FrameFuzz(frame_fuzz::Case),
    30..=49 => Cube(cube::Case),
    50..=59 => Espresso(espresso::Case),
    60..=64 => WideCover(wide_cover::Case),
    65..=79 => SragVsCntag(srag_vs_cntag::Case),
    80..=86 => GateLevel(gate_level::Case),
    87..=91 => Cosim(cosim::Case),
    92..=95 => FaultAlarm(fault_alarm::Case),
    _ => SlicedVsScalar(sliced_vs_scalar::Case),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `describe()` plus the fields it leaves out, so the rendering
    /// names every field of the case.
    fn render(case: &FuzzCase) -> String {
        let extra = match case {
            FuzzCase::Cube(c) => format!(" minterms={:?}", c.minterms),
            FuzzCase::WideCover(c) => format!(" minterms={:?}", c.minterms),
            FuzzCase::FrameFuzz(c) => format!(" garbage={:?}", c.garbage),
            FuzzCase::FaultAlarm(c) => format!(" cycle={}", c.cycle),
            _ => String::new(),
        };
        format!("{}{extra}", case.describe())
    }

    /// FNV-1a over `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The first 200 cases of each CI seed.
    fn ci_stream() -> impl Iterator<Item = (u64, u64, FuzzCase)> {
        [1, 11, 17].into_iter().flat_map(|seed| {
            (0..200).map(move |i| (seed, i, generate_case(crate::case_seed(seed, i))))
        })
    }

    /// Pins the case stream and every shrink candidate list: for the
    /// first 200 cases of the three CI seeds, the family, a rendering
    /// naming every field, and a digest of the rendered candidates
    /// (deduplicated, first occurrence kept, so skipping a repeated
    /// candidate does not move it). Regenerate with
    /// `BLESS_GOLDEN=1 cargo test -p adgen-fuzz case_stream`.
    #[test]
    fn case_stream_matches_golden() {
        let mut actual = String::new();
        for (seed, index, case) in ci_stream() {
            let mut seen: Vec<String> = Vec::new();
            for c in case.candidates() {
                let r = render(&c);
                if !seen.contains(&r) {
                    seen.push(r);
                }
            }
            let digest = fnv1a(seen.join("\n").as_bytes());
            actual += &format!(
                "{seed} {index} {} | {} | {} candidates {digest:016x}\n",
                case.kind(),
                render(&case),
                seen.len()
            );
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/case_stream.txt");
        if std::env::var_os("BLESS_GOLDEN").is_some() {
            std::fs::write(path, &actual).expect("write golden");
            return;
        }
        let expected = std::fs::read_to_string(path).expect("read golden");
        assert!(
            expected == actual,
            "case stream diverged from {path}; if intentional, regenerate with \
             BLESS_GOLDEN=1 cargo test -p adgen-fuzz case_stream"
        );
    }

    /// No candidate list proposes the same case twice, nor the case
    /// itself.
    #[test]
    fn candidates_are_distinct() {
        for (seed, index, case) in ci_stream() {
            let cands = case.candidates();
            assert!(!cands.contains(&case), "seed {seed} case {index}");
            assert_eq!(distinct(cands.clone()), cands, "seed {seed} case {index}");
        }
    }
}
