//! The fuzz loop: deterministic fan-out, outcome collection,
//! shrinking and reproduction lines.
//!
//! Case `i` of a run with master seed `S` is generated from
//! `case_seed(S, i)` — a pure splitmix64 derivation — and checked
//! independently of every other case, so the work fans out across
//! cores with [`adgen_exec::par_map`] while outcomes stay
//! byte-identical at any `--jobs` value.

use std::collections::BTreeMap;

use adgen_exec::{par_map, splitmix64};
use adgen_obs as obs;

use crate::families::generate_case;
use crate::oracle::BreakMode;
use crate::shrink::shrink;

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of cases.
    pub iters: u64,
    /// Master seed; every case seed derives from it.
    pub seed: u64,
    /// Worker threads (`0` = all cores). Purely a wall-clock knob.
    pub jobs: usize,
    /// Dev-only oracle corruption (see [`BreakMode`]).
    pub break_mode: BreakMode,
    /// Restrict the run to a single case index (the `CASE=` part of a
    /// reproduction line).
    pub only_case: Option<u64>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 200,
            seed: 1,
            jobs: 0,
            break_mode: BreakMode::None,
            only_case: None,
        }
    }
}

/// The seed for case `index` of master seed `seed` — the same
/// derivation as [`adgen_exec::Prng::for_stream`], exposed so a
/// single case can be regenerated from its printed reproduction
/// line.
pub fn case_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed) ^ splitmix64(index.wrapping_mul(0xa076_1d64_78bd_642f))
}

/// Everything recorded about one failing case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureInfo {
    /// Divergence reported on the originally generated case.
    pub detail: String,
    /// The shrunk minimal counterexample.
    pub minimal: String,
    /// Divergence reported on the minimal counterexample.
    pub minimal_detail: String,
}

/// Outcome of one case, pass or fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Case index within the run.
    pub index: u64,
    /// Derived case seed.
    pub case_seed: u64,
    /// Case family label.
    pub kind: &'static str,
    /// Human-readable description of the generated input.
    pub input: String,
    /// Failure record, `None` when every oracle agreed.
    pub failure: Option<FailureInfo>,
}

impl CaseOutcome {
    /// Whether every oracle agreed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Aggregated results of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// The configuration the run used.
    pub seed: u64,
    /// Number of cases executed.
    pub iters: u64,
    /// The oracle corruption the run used.
    pub break_mode: BreakMode,
    /// Per-case outcomes, in case-index order.
    pub outcomes: Vec<CaseOutcome>,
}

impl FuzzReport {
    /// Outcomes that diverged.
    pub fn failures(&self) -> impl Iterator<Item = &CaseOutcome> {
        self.outcomes.iter().filter(|o| !o.passed())
    }

    /// `(kind, executed, failed)` per case family, sorted by kind.
    pub fn kind_summary(&self) -> Vec<(&'static str, usize, usize)> {
        let mut rows: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for o in &self.outcomes {
            let row = rows.entry(o.kind).or_default();
            row.0 += 1;
            row.1 += usize::from(!o.passed());
        }
        rows.into_iter().map(|(k, (n, f))| (k, n, f)).collect()
    }

    /// The one-line reproduction command for a failing outcome,
    /// including the oracle corruption that produced it.
    pub fn repro_line(&self, outcome: &CaseOutcome) -> String {
        let mut line = format!(
            "SEED={} CASE={} reproduce: cargo run -p adgen-fuzz -- --seed {} --iters {} --case {}",
            self.seed, outcome.index, self.seed, self.iters, outcome.index
        );
        if let Some(mode) = self.break_mode.cli_value() {
            line.push_str(" --dev-break ");
            line.push_str(mode);
        }
        line
    }
}

/// Runs the fuzzer.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let _span = obs::span_arg("fuzz.run", config.iters);
    let indices: Vec<u64> = match config.only_case {
        Some(i) => vec![i],
        None => (0..config.iters).collect(),
    };
    let break_mode = config.break_mode;
    let outcomes = par_map(&indices, config.jobs, |_, &index| {
        obs::add(obs::Ctr::FuzzCases, 1);
        let cs = case_seed(config.seed, index);
        let case = generate_case(cs);
        let failure = match case.check(break_mode) {
            Ok(()) => None,
            Err(detail) => {
                obs::add(obs::Ctr::FuzzFailures, 1);
                let minimal = {
                    let _shrink = obs::span_arg("fuzz.shrink", index);
                    shrink(&case, |candidate| {
                        obs::add(obs::Ctr::FuzzShrinkSteps, 1);
                        candidate.check(break_mode).is_err()
                    })
                };
                let minimal_detail = minimal
                    .check(break_mode)
                    .expect_err("shrinker only keeps failing candidates");
                Some(FailureInfo {
                    detail,
                    minimal: format!("{} case: {}", minimal.kind(), minimal.describe()),
                    minimal_detail,
                })
            }
        };
        CaseOutcome {
            index,
            case_seed: cs,
            kind: case.kind(),
            input: case.describe(),
            failure,
        }
    });
    FuzzReport {
        seed: config.seed,
        iters: config.iters,
        break_mode,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_pure_and_index_sensitive() {
        assert_eq!(case_seed(1, 0), case_seed(1, 0));
        assert_ne!(case_seed(1, 0), case_seed(1, 1));
        assert_ne!(case_seed(1, 0), case_seed(2, 0));
    }

    #[test]
    fn honest_oracles_agree_on_a_smoke_run() {
        let report = run_fuzz(&FuzzConfig {
            iters: 40,
            seed: 7,
            jobs: 1,
            ..FuzzConfig::default()
        });
        assert_eq!(report.outcomes.len(), 40);
        if let Some(o) = report.failures().next() {
            panic!("case {} ({}) failed: {:?}", o.index, o.input, o.failure);
        };
    }

    #[test]
    fn broken_mapper_oracle_is_caught_and_shrunk() {
        let report = run_fuzz(&FuzzConfig {
            iters: 60,
            seed: 1,
            jobs: 1,
            break_mode: BreakMode::Mapper,
            ..FuzzConfig::default()
        });
        let failure = report
            .failures()
            .find(|o| o.kind == "mapper")
            .expect("broken oracle must be detected within 60 cases");
        let info = failure.failure.as_ref().expect("failure info recorded");
        // The minimal counterexample for "runs of >= 3 misclassified"
        // is a bare triple.
        assert!(
            info.minimal.contains("sequence"),
            "unexpected minimal case: {}",
            info.minimal
        );
        let repro = report.repro_line(failure);
        assert!(repro.contains("SEED=1"));
        assert!(repro.contains(&format!("--case {}", failure.index)));
    }

    /// The configuration a printed reproduction line asks for.
    fn config_of(repro: &str) -> FuzzConfig {
        let args = repro
            .split_once("cargo run -p adgen-fuzz -- ")
            .expect("a cargo command")
            .1;
        let mut config = FuzzConfig {
            jobs: 1,
            ..FuzzConfig::default()
        };
        let mut words = args.split_whitespace();
        while let (Some(flag), Some(value)) = (words.next(), words.next()) {
            match flag {
                "--seed" => config.seed = value.parse().unwrap(),
                "--iters" => config.iters = value.parse().unwrap(),
                "--case" => config.only_case = Some(value.parse().unwrap()),
                "--dev-break" => config.break_mode = BreakMode::parse(value).unwrap(),
                other => panic!("unexpected flag {other} in {repro}"),
            }
        }
        config
    }

    #[test]
    fn a_printed_reproduction_line_reproduces_its_failure() {
        for (mode, iters) in [(BreakMode::Mapper, 60), (BreakMode::Cube, 200)] {
            let report = run_fuzz(&FuzzConfig {
                iters,
                seed: 1,
                jobs: 1,
                break_mode: mode,
                ..FuzzConfig::default()
            });
            let failure = report.failures().next().expect("a broken oracle fails");
            let repro = report.repro_line(failure);
            let config = config_of(&repro);
            assert_eq!(config.break_mode, mode, "{repro}");
            let again = run_fuzz(&config);
            assert_eq!(again.outcomes, vec![failure.clone()], "{repro}");
            assert_eq!(again.repro_line(&again.outcomes[0]), repro);
        }
    }

    #[test]
    fn single_case_mode_matches_full_run() {
        let full = run_fuzz(&FuzzConfig {
            iters: 20,
            seed: 3,
            jobs: 1,
            ..FuzzConfig::default()
        });
        let one = run_fuzz(&FuzzConfig {
            iters: 20,
            seed: 3,
            jobs: 1,
            only_case: Some(11),
            ..FuzzConfig::default()
        });
        assert_eq!(one.outcomes.len(), 1);
        assert_eq!(one.outcomes[0], full.outcomes[11]);
    }
}
