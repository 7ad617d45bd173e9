//! `espresso`: random on/dc minterm sets → espresso minimization
//! checked exhaustively against truth-table semantics, and the lazy
//! off-set entry checked against the explicit one on the function and
//! on its complement.

use adgen_exec::Prng;
use adgen_synth::espresso::{
    is_correct, minimize, minimize_with_lazy_off_budgeted, minimize_with_off_budgeted, EffortBudget,
};
use adgen_synth::Cover;

use super::{BreakMode, CheckResult, Family};
use crate::oracle::OracleCube;
use crate::shrink::{drop_each, halves};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Number of input variables (small enough to enumerate).
    pub(crate) n: usize,
    /// On-set minterms.
    pub(crate) on: Vec<u64>,
    /// Don't-care minterms (disjoint from `on`).
    pub(crate) dc: Vec<u64>,
}

impl Family for Case {
    const KIND: &'static str = "espresso";

    fn generate(rng: &mut Prng) -> Self {
        let n = rng.next_in(1, 9) as usize;
        let mut on = Vec::new();
        let mut dc = Vec::new();
        // Density knobs: sparse, dense and near-tautological functions.
        let on_den = rng.next_in(1, 9);
        let dc_den = rng.next_range(4);
        for m in 0..1u64 << n {
            if rng.next_range(10) < on_den {
                on.push(m);
            } else if rng.next_range(10) < dc_den {
                dc.push(m);
            }
        }
        Case { n, on, dc }
    }

    fn describe(&self) -> String {
        format!("{} vars, on={:?} dc={:?}", self.n, self.on, self.dc)
    }

    fn check(&self, _: BreakMode) -> CheckResult {
        let Case { n, on, dc } = self;
        let on_cover = Cover::from_minterms(*n, on);
        let dc_cover = Cover::from_minterms(*n, dc);
        let result = minimize(on_cover.clone(), dc_cover.clone());

        // Oracle view of the result: unpack each cube through `get`
        // (itself differentially tested) and evaluate naively.
        let unpacked: Vec<OracleCube> = result
            .cubes()
            .iter()
            .map(|c| OracleCube::new((0..*n).map(|v| c.get(v)).collect()))
            .collect();
        for m in 0..(1u64 << n) {
            let res = unpacked.iter().any(|c| c.contains_minterm(m));
            let packed_res = result.eval(m);
            if res != packed_res {
                return Err(format!(
                    "Cover::eval({m}) disagrees with naive evaluation: {packed_res} vs {res}"
                ));
            }
            if on.contains(&m) && !res {
                return Err(format!("minimized cover drops on-set minterm {m}"));
            }
            if res && !on.contains(&m) && !dc.contains(&m) {
                return Err(format!("minimized cover includes off-set minterm {m}"));
            }
        }
        if !is_correct(&result, &on_cover, &dc_cover) {
            return Err("espresso::is_correct rejects a truth-table-correct result".into());
        }
        // The function and its complement (on and off swapped) usually
        // fall on opposite sides of the rule that picks the loop's
        // off-set, so the lazy entry runs both its routes.
        let off: Vec<u64> = (0..1u64 << n)
            .filter(|m| !on.contains(m) && !dc.contains(m))
            .collect();
        for (label, on, off) in [("function", on, &off), ("complement", &off, on)] {
            lazy_matches_explicit(*n, on, dc, off).map_err(|e| format!("{label}: {e}"))?;
        }
        Ok(())
    }

    /// No don't-cares, half of them, half the on-set, one variable
    /// fewer (minterms masked into the smaller space), then single
    /// on-set minterms dropped.
    fn candidates(&self) -> Vec<Self> {
        let Case { n, on, dc } = self;
        let n = *n;
        let with_on = |on: Vec<u64>| Case { on, ..self.clone() };
        let mut out = Vec::new();
        if !dc.is_empty() {
            for dc in [Vec::new(), dc[..dc.len() / 2].to_vec()] {
                out.push(Case { dc, ..self.clone() });
            }
        }
        out.extend(halves(on).into_iter().map(with_on));
        if n > 1 {
            let mask = (1u64 << (n - 1)) - 1;
            let masked = |v: &[u64]| {
                let mut v: Vec<u64> = v.iter().map(|m| m & mask).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            // Masking can fold an on-set minterm onto a don't-care;
            // the on-set keeps it, so the cut stays in contract.
            let on = masked(on);
            let dc = masked(dc).into_iter().filter(|m| !on.contains(m)).collect();
            out.push(Case { n: n - 1, on, dc });
        }
        out.extend(drop_each(on, 24).into_iter().map(with_on));
        out
    }
}

/// The lazy off-set entry must return exactly what the explicit one
/// returns for the same off-set — cover, steps and truncation — at an
/// unlimited and at a truncating budget.
fn lazy_matches_explicit(n: usize, on: &[u64], dc: &[u64], off: &[u64]) -> CheckResult {
    let cover = |minterms: &[u64]| Cover::from_minterms(n, minterms);
    for budget in [EffortBudget::UNLIMITED, EffortBudget::steps(64)] {
        let want = minimize_with_off_budgeted(cover(on), cover(dc), cover(off), budget);
        let got =
            minimize_with_lazy_off_budgeted(cover(on), cover(dc), off.len(), || cover(off), budget);
        if (&got.cover, got.steps, got.truncated) != (&want.cover, want.steps, want.truncated) {
            return Err(format!(
                "lazy off-set entry returned {:?} ({} steps, truncated {}) where the explicit \
                 one returned {:?} ({} steps, truncated {}) under {budget:?}",
                got.cover, got.steps, got.truncated, want.cover, want.steps, want.truncated
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every candidate keeps the family's contract, on ∩ dc = ∅: a
    /// shrink that left it would end on a spurious counterexample.
    #[test]
    fn candidates_keep_on_and_dc_disjoint() {
        let folded = Case {
            n: 2,
            on: vec![2],
            dc: vec![0],
        };
        let drawn = (0..500).map(|seed| Case::generate(&mut Prng::new(seed)));
        for case in drawn.chain([folded.clone()]) {
            for c in case.candidates() {
                assert!(
                    c.on.iter().all(|m| !c.dc.contains(m)),
                    "{} shrinks to {}",
                    case.describe(),
                    c.describe()
                );
            }
        }
        // The folded cut is an honest function, so it passes its check.
        for c in folded.candidates() {
            assert_eq!(c.check(BreakMode::None), Ok(()), "{}", c.describe());
        }
    }
}
