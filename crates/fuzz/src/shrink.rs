//! Greedy counterexample minimization, and the shrink combinators the
//! families build their candidate lists from.
//!
//! On a failing case the runner calls [`shrink`] with a predicate
//! that re-runs the oracle matrix; any candidate that *still fails*
//! replaces the current case and the search restarts. Candidates are
//! ordered biggest-cut-first (halving before point deltas), so the
//! loop converges in a few rounds; the total number of predicate
//! evaluations is bounded.

use crate::families::FuzzCase;

/// Upper bound on predicate evaluations across the whole shrink.
const MAX_EVALS: usize = 2000;

/// Minimizes `case` under `still_fails`, returning the smallest
/// failing case found (possibly the input itself).
pub(crate) fn shrink(case: &FuzzCase, still_fails: impl Fn(&FuzzCase) -> bool) -> FuzzCase {
    let mut current = case.clone();
    let mut evals = 0usize;
    loop {
        let mut improved = false;
        for candidate in current.candidates() {
            if evals >= MAX_EVALS {
                return current;
            }
            evals += 1;
            if still_fails(&candidate) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// `items` with every repeat dropped, first occurrence kept. The
/// checks are deterministic, so a repeated candidate could only
/// repeat a verdict.
pub(crate) fn distinct<T: PartialEq>(items: Vec<T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// `v` without its first half, then without its second half.
pub(crate) fn halves<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
    if v.len() < 2 {
        return Vec::new();
    }
    let mid = v.len() / 2;
    vec![v[mid..].to_vec(), v[..mid].to_vec()]
}

/// `v` without each of its first `limit` elements in turn.
pub(crate) fn drop_each<T: Clone>(v: &[T], limit: usize) -> Vec<Vec<T>> {
    (0..v.len().min(limit))
        .map(|i| {
            let mut w = v.to_vec();
            w.remove(i);
            w
        })
        .collect()
}

/// Halving and point-delta simplifications of a raw address
/// sequence: drop halves, whole runs, single elements; lower the
/// largest address.
pub(crate) fn sequence_candidates(seq: &[u32]) -> Vec<Vec<u32>> {
    let mut out = halves(seq);
    // Drop each maximal run (never the whole sequence).
    let mut start = 0;
    while start < seq.len() {
        let mut end = start + 1;
        while end < seq.len() && seq[end] == seq[start] {
            end += 1;
        }
        if seq.len() > end - start {
            let mut v = seq.to_vec();
            v.drain(start..end);
            out.push(v);
        }
        start = end;
    }
    out.extend(drop_each(seq, 32));
    if let Some(&max) = seq.iter().max().filter(|&&max| max > 0) {
        out.push(
            seq.iter()
                .map(|&a| if a == max { max - 1 } else { a })
                .collect(),
        );
    }
    out
}

/// `n` halved, then decremented (nothing when `n <= 1`).
pub(crate) fn halve_or_decrement(n: u32) -> Vec<u32> {
    if n <= 1 {
        return Vec::new();
    }
    distinct(vec![n / 2, n - 1])
}

/// A count whose floor is one, stepped toward it: straight to one,
/// halved, then decremented.
pub(crate) fn toward_one(n: u32) -> Vec<u32> {
    if n <= 1 {
        return Vec::new();
    }
    distinct([vec![1], halve_or_decrement(n)].concat())
}

/// Fewer sliced-replay lanes: [`toward_one`], then the word seam
/// below.
pub(crate) fn fewer_lanes(lanes: u32) -> Vec<u32> {
    let mut out = toward_one(lanes);
    if lanes > 64 && !out.contains(&64) {
        out.push(64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::mapper;

    fn mapper_case(seq: Vec<u32>) -> FuzzCase {
        FuzzCase::Mapper(mapper::Case { seq })
    }

    #[test]
    fn shrinks_sequence_to_minimal_failing_core() {
        // Predicate: fails whenever the sequence contains a 3-run.
        let has_triple = |c: &FuzzCase| match c {
            FuzzCase::Mapper(c) => c.seq.windows(3).any(|w| w[0] == w[1] && w[1] == w[2]),
            _ => false,
        };
        let start = mapper_case(vec![4, 4, 1, 7, 7, 7, 2, 0, 0, 5, 3, 3]);
        match shrink(&start, has_triple) {
            FuzzCase::Mapper(mapper::Case { seq }) => {
                assert_eq!(seq.len(), 3, "minimal 3-run survives: {seq:?}");
                assert!(seq[0] == seq[1] && seq[1] == seq[2]);
            }
            other => panic!("family changed: {other:?}"),
        }
    }

    #[test]
    fn shrink_keeps_failing_input_when_nothing_smaller_fails() {
        let start = mapper_case(vec![1, 1]);
        let never = |_: &FuzzCase| false;
        // Predicate rejects every candidate: input is returned as-is.
        assert_eq!(shrink(&start, never), start);
    }

    #[test]
    fn numeric_steps_are_distinct_and_below_the_start() {
        for n in 0..200 {
            for steps in [halve_or_decrement(n), toward_one(n), fewer_lanes(n)] {
                assert_eq!(distinct(steps.clone()), steps, "n={n}");
                assert!(steps.iter().all(|&s| s < n), "n={n}: {steps:?}");
            }
        }
        assert_eq!(toward_one(2), vec![1]);
        assert_eq!(fewer_lanes(128), vec![1, 64, 127]);
        assert_eq!(fewer_lanes(96), vec![1, 48, 95, 64]);
    }
}
