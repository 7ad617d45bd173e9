//! Greedy counterexample minimization.
//!
//! On a failing case the runner calls [`shrink`] with a predicate
//! that re-runs the oracle matrix; any candidate that *still fails*
//! replaces the current case and the search restarts. Candidates are
//! ordered biggest-cut-first (halving before point deltas), so the
//! loop converges in a few rounds; the total number of predicate
//! evaluations is bounded.

use crate::case::{FuzzCase, WorkloadKind};

/// Upper bound on predicate evaluations across the whole shrink.
const MAX_EVALS: usize = 2000;

/// Minimizes `case` under `still_fails`, returning the smallest
/// failing case found (possibly the input itself).
pub fn shrink(case: &FuzzCase, still_fails: impl Fn(&FuzzCase) -> bool) -> FuzzCase {
    let mut current = case.clone();
    let mut evals = 0usize;
    loop {
        let mut improved = false;
        for candidate in candidates(&current) {
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

/// Proposed simplifications of `case`, biggest first.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    match case {
        FuzzCase::Mapper { seq } => sequence_candidates(seq)
            .into_iter()
            .map(|seq| FuzzCase::Mapper { seq })
            .collect(),
        FuzzCase::SragVsCntag {
            kind,
            width,
            height,
            mb,
            m,
        } => {
            let mut out = Vec::new();
            for (w, h) in shape_candidates(*width, *height) {
                out.push(FuzzCase::SragVsCntag {
                    kind: *kind,
                    width: w,
                    height: h,
                    mb: clamp_mb(*mb, w, h),
                    m: *m,
                });
            }
            if *m > 0 {
                out.push(FuzzCase::SragVsCntag {
                    kind: *kind,
                    width: *width,
                    height: *height,
                    mb: *mb,
                    m: 0,
                });
            }
            if *mb > 1 {
                out.push(FuzzCase::SragVsCntag {
                    kind: *kind,
                    width: *width,
                    height: *height,
                    mb: mb / 2,
                    m: *m,
                });
            }
            if *kind != WorkloadKind::Fifo {
                out.push(FuzzCase::SragVsCntag {
                    kind: WorkloadKind::Fifo,
                    width: *width,
                    height: *height,
                    mb: *mb,
                    m: 0,
                });
            }
            out
        }
        FuzzCase::GateLevel {
            kind,
            width,
            height,
            mb,
            style,
        } => {
            let mut out = Vec::new();
            for (w, h) in shape_candidates(*width, *height) {
                out.push(FuzzCase::GateLevel {
                    kind: *kind,
                    width: w,
                    height: h,
                    mb: clamp_mb(*mb, w, h),
                    style: *style,
                });
            }
            if *mb > 1 {
                out.push(FuzzCase::GateLevel {
                    kind: *kind,
                    width: *width,
                    height: *height,
                    mb: mb / 2,
                    style: *style,
                });
            }
            if *kind != WorkloadKind::Fifo {
                out.push(FuzzCase::GateLevel {
                    kind: WorkloadKind::Fifo,
                    width: *width,
                    height: *height,
                    mb: *mb,
                    style: *style,
                });
            }
            out
        }
        FuzzCase::Cube { a, b, minterms } => {
            let mut out = Vec::new();
            let n = a.len();
            // Halve the arity (mask probes into the smaller space).
            if n > 1 {
                let half = n / 2;
                let mask = (1u64 << half.min(63)) - 1;
                out.push(FuzzCase::Cube {
                    a: a[..half].to_vec(),
                    b: b[..half].to_vec(),
                    minterms: minterms.iter().map(|m| m & mask).collect(),
                });
            }
            // Free individual literals.
            for v in 0..n {
                if a[v] != 2 {
                    let mut na = a.clone();
                    na[v] = 2;
                    out.push(FuzzCase::Cube {
                        a: na,
                        b: b.clone(),
                        minterms: minterms.clone(),
                    });
                }
                if b[v] != 2 {
                    let mut nb = b.clone();
                    nb[v] = 2;
                    out.push(FuzzCase::Cube {
                        a: a.clone(),
                        b: nb,
                        minterms: minterms.clone(),
                    });
                }
            }
            // Fewer probes.
            if minterms.len() > 1 {
                out.push(FuzzCase::Cube {
                    a: a.clone(),
                    b: b.clone(),
                    minterms: minterms[..minterms.len() / 2].to_vec(),
                });
            }
            out
        }
        FuzzCase::Espresso { n, on, dc } => {
            let mut out = Vec::new();
            if !dc.is_empty() {
                out.push(FuzzCase::Espresso {
                    n: *n,
                    on: on.to_vec(),
                    dc: Vec::new(),
                });
                out.push(FuzzCase::Espresso {
                    n: *n,
                    on: on.to_vec(),
                    dc: dc[..dc.len() / 2].to_vec(),
                });
            }
            for &(lo, hi) in &halves(on.len()) {
                let mut v = on.to_vec();
                v.drain(lo..hi);
                out.push(FuzzCase::Espresso {
                    n: *n,
                    on: v,
                    dc: dc.to_vec(),
                });
            }
            if *n > 1 {
                let mask = (1u64 << (n - 1)) - 1;
                out.push(FuzzCase::Espresso {
                    n: n - 1,
                    on: dedup(on.iter().map(|m| m & mask).collect()),
                    dc: dedup(dc.iter().map(|m| m & mask).collect()),
                });
            }
            for i in 0..on.len().min(24) {
                let mut v = on.to_vec();
                v.remove(i);
                out.push(FuzzCase::Espresso {
                    n: *n,
                    on: v,
                    dc: dc.to_vec(),
                });
            }
            out
        }
        FuzzCase::WideCover { n, cubes, minterms } => {
            let mut out = Vec::new();
            for i in 0..cubes.len() {
                if cubes.len() > 1 {
                    let mut v = cubes.clone();
                    v.remove(i);
                    out.push(FuzzCase::WideCover {
                        n: *n,
                        cubes: v,
                        minterms: minterms.clone(),
                    });
                }
            }
            if *n > 33 {
                let nn = 33usize.max(n / 2);
                let mask = (1u64 << nn.min(63)) - 1;
                out.push(FuzzCase::WideCover {
                    n: nn,
                    cubes: cubes.iter().map(|c| c[..nn].to_vec()).collect(),
                    minterms: minterms.iter().map(|m| m & mask).collect(),
                });
            }
            for (i, c) in cubes.iter().enumerate() {
                for v in 0..*n {
                    if c[v] != 2 {
                        let mut nc = cubes.clone();
                        nc[i][v] = 2;
                        out.push(FuzzCase::WideCover {
                            n: *n,
                            cubes: nc,
                            minterms: minterms.clone(),
                        });
                    }
                }
            }
            out
        }
        FuzzCase::Cosim {
            kind,
            width,
            height,
            mb,
        } => {
            let mut out = Vec::new();
            for (w, h) in shape_candidates(*width, *height) {
                out.push(FuzzCase::Cosim {
                    kind: *kind,
                    width: w,
                    height: h,
                    mb: clamp_mb(*mb, w, h),
                });
            }
            if *mb > 1 {
                out.push(FuzzCase::Cosim {
                    kind: *kind,
                    width: *width,
                    height: *height,
                    mb: mb / 2,
                });
            }
            if *kind != WorkloadKind::Fifo {
                out.push(FuzzCase::Cosim {
                    kind: WorkloadKind::Fifo,
                    width: *width,
                    height: *height,
                    mb: *mb,
                });
            }
            out
        }
        FuzzCase::SlicedVsScalar {
            kind,
            width,
            height,
            mb,
            lanes,
            cycles,
            salt,
        } => {
            let mut out = Vec::new();
            let rebuild = |w: u32, h: u32, mb: u32, lanes: u32, cycles: u32, kind: WorkloadKind| {
                FuzzCase::SlicedVsScalar {
                    kind,
                    width: w,
                    height: h,
                    mb,
                    lanes,
                    cycles,
                    salt: *salt,
                }
            };
            for (w, h) in shape_candidates(*width, *height) {
                out.push(rebuild(w, h, clamp_mb(*mb, w, h), *lanes, *cycles, *kind));
            }
            // Fewer lanes first (halving, then the word seam below).
            if *lanes > 1 {
                for l in [1, lanes / 2, lanes - 1] {
                    out.push(rebuild(*width, *height, *mb, l, *cycles, *kind));
                }
            }
            if *lanes > 64 {
                out.push(rebuild(*width, *height, *mb, 64, *cycles, *kind));
            }
            if *cycles > 1 {
                out.push(rebuild(*width, *height, *mb, *lanes, cycles / 2, *kind));
            }
            if *mb > 1 {
                out.push(rebuild(*width, *height, mb / 2, *lanes, *cycles, *kind));
            }
            if *kind != WorkloadKind::Fifo {
                out.push(rebuild(
                    *width,
                    *height,
                    *mb,
                    *lanes,
                    *cycles,
                    WorkloadKind::Fifo,
                ));
            }
            out
        }
        FuzzCase::FrameFuzz { attack, garbage } => {
            // The attack shape is semantic — changing it changes which
            // defense is on trial — so only the garbage bytes shrink:
            // drop halves, then single bytes.
            let mut out = Vec::new();
            for &(lo, hi) in &halves(garbage.len()) {
                let mut g = garbage.clone();
                g.drain(lo..hi);
                out.push(FuzzCase::FrameFuzz {
                    attack: *attack,
                    garbage: g,
                });
            }
            for i in 0..garbage.len().min(32) {
                let mut g = garbage.clone();
                g.remove(i);
                out.push(FuzzCase::FrameFuzz {
                    attack: *attack,
                    garbage: g,
                });
            }
            out
        }
        FuzzCase::AffineVsReference { seq, lanes } => {
            let mut out: Vec<FuzzCase> = sequence_candidates(seq)
                .into_iter()
                .map(|seq| FuzzCase::AffineVsReference { seq, lanes: *lanes })
                .collect();
            // Fewer lanes (halving, then the word seam).
            if *lanes > 1 {
                for l in [1, lanes / 2, lanes - 1] {
                    out.push(FuzzCase::AffineVsReference {
                        seq: seq.clone(),
                        lanes: l,
                    });
                }
            }
            if *lanes > 64 {
                out.push(FuzzCase::AffineVsReference {
                    seq: seq.clone(),
                    lanes: 64,
                });
            }
            out
        }
        FuzzCase::BankVsReference { stream, banks, map } => {
            let mut out: Vec<FuzzCase> = sequence_candidates(stream)
                .into_iter()
                .map(|stream| FuzzCase::BankVsReference {
                    stream,
                    banks: *banks,
                    map: *map,
                })
                .collect();
            // Fewer banks (halving, then the seam neighbour).
            if *banks > 1 {
                for b in [1, banks / 2, banks - 1] {
                    out.push(FuzzCase::BankVsReference {
                        stream: stream.clone(),
                        banks: b,
                        map: *map,
                    });
                }
            }
            // The low-bits map is the simplest split.
            if *map % 3 != 0 {
                out.push(FuzzCase::BankVsReference {
                    stream: stream.clone(),
                    banks: *banks,
                    map: 0,
                });
            }
            out
        }
        FuzzCase::FaultAlarm {
            n,
            dc,
            kind,
            target,
            cycle,
        } => {
            let mut out = Vec::new();
            // Shorter ring first (clamping the target into range).
            if *n > 1 {
                for nn in [n / 2, n - 1] {
                    out.push(FuzzCase::FaultAlarm {
                        n: nn,
                        dc: *dc,
                        kind: *kind,
                        target: (*target).min(nn - 1),
                        cycle: *cycle,
                    });
                }
            }
            if *dc > 1 {
                out.push(FuzzCase::FaultAlarm {
                    n: *n,
                    dc: 1,
                    kind: *kind,
                    target: *target,
                    cycle: *cycle,
                });
            }
            if *cycle > 1 {
                for c in [cycle / 2, cycle - 1] {
                    out.push(FuzzCase::FaultAlarm {
                        n: *n,
                        dc: *dc,
                        kind: *kind,
                        target: *target,
                        cycle: c,
                    });
                }
            }
            if *target > 0 {
                out.push(FuzzCase::FaultAlarm {
                    n: *n,
                    dc: *dc,
                    kind: *kind,
                    target: 0,
                    cycle: *cycle,
                });
            }
            if *kind > 0 {
                out.push(FuzzCase::FaultAlarm {
                    n: *n,
                    dc: *dc,
                    kind: kind - 1,
                    target: *target,
                    cycle: *cycle,
                });
            }
            out
        }
    }
}

/// Halving and point-delta simplifications of a raw address
/// sequence: drop halves, whole runs, single elements; shorten runs;
/// lower addresses.
fn sequence_candidates(seq: &[u32]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for &(lo, hi) in &halves(seq.len()) {
        let mut v = seq.to_vec();
        v.drain(lo..hi);
        out.push(v);
    }
    // Drop each maximal run.
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
    // Drop single elements (bounded for long inputs).
    for i in 0..seq.len().min(32) {
        let mut v = seq.to_vec();
        v.remove(i);
        out.push(v);
    }
    // Relabel the largest address downward.
    if let Some(&max) = seq.iter().max() {
        if max > 0 {
            out.push(
                seq.iter()
                    .map(|&a| if a == max { max - 1 } else { a })
                    .collect(),
            );
        }
    }
    out
}

/// `(lo, hi)` ranges removing the first and second half.
fn halves(len: usize) -> Vec<(usize, usize)> {
    if len < 2 {
        return Vec::new();
    }
    vec![(0, len / 2), (len / 2, len)]
}

fn shape_candidates(width: u32, height: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    if width > 2 && height > 2 {
        out.push((width / 2, height / 2));
    }
    if width > 2 {
        out.push((width / 2, height));
    }
    if height > 2 {
        out.push((width, height / 2));
    }
    out
}

fn clamp_mb(mb: u32, width: u32, height: u32) -> u32 {
    mb.min(width).min(height)
}

fn dedup(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_sequence_to_minimal_failing_core() {
        // Predicate: fails whenever the sequence contains a 3-run.
        let has_triple = |c: &FuzzCase| match c {
            FuzzCase::Mapper { seq } => seq.windows(3).any(|w| w[0] == w[1] && w[1] == w[2]),
            _ => false,
        };
        let start = FuzzCase::Mapper {
            seq: vec![4, 4, 1, 7, 7, 7, 2, 0, 0, 5, 3, 3],
        };
        let minimal = shrink(&start, has_triple);
        match minimal {
            FuzzCase::Mapper { seq } => {
                assert_eq!(seq.len(), 3, "minimal 3-run survives: {seq:?}");
                assert!(seq[0] == seq[1] && seq[1] == seq[2]);
            }
            other => panic!("family changed: {other:?}"),
        }
    }

    #[test]
    fn shrink_keeps_failing_input_when_nothing_smaller_fails() {
        let start = FuzzCase::Mapper { seq: vec![1, 1] };
        let never = |_: &FuzzCase| false;
        // Predicate rejects every candidate: input is returned as-is.
        assert_eq!(shrink(&start, never), start);
    }

    #[test]
    fn shape_halving_respects_macroblock_divisibility() {
        let case = FuzzCase::GateLevel {
            kind: WorkloadKind::MotionEst,
            width: 8,
            height: 8,
            mb: 4,
            style: adgen_core::arch::ControlStyle::BinaryCounters,
        };
        for c in candidates(&case) {
            if let FuzzCase::GateLevel {
                width, height, mb, ..
            } = c
            {
                assert!(width.is_multiple_of(mb) && height.is_multiple_of(mb));
            }
        }
    }
}
