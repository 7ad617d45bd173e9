//! An Espresso-style heuristic two-level minimizer.
//!
//! The classic loop: EXPAND cubes against the off-set, drop REDUNDANT
//! cubes against the rest of the cover plus the don't-care set, REDUCE
//! cubes to give EXPAND new room, and iterate while the cost improves.
//! This is the workhorse behind the paper's "symbolic state machine"
//! synthesis path (§3), where a logic optimizer is handed the raw
//! next-state and output functions of an N-state FSM.
//!
//! The inner loops run on the bit-packed cube kernel:
//!
//! * EXPAND is reformulated over per-off-cube *conflict sets* (the
//!   variables where a cube and an off-cube clash). Freeing a literal
//!   set `F` makes the cube hit off-cube `o` exactly when
//!   `conflicts(o) ⊆ F`, so the greedy expansion reduces to counter
//!   maintenance instead of re-intersecting the whole off-set per
//!   candidate literal — the same result as the naive greedy, at a
//!   fraction of the cost.
//! * IRREDUNDANT and REDUCE build their "rest of the cover" cofactor
//!   lists directly with word-parallel [`Cube::cofactor_cube`] instead
//!   of materializing intermediate covers.
//! * Callers that enumerate their function row by row (FSM and ROM
//!   synthesis) hand over the on-set, the don't-cares and the size of
//!   the off-set through [`minimize_with_lazy_off_budgeted`]. The one
//!   rule that picks the loop's off-set (`runs_on_supplied_off`)
//!   decides from that size alone whether their off-set cover is worth
//!   building; when it is not, the loop complements on ∪ dc, and a
//!   memo lookup needs neither the off-set nor the complement.

use adgen_obs as obs;

use crate::cover::{tautology, Cover};
use crate::cube::{Cube, Tri};
use crate::memo;

/// Packed words per cube at arity `n` (the cube kernel stores 32
/// two-bit variables per `u64`), for the word-op counter.
fn words_per_cube(n: usize) -> u64 {
    n.div_ceil(32).max(1) as u64
}

/// Step budget bounding how much work the EXPAND / IRREDUNDANT /
/// REDUCE loop may spend before giving up gracefully.
///
/// A *step* is one cube-against-cube interaction (an off-set conflict
/// probe or a cofactor in a tautology check) — the unit the loop's
/// cost actually scales with, so the same budget means the same
/// effort across functions of different arity. The budget is checked
/// at phase boundaries (every intermediate cover is functionally
/// correct, so truncation can only cost minimality, never
/// correctness): when it runs out, the best cover produced so far is
/// returned with [`MinimizeOutcome::truncated`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffortBudget {
    max_steps: u64,
}

impl EffortBudget {
    /// No bound — the loop runs to its cost fixpoint, as
    /// [`minimize`] always has.
    pub const UNLIMITED: EffortBudget = EffortBudget {
        max_steps: u64::MAX,
    };

    /// A budget of `max_steps` cube-interaction steps.
    pub fn steps(max_steps: u64) -> Self {
        EffortBudget { max_steps }
    }

    /// The generous default used by the FSM/ROM synthesis paths:
    /// orders of magnitude above what any generator in this workspace
    /// needs (a 64-state CntAG spends ~10⁵ steps), so results are
    /// bit-identical to unlimited minimization in practice, while a
    /// pathological cover can no longer hang elaboration.
    pub fn synthesis_default() -> Self {
        EffortBudget::steps(50_000_000)
    }
}

impl Default for EffortBudget {
    fn default() -> Self {
        EffortBudget::UNLIMITED
    }
}

/// Result of a budgeted minimization.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// A functionally correct cover: every on-set minterm covered, no
    /// off-set minterm covered — minimal only if `truncated` is
    /// false.
    pub cover: Cover,
    /// Whether the budget expired before the loop reached its cost
    /// fixpoint (the cover is unminimized or partially minimized).
    pub truncated: bool,
    /// Steps actually spent.
    pub steps: u64,
}

struct Meter {
    left: u64,
    spent: u64,
}

impl Meter {
    fn new(budget: EffortBudget) -> Self {
        Meter {
            left: budget.max_steps,
            spent: 0,
        }
    }

    /// Debits `cost`; `false` means the budget is exhausted and the
    /// phase must not run.
    fn charge(&mut self, cost: u64) -> bool {
        if cost > self.left {
            self.left = 0;
            return false;
        }
        self.left -= cost;
        self.spent = self.spent.saturating_add(cost);
        true
    }
}

/// Minimizes `on` under don't-care set `dc`.
///
/// The result covers every on-set minterm, no off-set minterm, and is
/// irredundant. Cost is measured as `(cubes, literals)`.
///
/// # Panics
///
/// Panics if `on` and `dc` have different arities.
pub fn minimize(on: Cover, dc: Cover) -> Cover {
    minimize_budgeted(on, dc, EffortBudget::UNLIMITED).cover
}

/// [`minimize`] under an [`EffortBudget`].
///
/// # Panics
///
/// Panics if `on` and `dc` have different arities.
pub fn minimize_budgeted(on: Cover, dc: Cover, budget: EffortBudget) -> MinimizeOutcome {
    assert_eq!(on.num_inputs(), dc.num_inputs(), "arity mismatch");
    if on.is_empty() {
        return MinimizeOutcome {
            cover: on,
            truncated: false,
            steps: 0,
        };
    }
    let mut care = on.union(&dc);
    care.merge_siblings();
    let off = care.complement();
    minimize_with_off_budgeted(on, dc, off, budget)
}

/// Minimizes `on` under don't-care set `dc`, with the off-set supplied
/// by the caller instead of computed by complementation, under an
/// [`EffortBudget`].
///
/// `off` must cover exactly the minterms in neither `on` nor `dc`
/// (a cover of the complement — it need not be minimal or disjoint).
/// The loop runs on it when it is the smaller description; otherwise
/// it complements on ∪ dc and `off` is dropped unread. A caller that
/// would have to build `off` first should use
/// [`minimize_with_lazy_off_budgeted`], which builds it only when the
/// loop runs on it.
///
/// Each EXPAND, IRREDUNDANT and REDUCE phase is pre-charged with its
/// cube-count cost and skipped — returning the last completed (and
/// therefore correct) cover with `truncated` set — once the budget is
/// spent.
///
/// Answered by the thread's [`MinimizeMemo`](crate::memo::MinimizeMemo)
/// when one is installed, keyed by all three covers.
///
/// # Panics
///
/// Panics on arity mismatch between the three covers.
pub fn minimize_with_off_budgeted(
    on: Cover,
    dc: Cover,
    off: Cover,
    budget: EffortBudget,
) -> MinimizeOutcome {
    assert_eq!(on.num_inputs(), off.num_inputs(), "arity mismatch");
    let key = memo::installed(&on, &dc, memo::OffKey::Listed(&off), budget.max_steps);
    let off = runs_on_supplied_off(&on, &dc, off.num_cubes()).then_some(off);
    memoized(key, on, dc, off, budget)
}

/// Minimizes a function its caller enumerates row by row, under an
/// [`EffortBudget`]: `on` and `dc` list its on-set and don't-care
/// rows, the off-set is the other `off_minterms` rows, and `off`
/// builds their cover — one cube per row, so `off_minterms` cubes.
///
/// Returns exactly what [`minimize_with_off_budgeted`] returns for
/// `off()`, but runs `off` only when the loop runs on the off-set it
/// builds. Otherwise the loop complements on ∪ dc, and the memo keys
/// the call by on, dc and `off_minterms` alone, so the lookup costs no
/// complement and no off-set, and two callers that enumerate the same
/// function in different row orders share one entry. FSM next-state
/// and output functions and ROM bits come through here: a select line
/// of an `N`-state machine has one on-state and `N - 1` off-states,
/// and its complement is the cheaper description by far.
///
/// # Panics
///
/// Panics on arity mismatch between the covers.
pub fn minimize_with_lazy_off_budgeted(
    on: Cover,
    dc: Cover,
    off_minterms: usize,
    off: impl FnOnce() -> Cover,
    budget: EffortBudget,
) -> MinimizeOutcome {
    if runs_on_supplied_off(&on, &dc, off_minterms) {
        let off = off();
        debug_assert_eq!(off.num_cubes(), off_minterms, "one off cube per row");
        return minimize_with_off_budgeted(on, dc, off, budget);
    }
    let off = memo::OffKey::Complement {
        minterms: off_minterms,
    };
    let key = memo::installed(&on, &dc, off, budget.max_steps);
    memoized(key, on, dc, None, budget)
}

/// Whether the loop runs on a supplied off-set of `off_cubes` cubes
/// rather than on the complement of on ∪ dc.
///
/// EXPAND cost scales with the number of off-cubes, and callers
/// typically enumerate the off-set minterm by minterm. An off-set of at
/// most one cube per variable is used as it is. A larger one is used
/// when it is the smaller description; otherwise the complement of
/// on ∪ dc is, which is fast precisely when that side is small — e.g.
/// a one-minterm select line, whose enumerated off-set is the whole
/// rest of the space.
fn runs_on_supplied_off(on: &Cover, dc: &Cover, off_cubes: usize) -> bool {
    off_cubes <= on.num_inputs() || off_cubes < on.num_cubes() + dc.num_cubes()
}

/// The loop on `off` (the complement of on ∪ dc when `None`),
/// answered by the memo under `key` when one is installed.
fn memoized(
    key: Option<(memo::MinimizeMemo, memo::Key)>,
    on: Cover,
    dc: Cover,
    off: Option<Cover>,
    budget: EffortBudget,
) -> MinimizeOutcome {
    let n = on.num_inputs();
    match key {
        Some((memo, key)) => memo.get_or_compute(key, n, || minimize_counted(on, dc, off, budget)),
        None => minimize_counted(on, dc, off, budget),
    }
}

/// One run of the EXPAND / IRREDUNDANT / REDUCE loop, counted and
/// spanned.
fn minimize_counted(
    on: Cover,
    dc: Cover,
    off: Option<Cover>,
    budget: EffortBudget,
) -> MinimizeOutcome {
    let observing = obs::enabled();
    let _span = if observing {
        obs::add(obs::Ctr::EspressoCalls, 1);
        Some(obs::span_arg("espresso.minimize", on.num_inputs() as u64))
    } else {
        None
    };
    assert_eq!(on.num_inputs(), dc.num_inputs(), "arity mismatch");
    let outcome = if on.is_empty() {
        MinimizeOutcome {
            cover: on,
            truncated: false,
            steps: 0,
        }
    } else {
        let (current, off) = starting_covers(on, &dc, off);
        iterate(current, &dc, &off, budget)
    };
    if observing {
        obs::add(obs::Ctr::EspressoSteps, outcome.steps);
        if outcome.truncated {
            obs::add(obs::Ctr::EspressoTruncated, 1);
        }
    }
    outcome
}

/// The condensed starting cover and the compact off-set the loop runs
/// on: `off` condensed when it has more cubes than variables, or, when
/// `runs_on_supplied_off` turned it down (`None`), the complement of
/// on ∪ dc.
///
/// Condensing the starting cover (minterm-enumerated in every caller)
/// both shrinks the first EXPAND and deepens it: merged cubes already
/// carry the easy free variables.
fn starting_covers(mut on: Cover, dc: &Cover, off: Option<Cover>) -> (Cover, Cover) {
    let off = match off {
        Some(mut off) => {
            if off.num_cubes() > on.num_inputs() {
                off.merge_siblings();
            }
            off
        }
        None if dc.is_empty() => {
            // on ∪ ∅ is the on-set's own cube list: condense it once,
            // for the complement and as the starting cover.
            on.merge_siblings();
            let off = on.complement();
            return (on, off);
        }
        None => {
            let mut care = on.union(dc);
            care.merge_siblings();
            care.complement()
        }
    };
    on.merge_siblings();
    (on, off)
}

/// EXPAND / IRREDUNDANT / REDUCE from `current` until the cost stops
/// improving or the budget runs out.
fn iterate(mut current: Cover, dc: &Cover, off: &Cover, budget: EffortBudget) -> MinimizeOutcome {
    let mut meter = Meter::new(budget);
    let n = current.num_inputs() as u64;
    let mut best_cost = (usize::MAX, usize::MAX);
    let truncated = |cover: Cover, meter: &Meter| MinimizeOutcome {
        cover,
        truncated: true,
        steps: meter.spent,
    };
    let words = words_per_cube(current.num_inputs());
    loop {
        // EXPAND probes every (cube, off-cube) conflict set once.
        let expand_cost = current.num_cubes() as u64 * (off.num_cubes() as u64 + 1);
        if !meter.charge(expand_cost) {
            return truncated(current, &meter);
        }
        let expanded = {
            let _s = obs::span("espresso.expand");
            obs::add(obs::Ctr::CubeWordOps, expand_cost.saturating_mul(words));
            expand(&current, off)
        };
        // IRREDUNDANT cofactors each cube against the rest + dc.
        let rest = expanded.num_cubes() as u64 + dc.num_cubes() as u64 + 1;
        let irr_cost = expanded.num_cubes() as u64 * rest;
        if !meter.charge(irr_cost) {
            return truncated(expanded, &meter);
        }
        let irr = {
            let _s = obs::span("espresso.irredundant");
            obs::add(obs::Ctr::CubeWordOps, irr_cost.saturating_mul(words));
            irredundant(&expanded, dc)
        };
        let cost = (irr.num_cubes(), irr.num_literals());
        if cost >= best_cost {
            return MinimizeOutcome {
                cover: irr,
                truncated: false,
                steps: meter.spent,
            };
        }
        best_cost = cost;
        // REDUCE tries both specializations of up to n variables per
        // cube, each a cofactor sweep over the rest + dc.
        let reduce_cost = irr.num_cubes() as u64 * n * 2 * rest;
        if !meter.charge(reduce_cost) {
            return truncated(irr, &meter);
        }
        current = {
            let _s = obs::span("espresso.reduce");
            obs::add(obs::Ctr::CubeWordOps, reduce_cost.saturating_mul(words));
            reduce(&irr, dc)
        };
    }
}

/// EXPAND: greedily frees literals of each cube while the cube stays
/// disjoint from the off-set, then removes single-cube containments.
///
/// For each cube the conflict set of every off-cube (variables where
/// the two demand opposite values) is computed once, word-parallel.
/// An off-cube with conflict set `C` starts intersecting the expanded
/// cube exactly when all of `C` has been freed, so a candidate
/// variable `v` may be freed iff no off-cube's outstanding conflicts
/// are `{v}`. Literals are tried fewest-blockers-first (off-cubes
/// whose entire conflict set is that single variable), matching the
/// ordering heuristic of the previous implementation exactly.
fn expand(cover: &Cover, off: &Cover) -> Cover {
    let n = cover.num_inputs();
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    // Scratch, reused across cubes.
    let mut conflict_vars: Vec<Vec<u32>> = Vec::new();
    let mut per_var: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut remaining: Vec<u32> = Vec::new();
    let mut blockers: Vec<u32> = vec![0; n];
    let mut freed: Vec<bool> = vec![false; n];

    for cube in &mut cubes {
        conflict_vars.clear();
        remaining.clear();
        for list in &mut per_var {
            list.clear();
        }
        blockers[..n].fill(0);
        freed[..n].fill(false);

        // Conflict sets: variables where cube ∩ off-cube is empty.
        for o in off.cubes() {
            let mut vars: Vec<u32> = Vec::new();
            o.for_each_literal(|v, lit| {
                let want = lit == Tri::One;
                match cube.get(v) {
                    Tri::One if !want => vars.push(v as u32),
                    Tri::Zero if want => vars.push(v as u32),
                    _ => {}
                }
            });
            debug_assert!(
                !vars.is_empty(),
                "cube intersects the off-set before expansion"
            );
            let id = conflict_vars.len() as u32;
            for &v in &vars {
                per_var[v as usize].push(id);
            }
            if vars.len() == 1 {
                blockers[vars[0] as usize] += 1;
            }
            remaining.push(vars.len() as u32);
            conflict_vars.push(vars);
        }

        // Candidate order: bound variables, fewest single-variable
        // blockers first (stable, so ties stay in variable order).
        let mut vars: Vec<usize> = (0..n).filter(|&v| cube.get(v) != Tri::DontCare).collect();
        vars.sort_by_key(|&v| blockers[v]);

        for v in vars {
            if blockers[v] != 0 {
                continue; // some off-cube's last conflict is exactly v
            }
            // Free v: off-cubes conflicting at v lose one conflict.
            freed[v] = true;
            cube.set(v, Tri::DontCare);
            for &id in &per_var[v] {
                remaining[id as usize] -= 1;
                if remaining[id as usize] == 1 {
                    // Find the one conflict variable not yet freed;
                    // it becomes blocked.
                    let last = conflict_vars[id as usize]
                        .iter()
                        .find(|&&u| !freed[u as usize])
                        .expect("one conflict remains");
                    blockers[*last as usize] += 1;
                }
            }
        }
    }
    let mut out = Cover::from_cubes(n, cubes);
    out.remove_single_cube_containment();
    out
}

/// Whether cube `i` of `cubes` is covered by the other cubes plus the
/// don't-care set (the containment check shared by IRREDUNDANT and
/// REDUCE), via cofactor-and-tautology on the packed kernel.
fn covered_by_rest(cubes: &[Cube], skip: usize, dc: &Cover, candidate: &Cube, n: usize) -> bool {
    let mut cf: Vec<Cube> = Vec::with_capacity(cubes.len() + dc.num_cubes());
    for (j, c) in cubes.iter().enumerate() {
        if j != skip {
            if let Some(r) = c.cofactor_cube(candidate) {
                cf.push(r);
            }
        }
    }
    for c in dc.cubes() {
        if let Some(r) = c.cofactor_cube(candidate) {
            cf.push(r);
        }
    }
    tautology(n, &cf)
}

/// IRREDUNDANT: removes cubes covered by the remaining cover plus the
/// don't-care set.
fn irredundant(cover: &Cover, dc: &Cover) -> Cover {
    let n = cover.num_inputs();
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    let mut i = 0;
    while i < cubes.len() {
        let candidate = cubes[i].clone();
        if covered_by_rest(&cubes, i, dc, &candidate, n) {
            cubes.remove(i);
        } else {
            i += 1;
        }
    }
    Cover::from_cubes(n, cubes)
}

/// REDUCE: shrinks each cube to the smallest cube still needed given
/// the rest of the cover and the don't-care set, creating room for the
/// next EXPAND to move in a different direction.
fn reduce(cover: &Cover, dc: &Cover) -> Cover {
    let n = cover.num_inputs();
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    for i in 0..cubes.len() {
        // Try to specialize each free variable; keep the
        // specialization if the discarded half is already covered.
        let mut cube = cubes[i].clone();
        for v in 0..n {
            if cube.get(v) != Tri::DontCare {
                continue;
            }
            for (keep, drop) in [(Tri::One, Tri::Zero), (Tri::Zero, Tri::One)] {
                let mut dropped = cube.clone();
                dropped.set(v, drop);
                if covered_by_rest(&cubes, i, dc, &dropped, n) {
                    cube.set(v, keep);
                    break;
                }
            }
        }
        cubes[i] = cube;
    }
    Cover::from_cubes(n, cubes)
}

/// Verifies that `result` is a correct minimization of `on` with
/// don't-cares `dc`: it covers all of `on` and nothing of the off-set.
/// Exposed for tests and debugging.
pub fn is_correct(result: &Cover, on: &Cover, dc: &Cover) -> bool {
    let care_target = on.union(dc);
    // result must cover on-set…
    if !result.covers_cover(on) {
        return false;
    }
    // …and stay within on ∪ dc.
    care_target.covers_cover(result)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adgen_exec::Prng;

    #[test]
    fn trivial_functions() {
        assert!(minimize(Cover::empty(3), Cover::empty(3)).is_empty());
        let one = minimize(Cover::one(3), Cover::empty(3));
        assert_eq!(one.num_cubes(), 1);
        assert_eq!(one.num_literals(), 0);
    }

    #[test]
    fn merges_adjacent_minterms() {
        // f = Σ(2,3) over 2 vars = x1.
        let on = Cover::from_minterms(2, &[0b10, 0b11]);
        let m = minimize(on.clone(), Cover::empty(2));
        assert_eq!(m.num_cubes(), 1);
        assert_eq!(m.num_literals(), 1);
        assert!(is_correct(&m, &on, &Cover::empty(2)));
    }

    #[test]
    fn xor_stays_two_cubes() {
        let on = Cover::from_minterms(2, &[0b01, 0b10]);
        let m = minimize(on.clone(), Cover::empty(2));
        assert_eq!(m.num_cubes(), 2);
        assert!(is_correct(&m, &on, &Cover::empty(2)));
    }

    #[test]
    fn uses_dont_cares() {
        // on = {1}, dc = {3} over 2 vars → can expand to x0.
        let on = Cover::from_minterms(2, &[0b01]);
        let dc = Cover::from_minterms(2, &[0b11]);
        let m = minimize(on.clone(), dc.clone());
        assert_eq!(m.num_cubes(), 1);
        assert_eq!(m.num_literals(), 1);
        assert!(is_correct(&m, &on, &dc));
    }

    #[test]
    fn full_truth_table_collapses_to_one() {
        let on = Cover::from_minterms(4, &(0..16).collect::<Vec<u64>>());
        let m = minimize(on, Cover::empty(4));
        assert_eq!(m.num_cubes(), 1);
        assert_eq!(m.num_literals(), 0);
    }

    #[test]
    fn random_functions_are_minimized_correctly() {
        let mut seed = 0xdeadbeefu64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for trial in 0..25 {
            let n = 3 + (trial % 3) as usize; // 3..=5 vars
            let space = 1u64 << n;
            let on_minterms: Vec<u64> = (0..space).filter(|_| next() % 3 == 0).collect();
            let dc_minterms: Vec<u64> = (0..space)
                .filter(|m| !on_minterms.contains(m) && next() % 4 == 0)
                .collect();
            let on = Cover::from_minterms(n, &on_minterms);
            let dc = Cover::from_minterms(n, &dc_minterms);
            let m = minimize(on.clone(), dc.clone());
            assert!(is_correct(&m, &on, &dc), "trial {trial}");
            // Behaviour on care minterms is preserved.
            for mt in 0..space {
                if dc_minterms.contains(&mt) {
                    continue;
                }
                assert_eq!(m.eval(mt), on.eval(mt), "trial {trial} minterm {mt}");
            }
            // And never more cubes than the input.
            assert!(m.num_cubes() <= on.num_cubes().max(1));
        }
    }

    #[test]
    fn explicit_off_set_matches_complement_route() {
        // minimize_with_off_budgeted must agree (in function, and — since both
        // run the identical deterministic loop — in exact cover) with
        // minimize when handed the true off-set.
        let mut rng = Prng::new(0x0FF5E7);
        for trial in 0..40 {
            let n = 3 + (trial % 4); // 3..=6 vars
            let space = 1u64 << n;
            let mut on_minterms = Vec::new();
            let mut dc_minterms = Vec::new();
            let mut off_minterms = Vec::new();
            for m in 0..space {
                match rng.next_range(3) {
                    0 => on_minterms.push(m),
                    1 => dc_minterms.push(m),
                    _ => off_minterms.push(m),
                }
            }
            let on = Cover::from_minterms(n, &on_minterms);
            let dc = Cover::from_minterms(n, &dc_minterms);
            let off = Cover::from_minterms(n, &off_minterms);
            let via_complement = minimize(on.clone(), dc.clone());
            let via_off =
                minimize_with_off_budgeted(on.clone(), dc.clone(), off, EffortBudget::UNLIMITED)
                    .cover;
            assert!(is_correct(&via_off, &on, &dc), "trial {trial}");
            for m in 0..space {
                if dc_minterms.contains(&m) {
                    continue;
                }
                assert_eq!(
                    via_off.eval(m),
                    via_complement.eval(m),
                    "trial {trial} minterm {m}"
                );
            }
        }
    }

    /// A random row-enumerated function over 1..=8 variables: on, dc
    /// and off minterm covers that partition the space, from sparse to
    /// dense on-sets.
    pub(crate) fn random_rows(rng: &mut Prng, trial: usize) -> (Cover, Cover, Cover) {
        let n = 1 + trial % 8;
        let on_density = 1 + rng.next_range(14);
        let dc_density = if trial.is_multiple_of(3) {
            0
        } else {
            rng.next_range(4)
        };
        let (mut on, mut dc, mut off) = (Vec::new(), Vec::new(), Vec::new());
        for m in 0..1u64 << n {
            let draw = rng.next_range(16);
            if draw < on_density {
                on.push(m);
            } else if draw < on_density + dc_density {
                dc.push(m);
            } else {
                off.push(m);
            }
        }
        let cover = |minterms: &[u64]| Cover::from_minterms(n, minterms);
        (cover(&on), cover(&dc), cover(&off))
    }

    #[test]
    fn lazy_off_entry_matches_the_explicit_one_and_builds_off_only_when_used() {
        let mut rng = Prng::new(0x1A2F);
        let (mut supplied, mut complemented) = (0, 0);
        for trial in 0..600 {
            let (on, dc, off) = random_rows(&mut rng, trial);
            let uses_off = runs_on_supplied_off(&on, &dc, off.num_cubes());
            for budget in [EffortBudget::UNLIMITED, EffortBudget::steps(64)] {
                let want = minimize_with_off_budgeted(on.clone(), dc.clone(), off.clone(), budget);
                let built = std::cell::Cell::new(false);
                let got = minimize_with_lazy_off_budgeted(
                    on.clone(),
                    dc.clone(),
                    off.num_cubes(),
                    || {
                        built.set(true);
                        off.clone()
                    },
                    budget,
                );
                assert_eq!(got.cover, want.cover, "trial {trial}");
                assert_eq!(
                    (got.steps, got.truncated),
                    (want.steps, want.truncated),
                    "trial {trial}"
                );
                assert_eq!(built.get(), uses_off, "trial {trial}");
            }
            if uses_off {
                supplied += 1;
            } else {
                complemented += 1;
            }
        }
        assert!(
            supplied >= 150,
            "{supplied} of 600 ran on the supplied off-set"
        );
        assert!(complemented >= 150, "{complemented} of 600 complemented");
    }

    /// The starting covers as computed before the empty-dc shortcut:
    /// `on ∪ dc` is condensed for the complement, and `on` is
    /// condensed again as the starting cover.
    fn two_condense_starting_covers(on: Cover, dc: &Cover, mut off: Cover) -> (Cover, Cover) {
        if off.num_cubes() > on.num_inputs() {
            if off.num_cubes() < on.num_cubes() + dc.num_cubes() {
                off.merge_siblings();
            } else {
                let mut care = on.union(dc);
                care.merge_siblings();
                off = care.complement();
            }
        }
        let mut current = on;
        current.merge_siblings();
        (current, off)
    }

    #[test]
    fn empty_dc_single_condense_matches_two_condense_path() {
        let mut rng = Prng::new(0xE5C0DE);
        let mut complement_route = 0;
        for trial in 0..300 {
            let n = 3 + (trial % 6); // 3..=8 vars
            let space = 1u64 << n;
            // Densities from sparse to about half, so most trials take
            // the complement route (off-set at least as large as on).
            let density = 1 + rng.next_range(8);
            let (on_minterms, off_minterms): (Vec<u64>, Vec<u64>) =
                (0..space).partition(|_| rng.next_range(16) < density);
            if on_minterms.is_empty() {
                continue;
            }
            let on = Cover::from_minterms(n, &on_minterms);
            let dc = Cover::empty(n);
            let off = Cover::from_minterms(n, &off_minterms);
            if off.num_cubes() > n && off.num_cubes() >= on.num_cubes() {
                complement_route += 1;
            }
            let got = minimize_with_off_budgeted(
                on.clone(),
                dc.clone(),
                off.clone(),
                EffortBudget::UNLIMITED,
            );
            let (current, off) = two_condense_starting_covers(on.clone(), &dc, off);
            let want = iterate(current, &dc, &off, EffortBudget::UNLIMITED);
            assert_eq!(got.cover, want.cover, "trial {trial}");
            assert_eq!(got.steps, want.steps, "trial {trial}");
            assert_eq!(got.truncated, want.truncated, "trial {trial}");
            assert!(is_correct(&got.cover, &on, &dc), "trial {trial}");
        }
        assert!(complement_route >= 200, "{complement_route} of 300");
    }

    #[test]
    fn plain_route_complements_once_and_matches_two_complement_path() {
        // The oracle is the route `minimize_budgeted` took when the
        // loop could complement the care set a second time: the same
        // complement handed over as a supplied off-set.
        let two_complement = |on: &Cover, dc: &Cover, budget| {
            let mut care = on.union(dc);
            care.merge_siblings();
            minimize_with_off_budgeted(on.clone(), dc.clone(), care.complement(), budget)
        };
        let mut rng = Prng::new(0xC0_0FF);
        let mut second_complement = 0;
        for trial in 0..360 {
            let n = 3 + (trial % 6); // 3..=8 vars
            let space = 1u64 << n;
            // Sparse to dense on-sets; every other trial has no dc.
            let on_density = 1 + rng.next_range(10);
            let dc_density = if trial % 2 == 0 { 0 } else { rng.next_range(6) };
            let (mut on_minterms, mut dc_minterms) = (Vec::new(), Vec::new());
            for m in 0..space {
                let draw = rng.next_range(16);
                if draw < on_density {
                    on_minterms.push(m);
                } else if draw < on_density + dc_density {
                    dc_minterms.push(m);
                }
            }
            let on = Cover::from_minterms(n, &on_minterms);
            let dc = Cover::from_minterms(n, &dc_minterms);
            let mut care = on.union(&dc);
            care.merge_siblings();
            let off_cubes = care.complement().num_cubes();
            if !on.is_empty() && off_cubes > n && off_cubes >= on.num_cubes() + dc.num_cubes() {
                second_complement += 1;
            }
            for budget in [EffortBudget::UNLIMITED, EffortBudget::steps(64)] {
                let got = minimize_budgeted(on.clone(), dc.clone(), budget);
                let want = two_complement(&on, &dc, budget);
                assert_eq!(got.cover, want.cover, "trial {trial}");
                assert_eq!(got.steps, want.steps, "trial {trial}");
                assert_eq!(got.truncated, want.truncated, "trial {trial}");
            }
        }
        assert!(second_complement >= 100, "{second_complement} of 360");
    }

    #[test]
    fn large_dont_care_sets_enable_deep_expansion() {
        // on = one minterm, dc = everything else except one off
        // minterm that blocks a specific literal: the minimizer must
        // expand to a single-literal cube.
        let n = 5;
        let on = Cover::from_minterms(n, &[0b00001]);
        let off_minterm = 0b00000u64; // differs only in bit 0
        let dc_minterms: Vec<u64> = (0..(1u64 << n))
            .filter(|&m| m != 0b00001 && m != off_minterm)
            .collect();
        let dc = Cover::from_minterms(n, &dc_minterms);
        let m = minimize(on.clone(), dc.clone());
        assert!(is_correct(&m, &on, &dc));
        assert_eq!(m.num_cubes(), 1);
        assert_eq!(m.num_literals(), 1, "only x0 separates on from off");
    }

    #[test]
    fn dc_only_function_minimizes_to_nothing_or_anything_valid() {
        // An on-set fully inside the dc-set may collapse arbitrarily,
        // but must stay within on ∪ dc.
        let on = Cover::from_minterms(3, &[2]);
        let dc = Cover::from_minterms(3, &[0, 1, 3, 4, 5, 6, 7]);
        let m = minimize(on.clone(), dc.clone());
        assert!(is_correct(&m, &on, &dc));
    }

    #[test]
    fn unlimited_budget_matches_plain_minimize() {
        let mut rng = Prng::new(0xb5d6e7);
        for trial in 0..20 {
            let n = 3 + (trial % 3);
            let space = 1u64 << n;
            let on_minterms: Vec<u64> = (0..space).filter(|_| rng.one_in(3)).collect();
            let on = Cover::from_minterms(n, &on_minterms);
            let plain = minimize(on.clone(), Cover::empty(n));
            let outcome = minimize_budgeted(on, Cover::empty(n), EffortBudget::UNLIMITED);
            assert!(!outcome.truncated, "trial {trial}");
            assert_eq!(outcome.cover.cubes(), plain.cubes(), "trial {trial}");
            assert!(outcome.steps > 0 || plain.is_empty());
        }
    }

    #[test]
    fn exhausted_budget_truncates_but_stays_correct() {
        let mut rng = Prng::new(0x717e);
        for trial in 0..30 {
            let n = 4 + (trial % 3);
            let space = 1u64 << n;
            let on_minterms: Vec<u64> = (0..space).filter(|_| rng.one_in(2)).collect();
            let dc_minterms: Vec<u64> = (0..space)
                .filter(|m| !on_minterms.contains(m) && rng.one_in(4))
                .collect();
            let on = Cover::from_minterms(n, &on_minterms);
            let dc = Cover::from_minterms(n, &dc_minterms);
            // Sweep budgets from nothing to plenty: every outcome
            // must be a correct cover, and a zero budget must
            // truncate on any nonempty function.
            for budget in [0, 1, 10, 100, 1_000, 100_000] {
                let outcome =
                    minimize_budgeted(on.clone(), dc.clone(), EffortBudget::steps(budget));
                assert!(
                    is_correct(&outcome.cover, &on, &dc),
                    "trial {trial} budget {budget}"
                );
                assert!(outcome.steps <= budget, "trial {trial} budget {budget}");
                if budget == 0 && !on_minterms.is_empty() {
                    assert!(outcome.truncated, "trial {trial}");
                }
            }
        }
    }

    #[test]
    fn truncated_covers_converge_to_minimal_as_budget_grows() {
        // The expansive function !x2 over 4 vars: unminimized it is 8
        // minterms, minimal it is one cube. Cube count must be
        // monotonically non-increasing in the budget, reaching the
        // minimum with a generous one.
        let on = Cover::from_minterms(4, &[0, 1, 2, 3, 8, 9, 10, 11]);
        let mut last = usize::MAX;
        for budget in [0u64, 8, 64, 512, 4_096, 1_000_000] {
            let outcome =
                minimize_budgeted(on.clone(), Cover::empty(4), EffortBudget::steps(budget));
            assert!(is_correct(&outcome.cover, &on, &Cover::empty(4)));
            assert!(outcome.cover.num_cubes() <= last, "budget {budget}");
            last = outcome.cover.num_cubes();
        }
        assert_eq!(last, 1, "generous budget reaches the minimal cover");
    }

    #[test]
    fn synthesis_default_budget_never_truncates_workspace_functions() {
        // The largest single function the FSM path minimizes: one
        // select line of a 64-state machine.
        let on = Cover::from_minterms(6, &[17]);
        let off_minterms: Vec<u64> = (0..64).filter(|&m| m != 17).collect();
        let off = Cover::from_minterms(6, &off_minterms);
        let outcome =
            minimize_with_off_budgeted(on, Cover::empty(6), off, EffortBudget::synthesis_default());
        assert!(!outcome.truncated);
    }

    #[test]
    fn never_worse_than_input_cost() {
        let on = Cover::from_minterms(4, &[0, 1, 2, 3, 8, 9, 10, 11]);
        let m = minimize(on.clone(), Cover::empty(4));
        // Σ(0..4)∪Σ(8..12) = !x2 — one cube, one literal.
        assert_eq!(m.num_cubes(), 1);
        assert_eq!(m.num_literals(), 1);
    }
}
