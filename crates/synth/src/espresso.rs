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
//! * Callers that already know the off-set (FSM and ROM synthesis
//!   enumerate it for free) use [`minimize_with_off_budgeted`] and
//!   skip the Shannon complement entirely.

use adgen_obs as obs;

use crate::cover::{tautology, Cover};
use crate::cube::{Cube, Tri};

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
    minimize_with_off_budgeted(on, dc, care.complement(), budget)
}

/// Minimizes `on` under don't-care set `dc`, with the off-set supplied
/// by the caller instead of computed by complementation, under an
/// [`EffortBudget`].
///
/// `off` must cover exactly the minterms in neither `on` nor `dc`
/// (a cover of the complement — it need not be minimal or disjoint).
/// Callers that enumerate their function row by row (FSM next-state
/// and output logic, ROM contents) know the off-set for free, and
/// skipping the Shannon complement is the single largest saving in
/// the synthesis hot path.
///
/// Each EXPAND, IRREDUNDANT and REDUCE phase is pre-charged with its
/// cube-count cost and skipped — returning the last completed (and
/// therefore correct) cover with `truncated` set — once the budget is
/// spent.
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
    let observing = obs::enabled();
    let _span = if observing {
        obs::add(obs::Ctr::EspressoCalls, 1);
        Some(obs::span_arg("espresso.minimize", on.num_inputs() as u64))
    } else {
        None
    };
    let outcome = minimize_loop(on, dc, off, budget);
    if observing {
        obs::add(obs::Ctr::EspressoSteps, outcome.steps);
        if outcome.truncated {
            obs::add(obs::Ctr::EspressoTruncated, 1);
        }
    }
    outcome
}

/// The EXPAND / IRREDUNDANT / REDUCE loop behind
/// [`minimize_with_off_budgeted`].
fn minimize_loop(on: Cover, dc: Cover, mut off: Cover, budget: EffortBudget) -> MinimizeOutcome {
    assert_eq!(on.num_inputs(), dc.num_inputs(), "arity mismatch");
    assert_eq!(on.num_inputs(), off.num_inputs(), "arity mismatch");
    if on.is_empty() {
        return MinimizeOutcome {
            cover: on,
            truncated: false,
            steps: 0,
        };
    }
    let mut meter = Meter::new(budget);
    // EXPAND cost scales with the number of off-cubes, and callers
    // typically enumerate the off-set minterm by minterm. Pick the
    // cheaper compact form: condense the supplied off-set when it is
    // the smaller description, otherwise complement on ∪ dc (fast
    // precisely when that side is small — e.g. a one-minterm select
    // line, whose enumerated off-set is the whole rest of the space).
    if off.num_cubes() > on.num_inputs() {
        if off.num_cubes() < on.num_cubes() + dc.num_cubes() {
            off.merge_siblings();
        } else {
            let mut care = on.union(&dc);
            care.merge_siblings();
            off = care.complement();
        }
    }
    // Condensing the starting cover (minterm-enumerated in every
    // caller) both shrinks the first EXPAND and deepens it: merged
    // cubes already carry the easy free variables.
    let mut current = {
        let mut c = on;
        c.merge_siblings();
        c
    };
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
            expand(&current, &off)
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
            irredundant(&expanded, &dc)
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
            reduce(&irr, &dc)
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
mod tests {
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
