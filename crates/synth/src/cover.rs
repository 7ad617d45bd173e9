//! Covers: sums of products, with the classic unate-recursive
//! paradigm operations (tautology, containment, complement).
//!
//! All cube-against-cube work runs on the bit-packed representation of
//! [`Cube`], so containment, cofactoring and binate-variable selection
//! are word-parallel. Tautology checks additionally carry a
//! vanishing-size pruner: if the cubes' minterm counts sum to less
//! than `2^n` the cover cannot possibly be a tautology, which cuts the
//! deepest (and most common) branches of the unate recursion.

use crate::cube::{Cube, Tri};

/// A sum-of-products representation of a Boolean function over a
/// fixed number of input variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    num_inputs: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant 0) over `n` inputs.
    pub fn empty(n: usize) -> Self {
        Cover {
            num_inputs: n,
            cubes: Vec::new(),
        }
    }

    /// The universal cover (constant 1) over `n` inputs.
    pub fn one(n: usize) -> Self {
        Cover {
            num_inputs: n,
            cubes: vec![Cube::full(n)],
        }
    }

    /// Builds a cover from cubes.
    ///
    /// # Panics
    ///
    /// Panics if any cube has a different variable count than `n`.
    pub fn from_cubes(n: usize, cubes: Vec<Cube>) -> Self {
        assert!(
            cubes.iter().all(|c| c.num_vars() == n),
            "cube arity mismatch"
        );
        Cover {
            num_inputs: n,
            cubes,
        }
    }

    /// Builds a cover containing exactly the given minterms.
    pub fn from_minterms(n: usize, minterms: &[u64]) -> Self {
        Cover {
            num_inputs: n,
            cubes: minterms.iter().map(|&m| Cube::from_minterm(n, m)).collect(),
        }
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of cubes.
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total literal count over all cubes (a standard cost metric).
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(Cube::num_literals).sum()
    }

    /// The cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Whether the cover is constant 0.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Adds a cube.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.num_vars(), self.num_inputs, "cube arity mismatch");
        self.cubes.push(cube);
    }

    /// Evaluates the function at `minterm`.
    pub fn eval(&self, minterm: u64) -> bool {
        self.cubes.iter().any(|c| c.contains_minterm(minterm))
    }

    /// Union of two covers.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn union(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_inputs, other.num_inputs, "cover arity mismatch");
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover {
            num_inputs: self.num_inputs,
            cubes,
        }
    }

    /// Cofactor of the cover with respect to `var = value`.
    pub fn cofactor(&self, var: usize, value: bool) -> Cover {
        Cover {
            num_inputs: self.num_inputs,
            cubes: self
                .cubes
                .iter()
                .filter_map(|c| c.cofactor(var, value))
                .collect(),
        }
    }

    /// Cofactor with respect to an entire cube (the Shannon cofactor
    /// used by cube-containment checks). Word-parallel per cube.
    pub fn cofactor_cube(&self, cube: &Cube) -> Cover {
        Cover {
            num_inputs: self.num_inputs,
            cubes: self
                .cubes
                .iter()
                .filter_map(|c| c.cofactor_cube(cube))
                .collect(),
        }
    }

    /// Whether the cover is a tautology (constant 1), decided by unate
    /// recursion with a vanishing-size pruner.
    #[cfg(test)]
    fn is_tautology(&self) -> bool {
        tautology(self.num_inputs, &self.cubes)
    }

    /// Whether `cube` is entirely contained in this cover.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        let cf: Vec<Cube> = self
            .cubes
            .iter()
            .filter_map(|c| c.cofactor_cube(cube))
            .collect();
        tautology(self.num_inputs, &cf)
    }

    /// Whether this cover covers every minterm `other` covers.
    pub fn covers_cover(&self, other: &Cover) -> bool {
        other.cubes.iter().all(|c| self.covers_cube(c))
    }

    /// Whether the two covers denote the same function.
    pub fn equivalent(&self, other: &Cover) -> bool {
        self.covers_cover(other) && other.covers_cover(self)
    }

    /// The complement of the cover, computed by Shannon expansion.
    pub fn complement(&self) -> Cover {
        let n = self.num_inputs;
        // Terminal cases.
        if self.cubes.is_empty() {
            return Cover::one(n);
        }
        if self.cubes.iter().any(|c| c.num_literals() == 0) {
            return Cover::empty(n);
        }
        if self.cubes.len() == 1 {
            // De Morgan on a single cube.
            let c = &self.cubes[0];
            let mut out = Vec::new();
            c.for_each_literal(|v, lit| {
                let mut k = Cube::full(n);
                k.set(v, if lit == Tri::One { Tri::Zero } else { Tri::One });
                out.push(k);
            });
            return Cover::from_cubes(n, out);
        }
        let var = most_binate_var(n, &self.cubes).unwrap_or_else(|| self.first_used_var());
        let f0 = self.cofactor(var, false).complement();
        let f1 = self.cofactor(var, true).complement();
        let mut cubes = Vec::with_capacity(f0.cubes.len() + f1.cubes.len());
        for mut c in f0.cubes {
            c.set(var, Tri::Zero);
            cubes.push(c);
        }
        for mut c in f1.cubes {
            c.set(var, Tri::One);
            cubes.push(c);
        }
        let mut out = Cover {
            num_inputs: n,
            cubes,
        };
        out.remove_single_cube_containment();
        out
    }

    /// Removes cubes covered by another single cube of the cover (a
    /// cheap but effective redundancy filter).
    pub fn remove_single_cube_containment(&mut self) {
        let mut keep = vec![true; self.cubes.len()];
        for i in 0..self.cubes.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.cubes.len() {
                if i != j && keep[j] && keep[i] && self.cubes[j].covers(&self.cubes[i]) {
                    // Prefer keeping the larger cube j; break ties by
                    // keeping the earlier one.
                    if self.cubes[i].covers(&self.cubes[j]) && i < j {
                        keep[j] = false;
                    } else {
                        keep[i] = false;
                    }
                }
            }
        }
        let mut it = keep.iter();
        self.cubes.retain(|_| *it.next().expect("keep mask"));
    }

    /// Compacts the cover by greedily merging distance-1 sibling cubes
    /// ([`Cube::sibling_merge`]) and dropping contained cubes, in
    /// place. The denoted function is unchanged; only the
    /// representation shrinks. Used to condense minterm-enumerated
    /// off-sets before EXPAND scans them.
    ///
    /// Greedy (first-match) merging keeps the cube count strictly
    /// non-increasing — unlike exhaustive Quine–McCluskey pairing,
    /// whose intermediate implicant lists blow up combinatorially on
    /// dense inputs.
    pub fn merge_siblings(&mut self) {
        // Sweep to a fixpoint: a merge at row i can enable a merge at
        // an earlier row (e.g. minterm pairs 0∪1 and 2∪3 must then
        // merge with each other), so one forward pass is not enough.
        loop {
            let mut changed = false;
            let mut i = 0;
            while i < self.cubes.len() {
                let mut grew = false;
                let mut j = i + 1;
                while j < self.cubes.len() {
                    if self.cubes[i].covers(&self.cubes[j]) {
                        self.cubes.swap_remove(j);
                        changed = true;
                    } else if self.cubes[j].covers(&self.cubes[i]) {
                        self.cubes.swap(i, j);
                        self.cubes.swap_remove(j);
                        grew = true;
                    } else if let Some(m) = self.cubes[i].sibling_merge(&self.cubes[j]) {
                        self.cubes[i] = m;
                        self.cubes.swap_remove(j);
                        grew = true;
                    } else {
                        j += 1;
                    }
                }
                if grew {
                    changed = true;
                    // Re-scan row i: the bigger cube may now absorb or
                    // merge with cubes it previously missed.
                } else {
                    i += 1;
                }
            }
            if !changed {
                return;
            }
        }
    }

    fn first_used_var(&self) -> usize {
        for v in 0..self.num_inputs {
            if self.cubes.iter().any(|c| c.get(v) != Tri::DontCare) {
                return v;
            }
        }
        0
    }
}

/// Unate-recursive tautology over a cube list ([`Cover::covers_cube`]
/// builds its cofactored cube list directly, without an intermediate
/// cover).
pub(crate) fn tautology(n: usize, cubes: &[Cube]) -> bool {
    // Fast exits.
    if cubes.iter().any(|c| c.num_literals() == 0) {
        return true;
    }
    if cubes.is_empty() {
        return false;
    }
    // Vanishing-size pruner: the union of the cubes has at most
    // Σ |cube| minterms; short of 2^n it cannot be a tautology. This
    // resolves the common "sparse branch" case without recursion.
    if n < 128 {
        let mut total = 0u128;
        for c in cubes {
            total += 1u128 << (n - c.num_literals());
            if total >= 1u128 << n {
                break;
            }
        }
        if total < 1u128 << n {
            return false;
        }
    }
    // Unate reduction via binate-select recursion, correct for all
    // covers: a cover unate in every variable (with no full cube) is
    // never a tautology.
    match most_binate_var(n, cubes) {
        Some(var) => {
            let branch = |value| {
                let cf: Vec<Cube> = cubes
                    .iter()
                    .filter_map(|c| c.cofactor(var, value))
                    .collect();
                tautology(n, &cf)
            };
            branch(false) && branch(true)
        }
        None => false,
    }
}

/// The variable appearing both complemented and uncomplemented in the
/// most cubes, or `None` if the cover is unate. Literal positions are
/// harvested from the packed masks, so the scan costs O(literals)
/// rather than O(cubes × n).
fn most_binate_var(n: usize, cubes: &[Cube]) -> Option<usize> {
    let mut pos = vec![0usize; n];
    let mut neg = vec![0usize; n];
    for c in cubes {
        c.for_each_literal(|v, t| match t {
            Tri::One => pos[v] += 1,
            Tri::Zero => neg[v] += 1,
            Tri::DontCare => unreachable!("for_each_literal yields bound vars"),
        });
    }
    (0..n)
        .filter(|&v| pos[v] > 0 && neg[v] > 0)
        .max_by_key(|&v| pos[v] + neg[v])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor2() -> Cover {
        Cover::from_minterms(2, &[0b01, 0b10])
    }

    #[test]
    fn eval_matches_minterms() {
        let f = xor2();
        assert!(!f.eval(0b00));
        assert!(f.eval(0b01));
        assert!(f.eval(0b10));
        assert!(!f.eval(0b11));
    }

    #[test]
    fn tautology_detection() {
        assert!(Cover::one(3).is_tautology());
        assert!(!Cover::empty(3).is_tautology());
        assert!(!xor2().is_tautology());
        // x + !x is a tautology.
        let f = Cover::from_cubes(
            1,
            vec![
                Cube::from_lits(vec![Tri::One]),
                Cube::from_lits(vec![Tri::Zero]),
            ],
        );
        assert!(f.is_tautology());
    }

    /// Cofactoring the empty cover (the constant-0 function) must
    /// stay empty for every variable, polarity and cube divisor —
    /// the base case the espresso recursions bottom out on.
    #[test]
    fn empty_cover_cofactors_stay_empty() {
        for n in [1usize, 2, 5, 33] {
            let empty = Cover::empty(n);
            assert!(empty.is_empty());
            assert!(!empty.is_tautology(), "n={n}");
            for v in [0, n - 1] {
                for val in [false, true] {
                    let cf = empty.cofactor(v, val);
                    assert!(cf.is_empty(), "n={n} var {v} val {val}");
                    assert_eq!(cf.num_inputs(), n);
                }
            }
            let mut divisor = Cube::full(n);
            divisor.set(0, Tri::One);
            let cf = empty.cofactor_cube(&divisor);
            assert!(cf.is_empty(), "n={n}");
            // And the complement of nothing is everything.
            assert!(empty.complement().is_tautology(), "n={n}");
        }
    }

    /// Cofactoring a nonempty cover can also *become* empty — when
    /// the literal contradicts every cube. The result must behave as
    /// constant 0, not as an error.
    #[test]
    fn cofactor_can_empty_a_nonempty_cover() {
        // f = x0 (single cube); f | x0=0 is empty.
        let f = Cover::from_cubes(
            3,
            vec![Cube::from_lits(vec![
                Tri::One,
                Tri::DontCare,
                Tri::DontCare,
            ])],
        );
        let zero = f.cofactor(0, false);
        assert!(zero.is_empty());
        assert!(!zero.eval(0));
        let one = f.cofactor(0, true);
        assert!(one.is_tautology(), "x0 | x0=1 is the universal function");
    }

    #[test]
    fn full_minterm_cover_is_tautology() {
        let f = Cover::from_minterms(3, &(0..8).collect::<Vec<u64>>());
        assert!(f.is_tautology());
        let g = Cover::from_minterms(3, &(0..7).collect::<Vec<u64>>());
        assert!(!g.is_tautology());
    }

    #[test]
    fn overlapping_cubes_do_not_fool_the_pruner() {
        // Σ sizes ≥ 2^n but the union is not everything: the pruner
        // must not give a false positive, only skip work.
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::from_lits(vec![Tri::One, Tri::DontCare]), // x0
                Cube::from_lits(vec![Tri::One, Tri::DontCare]), // x0 again
                Cube::from_lits(vec![Tri::One, Tri::One]),      // x0·x1
            ],
        );
        assert!(!f.is_tautology());
    }

    #[test]
    fn complement_is_exact_on_random_functions() {
        // Deterministic pseudo-random functions over 5 vars.
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..20 {
            let minterms: Vec<u64> = (0..32).filter(|_| next() % 2 == 0).collect();
            let f = Cover::from_minterms(5, &minterms);
            let fc = f.complement();
            for m in 0..32 {
                assert_eq!(fc.eval(m), !f.eval(m), "minterm {m}");
            }
        }
    }

    #[test]
    fn complement_of_constants() {
        assert!(Cover::empty(4).complement().is_tautology());
        assert!(Cover::one(4).complement().is_empty());
    }

    #[test]
    fn covers_cube_checks() {
        let f = Cover::from_minterms(2, &[0b00, 0b01]); // !x1
        let c = Cube::from_lits(vec![Tri::DontCare, Tri::Zero]); // !x1
        assert!(f.covers_cube(&c));
        let d = Cube::full(2);
        assert!(!f.covers_cube(&d));
    }

    #[test]
    fn equivalence() {
        let f = Cover::from_minterms(2, &[0b10, 0b11]);
        let g = Cover::from_cubes(2, vec![Cube::from_lits(vec![Tri::DontCare, Tri::One])]);
        assert!(f.equivalent(&g));
        assert!(!f.equivalent(&xor2()));
    }

    #[test]
    fn single_cube_containment_removal() {
        let mut f = Cover::from_cubes(
            2,
            vec![
                Cube::from_lits(vec![Tri::One, Tri::DontCare]),
                Cube::from_minterm(2, 0b01),
                Cube::from_minterm(2, 0b10),
            ],
        );
        f.remove_single_cube_containment();
        assert_eq!(f.num_cubes(), 2);
    }

    #[test]
    fn cofactor_cube_drops_conflicting() {
        let f = xor2();
        let c = Cube::from_lits(vec![Tri::One, Tri::DontCare]); // x0
        let cf = f.cofactor_cube(&c);
        // f | x0=1 = !x1 → single cube not mentioning x0.
        assert!(cf.eval(0b00));
        assert!(!cf.eval(0b10));
    }

    #[test]
    fn tautology_matches_eval_on_random_covers() {
        // Differential check of the pruned unate recursion against
        // brute-force evaluation.
        let mut seed = 0xabcdefu64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for trial in 0..60 {
            let n = 3 + (trial % 3) as usize;
            let space = 1u64 << n;
            // Mix of random cubes (not just minterms) for real sharing.
            let cubes: Vec<Cube> = (0..(next() % 10 + 1))
                .map(|_| {
                    let lits = (0..n)
                        .map(|_| match next() % 3 {
                            0 => Tri::Zero,
                            1 => Tri::One,
                            _ => Tri::DontCare,
                        })
                        .collect();
                    Cube::from_lits(lits)
                })
                .collect();
            let f = Cover::from_cubes(n, cubes);
            let brute = (0..space).all(|m| f.eval(m));
            assert_eq!(f.is_tautology(), brute, "trial {trial}");
        }
    }
}
