//! Cubes: product terms over a fixed set of Boolean variables.
//!
//! A cube is stored bit-packed: two bits per variable in `u64` words,
//! 32 variables per word. The encoding is the classic positional-cube
//! notation — each field is the *set of allowed values* of that
//! variable:
//!
//! | field  | meaning                          |
//! |--------|----------------------------------|
//! | `0b01` | must be 0 (complemented literal) |
//! | `0b10` | must be 1 (literal)              |
//! | `0b11` | don't care                       |
//! | `0b00` | empty (never stored)             |
//!
//! Under this encoding the cube algebra becomes word-parallel bit
//! logic: intersection is `AND`, containment is `other & !self == 0`,
//! disjointness is "some field ANDs to `00`", and don't-care counting
//! is a popcount. Padding fields past the last variable are kept at
//! `0b11`, so equality, hashing and every binary operation work on
//! whole words without tail masking.
//!
//! Cubes of up to 32 variables — every function this workspace ever
//! synthesizes — fit in a single inline word with no heap allocation;
//! wider cubes spill the remaining words to a boxed slice.

use std::fmt;

/// Value of one variable within a [`Cube`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tri {
    /// The variable appears complemented (must be 0).
    Zero,
    /// The variable appears uncomplemented (must be 1).
    One,
    /// The variable does not appear (don't care).
    DontCare,
}

/// Variables per packed word (two bits each).
const VARS_PER_WORD: usize = 32;
/// Low bit of every 2-bit field.
const LO: u64 = 0x5555_5555_5555_5555;

const ENC_ZERO: u64 = 0b01;
const ENC_ONE: u64 = 0b10;
const ENC_DC: u64 = 0b11;

#[inline]
fn encode(t: Tri) -> u64 {
    match t {
        Tri::Zero => ENC_ZERO,
        Tri::One => ENC_ONE,
        Tri::DontCare => ENC_DC,
    }
}

#[inline]
fn decode(bits: u64) -> Tri {
    match bits {
        ENC_ZERO => Tri::Zero,
        ENC_ONE => Tri::One,
        ENC_DC => Tri::DontCare,
        _ => unreachable!("empty field in stored cube"),
    }
}

/// Spreads the low 32 bits of `x` to the even bit positions of a
/// 64-bit word (Morton interleave with zero).
#[inline]
fn spread32(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & LO
}

/// The word a minterm induces: field `i` is `10` where bit `i` of the
/// chunk is 1, `01` where it is 0 (including past-the-end positions,
/// which is harmless because cube padding there is `11`).
#[inline]
fn minterm_word(chunk: u64) -> u64 {
    let s = spread32(chunk);
    (s << 1) | (!s & LO)
}

/// True if every 2-bit field of `w` is nonzero.
#[inline]
fn no_empty_field(w: u64) -> bool {
    ((w | (w >> 1)) & LO) == LO
}

/// A product term (cube) over `n` variables.
///
/// Variable `i` corresponds to bit `i` of a minterm index (bit 0 is the
/// least significant). Variable `i` lives in word `i / 32`, bits
/// `2*(i % 32) ..= 2*(i % 32) + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    n: u32,
    /// First 32 variables (always present; all-DC for `n == 0`).
    w0: u64,
    /// Words for variables 32.., present only when `n > 32`.
    rest: Option<Box<[u64]>>,
}

impl Cube {
    /// The universal cube (all don't-cares) over `n` variables.
    pub fn full(n: usize) -> Self {
        let extra = n.saturating_sub(VARS_PER_WORD).div_ceil(VARS_PER_WORD);
        Cube {
            n: n as u32,
            w0: u64::MAX,
            rest: if extra == 0 {
                None
            } else {
                Some(vec![u64::MAX; extra].into_boxed_slice())
            },
        }
    }

    /// The cube matching exactly one minterm. Bit `i` of `minterm`
    /// gives variable `i`'s value (variables past bit 63 read as 0).
    pub fn from_minterm(n: usize, minterm: u64) -> Self {
        let mut c = Cube::full(n);
        for w in 0..c.num_words() {
            let base = w * VARS_PER_WORD;
            if base >= n {
                break; // padding words stay all-DC
            }
            let used = (n - base).min(VARS_PER_WORD);
            let chunk = if base < 64 { minterm >> base } else { 0 };
            let mask = if used == VARS_PER_WORD {
                u64::MAX
            } else {
                (1u64 << (2 * used)) - 1
            };
            *c.word_mut(w) = (minterm_word(chunk) & mask) | !mask;
        }
        c
    }

    /// Builds a cube from explicit literals.
    pub fn from_lits(lits: Vec<Tri>) -> Self {
        let mut c = Cube::full(lits.len());
        for (i, &l) in lits.iter().enumerate() {
            c.set_raw(i, encode(l));
        }
        c
    }

    /// The cube of `n ≤ 32` variables whose one packed word is `word`.
    pub(crate) fn from_word(n: usize, word: u64) -> Self {
        debug_assert!(n <= VARS_PER_WORD, "one word holds at most 32 variables");
        Cube {
            n: n as u32,
            w0: word,
            rest: None,
        }
    }

    /// The packed word of a cube of at most 32 variables, `None` for a
    /// wider cube.
    pub(crate) fn only_word(&self) -> Option<u64> {
        self.rest.is_none().then_some(self.w0)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n as usize
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.w0
        } else {
            self.rest.as_ref().expect("word index in range")[w - 1]
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w == 0 {
            &mut self.w0
        } else {
            &mut self.rest.as_mut().expect("word index in range")[w - 1]
        }
    }

    /// Number of packed words.
    #[inline]
    fn num_words(&self) -> usize {
        1 + self.rest.as_ref().map_or(0, |r| r.len())
    }

    #[inline]
    fn set_raw(&mut self, var: usize, enc: u64) {
        let shift = (var % VARS_PER_WORD) * 2;
        let w = self.word_mut(var / VARS_PER_WORD);
        *w = (*w & !(0b11 << shift)) | (enc << shift);
    }

    #[inline]
    fn get_raw(&self, var: usize) -> u64 {
        let shift = (var % VARS_PER_WORD) * 2;
        (self.word(var / VARS_PER_WORD) >> shift) & 0b11
    }

    /// The literal of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn get(&self, var: usize) -> Tri {
        assert!(var < self.num_vars(), "variable out of range");
        decode(self.get_raw(var))
    }

    /// Sets the literal of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set(&mut self, var: usize, value: Tri) {
        assert!(var < self.num_vars(), "variable out of range");
        self.set_raw(var, encode(value));
    }

    /// Number of non-don't-care literals.
    pub fn num_literals(&self) -> usize {
        // Padding fields are all-DC, so counting DC fields over whole
        // words and subtracting from the field count is exact.
        let mut dc = 0u32;
        for w in 0..self.num_words() {
            let v = self.word(w);
            dc += (v & (v >> 1) & LO).count_ones();
        }
        self.num_words() * VARS_PER_WORD - dc as usize
    }

    /// Whether the cube contains the given minterm.
    pub fn contains_minterm(&self, minterm: u64) -> bool {
        for w in 0..self.num_words() {
            let chunk = if w * VARS_PER_WORD < 64 {
                minterm >> (w * VARS_PER_WORD)
            } else {
                0
            };
            if !no_empty_field(self.word(w) & minterm_word(chunk)) {
                return false;
            }
        }
        true
    }

    /// Whether `self` covers `other` (every minterm of `other` is in
    /// `self`): each field of `other` is a subset of the same field of
    /// `self`.
    pub fn covers(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.num_vars(), other.num_vars());
        for w in 0..self.num_words() {
            if other.word(w) & !self.word(w) != 0 {
                return false;
            }
        }
        true
    }

    /// The intersection of two cubes, or `None` if they are disjoint.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.num_vars(), other.num_vars());
        let mut out = self.clone();
        for w in 0..out.num_words() {
            let t = out.word(w) & other.word(w);
            if !no_empty_field(t) {
                return None;
            }
            *out.word_mut(w) = t;
        }
        Some(out)
    }

    /// Whether the cubes share at least one minterm.
    pub fn intersects(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.num_vars(), other.num_vars());
        for w in 0..self.num_words() {
            if !no_empty_field(self.word(w) & other.word(w)) {
                return false;
            }
        }
        true
    }

    /// Cofactor with respect to `var = value`: `None` if the cube
    /// requires the opposite value, otherwise the cube with `var`
    /// freed.
    pub fn cofactor(&self, var: usize, value: bool) -> Option<Cube> {
        let want = if value { ENC_ONE } else { ENC_ZERO };
        if self.get_raw(var) & want == 0 {
            return None;
        }
        let mut c = self.clone();
        c.set_raw(var, ENC_DC);
        Some(c)
    }

    /// Cofactor with respect to an entire cube: every variable `other`
    /// binds is freed, and `None` is returned when the cubes are
    /// disjoint (the cofactor contributes nothing).
    ///
    /// Word-parallel: the freed positions are exactly `other`'s
    /// non-DC fields, OR-ed into `self` as `11`.
    pub fn cofactor_cube(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.num_vars(), other.num_vars());
        let mut out = self.clone();
        for w in 0..out.num_words() {
            let s = out.word(w);
            let o = other.word(w);
            if !no_empty_field(s & o) {
                return None;
            }
            // Fields where `other` is bound (not 11); padding is 11,
            // so it is never freed spuriously.
            let bound = !(o & (o >> 1)) & LO;
            *out.word_mut(w) = s | bound | (bound << 1);
        }
        Some(out)
    }

    /// Word `w`'s literal positions: bit masks on the even positions
    /// marking fields equal to `One` (`.0`) and `Zero` (`.1`).
    fn literal_masks(&self, w: usize) -> (u64, u64) {
        let v = self.word(w);
        let hi = (v >> 1) & LO;
        let lo = v & LO;
        (hi & !lo, lo & !hi)
    }

    /// Calls `f(var)` for every bound (non-DC) variable.
    pub(crate) fn for_each_literal(&self, mut f: impl FnMut(usize, Tri)) {
        for w in 0..self.num_words() {
            let (ones, zeros) = self.literal_masks(w);
            let mut bits = ones | zeros;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                let var = w * VARS_PER_WORD + b / 2;
                let value = if ones >> b & 1 == 1 {
                    Tri::One
                } else {
                    Tri::Zero
                };
                f(var, value);
                bits &= bits - 1;
            }
        }
    }

    /// Number of minterms the cube contains (`2^(free vars)`).
    pub fn size(&self) -> u64 {
        1u64 << (self.num_vars() - self.num_literals())
    }

    /// If the two cubes are identical except for exactly one variable
    /// bound to opposite values, returns their exact union (that
    /// variable freed) — the Quine–McCluskey merging step. The XOR of
    /// the packed words is then a single `11` field, so the test is a
    /// couple of popcounts.
    pub fn sibling_merge(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.num_vars(), other.num_vars());
        let mut diff_word = usize::MAX;
        for w in 0..self.num_words() {
            let x = self.word(w) ^ other.word(w);
            if x == 0 {
                continue;
            }
            if diff_word != usize::MAX || x.count_ones() != 2 || (x & (x >> 1) & LO) == 0 {
                return None;
            }
            diff_word = w;
        }
        if diff_word == usize::MAX {
            return None; // equal cubes: containment handles them
        }
        let mut out = self.clone();
        let x = self.word(diff_word) ^ other.word(diff_word);
        *out.word_mut(diff_word) |= x;
        Some(out)
    }
}

impl fmt::Display for Cube {
    /// PLA-style text, most significant variable first: `1-0` means
    /// `x2·x̄0` over three variables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for var in (0..self.num_vars()).rev() {
            let c = match decode(self.get_raw(var)) {
                Tri::Zero => '0',
                Tri::One => '1',
                Tri::DontCare => '-',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(dead_code)] // retained verbatim; not every method has a differential test
pub(crate) mod oracle {
    //! The original unpacked `Vec<Tri>` cube, retained verbatim as a
    //! differential-testing oracle for the packed representation.

    use super::Tri;

    /// Reference cube: one `Tri` per variable.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SlowCube {
        lits: Vec<Tri>,
    }

    impl SlowCube {
        pub fn full(n: usize) -> Self {
            SlowCube {
                lits: vec![Tri::DontCare; n],
            }
        }

        pub fn from_minterm(n: usize, minterm: u64) -> Self {
            let lits = (0..n)
                .map(|i| {
                    if (minterm >> i) & 1 == 1 {
                        Tri::One
                    } else {
                        Tri::Zero
                    }
                })
                .collect();
            SlowCube { lits }
        }

        pub fn from_lits(lits: Vec<Tri>) -> Self {
            SlowCube { lits }
        }

        pub fn lits(&self) -> &[Tri] {
            &self.lits
        }

        pub fn num_literals(&self) -> usize {
            self.lits.iter().filter(|&&l| l != Tri::DontCare).count()
        }

        pub fn contains_minterm(&self, minterm: u64) -> bool {
            self.lits.iter().enumerate().all(|(i, &l)| match l {
                Tri::DontCare => true,
                Tri::One => (minterm >> i) & 1 == 1,
                Tri::Zero => (minterm >> i) & 1 == 0,
            })
        }

        pub fn covers(&self, other: &SlowCube) -> bool {
            self.lits
                .iter()
                .zip(&other.lits)
                .all(|(&s, &o)| s == Tri::DontCare || s == o)
        }

        pub fn intersect(&self, other: &SlowCube) -> Option<SlowCube> {
            let mut lits = Vec::with_capacity(self.lits.len());
            for (&s, &o) in self.lits.iter().zip(&other.lits) {
                let m = match (s, o) {
                    (Tri::DontCare, x) | (x, Tri::DontCare) => x,
                    (a, b) if a == b => a,
                    _ => return None,
                };
                lits.push(m);
            }
            Some(SlowCube { lits })
        }

        pub fn intersects(&self, other: &SlowCube) -> bool {
            self.lits
                .iter()
                .zip(&other.lits)
                .all(|(&s, &o)| s == Tri::DontCare || o == Tri::DontCare || s == o)
        }

        pub fn cofactor(&self, var: usize, value: bool) -> Option<SlowCube> {
            match (self.lits[var], value) {
                (Tri::One, false) | (Tri::Zero, true) => None,
                _ => {
                    let mut c = self.clone();
                    c.lits[var] = Tri::DontCare;
                    Some(c)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::SlowCube;
    use super::*;
    use adgen_exec::Prng;

    #[test]
    fn minterm_membership() {
        let c = Cube::from_minterm(3, 0b101);
        assert!(c.contains_minterm(0b101));
        assert!(!c.contains_minterm(0b100));
        assert_eq!(c.num_literals(), 3);
        assert_eq!(c.size(), 1);
    }

    #[test]
    fn full_cube_contains_everything() {
        let c = Cube::full(4);
        for m in 0..16 {
            assert!(c.contains_minterm(m));
        }
        assert_eq!(c.size(), 16);
        assert_eq!(c.num_literals(), 0);
    }

    #[test]
    fn covers_and_intersection() {
        let a = Cube::from_lits(vec![Tri::One, Tri::DontCare]); // x0
        let b = Cube::from_minterm(2, 0b01); // x0 & !x1
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.intersects(&b));
        assert_eq!(a.intersect(&b).unwrap(), b);
        let c = Cube::from_lits(vec![Tri::Zero, Tri::DontCare]); // !x0
        assert!(!a.intersects(&c));
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn cofactoring() {
        let c = Cube::from_lits(vec![Tri::One, Tri::Zero, Tri::DontCare]);
        assert!(c.cofactor(0, false).is_none());
        let cf = c.cofactor(0, true).unwrap();
        assert_eq!(cf.get(0), Tri::DontCare);
        assert_eq!(cf.get(1), Tri::Zero);
        let cf2 = c.cofactor(2, true).unwrap();
        assert_eq!(cf2.get(2), Tri::DontCare);
    }

    #[test]
    fn display_is_pla_order() {
        let c = Cube::from_lits(vec![Tri::Zero, Tri::DontCare, Tri::One]); // x2 & !x0
        assert_eq!(c.to_string(), "1-0");
    }

    #[test]
    fn cofactor_cube_frees_bound_vars() {
        let c = Cube::from_lits(vec![Tri::One, Tri::Zero, Tri::One, Tri::DontCare]);
        let k = Cube::from_lits(vec![Tri::One, Tri::DontCare, Tri::DontCare, Tri::Zero]);
        let cf = c.cofactor_cube(&k).unwrap();
        assert_eq!(cf.get(0), Tri::DontCare); // freed by k
        assert_eq!(cf.get(1), Tri::Zero); // untouched
        assert_eq!(cf.get(2), Tri::One); // untouched
        assert_eq!(cf.get(3), Tri::DontCare); // freed by k
        let disjoint = Cube::from_lits(vec![Tri::Zero; 4]);
        assert!(c.cofactor_cube(&disjoint).is_none());
    }

    #[test]
    fn wide_cubes_spill_and_still_work() {
        // 70 variables: three words.
        let n = 70;
        let mut c = Cube::full(n);
        c.set(0, Tri::One);
        c.set(33, Tri::Zero);
        c.set(69, Tri::One);
        assert_eq!(c.num_literals(), 3);
        assert_eq!(c.get(33), Tri::Zero);
        assert_eq!(c.get(34), Tri::DontCare);
        let d = Cube::full(n);
        assert!(d.covers(&c));
        assert!(!c.covers(&d));
        assert!(c.intersects(&d));
        let mut e = Cube::full(n);
        e.set(33, Tri::One);
        assert!(!c.intersects(&e));
        assert!(c.intersect(&e).is_none());
    }

    fn random_cube(rng: &mut Prng, n: usize) -> (Cube, SlowCube) {
        let lits: Vec<Tri> = (0..n)
            .map(|_| match rng.next_range(4) {
                0 => Tri::Zero,
                1 => Tri::One,
                _ => Tri::DontCare,
            })
            .collect();
        (Cube::from_lits(lits.clone()), SlowCube::from_lits(lits))
    }

    /// Differential test: every packed operation agrees with the
    /// original `Vec<Tri>` implementation on random cubes, across the
    /// inline (≤32 vars) and spilled (>32 vars) representations.
    #[test]
    fn packed_ops_match_unpacked_oracle() {
        let mut rng = Prng::new(0xC0FFEE);
        for trial in 0..400 {
            let n = [1, 2, 5, 8, 13, 31, 32, 33, 40, 64][trial % 10];
            let (a, sa) = random_cube(&mut rng, n);
            let (b, sb) = random_cube(&mut rng, n);

            assert_eq!(a.num_literals(), sa.num_literals(), "n={n}");
            assert_eq!(a.covers(&b), sa.covers(&sb), "n={n}");
            assert_eq!(a.intersects(&b), sa.intersects(&sb), "n={n}");
            match (a.intersect(&b), sa.intersect(&sb)) {
                (None, None) => {}
                (Some(p), Some(s)) => {
                    for v in 0..n {
                        assert_eq!(p.get(v), s.lits()[v], "n={n} var {v}");
                    }
                }
                (p, s) => panic!("intersect disagrees at n={n}: {p:?} vs {s:?}"),
            }

            let var = rng.next_range(n as u64) as usize;
            let val = rng.one_in(2);
            match (a.cofactor(var, val), sa.cofactor(var, val)) {
                (None, None) => {}
                (Some(p), Some(s)) => {
                    for v in 0..n {
                        assert_eq!(p.get(v), s.lits()[v], "n={n} var {v}");
                    }
                }
                (p, s) => panic!("cofactor disagrees at n={n}: {p:?} vs {s:?}"),
            }

            if n <= 20 {
                for _ in 0..16 {
                    let m = rng.next_range(1 << n);
                    assert_eq!(a.contains_minterm(m), sa.contains_minterm(m), "n={n} m={m}");
                }
            }

            // Round-trips.
            for v in 0..n {
                assert_eq!(a.get(v), sa.lits()[v], "n={n} var {v}");
            }
            let m = rng.next_range(1u64 << n.min(63));
            let pm = Cube::from_minterm(n, m);
            let sm = SlowCube::from_minterm(n, m);
            for v in 0..n {
                assert_eq!(pm.get(v), sm.lits()[v], "n={n} var {v}");
            }
        }
    }

    /// The packed layout stores 32 variables per word: n = 32 is the
    /// last purely inline arity, 33 the first spilled one, 64 the
    /// last single-spill-word arity and 65 the first needing two
    /// spill words. Exercise each boundary with bound literals on
    /// both sides of every word seam.
    #[test]
    fn word_boundary_arities() {
        for n in [32usize, 33, 64, 65] {
            let mut c = Cube::full(n);
            // Bind the first and last variable and both sides of each
            // 32-variable seam that exists at this arity.
            let mut bound = vec![0, n - 1];
            for seam in [32usize, 64] {
                if n > seam {
                    bound.push(seam - 1);
                    bound.push(seam);
                }
            }
            bound.sort_unstable();
            bound.dedup();
            for (i, &v) in bound.iter().enumerate() {
                c.set(v, if i % 2 == 0 { Tri::One } else { Tri::Zero });
            }
            assert_eq!(c.num_literals(), bound.len(), "n={n}");
            for v in 0..n {
                let expected = match bound.iter().position(|&b| b == v) {
                    Some(i) if i % 2 == 0 => Tri::One,
                    Some(_) => Tri::Zero,
                    None => Tri::DontCare,
                };
                assert_eq!(c.get(v), expected, "n={n} var {v}");
            }
            // Freeing the last bound literal one by one walks back to
            // the full cube regardless of which word the literal
            // lives in.
            let mut d = c.clone();
            for &v in bound.iter().rev() {
                d.set(v, Tri::DontCare);
            }
            assert!(d.covers(&c), "n={n}: freed cube must cover original");
            assert_eq!(d.num_literals(), 0, "n={n}");
            // from_minterm at the same arities: variables >= 64 read
            // bit 0 of a nonexistent chunk, i.e. Zero.
            let m = Cube::from_minterm(n, u64::MAX);
            for v in 0..n {
                let expected = if v < 64 { Tri::One } else { Tri::Zero };
                assert_eq!(m.get(v), expected, "n={n} var {v}");
            }
            assert_eq!(m.num_literals(), n, "minterm cube binds all vars");
        }
    }

    /// An all-don't-care cube is the universal cube at every arity:
    /// it covers and intersects everything, has no literals, and
    /// cofactoring it by any variable is a no-op.
    #[test]
    fn all_dont_care_cubes_are_universal() {
        for n in [1usize, 31, 32, 33, 64, 65] {
            let full = Cube::full(n);
            assert_eq!(full.num_literals(), 0, "n={n}");
            if n < 64 {
                // `size` is `2^(free vars)` and only representable in
                // a u64 below 64 free variables.
                assert_eq!(full.size(), 1u64 << n, "n={n}");
            }
            let mut probe = Cube::full(n);
            probe.set(0, Tri::One);
            probe.set(n - 1, Tri::Zero);
            assert!(full.covers(&probe), "n={n}");
            assert!(full.intersects(&probe), "n={n}");
            assert_eq!(full.intersect(&probe), Some(probe.clone()), "n={n}");
            for v in [0, n / 2, n - 1] {
                for val in [false, true] {
                    assert_eq!(
                        full.cofactor(v, val),
                        Some(full.clone()),
                        "n={n} var {v} val {val}"
                    );
                }
            }
            assert!(full.contains_minterm(0), "n={n}");
            assert!(full.contains_minterm(u64::MAX), "n={n}");
        }
    }

    #[test]
    fn for_each_literal_enumerates_bound_vars() {
        let c = Cube::from_lits(vec![
            Tri::One,
            Tri::DontCare,
            Tri::Zero,
            Tri::DontCare,
            Tri::One,
        ]);
        let mut seen = Vec::new();
        c.for_each_literal(|v, t| seen.push((v, t)));
        assert_eq!(seen, vec![(0, Tri::One), (2, Tri::Zero), (4, Tri::One)]);
    }
}
