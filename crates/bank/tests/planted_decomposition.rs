//! A planted-structure oracle for `Decomposition::of`: streams are
//! built from a known composition — counter bits, XOR folds of chosen
//! counter-bit pairs, and bits of a random permutation of the cycle
//! index (the residue) — so the factorization the pass must at least
//! match is known in advance. Every planted counter bit and fold is a
//! GF(2)-affine function of the cycle counter and must be recovered;
//! a residue bit may linearize by chance, which only helps. So
//! `linear_bits()` is at least the planted linear count and the summed
//! `component_cost` at most the planted cost.
//!
//! Cases are seeded; a failing case is shrunk greedily (fewer bits,
//! shorter stream, simpler components) before it is reported.

use adgen_bank::Decomposition;
use adgen_exec::Prng;

/// How one planted address bit is produced at cycle `t`.
#[derive(Debug, Clone, PartialEq)]
enum Planted {
    /// Counter bit `k` of `t`.
    Counter(u32),
    /// `t_a XOR t_b`, complemented when the flag is set.
    Fold(u32, u32, bool),
    /// Bit `i` of `perm[t]`.
    Residue(u32),
}

/// A planted stream: `len` cycles, one component per address bit
/// (LSB first), and the permutation of `0..len` the residue bits read.
#[derive(Debug, Clone)]
struct Case {
    len: usize,
    bits: Vec<Planted>,
    perm: Vec<u32>,
}

/// The cycle-counter width `Decomposition::of` uses for `len` cycles.
fn cnt_bits(len: usize) -> u32 {
    (usize::BITS - (len - 1).leading_zeros()).max(1)
}

impl Case {
    fn draw(rng: &mut Prng) -> Case {
        let len = rng.next_in(3, 257) as usize;
        let k = cnt_bits(len);
        let mut perm: Vec<u32> = (0..len as u32).collect();
        rng.shuffle(&mut perm);
        let mut bits = Vec::new();
        for b in 0..k {
            if rng.one_in(2) {
                bits.push(Planted::Counter(b));
            }
        }
        for _ in 0..rng.next_range(4) {
            let a = rng.next_range(u64::from(k)) as u32;
            let b = (a + 1 + rng.next_range(u64::from(k - 1)) as u32) % k;
            bits.push(Planted::Fold(a.min(b), a.max(b), rng.one_in(2)));
        }
        for i in 0..rng.next_range(u64::from(k.min(4)) + 1) as u32 {
            bits.push(Planted::Residue(i));
        }
        if bits.is_empty() {
            bits.push(Planted::Counter(0));
        }
        rng.shuffle(&mut bits);
        Case { len, bits, perm }
    }

    /// Whether every component reads a bit that exists: counter bits
    /// below the counter width, residue bits below the width of the
    /// permutation's values.
    fn valid(&self) -> bool {
        let k = cnt_bits(self.len);
        !self.bits.is_empty()
            && self.bits.iter().all(|p| match *p {
                Planted::Counter(b) => b < k,
                Planted::Fold(a, b, _) => a < b && b < k,
                Planted::Residue(i) => i < k,
            })
    }

    fn bit(&self, plan: &Planted, t: usize) -> u32 {
        let at = |k: u32| ((t >> k) & 1) as u32;
        match *plan {
            Planted::Counter(k) => at(k),
            Planted::Fold(a, b, invert) => at(a) ^ at(b) ^ u32::from(invert),
            Planted::Residue(i) => (self.perm[t] >> i) & 1,
        }
    }

    fn stream(&self) -> Vec<u32> {
        (0..self.len)
            .map(|t| {
                self.bits
                    .iter()
                    .enumerate()
                    .fold(0, |a, (j, p)| a | (self.bit(p, t) << j))
            })
            .collect()
    }

    fn planted_linear(&self) -> u32 {
        self.bits
            .iter()
            .filter(|p| !matches!(p, Planted::Residue(_)))
            .count() as u32
    }

    /// The planted factorization priced by `component_cost`'s model:
    /// a counter bit 1, a two-term fold 3, and each residue bit 8 plus
    /// the distinct values of the packed residue.
    fn planted_cost(&self) -> u32 {
        let residue: Vec<&Planted> = self
            .bits
            .iter()
            .filter(|p| matches!(p, Planted::Residue(_)))
            .collect();
        let mut packed: Vec<u32> = (0..self.len)
            .map(|t| {
                residue
                    .iter()
                    .enumerate()
                    .fold(0, |v, (i, p)| v | (self.bit(p, t) << i))
            })
            .collect();
        packed.sort_unstable();
        packed.dedup();
        let states = packed.len() as u32;
        self.bits
            .iter()
            .map(|p| match p {
                Planted::Counter(_) => 1,
                Planted::Fold(..) => 3,
                Planted::Residue(_) => 8 + states,
            })
            .sum()
    }

    /// Simpler variants of this case, biggest cut first: a halved
    /// stream, one bit fewer, then each component made simpler.
    fn candidates(&self) -> Vec<Case> {
        let mut out = Vec::new();
        if self.len > 3 {
            let len = (self.len / 2).max(3);
            let perm = self.perm.iter().copied().filter(|&v| v < len as u32);
            out.push(Case {
                len,
                perm: perm.collect(),
                ..self.clone()
            });
        }
        for j in 0..self.bits.len() {
            let mut fewer = self.clone();
            fewer.bits.remove(j);
            out.push(fewer);
            let simpler = match self.bits[j] {
                Planted::Fold(a, b, true) => Some(Planted::Fold(a, b, false)),
                Planted::Fold(a, _, false) => Some(Planted::Counter(a)),
                Planted::Residue(_) => Some(Planted::Counter(0)),
                Planted::Counter(0) => None,
                Planted::Counter(_) => Some(Planted::Counter(0)),
            };
            if let Some(plan) = simpler {
                let mut case = self.clone();
                case.bits[j] = plan;
                out.push(case);
            }
        }
        out.retain(Case::valid);
        out
    }
}

/// What is wrong with the factorization of `case`, if anything.
fn violation(case: &Case) -> Option<String> {
    let stream = case.stream();
    let d = Decomposition::of(&stream).expect("nonempty stream within the cap");
    let linear = d.linear_bits();
    let cost: u32 = d.plans.iter().map(|p| d.component_cost(p)).sum();
    if d.addr_bits as usize != case.bits.len() {
        Some(format!(
            "{} address bits, planted {}",
            d.addr_bits,
            case.bits.len()
        ))
    } else if d.reconstruct() != stream {
        Some("reconstruction differs from the stream".into())
    } else if linear < case.planted_linear() {
        Some(format!(
            "{linear} linear bits, planted {}",
            case.planted_linear()
        ))
    } else if cost > case.planted_cost() {
        Some(format!(
            "component cost {cost}, planted {}",
            case.planted_cost()
        ))
    } else {
        None
    }
}

/// Greedily shrinks a failing `case` while it still fails.
fn shrink(mut case: Case) -> Case {
    while let Some(smaller) = case
        .candidates()
        .into_iter()
        .find(|c| violation(c).is_some())
    {
        case = smaller;
    }
    case
}

#[test]
fn decomposition_recovers_at_least_the_planted_structure() {
    let mut rng = Prng::new(0x5EED_D1CE);
    let (mut folds, mut residues) = (0, 0);
    for trial in 0..400 {
        let case = Case::draw(&mut rng);
        assert!(case.valid(), "trial {trial}: {case:?}");
        if violation(&case).is_some() {
            let small = shrink(case);
            panic!(
                "trial {trial}: {} on the shrunk case {small:?} (stream {:?})",
                violation(&small).unwrap(),
                small.stream()
            );
        }
        folds += case
            .bits
            .iter()
            .filter(|p| matches!(p, Planted::Fold(..)))
            .count();
        residues += usize::from(case.bits.iter().any(|p| matches!(p, Planted::Residue(_))));
    }
    // The draw must exercise folds and residues, not just counter bits.
    assert!(folds >= 300, "{folds} folds");
    assert!(residues >= 200, "{residues} cases with a residue");
}

#[test]
fn planted_counter_bits_and_folds_come_back_exactly() {
    // Counter bit 0, t1 ^ t3, an inverted t0 ^ t2, then counter bit 2,
    // over one full 16-cycle counter period: no residue at all.
    let case = Case {
        len: 16,
        bits: vec![
            Planted::Counter(0),
            Planted::Fold(1, 3, false),
            Planted::Fold(0, 2, true),
            Planted::Counter(2),
        ],
        perm: (0..16).collect(),
    };
    let d = Decomposition::of(&case.stream()).unwrap();
    assert!(d.is_fully_linear());
    assert_eq!(d.linear_bits(), 4);
    let cost: u32 = d.plans.iter().map(|p| d.component_cost(p)).sum();
    assert_eq!(cost, case.planted_cost());
    assert_eq!(violation(&case), None);
}
