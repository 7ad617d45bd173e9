//! `wide-cover`: wide (>32-variable) covers → packed `Cover`
//! operations vs. the naive oracle on sampled minterms.

use adgen_exec::Prng;
use adgen_synth::{Cover, Cube};

use super::{BreakMode, CheckResult, Family};
use crate::oracle::{decode_lits, LitCode, OracleCube};
use crate::shrink::drop_each;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Number of input variables (33..=64: always spills words).
    pub(crate) n: usize,
    /// Cubes of the cover, as literal codes.
    pub(crate) cubes: Vec<Vec<LitCode>>,
    /// Minterms probed for evaluation agreement.
    pub(crate) minterms: Vec<u64>,
}

impl Family for Case {
    const KIND: &'static str = "wide-cover";

    fn generate(rng: &mut Prng) -> Self {
        let n = rng.next_in(33, 65) as usize;
        let num_cubes = rng.next_in(1, 6) as usize;
        let cubes = (0..num_cubes)
            .map(|_| {
                // Mostly don't-cares: a handful of bound literals per
                // cube keeps evaluation probes informative.
                let mut lits = vec![2 as LitCode; n];
                for _ in 0..rng.next_in(1, 7) {
                    let v = rng.next_range(n as u64) as usize;
                    lits[v] = rng.next_range(2) as LitCode;
                }
                lits
            })
            .collect();
        let probe_space = 1u64 << n.min(63);
        let minterms = (0..16).map(|_| rng.next_range(probe_space)).collect();
        Case { n, cubes, minterms }
    }

    fn describe(&self) -> String {
        let cubes: Vec<String> = self
            .cubes
            .iter()
            .map(|c| OracleCube::from_codes(c).to_string())
            .collect();
        format!(
            "{} vars, {} cubes [{}], {} minterm probes",
            self.n,
            cubes.len(),
            cubes.join(", "),
            self.minterms.len()
        )
    }

    fn check(&self, _: BreakMode) -> CheckResult {
        let Case { n, cubes, minterms } = self;
        let packed_cubes: Vec<Cube> = cubes
            .iter()
            .map(|c| Cube::from_lits(decode_lits(c)))
            .collect();
        let oracle: Vec<OracleCube> = cubes.iter().map(|c| OracleCube::from_codes(c)).collect();
        let packed = Cover::from_cubes(*n, packed_cubes.clone());
        for &m in minterms {
            let p = packed.eval(m);
            let o = oracle.iter().any(|c| c.contains_minterm(m));
            if p != o {
                return Err(format!(
                    "wide Cover::eval({m}) disagrees: packed {p} vs oracle {o}"
                ));
            }
        }
        // Tautology / containment machinery on spill-word cubes: a
        // cover must cover each of its own cubes, and pairwise
        // intersections must agree with the oracle.
        for (i, cube) in packed_cubes.iter().enumerate() {
            if !packed.covers_cube(cube) {
                return Err(format!("cover fails to cover its own cube {i}"));
            }
        }
        for (i, (pi, oi)) in packed_cubes.iter().zip(&oracle).enumerate() {
            for (pj, oj) in packed_cubes.iter().zip(&oracle).skip(i + 1) {
                if pi.intersects(pj) != oi.intersect(oj).is_some() {
                    return Err("wide-cube intersects disagrees with oracle".into());
                }
            }
        }
        Ok(())
    }

    /// Each cube dropped (never the last), half the arity down to 33
    /// (probes masked), then each bound literal freed.
    fn candidates(&self) -> Vec<Self> {
        let Case { n, cubes, minterms } = self;
        let mut out = Vec::new();
        if cubes.len() > 1 {
            out.extend(drop_each(cubes, usize::MAX).into_iter().map(|cubes| Case {
                cubes,
                ..self.clone()
            }));
        }
        if *n > 33 {
            let nn = 33usize.max(n / 2);
            let mask = (1u64 << nn.min(63)) - 1;
            out.push(Case {
                n: nn,
                cubes: cubes.iter().map(|c| c[..nn].to_vec()).collect(),
                minterms: minterms.iter().map(|m| m & mask).collect(),
            });
        }
        for (i, c) in cubes.iter().enumerate() {
            for v in (0..*n).filter(|&v| c[v] != 2) {
                let mut cubes = cubes.clone();
                cubes[i][v] = 2;
                out.push(Case {
                    cubes,
                    ..self.clone()
                });
            }
        }
        out
    }
}
