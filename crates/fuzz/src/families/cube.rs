//! `cube`: two random cubes → every packed `Cube` operation vs. the
//! `Vec<Tri>` oracle, including spill-word widths.

use adgen_exec::Prng;
use adgen_synth::Cube;

use super::{BreakMode, CheckResult, Family};
use crate::oracle::{decode_lits, LitCode, OracleCube};

/// Cube arities cross the inline/spill boundary deliberately: one
/// packed word holds 32 variables, so 31..33 and 63..65 are the edge
/// cases most likely to hide masking bugs.
const CUBE_ARITIES: [usize; 12] = [1, 2, 3, 5, 8, 16, 31, 32, 33, 63, 64, 65];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Literals of cube `a`, one [`LitCode`] per variable.
    pub(crate) a: Vec<LitCode>,
    /// Literals of cube `b`; same arity as `a`.
    pub(crate) b: Vec<LitCode>,
    /// Minterms probed for containment agreement.
    pub(crate) minterms: Vec<u64>,
}

/// `n` literal codes, biased toward don't-cares so intersections stay
/// non-trivial.
fn random_lits(rng: &mut Prng, n: usize) -> Vec<LitCode> {
    (0..n)
        .map(|_| match rng.next_range(4) {
            0 => 0,
            1 => 1,
            _ => 2,
        })
        .collect()
}

impl Family for Case {
    const KIND: &'static str = "cube";

    fn generate(rng: &mut Prng) -> Self {
        let n = CUBE_ARITIES[rng.next_range(CUBE_ARITIES.len() as u64) as usize];
        let a = random_lits(rng, n);
        let mut b = random_lits(rng, n);
        // Half the time derive `b` from `a` so sibling-merge and
        // containment paths actually fire.
        if rng.one_in(2) {
            b = a.clone();
            for _ in 0..rng.next_in(1, 3) {
                let v = rng.next_range(n as u64) as usize;
                b[v] = rng.next_range(3) as LitCode;
            }
        }
        let probe_space = 1u64 << n.min(63);
        let minterms = (0..8).map(|_| rng.next_range(probe_space)).collect();
        Case { a, b, minterms }
    }

    fn describe(&self) -> String {
        format!(
            "cubes a={} b={} over {} vars, {} minterm probes",
            OracleCube::from_codes(&self.a),
            OracleCube::from_codes(&self.b),
            self.a.len(),
            self.minterms.len()
        )
    }

    fn check(&self, break_mode: BreakMode) -> CheckResult {
        let Case { a, b, minterms } = self;
        let n = a.len();
        let pa = Cube::from_lits(decode_lits(a));
        let pb = Cube::from_lits(decode_lits(b));
        let oa = OracleCube::from_codes(a);
        let ob = OracleCube::from_codes(b);

        if pa.num_literals() != oa.num_literals() {
            return Err(format!(
                "num_literals disagrees: packed {} vs oracle {}",
                pa.num_literals(),
                oa.num_literals()
            ));
        }
        for v in 0..n {
            if pa.get(v) != oa.lits()[v] {
                return Err(format!("literal round-trip disagrees at var {v}"));
            }
        }
        if pa.covers(&pb) != oa.covers(&ob, break_mode) {
            return Err(format!(
                "covers disagrees: packed {} vs oracle {}",
                pa.covers(&pb),
                oa.covers(&ob, break_mode)
            ));
        }
        if pa.intersects(&pb) != oa.intersect(&ob).is_some() {
            return Err("intersects disagrees with oracle intersect".into());
        }
        match (pa.intersect(&pb), oa.intersect(&ob)) {
            (None, None) => {}
            (Some(p), Some(o)) if cubes_equal(&p, &o) => {}
            (p, o) => {
                return Err(format!(
                    "intersect disagrees: packed {:?} vs oracle {:?}",
                    p.map(|c| c.to_string()),
                    o.map(|c| c.to_string())
                ))
            }
        }
        match (pa.sibling_merge(&pb), oa.sibling_merge(&ob)) {
            (None, None) => {}
            (Some(p), Some(o)) if cubes_equal(&p, &o) => {}
            (p, o) => {
                return Err(format!(
                    "sibling_merge disagrees: packed {:?} vs oracle {:?}",
                    p.map(|c| c.to_string()),
                    o.map(|c| c.to_string())
                ))
            }
        }
        // Cofactors: every variable, both polarities.
        for v in 0..n {
            for value in [false, true] {
                match (pa.cofactor(v, value), oa.cofactor(v, value)) {
                    (None, None) => {}
                    (Some(p), Some(o)) if cubes_equal(&p, &o) => {}
                    _ => return Err(format!("cofactor({v}, {value}) disagrees")),
                }
            }
        }
        match (pa.cofactor_cube(&pb), oa.cofactor_cube(&ob)) {
            (None, None) => {}
            (Some(p), Some(o)) if cubes_equal(&p, &o) => {}
            _ => return Err("cofactor_cube disagrees".into()),
        }
        // Minterm probes, plus the from_minterm round trip.
        for &m in minterms {
            if pa.contains_minterm(m) != oa.contains_minterm(m) {
                return Err(format!("contains_minterm({m}) disagrees"));
            }
            let codes: Vec<LitCode> = (0..n)
                .map(|i| LitCode::from(i < 64 && (m >> i) & 1 == 1))
                .collect();
            if !cubes_equal(&Cube::from_minterm(n, m), &OracleCube::from_codes(&codes)) {
                return Err(format!("from_minterm({m}) round trip disagrees"));
            }
        }
        Ok(())
    }

    /// Half the arity (probes masked into the smaller space), then
    /// each bound literal freed, then half the probes.
    fn candidates(&self) -> Vec<Self> {
        let Case { a, b, minterms } = self;
        let mut out = Vec::new();
        let n = a.len();
        if n > 1 {
            let half = n / 2;
            let mask = (1u64 << half.min(63)) - 1;
            out.push(Case {
                a: a[..half].to_vec(),
                b: b[..half].to_vec(),
                minterms: minterms.iter().map(|m| m & mask).collect(),
            });
        }
        for v in 0..n {
            if a[v] != 2 {
                let mut a = a.clone();
                a[v] = 2;
                out.push(Case { a, ..self.clone() });
            }
            if b[v] != 2 {
                let mut b = b.clone();
                b[v] = 2;
                out.push(Case { b, ..self.clone() });
            }
        }
        if minterms.len() > 1 {
            out.push(Case {
                minterms: minterms[..minterms.len() / 2].to_vec(),
                ..self.clone()
            });
        }
        out
    }
}

fn cubes_equal(packed: &Cube, oracle: &OracleCube) -> bool {
    (0..oracle.lits().len()).all(|v| packed.get(v) == oracle.lits()[v])
}
