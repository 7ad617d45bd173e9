//! `bank-vs-reference`: raw 1-D address stream sliced across B banks
//! → the bank map must round-trip every address (`split`/`join`), and
//! each lane's decomposed factorization must reconstruct its local
//! stream bit-exactly, so the whole stream reassembles across all B
//! lanes.

use adgen_bank::{BankMap, Decomposition, Interleaver};
use adgen_exec::Prng;

use super::{BreakMode, CheckResult, Family};
use crate::draw::{boundary_sequence, noise_sequence, pow2, seam_biased, srag_realizable_sequence};
use crate::shrink::{sequence_candidates, toward_one};

/// Bank counts the family favours: both sides of every power-of-two
/// seam in `1..=16`, where the low-bits modulus and the xor-fold
/// normalization change shape.
const BANK_SEAMS: [u32; 10] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The raw address stream under test.
    pub(crate) stream: Vec<u32>,
    /// Bank count (`1..=16`, seam-biased toward powers of two and
    /// their neighbours; rounded down to a power of two for the
    /// XOR-fold map).
    pub(crate) banks: u32,
    /// Bank-map selector: 0 = low-bits, 1 = high-bits, 2 = xor-fold.
    pub(crate) map: u8,
}

impl Family for Case {
    const KIND: &'static str = "bank-vs-reference";

    /// Streams mix strided affine ramps (fully linear lanes), real
    /// interleaver permutations (the workload family the banked
    /// explorer prices), SRAG-realizable sequences, boundaries and
    /// raw noise (residue-heavy lanes).
    fn generate(rng: &mut Prng) -> Self {
        let stream = match rng.next_range(10) {
            0..=2 => strided_stream(rng),
            3..=4 => interleaver_stream(rng),
            5..=6 => srag_realizable_sequence(rng),
            7 => boundary_sequence(rng),
            _ => noise_sequence(rng),
        };
        let banks = seam_biased(rng, &BANK_SEAMS, 16);
        let map = rng.next_range(3) as u8;
        Case { stream, banks, map }
    }

    fn describe(&self) -> String {
        let map = ["low-bits", "high-bits", "xor-fold"][usize::from(self.map % 3)];
        format!("stream {:?} banks={} map={map}", self.stream, self.banks)
    }

    /// Walls off the banked decompose round-trip: the bank map must
    /// split/join every address bijectively, each lane's
    /// [`Decomposition`] must reconstruct its local stream bit-exactly
    /// and deterministically, and the reconstructed lanes must
    /// reassemble into the original stream across all B banks.
    fn check(&self, _: BreakMode) -> CheckResult {
        let Case { stream, banks, map } = self;
        let (Some(&max), 1..) = (stream.iter().max(), *banks) else {
            return Ok(()); // no address or no bank: nothing to wall
        };
        // The xor-fold map only accepts power-of-two bank counts; the
        // shrinker may propose any count, so normalize downward rather
        // than reporting a false divergence.
        let banks = if map % 3 == 2 && !banks.is_power_of_two() {
            1 << (31 - banks.leading_zeros())
        } else {
            *banks
        };
        let window = max / banks + 1;
        let map = match map % 3 {
            0 => BankMap::LowBits { banks, window },
            1 => BankMap::HighBits { banks, window },
            _ => BankMap::XorFold { banks, window },
        };
        if let Err(e) = map.validate() {
            return Err(format!("derived map {map:?} rejected: {e}"));
        }

        // 1. Every address splits in range and joins back to itself.
        let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); banks as usize];
        for (t, &a) in stream.iter().enumerate() {
            let (b, l) = map
                .split(a)
                .map_err(|e| format!("split({a}) failed at t={t} under {map:?}: {e}"))?;
            if b >= banks || l >= window {
                return Err(format!(
                    "split({a}) left range at t={t}: bank {b}/{banks}, local {l}/{window}"
                ));
            }
            let back = map
                .join(b, l)
                .map_err(|e| format!("join({b}, {l}) failed at t={t}: {e}"))?;
            if back != a {
                return Err(format!(
                    "map round-trip diverges at t={t}: {a} -> ({b}, {l}) -> {back}"
                ));
            }
            lanes[b as usize].push(l);
        }

        // 2. Every non-empty lane decomposes and reconstructs exactly.
        let mut rebuilt: Vec<std::vec::IntoIter<u32>> = Vec::with_capacity(lanes.len());
        for (b, lane) in lanes.iter().enumerate() {
            if lane.is_empty() {
                rebuilt.push(Vec::new().into_iter());
                continue;
            }
            let d = Decomposition::of(lane)
                .map_err(|e| format!("bank {b}: decompose rejected {} locals: {e}", lane.len()))?;
            let r = d.reconstruct();
            if &r != lane {
                return Err(format!(
                    "bank {b}: decompose round-trip diverges: lane {lane:?} reconstructs as \
                     {r:?} ({} linear + {} residue bits)",
                    d.linear_bits(),
                    d.residue_bits()
                ));
            }
            let again =
                Decomposition::of(lane).map_err(|e| format!("bank {b}: re-run failed: {e}"))?;
            if again != d {
                return Err(format!("bank {b}: decomposition is nondeterministic"));
            }
            rebuilt.push(r.into_iter());
        }

        // 3. The reconstructed lanes reassemble into the original
        // stream.
        for (t, &a) in stream.iter().enumerate() {
            let (b, _) = map.split(a).expect("split succeeded in pass 1");
            let l = rebuilt[b as usize]
                .next()
                .ok_or_else(|| format!("bank {b} ran out of reconstructed locals at t={t}"))?;
            let back = map
                .join(b, l)
                .map_err(|e| format!("reassembly join({b}, {l}) failed at t={t}: {e}"))?;
            if back != a {
                return Err(format!(
                    "reassembly diverges at t={t}: expected {a}, rebuilt {back}"
                ));
            }
        }
        Ok(())
    }

    /// The stream's own candidates, fewer banks, then the low-bits
    /// map, the simplest split.
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for stream in sequence_candidates(&self.stream) {
            out.push(Case { stream, ..*self });
        }
        for banks in toward_one(self.banks) {
            let stream = self.stream.clone();
            out.push(Case {
                stream,
                banks,
                ..*self
            });
        }
        if !self.map.is_multiple_of(3) {
            let stream = self.stream.clone();
            out.push(Case {
                stream,
                map: 0,
                ..*self
            });
        }
        out
    }
}

/// A masked affine ramp `(base + stride * t) & mask` — its per-bank
/// lanes are usually fully linear, exercising the fold-netlist side
/// of the decomposition.
fn strided_stream(rng: &mut Prng) -> Vec<u32> {
    let len = rng.next_in(2, 129) as usize;
    let mask = (1u32 << rng.next_in(3, 11)) - 1;
    let base = rng.next_range(u64::from(mask) + 1) as u32;
    let stride = rng.next_in(1, 17) as u32;
    (0..len as u32)
        .map(|t| base.wrapping_add(stride.wrapping_mul(t)) & mask)
        .collect()
}

/// A real interleaver permutation — block or contention-free QPP —
/// so the fuzz wall covers the exact streams `bankcamp` prices.
fn interleaver_stream(rng: &mut Prng) -> Vec<u32> {
    let il = if rng.one_in(2) {
        let n = pow2(rng, 4, 8);
        let b = pow2(rng, 1, 2).min(n / 4);
        Interleaver::qpp_contention_free(n, b).expect("pow2 n with window >= 4 is always accepted")
    } else {
        Interleaver::Block {
            rows: rng.next_in(1, 9) as u32,
            cols: rng.next_in(1, 17) as u32,
        }
    };
    il.permutation()
        .expect("valid interleaver parameters by construction")
        .as_slice()
        .to_vec()
}
