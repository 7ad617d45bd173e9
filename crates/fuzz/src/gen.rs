//! Seed-deterministic case generation.
//!
//! Every case is a pure function of its 64-bit case seed: the runner
//! derives one seed per case index via splitmix64, so a run is
//! byte-identical at any `--jobs`, and any single case can be
//! regenerated from its `SEED`/`CASE` pair alone.

use adgen_affine::{AffineLevel, AffineSpec};
use adgen_core::arch::{ControlStyle, ShiftRegisterSpec, SragSpec};
use adgen_core::sim::SragSimulator;
use adgen_exec::Prng;
use adgen_seq::AddressGenerator;

use crate::case::{FuzzCase, LitCode, WorkloadKind};

/// Generates the case for `case_seed`.
///
/// The first draw selects the case family; everything after is
/// family-specific. Weights favour the cheap algebraic families so a
/// default run spends most of its time in the mapper and cube
/// oracles while still exercising gate-level and co-simulation paths
/// every few cases.
pub fn generate_case(case_seed: u64) -> FuzzCase {
    let mut rng = Prng::new(case_seed);
    match rng.next_range(100) {
        0..=17 => gen_mapper(&mut rng),
        18..=21 => gen_bank(&mut rng),
        22..=27 => gen_affine(&mut rng),
        // Each frame-fuzz case boots a real server, so the family is
        // deliberately rare: ~2% of draws keeps a default run fast
        // while still hitting every attack shape across a few hundred
        // cases.
        28..=29 => gen_frame_fuzz(&mut rng),
        30..=49 => gen_cube(&mut rng),
        50..=59 => gen_espresso(&mut rng),
        60..=64 => gen_wide_cover(&mut rng),
        65..=79 => gen_srag_vs_cntag(&mut rng),
        80..=86 => gen_gate_level(&mut rng),
        87..=91 => gen_cosim(&mut rng),
        92..=95 => gen_fault_alarm(&mut rng),
        _ => gen_sliced_vs_scalar(&mut rng),
    }
}

/// A power of two in `2^lo ..= 2^hi`.
fn pow2(rng: &mut Prng, lo: u32, hi: u32) -> u32 {
    1 << rng.next_in(u64::from(lo), u64::from(hi) + 1)
}

// ---------------------------------------------------------------- mapper

/// Mapper cases mix four strategies: sequences synthesized from a
/// random (valid) SRAG architecture, boundary shapes, mutations of
/// valid sequences (which mostly violate a restriction), and raw
/// noise.
fn gen_mapper(rng: &mut Prng) -> FuzzCase {
    let seq = match rng.next_range(10) {
        0..=3 => srag_realizable_sequence(rng),
        4 => boundary_sequence(rng),
        5..=7 => {
            let mut s = srag_realizable_sequence(rng);
            mutate_sequence(rng, &mut s);
            s
        }
        _ => noise_sequence(rng),
    };
    FuzzCase::Mapper { seq }
}

/// Simulates a random valid [`SragSpec`] for one full period — such a
/// sequence satisfies every architectural restriction by
/// construction, though the mapper may legitimately derive a
/// different (equivalent) grouping.
fn srag_realizable_sequence(rng: &mut Prng) -> Vec<u32> {
    let num_regs = rng.next_in(1, 4) as usize;
    // Register lengths from {1, 2, 4} keep the lcm small so a modest
    // pass count can be a multiple of every length.
    let lens: Vec<usize> = (0..num_regs).map(|_| 1usize << rng.next_range(3)).collect();
    let lcm = lens.iter().fold(1usize, |a, &b| a * b / gcd(a, b));
    let pass_count = lcm * rng.next_in(1, 4) as usize;
    let div_count = rng.next_in(1, 4) as usize;
    let total: usize = lens.iter().sum();
    let mut lines: Vec<u32> = (0..total as u32).collect();
    rng.shuffle(&mut lines);
    let mut registers = Vec::with_capacity(num_regs);
    let mut cursor = 0;
    for &len in &lens {
        registers.push(ShiftRegisterSpec::new(lines[cursor..cursor + len].to_vec()));
        cursor += len;
    }
    let spec = SragSpec::new(registers, div_count, pass_count, total);
    let period = spec.period().min(192);
    let mut sim = SragSimulator::new(spec);
    sim.collect_sequence(period).as_slice().to_vec()
}

fn boundary_sequence(rng: &mut Prng) -> Vec<u32> {
    match rng.next_range(4) {
        0 => Vec::new(),
        1 => vec![rng.next_range(8) as u32; rng.next_in(1, 7) as usize],
        2 => (0..rng.next_in(1, 17) as u32).collect(),
        _ => vec![rng.next_range(4) as u32],
    }
}

fn noise_sequence(rng: &mut Prng) -> Vec<u32> {
    let len = rng.next_in(1, 25) as usize;
    let max = rng.next_in(1, 9);
    (0..len).map(|_| rng.next_range(max) as u32).collect()
}

/// Applies one random structural mutation, usually breaking exactly
/// one restriction (run length, grouping, or pass uniformity).
fn mutate_sequence(rng: &mut Prng, seq: &mut Vec<u32>) {
    if seq.is_empty() {
        return;
    }
    let at = rng.next_range(seq.len() as u64) as usize;
    match rng.next_range(4) {
        0 => seq[at] = seq[at].wrapping_add(1) % 8,
        1 => {
            let v = seq[at];
            seq.insert(at, v);
        }
        2 => {
            seq.remove(at);
        }
        _ => {
            let b = rng.next_range(seq.len() as u64) as usize;
            seq.swap(at, b);
        }
    }
}

// ----------------------------------------------------------------- bank

/// Bank counts the bank-vs-reference family favours: both sides of
/// every power-of-two seam in `1..=16`, where the low-bits modulus
/// and the xor-fold normalization change shape.
const BANK_SEAMS: [u32; 10] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16];

/// A raw address stream sliced across a seam-biased bank count: the
/// decompose pass must round-trip every lane. Streams mix strided
/// affine ramps (fully linear lanes), real interleaver permutations
/// (the workload family the banked explorer prices), SRAG-realizable
/// sequences, boundaries and raw noise (residue-heavy lanes).
fn gen_bank(rng: &mut Prng) -> FuzzCase {
    let stream = match rng.next_range(10) {
        0..=2 => strided_stream(rng),
        3..=4 => interleaver_stream(rng),
        5..=6 => srag_realizable_sequence(rng),
        7 => boundary_sequence(rng),
        _ => noise_sequence(rng),
    };
    // Three quarters of the draws sit on a bank seam.
    let banks = if rng.next_range(4) < 3 {
        BANK_SEAMS[rng.next_range(BANK_SEAMS.len() as u64) as usize]
    } else {
        rng.next_in(1, 17) as u32
    };
    let map = rng.next_range(3) as u8;
    FuzzCase::BankVsReference { stream, banks, map }
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
        adgen_bank::Interleaver::qpp_contention_free(n, b)
            .expect("pow2 n with window >= 4 is always accepted")
    } else {
        adgen_bank::Interleaver::Block {
            rows: rng.next_in(1, 9) as u32,
            cols: rng.next_in(1, 17) as u32,
        }
    };
    il.permutation()
        .expect("valid interleaver parameters by construction")
        .as_slice()
        .to_vec()
}

// ---------------------------------------------------------------- affine

/// Affine sequences mix four strategies: the emitted stream of a
/// random valid spec (exactly fittable by construction), a mutation
/// of such a stream (usually forcing a residual split), an
/// SRAG-realizable workload sequence, and raw noise. Lane counts for
/// the sliced replay are seam-biased like the sliced-vs-scalar
/// family.
fn gen_affine(rng: &mut Prng) -> FuzzCase {
    let seq = match rng.next_range(10) {
        0..=3 => affine_stream_sequence(rng),
        4..=5 => {
            let mut s = affine_stream_sequence(rng);
            mutate_sequence(rng, &mut s);
            s
        }
        6..=7 => srag_realizable_sequence(rng),
        8 => boundary_sequence(rng),
        _ => noise_sequence(rng),
    };
    // Three quarters of the draws sit exactly on a word seam.
    let lanes = if rng.next_range(4) < 3 {
        LANE_SEAMS[rng.next_range(LANE_SEAMS.len() as u64) as usize]
    } else {
        rng.next_in(1, 129) as u32
    };
    FuzzCase::AffineVsReference { seq, lanes }
}

/// One random loop level with small counts (keeps the program and
/// every gate-level replay short) and masked affine parameters.
fn affine_level(rng: &mut Prng, mask: u32) -> AffineLevel {
    let period = rng.next_in(1, 5) as u32;
    AffineLevel {
        start: rng.next_range(16) as u32 & mask,
        iterations: rng.next_in(1, 4) as u32,
        period,
        duty: rng.next_in(1, u64::from(period) + 1) as u32,
        shift: rng.next_range(8) as u32 & mask,
        incr: rng.next_range(4) as u32 & mask,
    }
}

/// The emitted stream of a random valid two-level spec — a sequence
/// the mapper can always capture exactly (though possibly with a
/// different, equivalent program).
fn affine_stream_sequence(rng: &mut Prng) -> Vec<u32> {
    let addr_width = rng.next_in(3, 9) as u32;
    let mask = (1u32 << addr_width) - 1;
    let spec = AffineSpec {
        addr_width,
        cnt_width: 4,
        inner: affine_level(rng, mask),
        outer: if rng.one_in(3) {
            AffineLevel::unit()
        } else {
            affine_level(rng, mask)
        },
    };
    debug_assert!(spec.validate().is_ok());
    spec.emitted_stream()
}

/// One adversarial wire exchange: a uniformly-drawn attack shape plus
/// a short random byte string the attack weaves into whatever it
/// sends (bogus hello, partial frame body, payload tail).
fn gen_frame_fuzz(rng: &mut Prng) -> FuzzCase {
    let attack = rng.next_range(7) as u8;
    let len = rng.next_in(1, 33) as usize;
    let garbage = (0..len).map(|_| rng.next_range(256) as u8).collect();
    FuzzCase::FrameFuzz { attack, garbage }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

// ---------------------------------------------------------------- cubes

/// Cube arities cross the inline/spill boundary deliberately: one
/// packed word holds 32 variables, so 31..33 and 63..65 are the edge
/// cases most likely to hide masking bugs.
const CUBE_ARITIES: [usize; 12] = [1, 2, 3, 5, 8, 16, 31, 32, 33, 63, 64, 65];

fn random_lits(rng: &mut Prng, n: usize) -> Vec<LitCode> {
    (0..n)
        .map(|_| match rng.next_range(4) {
            0 => 0,
            1 => 1,
            _ => 2, // don't-care bias keeps intersections non-trivial
        })
        .collect()
}

fn gen_cube(rng: &mut Prng) -> FuzzCase {
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
    FuzzCase::Cube { a, b, minterms }
}

fn gen_espresso(rng: &mut Prng) -> FuzzCase {
    let n = rng.next_in(1, 9) as usize;
    let space = 1u64 << n;
    let mut on = Vec::new();
    let mut dc = Vec::new();
    // Density knobs: sparse, dense and near-tautological functions.
    let on_den = rng.next_in(1, 9);
    let dc_den = rng.next_range(4);
    for m in 0..space {
        if rng.next_range(10) < on_den {
            on.push(m);
        } else if rng.next_range(10) < dc_den {
            dc.push(m);
        }
    }
    FuzzCase::Espresso { n, on, dc }
}

fn gen_wide_cover(rng: &mut Prng) -> FuzzCase {
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
    FuzzCase::WideCover { n, cubes, minterms }
}

// ------------------------------------------------------- structural cases

fn workload_kind(rng: &mut Prng) -> WorkloadKind {
    match rng.next_range(4) {
        0 => WorkloadKind::Fifo,
        1 => WorkloadKind::MotionEst,
        2 => WorkloadKind::ZoomByTwo,
        _ => WorkloadKind::Transpose,
    }
}

/// A macroblock edge: a power of two dividing both dimensions.
fn macroblock(rng: &mut Prng, width: u32, height: u32) -> u32 {
    let max_log = width.min(height).trailing_zeros();
    pow2(rng, 0, max_log)
}

fn gen_srag_vs_cntag(rng: &mut Prng) -> FuzzCase {
    let kind = workload_kind(rng);
    let width = pow2(rng, 1, 5);
    let height = pow2(rng, 1, 5);
    let mb = macroblock(rng, width, height);
    // A nonzero search range multiplies the period by (2m)^2; cap the
    // behavioural work on large arrays.
    let m = if kind == WorkloadKind::MotionEst && width * height <= 256 && rng.one_in(2) {
        1
    } else {
        0
    };
    FuzzCase::SragVsCntag {
        kind,
        width,
        height,
        mb,
        m,
    }
}

fn gen_gate_level(rng: &mut Prng) -> FuzzCase {
    let kind = workload_kind(rng);
    let width = pow2(rng, 1, 4);
    let height = pow2(rng, 1, 4);
    let mb = macroblock(rng, width, height);
    let style = match rng.next_range(10) {
        0..=4 => ControlStyle::BinaryCounters,
        5..=7 => ControlStyle::RingCounters,
        _ => ControlStyle::InteractingFsms,
    };
    FuzzCase::GateLevel {
        kind,
        width,
        height,
        mb,
        style,
    }
}

fn gen_cosim(rng: &mut Prng) -> FuzzCase {
    let kind = workload_kind(rng);
    let width = pow2(rng, 1, 4);
    let height = pow2(rng, 1, 4);
    let mb = macroblock(rng, width, height);
    FuzzCase::Cosim {
        kind,
        width,
        height,
        mb,
    }
}

/// Lane counts the sliced-vs-scalar family favours: both sides of
/// every 64-lane word seam, plus the degenerate single-lane and
/// mid-word shapes where masking bugs hide.
const LANE_SEAMS: [u32; 8] = [1, 2, 63, 64, 65, 96, 127, 128];

/// A small workload netlist driven through the bit-sliced simulator
/// with independent per-lane stimulus and fault plans, checked
/// against one event-driven simulator per lane. Shapes stay small
/// because the oracle cost is `lanes` scalar simulations.
fn gen_sliced_vs_scalar(rng: &mut Prng) -> FuzzCase {
    let kind = workload_kind(rng);
    let width = pow2(rng, 1, 3);
    let height = pow2(rng, 1, 3);
    let mb = macroblock(rng, width, height);
    // Three quarters of the draws sit exactly on a word seam.
    let lanes = if rng.next_range(4) < 3 {
        LANE_SEAMS[rng.next_range(LANE_SEAMS.len() as u64) as usize]
    } else {
        rng.next_in(1, 129) as u32
    };
    let cycles = rng.next_in(4, 33) as u32;
    let salt = rng.next_u64();
    FuzzCase::SlicedVsScalar {
        kind,
        width,
        height,
        mb,
        lanes,
        cycles,
        salt,
    }
}

/// A single fault on a hardened select ring: any length/divide-count
/// combination, all three fault models, any line or flip-flop, with
/// SEU activation anywhere in the first two ring periods.
fn gen_fault_alarm(rng: &mut Prng) -> FuzzCase {
    let n = rng.next_in(1, 11) as u32;
    let dc = rng.next_in(1, 4) as u32;
    let kind = rng.next_range(3) as u8;
    let target = rng.next_range(u64::from(n)) as u32;
    let period = n * dc;
    let cycle = rng.next_in(1, u64::from(2 * period) + 1) as u32;
    FuzzCase::FaultAlarm {
        n,
        dc,
        kind,
        target,
        cycle,
    }
}
