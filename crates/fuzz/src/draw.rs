//! Draw helpers shared by several families.
//!
//! Every case is a pure function of its 64-bit case seed: the runner
//! derives one seed per case index via splitmix64, so a run is
//! byte-identical at any `--jobs`, and any single case can be
//! regenerated from its `SEED`/`CASE` pair alone. These helpers only
//! consume the family's `Prng`, so each family's draw order is the
//! order in which it calls them.

use adgen_core::arch::{ShiftRegisterSpec, SragSpec};
use adgen_core::sim::SragSimulator;
use adgen_exec::Prng;
use adgen_seq::AddressGenerator;

/// A power of two in `2^lo ..= 2^hi`.
pub(crate) fn pow2(rng: &mut Prng, lo: u32, hi: u32) -> u32 {
    1 << rng.next_in(u64::from(lo), u64::from(hi) + 1)
}

/// Lane counts the sliced replays favour: both sides of every 64-lane
/// word seam, plus the degenerate single-lane and mid-word shapes
/// where masking bugs hide.
pub(crate) const LANE_SEAMS: [u32; 8] = [1, 2, 63, 64, 65, 96, 127, 128];

/// A count in `1..=max` that sits on one of `seams` three draws in
/// four.
pub(crate) fn seam_biased(rng: &mut Prng, seams: &[u32], max: u32) -> u32 {
    if rng.next_range(4) < 3 {
        seams[rng.next_range(seams.len() as u64) as usize]
    } else {
        rng.next_in(1, u64::from(max) + 1) as u32
    }
}

/// Simulates a random valid [`SragSpec`] for one full period — such a
/// sequence satisfies every architectural restriction by
/// construction, though the mapper may legitimately derive a
/// different (equivalent) grouping.
pub(crate) fn srag_realizable_sequence(rng: &mut Prng) -> Vec<u32> {
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

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Empty, constant, ramp and single-address sequences.
pub(crate) fn boundary_sequence(rng: &mut Prng) -> Vec<u32> {
    match rng.next_range(4) {
        0 => Vec::new(),
        1 => vec![rng.next_range(8) as u32; rng.next_in(1, 7) as usize],
        2 => (0..rng.next_in(1, 17) as u32).collect(),
        _ => vec![rng.next_range(4) as u32],
    }
}

/// Up to 24 addresses drawn uniformly from a small range.
pub(crate) fn noise_sequence(rng: &mut Prng) -> Vec<u32> {
    let len = rng.next_in(1, 25) as usize;
    let max = rng.next_in(1, 9);
    (0..len).map(|_| rng.next_range(max) as u32).collect()
}

/// `seq` after one random structural mutation, which usually breaks
/// exactly one restriction (run length, grouping, or pass
/// uniformity).
pub(crate) fn mutated(rng: &mut Prng, mut seq: Vec<u32>) -> Vec<u32> {
    if seq.is_empty() {
        return seq;
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
    seq
}
