//! Structural generators for the regular blocks of address
//! generators: binary/modulo counters, decoders, comparators and
//! word-level muxes.
//!
//! All generators build *into* a caller-supplied [`Netlist`], wiring
//! their flip-flops to the netlist's global reset, and return the
//! interface nets. Counters use a logarithmic-depth prefix-AND carry
//! network, and decoders use shared two-bit predecoding — the
//! structures a competent synthesis flow would produce, so that the
//! delay/area scaling trends the paper reports emerge from structure
//! rather than from curve fitting.

use adgen_netlist::{CellKind, NetId, Netlist, NetlistError};
use adgen_obs as obs;

use crate::error::SynthError;
use crate::techmap::and_tree;

/// Maximum supported counter width in bits.
pub const MAX_COUNTER_WIDTH: u32 = 32;

/// Prefix-AND network with shared fan-in-4 group terms: returns
/// `p[i] = q[0] & … & q[i]`. Groups of four bits are conjoined once
/// (`And4`) and reused by every prefix that spans them, keeping both
/// logic depth (`O(log₄ w)`) and per-bit fanout small — the structure
/// a delay-driven mapper produces for fast counter carry chains.
fn prefix_and(n: &mut Netlist, q: &[NetId]) -> Result<Vec<NetId>, NetlistError> {
    let groups: Vec<NetId> = q
        .chunks(4)
        .filter(|chunk| chunk.len() == 4)
        .map(|chunk| n.gate(CellKind::And4, chunk))
        .collect::<Result<_, _>>()?;
    let mut p = Vec::with_capacity(q.len());
    for i in 0..q.len() {
        let full_groups = (i + 1) / 4;
        let mut terms: Vec<NetId> = groups[..full_groups].to_vec();
        terms.extend_from_slice(&q[full_groups * 4..=i]);
        p.push(and_tree(n, &terms)?);
    }
    Ok(p)
}

/// Interface of a generated modulo counter.
#[derive(Debug, Clone)]
pub struct ModCounter {
    /// Count bits, LSB first. Empty when the modulus is 1.
    pub q: Vec<NetId>,
    /// High when the counter is enabled and at `modulus - 1`, i.e. it
    /// wraps to 0 on this clock edge.
    pub wrap: NetId,
    /// The modulus.
    pub modulus: u64,
}

/// Builds a counter that counts `0 … modulus-1` and wraps, with
/// synchronous enable, reset to 0 via the netlist's global reset. A
/// modulus of 1 produces no state at all — `wrap` simply follows
/// `enable` (the degenerate divider the paper's SRAG uses when
/// `dC = 1`); a modulus of `2^w` is a plain `w`-bit binary up-counter.
///
/// The increment carry chain is a prefix-AND network of depth
/// `⌈log₂ width⌉`, so the counter's critical path grows
/// logarithmically with width, like a synthesized fast counter.
///
/// # Errors
///
/// Returns [`SynthError::WidthTooLarge`] when `modulus - 1` needs more
/// than [`MAX_COUNTER_WIDTH`] bits, and propagates netlist errors.
///
/// # Panics
///
/// Panics if `modulus` is zero.
pub fn build_mod_counter(
    n: &mut Netlist,
    modulus: u64,
    enable: NetId,
    prefix: &str,
) -> Result<ModCounter, SynthError> {
    assert!(modulus > 0, "modulus must be nonzero");
    if modulus == 1 {
        return Ok(ModCounter {
            q: Vec::new(),
            wrap: enable,
            modulus,
        });
    }
    let width = bits_for(modulus - 1).max(1);
    if width > MAX_COUNTER_WIDTH {
        return Err(SynthError::WidthTooLarge {
            width,
            max: MAX_COUNTER_WIDTH,
        });
    }
    let w = width as usize;
    let rst = n.reset();
    let q: Vec<NetId> = (0..w)
        .map(|i| n.add_net(format!("{prefix}_q{i}")))
        .collect();
    // Shared prefix-AND carry network. Toggle conditions:
    // c[0] = enable, c[i] = enable & p[i-1].
    let p = prefix_and(n, &q)?;
    let mut c = Vec::with_capacity(w);
    c.push(enable);
    for i in 1..w {
        c.push(n.gate(CellKind::And2, &[enable, p[i - 1]])?);
    }
    let (wrap, not_wrap) = if modulus.is_power_of_two() {
        // Natural wrap: the terminal count is all-ones, so the wrap
        // comparator *is* the carry out of the prefix network — no
        // separate equality tree, and no clear.
        (n.gate(CellKind::And2, &[enable, p[w - 1]])?, None)
    } else {
        // Increment with synchronous clear at the terminal count.
        let eq = build_equality_const(n, &q, modulus - 1)?;
        let wrap = n.gate(CellKind::And2, &[enable, eq])?;
        (wrap, Some(n.gate(CellKind::Inv, &[wrap])?))
    };
    for i in 0..w {
        let mut d = n.gate(CellKind::Xor2, &[q[i], c[i]])?;
        if let Some(not_wrap) = not_wrap {
            d = n.gate(CellKind::And2, &[not_wrap, d])?;
        }
        n.add_instance(
            format!("{prefix}_ff{i}"),
            CellKind::Dffr,
            &[d, rst],
            &[q[i]],
        )?;
    }
    Ok(ModCounter { q, wrap, modulus })
}

/// Builds a one-hot ring counter of the given `length` with
/// synchronous enable: a token circulates through `length` flip-flops
/// (reset puts it on flip-flop 0), and `wrap` fires when the counter
/// is enabled with the token on the last flip-flop — the same
/// interface as [`build_mod_counter`], traded differently: `length`
/// flip-flops instead of `⌈log₂ length⌉`, but a single AND gate of
/// combinational depth instead of a carry network. This is the
/// "shift registers … to derive these signals" control style the
/// paper sketches at the end of §4.
///
/// A `length` of 1 is stateless: `wrap` simply follows `enable`.
///
/// # Errors
///
/// Propagates netlist errors.
///
/// # Panics
///
/// Panics if `length` is zero.
pub fn build_ring_counter(
    n: &mut Netlist,
    length: u64,
    enable: NetId,
    prefix: &str,
) -> Result<ModCounter, SynthError> {
    let _span = obs::span_arg("mapgen.build_ring_counter", length);
    assert!(length > 0, "ring length must be nonzero");
    if length == 1 {
        return Ok(ModCounter {
            q: Vec::new(),
            wrap: enable,
            modulus: length,
        });
    }
    let rst = n.reset();
    let m = length as usize;
    let q: Vec<NetId> = (0..m)
        .map(|i| n.add_net(format!("{prefix}_r{i}")))
        .collect();
    for i in 0..m {
        let d = q[(i + m - 1) % m];
        let kind = if i == 0 {
            CellKind::Dffse
        } else {
            CellKind::Dffre
        };
        n.add_instance(format!("{prefix}_rff{i}"), kind, &[d, enable, rst], &[q[i]])?;
    }
    let wrap = n.gate(CellKind::And2, &[enable, q[m - 1]])?;
    Ok(ModCounter {
        q,
        wrap,
        modulus: length,
    })
}

/// Builds `q + 1` (LSB first, carry out dropped) with a ripple carry:
/// bit 0 is `!q[0]`, bit `i` is `q[i] ^ (q[0] & … & q[i-1])`. The
/// cheap, linear-depth counterpart of the prefix network
/// [`build_mod_counter`] uses.
///
/// # Errors
///
/// Propagates netlist errors.
pub fn build_incrementer(n: &mut Netlist, q: &[NetId]) -> Result<Vec<NetId>, SynthError> {
    let mut inc = Vec::with_capacity(q.len());
    let mut carry: Option<NetId> = None;
    for &bit in q {
        match carry {
            None => {
                inc.push(n.gate(CellKind::Inv, &[bit])?);
                carry = Some(bit);
            }
            Some(c) => {
                inc.push(n.gate(CellKind::Xor2, &[bit, c])?);
                carry = Some(n.gate(CellKind::And2, &[bit, c])?);
            }
        }
    }
    Ok(inc)
}

/// Builds a comparator asserting when the word `q` (LSB first) equals
/// the constant `value`.
///
/// # Errors
///
/// Propagates netlist errors.
///
/// # Panics
///
/// Panics if `value` does not fit in `q.len()` bits.
pub fn build_equality_const(n: &mut Netlist, q: &[NetId], value: u64) -> Result<NetId, SynthError> {
    assert!(
        q.len() >= 64 || value < (1u64 << q.len()),
        "constant does not fit the word"
    );
    let mut lits = Vec::with_capacity(q.len());
    for (i, &bit) in q.iter().enumerate() {
        if (value >> i) & 1 == 1 {
            lits.push(bit);
        } else {
            lits.push(n.gate(CellKind::Inv, &[bit])?);
        }
    }
    Ok(and_tree(n, &lits)?)
}

/// Builds an `addr.len() → 2^addr.len()` decoder with shared two-bit
/// predecoding. Output `i` is high exactly when the address word
/// (LSB first) equals `i`.
///
/// With zero address bits the single output is tied high.
///
/// # Errors
///
/// Returns [`SynthError::WidthTooLarge`] for more than 16 address
/// bits (65536 outputs) and propagates netlist errors.
pub fn build_decoder(n: &mut Netlist, addr: &[NetId]) -> Result<Vec<NetId>, SynthError> {
    let k = addr.len();
    if k > 16 {
        return Err(SynthError::WidthTooLarge {
            width: k as u32,
            max: 16,
        });
    }
    if k == 0 {
        return Ok(vec![n.gate(CellKind::TieHi, &[])?]);
    }
    // Predecode pairs of address bits into 1-of-4 line groups (a final
    // odd bit forms a 1-of-2 group).
    let mut groups: Vec<Vec<NetId>> = Vec::new();
    let mut i = 0;
    while i < k {
        if i + 1 < k {
            let a = addr[i];
            let b = addr[i + 1];
            let na = n.gate(CellKind::Inv, &[a])?;
            let nb = n.gate(CellKind::Inv, &[b])?;
            groups.push(vec![
                n.gate(CellKind::And2, &[na, nb])?,
                n.gate(CellKind::And2, &[a, nb])?,
                n.gate(CellKind::And2, &[na, b])?,
                n.gate(CellKind::And2, &[a, b])?,
            ]);
            i += 2;
        } else {
            let a = addr[i];
            let na = n.gate(CellKind::Inv, &[a])?;
            groups.push(vec![na, a]);
            i += 1;
        }
    }
    let mut outputs = Vec::with_capacity(1 << k);
    for word in 0..(1u32 << k) {
        let mut lines = Vec::with_capacity(groups.len());
        let mut bit = 0;
        for group in &groups {
            let bits_in_group = if group.len() == 4 { 2 } else { 1 };
            let sel = ((word >> bit) & ((1 << bits_in_group) - 1)) as usize;
            lines.push(group[sel]);
            bit += bits_in_group;
        }
        outputs.push(and_tree(n, &lines)?);
    }
    Ok(outputs)
}

/// Builds a ripple-carry adder over two equal-width words (LSB
/// first), returning the sum truncated to the operand width (modulo
/// `2^width` arithmetic — exactly what a wrapping address accumulator
/// needs).
///
/// # Errors
///
/// Propagates netlist errors.
///
/// # Panics
///
/// Panics if the words differ in width or are empty.
pub fn build_adder(n: &mut Netlist, a: &[NetId], b: &[NetId]) -> Result<Vec<NetId>, SynthError> {
    assert_eq!(a.len(), b.len(), "adder operand width mismatch");
    assert!(!a.is_empty(), "adder needs at least one bit");
    let mut sum = Vec::with_capacity(a.len());
    let mut carry: Option<NetId> = None;
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let p = n.gate(CellKind::Xor2, &[x, y])?;
        match carry {
            None => {
                sum.push(p);
                if i + 1 < a.len() {
                    carry = Some(n.gate(CellKind::And2, &[x, y])?);
                }
            }
            Some(c) => {
                sum.push(n.gate(CellKind::Xor2, &[p, c])?);
                if i + 1 < a.len() {
                    let g = n.gate(CellKind::And2, &[x, y])?;
                    let t = n.gate(CellKind::And2, &[p, c])?;
                    carry = Some(n.gate(CellKind::Or2, &[g, t])?);
                }
            }
        }
    }
    Ok(sum)
}

/// Builds a combinational lookup table: `words[i]` is presented on
/// the output bits (LSB first) when the `index` word equals `i`.
/// Indices beyond `words.len()` are don't-cares. Each output bit is
/// minimized with the two-level minimizer before mapping, like a
/// synthesized case statement.
///
/// # Errors
///
/// Returns [`SynthError::WidthTooLarge`] for more than 12 index bits
/// and propagates netlist errors.
///
/// # Panics
///
/// Panics if `words` is empty, `width` is zero, or a word does not
/// fit in `width` bits.
pub fn build_rom(
    n: &mut Netlist,
    index: &[NetId],
    words: &[u64],
    width: u32,
) -> Result<Vec<NetId>, SynthError> {
    use crate::cover::Cover;
    use crate::espresso;
    use crate::techmap::{literal_rails, map_sop};
    let _span = obs::span_arg("mapgen.build_rom", words.len() as u64);
    assert!(!words.is_empty(), "ROM must have contents");
    assert!(width > 0, "ROM width must be nonzero");
    if index.len() > 12 {
        return Err(SynthError::WidthTooLarge {
            width: index.len() as u32,
            max: 12,
        });
    }
    assert!(
        (1usize << index.len()) >= words.len(),
        "index word too narrow for ROM depth"
    );
    for &w in words {
        assert!(
            width >= 64 || w < (1u64 << width),
            "ROM word {w} does not fit in {width} bits"
        );
    }
    let bits = index.len();
    let dc_minterms: Vec<u64> = (words.len() as u64..(1u64 << bits)).collect();
    let dc = Cover::from_minterms(bits, &dc_minterms);
    let neg = literal_rails(n, index)?;
    let mut outputs = Vec::with_capacity(width as usize);
    for bit in 0..width {
        // Each bit is defined row by row: the stored words with the
        // bit set are its on-set and the others its off-set, which the
        // minimizer builds only when it runs on it.
        let rows_where = |set: bool| -> Vec<u64> {
            let rows = words.iter().enumerate();
            rows.filter(|&(_, &w)| ((w >> bit) & 1 == 1) == set)
                .map(|(i, _)| i as u64)
                .collect()
        };
        let on = Cover::from_minterms(bits, &rows_where(true));
        let off_minterms = words.len() - on.num_cubes();
        let minimized = espresso::minimize_with_lazy_off_budgeted(
            on,
            dc.clone(),
            off_minterms,
            || Cover::from_minterms(bits, &rows_where(false)),
            espresso::EffortBudget::synthesis_default(),
        )
        .cover;
        outputs.push(map_sop(n, &minimized, index, &neg)?);
    }
    Ok(outputs)
}

/// Builds a word-level 2-to-1 multiplexer: `out = sel ? d1 : d0`.
///
/// # Errors
///
/// Propagates netlist errors.
///
/// # Panics
///
/// Panics if the words differ in width.
pub fn build_mux_word(
    n: &mut Netlist,
    d0: &[NetId],
    d1: &[NetId],
    sel: NetId,
) -> Result<Vec<NetId>, SynthError> {
    assert_eq!(d0.len(), d1.len(), "mux word width mismatch");
    d0.iter()
        .zip(d1)
        .map(|(&a, &b)| Ok(n.gate(CellKind::Mux2, &[a, b, sel])?))
        .collect()
}

fn bits_for(max_value: u64) -> u32 {
    if max_value == 0 {
        1
    } else {
        64 - max_value.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_netlist::{Logic, Simulator};

    #[test]
    fn counter_counts_and_wraps() {
        let mut n = Netlist::new("cnt");
        let en = n.add_input("en");
        let cnt = build_mod_counter(&mut n, 1 << 3, en, "c").unwrap();
        for &q in &cnt.q {
            n.add_output(q);
        }
        n.add_output(cnt.wrap);
        n.validate().unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true, false]).unwrap(); // reset
        for expect in 0..20u64 {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(sim.word(&cnt.q).unwrap(), expect % 8, "cycle {expect}");
            let wrap = sim.value(cnt.wrap).to_bool().unwrap();
            assert_eq!(wrap, expect % 8 == 7, "wrap at {expect}");
        }
    }

    #[test]
    fn counter_holds_when_disabled() {
        let mut n = Netlist::new("cnt");
        let en = n.add_input("en");
        let cnt = build_mod_counter(&mut n, 1 << 4, en, "c").unwrap();
        for &q in &cnt.q {
            n.add_output(q);
        }
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(sim.word(&cnt.q).unwrap(), 2);
        for _ in 0..5 {
            sim.step_bools(&[false, false]).unwrap();
            assert_eq!(sim.word(&cnt.q).unwrap(), 3);
        }
    }

    #[test]
    fn mod_counter_wraps_at_modulus() {
        for modulus in [2u64, 3, 4, 5, 6, 7, 8, 12] {
            let mut n = Netlist::new("mc");
            let en = n.add_input("en");
            let mc = build_mod_counter(&mut n, modulus, en, "m").unwrap();
            for &q in &mc.q {
                n.add_output(q);
            }
            n.add_output(mc.wrap);
            n.validate().unwrap();
            let mut sim = Simulator::new(&n).unwrap();
            sim.step_bools(&[true, false]).unwrap();
            for step in 0..(3 * modulus) {
                sim.step_bools(&[false, true]).unwrap();
                let expect = step % modulus;
                assert_eq!(
                    sim.word(&mc.q).unwrap(),
                    expect,
                    "modulus {modulus} step {step}"
                );
                assert_eq!(
                    sim.value(mc.wrap).to_bool().unwrap(),
                    expect == modulus - 1,
                    "wrap at modulus {modulus} step {step}"
                );
            }
        }
    }

    #[test]
    fn mod_counter_modulus_one_is_stateless() {
        let mut n = Netlist::new("mc1");
        let en = n.add_input("en");
        let mc = build_mod_counter(&mut n, 1, en, "m").unwrap();
        assert!(mc.q.is_empty());
        assert_eq!(mc.wrap, en);
        assert_eq!(n.num_instances(), 0);
    }

    #[test]
    fn ring_counter_matches_mod_counter_behaviour() {
        for length in [2u64, 3, 5, 8] {
            let mut n = Netlist::new("ring");
            let en = n.add_input("en");
            let ring = build_ring_counter(&mut n, length, en, "r").unwrap();
            n.add_output(ring.wrap);
            n.validate().unwrap();
            let mut sim = Simulator::new(&n).unwrap();
            sim.step_bools(&[true, false]).unwrap();
            for step in 0..(3 * length) {
                sim.step_bools(&[false, true]).unwrap();
                let expect_wrap = step % length == length - 1;
                assert_eq!(
                    sim.value(ring.wrap).to_bool().unwrap(),
                    expect_wrap,
                    "length {length} step {step}"
                );
            }
        }
    }

    #[test]
    fn ring_counter_length_one_is_stateless() {
        let mut n = Netlist::new("r1");
        let en = n.add_input("en");
        let ring = build_ring_counter(&mut n, 1, en, "r").unwrap();
        assert!(ring.q.is_empty());
        assert_eq!(ring.wrap, en);
        assert_eq!(n.num_instances(), 0);
    }

    #[test]
    fn ring_counter_holds_when_disabled() {
        let mut n = Netlist::new("rh");
        let en = n.add_input("en");
        let ring = build_ring_counter(&mut n, 3, en, "r").unwrap();
        n.add_output(ring.wrap);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        // Token now at position 2 (last); stall: wrap requires enable.
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(sim.value(ring.wrap).to_bool(), Some(false));
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(sim.value(ring.wrap).to_bool(), Some(true));
    }

    #[test]
    fn equality_const_matches() {
        let mut n = Netlist::new("eq");
        let word: Vec<NetId> = (0..4).map(|i| n.add_input(format!("w{i}"))).collect();
        let eq = build_equality_const(&mut n, &word, 0b1010).unwrap();
        n.add_output(eq);
        let mut sim = Simulator::new(&n).unwrap();
        for v in 0..16u64 {
            let mut ins = vec![Logic::Zero];
            for b in 0..4 {
                ins.push(Logic::from_bool((v >> b) & 1 == 1));
            }
            sim.step(&ins).unwrap();
            assert_eq!(sim.value(eq).to_bool().unwrap(), v == 0b1010, "value {v}");
        }
    }

    #[test]
    fn decoder_is_one_hot_and_correct() {
        for k in 1..=5usize {
            let mut n = Netlist::new("dec");
            let addr: Vec<NetId> = (0..k).map(|i| n.add_input(format!("a{i}"))).collect();
            let outs = build_decoder(&mut n, &addr).unwrap();
            assert_eq!(outs.len(), 1 << k);
            for &o in &outs {
                n.add_output(o);
            }
            n.validate().unwrap();
            let mut sim = Simulator::new(&n).unwrap();
            for v in 0..(1u64 << k) {
                let mut ins = vec![Logic::Zero];
                for b in 0..k {
                    ins.push(Logic::from_bool((v >> b) & 1 == 1));
                }
                sim.step(&ins).unwrap();
                for (i, &o) in outs.iter().enumerate() {
                    assert_eq!(
                        sim.value(o).to_bool().unwrap(),
                        i as u64 == v,
                        "k={k} v={v} line {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn decoder_zero_bits_is_constant_one() {
        let mut n = Netlist::new("dec0");
        let outs = build_decoder(&mut n, &[]).unwrap();
        assert_eq!(outs.len(), 1);
        n.add_output(outs[0]);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[false]).unwrap();
        assert_eq!(sim.value(outs[0]), Logic::One);
    }

    #[test]
    fn adder_adds_modulo() {
        for width in [1usize, 3, 5] {
            let mut n = Netlist::new("add");
            let a: Vec<NetId> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
            let b: Vec<NetId> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
            let s = build_adder(&mut n, &a, &b).unwrap();
            for &o in &s {
                n.add_output(o);
            }
            n.validate().unwrap();
            let mut sim = Simulator::new(&n).unwrap();
            let modulus = 1u64 << width;
            for x in 0..modulus {
                for y in 0..modulus {
                    let mut ins = vec![Logic::Zero];
                    for i in 0..width {
                        ins.push(Logic::from_bool((x >> i) & 1 == 1));
                    }
                    for i in 0..width {
                        ins.push(Logic::from_bool((y >> i) & 1 == 1));
                    }
                    sim.step(&ins).unwrap();
                    assert_eq!(
                        sim.word(&s).unwrap(),
                        (x + y) % modulus,
                        "width {width}: {x}+{y}"
                    );
                }
            }
        }
    }

    #[test]
    fn rom_returns_programmed_words() {
        let words = [5u64, 0, 7, 3, 1];
        let mut n = Netlist::new("rom");
        let index: Vec<NetId> = (0..3).map(|i| n.add_input(format!("i{i}"))).collect();
        let out = build_rom(&mut n, &index, &words, 3).unwrap();
        for &o in &out {
            n.add_output(o);
        }
        n.validate().unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        for (i, &w) in words.iter().enumerate() {
            let mut ins = vec![Logic::Zero];
            for b in 0..3 {
                ins.push(Logic::from_bool((i >> b) & 1 == 1));
            }
            sim.step(&ins).unwrap();
            assert_eq!(sim.word(&out).unwrap(), w, "entry {i}");
        }
    }

    #[test]
    fn rom_single_word() {
        let mut n = Netlist::new("rom1");
        let out = build_rom(&mut n, &[], &[6], 3).unwrap();
        for &o in &out {
            n.add_output(o);
        }
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[false]).unwrap();
        assert_eq!(sim.word(&out).unwrap(), 6);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn adder_width_mismatch_panics() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let _ = build_adder(&mut n, &[a], &[]);
    }

    #[test]
    fn mux_word_selects() {
        let mut n = Netlist::new("mux");
        let d0: Vec<NetId> = (0..3).map(|i| n.add_input(format!("a{i}"))).collect();
        let d1: Vec<NetId> = (0..3).map(|i| n.add_input(format!("b{i}"))).collect();
        let sel = n.add_input("sel");
        let y = build_mux_word(&mut n, &d0, &d1, sel).unwrap();
        for &o in &y {
            n.add_output(o);
        }
        let mut sim = Simulator::new(&n).unwrap();
        // a = 0b101, b = 0b010.
        let base = [
            Logic::Zero, // reset
            Logic::One,
            Logic::Zero,
            Logic::One, // a
            Logic::Zero,
            Logic::One,
            Logic::Zero, // b
        ];
        let mut ins = base.to_vec();
        ins.push(Logic::Zero);
        sim.step(&ins).unwrap();
        assert_eq!(sim.word(&y).unwrap(), 0b101);
        let mut ins = base.to_vec();
        ins.push(Logic::One);
        sim.step(&ins).unwrap();
        assert_eq!(sim.word(&y).unwrap(), 0b010);
    }

    #[test]
    fn width_limits_enforced() {
        let mut n = Netlist::new("w");
        let en = n.add_input("en");
        assert!(matches!(
            build_mod_counter(&mut n, 1 << 33, en, "c"),
            Err(SynthError::WidthTooLarge { .. })
        ));
        let addr: Vec<NetId> = (0..17).map(|i| n.add_input(format!("a{i}"))).collect();
        assert!(matches!(
            build_decoder(&mut n, &addr),
            Err(SynthError::WidthTooLarge { .. })
        ));
    }

    #[test]
    fn counter_delay_grows_slowly_with_width() {
        use adgen_netlist::{Library, TimingAnalysis};
        let lib = Library::vcl018();
        let delay = |w: u32| {
            let mut n = Netlist::new("cnt");
            let en = n.add_input("en");
            let cnt = build_mod_counter(&mut n, 1 << w, en, "c").unwrap();
            for &q in &cnt.q {
                n.add_output(q);
            }
            TimingAnalysis::run(&n, &lib).unwrap().critical_path_ps()
        };
        let d4 = delay(4);
        let d16 = delay(16);
        assert!(d16 > d4);
        // Log-depth carry: 4× wider is far less than 4× slower.
        assert!(d16 < 2.5 * d4, "d4={d4} d16={d16}");
    }
}
