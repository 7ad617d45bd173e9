//! Randomized property tests on the core invariants, spanning crates:
//! mapper round-trips, logic-minimizer correctness, structural
//! generator equivalence and timing-model monotonicity.
//!
//! Each property draws its cases from the deterministic
//! [`adgen::exec::Prng`] (fixed seeds), so the suite is reproducible,
//! offline and dependency-free while still covering the same input
//! space the former `proptest` strategies did.

use adgen::exec::Prng;
use adgen::prelude::*;

/// Generator: an SRAG-mappable sequence built from its own generative
/// model (register partition × iterations × dC), so the mapper can be
/// round-tripped against arbitrary valid inputs.
fn mappable_sequence(rng: &mut Prng) -> Vec<u32> {
    let regs = rng.next_in(1, 4) as usize;
    let len = rng.next_in(1, 5) as usize;
    let iters = rng.next_in(1, 4) as usize;
    let dc = rng.next_in(1, 4) as usize;
    let periods = rng.next_in(1, 3) as usize;
    let mut out = Vec::new();
    for _ in 0..periods {
        for r in 0..regs {
            for _ in 0..iters {
                for j in 0..len {
                    let address = (r * len + j) as u32;
                    for _ in 0..dc {
                        out.push(address);
                    }
                }
            }
        }
    }
    out
}

#[test]
fn mapper_round_trips_generated_sequences() {
    let mut rng = Prng::new(1);
    for _ in 0..64 {
        let s = AddressSequence::from_vec(mappable_sequence(&mut rng));
        let m = map_sequence(&s).expect("generatively valid sequences must map");
        let mut sim = SragSimulator::new(m.spec);
        assert_eq!(sim.collect_sequence(s.len()), s);
    }
}

#[test]
fn relaxed_mapper_accepts_whatever_base_accepts() {
    use adgen::core::multi_counter::{map_sequence_relaxed, MultiCounterSragSimulator};
    let mut rng = Prng::new(2);
    for _ in 0..64 {
        let s = AddressSequence::from_vec(mappable_sequence(&mut rng));
        if map_sequence(&s).is_ok() {
            let spec = map_sequence_relaxed(&s)
                .expect("relaxed mapper must accept base-mappable sequences");
            let mut sim = MultiCounterSragSimulator::new(spec);
            assert_eq!(sim.collect_sequence(s.len()), s);
        }
    }
}

#[test]
fn espresso_preserves_function() {
    use adgen::synth::cover::Cover;
    use adgen::synth::espresso;
    let mut rng = Prng::new(3);
    for _ in 0..64 {
        let count = rng.next_range(20) as usize;
        let mut minterms: Vec<u64> = (0..count).map(|_| rng.next_range(32)).collect();
        minterms.sort_unstable();
        minterms.dedup();
        let on = Cover::from_minterms(5, &minterms);
        let minimized = espresso::minimize(on.clone(), Cover::empty(5));
        for m in 0..32u64 {
            assert_eq!(minimized.eval(m), on.eval(m), "minterm {m}");
        }
        assert!(minimized.num_cubes() <= on.num_cubes().max(1));
    }
}

#[test]
fn complement_is_involutive_on_care_set() {
    use adgen::synth::cover::Cover;
    let mut rng = Prng::new(4);
    for _ in 0..64 {
        let count = rng.next_range(16) as usize;
        let mut minterms: Vec<u64> = (0..count).map(|_| rng.next_range(16)).collect();
        minterms.sort_unstable();
        minterms.dedup();
        let f = Cover::from_minterms(4, &minterms);
        let ff = f.complement().complement();
        for m in 0..16u64 {
            assert_eq!(ff.eval(m), f.eval(m));
        }
    }
}

#[test]
fn decoder_matches_arithmetic() {
    use adgen::synth::mapgen::build_decoder;
    let mut rng = Prng::new(5);
    for _ in 0..64 {
        let bits = rng.next_in(1, 6) as usize;
        let value = rng.next_range(1 << bits);
        let mut n = Netlist::new("dec");
        let addr: Vec<_> = (0..bits).map(|b| n.add_input(format!("a{b}"))).collect();
        let outs = build_decoder(&mut n, &addr).unwrap();
        for &o in &outs {
            n.add_output(o);
        }
        let mut sim = Simulator::new(&n).unwrap();
        let mut ins = vec![Logic::Zero];
        for b in 0..bits {
            ins.push(Logic::from_bool((value >> b) & 1 == 1));
        }
        sim.step(&ins).unwrap();
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(sim.value(o).to_bool(), Some(i as u64 == value));
        }
    }
}

#[test]
fn counter_is_a_counter() {
    use adgen::synth::mapgen::build_mod_counter;
    let mut rng = Prng::new(6);
    for _ in 0..32 {
        let width = rng.next_in(1, 7) as u32;
        let steps = rng.next_in(1, 40) as usize;
        let mut n = Netlist::new("cnt");
        let en = n.add_input("en");
        let c = build_mod_counter(&mut n, 1 << width, en, "c").unwrap();
        for &q in &c.q {
            n.add_output(q);
        }
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        let modulus = 1u64 << width;
        for step in 0..steps {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(sim.word(&c.q).unwrap(), step as u64 % modulus);
        }
    }
}

#[test]
fn sta_output_load_is_monotone() {
    let spec = SragSpec::ring(8);
    let design = SragNetlist::elaborate(&spec).unwrap();
    let lib = Library::vcl018();
    let mut rng = Prng::new(7);
    for _ in 0..32 {
        let load_a = rng.next_f64() * 50.0;
        let load_b = rng.next_f64() * 50.0;
        let (lo, hi) = if load_a <= load_b {
            (load_a, load_b)
        } else {
            (load_b, load_a)
        };
        let t_lo = TimingAnalysis::run_with_output_load(&design.netlist, &lib, lo).unwrap();
        let t_hi = TimingAnalysis::run_with_output_load(&design.netlist, &lib, hi).unwrap();
        assert!(t_hi.critical_path_ps() >= t_lo.critical_path_ps());
    }
}

#[test]
fn decompose_compose_round_trip() {
    let mut rng = Prng::new(8);
    for _ in 0..64 {
        let width = rng.next_in(1, 12) as u32;
        let height = rng.next_in(1, 12) as u32;
        let shape = ArrayShape::new(width, height);
        let seq: Vec<u32> = (0..50)
            .map(|_| rng.next_range(u64::from(shape.capacity())) as u32)
            .collect();
        let s = AddressSequence::from_vec(seq);
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let (rows, cols) = s.decompose(shape, layout).unwrap();
            let back = AddressSequence::compose(&rows, &cols, shape, layout).unwrap();
            assert_eq!(&back, &s);
        }
    }
}

#[test]
fn addm_rejects_every_multi_hot_pattern() {
    use adgen::memory::Addm;
    let mut rng = Prng::new(9);
    for _ in 0..64 {
        let width = rng.next_in(2, 8) as u32;
        let height = rng.next_in(2, 8) as u32;
        let a = rng.next_range(u64::from(height)) as usize;
        let mut b = rng.next_range(u64::from(height)) as usize;
        if a == b {
            b = (b + 1) % height as usize;
        }
        let shape = ArrayShape::new(width, height);
        let mut mem = Addm::new(shape);
        let mut rows = vec![false; height as usize];
        rows[a] = true;
        rows[b] = true;
        let mut cols = vec![false; width as usize];
        cols[0] = true;
        let err = mem.write(&rows, &cols, 1).unwrap_err();
        assert!(matches!(err, MemError::MultiHotRowSelect { asserted: 2 }));
    }
}

#[test]
fn random_srag_specs_are_gate_level_equivalent() {
    use adgen::core::arch::ShiftRegisterSpec;
    let mut rng = Prng::new(10);
    for _ in 0..24 {
        let regs = rng.next_in(1, 4) as usize;
        let len = rng.next_in(1, 4) as usize;
        let iters = rng.next_in(1, 3) as usize;
        let dc = rng.next_in(1, 4) as usize;
        // Random line assignment: a permutation of 0..regs*len, so
        // registers hold arbitrary (not consecutive) lines.
        let total = regs * len;
        let mut lines: Vec<u32> = (0..total as u32).collect();
        rng.shuffle(&mut lines);
        let registers: Vec<ShiftRegisterSpec> = lines
            .chunks(len)
            .map(|c| ShiftRegisterSpec::new(c.to_vec()))
            .collect();
        let spec = SragSpec::new(registers, dc, len * iters, total);
        let design = SragNetlist::elaborate(&spec).unwrap();
        let mut gate = Simulator::new(&design.netlist).unwrap();
        gate.step_bools(&[true, false]).unwrap();
        let mut model = SragSimulator::new(spec.clone());
        model.reset();
        for step in 0..2 * spec.period() {
            gate.step_bools(&[false, true]).unwrap();
            assert_eq!(
                design.observed_address(&gate),
                Some(model.current()),
                "step {step}"
            );
            model.advance();
        }
    }
}

#[test]
fn arith_generator_handles_any_short_period_sequence() {
    use adgen::cntag::{ArithAgSimulator, ArithAgSpec};
    let shape = ArrayShape::new(8, 8);
    let mut rng = Prng::new(11);
    for _ in 0..64 {
        let len = rng.next_in(1, 24) as usize;
        let seq: AddressSequence = (0..len).map(|_| rng.next_range(64) as u32).collect();
        let spec = ArithAgSpec::from_sequence(&seq, shape).unwrap();
        let mut model = ArithAgSimulator::new(spec);
        assert_eq!(model.collect_sequence(2 * seq.len()), seq.repeated(2));
    }
}

#[test]
fn srag_simulator_is_always_one_hot() {
    let mut rng = Prng::new(12);
    for _ in 0..64 {
        let s = AddressSequence::from_vec(mappable_sequence(&mut rng));
        let stalls = rng.next_range(3) as usize;
        let m = map_sequence(&s).expect("valid");
        let mut sim = SragSimulator::new(m.spec);
        for _ in 0..(s.len() * (stalls + 1)) {
            let hot = sim.select_lines().iter().filter(|&&b| b).count();
            assert_eq!(hot, 1);
            sim.advance();
        }
    }
}
