//! Byte-level pins of what the paper sweep synthesizes and maps: the
//! Verilog of binary- and Gray-coded FSMs from 3 to 256 states, the
//! netlists of a few ROMs, every field of the SRAG mapping of the
//! paper's row and column streams at 64x64 and 256x256, and the
//! mapper's typed errors on the paper's counterexamples.
//!
//! The digests were recorded once and are never re-blessed. A change
//! that moves one changed a netlist or a mapping; the per-case lines
//! in the failure message name which.

use adgen::core::mapper::map_sequence;
use adgen::core::SragError;
use adgen::exec::Prng;
use adgen::netlist::verilog::to_verilog;
use adgen::netlist::Netlist;
use adgen::seq::{workloads, AddressSequence, ArrayShape, Layout};
use adgen::synth::mapgen::build_rom;
use adgen::synth::{Encoding, Fsm, OutputStyle};

/// FNV-1a-64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per case, `label digest`, and the digest of all lines.
fn digest_cases(cases: impl IntoIterator<Item = (String, String)>) -> (u64, String) {
    let lines: String = cases
        .into_iter()
        .map(|(label, text)| format!("{label} {:016x}\n", fnv1a64(text.as_bytes())))
        .collect();
    (fnv1a64(lines.as_bytes()), lines)
}

fn assert_pinned(what: &str, got: (u64, String), want: u64) {
    assert_eq!(
        format!("{:016x}", got.0),
        format!("{want:016x}"),
        "{what} moved; per-case digests:\n{}",
        got.1
    );
}

/// The address streams each FSM size is built from: the paper's
/// incremental stream, a shuffle of it, and a shuffled stream that
/// repeats every address twice (so select lines have two on-states
/// and some states share an output).
fn fsm_streams(n: u32) -> [(&'static str, Vec<u32>); 3] {
    let mut shuffled: Vec<u32> = (0..n).collect();
    Prng::new(u64::from(n)).shuffle(&mut shuffled);
    let mut repeated: Vec<u32> = (0..n).map(|i| i / 2).collect();
    Prng::new(u64::from(n) + 1000).shuffle(&mut repeated);
    [
        ("incremental", (0..n).collect()),
        ("shuffled", shuffled),
        ("repeated", repeated),
    ]
}

/// Bits needed to hold `max` (at least one).
fn bits_for(max: u32) -> usize {
    (32 - max.leading_zeros()).max(1) as usize
}

const FSM_DIGEST: u64 = 0x1dae_4e5b_9135_e4c6;

#[test]
fn fsm_verilog_is_pinned() {
    let mut cases = Vec::new();
    for encoding in [Encoding::Binary, Encoding::Gray] {
        for n in [3u32, 5, 8, 12, 16, 33, 64, 100, 256] {
            for (pattern, stream) in fsm_streams(n) {
                let max = stream.iter().copied().max().expect("nonempty");
                for style in [
                    OutputStyle::SelectLines {
                        num_lines: max as usize + 1,
                    },
                    OutputStyle::BinaryAddress {
                        bits: bits_for(max),
                    },
                ] {
                    let fsm = Fsm::cyclic_sequence(&stream).expect("nonempty");
                    let design = fsm.synthesize(encoding, style).expect("synthesizes");
                    assert!(!design.truncated);
                    cases.push((
                        format!("{encoding:?} {n} {pattern} {style:?}"),
                        to_verilog(&design.netlist, false),
                    ));
                }
            }
        }
    }
    assert_pinned("FSM Verilog", digest_cases(cases), FSM_DIGEST);
}

/// A ROM of `words` at `width` bits behind an index of `index_bits`
/// primary inputs, as structural Verilog.
fn rom_verilog(words: &[u64], width: u32, index_bits: usize) -> String {
    let mut n = Netlist::new("rom");
    let index: Vec<_> = (0..index_bits)
        .map(|b| n.add_input(format!("a{b}")))
        .collect();
    for y in build_rom(&mut n, &index, words, width).expect("builds") {
        n.add_output(y);
    }
    to_verilog(&n, false)
}

const ROM_DIGEST: u64 = 0xb0eb_907a_ae25_1eff;

#[test]
fn rom_netlists_are_pinned() {
    let mut rng = Prng::new(2026);
    let random: Vec<u64> = (0..200).map(|_| rng.next_range(512)).collect();
    let motion = workloads::motion_est_read(ArrayShape::new(8, 8), 2, 2, 0);
    let word_sets: [(&str, Vec<u64>, u32, usize); 6] = [
        ("identity", (0..64).collect(), 6, 6),
        (
            "motion_est8x8",
            motion.iter().map(|&a| u64::from(a)).collect(),
            6,
            6,
        ),
        ("random200", random, 9, 8),
        ("sparse_bits", (0..40).map(|i| 1 << (i % 8)).collect(), 8, 6),
        ("all_zero", vec![0; 12], 3, 4),
        ("all_ones", vec![7; 12], 3, 4),
    ];
    let cases = word_sets
        .into_iter()
        .map(|(label, words, width, bits)| (label.to_string(), rom_verilog(&words, width, bits)));
    assert_pinned("ROM netlists", digest_cases(cases), ROM_DIGEST);
}

/// The paper's streams on an `n`x`n` array: FIFO, motion estimation
/// with a `max(2, n/8)` macroblock, the DCT's transpose scan and the
/// 2x zoom.
fn paper_streams(n: u32) -> [(&'static str, AddressSequence); 4] {
    let shape = ArrayShape::new(n, n);
    let mb = (n / 8).max(2);
    [
        ("fifo", workloads::fifo(shape)),
        ("motion_est", workloads::motion_est_read(shape, mb, mb, 0)),
        ("dct", workloads::transpose_scan(shape)),
        ("zoombytwo", workloads::zoom_by_two(shape)),
    ]
}

const MAPPING_DIGEST: u64 = 0xbbb1_7988_540f_fd58;

#[test]
fn srag_mappings_of_the_paper_streams_are_pinned() {
    let mut cases = Vec::new();
    for n in [64u32, 256] {
        for (label, stream) in paper_streams(n) {
            let (rows, cols) = stream
                .decompose(ArrayShape::new(n, n), Layout::RowMajor)
                .expect("in range");
            for (side, s) in [("rows", rows), ("cols", cols)] {
                // Debug prints every field of the mapping (or error).
                cases.push((
                    format!("{label} {n} {side}"),
                    format!("{:?}", map_sequence(&s)),
                ));
            }
        }
    }
    assert_pinned("SRAG mappings", digest_cases(cases), MAPPING_DIGEST);
}

#[test]
fn the_mappers_typed_errors_are_pinned() {
    let map = |v: Vec<u32>| map_sequence(&AddressSequence::from_vec(v)).map(|_| ());
    assert_eq!(
        map(vec![5, 5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]),
        Err(SragError::DivCntViolation {
            expected: 3,
            found: 2,
            address: 1,
            position: 3,
        })
    );
    assert_eq!(
        map(vec![
            5, 1, 4, 0, 5, 1, 4, 0, 5, 1, 4, 0, 3, 7, 6, 2, 3, 7, 6, 2
        ]),
        Err(SragError::PassCntViolation {
            expected: 12,
            found: 8,
            register: 1,
        })
    );
    assert_eq!(
        map(vec![1, 2, 3, 4, 3, 2, 1, 4]),
        Err(SragError::GroupingFailure {
            position: 4,
            expected: 3,
            generated: 1,
        })
    );
}
