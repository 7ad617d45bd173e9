//! `ArithAgNetlist::serial_delay_ps` and `RomAgNetlist::serial_delay_ps`
//! time the address loop that `elaborate` built and keep the first
//! decoder delay when the row and column decoders match. The oracles
//! here rebuild the loop from scratch and time both decoders, as the
//! accounting did before, and every delay must agree bit for bit.

use adgen_cntag::netlist::SELECT_LINE_LOAD_FF;
use adgen_cntag::{ArithAgNetlist, ArithAgSpec, RomAgNetlist, RomAgSpec};
use adgen_netlist::{CellKind, Library, NetId, Netlist, TimingAnalysis};
use adgen_seq::{workloads, AddressSequence, ArrayShape};
use adgen_synth::fsm::MAX_FANOUT;
use adgen_synth::mapgen::{build_adder, build_decoder, build_mod_counter, build_rom};
use adgen_synth::techmap::insert_fanout_buffers;

/// A standalone `address_bits → lines` decoder with registered-address
/// inputs, built and timed under the select-line load.
fn decoder_delay_ps(address_bits: usize, lines: u32, library: &Library) -> f64 {
    let mut n = Netlist::new("decoder");
    let addr: Vec<NetId> = (0..address_bits)
        .map(|b| n.add_input(format!("a{b}")))
        .collect();
    let outs = build_decoder(&mut n, &addr).unwrap();
    for &o in outs.iter().take(lines as usize) {
        n.add_output(o);
    }
    insert_fanout_buffers(&mut n, MAX_FANOUT).unwrap();
    TimingAnalysis::run_with_output_load(&n, library, SELECT_LINE_LOAD_FF)
        .unwrap()
        .critical_path_ps()
}

/// `core` with `addr` as outputs and fanout buffers, timed, plus the
/// slower of a row and a column decoder, each built and timed.
fn oracle_delay(
    mut core: Netlist,
    addr: &[NetId],
    width: u32,
    shape: ArrayShape,
    library: &Library,
) -> f64 {
    for &a in addr {
        core.add_output(a);
    }
    insert_fanout_buffers(&mut core, MAX_FANOUT).unwrap();
    let core_ps = TimingAnalysis::run(&core, library)
        .unwrap()
        .critical_path_ps();
    let col_bits = shape.col_bits() as usize;
    let row = decoder_delay_ps(width as usize - col_bits, shape.height(), library);
    let col = decoder_delay_ps(col_bits, shape.width(), library);
    core_ps + row.max(col)
}

fn rom_oracle(spec: &RomAgSpec, library: &Library) -> f64 {
    let mut n = Netlist::new("rom_core");
    let next = n.add_input("next");
    let idx = build_mod_counter(&mut n, spec.addresses.len() as u64, next, "idx").unwrap();
    let addr = build_rom(&mut n, &idx.q, &spec.addresses, spec.width).unwrap();
    oracle_delay(n, &addr, spec.width, spec.shape, library)
}

fn arith_oracle(spec: &ArithAgSpec, library: &Library) -> f64 {
    let mut n = Netlist::new("arith_core");
    let next = n.add_input("next");
    let rst = n.reset();
    let w = spec.width as usize;
    let addr: Vec<NetId> = (0..w).map(|i| n.add_net(format!("acc{i}"))).collect();
    let idx = build_mod_counter(&mut n, spec.deltas.len() as u64, next, "idx").unwrap();
    let delta = build_rom(&mut n, &idx.q, &spec.deltas, spec.width).unwrap();
    let sum = build_adder(&mut n, &addr, &delta).unwrap();
    for i in 0..w {
        let kind = if (spec.initial >> i) & 1 == 1 {
            CellKind::Dffse
        } else {
            CellKind::Dffre
        };
        n.add_instance(format!("acc_ff{i}"), kind, &[sum[i], next, rst], &[addr[i]])
            .unwrap();
    }
    oracle_delay(n, &addr, spec.width, spec.shape, library)
}

/// Seeded sequences over `shape`: two paper workloads, a full-length
/// random stream and a random block repeated to a short period.
fn sample(shape: ArrayShape, seed: u64) -> Vec<AddressSequence> {
    let size = u64::from(shape.width() * shape.height());
    let mut lcg = seed;
    let mut draw = || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((lcg >> 33) % size) as u32
    };
    let random: AddressSequence = (0..size).map(|_| draw()).collect();
    let block: Vec<u32> = (0..(size / 8).max(2)).map(|_| draw()).collect();
    let periodic: AddressSequence = block
        .iter()
        .cycle()
        .take(4 * block.len())
        .copied()
        .collect();
    vec![
        workloads::raster(shape),
        workloads::motion_est_read(shape, 2, 2, 0),
        random,
        periodic,
    ]
}

const SHAPES: [(u32, u32); 6] = [(4, 4), (8, 4), (4, 16), (8, 8), (16, 8), (16, 16)];

#[test]
fn rom_serial_delay_matches_a_core_rebuilt_from_scratch() {
    let library = Library::vcl018();
    for (i, &(w, h)) in SHAPES.iter().enumerate() {
        let shape = ArrayShape::new(w, h);
        for (j, seq) in sample(shape, 2026 + i as u64).iter().enumerate() {
            let spec = RomAgSpec::from_sequence(seq, shape).unwrap();
            let got = RomAgNetlist::elaborate(&spec)
                .unwrap()
                .serial_delay_ps(&library)
                .unwrap();
            let want = rom_oracle(&spec, &library);
            assert_eq!(got.to_bits(), want.to_bits(), "{w}x{h} sequence {j}");
        }
    }
}

#[test]
fn arith_serial_delay_matches_a_core_rebuilt_from_scratch() {
    let library = Library::vcl018();
    for (i, &(w, h)) in SHAPES.iter().enumerate() {
        let shape = ArrayShape::new(w, h);
        for (j, seq) in sample(shape, 7 + i as u64).iter().enumerate() {
            let spec = ArithAgSpec::from_sequence(seq, shape).unwrap();
            let got = ArithAgNetlist::elaborate(&spec)
                .unwrap()
                .serial_delay_ps(&library)
                .unwrap();
            let want = arith_oracle(&spec, &library);
            assert_eq!(got.to_bits(), want.to_bits(), "{w}x{h} sequence {j}");
        }
    }
}
