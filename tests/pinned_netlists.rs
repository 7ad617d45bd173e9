//! Byte-level pins of the netlists the paper sweep elaborates,
//! including the order of every load list: STA and the power model
//! sum a net's loads in list order in floating point, so a refactor
//! of netlist construction or fanout buffering that reorders loads
//! can move a reported figure without changing the Verilog.
//!
//! Each netlist is rendered as its nets (name, driver, ordered
//! loads), its instances (name, cell, input and output pins) and its
//! port lists, and the rendering is digested with FNV-1a-64. The
//! digests were recorded once and are never re-blessed; the
//! assertion's diff names the netlist that moved.

use adgen::cntag::{CntAgNetlist, CntAgSpec};
use adgen::core::{Srag2d, SragNetlist, SragSpec};
use adgen::netlist::{CellKind, Driver, Netlist};
use adgen::seq::{workloads, ArrayShape, Layout};
use adgen::synth::techmap::insert_fanout_buffers;
use adgen::synth::{Encoding, Fsm, OutputStyle};

/// FNV-1a-64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of `n`'s full structure, load order included.
fn netlist_digest(n: &Netlist) -> u64 {
    use std::fmt::Write;
    let mut text = format!("module {}\n", n.name());
    for net in n.nets() {
        let driver = match net.driver() {
            None => String::from("-"),
            Some(Driver::Input) => String::from("in"),
            Some(Driver::Inst { inst, pin }) => format!("{inst}.{pin}"),
        };
        write!(text, "net {} {driver} <", net.name()).unwrap();
        for &(inst, pin) in net.loads() {
            write!(text, " {inst}.{pin}").unwrap();
        }
        text.push('\n');
    }
    for inst in n.instances() {
        writeln!(
            text,
            "inst {} {} {:?} {:?}",
            inst.name(),
            inst.kind().name(),
            inst.inputs(),
            inst.outputs()
        )
        .unwrap();
    }
    writeln!(text, "inputs {:?}\noutputs {:?}", n.inputs(), n.outputs()).unwrap();
    fnv1a64(text.as_bytes())
}

/// One `label digest` line per netlist.
fn pin_lines<'a>(cases: impl IntoIterator<Item = (&'a str, &'a Netlist)>) -> String {
    cases
        .into_iter()
        .map(|(label, n)| format!("{label} {:016x}\n", netlist_digest(n)))
        .collect()
}

fn pair(seq: &adgen::seq::AddressSequence, n: u32) -> Srag2d {
    Srag2d::map(seq, ArrayShape::new(n, n), Layout::RowMajor).expect("maps")
}

const ELABORATED: &str = "\
ring256 c718390bac9c6e07
fifo256 ff42756f5947100f
fifo256_chained 8e2c3a1f8307f780
motion_est256 43d4167761c20fe4
hardened_motion_est32 039f807422c2580a
cntag_raster64 2f5203dad3f794a7
cntag_raster64_counter 9bcfadd3f0261027
cntag_raster64_decoder d22e09423c51ac37
fsm256_binary_select_lines 383591a29254facf
";

#[test]
fn elaborated_netlists_are_pinned() {
    let ring = SragNetlist::elaborate(&SragSpec::ring(256)).expect("ring elaborates");
    let fifo = pair(&workloads::fifo(ArrayShape::new(256, 256)), 256);
    let motion_est = pair(
        &workloads::motion_est_read(ArrayShape::new(256, 256), 32, 32, 0),
        256,
    );
    let fifo_plain = fifo.elaborate().expect("elaborates");
    let fifo_chained = fifo
        .elaborate_chained()
        .expect("elaborates")
        .expect("chains");
    let me_plain = motion_est.elaborate().expect("elaborates");
    // Motion estimation is not raster-like in rows, so it does not
    // chain.
    assert!(motion_est
        .elaborate_chained()
        .expect("elaborates")
        .is_none());
    let hardened = pair(
        &workloads::motion_est_read(ArrayShape::new(32, 32), 4, 4, 0),
        32,
    )
    .elaborate_hardened()
    .expect("hardens");
    let cntag = CntAgNetlist::elaborate(&CntAgSpec::raster(ArrayShape::new(64, 64)))
        .expect("cntag elaborates");
    let fsm = Fsm::cyclic_sequence(&(0..256).collect::<Vec<u32>>())
        .expect("nonempty")
        .synthesize(
            Encoding::Binary,
            OutputStyle::SelectLines { num_lines: 256 },
        )
        .expect("synthesizes");
    let components = cntag.components().expect("components");
    let mut got = pin_lines([
        ("ring256", &ring.netlist),
        ("fifo256", &fifo_plain.netlist),
        ("fifo256_chained", &fifo_chained.netlist),
        ("motion_est256", &me_plain.netlist),
        ("hardened_motion_est32", &hardened.netlist),
        ("cntag_raster64", &cntag.netlist),
    ]);
    // The counter cascade, then the one decoder of a square shape.
    let labels = ["cntag_raster64_counter", "cntag_raster64_decoder"];
    assert_eq!(components.netlists().count(), labels.len());
    got += &pin_lines(labels.into_iter().zip(components.netlists()));
    got += &pin_lines([("fsm256_binary_select_lines", &fsm.netlist)]);
    assert_eq!(got, ELABORATED, "an elaborated netlist moved");
}

/// A 100-load net behind an inverter, each load an output inverter.
fn fanout_fixture() -> Netlist {
    let mut n = Netlist::new("fan100");
    let a = n.add_input("a");
    let src = n.gate(CellKind::Inv, &[a]).expect("inv");
    for _ in 0..100 {
        let o = n.gate(CellKind::Inv, &[src]).expect("inv");
        n.add_output(o);
    }
    n
}

const BUFFERED: &str = "\
fan100_max2 126 724d9720da8e0353
fan100_max4 68 1282e103e63ab037
fan100_max12 12 c36471de662dc9b9
";

#[test]
fn fanout_buffering_is_pinned() {
    let got: String = [2usize, 4, 12]
        .into_iter()
        .map(|max_fanout| {
            let mut n = fanout_fixture();
            let inserted = insert_fanout_buffers(&mut n, max_fanout).expect("buffers");
            format!(
                "fan100_max{max_fanout} {inserted} {:016x}\n",
                netlist_digest(&n)
            )
        })
        .collect();
    assert_eq!(got, BUFFERED, "fanout buffering moved");
}
