//! Golden test for every delay/area/flip-flop price the toolkit
//! reports: explorer candidates and rejections, the four-way
//! shoot-out rows, the CntAG component delays and the ArithAG/RomAG
//! serial delays (with a digest of each pinned CntAG netlist), the
//! per-bank decompose-vs-monolithic plan, and the server's `Synthesize`/`Explore` answers over a live loopback
//! connection.
//!
//! Every `f64` is written as the hex of its `to_bits`, so the
//! comparison against `tests/golden/pricing.txt` is exact: a refactor
//! of the pricing code must reproduce each number bit for bit. If a
//! change to the accounting is intentional, regenerate with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_pricing
//! ```

mod common;

use common::assert_matches_golden;

use std::fmt::Write as _;

use adgen::affine::fit_sequence;
use adgen::bank::{BankMap, Interleaver};
use adgen::cntag::{ArithAgNetlist, ArithAgSpec, CntAgNetlist, CntAgSpec, RomAgNetlist, RomAgSpec};
use adgen::explorer::{
    compare_banked, compare_four_way, compare_srag_cntag_load_sweep, evaluate, EvaluateOptions,
};
use adgen::netlist::{to_verilog, AreaReport, Library};
use adgen::seq::{workloads, AddressSequence, ArrayShape};
use adgen::serve::{serve, Client, Generator, Request, Response, ServeConfig};
use adgen::synth::Encoding;

/// The exact bit pattern of `x`.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The workloads every explorer and shoot-out section covers, with
/// their counter-cascade programs.
fn paper_workloads(shape: ArrayShape) -> Vec<(&'static str, AddressSequence, CntAgSpec)> {
    vec![
        (
            "fifo",
            workloads::fifo(shape),
            CntAgSpec::raster(shape), // FIFO order is the raster program
        ),
        ("raster", workloads::raster(shape), CntAgSpec::raster(shape)),
        (
            "motion_est",
            workloads::motion_est_read(shape, 2, 2, 0),
            CntAgSpec::motion_est(shape, 2, 2, 0),
        ),
        (
            "transpose",
            workloads::transpose_scan(shape),
            CntAgSpec::transpose(shape),
        ),
    ]
}

/// Motion estimation with search range 1: SRAG-mappable, but the
/// affine mapper covers only its first block scan, so the affine rows
/// are priced with a residual FSM.
fn motion_est_with_residual(shape: ArrayShape) -> (&'static str, AddressSequence, CntAgSpec) {
    let seq = workloads::motion_est_read(shape, 2, 2, 1);
    let residual = fit_sequence(seq.as_slice()).expect("fit").residual;
    assert!(
        !residual.is_empty(),
        "the fixture must leave an affine residual"
    );
    ("motion_est_m1", seq, CntAgSpec::motion_est(shape, 2, 2, 1))
}

/// An LCG-drawn address stream with no counter structure, so the
/// ArithAG delta ROM and the RomAG address ROM minimize real
/// functions instead of single literals.
fn scrambled(shape: ArrayShape) -> AddressSequence {
    let size = shape.width() * shape.height();
    let mut lcg = 2026u64;
    (0..size)
        .map(|_| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((lcg >> 33) % u64::from(size)) as u32
        })
        .collect()
}

fn render_evaluation(
    out: &mut String,
    label: &str,
    seq: &AddressSequence,
    shape: ArrayShape,
    cntag_program: Option<CntAgSpec>,
    library: &Library,
) {
    let options = EvaluateOptions {
        cntag_program,
        fsm_encodings: vec![Encoding::Binary, Encoding::Gray, Encoding::OneHot],
        ..EvaluateOptions::default()
    };
    let eval = evaluate(seq, shape, library, &options);
    writeln!(out, "evaluate {label} {}x{}", shape.width(), shape.height()).unwrap();
    for c in &eval.candidates {
        writeln!(
            out,
            "  candidate {} delay_ps={} area={} flip_flops={}",
            c.architecture,
            bits(c.delay_ps),
            bits(c.area),
            c.flip_flops
        )
        .unwrap();
    }
    for (arch, reason) in &eval.rejected {
        writeln!(out, "  rejected {arch}: {reason}").unwrap();
    }
}

fn explorer_section(out: &mut String, library: &Library) {
    for side in [4, 8] {
        let shape = ArrayShape::new(side, side);
        for (name, seq, program) in paper_workloads(shape) {
            render_evaluation(out, name, &seq, shape, Some(program), library);
        }
    }
    let four = ArrayShape::new(4, 4);
    let (name, seq, program) = motion_est_with_residual(four);
    render_evaluation(out, name, &seq, four, Some(program), library);
    let six = ArrayShape::new(6, 6);
    render_evaluation(out, "raster", &workloads::raster(six), six, None, library);
    let violating = AddressSequence::from_vec(vec![0, 4, 5, 1, 0, 2]);
    render_evaluation(out, "srag_violating", &violating, four, None, library);
    // A 256-deep ROM, and a shape whose row and column decoders differ.
    for shape in [ArrayShape::new(16, 16), ArrayShape::new(16, 8)] {
        for (name, seq, program) in paper_workloads(shape) {
            render_evaluation(out, name, &seq, shape, Some(program), library);
        }
        render_evaluation(out, "scrambled", &scrambled(shape), shape, None, library);
    }
}

fn four_way_section(out: &mut String, library: &Library) {
    let shape = ArrayShape::new(4, 4);
    let mut cases = paper_workloads(shape);
    cases.push(motion_est_with_residual(shape));
    cases.push((
        "srag_violating",
        AddressSequence::from_vec(vec![0, 4, 5, 1, 0, 2]),
        CntAgSpec::raster(shape),
    ));
    for (name, seq, program) in cases {
        writeln!(out, "four_way {name} 4x4").unwrap();
        match compare_four_way(&seq, shape, &program, library, seq.len() as u32, 8, 2026, 1) {
            Ok(cmp) => {
                for r in &cmp.rows {
                    writeln!(
                        out,
                        "  row {} delay_ps={} area={} flip_flops={} program_flip_flops={} \
                         coverage_pct={} silent={} faults={}",
                        r.architecture,
                        bits(r.delay_ps),
                        bits(r.area),
                        r.flip_flops,
                        r.program_flip_flops,
                        bits(r.fault_coverage_pct),
                        r.silent_faults,
                        r.faults
                    )
                    .unwrap();
                }
                writeln!(
                    out,
                    "  affine_fit covered={} residual={:?}",
                    cmp.affine_fit.covered, cmp.affine_fit.residual
                )
                .unwrap();
            }
            Err(e) => writeln!(out, "  error: {e}").unwrap(),
        }
    }
    let six = ArrayShape::new(6, 6);
    let program = CntAgSpec::raster(ArrayShape::new(8, 8));
    let err = compare_four_way(&workloads::raster(six), six, &program, library, 8, 2, 1, 1)
        .expect_err("a 6x6 shape has no binary decoder");
    writeln!(out, "four_way raster 6x6\n  error: {err}").unwrap();
}

/// FNV-1a-64 of `text`, enough to pin a netlist's exact Verilog.
fn digest(text: &str) -> String {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    format!("{h:016x}")
}

/// The CntAG's Fig. 9 component delays across three select-line
/// loads, with a digest of its netlist's Verilog, on square and
/// non-square programs; then the serial delay and area of the
/// arithmetic and table-lookup generators.
fn decoder_backed_section(out: &mut String, library: &Library) {
    let motion_est16 = ArrayShape::new(16, 16);
    let cases = [
        (
            "raster",
            workloads::raster(ArrayShape::new(16, 16)),
            CntAgSpec::raster(ArrayShape::new(16, 16)),
        ),
        (
            "zoom_by_two",
            workloads::zoom_by_two(ArrayShape::new(8, 8)),
            CntAgSpec::zoom_by_two(ArrayShape::new(8, 8)),
        ),
        (
            "motion_est",
            workloads::motion_est_read(motion_est16, 4, 4, 0),
            CntAgSpec::motion_est(motion_est16, 4, 4, 0),
        ),
        (
            "transpose",
            workloads::transpose_scan(ArrayShape::new(8, 4)),
            CntAgSpec::transpose(ArrayShape::new(8, 4)),
        ),
    ];
    for (name, seq, program) in cases {
        let shape = program.shape;
        writeln!(out, "cntag {name} {}x{}", shape.width(), shape.height()).unwrap();
        let loads = [0.0, 30.0, 100.0];
        let points = compare_srag_cntag_load_sweep(&seq, shape, &program, library, &loads, 1)
            .expect("load sweep");
        for (load, (_, c)) in loads.iter().zip(&points) {
            writeln!(
                out,
                "  load_ff={load} counter_ps={} row_decoder_ps={} col_decoder_ps={} total_ps={}",
                bits(c.counter_ps),
                bits(c.row_decoder_ps),
                bits(c.col_decoder_ps),
                bits(c.total_ps())
            )
            .unwrap();
        }
        let design = CntAgNetlist::elaborate(&program).expect("cntag elaborates");
        writeln!(
            out,
            "  verilog_fnv1a64={}",
            digest(&to_verilog(&design.netlist, false))
        )
        .unwrap();
    }
    let serpentine = ArrayShape::new(8, 4);
    for (name, seq, shape) in [
        ("serpentine", workloads::serpentine(serpentine), serpentine),
        (
            "motion_est",
            workloads::motion_est_read(motion_est16, 4, 4, 0),
            motion_est16,
        ),
    ] {
        let arith = ArithAgNetlist::elaborate(&ArithAgSpec::from_sequence(&seq, shape).unwrap())
            .expect("arithag elaborates");
        let rom = RomAgNetlist::elaborate(&RomAgSpec::from_sequence(&seq, shape).unwrap())
            .expect("romag elaborates");
        for (family, netlist, delay) in [
            ("arithag", &arith.netlist, arith.serial_delay_ps(library)),
            ("romag", &rom.netlist, rom.serial_delay_ps(library)),
        ] {
            writeln!(
                out,
                "{family} {name} {}x{} serial_delay_ps={} area={}",
                shape.width(),
                shape.height(),
                bits(delay.expect("serial delay")),
                bits(AreaReport::of(netlist, library).total())
            )
            .unwrap();
        }
    }
}

fn bank_section(out: &mut String, library: &Library) {
    let (n, banks) = (64, 4);
    let window = n / banks;
    let qpp = Interleaver::qpp_contention_free(n, banks).expect("valid qpp parameters");
    let map = BankMap::HighBits { banks, window };
    let cmp = compare_banked(&qpp, &map, banks, library, 1).expect("banked comparison");
    let plan = cmp.plan.expect("contention-free qpp is priced");
    writeln!(out, "plan_banks qpp n={n} banks={banks} window={window}").unwrap();
    for b in &plan.banks {
        writeln!(
            out,
            "  bank {} linear_bits={} residue_bits={} residue_states={} choice={:?}",
            b.bank, b.linear_bits, b.residue_bits, b.residue_states, b.choice
        )
        .unwrap();
        for (kind, p) in [("decomposed", b.decomposed), ("monolithic", b.monolithic)] {
            writeln!(
                out,
                "    {kind} delay_ps={} area={} flip_flops={}",
                bits(p.delay_ps),
                bits(p.area),
                p.flip_flops
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "  decomposed_area={} monolithic_area={}",
        bits(plan.decomposed_area),
        bits(plan.monolithic_area)
    )
    .unwrap();
}

/// A sequence the affine mapper covers only partly: its tail is left
/// to the residual FSM.
const RESIDUAL_SEQUENCE: [u32; 8] = [0, 3, 1, 2, 3, 0, 2, 2];

fn serve_requests() -> Vec<(&'static str, Request)> {
    let fsm = |sequence: Vec<u32>, encoding, num_lines, effort_steps| Request::Synthesize {
        sequence,
        encoding,
        num_lines,
        effort_steps,
        generator: Generator::Fsm,
    };
    let affine = |sequence: Vec<u32>| Request::Synthesize {
        sequence,
        encoding: Encoding::Binary,
        num_lines: 16,
        effort_steps: 0,
        generator: Generator::Affine,
    };
    let explore = |sequence: Vec<u32>, side: u32| Request::Explore {
        sequence,
        width: side,
        height: side,
        fsm_state_limit: 0,
    };
    let motion_est = |side| workloads::motion_est_read(ArrayShape::new(side, side), 2, 2, 0);
    vec![
        (
            "synthesize.fsm.binary",
            fsm(vec![0, 2, 1, 3], Encoding::Binary, 4, 0),
        ),
        (
            "synthesize.fsm.gray",
            fsm(vec![0, 2, 1, 3, 3, 1], Encoding::Gray, 4, 0),
        ),
        (
            "synthesize.fsm.one_hot",
            fsm(vec![0, 1, 2, 3, 4, 5, 6, 7], Encoding::OneHot, 8, 0),
        ),
        (
            "synthesize.fsm.budgeted",
            fsm(motion_est(8).as_slice().to_vec(), Encoding::Binary, 64, 1),
        ),
        (
            "synthesize.fsm.out_of_range",
            fsm(vec![0, 5], Encoding::Binary, 4, 0),
        ),
        (
            "synthesize.affine.exact",
            affine(motion_est(4).as_slice().to_vec()),
        ),
        (
            "synthesize.affine.residual",
            affine(RESIDUAL_SEQUENCE.to_vec()),
        ),
        (
            "explore.motion_est4",
            explore(motion_est(4).as_slice().to_vec(), 4),
        ),
        (
            "explore.motion_est8",
            explore(motion_est(8).as_slice().to_vec(), 8),
        ),
        (
            "explore.raster6",
            explore(
                workloads::raster(ArrayShape::new(6, 6)).as_slice().to_vec(),
                6,
            ),
        ),
        ("explore.srag_violating", explore(vec![0, 4, 5, 1, 0, 2], 4)),
    ]
}

fn serve_section(out: &mut String) {
    let residual = fit_sequence(&RESIDUAL_SEQUENCE).expect("fit").residual;
    assert!(
        !residual.is_empty(),
        "the residual fixture must exercise the residual FSM"
    );
    let handle = serve(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    })
    .expect("server binds an ephemeral loopback port");
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    for (label, request) in serve_requests() {
        let response = client.call(&request, 0).expect("call");
        writeln!(out, "serve {label} {}", hex(&response.encode())).unwrap();
    }
    assert_eq!(
        client.call(&Request::Shutdown, 0).expect("shutdown"),
        Response::ShuttingDown
    );
    drop(client);
    handle.join().expect("no worker panicked");
}

#[test]
fn every_reported_price_matches_golden() {
    let library = Library::vcl018();
    let mut out = String::new();
    explorer_section(&mut out, &library);
    four_way_section(&mut out, &library);
    decoder_backed_section(&mut out, &library);
    bank_section(&mut out, &library);
    serve_section(&mut out);
    assert_matches_golden("pricing.txt", &out, "a reported price");
}
