//! Golden tests for the affine AGU's emitted artifacts: the
//! structural Verilog netlist and a VCD trace of a full serial
//! programming sequence followed by the first emitted addresses.
//!
//! Elaboration, chain serialization, naming and emission are all pure
//! functions of the spec, so any byte difference is a real change to
//! the circuit or the emitters — review it, then regenerate with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_affine
//! ```

mod common;

use common::assert_matches_golden;

use adgen::affine::netlist::{program_inputs, reset_inputs, tick_inputs};
use adgen::netlist::{to_verilog, Simulator, VcdTrace};
use adgen::prelude::*;

/// The reviewable running example: the fitted program of a 4×4 raster
/// scan — a 16-address ramp on a 4-bit datapath, small enough to read
/// the netlist by eye but exercising both loop levels' counters and
/// the full configuration chain.
fn raster_fit() -> AffineFit {
    let seq = workloads::raster(ArrayShape::new(4, 4));
    let fit = fit_sequence(seq.as_slice()).expect("a raster ramp fits");
    assert!(fit.is_exact());
    fit
}

#[test]
fn affine_verilog_matches_golden() {
    let design = AffineAgNetlist::elaborate(&raster_fit().spec).expect("elaborates");
    let text = to_verilog(&design.netlist, false);
    assert_eq!(
        text.matches("module ").count(),
        text.matches("endmodule").count()
    );
    assert_matches_golden("affine_raster4x4.v", &text, "affine artifact");
}

#[test]
fn affine_programming_vcd_matches_golden() {
    // A blank (trivially-defaulted) circuit of the raster program's
    // widths: the trace witnesses the reset, every serial programming
    // bit marching down the chain, and the first eight emitted
    // addresses of the freshly-loaded program.
    let fit = raster_fit();
    let blank = AffineAgNetlist::elaborate(&AffineSpec::trivial(
        fit.spec.addr_width,
        fit.spec.cnt_width,
    ))
    .expect("blank circuit elaborates");
    let bits = blank.program_bits(&fit.spec).expect("program serializes");

    let mut sim = Simulator::new(&blank.netlist).expect("simulates");
    let mut trace = VcdTrace::new(&blank.netlist);
    sim.step_bools(&reset_inputs()).expect("reset");
    trace.sample(&sim);
    for &bit in &bits {
        sim.step_bools(&program_inputs(bit)).expect("program step");
        trace.sample(&sim);
    }
    for _ in 0..8 {
        sim.step_bools(&tick_inputs()).expect("tick");
        trace.sample(&sim);
    }
    assert_eq!(trace.steps() as usize, 1 + bits.len() + 8);
    let text = trace.finish();
    assert!(text.starts_with("$timescale"));
    assert!(text.contains("$enddefinitions $end"));
    assert_matches_golden("affine_program4x4.vcd", &text, "affine artifact");
}
