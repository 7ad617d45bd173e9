//! Integration tests for the exploration layer and the extension
//! studies: architecture fallbacks on hard patterns, Verilog export
//! of real designs, power measurement plumbing, and the control
//! ablations.

use adgen::cntag::{ArithAgNetlist, ArithAgSpec};
use adgen::core::arch::ControlStyle;
use adgen::netlist::verilog;
use adgen::prelude::*;

#[test]
fn serpentine_rejects_srag_but_keeps_fallbacks() {
    let lib = Library::vcl018();
    let shape = ArrayShape::new(8, 8);
    let seq = workloads::serpentine(shape);
    let options = EvaluateOptions {
        fsm_state_limit: 128,
        ..EvaluateOptions::default()
    };
    let eval = evaluate(&seq, shape, &lib, &options);
    // The SRAG cannot reverse its shift direction mid-pattern.
    assert!(
        eval.rejected.iter().any(|(a, _)| *a == Architecture::Srag),
        "SRAG should reject serpentine; got {:?}",
        eval.candidates
            .iter()
            .map(|c| c.architecture)
            .collect::<Vec<_>>()
    );
    // The FSM implements anything; the arithmetic generator handles
    // the periodic delta stream.
    assert!(eval
        .candidate(Architecture::SymbolicFsm(Encoding::Binary))
        .is_some());
    assert!(eval.candidate(Architecture::ArithAg).is_some());
}

#[test]
fn arithmetic_generator_round_trips_serpentine_at_gate_level() {
    let shape = ArrayShape::new(8, 4);
    let seq = workloads::serpentine(shape);
    let spec = ArithAgSpec::from_sequence(&seq, shape).unwrap();
    let design = ArithAgNetlist::elaborate(&spec).unwrap();
    let mut sim = Simulator::new(&design.netlist).unwrap();
    sim.step_bools(&[true, false]).unwrap();
    for (i, &expected) in seq.iter().enumerate() {
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(expected), "step {i}");
    }
}

#[test]
fn verilog_export_of_mapped_srag_is_structurally_sound() {
    let rows = AddressSequence::from_vec(vec![0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3]);
    let mapping = map_sequence(&rows).unwrap();
    let design = SragNetlist::elaborate(&mapping.spec).unwrap();
    let text = verilog::to_verilog(&design.netlist, true);
    // One top module plus one primitive per used cell kind; balanced
    // module/endmodule; every instance printed.
    assert_eq!(
        text.matches("\nmodule ").count(),
        text.matches("endmodule").count(),
        "balanced modules"
    );
    for i in 0..design.netlist.num_instances() {
        assert!(text.contains(&format!(" u{i} ")), "instance u{i} missing");
    }
    assert!(text.contains("input wire next"));
    assert!(text.contains("vcl018_dffse"));
}

#[test]
fn power_measurement_runs_on_every_architecture() {
    let lib = Library::vcl018();
    let shape = ArrayShape::new(8, 8);
    let seq = workloads::fifo(shape);
    let srag = Srag2d::map(&seq, shape, Layout::RowMajor)
        .unwrap()
        .elaborate()
        .unwrap();
    let cnt = CntAgNetlist::elaborate(&CntAgSpec::raster(shape)).unwrap();
    let arith =
        ArithAgNetlist::elaborate(&ArithAgSpec::from_sequence(&seq, shape).unwrap()).unwrap();
    for netlist in [&srag.netlist, &cnt.netlist, &arith.netlist] {
        let models = [ClockModel::FreeRunning, ClockModel::Gated];
        let reports = measure_power(netlist, &lib, 100.0, 64, models, |_| {
            vec![Logic::Zero, Logic::One]
        })
        .unwrap();
        for report in reports {
            assert!(report.total_uw() > 0.0);
            assert!(report.toggles_per_cycle > 0.0);
        }
    }
}

#[test]
fn control_styles_and_chaining_preserve_the_sequence() {
    let shape = ArrayShape::new(8, 8);
    let seq = workloads::fifo(shape);
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).unwrap();
    let designs = [
        pair.elaborate_with_style(ControlStyle::BinaryCounters)
            .unwrap(),
        pair.elaborate_with_style(ControlStyle::RingCounters)
            .unwrap(),
        pair.elaborate_chained()
            .unwrap()
            .expect("fifo is chainable"),
    ];
    for (variant, design) in designs.iter().enumerate() {
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for (i, &expected) in seq.iter().enumerate() {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(
                design.observed_address(&sim),
                Some(expected),
                "variant {variant} step {i}"
            );
        }
    }
}

#[test]
fn explorer_puts_srag_on_the_frontier_for_paper_workloads() {
    let lib = Library::vcl018();
    let shape = ArrayShape::new(16, 16);
    for (name, seq, program) in [
        ("fifo", workloads::fifo(shape), CntAgSpec::raster(shape)),
        (
            "motion_est",
            workloads::motion_est_read(shape, 2, 2, 0),
            CntAgSpec::motion_est(shape, 2, 2, 0),
        ),
    ] {
        let options = EvaluateOptions {
            cntag_program: Some(program),
            ..EvaluateOptions::default()
        };
        let eval = evaluate(&seq, shape, &lib, &options);
        let frontier = pareto_frontier(&eval.candidates);
        assert!(
            frontier
                .iter()
                .any(|c| c.architecture == Architecture::Srag),
            "{name}: SRAG missing from frontier"
        );
        // Constraint-driven selection picks the SRAG when delay is
        // everything.
        let fastest = select(&eval.candidates, Constraint::MinDelay).unwrap();
        assert_eq!(fastest.architecture, Architecture::Srag, "{name}");
    }
}
