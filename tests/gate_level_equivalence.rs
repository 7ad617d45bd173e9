//! Cross-crate gate-level equivalence: for every paper workload and
//! several array sizes, the elaborated netlists of the SRAG pair, the
//! CntAG and the symbolic FSM must generate exactly the workload's
//! address sequence, cycle by cycle, under logic simulation.

use adgen::prelude::*;

fn workload_cases(shape: ArrayShape) -> Vec<(&'static str, AddressSequence, CntAgSpec)> {
    let mb = (shape.width() / 4).max(2);
    vec![
        ("fifo", workloads::fifo(shape), CntAgSpec::raster(shape)),
        (
            "motion_est",
            workloads::motion_est_read(shape, mb, mb, 0),
            CntAgSpec::motion_est(shape, mb, mb, 0),
        ),
        (
            "dct",
            workloads::transpose_scan(shape),
            CntAgSpec::transpose(shape),
        ),
        (
            "zoombytwo",
            workloads::zoom_by_two(shape),
            CntAgSpec::zoom_by_two(shape),
        ),
    ]
}

#[test]
fn srag_netlists_generate_every_workload() {
    for n in [4u32, 8, 16] {
        let shape = ArrayShape::new(n, n);
        for (name, seq, _) in workload_cases(shape) {
            let pair = Srag2d::map(&seq, shape, Layout::RowMajor)
                .unwrap_or_else(|e| panic!("{name}@{n}: {e}"));
            let design = pair.elaborate().unwrap();
            let mut sim = Simulator::new(&design.netlist).unwrap();
            sim.step_bools(&[true, false]).unwrap();
            for (step, &expected) in seq.iter().enumerate() {
                sim.step_bools(&[false, true]).unwrap();
                assert_eq!(
                    design.observed_address(&sim),
                    Some(expected),
                    "{name}@{n} step {step}"
                );
            }
        }
    }
}

#[test]
fn cntag_netlists_generate_every_workload() {
    for n in [4u32, 8] {
        let shape = ArrayShape::new(n, n);
        for (name, seq, program) in workload_cases(shape) {
            let design = CntAgNetlist::elaborate(&program).unwrap();
            let mut sim = Simulator::new(&design.netlist).unwrap();
            sim.step_bools(&[true, false]).unwrap();
            for (step, &expected) in seq.iter().enumerate() {
                sim.step_bools(&[false, true]).unwrap();
                assert_eq!(
                    design.observed_address(&sim),
                    Some(expected),
                    "{name}@{n} step {step}"
                );
            }
        }
    }
}

#[test]
fn symbolic_fsm_generates_row_stream() {
    let shape = ArrayShape::new(8, 8);
    let seq = workloads::motion_est_read(shape, 2, 2, 0);
    let (rows, _) = seq.decompose(shape, Layout::RowMajor).unwrap();
    let fsm = Fsm::cyclic_sequence(rows.as_slice()).unwrap();
    let design = fsm
        .synthesize(
            Encoding::Binary,
            OutputStyle::SelectLines {
                num_lines: shape.height() as usize,
            },
        )
        .unwrap();
    // Two full periods at gate level against the behavioural model.
    let mut sim = Simulator::new(&design.netlist).unwrap();
    sim.step_bools(&[true, false]).unwrap();
    for (step, expected) in fsm.simulate(2 * rows.len()).into_iter().enumerate() {
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(expected), "step {step}");
    }
    assert!(design.netlist.num_flip_flops() >= 6);
}

#[test]
fn all_three_architectures_agree_cycle_by_cycle() {
    let shape = ArrayShape::new(8, 8);
    let seq = workloads::motion_est_read(shape, 4, 4, 0);

    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).unwrap();
    let srag = pair.elaborate().unwrap();
    let cnt = CntAgNetlist::elaborate(&CntAgSpec::motion_est(shape, 4, 4, 0)).unwrap();

    let mut srag_sim = Simulator::new(&srag.netlist).unwrap();
    let mut cnt_sim = Simulator::new(&cnt.netlist).unwrap();
    srag_sim.step_bools(&[true, false]).unwrap();
    cnt_sim.step_bools(&[true, false]).unwrap();
    for step in 0..2 * seq.len() {
        srag_sim.step_bools(&[false, true]).unwrap();
        cnt_sim.step_bools(&[false, true]).unwrap();
        let a = srag.observed_address(&srag_sim);
        let b = cnt.observed_address(&cnt_sim);
        assert_eq!(a, b, "architectures disagree at step {step}");
        assert!(a.is_some(), "undefined output at step {step}");
    }
}

#[test]
fn srag_two_hot_discipline_holds_for_thousands_of_cycles() {
    let shape = ArrayShape::new(16, 16);
    let seq = workloads::zoom_by_two(shape);
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).unwrap();
    let design = pair.elaborate().unwrap();
    let mut sim = Simulator::new(&design.netlist).unwrap();
    sim.step_bools(&[true, false]).unwrap();
    let mut lcg = 7u64;
    for cycle in 0..3000u32 {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        let advance = !(lcg >> 33).is_multiple_of(4); // mostly advancing, some stalls
        sim.step_bools(&[false, advance]).unwrap();
        let hot_rows = design
            .row_lines
            .iter()
            .filter(|&&l| sim.value(l).to_bool() == Some(true))
            .count();
        let hot_cols = design
            .col_lines
            .iter()
            .filter(|&&l| sim.value(l).to_bool() == Some(true))
            .count();
        assert_eq!(
            (hot_rows, hot_cols),
            (1, 1),
            "select-discipline violation at cycle {cycle}"
        );
    }
}

#[test]
fn mid_stream_reset_recovers_all_architectures() {
    let shape = ArrayShape::new(4, 4);
    let seq = workloads::motion_est_read(shape, 2, 2, 0);
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).unwrap();
    let srag = pair.elaborate().unwrap();
    let cnt = CntAgNetlist::elaborate(&CntAgSpec::motion_est(shape, 2, 2, 0)).unwrap();
    for netlist_and_decode in [
        (
            &srag.netlist,
            Box::new(|s: &Simulator<'_>| srag.observed_address(s))
                as Box<dyn Fn(&Simulator<'_>) -> Option<u32>>,
        ),
        (
            &cnt.netlist,
            Box::new(|s: &Simulator<'_>| cnt.observed_address(s)),
        ),
    ] {
        let (netlist, decode) = netlist_and_decode;
        let mut sim = Simulator::new(netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for _ in 0..7 {
            sim.step_bools(&[false, true]).unwrap();
        }
        // Reset mid-stream; the machine must restart from the first
        // address.
        sim.step_bools(&[true, false]).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(decode(&sim), Some(seq.as_slice()[0]));
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(decode(&sim), Some(seq.as_slice()[1]));
    }
}
