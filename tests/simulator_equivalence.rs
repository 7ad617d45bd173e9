//! The compiled simulator (on one lane, and on 65 lanes under a
//! broadcast stimulus) and the event-driven oracle must be
//! observationally identical on every real generator netlist, under
//! streaming, stalling and mid-stream-reset stimulus.

use adgen::netlist::EventSimulator;
use adgen::prelude::*;

fn cross_check(netlist: &Netlist, cycles: usize, seed: u64) {
    let mut reference = Simulator::new(netlist).unwrap();
    let mut event = EventSimulator::new(netlist).unwrap();
    // 65 lanes puts the last broadcast lane in the second word, so the
    // word-seam path is exercised on every netlist here too.
    let mut sliced = Simulator::with_lanes(netlist, 65).unwrap();
    let num_inputs = netlist.inputs().len();
    let mut lcg = seed;
    for cycle in 0..cycles {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        let r = lcg >> 33;
        let mut inputs = vec![Logic::Zero; num_inputs];
        inputs[0] = Logic::from_bool(cycle == 0 || r.is_multiple_of(23)); // reset
        if num_inputs > 1 {
            inputs[1] = Logic::from_bool(!r.is_multiple_of(4)); // next, mostly on
        }
        for (k, v) in inputs.iter_mut().enumerate().skip(2) {
            *v = Logic::from_bool((r >> k) & 1 == 1);
        }
        reference.step(&inputs).unwrap();
        event.step(&inputs).unwrap();
        sliced.step(&inputs).unwrap();
        for (i, _) in netlist.nets().iter().enumerate() {
            let id = netlist.net_id_from_index(i);
            assert_eq!(
                reference.value(id),
                event.value(id),
                "cycle {cycle}, net {}",
                netlist.net(id).name()
            );
            for lane in [0, 64] {
                assert_eq!(
                    reference.value(id),
                    sliced.value_lane(id, lane),
                    "cycle {cycle}, net {}, sliced lane {lane}",
                    netlist.net(id).name()
                );
            }
        }
    }
}

#[test]
fn srag_pair_netlists_simulate_identically() {
    let shape = ArrayShape::new(8, 8);
    for seq in [
        workloads::motion_est_read(shape, 2, 2, 0),
        workloads::zoom_by_two(ArrayShape::new(8, 4)),
    ] {
        let max = seq.max_address().unwrap();
        let shape = if max < 64 {
            ArrayShape::new(8, (max / 8 + 1).max(1).next_power_of_two())
        } else {
            shape
        };
        let pair = Srag2d::map(&seq, shape, Layout::RowMajor).unwrap();
        let design = pair.elaborate().unwrap();
        cross_check(&design.netlist, 150, 7 + u64::from(max));
    }
}

#[test]
fn cntag_and_arith_netlists_simulate_identically() {
    let shape = ArrayShape::new(8, 8);
    let cnt = CntAgNetlist::elaborate(&CntAgSpec::motion_est(shape, 2, 2, 0)).unwrap();
    cross_check(&cnt.netlist, 150, 99);
    let seq = workloads::serpentine(shape);
    let arith =
        ArithAgNetlist::elaborate(&ArithAgSpec::from_sequence(&seq, shape).unwrap()).unwrap();
    cross_check(&arith.netlist, 150, 5);
}

#[test]
fn fsm_netlists_simulate_identically() {
    let seq: Vec<u32> = vec![5, 1, 4, 0, 3, 7, 6, 2];
    for encoding in [Encoding::Binary, Encoding::Gray, Encoding::OneHot] {
        let design = Fsm::cyclic_sequence(&seq)
            .unwrap()
            .synthesize(encoding, OutputStyle::SelectLines { num_lines: 8 })
            .unwrap();
        cross_check(&design.netlist, 120, 13);
    }
}

#[test]
fn event_simulation_is_sparse_on_srag() {
    // The token architecture's selling point in simulation: a 32x32
    // SRAG pair touches only a handful of gates per cycle.
    let shape = ArrayShape::new(32, 32);
    let seq = workloads::fifo(shape);
    let design = Srag2d::map(&seq, shape, Layout::RowMajor)
        .unwrap()
        .elaborate()
        .unwrap();
    let comb_gates = design.netlist.num_instances() - design.netlist.num_flip_flops();
    let mut sim = EventSimulator::new(&design.netlist).unwrap();
    sim.step_bools(&[true, false]).unwrap();
    let after_reset = sim.evaluations();
    let cycles = 500u64;
    for _ in 0..cycles {
        sim.step_bools(&[false, true]).unwrap();
    }
    let per_cycle = (sim.evaluations() - after_reset) as f64 / cycles as f64;
    assert!(
        per_cycle < comb_gates as f64 / 2.0,
        "event sim should evaluate a minority of the {comb_gates} gates per cycle, got {per_cycle:.1}"
    );
}
