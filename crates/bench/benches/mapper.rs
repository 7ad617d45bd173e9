//! Std-only bench for the mapping procedure itself (the paper's
//! SRAdGen tool) and for gate-level simulation throughput.

use adgen_bench::stopwatch::bench;
use adgen_core::composite::Srag2d;
use adgen_core::mapper::map_sequence;
use adgen_netlist::{EventSimulator, Simulator};
use adgen_seq::{workloads, AddressSequence, ArrayShape, Layout};

fn main() {
    // The row stream collapses to at most n reduced elements; the
    // column stream (the fast dimension) keeps all n² of them over n
    // lines, and the all-distinct stream has as many lines as
    // elements, so mapping cost shows its dependence on both.
    for n in [16u32, 64, 256] {
        let shape = ArrayShape::new(n, n);
        let mb = (n / 8).max(2);
        let seq = workloads::motion_est_read(shape, mb, mb, 0);
        let (rows, cols) = seq.decompose(shape, Layout::RowMajor).expect("in range");
        for (dim, stream) in [("rows", &rows), ("cols", &cols)] {
            bench(
                &format!("mapper/map_sequence/{dim}/{n} ({} addrs)", stream.len()),
                10,
                || map_sequence(stream).expect("maps").spec.num_flip_flops(),
            );
        }
    }
    let distinct: AddressSequence = (0..65_536).collect();
    bench("mapper/map_sequence/distinct (65536 addrs)", 10, || {
        map_sequence(&distinct).expect("maps").spec.num_flip_flops()
    });

    let shape = ArrayShape::new(32, 32);
    let seq = workloads::motion_est_read(shape, 4, 4, 0);
    let design = Srag2d::map(&seq, shape, Layout::RowMajor)
        .expect("maps")
        .elaborate()
        .expect("elaborates");
    bench("simulation/srag_pair_32x32/100_cycles", 10, || {
        let mut sim = Simulator::new(&design.netlist).expect("valid");
        sim.step_bools(&[true, false]).expect("reset");
        for _ in 0..100 {
            sim.step_bools(&[false, true]).expect("step");
        }
        sim.cycle()
    });

    let seq = workloads::fifo(shape);
    let design = Srag2d::map(&seq, shape, Layout::RowMajor)
        .expect("maps")
        .elaborate()
        .expect("elaborates");
    bench("simulation/engines_srag_32x32_500c/levelized", 10, || {
        let mut sim = Simulator::new(&design.netlist).expect("valid");
        sim.step_bools(&[true, false]).expect("reset");
        for _ in 0..500 {
            sim.step_bools(&[false, true]).expect("step");
        }
        sim.cycle()
    });
    bench(
        "simulation/engines_srag_32x32_500c/event_driven",
        10,
        || {
            let mut sim = EventSimulator::new(&design.netlist).expect("valid");
            sim.step_bools(&[true, false]).expect("reset");
            for _ in 0..500 {
                sim.step_bools(&[false, true]).expect("step");
            }
            sim.cycle()
        },
    );
}
