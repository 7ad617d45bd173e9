//! Large-configuration stress tests. The default suite keeps the
//! 512×512/256×256 cases `#[ignore]`d to stay fast (run them with
//! `cargo test -- --ignored`, e.g. via `CI_SLOW=1 scripts/ci.sh`);
//! each has a bounded 64×64 twin below that always runs, so the same
//! code paths are exercised on every `cargo test`.

use adgen::prelude::*;

#[test]
fn srag_64x64_maps_elaborates_and_times() {
    // Bounded twin of `srag_512x512_maps_elaborates_and_times`.
    let shape = ArrayShape::new(64, 64);
    let seq = workloads::fifo(shape);
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).unwrap();
    let design = pair.elaborate().unwrap();
    assert_eq!(design.row_lines.len(), 64);
    assert_eq!(design.col_lines.len(), 64);
    let lib = Library::vcl018();
    let t = TimingAnalysis::run(&design.netlist, &lib).unwrap();
    let a = AreaReport::of(&design.netlist, &lib);
    assert!(t.critical_path_ns() > 0.0);
    assert!(a.total() > 1_000.0);
    // Spot-check the first 500 cycles at gate level.
    let mut sim = Simulator::new(&design.netlist).unwrap();
    sim.step_bools(&[true, false]).unwrap();
    for (i, &expected) in seq.iter().take(500).enumerate() {
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(expected), "step {i}");
    }
}

/// Fig. 9's component delays of `spec` under the select-line load.
fn cntag_components(spec: &CntAgSpec, lib: &Library) -> adgen::cntag::ComponentDelays {
    let design = CntAgNetlist::elaborate(spec).unwrap();
    let components = design.components().unwrap();
    let timer = components.timer(lib).unwrap();
    timer.delays_at(adgen::cntag::netlist::SELECT_LINE_LOAD_FF)
}

#[test]
fn mapper_maps_a_65536_address_all_distinct_stream() {
    // One line per address: the largest reduced sequence the mapper
    // meets, which a single 65 536-line ring implements.
    let distinct: AddressSequence = (0..65_536).collect();
    let spec = map_sequence(&distinct).unwrap().spec;
    assert_eq!(spec.num_lines, 65_536);
    assert_eq!(spec.num_flip_flops(), 65_536);
}

#[test]
fn cntag_64x64_components() {
    // Bounded twin of `cntag_512x512_components`.
    let shape = ArrayShape::new(64, 64);
    let lib = Library::vcl018();
    let c = cntag_components(&CntAgSpec::raster(shape), &lib);
    assert!(c.row_decoder_ps > 0.0);
    assert!(c.total_ps() > c.counter_ps);
}

#[test]
fn full_period_verification_64x64() {
    // Bounded twin of `full_period_verification_256x256`: one
    // complete 4096-access period, gate level.
    let shape = ArrayShape::new(64, 64);
    let mb = 8;
    let seq = workloads::motion_est_read(shape, mb, mb, 0);
    assert_eq!(seq.len(), 4096);
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).unwrap();
    let design = pair.elaborate().unwrap();
    let mut sim = Simulator::new(&design.netlist).unwrap();
    sim.step_bools(&[true, false]).unwrap();
    for (i, &expected) in seq.iter().enumerate() {
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(expected), "step {i}");
    }
}

#[test]
fn affine_64x64_fits_elaborates_and_replays() {
    // Bounded twin of `affine_256x256_full_period_replay`.
    let shape = ArrayShape::new(64, 64);
    let seq = workloads::raster(shape);
    let fit = fit_sequence(seq.as_slice()).unwrap();
    assert!(fit.is_exact(), "a raster ramp is affine");
    let design = AffineAgNetlist::elaborate(&fit.spec).unwrap();
    let lib = Library::vcl018();
    let t = TimingAnalysis::run(&design.netlist, &lib).unwrap();
    let a = AreaReport::of(&design.netlist, &lib);
    assert!(t.critical_path_ns() > 0.0);
    assert!(a.total() > 500.0);
    assert!(design.config_bits() > 0, "programming chain present");
    // Spot-check the first 500 emitted addresses at gate level.
    let max_ticks = 2 * fit.spec.program_ticks() + 8;
    let mut sim = Simulator::new(&design.netlist).unwrap();
    design.reset_sim(&mut sim).unwrap();
    let got = design.collect_emitted(&mut sim, 500, max_ticks).unwrap();
    assert_eq!(&got[..], &seq.as_slice()[..500]);
}

#[test]
fn affine_64x64_chain_programming_replays() {
    // Bounded twin of `affine_256x256_chain_programming_replays`:
    // shift the fitted program into a blank (trivially-defaulted)
    // circuit over the serial configuration chain, then replay.
    let shape = ArrayShape::new(64, 64);
    let seq = workloads::raster(shape);
    let fit = fit_sequence(seq.as_slice()).unwrap();
    let blank = AffineAgNetlist::elaborate(&AffineSpec::trivial(
        fit.spec.addr_width,
        fit.spec.cnt_width,
    ))
    .unwrap();
    let mut sim = Simulator::new(&blank.netlist).unwrap();
    blank.reset_sim(&mut sim).unwrap();
    blank.program(&mut sim, &fit.spec).unwrap();
    let max_ticks = 2 * fit.spec.program_ticks() + 8;
    let got = blank.collect_emitted(&mut sim, 500, max_ticks).unwrap();
    assert_eq!(&got[..], &seq.as_slice()[..500]);
}

#[test]
#[ignore = "large configuration; run with --ignored"]
fn srag_512x512_maps_elaborates_and_times() {
    let shape = ArrayShape::new(512, 512);
    let seq = workloads::fifo(shape);
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).unwrap();
    let design = pair.elaborate().unwrap();
    assert_eq!(design.row_lines.len(), 512);
    assert_eq!(design.col_lines.len(), 512);
    let lib = Library::vcl018();
    let t = TimingAnalysis::run(&design.netlist, &lib).unwrap();
    let a = AreaReport::of(&design.netlist, &lib);
    assert!(t.critical_path_ns() > 0.0);
    assert!(a.total() > 20_000.0);
    // Spot-check the first 2000 cycles at gate level.
    let mut sim = Simulator::new(&design.netlist).unwrap();
    sim.step_bools(&[true, false]).unwrap();
    for (i, &expected) in seq.iter().take(2000).enumerate() {
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(expected), "step {i}");
    }
}

#[test]
#[ignore = "large configuration; run with --ignored"]
fn cntag_512x512_components() {
    let shape = ArrayShape::new(512, 512);
    let lib = Library::vcl018();
    let c = cntag_components(&CntAgSpec::raster(shape), &lib);
    assert!(c.row_decoder_ps > 0.0);
    assert!(c.total_ps() > c.counter_ps);
}

#[test]
#[ignore = "large configuration; run with --ignored"]
fn affine_256x256_full_period_replay() {
    // One complete 65 536-access raster period through the fitted
    // affine AGU, gate level.
    let shape = ArrayShape::new(256, 256);
    let seq = workloads::raster(shape);
    let fit = fit_sequence(seq.as_slice()).unwrap();
    assert!(fit.is_exact());
    let design = AffineAgNetlist::elaborate(&fit.spec).unwrap();
    let max_ticks = 2 * fit.spec.program_ticks() + 8;
    let mut sim = Simulator::new(&design.netlist).unwrap();
    design.reset_sim(&mut sim).unwrap();
    let got = design
        .collect_emitted(&mut sim, seq.len(), max_ticks)
        .unwrap();
    assert_eq!(&got[..], seq.as_slice());
}

#[test]
#[ignore = "large configuration; run with --ignored"]
fn affine_256x256_chain_programming_replays() {
    // The full-size serial-programming path: a 256x256 raster program
    // shifted into a blank circuit bit by bit, then one full period.
    let shape = ArrayShape::new(256, 256);
    let seq = workloads::raster(shape);
    let fit = fit_sequence(seq.as_slice()).unwrap();
    let blank = AffineAgNetlist::elaborate(&AffineSpec::trivial(
        fit.spec.addr_width,
        fit.spec.cnt_width,
    ))
    .unwrap();
    let mut sim = Simulator::new(&blank.netlist).unwrap();
    blank.reset_sim(&mut sim).unwrap();
    blank.program(&mut sim, &fit.spec).unwrap();
    let max_ticks = 2 * fit.spec.program_ticks() + 8;
    let got = blank
        .collect_emitted(&mut sim, seq.len(), max_ticks)
        .unwrap();
    assert_eq!(&got[..], seq.as_slice());
}

#[test]
#[ignore = "large configuration; run with --ignored"]
fn full_period_verification_256x256() {
    // One complete 65 536-access period, gate level.
    let shape = ArrayShape::new(256, 256);
    let mb = 32;
    let seq = workloads::motion_est_read(shape, mb, mb, 0);
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).unwrap();
    let design = pair.elaborate().unwrap();
    let mut sim = Simulator::new(&design.netlist).unwrap();
    sim.step_bools(&[true, false]).unwrap();
    for (i, &expected) in seq.iter().enumerate() {
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(expected), "step {i}");
    }
}
