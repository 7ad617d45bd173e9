//! The paper's motivating workload at realistic scale: a frame is
//! produced into the `new_img` buffer in raster order and consumed in
//! block-matching order, with the address generators driving an
//! address decoder-decoupled memory.
//!
//! The example co-simulates the SRAG pair against the ADDM cell-array
//! model (checking the two-hot select discipline on every access and
//! the integrity of every transferred pixel), then compares the SRAG
//! against the conventional counter-plus-decoder generator on delay
//! and area, as in paper Figs. 8 and 10.
//!
//! Run with: `cargo run --example motion_estimation`

use adgen::explorer::compare_srag_cntag;
use adgen::memory::cosim;
use adgen::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shape = ArrayShape::new(64, 64);
    let mb = 8;
    println!(
        "frame {}x{}, macroblock {mb}x{mb}",
        shape.width(),
        shape.height()
    );

    // Address streams: raster production, block-matching consumption.
    let write_seq = workloads::fifo(shape);
    let read_seq = workloads::motion_est_read(shape, mb, mb, 0);

    // Map both onto two-hot SRAG pairs.
    let writer_pair = Srag2d::map(&write_seq, shape, Layout::RowMajor)?;
    let reader_pair = Srag2d::map(&read_seq, shape, Layout::RowMajor)?;
    println!(
        "writer SRAG: row dC={} pC={}, col dC={} pC={}",
        writer_pair.row().spec.div_count,
        writer_pair.row().spec.pass_count,
        writer_pair.col().spec.div_count,
        writer_pair.col().spec.pass_count,
    );
    println!(
        "reader SRAG: row dC={} pC={}, col dC={} pC={}",
        reader_pair.row().spec.div_count,
        reader_pair.row().spec.pass_count,
        reader_pair.col().spec.div_count,
        reader_pair.col().spec.pass_count,
    );

    // A synthetic frame: pixel value = linear address ^ 0xA5.
    let frame: Vec<u64> = (0..shape.capacity() as u64).map(|a| a ^ 0xA5).collect();

    // Drive the decoder-decoupled array end to end. Every access is
    // checked for the two-hot safety discipline; every pixel read in
    // block order must match what raster order wrote.
    let mut writer = writer_pair.simulator();
    let mut reader = reader_pair.simulator();
    let report = cosim::run_addm(&mut writer, &mut reader, shape, &frame, read_seq.len())?;
    println!(
        "co-simulation: {} writes, {} checked reads — no select hazard, no corruption",
        report.writes, report.reads
    );

    // Performance-area comparison against the counter-based baseline.
    let library = Library::vcl018();
    let program = CntAgSpec::motion_est(shape, mb, mb, 0);
    let row = compare_srag_cntag(&read_seq, shape, &program, &library)?;
    println!("\nread-side generators on vcl018:");
    println!(
        "  SRAG : {:.3} ns, {:>8.0} cell units, {} flip-flops",
        row.srag_delay_ps / 1000.0,
        row.srag_area,
        row.srag_flip_flops
    );
    println!(
        "  CntAG: {:.3} ns, {:>8.0} cell units, {} flip-flops",
        row.cntag_delay_ps / 1000.0,
        row.cntag_area,
        row.cntag_flip_flops
    );
    println!(
        "  delay reduction {:.2}x at area increase {:.2}x (paper: ~1.8x / ~3.0x)",
        row.delay_reduction_factor(),
        row.area_increase_factor()
    );
    Ok(())
}
