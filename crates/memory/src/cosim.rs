//! End-to-end co-simulation: address generators driving memory
//! arrays.
//!
//! The harness reproduces the paper's usage scenario for the
//! `new_img` array of the motion-estimation kernel: a *producer*
//! generator writes a data stream into the array in production order,
//! then a *consumer* generator reads it back in the kernel's access
//! order, and every transferred word is checked against the reference
//! permutation. Running it with an [`Addm`] additionally exercises
//! the two-hot select discipline on every single access.

use adgen_seq::{AddressGenerator, ArrayShape, Layout};

use crate::addm::Addm;
use crate::error::MemError;
use crate::ram::Ram;

/// Result of a co-simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimReport {
    /// Number of writes performed.
    pub writes: usize,
    /// Number of reads performed and checked.
    pub reads: usize,
}

/// Writes `data[i]` through `writer`'s i-th address into an [`Addm`],
/// then reads `read_len` words through `reader` and checks each one
/// equals the word written at that linear address.
///
/// Select vectors are produced from the generators' one-dimensional
/// addresses via the array's row-major decomposition — exactly what
/// a row/column SRAG pair presents to the array.
///
/// # Errors
///
/// Propagates any select-discipline or data-integrity failure; a
/// mismatching word is reported as [`MemError::UninitializedRead`]
/// only when the cell was genuinely never written — value mismatches
/// panic, since they indicate a generator bug rather than an
/// environment error.
///
/// # Panics
///
/// Panics if a read returns a value different from what the
/// reference permutation requires.
pub fn run_addm(
    writer: &mut dyn AddressGenerator,
    reader: &mut dyn AddressGenerator,
    shape: ArrayShape,
    data: &[u64],
    read_len: usize,
) -> Result<CosimReport, MemError> {
    let mut mem = Addm::new(shape);
    let mut reference = vec![None; shape.capacity() as usize];
    writer.reset();
    for &value in data {
        let a = writer.current();
        let (r, c) =
            shape
                .to_row_col(a, Layout::RowMajor)
                .map_err(|_| MemError::AddressOutOfRange {
                    row: a / shape.width(),
                    col: a % shape.width(),
                })?;
        mem.write(
            &one_hot(shape.height(), r),
            &one_hot(shape.width(), c),
            value,
        )?;
        reference[a as usize] = Some(value);
        writer.advance();
    }
    reader.reset();
    let mut reads = 0;
    for step in 0..read_len {
        let a = reader.current();
        let (r, c) =
            shape
                .to_row_col(a, Layout::RowMajor)
                .map_err(|_| MemError::AddressOutOfRange {
                    row: a / shape.width(),
                    col: a % shape.width(),
                })?;
        let got = mem.read(&one_hot(shape.height(), r), &one_hot(shape.width(), c))?;
        let expected =
            reference[a as usize].ok_or(MemError::UninitializedRead { row: r, col: c })?;
        assert_eq!(
            got, expected,
            "data corruption at read {step}, linear address {a}"
        );
        reads += 1;
        reader.advance();
    }
    Ok(CosimReport {
        writes: data.len(),
        reads,
    })
}

/// The same write-then-read check against a conventional [`Ram`],
/// driven with binary addresses — the baseline configuration.
///
/// # Errors
///
/// Propagates memory errors.
///
/// # Panics
///
/// Panics on a data mismatch, as for [`run_addm`].
pub fn run_ram(
    writer: &mut dyn AddressGenerator,
    reader: &mut dyn AddressGenerator,
    shape: ArrayShape,
    data: &[u64],
    read_len: usize,
) -> Result<CosimReport, MemError> {
    let mut mem = Ram::new(shape, Layout::RowMajor);
    let mut reference = vec![None; shape.capacity() as usize];
    writer.reset();
    for &value in data {
        let a = writer.current();
        mem.write_linear(a, value)?;
        reference[a as usize] = Some(value);
        writer.advance();
    }
    reader.reset();
    let mut reads = 0;
    for step in 0..read_len {
        let a = reader.current();
        let got = mem.read_linear(a)?;
        let expected = reference[a as usize].ok_or(MemError::AddressOutOfRange {
            row: a / shape.width(),
            col: a % shape.width(),
        })?;
        assert_eq!(got, expected, "data corruption at read {step}, address {a}");
        reads += 1;
        reader.advance();
    }
    Ok(CosimReport {
        writes: data.len(),
        reads,
    })
}

fn one_hot(n: u32, i: u32) -> Vec<bool> {
    let mut v = vec![false; n as usize];
    v[i as usize] = true;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_cntag::{CntAgSimulator, CntAgSpec};
    use adgen_core::composite::Srag2d;
    use adgen_seq::{workloads, ReplayGenerator};

    #[test]
    fn srag_pair_drives_addm_end_to_end() {
        let shape = ArrayShape::new(4, 4);
        let write_seq = workloads::fifo(shape);
        let read_seq = workloads::motion_est_read(shape, 2, 2, 0);
        let mut writer = Srag2d::map(&write_seq, shape, Layout::RowMajor)
            .unwrap()
            .simulator();
        let mut reader = Srag2d::map(&read_seq, shape, Layout::RowMajor)
            .unwrap()
            .simulator();
        let data: Vec<u64> = (0..16).map(|i| 1000 + i).collect();
        let report = run_addm(&mut writer, &mut reader, shape, &data, 16).unwrap();
        assert_eq!(report.writes, 16);
        assert_eq!(report.reads, 16);
    }

    #[test]
    fn cntag_drives_ram_end_to_end() {
        let shape = ArrayShape::new(8, 8);
        let mut writer = CntAgSimulator::new(CntAgSpec::raster(shape));
        let mut reader = CntAgSimulator::new(CntAgSpec::motion_est(shape, 2, 2, 0));
        let data: Vec<u64> = (0..64).map(|i| 7 * i + 3).collect();
        let report = run_ram(&mut writer, &mut reader, shape, &data, 64).unwrap();
        assert_eq!(report.reads, 64);
    }

    #[test]
    fn srag_and_cntag_agree_on_every_paper_workload() {
        let shape = ArrayShape::new(8, 8);
        let cases: Vec<(adgen_seq::AddressSequence, CntAgSpec)> = vec![
            (workloads::raster(shape), CntAgSpec::raster(shape)),
            (
                workloads::motion_est_read(shape, 2, 2, 0),
                CntAgSpec::motion_est(shape, 2, 2, 0),
            ),
            (
                workloads::transpose_scan(shape),
                CntAgSpec::transpose(shape),
            ),
            (workloads::zoom_by_two(shape), CntAgSpec::zoom_by_two(shape)),
        ];
        for (seq, cnt_spec) in cases {
            let mut srag = Srag2d::map(&seq, shape, Layout::RowMajor)
                .unwrap()
                .simulator();
            let mut cnt = CntAgSimulator::new(cnt_spec);
            use adgen_seq::AddressGenerator as _;
            assert_eq!(
                srag.collect_sequence(seq.len()),
                cnt.collect_sequence(seq.len()),
                "architectures disagree on the sequence"
            );
        }
    }

    #[test]
    fn replay_generators_work_as_reference() {
        let shape = ArrayShape::new(2, 2);
        let mut writer = ReplayGenerator::new(workloads::fifo(shape));
        let mut reader = ReplayGenerator::new(workloads::transpose_scan(shape));
        let data = [5, 6, 7, 8];
        let report = run_addm(&mut writer, &mut reader, shape, &data, 4).unwrap();
        assert_eq!(report.reads, 4);
    }

    #[test]
    fn gate_level_generators_drive_the_behavioural_harness() {
        use adgen_core::composite::GateLevelGenerator;
        // The elaborated netlists, wrapped in the AddressGenerator
        // trait, run through the very same harness as the models.
        let shape = ArrayShape::new(4, 4);
        let write_design = Srag2d::map(&workloads::fifo(shape), shape, Layout::RowMajor)
            .unwrap()
            .elaborate()
            .unwrap();
        let read_design = Srag2d::map(
            &workloads::motion_est_read(shape, 2, 2, 0),
            shape,
            Layout::RowMajor,
        )
        .unwrap()
        .elaborate()
        .unwrap();
        let mut writer = GateLevelGenerator::new(&write_design).unwrap();
        let mut reader = GateLevelGenerator::new(&read_design).unwrap();
        let data: Vec<u64> = (0..16).map(|i| i * 7 + 2).collect();
        let report = run_addm(&mut writer, &mut reader, shape, &data, 16).unwrap();
        assert_eq!(report.reads, 16);
    }

    #[test]
    fn reading_unwritten_cells_fails() {
        let shape = ArrayShape::new(2, 2);
        let mut writer = ReplayGenerator::new(adgen_seq::AddressSequence::from_vec(vec![0]));
        let mut reader = ReplayGenerator::new(adgen_seq::AddressSequence::from_vec(vec![3]));
        let err = run_addm(&mut writer, &mut reader, shape, &[1], 1).unwrap_err();
        assert!(matches!(err, MemError::UninitializedRead { .. }));
    }
}
