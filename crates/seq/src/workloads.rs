//! The paper's workload address streams, plus generic scan patterns.
//!
//! Every generator returns the *linear* address sequence (`LinAS` in
//! paper Table 1); use [`AddressSequence::decompose`] to obtain the
//! row/column streams an address generator pair actually implements.
//!
//! The four named workloads of paper Table 3 are:
//!
//! * [`motion_est_read`] — the `new_img` read stream of the
//!   block-matching motion-estimation kernel (paper Fig. 7),
//! * [`fifo`] — the incremental production (write) order the paper
//!   assumes for `new_img`,
//! * [`transpose_scan`] — the column-order access of a separable
//!   DCT's second pass,
//! * [`zoom_by_two`] — pixel-doubling read stream of an image zoom.

use crate::sequence::AddressSequence;
use crate::shape::ArrayShape;

/// The incremental sequence `0, 1, …, n−1`.
pub fn incremental(n: u32) -> AddressSequence {
    (0..n).collect()
}

/// FIFO access order over an entire array: identical to
/// [`incremental`] over the array capacity. This is both the paper's
/// assumed write sequence for `new_img` and the `fifo` row of Table 3.
pub fn fifo(shape: ArrayShape) -> AddressSequence {
    incremental(shape.capacity())
}

/// Raster (row-major) scan of the whole array; alias of [`fifo`] kept
/// for readability at call sites describing scans rather than queues.
pub fn raster(shape: ArrayShape) -> AddressSequence {
    fifo(shape)
}

/// The `new_img` *read* stream of the paper's block-matching motion
/// estimation kernel (Fig. 7).
///
/// The image is `shape`; macroblocks are `mb_width × mb_height`; `m`
/// is the search range. The kernel's `i`/`j` search loops run
/// `for (i = -m; i < m; i++)`, i.e. `2m` iterations each — except that
/// the paper's Table 1 example uses `m = 0` *with* the block still
/// being read once, so `m = 0` is treated as a single (0,0) search
/// position. `new_img` subscripts do not depend on `i`/`j`, so larger
/// `m` repeats each block scan `(2m)²` times.
///
/// # Panics
///
/// Panics if the macroblock dimensions are zero or do not divide the
/// image dimensions.
pub fn motion_est_read(
    shape: ArrayShape,
    mb_width: u32,
    mb_height: u32,
    m: u32,
) -> AddressSequence {
    assert!(mb_width > 0 && mb_height > 0, "macroblock must be nonzero");
    assert!(
        shape.width().is_multiple_of(mb_width) && shape.height().is_multiple_of(mb_height),
        "macroblock {mb_width}x{mb_height} must divide image {}x{}",
        shape.width(),
        shape.height()
    );
    let search_positions = if m == 0 { 1 } else { (2 * m) * (2 * m) };
    let mut out = AddressSequence::new();
    for g in 0..shape.height() / mb_height {
        for h in 0..shape.width() / mb_width {
            for _search in 0..search_positions {
                for k in 0..mb_height {
                    for l in 0..mb_width {
                        let row = g * mb_height + k;
                        let col = h * mb_width + l;
                        out.push(row * shape.width() + col);
                    }
                }
            }
        }
    }
    out
}

/// Transpose (column-major) scan of an arbitrary array — on a square
/// block, the access sequence of the second (column) pass of a
/// separable DCT over row-major data.
pub fn transpose_scan(shape: ArrayShape) -> AddressSequence {
    let mut out = AddressSequence::new();
    for c in 0..shape.width() {
        for r in 0..shape.height() {
            out.push(r * shape.width() + c);
        }
    }
    out
}

/// The read stream of a 2× image zoom (pixel doubling): every source
/// pixel is read twice per output row and every source row is read
/// for two output rows.
pub fn zoom_by_two(shape: ArrayShape) -> AddressSequence {
    let mut out = AddressSequence::new();
    for r2 in 0..2 * shape.height() {
        for c2 in 0..2 * shape.width() {
            out.push((r2 / 2) * shape.width() + c2 / 2);
        }
    }
    out
}

/// Block scan: blocks visited in raster order, pixels within each
/// block in raster order — the generalized `LinAS` of paper Table 1
/// (equivalent to [`motion_est_read`] with `m = 0`).
///
/// # Panics
///
/// Panics under the same conditions as [`motion_est_read`].
pub fn block_scan(shape: ArrayShape, block_width: u32, block_height: u32) -> AddressSequence {
    motion_est_read(shape, block_width, block_height, 0)
}

/// Rotate-90° read scan: the source image is read column by column,
/// bottom row first, producing the pixel order of a 90° clockwise
/// rotation. Its row stream is a *descending* cycle — a case the SRAG
/// handles effortlessly because shift-register lines can be mapped in
/// any order, unlike a plain up-counter.
pub fn rotate90(shape: ArrayShape) -> AddressSequence {
    let mut out = AddressSequence::new();
    for c in 0..shape.width() {
        for r in (0..shape.height()).rev() {
            out.push(r * shape.width() + c);
        }
    }
    out
}

/// Serpentine (boustrophedon) scan: even rows left-to-right, odd rows
/// right-to-left — common in printing and some filter pipelines.
///
/// Its reduced column stream reverses direction every row, which the
/// SRAG's one-directional shift registers cannot express: a useful
/// stress case for mapper rejection paths and for the FSM/arithmetic
/// fallbacks.
pub fn serpentine(shape: ArrayShape) -> AddressSequence {
    let mut out = AddressSequence::new();
    for r in 0..shape.height() {
        if r % 2 == 0 {
            for c in 0..shape.width() {
                out.push(r * shape.width() + c);
            }
        } else {
            for c in (0..shape.width()).rev() {
                out.push(r * shape.width() + c);
            }
        }
    }
    out
}

/// `count` addresses starting at 0 with the given stride, wrapped into
/// `modulus`: `0, s, 2s, … (mod modulus)`.
///
/// # Panics
///
/// Panics if `modulus` is zero.
pub fn strided(stride: u32, count: u32, modulus: u32) -> AddressSequence {
    assert!(modulus > 0, "modulus must be nonzero");
    (0..count)
        .map(|i| (i as u64 * stride as u64 % modulus as u64) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Layout;

    #[test]
    fn table1_linear_sequence() {
        let s = motion_est_read(ArrayShape::new(4, 4), 2, 2, 0);
        assert_eq!(
            s.as_slice(),
            &[0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
        );
    }

    #[test]
    fn table1_row_and_col_sequences() {
        let shape = ArrayShape::new(4, 4);
        let s = motion_est_read(shape, 2, 2, 0);
        let (rows, cols) = s.decompose(shape, Layout::RowMajor).unwrap();
        assert_eq!(
            rows.as_slice(),
            &[0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3]
        );
        assert_eq!(
            cols.as_slice(),
            &[0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3]
        );
    }

    #[test]
    fn motion_est_with_search_range_repeats_blocks() {
        let shape = ArrayShape::new(4, 4);
        let m0 = motion_est_read(shape, 2, 2, 0);
        let m1 = motion_est_read(shape, 2, 2, 1);
        assert_eq!(m1.len(), m0.len() * 4);
        // First block's 4 pixels appear 4 times before moving on.
        assert_eq!(&m1.as_slice()[0..4], &[0, 1, 4, 5]);
        assert_eq!(&m1.as_slice()[4..8], &[0, 1, 4, 5]);
        assert_eq!(&m1.as_slice()[12..16], &[0, 1, 4, 5]);
        assert_eq!(&m1.as_slice()[16..20], &[2, 3, 6, 7]);
    }

    #[test]
    fn incremental_and_fifo() {
        assert_eq!(incremental(4).as_slice(), &[0, 1, 2, 3]);
        assert_eq!(fifo(ArrayShape::new(2, 2)).as_slice(), &[0, 1, 2, 3]);
        assert_eq!(raster(ArrayShape::new(2, 2)).len(), 4);
        assert!(incremental(0).is_empty());
    }

    #[test]
    fn dct_is_column_order() {
        let s = transpose_scan(ArrayShape::square(3));
        assert_eq!(s.as_slice(), &[0, 3, 6, 1, 4, 7, 2, 5, 8]);
        // Every address visited exactly once.
        assert_eq!(s.num_distinct(), 9);
    }

    #[test]
    fn zoom_by_two_doubles_both_axes() {
        let s = zoom_by_two(ArrayShape::new(2, 2));
        assert_eq!(
            s.as_slice(),
            &[0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3]
        );
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn zoom_decomposition_is_srag_friendly() {
        let shape = ArrayShape::new(4, 2);
        let s = zoom_by_two(shape);
        let (rows, cols) = s.decompose(shape, Layout::RowMajor).unwrap();
        // Column stream: each column index twice per sweep → uniform
        // run length 2.
        let d: Vec<usize> = cols.run_length_encode().iter().map(|&(_, c)| c).collect();
        assert!(d.iter().all(|&c| c == 2));
        // Row stream: each row constant for 2 output rows × 2w reads.
        let dr: Vec<usize> = rows.run_length_encode().iter().map(|&(_, c)| c).collect();
        assert!(dr.iter().all(|&c| c == 16));
    }

    #[test]
    fn block_scan_equals_motion_est_m0() {
        let shape = ArrayShape::new(8, 8);
        assert_eq!(
            block_scan(shape, 4, 2).as_slice(),
            motion_est_read(shape, 4, 2, 0).as_slice()
        );
    }

    #[test]
    fn rotate90_reads_columns_bottom_up() {
        let s = rotate90(ArrayShape::new(3, 2));
        // Columns 0,1,2; within each, row 1 then row 0.
        assert_eq!(s.as_slice(), &[3, 0, 4, 1, 5, 2]);
        assert_eq!(s.num_distinct(), 6);
    }

    #[test]
    fn serpentine_reverses_odd_rows() {
        let s = serpentine(ArrayShape::new(3, 2));
        assert_eq!(s.as_slice(), &[0, 1, 2, 5, 4, 3]);
        // Every address exactly once.
        assert_eq!(s.num_distinct(), 6);
    }

    #[test]
    fn serpentine_column_stream_alternates_direction() {
        let shape = ArrayShape::new(4, 4);
        let s = serpentine(shape);
        let (_, cols) = s.decompose(shape, Layout::RowMajor).unwrap();
        assert_eq!(
            &cols.as_slice()[..8],
            &[0, 1, 2, 3, 3, 2, 1, 0],
            "direction flips at the row boundary"
        );
    }

    #[test]
    fn strided_wraps() {
        assert_eq!(strided(3, 5, 8).as_slice(), &[0, 3, 6, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_macroblock_panics() {
        let _ = motion_est_read(ArrayShape::new(4, 4), 3, 2, 0);
    }

    #[test]
    fn every_workload_stays_in_range() {
        let shape = ArrayShape::new(8, 8);
        for s in [
            motion_est_read(shape, 2, 2, 1),
            fifo(shape),
            zoom_by_two(shape),
            transpose_scan(shape),
        ] {
            assert!(s.max_address().unwrap() < shape.capacity());
        }
    }
}
