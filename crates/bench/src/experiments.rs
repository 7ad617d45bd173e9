//! The experiment kernels, one per paper artefact.
//!
//! Parameter choices (documented in `DESIGN.md` §4): array sizes
//! follow the paper (16×16 … 256×256 for Figs. 8–10, sequence lengths
//! 8 … 256 for Figs. 3–4); the macroblock for motion estimation
//! scales as `max(2, N/8)` so the block structure stays proportional
//! to the frame as in block-based codecs.
//!
//! Every sweep takes a `jobs` argument and fans its independent
//! (workload × array-size) points across that many worker threads via
//! [`adgen_exec::par_map`] (`0` means all available cores, `1` runs
//! serially on the caller's thread). Results are always returned in
//! input order, byte-identical across `jobs` values — see the
//! determinism test in `tests/properties.rs`.

use std::time::Instant;

use adgen_exec::par_map;
use adgen_obs as obs;

use adgen_cntag::netlist::SELECT_LINE_LOAD_FF;
use adgen_cntag::CntAgSpec;
use adgen_core::composite::Srag2d;
use adgen_core::{SragNetlist, SragSpec};
use adgen_explorer::{compare_srag_cntag, compare_srag_cntag_load_sweep, ComparisonRow};
use adgen_netlist::{AreaReport, Library, Price};
use adgen_seq::{workloads, AddressSequence, ArrayShape, Layout};
use adgen_synth::{price_cyclic, EffortBudget, Encoding, Fsm, OutputStyle};

/// The array sizes of paper Figs. 8–10.
pub const PAPER_ARRAY_SIZES: [u32; 5] = [16, 32, 64, 128, 256];

/// The sequence lengths of paper Figs. 3–4.
pub const PAPER_SEQUENCE_LENGTHS: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// Macroblock edge used for an `n × n` frame.
pub fn macroblock_for(n: u32) -> u32 {
    (n / 8).max(2)
}

/// One point of Figs. 3 and 4: shift register vs symbolic FSM on the
/// incremental sequence `0 … n-1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig34Row {
    /// Sequence length `N`.
    pub n: u32,
    /// Shift-register (one-hot ring) delay, ns.
    pub shift_register_delay_ns: f64,
    /// Binary-encoded symbolic FSM delay, ns.
    pub fsm_delay_ns: f64,
    /// Shift-register area, cell units.
    pub shift_register_area: f64,
    /// FSM area, cell units.
    pub fsm_area: f64,
}

/// Computes Figs. 3 and 4 for the given sequence lengths, one worker
/// per length.
///
/// # Panics
///
/// Panics if synthesis of either arm fails (an internal error: the
/// incremental sequence is always implementable).
pub fn fig3_4(lengths: &[u32], jobs: usize) -> Vec<Fig34Row> {
    let _span = obs::span("bench.fig3_4");
    let library = Library::vcl018();
    par_map(lengths, jobs, |_, &n| {
        let ring = SragNetlist::elaborate(&SragSpec::ring(n)).expect("ring elaborates");
        let ring = Price::of(&ring.netlist, &library).expect("ring times");

        let seq: Vec<u32> = (0..n).collect();
        let fsm = price_cyclic(
            &seq,
            Encoding::Binary,
            OutputStyle::SelectLines {
                num_lines: n as usize,
            },
            EffortBudget::synthesis_default(),
            &library,
        )
        .expect("FSM synthesizes and times")
        .price;

        Fig34Row {
            n,
            shift_register_delay_ns: ring.delay_ps / 1000.0,
            fsm_delay_ns: fsm.delay_ps / 1000.0,
            shift_register_area: ring.area,
            fsm_area: fsm.area,
        }
    })
}

/// One point of the §3 synthesis-runtime comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthTimeRow {
    /// Sequence length `N`.
    pub n: u32,
    /// Wall-clock to synthesize the symbolic FSM, seconds.
    pub fsm_seconds: f64,
    /// Wall-clock to generate the shift-register solution, seconds.
    pub shift_register_seconds: f64,
}

/// Measures synthesis wall-clock for both arms of §3 (the paper
/// reports 6 h vs 36 min at N = 256 on a Sun Ultra-5; the absolute
/// times differ wildly across tooling, the *growth* is the claim).
///
/// With `jobs > 1` the points run concurrently, so the reported
/// wall-clocks include scheduler contention; pass `jobs = 1` when the
/// per-point timings themselves are the artefact.
///
/// # Panics
///
/// Panics if either arm fails to synthesize.
pub fn synth_time(lengths: &[u32], jobs: usize) -> Vec<SynthTimeRow> {
    let _span = obs::span("bench.synth_time");
    par_map(lengths, jobs, |_, &n| {
        let started = Instant::now();
        let _ring = SragNetlist::elaborate(&SragSpec::ring(n)).expect("ring");
        let shift_register_seconds = started.elapsed().as_secs_f64();

        let seq: Vec<u32> = (0..n).collect();
        let started = Instant::now();
        let _fsm = Fsm::cyclic_sequence(&seq)
            .expect("nonempty")
            .synthesize(
                Encoding::Binary,
                OutputStyle::SelectLines {
                    num_lines: n as usize,
                },
            )
            .expect("FSM");
        let fsm_seconds = started.elapsed().as_secs_f64();
        SynthTimeRow {
            n,
            fsm_seconds,
            shift_register_seconds,
        }
    })
}

/// One point of Figs. 8, 9 and 10: write/read generators for the
/// motion-estimation workload on an `n × n` array, plus the CntAG
/// component breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8910Row {
    /// Array edge (`img_width = img_height = n`).
    pub n: u32,
    /// SRAG delay on the write (incremental) sequence, ns.
    pub srag_write_delay_ns: f64,
    /// CntAG delay on the write sequence, ns.
    pub cntag_write_delay_ns: f64,
    /// SRAG delay on the read (block-matching) sequence, ns.
    pub srag_read_delay_ns: f64,
    /// CntAG delay on the read sequence, ns.
    pub cntag_read_delay_ns: f64,
    /// SRAG write-generator area, cell units.
    pub srag_write_area: f64,
    /// CntAG write-generator area, cell units.
    pub cntag_write_area: f64,
    /// SRAG read-generator area, cell units.
    pub srag_read_area: f64,
    /// CntAG read-generator area, cell units.
    pub cntag_read_area: f64,
    /// Fig. 9: read-side CntAG counter delay, ns.
    pub counter_delay_ns: f64,
    /// Fig. 9: row-decoder delay, ns.
    pub row_decoder_delay_ns: f64,
    /// Fig. 9: column-decoder delay, ns.
    pub col_decoder_delay_ns: f64,
}

/// Computes Figs. 8–10 for the given array sizes, one work item per
/// (size, write or read generator pair). The Fig. 9 component delays
/// are the ones the read comparison timed its CntAG with.
///
/// # Panics
///
/// Panics if mapping or elaboration fails (the motion-estimation
/// streams are always SRAG-mappable).
pub fn fig8_9_10(sizes: &[u32], jobs: usize) -> Vec<Fig8910Row> {
    let _span = obs::span("bench.fig8_9_10");
    let library = Library::vcl018();
    let items: Vec<(u32, bool)> = sizes
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let comparisons = par_map(&items, jobs, |_, &(n, read)| {
        let shape = ArrayShape::new(n, n);
        let mb = macroblock_for(n);
        let (seq, program) = if read {
            (
                workloads::motion_est_read(shape, mb, mb, 0),
                CntAgSpec::motion_est(shape, mb, mb, 0),
            )
        } else {
            (workloads::motion_est_write(shape), CntAgSpec::raster(shape))
        };
        let loads = [SELECT_LINE_LOAD_FF];
        compare_srag_cntag_load_sweep(&seq, shape, &program, &library, &loads, 1)
            .expect("motion-estimation generators")
            .swap_remove(0)
    });
    sizes
        .iter()
        .zip(comparisons.chunks_exact(2))
        .map(|(&n, pair)| {
            let (write_cmp, _) = &pair[0];
            let (read_cmp, comps) = &pair[1];
            Fig8910Row {
                n,
                srag_write_delay_ns: write_cmp.srag_delay_ps / 1000.0,
                cntag_write_delay_ns: write_cmp.cntag_delay_ps / 1000.0,
                srag_read_delay_ns: read_cmp.srag_delay_ps / 1000.0,
                cntag_read_delay_ns: read_cmp.cntag_delay_ps / 1000.0,
                srag_write_area: write_cmp.srag_area,
                cntag_write_area: write_cmp.cntag_area,
                srag_read_area: read_cmp.srag_area,
                cntag_read_area: read_cmp.cntag_area,
                counter_delay_ns: comps.counter_ps / 1000.0,
                row_decoder_delay_ns: comps.row_decoder_ps / 1000.0,
                col_decoder_delay_ns: comps.col_decoder_ps / 1000.0,
            }
        })
        .collect()
}

/// One row of paper Table 3: average delay-reduction and
/// area-increase factors for a named workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Workload name as in the paper.
    pub example: &'static str,
    /// Average CntAG-delay / SRAG-delay over the size sweep.
    pub avg_delay_reduction: f64,
    /// Average SRAG-area / CntAG-area over the size sweep.
    pub avg_area_increase: f64,
    /// The per-size comparisons behind the averages.
    pub rows: Vec<(u32, ComparisonRow)>,
}

/// Computes Table 3 over the given array sizes (the paper does not
/// state its sizes; 16–64 keeps the sweep matched to Figs. 8–10's
/// lower half and runs in seconds).
///
/// # Panics
///
/// Panics if mapping or elaboration fails for a workload that must
/// map.
/// A named workload builder for the Table 3 sweep (`Sync` so the
/// parallel point sweep can share it across workers).
type WorkloadBuilder = Box<dyn Fn(ArrayShape) -> (AddressSequence, CntAgSpec) + Send + Sync>;

pub fn table3(sizes: &[u32], jobs: usize) -> Vec<Table3Row> {
    let _span = obs::span("bench.table3");
    let library = Library::vcl018();
    let cases: Vec<(&'static str, WorkloadBuilder)> = vec![
        (
            "dct",
            Box::new(|shape| {
                (
                    workloads::transpose_scan(shape),
                    CntAgSpec::transpose(shape),
                )
            }),
        ),
        (
            "zoombytwo",
            Box::new(|shape| (workloads::zoom_by_two(shape), CntAgSpec::zoom_by_two(shape))),
        ),
        (
            "motion_est",
            Box::new(|shape| {
                let mb = macroblock_for(shape.width());
                (
                    workloads::motion_est_read(shape, mb, mb, 0),
                    CntAgSpec::motion_est(shape, mb, mb, 0),
                )
            }),
        ),
        (
            "fifo",
            Box::new(|shape| (workloads::fifo(shape), CntAgSpec::raster(shape))),
        ),
    ];
    // Every (workload, size) point is independent: flatten the cross
    // product, fan it out, then regroup per workload in case order.
    let points: Vec<(usize, u32)> = (0..cases.len())
        .flat_map(|c| sizes.iter().map(move |&n| (c, n)))
        .collect();
    let comparisons = par_map(&points, jobs, |_, &(c, n)| {
        let (example, build) = &cases[c];
        let shape = ArrayShape::new(n, n);
        let (seq, program) = build(shape);
        compare_srag_cntag(&seq, shape, &program, &library)
            .unwrap_or_else(|e| panic!("{example}@{n}: {e}"))
    });
    cases
        .iter()
        .enumerate()
        .map(|(c, (example, _))| {
            let rows: Vec<(u32, ComparisonRow)> = points
                .iter()
                .zip(&comparisons)
                .filter(|((pc, _), _)| *pc == c)
                .map(|(&(_, n), cmp)| (n, cmp.clone()))
                .collect();
            let avg_delay_reduction = rows
                .iter()
                .map(|(_, r)| r.delay_reduction_factor())
                .sum::<f64>()
                / rows.len() as f64;
            let avg_area_increase = rows
                .iter()
                .map(|(_, r)| r.area_increase_factor())
                .sum::<f64>()
                / rows.len() as f64;
            Table3Row {
                example,
                avg_delay_reduction,
                avg_area_increase,
                rows,
            }
        })
        .collect()
}

/// One row of the deferred §7 power study.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerRow {
    /// Workload name.
    pub example: &'static str,
    /// Array edge.
    pub n: u32,
    /// The four power measurements.
    pub comparison: adgen_explorer::PowerComparisonRow,
}

/// Runs the power study over the named workloads at the given sizes
/// (100 MHz, 512 streaming accesses each).
///
/// # Panics
///
/// Panics if a workload fails to map or simulate.
pub fn power_study(sizes: &[u32], jobs: usize) -> Vec<PowerRow> {
    let _span = obs::span("bench.power_study");
    let library = Library::vcl018();
    let names: [&'static str; 3] = ["fifo", "motion_est", "zoombytwo"];
    let points: Vec<(u32, usize)> = sizes
        .iter()
        .flat_map(|&n| (0..names.len()).map(move |c| (n, c)))
        .collect();
    par_map(&points, jobs, |_, &(n, c)| {
        let shape = ArrayShape::new(n, n);
        let mb = macroblock_for(n);
        let example = names[c];
        let (seq, program) = match example {
            "fifo" => (workloads::fifo(shape), CntAgSpec::raster(shape)),
            "motion_est" => (
                workloads::motion_est_read(shape, mb, mb, 0),
                CntAgSpec::motion_est(shape, mb, mb, 0),
            ),
            _ => (workloads::zoom_by_two(shape), CntAgSpec::zoom_by_two(shape)),
        };
        let comparison = adgen_explorer::compare_power(&seq, shape, &program, &library, 100.0, 512)
            .unwrap_or_else(|e| panic!("{example}@{n}: {e}"));
        PowerRow {
            example,
            n,
            comparison,
        }
    })
}

/// One row of the control-style / control-sharing ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Workload name.
    pub example: &'static str,
    /// Array edge.
    pub n: u32,
    /// Delay (ns) with binary-counter control (paper Fig. 5).
    pub binary_delay_ns: f64,
    /// Area with binary-counter control.
    pub binary_area: f64,
    /// Delay (ns) with one-hot ring control (§4 alternative).
    pub ring_delay_ns: f64,
    /// Area with ring control.
    pub ring_area: f64,
    /// Delay (ns) with interacting synthesized FSMs (§4 alternative).
    pub fsm_delay_ns: f64,
    /// Area with FSM control.
    pub fsm_area: f64,
    /// Delay/area with the row divider chained off the column SRAG
    /// (§7 control reuse); `None` when the pattern is not chainable.
    pub chained: Option<(f64, f64)>,
}

/// Runs the design-choice ablations the paper sketches: counter vs
/// ring control (§4) and row-off-column control chaining (§7).
///
/// # Panics
///
/// Panics if mapping or elaboration fails.
pub fn ablation(sizes: &[u32], jobs: usize) -> Vec<AblationRow> {
    let _span = obs::span("bench.ablation");
    use adgen_core::arch::ControlStyle;
    let library = Library::vcl018();
    let names: [&'static str; 2] = ["fifo", "motion_est"];
    let points: Vec<(u32, usize)> = sizes
        .iter()
        .flat_map(|&n| (0..names.len()).map(move |c| (n, c)))
        .collect();
    par_map(&points, jobs, |_, &(n, c)| {
        let shape = ArrayShape::new(n, n);
        let mb = macroblock_for(n);
        let example = names[c];
        let seq = match example {
            "fifo" => workloads::fifo(shape),
            _ => workloads::motion_est_read(shape, mb, mb, 0),
        };
        let pair = Srag2d::map(&seq, shape, Layout::RowMajor)
            .unwrap_or_else(|e| panic!("{example}@{n}: {e}"));
        let measure = |netlist: &adgen_netlist::Netlist| {
            let price = Price::of(netlist, &library).expect("times");
            (price.delay_ps / 1000.0, price.area)
        };
        let binary = pair
            .elaborate_with_style(ControlStyle::BinaryCounters)
            .expect("binary control");
        let ring = pair
            .elaborate_with_style(ControlStyle::RingCounters)
            .expect("ring control");
        let fsm = pair
            .elaborate_with_style(ControlStyle::InteractingFsms)
            .expect("fsm control");
        let (binary_delay_ns, binary_area) = measure(&binary.netlist);
        let (ring_delay_ns, ring_area) = measure(&ring.netlist);
        let (fsm_delay_ns, fsm_area) = measure(&fsm.netlist);
        let chained = pair
            .elaborate_chained()
            .expect("chaining elaborates")
            .map(|c| measure(&c.netlist));
        AblationRow {
            example,
            n,
            binary_delay_ns,
            binary_area,
            ring_delay_ns,
            ring_area,
            fsm_delay_ns,
            fsm_area,
            chained,
        }
    })
}

/// One row of the §7 time-sharing study.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingRow {
    /// Array edge.
    pub n: u32,
    /// Area of four separate 1-D generators (write row/col + read
    /// row/col), cell units.
    pub separate_area: f64,
    /// Area of the two time-shared generators, cell units.
    pub shared_area: f64,
}

impl SharingRow {
    /// Fraction of area saved by sharing.
    pub fn saving(&self) -> f64 {
        1.0 - self.shared_area / self.separate_area
    }
}

/// Runs the §7 time-sharing study: a raster write stream and a
/// DCT-scan read stream over the same buffer share one set of shift
/// registers per dimension.
///
/// Two fan-outs: one work item per (size, 1-D stream) maps that stream
/// and prices its generator alone, then one per (size, dimension)
/// prices the time-shared write/read pair.
///
/// # Panics
///
/// Panics if mapping or elaboration fails (both streams are rings in
/// both dimensions, so sharing is always applicable).
pub fn sharing(sizes: &[u32], jobs: usize) -> Vec<SharingRow> {
    let _span = obs::span("bench.sharing");
    use adgen_core::mapper::map_sequence;
    use adgen_core::shared::TimeSharedSragNetlist;
    let library = Library::vcl018();
    // Per size, in summation order: write rows, write cols, read rows,
    // read cols.
    let streams: Vec<(u32, bool, bool)> = sizes
        .iter()
        .flat_map(|&n| {
            [(false, false), (false, true), (true, false), (true, true)]
                .map(|(read, cols)| (n, read, cols))
        })
        .collect();
    let separate = par_map(&streams, jobs, |_, &(n, read, cols)| {
        let shape = ArrayShape::new(n, n);
        let seq = if read {
            workloads::transpose_scan(shape)
        } else {
            workloads::fifo(shape)
        };
        let (rows, columns) = seq.decompose(shape, Layout::RowMajor).expect("in range");
        let spec = map_sequence(if cols { &columns } else { &rows })
            .expect("1-D stream maps")
            .spec;
        let d = SragNetlist::elaborate(&spec).expect("elaborates");
        (spec, AreaReport::of(&d.netlist, &library).total())
    });
    // Per size: the row pair, then the column pair.
    let dims: Vec<(usize, usize)> = (0..sizes.len())
        .flat_map(|s| [(4 * s, 4 * s + 2), (4 * s + 1, 4 * s + 3)])
        .collect();
    let shared = par_map(&dims, jobs, |_, &(write, read)| {
        let d = TimeSharedSragNetlist::elaborate(&separate[write].0, &separate[read].0)
            .expect("elaborates")
            .expect("share-compatible");
        AreaReport::of(&d.netlist, &library).total()
    });
    sizes
        .iter()
        .zip(separate.chunks_exact(4).zip(shared.chunks_exact(2)))
        .map(|(&n, (sep, sh))| SharingRow {
            n,
            separate_area: sep[0].1 + sep[1].1 + sep[2].1 + sep[3].1,
            shared_area: sh[0] + sh[1],
        })
        .collect()
}

/// One point of the §7 interconnect-sensitivity study.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectRow {
    /// External select-line load, femtofarads.
    pub load_ff: f64,
    /// SRAG delay, ns.
    pub srag_delay_ns: f64,
    /// CntAG delay, ns.
    pub cntag_delay_ns: f64,
}

/// Sweeps the external select-line capacitance (the interconnect term
/// both designs drive into the cell array) on the 64×64
/// motion-estimation read generators — quantifying §7's "the
/// interconnect and routing costs should also be considered".
///
/// The generators are mapped and elaborated **once** for the whole
/// sweep (see [`adgen_explorer::compare_srag_cntag_load_sweep`]);
/// each load point then only re-runs the cached timing analysis.
///
/// # Panics
///
/// Panics if mapping or elaboration fails.
pub fn interconnect(loads_ff: &[f64], jobs: usize) -> Vec<InterconnectRow> {
    let _span = obs::span("bench.interconnect");
    let library = Library::vcl018();
    let shape = ArrayShape::new(64, 64);
    let mb = macroblock_for(64);
    let seq = workloads::motion_est_read(shape, mb, mb, 0);
    let program = CntAgSpec::motion_est(shape, mb, mb, 0);
    let points = compare_srag_cntag_load_sweep(&seq, shape, &program, &library, loads_ff, jobs)
        .expect("comparable");
    loads_ff
        .iter()
        .zip(points)
        .map(|(&load_ff, (cmp, _))| InterconnectRow {
            load_ff,
            srag_delay_ns: cmp.srag_delay_ps / 1000.0,
            cntag_delay_ns: cmp.cntag_delay_ps / 1000.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_cntag::CntAgNetlist;

    #[test]
    fn fig3_4_shift_register_is_faster() {
        let rows = fig3_4(&[8, 16, 32], 2);
        for r in &rows {
            assert!(
                r.fsm_delay_ns > r.shift_register_delay_ns,
                "N={}: fsm {} vs sr {}",
                r.n,
                r.fsm_delay_ns,
                r.shift_register_delay_ns
            );
        }
        // FSM delay grows with N; shift register stays nearly flat.
        let fsm_growth = rows.last().unwrap().fsm_delay_ns / rows[0].fsm_delay_ns;
        let sr_growth =
            rows.last().unwrap().shift_register_delay_ns / rows[0].shift_register_delay_ns;
        assert!(fsm_growth > sr_growth);
    }

    #[test]
    fn fig8_trends_hold_at_small_sizes() {
        let rows = fig8_9_10(&[16, 32], 2);
        for r in &rows {
            assert!(
                r.srag_read_delay_ns < r.cntag_read_delay_ns,
                "read @{}",
                r.n
            );
            assert!(
                r.srag_read_area > r.cntag_read_area,
                "area trade-off @{}",
                r.n
            );
        }
    }

    #[test]
    fn fig9_columns_are_the_components_at_the_select_line_load() {
        let library = Library::vcl018();
        for r in fig8_9_10(&[16, 32], 2) {
            let shape = ArrayShape::new(r.n, r.n);
            let mb = macroblock_for(r.n);
            let design = CntAgNetlist::elaborate(&CntAgSpec::motion_est(shape, mb, mb, 0)).unwrap();
            let components = design.components().unwrap();
            let comps = components
                .timer(&library)
                .unwrap()
                .delays_at(SELECT_LINE_LOAD_FF);
            assert_eq!(r.counter_delay_ns, comps.counter_ps / 1000.0, "n={}", r.n);
            assert_eq!(
                r.row_decoder_delay_ns,
                comps.row_decoder_ps / 1000.0,
                "n={}",
                r.n
            );
            assert_eq!(
                r.col_decoder_delay_ns,
                comps.col_decoder_ps / 1000.0,
                "n={}",
                r.n
            );
            assert_eq!(
                r.cntag_read_delay_ns,
                comps.total_ps() / 1000.0,
                "n={}",
                r.n
            );
        }
    }

    #[test]
    fn table3_factors_in_paper_direction() {
        let rows = table3(&[16, 32], 2);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.avg_delay_reduction > 1.0,
                "{}: delay reduction {}",
                r.example,
                r.avg_delay_reduction
            );
            assert!(
                r.avg_area_increase > 1.0,
                "{}: area increase {}",
                r.example,
                r.avg_area_increase
            );
        }
    }

    #[test]
    fn synth_time_rows_are_positive() {
        let rows = synth_time(&[8, 16], 1);
        for r in &rows {
            assert!(r.fsm_seconds > 0.0);
            assert!(r.shift_register_seconds > 0.0);
        }
    }

    #[test]
    fn canary_passes() {
        // A small SRAG pair and its CntAG baseline both build.
        let shape = ArrayShape::new(4, 4);
        let seq = workloads::motion_est_read(shape, 2, 2, 0);
        let pair = Srag2d::map(&seq, shape, Layout::RowMajor).expect("canary maps");
        let design = pair.elaborate().expect("canary elaborates");
        let cnt = CntAgNetlist::elaborate(&CntAgSpec::motion_est(shape, 2, 2, 0))
            .expect("canary baseline");
        assert!(design.netlist.num_flip_flops() > 0);
        assert!(cnt.netlist.num_flip_flops() > 0);
    }

    #[test]
    fn power_rows_have_positive_totals() {
        let rows = power_study(&[16], 2);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.comparison.srag.total_uw() > 0.0, "{}", r.example);
            assert!(r.comparison.cntag.total_uw() > 0.0, "{}", r.example);
            // Gating never hurts the SRAG side.
            assert!(
                r.comparison.srag_gated.total_uw() <= r.comparison.srag.total_uw() + 1e-9,
                "{}",
                r.example
            );
        }
    }

    #[test]
    fn ablation_ring_beats_binary_on_fifo() {
        let rows = ablation(&[16], 2);
        let fifo = rows.iter().find(|r| r.example == "fifo").unwrap();
        assert!(fifo.ring_delay_ns < fifo.binary_delay_ns);
        assert!(fifo.ring_area > fifo.binary_area);
        let (chain_delay, chain_area) = fifo.chained.expect("fifo chains");
        assert!(chain_area < fifo.binary_area);
        assert!(chain_delay > 0.0);
    }

    #[test]
    fn interconnect_hurts_the_cntag_more() {
        let rows = interconnect(&[0.0, 120.0], 2);
        let srag_growth = rows[1].srag_delay_ns - rows[0].srag_delay_ns;
        let cntag_growth = rows[1].cntag_delay_ns - rows[0].cntag_delay_ns;
        assert!(
            cntag_growth > srag_growth,
            "cntag +{cntag_growth} vs srag +{srag_growth}"
        );
    }

    #[test]
    fn sharing_saves_at_least_a_third() {
        let rows = sharing(&[16, 32], 2);
        for r in &rows {
            assert!(r.saving() > 0.33, "n={} saving {}", r.n, r.saving());
            assert!(r.shared_area > 0.0);
        }
    }
}
