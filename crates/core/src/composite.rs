//! The complete two-hot SRAG for 2-D memory arrays.
//!
//! Per paper §4, "the complete SRAG is composed of a row SRAG and a
//! column SRAG controlling the row select (RS) and the column select
//! (CS) lines respectively", both driven by the same `next` stimulus.
//! The 2-D cell array itself performs the conjunction of the single
//! hot row line and the single hot column line, so the pair realizes
//! the full linear address sequence with *two-hot* encoding at a
//! fraction of the one-hot flip-flop count (`H + W` instead of
//! `H × W` select lines).
//!
//! Every form of the pair (plain, per control style, chained,
//! hardened) is two [`build_into`] calls in the one netlist scaffold;
//! the forms differ only in name, `BuildOptions` and chaining.

use adgen_netlist::{NetId, Netlist, Simulator};
use adgen_seq::{AddressGenerator, AddressSequence, ArrayShape, Layout};

use crate::arch::ControlStyle;
use crate::error::SragError;
use crate::mapper::{map_sequence, Mapping};
use crate::netlist::{build_into, elaborate, BuildOptions, Elaborated};
use crate::sim::SragSimulator;

/// A mapped row-and-column SRAG pair for one linear address sequence
/// over a 2-D array.
#[derive(Debug, Clone)]
pub struct Srag2d {
    shape: ArrayShape,
    layout: Layout,
    row: Mapping,
    col: Mapping,
}

impl Srag2d {
    /// Decomposes `linear` into row and column streams for `shape` /
    /// `layout` and maps each onto its own SRAG.
    ///
    /// # Errors
    ///
    /// Returns [`SragError::Seq`] if an address exceeds the array and
    /// any mapping error from either dimension.
    pub fn map(
        linear: &AddressSequence,
        shape: ArrayShape,
        layout: Layout,
    ) -> Result<Self, SragError> {
        let (rows, cols) = linear.decompose(shape, layout)?;
        Ok(Srag2d {
            shape,
            layout,
            row: map_sequence(&rows)?,
            col: map_sequence(&cols)?,
        })
    }

    /// The array geometry.
    pub fn shape(&self) -> ArrayShape {
        self.shape
    }

    /// The data layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The row-dimension mapping.
    pub fn row(&self) -> &Mapping {
        &self.row
    }

    /// The column-dimension mapping.
    pub fn col(&self) -> &Mapping {
        &self.col
    }

    /// A behavioural simulator for the pair.
    pub fn simulator(&self) -> Srag2dSimulator {
        Srag2dSimulator {
            row: SragSimulator::new(self.row.spec.clone()),
            col: SragSimulator::new(self.col.spec.clone()),
            shape: self.shape,
            layout: self.layout,
        }
    }

    /// Elaborates both SRAGs into a single netlist sharing the
    /// `reset`/`next` inputs. Row select lines come first in the
    /// output list, then column select lines.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn elaborate(&self) -> Result<Srag2dNetlist, SragError> {
        self.elaborate_plain("", BuildOptions::default(), false)
    }

    /// Whether the row divider can be *chained off* the column SRAG's
    /// full-cycle wrap instead of having its own `DivCnt` — the §7
    /// control-reuse optimization. True when the column generator
    /// advances on every `next` (`dC = 1`) and one full column tour
    /// takes exactly `dC_row` pulses, i.e. the access pattern is
    /// raster-like in the row dimension.
    pub fn chainable(&self) -> bool {
        self.col.spec.div_count == 1
            && self.row.spec.div_count == self.col.spec.token_return_interval()
    }

    /// Elaborates the pair with the row divider chained off the
    /// column SRAG's cycle wrap, saving the row `DivCnt` entirely.
    /// Returns `None` when the pattern is not
    /// [`chainable`](Self::chainable).
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn elaborate_chained(&self) -> Result<Option<Srag2dNetlist>, SragError> {
        if !self.chainable() {
            return Ok(None);
        }
        self.elaborate_plain("chained_", BuildOptions::default(), true)
            .map(Some)
    }

    /// Elaborates both SRAGs with the chosen control style (the §4
    /// counters-vs-rings ablation).
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn elaborate_with_style(&self, style: ControlStyle) -> Result<Srag2dNetlist, SragError> {
        let opts = BuildOptions {
            style,
            ..BuildOptions::default()
        };
        self.elaborate_plain(&format!("{style:?}_"), opts, false)
    }

    /// Builds the row SRAG (prefix `row_`) and the column SRAG
    /// (`col_`) into one scaffolded netlist `srag2d_{kind}{W}x{H}`,
    /// row lines first. With `chained` the column side is built first
    /// and the row divider is its `cycle_wrap`.
    pub(crate) fn elaborate_pair(
        &self,
        kind: &str,
        opts: BuildOptions,
        chained: bool,
    ) -> Result<Elaborated<2>, SragError> {
        let (w, h) = (self.shape.width(), self.shape.height());
        elaborate(format!("srag2d_{kind}{w}x{h}"), |n, next| {
            if !chained {
                let row = build_into(n, &self.row.spec, next, "row_", &opts)?;
                return Ok([row, build_into(n, &self.col.spec, next, "col_", &opts)?]);
            }
            let col = build_into(n, &self.col.spec, next, "col_", &opts)?;
            let row_opts = BuildOptions {
                external_enable: Some(col.cycle_wrap),
                ..opts
            };
            Ok([build_into(n, &self.row.spec, next, "row_", &row_opts)?, col])
        })
    }

    /// [`elaborate_pair`](Self::elaborate_pair) as a plain
    /// [`Srag2dNetlist`].
    fn elaborate_plain(
        &self,
        kind: &str,
        opts: BuildOptions,
        chained: bool,
    ) -> Result<Srag2dNetlist, SragError> {
        let (netlist, next, [row, col], _) = self.elaborate_pair(kind, opts, chained)?;
        Ok(Srag2dNetlist {
            netlist,
            row_lines: row.select_lines,
            col_lines: col.select_lines,
            next_input: next,
            shape: self.shape,
            layout: self.layout,
        })
    }
}

/// Behavioural row+column SRAG pair presenting linear addresses.
#[derive(Debug, Clone)]
pub struct Srag2dSimulator {
    row: SragSimulator,
    col: SragSimulator,
    shape: ArrayShape,
    layout: Layout,
}

impl Srag2dSimulator {
    /// The row-dimension simulator.
    pub fn row(&self) -> &SragSimulator {
        &self.row
    }

    /// The column-dimension simulator.
    pub fn col(&self) -> &SragSimulator {
        &self.col
    }
}

impl AddressGenerator for Srag2dSimulator {
    fn reset(&mut self) {
        self.row.reset();
        self.col.reset();
    }

    fn advance(&mut self) {
        self.row.advance();
        self.col.advance();
    }

    fn current(&self) -> u32 {
        self.shape
            .to_linear(self.row.current(), self.col.current(), self.layout)
            .expect("mapped coordinates are in range")
    }
}

/// The elaborated pair: one netlist, two select-line groups.
#[derive(Debug, Clone)]
pub struct Srag2dNetlist {
    /// The implementation. Inputs: `reset`, `next`. Outputs: row
    /// lines then column lines.
    pub netlist: Netlist,
    /// Row select nets (RS), indexed by row.
    pub row_lines: Vec<NetId>,
    /// Column select nets (CS), indexed by column.
    pub col_lines: Vec<NetId>,
    /// The `next` input net.
    pub next_input: NetId,
    /// Array geometry.
    pub shape: ArrayShape,
    /// Data layout.
    pub layout: Layout,
}

impl Srag2dNetlist {
    /// Decodes the currently presented linear address from a running
    /// simulator, or `None` if either dimension is not exactly
    /// one-hot.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        let r = sim.one_hot(&self.row_lines)?;
        let c = sim.one_hot(&self.col_lines)?;
        self.shape.to_linear(r, c, self.layout).ok()
    }
}

/// Adapter presenting an elaborated [`Srag2dNetlist`] through the
/// behavioural [`AddressGenerator`] interface, so gate-level designs
/// can drive exactly the same co-simulation and verification
/// harnesses as the models they implement.
#[derive(Debug)]
pub struct GateLevelGenerator<'a> {
    design: &'a Srag2dNetlist,
    sim: Simulator<'a>,
}

impl<'a> GateLevelGenerator<'a> {
    /// Wraps `design`, resetting it so the first address is
    /// presented.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn new(design: &'a Srag2dNetlist) -> Result<Self, SragError> {
        let mut g = GateLevelGenerator {
            design,
            sim: Simulator::new(&design.netlist)?,
        };
        AddressGenerator::reset(&mut g);
        Ok(g)
    }
}

impl AddressGenerator for GateLevelGenerator<'_> {
    fn reset(&mut self) {
        // Reset cycle, then one advance so the first address is
        // presented on the select lines (the netlist presents state
        // post-edge).
        self.sim
            .step_bools(&[true, false])
            .expect("validated netlist steps");
        self.sim
            .step_bools(&[false, true])
            .expect("validated netlist steps");
    }

    fn advance(&mut self) {
        self.sim
            .step_bools(&[false, true])
            .expect("validated netlist steps");
    }

    fn current(&self) -> u32 {
        self.design
            .observed_address(&self.sim)
            .expect("select lines are two-hot after reset")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_seq::workloads;

    #[test]
    fn paper_example_round_trips_behaviourally() {
        let shape = ArrayShape::new(4, 4);
        let lin = workloads::motion_est_read(shape, 2, 2, 0);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        assert_eq!(pair.row().spec.div_count, 2);
        assert_eq!(pair.col().spec.div_count, 1);
        let mut sim = pair.simulator();
        assert_eq!(sim.collect_sequence(lin.len()), lin);
    }

    #[test]
    fn paper_example_round_trips_at_gate_level() {
        let shape = ArrayShape::new(4, 4);
        let lin = workloads::motion_est_read(shape, 2, 2, 0);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        let design = pair.elaborate().unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for (i, &expected) in lin.iter().enumerate() {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(design.observed_address(&sim), Some(expected), "step {i}");
        }
    }

    #[test]
    fn two_hot_invariant_each_dimension_one_hot() {
        let shape = ArrayShape::new(8, 8);
        let lin = workloads::motion_est_read(shape, 4, 2, 0);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        let design = pair.elaborate().unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for _ in 0..lin.len() {
            sim.step_bools(&[false, true]).unwrap();
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
            assert_eq!((hot_rows, hot_cols), (1, 1));
        }
    }

    #[test]
    fn fifo_is_chainable_and_chained_netlist_matches() {
        let shape = ArrayShape::new(8, 8);
        let lin = workloads::fifo(shape);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        assert!(pair.chainable());
        let chained = pair.elaborate_chained().unwrap().expect("chainable");
        let mut sim = Simulator::new(&chained.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for (i, &expected) in lin.iter().enumerate() {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(chained.observed_address(&sim), Some(expected), "step {i}");
        }
        // Second period too (periodicity survives the chaining).
        for (i, &expected) in lin.iter().enumerate() {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(
                chained.observed_address(&sim),
                Some(expected),
                "period 2 step {i}"
            );
        }
    }

    #[test]
    fn chaining_saves_flip_flops() {
        let shape = ArrayShape::new(16, 16);
        let lin = workloads::fifo(shape);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        let normal = pair.elaborate().unwrap();
        let chained = pair.elaborate_chained().unwrap().expect("chainable");
        assert!(
            chained.netlist.num_flip_flops() < normal.netlist.num_flip_flops(),
            "chained {} vs normal {}",
            chained.netlist.num_flip_flops(),
            normal.netlist.num_flip_flops()
        );
    }

    #[test]
    fn non_raster_patterns_are_not_chainable() {
        let shape = ArrayShape::new(8, 8);
        let lin = workloads::motion_est_read(shape, 2, 2, 0);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        assert!(!pair.chainable());
        assert!(pair.elaborate_chained().unwrap().is_none());
    }

    #[test]
    fn ring_style_pair_matches_behaviour() {
        use crate::arch::ControlStyle;
        let shape = ArrayShape::new(4, 4);
        let lin = workloads::motion_est_read(shape, 2, 2, 0);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        let design = pair
            .elaborate_with_style(ControlStyle::RingCounters)
            .unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for (i, &expected) in lin.iter().enumerate() {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(design.observed_address(&sim), Some(expected), "step {i}");
        }
    }

    #[test]
    fn gate_level_generator_matches_behavioural_through_the_trait() {
        let shape = ArrayShape::new(8, 8);
        let lin = workloads::motion_est_read(shape, 2, 2, 0);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        let design = pair.elaborate().unwrap();
        let mut gate = GateLevelGenerator::new(&design).unwrap();
        let mut model = pair.simulator();
        assert_eq!(
            gate.collect_sequence(2 * lin.len()),
            model.collect_sequence(2 * lin.len())
        );
    }

    #[test]
    fn fifo_write_sequence_maps() {
        let shape = ArrayShape::new(8, 8);
        let lin = workloads::fifo(shape);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        let mut sim = pair.simulator();
        assert_eq!(sim.collect_sequence(lin.len()), lin);
    }

    #[test]
    fn out_of_range_sequence_rejected() {
        let shape = ArrayShape::new(2, 2);
        let lin = AddressSequence::from_vec(vec![0, 5]);
        assert!(matches!(
            Srag2d::map(&lin, shape, Layout::RowMajor),
            Err(SragError::Seq(_))
        ));
    }

    #[test]
    fn flip_flop_count_is_sum_of_dimensions_not_product() {
        let shape = ArrayShape::new(16, 16);
        let lin = workloads::fifo(shape);
        let pair = Srag2d::map(&lin, shape, Layout::RowMajor).unwrap();
        let ffs = pair.row().spec.num_flip_flops() + pair.col().spec.num_flip_flops();
        assert_eq!(ffs, 32, "two-hot: H + W flip-flops, not H x W");
    }
}
