//! Time-sharing one SRAG between two address sequences — the other
//! half of paper §7's future work: *"The reuse of address circuitry
//! between different address sequences in space and time can greatly
//! reduce the area resources required."*
//!
//! Two sequences are *share-compatible* when the mapping procedure
//! assigns them the same shift-register partition `S` (the token
//! visits the same lines in the same order); they may differ freely
//! in their `dC`/`pC` timing. A typical pair: the raster *write*
//! stream and the DCT-scan *read* stream of the same buffer — both
//! are plain rings over the row (and column) lines, one divided by
//! the row length, the other undivided.
//!
//! The shared implementation keeps a single set of shift flip-flops
//! (the dominant area term) — the same ring and head muxes
//! [`build_into`](crate::netlist::build_into) builds — and
//! instantiates both control-counter sets, steered by a `mode` input: `mode = 0` gives sequence A's
//! timing, `mode = 1` sequence B's. The design must be reset when
//! switching modes, exactly as a phase change between producing and
//! consuming a frame buffer would.

use adgen_netlist::{CellKind, NetId, Netlist, Simulator};
use adgen_synth::mapgen::build_mod_counter;

use crate::arch::SragSpec;
use crate::error::SragError;
use crate::netlist::{finish, mux_head, observed_one_hot, Ring};

/// Whether two specifications can share their shift registers: same
/// register partition (same lines in the same token order) and the
/// same select-line count.
fn share_compatible(a: &SragSpec, b: &SragSpec) -> bool {
    a.registers == b.registers && a.num_lines == b.num_lines
}

/// A gate-level SRAG serving two sequences through one set of shift
/// registers.
#[derive(Debug, Clone)]
pub struct TimeSharedSragNetlist {
    /// The implementation. Inputs: `reset` (index 0), `next`
    /// (index 1), `mode` (index 2). Outputs: the select lines.
    pub netlist: Netlist,
    /// Select-line nets by line index.
    pub select_lines: Vec<NetId>,
    /// Sequence A's specification (`mode = 0`).
    pub spec_a: SragSpec,
    /// Sequence B's specification (`mode = 1`).
    pub spec_b: SragSpec,
}

impl TimeSharedSragNetlist {
    /// Elaborates the shared design. Returns `None` when the two
    /// specifications cannot share their shift registers (different
    /// register partitions or select-line counts).
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn elaborate(a: &SragSpec, b: &SragSpec) -> Result<Option<Self>, SragError> {
        if !share_compatible(a, b) {
            return Ok(None);
        }
        let mut n = Netlist::new(format!("srag_shared_{}ff", a.num_flip_flops()));
        let next = n.add_input("next");
        let mode = n.add_input("mode");
        let rst = n.reset();

        // Sequence A's stimulus is gated off while B is active and
        // vice versa, so the inactive counters hold.
        let not_mode = n.gate(CellKind::Inv, &[mode])?;
        let next_a = n.gate(CellKind::And2, &[next, not_mode])?;
        let next_b = n.gate(CellKind::And2, &[next, mode])?;

        // Two control-counter sets, one live enable.
        let div_a = build_mod_counter(&mut n, a.div_count as u64, next_a, "a_divcnt")?;
        let div_b = build_mod_counter(&mut n, b.div_count as u64, next_b, "b_divcnt")?;
        let enable = n.gate(CellKind::Mux2, &[div_a.wrap, div_b.wrap, mode])?;
        let pass = if a.num_registers() > 1 {
            let pa = build_mod_counter(&mut n, a.pass_count as u64, div_a.wrap, "a_passcnt")?;
            let pb = build_mod_counter(&mut n, b.pass_count as u64, div_b.wrap, "b_passcnt")?;
            Some(n.gate(CellKind::Mux2, &[pa.wrap, pb.wrap, mode])?)
        } else {
            None
        };

        // One shared set of shift registers (the partitions are
        // identical by construction).
        let select_lines = Ring::new(&mut n, &a.registers, "").close(
            &mut n,
            a.num_lines,
            enable,
            rst,
            mux_head(pass),
        )?;
        finish(&mut n, select_lines.iter().copied())?;
        Ok(Some(TimeSharedSragNetlist {
            netlist: n,
            select_lines,
            spec_a: a.clone(),
            spec_b: b.clone(),
        }))
    }

    /// Decodes the presented address from a running simulator.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        observed_one_hot(sim, &self.select_lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::map_sequence;
    use crate::netlist::SragNetlist;
    use crate::sim::SragSimulator;
    use adgen_netlist::{AreaReport, Library};
    use adgen_seq::{workloads, AddressGenerator, ArrayShape, Layout};

    /// Row streams of a raster write and a DCT-scan read over the
    /// same buffer: identical ring partition, different timing.
    fn write_read_row_specs(n: u32) -> (SragSpec, SragSpec) {
        let shape = ArrayShape::new(n, n);
        let (write_rows, _) = workloads::fifo(shape)
            .decompose(shape, Layout::RowMajor)
            .unwrap();
        let (read_rows, _) = workloads::transpose_scan(shape)
            .decompose(shape, Layout::RowMajor)
            .unwrap();
        (
            map_sequence(&write_rows).unwrap().spec,
            map_sequence(&read_rows).unwrap().spec,
        )
    }

    #[test]
    fn raster_and_dct_rows_are_share_compatible() {
        let (a, b) = write_read_row_specs(8);
        assert!(share_compatible(&a, &b));
        assert_ne!(a.div_count, b.div_count, "they differ only in timing");
    }

    #[test]
    fn shared_design_realizes_both_sequences() {
        let (a, b) = write_read_row_specs(8);
        let shared = TimeSharedSragNetlist::elaborate(&a, &b).unwrap().unwrap();
        for (mode, spec) in [(false, &a), (true, &b)] {
            let mut sim = Simulator::new(&shared.netlist).unwrap();
            // inputs: reset, next, mode
            sim.step_bools(&[true, false, mode]).unwrap();
            let mut model = SragSimulator::new(spec.clone());
            model.reset();
            for step in 0..2 * spec.period() {
                sim.step_bools(&[false, true, mode]).unwrap();
                assert_eq!(
                    shared.observed_address(&sim),
                    Some(model.current()),
                    "mode {mode} step {step}"
                );
                model.advance();
            }
        }
    }

    #[test]
    fn mode_switch_after_reset_works() {
        let (a, b) = write_read_row_specs(4);
        let shared = TimeSharedSragNetlist::elaborate(&a, &b).unwrap().unwrap();
        let mut sim = Simulator::new(&shared.netlist).unwrap();
        // Phase 1: sequence A (raster write rows, each row held 4x).
        sim.step_bools(&[true, false, false]).unwrap();
        let mut model = SragSimulator::new(a.clone());
        for _ in 0..6 {
            sim.step_bools(&[false, true, false]).unwrap();
            assert_eq!(shared.observed_address(&sim), Some(model.current()));
            model.advance();
        }
        // Phase change: reset, then sequence B.
        sim.step_bools(&[true, false, true]).unwrap();
        let mut model = SragSimulator::new(b.clone());
        for _ in 0..6 {
            sim.step_bools(&[false, true, true]).unwrap();
            assert_eq!(shared.observed_address(&sim), Some(model.current()));
            model.advance();
        }
    }

    #[test]
    fn sharing_saves_substantial_area() {
        let (a, b) = write_read_row_specs(16);
        let lib = Library::vcl018();
        let shared = TimeSharedSragNetlist::elaborate(&a, &b).unwrap().unwrap();
        let sep_a = SragNetlist::elaborate(&a).unwrap();
        let sep_b = SragNetlist::elaborate(&b).unwrap();
        let shared_area = AreaReport::of(&shared.netlist, &lib).total();
        let separate_area = AreaReport::of(&sep_a.netlist, &lib).total()
            + AreaReport::of(&sep_b.netlist, &lib).total();
        assert!(
            shared_area < 0.75 * separate_area,
            "shared {shared_area} vs separate {separate_area}"
        );
    }

    #[test]
    fn incompatible_partitions_are_refused() {
        let shape = ArrayShape::new(8, 8);
        let (rows, _) = workloads::motion_est_read(shape, 2, 2, 0)
            .decompose(shape, Layout::RowMajor)
            .unwrap();
        let block = map_sequence(&rows).unwrap().spec;
        let (ring, _) = write_read_row_specs(8);
        assert!(!share_compatible(&ring, &block));
        assert!(TimeSharedSragNetlist::elaborate(&ring, &block)
            .unwrap()
            .is_none());
    }
}
