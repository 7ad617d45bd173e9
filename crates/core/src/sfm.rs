//! Aloqeely's Sequential FIFO Memory (SFM) pointer generators —
//! the prior art the SRAG generalizes (paper Fig. 6).
//!
//! An SFM replaces the RAM address decoder with two single-bit
//! (one-hot) shift registers: a *tail* pointer selecting the cell to
//! write and a *head* pointer selecting the cell to read, each with
//! its own `next`/`reset`. The paper lists its three limitations —
//! one-dimensional memory, one-hot (not two-hot) encoding, and
//! FIFO-only access — all lifted by the SRAG. This module exists so
//! the workspace can demonstrate that the SRAG subsumes the SFM: an
//! SFM pointer is exactly a one-register SRAG ring.

use crate::arch::SragSpec;
use crate::error::SragError;
use crate::netlist::{finish, observed_one_hot};
use adgen_netlist::{CellKind, NetId, Netlist, Simulator};

/// Behavioural model of an SFM's pointer pair over `depth` cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SfmSimulator {
    depth: u32,
    head: u32,
    tail: u32,
}

impl SfmSimulator {
    /// Creates the pointer pair, both at cell 0.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: u32) -> Self {
        assert!(depth > 0, "FIFO depth must be nonzero");
        SfmSimulator {
            depth,
            head: 0,
            tail: 0,
        }
    }

    /// FIFO depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Returns both pointers to cell 0.
    pub fn reset(&mut self) {
        self.head = 0;
        self.tail = 0;
    }

    /// Cell currently selected for writing (tail pointer).
    pub fn write_cell(&self) -> u32 {
        self.tail
    }

    /// Cell currently selected for reading (head pointer).
    pub fn read_cell(&self) -> u32 {
        self.head
    }

    /// Advances the tail (write) pointer.
    pub fn advance_write(&mut self) {
        self.tail = (self.tail + 1) % self.depth;
    }

    /// Advances the head (read) pointer.
    pub fn advance_read(&mut self) {
        self.head = (self.head + 1) % self.depth;
    }
}

/// Gate-level SFM pointer pair.
#[derive(Debug, Clone)]
pub struct SfmNetlist {
    /// The implementation. Inputs: `reset`, `next_write`,
    /// `next_read`. Outputs: tail (write) select lines then head
    /// (read) select lines.
    pub netlist: Netlist,
    /// Tail-pointer select nets, one per cell.
    pub write_lines: Vec<NetId>,
    /// Head-pointer select nets, one per cell.
    pub read_lines: Vec<NetId>,
}

impl SfmNetlist {
    /// Elaborates the two one-hot pointer shift registers.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn elaborate(depth: u32) -> Result<Self, SragError> {
        assert!(depth > 0, "FIFO depth must be nonzero");
        let mut n = Netlist::new(format!("sfm_{depth}"));
        let next_write = n.add_input("next_write");
        let next_read = n.add_input("next_read");
        let write_lines = Self::pointer_ring(&mut n, depth, next_write, "tail")?;
        let read_lines = Self::pointer_ring(&mut n, depth, next_read, "head")?;
        finish(&mut n, write_lines.iter().chain(&read_lines).copied())?;
        Ok(SfmNetlist {
            netlist: n,
            write_lines,
            read_lines,
        })
    }

    fn pointer_ring(
        n: &mut Netlist,
        depth: u32,
        next: NetId,
        prefix: &str,
    ) -> Result<Vec<NetId>, SragError> {
        let rst = n.reset();
        let q: Vec<NetId> = (0..depth)
            .map(|i| n.add_net(format!("{prefix}_{i}")))
            .collect();
        for i in 0..depth as usize {
            let d = q[(i + depth as usize - 1) % depth as usize];
            let kind = if i == 0 {
                CellKind::Dffse
            } else {
                CellKind::Dffre
            };
            n.add_instance(format!("{prefix}_ff{i}"), kind, &[d, next, rst], &[q[i]])?;
        }
        Ok(q)
    }

    /// Decodes the tail pointer from a running simulator.
    pub fn observed_write_cell(&self, sim: &Simulator<'_>) -> Option<u32> {
        observed_one_hot(sim, &self.write_lines)
    }

    /// Decodes the head pointer from a running simulator.
    pub fn observed_read_cell(&self, sim: &Simulator<'_>) -> Option<u32> {
        observed_one_hot(sim, &self.read_lines)
    }
}

/// The SRAG specification equivalent to one SFM pointer: a single
/// circular shift register over `depth` lines with `dC = 1` —
/// demonstrating that the SFM is a degenerate SRAG.
pub fn sfm_pointer_as_srag(depth: u32) -> SragSpec {
    SragSpec::ring(depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SragSimulator;
    use adgen_seq::AddressGenerator;

    #[test]
    fn pointers_advance_independently() {
        let mut sfm = SfmSimulator::new(4);
        sfm.advance_write();
        sfm.advance_write();
        sfm.advance_read();
        assert_eq!(sfm.write_cell(), 2);
        assert_eq!(sfm.read_cell(), 1);
        sfm.reset();
        assert_eq!((sfm.write_cell(), sfm.read_cell()), (0, 0));
    }

    #[test]
    fn pointers_wrap() {
        let mut sfm = SfmSimulator::new(3);
        for _ in 0..3 {
            sfm.advance_write();
        }
        assert_eq!(sfm.write_cell(), 0);
    }

    #[test]
    fn gate_level_matches_behaviour() {
        let depth = 5;
        let design = SfmNetlist::elaborate(depth).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        let mut model = SfmSimulator::new(depth);
        // inputs: reset, next_write, next_read
        sim.step_bools(&[true, false, false]).unwrap();
        let mut lcg = 12345u64;
        for _ in 0..40 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let w = (lcg >> 33) & 1 == 1;
            let r = (lcg >> 34) & 1 == 1;
            sim.step_bools(&[false, w, r]).unwrap();
            assert_eq!(design.observed_write_cell(&sim), Some(model.write_cell()));
            assert_eq!(design.observed_read_cell(&sim), Some(model.read_cell()));
            if w {
                model.advance_write();
            }
            if r {
                model.advance_read();
            }
        }
    }

    #[test]
    fn sfm_is_a_degenerate_srag() {
        let spec = sfm_pointer_as_srag(6);
        let mut srag = SragSimulator::new(spec);
        let mut sfm = SfmSimulator::new(6);
        for _ in 0..15 {
            assert_eq!(srag.current(), sfm.write_cell());
            srag.advance();
            sfm.advance_write();
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_depth_rejected() {
        let _ = SfmSimulator::new(0);
    }

    #[test]
    fn sfm_pointer_costs_match_a_one_hot_srag_ring() {
        // The paper could not compare SRAG with SFM ("SFM is only a
        // FIFO memory"), but structurally one SFM pointer *is* the
        // degenerate SRAG ring: the per-pointer flip-flop count and
        // area must match the ring's within the ring's cycle-wrap
        // hook.
        use crate::netlist::SragNetlist;
        use adgen_netlist::{AreaReport, Library};
        let lib = Library::vcl018();
        let depth = 16;
        let sfm = SfmNetlist::elaborate(depth).unwrap();
        let ring = SragNetlist::elaborate(&sfm_pointer_as_srag(depth)).unwrap();
        // The SFM has two pointers; per pointer it has exactly the
        // ring's flip-flops.
        assert_eq!(
            sfm.netlist.num_flip_flops(),
            2 * ring.netlist.num_flip_flops()
        );
        let sfm_area_per_pointer = AreaReport::of(&sfm.netlist, &lib).total() / 2.0;
        let ring_area = AreaReport::of(&ring.netlist, &lib).total();
        let ratio = ring_area / sfm_area_per_pointer;
        assert!(
            (0.9..1.2).contains(&ratio),
            "ring {ring_area} vs SFM pointer {sfm_area_per_pointer}"
        );
    }

    #[test]
    fn one_dimensional_sfm_needs_quadratically_more_flip_flops() {
        // The paper's first SFM limitation: it is one-dimensional, so
        // covering an H×W array costs H·W flip-flops per pointer; the
        // two-hot SRAG pair needs only H+W.
        use crate::composite::Srag2d;
        use adgen_seq::{workloads, ArrayShape, Layout};
        let shape = ArrayShape::new(16, 16);
        let sfm = SfmNetlist::elaborate(shape.capacity()).unwrap();
        let pair = Srag2d::map(&workloads::fifo(shape), shape, Layout::RowMajor)
            .unwrap()
            .elaborate()
            .unwrap();
        let sfm_per_pointer = sfm.netlist.num_flip_flops() / 2;
        assert_eq!(sfm_per_pointer, 256);
        assert!(
            pair.netlist.num_flip_flops() < 48,
            "two-hot pair uses H+W+counters flip-flops, got {}",
            pair.netlist.num_flip_flops()
        );
    }
}
