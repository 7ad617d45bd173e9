//! Area accounting, cell-usage statistics and the delay/area/flip-flop
//! [`Price`] every generator family is compared on.
//!
//! Area is reported in the library's *cell units*, the same unit the
//! paper's area figures use.

use std::collections::BTreeMap;
use std::fmt;

use crate::cell::{CellKind, Library};
use crate::error::NetlistError;
use crate::graph::Netlist;
use crate::sta::TimingAnalysis;

/// Area and composition summary of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaReport {
    total: f64,
    sequential: f64,
    combinational: f64,
    by_kind: BTreeMap<CellKind, (usize, f64)>,
    num_instances: usize,
}

impl AreaReport {
    /// Computes the report for `netlist` under `library`.
    pub fn of(netlist: &Netlist, library: &Library) -> Self {
        let mut total = 0.0;
        let mut sequential = 0.0;
        let mut by_kind: BTreeMap<CellKind, (usize, f64)> = BTreeMap::new();
        for inst in netlist.instances() {
            let a = library.spec(inst.kind()).area;
            total += a;
            if inst.kind().is_sequential() {
                sequential += a;
            }
            let e = by_kind.entry(inst.kind()).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += a;
        }
        AreaReport {
            total,
            sequential,
            combinational: total - sequential,
            by_kind,
            num_instances: netlist.num_instances(),
        }
    }

    /// Total area in cell units.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Area of sequential cells in cell units.
    pub fn sequential(&self) -> f64 {
        self.sequential
    }

    /// Area of combinational cells in cell units.
    pub fn combinational(&self) -> f64 {
        self.combinational
    }

    /// Instance count.
    pub fn num_instances(&self) -> usize {
        self.num_instances
    }

    /// `(count, area)` for `kind`, `(0, 0.0)` if unused.
    pub fn by_kind(&self, kind: CellKind) -> (usize, f64) {
        self.by_kind.get(&kind).copied().unwrap_or((0, 0.0))
    }

    /// Iterates over `(kind, count, area)` for every used cell kind in
    /// a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (CellKind, usize, f64)> + '_ {
        self.by_kind.iter().map(|(&k, &(c, a))| (k, c, a))
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "area: {:.1} cell units ({} instances; seq {:.1}, comb {:.1})",
            self.total, self.num_instances, self.sequential, self.combinational
        )?;
        for (kind, count, area) in self.iter() {
            writeln!(f, "  {kind:<6} x{count:<5} {area:>9.1}")?;
        }
        Ok(())
    }
}

/// What one generator implementation costs: the three axes of the
/// paper's delay/area comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Price {
    /// Critical-path delay in picoseconds.
    pub delay_ps: f64,
    /// Total area in cell units.
    pub area: f64,
    /// Number of flip-flops.
    pub flip_flops: usize,
}

impl Price {
    /// Prices `netlist`: one timing run with no external load on the
    /// outputs, [`AreaReport::total`] and [`Netlist::num_flip_flops`].
    ///
    /// # Errors
    ///
    /// Propagates timing-analysis failures.
    pub fn of(netlist: &Netlist, library: &Library) -> Result<Price, NetlistError> {
        let timing = TimingAnalysis::run(netlist, library)?;
        Ok(Price {
            delay_ps: timing.critical_path_ps(),
            area: AreaReport::of(netlist, library).total(),
            flip_flops: netlist.num_flip_flops(),
        })
    }

    /// `self` and `other` clocked side by side as one generator: the
    /// slower critical path, the summed area and flip-flops.
    #[must_use]
    pub fn beside(self, other: Price) -> Price {
        Price {
            delay_ps: self.delay_ps.max(other.delay_ps),
            area: self.area + other.area,
            flip_flops: self.flip_flops + other.flip_flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Netlist;

    #[test]
    fn beside_takes_the_slower_path_and_sums_the_rest() {
        let a = Price {
            delay_ps: 300.0,
            area: 10.5,
            flip_flops: 3,
        };
        let b = Price {
            delay_ps: 450.0,
            area: 2.0,
            flip_flops: 4,
        };
        let expect = Price {
            delay_ps: 450.0,
            area: 12.5,
            flip_flops: 7,
        };
        assert_eq!(a.beside(b), expect);
        assert_eq!(b.beside(a), expect);
        assert_eq!(Price::default().beside(a), a);
    }

    #[test]
    fn price_of_is_one_timing_run_plus_area_and_flip_flops() {
        let lib = Library::vcl018();
        let mut n = Netlist::new("t");
        let rst = n.reset();
        let q = n.add_net("q");
        let qn = n.gate(CellKind::Inv, &[q]).unwrap();
        n.add_instance("ff", CellKind::Dffr, &[qn, rst], &[q])
            .unwrap();
        n.add_output(q);
        let expect = Price {
            delay_ps: TimingAnalysis::run(&n, &lib).unwrap().critical_path_ps(),
            area: AreaReport::of(&n, &lib).total(),
            flip_flops: n.num_flip_flops(),
        };
        assert_eq!(Price::of(&n, &lib).unwrap(), expect);
        assert_eq!(expect.flip_flops, 1);
        assert!(expect.delay_ps > 0.0);
    }

    #[test]
    fn empty_netlist_is_zero_area() {
        let n = Netlist::new("empty");
        let r = AreaReport::of(&n, &Library::vcl018());
        assert_eq!(r.total(), 0.0);
        assert_eq!(r.num_instances(), 0);
    }

    #[test]
    fn totals_add_up() {
        let lib = Library::vcl018();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y0 = n.gate(CellKind::Inv, &[a]).unwrap();
        let rst = n.reset();
        let q = n.add_net("q");
        n.add_instance("ff", CellKind::Dffr, &[y0, rst], &[q])
            .unwrap();
        let r = AreaReport::of(&n, &lib);
        let expect = lib.spec(CellKind::Inv).area + lib.spec(CellKind::Dffr).area;
        assert!((r.total() - expect).abs() < 1e-9);
        assert!((r.sequential() - lib.spec(CellKind::Dffr).area).abs() < 1e-9);
        assert!((r.combinational() - lib.spec(CellKind::Inv).area).abs() < 1e-9);
        assert_eq!(r.by_kind(CellKind::Inv).0, 1);
        assert_eq!(r.by_kind(CellKind::Nand2).0, 0);
    }

    #[test]
    fn display_mentions_total_and_kinds() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.gate(CellKind::Nand2, &[a, a]).unwrap();
        n.add_output(y);
        let r = AreaReport::of(&n, &Library::vcl018());
        let s = r.to_string();
        assert!(s.contains("cell units"));
        assert!(s.contains("nand2"));
    }
}
