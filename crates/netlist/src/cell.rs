//! Standard-cell kinds and the synthetic `vcl018` technology library.
//!
//! The paper synthesized its circuits with Synopsys Design Compiler for
//! an (unnamed, proprietary) 0.18 µm CMOS standard-cell library and
//! reported area in "cell units" and delay in nanoseconds. This module
//! provides a self-contained substitute: a fixed cell set with
//! electrical parameters chosen to be representative of a 0.18 µm
//! process (an FO4 inverter delay of roughly 100 ps, DFF clock-to-Q of
//! roughly 180 ps). Absolute values are synthetic; all experiments in
//! this workspace compare *relative* area and delay, which depend only
//! on circuit structure and on the realistic scaling of the library
//! (stacked-transistor gates are slower and weaker, wider gates are
//! bigger, flip-flops dominate area).

use std::fmt;

/// The fixed set of standard cells available in the technology library.
///
/// Sequential cells carry an implicit global clock; it is not
/// represented as a netlist pin. Input pin order is fixed per kind and
/// documented on each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter. Inputs: `a`. Output: `y = !a`.
    Inv,
    /// Non-inverting buffer. Inputs: `a`. Output: `y = a`.
    Buf,
    /// 2-input NAND. Inputs: `a b`. Output: `y = !(a & b)`.
    Nand2,
    /// 3-input NAND. Inputs: `a b c`.
    Nand3,
    /// 4-input NAND. Inputs: `a b c d`.
    Nand4,
    /// 2-input NOR. Inputs: `a b`. Output: `y = !(a | b)`.
    Nor2,
    /// 3-input NOR. Inputs: `a b c`.
    Nor3,
    /// 4-input NOR. Inputs: `a b c d`.
    Nor4,
    /// 2-input AND. Inputs: `a b`.
    And2,
    /// 3-input AND. Inputs: `a b c`.
    And3,
    /// 4-input AND. Inputs: `a b c d`.
    And4,
    /// 2-input OR. Inputs: `a b`.
    Or2,
    /// 3-input OR. Inputs: `a b c`.
    Or3,
    /// 4-input OR. Inputs: `a b c d`.
    Or4,
    /// 2-input XOR. Inputs: `a b`. Output: `y = a ^ b`.
    Xor2,
    /// 2-input XNOR. Inputs: `a b`. Output: `y = !(a ^ b)`.
    Xnor2,
    /// AND-OR-invert 2-1. Inputs: `a b c`. Output: `y = !((a & b) | c)`.
    Aoi21,
    /// OR-AND-invert 2-1. Inputs: `a b c`. Output: `y = !((a | b) & c)`.
    Oai21,
    /// 2-to-1 multiplexer. Inputs: `d0 d1 sel`. Output: `y = sel ? d1 : d0`.
    Mux2,
    /// D flip-flop. Inputs: `d`. Output: `q`. Powers up as `X`.
    Dff,
    /// D flip-flop with enable. Inputs: `d en`. Output: `q`.
    /// Holds its state while `en = 0`.
    Dffe,
    /// D flip-flop with synchronous active-high reset to `0`.
    /// Inputs: `d rst`. Output: `q`.
    Dffr,
    /// D flip-flop with synchronous active-high set to `1`.
    /// Inputs: `d set`. Output: `q`.
    Dffs,
    /// D flip-flop with enable and synchronous reset to `0`.
    /// Inputs: `d en rst`. Output: `q`. Reset dominates enable.
    Dffre,
    /// D flip-flop with enable and synchronous set to `1`.
    /// Inputs: `d en set`. Output: `q`. Set dominates enable.
    Dffse,
    /// Constant logic high. No inputs. Output: `y = 1`.
    TieHi,
    /// Constant logic low. No inputs. Output: `y = 0`.
    TieLo,
}

impl CellKind {
    /// All cell kinds, in a stable order (useful for histograms).
    pub const ALL: [CellKind; 27] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nand4,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::Nor4,
        CellKind::And2,
        CellKind::And3,
        CellKind::And4,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Or4,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Mux2,
        CellKind::Dff,
        CellKind::Dffe,
        CellKind::Dffr,
        CellKind::Dffs,
        CellKind::Dffre,
        CellKind::Dffse,
        CellKind::TieHi,
        CellKind::TieLo,
    ];

    /// Number of input pins (excluding the implicit clock).
    pub fn num_inputs(self) -> usize {
        match self {
            CellKind::TieHi | CellKind::TieLo => 0,
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2
            | CellKind::Dffe
            | CellKind::Dffr
            | CellKind::Dffs => 2,
            CellKind::Nand3
            | CellKind::Nor3
            | CellKind::And3
            | CellKind::Or3
            | CellKind::Aoi21
            | CellKind::Oai21
            | CellKind::Mux2
            | CellKind::Dffre
            | CellKind::Dffse => 3,
            CellKind::Nand4 | CellKind::Nor4 | CellKind::And4 | CellKind::Or4 => 4,
        }
    }

    /// Number of output pins. Every cell in `vcl018` has exactly one.
    pub fn num_outputs(self) -> usize {
        1
    }

    /// Whether the cell is a clocked storage element.
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            CellKind::Dff
                | CellKind::Dffe
                | CellKind::Dffr
                | CellKind::Dffs
                | CellKind::Dffre
                | CellKind::Dffse
        )
    }

    /// Library cell name, lowercase, as written in the
    /// Verilog and report outputs (e.g. `"nand2"`).
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "inv",
            CellKind::Buf => "buf",
            CellKind::Nand2 => "nand2",
            CellKind::Nand3 => "nand3",
            CellKind::Nand4 => "nand4",
            CellKind::Nor2 => "nor2",
            CellKind::Nor3 => "nor3",
            CellKind::Nor4 => "nor4",
            CellKind::And2 => "and2",
            CellKind::And3 => "and3",
            CellKind::And4 => "and4",
            CellKind::Or2 => "or2",
            CellKind::Or3 => "or3",
            CellKind::Or4 => "or4",
            CellKind::Xor2 => "xor2",
            CellKind::Xnor2 => "xnor2",
            CellKind::Aoi21 => "aoi21",
            CellKind::Oai21 => "oai21",
            CellKind::Mux2 => "mux2",
            CellKind::Dff => "dff",
            CellKind::Dffe => "dffe",
            CellKind::Dffr => "dffr",
            CellKind::Dffs => "dffs",
            CellKind::Dffre => "dffre",
            CellKind::Dffse => "dffse",
            CellKind::TieHi => "tiehi",
            CellKind::TieLo => "tielo",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Electrical and physical parameters of one library cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Cell area in *cell units* (the paper's area unit).
    pub area: f64,
    /// Capacitance presented by each input pin, in femtofarads.
    pub input_cap_ff: f64,
    /// Equivalent output drive resistance, in kilo-ohms. Gate delay is
    /// `intrinsic_ps + drive_res_kohm × load_ff` (kΩ·fF = ps).
    pub drive_res_kohm: f64,
    /// Parasitic (unloaded) propagation delay, in picoseconds. For
    /// sequential cells this is the clock-to-Q delay.
    pub intrinsic_ps: f64,
    /// Setup requirement at the D/EN/RST pins of sequential cells, in
    /// picoseconds. Zero for combinational cells.
    pub setup_ps: f64,
}

/// A technology library: a [`CellSpec`] for every [`CellKind`] plus
/// global wiring parameters.
///
/// Use [`Library::vcl018`] for the synthetic 0.18 µm-class library used
/// throughout the workspace.
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    specs: [CellSpec; CellKind::ALL.len()],
    /// Estimated wire capacitance added per fanout connection (fF).
    pub wire_cap_per_fanout_ff: f64,
}

impl Library {
    /// The synthetic 0.18 µm-class virtual cell library.
    ///
    /// Reference points: an unloaded inverter has a 20 ps intrinsic
    /// delay, 3.5 fF of input capacitance and 6 kΩ of drive resistance,
    /// giving an FO4 delay of roughly `20 + 6 × (4×3.5 + 4×0.8) ≈ 123 ps`
    /// including wire load — in line with published 0.18 µm FO4 figures
    /// (~90–130 ps). Flip-flop area dominates, as in real libraries.
    pub fn vcl018() -> Self {
        use CellKind::*;
        let mut specs = [CellSpec {
            area: 0.0,
            input_cap_ff: 0.0,
            drive_res_kohm: 0.0,
            intrinsic_ps: 0.0,
            setup_ps: 0.0,
        }; CellKind::ALL.len()];
        let mut set = |k: CellKind, area: f64, cap: f64, res: f64, intr: f64, setup: f64| {
            specs[k as usize] = CellSpec {
                area,
                input_cap_ff: cap,
                drive_res_kohm: res,
                intrinsic_ps: intr,
                setup_ps: setup,
            };
        };
        // Combinational cells. Series transistor stacks raise both the
        // intrinsic delay and the drive resistance; wider gates add area
        // and input capacitance.
        set(Inv, 2.0, 3.5, 6.0, 20.0, 0.0);
        set(Buf, 3.5, 3.5, 4.0, 45.0, 0.0);
        set(Nand2, 3.0, 4.0, 7.0, 30.0, 0.0);
        set(Nand3, 4.0, 4.5, 8.5, 42.0, 0.0);
        set(Nand4, 5.0, 5.0, 10.0, 56.0, 0.0);
        set(Nor2, 3.0, 4.0, 8.0, 34.0, 0.0);
        set(Nor3, 4.0, 4.5, 10.0, 50.0, 0.0);
        set(Nor4, 5.0, 5.0, 12.0, 68.0, 0.0);
        set(And2, 4.0, 4.0, 6.5, 55.0, 0.0);
        set(And3, 5.0, 4.5, 7.0, 68.0, 0.0);
        set(And4, 6.0, 5.0, 7.5, 82.0, 0.0);
        set(Or2, 4.0, 4.0, 6.5, 58.0, 0.0);
        set(Or3, 5.0, 4.5, 7.0, 74.0, 0.0);
        set(Or4, 6.0, 5.0, 7.5, 92.0, 0.0);
        set(Xor2, 7.0, 5.5, 8.0, 75.0, 0.0);
        set(Xnor2, 7.0, 5.5, 8.0, 75.0, 0.0);
        set(Aoi21, 4.5, 4.5, 8.5, 44.0, 0.0);
        set(Oai21, 4.5, 4.5, 8.5, 44.0, 0.0);
        set(Mux2, 7.0, 5.0, 7.5, 72.0, 0.0);
        // Sequential cells. Intrinsic = clock-to-Q. Enable/reset pins add
        // internal muxing, hence slightly larger clock-to-Q and area.
        set(Dff, 18.0, 4.0, 7.0, 180.0, 90.0);
        set(Dffe, 22.0, 4.0, 7.0, 195.0, 100.0);
        set(Dffr, 20.0, 4.0, 7.0, 190.0, 95.0);
        set(Dffs, 20.0, 4.0, 7.0, 190.0, 95.0);
        set(Dffre, 24.0, 4.0, 7.0, 205.0, 105.0);
        set(Dffse, 24.0, 4.0, 7.0, 205.0, 105.0);
        set(TieHi, 1.0, 0.0, 1.0, 0.0, 0.0);
        set(TieLo, 1.0, 0.0, 1.0, 0.0, 0.0);
        Library {
            name: "vcl018".to_string(),
            specs,
            wire_cap_per_fanout_ff: 0.8,
        }
    }

    /// Library name (e.g. `"vcl018"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The [`CellSpec`] for `kind`.
    pub fn spec(&self, kind: CellKind) -> &CellSpec {
        &self.specs[kind as usize]
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::vcl018()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_covered_and_ordered() {
        for (i, k) in CellKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "ALL order must match discriminant order");
        }
    }

    #[test]
    fn pin_counts() {
        assert_eq!(CellKind::Inv.num_inputs(), 1);
        assert_eq!(CellKind::Nand4.num_inputs(), 4);
        assert_eq!(CellKind::Mux2.num_inputs(), 3);
        assert_eq!(CellKind::Dffre.num_inputs(), 3);
        assert_eq!(CellKind::TieHi.num_inputs(), 0);
        for k in CellKind::ALL {
            assert_eq!(k.num_outputs(), 1);
        }
    }

    #[test]
    fn sequential_classification() {
        assert!(CellKind::Dff.is_sequential());
        assert!(CellKind::Dffse.is_sequential());
        assert!(!CellKind::Mux2.is_sequential());
    }

    #[test]
    fn vcl018_has_positive_parameters() {
        let lib = Library::vcl018();
        for k in CellKind::ALL {
            let s = lib.spec(k);
            assert!(s.area > 0.0, "{k} area");
            assert!(s.drive_res_kohm > 0.0, "{k} res");
            if k.is_sequential() {
                assert!(s.setup_ps > 0.0, "{k} setup");
                assert!(s.intrinsic_ps >= 150.0, "{k} clk-to-q");
            }
        }
    }

    #[test]
    fn fo4_is_plausible_for_018um() {
        let lib = Library::vcl018();
        let inv = lib.spec(CellKind::Inv);
        let load = 4.0 * (inv.input_cap_ff + lib.wire_cap_per_fanout_ff);
        let fo4 = inv.intrinsic_ps + inv.drive_res_kohm * load;
        assert!((80.0..160.0).contains(&fo4), "FO4 = {fo4} ps");
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(CellKind::Nand3.to_string(), "nand3");
        assert_eq!(format!("{}", CellKind::Dffse), "dffse");
    }

    #[test]
    fn stacked_gates_are_slower_and_weaker() {
        let lib = Library::vcl018();
        assert!(lib.spec(CellKind::Nand4).intrinsic_ps > lib.spec(CellKind::Nand2).intrinsic_ps);
        assert!(lib.spec(CellKind::Nor4).drive_res_kohm > lib.spec(CellKind::Nor2).drive_res_kohm);
        assert!(lib.spec(CellKind::Nand4).area > lib.spec(CellKind::Nand2).area);
    }
}
