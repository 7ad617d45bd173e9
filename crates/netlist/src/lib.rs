//! Gate-level structural netlist infrastructure for address-generator
//! synthesis experiments.
//!
//! This crate is the hardware substrate of the `adgen` workspace. It
//! replaces the proprietary flow used by the paper (Synopsys Design
//! Compiler targeting a 0.18 µm standard-cell library) with:
//!
//! * a [`CellKind`]/[`Library`] model of a synthetic 0.18 µm-class
//!   standard-cell library (`vcl018`) with per-cell area in *cell
//!   units*, pin capacitances, drive resistance and intrinsic delays,
//! * a structural [`Netlist`] IR with named nets and cell instances,
//!   flat and validated ([`Netlist::validate`]),
//! * a static timing analyser ([`sta`]) implementing a
//!   logical-effort/Elmore style gate-delay model
//!   (`delay = intrinsic + R_drive × ΣC_load`),
//! * an area model ([`stats`]) that rolls up cell-unit area and
//!   per-cell-kind histograms, and
//! * a compiled, bit-sliced cycle-accurate logic simulator
//!   ([`Simulator`]) with three-valued (`0/1/X`) semantics used to
//!   verify that elaborated netlists behave identically to their
//!   behavioural models, checked in turn against an uncompiled
//!   event-driven oracle ([`EventSimulator`]).
//!
//! # Example
//!
//! Build a toggle flip-flop (T-FF) and time it:
//!
//! ```
//! use adgen_netlist::{Netlist, CellKind, Library, sta::TimingAnalysis};
//!
//! # fn main() -> Result<(), adgen_netlist::NetlistError> {
//! let mut n = Netlist::new("toggle");
//! let q = n.add_net("q");
//! let qn = n.add_net("qn");
//! n.add_instance("inv0", CellKind::Inv, &[q], &[qn])?;
//! let rst = n.reset();
//! n.add_instance("ff0", CellKind::Dffr, &[qn, rst], &[q])?;
//! n.add_output(q);
//! n.validate()?;
//!
//! let lib = Library::vcl018();
//! let timing = TimingAnalysis::run(&n, &lib)?;
//! assert!(timing.critical_path_ps() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod cell;
pub mod dot;
pub mod equiv;
pub mod error;
pub mod graph;
pub mod power;
mod program;
pub mod sim;
pub mod sim_event;
pub mod sim_sliced;
pub mod sta;
pub mod stats;
pub mod vcd;
pub mod verilog;

pub use cell::{CellKind, CellSpec, Library};
pub use equiv::{check_equivalence_exhaustive, check_equivalence_random, CounterExample};
pub use error::NetlistError;
pub use graph::{Driver, InstId, Instance, Net, NetId, Netlist};
pub use power::{measure_power, PowerReport};
pub use sim::{Logic, SimControl};
pub use sim_event::EventSimulator;
pub use sim_sliced::{LaneMask, Simulator};
pub use sta::{TimingAnalysis, TimingContext};
pub use stats::{AreaReport, Price};
pub use vcd::VcdTrace;
pub use verilog::to_verilog;
