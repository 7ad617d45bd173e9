//! The Shift Register based Address Generator (SRAG) — the primary
//! contribution of *“Performance-Area Trade-Off of Address Generators
//! for Address Decoder-Decoupled Memory”* (Hettiaratchi, Cheung,
//! Clarke; DATE 2002).
//!
//! An SRAG (paper §4, Fig. 5) drives the select lines of an address
//! decoder-decoupled memory directly: a *token* travels through a set
//! of circularly linked shift registers, each flip-flop output mapped
//! to one select line. Two small counters steer it:
//!
//! * `DivCnt` divides the `next` stimulus by the common repetition
//!   count `dC` of each address,
//! * `PassCnt` counts shift-enables and asserts `pass` every `pC`
//!   enables, switching the inter-register multiplexers so the token
//!   hops from one shift register to the next.
//!
//! With *two-hot* encoding (one independent SRAG per memory
//! dimension, one-hot each), the 2-D memory array itself performs the
//! AND of row and column selects — no address decoder exists anywhere.
//!
//! This crate implements:
//!
//! * [`arch`] — the architectural description ([`SragSpec`]),
//! * [`mapper`] — the paper's §5 automatic mapping procedure (their
//!   `SRAdGen` tool): address sequence → `S`, `dC`, `pC`, with the
//!   intermediate `D, R, U, O, Z, P` sets exposed for paper Table 2,
//! * [`sim`] — a cycle-accurate behavioural model implementing the
//!   token/counter semantics,
//! * [`netlist`] — elaboration to a gate-level netlist in the
//!   `vcl018` library,
//! * [`composite`] — the full two-hot row × column SRAG for 2-D
//!   arrays,
//! * [`multi_counter`] — the paper's §4 relaxation: per-register pass
//!   counts and per-address division counts via multiple/steered
//!   counters, widening the space of mappable sequences,
//! * [`shared`] — §7's circuit reuse between different address
//!   sequences: one set of shift registers serving two
//!   share-compatible sequences under a `mode` input.
//!
//! # Example
//!
//! Map the paper's running example (Table 2) and simulate it:
//!
//! ```
//! use adgen_core::mapper::map_sequence;
//! use adgen_seq::{AddressSequence, AddressGenerator};
//!
//! # fn main() -> Result<(), adgen_core::SragError> {
//! // RowAS of paper Table 1.
//! let rows = AddressSequence::from_vec(vec![0,0,1,1,0,0,1,1,2,2,3,3,2,2,3,3]);
//! let mapping = map_sequence(&rows)?;
//! assert_eq!(mapping.spec.div_count, 2);
//! assert_eq!(mapping.spec.pass_count, 4);
//! let mut sim = adgen_core::sim::SragSimulator::new(mapping.spec.clone());
//! assert_eq!(sim.collect_sequence(16), rows);
//! # Ok(())
//! # }
//! ```

pub mod arch;
pub mod composite;
pub mod error;
pub mod harden;
pub mod mapper;
pub mod multi_counter;
pub mod netlist;
pub mod shared;
pub mod sim;

pub use arch::{ShiftRegisterSpec, SragSpec};
pub use composite::Srag2d;
pub use error::SragError;
pub use harden::{HardenedSrag2dNetlist, HardenedSragNetlist};
pub use mapper::{map_sequence, Mapping};
pub use netlist::SragNetlist;
pub use sim::SragSimulator;
