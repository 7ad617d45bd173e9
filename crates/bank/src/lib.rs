//! Multi-bank ADDM: bank maps, interleaver workloads, conflict-aware
//! scheduling and the automatic address-map decomposition front end.
//!
//! The paper prices generators against hand-chosen block/scan
//! sequences over a single memory. This crate generalizes both axes
//! in the direction of SAGE (Chavet et al.) and Sudoku-style address
//! remapping:
//!
//! * [`BankMap`] — how a flat address splits into `(bank, local)`:
//!   low-order interleaving, high-order windowing, or an XOR fold.
//! * [`Interleaver`] — permutation workloads (block/row-column, QPP
//!   turbo-style, seed-deterministic pseudo-random), all verified to
//!   be permutations before use.
//! * [`window_schedule`] — the SAGE parallel-window discipline with
//!   bank-conflict and stall accounting; per-bank local streams are
//!   only released when the schedule is conflict-free (the gate the
//!   explorer and `bankcamp` enforce).
//! * [`BankedAddm`] / [`run_interleaved`] — cycle-level cosim over
//!   per-bank [`adgen_memory::Addm`] arrays.
//! * [`Decomposition`] — factors an arbitrary 1-D address stream into
//!   constants, counter bits, XOR folds and an FSM residue, exactly
//!   (`reconstruct() == input` by construction); [`FoldAgNetlist`]
//!   elaborates the linear part at gate level, and
//!   [`plan_banks`] prices decomposed vs monolithic-FSM generators
//!   per bank through the cell library, picking the cheaper.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
#![warn(missing_docs)]

pub mod decompose;
pub mod error;
pub mod map;
pub mod model;
pub mod netlist;
pub mod schedule;
pub mod workloads;

pub use decompose::{
    plan_banks, price_decomposed, price_monolithic, BankPlan, BitPlan, Decomposition,
    GeneratorChoice, PricedBank, MAX_DECOMPOSE_LEN,
};
pub use error::BankError;
pub use map::BankMap;
pub use model::{run_interleaved, BankedAddm, InterleavedRun};
pub use netlist::FoldAgNetlist;
pub use schedule::{window_schedule, Schedule};
pub use workloads::{Interleaver, MAX_INTERLEAVER_LEN};
