//! Memory-array models and address-generator co-simulation.
//!
//! The paper proposes removing the address decoder from the RAM and
//! driving the cell array's row/column select lines straight from the
//! address generator. This crate provides behavioural models of both
//! memory organizations plus the harness that closes the loop between
//! a generator and an array:
//!
//! * [`Addm`] — the **address decoder-decoupled memory** (paper
//!   Fig. 2): a 2-D cell array accessed through raw select-line
//!   vectors. It enforces the safety requirement the paper calls out
//!   in §7 — *"it must be guaranteed that no two row select lines
//!   will be asserted at the same time as this could corrupt data"* —
//!   by rejecting multi-hot or dead select vectors.
//! * [`Ram`] — the conventional binary-addressed RAM (paper Fig. 1)
//!   with its built-in decoder modelled by bounds-checked address
//!   arithmetic.
//! * [`cosim`] — write an image through one
//!   [`AddressGenerator`](adgen_seq::AddressGenerator), read it back
//!   through another, and check every transferred word, end to end.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod addm;
pub mod cosim;
pub mod error;
pub mod ram;

pub use addm::Addm;
pub use error::MemError;
pub use ram::Ram;
