//! Logic synthesis for address-generator experiments.
//!
//! The paper synthesizes its address generators with a commercial
//! logic synthesizer. This crate provides the equivalent capability
//! used throughout the workspace:
//!
//! * [`cube`]/[`cover`] — two-level (sum-of-products) Boolean function
//!   representation with cofactoring, tautology checking and
//!   complementation by unate recursion,
//! * [`espresso`] — an Espresso-style EXPAND / IRREDUNDANT / REDUCE
//!   two-level minimizer,
//! * [`encoding`] — binary, Gray and one-hot state codes,
//! * [`fsm`] — the paper's *generalized FSM address generator* (§3):
//!   a symbolic finite state machine with one state per sequence
//!   element, synthesized to gates under a chosen state encoding and
//!   output style (direct select lines for the decoder-decoupled
//!   memory, or a binary-coded address for a conventional RAM),
//! * [`techmap`] — technology mapping of covers onto the `vcl018`
//!   cell library (fan-in-bounded AND/OR trees) and fanout-buffer
//!   insertion,
//! * [`mapgen`] — structural generators for the regular blocks every
//!   generator needs: binary and modulo counters with
//!   logarithmic-depth carry networks, `n → 2ⁿ` decoders with shared
//!   predecoding, equality comparators and gate trees.
//!
//! # Example
//!
//! Minimize `f = a·b + a·b̄` to `a`:
//!
//! ```
//! use adgen_synth::cover::Cover;
//! use adgen_synth::espresso;
//!
//! let on = Cover::from_minterms(2, &[0b10, 0b11]); // a=1 (bit 1), b free
//! let min = espresso::minimize(on, Cover::empty(2));
//! assert_eq!(min.num_cubes(), 1);
//! assert_eq!(min.num_literals(), 1);
//! ```

pub mod cover;
pub mod cube;
pub mod encoding;
pub mod error;
pub mod espresso;
pub mod fsm;
pub mod mapgen;
pub mod memo;
pub mod techmap;

pub use cover::Cover;
pub use cube::{Cube, Tri};
pub use encoding::Encoding;
pub use error::{PriceError, SynthError};
pub use espresso::{EffortBudget, MinimizeOutcome};
pub use fsm::{price_cyclic, Fsm, OutputStyle, PricedFsm, SynthesizedFsm};
pub use memo::{MemoStats, MinimizeMemo};
