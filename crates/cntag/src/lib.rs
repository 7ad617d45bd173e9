//! The counter-based address generator with address decoders (CntAG)
//! — the paper's baseline architecture (§6).
//!
//! For regular access patterns, the established way to generate
//! addresses for a conventional RAM is a cascade of loop counters
//! whose bits compose the binary row and column addresses, which the
//! RAM's built-in decoders then expand into select lines (paper
//! Fig. 1). The paper chose this "counter-based style" as its
//! benchmark because it outperforms arithmetic-based generators on
//! regular patterns.
//!
//! This crate provides:
//!
//! * [`CntAgSpec`] — a cascade-of-counters program with bit mappings
//!   into the row/column address words, plus ready-made programs for
//!   every paper workload (raster/FIFO, motion estimation, transpose/
//!   DCT, zoom-by-two),
//! * [`CntAgSimulator`] — the behavioural model
//!   (implements [`AddressGenerator`](adgen_seq::AddressGenerator)),
//! * [`CntAgNetlist`] — gate-level elaboration *including* the row
//!   and column decoders (the circuitry the paper's area/delay
//!   figures attribute to the conventional design), and
//! * [`ComponentDelays`] — the per-component timing breakdown of
//!   paper Fig. 9 (counter, row decoder, column decoder), timed on
//!   the blocks [`CntAgNetlist::components`] takes from the
//!   elaborated design, together with the paper's serial delay
//!   accounting (counter + worst decoder), and
//! * [`arith`] — the *arithmetic-based* generator style the paper
//!   cites as the weaker conventional alternative (accumulator +
//!   delta ROM), provided both as a fallback for SRAG-unmappable
//!   patterns and to substantiate the paper's baseline choice.

pub mod arith;
pub mod compile;
pub mod netlist;
pub mod rom;
pub mod spec;

pub use arith::{ArithAgNetlist, ArithAgSimulator, ArithAgSpec};
pub use compile::compile_loop_nest;
pub use netlist::{CntAgNetlist, ComponentDelays, ComponentNetlists, ComponentTimer};
pub use rom::{RomAgNetlist, RomAgSimulator, RomAgSpec};
pub use spec::{BitSource, CntAgSimulator, CntAgSpec, CounterStage};
