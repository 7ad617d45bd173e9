//! Runtime-programmable affine address generation (the fourth
//! generator family).
//!
//! The paper's three generators — FSM, SRAG, CntAG — are all
//! *sequence-specialized*: change the access pattern and you
//! resynthesize the circuit. Production reconfigurable fabrics take
//! the opposite trade: a fixed, runtime-programmable nested-loop
//! address generator in the style of IObundle Versat's
//! `xaddrgen`/`xaddrgen2`. This crate supplies that family:
//!
//! * [`spec`] — the programming model: two chained affine levels,
//!   each with `start`/`iterations`/`period`/`duty`/`shift`/`incr`
//!   parameters, a closed-form reference stream, and a behavioural
//!   [`AffineSimulator`] implementing the workspace-wide
//!   `AddressGenerator` trait.
//! * [`mapper`] — [`fit_sequence`]: fits an arbitrary 1-D address
//!   sequence into affine parameters exactly when possible, otherwise
//!   returns the longest affine prefix plus the *residual*
//!   subsequence that still needs an FSM (the hybrid affine+FSM
//!   generator). Every fit is verified by replay before it is
//!   returned, so `affine part + residual == input` holds by
//!   construction.
//! * [`netlist`] — [`AffineAgNetlist::elaborate`]: a structural
//!   gate-level AGU through the shared netlist IR. The programming
//!   registers sit on a serial `prog_en`/`prog_bit` shift chain and
//!   reset to a baked-in default program (XOR-default storage), so
//!   the same circuit works both freshly reset inside a fault
//!   campaign and reprogrammed over the chain.
//! * [`price`] — [`price_affine`]: the family's one delay/area price,
//!   the AGU beside a binary FSM for any residual.
//!
//! The three simulation engines (levelized, event-driven, bit-sliced)
//! and the STA/area reports all drive the emitted netlist unchanged.

pub mod error;
pub mod mapper;
pub mod netlist;
pub mod price;
pub mod spec;

pub use error::{AffineError, AffinePriceError};
pub use mapper::{fit_sequence, AffineFit, MAX_MAP_LEN};
pub use netlist::{AffineAgNetlist, AffineOutputs};
pub use price::{price_affine, PricedAffine};
pub use spec::{AffineLevel, AffineSimulator, AffineSpec, MAX_ADDR_WIDTH, MAX_CNT_WIDTH};
