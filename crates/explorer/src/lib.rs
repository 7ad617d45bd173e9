//! Design-space exploration over address-generator architectures.
//!
//! The paper closes with: *"Our final goal is to discover algorithms
//! and heuristics which can explore the vast design space opened up
//! by address decoder decoupling at a high level of abstraction and
//! choose the best architecture for low level circuit optimization."*
//! This crate is that layer: given an address sequence, it
//! enumerates the implementable architectures (SRAG, multi-counter
//! SRAG, counter-plus-decoder baseline, symbolic FSM), evaluates each
//! candidate's delay and area on the `vcl018` library, computes the
//! Pareto frontier and selects under constraints.
//!
//! It also hosts the SRAG-versus-CntAG comparison harness
//! ([`compare`]) that the benchmark suite uses to regenerate the
//! paper's Figures 8–10 and Table 3.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod banked;
pub mod candidates;
pub mod compare;
pub mod four_way;
pub mod pareto;
pub mod report;
pub mod resilience;

pub use banked::{compare_banked, BankedComparison};
pub use candidates::{
    evaluate, evaluate_jobs, Architecture, Candidate, EvaluateOptions, Evaluation, FamilyError,
};
pub use compare::{
    compare_power, compare_srag_cntag, compare_srag_cntag_load_sweep, ComparisonRow,
    PowerComparisonRow,
};
pub use four_way::{compare_four_way, verify_affine_bit_exact, FourWayComparison, FourWayRow};
pub use pareto::{pareto_frontier, select, Constraint};
pub use report::render_evaluation;
pub use resilience::{compare_resilience, ring_campaigns, ring_fault_universe, ResilienceRow};
