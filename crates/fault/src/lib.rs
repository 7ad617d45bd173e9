//! Gate-level fault-injection campaigns for address generators.
//!
//! The paper's SRAG removes the address decoder entirely and drives
//! memory select lines straight from flip-flop outputs. That buys
//! speed and area — and loses the decoder's implicit immunity:
//! a decoder maps *every* counter state to *some* legal one-hot
//! pattern, while a shift-register ring has `2ⁿ − n` illegal states
//! that a single stuck-at or particle strike can reach and then
//! circulate forever. This crate measures that exposure and
//! validates the hardened (self-checking) SRAG variants that close
//! it:
//!
//! * [`model`] — stuck-at-0/1 on any net and single-event upsets on
//!   any flip-flop, as plain replayable data with stable `FAULT=`
//!   tokens, and [`fault_universe`], the one recipe every campaign's
//!   fault list comes from,
//! * [`campaign`] — the deterministic campaign engine: golden run,
//!   bit-sliced fault replay (63 faults + 1 golden lane per packed
//!   pass, each pass of upsets started from the golden checkpoint
//!   before its earliest strike, with the event-driven engine kept as
//!   a from-reset differential oracle),
//!   detected / silent / benign classification, one jobs-invariant
//!   parallel fan-out per call ([`run_campaigns`]) in which the passes
//!   trail the golden rows as they are published, and fuzz-style
//!   reproduction lines.
//!
//! # Example
//!
//! Exhaustive stuck-at campaign on a plain 4-line SRAG ring:
//!
//! ```
//! use adgen_core::{SragNetlist, SragSpec};
//! use adgen_fault::{enumerate_stuck_at, run_campaign, CampaignSpec};
//!
//! let design = SragNetlist::elaborate(&SragSpec::ring(4)).unwrap();
//! let spec = CampaignSpec { netlist: &design.netlist, cycles: 16, alarm_output: None };
//! let faults = enumerate_stuck_at(&design.netlist);
//! let report = run_campaign(&spec, &faults, 1);
//! assert_eq!(report.outcomes.len(), faults.len());
//! // A plain SRAG has no alarm: nothing is ever self-detected.
//! assert_eq!(report.alarmed(), 0);
//! ```

pub mod campaign;
pub mod model;

pub use campaign::{
    classify, replay, replay_event, repro_line, run_campaign, run_campaign_scalar, run_campaigns,
    CampaignReport, CampaignSpec, Classification, FaultOutcome, Trace, SLICED_FAULT_LANES,
};
pub use model::{
    driving_flip_flops, enumerate_stuck_at, fault_universe, flip_flop_ids, sample_seus, Fault,
};
