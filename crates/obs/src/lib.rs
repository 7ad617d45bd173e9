//! # adgen-obs — zero-dependency observability for the workspace
//!
//! The synthesis/STA/fuzz/fault pipelines are long-running and, until
//! this crate, opaque: `repro` and `faultcamp` emitted only final
//! JSON. `adgen-obs` makes them inspectable without adding a single
//! external dependency:
//!
//! * **Hierarchical spans** — [`span("espresso.expand")`](span)-style
//!   RAII guards recording wall-clock into a thread-local arena.
//! * **Typed counters** — the fixed [`Ctr`] enum: espresso steps
//!   consumed vs. `EffortBudget`, cube-kernel word ops, memo hit/miss
//!   in `TimingContext` and CntAG component elaboration,
//!   fault-campaign tallies, fuzz case/shrink counts, `par_map`
//!   fan-out stats.
//! * **Stitching** — `adgen_exec::par_map` wraps each work item in
//!   [`capture`] on its worker thread and [`splice`]s the per-item
//!   recordings back into the caller *in input order*, so span trees
//!   and counter totals are byte-identical at any `--jobs` value.
//!   Wall-clock durations (and the free-form [`timing`] metrics, e.g.
//!   per-worker busy time) are the only nondeterministic fields.
//! * **Two exporters** — a Chrome trace-event JSON
//!   ([`chrome_trace`], loadable in Perfetto / `chrome://tracing`)
//!   and a deterministic self/total text profile
//!   ([`profile_report`]). Both elide the nondeterministic fields
//!   under redaction (the `OBS_REDACT=1` convention), so their output
//!   byte-compares in golden and jobs-invariance tests.
//! * **One set of flags** — [`take_obs_args`] strips `--trace FILE`
//!   and `--metrics` from a binary's arguments into [`ObsArgs`], and
//!   [`export_session`] writes what they asked for.
//!
//! ## Usage
//!
//! ```
//! use adgen_obs as obs;
//!
//! obs::start();
//! {
//!     let _s = obs::span("my.phase");
//!     obs::add(obs::Ctr::EspressoSteps, 42);
//! }
//! let rec = obs::take();
//! let trace_json = obs::chrome_trace(&rec, /*redact=*/ false);
//! let report = obs::profile_report(&rec, obs::redact_from_env());
//! assert!(obs::json::validate_chrome_trace(&trace_json).is_ok());
//! assert!(report.contains("my.phase"));
//! ```
//!
//! Recording is disabled (one relaxed atomic load per entry point)
//! unless a session is active, so the instrumented hot paths cost
//! nothing in ordinary runs.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod cli;
pub mod json;
pub mod record;
pub mod report;
pub mod trace;

pub use cli::{take_obs_args, ObsArgs};
pub use record::{
    add, capture, enabled, redact_from_env, span, span_arg, splice, start, take, timing, Ctr,
    Recording, SpanGuard, SpanRecord, NUM_CTRS,
};
pub use report::{
    export_session, metrics_json_block, profile_report, worker_imbalance, WorkerImbalance,
};
pub use trace::chrome_trace;
