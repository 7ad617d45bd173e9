//! Golden tests for the two observability exporters
//! (`obs::chrome_trace`, `obs::profile_report`).
//!
//! Each test replays a deterministic instrumented scenario and
//! byte-compares the *redacted* exporter output — the `OBS_REDACT=1`
//! form, with every timestamp/duration elided — against a checked-in
//! golden under `tests/golden/`. Span trees, arguments, counter
//! totals and event ordering are pure functions of the scenario
//! inputs, so any byte difference is a real change to the exported
//! format — review it, then regenerate with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_obs
//! ```

mod common;

use common::assert_matches_golden;

use adgen::exec::par_map;
use adgen::netlist::{Library, TimingAnalysis};
use adgen::obs;
use adgen::obs::json::validate_chrome_trace;
use adgen::prelude::*;
use adgen::synth::espresso::minimize_budgeted;
use adgen::synth::{Cover, EffortBudget};

/// One espresso minimization of a fixed 4-input cover: exercises the
/// `espresso.minimize` → expand/irredundant/reduce span hierarchy and
/// the steps/word-ops counters.
fn minimize_recording() -> obs::Recording {
    obs::start();
    let on = Cover::from_minterms(4, &[0, 1, 2, 3, 8, 9, 10, 11]);
    let outcome = minimize_budgeted(on, Cover::empty(4), EffortBudget::UNLIMITED);
    assert!(!outcome.truncated);
    obs::take()
}

/// A `par_map` STA sweep: four load points over a ring-8 SRAG at
/// `--jobs 2`, exercising the capture/splice stitching that makes the
/// recorded tree jobs-invariant.
fn sweep_recording() -> obs::Recording {
    let design = SragNetlist::elaborate(&SragSpec::ring(8)).expect("ring elaborates");
    let library = Library::vcl018();
    obs::start();
    let loads = [0.0f64, 40.0, 80.0, 120.0];
    let critical: Vec<f64> = par_map(&loads, 2, |_, &load| {
        TimingAnalysis::run_with_output_load(&design.netlist, &library, load)
            .expect("sta runs")
            .critical_path_ps()
    });
    assert!(critical.iter().all(|&ps| ps > 0.0));
    obs::take()
}

#[test]
fn minimize_trace_matches_golden() {
    let rec = minimize_recording();
    let text = obs::chrome_trace(&rec, true);
    validate_chrome_trace(&text).expect("golden trace passes the schema check");
    assert_matches_golden("trace_minimize.json", &text, "exporter output");
}

#[test]
fn minimize_profile_matches_golden() {
    let rec = minimize_recording();
    assert_matches_golden(
        "profile_minimize.txt",
        &obs::profile_report(&rec, true),
        "exporter output",
    );
}

#[test]
fn sweep_trace_matches_golden() {
    let rec = sweep_recording();
    let text = obs::chrome_trace(&rec, true);
    validate_chrome_trace(&text).expect("golden trace passes the schema check");
    assert_matches_golden("trace_sweep.json", &text, "exporter output");
}

#[test]
fn sweep_profile_matches_golden() {
    let rec = sweep_recording();
    assert_matches_golden(
        "profile_sweep.txt",
        &obs::profile_report(&rec, true),
        "exporter output",
    );
}
