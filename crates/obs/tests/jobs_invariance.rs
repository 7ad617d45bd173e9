//! The headline determinism contract: an instrumented pipeline run
//! records the same span tree, the same counter totals and the same
//! redacted exporter bytes at any `--jobs` value. `par_map` makes
//! this true by capturing each item's recording on its worker thread
//! and splicing them back in input order; these tests pin the
//! contract end-to-end through the two heaviest consumers, the fuzz
//! case loop and the fault-injection campaigns, one alone and two in
//! one pipelined fan-out.

use adgen_core::{HardenedSragNetlist, SragNetlist, SragSpec};
use adgen_fault::{
    driving_flip_flops, enumerate_stuck_at, run_campaign, run_campaigns, sample_seus, CampaignSpec,
    SLICED_FAULT_LANES,
};
use adgen_fuzz::{run_fuzz, FuzzConfig};
use adgen_obs as obs;

fn assert_jobs_invariant(a: &obs::Recording, b: &obs::Recording) {
    for ctr in obs::Ctr::ALL {
        assert_eq!(a.counter(ctr), b.counter(ctr), "counter {}", ctr.name());
    }
    assert_eq!(a.spans.len(), b.spans.len(), "span count");
    assert_eq!(
        obs::profile_report(a, true),
        obs::profile_report(b, true),
        "redacted profile must be byte-identical"
    );
    assert_eq!(
        obs::chrome_trace(a, true),
        obs::chrome_trace(b, true),
        "redacted trace must be byte-identical"
    );
}

fn fuzz_recording(jobs: usize) -> obs::Recording {
    obs::start();
    let config = FuzzConfig {
        iters: 24,
        seed: 1,
        jobs,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&config);
    assert_eq!(report.outcomes.len(), 24);
    obs::take()
}

#[test]
fn fuzz_smoke_is_jobs_invariant() {
    let serial = fuzz_recording(1);
    let parallel = fuzz_recording(4);
    assert_jobs_invariant(&serial, &parallel);
    assert_eq!(serial.counter(obs::Ctr::FuzzCases), 24);
    assert_eq!(serial.counter(obs::Ctr::ParMapItems), 24);
}

fn campaign_recording(jobs: usize) -> (obs::Recording, usize) {
    let design = SragNetlist::elaborate(&SragSpec::ring(6)).expect("ring elaborates");
    let faults = enumerate_stuck_at(&design.netlist);
    let spec = CampaignSpec {
        netlist: &design.netlist,
        cycles: 12,
        alarm_output: None,
    };
    obs::start();
    let report = run_campaign(&spec, &faults, jobs);
    assert_eq!(report.outcomes.len(), faults.len());
    (obs::take(), faults.len())
}

#[test]
fn fault_campaign_is_jobs_invariant() {
    let (serial, num_faults) = campaign_recording(1);
    let (parallel, _) = campaign_recording(4);
    assert_jobs_invariant(&serial, &parallel);

    // The replay tally covers the golden run plus one run per fault,
    // and every fault lands in exactly one classification bucket.
    assert_eq!(
        serial.counter(obs::Ctr::FaultReplays),
        num_faults as u64 + 1
    );
    let classified = serial.counter(obs::Ctr::FaultDetected)
        + serial.counter(obs::Ctr::FaultSilent)
        + serial.counter(obs::Ctr::FaultBenign);
    assert_eq!(classified, num_faults as u64);
}

fn campaigns_recording(jobs: usize) -> (obs::Recording, usize, usize) {
    let plain = SragNetlist::elaborate(&SragSpec::ring(6)).expect("ring elaborates");
    let hard = HardenedSragNetlist::elaborate(&SragSpec::ring(5)).expect("ring elaborates");
    let mut plain_faults = enumerate_stuck_at(&plain.netlist);
    let plain_ffs = driving_flip_flops(&plain.netlist, &plain.select_lines);
    plain_faults.extend(sample_seus(&plain_ffs, 11, 90, 3));
    let mut hard_faults = enumerate_stuck_at(&hard.netlist);
    let hard_ffs = driving_flip_flops(&hard.netlist, &hard.ring_ffs);
    hard_faults.extend(sample_seus(&hard_ffs, 11, 90, 4));
    let plain_spec = CampaignSpec {
        netlist: &plain.netlist,
        cycles: 12,
        alarm_output: None,
    };
    let hard_spec = CampaignSpec {
        netlist: &hard.netlist,
        cycles: 12,
        alarm_output: Some(hard.alarm_output_index()),
    };
    obs::start();
    let reports = run_campaigns(
        &[(plain_spec, &plain_faults), (hard_spec, &hard_faults)],
        jobs,
    );
    let rec = obs::take();
    assert_eq!(reports.len(), 2);
    let chunks = [&plain_faults, &hard_faults]
        .iter()
        .map(|faults| faults.len().div_ceil(SLICED_FAULT_LANES))
        .sum();
    (rec, plain_faults.len() + hard_faults.len(), chunks)
}

#[test]
fn two_pipelined_campaigns_are_jobs_invariant() {
    let (serial, num_faults, chunks) = campaigns_recording(1);
    let (parallel, _, _) = campaigns_recording(4);
    assert_jobs_invariant(&serial, &parallel);
    assert!(chunks > 2, "each campaign spans several passes");

    // One fan-out: every pass plus one golden run per campaign, and
    // one replay per fault plus one golden replay per campaign.
    assert_eq!(serial.counter(obs::Ctr::ParMapCalls), 1);
    assert_eq!(serial.counter(obs::Ctr::ParMapItems), chunks as u64 + 2);
    assert_eq!(
        serial.counter(obs::Ctr::FaultReplays),
        num_faults as u64 + 2
    );
}

/// The nondeterministic surfaces really are confined to what
/// redaction elides: the full (unredacted) reports may differ across
/// jobs, but only in time columns and the timings section.
#[test]
fn only_timings_differ_unredacted() {
    let serial = fuzz_recording(1);
    let parallel = fuzz_recording(3);
    // Same tree, same counters…
    assert_jobs_invariant(&serial, &parallel);
    // …while the parallel run carries per-worker timing metrics the
    // serial path never emits.
    assert!(serial.timings.is_empty());
    assert!(parallel
        .timings
        .keys()
        .any(|k| k.starts_with("par_map.worker")));
}
