//! The campaign engine's output, pinned: the plain, hardened and
//! CntAG select-line campaigns on the 8x8 motion-estimation designs
//! hash to one recorded digest at every job count, run alone or all
//! three in one `run_campaigns` fan-out, and the engine's edge windows
//! (0 and 1 observed cycles, an empty fault list, a pass whose every
//! strike falls past the window) classify exactly as the event-driven
//! oracle does. A batch with an invalid netlist fails with its typed
//! error before anything is replayed.
//!
//! The digest was recorded before the engine pipelined its passes
//! behind the golden run; it is never re-blessed. A change to the
//! engine that moves it changed a classification.

use adgen_cntag::{CntAgNetlist, CntAgSpec};
use adgen_core::composite::Srag2d;
use adgen_core::{SragNetlist, SragSpec};
use adgen_exec::Fnv1a128;
use adgen_fault::{
    driving_flip_flops, enumerate_stuck_at, fault_universe, flip_flop_ids, run_campaign,
    run_campaign_scalar, run_campaigns, CampaignReport, CampaignSpec, Fault, SLICED_FAULT_LANES,
};
use adgen_netlist::{InstId, NetId, Netlist, NetlistError};
use adgen_obs as obs;
use adgen_seq::{workloads, ArrayShape, Layout};

/// FNV-1a-128 of the three reports below, recorded once.
const PINNED_DIGEST: &str = "05c26dd5241eaa91b675c3c005aa1edc";

/// SEUs sampled per campaign: with the select-line stuck-ats, several
/// passes per campaign, the last one partial.
const SEUS: usize = 300;

const SEED: u64 = 2026;

/// The three designs under test, each with its alarm output.
struct Designs {
    cycles: u32,
    plain: Netlist,
    plain_lines: Vec<NetId>,
    hardened: Netlist,
    hardened_lines: Vec<NetId>,
    hardened_ring: Vec<NetId>,
    hardened_alarm: usize,
    cntag: Netlist,
    cntag_lines: Vec<NetId>,
}

fn lines(a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    a.iter().chain(b).copied().collect()
}

fn designs() -> Designs {
    let shape = ArrayShape::new(8, 8);
    let seq = workloads::motion_est_read(shape, 2, 2, 0);
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).expect("the stream maps");
    let plain = pair.elaborate().expect("plain pair elaborates");
    let hardened = pair.elaborate_hardened().expect("hardened pair elaborates");
    let cntag = CntAgNetlist::elaborate(&CntAgSpec::motion_est(shape, 2, 2, 0))
        .expect("the CntAG elaborates");
    Designs {
        cycles: seq.len() as u32,
        plain_lines: lines(&plain.row_lines, &plain.col_lines),
        plain: plain.netlist,
        hardened_lines: lines(&hardened.row_lines, &hardened.col_lines),
        hardened_ring: lines(&hardened.row_ring_ffs, &hardened.col_ring_ffs),
        hardened_alarm: hardened.alarm_output_index(),
        hardened: hardened.netlist,
        cntag_lines: lines(&cntag.row_lines, &cntag.col_lines),
        cntag: cntag.netlist,
    }
}

impl Designs {
    /// The plain, hardened and CntAG campaigns over a `cycles` window:
    /// stuck-ats on every select line, SEUs on the ring flip-flops
    /// (every counter flip-flop for the CntAG).
    fn campaigns(&self, cycles: u32) -> Vec<(CampaignSpec<'_>, Vec<Fault>)> {
        let spec = |netlist, alarm_output| CampaignSpec {
            netlist,
            cycles,
            alarm_output,
        };
        let universe =
            |stuck: &[NetId], ffs: Vec<InstId>| fault_universe(stuck, &ffs, cycles, SEUS, SEED);
        vec![
            (
                spec(&self.plain, None),
                universe(
                    &self.plain_lines,
                    driving_flip_flops(&self.plain, &self.plain_lines),
                ),
            ),
            (
                spec(&self.hardened, Some(self.hardened_alarm)),
                universe(
                    &self.hardened_lines,
                    driving_flip_flops(&self.hardened, &self.hardened_ring),
                ),
            ),
            (
                spec(&self.cntag, None),
                universe(&self.cntag_lines, flip_flop_ids(&self.cntag)),
            ),
        ]
    }
}

/// Each campaign run alone.
fn alone(campaigns: &[(CampaignSpec<'_>, Vec<Fault>)], jobs: usize) -> Vec<CampaignReport> {
    campaigns
        .iter()
        .map(|(spec, faults)| run_campaign(spec, faults, jobs))
        .collect()
}

/// All campaigns in one fan-out.
fn together(campaigns: &[(CampaignSpec<'_>, Vec<Fault>)], jobs: usize) -> Vec<CampaignReport> {
    let batch: Vec<(CampaignSpec<'_>, &[Fault])> = campaigns
        .iter()
        .map(|(spec, faults)| (*spec, faults.as_slice()))
        .collect();
    run_campaigns(&batch, jobs).expect("every campaign netlist validates")
}

fn digest(reports: &[CampaignReport]) -> String {
    let mut h = Fnv1a128::default();
    for report in reports {
        h.write(format!("campaign {} cycles\n", report.cycles).as_bytes());
        for o in &report.outcomes {
            h.write(format!("{} {:?}\n", o.fault.id(), o.class).as_bytes());
        }
    }
    h.finish().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn the_motion_estimation_reports_match_their_pinned_digest() {
    let designs = designs();
    let campaigns = designs.campaigns(designs.cycles);
    for (_, faults) in &campaigns {
        assert!(faults.len() > 2 * SLICED_FAULT_LANES, "several passes each");
    }
    let serial = alone(&campaigns, 1);
    assert_eq!(digest(&serial), PINNED_DIGEST);
    for jobs in [1, 2, 4] {
        assert_eq!(alone(&campaigns, jobs), serial, "alone, jobs {jobs}");
        assert_eq!(together(&campaigns, jobs), serial, "together, jobs {jobs}");
    }
}

#[test]
fn edge_windows_match_the_event_driven_oracle() {
    let designs = designs();
    for cycles in [0, 1, 2] {
        let mut campaigns = designs.campaigns(cycles);
        // An empty fault list between two full ones.
        campaigns[1].1.clear();
        // A pass whose every strike falls past the window: it loads
        // the final golden states and steps nothing.
        let late: Vec<Fault> = flip_flop_ids(campaigns[2].0.netlist)
            .into_iter()
            .cycle()
            .take(SLICED_FAULT_LANES)
            .enumerate()
            .map(|(k, ff)| Fault::Seu {
                ff,
                cycle: cycles + 1 + k as u32 % 3,
            })
            .collect();
        campaigns[2].1 = late;
        let oracle: Vec<CampaignReport> = campaigns
            .iter()
            .map(|(spec, faults)| run_campaign_scalar(spec, faults, 1))
            .collect();
        for jobs in [1, 2, 4] {
            assert_eq!(
                alone(&campaigns, jobs),
                oracle,
                "cycles {cycles}, jobs {jobs}"
            );
        }
    }
}

#[test]
fn an_undriven_net_in_the_second_campaign_fails_the_batch_before_any_replay() {
    let design = SragNetlist::elaborate(&SragSpec::ring(4)).expect("the ring elaborates");
    let mut undriven = design.netlist.clone();
    undriven.add_net("floating");
    let faults = enumerate_stuck_at(&design.netlist);
    let spec = |netlist| CampaignSpec {
        netlist,
        cycles: 8,
        alarm_output: None,
    };
    for jobs in [1, 2] {
        obs::start();
        let result = run_campaigns(
            &[(spec(&design.netlist), &faults), (spec(&undriven), &faults)],
            jobs,
        );
        let rec = obs::take();
        assert_eq!(
            result,
            Err(NetlistError::UndrivenNet {
                net: "floating".to_string()
            }),
            "jobs {jobs}"
        );
        assert_eq!(rec.counter(obs::Ctr::FaultReplays), 0, "jobs {jobs}");
    }
}
