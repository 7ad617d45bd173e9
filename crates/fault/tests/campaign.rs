//! Campaign-engine guarantees: the fault-free replay reproduces the
//! golden address stream exactly, an injected select-line stuck-at
//! is detected and classified, the levelized and event-driven
//! replays agree under injection, and campaign output is
//! byte-identical across worker counts. Mirrors
//! `crates/fuzz/tests/determinism.rs` for the fault engine.

use std::collections::{HashMap, HashSet};

use adgen_affine::{fit_sequence, AffineAgNetlist};
use adgen_cntag::{CntAgNetlist, CntAgSpec};
use adgen_core::{HardenedSragNetlist, SragNetlist, SragSpec};
use adgen_exec::Prng;
use adgen_fault::{
    classify, driving_flip_flops, enumerate_stuck_at, flip_flop_ids, replay, replay_event,
    run_campaign, run_campaign_scalar, sample_seus, CampaignSpec, Classification, Fault,
    SLICED_FAULT_LANES,
};
use adgen_netlist::{Logic, Netlist, Simulator};
use adgen_seq::{workloads, ArrayShape};

fn ring_spec(n: u32) -> SragSpec {
    SragSpec::ring(n)
}

#[test]
fn fault_free_campaign_reproduces_golden_stream() {
    let design = SragNetlist::elaborate(&ring_spec(6)).unwrap();
    let spec = CampaignSpec {
        netlist: &design.netlist,
        cycles: 18,
        alarm_output: None,
    };
    let golden = replay(&spec, None);
    // Replay is deterministic...
    assert_eq!(golden, replay(&spec, None));
    // ...classified as benign against itself...
    assert_eq!(classify(&golden, &golden, None), Classification::Benign);
    // ...and equals a directly-driven simulation of the same design:
    // the one-hot select walks the ring, wrapping every 6 cycles.
    let mut sim = Simulator::new(&design.netlist).unwrap();
    sim.step_bools(&[true, false]).unwrap();
    for (cycle, outputs) in golden.outputs.iter().enumerate() {
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(outputs, &sim.output_values(), "cycle {}", cycle + 1);
        assert_eq!(design.observed_address(&sim), Some((cycle as u32) % 6));
    }
}

#[test]
fn select_line_stuck_at_is_detected() {
    let design = SragNetlist::elaborate(&ring_spec(4)).unwrap();
    let spec = CampaignSpec {
        netlist: &design.netlist,
        cycles: 12,
        alarm_output: None,
    };
    for (line, &net) in design.select_lines.iter().enumerate() {
        for value in [false, true] {
            let report = run_campaign(&spec, &[Fault::StuckAt { net, value }], 1);
            match report.outcomes[0].class {
                Classification::Detected { cycle, alarm } => {
                    assert!(!alarm, "plain SRAG has no alarm output");
                    // The corruption is visible as soon as the token
                    // does (sa0) or does not (sa1) sit on the line.
                    assert!(
                        cycle <= 4,
                        "line {line} sa{} seen at cycle {cycle}",
                        u8::from(value)
                    );
                }
                other => panic!(
                    "line {line} stuck-at-{} classified {other:?}",
                    u8::from(value)
                ),
            }
        }
    }
}

#[test]
fn levelized_and_event_replays_agree_under_injection() {
    let hard = HardenedSragNetlist::elaborate(&ring_spec(5)).unwrap();
    let spec = CampaignSpec {
        netlist: &hard.netlist,
        cycles: 15,
        alarm_output: Some(hard.alarm_output_index()),
    };
    assert_eq!(replay(&spec, None), replay_event(&spec, None));
    let ffs = driving_flip_flops(&hard.netlist, &hard.ring_ffs);
    let mut faults = sample_seus(&ffs, 15, 6, 0xc0ffee);
    faults.extend(enumerate_stuck_at(&hard.netlist).into_iter().step_by(7));
    for fault in faults {
        assert_eq!(
            replay(&spec, Some(fault)),
            replay_event(&spec, Some(fault)),
            "simulators disagree on fault {}",
            fault.id()
        );
    }
}

#[test]
fn campaign_output_is_identical_across_job_counts() {
    let hard = HardenedSragNetlist::elaborate(&ring_spec(4)).unwrap();
    let spec = CampaignSpec {
        netlist: &hard.netlist,
        cycles: 16,
        alarm_output: Some(hard.alarm_output_index()),
    };
    let faults = enumerate_stuck_at(&hard.netlist);
    let serial = run_campaign(&spec, &faults, 1);
    let parallel = run_campaign(&spec, &faults, 4);
    assert_eq!(
        serial, parallel,
        "campaign outcomes must be byte-identical at any --jobs value"
    );
    assert_eq!(serial.summary(), parallel.summary());
}

#[test]
fn hardened_ring_alarms_every_sampled_seu() {
    let hard = HardenedSragNetlist::elaborate(&ring_spec(6)).unwrap();
    let cycles = 24;
    let spec = CampaignSpec {
        netlist: &hard.netlist,
        cycles,
        alarm_output: Some(hard.alarm_output_index()),
    };
    let ffs = driving_flip_flops(&hard.netlist, &hard.ring_ffs);
    let faults = sample_seus(&ffs, cycles - 1, 32, 2026);
    let report = run_campaign(&spec, &faults, 2);
    for outcome in &report.outcomes {
        match outcome.class {
            Classification::Detected { alarm: true, .. } | Classification::Benign => {}
            other => panic!(
                "ring SEU {} escaped the checker: {other:?}",
                outcome.fault.id()
            ),
        }
    }
    assert_eq!(report.alarm_coverage_pct(), 100.0);
}

#[test]
fn plain_ring_suffers_silent_or_unalarmed_corruption() {
    let design = SragNetlist::elaborate(&ring_spec(6)).unwrap();
    let cycles = 24;
    let spec = CampaignSpec {
        netlist: &design.netlist,
        cycles,
        alarm_output: None,
    };
    let ffs = driving_flip_flops(&design.netlist, &design.select_lines);
    let faults = sample_seus(&ffs, cycles - 1, 32, 2026);
    let report = run_campaign(&spec, &faults, 2);
    assert_eq!(report.alarmed(), 0, "plain SRAG cannot self-detect");
    assert!(
        report
            .outcomes
            .iter()
            .all(|o| o.class != Classification::Benign),
        "an SEU on a plain ring always corrupts the one-hot token"
    );
}

#[test]
fn sliced_campaign_matches_scalar_campaign() {
    // The sliced engine packs 63 faults + 1 golden lane per pass; its
    // classifications must be byte-identical to one-replay-per-fault.
    // The hardened ring exercises alarm-first detection, the plain
    // ring exercises silent corruption; both universes span several
    // chunks so partial last chunks and chunk seams are covered.
    let hard = HardenedSragNetlist::elaborate(&ring_spec(5)).unwrap();
    let plain = SragNetlist::elaborate(&ring_spec(6)).unwrap();
    let mut universes = Vec::new();
    {
        let mut faults = enumerate_stuck_at(&hard.netlist);
        let ffs = driving_flip_flops(&hard.netlist, &hard.ring_ffs);
        faults.extend(sample_seus(&ffs, 14, 80, 0xbead));
        universes.push((
            CampaignSpec {
                netlist: &hard.netlist,
                cycles: 15,
                alarm_output: Some(hard.alarm_output_index()),
            },
            faults,
        ));
    }
    {
        let mut faults = enumerate_stuck_at(&plain.netlist);
        let ffs = driving_flip_flops(&plain.netlist, &plain.select_lines);
        faults.extend(sample_seus(&ffs, 17, 80, 0xbead));
        universes.push((
            CampaignSpec {
                netlist: &plain.netlist,
                cycles: 18,
                alarm_output: None,
            },
            faults,
        ));
    }
    for (spec, faults) in &universes {
        assert!(
            faults.len() > SLICED_FAULT_LANES,
            "universe must span multiple sliced passes"
        );
        let sliced = run_campaign(spec, faults, 1);
        let scalar = run_campaign_scalar(spec, faults, 1);
        assert_eq!(sliced, scalar);
        // A chunk-sized prefix and a tiny universe keep the
        // exactly-one-word and single-fault paths covered too.
        for take in [1, SLICED_FAULT_LANES] {
            let sub = &faults[..take];
            assert_eq!(
                run_campaign(spec, sub, 1),
                run_campaign_scalar(spec, sub, 1),
                "prefix of {take} faults"
            );
        }
    }
}

#[test]
fn forced_alarm_value_is_logic_stable() {
    // The alarm probe treats only a hard `1` as detection: an X on
    // the alarm (possible only pre-reset, which the window excludes)
    // must not count.
    let hard = HardenedSragNetlist::elaborate(&ring_spec(3)).unwrap();
    let spec = CampaignSpec {
        netlist: &hard.netlist,
        cycles: 9,
        alarm_output: Some(hard.alarm_output_index()),
    };
    let golden = replay(&spec, None);
    for row in &golden.outputs {
        assert_eq!(row[hard.alarm_output_index()], Logic::Zero);
    }
}

/// A design under a campaign window.
struct Design {
    name: &'static str,
    netlist: Netlist,
    alarm_output: Option<usize>,
    cycles: u32,
}

impl Design {
    fn spec(&self) -> CampaignSpec<'_> {
        CampaignSpec {
            netlist: &self.netlist,
            cycles: self.cycles,
            alarm_output: self.alarm_output,
        }
    }
}

/// The four families the campaigns run on: plain and hardened SRAG
/// rings, a CntAG and an affine AGU, the last two on a 4x4
/// motion-estimation stream.
fn designs() -> Vec<Design> {
    let shape = ArrayShape::new(4, 4);
    let plain = SragNetlist::elaborate(&ring_spec(5)).unwrap();
    let hard = HardenedSragNetlist::elaborate(&ring_spec(4)).unwrap();
    let cntag = CntAgNetlist::elaborate(&CntAgSpec::motion_est(shape, 2, 2, 0)).unwrap();
    let stream = workloads::motion_est_read(shape, 2, 2, 0);
    let fit = fit_sequence(stream.as_slice()).unwrap();
    let affine = AffineAgNetlist::elaborate(&fit.spec).unwrap();
    vec![
        Design {
            name: "srag-plain",
            netlist: plain.netlist,
            alarm_output: None,
            cycles: 13,
        },
        Design {
            name: "srag-hardened",
            alarm_output: Some(hard.alarm_output_index()),
            netlist: hard.netlist,
            cycles: 11,
        },
        Design {
            name: "cntag",
            netlist: cntag.netlist,
            alarm_output: None,
            cycles: 16,
        },
        Design {
            name: "affine",
            netlist: affine.netlist,
            alarm_output: None,
            cycles: stream.len() as u32,
        },
    ]
}

/// A seeded random universe: a stuck-at on every net, an upset on
/// every flip-flop at cycle 0, 1, the last cycle and past the window,
/// sampled upsets, and repeats of random picks, shuffled. With
/// `stuck_at` false it holds the upsets only.
fn random_universe(design: &Design, seed: u64, stuck_at: bool) -> Vec<Fault> {
    let mut faults = if stuck_at {
        enumerate_stuck_at(&design.netlist)
    } else {
        Vec::new()
    };
    let ffs = flip_flop_ids(&design.netlist);
    let last = design.cycles;
    for &ff in &ffs {
        for cycle in [0, 1, last, last + 1, last + 9] {
            faults.push(Fault::Seu { ff, cycle });
        }
    }
    faults.extend(sample_seus(&ffs, last, 128, seed));
    let mut rng = Prng::for_stream(seed, 0xd0b1e);
    for _ in 0..faults.len() / 8 {
        let pick = faults[rng.next_range(faults.len() as u64) as usize];
        faults.push(pick);
    }
    rng.shuffle(&mut faults);
    faults
}

/// The event-driven oracle's class of every fault in `faults`,
/// replaying only the faults not yet in `oracle`.
fn oracle_classes(
    spec: &CampaignSpec<'_>,
    faults: &[Fault],
    oracle: &mut HashMap<Fault, Classification>,
) {
    let missing: HashSet<Fault> = faults
        .iter()
        .copied()
        .filter(|f| !oracle.contains_key(f))
        .collect();
    let missing: Vec<Fault> = missing.into_iter().collect();
    for outcome in run_campaign_scalar(spec, &missing, 2).outcomes {
        oracle.insert(outcome.fault, outcome.class);
    }
}

#[test]
fn checkpointed_campaign_matches_from_reset_oracle() {
    // Passes of upsets start at their earliest strike from a golden
    // checkpoint; the event-driven oracle replays every fault from
    // reset. On random universes of every family the two must
    // classify every fault alike, at one job and at two, over the
    // word-sized prefixes and the whole universe.
    let (mut silent, mut benign) = (0, 0);
    for design in designs() {
        let spec = design.spec();
        let mut oracle = HashMap::new();
        for seed in [1u64, 2, 3] {
            for stuck_at in [true, false] {
                let universe = random_universe(&design, seed, stuck_at);
                assert!(universe.len() > 127, "{} universe too small", design.name);
                oracle_classes(&spec, &universe, &mut oracle);
                for take in [1, SLICED_FAULT_LANES, 64, 127, universe.len()] {
                    let faults = &universe[..take];
                    let report = run_campaign(&spec, faults, 1);
                    assert_eq!(report.cycles, design.cycles);
                    for (outcome, fault) in report.outcomes.iter().zip(faults) {
                        assert_eq!(outcome.fault, *fault, "outcomes keep fault-list order");
                        assert_eq!(
                            outcome.class,
                            oracle[fault],
                            "{} seed {seed}, {take} faults: {}",
                            design.name,
                            fault.id()
                        );
                    }
                    assert_eq!(report, run_campaign(&spec, faults, 2), "--jobs 1 vs 2");
                }
            }
        }
        for class in oracle.values() {
            silent += usize::from(*class == Classification::Silent);
            benign += usize::from(*class == Classification::Benign);
        }
    }
    assert!(silent > 0, "the universes hold no Silent fault");
    assert!(benign > 0, "the universes hold no Benign fault");
}
