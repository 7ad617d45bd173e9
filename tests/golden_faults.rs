//! Golden test for every campaign fault universe: the `Fault::id`
//! token stream of each fault list a campaign replays, on the paper's
//! 4×4 Fig. 7 motion-estimation workload (the CI-sized `faultcamp`,
//! `simbench` and `explore4` runs):
//!
//! * the plain and hardened select-ring universes of
//!   `compare_resilience` (and `simbench`);
//! * the four `compare_four_way` row universes (FSM, SRAG, CntAG,
//!   affine);
//! * `faultcamp`'s CntAG universe (select lines) and affine universe
//!   (all outputs, all flip-flops).
//!
//! Campaign coverage is a pure function of these lists, so a refactor
//! of the fault recipe must reproduce each one token for token. If a
//! change to a universe is intentional, regenerate with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_faults
//! ```

mod common;

use common::assert_matches_golden;

use std::fmt::Write as _;

use adgen::affine::price_affine;
use adgen::explorer::{compare_four_way, ring_campaigns, ring_fault_universe};
use adgen::fault::{fault_universe, flip_flop_ids};
use adgen::netlist::{NetId, Netlist};
use adgen::prelude::*;
use adgen::synth::{price_cyclic, EffortBudget};

const SEED: u64 = 2026;
/// SEU samples of the smoke `faultcamp` and `simbench` campaigns.
const CAMPAIGN_SEUS: usize = 16;
/// SEU samples of the smoke `explore4` four-way rows.
const FOUR_WAY_SEUS: usize = 12;

/// Appends one universe: a header naming it and its size, then its
/// tokens, eight to a line.
fn section(out: &mut String, title: &str, faults: &[Fault]) {
    writeln!(out, "# {title}: {} faults", faults.len()).unwrap();
    for chunk in faults.chunks(8) {
        let tokens: Vec<String> = chunk.iter().map(Fault::id).collect();
        writeln!(out, "{}", tokens.join(" ")).unwrap();
    }
}

fn lines(a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    a.iter().chain(b).copied().collect()
}

/// The recipe over the design's primary outputs and all of its
/// flip-flops (the four-way rows and `faultcamp`'s affine variant).
fn outputs_universe(netlist: &Netlist, cycles: u32, seu_samples: usize) -> Vec<Fault> {
    fault_universe(
        netlist.outputs(),
        &flip_flop_ids(netlist),
        cycles,
        seu_samples,
        SEED,
    )
}

#[test]
fn every_campaign_fault_universe_matches_the_golden() {
    let shape = ArrayShape::new(4, 4);
    let seq = workloads::motion_est_read(shape, 2, 2, 0);
    let cycles = seq.len() as u32;
    let program = CntAgSpec::motion_est(shape, 2, 2, 0);
    let lib = Library::vcl018();
    let mut out = String::new();

    // The select-ring pair, as `compare_resilience` strikes it.
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).expect("fig. 7 maps");
    let plain = pair.elaborate().expect("plain pair elaborates");
    let hardened = pair.elaborate_hardened().expect("hardened pair elaborates");
    let [(_, plain_faults), (_, hard_faults)] =
        ring_campaigns(&plain, &hardened, cycles, CAMPAIGN_SEUS, SEED);
    // `benchmark/` still builds the pair's universes through
    // `ring_fault_universe`.
    let plain_ring = lines(&plain.row_lines, &plain.col_lines);
    let hard_lines = lines(&hardened.row_lines, &hardened.col_lines);
    let hard_ring = lines(&hardened.row_ring_ffs, &hardened.col_ring_ffs);
    let ring = |netlist, select_lines, ring_nets| {
        ring_fault_universe(
            netlist,
            select_lines,
            ring_nets,
            cycles,
            CAMPAIGN_SEUS,
            SEED,
        )
    };
    assert_eq!(ring(&plain.netlist, &plain_ring, &plain_ring), plain_faults);
    assert_eq!(
        ring(&hardened.netlist, &hard_lines, &hard_ring),
        hard_faults
    );
    let (row, plain_report, hard_report) =
        compare_resilience(&seq, shape, &lib, cycles, CAMPAIGN_SEUS, SEED, 1).unwrap();
    assert_eq!(row.faults, plain_faults.len());
    let replayed = |r: &CampaignReport| r.outcomes.iter().map(|o| o.fault).collect::<Vec<_>>();
    assert_eq!(replayed(&plain_report), plain_faults);
    assert_eq!(replayed(&hard_report), hard_faults);
    section(&mut out, "select-ring srag-plain", &plain_faults);
    section(&mut out, "select-ring srag-hardened", &hard_faults);

    // The four-way rows, each netlist built as `compare_four_way`
    // builds it.
    let bits = (shape.width().trailing_zeros() + shape.height().trailing_zeros()) as usize;
    let fsm = price_cyclic(
        seq.as_slice(),
        Encoding::Binary,
        OutputStyle::BinaryAddress { bits },
        EffortBudget::synthesis_default(),
        &lib,
    )
    .expect("fig. 7 FSM synthesizes");
    let cntag = CntAgNetlist::elaborate(&program).expect("fig. 7 CntAG elaborates");
    let fit = fit_sequence(seq.as_slice()).expect("fig. 7 fits affinely");
    let affine = price_affine(&fit, &lib).expect("fig. 7 affine AGU prices");
    let four_way = compare_four_way(&seq, shape, &program, &lib, cycles, FOUR_WAY_SEUS, SEED, 1)
        .expect("fig. 7 four-way comparison");
    let row_netlists = [
        ("fsm", &fsm.fsm.netlist),
        ("srag", &plain.netlist),
        ("cntag", &cntag.netlist),
        ("affine", &affine.agu.netlist),
    ];
    for ((name, netlist), row) in row_netlists.into_iter().zip(&four_way.rows) {
        let faults = outputs_universe(netlist, cycles, FOUR_WAY_SEUS);
        assert_eq!(row.faults, faults.len(), "{name} row universe size");
        section(&mut out, &format!("four-way {name}"), &faults);
    }

    // `faultcamp`'s CntAG variant: stuck-ats on the select lines, SEUs
    // over every counter flip-flop.
    let cnt_lines = lines(&cntag.row_lines, &cntag.col_lines);
    let cnt_faults = fault_universe(
        &cnt_lines,
        &flip_flop_ids(&cntag.netlist),
        cycles,
        CAMPAIGN_SEUS,
        SEED,
    );
    section(&mut out, "faultcamp cntag", &cnt_faults);

    // `faultcamp`'s affine variant: the fitted AGU's outputs and every
    // flip-flop, configuration chain included.
    let agu = AffineAgNetlist::elaborate(&fit.spec).expect("fitted spec elaborates");
    section(
        &mut out,
        "faultcamp affine",
        &outputs_universe(&agu.netlist, cycles, CAMPAIGN_SEUS),
    );

    assert_matches_golden("fault_universes.txt", &out, "a campaign fault universe");
}
