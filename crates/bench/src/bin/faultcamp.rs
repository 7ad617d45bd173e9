//! `faultcamp` — gate-level fault-injection campaign on the paper's
//! Fig. 7 motion-estimation workload.
//!
//! Four variants of the same address stream are struck by the one
//! campaign recipe, `adgen_fault::fault_universe`: stuck-at-0/1 on a
//! list of nets plus seed-reproducible SEUs over a list of
//! flip-flops.
//!
//! * `srag-plain`    — the paper's SRAG pair: select lines straight
//!   from flip-flops, no protection; stuck-ats on every select line,
//!   SEUs on the ring flip-flops;
//! * `srag-hardened` — the self-checking variant: one-hot checker,
//!   `alarm` output, watchdog resync; the same select-ring universe;
//! * `cntag`         — the counter-plus-decoder baseline, whose
//!   decoder structurally remaps every fault to *some* legal select;
//!   stuck-ats on every select line, SEUs over every flip-flop;
//! * `affine`        — the programmable affine AGU fitted to the same
//!   stream, under stuck-ats on all of its primary outputs plus SEUs
//!   over all of its flip-flops (datapath *and* configuration chain).
//!
//! ```text
//! cargo run --release -p adgen-bench --bin faultcamp              # 8x8 array
//! cargo run --release -p adgen-bench --bin faultcamp -- --smoke   # 4x4, CI-sized
//! cargo run --release -p adgen-bench --bin faultcamp -- --jobs 4 --seed 7
//! cargo run --release -p adgen-bench --bin faultcamp -- --fault seu@i3#c9
//! ```
//!
//! `--fault TOKEN` replays a single fault against the hardened pair
//! and prints its classification plus the reproduction line — the
//! fuzz-style `SEED=… FAULT=…` repro loop.
//!
//! Full-size campaign runs write `BENCH_fault.json` with per-variant
//! coverage and the area/delay price of hardening; `--smoke` runs
//! write `target/bench-smoke/BENCH_fault.json` and leave the committed
//! record alone. The process exits nonzero if the hardened pair fails
//! to self-detect every effective fault in the universe (its design
//! contract).
//!
//! Observability (see `DESIGN.md` §9): `--trace FILE` writes a Chrome
//! trace-event JSON, `--metrics` prints the deterministic profile and
//! appends a `"metrics"` block to the record. The JSON goes through a
//! drop guard, so a campaign that panics mid-run still flushes the
//! variants that completed, marked `"truncated": true`.

use std::process::ExitCode;

use adgen_bench::obs_cli::{array, flag_value, Field, ObsJsonSink};
use adgen_bench::Fig7Recipe;

use adgen_affine::{fit_sequence, AffineAgNetlist};
use adgen_bank::netlist::{reset_inputs, tick_inputs};
use adgen_bank::{window_schedule, BankMap, Decomposition, FoldAgNetlist, Interleaver};
use adgen_cntag::netlist::SELECT_LINE_LOAD_FF;
use adgen_cntag::CntAgNetlist;
use adgen_core::composite::Srag2d;
use adgen_exec::Prng;
use adgen_explorer::compare_resilience;
use adgen_fault::{
    classify, fault_universe, flip_flop_ids, replay, repro_line, run_campaign, CampaignReport,
    CampaignSpec, Classification, Fault,
};
use adgen_netlist::{AreaReport, Library, NetId, Simulator, TimingAnalysis};
use adgen_seq::{ArrayShape, Layout};

/// One row of the JSON report.
struct VariantResult {
    name: &'static str,
    report: CampaignReport,
    area: f64,
    delay_ps: f64,
}

/// Single-bank SEU containment tally over the banked generator fleet.
struct BankedContainment {
    n: u32,
    banks: u32,
    window: u32,
    trials: usize,
    /// Trials where the upset bank's address stream diverged.
    disturbed: usize,
    /// Trials where every *other* bank stayed bit-exact to golden.
    contained: usize,
    /// Trials where a non-upset bank diverged — the gate failure.
    breached: usize,
}

/// Everything `BENCH_fault.json` reports, accumulated per variant so
/// a panicking campaign still flushes the finished ones.
struct FaultState {
    shape: ArrayShape,
    cycles: u32,
    seed: u64,
    seu_samples: usize,
    variants: Vec<VariantResult>,
    row: Option<adgen_explorer::ResilienceRow>,
    banked: Option<BankedContainment>,
}

fn main() -> ExitCode {
    let mut jobs = 0usize;
    let mut seed = 2026u64;
    let mut smoke = false;
    let mut fault_token: Option<String> = None;
    let (raw, obs_args) = adgen_obs::take_obs_args(std::env::args().skip(1).collect());
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--jobs" | "-j" => jobs = flag_value(&mut args, &a),
            "--seed" => seed = flag_value(&mut args, &a),
            "--fault" => {
                fault_token = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --fault needs a token (e.g. sa0@n12, seu@i3#c9)");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!(
                    "usage: faultcamp [--smoke] [--jobs N] [--seed N] [--fault TOKEN] \
                     [--trace FILE] [--metrics]"
                );
                std::process::exit(2);
            }
        }
    }

    // Fig. 7 configuration: block-matching motion estimation, 2x2
    // macroblocks. The smoke size keeps the full select-line
    // stuck-at list but on the 4x4 array.
    let recipe = Fig7Recipe::new(smoke);
    let shape = recipe.shape;
    let seq = recipe.sequence();
    let cycles = recipe.cycles();
    let seu_samples = recipe.seu_samples;
    let lib = Library::vcl018();

    if let Some(token) = fault_token {
        return replay_single(&seq, shape, &token, cycles, seed);
    }

    println!(
        "faultcamp: motion_est {}x{} mb=2, {} cycles, {} SEU samples, seed {}",
        shape.width(),
        shape.height(),
        cycles,
        seu_samples,
        seed
    );

    // Accumulates per-variant results and owns the obs session;
    // flushes BENCH_fault.json on finish or panic.
    let mut sink = ObsJsonSink::new(
        "BENCH_fault.json",
        smoke,
        obs_args,
        FaultState {
            shape,
            cycles,
            seed,
            seu_samples,
            variants: Vec::new(),
            row: None,
            banked: None,
        },
        render_fault_json,
    );

    let (row, plain_report, hard_report) =
        compare_resilience(&seq, shape, &lib, cycles, seu_samples, seed, jobs)
            .expect("paper workload maps and elaborates");
    sink.state().variants.push(VariantResult {
        name: "srag-plain",
        report: plain_report,
        area: row.plain_area,
        delay_ps: row.plain_delay_ps,
    });
    sink.state().variants.push(VariantResult {
        name: "srag-hardened",
        report: hard_report,
        area: row.hardened_area,
        delay_ps: row.hardened_delay_ps,
    });
    sink.state().row = Some(row.clone());

    let cntag = CntAgNetlist::elaborate(&recipe.cntag_program())
        .expect("paper workload elaborates as CntAG");
    let cnt_lines: Vec<NetId> = cntag
        .row_lines
        .iter()
        .chain(&cntag.col_lines)
        .copied()
        .collect();
    let cnt_faults = fault_universe(
        &cnt_lines,
        &flip_flop_ids(&cntag.netlist),
        cycles,
        seu_samples,
        seed,
    );
    let cnt_spec = CampaignSpec {
        netlist: &cntag.netlist,
        cycles,
        alarm_output: None,
    };
    let cnt_report = run_campaign(&cnt_spec, &cnt_faults, jobs);
    let cnt_timing =
        TimingAnalysis::run_with_output_load(&cntag.netlist, &lib, SELECT_LINE_LOAD_FF)
            .expect("CntAG times");
    sink.state().variants.push(VariantResult {
        name: "cntag",
        report: cnt_report,
        area: AreaReport::of(&cntag.netlist, &lib).total(),
        delay_ps: cnt_timing.critical_path_ps(),
    });

    // The programmable family, fitted to the same stream. Its
    // universe adds the configuration chain to the SEU target list —
    // the resilience price of programmability is part of the result.
    let fit = fit_sequence(seq.as_slice()).expect("paper workload fits affinely");
    assert!(
        fit.is_exact(),
        "motion-est stream must fit without residual"
    );
    let affine = AffineAgNetlist::elaborate(&fit.spec).expect("fitted spec elaborates");
    let aff_faults = fault_universe(
        affine.netlist.outputs(),
        &flip_flop_ids(&affine.netlist),
        cycles,
        seu_samples,
        seed,
    );
    let aff_spec = CampaignSpec {
        netlist: &affine.netlist,
        cycles,
        alarm_output: None,
    };
    let aff_report = run_campaign(&aff_spec, &aff_faults, jobs);
    // Classification is a pure function of the fault universe: any
    // divergence across worker counts is a scheduling bug, not a
    // hardware property. Cheap to re-check here, where it guards the
    // published JSON.
    assert_eq!(
        aff_report,
        run_campaign(&aff_spec, &aff_faults, if jobs == 1 { 2 } else { 1 }),
        "affine campaign classification must be jobs-invariant"
    );
    let aff_timing = TimingAnalysis::run(&affine.netlist, &lib).expect("affine AGU times");
    sink.state().variants.push(VariantResult {
        name: "affine",
        report: aff_report,
        area: AreaReport::of(&affine.netlist, &lib).total(),
        delay_ps: aff_timing.critical_path_ps(),
    });

    // The banked fleet: one decomposed generator per bank of the
    // contention-free QPP configuration. Each trial upsets one
    // flip-flop of bank 0 mid-replay; the other banks' generators
    // must stay bit-exact — a single-bank SEU is contained by
    // construction, and this campaign pins that down at gate level.
    let banked = banked_containment(recipe.smoke, seu_samples, seed);
    println!(
        "\n  banked ({} banks x window {}): {} single-bank SEU trials, \
         {} disturbed bank 0, {} contained, {} breached",
        banked.banks,
        banked.window,
        banked.trials,
        banked.disturbed,
        banked.contained,
        banked.breached
    );
    let banked_breached = banked.breached;
    sink.state().banked = Some(banked);

    println!();
    for v in &sink.state().variants {
        println!("  {:<14} {}", v.name, v.report.summary());
        println!(
            "  {:<14} area {:.1}, critical path {:.1} ps",
            "", v.area, v.delay_ps
        );
    }
    println!(
        "\n  hardening premium: {:.2}x area, {:.2}x delay",
        row.area_overhead_factor(),
        row.delay_overhead_factor()
    );

    // Design contract of the hardened pair: every effective fault in
    // the select-ring universe is self-detected; none stays silent.
    let hardened_summary = {
        let hardened = &sink.state().variants[1].report;
        (hardened.alarm_coverage_pct() < 100.0 || hardened.silent() > 0).then(|| hardened.summary())
    };
    sink.finish();
    if let Some(summary) = hardened_summary {
        eprintln!("FAIL: hardened SRAG self-detection incomplete: {summary}");
        return ExitCode::FAILURE;
    }
    if banked_breached > 0 {
        eprintln!("FAIL: {banked_breached} single-bank SEU trials leaked into another bank");
        return ExitCode::FAILURE;
    }
    println!("  hardened self-detection: complete");
    println!("  banked SEU containment: complete");
    ExitCode::SUCCESS
}

/// Runs the single-bank SEU containment campaign on the
/// contention-free QPP fleet (sized to match `bankcamp`): elaborates
/// one decomposed fold generator per bank, replays all banks in
/// lockstep, and for each trial upsets one sampled flip-flop of
/// bank 0 at one sampled cycle.
fn banked_containment(smoke: bool, trials: usize, seed: u64) -> BankedContainment {
    let (n, banks) = if smoke { (64, 4) } else { (256, 8) };
    let window = n / banks;
    let map = BankMap::HighBits { banks, window };
    let qpp = Interleaver::qpp_contention_free(n, banks).expect("bankcamp-sized QPP is valid");
    let perm = qpp.permutation().expect("QPP permutes");
    let schedule = window_schedule(&perm, &map, banks).expect("QPP schedules");
    let streams = schedule
        .bank_streams()
        .expect("contention-free QPP is conflict-free");
    let folds: Vec<FoldAgNetlist> = streams
        .iter()
        .map(|s| {
            let d = Decomposition::of(s).expect("QPP local stream decomposes");
            FoldAgNetlist::elaborate(&d).expect("QPP local stream is fully linear")
        })
        .collect();

    // Golden replay, one stream per bank.
    let golden: Vec<Vec<u32>> = folds
        .iter()
        .map(|f| {
            let mut sim = Simulator::new(&f.netlist).expect("fold netlist simulates");
            f.collect(&mut sim, window as usize).expect("golden replay")
        })
        .collect();

    let ffs = flip_flop_ids(&folds[0].netlist);
    let mut rng = Prng::for_stream(seed, 0xbac0);
    let mut disturbed = 0usize;
    let mut contained = 0usize;
    let mut breached = 0usize;
    for _ in 0..trials {
        let ff = ffs[rng.next_range(ffs.len() as u64) as usize];
        let upset_cycle = rng.next_range(u64::from(window)) as usize;
        let mut bank0_diverged = false;
        let mut others_diverged = false;
        for (b, fold) in folds.iter().enumerate() {
            let mut sim = Simulator::new(&fold.netlist).expect("fold netlist simulates");
            sim.step_bools(&reset_inputs()).expect("reset");
            for (cycle, want) in golden[b].iter().enumerate() {
                if b == 0 && cycle == upset_cycle {
                    sim.upset_flip_flop(ff);
                }
                sim.step_bools(&tick_inputs()).expect("tick");
                if fold.read_addr(&sim.output_values()) != *want {
                    if b == 0 {
                        bank0_diverged = true;
                    } else {
                        others_diverged = true;
                    }
                }
            }
        }
        if bank0_diverged {
            disturbed += 1;
        }
        if others_diverged {
            breached += 1;
        } else {
            contained += 1;
        }
    }
    BankedContainment {
        n,
        banks,
        window,
        trials,
        disturbed,
        contained,
        breached,
    }
}

/// `--fault TOKEN`: replays one fault against the hardened pair and
/// prints the classification and the reproduction line.
fn replay_single(
    seq: &adgen_seq::AddressSequence,
    shape: ArrayShape,
    token: &str,
    cycles: u32,
    seed: u64,
) -> ExitCode {
    let hardened = Srag2d::map(seq, shape, Layout::RowMajor)
        .expect("paper workload maps")
        .elaborate_hardened()
        .expect("paper workload elaborates");
    let Some(fault) = Fault::parse(token, &hardened.netlist) else {
        eprintln!("error: `{token}` is not a valid fault for this netlist");
        eprintln!("       (forms: sa0@nN, sa1@nN, seu@iN#cC with in-range indices)");
        return ExitCode::from(2);
    };
    let spec = CampaignSpec {
        netlist: &hardened.netlist,
        cycles,
        alarm_output: Some(hardened.alarm_output_index()),
    };
    let golden = replay(&spec, None);
    let faulty = replay(&spec, Some(fault));
    let class = classify(&golden, &faulty, spec.alarm_output);
    println!(
        "fault {} — {}",
        fault.id(),
        fault.describe(&hardened.netlist)
    );
    match class {
        Classification::Detected { cycle, alarm } => println!(
            "  detected at cycle {cycle} ({})",
            if alarm {
                "by alarm"
            } else {
                "output corruption"
            }
        ),
        Classification::Silent => println!("  silent state corruption (latent)"),
        Classification::Benign => println!("  benign: indistinguishable from golden run"),
    }
    println!("  {}", repro_line(seed, &fault));
    ExitCode::SUCCESS
}

/// The record's fields. With `--metrics` the sink appends a
/// jobs-invariant counter block; a panic mid-run flushes the
/// completed variants with `"truncated": true`.
fn render_fault_json(state: &FaultState) -> Vec<Field> {
    let variants = state.variants.iter().map(|v| {
        let r = &v.report;
        format!(
            "{{\"name\": \"{}\", \"faults\": {}, \"detected\": {}, \"alarmed\": {}, \
             \"silent\": {}, \"benign\": {}, \"coverage_pct\": {:.2}, \
             \"alarm_coverage_pct\": {:.2}, \"area\": {:.2}, \"delay_ps\": {:.2}}}",
            v.name,
            r.outcomes.len(),
            r.detected(),
            r.alarmed(),
            r.silent(),
            r.benign(),
            r.coverage_pct(),
            r.alarm_coverage_pct(),
            v.area,
            v.delay_ps
        )
    });
    // `null` when truncated before the banked campaign finished.
    let banked = state.banked.as_ref().map_or("null".to_string(), |b| {
        format!(
            "{{\"n\": {}, \"banks\": {}, \"window\": {}, \"trials\": {}, \
             \"disturbed\": {}, \"contained\": {}, \"breached\": {}}}",
            b.n, b.banks, b.window, b.trials, b.disturbed, b.contained, b.breached
        )
    });
    // `null` when truncated before the SRAG pair finished.
    let overhead = state.row.as_ref().map_or("null".to_string(), |row| {
        format!(
            "{{\"area_factor\": {:.4}, \"delay_factor\": {:.4}}}",
            row.area_overhead_factor(),
            row.delay_overhead_factor()
        )
    });
    vec![
        (
            "workload",
            format!(
                "\"motion_est {}x{} mb=2 m=0\"",
                state.shape.width(),
                state.shape.height()
            ),
        ),
        ("cycles", state.cycles.to_string()),
        ("seed", state.seed.to_string()),
        ("seu_samples", state.seu_samples.to_string()),
        ("variants", array("  ", variants)),
        ("banked", banked),
        ("hardening_overhead", overhead),
    ]
}
