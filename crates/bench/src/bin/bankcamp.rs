//! `bankcamp` — the banked-ADDM interleaver campaign: schedule the
//! interleaver workload family across B parallel banks, gate on the
//! contention-free QPP configuration, and price each bank's
//! decompose-picked generator against a monolithic per-bank FSM.
//!
//! Three interleavers run under the high-bits bank map:
//!
//! * `qpp` — [`Interleaver::qpp_contention_free`], the gated
//!   configuration. It must schedule conflict-free, cosim must verify
//!   every payload, and every bank's decomposed generator must be
//!   *strictly* cheaper (area) than the monolithic FSM over the same
//!   local stream. Any miss fails the run.
//! * `block` and `random` — conflict-rate context: the row-column
//!   interleaver collides on every cycle under this map and the
//!   pseudo-random permutation collides on most, which is exactly why
//!   the QPP family earns its place.
//!
//! ```text
//! cargo run --release -p adgen-bench --bin bankcamp              # n=256, 8 banks
//! cargo run --release -p adgen-bench --bin bankcamp -- --smoke   # n=64, 4 banks
//! cargo run --release -p adgen-bench --bin bankcamp -- --jobs 4 --seed 7
//! ```
//!
//! Full-size runs write `BENCH_bank.json`; `--smoke` runs write
//! `target/bench-smoke/BENCH_bank.json` and leave the committed record
//! alone. Observability: `--trace FILE` and `--metrics` behave as in
//! the other campaign bins (`DESIGN.md` §9).

use std::process::ExitCode;

use adgen_bench::obs_cli::{array, flag_value, Field, ObsJsonSink};

use adgen_bank::{BankMap, GeneratorChoice, Interleaver};
use adgen_explorer::{compare_banked, BankedComparison};
use adgen_netlist::Library;

/// Schedule/cosim accounting for one interleaver.
struct ContextRow {
    name: &'static str,
    conflict_cycles: usize,
    stall_cycles: usize,
    conflict_rate: f64,
    conflict_free: bool,
    verified: usize,
}

/// Everything `BENCH_bank.json` reports.
struct BankState {
    n: u32,
    banks: u32,
    window: u32,
    seed: u64,
    contexts: Vec<ContextRow>,
    qpp: Option<BankedComparison>,
}

fn main() -> ExitCode {
    let mut jobs = 0usize;
    let mut seed = 2026u64;
    let mut smoke = false;
    let (raw, obs_args) = adgen_obs::take_obs_args(std::env::args().skip(1).collect());
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--jobs" | "-j" => jobs = flag_value(&mut args, &a),
            "--seed" => seed = flag_value(&mut args, &a),
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!(
                    "usage: bankcamp [--smoke] [--jobs N] [--seed N] [--trace FILE] [--metrics]"
                );
                std::process::exit(2);
            }
        }
    }

    // Smoke keeps the full four-bank parallelism but on a 64-entry
    // stream; the full run is the paper-scale 256-entry, 8-bank
    // configuration.
    let (n, banks) = if smoke { (64, 4) } else { (256, 8) };
    let window = n / banks;
    let map = BankMap::HighBits { banks, window };
    let lib = Library::vcl018();

    println!("bankcamp: n={n}, {banks} banks x window {window}, high-bits map, seed {seed}");

    let mut sink = ObsJsonSink::new(
        "BENCH_bank.json",
        smoke,
        obs_args,
        BankState {
            n,
            banks,
            window,
            seed,
            contexts: Vec::new(),
            qpp: None,
        },
        render_bank_json,
    );

    let qpp = Interleaver::qpp_contention_free(n, banks)
        .unwrap_or_else(|e| panic!("qpp parameters rejected: {e}"));
    let cases = [
        qpp,
        Interleaver::Block {
            rows: banks,
            cols: window,
        },
        Interleaver::Random { n, seed },
    ];

    let mut qpp_cmp = None;
    for il in &cases {
        let cmp = compare_banked(il, &map, banks, &lib, jobs)
            .unwrap_or_else(|e| panic!("{}: banked comparison failed: {e}", il.label()));
        println!(
            "  {:<7} conflicts {:>3}/{} cycles ({:>5.1}%), {:>3} stalls, verified {:>3}/{}  {}",
            il.label(),
            cmp.schedule.conflict_cycles,
            cmp.schedule.window,
            cmp.schedule.conflict_rate() * 100.0,
            cmp.schedule.stall_cycles,
            cmp.cosim.verified,
            n,
            if cmp.conflict_free() {
                "conflict-free"
            } else {
                "conflicted"
            }
        );
        sink.state().contexts.push(ContextRow {
            name: il.label(),
            conflict_cycles: cmp.schedule.conflict_cycles,
            stall_cycles: cmp.schedule.stall_cycles,
            conflict_rate: cmp.schedule.conflict_rate(),
            conflict_free: cmp.conflict_free(),
            verified: cmp.cosim.verified,
        });
        if il.label() == "qpp" {
            // The priced plan must not depend on worker count.
            let alternate = compare_banked(il, &map, banks, &lib, if jobs == 1 { 2 } else { 1 })
                .expect("alternate-jobs comparison failed");
            assert_eq!(cmp, alternate, "banked comparison is jobs-dependent");
            qpp_cmp = Some(cmp);
        }
    }

    let qpp_cmp = qpp_cmp.expect("qpp case must have run");
    let mut gate_failed = false;
    if !qpp_cmp.conflict_free() {
        eprintln!("  FAIL: contention-free QPP scheduled with conflicts");
        gate_failed = true;
    }
    if qpp_cmp.cosim.verified != n as usize {
        eprintln!(
            "  FAIL: cosim verified {}/{} payloads",
            qpp_cmp.cosim.verified, n
        );
        gate_failed = true;
    }
    match &qpp_cmp.plan {
        None => {
            eprintln!("  FAIL: conflict-free schedule produced no priced plan");
            gate_failed = true;
        }
        Some(plan) => {
            println!("\n  per-bank pricing (qpp):");
            for b in &plan.banks {
                println!(
                    "    bank {}: {} linear + {} residue bits, \
                     decomposed {:>7.1} vs monolithic {:>7.1} area, {} ffs, {}",
                    b.bank,
                    b.linear_bits,
                    b.residue_bits,
                    b.decomposed.area,
                    b.monolithic.area,
                    b.decomposed.flip_flops,
                    choice_str(b.choice)
                );
                if b.choice != GeneratorChoice::Decomposed || b.decomposed.area >= b.monolithic.area
                {
                    eprintln!(
                        "  FAIL: bank {} decomposed generator is not strictly cheaper \
                         ({} vs {})",
                        b.bank, b.decomposed.area, b.monolithic.area
                    );
                    gate_failed = true;
                }
            }
            println!(
                "  decomposed {:.1} vs monolithic {:.1} total area: {:.1}% win",
                plan.decomposed_area,
                plan.monolithic_area,
                plan.win_pct()
            );
        }
    }
    sink.state().qpp = Some(qpp_cmp);

    sink.finish();
    if gate_failed {
        eprintln!("FAIL: banked-ADDM gate did not hold");
        return ExitCode::FAILURE;
    }
    println!("\n  banked gate: conflict-free schedule, decompose wins every bank");
    ExitCode::SUCCESS
}

fn choice_str(c: GeneratorChoice) -> &'static str {
    match c {
        GeneratorChoice::Decomposed => "decomposed",
        GeneratorChoice::MonolithicFsm => "monolithic_fsm",
    }
}

/// The record's fields: per-interleaver schedule context, then the
/// gated QPP configuration's schedule and per-bank pricing.
fn render_bank_json(state: &BankState) -> Vec<Field> {
    let interleavers = state.contexts.iter().map(|c| {
        format!(
            "{{\"name\": \"{}\", \"conflict_free\": {}, \"conflict_cycles\": {}, \
             \"stall_cycles\": {}, \"conflict_rate\": {:.4}, \"verified\": {}}}",
            c.name, c.conflict_free, c.conflict_cycles, c.stall_cycles, c.conflict_rate, c.verified
        )
    });
    let mut fields = vec![
        ("n", state.n.to_string()),
        ("banks", state.banks.to_string()),
        ("window", state.window.to_string()),
        ("seed", state.seed.to_string()),
        ("interleavers", array("  ", interleavers)),
    ];
    let null = || "null".to_string();
    let Some(cmp) = &state.qpp else {
        fields.extend([
            ("conflict_free", "false".to_string()),
            ("conflict_rate", null()),
            ("stall_cycles", null()),
            ("decompose_win_pct", null()),
        ]);
        return fields;
    };
    fields.extend([
        ("conflict_free", cmp.conflict_free().to_string()),
        (
            "conflict_rate",
            format!("{:.4}", cmp.schedule.conflict_rate()),
        ),
        ("stall_cycles", cmp.schedule.stall_cycles.to_string()),
    ]);
    let Some(plan) = &cmp.plan else {
        fields.extend([
            ("bank_rows", "[]".to_string()),
            ("decompose_win_pct", null()),
        ]);
        return fields;
    };
    let bank_rows = plan.banks.iter().map(|b| {
        format!(
            "{{\"bank\": {}, \"linear_bits\": {}, \"residue_bits\": {}, \
             \"residue_states\": {}, \"decomposed_area\": {:.2}, \
             \"monolithic_area\": {:.2}, \"delay_ps\": {:.2}, \
             \"flip_flops\": {}, \"choice\": \"{}\"}}",
            b.bank,
            b.linear_bits,
            b.residue_bits,
            b.residue_states,
            b.decomposed.area,
            b.monolithic.area,
            b.decomposed.delay_ps,
            b.decomposed.flip_flops,
            choice_str(b.choice)
        )
    });
    fields.extend([
        ("bank_rows", array("  ", bank_rows)),
        ("decomposed_area", format!("{:.2}", plan.decomposed_area)),
        ("monolithic_area", format!("{:.2}", plan.monolithic_area)),
        ("decompose_win_pct", format!("{:.2}", plan.win_pct())),
    ]);
    fields
}
