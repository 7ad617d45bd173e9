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

use std::fmt::Write as _;
use std::process::ExitCode;

use adgen_bench::obs_cli::{record_path, take_obs_args, ObsJsonSink, RunMeta};

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
    let (raw, obs_args) = take_obs_args(std::env::args().skip(1).collect());
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--jobs" | "-j" => jobs = parse_or_die(&mut args, &a),
            "--seed" => seed = parse_or_die(&mut args, &a),
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
        record_path("BENCH_bank.json", smoke),
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

fn parse_or_die<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let v = args.next().unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    });
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid {flag} value `{v}`");
        std::process::exit(2);
    })
}

fn choice_str(c: GeneratorChoice) -> &'static str {
    match c {
        GeneratorChoice::Decomposed => "decomposed",
        GeneratorChoice::MonolithicFsm => "monolithic_fsm",
    }
}

/// Hand-rolled machine-readable record mirroring the other
/// `BENCH_*.json` conventions (drop-guard flush, `"truncated"`
/// marker, optional `"metrics"` tail).
fn render_bank_json(state: &BankState, meta: &RunMeta) -> String {
    let BankState {
        n,
        banks,
        window,
        seed,
        contexts,
        qpp,
    } = state;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"n\": {n},");
    let _ = writeln!(s, "  \"banks\": {banks},");
    let _ = writeln!(s, "  \"window\": {window},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    if meta.truncated {
        let _ = writeln!(s, "  \"truncated\": true,");
    }
    let _ = writeln!(s, "  \"interleavers\": [");
    for (i, c) in contexts.iter().enumerate() {
        let comma = if i + 1 < contexts.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"conflict_free\": {}, \"conflict_cycles\": {}, \
             \"stall_cycles\": {}, \"conflict_rate\": {:.4}, \"verified\": {}}}{comma}",
            c.name, c.conflict_free, c.conflict_cycles, c.stall_cycles, c.conflict_rate, c.verified
        );
    }
    let _ = writeln!(s, "  ],");
    match qpp {
        None => {
            let _ = writeln!(s, "  \"conflict_free\": false,");
            let _ = writeln!(s, "  \"conflict_rate\": null,");
            let _ = writeln!(s, "  \"stall_cycles\": null,");
            let _ = write!(s, "  \"decompose_win_pct\": null");
        }
        Some(cmp) => {
            let _ = writeln!(s, "  \"conflict_free\": {},", cmp.conflict_free());
            let _ = writeln!(
                s,
                "  \"conflict_rate\": {:.4},",
                cmp.schedule.conflict_rate()
            );
            let _ = writeln!(s, "  \"stall_cycles\": {},", cmp.schedule.stall_cycles);
            match &cmp.plan {
                None => {
                    let _ = writeln!(s, "  \"bank_rows\": [],");
                    let _ = write!(s, "  \"decompose_win_pct\": null");
                }
                Some(plan) => {
                    let _ = writeln!(s, "  \"bank_rows\": [");
                    for (i, b) in plan.banks.iter().enumerate() {
                        let comma = if i + 1 < plan.banks.len() { "," } else { "" };
                        let _ = writeln!(
                            s,
                            "    {{\"bank\": {}, \"linear_bits\": {}, \"residue_bits\": {}, \
                             \"residue_states\": {}, \"decomposed_area\": {:.2}, \
                             \"monolithic_area\": {:.2}, \"delay_ps\": {:.2}, \
                             \"flip_flops\": {}, \"choice\": \"{}\"}}{comma}",
                            b.bank,
                            b.linear_bits,
                            b.residue_bits,
                            b.residue_states,
                            b.decomposed.area,
                            b.monolithic.area,
                            b.decomposed.delay_ps,
                            b.decomposed.flip_flops,
                            choice_str(b.choice)
                        );
                    }
                    let _ = writeln!(s, "  ],");
                    let _ = writeln!(s, "  \"decomposed_area\": {:.2},", plan.decomposed_area);
                    let _ = writeln!(s, "  \"monolithic_area\": {:.2},", plan.monolithic_area);
                    let _ = write!(s, "  \"decompose_win_pct\": {:.2}", plan.win_pct());
                }
            }
        }
    }
    let _ = writeln!(s, "{}", if meta.metrics.is_some() { "," } else { "" });
    if let Some(metrics) = &meta.metrics {
        let _ = writeln!(s, "  \"metrics\": {metrics}");
    }
    let _ = writeln!(s, "}}");
    s
}
