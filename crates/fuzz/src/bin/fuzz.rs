//! Command-line front end of the differential fuzzer.
//!
//! ```text
//! cargo run -p adgen-fuzz -- --iters 500 --seed 1 --jobs 4
//! cargo run -p adgen-fuzz -- --seed 1 --iters 500 --case 137   # replay one case
//! cargo run -p adgen-fuzz -- --iters 200 --dev-break mapper    # demo failure path
//! ```
//!
//! Exit status is 0 when every oracle agreed, 1 on any mismatch, 2 on
//! bad usage.

use std::process::ExitCode;

use adgen_fuzz::{run_fuzz, BreakMode, FuzzConfig};
use adgen_obs as obs;

const USAGE: &str =
    "usage: fuzz [--iters N] [--seed S] [--jobs J] [--case I] [--dev-break mapper|cube]
            [--trace FILE] [--metrics]

  --iters N           number of cases to run (default 200)
  --seed S            master seed (default 1)
  --jobs J            worker threads, 0 = all cores (default 0)
  --case I            replay only case index I of the run (verbose)
  --dev-break MODE    deliberately corrupt one oracle (mapper|cube)
                      to demonstrate detection + shrinking
  --trace FILE        write a Chrome trace-event JSON of the run
  --metrics           print the deterministic self/total profile";

/// `value` of `flag` as an integer.
fn integer<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects an integer"))
}

/// Parses everything but the obs flags, which `obs::take_obs_args`
/// takes out first.
fn parse_args(args: &[String]) -> Result<FuzzConfig, String> {
    let mut config = FuzzConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--iters" => config.iters = integer(arg, value_for(arg)?)?,
            "--seed" => config.seed = integer(arg, value_for(arg)?)?,
            "--jobs" => config.jobs = integer(arg, value_for(arg)?)?,
            "--case" => config.only_case = Some(integer(arg, value_for(arg)?)?),
            "--dev-break" => {
                let v = value_for("--dev-break")?;
                config.break_mode = BreakMode::parse(&v)
                    .ok_or_else(|| format!("unknown --dev-break mode '{v}'"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let (args, obs_args) = obs::take_obs_args(std::env::args().skip(1).collect());
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if config.break_mode != BreakMode::None {
        println!(
            "dev mode: oracle deliberately broken ({:?}) — failures below are expected",
            config.break_mode
        );
    }

    if obs_args.recording() {
        obs::start();
    }
    let report = run_fuzz(&config);
    if obs_args.recording() {
        obs::export_session(
            &obs::take(),
            obs_args.trace.as_deref(),
            obs_args.metrics,
            obs::redact_from_env(),
        );
    }

    if let Some(index) = config.only_case {
        // Verbose single-case replay.
        let o = &report.outcomes[0];
        println!("case {index} (case_seed {:#018x})", o.case_seed);
        println!("  kind:  {}", o.kind);
        println!("  input: {}", o.input);
        match &o.failure {
            None => {
                println!("  result: PASS — all oracles agree");
                return ExitCode::SUCCESS;
            }
            Some(info) => {
                println!("  result: FAIL");
                println!("  divergence: {}", info.detail);
                println!("  minimal counterexample: {}", info.minimal);
                println!("  minimal divergence: {}", info.minimal_detail);
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "fuzz: {} cases, seed {}, jobs {}",
        report.iters, report.seed, config.jobs
    );
    let summary = report.kind_summary();
    let width = summary.iter().fold(0, |w, row| w.max(row.0.len()));
    for (kind, total, failed) in summary {
        println!("  {kind:<width$} {total:>5} run  {failed:>3} failed");
    }

    let failures: Vec<_> = report.failures().collect();
    if failures.is_empty() {
        println!("OK: zero oracle mismatches");
        return ExitCode::SUCCESS;
    }

    println!("\n{} FAILURE(S):", failures.len());
    for o in &failures {
        let info = o.failure.as_ref().expect("failing outcome has info");
        println!("\n[{}] {} case: {}", o.index, o.kind, o.input);
        println!("  divergence: {}", info.detail);
        println!("  minimal counterexample: {}", info.minimal);
        println!("  minimal divergence: {}", info.minimal_detail);
        println!("  {}", report.repro_line(o));
    }
    ExitCode::FAILURE
}
