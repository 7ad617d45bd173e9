//! `benchmark` — the command line of the adgen benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark run [--seed N] [--seconds S] [--repeat R] [--out FILE] [--smoke]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! The first form is one run of one workload. It prints its metrics,
//! one per line, then a JSON object with `correct`, `attempted`,
//! `failed` and `metrics` as the last line of standard output, and
//! exits nonzero when an output check failed.
//!
//! `run` runs every workload — each timed run and each traced run in
//! a child process of its own, so peak RSS and CPU time are per
//! workload — prints every metric, and writes a result file (default
//! `target/benchmark/result.json`) that `compare` reads.
//!
//! `compare` judges each (workload, end-to-end metric) pair of NEW
//! against BASE by the metric's bound, requires every exact per-layer
//! count to repeat, and exits nonzero on any regression or mismatch.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use adgen_benchmark::result::{compare, json_line, render, RunFile, WorkloadRuns};
use adgen_benchmark::{
    batch, host, serve, Config, Outcome, Workload, DEFAULT_SECONDS, DEFAULT_SEED,
};

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  benchmark run [--seed N] [--seconds S] [--repeat R] [--out FILE] [--smoke]
  benchmark compare BASE.json NEW.json
workloads: serve-warm serve-mixed sweep-paper fault-replay";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => run_one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

/// Command-line options shared by a single run and `run`.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
        out: PathBuf::from("target/benchmark/result.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        let bad = |v: &str| format!("invalid {flag} value `{v}`");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(
                    Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                o.repeat = v.parse().ok().filter(|&r| r > 0).ok_or_else(|| bad(v))?;
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(o)
}

/// One run of one workload.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_options(args)?;
    let workload = o
        .workload
        .ok_or(format!("--workload is required\n{USAGE}"))?;
    // Scratch files stay inside the build directory of the checkout.
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let scratch =
        base.join("benchmark-scratch")
            .join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let cfg = Config {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        smoke: o.smoke,
        scratch: scratch.clone(),
    };
    let outcome = match workload {
        Workload::ServeWarm | Workload::ServeMixed => serve::run(&cfg),
        Workload::SweepPaper => batch::sweep_paper(&cfg),
        Workload::FaultReplay => batch::fault_replay(&cfg),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;
    print_outcome(&cfg, &outcome);
    println!("{}", json_line(&outcome));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_outcome(cfg: &Config, out: &Outcome) {
    let mode = if cfg.trace { "traced" } else { "timed" };
    println!("{} ({mode}, seed {}):", cfg.workload.name(), cfg.seed);
    for (name, value, unit) in &out.metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
    println!("  {} operations, {} failed", out.attempted, out.failed);
    for p in &out.problems {
        eprintln!("  FAIL: {p}");
    }
}

/// Every workload, timed and traced, each in a child process.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_options(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut file = RunFile::default();
    let mut ops = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut runs = WorkloadRuns::default();
        let mut timed_ops = Vec::new();
        let passes = (0..o.repeat).map(|_| false).chain([true]);
        for trace in passes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if o.smoke {
                cmd.arg("--smoke");
            }
            let child = cmd
                .output()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            for l in lines {
                println!("{l}");
            }
            match runs.absorb(last) {
                Ok(attempted) if !trace => timed_ops.push(attempted.to_string()),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("benchmark: {} produced no result ({e})", w.name());
                    ok = false;
                    continue;
                }
            }
            ok &= child.status.success();
        }
        ok &= runs.correct;
        ops.push(format!("\"{}\": [{}]", w.name(), timed_ops.join(", ")));
        file.workloads.insert(w.name().to_string(), runs);
    }
    let quoted = |s: String| format!("\"{}\"", adgen_obs::json::escape(&s));
    for (k, v) in [
        ("nproc", host::nproc().to_string()),
        ("git_rev", quoted(host::git_rev())),
        ("profile", quoted(host::profile().to_string())),
        ("rustc", quoted(host::rustc_version())),
        ("seed", o.seed.to_string()),
        ("seconds", o.seconds.to_string()),
        ("repeat", o.repeat.to_string()),
        ("ops", format!("{{{}}}", ops.join(", "))),
    ] {
        file.host.insert(k.to_string(), v);
    }
    if let Some(dir) = o.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&o.out, file.render()).map_err(|e| format!("{}: {e}", o.out.display()))?;
    println!("result written to {}", o.out.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `compare BASE NEW`.
fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err(format!("compare needs two result files\n{USAGE}"));
    };
    let read = |p: &String| -> Result<RunFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        RunFile::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare(&read(base)?, &read(new)?);
    print!("{}", render(&rows));
    let failed = rows.iter().filter(|r| r.verdict.fails()).count();
    println!("{failed} failing row(s) of {}", rows.len());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
