//! `adgen-serve` — the batch compilation server, from the command
//! line.
//!
//! ```text
//! adgen-serve [--addr HOST:PORT] [--jobs N]
//!             [--queue-cap N] [--deadline-ms N]
//!             [--cache-dir DIR] [--cache-entries N]
//!             [--disk-cap BYTES] [--conn-idle-ms N]
//!             [--faults SPEC] [--metrics] [--trace FILE]
//! ```
//!
//! Binds (default `127.0.0.1:0`, an ephemeral port), prints
//! `adgen-serve listening on ADDR` once ready — the line scripts wait
//! for — and runs until a client sends `Shutdown`. `--jobs N` sets the
//! worker threads that compute cache misses (0, the default, uses
//! every core). With `--metrics` the workers record an adgen-obs
//! session and the profile report
//! plus the metrics JSON block are printed at shutdown; `--trace`
//! additionally writes a Chrome trace-event file.
//!
//! `--conn-idle-ms N` reaps connections that make no protocol
//! progress for `N` ms (0, the default, disables reaping). `--faults
//! SPEC` (or the `ADGEN_SERVE_FAULTS` env var, flag wins) arms the
//! deterministic fault plan — `kind@site#occurrence` directives,
//! comma-separated — used by the chaos harness and the tests.

use std::io::Write;
use std::path::PathBuf;

use adgen_obs as obs;
use adgen_serve::{serve, FaultPlan, ServeConfig};

fn usage() -> ! {
    eprintln!(
        "usage: adgen-serve [--addr HOST:PORT] [--jobs N] \
         [--queue-cap N] [--deadline-ms N] [--cache-dir DIR] \
         [--cache-entries N] [--disk-cap BYTES] \
         [--conn-idle-ms N] [--faults SPEC] [--metrics] [--trace FILE]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs a valid value");
        usage()
    })
}

fn main() {
    let mut config = ServeConfig::default();
    let mut metrics = false;
    let mut trace: Option<PathBuf> = None;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = parse("--addr", it.next()),
            "--jobs" => config.jobs = parse("--jobs", it.next()),
            "--queue-cap" => config.queue_cap = parse("--queue-cap", it.next()),
            "--deadline-ms" => config.default_deadline_ms = parse("--deadline-ms", it.next()),
            "--cache-dir" => {
                config.cache_dir = Some(PathBuf::from(parse::<String>("--cache-dir", it.next())))
            }
            "--cache-entries" => config.cache_entries = parse("--cache-entries", it.next()),
            "--disk-cap" => config.disk_cap_bytes = parse("--disk-cap", it.next()),
            "--conn-idle-ms" => config.conn_idle_ms = parse("--conn-idle-ms", it.next()),
            "--faults" => {
                let spec: String = parse("--faults", it.next());
                match FaultPlan::parse(&spec) {
                    Ok(plan) => config.faults = Some(std::sync::Arc::new(plan)),
                    Err(e) => {
                        eprintln!("error: --faults: {e}");
                        usage();
                    }
                }
            }
            "--metrics" => metrics = true,
            "--trace" => trace = Some(PathBuf::from(parse::<String>("--trace", it.next()))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
            }
        }
    }
    if config.faults.is_none() {
        match FaultPlan::from_env() {
            Ok(plan) => config.faults = plan,
            Err(e) => {
                eprintln!("error: ADGEN_SERVE_FAULTS: {e}");
                std::process::exit(2);
            }
        }
    }
    config.observe = metrics || trace.is_some();

    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: could not start server: {e}");
            std::process::exit(1);
        }
    };

    // The readiness line scripts (ci.sh, loadgen --spawn) wait for.
    println!("adgen-serve listening on {}", handle.local_addr());
    let _ = std::io::stdout().flush();

    let (stats, recording) = match handle.join() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let counts: Vec<String> = stats
        .rows()
        .iter()
        .map(|(name, _, v)| format!("{name} {v}"))
        .collect();
    println!("adgen-serve shut down: {}", counts.join(", "));

    if let Some(rec) = recording {
        let redact = obs::redact_from_env();
        obs::export_session(&rec, trace.as_deref(), metrics, redact);
        if metrics {
            println!("{}", obs::metrics_json_block(&rec, "", redact));
        }
    }
}
