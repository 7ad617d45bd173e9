//! End-to-end schema check of the `repro` observability flags: the
//! real binary, run with `--jobs 2 --trace t.json`, must produce a
//! Chrome trace-event file the in-tree validator accepts, and its
//! `OBS_REDACT=1 --metrics` profile must be byte-identical across
//! worker counts (the jobs-invariance acceptance criterion at the
//! binary level).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use adgen_obs::json::validate_chrome_trace;

/// A scratch directory for the spawned binary's artefacts
/// (`target/bench-smoke/BENCH_repro.json`, `results/`), so test runs
/// leave the checkout clean.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adgen-trace-schema-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_repro(dir: &Path, args: &[&str], redact: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).current_dir(dir);
    if redact {
        cmd.env("OBS_REDACT", "1");
    }
    let output = cmd.output().expect("repro spawns");
    assert!(
        output.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[test]
fn repro_trace_file_passes_schema_check() {
    let dir = scratch_dir("trace");
    let trace_path = dir.join("t.json");
    run_repro(
        &dir,
        &[
            "--jobs",
            "2",
            "--trace",
            trace_path.to_str().unwrap(),
            "fig3",
        ],
        false,
    );

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    validate_chrome_trace(&text).expect("repro trace passes the schema check");
    // The span hierarchy made it into the file: the experiment root,
    // the fan-out, and the per-item instrumentation beneath it.
    for name in ["bench.fig3_4", "par_map", "par_map.item", "sta.run"] {
        assert!(
            text.contains(&format!("\"name\":\"{name}\"")),
            "trace is missing span {name}"
        );
    }
    // The bench record rides along, with the metrics block absent
    // (no --metrics flag) but the file still valid. A subset run
    // writes it under target/bench-smoke/, never over the committed
    // record.
    assert!(
        !dir.join("BENCH_repro.json").exists(),
        "a subset run wrote the committed record's path"
    );
    let bench = std::fs::read_to_string(dir.join("target/bench-smoke/BENCH_repro.json"))
        .expect("bench record");
    adgen_obs::json::parse(&bench).expect("BENCH_repro.json parses");
}

#[test]
fn redacted_profile_is_jobs_invariant_end_to_end() {
    let profile_of = |jobs: &str, tag: &str| -> String {
        let dir = scratch_dir(tag);
        let out = run_repro(&dir, &["--jobs", jobs, "--metrics", "fig3"], true);
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let start = stdout
            .find("# obs profile")
            .expect("profile report printed under --metrics");
        stdout[start..].to_string()
    };
    assert_eq!(
        profile_of("1", "j1"),
        profile_of("4", "j4"),
        "OBS_REDACT=1 profile must be byte-identical across --jobs"
    );
}
