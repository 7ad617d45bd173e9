//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p adgen-bench --bin repro              # everything, all cores
//! cargo run --release -p adgen-bench --bin repro -- fig3      # one artefact
//! cargo run --release -p adgen-bench --bin repro -- --jobs 4  # pin the worker count
//! ```
//!
//! Artefacts: `table1 table2 fig3 fig4 synthtime fig8 fig9 fig10 power ablation sharing interconnect
//! table3`. Results are printed and, for the sweeps, also written as
//! CSV under `results/`. Each run also emits `BENCH_repro.json` with
//! the worker count and per-experiment wall-clock seconds: a full run
//! (`all`, the default) rewrites the committed record in the current
//! directory, any subset writes `target/bench-smoke/BENCH_repro.json`.
//!
//! Observability (see `DESIGN.md` §9): `--trace FILE` writes a Chrome
//! trace-event JSON of the whole run, `--metrics` prints the
//! deterministic self/total profile and appends a `"metrics"` block
//! to `BENCH_repro.json`. The JSON is flushed through a drop guard,
//! so a panicking experiment still leaves a valid record of the rows
//! that completed, marked `"truncated": true`.

use std::path::PathBuf;
use std::time::Instant;

use adgen_bench::experiments::{
    ablation, fig3_4, fig8_9_10, interconnect, power_study, sharing, synth_time, table3,
    SynthTimeRow, PAPER_ARRAY_SIZES, PAPER_SEQUENCE_LENGTHS,
};
use adgen_bench::obs_cli::{array, flag_value, Field, ObsJsonSink};
use adgen_bench::report;
use adgen_core::mapper::map_sequence;
use adgen_seq::{workloads, ArrayShape, Layout};

const ARTEFACTS: [&str; 14] = [
    "all",
    "table1",
    "table2",
    "fig3",
    "fig4",
    "synthtime",
    "fig8",
    "fig9",
    "fig10",
    "table3",
    "power",
    "ablation",
    "sharing",
    "interconnect",
];

/// Everything `BENCH_repro.json` reports, accumulated as the run
/// progresses so the drop guard can flush a truncated record on
/// panic.
struct ReproState {
    jobs: usize,
    timings: Vec<(&'static str, f64)>,
    synthtime: Vec<SynthTimeRow>,
}

fn main() {
    let mut jobs = 0usize; // 0 = all available cores
    let mut what: Vec<String> = Vec::new();
    let (raw, obs_args) = adgen_obs::take_obs_args(std::env::args().skip(1).collect());
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        if a == "--jobs" || a == "-j" {
            jobs = flag_value(&mut args, &a);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            jobs = flag_value(&mut std::iter::once(v.to_string()), "--jobs");
        } else {
            what.push(a);
        }
    }
    if what.is_empty() {
        what.push("all".to_string());
    }
    for a in &what {
        if !ARTEFACTS.contains(&a.as_str()) {
            eprintln!(
                "warning: unknown artefact `{a}` (known: {})",
                ARTEFACTS.join(" ")
            );
        }
    }
    let run = |name: &str| what.iter().any(|a| a == name || a == "all");
    let results_dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&results_dir);

    let effective_jobs = adgen_exec::resolve_jobs(jobs);
    println!("repro: {effective_jobs} worker(s)\n");

    // Accumulates (experiment, wall-clock seconds) in execution order
    // and owns the obs session; flushes BENCH_repro.json on finish or
    // panic.
    let subset = !what.iter().any(|a| a == "all");
    let mut sink = ObsJsonSink::new(
        "BENCH_repro.json",
        subset,
        obs_args,
        ReproState {
            jobs: effective_jobs,
            timings: Vec::new(),
            synthtime: Vec::new(),
        },
        render_repro_json,
    );

    if run("table1") {
        print_table1();
    }
    if run("table2") {
        print_table2();
    }
    if run("fig3") || run("fig4") {
        let started = Instant::now();
        let rows = fig3_4(&PAPER_SEQUENCE_LENGTHS, jobs);
        sink.state()
            .timings
            .push(("fig3_4", started.elapsed().as_secs_f64()));
        println!("{}", report::render_fig3_4(&rows));
        if report::write_fig3_4_csv(&rows, &results_dir.join("fig3_4.csv")).is_ok() {
            println!("(written to results/fig3_4.csv)\n");
        }
    }
    if run("synthtime") {
        // Serial on purpose: the per-point wall-clocks are the
        // artefact, and concurrent points would perturb them.
        let started = Instant::now();
        let rows = synth_time(&PAPER_SEQUENCE_LENGTHS, 1);
        sink.state()
            .timings
            .push(("synthtime", started.elapsed().as_secs_f64()));
        println!("{}", report::render_synth_time(&rows));
        sink.state().synthtime = rows;
    }
    if run("fig8") || run("fig9") || run("fig10") {
        let started = Instant::now();
        let rows = fig8_9_10(&PAPER_ARRAY_SIZES, jobs);
        sink.state()
            .timings
            .push(("fig8_9_10", started.elapsed().as_secs_f64()));
        if run("fig8") {
            println!("{}", report::render_fig8(&rows));
        }
        if run("fig9") {
            println!("{}", report::render_fig9(&rows));
        }
        if run("fig10") {
            println!("{}", report::render_fig10(&rows));
        }
        if report::write_fig8_10_csv(&rows, &results_dir.join("fig8_10.csv")).is_ok() {
            println!("(written to results/fig8_10.csv)\n");
        }
    }
    if run("table3") {
        let started = Instant::now();
        let rows = table3(&[16, 32, 64], jobs);
        sink.state()
            .timings
            .push(("table3", started.elapsed().as_secs_f64()));
        println!("{}", report::render_table3(&rows));
    }
    if run("power") {
        let started = Instant::now();
        let rows = power_study(&[16, 64], jobs);
        sink.state()
            .timings
            .push(("power", started.elapsed().as_secs_f64()));
        println!("{}", report::render_power(&rows));
    }
    if run("ablation") {
        let started = Instant::now();
        let rows = ablation(&[16, 64], jobs);
        sink.state()
            .timings
            .push(("ablation", started.elapsed().as_secs_f64()));
        println!("{}", report::render_ablation(&rows));
    }
    if run("sharing") {
        let started = Instant::now();
        let rows = sharing(&[16, 64, 256], jobs);
        sink.state()
            .timings
            .push(("sharing", started.elapsed().as_secs_f64()));
        println!("{}", report::render_sharing(&rows));
    }
    if run("interconnect") {
        let started = Instant::now();
        let rows = interconnect(&[0.0, 30.0, 60.0, 120.0, 240.0], jobs);
        sink.state()
            .timings
            .push(("interconnect", started.elapsed().as_secs_f64()));
        println!("{}", report::render_interconnect(&rows));
    }

    sink.finish();
}

/// The machine-readable benchmark record: worker count,
/// per-experiment wall-clock, and (when the synthtime artefact ran)
/// the per-N synthesis times that carry the packed-kernel speedup.
/// With `--metrics` the sink appends a jobs-invariant counter block;
/// a panic mid-run flushes the completed rows with
/// `"truncated": true`.
fn render_repro_json(state: &ReproState) -> Vec<Field> {
    let experiments = state
        .timings
        .iter()
        .map(|(name, secs)| format!("{{\"name\": \"{name}\", \"wall_clock_s\": {secs:.6}}}"));
    let synthtime = state.synthtime.iter().map(|r| {
        format!(
            "{{\"n\": {}, \"fsm_s\": {:.6}, \"shift_register_s\": {:.6}}}",
            r.n, r.fsm_seconds, r.shift_register_seconds
        )
    });
    vec![
        ("jobs", state.jobs.to_string()),
        ("experiments", array("  ", experiments)),
        ("synthtime", array("  ", synthtime)),
    ]
}

fn print_table1() {
    let shape = ArrayShape::new(4, 4);
    let lin = workloads::motion_est_read(shape, 2, 2, 0);
    let (rows, cols) = lin.decompose(shape, Layout::RowMajor).expect("in range");
    println!("Table 1: address sequences (img 4x4, mb 2x2, m=0)");
    println!("  LinAS = {lin}");
    println!("  RowAS = {rows}");
    println!("  ColAS = {cols}\n");
}

fn print_table2() {
    let shape = ArrayShape::new(4, 4);
    let lin = workloads::motion_est_read(shape, 2, 2, 0);
    let (rows, _) = lin.decompose(shape, Layout::RowMajor).expect("in range");
    let m = map_sequence(&rows).expect("paper example maps");
    println!("Table 2: mapping parameters for the row address sequence");
    println!("  I  = {rows}");
    println!("  D  = {:?}", m.division_counts);
    println!("  R  = {}", m.reduced);
    println!("  U  = {:?}", m.unique);
    println!("  O  = {:?}", m.occurrences);
    println!("  Z  = {:?}", m.first_positions);
    println!(
        "  S  = {:?}",
        m.spec
            .registers
            .iter()
            .map(|r| r.lines().to_vec())
            .collect::<Vec<_>>()
    );
    println!("  P  = {:?}", m.pass_counts);
    println!("  dC = {}", m.spec.div_count);
    println!("  pC = {}\n", m.spec.pass_count);
}
