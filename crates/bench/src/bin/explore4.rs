//! `explore4` — the four-way generator shoot-out on the paper's
//! workloads: specialized FSM vs SRAG vs CntAG vs the programmable
//! affine AGU, priced under one cell library and one fault-universe
//! recipe.
//!
//! For each workload the run produces one
//! [`FourWayRow`](adgen_explorer::FourWayRow) per architecture (delay,
//! area, flip-flops, programming premium, fault coverage) and then
//! gates on the affine family's correctness contract:
//! [`verify_affine_bit_exact`] must reproduce the input
//! stream bit-exactly — affine prefix plus residual — on both
//! simulation engines, compiled and event-driven. A workload that
//! fails the gate fails the run. The record keeps the field name
//! `bit_exact_three_engines` so records stay comparable across runs.
//!
//! ```text
//! cargo run --release -p adgen-bench --bin explore4              # 8x8 workloads
//! cargo run --release -p adgen-bench --bin explore4 -- --smoke   # 4x4, CI-sized
//! cargo run --release -p adgen-bench --bin explore4 -- --jobs 4 --seed 7
//! ```
//!
//! Full-size runs write `BENCH_explore.json` with one block per
//! workload; `--smoke` runs write
//! `target/bench-smoke/BENCH_explore.json` and leave the committed
//! record alone. Observability: `--trace FILE` and `--metrics` behave
//! as in the other campaign bins (`DESIGN.md` §9).

use std::process::ExitCode;

use adgen_bench::obs_cli::{array, flag_value, object, Field, ObsJsonSink};
use adgen_bench::Fig7Recipe;

use adgen_explorer::{compare_four_way, verify_affine_bit_exact, FourWayComparison};
use adgen_netlist::Library;
use adgen_seq::ArrayShape;

/// One workload's comparison plus the bit-exactness gate result.
struct WorkloadResult {
    name: &'static str,
    comparison: FourWayComparison,
    bit_exact: bool,
}

struct ExploreState {
    shape: ArrayShape,
    seed: u64,
    seu_samples: usize,
    workloads: Vec<WorkloadResult>,
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
                    "usage: explore4 [--smoke] [--jobs N] [--seed N] [--trace FILE] [--metrics]"
                );
                std::process::exit(2);
            }
        }
    }

    let recipe = Fig7Recipe::new(smoke);
    let shape = recipe.shape;
    let seu_samples = recipe.explore_seu_samples();
    let lib = Library::vcl018();

    // Fig. 7's motion-estimation kernel plus the two scan patterns
    // the paper prices in Figs. 8–10.
    let cases = recipe.explore_cases();

    println!(
        "explore4: {}x{} workloads, {} SEU samples, seed {}",
        shape.width(),
        shape.height(),
        seu_samples,
        seed
    );

    let mut sink = ObsJsonSink::new(
        "BENCH_explore.json",
        smoke,
        obs_args,
        ExploreState {
            shape,
            seed,
            seu_samples,
            workloads: Vec::new(),
        },
        render_explore_json,
    );

    let mut gate_failed = false;
    for (name, seq, program) in &cases {
        let cycles = seq.len() as u32;
        let comparison =
            compare_four_way(seq, shape, program, &lib, cycles, seu_samples, seed, jobs)
                .unwrap_or_else(|e| panic!("{name}: four-way comparison failed: {e}"));
        let bit_exact = match verify_affine_bit_exact(seq) {
            Ok(fit) => {
                println!(
                    "\n  {name}: affine fit covers {}/{} addresses ({} residual), \
                     bit-exact on both engines",
                    fit.covered,
                    seq.len(),
                    fit.residual.len()
                );
                true
            }
            Err(e) => {
                eprintln!("\n  {name}: AFFINE BIT-EXACTNESS GATE FAILED: {e}");
                gate_failed = true;
                false
            }
        };
        for row in &comparison.rows {
            println!(
                "    {:<14} delay {:>8.1} ps  area {:>8.1}  ffs {:>3} (+{} prog)  \
                 coverage {:>5.1}% ({} faults, {} silent)",
                row.architecture.to_string(),
                row.delay_ps,
                row.area,
                row.flip_flops,
                row.program_flip_flops,
                row.fault_coverage_pct,
                row.faults,
                row.silent_faults
            );
        }
        sink.state().workloads.push(WorkloadResult {
            name,
            comparison,
            bit_exact,
        });
    }

    sink.finish();
    if gate_failed {
        eprintln!("FAIL: affine row is not bit-exact on every workload");
        return ExitCode::FAILURE;
    }
    println!("\n  affine bit-exactness gate: passed on every workload");
    ExitCode::SUCCESS
}

/// The record's fields, one block per workload.
fn render_explore_json(state: &ExploreState) -> Vec<Field> {
    let workloads = state.workloads.iter().map(|w| {
        let fit = &w.comparison.affine_fit;
        let rows = w.comparison.rows.iter().map(|r| {
            format!(
                "{{\"architecture\": \"{}\", \"delay_ps\": {:.2}, \"area\": {:.2}, \
                 \"flip_flops\": {}, \"program_flip_flops\": {}, \"fault_coverage_pct\": {:.2}, \
                 \"silent_faults\": {}, \"faults\": {}}}",
                r.architecture,
                r.delay_ps,
                r.area,
                r.flip_flops,
                r.program_flip_flops,
                r.fault_coverage_pct,
                r.silent_faults,
                r.faults
            )
        });
        object(
            "    ",
            [
                ("name", format!("\"{}\"", w.name)),
                (
                    "affine_fit",
                    format!(
                        "{{\"covered\": {}, \"residual\": {}, \"exact\": {}, \
                         \"bit_exact_three_engines\": {}}}",
                        fit.covered,
                        fit.residual.len(),
                        fit.is_exact(),
                        w.bit_exact
                    ),
                ),
                ("rows", array("      ", rows)),
            ],
        )
    });
    vec![
        (
            "shape",
            format!("\"{}x{}\"", state.shape.width(), state.shape.height()),
        ),
        ("seed", state.seed.to_string()),
        ("seu_samples", state.seu_samples.to_string()),
        ("workloads", array("  ", workloads)),
    ]
}
