//! `simbench` — throughput benchmark of bit-sliced fault replay
//! against one-machine replay on the same compiled engine, on the
//! paper's Fig. 7 motion-estimation workload.
//!
//! Both runs take the identical select-ring fault universe (the one
//! `compare_resilience` and `faultcamp` use) over the plain and
//! hardened SRAG pairs. The baseline replays one fault per one-lane
//! simulation and classifies it against the golden trace (`replay`
//! plus `classify`); the sliced campaign packs 63 faults plus one
//! golden lane into each 64-lane pass. The benchmark reports
//! wall-clock for both, the stimulus-throughput speedup, and the lane
//! utilization of the packed passes. Untimed, it checks that both
//! runs classify every fault exactly as the event-driven oracle
//! (`run_campaign_scalar`) does before trusting any timing. The
//! record's `scalar_ms` field holds the one-lane baseline.
//!
//! ```text
//! cargo run --release -p adgen-bench --bin simbench              # 8x8 array
//! cargo run --release -p adgen-bench --bin simbench -- --smoke  # 4x4, CI-sized
//! cargo run --release -p adgen-bench --bin simbench -- --seed 7 --iters 5
//! ```
//!
//! A full-size run records its results in `BENCH_sim.json`; a `--smoke`
//! run writes `target/bench-smoke/BENCH_sim.json` instead, so CI never
//! overwrites the committed record. The process exits nonzero if any
//! classification diverges from the oracle (any mode), or if the
//! full-size run fails its performance contract: at least an 8x
//! speedup over one-lane replay on the 8x8 universe.
//!
//! Observability (see `DESIGN.md` §9): `--trace FILE` writes a Chrome
//! trace-event JSON, `--metrics` prints the deterministic profile and
//! appends a `"metrics"` block to the record.

use std::process::ExitCode;
use std::time::Instant;

use adgen_bench::obs_cli::{array, flag_value, Field, ObsJsonSink};
use adgen_bench::Fig7Recipe;

use adgen_core::composite::Srag2d;
use adgen_explorer::ring_campaigns;
use adgen_fault::{
    classify, replay, run_campaign, run_campaign_scalar, CampaignReport, CampaignSpec, Fault,
    FaultOutcome, SLICED_FAULT_LANES,
};
use adgen_seq::{ArrayShape, Layout};

/// Measured comparison for one design variant.
struct VariantResult {
    name: &'static str,
    faults: usize,
    passes: usize,
    lane_utilization_pct: f64,
    scalar_s: f64,
    sliced_s: f64,
    report: CampaignReport,
    diverged: bool,
}

impl VariantResult {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.sliced_s
    }
}

/// Everything `BENCH_sim.json` reports.
struct SimState {
    shape: ArrayShape,
    cycles: u32,
    seed: u64,
    seu_samples: usize,
    iters: u32,
    variants: Vec<VariantResult>,
}

fn main() -> ExitCode {
    let mut seed = 2026u64;
    let mut smoke = false;
    let mut iters = 0u32; // 0 = mode default
    let (raw, obs_args) = adgen_obs::take_obs_args(std::env::args().skip(1).collect());
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--seed" => seed = flag_value(&mut args, &a),
            "--iters" => iters = flag_value(&mut args, &a),
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!(
                    "usage: simbench [--smoke] [--seed N] [--iters N] [--trace FILE] [--metrics]"
                );
                std::process::exit(2);
            }
        }
    }
    // Fig. 7 configuration, matching `faultcamp`: block-matching
    // motion estimation with 2x2 macroblocks. The smoke run exists to
    // gate classification agreement in CI, so one timed iteration is
    // enough; the full run times best-of-3.
    let recipe = Fig7Recipe::new(smoke);
    if iters == 0 {
        iters = recipe.simbench_iters();
    }
    let shape = recipe.shape;
    let seq = recipe.sequence();
    let cycles = recipe.cycles();
    let seu_samples = recipe.seu_samples;

    println!(
        "simbench: motion_est {}x{} mb=2, {} cycles, {} SEU samples, seed {}, best of {}",
        shape.width(),
        shape.height(),
        cycles,
        seu_samples,
        seed,
        iters
    );

    let mut sink = ObsJsonSink::new(
        "BENCH_sim.json",
        smoke,
        obs_args,
        SimState {
            shape,
            cycles,
            seed,
            seu_samples,
            iters,
            variants: Vec::new(),
        },
        render_sim_json,
    );

    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).expect("paper workload maps");
    let plain = pair.elaborate().expect("paper workload elaborates");
    let hardened = pair
        .elaborate_hardened()
        .expect("paper workload elaborates hardened");

    // Exactly the campaigns `compare_resilience` runs.
    let campaigns = ring_campaigns(&plain, &hardened, cycles, seu_samples, seed);
    for (name, (spec, faults)) in ["srag-plain", "srag-hardened"].into_iter().zip(&campaigns) {
        let v = measure_variant(name, spec, faults, iters);
        println!(
            "  {:<14} {:>4} faults in {:>2} packed passes ({:.1}% lane utilization)",
            v.name, v.faults, v.passes, v.lane_utilization_pct
        );
        println!(
            "  {:<14} one-lane {:>9.3} ms, sliced {:>9.3} ms, speedup {:.1}x{}",
            "",
            v.scalar_s * 1e3,
            v.sliced_s * 1e3,
            v.speedup(),
            if v.diverged { "  [DIVERGED]" } else { "" }
        );
        sink.state().variants.push(v);
    }

    let diverged = sink.state().variants.iter().any(|v| v.diverged);
    let min_speedup = sink
        .state()
        .variants
        .iter()
        .map(VariantResult::speedup)
        .fold(f64::INFINITY, f64::min);
    sink.finish();

    if diverged {
        eprintln!("FAIL: a campaign classifies faults differently from the event-driven oracle");
        return ExitCode::FAILURE;
    }
    println!("  classifications: byte-identical to the event-driven oracle");
    if !smoke && min_speedup < 8.0 {
        eprintln!("FAIL: sliced speedup {min_speedup:.1}x below the 8x contract");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The timed baseline: the golden trace and one one-lane replay per
/// fault, each classified against the golden trace.
fn replay_one_by_one(spec: &CampaignSpec, faults: &[Fault]) -> CampaignReport {
    let golden = replay(spec, None);
    let outcomes = faults
        .iter()
        .map(|&fault| FaultOutcome {
            fault,
            class: classify(&golden, &replay(spec, Some(fault)), spec.alarm_output),
        })
        .collect();
    CampaignReport {
        cycles: spec.cycles,
        outcomes,
    }
}

/// Times one-lane and sliced replay on one (spec, universe) pair,
/// best-of-`iters`, then checks both against the event-driven oracle,
/// untimed. The baseline is timed first so cache warm-up, if
/// anything, favours it.
fn measure_variant(
    name: &'static str,
    spec: &CampaignSpec,
    faults: &[Fault],
    iters: u32,
) -> VariantResult {
    let mut scalar_s = f64::INFINITY;
    let mut sliced_s = f64::INFINITY;
    let mut scalar_report = None;
    let mut sliced_report = None;
    for _ in 0..iters {
        let started = Instant::now();
        let r = replay_one_by_one(spec, faults);
        scalar_s = scalar_s.min(started.elapsed().as_secs_f64());
        scalar_report = Some(r);

        let started = Instant::now();
        let r = run_campaign(spec, faults, 1);
        sliced_s = sliced_s.min(started.elapsed().as_secs_f64());
        sliced_report = Some(r);
    }
    let scalar_report = scalar_report.expect("at least one iteration");
    let sliced_report = sliced_report.expect("at least one iteration");
    let oracle = run_campaign_scalar(spec, faults, 1);
    let diverged = scalar_report != oracle || sliced_report != oracle;

    // Each packed pass carries one chunk of up to 63 faults plus the
    // golden lane; utilization is occupied lanes over 64 per pass.
    let passes = faults.len().div_ceil(SLICED_FAULT_LANES);
    let lane_utilization_pct = if passes == 0 {
        0.0
    } else {
        100.0 * (faults.len() + passes) as f64 / (passes * 64) as f64
    };
    VariantResult {
        name,
        faults: faults.len(),
        passes,
        lane_utilization_pct,
        scalar_s,
        sliced_s,
        report: sliced_report,
        diverged,
    }
}

/// The record's fields, one row per variant.
fn render_sim_json(state: &SimState) -> Vec<Field> {
    let variants = state.variants.iter().map(|v| {
        let r = &v.report;
        format!(
            "{{\"name\": \"{}\", \"faults\": {}, \"passes\": {}, \
             \"lane_utilization_pct\": {:.2}, \"scalar_ms\": {:.3}, \"sliced_ms\": {:.3}, \
             \"speedup\": {:.2}, \"identical\": {}, \"detected\": {}, \"alarmed\": {}, \
             \"silent\": {}, \"benign\": {}}}",
            v.name,
            v.faults,
            v.passes,
            v.lane_utilization_pct,
            v.scalar_s * 1e3,
            v.sliced_s * 1e3,
            v.speedup(),
            !v.diverged,
            r.detected(),
            r.alarmed(),
            r.silent(),
            r.benign(),
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
        ("iters", state.iters.to_string()),
        ("fault_lanes_per_pass", SLICED_FAULT_LANES.to_string()),
        ("variants", array("  ", variants)),
    ]
}
