//! The batch workloads: the paper's evaluation sweep and the fault
//! campaigns. Each iteration is the same fixed amount of work on two
//! worker threads; its latency is one sample and its design points
//! (sweep) or classified faults (campaigns) are its operations.

use std::time::Instant;

use adgen_bench::experiments::{
    ablation, fig3_4, fig8_9_10, interconnect, power_study, sharing, synth_time, table3,
    AblationRow, Fig34Row, Fig8910Row, InterconnectRow, PowerRow, SharingRow, Table3Row,
    PAPER_ARRAY_SIZES, PAPER_SEQUENCE_LENGTHS,
};
use adgen_bench::report::{write_fig3_4_csv, write_fig8_10_csv};
use adgen_cntag::{CntAgNetlist, CntAgSpec};
use adgen_core::composite::Srag2d;
use adgen_exec::Prng;
use adgen_explorer::{compare_resilience, ring_fault_universe, ResilienceRow};
use adgen_fault::{
    flip_flop_ids, run_campaign, run_campaign_scalar, sample_seus, CampaignReport, CampaignSpec,
    Fault, SLICED_FAULT_LANES,
};
use adgen_netlist::{Library, NetId, Netlist};
use adgen_obs as obs;
use adgen_seq::{workloads, AddressSequence, ArrayShape, Layout};

use crate::layers::Layers;
use crate::{host, stats, Config, Outcome, Timed, JOBS};

/// A timed run continues past its time until this many iterations
/// have completed, so the p90 always has ten samples beyond it.
const MIN_ITERATIONS: usize = 100;

/// Iterations in each pass of a traced run.
fn trace_iterations(cfg: &Config) -> usize {
    if cfg.smoke {
        1
    } else {
        40
    }
}

/// One batch workload, built by its set-up.
trait Work {
    /// Everything one iteration computes; compared across iterations.
    type Output: PartialEq;

    /// Runs one iteration.
    fn iterate(&mut self) -> Self::Output;

    /// Operations an iteration's output represents.
    fn ops(output: &Self::Output) -> u64;
}

/// What a run of a batch workload hands to its workload-specific
/// checks.
struct Ran<W: Work> {
    work: W,
    /// The first set-up's warm-up output, which every later iteration
    /// must reproduce.
    reference: W::Output,
}

/// Builds the workload [`Config::setups`] times (each set-up ends with
/// one warm-up iteration), then either times iterations for
/// `cfg.seconds` or runs the traced passes. Any iteration whose output
/// differs from the first set-up's counts all its operations failed.
fn run_work<W: Work>(
    cfg: &Config,
    setup: impl Fn() -> W,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Result<Ran<W>, String> {
    let mut setup_s = Vec::with_capacity(cfg.setups());
    let mut built: Option<Ran<W>> = None;
    for _ in 0..cfg.setups() {
        let started = Instant::now();
        let mut work = setup();
        let warm = work.iterate();
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some(match built {
            None => Ran {
                work,
                reference: warm,
            },
            Some(prev) => {
                if warm != prev.reference {
                    out.problem("a set-up's warm-up output differs from the first");
                }
                Ran {
                    work,
                    reference: prev.reference,
                }
            }
        });
    }
    let mut ran = built.ok_or("no set-up")?;
    let check = |o: &W::Output, out: &mut Outcome| {
        let ops = W::ops(o);
        out.attempted += ops;
        if *o != ran.reference {
            out.failed += ops;
        }
        ops
    };

    if cfg.trace {
        let n = trace_iterations(cfg);
        let untraced = Instant::now();
        for _ in 0..n {
            let o = ran.work.iterate();
            check(&o, out);
        }
        let untraced_s = untraced.elapsed().as_secs_f64();
        let cpu0 = host::cpu_seconds()?;
        let traced = Instant::now();
        obs::start();
        for _ in 0..n {
            let o = ran.work.iterate();
            check(&o, out);
        }
        let rec = obs::take();
        let traced_s = traced.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds()? - cpu0;
        layers.add_recording(&rec, n as f64);
        layers.set("trace.ops", n as f64);
        layers.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
        layers.set("exec.cpu_util", cpu_s / (traced_s * host::nproc() as f64));
        return Ok(ran);
    }

    let min_iterations = if cfg.smoke { 3 } else { MIN_ITERATIONS };
    let mut latencies_ms = Vec::new();
    let mut ops = 0u64;
    let cpu0 = host::cpu_seconds()?;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < cfg.seconds || latencies_ms.len() < min_iterations {
        let t = Instant::now();
        let o = ran.work.iterate();
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ops += check(&o, out);
    }
    let cpu_s = host::cpu_seconds()? - cpu0;
    let per_iteration = ops as f64 / latencies_ms.len() as f64;
    Timed {
        setup_s,
        throughput: per_iteration / (stats::median(&latencies_ms) / 1e3),
        latencies_ms,
        tail_candidates: &[90.0, 50.0],
        cpu_s,
        ops,
    }
    .report(out);
    Ok(ran)
}

// ---------------------------------------------------------------
// sweep-paper
// ---------------------------------------------------------------

/// The kernels of one sweep iteration, in `repro`'s order and at its
/// paper sizes.
const KERNELS: [&str; 8] = [
    "fig3_4",
    "synth_time",
    "fig8_9_10",
    "table3",
    "power",
    "ablation",
    "sharing",
    "interconnect",
];

/// Every row one sweep iteration produces. `synth_time`'s wall-clock
/// columns vary by nature; only its sequence lengths are compared.
#[derive(Debug, Default, PartialEq)]
struct SweepRows {
    fig3_4: Vec<Fig34Row>,
    synth_time_n: Vec<u32>,
    fig8_9_10: Vec<Fig8910Row>,
    table3: Vec<Table3Row>,
    power: Vec<PowerRow>,
    ablation: Vec<AblationRow>,
    sharing: Vec<SharingRow>,
    interconnect: Vec<InterconnectRow>,
}

struct Sweep {
    /// Kernel order, shuffled by the seed: results must not depend on
    /// what ran before.
    order: [usize; 8],
    /// Milliseconds of each kernel call, per kernel.
    kernel_ms: [Vec<f64>; 8],
}

impl Work for Sweep {
    type Output = SweepRows;

    fn iterate(&mut self) -> SweepRows {
        let mut rows = SweepRows::default();
        for &k in &self.order {
            let t = Instant::now();
            match k {
                0 => rows.fig3_4 = fig3_4(&PAPER_SEQUENCE_LENGTHS, JOBS),
                1 => {
                    rows.synth_time_n = synth_time(&PAPER_SEQUENCE_LENGTHS, JOBS)
                        .iter()
                        .map(|r| r.n)
                        .collect()
                }
                2 => rows.fig8_9_10 = fig8_9_10(&PAPER_ARRAY_SIZES, JOBS),
                3 => rows.table3 = table3(&[16, 32, 64], JOBS),
                4 => rows.power = power_study(&[16, 64], JOBS),
                5 => rows.ablation = ablation(&[16, 64], JOBS),
                6 => rows.sharing = sharing(&[16, 64, 256], JOBS),
                _ => rows.interconnect = interconnect(&[0.0, 30.0, 60.0, 120.0, 240.0], JOBS),
            }
            self.kernel_ms[k].push(t.elapsed().as_secs_f64() * 1e3);
        }
        rows
    }

    fn ops(r: &SweepRows) -> u64 {
        (r.fig3_4.len()
            + r.synth_time_n.len()
            + r.fig8_9_10.len()
            + r.table3.iter().map(|t| t.rows.len()).sum::<usize>()
            + r.power.len()
            + r.ablation.len()
            + r.sharing.len()
            + r.interconnect.len()) as u64
    }
}

/// Runs `sweep-paper`.
///
/// # Errors
///
/// Infrastructure failures only; wrong outputs are recorded in the
/// outcome.
pub fn sweep_paper(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut order = [0, 1, 2, 3, 4, 5, 6, 7];
    Prng::for_stream(cfg.seed, 0x5eed).shuffle(&mut order);
    let ran = run_work(
        cfg,
        || Sweep {
            order,
            kernel_ms: Default::default(),
        },
        &mut out,
        &mut layers,
    )?;

    // The paper figures must match the committed results byte for byte.
    let fig3_4_csv = cfg.scratch.join("fig3_4.csv");
    let fig8_10_csv = cfg.scratch.join("fig8_10.csv");
    write_fig3_4_csv(&ran.reference.fig3_4, &fig3_4_csv)
        .and_then(|()| write_fig8_10_csv(&ran.reference.fig8_9_10, &fig8_10_csv))
        .map_err(|e| format!("writing the figure CSVs: {e}"))?;
    for (path, committed) in [
        (fig3_4_csv, include_str!("../../results/fig3_4.csv")),
        (fig8_10_csv, include_str!("../../results/fig8_10.csv")),
    ] {
        let fresh =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if fresh != committed {
            out.problem(format!(
                "{} rows differ from the committed results",
                path.display()
            ));
        }
    }
    out.check_digest(
        cfg,
        &crate::digest(format!("{:?}", ran.reference).as_bytes()),
    );
    if cfg.trace {
        // Kernel times from the untraced pass: the first samples are
        // set-up warm-ups, the last `n` the traced pass.
        let n = trace_iterations(cfg);
        for (k, name) in KERNELS.iter().enumerate() {
            let ms = &ran.work.kernel_ms[k];
            let untraced = &ms[ms.len() - 2 * n..ms.len() - n];
            layers.set(&format!("sweep.{name}_ms"), stats::median(untraced));
        }
        out.set_layers(&layers);
    }
    Ok(out)
}

// ---------------------------------------------------------------
// fault-replay
// ---------------------------------------------------------------

/// Edge of the motion-estimation array the campaigns run on.
const FAULT_ARRAY: u32 = 32;

/// SEUs sampled per variant.
const SEU_SAMPLES: usize = 1024;

/// Faults per variant cross-checked against the scalar engine: one
/// full sliced pass.
const SCALAR_SAMPLE: usize = SLICED_FAULT_LANES;

/// One campaign iteration's results.
#[derive(Debug, PartialEq)]
struct FaultRows {
    row: ResilienceRow,
    plain: CampaignReport,
    hardened: CampaignReport,
    cntag: CampaignReport,
}

struct Faults {
    seed: u64,
    library: Library,
    shape: ArrayShape,
    sequence: AddressSequence,
    cntag: CntAgNetlist,
    cntag_faults: Vec<Fault>,
}

impl Faults {
    fn new(seed: u64) -> Faults {
        let shape = ArrayShape::new(FAULT_ARRAY, FAULT_ARRAY);
        let sequence = workloads::motion_est_read(shape, 2, 2, 0);
        let cntag = CntAgNetlist::elaborate(&CntAgSpec::motion_est(shape, 2, 2, 0))
            .expect("the motion-estimation CntAG elaborates");
        let cntag_faults = cntag_universe(&cntag, sequence.len() as u32, seed);
        Faults {
            seed,
            library: Library::vcl018(),
            shape,
            sequence,
            cntag,
            cntag_faults,
        }
    }

    fn cycles(&self) -> u32 {
        self.sequence.len() as u32
    }
}

/// The CntAG universe analogous to the SRAG select-ring one: stuck-at
/// 0/1 on every select line plus SEUs sampled over the counter
/// flip-flops.
fn cntag_universe(cntag: &CntAgNetlist, cycles: u32, seed: u64) -> Vec<Fault> {
    let mut faults: Vec<Fault> = cntag
        .row_lines
        .iter()
        .chain(&cntag.col_lines)
        .flat_map(|&net| [false, true].map(|value| Fault::StuckAt { net, value }))
        .collect();
    faults.extend(sample_seus(
        &flip_flop_ids(&cntag.netlist),
        cycles.saturating_sub(1).max(1),
        SEU_SAMPLES,
        seed,
    ));
    faults
}

impl Work for Faults {
    type Output = FaultRows;

    fn iterate(&mut self) -> FaultRows {
        let (row, plain, hardened) = compare_resilience(
            &self.sequence,
            self.shape,
            &self.library,
            self.cycles(),
            SEU_SAMPLES,
            self.seed,
            JOBS,
        )
        .expect("the motion-estimation stream maps and elaborates");
        let spec = CampaignSpec {
            netlist: &self.cntag.netlist,
            cycles: self.cycles(),
            alarm_output: None,
        };
        let cntag = run_campaign(&spec, &self.cntag_faults, JOBS);
        FaultRows {
            row,
            plain,
            hardened,
            cntag,
        }
    }

    fn ops(r: &FaultRows) -> u64 {
        (r.plain.outcomes.len() + r.hardened.outcomes.len() + r.cntag.outcomes.len()) as u64
    }
}

/// Replays a seeded sample of `report`'s faults on the scalar engine;
/// returns how many classify differently.
fn scalar_mismatches(
    netlist: &Netlist,
    alarm: Option<usize>,
    report: &CampaignReport,
    seed: u64,
) -> usize {
    let mut idx: Vec<usize> = (0..report.outcomes.len()).collect();
    Prng::for_stream(seed, 0x5ca1).shuffle(&mut idx);
    idx.truncate(SCALAR_SAMPLE);
    let faults: Vec<Fault> = idx.iter().map(|&i| report.outcomes[i].fault).collect();
    let spec = CampaignSpec {
        netlist,
        cycles: report.cycles,
        alarm_output: alarm,
    };
    let scalar = run_campaign_scalar(&spec, &faults, JOBS);
    idx.iter()
        .zip(&scalar.outcomes)
        .filter(|(&i, s)| report.outcomes[i].class != s.class)
        .count()
}

/// Runs `fault-replay`.
///
/// # Errors
///
/// Infrastructure failures only; wrong outputs are recorded in the
/// outcome.
pub fn fault_replay(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let ran = run_work(cfg, || Faults::new(cfg.seed), &mut out, &mut layers)?;
    let rows = &ran.reference;
    let hardened = &rows.hardened;
    if hardened.alarm_coverage_pct() < 100.0 || hardened.silent() > 0 {
        out.problem(format!(
            "hardened SRAG self-detection incomplete: {}",
            hardened.summary()
        ));
    }

    let f = &ran.work;
    let pair = Srag2d::map(&f.sequence, f.shape, Layout::RowMajor).map_err(|e| e.to_string())?;
    let plain = pair.elaborate().map_err(|e| e.to_string())?;
    let hard = pair.elaborate_hardened().map_err(|e| e.to_string())?;
    for (name, netlist, alarm, report) in [
        ("plain SRAG", &plain.netlist, None, &rows.plain),
        (
            "hardened SRAG",
            &hard.netlist,
            Some(hard.alarm_output_index()),
            &rows.hardened,
        ),
        ("CntAG", &f.cntag.netlist, None, &rows.cntag),
    ] {
        let wrong = scalar_mismatches(netlist, alarm, report, cfg.seed);
        if wrong > 0 {
            out.problem(format!("{name}: {wrong} of {SCALAR_SAMPLE} sampled faults classify differently on the scalar engine"));
        }
    }
    out.notes.push(format!(
        "{} faults per iteration; hardened SRAG: {}",
        Faults::ops(rows),
        hardened.summary()
    ));
    out.check_digest(cfg, &crate::digest(format!("{rows:?}").as_bytes()));

    if cfg.trace {
        // Set-up layers, timed from outside: SRAG mapping and
        // elaboration, and building the three fault universes.
        let reps = 5;
        let started = Instant::now();
        for _ in 0..reps {
            let pair =
                Srag2d::map(&f.sequence, f.shape, Layout::RowMajor).map_err(|e| e.to_string())?;
            std::hint::black_box((pair.elaborate().ok(), pair.elaborate_hardened().ok()));
        }
        layers.set(
            "core.elaborate_ms",
            started.elapsed().as_secs_f64() * 1e3 / reps as f64,
        );
        let lines =
            |a: &[NetId], b: &[NetId]| -> Vec<NetId> { a.iter().chain(b).copied().collect() };
        let plain_ring = lines(&plain.row_lines, &plain.col_lines);
        let hard_lines = lines(&hard.row_lines, &hard.col_lines);
        let hard_ring = lines(&hard.row_ring_ffs, &hard.col_ring_ffs);
        let cycles = f.cycles();
        let started = Instant::now();
        for _ in 0..reps {
            std::hint::black_box((
                ring_fault_universe(
                    &plain.netlist,
                    &plain_ring,
                    &plain_ring,
                    cycles,
                    SEU_SAMPLES,
                    cfg.seed,
                ),
                ring_fault_universe(
                    &hard.netlist,
                    &hard_lines,
                    &hard_ring,
                    cycles,
                    SEU_SAMPLES,
                    cfg.seed,
                ),
                cntag_universe(&f.cntag, cycles, cfg.seed),
            ));
        }
        layers.set(
            "fault.universe_ms",
            started.elapsed().as_secs_f64() * 1e3 / reps as f64,
        );
        out.set_layers(&layers);
    }
    Ok(out)
}
