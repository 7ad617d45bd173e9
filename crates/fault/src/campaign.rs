//! Deterministic fault-injection campaign engine.
//!
//! A campaign fixes a netlist, a cycle budget, and a stimulus (the
//! canonical address-generator drive: one reset cycle, then `next`
//! held high), runs the fault-free *golden* trace once, then replays
//! every fault in a list against it and classifies the outcome:
//!
//! * [`Classification::Detected`] — the faulty run diverged at a
//!   primary output, or the design's own alarm output fired. The
//!   recorded cycle is the first detection; `alarm` distinguishes
//!   self-checking detection from plain output divergence.
//! * [`Classification::Silent`] — every output matched the golden
//!   trace for the whole window, but the final flip-flop states
//!   differ: latent corruption that a longer run could still expose.
//! * [`Classification::Benign`] — the faulty run is
//!   indistinguishable from the golden run, outputs and state.
//!
//! Replays run on the compiled simulator with many lanes, packed
//! [`SLICED_FAULT_LANES`] faults plus one shared golden lane per
//! pass: lane 0 re-runs the fault-free machine (cross-checked against
//! the one-lane golden trace every cycle it runs) while lanes `1..`
//! each carry one injected fault, so one netlist walk classifies a
//! whole batch. The golden run also keeps the flip-flop states after
//! every cycle. Passes take the faults stuck-ats first, then upsets
//! by strike cycle; an upset cannot diverge before it strikes, so a
//! pass of upsets loads the golden checkpoint just before its
//! earliest strike instead of replaying from reset. Chunks fan out
//! over [`adgen_exec::par_map`], whose output order is its input
//! order regardless of the job count, and are scattered back to
//! fault-list order, so a campaign report is byte-identical across
//! `--jobs` settings. Each fault is pure data ([`Fault::id`]), so any
//! single outcome can be reproduced from the `FAULT=` token in its
//! repro line — single-fault reproduction uses the one-lane
//! [`replay`].
//!
//! [`run_campaign_scalar`] is the campaign-level oracle: it replays
//! the golden trace and every fault, one at a time, on the
//! event-driven engine ([`replay_event`]), which never goes through
//! the gate compiler the compiled engine steps.

use adgen_exec::par_map;
use adgen_netlist::{EventSimulator, LaneMask, Logic, Netlist, SimControl, Simulator};
use adgen_obs as obs;

use crate::model::Fault;

/// Faults packed per sliced pass; lane 0 is the shared golden lane,
/// so a full pass uses all 64 lanes of one machine word.
pub const SLICED_FAULT_LANES: usize = 63;

/// What a campaign runs: the design plus the observation window.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec<'a> {
    /// The design under test. Inputs must be `[reset, next, ...]`
    /// (the shared convention of every generator in this workspace);
    /// inputs past `next` are held low.
    pub netlist: &'a Netlist,
    /// Number of observed post-reset cycles.
    pub cycles: u32,
    /// Primary-output index of a self-checking alarm, if the design
    /// has one. The alarm output is excluded from divergence
    /// comparison; it seeing `1` classifies the fault as
    /// alarm-detected.
    pub alarm_output: Option<usize>,
}

/// The observable behaviour of one run: primary-output values for
/// cycles `1..=cycles` (the reset cycle is not compared — alarms and
/// outputs may float before initialization), plus the final
/// flip-flop states for latent-corruption detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Output values per observed cycle.
    pub outputs: Vec<Vec<Logic>>,
    /// Flip-flop states after the last cycle, in instance order.
    pub final_states: Vec<Logic>,
}

/// Outcome of one fault replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Observable divergence from the golden run.
    Detected {
        /// First cycle (1-based) at which the fault was observable.
        cycle: u32,
        /// Whether the design's alarm output made the detection (as
        /// opposed to plain output corruption).
        alarm: bool,
    },
    /// Outputs matched all window, but final state differs — the
    /// fault is latent in the machine state.
    Silent,
    /// No observable or latent difference from the golden run.
    Benign,
}

/// The campaign drive as two input vectors, built once per replay or
/// pass: the reset vector for cycle 0 (`reset` high) and the run
/// vector for every later cycle (`next` high, if the design has it).
fn stimulus(netlist: &Netlist) -> (Vec<bool>, Vec<bool>) {
    let num_inputs = netlist.inputs().len();
    let mut reset = vec![false; num_inputs];
    reset[0] = true;
    let mut run = vec![false; num_inputs];
    if num_inputs > 1 {
        run[1] = true;
    }
    (reset, run)
}

/// The shared replay body: injects `fault` into any engine through
/// the [`SimControl`] surface and records the observable trace. With
/// `checkpoints`, it also appends the flip-flop states after every
/// step, the reset step first.
///
/// # Panics
///
/// Panics on a stepping failure — campaign inputs are validated
/// netlists, so this indicates a bug.
fn replay_on<S: SimControl>(
    sim: &mut S,
    spec: &CampaignSpec<'_>,
    fault: Option<Fault>,
    mut checkpoints: Option<&mut Vec<Logic>>,
) -> Trace {
    if let Some(Fault::StuckAt { net, value }) = fault {
        sim.force_net(net, if value { Logic::One } else { Logic::Zero });
    }
    let (reset, run) = stimulus(spec.netlist);
    sim.step_bools(&reset).expect("reset step");
    if let Some(states) = checkpoints.as_deref_mut() {
        states.extend(sim.flip_flop_states());
    }
    let mut outputs = Vec::with_capacity(spec.cycles as usize);
    for cycle in 1..=spec.cycles {
        if let Some(Fault::Seu { ff, cycle: c }) = fault {
            if c == cycle {
                sim.upset_flip_flop(ff);
            }
        }
        sim.step_bools(&run).expect("step");
        outputs.push(sim.output_values());
        if let Some(states) = checkpoints.as_deref_mut() {
            states.extend(sim.flip_flop_states());
        }
    }
    Trace {
        outputs,
        final_states: sim.flip_flop_states(),
    }
}

/// [`replay`], also handing back the compiled simulator it ran on and
/// appending the per-step states to `checkpoints` if asked.
fn replay_compiled<'a>(
    spec: &CampaignSpec<'a>,
    fault: Option<Fault>,
    checkpoints: Option<&mut Vec<Logic>>,
) -> (Simulator<'a>, Trace) {
    let _span = obs::span_arg("fault.replay", u64::from(spec.cycles));
    obs::add(obs::Ctr::FaultReplays, 1);
    let mut sim = Simulator::new(spec.netlist).expect("campaign netlist must be simulable");
    let trace = replay_on(&mut sim, spec, fault, checkpoints);
    (sim, trace)
}

/// Runs the campaign stimulus on the compiled one-lane simulator with
/// an optional injected fault; `None` produces the golden trace.
///
/// # Panics
///
/// Panics if the netlist fails simulator construction or stepping —
/// campaign inputs are validated netlists, so this indicates a bug.
pub fn replay(spec: &CampaignSpec<'_>, fault: Option<Fault>) -> Trace {
    replay_compiled(spec, fault, None).1
}

/// [`replay`] on the event-driven simulator — the same trace, from an
/// engine that walks the raw netlist. [`run_campaign_scalar`], the
/// differential tests and the fuzzer use it to cross-check the
/// compiled engine and its injection hooks.
///
/// # Panics
///
/// As [`replay`].
pub fn replay_event(spec: &CampaignSpec<'_>, fault: Option<Fault>) -> Trace {
    let mut sim = EventSimulator::new(spec.netlist).expect("campaign netlist must be simulable");
    replay_on(&mut sim, spec, fault, None)
}

/// Compares a faulty trace against the golden one.
pub fn classify(golden: &Trace, faulty: &Trace, alarm_output: Option<usize>) -> Classification {
    for (i, (g, f)) in golden.outputs.iter().zip(&faulty.outputs).enumerate() {
        let cycle = i as u32 + 1;
        if let Some(a) = alarm_output {
            if f[a] == Logic::One {
                return Classification::Detected { cycle, alarm: true };
            }
        }
        let diverged = g
            .iter()
            .zip(f)
            .enumerate()
            .any(|(j, (gv, fv))| Some(j) != alarm_output && gv != fv);
        if diverged {
            return Classification::Detected {
                cycle,
                alarm: false,
            };
        }
    }
    if golden.final_states == faulty.final_states {
        Classification::Benign
    } else {
        Classification::Silent
    }
}

/// One classified fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The injected fault.
    pub fault: Fault,
    /// Its classification against the golden run.
    pub class: Classification,
}

/// The classified fault list, in fault-list order (jobs-invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Observation window used.
    pub cycles: u32,
    /// One outcome per input fault, same order.
    pub outcomes: Vec<FaultOutcome>,
}

impl CampaignReport {
    /// Faults observably detected (output divergence or alarm).
    pub fn detected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.class, Classification::Detected { .. }))
            .count()
    }

    /// Detected faults whose first detection was the alarm output.
    pub fn alarmed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.class, Classification::Detected { alarm: true, .. }))
            .count()
    }

    /// Faults that silently corrupted machine state.
    pub fn silent(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.class == Classification::Silent)
            .count()
    }

    /// Faults with no effect at all.
    pub fn benign(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.class == Classification::Benign)
            .count()
    }

    /// Detected / (total − benign), as a percentage; benign faults
    /// cannot be detected by any observer, so they are excluded from
    /// the denominator. 100 when every effective fault is benign.
    pub fn coverage_pct(&self) -> f64 {
        let effective = self.outcomes.len() - self.benign();
        if effective == 0 {
            100.0
        } else {
            100.0 * self.detected() as f64 / effective as f64
        }
    }

    /// Alarm-detected / (total − benign), as a percentage — the
    /// self-checking coverage. Zero for designs without an alarm.
    pub fn alarm_coverage_pct(&self) -> f64 {
        let effective = self.outcomes.len() - self.benign();
        if effective == 0 {
            100.0
        } else {
            100.0 * self.alarmed() as f64 / effective as f64
        }
    }

    /// One-line summary, stable across job counts.
    pub fn summary(&self) -> String {
        format!(
            "{} faults: {} detected ({} by alarm), {} silent, {} benign; coverage {:.1}%, alarm coverage {:.1}%",
            self.outcomes.len(),
            self.detected(),
            self.alarmed(),
            self.silent(),
            self.benign(),
            self.coverage_pct(),
            self.alarm_coverage_pct(),
        )
    }
}

/// Records the classification counters for one classified fault.
fn count_classification(class: Classification) {
    match class {
        Classification::Detected { alarm, .. } => {
            obs::add(obs::Ctr::FaultDetected, 1);
            if alarm {
                obs::add(obs::Ctr::FaultAlarmed, 1);
            }
        }
        Classification::Silent => obs::add(obs::Ctr::FaultSilent, 1),
        Classification::Benign => obs::add(obs::Ctr::FaultBenign, 1),
    }
}

/// The fault-free run every pass is classified against.
struct Golden<'a> {
    /// The one-lane trace the golden lane is cross-checked against.
    trace: Trace,
    /// Flip-flop states after every step, one row of
    /// `trace.final_states.len()` values per step: row 0 after reset,
    /// row `c` after cycle `c`.
    checkpoints: Vec<Logic>,
    /// The one-lane machine that ran it; every pass builds its lanes
    /// from this machine's compiled program.
    sim: Simulator<'a>,
}

impl Golden<'_> {
    /// The golden flip-flop states after cycle `cycle`.
    fn checkpoint(&self, cycle: u32) -> &[Logic] {
        let width = self.trace.final_states.len();
        &self.checkpoints[cycle as usize * width..][..width]
    }
}

/// The cycle an upset strikes; `None` for a stuck-at, which acts from
/// reset. Sorting by it puts the stuck-ats first, then the upsets in
/// strike order.
fn strike(fault: &Fault) -> Option<u32> {
    match *fault {
        Fault::StuckAt { .. } => None,
        Fault::Seu { cycle, .. } => Some(cycle),
    }
}

/// Replays and classifies up to [`SLICED_FAULT_LANES`] faults in one
/// bit-sliced pass: lane 0 is the shared golden lane, lane `k + 1`
/// carries `chunk[k]`. The golden lane is cross-checked against the
/// one-lane golden trace every cycle the pass runs, so a word-seam or
/// lane-mask defect cannot silently misclassify a batch.
///
/// `chunk` is sorted by [`strike`]. A pass of upsets only starts at
/// its earliest strike `s`: no lane can leave the golden machine
/// before it, so for `s > 1` every lane loads the golden checkpoint
/// after cycle `s - 1` and the pass steps from cycle `s` (a strike
/// past the window loads the final states and steps nothing). A pass
/// with a stuck-at runs from reset.
///
/// # Panics
///
/// Panics if `chunk` exceeds [`SLICED_FAULT_LANES`], or on any
/// golden-lane divergence from the one-lane trace.
fn classify_chunk(
    spec: &CampaignSpec<'_>,
    golden: &Golden<'_>,
    chunk: &[Fault],
) -> Vec<Classification> {
    assert!(chunk.len() <= SLICED_FAULT_LANES, "chunk exceeds one word");
    let _span = obs::span_arg("fault.replay.sliced", chunk.len() as u64);
    obs::add(obs::Ctr::FaultReplays, chunk.len() as u64);
    let lanes = chunk.len() + 1;
    let mut sim = golden
        .sim
        .fresh_with_lanes(lanes)
        .expect("a pass has at least the golden lane");
    for (k, fault) in chunk.iter().enumerate() {
        if let Fault::StuckAt { net, value } = *fault {
            let v = if value { Logic::One } else { Logic::Zero };
            sim.force_net_lanes(net, v, &LaneMask::single(k + 1, lanes));
        }
    }
    let active: u64 = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
    // Lanes not yet detected; the golden lane never detects.
    let mut pending = active & !1;
    let mut classes = vec![Classification::Benign; chunk.len()];
    let outs = spec.netlist.outputs();
    let num_states = golden.trace.final_states.len();
    let (reset, run) = stimulus(spec.netlist);
    let start = match chunk.first().and_then(strike) {
        Some(s) => s.clamp(1, spec.cycles.saturating_add(1)),
        None => 1,
    };
    if start > 1 {
        sim.load_flip_flop_states(golden.checkpoint(start - 1))
            .expect("checkpoint rows are one state per flip-flop");
    } else {
        sim.step_bools(&reset).expect("reset step");
    }
    for cycle in start..=spec.cycles {
        for (k, fault) in chunk.iter().enumerate() {
            if let Fault::Seu { ff, cycle: c } = *fault {
                if c == cycle {
                    sim.upset_flip_flop_lanes(ff, &LaneMask::single(k + 1, lanes));
                }
            }
        }
        sim.step_bools(&run).expect("step");
        let grow = &golden.trace.outputs[cycle as usize - 1];
        // The alarm firing takes precedence over plain divergence,
        // exactly as in the per-trace `classify`.
        if let Some(a) = spec.alarm_output {
            let (ones, _) = sim.packed_value(outs[a], 0);
            let fired = ones & pending;
            mark_detected(&mut classes, &mut pending, fired, cycle, true);
        }
        let mut diverged = 0u64;
        for (j, &net) in outs.iter().enumerate() {
            let (ones, xs) = sim.packed_value(net, 0);
            // Lanes whose value differs from the golden row's value.
            let diff = match grow[j] {
                Logic::One => active & !ones,
                Logic::Zero => ones | xs,
                Logic::X => active & !xs,
            };
            assert_eq!(diff & 1, 0, "golden lane diverged on output {j}");
            if Some(j) != spec.alarm_output {
                diverged |= diff;
            }
        }
        let hits = diverged & pending;
        mark_detected(&mut classes, &mut pending, hits, cycle, false);
        if pending == 0 && cycle < spec.cycles {
            // Every fault already classified; the remaining window
            // cannot change any outcome.
            break;
        }
    }
    for (k, class) in classes.iter_mut().enumerate() {
        let lane = k + 1;
        if pending >> lane & 1 == 0 {
            continue;
        }
        let states = sim.flip_flop_states_lane(lane);
        assert_eq!(states.len(), num_states, "state vector width");
        *class = if states == golden.trace.final_states {
            Classification::Benign
        } else {
            Classification::Silent
        };
    }
    // The golden lane's latent state must match the one-lane trace too
    // (only checked when the loop ran the full window — an early
    // break means every lane was classified by then).
    if pending != 0 || spec.cycles == 0 {
        assert_eq!(
            sim.flip_flop_states_lane(0),
            golden.trace.final_states,
            "golden lane final state diverged"
        );
    }
    classes
}

/// Flags `hits` lanes as detected at `cycle` and removes them from
/// `pending`.
fn mark_detected(
    classes: &mut [Classification],
    pending: &mut u64,
    hits: u64,
    cycle: u32,
    alarm: bool,
) {
    let mut rest = hits;
    while rest != 0 {
        let lane = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        classes[lane - 1] = Classification::Detected { cycle, alarm };
    }
    *pending &= !hits;
}

/// Replays and classifies every fault in `faults` on the compiled
/// engine, [`SLICED_FAULT_LANES`] faults plus one golden lane per
/// pass, fanning the passes out over `jobs` worker threads. The
/// golden trace and its per-cycle checkpoints come from one one-lane
/// run, whose compiled program every pass reuses. Passes take the
/// faults stuck-ats first, then upsets by strike cycle, so each pass
/// of upsets starts at its earliest strike; the results are scattered
/// back, so output order equals `faults` order — and classifications
/// are identical to [`run_campaign_scalar`] — for any job count.
pub fn run_campaign(spec: &CampaignSpec<'_>, faults: &[Fault], jobs: usize) -> CampaignReport {
    let _span = obs::span_arg("fault.campaign", faults.len() as u64);
    let steps = spec.cycles as usize + 1;
    let mut checkpoints = Vec::with_capacity(steps * spec.netlist.num_flip_flops());
    let (sim, trace) = replay_compiled(spec, None, Some(&mut checkpoints));
    let golden = Golden {
        trace,
        checkpoints,
        sim,
    };
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&i| strike(&faults[i]));
    let sorted: Vec<Fault> = order.iter().map(|&i| faults[i]).collect();
    let chunks: Vec<&[Fault]> = sorted.chunks(SLICED_FAULT_LANES).collect();
    let per_chunk = par_map(&chunks, jobs, |_, &chunk| {
        let classes = classify_chunk(spec, &golden, chunk);
        if obs::enabled() {
            for &class in &classes {
                count_classification(class);
            }
        }
        classes
    });
    let mut classes = vec![Classification::Benign; faults.len()];
    for (&i, class) in order.iter().zip(per_chunk.into_iter().flatten()) {
        classes[i] = class;
    }
    let outcomes = faults
        .iter()
        .zip(classes)
        .map(|(&fault, class)| FaultOutcome { fault, class })
        .collect();
    CampaignReport {
        cycles: spec.cycles,
        outcomes,
    }
}

/// The campaign-level oracle: the golden trace and one replay per
/// fault, all on the event-driven engine ([`replay_event`]), which
/// never goes through the gate compiler. CI asserts that it and
/// [`run_campaign`] classify every fault identically.
pub fn run_campaign_scalar(
    spec: &CampaignSpec<'_>,
    faults: &[Fault],
    jobs: usize,
) -> CampaignReport {
    let _span = obs::span_arg("fault.campaign", faults.len() as u64);
    let golden = replay_event(spec, None);
    let outcomes = par_map(faults, jobs, |_, &fault| {
        let faulty = replay_event(spec, Some(fault));
        let class = classify(&golden, &faulty, spec.alarm_output);
        if obs::enabled() {
            count_classification(class);
        }
        FaultOutcome { fault, class }
    });
    CampaignReport {
        cycles: spec.cycles,
        outcomes,
    }
}

/// Fuzz-style reproduction line for one fault: paste the `--fault`
/// token back into the campaign binary to replay exactly this fault.
pub fn repro_line(seed: u64, fault: &Fault) -> String {
    format!(
        "SEED={seed} FAULT={id} reproduce: cargo run --release -p adgen-bench --bin faultcamp -- --seed {seed} --fault {id}",
        id = fault.id()
    )
}
