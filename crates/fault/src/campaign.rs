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
//! the one-lane golden run every cycle it runs) while lanes `1..`
//! each carry one injected fault, so one netlist walk classifies a
//! whole batch. Passes take the faults stuck-ats first, then upsets
//! by strike cycle; an upset cannot diverge before it strikes, so a
//! pass of upsets loads the golden checkpoint just before its
//! earliest strike instead of replaying from reset.
//!
//! [`run_campaigns`] validates every campaign's netlist up front
//! (a typed [`NetlistError`] replays nothing), then runs all the
//! campaigns as one fan-out over [`adgen_exec::par_map`]: every
//! campaign's golden run first, then every pass. Each machine, golden
//! or pass, is built on its own worker and borrows the one gate
//! program its netlist compiles. A golden run publishes each cycle's
//! output row, and the checkpoint rows its passes load, as it steps;
//! the passes trail it on the other workers and wait only when they
//! catch up. Items
//! are claimed in input order and a golden run never waits, so the
//! fan-out cannot deadlock, and a golden run that stops early fails
//! its waiting passes instead of hanging them. [`run_campaign`] is
//! the one-campaign case. `par_map`'s output order is its input order
//! regardless of the job count, and the passes are scattered back to
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

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use adgen_exec::par_map;
use adgen_netlist::{
    EventSimulator, LaneMask, Logic, Netlist, NetlistError, SimControl, Simulator,
};
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
    let high = |pin| (0..netlist.inputs().len()).map(|i| i == pin).collect();
    (high(0), high(1))
}

/// Steps `sim` one cycle on `inputs`, a [`stimulus`] vector of the
/// netlist `sim` runs. It never panics: the stimulus is built from
/// the netlist's own inputs, and the input width is all a step checks.
fn step<S: SimControl>(sim: &mut S, inputs: &[bool]) {
    sim.step_bools(inputs)
        .expect("the stimulus is built from the netlist's own inputs");
}

/// The shared replay body: injects `fault` into any engine through
/// the [`SimControl`] surface and records the observable trace.
fn replay_on<S: SimControl>(sim: &mut S, spec: &CampaignSpec<'_>, fault: Option<Fault>) -> Trace {
    if let Some(Fault::StuckAt { net, value }) = fault {
        sim.force_net(net, Logic::from_bool(value));
    }
    let (reset, run) = stimulus(spec.netlist);
    step(sim, &reset);
    let mut outputs = Vec::with_capacity(spec.cycles as usize);
    for cycle in 1..=spec.cycles {
        if let Some(Fault::Seu { ff, cycle: c }) = fault {
            if c == cycle {
                sim.upset_flip_flop(ff);
            }
        }
        step(sim, &run);
        outputs.push(sim.output_values());
    }
    Trace {
        outputs,
        final_states: sim.flip_flop_states(),
    }
}

/// Runs the campaign stimulus on the compiled one-lane simulator with
/// an optional injected fault; `None` produces the golden trace.
///
/// # Panics
///
/// Panics if the netlist does not [`validate`](Netlist::validate).
pub fn replay(spec: &CampaignSpec<'_>, fault: Option<Fault>) -> Trace {
    let _span = obs::span_arg("fault.replay", u64::from(spec.cycles));
    obs::add(obs::Ctr::FaultReplays, 1);
    let mut sim = Simulator::new(spec.netlist).expect("campaign netlist must be simulable");
    replay_on(&mut sim, spec, fault)
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
    replay_on(&mut sim, spec, fault)
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
    /// Outcomes whose classification satisfies `pred`.
    fn count(&self, pred: impl Fn(Classification) -> bool) -> usize {
        self.outcomes.iter().filter(|o| pred(o.class)).count()
    }

    /// Faults observably detected (output divergence or alarm).
    pub fn detected(&self) -> usize {
        self.count(|c| matches!(c, Classification::Detected { .. }))
    }

    /// Detected faults whose first detection was the alarm output.
    pub fn alarmed(&self) -> usize {
        self.count(|c| matches!(c, Classification::Detected { alarm: true, .. }))
    }

    /// Faults that silently corrupted machine state.
    pub fn silent(&self) -> usize {
        self.count(|c| c == Classification::Silent)
    }

    /// Faults with no effect at all.
    pub fn benign(&self) -> usize {
        self.count(|c| c == Classification::Benign)
    }

    /// `count` per non-benign fault, in percent (100 with none).
    fn pct_of_effective(&self, count: usize) -> f64 {
        let effective = self.outcomes.len() - self.benign();
        if effective == 0 {
            100.0
        } else {
            100.0 * count as f64 / effective as f64
        }
    }

    /// Detected / (total − benign), as a percentage; benign faults
    /// cannot be detected by any observer, so they are excluded from
    /// the denominator. 100 when every effective fault is benign.
    pub fn coverage_pct(&self) -> f64 {
        self.pct_of_effective(self.detected())
    }

    /// Alarm-detected / (total − benign), as a percentage — the
    /// self-checking coverage. Zero for designs without an alarm.
    pub fn alarm_coverage_pct(&self) -> f64 {
        self.pct_of_effective(self.alarmed())
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

/// Golden cycles published between two wake-ups of the passes waiting
/// for them; the run also wakes them once at its end. A pass that
/// catches up with its golden run sleeps through at most this many
/// golden steps, and the run takes the lock once per batch of cycles
/// rather than once per cycle.
const WAKE_EVERY: usize = 32;

/// The value a golden row's byte holds; the run stores each value
/// `as u8`.
fn logic(code: &AtomicU8) -> Logic {
    match code.load(Ordering::Relaxed) {
        0 => Logic::Zero,
        1 => Logic::One,
        _ => Logic::X,
    }
}

/// One pass: its faults, sorted by [`strike`], and the golden `states`
/// row it starts from (`None`: from reset).
type Pass<'f> = (&'f [Fault], Option<usize>);

/// The fault-free run every pass of one campaign is classified
/// against. One `par_map` item steps it ([`Golden::run`]) and
/// publishes each cycle's values as it goes; passes on other workers
/// read the cycles already published and wait for the rest. All rows
/// are allocated up front by the caller, so the run itself allocates
/// nothing per cycle.
struct Golden<'a> {
    spec: CampaignSpec<'a>,
    /// The primary outputs after each cycle, one row per cycle: row
    /// `c - 1` holds those after cycle `c`.
    outputs: Box<[AtomicU8]>,
    /// The flip-flop states after each cycle in `kept`, one row each.
    states: Box<[AtomicU8]>,
    /// The cycles some pass of upsets starts right after, and the last
    /// cycle, ascending: row `r` of `states` holds those after cycle
    /// `kept[r]`, so the last row holds the final states.
    kept: Vec<usize>,
    /// Cycles published, the reset cycle included: cycle `c` is
    /// readable once this exceeds `c`. The run stores a cycle's bytes
    /// (relaxed), then raises this with a release store; a pass that
    /// reads it with an acquire load sees every byte of each cycle it
    /// covers.
    published: AtomicUsize,
    /// Set when the run stopped before publishing its last cycle. Each
    /// update is one store of a whole `bool`, so a guard recovered
    /// from a poisoned lock still holds a valid value.
    failed: Mutex<bool>,
    /// Wakes the passes waiting for a cycle not yet published.
    wake: Condvar,
}

/// Marks its golden run failed if the run stops before the end (a
/// panic unwinding through [`Golden::run`]), and wakes every waiting
/// pass either way, so no pass waits for a cycle that never comes.
struct Finish<'g, 'a>(&'g Golden<'a>);

impl Drop for Finish<'_, '_> {
    fn drop(&mut self) {
        let golden = self.0;
        let mut failed = golden.failed.lock().unwrap_or_else(PoisonError::into_inner);
        *failed = golden.published.load(Ordering::Acquire) <= golden.spec.cycles as usize;
        golden.wake.notify_all();
    }
}

impl<'a> Golden<'a> {
    /// An unstarted golden run for `spec`, and the passes over
    /// `sorted` (sorted by [`strike`]).
    fn new<'f>(spec: CampaignSpec<'a>, sorted: &'f [Fault]) -> (Self, Vec<Pass<'f>>) {
        let cycles = spec.cycles as usize;
        // The cycle a pass starts right after, unless it runs from reset.
        let after = |chunk| Some(start_cycle(spec.cycles, chunk) as usize - 1).filter(|&c| c > 0);
        let mut kept: Vec<usize> = sorted
            .chunks(SLICED_FAULT_LANES)
            .filter_map(after)
            .chain([cycles])
            .collect();
        kept.sort_unstable();
        kept.dedup();
        let row = |cycle| kept.partition_point(|&k| k < cycle);
        let passes = sorted
            .chunks(SLICED_FAULT_LANES)
            .map(|chunk| (chunk, after(chunk).map(row)))
            .collect();
        let bytes = |n: usize| (0..n).map(|_| AtomicU8::new(0)).collect();
        let golden = Golden {
            spec,
            outputs: bytes(cycles * spec.netlist.outputs().len()),
            states: bytes(kept.len() * spec.netlist.num_flip_flops()),
            kept,
            published: AtomicUsize::new(0),
            failed: Mutex::new(false),
            wake: Condvar::new(),
        };
        (golden, passes)
    }

    /// Steps the golden machine over the window, publishing every
    /// cycle's values. Never waits. On a netlist that does not
    /// validate it publishes nothing, which fails its waiting passes.
    fn run(&self) {
        let _span = obs::span_arg("fault.replay", u64::from(self.spec.cycles));
        obs::add(obs::Ctr::FaultReplays, 1);
        let _finish = Finish(self);
        let Ok(mut sim) = Simulator::new(self.spec.netlist) else {
            return;
        };
        let (reset, run) = stimulus(self.spec.netlist);
        step(&mut sim, &reset);
        self.publish(0, &sim);
        for cycle in 1..=self.spec.cycles as usize {
            step(&mut sim, &run);
            self.publish(cycle, &sim);
        }
    }

    /// Records `sim`'s outputs after `cycle` (past the reset cycle) and
    /// its flip-flop states if a pass needs them, then publishes the
    /// cycle.
    fn publish(&self, cycle: usize, sim: &Simulator<'_>) {
        let outs = self.spec.netlist.outputs();
        if cycle > 0 {
            let row = &self.outputs[(cycle - 1) * outs.len()..][..outs.len()];
            for (slot, &net) in row.iter().zip(outs) {
                slot.store(sim.value(net) as u8, Ordering::Relaxed);
            }
        }
        if let Ok(row) = self.kept.binary_search(&cycle) {
            let width = self.spec.netlist.num_flip_flops();
            for (slot, v) in self.states[row * width..][..width]
                .iter()
                .zip(sim.flip_flop_states())
            {
                slot.store(v as u8, Ordering::Relaxed);
            }
        }
        self.published.store(cycle + 1, Ordering::Release);
        if cycle.is_multiple_of(WAKE_EVERY) {
            let _failed = self.failed.lock().unwrap_or_else(PoisonError::into_inner);
            self.wake.notify_all();
        }
    }

    /// Returns once `cycle` is published.
    ///
    /// # Panics
    ///
    /// Panics if the run failed before publishing it.
    fn wait_for(&self, cycle: usize) {
        let ready = || self.published.load(Ordering::Acquire) > cycle;
        if ready() {
            return;
        }
        let mut failed = self.failed.lock().unwrap_or_else(PoisonError::into_inner);
        // The run publishes before it takes the lock to wake, so a
        // cycle it published before this check is seen here, and one
        // published after it comes with a wake-up.
        while !ready() {
            if *failed {
                drop(failed);
                panic!("the golden run failed before publishing cycle {cycle}");
            }
            failed = self
                .wake
                .wait(failed)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The golden outputs after cycle `cycle` (1-based).
    fn outputs(&self, cycle: u32) -> &[AtomicU8] {
        self.wait_for(cycle as usize);
        let width = self.spec.netlist.outputs().len();
        &self.outputs[(cycle as usize - 1) * width..][..width]
    }

    /// The golden flip-flop states of `states` row `row`.
    fn states(&self, row: usize) -> Vec<Logic> {
        self.wait_for(self.kept[row]);
        let width = self.spec.netlist.num_flip_flops();
        self.states[row * width..][..width]
            .iter()
            .map(logic)
            .collect()
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

/// The first cycle a pass over `chunk` (sorted by [`strike`]) steps.
/// A pass with a stuck-at runs from reset (cycle 1). A pass of upsets
/// starts at its earliest strike, since no lane can leave the golden
/// machine before it, clamped to `1..=cycles + 1`: a pass whose every
/// strike falls past the window steps nothing.
fn start_cycle(cycles: u32, chunk: &[Fault]) -> u32 {
    match chunk.first().and_then(strike) {
        Some(s) => s.clamp(1, cycles.saturating_add(1)),
        None => 1,
    }
}

/// Replays and classifies up to [`SLICED_FAULT_LANES`] faults in one
/// bit-sliced pass: lane 0 is the shared golden lane, lane `k + 1`
/// carries `chunk[k]`. The golden lane is cross-checked against the
/// one-lane golden rows every cycle the pass runs, so a word-seam or
/// lane-mask defect cannot silently misclassify a batch.
///
/// The pass builds its own machine on the netlist's compiled
/// program. `chunk` is sorted by [`strike`]. With a checkpoint row
/// `from`, every lane loads the golden states kept after cycle `c`
/// and the pass steps from cycle `c + 1`; otherwise it steps the
/// reset cycle first. It trails the golden run, waiting only for rows
/// not yet published.
///
/// # Panics
///
/// Panics if `chunk` exceeds [`SLICED_FAULT_LANES`] or the netlist
/// does not validate, on any golden-lane divergence from the one-lane
/// rows, or if the golden run failed before publishing a row the pass
/// needs.
fn classify_chunk(
    golden: &Golden<'_>,
    chunk: &[Fault],
    from: Option<usize>,
) -> Vec<Classification> {
    assert!(chunk.len() <= SLICED_FAULT_LANES, "chunk exceeds one word");
    let spec = &golden.spec;
    let _span = obs::span_arg("fault.replay.sliced", chunk.len() as u64);
    obs::add(obs::Ctr::FaultReplays, chunk.len() as u64);
    let lanes = chunk.len() + 1;
    let mut sim = Simulator::with_lanes(spec.netlist, lanes)
        .expect("run_campaigns validated the netlist, and a pass has the golden lane");
    for (k, fault) in chunk.iter().enumerate() {
        if let Fault::StuckAt { net, value } = *fault {
            let v = Logic::from_bool(value);
            sim.force_net_lanes(net, v, &LaneMask::single(k + 1, lanes));
        }
    }
    let active: u64 = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
    // Lanes not yet detected; the golden lane never detects.
    let mut pending = active & !1;
    let mut classes = vec![Classification::Benign; chunk.len()];
    let outs = spec.netlist.outputs();
    let (reset, run) = stimulus(spec.netlist);
    let start = match from {
        Some(row) => {
            sim.load_flip_flop_states(&golden.states(row))
                .expect("checkpoint rows are one state per flip-flop");
            golden.kept[row] as u32 + 1
        }
        None => {
            step(&mut sim, &reset);
            1
        }
    };
    // The first upset not yet struck: the chunk's upsets follow its
    // stuck-ats in strike order.
    let mut next_upset = chunk.partition_point(|f| strike(f).is_none());
    for cycle in start..=spec.cycles {
        while let Some(&Fault::Seu { ff, cycle: c }) = chunk.get(next_upset) {
            if c > cycle {
                break;
            }
            // An upset before the window's first cycle never strikes.
            if c == cycle {
                sim.upset_flip_flop_lanes(ff, &LaneMask::single(next_upset + 1, lanes));
            }
            next_upset += 1;
        }
        step(&mut sim, &run);
        let grow = golden.outputs(cycle);
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
            let diff = match logic(&grow[j]) {
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
    // The golden lane's latent state must match the one-lane run too
    // (only checked when the loop ran the full window — an early
    // break means every lane was classified by then).
    if pending != 0 || spec.cycles == 0 {
        let final_states = golden.states(golden.kept.len() - 1);
        for (k, class) in classes.iter_mut().enumerate() {
            let lane = k + 1;
            if pending >> lane & 1 == 0 {
                continue;
            }
            let states = sim.flip_flop_states_lane(lane);
            assert_eq!(states.len(), final_states.len(), "state vector width");
            *class = if states == final_states {
                Classification::Benign
            } else {
                Classification::Silent
            };
        }
        assert_eq!(
            sim.flip_flop_states_lane(0),
            final_states,
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

/// One `par_map` item of [`run_campaigns`].
enum Item<'g, 'a> {
    /// A campaign's golden run.
    Golden(&'g Golden<'a>),
    /// One pass of a campaign's faults, trailing its golden run, and
    /// the golden `states` row it starts from.
    Pass(&'g Golden<'a>, &'g [Fault], Option<usize>),
}

/// Replays and classifies every fault of every campaign on the
/// compiled engine, [`SLICED_FAULT_LANES`] faults plus one golden lane
/// per pass, in one fan-out over `jobs` worker threads.
///
/// Every campaign's netlist is validated first, before any item is
/// built. The fan-out's items are every campaign's golden run, then
/// every campaign's passes. Each golden run is one one-lane run; it
/// publishes each cycle's output row, and the checkpoints its passes
/// load, as it steps. Every machine of a campaign borrows the one gate
/// program its netlist compiles, and each pass builds its own. A pass
/// trails its golden run on another worker and waits only when it
/// catches up. Items are claimed in input order, so every golden run
/// is running before any pass waits on it, and a golden run never
/// waits: the fan-out cannot deadlock, and at one job the items
/// simply run in order.
///
/// Passes take each campaign's faults stuck-ats first, then upsets by
/// strike cycle, so each pass of upsets starts at its earliest strike;
/// the results are scattered back, so each report's outcome order
/// equals its fault list's order — and classifications are identical
/// to [`run_campaign_scalar`] — for any job count. One report per
/// campaign, in input order.
///
/// # Errors
///
/// Returns the first campaign netlist's [`NetlistError`] if one does
/// not [`validate`](Netlist::validate); nothing is replayed then.
///
/// # Panics
///
/// Panics if a golden run or a pass panics (a golden run that stops
/// early fails every pass still waiting on it instead of hanging
/// them), or on any golden-lane divergence.
pub fn run_campaigns(
    campaigns: &[(CampaignSpec<'_>, &[Fault])],
    jobs: usize,
) -> Result<Vec<CampaignReport>, NetlistError> {
    let total: usize = campaigns.iter().map(|(_, faults)| faults.len()).sum();
    let _span = obs::span_arg("fault.campaign", total as u64);
    for (spec, _) in campaigns {
        spec.netlist.validate()?;
    }
    // Each campaign's fault-list positions in pass order, and its
    // faults in that order.
    let plans: Vec<(Vec<usize>, Vec<Fault>)> = campaigns
        .iter()
        .map(|(_, faults)| {
            let mut order: Vec<usize> = (0..faults.len()).collect();
            order.sort_by_key(|&i| strike(&faults[i]));
            let sorted = order.iter().map(|&i| faults[i]).collect();
            (order, sorted)
        })
        .collect();
    let (goldens, passes): (Vec<Golden<'_>>, Vec<_>) = campaigns
        .iter()
        .zip(&plans)
        .map(|((spec, _), (_, sorted))| Golden::new(*spec, sorted))
        .unzip();
    let passes = goldens.iter().zip(passes).flat_map(|(golden, passes)| {
        passes
            .into_iter()
            .map(move |(chunk, from)| Item::Pass(golden, chunk, from))
    });
    let items: Vec<Item<'_, '_>> = goldens.iter().map(Item::Golden).chain(passes).collect();
    let per_item = par_map(&items, jobs, |_, item| match *item {
        Item::Golden(golden) => {
            golden.run();
            Vec::new()
        }
        Item::Pass(golden, chunk, from) => {
            let classes = classify_chunk(golden, chunk, from);
            if obs::enabled() {
                for &class in &classes {
                    count_classification(class);
                }
            }
            classes
        }
    });
    let mut per_pass = per_item.into_iter().skip(goldens.len());
    Ok(campaigns
        .iter()
        .zip(plans)
        .map(|((spec, faults), (order, _))| {
            let passes = faults.len().div_ceil(SLICED_FAULT_LANES);
            let mut classes = vec![Classification::Benign; faults.len()];
            for (&i, class) in order.iter().zip(per_pass.by_ref().take(passes).flatten()) {
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
        })
        .collect())
}

/// [`run_campaigns`] over the one campaign `spec` with `faults`.
///
/// # Panics
///
/// Panics if the netlist does not [`validate`](Netlist::validate), and
/// as [`run_campaigns`].
pub fn run_campaign(spec: &CampaignSpec<'_>, faults: &[Fault], jobs: usize) -> CampaignReport {
    match run_campaigns(&[(*spec, faults)], jobs).map(|mut reports| reports.pop()) {
        Ok(Some(report)) => report,
        failed => panic!("campaign netlist must be simulable: {failed:?}"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_core::{SragNetlist, SragSpec};

    #[test]
    fn a_pass_waiting_on_a_failed_golden_run_panics() {
        let design = SragNetlist::elaborate(&SragSpec::ring(4)).unwrap();
        let spec = CampaignSpec {
            netlist: &design.netlist,
            cycles: 8,
            alarm_output: None,
        };
        let faults = [Fault::StuckAt {
            net: design.select_lines[0],
            value: false,
        }];
        let (golden, passes) = Golden::new(spec, &faults);
        // The run published the reset cycle, then stopped before
        // publishing cycle 1, as a panicking run would.
        golden.published.store(1, Ordering::Release);
        // The pass may be waiting for cycle 1 when the run is marked
        // failed, or may see the mark first; either way it must panic.
        let outcome = std::thread::scope(|scope| {
            let pass = scope.spawn(|| classify_chunk(&golden, &faults, passes[0].1));
            drop(Finish(&golden));
            pass.join()
        });
        let payload = outcome.expect_err("the pass must panic, not block or classify");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(message, "the golden run failed before publishing cycle 1");
    }

    #[test]
    fn a_finished_golden_run_never_blocks_its_passes() {
        let design = SragNetlist::elaborate(&SragSpec::ring(4)).unwrap();
        let spec = CampaignSpec {
            netlist: &design.netlist,
            cycles: 2 * WAKE_EVERY as u32 + 3,
            alarm_output: None,
        };
        let faults = [Fault::StuckAt {
            net: design.select_lines[1],
            value: true,
        }];
        let (golden, passes) = Golden::new(spec, &faults);
        golden.run();
        assert!(!*golden.failed.lock().unwrap());
        let trace = replay(&spec, None);
        for (cycle, outputs) in (1..).zip(&trace.outputs) {
            let row: Vec<Logic> = golden.outputs(cycle).iter().map(logic).collect();
            assert_eq!(&row, outputs, "cycle {cycle}");
        }
        assert_eq!(golden.states(golden.kept.len() - 1), trace.final_states);
        assert_eq!(
            classify_chunk(&golden, &faults, passes[0].1),
            [classify(
                &trace,
                &replay(&spec, Some(faults[0])),
                spec.alarm_output
            )]
        );
    }
}
