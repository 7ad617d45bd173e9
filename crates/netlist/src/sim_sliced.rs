//! The compiled cycle simulator: one engine for one machine or many,
//! 64 independent machines per gate operation.
//!
//! [`Simulator`] steps the gate `Program` the netlist compiles to.
//! [`Simulator::new`] builds one machine, the engine behind every
//! equivalence proof, power estimate and VCD trace in the workspace.
//! [`Simulator::with_lanes`] builds `lanes` of them over one netlist:
//! a fault campaign replaying hundreds of faulty machines, or a
//! fuzzer driving dozens of generated cases, would otherwise pay the
//! whole netlist walk once per machine. It applies the same
//! word-parallel trick as the packed positional-cube kernel in
//! `adgen-synth`: each net holds one `u64` *word* per 64 lanes, so a
//! single pass over the gates steps up to 64 machines — same
//! netlist, different stimulus and different injected faults per
//! lane. A one-lane machine is the same kernel on a one-word stride.
//!
//! ## Slicing layout
//!
//! Three-valued (`0/1/X`) semantics need two bitplanes per net:
//!
//! * `ones` — bit set ⇔ the lane's value is [`Logic::One`];
//! * `xs`   — bit set ⇔ the lane's value is [`Logic::X`].
//!
//! Both clear means [`Logic::Zero`]; `ones & xs == 0` is a canonical-
//! form invariant every packed operator preserves. Lane `l` lives in
//! bit `l % 64` of word `l / 64`; a simulator with `lanes` not a
//! multiple of 64 masks the trailing word so inactive bits never leak
//! into reads or fault hooks.
//!
//! ## Lane-mask fault hooks and the golden-lane convention
//!
//! [`force_net_lanes`](Simulator::force_net_lanes) and
//! [`upset_flip_flop_lanes`](Simulator::upset_flip_flop_lanes) take a
//! [`LaneMask`], so one pass carries a whole batch of faulty machines
//! next to an unfaulted reference: the campaign engine packs 63
//! faults into lanes `1..` and keeps lane 0 as the shared *golden*
//! lane, cross-checked against the one-lane golden trace every cycle.
//! The scalar hooks ([`force_net`](Simulator::force_net),
//! [`upset_flip_flop`](Simulator::upset_flip_flop)) broadcast to
//! every lane, and the scalar reads come from lane 0.
//!
//! [`load_flip_flop_states`](Simulator::load_flip_flop_states)
//! broadcasts one machine's flip-flop states to every lane, so a
//! batch of upsets that all strike late starts from a golden
//! checkpoint instead of from reset, and
//! [`fresh_with_lanes`](Simulator::fresh_with_lanes) builds each
//! batch's machine from one compiled program.
//!
//! ## The oracle
//!
//! A compiler bug would hit every lane count alike, so comparing
//! lane counts proves little. The uncompiled
//! [`EventSimulator`](crate::EventSimulator) walks the raw netlist
//! with its own scalar evaluators; the fuzz family `sliced-vs-scalar`,
//! the word-seam tests below and the exhaustive per-cell test in
//! `sim.rs` pin this engine to it.

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::graph::{InstId, NetId, Netlist};
use crate::program::Program;
use crate::sim::{Logic, SimControl};
use adgen_obs as obs;

/// One 64-lane word of three-valued values: `ones` marks One lanes,
/// `xs` marks X lanes, both clear is Zero. Invariant: `ones & xs == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Pk {
    ones: u64,
    xs: u64,
}

/// All lanes Zero.
const PK_ZERO: Pk = Pk { ones: 0, xs: 0 };
/// All lanes One.
const PK_ONE: Pk = Pk { ones: !0, xs: 0 };
/// All lanes X.
const PK_X: Pk = Pk { ones: 0, xs: !0 };

impl Pk {
    fn broadcast(v: Logic) -> Pk {
        match v {
            Logic::Zero => PK_ZERO,
            Logic::One => PK_ONE,
            Logic::X => PK_X,
        }
    }

    fn lane(self, bit: u32) -> Logic {
        if (self.xs >> bit) & 1 == 1 {
            Logic::X
        } else if (self.ones >> bit) & 1 == 1 {
            Logic::One
        } else {
            Logic::Zero
        }
    }
}

#[inline]
fn pk_not(a: Pk) -> Pk {
    Pk {
        ones: !a.ones & !a.xs,
        xs: a.xs,
    }
}

#[inline]
fn pk_and(a: Pk, b: Pk) -> Pk {
    let one = a.ones & b.ones;
    let zero = (!a.ones & !a.xs) | (!b.ones & !b.xs);
    Pk {
        ones: one,
        xs: !(one | zero),
    }
}

#[inline]
fn pk_or(a: Pk, b: Pk) -> Pk {
    let one = a.ones | b.ones;
    let zero = (!a.ones & !a.xs) & (!b.ones & !b.xs);
    Pk {
        ones: one,
        xs: !(one | zero),
    }
}

#[inline]
fn pk_xor(a: Pk, b: Pk) -> Pk {
    let xs = a.xs | b.xs;
    Pk {
        ones: (a.ones ^ b.ones) & !xs,
        xs,
    }
}

/// Lane-wise [`Logic::merge`]: the common value where both sides
/// agree and are defined, X everywhere else.
#[inline]
fn pk_merge(a: Pk, b: Pk) -> Pk {
    let same = !a.xs & !b.xs & !(a.ones ^ b.ones);
    Pk {
        ones: a.ones & same,
        xs: !same,
    }
}

/// Lane-wise 2:1 mux with X-select merge — also the shared kernel of
/// every flip-flop next-state function (enable, reset and set pins
/// are selects).
#[inline]
fn pk_mux(d0: Pk, d1: Pk, s: Pk) -> Pk {
    let m = pk_merge(d0, d1);
    let s_one = s.ones;
    let s_zero = !s.ones & !s.xs;
    Pk {
        ones: (d0.ones & s_zero) | (d1.ones & s_one) | (m.ones & s.xs),
        xs: (d0.xs & s_zero) | (d1.xs & s_one) | (m.xs & s.xs),
    }
}

/// Word-parallel combinational evaluation, lane-for-lane identical to
/// the event-driven engine's scalar `eval_gate`; `v(i)` reads input
/// pin `i`.
#[inline(always)]
fn eval_gate_pk(kind: CellKind, v: impl Fn(usize) -> Pk) -> Pk {
    match kind {
        CellKind::Inv => pk_not(v(0)),
        CellKind::Buf => v(0),
        CellKind::Nand2 => pk_not(pk_and(v(0), v(1))),
        CellKind::Nand3 => pk_not(pk_and(pk_and(v(0), v(1)), v(2))),
        CellKind::Nand4 => pk_not(pk_and(pk_and(pk_and(v(0), v(1)), v(2)), v(3))),
        CellKind::Nor2 => pk_not(pk_or(v(0), v(1))),
        CellKind::Nor3 => pk_not(pk_or(pk_or(v(0), v(1)), v(2))),
        CellKind::Nor4 => pk_not(pk_or(pk_or(pk_or(v(0), v(1)), v(2)), v(3))),
        CellKind::And2 => pk_and(v(0), v(1)),
        CellKind::And3 => pk_and(pk_and(v(0), v(1)), v(2)),
        CellKind::And4 => pk_and(pk_and(pk_and(v(0), v(1)), v(2)), v(3)),
        CellKind::Or2 => pk_or(v(0), v(1)),
        CellKind::Or3 => pk_or(pk_or(v(0), v(1)), v(2)),
        CellKind::Or4 => pk_or(pk_or(pk_or(v(0), v(1)), v(2)), v(3)),
        CellKind::Xor2 => pk_xor(v(0), v(1)),
        CellKind::Xnor2 => pk_not(pk_xor(v(0), v(1))),
        CellKind::Aoi21 => pk_not(pk_or(pk_and(v(0), v(1)), v(2))),
        CellKind::Oai21 => pk_not(pk_and(pk_or(v(0), v(1)), v(2))),
        CellKind::Mux2 => pk_mux(v(0), v(1), v(2)),
        CellKind::TieHi => PK_ONE,
        CellKind::TieLo => PK_ZERO,
        _ => unreachable!("sequential cell in combinational order"),
    }
}

/// Word-parallel flip-flop next state, lane-for-lane identical to the
/// event-driven engine's scalar `ff_next_state`. Control pins reduce to [`pk_mux`]: an X
/// enable merges data with the held state, an X reset/set merges the
/// forced constant with the data path — exactly the scalar X rules.
#[inline(always)]
fn ff_next_pk(kind: CellKind, cur: Pk, pin: impl Fn(usize) -> Pk) -> Pk {
    match kind {
        CellKind::Dff => pin(0),
        CellKind::Dffe => pk_mux(cur, pin(0), pin(1)),
        CellKind::Dffr => pk_mux(pin(0), PK_ZERO, pin(1)),
        CellKind::Dffs => pk_mux(pin(0), PK_ONE, pin(1)),
        CellKind::Dffre => pk_mux(pk_mux(cur, pin(0), pin(1)), PK_ZERO, pin(2)),
        CellKind::Dffse => pk_mux(pk_mux(cur, pin(0), pin(1)), PK_ONE, pin(2)),
        _ => unreachable!("combinational cell treated as flip-flop"),
    }
}

/// A per-lane bit mask over the lanes of one [`Simulator`] —
/// the batch-selection argument of the lane-masked fault hooks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMask {
    words: Vec<u64>,
    lanes: usize,
}

impl LaneMask {
    /// An empty mask over `lanes` lanes.
    pub fn none(lanes: usize) -> Self {
        LaneMask {
            words: vec![0; lanes.div_ceil(64)],
            lanes,
        }
    }

    /// Every active lane set (trailing-word bits beyond `lanes` stay
    /// clear).
    pub fn all(lanes: usize) -> Self {
        let mut m = LaneMask::none(lanes);
        for (w, word) in m.words.iter_mut().enumerate() {
            *word = tail_mask(lanes, w);
        }
        m
    }

    /// A single-lane mask.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes`.
    pub fn single(lane: usize, lanes: usize) -> Self {
        let mut m = LaneMask::none(lanes);
        m.set(lane);
        m
    }

    /// Number of lanes the mask ranges over.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Sets `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes`.
    pub fn set(&mut self, lane: usize) {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        self.words[lane / 64] |= 1u64 << (lane % 64);
    }

    /// Whether `lane` is set.
    pub fn get(&self, lane: usize) -> bool {
        lane < self.lanes && (self.words[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Number of set lanes.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn word(&self, w: usize) -> u64 {
        self.words[w]
    }
}

/// Mask of the active bits of word `w` for a `lanes`-lane simulator.
fn tail_mask(lanes: usize, w: usize) -> u64 {
    let below = lanes.saturating_sub(w * 64);
    match below {
        0 => 0,
        64.. => !0,
        n => (1u64 << n) - 1,
    }
}

/// A stuck-at override on a subset of lanes: outside `mask` the net
/// follows its driver, inside it is pinned to `pinned`.
#[derive(Debug, Clone)]
struct ForceRow {
    pinned: Vec<Pk>,
    mask: Vec<u64>,
}

impl ForceRow {
    /// Blends the pinned lanes of word `w` into `v`.
    #[inline]
    fn apply(&self, w: usize, v: Pk) -> Pk {
        let (p, m) = (self.pinned[w], self.mask[w]);
        Pk {
            ones: (v.ones & !m) | (p.ones & m),
            xs: (v.xs & !m) | (p.xs & m),
        }
    }
}

/// Sentinel for "no force on this net" in the dense index map.
const NO_FORCE: u32 = u32::MAX;

/// The compiled cycle-accurate simulator: `lanes` independent
/// machines over one shared [`Netlist`], one by default. Flip-flops
/// power up as [`Logic::X`]; designs assert the global reset for at
/// least one cycle to reach a defined state — exactly the discipline
/// the paper's generators (which all have a `Reset` input) follow.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    program: Program,
    lanes: usize,
    words: usize,
    /// Net values, net-major: `net.index() * words + w`.
    vals: Vec<Pk>,
    /// Flip-flop state per instance, instance-major, same stride.
    state: Vec<Pk>,
    /// Primary-input words of the step being taken, input-major
    /// (`k * words + w`); reused every step.
    rows: Vec<Pk>,
    /// Dense net-index → force-row map (`NO_FORCE` = unforced).
    force_idx: Vec<u32>,
    forces: Vec<(NetId, ForceRow)>,
    cycle: u64,
    evaluations: u64,
    word_ops: u64,
    /// Built by [`with_lanes`](Self::with_lanes) or
    /// [`fresh_with_lanes`](Self::fresh_with_lanes): only such
    /// machines count the `sim.sliced.*` observability counters.
    sliced: bool,
}

impl<'a> Simulator<'a> {
    /// Prepares a one-machine simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Fails if the netlist does not [`validate`](Netlist::validate).
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        Ok(Self::from_program(
            netlist,
            Program::compile(netlist)?,
            1,
            false,
        ))
    }

    /// Prepares a simulator with `lanes` machines for `netlist`. Every
    /// lane powers up all-X, exactly like a one-machine simulator.
    ///
    /// # Errors
    ///
    /// Fails if the netlist does not [`validate`](Netlist::validate)
    /// or `lanes` is zero (reported as a width mismatch).
    pub fn with_lanes(netlist: &'a Netlist, lanes: usize) -> Result<Self, NetlistError> {
        Self::sliced(netlist, Program::compile(netlist)?, lanes)
    }

    /// A powered-up (all-X) simulator with `lanes` machines over this
    /// one's netlist, reusing its compiled program instead of
    /// compiling the netlist again: a campaign compiles once and
    /// builds one machine per batch. Otherwise exactly
    /// [`with_lanes`](Self::with_lanes).
    ///
    /// # Errors
    ///
    /// Fails if `lanes` is zero (reported as a width mismatch).
    pub fn fresh_with_lanes(&self, lanes: usize) -> Result<Self, NetlistError> {
        Self::sliced(self.netlist, self.program.clone(), lanes)
    }

    fn sliced(netlist: &'a Netlist, program: Program, lanes: usize) -> Result<Self, NetlistError> {
        if lanes == 0 {
            return Err(NetlistError::InputWidthMismatch {
                expected: 1,
                found: 0,
            });
        }
        if obs::enabled() {
            obs::add(obs::Ctr::SimSlicedPasses, 1);
            obs::add(obs::Ctr::SimSlicedLanes, lanes as u64);
        }
        Ok(Self::from_program(netlist, program, lanes, true))
    }

    fn from_program(netlist: &'a Netlist, program: Program, lanes: usize, sliced: bool) -> Self {
        let words = lanes.div_ceil(64);
        Simulator {
            netlist,
            program,
            lanes,
            words,
            vals: vec![PK_X; netlist.nets().len() * words],
            state: vec![PK_X; netlist.instances().len() * words],
            rows: vec![PK_ZERO; netlist.inputs().len() * words],
            force_idx: vec![NO_FORCE; netlist.nets().len()],
            forces: Vec::new(),
            cycle: 0,
            evaluations: 0,
            word_ops: 0,
            sliced,
        }
    }

    /// Number of lanes (independent machines).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of 64-lane words per net.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Combinational gate evaluations performed, counted per 64-lane
    /// *word*: every gate once per word per step, forced or not. On
    /// one lane that is exactly `cycles × comb_gates`; on more, one
    /// evaluation advances up to 64 machines, which is exactly where
    /// the multi-lane speedup comes from.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Total kernel word operations (gate evaluations plus flip-flop
    /// captures, per word) — the sliced analogue of `cube.word_ops`.
    pub fn word_ops(&self) -> u64 {
        self.word_ops
    }

    /// Current value of `net` on lane 0 (as of the last
    /// [`step`](Self::step)).
    pub fn value(&self, net: NetId) -> Logic {
        self.vals[net.index() * self.words].lane(0)
    }

    /// Adds to `toggles[i]` the lane-0 `0↔1` flip of net `i` from
    /// `prev[i]`, a net's `(ones, xs)` word, to now, read straight
    /// from the bit planes; then stores the current word in `prev[i]`.
    /// A change to or from X is no flip, so starting from all-X words
    /// only takes a snapshot.
    pub(crate) fn tally_toggles(&self, prev: &mut [(u64, u64)], toggles: &mut [u64]) {
        let now = self.vals.iter().step_by(self.words);
        for ((p, t), v) in prev.iter_mut().zip(toggles).zip(now) {
            *t += (p.0 ^ v.ones) & !(p.1 | v.xs) & 1;
            *p = (v.ones, v.xs);
        }
    }

    /// The index of the one hot net of `lines` on lane 0 — the address
    /// a generator presents on its select lines. `None` if any line is
    /// X or the lines are not exactly one-hot.
    pub fn one_hot(&self, lines: &[NetId]) -> Option<u32> {
        let mut hot = None;
        for (i, &l) in lines.iter().enumerate() {
            match self.value(l).to_bool()? {
                true if hot.is_none() => hot = Some(i as u32),
                true => return None,
                false => {}
            }
        }
        hot
    }

    /// The word on `bits` (LSB first) on lane 0 — the address a
    /// generator presents in binary. `None` if any bit is X.
    pub fn word(&self, bits: &[NetId]) -> Option<u64> {
        bits.iter().enumerate().try_fold(0, |word, (i, &b)| {
            Some(word | u64::from(self.value(b).to_bool()?) << i)
        })
    }

    /// Values of the primary outputs on lane 0, in declaration order.
    pub fn output_values(&self) -> Vec<Logic> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.value(o))
            .collect()
    }

    /// Stored state of every sequential instance on lane 0, in
    /// instance order — the campaign engine compares these against a
    /// golden run to recognize latent (silent) corruption.
    pub fn flip_flop_states(&self) -> Vec<Logic> {
        self.flip_flop_states_lane(0)
    }

    /// Value of `net` in `lane` (as of the last step).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes`.
    pub fn value_lane(&self, net: NetId, lane: usize) -> Logic {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        self.vals[net.index() * self.words + lane / 64].lane((lane % 64) as u32)
    }

    /// Primary-output values of `lane`, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes`.
    pub fn output_values_lane(&self, lane: usize) -> Vec<Logic> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.value_lane(o, lane))
            .collect()
    }

    /// Stored flip-flop states of `lane`, in instance order.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes`.
    pub fn flip_flop_states_lane(&self, lane: usize) -> Vec<Logic> {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        let (w, bit) = (lane / 64, (lane % 64) as u32);
        self.program
            .ffs
            .iter()
            .map(|ff| self.state[ff.inst as usize * self.words + w].lane(bit))
            .collect()
    }

    /// Loads one machine's flip-flop states, in instance order (the
    /// form [`flip_flop_states`](Self::flip_flop_states) returns),
    /// into every lane. A step recomputes every net from the inputs
    /// and the stored state, so after the load the next
    /// [`step`](Self::step) continues exactly as the machine the
    /// states came from would: a fault campaign starts a batch of
    /// late upsets from a golden checkpoint instead of from reset.
    /// Net values read before that step are stale; forces are kept.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::StateWidthMismatch`] unless `states`
    /// holds one value per flip-flop; nothing is loaded then.
    pub fn load_flip_flop_states(&mut self, states: &[Logic]) -> Result<(), NetlistError> {
        if states.len() != self.program.ffs.len() {
            return Err(NetlistError::StateWidthMismatch {
                expected: self.program.ffs.len(),
                found: states.len(),
            });
        }
        let words = self.words;
        for (ff, &v) in self.program.ffs.iter().zip(states) {
            let at = ff.inst as usize * words;
            self.state[at..at + words].fill(Pk::broadcast(v));
        }
        Ok(())
    }

    /// Raw `(ones, xs)` planes of `net` for word `w`, trimmed to the
    /// active lanes — the mask-level readback the campaign engine
    /// classifies whole fault batches with.
    ///
    /// # Panics
    ///
    /// Panics if `w >= words`.
    pub fn packed_value(&self, net: NetId, w: usize) -> (u64, u64) {
        assert!(w < self.words, "word {w} out of {}", self.words);
        let active = tail_mask(self.lanes, w);
        let v = self.vals[net.index() * self.words + w];
        (v.ones & active, v.xs & active)
    }

    /// Pins `net` at `value` on every lane for every subsequent cycle
    /// — the stuck-at fault model. The override replaces whatever the
    /// net's driver (primary input, gate, tie cell or flip-flop Q)
    /// produces, as seen both by combinational fanout and by
    /// flip-flop pin sampling. Forcing an already-forced net replaces
    /// its value.
    pub fn force_net(&mut self, net: NetId, value: Logic) {
        self.force_net_lanes(net, value, &LaneMask::all(self.lanes));
    }

    /// Pins `net` at `value` on every lane in `mask` — the stuck-at
    /// model, batched. Lanes outside `mask` keep following the net's
    /// driver; re-forcing a masked lane replaces its value.
    ///
    /// # Panics
    ///
    /// Panics if `mask` was built for a different lane count.
    pub fn force_net_lanes(&mut self, net: NetId, value: Logic, mask: &LaneMask) {
        assert_eq!(
            mask.lanes(),
            self.lanes,
            "lane mask built for a different simulator"
        );
        let pv = Pk::broadcast(value);
        let slot = match self.force_idx[net.index()] {
            NO_FORCE => {
                let slot = self.forces.len();
                self.force_idx[net.index()] = slot as u32;
                let row = ForceRow {
                    pinned: vec![PK_ZERO; self.words],
                    mask: vec![0; self.words],
                };
                self.forces.push((net, row));
                slot
            }
            slot => slot as usize,
        };
        let row = &mut self.forces[slot].1;
        for w in 0..self.words {
            let m = mask.word(w) & tail_mask(self.lanes, w);
            row.mask[w] |= m;
            let p = &mut row.pinned[w];
            p.ones = (p.ones & !m) | (pv.ones & m);
            p.xs = (p.xs & !m) | (pv.xs & m);
        }
    }

    /// Removes every active override on every lane; nets resume
    /// following their drivers on the next step.
    pub fn clear_forces(&mut self) {
        for (net, _) in self.forces.drain(..) {
            self.force_idx[net.index()] = NO_FORCE;
        }
    }

    /// Flips the stored state of flip-flop `inst` on every lane — a
    /// single-event upset. `0 ↔ 1`; an `X` state is left unchanged.
    /// Returns whether lane 0 flipped. The corrupted value is
    /// presented on Q during the next [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a sequential instance.
    pub fn upset_flip_flop(&mut self, inst: InstId) -> bool {
        self.upset_flip_flop_lanes(inst, &LaneMask::all(self.lanes))
            .get(0)
    }

    /// Flips the stored state of flip-flop `inst` on every lane in
    /// `mask` whose state is defined (`0 ↔ 1`; X lanes are left
    /// alone) — the single-event-upset model, batched. Returns the
    /// mask of lanes that actually flipped.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not sequential or `mask` was built for a
    /// different lane count.
    pub fn upset_flip_flop_lanes(&mut self, inst: InstId, mask: &LaneMask) -> LaneMask {
        assert!(
            self.netlist.instance(inst).kind().is_sequential(),
            "single-event upsets only apply to flip-flops"
        );
        assert_eq!(
            mask.lanes(),
            self.lanes,
            "lane mask built for a different simulator"
        );
        let mut flipped = LaneMask::none(self.lanes);
        for w in 0..self.words {
            let st = &mut self.state[inst.index() * self.words + w];
            let hit = mask.word(w) & !st.xs & tail_mask(self.lanes, w);
            st.ones ^= hit;
            flipped.words[w] = hit;
        }
        flipped
    }

    /// Advances one clock cycle with the same stimulus on every lane.
    ///
    /// `inputs` supplies one value per primary input in declaration
    /// order (index 0 is the global reset). The combinational network
    /// settles, the post-settle net values become observable through
    /// [`value`](Self::value), and every flip-flop captures its next
    /// state at the end of the call.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if the slice length
    /// does not match the number of primary inputs.
    pub fn step(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        self.step_broadcast(inputs.iter().copied())
    }

    /// Convenience wrapper over [`step`](Self::step) taking `bool`s.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Self::step).
    pub fn step_bools(&mut self, inputs: &[bool]) -> Result<(), NetlistError> {
        self.step_broadcast(inputs.iter().map(|&b| Logic::from_bool(b)))
    }

    /// Advances one clock cycle with an independent stimulus per
    /// lane: `per_lane[l]` supplies the full primary-input vector of
    /// lane `l`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if the outer
    /// length is not `lanes` or any inner length is not the number of
    /// primary inputs.
    pub fn step_per_lane(&mut self, per_lane: &[Vec<Logic>]) -> Result<(), NetlistError> {
        let pis = self.netlist.inputs();
        if per_lane.len() != self.lanes {
            return Err(NetlistError::InputWidthMismatch {
                expected: self.lanes,
                found: per_lane.len(),
            });
        }
        if let Some(bad) = per_lane.iter().find(|v| v.len() != pis.len()) {
            return Err(NetlistError::InputWidthMismatch {
                expected: pis.len(),
                found: bad.len(),
            });
        }
        // Transpose the per-lane stimulus into per-input plane words.
        self.rows.fill(PK_ZERO);
        for (lane, inputs) in per_lane.iter().enumerate() {
            let (w, bit) = (lane / 64, lane % 64);
            for (k, &v) in inputs.iter().enumerate() {
                let row = &mut self.rows[k * self.words + w];
                match v {
                    Logic::Zero => {}
                    Logic::One => row.ones |= 1u64 << bit,
                    Logic::X => row.xs |= 1u64 << bit,
                }
            }
        }
        self.step_rows();
        Ok(())
    }

    /// Fills every word of each input's row with its broadcast value,
    /// then steps.
    fn step_broadcast(
        &mut self,
        inputs: impl ExactSizeIterator<Item = Logic>,
    ) -> Result<(), NetlistError> {
        let expected = self.netlist.inputs().len();
        if inputs.len() != expected {
            return Err(NetlistError::InputWidthMismatch {
                expected,
                found: inputs.len(),
            });
        }
        for (row, v) in self.rows.chunks_exact_mut(self.words).zip(inputs) {
            row.fill(Pk::broadcast(v));
        }
        self.step_rows();
        Ok(())
    }

    /// One cycle from the input words in `rows`: drive inputs, present
    /// state on Q, apply forces, settle the gates in program order,
    /// capture next state. A one-word simulator (`lanes <= 64`) runs
    /// its own copy of the kernel with the word stride folded to 1.
    fn step_rows(&mut self) {
        let words = self.words;
        if words == 1 {
            step_kernel(self, 1);
        } else {
            step_kernel(self, words);
        }
        let gate_words = self.program.gates.len() as u64 * words as u64;
        let ff_words = self.program.ffs.len() as u64 * words as u64;
        self.evaluations += gate_words;
        self.word_ops += gate_words + ff_words;
        self.cycle += 1;
        if obs::enabled() {
            obs::add(obs::Ctr::SimEvaluations, gate_words);
            if self.sliced {
                obs::add(obs::Ctr::SimSlicedWordOps, gate_words + ff_words);
            }
        }
    }
}

/// The step body over a `words`-word stride. Always inlined, so a
/// call with a literal stride compiles to a loop nest with the stride
/// folded in.
#[inline(always)]
fn step_kernel(sim: &mut Simulator<'_>, words: usize) {
    let Simulator {
        netlist,
        program,
        vals,
        state,
        rows,
        force_idx,
        forces,
        ..
    } = sim;
    for (row, &net) in rows.chunks_exact(words).zip(netlist.inputs()) {
        let at = net.index() * words;
        vals[at..at + words].copy_from_slice(row);
    }
    for ff in &program.ffs {
        let (q, s) = (ff.q as usize * words, ff.inst as usize * words);
        vals[q..q + words].copy_from_slice(&state[s..s + words]);
    }
    // Pin forced lanes before settling so flip-flop sampling and
    // fanout both see the overrides.
    for (net, row) in forces.iter() {
        for w in 0..words {
            let at = net.index() * words + w;
            vals[at] = row.apply(w, vals[at]);
        }
    }
    for g in &program.gates {
        let out = g.out as usize;
        let force = match force_idx[out] {
            NO_FORCE => None,
            fi => Some(&forces[fi as usize].1),
        };
        for w in 0..words {
            let v = eval_gate_pk(g.kind, |i| vals[g.ins[i] as usize * words + w]);
            vals[out * words + w] = match force {
                None => v,
                Some(row) => row.apply(w, v),
            };
        }
    }
    // Capture next state in place: pins read settled nets, never
    // another flip-flop's stored state.
    for ff in &program.ffs {
        for w in 0..words {
            let at = ff.inst as usize * words + w;
            state[at] = ff_next_pk(ff.kind, state[at], |i| vals[ff.ins[i] as usize * words + w]);
        }
    }
}

/// The scalar view: stimulus and faults broadcast to every lane,
/// reads come from lane 0.
impl SimControl for Simulator<'_> {
    fn force_net(&mut self, net: NetId, value: Logic) {
        Simulator::force_net(self, net, value);
    }

    fn clear_forces(&mut self) {
        Simulator::clear_forces(self);
    }

    fn upset_flip_flop(&mut self, inst: InstId) -> bool {
        Simulator::upset_flip_flop(self, inst)
    }

    fn flip_flop_states(&self) -> Vec<Logic> {
        Simulator::flip_flop_states(self)
    }

    fn cycle(&self) -> u64 {
        Simulator::cycle(self)
    }

    fn evaluations(&self) -> u64 {
        Simulator::evaluations(self)
    }

    fn value(&self, net: NetId) -> Logic {
        Simulator::value(self, net)
    }

    fn output_values(&self) -> Vec<Logic> {
        Simulator::output_values(self)
    }

    fn step(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        Simulator::step(self, inputs)
    }

    fn step_bools(&mut self, inputs: &[bool]) -> Result<(), NetlistError> {
        Simulator::step_bools(self, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventSimulator;

    const ALL_LOGIC: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];

    fn pk_of(values: &[Logic]) -> Pk {
        let mut pk = PK_ZERO;
        for (i, &v) in values.iter().enumerate() {
            match v {
                Logic::Zero => {}
                Logic::One => pk.ones |= 1 << i,
                Logic::X => pk.xs |= 1 << i,
            }
        }
        pk
    }

    fn assert_canonical(pk: Pk) {
        assert_eq!(pk.ones & pk.xs, 0, "ones/xs overlap: {pk:?}");
    }

    #[test]
    fn one_hot_and_word_read_lane_zero() {
        let mut n = Netlist::new("lines");
        let lines: Vec<NetId> = (0..3).map(|i| n.add_input(format!("l{i}"))).collect();
        let mut sim = Simulator::new(&n).unwrap();
        let (o, z, x) = (Logic::One, Logic::Zero, Logic::X);
        for (bits, one_hot, word) in [
            ([z, o, z], Some(1), Some(2)),
            ([o, z, o], None, Some(5)),
            ([z, z, z], None, Some(0)),
            ([z, o, x], None, None),
        ] {
            sim.step(&[&[z][..], &bits].concat()).unwrap();
            assert_eq!(sim.one_hot(&lines), one_hot, "{bits:?}");
            assert_eq!(sim.word(&lines), word, "{bits:?}");
        }
    }

    /// Every packed binary operator must agree with the scalar truth
    /// table on all 9 value pairs, packed into one word.
    #[test]
    fn packed_ops_match_scalar_truth_tables() {
        let mut avs = Vec::new();
        let mut bvs = Vec::new();
        for &a in &ALL_LOGIC {
            for &b in &ALL_LOGIC {
                avs.push(a);
                bvs.push(b);
            }
        }
        let pa = pk_of(&avs);
        let pb = pk_of(&bvs);
        type ScalarOp = fn(Logic, Logic) -> Logic;
        type PackedOp = fn(Pk, Pk) -> Pk;
        let table: [(&str, ScalarOp, PackedOp); 4] = [
            ("and", Logic::and, pk_and),
            ("or", Logic::or, pk_or),
            ("xor", Logic::xor, pk_xor),
            ("merge", Logic::merge, pk_merge),
        ];
        for (name, scalar, packed) in table {
            let got = packed(pa, pb);
            assert_canonical(got);
            for i in 0..avs.len() {
                assert_eq!(
                    got.lane(i as u32),
                    scalar(avs[i], bvs[i]),
                    "{name}({:?}, {:?})",
                    avs[i],
                    bvs[i]
                );
            }
        }
        let got = pk_not(pa);
        assert_canonical(got);
        for (i, &av) in avs.iter().enumerate() {
            assert_eq!(got.lane(i as u32), av.not(), "not({av:?})");
        }
    }

    /// The packed mux over all 27 (d0, d1, s) combinations.
    #[test]
    fn packed_mux_matches_scalar() {
        let mut d0s = Vec::new();
        let mut d1s = Vec::new();
        let mut ss = Vec::new();
        for &a in &ALL_LOGIC {
            for &b in &ALL_LOGIC {
                for &s in &ALL_LOGIC {
                    d0s.push(a);
                    d1s.push(b);
                    ss.push(s);
                }
            }
        }
        let got = pk_mux(pk_of(&d0s), pk_of(&d1s), pk_of(&ss));
        assert_canonical(got);
        for i in 0..d0s.len() {
            let want = match ss[i] {
                Logic::Zero => d0s[i],
                Logic::One => d1s[i],
                Logic::X => d0s[i].merge(d1s[i]),
            };
            assert_eq!(
                got.lane(i as u32),
                want,
                "mux({:?}, {:?}, {:?})",
                d0s[i],
                d1s[i],
                ss[i]
            );
        }
    }

    /// The 4-FF ring with muxes from the event-sim tests — every
    /// sequential kind path plus combinational feedback through Q.
    fn ring_netlist() -> (Netlist, Vec<NetId>, Vec<InstId>) {
        let mut n = Netlist::new("ring");
        let en = n.add_input("en");
        let sel = n.add_input("sel");
        let rst = n.reset();
        let q: Vec<NetId> = (0..4).map(|i| n.add_net(format!("r{i}"))).collect();
        let mut ffs = Vec::new();
        for i in 0..4 {
            let prev = q[(i + 3) % 4];
            let alt = q[(i + 2) % 4];
            let d = n.gate(CellKind::Mux2, &[prev, alt, sel]).unwrap();
            let kind = if i == 0 {
                CellKind::Dffse
            } else {
                CellKind::Dffre
            };
            n.add_instance(format!("ff{i}"), kind, &[d, en, rst], &[q[i]])
                .unwrap();
            ffs.push(n.inst_id_from_index(n.num_instances() - 1));
            n.add_output(q[i]);
        }
        (n, q, ffs)
    }

    /// Broadcast-steps a multi-lane simulator against the event-driven
    /// oracle, comparing every net on every lane each cycle.
    fn cross_check_broadcast(netlist: &Netlist, lanes: usize, cycles: usize) {
        let mut reference = EventSimulator::new(netlist).unwrap();
        let mut sliced = Simulator::with_lanes(netlist, lanes).unwrap();
        let num_inputs = netlist.inputs().len();
        let mut lcg = 0x5eed ^ lanes as u64;
        for cycle in 0..cycles {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = lcg >> 33;
            let mut inputs = vec![Logic::Zero; num_inputs];
            inputs[0] = Logic::from_bool(cycle == 0 || r.is_multiple_of(13));
            for (k, v) in inputs.iter_mut().enumerate().skip(1) {
                *v = match (r >> (2 * k)) & 3 {
                    0 => Logic::Zero,
                    1 => Logic::One,
                    2 => Logic::X,
                    _ => Logic::from_bool((r >> k) & 1 == 1),
                };
            }
            reference.step(&inputs).unwrap();
            sliced.step(&inputs).unwrap();
            for i in 0..netlist.nets().len() {
                let id = netlist.net_id_from_index(i);
                let want = reference.value(id);
                for lane in [0, lanes / 2, lanes - 1] {
                    assert_eq!(
                        sliced.value_lane(id, lane),
                        want,
                        "lanes={lanes} cycle {cycle}, net {}, lane {lane}",
                        netlist.net(id).name()
                    );
                }
            }
            assert_eq!(
                sliced.flip_flop_states_lane(lanes - 1),
                reference.flip_flop_states(),
                "lanes={lanes} cycle {cycle} states"
            );
        }
    }

    /// Word-seam lane counts: 1, 63, 64, 65 and 128 lanes must all be
    /// lane-exact, including the partial-last-word configurations.
    #[test]
    fn word_seam_lane_counts_are_lane_exact() {
        let (n, _, _) = ring_netlist();
        for lanes in [1, 63, 64, 65, 128] {
            cross_check_broadcast(&n, lanes, 40);
        }
    }

    #[test]
    fn zero_lanes_is_rejected() {
        let (n, _, _) = ring_netlist();
        assert!(Simulator::with_lanes(&n, 0).is_err());
        let one = Simulator::new(&n).unwrap();
        assert!(one.fresh_with_lanes(0).is_err());
    }

    /// Loads one machine's states after cycle `at` into 1, 64 and 65
    /// lanes (65 crosses a word seam), then steps on: every lane must
    /// continue exactly as the one-lane machine does, and as the
    /// event-driven oracle run from power-up, X states included.
    #[test]
    fn loaded_states_continue_the_source_machine_on_every_lane() {
        let (n, _, _) = ring_netlist();
        // Reset at cycle 0 and now and then; X on `en` or `sel` now
        // and then, which leaves X in the ring.
        let stim = |cycle: u64| {
            let r = (cycle + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            let pick = |bits: u64| match bits & 3 {
                0 => Logic::X,
                1 => Logic::Zero,
                _ => Logic::One,
            };
            [
                Logic::from_bool(cycle == 0 || r.is_multiple_of(17)),
                pick(r),
                pick(r >> 2),
            ]
        };
        let mut x_after_reset = false;
        for at in [0u64, 1, 5, 12] {
            let mut src = Simulator::new(&n).unwrap();
            for c in 0..at {
                src.step(&stim(c)).unwrap();
            }
            let states = src.flip_flop_states();
            x_after_reset |= at > 0 && states.contains(&Logic::X);
            for lanes in [1, 64, 65] {
                let mut sim = src.fresh_with_lanes(lanes).unwrap();
                sim.load_flip_flop_states(&states).unwrap();
                let mut cont = src.clone();
                let mut oracle = EventSimulator::new(&n).unwrap();
                for c in 0..at {
                    oracle.step(&stim(c)).unwrap();
                }
                for c in at..at + 10 {
                    sim.step(&stim(c)).unwrap();
                    cont.step(&stim(c)).unwrap();
                    oracle.step(&stim(c)).unwrap();
                    assert_eq!(cont.output_values(), oracle.output_values());
                    assert_eq!(cont.flip_flop_states(), oracle.flip_flop_states());
                    for lane in 0..lanes {
                        let at_lane =
                            format!("load after {at}, {lanes} lanes, cycle {c}, lane {lane}");
                        assert_eq!(
                            sim.output_values_lane(lane),
                            cont.output_values(),
                            "{at_lane}"
                        );
                        assert_eq!(
                            sim.flip_flop_states_lane(lane),
                            cont.flip_flop_states(),
                            "{at_lane}"
                        );
                    }
                }
            }
        }
        assert!(x_after_reset, "no checkpoint after reset held an X state");
    }

    #[test]
    fn wrong_width_state_load_is_a_typed_error() {
        let (n, _, _) = ring_netlist();
        let mut sim = Simulator::with_lanes(&n, 65).unwrap();
        sim.step_bools(&[true, true, false]).unwrap();
        let before = sim.flip_flop_states_lane(64);
        for width in [0, 3, 5] {
            assert_eq!(
                sim.load_flip_flop_states(&vec![Logic::One; width]),
                Err(NetlistError::StateWidthMismatch {
                    expected: 4,
                    found: width
                })
            );
        }
        assert_eq!(sim.flip_flop_states_lane(64), before, "nothing was loaded");
    }

    /// The one-word kernel (64 lanes) against the multi-word one (65
    /// lanes): the same lane-masked stuck-ats and SEUs, including the
    /// top lanes 62 and 63 of the first word, must leave lanes 0..63
    /// identical on every net and flip-flop, every cycle.
    #[test]
    fn one_word_and_two_word_kernels_agree_lane_for_lane() {
        let (n, q, ffs) = ring_netlist();
        let mut one = Simulator::with_lanes(&n, 64).unwrap();
        let mut two = Simulator::with_lanes(&n, 65).unwrap();
        let forces = [
            (q[2], Logic::One, [3, 62]),
            (q[0], Logic::Zero, [17, 63]),
            (n.inputs()[1], Logic::X, [40, 62]),
        ];
        for (net, value, lanes) in forces {
            for sim in [&mut one, &mut two] {
                let mut mask = LaneMask::none(sim.lanes());
                lanes.iter().for_each(|&l| mask.set(l));
                sim.force_net_lanes(net, value, &mask);
            }
        }
        let upsets = [
            (3, ffs[1], [62, 5]),
            (6, ffs[3], [63, 0]),
            (9, ffs[0], [62, 63]),
        ];
        let mut lcg = 0xface_u64;
        for cycle in 0..24 {
            for &(at, ff, lanes) in &upsets {
                if at == cycle {
                    for sim in [&mut one, &mut two] {
                        let mut mask = LaneMask::none(sim.lanes());
                        lanes.iter().for_each(|&l| mask.set(l));
                        sim.upset_flip_flop_lanes(ff, &mask);
                    }
                }
            }
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = lcg >> 33;
            let inputs = [cycle == 0 || r.is_multiple_of(9), r & 2 != 0, r & 4 != 0];
            one.step_bools(&inputs).unwrap();
            two.step_bools(&inputs).unwrap();
            for lane in 0..64 {
                for i in 0..n.nets().len() {
                    let id = n.net_id_from_index(i);
                    assert_eq!(
                        one.value_lane(id, lane),
                        two.value_lane(id, lane),
                        "cycle {cycle} lane {lane} net {}",
                        n.net(id).name()
                    );
                }
                assert_eq!(
                    one.flip_flop_states_lane(lane),
                    two.flip_flop_states_lane(lane),
                    "cycle {cycle} lane {lane} states"
                );
            }
        }
        assert_eq!(one.evaluations() * 2, two.evaluations(), "word accounting");
    }

    /// Per-lane stimulus: every lane runs a different input stream
    /// and must match its own event-driven twin (65 lanes spills a
    /// word).
    #[test]
    fn per_lane_stimulus_matches_scalar_twins() {
        let (n, _, _) = ring_netlist();
        let lanes = 65;
        let mut sliced = Simulator::with_lanes(&n, lanes).unwrap();
        let mut twins: Vec<EventSimulator> = (0..lanes)
            .map(|_| EventSimulator::new(&n).unwrap())
            .collect();
        let mut lcg = 99u64;
        for cycle in 0..30 {
            let per_lane: Vec<Vec<Logic>> = (0..lanes)
                .map(|lane| {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let r = lcg >> 33;
                    vec![
                        Logic::from_bool(cycle == 0 || r.is_multiple_of(11)),
                        match r & 3 {
                            0 => Logic::Zero,
                            1 => Logic::One,
                            _ => Logic::X,
                        },
                        Logic::from_bool((r >> (lane % 7)) & 1 == 1),
                    ]
                })
                .collect();
            sliced.step_per_lane(&per_lane).unwrap();
            for (lane, twin) in twins.iter_mut().enumerate() {
                twin.step(&per_lane[lane]).unwrap();
                for i in 0..n.nets().len() {
                    let id = n.net_id_from_index(i);
                    assert_eq!(
                        sliced.value_lane(id, lane),
                        twin.value(id),
                        "cycle {cycle}, lane {lane}, net {}",
                        n.net(id).name()
                    );
                }
            }
        }
    }

    /// Lane-masked stuck-ats: only the masked lanes deviate; the
    /// others keep tracking the fault-free event-driven reference.
    #[test]
    fn lane_masked_force_isolates_lanes() {
        let (n, q, _) = ring_netlist();
        let lanes = 70; // partial last word
        let mut sliced = Simulator::with_lanes(&n, lanes).unwrap();
        let mut clean = EventSimulator::new(&n).unwrap();
        let mut faulty = EventSimulator::new(&n).unwrap();
        let mut mask = LaneMask::none(lanes);
        mask.set(3);
        mask.set(63);
        mask.set(64);
        mask.set(69);
        sliced.force_net_lanes(q[2], Logic::One, &mask);
        faulty.force_net(q[2], Logic::One);
        let drive = [
            [true, true, false],
            [false, true, false],
            [false, true, true],
            [false, true, false],
            [false, false, false],
            [false, true, false],
        ];
        for inputs in drive {
            sliced.step_bools(&inputs).unwrap();
            clean.step_bools(&inputs).unwrap();
            faulty.step_bools(&inputs).unwrap();
            for lane in 0..lanes {
                let want = if mask.get(lane) { &faulty } else { &clean };
                for i in 0..n.nets().len() {
                    let id = n.net_id_from_index(i);
                    assert_eq!(
                        sliced.value_lane(id, lane),
                        want.value(id),
                        "lane {lane} net {}",
                        n.net(id).name()
                    );
                }
            }
        }
    }

    /// All-lanes-forced across the word seam: with every lane masked
    /// the engine must equal an event-driven run with the same force,
    /// on every lane including the trailing partial word.
    #[test]
    fn all_lanes_forced_matches_scalar() {
        let (n, q, _) = ring_netlist();
        let lanes = 65;
        let mut sliced = Simulator::with_lanes(&n, lanes).unwrap();
        let mut scalar = EventSimulator::new(&n).unwrap();
        sliced.force_net_lanes(q[1], Logic::X, &LaneMask::all(lanes));
        scalar.force_net(q[1], Logic::X);
        for (c, inputs) in [
            [true, true, false],
            [false, true, false],
            [false, true, true],
        ]
        .iter()
        .enumerate()
        {
            sliced.step_bools(inputs).unwrap();
            scalar.step_bools(inputs).unwrap();
            for lane in 0..lanes {
                for i in 0..n.nets().len() {
                    let id = n.net_id_from_index(i);
                    assert_eq!(
                        sliced.value_lane(id, lane),
                        scalar.value(id),
                        "cycle {c} lane {lane} net {}",
                        n.net(id).name()
                    );
                }
            }
        }
        // clear_forces releases every lane.
        sliced.clear_forces();
        scalar.clear_forces();
        sliced.step_bools(&[false, true, false]).unwrap();
        scalar.step_bools(&[false, true, false]).unwrap();
        assert_eq!(sliced.value_lane(q[1], 64), scalar.value(q[1]));
    }

    /// Re-forcing a lane replaces its pinned value, as in the
    /// event-driven engine.
    #[test]
    fn reforcing_a_lane_replaces_its_value() {
        let (n, q, _) = ring_netlist();
        let lanes = 2;
        let mut sliced = Simulator::with_lanes(&n, lanes).unwrap();
        sliced.force_net_lanes(q[0], Logic::Zero, &LaneMask::all(lanes));
        sliced.force_net_lanes(q[0], Logic::One, &LaneMask::single(1, lanes));
        sliced.step_bools(&[true, true, false]).unwrap();
        assert_eq!(sliced.value_lane(q[0], 0), Logic::Zero);
        assert_eq!(sliced.value_lane(q[0], 1), Logic::One);
    }

    /// Lane-masked SEUs flip only defined lanes in the mask and
    /// report exactly the flipped set.
    #[test]
    fn lane_masked_upset_flips_only_defined_masked_lanes() {
        let (n, _, ffs) = ring_netlist();
        let lanes = 66;
        let mut sliced = Simulator::with_lanes(&n, lanes).unwrap();
        let mut twin = EventSimulator::new(&n).unwrap(); // never upset
                                                         // Before reset every state is X: nothing can flip.
        let none = sliced.upset_flip_flop_lanes(ffs[1], &LaneMask::all(lanes));
        assert_eq!(none.count(), 0, "power-up X cannot flip");
        for inputs in [[true, true, false], [false, true, false]] {
            sliced.step_bools(&inputs).unwrap();
            twin.step_bools(&inputs).unwrap();
        }
        let mut mask = LaneMask::none(lanes);
        mask.set(0);
        mask.set(65);
        let flipped = sliced.upset_flip_flop_lanes(ffs[1], &mask);
        assert_eq!(flipped.count(), 2);
        assert!(flipped.get(0) && flipped.get(65));
        // The flip shows on Q next cycle, only on the masked lanes.
        sliced.step_bools(&[false, false, false]).unwrap();
        twin.step_bools(&[false, false, false]).unwrap();
        let q1 = n.outputs()[1];
        for lane in [0, 65] {
            assert_ne!(sliced.value_lane(q1, lane), twin.value(q1), "lane {lane}");
        }
        for lane in [1, 33, 64] {
            assert_eq!(sliced.value_lane(q1, lane), twin.value(q1), "lane {lane}");
        }
    }

    /// The shared control surface drives both engines, on one lane and
    /// on many, through one generic harness.
    #[test]
    fn sim_control_trait_is_engine_generic() {
        fn drive<S: SimControl>(mut sim: S, q: NetId, ff: InstId) -> (Vec<Logic>, bool, u64) {
            sim.force_net(q, Logic::One);
            sim.step_bools(&[true, true, false]).unwrap();
            sim.step_bools(&[false, true, false]).unwrap();
            sim.clear_forces();
            sim.step_bools(&[false, true, false]).unwrap();
            let flipped = sim.upset_flip_flop(ff);
            sim.step_bools(&[false, true, false]).unwrap();
            let mut states = sim.flip_flop_states();
            states.extend(sim.output_values());
            states.push(sim.value(q));
            (states, flipped, sim.cycle())
        }
        let (n, q, ffs) = ring_netlist();
        let one = drive(Simulator::new(&n).unwrap(), q[2], ffs[0]);
        let evt = drive(EventSimulator::new(&n).unwrap(), q[2], ffs[0]);
        let many = drive(Simulator::with_lanes(&n, 65).unwrap(), q[2], ffs[0]);
        assert_eq!(one, evt);
        assert_eq!(many, evt);
    }

    /// Word-granular evaluation accounting: per step, each gate costs
    /// one evaluation per 64-lane word.
    #[test]
    fn evaluations_count_gate_words() {
        let (n, _, _) = ring_netlist();
        let comb_gates = n
            .instances()
            .iter()
            .filter(|i| !i.kind().is_sequential())
            .count() as u64;
        let ffs = n.num_flip_flops() as u64;
        for (lanes, words) in [(1usize, 1u64), (64, 1), (65, 2), (128, 2)] {
            let mut sim = Simulator::with_lanes(&n, lanes).unwrap();
            sim.step_bools(&[true, true, false]).unwrap();
            sim.step_bools(&[false, true, false]).unwrap();
            assert_eq!(sim.evaluations(), 2 * comb_gates * words, "lanes={lanes}");
            assert_eq!(
                sim.word_ops(),
                2 * (comb_gates + ffs) * words,
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn packed_value_trims_inactive_lanes() {
        let mut n = Netlist::new("tie");
        let hi = n.gate(CellKind::TieHi, &[]).unwrap();
        n.add_output(hi);
        let lanes = 70;
        let mut sim = Simulator::with_lanes(&n, lanes).unwrap();
        sim.step_bools(&[false]).unwrap();
        let (ones0, xs0) = sim.packed_value(hi, 0);
        let (ones1, xs1) = sim.packed_value(hi, 1);
        assert_eq!(ones0, !0);
        assert_eq!(xs0, 0);
        assert_eq!(ones1, (1u64 << 6) - 1, "trailing word masked to 6 lanes");
        assert_eq!(xs1, 0);
    }
}
