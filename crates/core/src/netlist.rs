//! Elaboration of an [`SragSpec`] into a gate-level netlist.
//!
//! The structure follows paper Fig. 5 exactly:
//!
//! * `DivCnt` — a modulo-`dC` counter clocked by `next`; its wrap is
//!   the shift `enable`. When `dC = 1` the counter degenerates to a
//!   wire (`enable = next`), with no hardware cost.
//! * `PassCnt` — a modulo-`pC` counter of enables; its wrap is
//!   `pass`, steering the inter-register multiplexers. Omitted when
//!   there is a single register (paper: "If N = 1 multiplexors are
//!   not required").
//! * One enabled flip-flop per select line, connected as circular
//!   shift registers, with a 2-to-1 mux in front of each register's
//!   first flip-flop selecting between recirculation and the previous
//!   register's tail. The flip-flop holding the token after reset
//!   (`s₀,₀`) is a set-type flop; all others are reset-type.
//!
//! Select lines are the flip-flop `Q` outputs directly — no decoding
//! logic exists, which is the entire point of the architecture.
//!
//! [`build_into`] is the one builder; [`BuildOptions`] picks the
//! control style, an external divider (§7 chaining) and the
//! self-checking ring ([`crate::harden`]). The ring itself is built
//! by one private piece of code whose only variation point is each
//! register's head input, so the time-shared ([`crate::shared`]) and
//! multi-counter ([`crate::multi_counter`]) SRAGs reuse it under
//! their own control. Every `build_into`-based elaboration, 1-D or
//! 2-D, goes through one private scaffold.

use adgen_netlist::{CellKind, NetId, Netlist, Simulator};
use adgen_synth::fsm::MAX_FANOUT;
use adgen_synth::mapgen::{build_mod_counter, build_ring_counter};
use adgen_synth::techmap::{insert_fanout_buffers, or_tree};
use adgen_synth::{Encoding, Fsm, OutputStyle};

use crate::arch::{ControlStyle, ShiftRegisterSpec, SragSpec};
use crate::error::SragError;

/// A gate-level SRAG: the netlist plus its interface nets.
#[derive(Debug, Clone)]
pub struct SragNetlist {
    /// The implementation. Primary inputs: `reset` (index 0), `next`
    /// (index 1). Primary outputs: the select lines, in line order.
    pub netlist: Netlist,
    /// Select-line nets, indexed by line number.
    pub select_lines: Vec<NetId>,
    /// The `next` input net.
    pub next_input: NetId,
    /// The architecture this netlist implements.
    pub spec: SragSpec,
}

impl SragNetlist {
    /// Elaborates `spec` to gates, inserting fanout buffers as a
    /// synthesis flow would.
    ///
    /// # Errors
    ///
    /// Propagates construction failures as
    /// [`SragError::Netlist`]/[`SragError::Synth`].
    pub fn elaborate(spec: &SragSpec) -> Result<Self, SragError> {
        Self::elaborate_with_style(spec, ControlStyle::BinaryCounters)
    }

    /// Elaborates `spec` with the chosen control-circuit style (the
    /// §4 ablation: binary counters vs one-hot rings for
    /// `DivCnt`/`PassCnt`).
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn elaborate_with_style(spec: &SragSpec, style: ControlStyle) -> Result<Self, SragError> {
        let opts = BuildOptions {
            style,
            ..BuildOptions::default()
        };
        let (netlist, next, [parts], _) = elaborate_one(spec, "", &opts)?;
        Ok(SragNetlist {
            netlist,
            select_lines: parts.select_lines,
            next_input: next,
            spec: spec.clone(),
        })
    }

    /// Decodes the select lines of a simulator over this netlist into
    /// the presented address. Returns `None` unless exactly one line
    /// is hot and all lines are defined.
    pub fn observed_address(&self, sim: &Simulator<'_>) -> Option<u32> {
        observed_one_hot(sim, &self.select_lines)
    }
}

/// Decodes a one-hot line vector from a running simulator: the index
/// of the single hot line, or `None` if any line is X or the vector
/// is not exactly one-hot.
pub fn observed_one_hot(sim: &Simulator<'_>, lines: &[NetId]) -> Option<u32> {
    let mut hot = None;
    for (i, &l) in lines.iter().enumerate() {
        match sim.value(l).to_bool()? {
            true if hot.is_none() => hot = Some(i as u32),
            true => return None,
            false => {}
        }
    }
    hot
}

/// Interface nets of one SRAG built into a shared netlist.
#[derive(Debug, Clone)]
pub struct SragParts {
    /// Select-line nets in line order.
    pub select_lines: Vec<NetId>,
    /// The shift-enable signal (the `DivCnt` wrap).
    pub enable: NetId,
    /// High during the enable on which the token completes a full
    /// tour and returns to `s₀,₀` — the hook for chaining a slower
    /// dimension's divider off a faster one (paper §7: reuse of
    /// control circuitry between the row and column sequences).
    pub cycle_wrap: NetId,
    /// The shift-register Q nets in token order (register by
    /// register) — the nets a select-ring fault campaign targets.
    pub ring_ffs: Vec<NetId>,
    /// One-hot violation flag of the hardening checker; `Some` only
    /// when built with [`BuildOptions::harden`].
    pub alarm: Option<NetId>,
}

/// Construction options for [`build_into`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildOptions {
    /// Control-circuit style for `DivCnt`/`PassCnt`.
    pub style: ControlStyle,
    /// Replaces the internal `DivCnt` with an externally divided
    /// enable; `next` is then ignored for enable generation.
    pub external_enable: Option<NetId>,
    /// Elaborates the self-checking ring: an exactly-one-hot checker
    /// over the shift-register Q nets whose violation flag (`alarm`)
    /// is ORed into the ring flip-flops' reset/set pins, so an
    /// invalid state both raises the alarm and reloads the reset
    /// token pattern on the next clock edge (watchdog resync).
    pub harden: bool,
}

/// Builds an SRAG for `spec` into an existing netlist, driven by the
/// given `next` net, with `prefix` applied to all instance names so
/// that several SRAGs (e.g. a row and a column generator) can share
/// one netlist. `opts` selects the control style, optionally replaces
/// the internal `DivCnt` with an external pre-divided enable, and
/// optionally hardens the ring. Returns the interface nets; the
/// caller decides which nets become primary outputs and runs fanout
/// buffering.
///
/// # Errors
///
/// Propagates construction failures.
pub fn build_into(
    n: &mut Netlist,
    spec: &SragSpec,
    next: NetId,
    prefix: &str,
    opts: &BuildOptions,
) -> Result<SragParts, SragError> {
    // DivCnt divides `next` by dC (unless the caller supplies the
    // enable); PassCnt counts enables up to pC, needed only with more
    // than one register.
    let div = |n: &mut Netlist, count, stimulus, what: &str| {
        divider(n, opts.style, count, stimulus, &format!("{prefix}{what}"))
    };
    let enable = match opts.external_enable {
        Some(e) => e,
        None => div(n, spec.div_count, next, "divcnt")?,
    };
    let pass = (spec.num_registers() > 1)
        .then(|| div(n, spec.pass_count, enable, "passcnt"))
        .transpose()?;

    let ring = Ring::new(n, &spec.registers, prefix);
    let ring_ffs: Vec<NetId> = ring.q.iter().flatten().copied().collect();

    // Hardening: a chained exactly-one-hot checker over the ring Q
    // nets. `p1` = at least one hot so far, `p2` = at least two;
    // `alarm` = ¬p1 ∨ p2 (not exactly one token). The alarm is ORed
    // into the ring flip-flops' reset/set pins, so the cycle after an
    // invalid state becomes visible the ring reloads its reset token
    // pattern — detection and resync in one mechanism. The loop
    // Q → checker → reset pin is broken by the flip-flops, so the
    // combinational network stays acyclic.
    let rst = n.reset();
    let (ring_rst, alarm) = if opts.harden {
        let (mut p1, mut p2) = (ring_ffs[0], None);
        for &l in &ring_ffs[1..] {
            let both = n.gate(CellKind::And2, &[p1, l])?;
            p2 = Some(match p2 {
                None => both,
                Some(prev) => n.gate(CellKind::Or2, &[prev, both])?,
            });
            p1 = n.gate(CellKind::Or2, &[p1, l])?;
        }
        let none_hot = n.gate(CellKind::Inv, &[p1])?;
        let alarm = match p2 {
            Some(p2) => n.gate(CellKind::Or2, &[none_hot, p2])?,
            None => none_hot,
        };
        (n.gate(CellKind::Or2, &[rst, alarm])?, Some(alarm))
    } else {
        (rst, None)
    };

    let select_lines = ring.close(n, spec.num_lines, enable, ring_rst, mux_head(pass))?;

    // Full-cycle wrap: the token leaves the *last* register's tail
    // back to s₀,₀. With one register that is simply the wrap of its
    // recirculation; with several, the pass firing while the token
    // sits in the last register.
    let last = &ring.q[spec.num_registers() - 1];
    let cycle_wrap = match pass {
        None => n.gate(CellKind::And2, &[enable, last[last.len() - 1]])?,
        Some(p) => {
            let token_in_last = or_tree(n, last)?;
            n.gate(CellKind::And2, &[p, token_in_last])?
        }
    };

    Ok(SragParts {
        select_lines,
        enable,
        cycle_wrap,
        ring_ffs,
        alarm,
    })
}

/// A modulo-`count` divider of `stimulus` in the chosen control
/// style; returns the wrap signal (high when the divider is at its
/// terminal count and the stimulus is asserted).
fn divider(
    n: &mut Netlist,
    style: ControlStyle,
    count: usize,
    stimulus: NetId,
    name: &str,
) -> Result<NetId, SragError> {
    Ok(match style {
        ControlStyle::BinaryCounters => build_mod_counter(n, count as u64, stimulus, name)?.wrap,
        ControlStyle::RingCounters => build_ring_counter(n, count as u64, stimulus, name)?.wrap,
        ControlStyle::InteractingFsms if count == 1 => stimulus,
        ControlStyle::InteractingFsms => {
            // A cyclic FSM whose single output bit flags the terminal
            // state; espresso-minimized and binary encoded, advancing
            // on the stimulus.
            let fsm = Fsm::new(
                (0..count).map(|s| (s + 1) % count).collect(),
                (0..count).map(|s| u64::from(s == count - 1)).collect(),
            )?;
            let flag = fsm.build_into(
                n,
                stimulus,
                Encoding::Binary,
                OutputStyle::BinaryAddress { bits: 1 },
                &format!("{name}_"),
            )?[0];
            n.gate(CellKind::And2, &[stimulus, flag])?
        }
    })
}

/// The circularly linked shift registers of paper Fig. 5, shared by
/// every SRAG variant: only the control around the ring differs.
pub(crate) struct Ring<'a> {
    registers: &'a [ShiftRegisterSpec],
    prefix: &'a str,
    /// Q nets, register by register, in token order.
    pub(crate) q: Vec<Vec<NetId>>,
}

impl<'a> Ring<'a> {
    /// Creates the Q nets `{prefix}s{i}_{j}` up front, so control
    /// logic and head inputs can refer to them before the flip-flops
    /// exist.
    pub(crate) fn new(
        n: &mut Netlist,
        registers: &'a [ShiftRegisterSpec],
        prefix: &'a str,
    ) -> Self {
        let q = registers
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (0..r.len())
                    .map(|j| n.add_net(format!("{prefix}s{i}_{j}")))
                    .collect()
            })
            .collect();
        Ring {
            registers,
            prefix,
            q,
        }
    }

    /// Instantiates the flip-flops — `s₀,₀` set-type, the rest
    /// reset-type, all shifting on `enable` and reloaded by `rst` —
    /// and returns the select lines in line order, unused lines tied
    /// low. `head(n, i, recirc, tail)` builds the D input of register
    /// `i`'s first flip-flop from its own tail `recirc` and the
    /// previous register's `tail`.
    pub(crate) fn close(
        &self,
        n: &mut Netlist,
        num_lines: usize,
        enable: NetId,
        rst: NetId,
        mut head: impl FnMut(&mut Netlist, usize, NetId, NetId) -> Result<NetId, SragError>,
    ) -> Result<Vec<NetId>, SragError> {
        let (q, prefix) = (&self.q, self.prefix);
        for (i, qi) in q.iter().enumerate() {
            let prev = &q[(i + q.len() - 1) % q.len()];
            for j in 0..qi.len() {
                let d = match j {
                    0 => head(n, i, qi[qi.len() - 1], prev[prev.len() - 1])?,
                    _ => qi[j - 1],
                };
                let kind = if i == 0 && j == 0 {
                    CellKind::Dffse
                } else {
                    CellKind::Dffre
                };
                n.add_instance(
                    format!("{prefix}sr{i}_ff{j}"),
                    kind,
                    &[d, enable, rst],
                    &[qi[j]],
                )?;
            }
        }
        let mut select_lines = vec![None; num_lines];
        for (r, qi) in self.registers.iter().zip(q) {
            for (&line, &net) in r.lines().iter().zip(qi) {
                select_lines[line as usize] = Some(net);
            }
        }
        select_lines
            .into_iter()
            .map(|s| match s {
                Some(net) => Ok(net),
                None => Ok(n.gate(CellKind::TieLo, &[])?),
            })
            .collect()
    }
}

/// Fig. 5's head input: a `pass`-steered 2-to-1 mux between the
/// register's own tail and the previous register's; plain
/// recirculation without `pass` (a single register).
pub(crate) fn mux_head(
    pass: Option<NetId>,
) -> impl FnMut(&mut Netlist, usize, NetId, NetId) -> Result<NetId, SragError> {
    move |n, _, recirc, tail| match pass {
        Some(p) => Ok(n.gate(CellKind::Mux2, &[recirc, tail, p])?),
        None => Ok(recirc),
    }
}

/// What [`elaborate`] returns: the netlist, its `next` input, the
/// built SRAGs in output order, and their checker alarms ORed into
/// one (`None` unless some part is hardened).
pub(crate) type Elaborated<const D: usize> = (Netlist, NetId, [SragParts; D], Option<NetId>);

/// The scaffold every `build_into`-based elaboration shares: a
/// netlist called `name` with a `next` input, the SRAGs `build` adds
/// to it, and [`finish`] with their select lines in part order and
/// the ORed checker alarm last.
pub(crate) fn elaborate<const D: usize>(
    name: String,
    build: impl FnOnce(&mut Netlist, NetId) -> Result<[SragParts; D], SragError>,
) -> Result<Elaborated<D>, SragError> {
    let mut n = Netlist::new(name);
    let next = n.add_input("next");
    let parts = build(&mut n, next)?;
    let mut alarm = None;
    for a in parts.iter().filter_map(|p| p.alarm) {
        alarm = Some(match alarm {
            None => a,
            Some(prev) => n.gate(CellKind::Or2, &[prev, a])?,
        });
    }
    let lines = parts.iter().flat_map(|p| p.select_lines.iter().copied());
    finish(&mut n, lines.chain(alarm))?;
    Ok((n, next, parts, alarm))
}

/// [`elaborate`] for a single SRAG, named `srag_{kind}{R}r_{F}ff`.
pub(crate) fn elaborate_one(
    spec: &SragSpec,
    kind: &str,
    opts: &BuildOptions,
) -> Result<Elaborated<1>, SragError> {
    let (r, f) = (spec.num_registers(), spec.num_flip_flops());
    elaborate(format!("srag_{kind}{r}r_{f}ff"), |n, next| {
        Ok([build_into(n, spec, next, "", opts)?])
    })
}

/// The tail of every elaboration in this crate: `outputs` become the
/// primary outputs in order, then fanout buffering and validation.
pub(crate) fn finish(
    n: &mut Netlist,
    outputs: impl IntoIterator<Item = NetId>,
) -> Result<(), SragError> {
    for l in outputs {
        n.add_output(l);
    }
    insert_fanout_buffers(n, MAX_FANOUT)?;
    Ok(n.validate()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ShiftRegisterSpec;
    use crate::mapper::map_sequence;
    use crate::sim::SragSimulator;
    use adgen_seq::{AddressGenerator, AddressSequence};

    /// Drives the netlist through reset + `steps` nexts and collects
    /// the presented addresses (including the initial one).
    fn run_gate_level(design: &SragNetlist, steps: usize) -> Vec<u32> {
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            sim.step_bools(&[false, true]).unwrap();
            out.push(
                design
                    .observed_address(&sim)
                    .expect("select lines must be one-hot"),
            );
        }
        out
    }

    fn behavioural(spec: &SragSpec, steps: usize) -> Vec<u32> {
        let mut sim = SragSimulator::new(spec.clone());
        sim.collect_sequence(steps).into_iter().collect()
    }

    #[test]
    fn ring_matches_behaviour() {
        let spec = SragSpec::ring(6);
        let design = SragNetlist::elaborate(&spec).unwrap();
        assert_eq!(run_gate_level(&design, 13), behavioural(&spec, 13));
    }

    #[test]
    fn paper_fig5_div2_matches_behaviour() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![5, 1, 4, 0]),
                ShiftRegisterSpec::new(vec![3, 7, 6, 2]),
            ],
            2,
            4,
            8,
        );
        let design = SragNetlist::elaborate(&spec).unwrap();
        assert_eq!(run_gate_level(&design, 32), behavioural(&spec, 32));
    }

    #[test]
    fn paper_fig5_pass8_matches_behaviour() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![5, 1, 4, 0]),
                ShiftRegisterSpec::new(vec![3, 7, 6, 2]),
            ],
            1,
            8,
            8,
        );
        let design = SragNetlist::elaborate(&spec).unwrap();
        assert_eq!(run_gate_level(&design, 32), behavioural(&spec, 32));
    }

    #[test]
    fn mapped_table2_machine_matches_gate_level() {
        let rows = AddressSequence::from_vec(vec![0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3]);
        let m = map_sequence(&rows).unwrap();
        let design = SragNetlist::elaborate(&m.spec).unwrap();
        let got = run_gate_level(&design, rows.len());
        assert_eq!(got, rows.as_slice());
    }

    #[test]
    fn one_hot_invariant_holds_at_gate_level() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![2, 0]),
                ShiftRegisterSpec::new(vec![1, 3]),
            ],
            3,
            4,
            4,
        );
        let design = SragNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for cycle in 0..60 {
            sim.step_bools(&[false, true]).unwrap();
            let hot = design
                .select_lines
                .iter()
                .filter(|&&l| sim.value(l).to_bool() == Some(true))
                .count();
            assert_eq!(hot, 1, "cycle {cycle}");
        }
    }

    #[test]
    fn next_low_holds_address() {
        let spec = SragSpec::ring(4);
        let design = SragNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(0));
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(1));
        sim.step_bools(&[false, false]).unwrap();
        assert_eq!(design.observed_address(&sim), Some(1), "held");
    }

    #[test]
    fn no_decoder_cells_in_srag() {
        // The point of the architecture: flip-flops, muxes, counters
        // and buffers only — wide AND/OR decode trees appear solely in
        // the small counters' compare logic.
        let spec = SragSpec::ring(16);
        let design = SragNetlist::elaborate(&spec).unwrap();
        assert_eq!(design.netlist.num_flip_flops(), 16);
        // Ring with dC=1 needs no counters at all: only FFs, fanout
        // buffers on enable/reset, and the single AND of the
        // cycle-wrap hook.
        let mut comb_gates = 0;
        for inst in design.netlist.instances() {
            if inst.kind().is_sequential() || inst.kind() == CellKind::Buf {
                continue;
            }
            assert_eq!(
                inst.kind(),
                CellKind::And2,
                "unexpected cell {} in pure ring",
                inst.kind()
            );
            comb_gates += 1;
        }
        assert!(comb_gates <= 1, "only the cycle-wrap AND is allowed");
    }

    #[test]
    fn ring_control_matches_binary_control() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![5, 1, 4, 0]),
                ShiftRegisterSpec::new(vec![3, 7, 6, 2]),
            ],
            3,
            8,
            8,
        );
        let binary =
            SragNetlist::elaborate_with_style(&spec, ControlStyle::BinaryCounters).unwrap();
        let ring = SragNetlist::elaborate_with_style(&spec, ControlStyle::RingCounters).unwrap();
        assert_eq!(run_gate_level(&binary, 60), run_gate_level(&ring, 60));
        // Ring control trades flip-flops for logic: more FFs than the
        // binary-counter version.
        assert!(ring.netlist.num_flip_flops() > binary.netlist.num_flip_flops());
    }

    #[test]
    fn interacting_fsm_control_matches_binary_control() {
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new(vec![2, 0, 3]),
                ShiftRegisterSpec::new(vec![1, 4, 5]),
            ],
            4,
            6,
            6,
        );
        let binary =
            SragNetlist::elaborate_with_style(&spec, ControlStyle::BinaryCounters).unwrap();
        let fsm = SragNetlist::elaborate_with_style(&spec, ControlStyle::InteractingFsms).unwrap();
        assert_eq!(run_gate_level(&binary, 96), run_gate_level(&fsm, 96));
    }

    #[test]
    fn ring_control_is_faster() {
        use adgen_netlist::{Library, TimingAnalysis};
        // Large counters: dC = 16, pC = 32 make the binary carry and
        // compare trees deep enough for the single-AND ring wrap to
        // win.
        let spec = SragSpec::new(
            vec![
                ShiftRegisterSpec::new((0..16).collect()),
                ShiftRegisterSpec::new((16..32).collect()),
            ],
            16,
            32,
            32,
        );
        let lib = Library::vcl018();
        let binary =
            SragNetlist::elaborate_with_style(&spec, ControlStyle::BinaryCounters).unwrap();
        let ring = SragNetlist::elaborate_with_style(&spec, ControlStyle::RingCounters).unwrap();
        let tb = TimingAnalysis::run(&binary.netlist, &lib).unwrap();
        let tr = TimingAnalysis::run(&ring.netlist, &lib).unwrap();
        assert!(
            tr.critical_path_ps() < tb.critical_path_ps(),
            "ring {} vs binary {}",
            tr.critical_path_ps(),
            tb.critical_path_ps()
        );
    }

    #[test]
    fn cycle_wrap_fires_once_per_period() {
        // Single register ring of 4 with dC = 1.
        let spec = SragSpec::ring(4);
        let mut n = Netlist::new("wrap");
        let next = n.add_input("next");
        let parts = build_into(&mut n, &spec, next, "", &BuildOptions::default()).unwrap();
        n.add_output(parts.cycle_wrap);
        insert_fanout_buffers(&mut n, MAX_FANOUT).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        let mut fired = Vec::new();
        for _ in 0..12 {
            sim.step_bools(&[false, true]).unwrap();
            fired.push(sim.value(parts.cycle_wrap).to_bool().unwrap());
        }
        assert_eq!(
            fired,
            vec![false, false, false, true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn external_enable_replaces_divider() {
        // An SRAG with dC = 4 driven by an externally divided enable
        // behaves like next/4.
        let spec = SragSpec::new(vec![ShiftRegisterSpec::new(vec![0, 1, 2])], 4, 3, 3);
        let mut n = Netlist::new("ext");
        let next = n.add_input("next");
        let div = adgen_synth::mapgen::build_mod_counter(&mut n, 4, next, "extdiv").unwrap();
        let opts = BuildOptions {
            external_enable: Some(div.wrap),
            ..BuildOptions::default()
        };
        let parts = build_into(&mut n, &spec, next, "", &opts).unwrap();
        for &l in &parts.select_lines {
            n.add_output(l);
        }
        insert_fanout_buffers(&mut n, MAX_FANOUT).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        let mut got = Vec::new();
        for _ in 0..24 {
            sim.step_bools(&[false, true]).unwrap();
            got.push(observed_one_hot(&sim, &parts.select_lines).unwrap());
        }
        let expected: Vec<u32> = (0..24).map(|i| (i / 4) % 3).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn sparse_lines_tie_low() {
        // Lines 0 and 2 used, line 1 unused.
        let spec = SragSpec::new(vec![ShiftRegisterSpec::new(vec![0, 2])], 1, 2, 3);
        let design = SragNetlist::elaborate(&spec).unwrap();
        let mut sim = Simulator::new(&design.netlist).unwrap();
        sim.step_bools(&[true, false]).unwrap();
        for _ in 0..6 {
            sim.step_bools(&[false, true]).unwrap();
            assert_eq!(
                sim.value(design.select_lines[1]),
                adgen_netlist::Logic::Zero
            );
        }
    }

    #[test]
    fn workload_round_trips_at_gate_level() {
        use adgen_seq::{workloads, ArrayShape, Layout};
        let shape = ArrayShape::new(8, 8);
        let lin = workloads::motion_est_read(shape, 2, 2, 0);
        let (rows, cols) = lin.decompose(shape, Layout::RowMajor).unwrap();
        for dim in [rows, cols] {
            let m = map_sequence(&dim).unwrap();
            let design = SragNetlist::elaborate(&m.spec).unwrap();
            let got = run_gate_level(&design, dim.len());
            assert_eq!(got, dim.as_slice());
        }
    }
}
