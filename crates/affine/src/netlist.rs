//! Structural elaboration of the programmable affine AGU.
//!
//! ## Interface
//!
//! Inputs, in declaration order: `reset` (the IR's implicit global
//! reset at index 0), `next` (advance one tick), `prog_en` (serial
//! programming enable; freezes the datapath), `prog_bit` (serial
//! programming data). Outputs: the `addr_width` address bits LSB
//! first, then `mem_en` (this tick is inside both duty windows),
//! `done` (this tick is the last of the program) and `ready`
//! (`!prog_en` — the handshake bit a consumer polls).
//!
//! ## Programming registers with baked-in defaults
//!
//! The twelve parameter fields sit on one serial shift chain clocked
//! by `prog_en`. Each chain flip-flop stores its logical value XOR
//! the corresponding bit of the *default program* the circuit was
//! elaborated with: a plain reset-to-0 `Dffr` then makes `reset`
//! restore the default program with no set-input cells, and the
//! XOR is free — reads go through an inverter exactly where the
//! default bit is 1, and chain links invert exactly where adjacent
//! default bits differ. The same netlist therefore works both ways:
//! freshly reset inside a fault campaign (whose stimulus never
//! raises `prog_en`) it runs the default program; driven over the
//! chain it runs whatever was shifted in.
//!
//! ## Datapath
//!
//! Two levels, each a pair of programmable-modulus counters
//! (within-pass position and pass index; wrap detection compares the
//! incremented value against the period/iterations registers) and a
//! per-level offset accumulator that adds `incr` each tick — plus
//! `shift` on pass-wrap ticks — and clears when its level's program
//! completes. The outer level is enabled once per completed inner
//! program, and the presented address is the four-term sum
//! `inner.start + outer.start + acc_inner + acc_outer`.

use adgen_netlist::{CellKind, Logic, NetId, Netlist, SimControl};
use adgen_synth::fsm::MAX_FANOUT;
use adgen_synth::mapgen::{build_adder, build_incrementer, build_mux_word};
use adgen_synth::techmap::{and_tree, insert_fanout_buffers};

use crate::error::AffineError;
use crate::spec::AffineSpec;

/// Decoded primary outputs of the AGU at one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineOutputs {
    /// The presented address.
    pub addr: u32,
    /// Inside both duty windows — the memory would be enabled.
    pub mem_en: bool,
    /// Last tick of the whole program.
    pub done: bool,
    /// Not being programmed.
    pub ready: bool,
}

/// The elaborated gate-level AGU.
#[derive(Debug, Clone)]
pub struct AffineAgNetlist {
    /// The netlist; drive it with any of the three simulation
    /// engines, STA, or the Verilog/VCD emitters.
    pub netlist: Netlist,
    /// The default (reset) program baked into the chain.
    pub spec: AffineSpec,
    /// Address output nets, LSB first.
    pub addr_bits: Vec<NetId>,
    /// `mem_en` output net.
    pub mem_en: NetId,
    /// `done` output net.
    pub done: NetId,
    /// `ready` output net.
    pub ready: NetId,
    /// Programming-chain flip-flop outputs, chain order. Their count
    /// is the programming-register area premium in flip-flops.
    pub config_nets: Vec<NetId>,
    /// Datapath state (counter and accumulator) flip-flop outputs —
    /// the SEU target pool for resilience campaigns.
    pub state_nets: Vec<NetId>,
}

/// Serializes a spec into chain order: per level (inner first)
/// `start`, `incr`, `shift` at `addr_width` bits then `iterations`,
/// `period`, `duty` at `cnt_width` bits, each field LSB first.
fn serialize(spec: &AffineSpec) -> Vec<bool> {
    let mut bits = Vec::with_capacity(chain_len(spec.addr_width, spec.cnt_width));
    let mut push = |value: u32, width: u32| {
        for i in 0..width {
            bits.push(value >> i & 1 == 1);
        }
    };
    for level in [&spec.inner, &spec.outer] {
        push(level.start, spec.addr_width);
        push(level.incr, spec.addr_width);
        push(level.shift, spec.addr_width);
        push(level.iterations, spec.cnt_width);
        push(level.period, spec.cnt_width);
        push(level.duty, spec.cnt_width);
    }
    bits
}

/// Length of the programming chain for the given register widths.
fn chain_len(addr_width: u32, cnt_width: u32) -> usize {
    (2 * (3 * addr_width + 3 * cnt_width)) as usize
}

/// The stimulus vector for one reset cycle.
pub fn reset_inputs() -> Vec<bool> {
    vec![true, false, false, false]
}

/// The stimulus vector for one running tick (`next` high).
pub fn tick_inputs() -> Vec<bool> {
    vec![false, true, false, false]
}

/// The stimulus vector for one programming shift of `bit`.
pub fn program_inputs(bit: bool) -> Vec<bool> {
    vec![false, false, true, bit]
}

/// One programmable register word under construction: logical-value
/// read nets, LSB first.
struct Words {
    start: Vec<NetId>,
    incr: Vec<NetId>,
    shift: Vec<NetId>,
    iterations: Vec<NetId>,
    period: Vec<NetId>,
    duty: Vec<NetId>,
}

impl AffineAgNetlist {
    /// Elaborates the AGU with `spec` baked in as the reset-default
    /// program.
    ///
    /// # Errors
    ///
    /// Rejects invalid specs and propagates netlist construction
    /// failures.
    pub fn elaborate(spec: &AffineSpec) -> Result<Self, AffineError> {
        spec.validate()?;
        let w = spec.addr_width as usize;
        let cw = spec.cnt_width as usize;
        let mut n = Netlist::new("affine_ag");
        let rst = n.inputs()[0];
        let next = n.add_input("next");
        let prog_en = n.add_input("prog_en");
        let prog_bit = n.add_input("prog_bit");

        // --- programming chain -------------------------------------
        let defaults = serialize(spec);
        let mut config_nets = Vec::with_capacity(defaults.len());
        let mut reads = Vec::with_capacity(defaults.len());
        let mut prev: Option<(NetId, bool)> = None;
        for (i, &default_bit) in defaults.iter().enumerate() {
            let (link_raw, link_default) = match prev {
                None => (prog_bit, false),
                Some((q, d)) => (q, d),
            };
            // The stored value is logical XOR default, so the chain
            // link re-encodes between adjacent defaults and the read
            // decodes back to the logical value.
            let chain_in = if link_default != default_bit {
                n.gate(CellKind::Inv, &[link_raw])?
            } else {
                link_raw
            };
            let q = n.add_net(format!("cfg_q{i}"));
            let d = n.gate(CellKind::Mux2, &[q, chain_in, prog_en])?;
            n.add_instance(format!("u_cfg{i}"), CellKind::Dffr, &[d, rst], &[q])?;
            let read = if default_bit {
                n.gate(CellKind::Inv, &[q])?
            } else {
                q
            };
            config_nets.push(q);
            reads.push(read);
            prev = Some((q, default_bit));
        }
        let mut cursor = reads.into_iter();
        let mut take = |count: usize| -> Vec<NetId> { cursor.by_ref().take(count).collect() };
        let mut level_words = || -> Words {
            Words {
                start: take(w),
                incr: take(w),
                shift: take(w),
                iterations: take(cw),
                period: take(cw),
                duty: take(cw),
            }
        };
        let inner = level_words();
        let outer = level_words();

        // --- enables and counters ----------------------------------
        let mut state_nets = Vec::new();
        let not_prog = n.gate(CellKind::Inv, &[prog_en])?;
        let tick = n.gate(CellKind::And2, &[next, not_prog])?;

        let (pa_q, last_a) =
            mod_counter(&mut n, cw, tick, &inner.period, rst, "pa", &mut state_nets)?;
        let tick_last_a = n.gate(CellKind::And2, &[tick, last_a])?;
        let (_ita_q, last_iter_a) = mod_counter(
            &mut n,
            cw,
            tick_last_a,
            &inner.iterations,
            rst,
            "ita",
            &mut state_nets,
        )?;
        let pass_a_end = n.gate(CellKind::And2, &[last_a, last_iter_a])?;
        let tick_pass_a = n.gate(CellKind::And2, &[tick, pass_a_end])?;
        let (pb_q, last_b) = mod_counter(
            &mut n,
            cw,
            tick_pass_a,
            &outer.period,
            rst,
            "pb",
            &mut state_nets,
        )?;
        let tick_last_b = n.gate(CellKind::And2, &[tick_pass_a, last_b])?;
        let (_itb_q, last_iter_b) = mod_counter(
            &mut n,
            cw,
            tick_last_b,
            &outer.iterations,
            rst,
            "itb",
            &mut state_nets,
        )?;
        let prog_end = n.gate(CellKind::And3, &[pass_a_end, last_b, last_iter_b])?;

        // --- offset accumulators -----------------------------------
        let sum_as = build_adder(&mut n, &inner.incr, &inner.shift)?;
        let delta_a = build_mux_word(&mut n, &inner.incr, &sum_as, last_a)?;
        let acc_a = accumulator(
            &mut n,
            tick,
            &delta_a,
            pass_a_end,
            rst,
            "acca",
            &mut state_nets,
        )?;
        let sum_bs = build_adder(&mut n, &outer.incr, &outer.shift)?;
        let delta_b = build_mux_word(&mut n, &outer.incr, &sum_bs, last_b)?;
        let acc_b = accumulator(
            &mut n,
            tick_pass_a,
            &delta_b,
            prog_end,
            rst,
            "accb",
            &mut state_nets,
        )?;

        // --- address and handshake ---------------------------------
        let base = build_adder(&mut n, &inner.start, &outer.start)?;
        let off = build_adder(&mut n, &acc_a, &acc_b)?;
        let addr_bits = build_adder(&mut n, &base, &off)?;
        let in_duty_a = less_than(&mut n, &pa_q, &inner.duty)?;
        let in_duty_b = less_than(&mut n, &pb_q, &outer.duty)?;
        let mem_en = n.gate(CellKind::And2, &[in_duty_a, in_duty_b])?;
        let ready = n.gate(CellKind::Inv, &[prog_en])?;

        for &bit in &addr_bits {
            n.add_output(bit);
        }
        n.add_output(mem_en);
        n.add_output(prog_end);
        n.add_output(ready);

        insert_fanout_buffers(&mut n, MAX_FANOUT)?;
        n.validate()?;
        Ok(AffineAgNetlist {
            netlist: n,
            spec: *spec,
            addr_bits,
            mem_en,
            done: prog_end,
            ready,
            config_nets,
            state_nets,
        })
    }

    /// Flip-flops spent on the programming chain — the area premium
    /// the sequence-specialized generators do not pay.
    pub fn config_bits(&self) -> usize {
        self.config_nets.len()
    }

    /// The serial stream that programs `spec` into this circuit, in
    /// presentation order (first element goes on `prog_bit` first).
    ///
    /// # Errors
    ///
    /// `spec` must validate and use this circuit's register widths.
    pub fn program_bits(&self, spec: &AffineSpec) -> Result<Vec<bool>, AffineError> {
        spec.validate()?;
        if spec.addr_width != self.spec.addr_width || spec.cnt_width != self.spec.cnt_width {
            return Err(AffineError::InvalidSpec(format!(
                "program widths {}x{} do not match the circuit's {}x{}",
                spec.addr_width, spec.cnt_width, self.spec.addr_width, self.spec.cnt_width
            )));
        }
        // chain[0] is fed directly by prog_bit, so the bit destined
        // for the far end of the chain must be presented first.
        let mut bits = serialize(spec);
        bits.reverse();
        Ok(bits)
    }

    /// Applies one reset cycle (restores the default program and
    /// zeroes the datapath).
    ///
    /// # Errors
    ///
    /// Propagates simulator stimulus errors.
    pub fn reset_sim<S: SimControl + ?Sized>(&self, sim: &mut S) -> Result<(), AffineError> {
        sim.step_bools(&reset_inputs())?;
        Ok(())
    }

    /// Shifts `spec` in over the programming chain. The datapath is
    /// frozen while `prog_en` is high, so run this right after
    /// [`reset_sim`](Self::reset_sim).
    ///
    /// # Errors
    ///
    /// Propagates width mismatches and stimulus errors.
    pub fn program<S: SimControl + ?Sized>(
        &self,
        sim: &mut S,
        spec: &AffineSpec,
    ) -> Result<(), AffineError> {
        for bit in self.program_bits(spec)? {
            sim.step_bools(&program_inputs(bit))?;
        }
        Ok(())
    }

    /// Decodes the primary outputs (as returned by
    /// `SimControl::output_values`); any `X` bit reads as 0.
    pub fn read_outputs(&self, values: &[Logic]) -> AffineOutputs {
        let w = self.spec.addr_width as usize;
        let bit = |v: Logic| v == Logic::One;
        let mut addr = 0u32;
        for (i, &v) in values.iter().enumerate().take(w) {
            if bit(v) {
                addr |= 1 << i;
            }
        }
        AffineOutputs {
            addr,
            mem_en: bit(values[w]),
            done: bit(values[w + 1]),
            ready: bit(values[w + 2]),
        }
    }

    /// Runs the circuit and collects the next `count` *emitted*
    /// addresses (ticks with `mem_en` high). Follows the engines'
    /// read-after-step convention: outputs observed after a step show
    /// the state *entering* that step, so the first tick after a
    /// reset (or after programming) presents the program's first
    /// position. Gives up after `max_ticks` clock ticks.
    ///
    /// # Errors
    ///
    /// Propagates stimulus errors; returns `InvalidSpec` if the
    /// tick budget runs out (a circuit whose program never opens its
    /// duty window).
    pub fn collect_emitted<S: SimControl + ?Sized>(
        &self,
        sim: &mut S,
        count: usize,
        max_ticks: u64,
    ) -> Result<Vec<u32>, AffineError> {
        let mut out = Vec::with_capacity(count);
        let mut ticks = 0u64;
        while out.len() < count {
            if ticks >= max_ticks {
                return Err(AffineError::InvalidSpec(format!(
                    "collected only {} of {count} addresses in {max_ticks} ticks",
                    out.len()
                )));
            }
            sim.step_bools(&tick_inputs())?;
            ticks += 1;
            let view = self.read_outputs(&sim.output_values());
            if view.mem_en {
                out.push(view.addr);
            }
        }
        Ok(out)
    }
}

/// A `width`-bit counter that steps on `en` and wraps to zero when
/// the incremented value equals the programmable `limit` word.
/// Returns the count word and the combinational wrap predicate
/// (`count + 1 == limit`, valid regardless of `en`).
fn mod_counter(
    n: &mut Netlist,
    width: usize,
    en: NetId,
    limit: &[NetId],
    rst: NetId,
    prefix: &str,
    state_nets: &mut Vec<NetId>,
) -> Result<(Vec<NetId>, NetId), AffineError> {
    let q: Vec<NetId> = (0..width)
        .map(|i| n.add_net(format!("{prefix}_q{i}")))
        .collect();
    let inc = build_incrementer(n, &q)?;
    let last = equality(n, &inc, limit)?;
    let not_last = n.gate(CellKind::Inv, &[last])?;
    for (i, (&qb, &ib)) in q.iter().zip(&inc).enumerate() {
        let d = n.gate(CellKind::And2, &[ib, not_last])?;
        n.add_instance(
            format!("u_{prefix}{i}"),
            CellKind::Dffre,
            &[d, en, rst],
            &[qb],
        )?;
    }
    state_nets.extend_from_slice(&q);
    Ok((q, last))
}

/// A `delta.len()`-bit accumulator: on `en`, loads `acc + delta`, or
/// zero when `clear` is high.
fn accumulator(
    n: &mut Netlist,
    en: NetId,
    delta: &[NetId],
    clear: NetId,
    rst: NetId,
    prefix: &str,
    state_nets: &mut Vec<NetId>,
) -> Result<Vec<NetId>, AffineError> {
    let q: Vec<NetId> = (0..delta.len())
        .map(|i| n.add_net(format!("{prefix}_q{i}")))
        .collect();
    let sum = build_adder(n, &q, delta)?;
    let not_clear = n.gate(CellKind::Inv, &[clear])?;
    for (i, (&qb, &sb)) in q.iter().zip(&sum).enumerate() {
        let d = n.gate(CellKind::And2, &[sb, not_clear])?;
        n.add_instance(
            format!("u_{prefix}{i}"),
            CellKind::Dffre,
            &[d, en, rst],
            &[qb],
        )?;
    }
    state_nets.extend_from_slice(&q);
    Ok(q)
}

/// Net-against-net equality: XNOR each bit pair, AND the column.
fn equality(n: &mut Netlist, a: &[NetId], b: &[NetId]) -> Result<NetId, AffineError> {
    debug_assert_eq!(a.len(), b.len());
    let mut bits = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        bits.push(n.gate(CellKind::Xnor2, &[x, y])?);
    }
    Ok(and_tree(n, &bits)?)
}

/// Unsigned `a < b` via the ripple borrow of `a - b`.
fn less_than(n: &mut Netlist, a: &[NetId], b: &[NetId]) -> Result<NetId, AffineError> {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow: Option<NetId> = None;
    for (&x, &y) in a.iter().zip(b) {
        let nx = n.gate(CellKind::Inv, &[x])?;
        let gen = n.gate(CellKind::And2, &[nx, y])?;
        borrow = Some(match borrow {
            None => gen,
            Some(bin) => {
                let prop = n.gate(CellKind::Or2, &[nx, y])?;
                let chain = n.gate(CellKind::And2, &[prop, bin])?;
                n.gate(CellKind::Or2, &[gen, chain])?
            }
        });
    }
    Ok(borrow.expect("nonempty comparator"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AffineLevel, AffineSimulator};
    use adgen_netlist::{AreaReport, EventSimulator, Library, Simulator, TimingAnalysis};
    use adgen_seq::AddressGenerator;

    fn demo_spec() -> AffineSpec {
        AffineSpec {
            addr_width: 5,
            cnt_width: 3,
            inner: AffineLevel {
                start: 2,
                iterations: 3,
                period: 2,
                duty: 2,
                shift: 3,
                incr: 1,
            },
            outer: AffineLevel {
                start: 0,
                iterations: 2,
                period: 2,
                duty: 1,
                shift: 30, // -2 mod 32
                incr: 4,
            },
        }
    }

    #[test]
    fn default_program_replays_the_reference_stream() {
        let spec = demo_spec();
        let design = AffineAgNetlist::elaborate(&spec).expect("elaborate");
        let expected = spec.emitted_stream();
        let mut sim = Simulator::new(&design.netlist).expect("sim");
        design.reset_sim(&mut sim).unwrap();
        let got = design
            .collect_emitted(&mut sim, expected.len() * 2, spec.program_ticks() * 2 + 4)
            .expect("collect");
        assert_eq!(&got[..expected.len()], &expected[..]);
        assert_eq!(&got[expected.len()..], &expected[..], "wraps cyclically");
    }

    #[test]
    fn all_three_engines_agree_with_the_behavioural_model() {
        let spec = demo_spec();
        let design = AffineAgNetlist::elaborate(&spec).expect("elaborate");
        let mut reference = AffineSimulator::new(spec).unwrap();
        let expected = reference.collect_sequence(spec.emitted_len() + 3);

        // 65 lanes spill into a second word, so the multi-word stride
        // runs too.
        let mut one = Simulator::new(&design.netlist).unwrap();
        let mut evt = EventSimulator::new(&design.netlist).unwrap();
        let mut sliced = Simulator::with_lanes(&design.netlist, 65).unwrap();
        for sim in [
            &mut one as &mut dyn SimControl,
            &mut evt as &mut dyn SimControl,
            &mut sliced as &mut dyn SimControl,
        ] {
            design.reset_sim(sim).unwrap();
            let got = design
                .collect_emitted(sim, expected.len(), spec.program_ticks() * 4)
                .unwrap();
            assert_eq!(got, expected.as_slice());
        }
    }

    #[test]
    fn reprogramming_over_the_chain_replaces_the_default() {
        // Elaborate with the neutral program, shift in the demo
        // program, and expect the demo stream.
        let neutral = AffineSpec::trivial(5, 3);
        let design = AffineAgNetlist::elaborate(&neutral).expect("elaborate");
        let target = demo_spec();
        let expected = target.emitted_stream();
        let mut sim = Simulator::new(&design.netlist).expect("sim");
        design.reset_sim(&mut sim).unwrap();
        design.program(&mut sim, &target).unwrap();
        let got = design
            .collect_emitted(&mut sim, expected.len(), target.program_ticks() * 2 + 4)
            .expect("collect");
        assert_eq!(got, expected);

        // A reset afterwards restores the neutral default program.
        design.reset_sim(&mut sim).unwrap();
        let back = design.collect_emitted(&mut sim, 3, 8).unwrap();
        assert_eq!(back, vec![0, 0, 0]);
    }

    #[test]
    fn done_and_ready_handshake() {
        let spec = demo_spec();
        let design = AffineAgNetlist::elaborate(&spec).expect("elaborate");
        let mut sim = Simulator::new(&design.netlist).unwrap();
        design.reset_sim(&mut sim).unwrap();
        let total = spec.program_ticks();
        for t in 0..total {
            sim.step_bools(&tick_inputs()).unwrap();
            let view = design.read_outputs(&sim.output_values());
            assert!(view.ready, "running: ready high");
            assert_eq!(view.done, t == total - 1, "tick {t}");
        }
        // ready drops while programming.
        sim.step_bools(&program_inputs(false)).unwrap();
        let view = design.read_outputs(&sim.output_values());
        assert!(!view.ready);
    }

    #[test]
    fn sta_and_area_see_the_programming_premium() {
        let spec = demo_spec();
        let design = AffineAgNetlist::elaborate(&spec).expect("elaborate");
        let lib = Library::vcl018();
        let timing = TimingAnalysis::run(&design.netlist, &lib).expect("sta");
        assert!(timing.critical_path_ns() > 0.0);
        let area = AreaReport::of(&design.netlist, &lib);
        assert!(area.total() > 0.0);
        assert_eq!(
            design.config_bits(),
            chain_len(spec.addr_width, spec.cnt_width)
        );
        assert!(
            design.netlist.num_flip_flops() >= design.config_bits(),
            "the chain is part of the circuit"
        );
    }

    #[test]
    fn program_bits_round_trip_the_serialization() {
        let design = AffineAgNetlist::elaborate(&AffineSpec::trivial(5, 3)).unwrap();
        let bits = design.program_bits(&demo_spec()).unwrap();
        assert_eq!(bits.len(), chain_len(5, 3));
        // Mismatched widths are rejected.
        assert!(design.program_bits(&AffineSpec::trivial(6, 3)).is_err());
    }
}
