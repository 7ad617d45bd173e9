//! `affine-vs-reference`: raw 1-D sequence → the affine mapper's fit,
//! replayed through the closed-form stream, the behavioural
//! simulator, and the gate-level AGU on all three simulation engines
//! (including a serial chain-programming run and a multi-lane sliced
//! replay).

use adgen_affine::MAX_MAP_LEN;
use adgen_affine::{fit_sequence, AffineAgNetlist, AffineLevel, AffineSimulator, AffineSpec};
use adgen_exec::Prng;
use adgen_netlist::{EventSimulator, Simulator};
use adgen_seq::AddressGenerator;

use super::{BreakMode, CheckResult, Context, Family};
use crate::draw::{
    boundary_sequence, mutated, noise_sequence, seam_biased, srag_realizable_sequence, LANE_SEAMS,
};
use crate::shrink::{fewer_lanes, sequence_candidates};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The raw address sequence under test (the fit input).
    pub(crate) seq: Vec<u32>,
    /// Lane count of the sliced replay (`1..=128`, biased toward
    /// word seams).
    pub(crate) lanes: u32,
}

impl Family for Case {
    const KIND: &'static str = "affine-vs-reference";

    /// Affine sequences mix four strategies: the emitted stream of a
    /// random valid spec (exactly fittable by construction), a
    /// mutation of such a stream (usually forcing a residual split),
    /// an SRAG-realizable workload sequence, and raw noise.
    fn generate(rng: &mut Prng) -> Self {
        let seq = match rng.next_range(10) {
            0..=3 => affine_stream_sequence(rng),
            4..=5 => {
                let s = affine_stream_sequence(rng);
                mutated(rng, s)
            }
            6..=7 => srag_realizable_sequence(rng),
            8 => boundary_sequence(rng),
            _ => noise_sequence(rng),
        };
        let lanes = seam_biased(rng, &LANE_SEAMS, 128);
        Case { seq, lanes }
    }

    fn describe(&self) -> String {
        format!("sequence {:?} lanes={}", self.seq, self.lanes)
    }

    /// The differential chain, weakest model to strongest: the
    /// mapper's fit must reconstruct its input exactly (affine prefix
    /// ++ residual), the closed-form stream and the behavioural
    /// simulator must agree (including cyclic wrap), and the
    /// gate-level AGU must replay the covered prefix on all three
    /// simulation engines — with the program both baked in as the
    /// reset default and shifted in serially over the configuration
    /// chain. The sliced replay broadcasts one stimulus to `lanes`
    /// lanes, so every lane must stay bit-identical to the golden lane
    /// at every tick; seam-biased lane counts make word-boundary
    /// masking bugs visible.
    fn check(&self, _: BreakMode) -> CheckResult {
        let seq = &self.seq[..];
        if seq.is_empty() || seq.len() > MAX_MAP_LEN {
            // Outside the mapper's contract; the shrinker's empty
            // candidates land here and are rejected as non-failing.
            return Ok(());
        }
        let fit = fit_sequence(seq).ctx("mapper rejected an in-contract sequence")?;

        // Layer 1: the reconstruction invariant the mapper promises.
        if fit.covered == 0 || fit.covered + fit.residual.len() != seq.len() {
            return Err(format!(
                "fit splits {} addresses as covered={} + residual={}",
                seq.len(),
                fit.covered,
                fit.residual.len()
            ));
        }
        if fit.reconstruct() != seq {
            return Err("fit.reconstruct() diverges from the input sequence".into());
        }
        let stream = fit.spec.emitted_stream();
        if stream.len() < fit.covered || stream[..fit.covered] != seq[..fit.covered] {
            return Err(format!(
                "closed-form stream (len {}) does not reproduce the covered prefix (len {})",
                stream.len(),
                fit.covered
            ));
        }

        // Layer 2: behavioural simulator vs the closed form, two full
        // programs to also witness the cyclic wrap.
        let mut bsim = AffineSimulator::new(fit.spec).ctx("fit produced an invalid spec")?;
        let twice = bsim.collect_sequence(stream.len() * 2);
        if twice.as_slice()[..stream.len()] != stream[..] {
            return Err("behavioural simulator diverges from the closed-form stream".into());
        }
        if twice.as_slice()[stream.len()..] != stream[..] {
            return Err("behavioural simulator does not wrap cyclically".into());
        }

        // Layer 3: gate level, fitted program baked in as the reset
        // default, on the compiled and event-driven engines.
        let agu = AffineAgNetlist::elaborate(&fit.spec).ctx("affine elaboration failed")?;
        let max_ticks = 2 * fit.spec.program_ticks() + 8;
        let want = &seq[..fit.covered];
        let mut compiled = Simulator::new(&agu.netlist).ctx("compiled sim")?;
        agu.reset_sim(&mut compiled).ctx("compiled reset")?;
        let got = agu
            .collect_emitted(&mut compiled, fit.covered, max_ticks)
            .ctx("compiled replay")?;
        covers_prefix("compiled gate replay", &got, want)?;
        let mut evt = EventSimulator::new(&agu.netlist).ctx("event sim")?;
        agu.reset_sim(&mut evt).ctx("event reset")?;
        let got = agu
            .collect_emitted(&mut evt, fit.covered, max_ticks)
            .ctx("event replay")?;
        covers_prefix("event-driven gate replay", &got, want)?;

        // Layer 4: a trivially-defaulted circuit of the same widths,
        // programmed serially over the configuration chain, must
        // behave identically to the baked-in one.
        let blank = AffineAgNetlist::elaborate(&AffineSpec::trivial(
            fit.spec.addr_width,
            fit.spec.cnt_width,
        ))
        .ctx("blank elaboration failed")?;
        let mut prog = Simulator::new(&blank.netlist).ctx("chain sim")?;
        blank.reset_sim(&mut prog).ctx("chain reset")?;
        blank
            .program(&mut prog, &fit.spec)
            .ctx("chain programming")?;
        let got = blank
            .collect_emitted(&mut prog, fit.covered, max_ticks)
            .ctx("chain replay")?;
        covers_prefix("chain-programmed replay", &got, want)?;

        // Layer 5: the sliced engine under a broadcast stimulus — every
        // lane is the same machine, so any per-lane divergence is a
        // word-seam masking bug in the simulator itself.
        let lanes = self.lanes as usize;
        let mut sliced = Simulator::with_lanes(&agu.netlist, lanes).ctx("sliced sim")?;
        agu.reset_sim(&mut sliced).ctx("sliced reset")?;
        let mut got = Vec::with_capacity(fit.covered);
        let mut ticks = 0u64;
        while got.len() < fit.covered {
            if ticks >= max_ticks {
                return Err(format!(
                    "sliced replay emitted only {} of {} addresses in {max_ticks} ticks",
                    got.len(),
                    fit.covered
                ));
            }
            sliced
                .step_bools(&adgen_affine::netlist::tick_inputs())
                .ctx("sliced step")?;
            ticks += 1;
            let golden = sliced.output_values_lane(0);
            for lane in 1..lanes {
                if sliced.output_values_lane(lane) != golden {
                    return Err(format!(
                        "sliced lane {lane} diverges from the golden lane at tick {ticks}"
                    ));
                }
            }
            let view = agu.read_outputs(&golden);
            if view.mem_en {
                got.push(view.addr);
            }
        }
        covers_prefix("sliced gate replay", &got, want)
    }

    /// The sequence's own candidates, then fewer lanes.
    fn candidates(&self) -> Vec<Self> {
        let lanes = self.lanes;
        let mut out: Vec<Self> = sequence_candidates(&self.seq)
            .into_iter()
            .map(|seq| Case { seq, lanes })
            .collect();
        for lanes in fewer_lanes(lanes) {
            let seq = self.seq.clone();
            out.push(Case { seq, lanes });
        }
        out
    }
}

/// `got` must equal the covered prefix `want`.
fn covers_prefix(replay: &str, got: &[u32], want: &[u32]) -> CheckResult {
    if got != want {
        return Err(format!(
            "{replay} diverges from the covered prefix: {got:?} vs {want:?}"
        ));
    }
    Ok(())
}

/// One random loop level with small counts (keeps the program and
/// every gate-level replay short) and masked affine parameters.
fn affine_level(rng: &mut Prng, mask: u32) -> AffineLevel {
    let period = rng.next_in(1, 5) as u32;
    AffineLevel {
        start: rng.next_range(16) as u32 & mask,
        iterations: rng.next_in(1, 4) as u32,
        period,
        duty: rng.next_in(1, u64::from(period) + 1) as u32,
        shift: rng.next_range(8) as u32 & mask,
        incr: rng.next_range(4) as u32 & mask,
    }
}

/// The emitted stream of a random valid two-level spec — a sequence
/// the mapper can always capture exactly (though possibly with a
/// different, equivalent program).
fn affine_stream_sequence(rng: &mut Prng) -> Vec<u32> {
    let addr_width = rng.next_in(3, 9) as u32;
    let mask = (1u32 << addr_width) - 1;
    let spec = AffineSpec {
        addr_width,
        cnt_width: 4,
        inner: affine_level(rng, mask),
        outer: if rng.one_in(3) {
            AffineLevel::unit()
        } else {
            affine_level(rng, mask)
        },
    };
    debug_assert!(spec.validate().is_ok());
    spec.emitted_stream()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic anchors for the affine differential: an exactly
    /// fittable raster, a strided scan, a residual-forcing tail, a
    /// constant hold, and noise — each replayed across the word-seam
    /// lane counts the generator favours.
    #[test]
    fn affine_vs_reference_holds_on_anchor_sequences() {
        let sequences: Vec<Vec<u32>> = vec![
            (0..16).collect(),               // raster ramp
            (0..8).map(|i| i * 4).collect(), // strided scan
            vec![0, 1, 2, 3, 9, 2, 7],       // affine prefix + residual
            vec![5; 6],                      // constant hold
            vec![3, 1, 4, 1, 5, 9, 2, 6],    // noise
            vec![7],                         // single address
            Vec::new(),                      // out of contract: must pass
        ];
        for seq in sequences {
            for lanes in [1, 2, 63, 64, 65] {
                let case = Case {
                    seq: seq.clone(),
                    lanes,
                };
                if let Err(e) = case.check(BreakMode::None) {
                    panic!("{}: {e}", case.describe());
                }
            }
        }
    }
}
