//! Fault models over the gate-level netlist IR.
//!
//! Two classic models, both expressed without modifying the netlist
//! itself (the simulators carry the injection hooks):
//!
//! * **Stuck-at** — a net is pinned to a constant logic value for the
//!   whole run, modelling a manufacturing defect (shorted or open
//!   node). Injected via `Simulator::force_net`.
//! * **Single-event upset (SEU)** — one flip-flop's stored bit is
//!   inverted once, immediately before a chosen cycle, modelling a
//!   particle strike. Injected via `Simulator::upset_flip_flop`.
//!
//! A [`Fault`] is plain data (copyable IDs into one fixed netlist),
//! so a campaign can fan thousands of them across worker threads and
//! a failing one can be reprinted as a `FAULT=` token and re-parsed
//! for single-fault reproduction.

use adgen_exec::Prng;
use adgen_netlist::{Driver, InstId, NetId, Netlist};

/// One injectable fault in a fixed netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Net `net` pinned to `value` for the entire run.
    StuckAt {
        /// The corrupted net.
        net: NetId,
        /// The stuck value (`false` = stuck-at-0, `true` = stuck-at-1).
        value: bool,
    },
    /// Flip-flop `ff`'s state inverted immediately before `cycle`
    /// executes, so the flipped bit is presented on Q during that
    /// cycle. `cycle` counts campaign steps; cycle 0 is the reset
    /// cycle, so upsets start at cycle 1.
    Seu {
        /// The struck flip-flop.
        ff: InstId,
        /// The cycle during which the flipped bit is first visible.
        cycle: u32,
    },
}

impl Fault {
    /// Compact machine-readable token (`sa0@n12`, `sa1@n7`,
    /// `seu@i3#c17`) — stable across runs, printable in repro lines,
    /// and re-parseable by [`Fault::parse`].
    pub fn id(&self) -> String {
        match *self {
            Fault::StuckAt { net, value } => {
                format!("sa{}@n{}", u8::from(value), net.index())
            }
            Fault::Seu { ff, cycle } => format!("seu@i{}#c{}", ff.index(), cycle),
        }
    }

    /// Parses a token produced by [`Fault::id`], validating the
    /// indices against `netlist`. Returns `None` on any malformed or
    /// out-of-range token.
    pub fn parse(token: &str, netlist: &Netlist) -> Option<Fault> {
        if let Some(rest) = token.strip_prefix("sa") {
            let (value, idx) = match rest.as_bytes().first()? {
                b'0' => (false, rest.strip_prefix("0@n")?),
                b'1' => (true, rest.strip_prefix("1@n")?),
                _ => return None,
            };
            let idx: usize = idx.parse().ok()?;
            if idx >= netlist.nets().len() {
                return None;
            }
            return Some(Fault::StuckAt {
                net: netlist.net_id_from_index(idx),
                value,
            });
        }
        let rest = token.strip_prefix("seu@i")?;
        let (idx, cycle) = rest.split_once("#c")?;
        let idx: usize = idx.parse().ok()?;
        let cycle: u32 = cycle.parse().ok()?;
        if idx >= netlist.num_instances() {
            return None;
        }
        let ff = netlist.inst_id_from_index(idx);
        if !netlist.instance(ff).kind().is_sequential() {
            return None;
        }
        Some(Fault::Seu { ff, cycle })
    }

    /// Human-readable description naming the faulted object.
    pub fn describe(&self, netlist: &Netlist) -> String {
        match *self {
            Fault::StuckAt { net, value } => format!(
                "stuck-at-{} on net `{}`",
                u8::from(value),
                netlist.net(net).name()
            ),
            Fault::Seu { ff, cycle } => format!(
                "SEU in flip-flop `{}` presented at cycle {cycle}",
                netlist.instance(ff).name()
            ),
        }
    }
}

/// Stuck-at-0 then stuck-at-1 on each of `nets`, in their order.
fn stuck_at(nets: impl IntoIterator<Item = NetId>) -> impl Iterator<Item = Fault> {
    nets.into_iter()
        .flat_map(|net| [false, true].map(|value| Fault::StuckAt { net, value }))
}

/// The exhaustive single-stuck-at fault list: every net, both
/// polarities, in net order (so the list — and therefore campaign
/// output — is deterministic).
pub fn enumerate_stuck_at(netlist: &Netlist) -> Vec<Fault> {
    stuck_at((0..netlist.nets().len()).map(|i| netlist.net_id_from_index(i))).collect()
}

/// The one campaign fault-universe recipe, so every architecture on
/// the resilience axis is struck alike: stuck-at-0 then stuck-at-1 on
/// each of `stuck_nets` in the given order, then `seu_samples` SEUs
/// that [`sample_seus`] draws from `seed` over `seu_targets` and the
/// strike window `1..=cycles - 1` (just cycle 1 when `cycles` < 2), so
/// an upset never lands on the last observed cycle of a longer
/// window.
///
/// # Panics
///
/// Panics if `seu_targets` is empty.
pub fn fault_universe(
    stuck_nets: &[NetId],
    seu_targets: &[InstId],
    cycles: u32,
    seu_samples: usize,
    seed: u64,
) -> Vec<Fault> {
    let mut faults = Vec::with_capacity(2 * stuck_nets.len() + seu_samples);
    faults.extend(stuck_at(stuck_nets.iter().copied()));
    faults.extend(sample_seus(
        seu_targets,
        cycles.saturating_sub(1).max(1),
        seu_samples,
        seed,
    ));
    faults
}

/// All flip-flop instances, in instance order.
pub fn flip_flop_ids(netlist: &Netlist) -> Vec<InstId> {
    (0..netlist.num_instances())
        .map(|i| netlist.inst_id_from_index(i))
        .filter(|&id| netlist.instance(id).kind().is_sequential())
        .collect()
}

/// Samples `count` SEUs uniformly over `ffs` × cycles `1..=cycles`,
/// seed-reproducible and independent of `count` ordering (sample `k`
/// depends only on `(seed, k)`). Duplicates are possible by design —
/// the campaign classifies each sample independently.
///
/// # Panics
///
/// Panics if `ffs` is empty or `cycles` is zero.
pub fn sample_seus(ffs: &[InstId], cycles: u32, count: usize, seed: u64) -> Vec<Fault> {
    assert!(!ffs.is_empty(), "need at least one flip-flop to strike");
    assert!(cycles > 0, "need at least one post-reset cycle");
    (0..count)
        .map(|k| {
            let mut rng = Prng::for_stream(seed, k as u64);
            let ff = ffs[rng.next_range(ffs.len() as u64) as usize];
            let cycle = 1 + rng.next_range(u64::from(cycles)) as u32;
            Fault::Seu { ff, cycle }
        })
        .collect()
}

/// Resolves state-holding nets (flip-flop Q outputs) to the
/// flip-flops that drive them — the form SEU injection needs. Nets
/// without a sequential driver (e.g. a select line rewired through a
/// fanout buffer) are skipped.
pub fn driving_flip_flops(netlist: &Netlist, nets: &[NetId]) -> Vec<InstId> {
    nets.iter()
        .filter_map(|&n| match netlist.net(n).driver() {
            Some(Driver::Inst { inst, .. }) if netlist.instance(inst).kind().is_sequential() => {
                Some(inst)
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_core::SragNetlist;
    use adgen_core::SragSpec;

    #[test]
    fn fault_tokens_round_trip() {
        let design = SragNetlist::elaborate(&SragSpec::ring(4)).unwrap();
        let n = &design.netlist;
        for fault in enumerate_stuck_at(n).iter().take(8) {
            assert_eq!(Fault::parse(&fault.id(), n), Some(*fault));
        }
        let ffs = flip_flop_ids(n);
        for fault in sample_seus(&ffs, 16, 8, 0xfeed) {
            assert_eq!(Fault::parse(&fault.id(), n), Some(fault));
        }
        assert_eq!(Fault::parse("sa2@n0", n), None);
        assert_eq!(Fault::parse("sa0@n999999", n), None);
        let comb = (0..n.num_instances())
            .find(|&i| !n.instances()[i].kind().is_sequential())
            .expect("netlist has combinational cells");
        assert_eq!(
            Fault::parse(&format!("seu@i{comb}#c3"), n),
            None,
            "SEU target must be sequential"
        );
        assert_eq!(Fault::parse("garbage", n), None);
    }

    #[test]
    fn seu_sampling_is_prefix_stable() {
        let design = SragNetlist::elaborate(&SragSpec::ring(6)).unwrap();
        let ffs = flip_flop_ids(&design.netlist);
        let long = sample_seus(&ffs, 24, 32, 7);
        let short = sample_seus(&ffs, 24, 8, 7);
        assert_eq!(&long[..8], &short[..]);
        for f in &long {
            match *f {
                Fault::Seu { cycle, .. } => assert!((1..=24).contains(&cycle)),
                Fault::StuckAt { .. } => panic!("sampled a stuck-at"),
            }
        }
    }

    #[test]
    fn fault_universe_pairs_stuck_ats_in_net_order_then_samples_seus() {
        let design = SragNetlist::elaborate(&SragSpec::ring(4)).unwrap();
        let n = &design.netlist;
        let ffs = flip_flop_ids(n);
        let (a, b) = (n.net_id_from_index(3), n.net_id_from_index(1));
        let faults = fault_universe(&[a, b], &ffs, 16, 5, 9);
        let sa = |net, value| Fault::StuckAt { net, value };
        assert_eq!(
            faults[..4],
            [sa(a, false), sa(a, true), sa(b, false), sa(b, true)]
        );
        assert_eq!(faults[4..], sample_seus(&ffs, 15, 5, 9)[..]);
    }

    #[test]
    fn fault_universe_strikes_before_the_last_observed_cycle() {
        let design = SragNetlist::elaborate(&SragSpec::ring(4)).unwrap();
        let ffs = flip_flop_ids(&design.netlist);
        for (cycles, window) in [(0, 1), (1, 1), (2, 1), (24, 23)] {
            let faults = fault_universe(&[], &ffs, cycles, 64, 3);
            assert_eq!(faults, sample_seus(&ffs, window, 64, 3), "cycles {cycles}");
            let strikes: Vec<u32> = faults
                .iter()
                .map(|f| match *f {
                    Fault::Seu { cycle, .. } => cycle,
                    Fault::StuckAt { .. } => panic!("no stuck-at nets were given"),
                })
                .collect();
            assert_eq!(strikes.iter().min(), Some(&1), "cycles {cycles}");
            assert_eq!(strikes.iter().max(), Some(&window), "cycles {cycles}");
        }
    }

    #[test]
    fn ring_nets_resolve_to_their_flip_flops() {
        let design = SragNetlist::elaborate(&SragSpec::ring(4)).unwrap();
        let hard = adgen_core::HardenedSragNetlist::elaborate(&SragSpec::ring(4)).unwrap();
        let ffs = driving_flip_flops(&hard.netlist, &hard.ring_ffs);
        assert_eq!(ffs.len(), 4);
        assert!(design.netlist.num_flip_flops() > 0);
        for &ff in &ffs {
            assert!(hard.netlist.instance(ff).kind().is_sequential());
        }
    }
}
