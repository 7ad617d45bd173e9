//! Technology mapping: SOP covers → `vcl018` gate trees, plus the
//! fanout-buffering pass a real synthesizer would run before timing.

use adgen_netlist::{CellKind, NetId, Netlist, NetlistError};

use crate::cover::Cover;
use crate::cube::Tri;

/// Builds a balanced AND tree over `nets` with fan-in ≤ 4.
///
/// Zero inputs yield a tie-high; one input is returned unchanged.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn and_tree(n: &mut Netlist, nets: &[NetId]) -> Result<NetId, NetlistError> {
    reduce_tree(
        n,
        nets,
        CellKind::And2,
        CellKind::And3,
        CellKind::And4,
        CellKind::TieHi,
    )
}

/// Builds a balanced OR tree over `nets` with fan-in ≤ 4.
///
/// Zero inputs yield a tie-low; one input is returned unchanged.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn or_tree(n: &mut Netlist, nets: &[NetId]) -> Result<NetId, NetlistError> {
    reduce_tree(
        n,
        nets,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Or4,
        CellKind::TieLo,
    )
}

fn reduce_tree(
    n: &mut Netlist,
    nets: &[NetId],
    g2: CellKind,
    g3: CellKind,
    g4: CellKind,
    empty: CellKind,
) -> Result<NetId, NetlistError> {
    match nets.len() {
        0 => n.gate(empty, &[]),
        1 => Ok(nets[0]),
        _ => {
            let mut level: Vec<NetId> = nets.to_vec();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len() / 2 + 1);
                let mut chunks = level.chunks(4).peekable();
                while let Some(chunk) = chunks.next() {
                    let out = match chunk.len() {
                        4 => n.gate(g4, chunk)?,
                        3 => n.gate(g3, chunk)?,
                        2 => n.gate(g2, chunk)?,
                        1 => chunk[0],
                        _ => unreachable!(),
                    };
                    next.push(out);
                    let _ = chunks.peek();
                }
                level = next;
            }
            Ok(level[0])
        }
    }
}

/// Maps a sum-of-products cover onto gates.
///
/// `pos[i]` / `neg[i]` are the true and complemented literal nets for
/// input variable `i` (create the complements once with
/// [`literal_rails`] so they are shared between functions). A constant
/// 0 cover ties low; a tautology ties high.
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if the literal rails are shorter than the cover's input
/// count.
pub fn map_sop(
    n: &mut Netlist,
    cover: &Cover,
    pos: &[NetId],
    neg: &[NetId],
) -> Result<NetId, NetlistError> {
    assert!(pos.len() >= cover.num_inputs() && neg.len() >= cover.num_inputs());
    let mut products = Vec::with_capacity(cover.num_cubes());
    for cube in cover.cubes() {
        let mut lits = Vec::new();
        for v in 0..cover.num_inputs() {
            match cube.get(v) {
                Tri::One => lits.push(pos[v]),
                Tri::Zero => lits.push(neg[v]),
                Tri::DontCare => {}
            }
        }
        products.push(and_tree(n, &lits)?);
    }
    or_tree(n, &products)
}

/// Creates the complemented literal rail for `pos`: one inverter per
/// input net, shared by all functions mapped against it.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn literal_rails(n: &mut Netlist, pos: &[NetId]) -> Result<Vec<NetId>, NetlistError> {
    pos.iter().map(|&p| n.gate(CellKind::Inv, &[p])).collect()
}

/// Inserts buffer trees on every net whose fanout exceeds
/// `max_fanout`, splitting its loads across buffers recursively until
/// no net drives more than `max_fanout` pins. Returns the number of
/// buffers inserted.
///
/// One walk over the growing net list: each net is split once
/// ([`Netlist::split_fanout`]), and the buffers a split creates are
/// appended, so they are visited after every net created before them
/// — the original nets first, then each generation of buffers in
/// creation order. The work is linear in the nets and loads.
///
/// Primary-output markings stay on the original nets, so the pass is
/// purely an electrical (delay) transformation: simulation behaviour
/// is unchanged.
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if `max_fanout` is zero or one (a buffer tree cannot reduce
/// fanout below two).
pub fn insert_fanout_buffers(n: &mut Netlist, max_fanout: usize) -> Result<usize, NetlistError> {
    assert!(max_fanout >= 2, "max_fanout must be at least 2");
    let mut inserted = 0;
    let mut idx = 0;
    while idx < n.nets().len() {
        inserted += n.split_fanout(n.net_id_from_index(idx), max_fanout)?;
        idx += 1;
    }
    Ok(inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_netlist::{Library, Logic, Simulator, TimingAnalysis};

    #[test]
    fn and_or_tree_sizes() {
        let mut n = Netlist::new("t");
        let ins: Vec<NetId> = (0..9).map(|i| n.add_input(format!("x{i}"))).collect();
        let y = and_tree(&mut n, &ins).unwrap();
        n.add_output(y);
        n.validate().unwrap();
        // 9 inputs → 3×and4/and3 at level 0 (4+4+1) then combine.
        assert!(n.num_instances() <= 4);
        let mut sim = Simulator::new(&n).unwrap();
        let mut inputs = vec![Logic::Zero; 10];
        for v in inputs.iter_mut().skip(1) {
            *v = Logic::One;
        }
        sim.step(&inputs).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        inputs[5] = Logic::Zero;
        sim.step(&inputs).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn empty_trees_are_constants() {
        let mut n = Netlist::new("t");
        let hi = and_tree(&mut n, &[]).unwrap();
        let lo = or_tree(&mut n, &[]).unwrap();
        n.add_output(hi);
        n.add_output(lo);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[false]).unwrap();
        assert_eq!(sim.value(hi), Logic::One);
        assert_eq!(sim.value(lo), Logic::Zero);
    }

    #[test]
    fn single_input_tree_is_identity() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        assert_eq!(and_tree(&mut n, &[a]).unwrap(), a);
        assert_eq!(or_tree(&mut n, &[a]).unwrap(), a);
        assert_eq!(n.num_instances(), 0);
    }

    #[test]
    fn map_sop_matches_cover_semantics() {
        // f = x0·x̄1 + x2
        let cover = Cover::from_cubes(
            3,
            vec![
                {
                    let mut c = crate::cube::Cube::full(3);
                    c.set(0, Tri::One);
                    c.set(1, Tri::Zero);
                    c
                },
                {
                    let mut c = crate::cube::Cube::full(3);
                    c.set(2, Tri::One);
                    c
                },
            ],
        );
        let mut n = Netlist::new("f");
        let pos: Vec<NetId> = (0..3).map(|i| n.add_input(format!("x{i}"))).collect();
        let neg = literal_rails(&mut n, &pos).unwrap();
        let y = map_sop(&mut n, &cover, &pos, &neg).unwrap();
        n.add_output(y);
        let mut sim = Simulator::new(&n).unwrap();
        for m in 0..8u64 {
            let mut ins = vec![Logic::Zero];
            for b in 0..3 {
                ins.push(Logic::from_bool((m >> b) & 1 == 1));
            }
            sim.step(&ins).unwrap();
            assert_eq!(sim.value(y), Logic::from_bool(cover.eval(m)), "minterm {m}");
        }
    }

    #[test]
    fn constant_covers_map_to_ties() {
        let mut n = Netlist::new("c");
        let pos: Vec<NetId> = (0..2).map(|i| n.add_input(format!("x{i}"))).collect();
        let neg = literal_rails(&mut n, &pos).unwrap();
        let zero = map_sop(&mut n, &Cover::empty(2), &pos, &neg).unwrap();
        n.add_output(zero);
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[false, false, false]).unwrap();
        assert_eq!(sim.value(zero), Logic::Zero);
    }

    #[test]
    fn buffering_reduces_max_fanout_and_preserves_function() {
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        let src = n.gate(CellKind::Inv, &[a]).unwrap();
        let mut outs = Vec::new();
        for _ in 0..20 {
            let o = n.gate(CellKind::Inv, &[src]).unwrap();
            n.add_output(o);
            outs.push(o);
        }
        let before = TimingAnalysis::run(&n, &Library::vcl018())
            .unwrap()
            .critical_path_ps();
        let inserted = insert_fanout_buffers(&mut n, 4).unwrap();
        assert!(inserted > 0);
        n.validate().unwrap();
        for net in n.nets() {
            assert!(net.loads().len() <= 4, "net {} overloaded", net.name());
        }
        // Function preserved.
        let mut sim = Simulator::new(&n).unwrap();
        sim.step_bools(&[false, true]).unwrap();
        for &o in &outs {
            assert_eq!(sim.value(o), Logic::One);
        }
        // Delay should drop versus the 20-load net (buffering helps).
        let after = TimingAnalysis::run(&n, &Library::vcl018())
            .unwrap()
            .critical_path_ps();
        assert!(
            after < before,
            "buffering should reduce delay: {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn buffer_fanout_one_rejected() {
        let mut n = Netlist::new("t");
        let _ = insert_fanout_buffers(&mut n, 1);
    }
}
