//! Round-trip golden tests for the text emitters
//! (`netlist::verilog`, `netlist::vcd`).
//!
//! Each test renders a deterministic design and byte-compares the
//! output against a checked-in golden file under `tests/golden/`.
//! Elaboration, naming and emission are all pure functions of the
//! input spec, so any byte difference is a real change to the emitted
//! format — review it, then regenerate the goldens with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_emitters
//! ```

use std::fs;
use std::path::PathBuf;

use adgen::core::composite::Srag2dNetlist;
use adgen::core::multi_counter::MultiCounterSragNetlist;
use adgen::netlist::{to_verilog, Netlist, Simulator, VcdTrace};
use adgen::prelude::*;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Byte-compares `actual` against `tests/golden/<name>`, or rewrites
/// the golden when `BLESS_GOLDEN` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with BLESS_GOLDEN=1 cargo test --test golden_emitters",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "emitter output diverged from {} — if intentional, regenerate with \
         BLESS_GOLDEN=1 cargo test --test golden_emitters",
        path.display()
    );
}

/// The paper's running example (Table 2): a 4×4 FIFO pair — small
/// enough to review by eye, large enough to exercise counters, token
/// chains and fanout buffering.
fn paper_design() -> Srag2dNetlist {
    let shape = ArrayShape::new(4, 4);
    let seq = workloads::fifo(shape);
    let pair = Srag2d::map(&seq, shape, Layout::RowMajor).expect("fifo maps");
    pair.elaborate().expect("elaborates")
}

#[test]
fn verilog_structural_matches_golden() {
    let design = paper_design();
    assert_matches_golden("fifo4x4.v", &to_verilog(&design.netlist, false));
}

#[test]
fn verilog_with_primitives_matches_golden() {
    let design = paper_design();
    let text = to_verilog(&design.netlist, true);
    // Structural sanity before the byte comparison: balanced
    // module/endmodule and self-contained primitive definitions.
    assert_eq!(
        text.matches("module ").count(),
        text.matches("endmodule").count()
    );
    assert!(text.contains("module vcl018_"));
    assert_matches_golden("fifo4x4_with_primitives.v", &text);
}

#[test]
fn vcd_trace_matches_golden() {
    let design = paper_design();
    let mut sim = Simulator::new(&design.netlist).expect("simulates");
    let mut trace = VcdTrace::new(&design.netlist);
    sim.step_bools(&[true, false]).expect("reset");
    trace.sample(&sim);
    // One full 16-access period plus two wrap cycles.
    for _ in 0..18 {
        sim.step_bools(&[false, true]).expect("step");
        trace.sample(&sim);
    }
    assert_eq!(trace.steps(), 19);
    let text = trace.finish();
    // Well-formedness: header sections present and every value-change
    // line uses a defined identifier code.
    assert!(text.starts_with("$timescale"));
    assert!(text.contains("$enddefinitions $end"));
    assert_matches_golden("fifo4x4.vcd", &text);
}

/// Every SRAG elaboration variant in `adgen-core`, one structural
/// Verilog module after another: the 1-D generator in each control
/// style and hardened, the 2-D pair in every form (plain, per style,
/// chained, hardened) on a chainable FIFO and a non-chainable
/// motion-estimation read, the time-shared ring and the multi-counter
/// SRAG. Pins the names, creation order and outputs of every builder
/// path, so refactors of the ring construction show up as byte diffs.
#[test]
fn srag_variants_verilog_matches_golden() {
    const STYLES: [ControlStyle; 3] = [
        ControlStyle::BinaryCounters,
        ControlStyle::RingCounters,
        ControlStyle::InteractingFsms,
    ];
    let shape = ArrayShape::new(4, 4);
    let mut netlists: Vec<Netlist> = Vec::new();

    let motion = workloads::motion_est_read(shape, 2, 2, 0);
    let (motion_rows, _) = motion.decompose(shape, Layout::RowMajor).expect("in range");
    let row_spec = map_sequence(&motion_rows).expect("row stream maps").spec;
    for style in STYLES {
        netlists.push(
            SragNetlist::elaborate_with_style(&row_spec, style)
                .expect("elaborates")
                .netlist,
        );
    }
    netlists.push(
        HardenedSragNetlist::elaborate(&row_spec)
            .expect("elaborates")
            .netlist,
    );

    for seq in [workloads::fifo(shape), motion] {
        let pair = Srag2d::map(&seq, shape, Layout::RowMajor).expect("maps");
        netlists.push(pair.elaborate().expect("elaborates").netlist);
        for style in STYLES {
            netlists.push(
                pair.elaborate_with_style(style)
                    .expect("elaborates")
                    .netlist,
            );
        }
        if let Some(chained) = pair.elaborate_chained().expect("elaborates") {
            netlists.push(chained.netlist);
        }
        netlists.push(pair.elaborate_hardened().expect("elaborates").netlist);
    }

    let (write_rows, write_cols) = workloads::fifo(shape)
        .decompose(shape, Layout::RowMajor)
        .expect("in range");
    let (read_rows, read_cols) = workloads::transpose_scan(shape)
        .decompose(shape, Layout::RowMajor)
        .expect("in range");
    for (write, read) in [(write_rows, read_rows), (write_cols, read_cols)] {
        let a = map_sequence(&write).expect("maps").spec;
        let b = map_sequence(&read).expect("maps").spec;
        netlists.push(
            TimeSharedSragNetlist::elaborate(&a, &b)
                .expect("elaborates")
                .expect("share-compatible")
                .netlist,
        );
    }

    let counter_example =
        AddressSequence::from_vec(vec![5, 5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]);
    let relaxed = map_sequence_relaxed(&counter_example).expect("relaxed mapper accepts");
    netlists.push(
        MultiCounterSragNetlist::elaborate(&relaxed)
            .expect("elaborates")
            .netlist,
    );

    let text: String = netlists.iter().map(|n| to_verilog(n, false)).collect();
    assert_eq!(text.matches("endmodule").count(), netlists.len());
    assert_matches_golden("srag_variants4x4.v", &text);
}
