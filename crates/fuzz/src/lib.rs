//! `adgen-fuzz`: a deterministic differential fuzzer for the address
//! generator toolchain.
//!
//! The fuzzer generates random array shapes, workload parameters and
//! raw 1-D address sequences, then drives every layer of the stack
//! against an independent oracle:
//!
//! | case family    | implementation under test           | oracle |
//! |----------------|-------------------------------------|--------|
//! | `mapper`       | `adgen_core::mapper::map_sequence`  | from-scratch §5 checker with analytic reconstruction |
//! | `srag-vs-cntag`| `SragSimulator` / `Srag2dSimulator` | `CntAgSimulator` and the reference workload sequence |
//! | `gate-level`   | elaborated netlists, event sim      | behavioural simulators, compiled sim, random equivalence |
//! | `cube`         | bit-packed `adgen_synth::Cube`      | `Vec<Tri>` re-implementation |
//! | `espresso`     | `adgen_synth::espresso::minimize`   | exhaustive truth-table evaluation |
//! | `wide-cover`   | multi-word (spilled) covers         | naive disjunction over literal vectors |
//! | `cosim`        | `adgen_memory::cosim` ADDM/RAM      | cross-model report comparison |
//! | `sliced-vs-scalar` | multi-lane compiled `Simulator` | one event-driven simulator per lane |
//! | `fault-alarm`  | hardened SRAG + `adgen_fault` replay | one-period alarm deadline, bounded golden equivalence, event-sim agreement |
//! | `affine-vs-reference` | `adgen_affine` mapper + gate-level AGU | closed-form stream, behavioural simulator, chain-programming replay, lane-uniform sliced replay |
//! | `bank-vs-reference` | `adgen_bank` map split/join + decompose pass | bijective round-trip, bit-exact per-lane reconstruction, cross-bank reassembly |
//! | `frame-fuzz`   | the `adgen_serve` epoll reactor under adversarial framing | typed-error/clean-close wire contract, follow-up client liveness, defense counters |
//!
//! Runs are reproducible by construction: case `i` of master seed `S`
//! is a pure function of `splitmix64`-derived `case_seed(S, i)`, and
//! the parallel fan-out preserves input order, so output is
//! byte-identical at any `--jobs` value. On failure the offending
//! case is shrunk to a minimal counterexample and a `SEED=… CASE=…`
//! reproduction line is printed.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p adgen-fuzz -- --iters 500 --seed 1 --jobs 4
//! ```

mod draw;
mod families;
mod oracle;
mod runner;
mod shrink;
mod workload;

pub use families::{generate_case, FuzzCase};
pub use oracle::BreakMode;
pub use runner::{case_seed, run_fuzz, CaseOutcome, FailureInfo, FuzzConfig, FuzzReport};
