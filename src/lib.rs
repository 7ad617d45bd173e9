//! # adgen — address-generator synthesis for decoder-decoupled memory
//!
//! A from-scratch reproduction of *“Performance-Area Trade-Off of
//! Address Generators for Address Decoder-Decoupled Memory”*
//! (S. Hettiaratchi, P. Y. K. Cheung, T. J. W. Clarke; DATE 2002),
//! including every substrate the paper relies on: a standard-cell
//! library with static timing and area models, a two-level logic
//! minimizer and FSM synthesizer, the paper's SRAG architecture and
//! automatic mapping procedure, the counter-plus-decoder baseline,
//! behavioural memory models, and a design-space explorer.
//!
//! This crate is the facade: it re-exports each subsystem under a
//! short module name and offers a [`prelude`] for the common types.
//!
//! ## Quick start
//!
//! Map the paper's running example onto an SRAG and verify it at
//! gate level:
//!
//! ```
//! use adgen::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The motion-estimation read sequence of paper Table 1.
//! let shape = ArrayShape::new(4, 4);
//! let sequence = workloads::motion_est_read(shape, 2, 2, 0);
//!
//! // Map row and column streams onto the two-hot SRAG pair.
//! let pair = Srag2d::map(&sequence, shape, Layout::RowMajor)?;
//! assert_eq!(pair.row().spec.div_count, 2); // paper Table 2: dC = 2
//! assert_eq!(pair.row().spec.pass_count, 4); // paper Table 2: pC = 4
//!
//! // Elaborate to gates and measure.
//! let design = pair.elaborate()?;
//! let library = Library::vcl018();
//! let timing = TimingAnalysis::run(&design.netlist, &library)?;
//! let area = AreaReport::of(&design.netlist, &library);
//! assert!(timing.critical_path_ns() > 0.0);
//! assert!(area.total() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Subsystem map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`affine`] | `adgen-affine` | runtime-programmable 2-deep affine AGU: spec + behavioural model, sequence-to-parameter mapper with FSM residuals, structural elaboration |
//! | [`netlist`] | `adgen-netlist` | netlist IR, `vcl018` library, STA, levelized & event-driven simulators, equivalence, power, VCD/Verilog/DOT |
//! | [`synth`] | `adgen-synth` | espresso, FSM synthesis, counters/rings/decoders/adders/ROMs |
//! | [`seq`] | `adgen-seq` | sequences, regularity analysis, workloads, loop nests, trace I/O |
//! | [`core`] | `adgen-core` | SRAG: mapper, simulator, elaboration, control styles, chaining, time-sharing |
//! | [`cntag`] | `adgen-cntag` | counter/arithmetic/ROM baselines, loop-nest compiler |
//! | [`memory`] | `adgen-memory` | ADDM / RAM models, behavioural & gate-level co-simulation |
//! | [`bank`] | `adgen-bank` | multi-bank ADDM, interleaver workloads, conflict-aware window scheduling, address-map decomposition + per-bank pricing |
//! | [`explorer`] | `adgen-explorer` | candidates, Pareto, selection, reports, power & resilience comparisons |
//! | [`fault`] | `adgen-fault` | stuck-at / SEU fault models, deterministic injection campaigns, coverage classification |
//! | [`exec`] | `adgen-exec` | scoped thread pool with deterministic ordering, seedable PRNG |
//! | [`obs`] | `adgen-obs` | zero-dep observability: spans, typed counters, Chrome-trace and profile exporters |
//! | [`serve`] | `adgen-serve` | batch compilation service: binary wire protocol, admission queue with deadlines, two-tier content-addressed result cache |

pub use adgen_affine as affine;
pub use adgen_bank as bank;
pub use adgen_cntag as cntag;
pub use adgen_core as core;
pub use adgen_exec as exec;
pub use adgen_explorer as explorer;
pub use adgen_fault as fault;
pub use adgen_memory as memory;
pub use adgen_netlist as netlist;
pub use adgen_obs as obs;
pub use adgen_seq as seq;
pub use adgen_serve as serve;
pub use adgen_synth as synth;

/// The types most programs need, in one import.
pub mod prelude {
    pub use adgen_affine::{fit_sequence, AffineAgNetlist, AffineFit, AffineSimulator, AffineSpec};
    pub use adgen_bank::{BankMap, BankedAddm, Decomposition, Interleaver};
    pub use adgen_cntag::{
        compile_loop_nest, ArithAgNetlist, ArithAgSimulator, ArithAgSpec, CntAgNetlist,
        CntAgSimulator, CntAgSpec,
    };
    pub use adgen_core::arch::ControlStyle;
    pub use adgen_core::composite::{Srag2d, Srag2dSimulator};
    pub use adgen_core::mapper::{map_sequence, Mapping};
    pub use adgen_core::multi_counter::map_sequence_relaxed;
    pub use adgen_core::shared::TimeSharedSragNetlist;
    pub use adgen_core::{HardenedSragNetlist, SragError, SragNetlist, SragSimulator, SragSpec};
    pub use adgen_explorer::{
        compare_power, compare_resilience, compare_srag_cntag, evaluate, pareto_frontier, select,
        Architecture, ComparisonRow, Constraint, EvaluateOptions, ResilienceRow,
    };
    pub use adgen_fault::{
        enumerate_stuck_at, run_campaign, CampaignReport, CampaignSpec, Classification, Fault,
    };
    pub use adgen_memory::{Addm, MemError, Ram};
    pub use adgen_netlist::{
        measure_power, to_verilog, AreaReport, CellKind, ClockModel, Library, Logic, Netlist,
        NetlistError, PowerReport, Simulator, TimingAnalysis,
    };
    pub use adgen_seq::{
        workloads, AddressGenerator, AddressSequence, ArrayShape, Layout, ReplayGenerator,
    };
    pub use adgen_synth::{Encoding, Fsm, OutputStyle};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_names_resolve() {
        use crate::prelude::*;
        let shape = ArrayShape::new(4, 4);
        let seq = workloads::fifo(shape);
        assert_eq!(seq.len(), 16);
        let _lib = Library::vcl018();
    }
}
