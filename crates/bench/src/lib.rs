//! Measurement kernels regenerating every table and figure of the
//! paper's evaluation. Each kernel builds its inputs from one table,
//! [`PaperWorkload`], which pairs every paper stream with its
//! counter-AG program. The `repro` binary prints and times the
//! kernels, the `benchmark` package's `sweep-paper` workload times
//! them under load, and `EXPERIMENTS.md` records paper-vs-measured.

pub mod experiments;
pub mod obs_cli;
pub mod recipe;
pub mod report;

pub use recipe::Fig7Recipe;

pub use experiments::{
    ablation, fig3_4, fig8_9_10, interconnect, power_study, sharing, synth_time, table3,
    AblationRow, Fig34Row, Fig8910Row, InterconnectRow, PaperWorkload, PowerRow, SharingRow,
    SynthTimeRow, Table3Row,
};
