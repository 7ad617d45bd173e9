//! The resilience axis of the design space: what a fault does to
//! each architecture, and what hardening against it costs.
//!
//! The paper trades delay against area; address decoder decoupling
//! adds a third, unstated axis. A decoder remaps *every* counter
//! state to a legal one-hot select, so a corrupted CntAG merely
//! addresses the wrong cell. A plain SRAG ring, driving the select
//! lines straight from flip-flops, can enter and circulate an
//! illegal multi-hot or all-zero state — silent data corruption in
//! an ADDM. This module quantifies both sides for one mapped
//! sequence: fault coverage of the plain and hardened (self-checking)
//! two-hot SRAG pair over the same select-ring fault universe, and
//! the area/delay premium the checker and watchdog cost.

use adgen_cntag::netlist::SELECT_LINE_LOAD_FF;
use adgen_core::composite::{Srag2d, Srag2dNetlist};
use adgen_core::{HardenedSrag2dNetlist, SragError};
use adgen_fault::{
    driving_flip_flops, fault_universe, run_campaigns, CampaignReport, CampaignSpec, Fault,
};
use adgen_netlist::{AreaReport, Library, NetId, Netlist, TimingAnalysis};
use adgen_seq::{AddressSequence, ArrayShape, Layout};

/// Plain-versus-hardened resilience of one mapped sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceRow {
    /// Fault coverage (detected / non-benign, %) of the plain pair:
    /// faults are only ever caught downstream, by corrupted outputs.
    pub plain_coverage_pct: f64,
    /// Self-checking coverage of the plain pair — zero by
    /// construction (no alarm exists).
    pub plain_alarm_coverage_pct: f64,
    /// Plain-pair faults that corrupted state without ever reaching
    /// an output in the window: the silent-corruption exposure.
    pub plain_silent: usize,
    /// Fault coverage (%) of the hardened pair.
    pub hardened_coverage_pct: f64,
    /// Self-checking coverage (%) of the hardened pair — the share
    /// of effective faults its own alarm caught.
    pub hardened_alarm_coverage_pct: f64,
    /// Hardened-pair faults that stayed silent.
    pub hardened_silent: usize,
    /// Number of faults in the (shared) campaign universe.
    pub faults: usize,
    /// Plain pair total area, cell units.
    pub plain_area: f64,
    /// Hardened pair total area, cell units.
    pub hardened_area: f64,
    /// Plain pair critical path under select-line load, picoseconds.
    pub plain_delay_ps: f64,
    /// Hardened pair critical path under the same load, picoseconds.
    pub hardened_delay_ps: f64,
}

impl ResilienceRow {
    /// Hardened area over plain area (>1: hardening costs area).
    pub fn area_overhead_factor(&self) -> f64 {
        self.hardened_area / self.plain_area
    }

    /// Hardened delay over plain delay (>1: hardening costs speed).
    pub fn delay_overhead_factor(&self) -> f64 {
        self.hardened_delay_ps / self.plain_delay_ps
    }
}

/// The select-ring recipe over explicit net lists:
/// [`fault_universe`] on `select_lines`, with its SEUs on the
/// flip-flops driving `ring_nets`. Outside this module, `benchmark/`
/// is its last caller; workspace code takes the pair's universes from
/// [`ring_campaigns`].
pub fn ring_fault_universe(
    netlist: &Netlist,
    select_lines: &[NetId],
    ring_nets: &[NetId],
    cycles: u32,
    seu_samples: usize,
    seed: u64,
) -> Vec<Fault> {
    let ffs = driving_flip_flops(netlist, ring_nets);
    fault_universe(select_lines, &ffs, cycles, seu_samples, seed)
}

/// The select-ring campaigns of a two-hot SRAG pair, plain then
/// hardened: each design under test (`cycles` observation window, the
/// hardened pair's alarm) with its [`fault_universe`] of stuck-ats on
/// every select line and `seu_samples` SEUs from `seed` on the
/// flip-flops driving the rings — the plain pair's select lines are
/// its ring. The same *logical* faults on both designs (select lines
/// and rings correspond one-to-one) keep the two coverage figures
/// comparable. [`compare_resilience`] and `simbench` replay exactly
/// these lists.
pub fn ring_campaigns<'a>(
    plain: &'a Srag2dNetlist,
    hardened: &'a HardenedSrag2dNetlist,
    cycles: u32,
    seu_samples: usize,
    seed: u64,
) -> [(CampaignSpec<'a>, Vec<Fault>); 2] {
    let lines = |a: &[NetId], b: &[NetId]| -> Vec<NetId> { a.iter().chain(b).copied().collect() };
    let campaign = |netlist: &'a Netlist, alarm_output, select_lines: &[NetId], ring: &[NetId]| {
        let spec = CampaignSpec {
            netlist,
            cycles,
            alarm_output,
        };
        let faults = ring_fault_universe(netlist, select_lines, ring, cycles, seu_samples, seed);
        (spec, faults)
    };
    let plain_lines = lines(&plain.row_lines, &plain.col_lines);
    [
        campaign(&plain.netlist, None, &plain_lines, &plain_lines),
        campaign(
            &hardened.netlist,
            Some(hardened.alarm_output_index()),
            &lines(&hardened.row_lines, &hardened.col_lines),
            &lines(&hardened.row_ring_ffs, &hardened.col_ring_ffs),
        ),
    ]
}

/// Maps `sequence` onto a two-hot SRAG pair, elaborates the plain
/// and hardened variants, runs the identical select-ring fault
/// campaign on each, and measures the hardening premium with the
/// same STA/area accounting as the delay-area comparisons.
///
/// `cycles` is the campaign observation window (one full sequence
/// period is the natural choice); `seu_samples` SEUs are drawn from
/// `seed`. `jobs` fans the fault replays out as in every other
/// engine (`0` = all cores); results are jobs-invariant.
///
/// # Errors
///
/// Propagates mapping, elaboration and netlist validation failures.
pub fn compare_resilience(
    sequence: &AddressSequence,
    shape: ArrayShape,
    library: &Library,
    cycles: u32,
    seu_samples: usize,
    seed: u64,
    jobs: usize,
) -> Result<(ResilienceRow, CampaignReport, CampaignReport), SragError> {
    let pair = Srag2d::map(sequence, shape, Layout::RowMajor)?;
    let plain = pair.elaborate()?;
    let hardened = pair.elaborate_hardened()?;

    let [(plain_spec, plain_faults), (hard_spec, hard_faults)] =
        ring_campaigns(&plain, &hardened, cycles, seu_samples, seed);
    // One fan-out: the two golden runs overlap, and each campaign's
    // passes trail its own golden run.
    let mut reports = run_campaigns(
        &[(plain_spec, &plain_faults), (hard_spec, &hard_faults)],
        jobs,
    )?;
    let hard_report = reports.swap_remove(1);
    let plain_report = reports.swap_remove(0);

    let plain_timing =
        TimingAnalysis::run_with_output_load(&plain.netlist, library, SELECT_LINE_LOAD_FF)
            .map_err(SragError::from)?;
    let hard_timing =
        TimingAnalysis::run_with_output_load(&hardened.netlist, library, SELECT_LINE_LOAD_FF)
            .map_err(SragError::from)?;

    let row = ResilienceRow {
        plain_coverage_pct: plain_report.coverage_pct(),
        plain_alarm_coverage_pct: plain_report.alarm_coverage_pct(),
        plain_silent: plain_report.silent(),
        hardened_coverage_pct: hard_report.coverage_pct(),
        hardened_alarm_coverage_pct: hard_report.alarm_coverage_pct(),
        hardened_silent: hard_report.silent(),
        faults: plain_faults.len(),
        plain_area: AreaReport::of(&plain.netlist, library).total(),
        hardened_area: AreaReport::of(&hardened.netlist, library).total(),
        plain_delay_ps: plain_timing.critical_path_ps(),
        hardened_delay_ps: hard_timing.critical_path_ps(),
    };
    Ok((row, plain_report, hard_report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_seq::workloads;

    #[test]
    fn hardening_buys_alarm_coverage_for_area() {
        let shape = ArrayShape::new(4, 4);
        let seq = workloads::motion_est_read(shape, 2, 2, 0);
        let lib = Library::vcl018();
        let (row, plain, hardened) =
            compare_resilience(&seq, shape, &lib, seq.len() as u32, 12, 2026, 2).unwrap();
        // The plain pair cannot self-detect anything...
        assert_eq!(row.plain_alarm_coverage_pct, 0.0);
        assert_eq!(plain.alarmed(), 0);
        // ...the hardened pair self-detects every effective ring
        // fault in the universe...
        assert_eq!(row.hardened_alarm_coverage_pct, 100.0);
        assert_eq!(hardened.silent(), 0);
        // ...and the checker + watchdog show up in the bill.
        assert!(row.area_overhead_factor() > 1.0);
        assert!(row.hardened_delay_ps > 0.0 && row.plain_delay_ps > 0.0);
        assert_eq!(row.faults, 2 * 8 + 12);
    }

    #[test]
    fn resilience_rows_are_jobs_invariant() {
        let shape = ArrayShape::new(4, 4);
        let seq = workloads::transpose_scan(shape);
        let lib = Library::vcl018();
        let a = compare_resilience(&seq, shape, &lib, 16, 6, 7, 1).unwrap();
        let b = compare_resilience(&seq, shape, &lib, 16, 6, 7, 4).unwrap();
        assert_eq!(a, b);
    }
}
