//! `cosim`: workload → write-then-read co-simulation through the ADDM
//! (two-hot select discipline) and the conventional RAM, driven by
//! behavioural SRAG pairs and replay generators.

use adgen_core::composite::Srag2d;
use adgen_exec::{splitmix64, Prng};
use adgen_memory::cosim::{run_addm, run_ram};
use adgen_seq::{workloads, Layout, ReplayGenerator};

use super::{BreakMode, CheckResult, Context, Family};
use crate::workload::Workload;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The read-side workload, on an array of up to 16×16.
    pub(crate) wl: Workload,
}

impl Family for Case {
    const KIND: &'static str = "cosim";

    fn generate(rng: &mut Prng) -> Self {
        Case {
            wl: Workload::draw(rng, 4),
        }
    }

    fn describe(&self) -> String {
        self.wl.to_string()
    }

    fn check(&self, _: BreakMode) -> CheckResult {
        let shape = self.wl.shape();
        let write_seq = workloads::fifo(shape); // covers every cell
        let read_seq = self.wl.reference(0);
        let data: Vec<u64> = (0..shape.capacity() as u64).map(splitmix64).collect();

        let write_pair = Srag2d::map(&write_seq, shape, Layout::RowMajor).ctx("write mapping")?;
        let read_pair = Srag2d::map(&read_seq, shape, Layout::RowMajor).ctx("read mapping")?;

        // ADDM run driven by behavioural SRAG pairs.
        let mut writer = write_pair.simulator();
        let mut reader = read_pair.simulator();
        let addm = run_addm(&mut writer, &mut reader, shape, &data, read_seq.len())
            .ctx("ADDM cosim failed")?;

        // RAM run with fresh generators.
        let mut writer = write_pair.simulator();
        let mut reader = read_pair.simulator();
        let ram = run_ram(&mut writer, &mut reader, shape, &data, read_seq.len())
            .ctx("RAM cosim failed")?;

        // Replay-generator reference run (bypasses the SRAG entirely).
        let mut writer = ReplayGenerator::new(write_seq);
        let mut reader = ReplayGenerator::new(read_seq.clone());
        let replay = run_addm(&mut writer, &mut reader, shape, &data, read_seq.len())
            .ctx("replay cosim failed")?;

        if addm != replay {
            return Err(format!(
                "ADDM report diverges from replay reference: {addm:?} vs {replay:?}"
            ));
        }
        if addm.writes != data.len() || addm.reads != read_seq.len() {
            return Err(format!(
                "ADDM report counts wrong: {addm:?} for {} writes / {} reads",
                data.len(),
                read_seq.len()
            ));
        }
        if ram.writes != addm.writes || ram.reads != addm.reads {
            return Err(format!(
                "RAM report diverges from ADDM: {ram:?} vs {addm:?}"
            ));
        }
        Ok(())
    }

    fn candidates(&self) -> Vec<Self> {
        let wls = [self.wl.smaller(), self.wl.simpler()].concat();
        wls.into_iter().map(|wl| Case { wl }).collect()
    }
}
