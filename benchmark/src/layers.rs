//! Per-layer metrics: the obs counters and spans the program already
//! records, plus calls into public layer functions timed from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use adgen_obs::{worker_imbalance, Ctr, Recording};

use crate::metrics::PER_LAYER;
use crate::stats;

/// Every per-layer metric of one traced run, zero until set.
#[derive(Debug, Clone, PartialEq)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
        }
    }
}

impl Layers {
    /// Sets metric `name`; non-finite values (an empty denominator)
    /// read as zero.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(k, _)| **k == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
            .1;
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value)` in catalogue order.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }

    /// Fills the metrics the obs recording of a traced pass of `ops`
    /// operations carries: deterministic counter totals, and span time
    /// per operation. Of nested spans that both match, only the outer
    /// one counts, so no interval is summed twice.
    pub fn add_recording(&mut self, rec: &Recording, ops: f64) {
        for (name, ctr) in [
            ("synth.espresso_calls", Ctr::EspressoCalls),
            ("synth.espresso_steps", Ctr::EspressoSteps),
            ("synth.espresso_truncated", Ctr::EspressoTruncated),
            ("synth.cube_word_ops", Ctr::CubeWordOps),
            ("sta.ctx_builds", Ctr::StaCtxBuilds),
            ("sta.runs", Ctr::StaRuns),
            ("cntag.component_builds", Ctr::CntagComponentBuilds),
            ("cntag.component_runs", Ctr::CntagComponentRuns),
            ("explorer.candidates", Ctr::ExplorerCandidates),
            ("sim.evaluations", Ctr::SimEvaluations),
            ("sim.sliced_word_ops", Ctr::SimSlicedWordOps),
            ("sim.sliced_passes", Ctr::SimSlicedPasses),
            ("fault.replays", Ctr::FaultReplays),
            ("exec.par_map_items", Ctr::ParMapItems),
        ] {
            self.set(name, rec.counter(ctr) as f64);
        }
        self.set(
            "sim.lane_utilization",
            rec.counter(Ctr::SimSlicedLanes) as f64
                / (64.0 * rec.counter(Ctr::SimSlicedPasses) as f64),
        );
        for (name, matches) in [
            (
                "synth.espresso_ms",
                &(|n: &str| n == "espresso.minimize") as &dyn Fn(&str) -> bool,
            ),
            ("synth.fsm_ms", &|n| n == "fsm.synthesize"),
            ("synth.mapgen_ms", &|n| n.starts_with("mapgen.")),
            ("sta.ms", &|n| n.starts_with("sta.")),
            ("cntag.ms", &|n| n.starts_with("cntag.")),
            ("explorer.evaluate_ms", &|n| n == "explorer.evaluate"),
            ("sim.replay_ms", &|n| n.starts_with("fault.replay")),
            ("fault.campaign_ms", &|n| n == "fault.campaign"),
        ] {
            self.set(name, span_time(rec, matches).0 / ops);
        }
        for (name, span) in [
            ("exec.map_ms", "serve.exec.map"),
            ("exec.synthesize_ms", "serve.exec.synthesize"),
            ("exec.affine_ms", "serve.exec.synthesize.affine"),
            ("exec.explore_ms", "serve.exec.explore"),
        ] {
            let (ms, calls) = span_time(rec, |n| n == span);
            self.set(name, ms / calls as f64);
        }
        if let Some(w) = worker_imbalance(rec) {
            self.set("exec.worker_busy_max_ms", w.max_busy_ns as f64 / 1e6 / ops);
            self.set("exec.worker_imbalance", w.ratio());
        }
    }
}

/// Total milliseconds and count of the outermost spans whose name
/// satisfies `matches`.
pub fn span_time(rec: &Recording, matches: impl Fn(&str) -> bool) -> (f64, u64) {
    let mut ns = 0u64;
    let mut calls = 0u64;
    for s in &rec.spans {
        if !matches(s.name) {
            continue;
        }
        let mut parent = s.parent;
        let mut nested = false;
        while let Some(p) = parent {
            let ps = &rec.spans[p as usize];
            if matches(ps.name) {
                nested = true;
                break;
            }
            parent = ps.parent;
        }
        if !nested {
            ns = ns.saturating_add(s.dur_ns);
            calls += 1;
        }
    }
    (ns as f64 / 1e6, calls)
}

/// Timed loops per measurement; [`mean_us`] reports their median.
const REPS: usize = 5;

/// Mean microseconds per call of `f` over `items`: the median of
/// [`REPS`] loops over all of them, each timed as one, so neither the
/// clock's own cost nor one disturbed loop sets the value.
pub fn mean_us<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let loops: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            for item in items {
                std::hint::black_box(f(std::hint::black_box(item)));
            }
            started.elapsed().as_secs_f64() * 1e6 / items.len() as f64
        })
        .collect();
    stats::median(&loops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_obs as obs;

    #[test]
    fn nested_matching_spans_count_once() {
        obs::start();
        {
            let _outer = obs::span("sta.ctx.build");
            let _inner = obs::span("sta.run");
        }
        {
            let _other = obs::span("sta.run");
        }
        let rec = obs::take();
        let (_, calls) = span_time(&rec, |n| n.starts_with("sta."));
        assert_eq!(calls, 2);
        let (_, runs) = span_time(&rec, |n| n == "sta.run");
        assert_eq!(runs, 2);
    }

    #[test]
    fn every_catalogue_metric_starts_at_zero_and_unknown_names_panic() {
        let mut l = Layers::default();
        assert_eq!(l.rows().len(), PER_LAYER.len());
        l.set("sta.runs", 3.0);
        l.set("exec.worker_imbalance", f64::INFINITY);
        assert_eq!(l.get("sta.runs"), 3.0);
        assert_eq!(l.get("exec.worker_imbalance"), 0.0);
        let caught = std::panic::catch_unwind(move || l.set("no.such", 1.0));
        assert!(caught.is_err());
    }
}
