//! adgen-benchmark: the benchmark every performance or simplicity
//! change of the adgen stack is judged against.
//!
//! Four workloads each stress a different part of the stack:
//!
//! * `serve-warm` — two closed-loop clients replay a 512-request hot
//!   set against an in-process `adgen-serve`; every request is a
//!   memory-tier cache hit, so only the serving path (framing, reactor,
//!   admission queue, dispatcher, LRU) does work.
//! * `serve-mixed` — the same clients, but one request in five is a
//!   never-seen miss that runs synthesis, STA or the explorer and
//!   writes the result cache; hits queue behind misses.
//! * `sweep-paper` — the paper's evaluation kernels (Figs. 3–4, 8–10,
//!   Table 3 and the power, ablation, sharing and interconnect
//!   studies) at paper sizes: 47 design points per iteration.
//! * `fault-replay` — stuck-at and SEU campaigns on the 32×32
//!   motion-estimation generators (plain and hardened SRAG, CntAG) on
//!   the bit-sliced simulator.
//!
//! Each run measures one workload for a fixed time with tracing off
//! (end-to-end metrics), or replays a fixed number of operations twice,
//! untraced and traced (per-layer metrics). Every run checks its
//! outputs; see `README.md` for the metric definitions.

pub mod batch;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod reference;
pub mod result;
pub mod serve;
pub mod stats;
pub mod streams;

use std::path::PathBuf;

use adgen_serve::CacheKey;

/// Seconds one timed run measures unless told otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

/// The seed whose output digests [`Workload::digest`] records.
pub const DEFAULT_SEED: u64 = 2026;

/// Set-ups of a full run: a single set-up is one sample of a noisy
/// cold start, so `setup_s` reports the median of several.
pub const SETUPS: usize = 9;

/// Worker threads of the server and of the batch kernels: the load
/// stays within the two CPUs of the reference host.
pub const JOBS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot-set replay: all memory-tier cache hits.
    ServeWarm,
    /// 80% hot-set hits, 20% unique misses.
    ServeMixed,
    /// The paper's evaluation kernels at paper sizes.
    SweepPaper,
    /// Fault campaigns on the 32×32 motion-estimation generators.
    FaultReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeWarm,
        Workload::ServeMixed,
        Workload::SweepPaper,
        Workload::FaultReplay,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve-warm",
            Workload::ServeMixed => "serve-mixed",
            Workload::SweepPaper => "sweep-paper",
            Workload::FaultReplay => "fault-replay",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The digest of the workload's deterministic outputs at
    /// [`DEFAULT_SEED`]; a run with that seed must reproduce it. The
    /// serve workloads share their hot set and its answers.
    pub fn digest(self) -> &'static str {
        match self {
            Workload::ServeWarm | Workload::ServeMixed => "cd91353f3b5f566816829dd1b9a4e269",
            Workload::SweepPaper => "77925bda9c20f26f30b25204f537a8ad",
            Workload::FaultReplay => "9ce1899c4ec9f9491f5a7799d77345ad",
        }
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measured time of a timed run, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of a timed one.
    pub trace: bool,
    /// Tiny sizes for the test suite: one set-up, few operations.
    pub smoke: bool,
    /// Directory for the disk cache tiers and other scratch files;
    /// removed when the run ends.
    pub scratch: PathBuf,
}

impl Config {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context for a reader (tail percentile, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Whether every output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Checks `digest` against the recorded one when the run used the
    /// default seed.
    pub fn check_digest(&mut self, cfg: &Config, digest: &str) {
        self.notes.push(format!("output digest {digest}"));
        if cfg.seed == DEFAULT_SEED && digest != cfg.workload.digest() {
            self.problem(format!(
                "output digest {digest} differs from the recorded {}",
                cfg.workload.digest()
            ));
        }
    }

    /// Fills every per-layer metric from `layers`.
    pub fn set_layers(&mut self, layers: &layers::Layers) {
        self.metrics = layers
            .rows()
            .into_iter()
            .map(|(name, v)| {
                let unit = metrics::per_layer(name).expect("catalogued").unit;
                (name, v, unit)
            })
            .collect();
    }
}

/// A 128-bit content digest (the serve cache's key function), hex.
pub fn digest(bytes: &[u8]) -> String {
    CacheKey::for_request(bytes, 0).hex()
}

/// What a timed run measured, before it becomes end-to-end metrics.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Per-operation latencies (per request or per iteration), ms.
    pub latencies_ms: Vec<f64>,
    /// Tail percentiles to try, highest first.
    pub tail_candidates: &'static [f64],
    /// Operations per second over the measured phase.
    pub throughput: f64,
    /// Process CPU seconds spent in the measured phase.
    pub cpu_s: f64,
    /// Operations completed in the measured phase.
    pub ops: u64,
}

impl Timed {
    /// Reports the end-to-end metrics into `out`.
    pub fn report(mut self, out: &mut Outcome) {
        self.latencies_ms.sort_by(f64::total_cmp);
        let n = self.latencies_ms.len();
        let put = |out: &mut Outcome, name: &'static str, v: f64| {
            let unit = metrics::end_to_end(name).expect("catalogued").unit;
            out.metrics.push((name, v, unit));
        };
        put(out, "throughput_ops_s", self.throughput);
        if n == 0 {
            out.problem("no operation completed");
            return;
        }
        put(
            out,
            "latency_p50_ms",
            stats::percentile(&self.latencies_ms, 50.0),
        );
        // Smoke runs may be too short for the preferred tail; fall
        // back to the median rather than report an unsupported tail.
        let p = stats::tail_percentile(n, self.tail_candidates).unwrap_or(50.0);
        put(
            out,
            "latency_tail_ms",
            stats::percentile(&self.latencies_ms, p),
        );
        out.notes.push(format!(
            "latency_tail_ms is p{p} of {n} samples, {} beyond it",
            stats::beyond(n, p)
        ));
        put(out, "setup_s", stats::median(&self.setup_s));
        match host::peak_rss_mb() {
            Ok(mb) => put(out, "peak_rss_mb", mb),
            Err(e) => out.problem(e),
        }
        put(
            out,
            "cpu_s_per_kop",
            self.cpu_s / (self.ops as f64 / 1000.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve"), None);
    }
}
