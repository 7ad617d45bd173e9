//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction and regression rule.
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! unit test keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, work done).
    Lower,
    /// Larger values are better (throughput, hit rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A user-visible metric, measured with tracing off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Absolute change below which no difference counts, in the
    /// metric's unit (`0` = none).
    pub floor: f64,
}

/// A per-layer metric, measured in the separate traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Metric name; the part before the first `.` names the layer.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Whether the value is a deterministic count that must repeat
    /// exactly between runs of the same code and seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor: 0.0,
    }
}

/// The end-to-end metrics, reported for every workload. The bounds
/// are as wide as the reference host's drift requires: on two shared
/// vCPUs the same binary ran up to 20% slower minutes later, and peak
/// RSS moved by 7% between runs with the allocator's thread arenas.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.25),
    EndToEnd {
        floor: 0.05,
        ..e2e("setup_s", "s", Better::Lower, 0.25)
    },
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("cpu_s_per_kop", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, reported for every workload (zero where the
/// workload does not reach the layer).
pub const PER_LAYER: [PerLayer; 63] = [
    // serve.client / serve.protocol: framing cost per request.
    layer("client.encode_us", "us", Lower),
    layer("client.decode_us", "us", Lower),
    layer("protocol.req_decode_us", "us", Lower),
    layer("protocol.resp_encode_us", "us", Lower),
    // serve.server: admission queue, dispatcher batches, reactor.
    layer("server.batch_size_mean", "req", Higher),
    layer("server.batches_per_kreq", "1/kreq", Lower),
    layer("server.queue_high_water", "count", Lower),
    layer("server.reactor_wakeups_per_req", "1/req", Lower),
    layer("server.busy_frac", "frac", Lower),
    // Client-observed latency split by cache outcome (untraced pass).
    layer("serve.hit_latency_p99_ms", "ms", Lower),
    layer("serve.miss_latency_p50_ms", "ms", Lower),
    // serve.cache: the two-tier result cache.
    layer("cache.hit_mem", "count", Higher),
    layer("cache.hit_disk", "count", Lower),
    PerLayer {
        better: Higher,
        ..count("cache.hits")
    },
    count("cache.miss"),
    PerLayer {
        exact: true,
        ..layer("cache.hit_rate", "frac", Higher)
    },
    layer("cache.get_us", "us", Lower),
    layer("cache.get_disk_us", "us", Lower),
    layer("cache.put_us", "us", Lower),
    // serve.exec: compute per miss, by request kind.
    layer("exec.map_ms", "ms", Lower),
    layer("exec.synthesize_ms", "ms", Lower),
    layer("exec.affine_ms", "ms", Lower),
    layer("exec.explore_ms", "ms", Lower),
    // synth: espresso, FSM synthesis, technology mapping.
    count("synth.espresso_calls"),
    count("synth.espresso_steps"),
    count("synth.espresso_truncated"),
    count("synth.cube_word_ops"),
    layer("synth.espresso_ms", "ms/op", Lower),
    layer("synth.fsm_ms", "ms/op", Lower),
    layer("synth.mapgen_ms", "ms/op", Lower),
    // netlist.sta
    count("sta.ctx_builds"),
    count("sta.runs"),
    layer("sta.ms", "ms/op", Lower),
    // cntag: counter-AG component elaboration and timing.
    count("cntag.component_builds"),
    count("cntag.component_runs"),
    layer("cntag.ms", "ms/op", Lower),
    // explorer / affine / core
    count("explorer.candidates"),
    layer("explorer.evaluate_ms", "ms/op", Lower),
    layer("affine.fit_us", "us", Lower),
    layer("core.map_us", "us", Lower),
    layer("core.elaborate_ms", "ms", Lower),
    // netlist.sim / fault
    count("sim.evaluations"),
    count("sim.sliced_word_ops"),
    count("sim.sliced_passes"),
    PerLayer {
        exact: true,
        ..layer("sim.lane_utilization", "frac", Higher)
    },
    layer("sim.replay_ms", "ms/op", Lower),
    count("fault.replays"),
    layer("fault.universe_ms", "ms", Lower),
    layer("fault.campaign_ms", "ms/op", Lower),
    // exec: par_map fan-out.
    count("exec.par_map_items"),
    layer("exec.worker_busy_max_ms", "ms/op", Lower),
    layer("exec.worker_imbalance", "ratio", Lower),
    layer("exec.cpu_util", "frac", Higher),
    // bench.experiments: the paper kernels, one call each.
    layer("sweep.fig3_4_ms", "ms", Lower),
    layer("sweep.synth_time_ms", "ms", Lower),
    layer("sweep.fig8_9_10_ms", "ms", Lower),
    layer("sweep.table3_ms", "ms", Lower),
    layer("sweep.power_ms", "ms", Lower),
    layer("sweep.ablation_ms", "ms", Lower),
    layer("sweep.sharing_ms", "ms", Lower),
    layer("sweep.interconnect_ms", "ms", Lower),
    // The cost of tracing itself, and the fixed op budget every count
    // above is a total over.
    layer("trace.overhead_pct", "%", Lower),
    count("trace.ops"),
];

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The per-layer metric named `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen_obs::json::{parse, Json};

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(end_to_end("setup_s").is_some());
    }

    /// `BENCHMARK.json` must describe exactly the catalogue above, and
    /// its set-up metric must carry the largest bound.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let root = parse(text).expect("BENCHMARK.json parses");
        let obj = root.as_obj().expect("object");
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let field = |m: &Json, k: &str| -> String {
            match &m.as_obj().expect("metric object")[k] {
                Json::Str(s) => s.clone(),
                Json::Num(n) => n.to_string(),
                other => panic!("unexpected {other:?}"),
            }
        };
        let e2e = obj["end_to_end"].as_arr().expect("array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(field(j, "bound"), m.bound.to_string());
        }
        let max_bound = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(end_to_end("setup_s").unwrap().bound, max_bound);
        let layers = obj["per_layer"].as_arr().expect("array");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        let workloads: Vec<String> = obj["workloads"]
            .as_arr()
            .expect("array")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            obj["run_seconds"].as_num(),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }
}
