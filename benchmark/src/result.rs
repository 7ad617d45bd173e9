//! Result records: the one-line JSON a single run prints, the result
//! file `benchmark run` writes, and `benchmark compare` over two of
//! them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use adgen_obs::json::{escape, parse, Json};

use crate::metrics::{self, Better};
use crate::stats;
use crate::Outcome;

/// The last line of a single run's standard output.
pub fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// One workload's runs inside a result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    /// Whether every run's outputs were right.
    pub correct: bool,
    /// Operations attempted, summed over runs.
    pub attempted: u64,
    /// Operations failed, summed over runs.
    pub failed: u64,
    /// Every metric's unit and one value per run.
    pub metrics: BTreeMap<String, (String, Vec<f64>)>,
}

impl WorkloadRuns {
    /// Folds in one run's JSON line; returns the run's attempted
    /// operations.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn absorb(&mut self, line: &str) -> Result<u64, String> {
        let root = parse(line)?;
        let obj = root.as_obj().ok_or("result line is not an object")?;
        let num = |k: &str| {
            obj.get(k)
                .and_then(Json::as_num)
                .ok_or(format!("missing {k}"))
        };
        let first = self.metrics.is_empty() && self.attempted == 0;
        let correct = matches!(obj.get("correct"), Some(Json::Bool(true)));
        self.correct = correct && (first || self.correct);
        let attempted = num("attempted")? as u64;
        self.attempted += attempted;
        self.failed += num("failed")? as u64;
        for (name, m) in obj
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing metrics")?
        {
            let m = m
                .as_obj()
                .ok_or(format!("metric {name} is not an object"))?;
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .ok_or(format!("{name}: no value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            self.metrics
                .entry(name.clone())
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
        Ok(attempted)
    }
}

/// A `benchmark run` result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFile {
    /// Host and configuration facts, rendered as JSON values.
    pub host: BTreeMap<String, String>,
    /// Runs per workload name.
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

impl RunFile {
    /// Renders the file.
    pub fn render(&self) -> String {
        let mut s = String::from("{\n  \"host\": {");
        let host: Vec<String> = self
            .host
            .iter()
            .map(|(k, v)| format!("\n    \"{}\": {v}", escape(k)))
            .collect();
        let _ = write!(s, "{}\n  }},\n  \"workloads\": {{", host.join(","));
        let mut first = true;
        for (name, w) in &self.workloads {
            let _ = write!(
                s,
                "{}\n    \"{}\": {{\n      \"correct\": {}, \"attempted\": {}, \"failed\": {},\n      \"metrics\": {{",
                if first { "" } else { "," },
                escape(name),
                w.correct,
                w.attempted,
                w.failed
            );
            first = false;
            let rows: Vec<String> = w
                .metrics
                .iter()
                .map(|(m, (unit, values))| {
                    let vs: Vec<String> = values.iter().map(f64::to_string).collect();
                    format!(
                        "\n        \"{}\": {{\"unit\": \"{}\", \"values\": [{}]}}",
                        escape(m),
                        escape(unit),
                        vs.join(", ")
                    )
                })
                .collect();
            let _ = write!(s, "{}\n      }}\n    }}", rows.join(","));
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Parses a rendered file.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let root = parse(text)?;
        let obj = root.as_obj().ok_or("result file is not an object")?;
        let mut file = RunFile::default();
        if let Some(host) = obj.get("host").and_then(Json::as_obj) {
            for (k, v) in host {
                file.host.insert(k.clone(), to_json(v));
            }
        }
        for (name, w) in obj
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("missing workloads")?
        {
            let w = w.as_obj().ok_or(format!("{name} is not an object"))?;
            let num = |k: &str| w.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
            let mut runs = WorkloadRuns {
                correct: matches!(w.get("correct"), Some(Json::Bool(true))),
                attempted: num("attempted"),
                failed: num("failed"),
                metrics: BTreeMap::new(),
            };
            for (m, v) in w
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("missing metrics")?
            {
                let v = v.as_obj().ok_or(format!("{m} is not an object"))?;
                let unit = v
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let values = v
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or(format!("{m}: no values"))?
                    .iter()
                    .map(|x| x.as_num().ok_or(format!("{m}: non-numeric value")))
                    .collect::<Result<Vec<f64>, String>>()?;
                runs.metrics.insert(m.clone(), (unit, values));
            }
            file.workloads.insert(name.clone(), runs);
        }
        Ok(file)
    }
}

/// `value` rendered back as JSON text.
fn to_json(value: &Json) -> String {
    match value {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{}\"", escape(s)),
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(to_json).collect();
            format!("[{}]", items.join(", "))
        }
        Json::Obj(map) => {
            let fields: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", escape(k), to_json(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
    }
}

/// The judgement on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the baseline by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// Run-to-run spread wider than the bound: no call possible.
    Unresolved,
    /// An exact count that repeats.
    Match,
    /// An exact count that differs, or a metric or workload missing
    /// from the new file.
    Mismatch,
    /// A per-layer timing, shown for reading only.
    Info,
}

impl Verdict {
    /// Whether this verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Mismatch)
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline median.
    pub base: f64,
    /// New median.
    pub new: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compares `new` against `base`, one row per (workload, metric) the
/// baseline holds. End-to-end metrics are judged by their bounds,
/// exact per-layer counts must repeat, other per-layer metrics are
/// shown only.
pub fn compare(base: &RunFile, new: &RunFile) -> Vec<Row> {
    let mut rows = Vec::new();
    for (wname, b) in &base.workloads {
        let n = new.workloads.get(wname);
        if n.is_none_or(|n| !n.correct) || !b.correct {
            rows.push(Row {
                workload: wname.clone(),
                metric: "correct".to_string(),
                base: f64::from(u8::from(b.correct)),
                new: f64::from(u8::from(n.is_some_and(|n| n.correct))),
                verdict: Verdict::Mismatch,
            });
        }
        for (mname, (_, bv)) in &b.metrics {
            let nv = n
                .and_then(|n| n.metrics.get(mname))
                .map(|(_, v)| v.as_slice());
            let base_med = stats::median(bv);
            let Some(nv) = nv.filter(|v| !v.is_empty()) else {
                rows.push(Row {
                    workload: wname.clone(),
                    metric: mname.clone(),
                    base: base_med,
                    new: f64::NAN,
                    verdict: Verdict::Mismatch,
                });
                continue;
            };
            let new_med = stats::median(nv);
            let verdict = if let Some(m) = metrics::end_to_end(mname) {
                judge(m, bv, nv)
            } else if metrics::per_layer(mname).is_some_and(|m| m.exact) {
                if bv.iter().chain(nv).all(|&v| v == bv[0]) {
                    Verdict::Match
                } else {
                    Verdict::Mismatch
                }
            } else {
                Verdict::Info
            };
            rows.push(Row {
                workload: wname.clone(),
                metric: mname.clone(),
                base: base_med,
                new: new_med,
                verdict,
            });
        }
    }
    rows
}

/// The bound rule for one end-to-end metric.
fn judge(m: &metrics::EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let (b, n) = (stats::median(base), stats::median(new));
    // Positive `worse` means the new median is worse.
    let worse = match m.better {
        Better::Lower => n - b,
        Better::Higher => b - n,
    };
    let tolerance = (m.bound * b.abs()).max(m.floor);
    let better_everywhere = match m.better {
        Better::Lower => new.iter().all(|x| base.iter().all(|y| x < y)),
        Better::Higher => new.iter().all(|x| base.iter().all(|y| x > y)),
    };
    if stats::spread(base).max(stats::spread(new)) > m.bound {
        if better_everywhere && -worse > tolerance {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > tolerance {
        Verdict::Regressed
    } else if -worse > tolerance {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Renders comparison rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<14} {:<32} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "new", "change"
    );
    for r in rows {
        let change = if r.base != 0.0 && r.new.is_finite() {
            format!("{:+.1}%", (r.new - r.base) / r.base.abs() * 100.0)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            s,
            "{:<14} {:<32} {:>14.6} {:>14.6} {:>9}  {:?}",
            r.workload, r.metric, r.base, r.new, change, r.verdict
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunFile {
        let mut file = RunFile::default();
        file.host.insert("seed".into(), "2026".into());
        file.host.insert("git_rev".into(), "\"abc\"".into());
        file.host
            .insert("ops".into(), "{\"sweep-paper\": [100, 94]}".into());
        let mut runs = WorkloadRuns::default();
        runs.absorb(
            r#"{"correct": true, "attempted": 100, "failed": 0, "metrics": {
                "throughput_ops_s": {"value": 1000.5, "unit": "1/s"},
                "latency_p50_ms": {"value": 2.0, "unit": "ms"},
                "latency_tail_ms": {"value": 4.0, "unit": "ms"},
                "setup_s": {"value": 0.5, "unit": "s"},
                "peak_rss_mb": {"value": 30.0, "unit": "MB"},
                "cpu_s_per_kop": {"value": 1.5, "unit": "s"}}}"#,
        )
        .unwrap();
        runs.absorb(
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {
                "sta.runs": {"value": 77, "unit": "count"},
                "sta.ms": {"value": 0.25, "unit": "ms/op"}}}"#,
        )
        .unwrap();
        file.workloads.insert("sweep-paper".into(), runs);
        file
    }

    #[test]
    fn result_files_round_trip() {
        let file = sample();
        assert_eq!(RunFile::parse(&file.render()).unwrap(), file);
        assert_eq!(file.workloads["sweep-paper"].attempted, 110);
    }

    #[test]
    fn self_compare_passes() {
        let file = sample();
        let rows = compare(&file, &file);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                matches!(
                    r.verdict,
                    Verdict::Unchanged | Verdict::Match | Verdict::Info
                ),
                "{r:?}"
            );
        }
    }

    #[test]
    fn a_twofold_slowdown_regresses() {
        let base = sample();
        let mut slow = base.clone();
        let runs = slow.workloads.get_mut("sweep-paper").unwrap();
        for (name, (_, values)) in runs.metrics.iter_mut() {
            for v in values.iter_mut() {
                match name.as_str() {
                    "throughput_ops_s" => *v /= 2.0,
                    "latency_p50_ms" | "latency_tail_ms" | "cpu_s_per_kop" => *v *= 2.0,
                    _ => {}
                }
            }
        }
        let rows = compare(&base, &slow);
        let regressed: Vec<&str> = rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(
            regressed,
            [
                "cpu_s_per_kop",
                "latency_p50_ms",
                "latency_tail_ms",
                "throughput_ops_s"
            ]
        );
        // The reverse direction is an improvement, not a regression.
        assert!(compare(&slow, &base).iter().all(|r| !r.verdict.fails()));
    }

    #[test]
    fn exact_counts_must_repeat_and_setup_has_a_floor() {
        let base = sample();
        let mut other = base.clone();
        let runs = other.workloads.get_mut("sweep-paper").unwrap();
        runs.metrics.get_mut("sta.runs").unwrap().1[0] = 78.0;
        let rows = compare(&base, &other);
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("sta.runs"), Verdict::Mismatch);
        assert_eq!(verdict("sta.ms"), Verdict::Info);
        // +0.04 s on a 0.1 s set-up is 40%, but under the 0.05 s floor.
        let setup = metrics::end_to_end("setup_s").unwrap();
        assert_eq!(judge(setup, &[0.1], &[0.14]), Verdict::Unchanged);
        assert_eq!(judge(setup, &[0.1], &[0.2]), Verdict::Regressed);
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_every_run_is_better() {
        let m = metrics::end_to_end("latency_p50_ms").unwrap();
        let noisy = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(judge(m, &noisy, &[2.0, 3.0, 4.0, 5.0]), Verdict::Unresolved);
        assert_eq!(judge(m, &noisy, &[0.1, 0.2, 0.3, 0.4]), Verdict::Improved);
        assert_eq!(judge(m, &[1.0], &[1.2]), Verdict::Unchanged);
        assert_eq!(judge(m, &[1.0], &[1.3]), Verdict::Regressed);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.push(("setup_s", 0.8127, "s"));
        let line = json_line(&out);
        let root = parse(&line).unwrap();
        let keys: Vec<&String> = root.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
    }
}
