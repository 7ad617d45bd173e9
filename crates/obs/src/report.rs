//! The deterministic plain-text profile report.
//!
//! Spans are aggregated by *path* (the chain of span names from the
//! root), in first-occurrence order — which is splice input order, so
//! the aggregated tree is identical at any `--jobs` value. Each node
//! reports call count plus self and total time; *self* is total minus
//! the sum of the node's children (the time spent in the span's own
//! code).
//!
//! Under redaction (`OBS_REDACT=1`) the time columns and the
//! nondeterministic timing-metric section are elided, leaving a
//! byte-comparable report: tree shape, call counts and typed counter
//! totals only.

use std::fmt::Write as _;
use std::path::Path;

use crate::record::Recording;
use crate::trace::chrome_trace;

#[derive(Debug)]
struct Node {
    name: &'static str,
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    children: Vec<usize>,
}

/// Renders the self/total profile report for `rec`.
pub fn profile_report(rec: &Recording, redact: bool) -> String {
    // Per-span sum of direct children durations, for self time.
    let mut child_ns: Vec<u64> = vec![0; rec.spans.len()];
    for s in &rec.spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] = child_ns[p as usize].saturating_add(s.dur_ns);
        }
    }

    // Aggregate into path-keyed nodes, first-occurrence order.
    let mut nodes: Vec<Node> = Vec::new();
    let mut top: Vec<usize> = Vec::new();
    // Span index -> aggregated node index.
    let mut agg_of: Vec<usize> = Vec::with_capacity(rec.spans.len());
    for (i, s) in rec.spans.iter().enumerate() {
        let siblings: &mut Vec<usize> = match s.parent {
            Some(p) => {
                let parent_agg = agg_of[p as usize];
                // Split borrow: read the child list via index juggling.
                let found = nodes[parent_agg]
                    .children
                    .iter()
                    .copied()
                    .find(|&c| nodes[c].name == s.name);
                match found {
                    Some(c) => {
                        bump(&mut nodes[c], s.dur_ns, child_ns[i]);
                        agg_of.push(c);
                        continue;
                    }
                    None => {
                        let c = push_node(&mut nodes, s.name, s.dur_ns, child_ns[i]);
                        nodes[parent_agg].children.push(c);
                        agg_of.push(c);
                        continue;
                    }
                }
            }
            None => &mut top,
        };
        match siblings.iter().copied().find(|&c| nodes[c].name == s.name) {
            Some(c) => {
                bump(&mut nodes[c], s.dur_ns, child_ns[i]);
                agg_of.push(c);
            }
            None => {
                let c = push_node(&mut nodes, s.name, s.dur_ns, child_ns[i]);
                siblings.push(c);
                agg_of.push(c);
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "# obs profile");
    let _ = writeln!(out, "# mode: {}", if redact { "redacted" } else { "full" });
    if redact {
        let _ = writeln!(out, "# spans: name, calls");
    } else {
        let _ = writeln!(out, "# spans: name, calls, self ms, total ms");
    }
    for &t in &top {
        render_node(&nodes, t, 0, redact, &mut out);
    }
    let _ = writeln!(out, "# counters");
    for (ctr, value) in rec.nonzero_counters() {
        let _ = writeln!(out, "{:<28} {value}", ctr.name());
    }
    if !redact && !rec.timings.is_empty() {
        let _ = writeln!(out, "# timings (nondeterministic)");
        for (key, value) in &rec.timings {
            let _ = writeln!(out, "{key:<28} {value}");
        }
    }
    out
}

fn push_node(nodes: &mut Vec<Node>, name: &'static str, dur_ns: u64, children_ns: u64) -> usize {
    nodes.push(Node {
        name,
        calls: 1,
        total_ns: dur_ns,
        self_ns: dur_ns.saturating_sub(children_ns),
        children: Vec::new(),
    });
    nodes.len() - 1
}

fn bump(node: &mut Node, dur_ns: u64, children_ns: u64) {
    node.calls += 1;
    node.total_ns = node.total_ns.saturating_add(dur_ns);
    node.self_ns = node
        .self_ns
        .saturating_add(dur_ns.saturating_sub(children_ns));
}

fn render_node(nodes: &[Node], idx: usize, depth: usize, redact: bool, out: &mut String) {
    let node = &nodes[idx];
    let label = format!("{:indent$}{}", "", node.name, indent = depth * 2);
    if redact {
        let _ = writeln!(out, "{label:<40} {:>6}", node.calls);
    } else {
        let _ = writeln!(
            out,
            "{label:<40} {:>6} {:>12.3} {:>12.3}",
            node.calls,
            node.self_ns as f64 / 1e6,
            node.total_ns as f64 / 1e6,
        );
    }
    for &c in &node.children {
        render_node(nodes, c, depth + 1, redact, out);
    }
}

/// Worker-balance summary of the `par_map` fan-outs in a recording,
/// distilled from the per-worker busy-time map the pool records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerImbalance {
    /// Workers that reported busy time.
    pub workers: usize,
    /// Largest per-worker busy total, nanoseconds.
    pub max_busy_ns: u64,
    /// Smallest per-worker busy total, nanoseconds.
    pub min_busy_ns: u64,
}

impl WorkerImbalance {
    /// `max / min` busy-time ratio — `1.0` is a perfectly balanced
    /// fan-out. Infinite when a worker never got an item.
    pub fn ratio(&self) -> f64 {
        self.max_busy_ns as f64 / self.min_busy_ns as f64
    }
}

/// Summarizes the per-worker `par_map.worker*.busy_ns` timing metrics
/// (summed over every fan-out of the run) into a max/min imbalance
/// report. `None` when the recording holds no worker busy times —
/// e.g. a serial run, or a recording taken without an exec fan-out.
///
/// The numbers are wall-clock and therefore nondeterministic; callers
/// emitting byte-compared output must elide them (the `--metrics`
/// block does so under `OBS_REDACT=1`).
pub fn worker_imbalance(rec: &Recording) -> Option<WorkerImbalance> {
    let busy: Vec<u64> = rec
        .timings
        .iter()
        .filter(|(k, _)| k.starts_with("par_map.worker") && k.ends_with(".busy_ns"))
        .map(|(_, &v)| v)
        .collect();
    if busy.is_empty() {
        return None;
    }
    Some(WorkerImbalance {
        workers: busy.len(),
        max_busy_ns: busy.iter().copied().max().unwrap_or(0),
        min_busy_ns: busy.iter().copied().min().unwrap_or(0),
    })
}

/// Exports a finished session the way every `--trace` / `--metrics`
/// CLI does: writes the Chrome trace to `trace` (when given), then,
/// with `metrics`, prints the profile report and — unless `redact` —
/// the worker-imbalance line to stdout. A trace that cannot be
/// written is a warning, not a failure: the run's results stand.
pub fn export_session(rec: &Recording, trace: Option<&Path>, metrics: bool, redact: bool) {
    if let Some(path) = trace {
        match std::fs::write(path, chrome_trace(rec, redact)) {
            Ok(()) => println!("(trace written to {})", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    if !metrics {
        return;
    }
    print!("{}", profile_report(rec, redact));
    if let Some(w) = worker_imbalance(rec).filter(|_| !redact) {
        println!(
            "# worker imbalance: {} worker(s), busy {} / {} ns (max/min = {:.2})",
            w.workers,
            w.max_busy_ns,
            w.min_busy_ns,
            w.ratio()
        );
    }
}

/// Renders the `metrics` block appended to a bench binary's
/// `BENCH_*.json` record under `--metrics`: the typed counter totals
/// plus the span count, and — unless `redact` — the worker-imbalance
/// summary of the run's `par_map` fan-outs. Counters and spans are
/// jobs-invariant, so under redaction the block is byte-identical for
/// a given seed at any `--jobs` value; the imbalance summary is
/// wall-clock and is elided then (rendered as `null`).
pub fn metrics_json_block(rec: &Recording, indent: &str, redact: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "{indent}  \"spans\": {},", rec.spans.len());
    let _ = writeln!(s, "{indent}  \"counters\": {{");
    let counters = rec.nonzero_counters();
    for (i, (ctr, value)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        let _ = writeln!(s, "{indent}    \"{}\": {value}{comma}", ctr.name());
    }
    let _ = writeln!(s, "{indent}  }},");
    match worker_imbalance(rec).filter(|_| !redact) {
        Some(w) => {
            let _ = writeln!(
                s,
                "{indent}  \"worker_imbalance\": {{\"workers\": {}, \"max_busy_ns\": {}, \
                 \"min_busy_ns\": {}, \"ratio\": {:.4}}}",
                w.workers,
                w.max_busy_ns,
                w.min_busy_ns,
                w.ratio()
            );
        }
        None => {
            let _ = writeln!(s, "{indent}  \"worker_imbalance\": null");
        }
    }
    let _ = write!(s, "{indent}}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{add, capture, span, splice, start, take, Ctr};

    fn nested_recording() -> Recording {
        start();
        {
            let _root = span("run");
            for _ in 0..3 {
                let _item = span("item");
                let _inner = span("work");
                add(Ctr::FuzzCases, 1);
            }
        }
        take()
    }

    #[test]
    fn aggregates_repeated_paths() {
        let text = profile_report(&nested_recording(), true);
        // "item" appears once in the tree, with 3 calls.
        assert_eq!(text.matches("item").count(), 1, "{text}");
        assert!(text.contains("fuzz.cases"), "{text}");
        let item_line = text.lines().find(|l| l.contains("item")).unwrap();
        assert!(item_line.trim_end().ends_with('3'), "{item_line}");
    }

    #[test]
    fn redacted_report_is_deterministic() {
        let a = profile_report(&nested_recording(), true);
        let b = profile_report(&nested_recording(), true);
        assert_eq!(a, b);
        assert!(!a.contains("ms"), "no time columns under redaction: {a}");
    }

    #[test]
    fn full_report_has_time_columns() {
        let text = profile_report(&nested_recording(), false);
        assert!(text.contains("self ms"));
    }

    #[test]
    fn spliced_trees_aggregate_like_local_ones() {
        // A tree built via capture/splice must render identically to
        // the same tree built locally (modulo times, so redact).
        let local = {
            start();
            {
                let _r = span("r");
                for _ in 0..2 {
                    let _c = span("c");
                }
            }
            take()
        };
        let stitched = {
            start();
            {
                let _r = span("r");
                for _ in 0..2 {
                    let ((), rec) = capture(|| {
                        let _c = span("c");
                    });
                    splice(rec);
                }
            }
            take()
        };
        assert_eq!(
            profile_report(&local, true),
            profile_report(&stitched, true)
        );
    }

    #[test]
    fn metrics_block_is_valid_json() {
        let rec = nested_recording();
        let block = metrics_json_block(&rec, "  ", false);
        crate::json::parse(&block).expect("metrics block parses");
        assert!(block.contains("\"fuzz.cases\": 3"));
        // No fan-out happened, so there is nothing to summarize.
        assert!(block.contains("\"worker_imbalance\": null"), "{block}");
    }

    #[test]
    fn worker_imbalance_summarizes_busy_times() {
        start();
        crate::record::timing("par_map.worker0.busy_ns".to_string(), 400);
        crate::record::timing("par_map.worker1.busy_ns".to_string(), 100);
        crate::record::timing("par_map.worker0.items".to_string(), 3);
        let rec = take();
        let w = worker_imbalance(&rec).expect("busy times present");
        assert_eq!(w.workers, 2);
        assert_eq!(w.max_busy_ns, 400);
        assert_eq!(w.min_busy_ns, 100);
        assert!((w.ratio() - 4.0).abs() < 1e-12);

        let full = metrics_json_block(&rec, "  ", false);
        crate::json::parse(&full).expect("full metrics block parses");
        assert!(full.contains("\"ratio\": 4.0000"), "{full}");
        // Redaction elides the nondeterministic summary entirely.
        let redacted = metrics_json_block(&rec, "  ", true);
        crate::json::parse(&redacted).expect("redacted metrics block parses");
        assert!(
            redacted.contains("\"worker_imbalance\": null"),
            "{redacted}"
        );
    }

    #[test]
    fn worker_imbalance_absent_without_fanout() {
        assert_eq!(worker_imbalance(&Recording::default()), None);
    }
}
