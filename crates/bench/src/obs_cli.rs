//! Shared record writing and `--trace` / `--metrics` plumbing for
//! the seven bench binaries.
//!
//! `repro`, `faultcamp`, `simbench`, `explore4`, `bankcamp`,
//! `chaoscamp` and `loadgen` each end their run by writing one
//! machine-readable `BENCH_*.json`, and all seven write it through
//! [`ObsJsonSink`]. The sink owns the record's path, its layout and
//! its tail; a binary only renders its own `(key, value)` fields with
//! [`object`] and [`array`](fn@array):
//!
//! * **path** — the committed file in the current directory for a
//!   full-size run, `target/bench-smoke/` for a `--smoke` run, so a
//!   smoke can never overwrite a committed record;
//! * **layout** — one field per line inside the braces, separators
//!   written by the sink;
//! * **tail** — `"truncated": true` on a panic flush, then the
//!   `"metrics"` block under `--metrics`.
//!
//! The sink also owns the observability session behind the two
//! flags, which `adgen_obs::take_obs_args` parses:
//!
//! * `--trace FILE` — record spans/counters and export a Chrome
//!   trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//! * `--metrics` — record, print the deterministic self/total profile
//!   to stdout, and append a `"metrics"` block (typed counter totals,
//!   jobs-invariant) to the record.
//!
//! The sink is a drop guard, so when a run panics mid-way the rows
//! that already completed are still flushed as valid JSON with
//! `"truncated": true`, and the trace file (everything recorded up to
//! the panic) is still written.

use std::path::{Path, PathBuf};
use std::str::FromStr;

use adgen_obs as obs;
use adgen_obs::ObsArgs;

/// One `"key": value` field of a bench record; the value is already
/// rendered JSON.
pub type Field = (&'static str, String);

/// Renders `fields` as a JSON object with one field per line, the
/// fields one level deeper than `indent` and the closing brace at
/// `indent`.
pub fn object(indent: &str, fields: impl IntoIterator<Item = Field>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(key, value)| format!("\n{indent}  \"{key}\": {value}"))
        .collect();
    format!("{{{}\n{indent}}}", body.join(","))
}

/// Renders already-rendered JSON `rows` as a JSON array with one row
/// per line, the rows one level deeper than `indent` and the closing
/// bracket at `indent`.
pub fn array(indent: &str, rows: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = rows
        .into_iter()
        .map(|row| format!("\n{indent}  {row}"))
        .collect();
    format!("[{}\n{indent}]", body.join(","))
}

/// Where a bench binary writes its `name` record (`BENCH_*.json`):
/// the committed file in the current directory for a full-size run,
/// `target/bench-smoke/` for a `--smoke` run.
fn record_path(name: &str, smoke: bool) -> PathBuf {
    if !smoke {
        return PathBuf::from(name);
    }
    let dir = Path::new("target/bench-smoke");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
    }
    dir.join(name)
}

/// The value after `flag`, parsed as `T`. A missing or unparsable
/// value is a usage error: the message names the flag and the
/// process exits with status 2.
pub fn flag_value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let v = args.next().unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    });
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid {flag} value `{v}`");
        std::process::exit(2);
    })
}

/// Drop guard owning a bench run's obs session and JSON record.
///
/// Build it before the experiments start, mutate the row state
/// through [`state`](Self::state) as results come in, and call
/// [`finish`](Self::finish) at the end. A panic before `finish`
/// triggers the truncated flush from `Drop` instead.
pub struct ObsJsonSink<S> {
    inner: Option<SinkInner<S>>,
}

struct SinkInner<S> {
    json_path: PathBuf,
    state: S,
    render: fn(&S) -> Vec<Field>,
    args: ObsArgs,
}

impl<S> ObsJsonSink<S> {
    /// Starts the sink (and the obs session, if either flag asks for
    /// one) for the record `name`, written under `target/bench-smoke/`
    /// when `smoke` is set. `render` turns the accumulated state into
    /// the record's own fields; the sink adds the tail.
    pub fn new(
        name: &str,
        smoke: bool,
        args: ObsArgs,
        state: S,
        render: fn(&S) -> Vec<Field>,
    ) -> Self {
        if args.recording() {
            obs::start();
        }
        ObsJsonSink {
            inner: Some(SinkInner {
                json_path: record_path(name, smoke),
                state,
                render,
                args,
            }),
        }
    }

    /// The accumulated row state, for the run to append results to.
    pub fn state(&mut self) -> &mut S {
        &mut self.inner.as_mut().expect("sink used after finish").state
    }

    /// Normal-completion flush: full JSON, profile report and trace.
    pub fn finish(mut self) {
        if let Some(inner) = self.inner.take() {
            flush(inner, false);
        }
    }
}

impl<S> Drop for ObsJsonSink<S> {
    fn drop(&mut self) {
        // Reached only when `finish` was not: the run panicked (or
        // exited early). Flush what completed, marked truncated.
        if let Some(inner) = self.inner.take() {
            flush(inner, true);
        }
    }
}

fn flush<S>(inner: SinkInner<S>, truncated: bool) {
    let mut fields = (inner.render)(&inner.state);
    if truncated {
        fields.push(("truncated", "true".to_string()));
    }
    if inner.args.recording() {
        let rec = obs::take();
        let redact = obs::redact_from_env();
        obs::export_session(
            &rec,
            inner.args.trace.as_deref(),
            inner.args.metrics,
            redact,
        );
        if inner.args.metrics {
            fields.push(("metrics", obs::metrics_json_block(&rec, "  ", redact)));
        }
    }
    let json = object("", fields) + "\n";
    match std::fs::write(&inner.json_path, json) {
        Ok(()) => println!(
            "({}bench record written to {})",
            if truncated { "TRUNCATED " } else { "" },
            inner.json_path.display()
        ),
        Err(e) => eprintln!(
            "warning: could not write {}: {e}",
            inner.json_path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test renderer: one non-empty and one empty array.
    #[allow(clippy::ptr_arg)] // the render signature is `fn(&S)`
    fn render(rows: &Vec<u32>) -> Vec<Field> {
        vec![
            ("rows", array("  ", rows.iter().map(u32::to_string))),
            ("none", array("  ", Vec::new())),
        ]
    }

    fn temp_record(tag: &str) -> (PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("obs_sink_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let name = path.to_str().unwrap().to_string();
        (dir, name)
    }

    #[test]
    fn sink_writes_every_truncated_metrics_state() {
        for (truncated, metrics) in [(false, false), (false, true), (true, false), (true, true)] {
            let (dir, name) = temp_record(&format!("{truncated}_{metrics}"));
            let args = ObsArgs {
                trace: None,
                metrics,
            };
            let mut sink = ObsJsonSink::new(&name, false, args, Vec::<u32>::new(), render);
            adgen_obs::add(adgen_obs::Ctr::FuzzCases, 3);
            sink.state().extend([4, 5]);
            if truncated {
                drop(sink);
            } else {
                sink.finish();
            }
            let text = std::fs::read_to_string(&name).unwrap();
            let json = adgen_obs::json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            let obj = json.as_obj().unwrap();
            assert_eq!(obj["rows"].as_arr().unwrap().len(), 2, "{text}");
            assert!(obj["none"].as_arr().unwrap().is_empty(), "{text}");
            assert_eq!(obj.contains_key("truncated"), truncated, "{text}");
            assert_eq!(obj.contains_key("metrics"), metrics, "{text}");
            assert!(!text.contains("\"truncated\": false"), "{text}");
            if metrics {
                assert!(text.contains("\"fuzz.cases\": 3"), "{text}");
                // The tail is truncated-then-metrics, metrics last.
                let tail = text.rfind("\"metrics\"").unwrap();
                assert!(text.find("\"none\"").unwrap() < tail, "{text}");
                if truncated {
                    assert!(text.find("\"truncated\"").unwrap() < tail, "{text}");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn panic_flush_writes_truncated_json() {
        let (dir, name) = temp_record("panic");
        let path = name.clone();
        let result = std::panic::catch_unwind(move || {
            let mut sink =
                ObsJsonSink::new(&path, false, ObsArgs::default(), Vec::<u32>::new(), render);
            sink.state().push(1);
            sink.state().push(2);
            panic!("mid-run abort");
        });
        assert!(result.is_err());
        let text = std::fs::read_to_string(&name).unwrap();
        assert_eq!(
            text,
            "{\n  \"rows\": [\n    1,\n    2\n  ],\n  \"none\": [\n  ],\n  \"truncated\": true\n}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_writes_final_json_once() {
        let (dir, name) = temp_record("finish");
        let args = ObsArgs {
            trace: None,
            metrics: true,
        };
        let mut sink = ObsJsonSink::new(&name, false, args, Vec::<u32>::new(), render);
        adgen_obs::add(adgen_obs::Ctr::FuzzCases, 5);
        sink.state().push(7);
        sink.finish();
        let text = std::fs::read_to_string(&name).unwrap();
        assert!(text.contains("\"rows\": [\n    7\n  ]"), "{text}");
        // `finish` consumed the sink: no truncated flush from `Drop`
        // overwrote the final record.
        assert!(!text.contains("\"truncated\""), "{text}");
        assert!(text.contains("\"fuzz.cases\": 5"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
