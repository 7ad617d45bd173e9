//! Shared `--trace` / `--metrics` plumbing for the bench binaries.
//!
//! Both `repro` and `faultcamp` end their run by writing a
//! machine-readable `BENCH_*.json`. [`ObsJsonSink`] owns that write
//! *and* the observability session behind the two flags:
//!
//! * `--trace FILE` — record spans/counters and export a Chrome
//!   trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//! * `--metrics` — record, print the deterministic self/total profile
//!   to stdout, and append a `"metrics"` block (typed counter totals,
//!   jobs-invariant) to the bench JSON.
//!
//! The sink is also the panic-safety fix for partial results: it is a
//! drop guard, so when an experiment panics mid-run the rows that
//! already completed are still flushed as valid JSON with
//! `"truncated": true`, and the trace file (everything recorded up to
//! the panic) is still written. Previously an aborted run lost all of
//! both.

use std::path::{Path, PathBuf};

use adgen_obs as obs;

/// Where a bench binary writes its `name` record (`BENCH_*.json`):
/// the committed file in the current directory for a full-size run,
/// `target/bench-smoke/` for a `--smoke` run, so CI smokes never
/// overwrite the committed records.
pub fn record_path(name: &str, smoke: bool) -> PathBuf {
    if !smoke {
        return PathBuf::from(name);
    }
    let dir = Path::new("target/bench-smoke");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
    }
    dir.join(name)
}

/// The parsed observability flags of a bench binary.
#[derive(Debug, Default, Clone)]
pub struct ObsArgs {
    /// `--trace FILE`: where to write the Chrome trace-event JSON.
    pub trace: Option<PathBuf>,
    /// `--metrics`: print the profile report and append the metrics
    /// block to the bench JSON.
    pub metrics: bool,
}

impl ObsArgs {
    /// Whether either flag asked for a recording session.
    pub fn recording(&self) -> bool {
        self.trace.is_some() || self.metrics
    }
}

/// What a bench JSON renderer needs to know beyond its own rows.
pub struct RunMeta {
    /// True when the run panicked and this is a partial flush.
    pub truncated: bool,
    /// Pre-rendered `"metrics"` JSON block (present with `--metrics`).
    pub metrics: Option<String>,
}

/// Drop guard owning a bench run's obs session and JSON output.
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
    render: fn(&S, &RunMeta) -> String,
    args: ObsArgs,
}

impl<S> ObsJsonSink<S> {
    /// Starts the sink (and the obs session, if either flag asks for
    /// one). `render` turns the accumulated state into the bench JSON
    /// document.
    pub fn new(
        json_path: impl Into<PathBuf>,
        args: ObsArgs,
        state: S,
        render: fn(&S, &RunMeta) -> String,
    ) -> Self {
        if args.recording() {
            obs::start();
        }
        ObsJsonSink {
            inner: Some(SinkInner {
                json_path: json_path.into(),
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
    let rec = inner.args.recording().then(obs::take);
    let redact = obs::redact_from_env();
    if let (Some(trace_path), Some(rec)) = (&inner.args.trace, &rec) {
        let text = obs::chrome_trace(rec, redact);
        match std::fs::write(trace_path, text) {
            Ok(()) => println!("(trace written to {})", trace_path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", trace_path.display()),
        }
    }
    let metrics = match &rec {
        Some(rec) if inner.args.metrics => {
            print!("{}", obs::profile_report(rec, redact));
            if let Some(w) = obs::worker_imbalance(rec).filter(|_| !redact) {
                println!(
                    "# worker imbalance: {} worker(s), busy {} / {} ns (max/min = {:.2})",
                    w.workers,
                    w.max_busy_ns,
                    w.min_busy_ns,
                    w.ratio()
                );
            }
            Some(obs::metrics_json_block(rec, "  ", redact))
        }
        _ => None,
    };
    let meta = RunMeta { truncated, metrics };
    let json = (inner.render)(&inner.state, &meta);
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

/// Strips the obs flags out of a raw argument list, returning the
/// remaining arguments. Shared by the binaries' hand-rolled parsers.
///
/// Recognized forms: `--trace FILE`, `--trace=FILE`, `--metrics`.
pub fn take_obs_args(raw: Vec<String>) -> (Vec<String>, ObsArgs) {
    let mut rest = Vec::with_capacity(raw.len());
    let mut args = ObsArgs::default();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--trace" {
            match it.next() {
                Some(v) => args.trace = Some(PathBuf::from(v)),
                None => {
                    eprintln!("error: --trace needs a file path");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = a.strip_prefix("--trace=") {
            args.trace = Some(PathBuf::from(v));
        } else if a == "--metrics" {
            args.metrics = true;
        } else {
            rest.push(a);
        }
    }
    (rest, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_flags_are_stripped() {
        let raw = vec![
            "--jobs".to_string(),
            "2".to_string(),
            "--trace".to_string(),
            "t.json".to_string(),
            "--metrics".to_string(),
            "fig3".to_string(),
        ];
        let (rest, args) = take_obs_args(raw);
        assert_eq!(rest, vec!["--jobs", "2", "fig3"]);
        assert_eq!(args.trace.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(args.metrics && args.recording());
    }

    #[test]
    fn no_flags_means_no_recording() {
        let (rest, args) = take_obs_args(vec!["--smoke".to_string()]);
        assert_eq!(rest, vec!["--smoke"]);
        assert!(!args.recording());
    }

    #[test]
    fn panic_flush_writes_truncated_json() {
        let dir = std::env::temp_dir().join(format!("obs_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("panic_flush.json");
        // The sink's render signature is `fn(&S, &RunMeta)`; with
        // `S = Vec<u32>` the parameter has to be `&Vec`.
        #[allow(clippy::ptr_arg)]
        fn render(rows: &Vec<u32>, meta: &RunMeta) -> String {
            format!(
                "{{\"rows\": {}, \"truncated\": {}}}\n",
                rows.len(),
                meta.truncated
            )
        }
        let path_clone = path.clone();
        let result = std::panic::catch_unwind(move || {
            let mut sink =
                ObsJsonSink::new(&path_clone, ObsArgs::default(), Vec::<u32>::new(), render);
            sink.state().push(1);
            sink.state().push(2);
            panic!("mid-run abort");
        });
        assert!(result.is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"rows\": 2, \"truncated\": true}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_writes_final_json_once() {
        let dir = std::env::temp_dir().join(format!("obs_sink_fin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("finish.json");
        #[allow(clippy::ptr_arg)]
        fn render(rows: &Vec<u32>, meta: &RunMeta) -> String {
            format!(
                "{{\"rows\": {}, \"truncated\": {}, \"metrics\": {}}}\n",
                rows.len(),
                meta.truncated,
                meta.metrics.clone().unwrap_or_else(|| "null".to_string())
            )
        }
        let mut sink = ObsJsonSink::new(
            &path,
            ObsArgs {
                trace: None,
                metrics: true,
            },
            Vec::<u32>::new(),
            render,
        );
        adgen_obs::add(adgen_obs::Ctr::FuzzCases, 5);
        sink.state().push(7);
        sink.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"rows\": 1"), "{text}");
        assert!(text.contains("\"truncated\": false"), "{text}");
        assert!(text.contains("\"fuzz.cases\": 5"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
