//! The `--trace` / `--metrics` flags every binary of the workspace
//! takes, parsed in one place.

use std::path::PathBuf;

/// The parsed observability flags of a binary.
#[derive(Debug, Default, Clone)]
pub struct ObsArgs {
    /// `--trace FILE`: where to write the Chrome trace-event JSON.
    pub trace: Option<PathBuf>,
    /// `--metrics`: print the profile report (and, for the bench
    /// binaries, append the metrics block to their record).
    pub metrics: bool,
}

impl ObsArgs {
    /// Whether either flag asked for a recording session.
    pub fn recording(&self) -> bool {
        self.trace.is_some() || self.metrics
    }
}

/// Strips the obs flags out of a raw argument list, returning the
/// remaining arguments. Shared by the binaries' hand-rolled parsers.
///
/// Recognized forms: `--trace FILE`, `--trace=FILE`, `--metrics`. A
/// `--trace` without a value is a usage error: the process exits
/// with status 2.
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
}
