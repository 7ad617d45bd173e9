//! Deterministic fault injection for the serving disk tier and the
//! compute workers.
//!
//! A [`FaultPlan`] is a small list of directives, each naming a fault
//! kind, an injection *site* (a string the server passes to
//! [`FaultPlan::fire`] at each instrumented point) and which arrival
//! at that site should trigger. Directives are compiled once from a
//! spec string — typically the `ADGEN_SERVE_FAULTS` environment
//! variable or the `--faults` flag — and evaluation is an atomic
//! counter bump per matching site, or nothing at all when no plan is
//! installed: production servers carry an `Option<Arc<FaultPlan>>`
//! that is `None`, so the hot path costs one branch.
//!
//! ## Spec grammar
//!
//! ```text
//! spec      := directive ("," directive)*
//! directive := kind "@" site [ "#" occurrence ]
//! kind      := "enospc" | "short" | "readerr" | "kill" | "stall" | "panic"
//! ```
//!
//! `occurrence` is 1-based and defaults to 1: `enospc@disk.put.write#2`
//! fails the *second* write reaching that site. `kill` calls
//! [`std::process::abort`] at the site — the crash harness
//! (`chaoscamp`) uses it to stop the server at a precise point
//! mid-write and then audit what the restarted server does with the
//! wreckage. `stall` sleeps for [`STALL`] at the site, so a test can
//! hold a computation open for as long as it needs without depending
//! on how fast the computation is. `panic` unwinds from the site: the
//! compute site contains it and answers with a typed internal error;
//! anywhere else it takes the thread down like any other bug.
//!
//! ## Instrumented sites
//!
//! | site                   | position                                   |
//! |------------------------|--------------------------------------------|
//! | `disk.put.create`      | before creating the temp file              |
//! | `disk.put.write`       | before writing the entry frame             |
//! | `disk.put.sync`        | after write, before `sync_all`             |
//! | `disk.put.pre_rename`  | after sync, before the atomic rename       |
//! | `disk.put.post_rename` | after the rename committed the entry       |
//! | `disk.get.read`        | before reading an entry                    |
//! | `serve.compute`        | before a worker computes a cache miss      |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a triggered [`FaultKind::Stall`] holds its site.
pub const STALL: Duration = Duration::from_millis(500);

/// What to inject when a directive triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the operation with `ENOSPC` ("no space left on device").
    Enospc,
    /// Write only a prefix of the bytes, then fail — a torn write.
    ShortWrite,
    /// Fail a read with an I/O error.
    ReadErr,
    /// Abort the whole process at the site (simulated `kill -9`).
    Kill,
    /// Sleep for [`STALL`] at the site, then carry on.
    Stall,
    /// Panic at the site.
    Panic,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "enospc" => Some(FaultKind::Enospc),
            "short" => Some(FaultKind::ShortWrite),
            "readerr" => Some(FaultKind::ReadErr),
            "kill" => Some(FaultKind::Kill),
            "stall" => Some(FaultKind::Stall),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }
}

/// One compiled `kind@site#occurrence` directive.
#[derive(Debug)]
struct Directive {
    kind: FaultKind,
    site: String,
    /// 1-based arrival index that triggers the fault.
    occurrence: u64,
    arrivals: AtomicU64,
}

/// A compiled set of fault directives. See the module docs for the
/// spec grammar and the site map.
#[derive(Debug, Default)]
pub struct FaultPlan {
    directives: Vec<Directive>,
}

impl FaultPlan {
    /// Compiles a spec string.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut directives = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (kind_s, rest) = raw
                .split_once('@')
                .ok_or_else(|| format!("fault directive '{raw}' is missing '@site'"))?;
            let kind = FaultKind::parse(kind_s)
                .ok_or_else(|| format!("unknown fault kind '{kind_s}' in '{raw}'"))?;
            let (site, occurrence) = match rest.split_once('#') {
                Some((site, n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("bad occurrence '{n}' in '{raw}'"))?;
                    if n == 0 {
                        return Err(format!("occurrence is 1-based, got 0 in '{raw}'"));
                    }
                    (site, n)
                }
                None => (rest, 1),
            };
            if site.is_empty() {
                return Err(format!("empty site in '{raw}'"));
            }
            directives.push(Directive {
                kind,
                site: site.to_string(),
                occurrence,
                arrivals: AtomicU64::new(0),
            });
        }
        Ok(FaultPlan { directives })
    }

    /// Compiles the `ADGEN_SERVE_FAULTS` environment variable, if set
    /// and non-empty. A malformed spec is a startup error the caller
    /// should surface, not ignore — injecting *nothing* when the
    /// operator asked for a fault would silently invalidate a chaos
    /// run.
    ///
    /// # Errors
    ///
    /// Propagates parse failures from the env var's value.
    pub fn from_env() -> Result<Option<Arc<FaultPlan>>, String> {
        match std::env::var("ADGEN_SERVE_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => {
                FaultPlan::parse(&spec).map(|p| Some(Arc::new(p)))
            }
            _ => Ok(None),
        }
    }

    /// Records one arrival at `site` and returns the fault to inject,
    /// if any directive triggers on this arrival. `Kill`, `Stall` and
    /// `Panic` act on the spot — abort, sleep, unwind — so only the
    /// I/O kinds are ever returned for the caller to inject.
    pub fn fire(&self, site: &str) -> Option<FaultKind> {
        for d in &self.directives {
            if d.site != site {
                continue;
            }
            let arrival = d.arrivals.fetch_add(1, Ordering::Relaxed) + 1;
            if arrival != d.occurrence {
                continue;
            }
            match d.kind {
                FaultKind::Kill => {
                    // The whole point: die exactly here, mid-operation,
                    // like a power cut. abort() skips destructors and
                    // flushes nothing — closest stand-in for kill -9.
                    eprintln!("adgen-serve: fault plan kill at {site}");
                    std::process::abort();
                }
                // A stall injects nothing, so later directives still
                // count this arrival.
                FaultKind::Stall => std::thread::sleep(STALL),
                FaultKind::Panic => panic!("injected fault: panic at {site}"),
                kind => return Some(kind),
            }
        }
        None
    }

    /// The I/O error a triggered [`FaultKind::Enospc`] or
    /// [`FaultKind::ReadErr`] maps to.
    pub fn io_error(kind: FaultKind) -> std::io::Error {
        match kind {
            FaultKind::Enospc => std::io::Error::other("injected fault: no space left on device"),
            FaultKind::ReadErr => std::io::Error::other("injected fault: read error"),
            FaultKind::ShortWrite => {
                std::io::Error::new(std::io::ErrorKind::WriteZero, "injected fault: short write")
            }
            FaultKind::Kill | FaultKind::Stall | FaultKind::Panic => {
                unreachable!("fire acts on {kind:?} at the site")
            }
        }
    }
}

/// Fires `site` against an optional plan — the form the disk tier
/// uses so the no-plan path is a single `is_some` branch.
pub fn fire(plan: &Option<Arc<FaultPlan>>, site: &str) -> Option<FaultKind> {
    plan.as_ref().and_then(|p| p.fire(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let plan = FaultPlan::parse(
            "enospc@disk.put.write#2, short@disk.put.write ,readerr@disk.get.read",
        )
        .unwrap();
        assert_eq!(plan.directives.len(), 3);
        assert_eq!(plan.directives[0].occurrence, 2);
        assert_eq!(plan.directives[1].occurrence, 1, "occurrence defaults to 1");
        assert_eq!(plan.directives[2].kind, FaultKind::ReadErr);
    }

    #[test]
    fn rejects_malformed_directives() {
        assert!(FaultPlan::parse("enospc").is_err(), "missing site");
        assert!(FaultPlan::parse("frobnicate@x").is_err(), "unknown kind");
        assert!(FaultPlan::parse("enospc@x#0").is_err(), "zero occurrence");
        assert!(FaultPlan::parse("enospc@#1").is_err(), "empty site");
        assert!(
            FaultPlan::parse("enospc@x#many").is_err(),
            "non-numeric occurrence"
        );
        assert!(FaultPlan::parse("").unwrap().directives.is_empty());
    }

    #[test]
    fn fires_on_the_nth_arrival_only() {
        let plan = FaultPlan::parse("enospc@site#3").unwrap();
        assert_eq!(plan.fire("site"), None);
        assert_eq!(plan.fire("other"), None, "other sites don't count");
        assert_eq!(plan.fire("site"), None);
        assert_eq!(plan.fire("site"), Some(FaultKind::Enospc));
        assert_eq!(plan.fire("site"), None, "one-shot");
    }

    #[test]
    fn stall_holds_the_site_and_panic_unwinds_from_it() {
        let plan = FaultPlan::parse("stall@serve.compute#2,panic@serve.compute#3").unwrap();
        assert_eq!(plan.fire("serve.compute"), None);
        let started = std::time::Instant::now();
        assert_eq!(plan.fire("serve.compute"), None, "a stall injects nothing");
        assert!(started.elapsed() >= STALL);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let unwound = std::panic::catch_unwind(|| plan.fire("serve.compute"));
        std::panic::set_hook(prev_hook);
        assert!(unwound.is_err(), "the third arrival panics");
        assert_eq!(plan.fire("serve.compute"), None, "one-shot");
    }

    #[test]
    fn no_plan_fires_nothing() {
        assert_eq!(fire(&None, "disk.put.write"), None);
    }
}
