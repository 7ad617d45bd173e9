//! Process resource readings (peak RSS, CPU time) and the host block
//! every result records.

use std::process::Command;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks,
/// which the kernel fixes at 100 for user space on every architecture
/// it supports.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), megabytes.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time of every thread of this process, seconds.
///
/// # Errors
///
/// Fails where `/proc/self/stat` is unavailable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may hold spaces or parentheses; the fields
    // after its closing parenthesis start at field 3 (state), so
    // utime (field 14) and stime (field 15) are at offsets 11 and 12.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    adgen_exec::available_jobs()
}

/// The first line a command prints, or `unknown` when it cannot run
/// (no git checkout, no toolchain on `PATH`).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The current git revision, with a `-dirty` suffix for uncommitted
/// changes, or `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let rev = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    if rev == "unknown" {
        return rev;
    }
    let dirty = Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_readings_are_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        // Burn a little CPU so the reading cannot be a stale zero.
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds().unwrap() > 0.0);
        assert!(nproc() >= 1);
    }
}
