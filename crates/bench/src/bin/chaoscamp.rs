//! `chaoscamp` — crash/corruption campaign against the serving tier.
//!
//! Where `loadgen` proves the server fast and `faultcamp` proves the
//! *hardware* fault-tolerant, `chaoscamp` proves the serving tier's
//! disk cache safe against the failure modes disks and crashes
//! actually produce:
//!
//! * **kill scenarios** — the server is spawned with a deterministic
//!   fault plan (`kill@disk.put.<site>#1`) that calls `abort()` at a
//!   named point inside the disk-cache write path, mid-entry. The
//!   harness drives requests until the process dies, restarts it on
//!   the same cache directory, and asserts the invariants below.
//! * **corruption scenarios** — a warm cache directory is mutated
//!   offline (payload bit flip, truncation, zero-length file) before
//!   a restart, modelling bit rot and torn writes that `kill` alone
//!   cannot place precisely.
//!
//! Invariants, asserted per scenario and fatal on violation:
//!
//! 1. **no corrupt bytes served** — every post-restart response is
//!    byte-identical to a baseline recorded from a pristine server;
//! 2. **the disk bound holds after restart** — live payload bytes on
//!    disk stay within `--disk-cap` (quarantined entries excluded);
//! 3. **the warm path recovers** — a second pass over the workload is
//!    served entirely from cache.
//!
//! Each scenario is classified by the fate of the entry that was
//! being written when the failure hit: `detected` (the damaged entry
//! was quarantined — `serve.cache.corrupt` advanced), `degraded` (the
//! entry was lost and transparently recomputed) or `benign` (the
//! entry was already durable and served as a hit). The full campaign
//! writes `BENCH_chaos.json` (a `--smoke` run writes
//! `target/bench-smoke/BENCH_chaos.json` instead) and exits nonzero if
//! any invariant fails.
//!
//! ```text
//! cargo run --release -p adgen-bench --bin chaoscamp              # full campaign
//! cargo run --release -p adgen-bench --bin chaoscamp -- --smoke   # CI-sized
//! chaoscamp --serve-bin target/release/adgen-serve
//! ```

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::Duration;

use adgen_bench::obs_cli::{array, flag_value, Field, ObsJsonSink};
use adgen_serve::cache::{ENTRY_HEADER_LEN, QUARANTINE_DIR};
use adgen_serve::{Client, Generator, Request, Response};
use adgen_synth::Encoding;

/// Disk-cache byte bound every spawned server runs under.
const DISK_CAP: u64 = 1 << 20;

/// Per-call read timeout: turns a hung server into a visible failure.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// How a corruption scenario damages a warm cache entry offline.
#[derive(Clone, Copy)]
enum Mutation {
    /// Flip one payload bit — caught by the digest check on read.
    BitFlip,
    /// Chop bytes off the end — caught by the length check at rescan.
    Truncate,
    /// Leave a zero-length file — caught by the header check at rescan.
    ZeroLength,
}

impl Mutation {
    fn name(self) -> &'static str {
        match self {
            Mutation::BitFlip => "corrupt-bitflip",
            Mutation::Truncate => "corrupt-truncate",
            Mutation::ZeroLength => "corrupt-zero-length",
        }
    }
}

/// One campaign scenario.
enum Scenario {
    /// `kill@disk.put.<site>#1` mid-write, then restart.
    Kill { site: &'static str },
    /// Warm the cache cleanly, mutate one entry, then restart.
    Corrupt { mutation: Mutation },
}

impl Scenario {
    fn name(&self) -> String {
        match self {
            Scenario::Kill { site } => format!("kill@{site}"),
            Scenario::Corrupt { mutation } => mutation.name().to_string(),
        }
    }
}

/// One row of `BENCH_chaos.json`.
struct ScenarioRow {
    name: String,
    classification: &'static str,
    corrupt_quarantined: u64,
    disk_write_errors: u64,
    round1_hits: u64,
    round1_misses: u64,
    round2_hits: u64,
    bytes_ok: bool,
    cap_ok: bool,
    recovered: bool,
    failures: Vec<String>,
}

/// Everything the JSON report carries.
struct ChaosState {
    smoke: bool,
    requests: usize,
    rows: Vec<ScenarioRow>,
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut serve_bin: Option<PathBuf> = None;
    let (raw, obs_args) = adgen_obs::take_obs_args(std::env::args().skip(1).collect());
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--serve-bin" => serve_bin = Some(flag_value(&mut args, &a)),
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!(
                    "usage: chaoscamp [--smoke] [--serve-bin PATH] [--trace FILE] [--metrics]"
                );
                std::process::exit(2);
            }
        }
    }
    let serve_bin = serve_bin.unwrap_or_else(default_serve_bin);
    if !serve_bin.exists() {
        eprintln!(
            "error: server binary {} not found (build adgen-serve, or pass --serve-bin)",
            serve_bin.display()
        );
        std::process::exit(2);
    }

    let scenarios: Vec<Scenario> = if smoke {
        vec![
            Scenario::Kill {
                site: "disk.put.write",
            },
            Scenario::Kill {
                site: "disk.put.post_rename",
            },
            Scenario::Corrupt {
                mutation: Mutation::BitFlip,
            },
            Scenario::Corrupt {
                mutation: Mutation::Truncate,
            },
        ]
    } else {
        vec![
            Scenario::Kill {
                site: "disk.put.create",
            },
            Scenario::Kill {
                site: "disk.put.write",
            },
            Scenario::Kill {
                site: "disk.put.sync",
            },
            Scenario::Kill {
                site: "disk.put.pre_rename",
            },
            Scenario::Kill {
                site: "disk.put.post_rename",
            },
            Scenario::Corrupt {
                mutation: Mutation::BitFlip,
            },
            Scenario::Corrupt {
                mutation: Mutation::Truncate,
            },
            Scenario::Corrupt {
                mutation: Mutation::ZeroLength,
            },
        ]
    };

    let mix = workload(if smoke { 4 } else { 6 });
    println!(
        "chaoscamp: {} scenario(s), {} request(s), server {}",
        scenarios.len(),
        mix.len(),
        serve_bin.display()
    );

    let mut sink = ObsJsonSink::new(
        "BENCH_chaos.json",
        smoke,
        obs_args,
        ChaosState {
            smoke,
            requests: mix.len(),
            rows: Vec::new(),
        },
        render_chaos_json,
    );

    // Baseline: pristine server, fresh directory — the byte-level
    // reference every post-crash response must match.
    let base_dir = scratch_dir("baseline");
    let baseline = match record_baseline(&serve_bin, &base_dir, &mix) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("FAIL: baseline run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(&base_dir);

    let mut total_failures = 0usize;
    for (i, scenario) in scenarios.iter().enumerate() {
        let dir = scratch_dir(&format!("s{i}"));
        let row = run_scenario(&serve_bin, &dir, scenario, &mix, &baseline);
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "  {:<28} {:<9} corrupt {}, round1 {}h/{}m, round2 {}h{}",
            row.name,
            row.classification,
            row.corrupt_quarantined,
            row.round1_hits,
            row.round1_misses,
            row.round2_hits,
            if row.failures.is_empty() {
                String::new()
            } else {
                format!(" — {} FAILURE(S)", row.failures.len())
            }
        );
        for f in &row.failures {
            eprintln!("FAIL: {}: {f}", row.name);
        }
        total_failures += row.failures.len();
        sink.state().rows.push(row);
    }

    sink.finish();
    if total_failures > 0 {
        eprintln!("FAIL: {total_failures} chaos invariant violation(s)");
        return ExitCode::FAILURE;
    }
    println!("chaoscamp: all scenarios clean");
    ExitCode::SUCCESS
}

/// Deterministic cacheable compute mix: distinct rotations of one
/// cyclic sequence, so every request owns a distinct cache entry.
fn workload(n: usize) -> Vec<Request> {
    (0..n as u32)
        .map(|i| Request::Synthesize {
            sequence: (0..8u32).map(|j| (j + i) % 8).collect(),
            encoding: Encoding::Binary,
            num_lines: 8,
            effort_steps: 0,
            generator: Generator::Fsm,
        })
        .collect()
}

/// Runs one scenario end to end and returns its report row.
fn run_scenario(
    serve_bin: &Path,
    dir: &Path,
    scenario: &Scenario,
    mix: &[Request],
    baseline: &[Vec<u8>],
) -> ScenarioRow {
    let mut row = ScenarioRow {
        name: scenario.name(),
        classification: "benign",
        corrupt_quarantined: 0,
        disk_write_errors: 0,
        round1_hits: 0,
        round1_misses: 0,
        round2_hits: 0,
        bytes_ok: true,
        cap_ok: true,
        recovered: false,
        failures: Vec::new(),
    };

    // Phase A: produce the damaged directory.
    match scenario {
        Scenario::Kill { site } => {
            let faults = format!("kill@{site}#1");
            let mut server = match ServerProc::spawn(serve_bin, dir, Some(&faults)) {
                Ok(s) => s,
                Err(e) => {
                    row.failures.push(format!("faulted spawn: {e}"));
                    return row;
                }
            };
            // Drive until the plan aborts the server — the in-flight
            // call dies with the connection.
            if let Ok(mut client) = connect(&server.addr) {
                for req in mix {
                    if client.call_raw(req, 0).is_err() {
                        break;
                    }
                }
            }
            if !server.wait_for_exit(Duration::from_secs(10)) {
                row.failures
                    .push("fault plan never killed the server".to_string());
                server.kill();
            }
        }
        Scenario::Corrupt { mutation } => {
            // Warm the cache cleanly, then damage it offline.
            let mut server = match ServerProc::spawn(serve_bin, dir, None) {
                Ok(s) => s,
                Err(e) => {
                    row.failures.push(format!("warmup spawn: {e}"));
                    return row;
                }
            };
            if let Err(e) = drive(&server.addr, mix, None) {
                row.failures.push(format!("warmup: {e}"));
            }
            if let Err(e) = server.shutdown() {
                row.failures.push(format!("warmup shutdown: {e}"));
            }
            if let Err(e) = mutate_one_entry(dir, *mutation) {
                row.failures.push(format!("mutation: {e}"));
                return row;
            }
        }
    }

    // Phase B: restart clean on the damaged directory and assert.
    let mut server = match ServerProc::spawn(serve_bin, dir, None) {
        Ok(s) => s,
        Err(e) => {
            row.failures.push(format!("restart: {e}"));
            return row;
        }
    };
    let mut first_hit = false;
    let outcome = (|| -> Result<(), String> {
        let mut client = connect(&server.addr)?;
        let s0 = client.stats().map_err(|e| format!("stats probe: {e}"))?;

        // Round 1: every payload must match the pristine baseline —
        // a quarantined or lost entry is recomputed, never served
        // damaged.
        for (i, req) in mix.iter().enumerate() {
            let payload = client
                .call_raw(req, 0)
                .map_err(|e| format!("round 1 request {i}: {e}"))?;
            if payload != baseline[i] {
                row.bytes_ok = false;
                row.failures.push(format!(
                    "round 1 request {i}: payload differs from baseline"
                ));
            }
            if i == 0 {
                // The first request is the one whose entry was being
                // written when a kill scenario struck — its fate
                // (durable hit vs recomputed miss) is what the
                // scenario classification keys on.
                let s = client.stats().map_err(|e| format!("stats probe: {e}"))?;
                first_hit =
                    s.cache_hit_mem + s.cache_hit_disk > s0.cache_hit_mem + s0.cache_hit_disk;
            }
        }
        let s1 = client.stats().map_err(|e| format!("stats probe: {e}"))?;

        // Round 2: the warm path must have recovered completely.
        for (i, req) in mix.iter().enumerate() {
            let payload = client
                .call_raw(req, 0)
                .map_err(|e| format!("round 2 request {i}: {e}"))?;
            if payload != baseline[i] {
                row.bytes_ok = false;
                row.failures.push(format!(
                    "round 2 request {i}: payload differs from baseline"
                ));
            }
        }
        let s2 = client.stats().map_err(|e| format!("stats probe: {e}"))?;

        row.corrupt_quarantined = s2.cache_corrupt;
        row.disk_write_errors = s2.disk_write_errors;
        row.round1_hits = (s1.cache_hit_mem + s1.cache_hit_disk)
            .saturating_sub(s0.cache_hit_mem + s0.cache_hit_disk);
        row.round1_misses = s1.cache_miss.saturating_sub(s0.cache_miss);
        row.round2_hits = (s2.cache_hit_mem + s2.cache_hit_disk)
            .saturating_sub(s1.cache_hit_mem + s1.cache_hit_disk);
        row.recovered = row.round2_hits == mix.len() as u64;
        if !row.recovered {
            row.failures.push(format!(
                "warm pass not fully cached after restart: {} of {} hits",
                row.round2_hits,
                mix.len()
            ));
        }
        Ok(())
    })();
    if let Err(e) = outcome {
        row.failures.push(e);
    }
    if let Err(e) = server.shutdown() {
        row.failures.push(format!("restart shutdown: {e}"));
    }

    row.cap_ok = match live_payload_bytes(dir) {
        Ok(bytes) if bytes <= DISK_CAP => true,
        Ok(bytes) => {
            row.failures.push(format!(
                "disk bound violated after restart: {bytes} live payload bytes > cap {DISK_CAP}"
            ));
            false
        }
        Err(e) => {
            row.failures.push(format!("cap walk: {e}"));
            false
        }
    };

    row.classification = if row.corrupt_quarantined > 0 {
        "detected"
    } else if first_hit {
        "benign"
    } else {
        "degraded"
    };
    if matches!(scenario, Scenario::Corrupt { .. }) && row.corrupt_quarantined == 0 {
        row.failures
            .push("mutated entry was never quarantined".to_string());
    }
    row
}

/// Records the pristine-server reference payloads for `mix`.
fn record_baseline(serve_bin: &Path, dir: &Path, mix: &[Request]) -> Result<Vec<Vec<u8>>, String> {
    let mut server = ServerProc::spawn(serve_bin, dir, None)?;
    let payloads = drive(&server.addr, mix, None)?;
    server.shutdown()?;
    Ok(payloads)
}

/// Sends every request once, optionally comparing against expected
/// payloads, and returns what came back.
fn drive(addr: &str, mix: &[Request], expect: Option<&[Vec<u8>]>) -> Result<Vec<Vec<u8>>, String> {
    let mut client = connect(addr)?;
    let mut payloads = Vec::with_capacity(mix.len());
    for (i, req) in mix.iter().enumerate() {
        let payload = client
            .call_raw(req, 0)
            .map_err(|e| format!("request {i}: {e}"))?;
        if let Some(expected) = expect {
            if payload != expected[i] {
                return Err(format!("request {i}: payload differs from baseline"));
            }
        }
        payloads.push(payload);
    }
    Ok(payloads)
}

fn connect(addr: &str) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(CALL_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(client)
}

/// Damages one warm cache entry file in `dir` (deterministically the
/// lexicographically first), modelling offline corruption.
fn mutate_one_entry(dir: &Path, mutation: Mutation) -> Result<(), String> {
    let mut entries = Vec::new();
    collect_entries(dir, &mut entries).map_err(|e| format!("walk {}: {e}", dir.display()))?;
    entries.sort();
    let victim = entries
        .first()
        .ok_or_else(|| "no cache entries to corrupt".to_string())?;
    let bytes = std::fs::read(victim).map_err(|e| e.to_string())?;
    match mutation {
        Mutation::BitFlip => {
            let mut damaged = bytes;
            let idx = ENTRY_HEADER_LEN + 2;
            if damaged.len() <= idx {
                return Err("entry too short to bit-flip".to_string());
            }
            damaged[idx] ^= 0x40;
            std::fs::write(victim, damaged).map_err(|e| e.to_string())?;
        }
        Mutation::Truncate => {
            let keep = bytes.len().saturating_sub(7);
            std::fs::write(victim, &bytes[..keep]).map_err(|e| e.to_string())?;
        }
        Mutation::ZeroLength => {
            std::fs::write(victim, []).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Sums the live (non-quarantined, non-temporary) payload bytes under
/// the cache directory — the quantity the disk bound governs.
fn live_payload_bytes(dir: &Path) -> Result<u64, String> {
    let mut entries = Vec::new();
    collect_entries(dir, &mut entries).map_err(|e| e.to_string())?;
    let mut total = 0u64;
    for path in entries {
        let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        total += len.saturating_sub(ENTRY_HEADER_LEN as u64);
    }
    Ok(total)
}

/// Collects committed entry files under the two-level shard layout,
/// skipping the quarantine directory and `.tmp` leftovers.
fn collect_entries(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for shard1 in std::fs::read_dir(dir)? {
        let shard1 = shard1?.path();
        if !shard1.is_dir() || shard1.file_name().is_some_and(|n| n == QUARANTINE_DIR) {
            continue;
        }
        for shard2 in std::fs::read_dir(&shard1)? {
            let shard2 = shard2?.path();
            if !shard2.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&shard2)? {
                let path = entry?.path();
                if path.is_file() && path.extension().is_none_or(|e| e != "tmp") {
                    out.push(path);
                }
            }
        }
    }
    Ok(())
}

/// A spawned `adgen-serve` child plus its readiness-line address.
struct ServerProc {
    child: Child,
    stdout: std::io::BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    fn spawn(serve_bin: &Path, dir: &Path, faults: Option<&str>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(serve_bin);
        cmd.arg("--cache-dir")
            .arg(dir)
            .arg("--disk-cap")
            .arg(DISK_CAP.to_string())
            .stdout(Stdio::piped())
            .stdin(Stdio::null());
        if let Some(spec) = faults {
            cmd.arg("--faults").arg(spec);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", serve_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = std::io::BufReader::new(stdout);
        let addr;
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before reporting readiness".to_string());
            }
            if let Some(rest) = line.trim_end().strip_prefix("adgen-serve listening on ") {
                addr = rest.to_string();
                break;
            }
        }
        Ok(ServerProc {
            child,
            stdout: reader,
            addr,
        })
    }

    /// Sends `Shutdown`, drains stdout to EOF and reaps the child,
    /// asserting a clean exit with the shutdown summary line.
    fn shutdown(&mut self) -> Result<(), String> {
        let mut client = connect(&self.addr)?;
        match client.call(&Request::Shutdown, 0) {
            Ok(Response::ShuttingDown) => {}
            Ok(other) => return Err(format!("shutdown answered {other:?}")),
            Err(e) => return Err(format!("shutdown: {e}")),
        }
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        if !rest.contains("adgen-serve shut down:") {
            return Err("server exited without its shutdown summary".to_string());
        }
        Ok(())
    }

    /// Waits up to `timeout` for the child to exit on its own (the
    /// fault plan's abort). Returns whether it did.
    fn wait_for_exit(&mut self, timeout: Duration) -> bool {
        let step = Duration::from_millis(50);
        let mut waited = Duration::ZERO;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) if waited < timeout => {
                    std::thread::sleep(step);
                    waited += step;
                }
                _ => return false,
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Never leak a server past a panicking scenario.
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// A unique scratch directory for one scenario's cache.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chaoscamp_{}_{tag}", std::process::id()))
}

/// `target/<profile>/adgen-serve`, next to this binary.
fn default_serve_bin() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("adgen-serve")))
        .unwrap_or_else(|| PathBuf::from("adgen-serve"))
}

/// The record's fields, one row per scenario.
fn render_chaos_json(state: &ChaosState) -> Vec<Field> {
    let scenarios = state.rows.iter().map(|r| {
        format!(
            "{{\"name\": \"{}\", \"classification\": \"{}\", \
             \"corrupt_quarantined\": {}, \"disk_write_errors\": {}, \
             \"round1_hits\": {}, \"round1_misses\": {}, \"round2_hits\": {}, \
             \"bytes_ok\": {}, \"cap_ok\": {}, \"recovered\": {}, \
             \"failures\": {}}}",
            r.name,
            r.classification,
            r.corrupt_quarantined,
            r.disk_write_errors,
            r.round1_hits,
            r.round1_misses,
            r.round2_hits,
            r.bytes_ok,
            r.cap_ok,
            r.recovered,
            r.failures.len()
        )
    });
    let failures: usize = state.rows.iter().map(|r| r.failures.len()).sum();
    vec![
        ("smoke", state.smoke.to_string()),
        ("requests", state.requests.to_string()),
        ("scenarios", array("  ", scenarios)),
        ("failures", failures.to_string()),
    ]
}
