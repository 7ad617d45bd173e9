//! `loadgen` — load generator and benchmark for `adgen-serve`.
//!
//! ```text
//! cargo run --release -p adgen-bench --bin loadgen               # spawn + drive a server
//! cargo run --release -p adgen-bench --bin loadgen -- --smoke    # small CI preset
//! cargo run --release -p adgen-bench --bin loadgen -- --addr HOST:PORT
//! cargo run --release -p adgen-bench --bin loadgen -- --conns 1000 --overload
//! ```
//!
//! By default the generator spawns an in-process server on an
//! ephemeral loopback port, drives it with a seed-deterministic
//! request mix for `--passes` passes (same requests every pass, so
//! pass 2 onward measures the warm cache), and writes
//! `BENCH_serve.json` with per-pass throughput, latency percentiles
//! and cache hit rates (`target/bench-smoke/BENCH_serve.json` under
//! `--smoke`). With `--addr` it drives an external server
//! instead, metering hit rates via `Stats` snapshot deltas;
//! `--shutdown` then also sends `Shutdown` when done (the CI smoke
//! stage uses this for its clean-exit assertion).
//!
//! `--conns N` opens N concurrent connections (thousands are fine —
//! worker threads carry small stacks) and splits each pass's
//! requests across them; every connection is established before the
//! first request is sent, so the server holds all N at once. In the
//! measured passes a shed (queue-full) response is retried with
//! backoff, like a real client — which is why the warm-pass ≥ 90%
//! hit-rate bar holds even when the admission queue is tiny.
//! `--overload` appends a phase of unique (uncacheable) requests
//! fired from all connections at once — sized to overrun the
//! admission queue (`--queue-cap` bounds it when spawning) — and
//! requires every response to be either a computed result or the
//! typed queue-full rejection: a hang or a reset is a failure.
//! `--disk-cap BYTES` bounds the spawned server's disk cache tier.
//!
//! The generator is also a correctness harness: it remembers every
//! cold-pass response payload and byte-compares the warm passes
//! against it, and it exits nonzero when the warm hit rate falls
//! below 90% — the property the CI smoke stage relies on.
//!
//! Observability: `--trace FILE` / `--metrics` as in `repro`; the
//! server's worker recording (spans, serve counters) is spliced
//! into the generator's session so one trace shows both sides.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use adgen_bench::obs_cli::{array, flag_value, take_obs_args, Field, ObsJsonSink};
use adgen_exec::Prng;
use adgen_serve::{
    serve, Client, Generator, Request, Response, RetryPolicy, ServeConfig, ServeError, ServerHandle,
};
use adgen_synth::Encoding;

/// Stack size for connection worker threads: they hold a socket, a
/// few small buffers and latency samples, so thousands of them fit.
const CONN_STACK: usize = 256 * 1024;

/// Requests each connection fires during the overload phase.
const OVERLOAD_ROUNDS: usize = 4;

/// One pass's measurements, as reported in `BENCH_serve.json`.
struct PassRow {
    pass: usize,
    requests: usize,
    wall_s: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    hit_mem: u64,
    hit_disk: u64,
    miss: u64,
    hit_rate: f64,
    shed: u64,
}

/// The overload phase's outcome, as reported in `BENCH_serve.json`.
struct OverloadRow {
    conns: usize,
    requests: usize,
    ok: u64,
    shed: u64,
    failures: u64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

struct LoadgenState {
    jobs: usize,
    seed: u64,
    conns: usize,
    passes: Vec<PassRow>,
    overload: Option<OverloadRow>,
}

struct Options {
    addr: Option<String>,
    requests: usize,
    passes: usize,
    seed: u64,
    jobs: usize,
    conns: usize,
    cache_dir: Option<PathBuf>,
    disk_cap: u64,
    queue_cap: usize,
    overload: bool,
    smoke: bool,
    shutdown: bool,
}

fn main() {
    let (raw, obs_args) = take_obs_args(std::env::args().skip(1).collect());
    let mut opt = Options {
        addr: None,
        requests: 48,
        passes: 2,
        seed: 0xADE5,
        jobs: 0,
        conns: 1,
        cache_dir: None,
        disk_cap: 0,
        queue_cap: 0,
        overload: false,
        smoke: false,
        shutdown: false,
    };
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => opt.addr = Some(flag_value(&mut it, &a)),
            "--requests" => opt.requests = flag_value(&mut it, &a),
            "--passes" => opt.passes = flag_value(&mut it, &a),
            "--seed" => opt.seed = flag_value(&mut it, &a),
            "--jobs" | "-j" => opt.jobs = flag_value(&mut it, &a),
            "--conns" => opt.conns = flag_value(&mut it, &a),
            "--cache-dir" => opt.cache_dir = Some(flag_value(&mut it, &a)),
            "--disk-cap" => opt.disk_cap = flag_value(&mut it, &a),
            "--queue-cap" => opt.queue_cap = flag_value(&mut it, &a),
            "--overload" => opt.overload = true,
            "--smoke" => opt.smoke = true,
            "--shutdown" => opt.shutdown = true,
            other => {
                eprintln!(
                    "error: unknown argument `{other}` \
                     (known: --addr --requests --passes --seed --jobs --conns \
                     --cache-dir --disk-cap --queue-cap --overload \
                     --smoke --shutdown --trace --metrics)"
                );
                std::process::exit(2);
            }
        }
    }
    if opt.smoke {
        opt.requests = opt.requests.min(12);
    }
    if opt.passes == 0 {
        opt.passes = 1;
    }
    if opt.conns == 0 {
        opt.conns = 1;
    }

    let recording = obs_args.recording();
    let mut sink = ObsJsonSink::new(
        "BENCH_serve.json",
        opt.smoke,
        obs_args,
        LoadgenState {
            jobs: adgen_exec::resolve_jobs(opt.jobs),
            seed: opt.seed,
            conns: opt.conns,
            passes: Vec::new(),
            overload: None,
        },
        render_serve_json,
    );

    // Spawn an in-process server unless pointed at an external one.
    let (addr, handle) = match &opt.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let mut config = ServeConfig {
                jobs: opt.jobs,
                cache_dir: opt.cache_dir.clone(),
                disk_cap_bytes: opt.disk_cap,
                observe: recording,
                ..ServeConfig::default()
            };
            if opt.queue_cap > 0 {
                config.queue_cap = opt.queue_cap;
            }
            let handle = match serve(config) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: could not start server: {e}");
                    std::process::exit(1);
                }
            };
            (handle.local_addr().to_string(), Some(handle))
        }
    };
    println!(
        "loadgen: {} requests x {} passes over {} connection(s) against {addr} (seed {:#x})",
        opt.requests, opt.passes, opt.conns, opt.seed
    );

    let mix = request_mix(opt.requests, opt.seed, opt.smoke);
    let mut failures = 0usize;
    // Cold-pass payloads by canonical request bytes: warm passes must
    // return byte-identical responses.
    let mut expected: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

    for pass in 0..opt.passes {
        let mut meter = or_exit(&format!("pass {pass}"), Client::connect(&addr));
        let before = or_exit("stats request failed", meter.stats());

        // Same requests each pass, pass-dependent order: warm passes
        // prove the cache is order-insensitive.
        let mut order: Vec<usize> = (0..mix.len()).collect();
        Prng::for_stream(opt.seed, pass as u64 + 1).shuffle(&mut order);

        let started = Instant::now();
        let (mut latencies_ns, results) = drive_pass(&addr, &mix, &order, opt.conns);
        let wall_s = started.elapsed().as_secs_f64();
        let after = or_exit("stats request failed", meter.stats());

        for (i, payload) in results {
            let req = &mix[i];
            if let Ok(Response::Error(e)) = Response::decode(&payload) {
                eprintln!("FAIL: server error for {req:?}: {e}");
                failures += 1;
            }
            match expected.entry(req.encode()) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(payload);
                }
                std::collections::hash_map::Entry::Occupied(o) => {
                    if *o.get() != payload {
                        eprintln!("FAIL: warm response differs from cold for {req:?}");
                        failures += 1;
                    }
                }
            }
        }

        let hit_mem = after.cache_hit_mem - before.cache_hit_mem;
        let hit_disk = after.cache_hit_disk - before.cache_hit_disk;
        let miss = after.cache_miss - before.cache_miss;
        let looked_up = hit_mem + hit_disk + miss;
        let hit_rate = if looked_up > 0 {
            (hit_mem + hit_disk) as f64 / looked_up as f64
        } else {
            0.0
        };

        latencies_ns.sort_unstable();
        let row = PassRow {
            pass,
            requests: mix.len(),
            wall_s,
            throughput_rps: mix.len() as f64 / wall_s,
            p50_ms: percentile_ms(&latencies_ns, 500),
            p95_ms: percentile_ms(&latencies_ns, 950),
            p99_ms: percentile_ms(&latencies_ns, 990),
            p999_ms: percentile_ms(&latencies_ns, 999),
            hit_mem,
            hit_disk,
            miss,
            hit_rate,
            shed: after.shed - before.shed,
        };
        println!(
            "pass {}: {:.2} req/s, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms, \
             cache {}/{}/{} (mem/disk/miss), hit rate {:.1}%",
            row.pass,
            row.throughput_rps,
            row.p50_ms,
            row.p95_ms,
            row.p99_ms,
            row.p999_ms,
            row.hit_mem,
            row.hit_disk,
            row.miss,
            row.hit_rate * 100.0
        );
        if pass > 0 && row.hit_rate < 0.9 {
            eprintln!(
                "FAIL: warm pass {} hit rate {:.1}% is below 90%",
                pass,
                row.hit_rate * 100.0
            );
            failures += 1;
        }
        sink.state().passes.push(row);
    }

    if opt.overload {
        let mut meter = or_exit("overload meter", Client::connect(&addr));
        let before = or_exit("stats request failed", meter.stats());
        let row = overload_phase(&addr, opt.conns, opt.seed);
        let after = or_exit("stats request failed", meter.stats());
        println!(
            "overload: {} requests over {} conns: {} ok, {} shed, {} failure(s); \
             p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms (server shed {} total)",
            row.requests,
            row.conns,
            row.ok,
            row.shed,
            row.failures,
            row.p50_ms,
            row.p99_ms,
            row.p999_ms,
            after.shed - before.shed,
        );
        failures += row.failures as usize;
        sink.state().overload = Some(row);
    }

    // Shut the in-process server down and fold its recording into
    // ours so the trace and metrics show both sides. An external
    // server is only shut down when asked (`--shutdown`, the CI
    // smoke stage's clean-exit path).
    if let Some(handle) = handle {
        shutdown(&addr, handle, recording);
    } else if opt.shutdown {
        match Client::connect(&addr).and_then(|mut c| c.call(&Request::Shutdown, 0)) {
            Ok(Response::ShuttingDown) => println!("loadgen: external server shutting down"),
            Ok(other) => eprintln!("warning: unexpected shutdown response {other:?}"),
            Err(e) => eprintln!("warning: shutdown request failed: {e}"),
        }
    }

    sink.finish();
    if failures > 0 {
        eprintln!("loadgen: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("loadgen: all passes clean");
}

/// Drives one pass's shuffled `order` over `conns` concurrent
/// connections (round-robin split). Every connection — including the
/// idle ones when there are more connections than requests — is
/// established and pinged before the barrier releases the first
/// request, so the server really holds `conns` sockets at once.
/// Returns per-request latencies and `(mix index, payload)` pairs.
#[allow(clippy::type_complexity)]
fn drive_pass(
    addr: &str,
    mix: &[Request],
    order: &[usize],
    conns: usize,
) -> (Vec<u64>, Vec<(usize, Vec<u8>)>) {
    let barrier = Arc::new(Barrier::new(conns));
    let workers: Vec<_> = (0..conns)
        .map(|w| {
            let addr = addr.to_string();
            let slice: Vec<usize> = order.iter().skip(w).step_by(conns).copied().collect();
            let requests: Vec<(usize, Request)> =
                slice.into_iter().map(|i| (i, mix[i].clone())).collect();
            let barrier = Arc::clone(&barrier);
            std::thread::Builder::new()
                .name(format!("loadgen-conn-{w}"))
                .stack_size(CONN_STACK)
                .spawn(move || -> Result<_, String> {
                    let mut client =
                        Client::connect(&addr).map_err(|e| format!("conn {w}: {e}"))?;
                    if requests.is_empty() {
                        // Prove the connection is live, not just open.
                        client
                            .call(&Request::Ping, 0)
                            .map_err(|e| format!("conn {w} ping: {e}"))?;
                    }
                    barrier.wait();
                    // A shed request is backpressure, not an answer:
                    // the client's typed retry backs off and re-offers
                    // (distinct seeds per connection desynchronize the
                    // re-offer storm). Latency covers the whole wait,
                    // and the budget roughly matches the old ad-hoc
                    // loop's 1000 × 2 ms worst case.
                    let policy = RetryPolicy {
                        max_attempts: 256,
                        base_delay: Duration::from_millis(1),
                        cap_delay: Duration::from_millis(8),
                        seed: 0x10ad_6e40 ^ w as u64,
                    };
                    let mut latencies = Vec::with_capacity(requests.len());
                    let mut results = Vec::with_capacity(requests.len());
                    for (i, req) in requests {
                        let t0 = Instant::now();
                        let payload = client
                            .call_raw_retry(&req, 0, &policy)
                            .map_err(|e| format!("conn {w}: {e}"))?;
                        latencies.push(t0.elapsed().as_nanos() as u64);
                        results.push((i, payload));
                    }
                    Ok((latencies, results))
                })
                .expect("spawn connection worker")
        })
        .collect();

    let mut latencies = Vec::with_capacity(order.len());
    let mut results = Vec::with_capacity(order.len());
    for worker in workers {
        match worker.join().expect("connection worker panicked") {
            Ok((lat, res)) => {
                latencies.extend(lat);
                results.extend(res);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    (latencies, results)
}

/// The overload phase: every connection fires [`OVERLOAD_ROUNDS`]
/// unique (per connection and round, hence uncacheable) synthesis
/// requests as fast as it can. The contract under overload is typed
/// degradation: each response must be a computed result or the
/// server's `QueueFull` rejection — a transport error, an unexpected
/// error kind, or a hang (surfaced by a read timeout) is a failure.
fn overload_phase(addr: &str, conns: usize, seed: u64) -> OverloadRow {
    let barrier = Arc::new(Barrier::new(conns));
    let workers: Vec<_> = (0..conns)
        .map(|w| {
            let addr = addr.to_string();
            let barrier = Arc::clone(&barrier);
            std::thread::Builder::new()
                .name(format!("loadgen-over-{w}"))
                .stack_size(CONN_STACK)
                .spawn(move || {
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    let mut failures = 0u64;
                    let mut latencies = Vec::with_capacity(OVERLOAD_ROUNDS);
                    let mut client = match Client::connect(&addr) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("FAIL: overload conn {w}: {e}");
                            return (0, 0, OVERLOAD_ROUNDS as u64, latencies);
                        }
                    };
                    // A hung server must become a visible failure,
                    // not a stuck benchmark.
                    let _ = client.set_read_timeout(Some(Duration::from_secs(60)));
                    barrier.wait();
                    for round in 0..OVERLOAD_ROUNDS {
                        let tag = (w * OVERLOAD_ROUNDS + round) as u64;
                        let mut sequence: Vec<u32> = (0..10).collect();
                        Prng::for_stream(seed ^ 0x0ae8_10ad, tag).shuffle(&mut sequence);
                        let req = Request::Synthesize {
                            sequence,
                            encoding: Encoding::Binary,
                            num_lines: 10,
                            // Unique effort budgets keep cache keys
                            // distinct even when two shuffles collide.
                            effort_steps: 100_000 + tag,
                            generator: Generator::Fsm,
                        };
                        let t0 = Instant::now();
                        match client.call(&req, 0) {
                            Ok(Response::Synthesized(_)) => ok += 1,
                            Ok(Response::Error(ServeError::QueueFull { .. })) => shed += 1,
                            Ok(other) => {
                                eprintln!("FAIL: overload conn {w}: unexpected {other:?}");
                                failures += 1;
                            }
                            Err(e) => {
                                eprintln!("FAIL: overload conn {w}: {e}");
                                failures += 1;
                            }
                        }
                        latencies.push(t0.elapsed().as_nanos() as u64);
                    }
                    (ok, shed, failures, latencies)
                })
                .expect("spawn overload worker")
        })
        .collect();

    let (mut ok, mut shed, mut failures) = (0u64, 0u64, 0u64);
    let mut latencies: Vec<u64> = Vec::with_capacity(conns * OVERLOAD_ROUNDS);
    for worker in workers {
        let (o, s, f, lat) = worker.join().expect("overload worker panicked");
        ok += o;
        shed += s;
        failures += f;
        latencies.extend(lat);
    }
    latencies.sort_unstable();
    OverloadRow {
        conns,
        requests: conns * OVERLOAD_ROUNDS,
        ok,
        shed,
        failures,
        p50_ms: percentile_ms(&latencies, 500),
        p95_ms: percentile_ms(&latencies, 950),
        p99_ms: percentile_ms(&latencies, 990),
        p999_ms: percentile_ms(&latencies, 999),
    }
}

/// The `per_mille`-th percentile (500 = p50, 999 = p999) of sorted
/// nanosecond samples, in milliseconds.
fn percentile_ms(sorted_ns: &[u64], per_mille: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = (sorted_ns.len() - 1) * per_mille / 1000;
    sorted_ns[idx] as f64 / 1.0e6
}

/// The seed-deterministic request mix: mappable and restriction-
/// violating map requests, synthesis at two effort levels across the
/// encodings, and (outside smoke mode) a couple of explorations.
fn request_mix(total: usize, seed: u64, smoke: bool) -> Vec<Request> {
    let mut prng = Prng::for_stream(seed, 0);
    let mut mix: Vec<Request> = Vec::with_capacity(total);
    while mix.len() < total {
        let kind = prng.next_range(if smoke { 8 } else { 10 });
        match kind {
            // Mappable SRAG sequence: each of n addresses held for d
            // `next` pulses, the whole ring repeated twice.
            0..=3 => {
                let n = 2 + prng.next_range(6) as u32;
                let d = 1 + prng.next_range(3) as usize;
                let mut sequence = Vec::with_capacity((n as usize) * d * 2);
                for _ in 0..2 {
                    for a in 0..n {
                        sequence.extend(std::iter::repeat_n(a, d));
                    }
                }
                mix.push(Request::MapSequence { sequence });
            }
            // A DivCnt-violating sequence: the mapper must answer
            // with a typed violation, not an error.
            4 => {
                let n = 3 + prng.next_range(4) as u32;
                let mut sequence: Vec<u32> = (0..n).collect();
                sequence.push(n - 1); // uneven repetition
                sequence.extend(0..n);
                mix.push(Request::MapSequence { sequence });
            }
            // FSM synthesis of a shuffled small sequence.
            5..=7 => {
                let n = 4 + prng.next_range(5) as u32;
                let mut sequence: Vec<u32> = (0..n).collect();
                prng.shuffle(&mut sequence);
                let encoding = match prng.next_range(3) {
                    0 => Encoding::Binary,
                    1 => Encoding::Gray,
                    _ => Encoding::OneHot,
                };
                // Half the synthesis load runs under a tiny espresso
                // budget, exercising the truncated-result cache keys.
                let effort_steps = if prng.next_range(2) == 0 { 0 } else { 64 };
                // A quarter of the load takes the v4 affine pipeline,
                // whose cache keys never alias the FSM entries.
                let generator = if prng.next_range(4) == 0 {
                    Generator::Affine
                } else {
                    Generator::Fsm
                };
                mix.push(Request::Synthesize {
                    sequence,
                    encoding,
                    num_lines: n,
                    effort_steps,
                    generator,
                });
            }
            // Full design-space exploration of a raster workload.
            _ => {
                let side = 4u32;
                let sequence: Vec<u32> = (0..side * side).collect();
                mix.push(Request::Explore {
                    sequence,
                    width: side,
                    height: side,
                    fsm_state_limit: 0,
                });
            }
        }
    }
    mix
}

/// The `Ok` value, or exits 1 with `error: {what}: {e}`.
fn or_exit<T>(what: &str, result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}

fn shutdown(addr: &str, handle: ServerHandle, recording: bool) {
    match Client::connect(addr).and_then(|mut c| c.call(&Request::Shutdown, 0)) {
        Ok(Response::ShuttingDown) => {}
        Ok(other) => eprintln!("warning: unexpected shutdown response {other:?}"),
        Err(e) => eprintln!("warning: shutdown request failed: {e}"),
    }
    let (stats, rec) = match handle.join() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "server: queue high water {}, {} batch(es), {} deadline expiration(s), \
         {} shed, coalesced {}+{}",
        stats.queue_high_water,
        stats.batches,
        stats.deadline_expired,
        stats.shed,
        stats.coalesce_leaders,
        stats.coalesce_waiters,
    );
    if recording {
        if let Some(rec) = rec {
            adgen_obs::splice(rec);
        }
    }
}

/// The record's fields: per-pass throughput, latency and cache
/// rows, then the overload phase when it ran.
fn render_serve_json(state: &LoadgenState) -> Vec<Field> {
    let passes = state.passes.iter().map(|p| {
        format!(
            "{{\"pass\": {}, \"requests\": {}, \"wall_s\": {:.6}, \
             \"throughput_rps\": {:.3}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
             \"p99_ms\": {:.4}, \"p999_ms\": {:.4}, \"shed\": {}, \
             \"cache\": {{\"hit_mem\": {}, \"hit_disk\": {}, \
             \"miss\": {}, \"hit_rate\": {:.4}}}}}",
            p.pass,
            p.requests,
            p.wall_s,
            p.throughput_rps,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms,
            p.p999_ms,
            p.shed,
            p.hit_mem,
            p.hit_disk,
            p.miss,
            p.hit_rate
        )
    });
    let mut fields = vec![
        ("benchmark", "\"serve\"".to_string()),
        ("jobs", state.jobs.to_string()),
        ("seed", state.seed.to_string()),
        ("conns", state.conns.to_string()),
        ("passes", array("  ", passes)),
    ];
    if let Some(o) = &state.overload {
        fields.push((
            "overload",
            format!(
                "{{\"conns\": {}, \"requests\": {}, \"ok\": {}, \
                 \"shed\": {}, \"failures\": {}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
                 \"p99_ms\": {:.4}, \"p999_ms\": {:.4}}}",
                o.conns,
                o.requests,
                o.ok,
                o.shed,
                o.failures,
                o.p50_ms,
                o.p95_ms,
                o.p99_ms,
                o.p999_ms
            ),
        ));
    }
    fields
}
