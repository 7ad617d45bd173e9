//! The serve workloads: two closed-loop clients (one thread and one
//! connection each, no think time) against an in-process `adgen-serve`
//! with two worker threads — a build farm's compile jobs, each waiting
//! for its answer before issuing the next.

use std::path::{Path, PathBuf};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use adgen_core::composite::Srag2d;
use adgen_core::mapper::map_sequence;
use adgen_netlist::Library;
use adgen_obs::Recording;
use adgen_seq::{AddressSequence, ArrayShape, Layout};
use adgen_serve::protocol::{decode_request_frame, encode_request_frame};
use adgen_serve::{
    serve, CacheKey, Client, Generator, Request, Response, ResultCache, RetryPolicy, ServeConfig,
    ServerHandle, StatsSnapshot,
};

use crate::layers::{mean_us, span_time, Layers};
use crate::stats::Reservoir;
use crate::streams::{hot_set, key_of, ConnStream, Next, CONNS, MIXED_HOT_PCT};
use crate::{host, reference, stats, Config, Outcome, Timed, Workload, JOBS};

/// Throughput is the median over windows of this length.
const WINDOW: Duration = Duration::from_secs(1);

/// A timed run continues past its time until this many requests have
/// completed, so the p99 always has ten samples beyond it.
const MIN_REQUESTS: usize = 1000;

/// Latency samples kept per connection.
const RESERVOIR: usize = 1 << 16;

/// Every this-many-th miss is recomputed in-process and compared.
const SAMPLE_EVERY: u64 = 50;

/// Requests per connection in each pass of a traced run.
fn trace_requests(cfg: &Config) -> usize {
    match (cfg.workload, cfg.smoke) {
        (_, true) => 200,
        (Workload::ServeWarm, false) => 100_000,
        _ => 4_000,
    }
}

/// A running server and its address.
struct Server {
    handle: ServerHandle,
    addr: String,
}

fn start(dir: Option<&Path>, observe: bool) -> Result<Server, String> {
    let handle = serve(ServeConfig {
        jobs: JOBS,
        cache_dir: dir.map(Path::to_path_buf),
        observe,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = handle.local_addr().to_string();
    Ok(Server { handle, addr })
}

/// Shuts the server down and waits for all its threads.
fn stop(server: Server) -> Result<Option<Recording>, String> {
    let ack = Client::connect(&server.addr).and_then(|mut c| c.call(&Request::Shutdown, 0));
    match ack {
        Ok(Response::ShuttingDown) => {}
        other => return Err(format!("shutdown: unexpected {other:?}")),
    }
    server
        .handle
        .join()
        .map(|(_, rec)| rec)
        .map_err(|e| format!("server join: {e}"))
}

fn connect(addr: &str) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // A hung server becomes a failed request, not a stuck benchmark.
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("connect: {e}"))?;
    Ok(client)
}

/// Sheds are retried like a real client would; nothing should be shed
/// with two connections, so an exhausted budget is a failure.
fn retry_policy(conn: usize) -> RetryPolicy {
    RetryPolicy {
        seed: 0xbe4c_0000 ^ conn as u64,
        ..RetryPolicy::default()
    }
}

/// Sends the hot set through `addr` on [`CONNS`] connections and
/// returns each request's payload.
fn compute_hot(addr: &str, hot: &[Request]) -> Result<Vec<Vec<u8>>, String> {
    let mut payloads = vec![Vec::new(); hot.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || -> Result<Vec<(usize, Vec<u8>)>, String> {
                    let mut client = connect(addr)?;
                    let policy = retry_policy(c);
                    (c..hot.len())
                        .step_by(CONNS)
                        .map(|i| {
                            client
                                .call_raw_retry(&hot[i], 0, &policy)
                                .map(|p| (i, p))
                                .map_err(|e| format!("hot set: {e}"))
                        })
                        .collect()
                })
            })
            .collect();
        for w in workers {
            for (i, p) in w.join().map_err(|_| "hot-set client panicked")?? {
                payloads[i] = p;
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(payloads)
}

/// Replays the hot set once on one connection, so a fresh server over
/// a populated disk tier starts the measured pass with a warm LRU.
fn prewarm(
    server: &Server,
    hot: &[Request],
    payloads: &[Vec<u8>],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut client = connect(&server.addr)?;
    let policy = retry_policy(0);
    for (req, want) in hot.iter().zip(payloads) {
        let got = client
            .call_raw_retry(req, 0, &policy)
            .map_err(|e| format!("prewarm: {e}"))?;
        if got != *want {
            out.problem(format!("disk-tier answer differs from set-up for {req:?}"));
        }
    }
    let s = server.handle.stats().snapshot();
    if s.cache_hit_disk != hot.len() as u64 || s.cache_miss != 0 {
        out.problem(format!(
            "prewarm expected {} disk hits and no miss, got {} and {}",
            hot.len(),
            s.cache_hit_disk,
            s.cache_miss
        ));
    }
    Ok(())
}

/// When a pass stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After `seconds`, once the connections together completed at
    /// least `min_requests`.
    Deadline { seconds: f64, min_requests: usize },
    /// After this many requests per connection.
    Count(usize),
}

/// A request and the payload the server answered it with.
type Answered = (Request, Vec<u8>);

/// One connection's record of a pass.
#[derive(Debug)]
struct ConnLog {
    /// `(latency ns, was a hit)` of a uniform sample of the requests.
    samples: Reservoir<(u64, bool)>,
    hits: u64,
    misses: u64,
    windows: Vec<u64>,
    end: Duration,
    failed: u64,
    problems: Vec<String>,
    sampled: Vec<Answered>,
    kept: Vec<Answered>,
}

/// A pass over all connections.
#[derive(Debug, Default)]
struct Pass {
    /// Both connections' latency samples. They issue requests at the
    /// same rate, so together they stay a uniform sample.
    samples: Vec<(u64, bool)>,
    hits: u64,
    misses: u64,
    /// Requests completed in each [`WINDOW`].
    windows: Vec<u64>,
    /// Until the last connection finished.
    wall: Duration,
    /// Until the first connection finished: windows before it are full.
    first_end: Duration,
    failed: u64,
    problems: Vec<String>,
    /// Every [`SAMPLE_EVERY`]-th miss, for recomputation.
    sampled: Vec<Answered>,
    /// Every miss, when the plan keeps them.
    kept: Vec<Answered>,
}

impl Pass {
    fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Sampled latencies in ms, ascending: all of them, or only the
    /// hits or only the misses.
    fn latencies_ms(&self, hit: Option<bool>) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .samples
            .iter()
            .filter(|(_, h)| hit.is_none_or(|want| *h == want))
            .map(|&(ns, _)| ns as f64 / 1e6)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Median requests per second over the full windows, or the pass
    /// mean when it was shorter than two windows.
    fn throughput(&self) -> f64 {
        let full = (self.first_end.as_nanos() / WINDOW.as_nanos()) as usize;
        if full < 2 {
            return self.requests() as f64 / self.wall.as_secs_f64();
        }
        let per_window: Vec<f64> = self.windows[..full]
            .iter()
            .map(|&n| n as f64 / WINDOW.as_secs_f64())
            .collect();
        stats::median(&per_window)
    }
}

/// What the connections of a pass share.
struct Plan<'a> {
    seed: u64,
    hot_pct: u64,
    hot: &'a [Request],
    payloads: &'a [Vec<u8>],
    keep_misses: bool,
}

/// Drives one pass: [`CONNS`] closed-loop connections released
/// together. Hits must byte-equal their set-up payloads; misses must
/// decode to an answer of their kind, and every [`SAMPLE_EVERY`]-th is
/// kept for recomputation.
fn drive(addr: &str, plan: &Plan<'_>, until: Stop) -> Result<Pass, String> {
    let barrier = Barrier::new(CONNS);
    let released: OnceLock<Instant> = OnceLock::new();
    let logs = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNS)
            .map(|c| {
                let (barrier, released) = (&barrier, &released);
                s.spawn(move || -> Result<ConnLog, String> {
                    let mut client = connect(addr)?;
                    let policy = retry_policy(c);
                    let mut stream = ConnStream::new(plan.seed, c, plan.hot_pct, plan.hot);
                    let mut log = ConnLog {
                        samples: Reservoir::new(RESERVOIR, plan.seed ^ c as u64),
                        hits: 0,
                        misses: 0,
                        windows: Vec::new(),
                        end: Duration::ZERO,
                        failed: 0,
                        problems: Vec::new(),
                        sampled: Vec::new(),
                        kept: Vec::new(),
                    };
                    barrier.wait();
                    let t0 = *released.get_or_init(Instant::now);
                    loop {
                        let done = (log.hits + log.misses) as usize;
                        let more = match until {
                            Stop::Deadline {
                                seconds,
                                min_requests,
                            } => {
                                t0.elapsed().as_secs_f64() < seconds || done * CONNS < min_requests
                            }
                            Stop::Count(n) => done < n,
                        };
                        if !more {
                            break;
                        }
                        let next = stream.draw();
                        let req = match &next {
                            Next::Hot(h) => &plan.hot[*h],
                            Next::Miss(r) => r,
                        };
                        let sent = Instant::now();
                        let reply = client.call_raw_retry(req, 0, &policy);
                        let ns = sent.elapsed().as_nanos() as u64;
                        let finished = t0.elapsed();
                        let w = (finished.as_nanos() / WINDOW.as_nanos()) as usize;
                        if log.windows.len() <= w {
                            log.windows.resize(w + 1, 0);
                        }
                        log.windows[w] += 1;
                        log.end = finished;
                        let ok = match (&next, &reply) {
                            (_, Err(e)) => {
                                log.problems.push(format!("connection {c}: {e}"));
                                false
                            }
                            (Next::Hot(h), Ok(p)) => *p == plan.payloads[*h],
                            (Next::Miss(r), Ok(p)) => reference::answers(r, p),
                        };
                        if !ok {
                            log.failed += 1;
                        }
                        log.samples.push((ns, matches!(next, Next::Hot(_))));
                        match next {
                            Next::Hot(_) => log.hits += 1,
                            Next::Miss(r) => {
                                log.misses += 1;
                                if let Ok(p) = reply {
                                    if log.misses.is_multiple_of(SAMPLE_EVERY) {
                                        log.sampled.push((r.clone(), p.clone()));
                                    }
                                    if plan.keep_misses {
                                        log.kept.push((r, p));
                                    }
                                }
                            }
                        }
                    }
                    Ok(log)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<ConnLog>, String>>()
    })?;
    let mut pass = Pass {
        first_end: Duration::MAX,
        ..Pass::default()
    };
    for log in logs {
        pass.samples.extend(log.samples.into_items());
        pass.hits += log.hits;
        pass.misses += log.misses;
        if pass.windows.len() < log.windows.len() {
            pass.windows.resize(log.windows.len(), 0);
        }
        for (acc, n) in pass.windows.iter_mut().zip(log.windows) {
            *acc += n;
        }
        pass.wall = pass.wall.max(log.end);
        pass.first_end = pass.first_end.min(log.end);
        pass.failed += log.failed;
        pass.problems.extend(log.problems.into_iter().take(5));
        pass.sampled.extend(log.sampled);
        pass.kept.extend(log.kept);
    }
    Ok(pass)
}

/// Checks a pass against the server's counters and recomputes the
/// sampled misses in-process. Returns the failed-request count.
fn verify(pass: &Pass, before: &StatsSnapshot, after: &StatsSnapshot, out: &mut Outcome) -> u64 {
    for p in &pass.problems {
        out.problem(p.clone());
    }
    // A miss the server answered from its cache would be a repeated
    // key: the streams promise none. A hot request misses only once
    // misses have pushed it out of the 1024-entry LRU, and is then
    // recomputed. When both connections ask for the same evicted hot
    // request in one batch, the server computes it once and counts the
    // second as a coalesced waiter, neither hit nor miss.
    let hits = (after.cache_hit_mem + after.cache_hit_disk)
        - (before.cache_hit_mem + before.cache_hit_disk);
    let misses = after.cache_miss - before.cache_miss;
    let waiters = after.coalesce_waiters - before.coalesce_waiters;
    if hits + misses + waiters != pass.requests() || misses < pass.misses {
        out.problem(format!(
            "server counted {hits} hits, {misses} misses and {waiters} coalesced waiters, \
             clients sent {} hot requests and {} misses",
            pass.hits, pass.misses
        ));
    } else if misses + waiters > pass.misses {
        out.notes.push(format!(
            "{} hot requests recomputed after LRU eviction, {waiters} of them coalesced",
            misses + waiters - pass.misses
        ));
    }
    let library = Library::vcl018();
    let mut wrong = 0;
    for (req, payload) in &pass.sampled {
        let want = reference::response(req, &library);
        let got = Response::decode(payload);
        if want.is_err() || want.as_ref().ok() != got.as_ref().ok() {
            wrong += 1;
            if wrong <= 3 {
                out.problem(format!("recomputed {req:?}: {want:?}, server said {got:?}"));
            }
        }
    }
    pass.failed + wrong
}

/// Digest of the hot set and its answers.
fn hot_digest(hot: &[Request], payloads: &[Vec<u8>]) -> String {
    let mut bytes = Vec::new();
    for (req, p) in hot.iter().zip(payloads) {
        for part in [req.encode(), p.clone()] {
            bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&part);
        }
    }
    crate::digest(&bytes)
}

/// Runs `serve-warm` or `serve-mixed`.
///
/// # Errors
///
/// Infrastructure failures (server start, connection set-up) that
/// leave nothing to measure.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let warm = cfg.workload == Workload::ServeWarm;
    let hot = hot_set(cfg.seed);
    let mut out = Outcome::default();
    // Timed runs keep the cache in memory: an fsync on a virtual disk
    // varied twofold from minute to minute, more than any bound could
    // absorb. A traced run needs two populated disk tiers, one for its
    // untraced pass and one for its traced pass, so that each fresh
    // server starts warm without computing.
    let setups = cfg.setups().max(if cfg.trace { 2 } else { 1 });
    let disk = cfg.trace;
    let dirs: Vec<PathBuf> = (0..setups)
        .map(|k| cfg.scratch.join(format!("cache-{k}")))
        .collect();
    let mut setup_s = Vec::with_capacity(setups);
    let mut payloads: Option<Vec<Vec<u8>>> = None;
    let mut server: Option<Server> = None;
    for dir in &dirs {
        if let Some(previous) = server.take() {
            stop(previous)?;
        }
        let started = Instant::now();
        let s = start(disk.then_some(dir.as_path()), false)?;
        let p = compute_hot(&s.addr, &hot)?;
        setup_s.push(started.elapsed().as_secs_f64());
        server = Some(s);
        match &payloads {
            None => {
                for (req, payload) in hot.iter().zip(&p) {
                    if !reference::answers(req, payload) {
                        out.problem(format!("hot request {req:?} was not answered"));
                    }
                }
                payloads = Some(p);
            }
            Some(first) if *first != p => out.problem("hot-set answers differ between set-ups"),
            Some(_) => {}
        }
    }
    let payloads = payloads.expect("at least one set-up");
    let server = server.expect("at least one set-up");
    out.check_digest(cfg, &hot_digest(&hot, &payloads));
    let plan = Plan {
        seed: cfg.seed,
        hot_pct: if warm { 100 } else { MIXED_HOT_PCT },
        hot: &hot,
        payloads: &payloads,
        keep_misses: cfg.trace,
    };
    if cfg.trace {
        stop(server)?;
        traced(cfg, &plan, &dirs[setups - 2], &dirs[setups - 1], &mut out)?;
        return Ok(out);
    }

    let before = server.handle.stats().snapshot();
    let cpu0 = host::cpu_seconds()?;
    let stop_rule = Stop::Deadline {
        seconds: cfg.seconds,
        min_requests: if cfg.smoke { 10 } else { MIN_REQUESTS },
    };
    let pass = drive(&server.addr, &plan, stop_rule)?;
    let cpu_s = host::cpu_seconds()? - cpu0;
    let after = server.handle.stats().snapshot();
    stop(server)?;
    out.attempted = pass.requests();
    out.failed = verify(&pass, &before, &after, &mut out);
    out.notes.push(format!(
        "{} sampled misses recomputed in-process; latencies over a uniform sample of {} of {} requests",
        pass.sampled.len(),
        pass.samples.len(),
        pass.requests()
    ));
    Timed {
        setup_s,
        latencies_ms: pass.latencies_ms(None),
        tail_candidates: &[99.0, 90.0],
        throughput: pass.throughput(),
        cpu_s,
        ops: pass.requests(),
    }
    .report(&mut out);
    Ok(out)
}

/// The traced run: the same fixed request list twice, first against an
/// unobserved server over disk tier `untraced_dir`, then against an
/// observed one over `traced_dir`, each prewarmed from disk.
fn traced(
    cfg: &Config,
    plan: &Plan<'_>,
    untraced_dir: &Path,
    traced_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let per_conn = trace_requests(cfg);

    let a = start(Some(untraced_dir), false)?;
    prewarm(&a, plan.hot, plan.payloads, out)?;
    let before_a = a.handle.stats().snapshot();
    let untraced = drive(&a.addr, plan, Stop::Count(per_conn))?;
    let after_a = a.handle.stats().snapshot();
    stop(a)?;

    let b = start(Some(traced_dir), true)?;
    prewarm(&b, plan.hot, plan.payloads, out)?;
    let before = b.handle.stats().snapshot();
    let cpu0 = host::cpu_seconds()?;
    let pass = drive(&b.addr, plan, Stop::Count(per_conn))?;
    let cpu_s = host::cpu_seconds()? - cpu0;
    let after = b.handle.stats().snapshot();
    let rec = stop(b)?.ok_or("observed server returned no recording")?;

    out.attempted = untraced.requests() + pass.requests();
    out.failed = verify(&untraced, &before_a, &after_a, out) + verify(&pass, &before, &after, out);
    out.notes.push(format!(
        "{} sampled misses recomputed in-process",
        untraced.sampled.len() + pass.sampled.len()
    ));

    let ops = pass.requests() as f64;
    let wall_s = pass.wall.as_secs_f64();
    let mut layers = Layers::default();
    layers.add_recording(&rec, ops);
    layers.set("trace.ops", ops);
    layers.set(
        "trace.overhead_pct",
        (untraced.requests() as f64 / untraced.wall.as_secs_f64() / (ops / wall_s) - 1.0) * 100.0,
    );
    layers.set(
        "server.busy_frac",
        span_time(&rec, |n| n == "serve.batch").0 / 1e3 / wall_s,
    );
    let d = |f: fn(&StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    let compute = d(|s| s.req_map + s.req_synthesize + s.req_explore);
    let batches = d(|s| s.batches);
    layers.set("server.batch_size_mean", compute / batches);
    layers.set("server.batches_per_kreq", batches / (ops / 1000.0));
    layers.set("server.queue_high_water", after.queue_high_water as f64);
    layers.set(
        "server.reactor_wakeups_per_req",
        d(|s| s.reactor_wakeups) / ops,
    );
    layers.set("cache.hit_mem", d(|s| s.cache_hit_mem));
    layers.set("cache.hit_disk", d(|s| s.cache_hit_disk));
    let hits = d(|s| s.cache_hit_mem + s.cache_hit_disk);
    let misses = d(|s| s.cache_miss);
    layers.set("cache.hits", hits);
    layers.set("cache.miss", misses);
    layers.set("cache.hit_rate", hits / (hits + misses));
    layers.set("exec.cpu_util", cpu_s / (wall_s * host::nproc() as f64));
    let pct = |hit: bool, p: f64| {
        let ms = untraced.latencies_ms(Some(hit));
        if ms.is_empty() {
            0.0
        } else {
            stats::percentile(&ms, p)
        }
    };
    layers.set("serve.hit_latency_p99_ms", pct(true, 99.0));
    layers.set("serve.miss_latency_p50_ms", pct(false, 50.0));
    replay_layers(cfg, plan, &pass, &mut layers)?;
    out.set_layers(&layers);
    Ok(())
}

/// The layers timed from outside by replaying the traced pass's
/// requests through the public calls: framing, the result cache, the
/// mapper, the affine fit and SRAG elaboration.
fn replay_layers(
    cfg: &Config,
    plan: &Plan<'_>,
    pass: &Pass,
    layers: &mut Layers,
) -> Result<(), String> {
    let (hit_n, miss_n) = (pass.hits as f64, pass.misses as f64);
    let miss_reqs: Vec<Request> = pass.kept.iter().map(|(r, _)| r.clone()).collect();
    let miss_payloads: Vec<Vec<u8>> = pass.kept.iter().map(|(_, p)| p.clone()).collect();
    // Means over the multiset of requests sent: hot requests weigh in
    // by how often they were hit, each miss once.
    let weighted =
        |hot_us: f64, miss_us: f64| (hot_us * hit_n + miss_us * miss_n) / (hit_n + miss_n);
    let frame = |r: &Request| encode_request_frame(r, 0);
    let decode_frame = |f: &Vec<u8>| decode_request_frame(f);
    let decode = |p: &Vec<u8>| Response::decode(p);
    let encode = |r: &Response| r.encode();
    let hot_frames: Vec<Vec<u8>> = plan.hot.iter().map(frame).collect();
    let miss_frames: Vec<Vec<u8>> = miss_reqs.iter().map(frame).collect();
    let decoded = |ps: &[Vec<u8>]| -> Result<Vec<Response>, String> {
        ps.iter()
            .map(|p| Response::decode(p).map_err(|e| e.to_string()))
            .collect()
    };
    let (hot_resp, miss_resp) = (decoded(plan.payloads)?, decoded(&miss_payloads)?);
    layers.set(
        "client.encode_us",
        weighted(mean_us(plan.hot, frame), mean_us(&miss_reqs, frame)),
    );
    layers.set(
        "protocol.req_decode_us",
        weighted(
            mean_us(&hot_frames, decode_frame),
            mean_us(&miss_frames, decode_frame),
        ),
    );
    layers.set(
        "client.decode_us",
        weighted(
            mean_us(plan.payloads, decode),
            mean_us(&miss_payloads, decode),
        ),
    );
    layers.set(
        "protocol.resp_encode_us",
        weighted(mean_us(&hot_resp, encode), mean_us(&miss_resp, encode)),
    );

    // The cache tiers: misses are written first and the hot set last,
    // so the hot set is what the LRU holds when it is read back.
    let dir = cfg.scratch.join("cache-replay");
    let entries: Vec<(CacheKey, &Vec<u8>)> = pass
        .kept
        .iter()
        .map(|(r, p)| (key_of(r), p))
        .chain(plan.hot.iter().map(key_of).zip(plan.payloads))
        .collect();
    let hot_keys: Vec<CacheKey> = plan.hot.iter().map(key_of).collect();
    let open = |lru| ResultCache::new(lru, Some(&dir), 0).map_err(|e| format!("replay cache: {e}"));
    let mut cache = open(1024)?;
    layers.set(
        "cache.put_us",
        mean_us(&entries, |(k, p)| cache.put(*k, (*p).clone())),
    );
    layers.set("cache.get_us", mean_us(&hot_keys, |k| cache.get(*k)));
    drop(cache);
    // A one-entry LRU sends every lookup of the loop to the disk tier.
    let mut cold = open(1)?;
    layers.set("cache.get_disk_us", mean_us(&hot_keys, |k| cold.get(*k)));

    let all: Vec<&Request> = plan.hot.iter().chain(&miss_reqs).collect();
    let maps: Vec<AddressSequence> = all
        .iter()
        .filter_map(|r| match r {
            Request::MapSequence { sequence } => Some(AddressSequence::from_vec(sequence.clone())),
            _ => None,
        })
        .collect();
    layers.set("core.map_us", mean_us(&maps, map_sequence));
    let affine: Vec<&Vec<u32>> = all
        .iter()
        .filter_map(|r| match r {
            Request::Synthesize {
                sequence,
                generator: Generator::Affine,
                ..
            } => Some(sequence),
            _ => None,
        })
        .collect();
    layers.set(
        "affine.fit_us",
        mean_us(&affine, |s| adgen_affine::fit_sequence(s)),
    );
    let explores: Vec<(AddressSequence, ArrayShape)> = all
        .iter()
        .filter_map(|r| match r {
            Request::Explore {
                sequence,
                width,
                height,
                ..
            } => Some((
                AddressSequence::from_vec(sequence.clone()),
                ArrayShape::new(*width, *height),
            )),
            _ => None,
        })
        .collect();
    layers.set(
        "core.elaborate_ms",
        mean_us(&explores, |(seq, shape)| {
            Srag2d::map(seq, *shape, Layout::RowMajor).and_then(|m| m.elaborate())
        }) / 1e3,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten hot requests and two misses sent; one hot request had been
    /// evicted, and both connections asked for it in the same batch.
    fn evicted_and_coalesced(waiters: u64) -> Outcome {
        let pass = Pass {
            hits: 10,
            misses: 2,
            ..Pass::default()
        };
        let after = StatsSnapshot {
            cache_hit_mem: 8,
            cache_miss: 3,
            coalesce_waiters: waiters,
            ..StatsSnapshot::default()
        };
        let mut out = Outcome::default();
        assert_eq!(
            verify(&pass, &StatsSnapshot::default(), &after, &mut out),
            0
        );
        out
    }

    #[test]
    fn coalesced_waiters_complete_the_server_count() {
        let out = evicted_and_coalesced(1);
        assert!(out.correct(), "{:?}", out.problems);
        assert!(
            out.notes
                .iter()
                .any(|n| n.starts_with("2 hot requests recomputed")
                    && n.ends_with("1 of them coalesced")),
            "{:?}",
            out.notes
        );
        assert!(!evicted_and_coalesced(0).correct());
    }
}
