//! The compilation server: admission with memory-tier hits answered
//! inline, a worker pool for everything else, deadlines,
//! single-flight coalescing and the result cache.
//!
//! ## Threading
//!
//! Connection I/O is handled by a readiness-driven reactor
//! ([`crate::reactor`]): one epoll event thread, never a thread per
//! connection. Control requests (`Ping`, `Stats`, `Shutdown`) and
//! memory-tier cache hits are answered inline on the event thread:
//! `Shared::admit` looks the request up in the shared LRU right
//! after validating it. Everything else — disk-tier lookups and
//! misses — is admitted into a bounded queue and taken, one job at a
//! time, by one of `jobs` long-lived worker threads. Results travel
//! back through the event thread's completion queue
//! (`reactor::Reply`); the reactor flushes them to sockets
//! in request order, so a hit pipelined behind a miss still waits for
//! it on the wire. `Stats.batches` counts jobs taken by workers: a
//! workload of pure memory hits takes none.
//!
//! ## Single-flight coalescing
//!
//! The workers share an in-flight table keyed by [`CacheKey`]. A
//! worker that takes a job whose key is already being computed parks
//! the job in the table as a waiter and moves on. Otherwise the job
//! leads: the worker checks both cache tiers, computes on a miss,
//! stores the result, takes the key out of the table, and answers the
//! leader and every waiter with the same byte-identical payload. The
//! result is stored before the key leaves the table, so a duplicate
//! arriving at any moment either waits or hits. A leader counts one
//! cache hit or miss; its waiters count as coalesce waiters, neither
//! hit nor miss.
//!
//! Every computation is one serial `execute` call, which keeps each
//! payload independent of `jobs`. A panic inside it is contained: the
//! leader and its waiters receive a typed [`ServeError::Internal`],
//! nothing is cached, and the worker carries on.
//!
//! ## Minimization memo
//!
//! The pool owns one [`MinimizeMemo`], and every computation runs
//! inside its scope. Misses are new requests, but their two-level
//! functions mostly are not: a hit returns the stored minimization,
//! byte for byte what the minimizer would return, and a function two
//! workers need at once is minimized by one of them. The memo lives
//! and dies with the pool; nothing outside a server shares it.
//!
//! ## Deadlines
//!
//! Each admitted job carries a deadline (from the request envelope,
//! or the server default). It is checked twice: when a worker takes
//! the job (it sat in the queue too long — the work is skipped
//! entirely) and when its result is ready (the work ran long, or the
//! job waited on a leader that did — the result is *still cached*, so
//! an immediate retry is cheap). Either way the client receives a
//! typed [`ServeError::Deadline`], never a hung socket. Memory-tier
//! hits are answered at admission, never wait in a queue, and so
//! never expire.
//!
//! ## Observability
//!
//! Statistics are always-on process atomics ([`ServeStats`]), served
//! to clients via `Stats`. The one counter table in [`crate::stats`]
//! declares them all; each is bumped where its event happens, the
//! disk tier's evictions, quarantines and write failures included
//! (the `DiskStore` counts into the same `ServeStats`). When
//! [`ServeConfig::observe`] is set, each job a worker takes runs
//! under [`obs::capture`] inside a `serve.batch` span; the pool owner
//! splices the recordings in admission order and returns the
//! [`Recording`] from [`ServerHandle::join`]. Every table row with an
//! obs counter is mirrored from the atomics in one `add` once both
//! the pool and the reactor have exited — after the drain, so what
//! the reactor counts while connections close is mirrored too — and
//! the totals are invariant under `--jobs`, including the queue
//! high-water counter, whose *total* equals the high-water mark.
//!
//! [`Recording`]: obs::Recording

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use adgen_affine::{fit_sequence, price_affine, AffinePriceError};
use adgen_core::mapper::map_sequence;
use adgen_exec::resolve_jobs;
use adgen_explorer::{evaluate, pareto_frontier, EvaluateOptions};
use adgen_netlist::{Library, Price};
use adgen_obs as obs;
use adgen_seq::{AddressSequence, ArrayShape};
use adgen_synth::{price_cyclic, EffortBudget, Encoding, MinimizeMemo, OutputStyle, PriceError};

use crate::cache::{CacheKey, LruCache, ResultCache, Tier};
use crate::error::ServeError;
use crate::faults;
use crate::protocol::{self, MapOutcome, Request, Response, StatsSnapshot, SynthReport};
use crate::reactor::{EpollIo, Reply};
pub use crate::stats::ServeStats;
use crate::unpoisoned;

/// Longest admissible address sequence. Bounds both memory and the
/// worst-case synthesis time of a single request.
pub const MAX_SEQUENCE_LEN: usize = 4096;

/// One-hot state registers beyond this many states would overflow the
/// encoder's 64-bit code space.
const MAX_ONE_HOT_STATES: usize = 64;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads that look up and compute queued requests
    /// (`0` = all cores).
    pub jobs: usize,
    /// Admission-queue capacity; pushes beyond it are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_cap: usize,
    /// Deadline applied when a request's envelope says `0`;
    /// `0` here means effectively unlimited.
    pub default_deadline_ms: u32,
    /// In-memory LRU capacity, entries.
    pub cache_entries: usize,
    /// On-disk cache directory; `None` disables the disk tier.
    pub cache_dir: Option<PathBuf>,
    /// On-disk cache size bound in bytes; `0` means unbounded.
    /// Oldest-generation entries are evicted once the payload bytes
    /// on disk would exceed the bound.
    pub disk_cap_bytes: u64,
    /// Record an adgen-obs session of the workers' jobs and return it
    /// from [`ServerHandle::join`].
    pub observe: bool,
    /// Per-connection I/O deadline, milliseconds: a connection that
    /// makes no progress (no complete frame parsed, no completion
    /// delivered, no bytes flushed) for this long is reaped — with a
    /// typed [`ServeError::IoTimeout`] if it left a partial frame
    /// behind (slowloris), silently otherwise. `0` disables reaping.
    pub conn_idle_ms: u64,
    /// Fault-injection plan for the disk tier and the compute site;
    /// `None` in production.
    pub faults: Option<Arc<crate::faults::FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            queue_cap: 256,
            default_deadline_ms: 0,
            cache_entries: 1024,
            cache_dir: None,
            disk_cap_bytes: 0,
            observe: false,
            conn_idle_ms: 0,
            faults: None,
        }
    }
}

/// One admitted compute job.
struct Job {
    request: Request,
    key: CacheKey,
    deadline: Duration,
    admitted: Instant,
    reply: Reply,
}

impl Job {
    fn waited_ms(&self) -> u64 {
        self.admitted.elapsed().as_millis() as u64
    }

    fn expired(&self) -> bool {
        self.admitted.elapsed() > self.deadline
    }

    fn fail(self, err: ServeError) {
        self.reply.send(Response::Error(err).encode());
    }
}

/// The bounded admission queue: a mutex-guarded deque plus a condvar
/// idle workers sleep on.
pub(crate) struct AdmissionQueue {
    state: Mutex<QueueState>,
    nonempty: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: std::collections::VecDeque<Job>,
    closed: bool,
}

impl AdmissionQueue {
    fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                jobs: std::collections::VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits a job, or rejects it when at capacity or closed.
    /// Returns the post-push depth on success (for high-water
    /// tracking).
    fn push(&self, job: Job) -> Result<usize, ServeError> {
        let mut state = unpoisoned(self.state.lock());
        if state.closed {
            return Err(ServeError::Internal("server is shutting down".to_string()));
        }
        if state.jobs.len() >= self.capacity {
            return Err(ServeError::QueueFull {
                capacity: self.capacity as u32,
            });
        }
        state.jobs.push_back(job);
        let depth = state.jobs.len();
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Takes the oldest job, blocking while the queue is empty.
    /// `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut state = unpoisoned(self.state.lock());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = unpoisoned(self.nonempty.wait(state));
        }
    }

    /// Closes the queue: future pushes fail, the workers drain what
    /// remains and exit.
    fn close(&self) {
        unpoisoned(self.state.lock()).closed = true;
        self.nonempty.notify_all();
    }
}

/// A running server. Dropping the handle does not stop the server;
/// send [`Request::Shutdown`] (or use the handle with
/// [`join`](ServerHandle::join) after a client-initiated shutdown).
pub struct ServerHandle {
    local_addr: SocketAddr,
    stats: Arc<ServeStats>,
    io: std::thread::JoinHandle<()>,
    pool: std::thread::JoinHandle<Option<obs::Recording>>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live statistics.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Waits for shutdown, returning the final statistics and — when
    /// the server was observing — the workers' obs recording.
    ///
    /// # Errors
    ///
    /// A panicked worker thread surfaces as
    /// [`ServeError::WorkerPanicked`] naming the thread, instead of
    /// re-panicking the joining thread.
    pub fn join(self) -> Result<(StatsSnapshot, Option<obs::Recording>), ServeError> {
        let mut panicked: Vec<&str> = Vec::new();
        if self.io.join().is_err() {
            panicked.push("io");
        }
        let rec = match self.pool.join() {
            Ok(rec) => rec,
            Err(_) => {
                panicked.push("pool");
                None
            }
        };
        if !panicked.is_empty() {
            return Err(ServeError::WorkerPanicked(panicked.join(", ")));
        }
        // Both threads have exited, so nothing counts any more: mirror
        // the atomics into the typed obs counters, one `add` per table
        // row, so the totals are jobs-invariant. The high-water
        // counter's total IS the high-water mark.
        let stats = self.stats.snapshot();
        let rec = rec.map(|mut rec| {
            for (_, ctr, v) in stats.rows() {
                if let Some(ctr) = ctr {
                    rec.add(ctr, v);
                }
            }
            rec
        });
        Ok((stats, rec))
    }
}

/// Shared server state, visible to the reactor.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) stats: Arc<ServeStats>,
    /// The result cache's memory tier, shared with the workers.
    memory: Arc<Mutex<LruCache>>,
    queue: AdmissionQueue,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
}

impl Shared {
    /// Whether a shutdown has been initiated.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Validates one compute request, then answers it from the memory
    /// tier — `Ok(Some(payload))`, and `reply` is dropped unused — or
    /// admits it into the queue as a job that will answer through
    /// `reply` (`Ok(None)`). On `Err` the reply handle is dropped
    /// unanswered too: the caller encodes the error into the
    /// connection's slot instead.
    pub(crate) fn admit(
        &self,
        request: Request,
        deadline_ms: u32,
        reply: Reply,
    ) -> Result<Option<Vec<u8>>, ServeError> {
        validate(&request)?;

        let req_ctr = match &request {
            Request::MapSequence { .. } => &self.stats.req_map,
            Request::Synthesize { .. } => &self.stats.req_synthesize,
            Request::Explore { .. } => &self.stats.req_explore,
            _ => unreachable!("is_compute"),
        };
        let key = CacheKey::for_request(&request.encode(), request.effort_steps());
        let hit = unpoisoned(self.memory.lock()).get(key);
        if let Some(payload) = hit {
            req_ctr.fetch_add(1, Ordering::Relaxed);
            self.stats.cache_hit_mem.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(payload));
        }

        let effective_ms = if deadline_ms > 0 {
            deadline_ms
        } else {
            self.config.default_deadline_ms
        };
        let deadline = if effective_ms == 0 {
            Duration::from_secs(u64::from(u32::MAX))
        } else {
            Duration::from_millis(u64::from(effective_ms))
        };
        let job = Job {
            request,
            key,
            deadline,
            admitted: Instant::now(),
            reply,
        };
        match self.queue.push(job) {
            Ok(depth) => {
                req_ctr.fetch_add(1, Ordering::Relaxed);
                self.stats.observe_queue_depth(depth as u64);
                Ok(None)
            }
            Err(e) => {
                if matches!(e, ServeError::QueueFull { .. }) {
                    self.stats.shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }
}

/// Binds the listener and spawns the reactor and worker-pool threads.
///
/// # Errors
///
/// Propagates bind, cache-directory and reactor-setup failures.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    // Open the cache eagerly so a bad directory fails at startup, not
    // on the first request. Entries its rescan quarantines count in
    // `stats` before any job runs.
    let stats = Arc::new(ServeStats::default());
    let cache = ResultCache::new_with(
        config.cache_entries,
        config.cache_dir.as_deref(),
        config.disk_cap_bytes,
        config.faults.clone(),
        Arc::clone(&stats),
    )?;
    let io = EpollIo::new(listener)?;

    let shared = Arc::new(Shared {
        queue: AdmissionQueue::new(config.queue_cap),
        stats: Arc::clone(&stats),
        memory: cache.memory_tier(),
        shutdown: AtomicBool::new(false),
        local_addr,
        config,
    });

    let pool = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("adgen-serve-pool".to_string())
            .spawn(move || run_pool(&shared, cache))?
    };

    let io = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("adgen-serve-io".to_string())
            .spawn(move || io.run(&shared))?
    };

    Ok(ServerHandle {
        local_addr,
        stats,
        io,
        pool,
    })
}

/// What the workers share.
struct Pool<'a> {
    shared: &'a Shared,
    library: Library,
    /// Both cache tiers. Disk I/O happens under this lock, which the
    /// event thread never takes: it reads the memory tier through
    /// [`Shared::admit`] alone.
    cache: Mutex<ResultCache>,
    /// Keys being computed, each with the jobs waiting on it.
    in_flight: Mutex<HashMap<CacheKey, Vec<Job>>>,
    /// Minimizations shared by every computation this pool runs.
    memo: MinimizeMemo,
    /// Each taken job's recording with its admission instant, when
    /// observing.
    recordings: Mutex<Vec<(Instant, obs::Recording)>>,
}

/// Runs `jobs` workers until the queue is closed and drained: this
/// thread and `jobs - 1` more. Returns the spliced recording when
/// observing.
fn run_pool(shared: &Shared, cache: ResultCache) -> Option<obs::Recording> {
    if shared.config.observe {
        obs::start();
    }
    let pool = Pool {
        shared,
        library: Library::vcl018(),
        cache: Mutex::new(cache),
        in_flight: Mutex::new(HashMap::new()),
        memo: MinimizeMemo::new(),
        recordings: Mutex::new(Vec::new()),
    };
    std::thread::scope(|scope| {
        for _ in 1..resolve_jobs(shared.config.jobs) {
            let spawned = std::thread::Builder::new()
                .name("adgen-serve-worker".to_string())
                .spawn_scoped(scope, || pool.work());
            if let Err(e) = spawned {
                // Fewer workers is slower, not wrong.
                eprintln!("adgen-serve: could not start a worker ({e}); continuing with fewer");
                break;
            }
        }
        pool.work();
    });
    // The memo's pages go back to the OS with the pool, not whenever
    // some later computation happens to trim the malloc arenas.
    let Pool {
        memo, recordings, ..
    } = pool;
    drop(memo);
    release_freed_memory();

    if !shared.config.observe {
        return None;
    }
    let mut recordings = unpoisoned(recordings.into_inner());
    recordings.sort_by_key(|(admitted, _)| *admitted);
    for (_, rec) in recordings {
        obs::splice(rec);
    }
    Some(obs::take())
}

impl Pool<'_> {
    /// One worker: takes jobs one at a time until the queue closes.
    fn work(&self) {
        while let Some(job) = self.shared.queue.pop() {
            self.shared.stats.batches.fetch_add(1, Ordering::Relaxed);
            let admitted = job.admitted;
            let ((), rec) = obs::capture(|| {
                let _span = obs::span("serve.batch");
                self.take(job);
            });
            if self.shared.config.observe {
                unpoisoned(self.recordings.lock()).push((admitted, rec));
            }
        }
    }

    /// Answers one job: expired at dequeue, parked behind the leader
    /// of its key, or led to a payload shared with its waiters.
    fn take(&self, job: Job) {
        let stats = &self.shared.stats;
        if job.expired() {
            stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
            let waited_ms = job.waited_ms();
            job.fail(ServeError::Deadline { waited_ms });
            return;
        }
        let key = job.key;
        {
            let mut in_flight = self.in_flight();
            if let Some(waiters) = in_flight.get_mut(&key) {
                stats.coalesce_waiters.fetch_add(1, Ordering::Relaxed);
                waiters.push(job);
                return;
            }
            in_flight.insert(key, Vec::new());
        }
        let (payload, computed) = self.lead(&job);
        // Only the leader takes its key out of the table, so the entry
        // is there; an absent one would have no waiters to answer.
        let waiters = self.in_flight().remove(&key).unwrap_or_default();
        if !waiters.is_empty() {
            stats.coalesce_leaders.fetch_add(1, Ordering::Relaxed);
        }
        for member in std::iter::once(job).chain(waiters) {
            if member.expired() {
                stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
                let waited_ms = member.waited_ms();
                member.fail(ServeError::Deadline { waited_ms });
            } else {
                member.reply.send(payload.clone());
            }
        }
        if computed {
            release_freed_memory();
        }
    }

    /// The leader's payload — a hit from either tier, or a fresh
    /// computation, cached before it is returned — and whether it was
    /// computed. A computed result is cached even when every member's
    /// deadline lapsed meanwhile, so the clients' retries hit. A
    /// panicking computation is answered with a typed error and never
    /// cached.
    fn lead(&self, job: &Job) -> (Vec<u8>, bool) {
        let stats = &self.shared.stats;
        let hit = self.cache().get(job.key);
        if let Some((payload, tier)) = hit {
            let ctr = match tier {
                Tier::Memory => &stats.cache_hit_mem,
                Tier::Disk => &stats.cache_hit_disk,
            };
            ctr.fetch_add(1, Ordering::Relaxed);
            return (payload, false);
        }
        stats.cache_miss.fetch_add(1, Ordering::Relaxed);
        let computed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Only `stall` and `panic` mean anything at this site, and
            // both act inside `fire`.
            let _ = faults::fire(&self.shared.config.faults, "serve.compute");
            self.memo
                .scope(|| execute(&job.request, &self.library))
                .encode()
        }));
        let payload = match computed {
            Ok(payload) => {
                self.cache().put(job.key, payload.clone());
                payload
            }
            Err(_) => {
                Response::Error(ServeError::Internal("computation panicked".to_string())).encode()
            }
        };
        (payload, true)
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, ResultCache> {
        unpoisoned(self.cache.lock())
    }

    fn in_flight(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, Vec<Job>>> {
        unpoisoned(self.in_flight.lock())
    }
}

/// Returns the heap pages a computation freed to the OS. Each worker
/// allocates from its own malloc arena, and an arena keeps what its
/// largest computations freed, so without this the resident set
/// creeps up with every miss computed, once per worker.
fn release_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: takes only an integer; glibc walks its arenas under
        // their own locks, so any thread may call it at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Executes one compute request. Infallible at this level: failures
/// become typed [`Response::Error`] payloads.
fn execute(request: &Request, library: &Library) -> Response {
    match request {
        Request::MapSequence { sequence } => {
            let _span = obs::span_arg("serve.exec.map", sequence.len() as u64);
            let seq = AddressSequence::from_vec(sequence.clone());
            match map_sequence(&seq) {
                Ok(m) => Response::Mapped(MapOutcome::Mapped {
                    registers: m
                        .spec
                        .registers
                        .iter()
                        .map(|r| r.lines().to_vec())
                        .collect(),
                    div_count: m.spec.div_count as u32,
                    pass_count: m.spec.pass_count as u32,
                    // `validate` keeps every address below `u32::MAX`.
                    num_lines: m.spec.num_lines as u32,
                }),
                Err(e) => Response::Mapped(MapOutcome::Violation {
                    reason: e.to_string(),
                }),
            }
        }
        Request::Synthesize {
            sequence,
            encoding,
            num_lines,
            effort_steps,
            generator: protocol::Generator::Fsm,
        } => {
            let _span = obs::span_arg("serve.exec.synthesize", sequence.len() as u64);
            let budget = if *effort_steps == 0 {
                EffortBudget::synthesis_default()
            } else {
                EffortBudget::steps(*effort_steps)
            };
            let style = OutputStyle::SelectLines {
                num_lines: *num_lines as usize,
            };
            match price_cyclic(sequence, *encoding, style, budget, library) {
                Ok(p) => synthesized(p.price, p.fsm.truncated),
                Err(PriceError::Synth(e)) => Response::Error(ServeError::BadRequest(e.to_string())),
                Err(PriceError::Timing(e)) => Response::Error(ServeError::Internal(e.to_string())),
            }
        }
        // The affine AGU beside a residual FSM. No array shape travels
        // with the request, so unlike the explorer's affine candidate
        // the price carries no row/column decoder delay. The residual
        // FSM always runs at the default effort.
        Request::Synthesize {
            sequence,
            generator: protocol::Generator::Affine,
            ..
        } => {
            let _span = obs::span_arg("serve.exec.synthesize.affine", sequence.len() as u64);
            let fit = match fit_sequence(sequence) {
                Ok(fit) => fit,
                Err(e) => return Response::Error(ServeError::BadRequest(e.to_string())),
            };
            match price_affine(&fit, library) {
                Ok(p) => synthesized(p.price, p.truncated),
                Err(AffinePriceError::Residual(e)) => {
                    Response::Error(ServeError::BadRequest(e.to_string()))
                }
                // Elaboration or timing: the message is the inner error's.
                Err(e) => Response::Error(ServeError::Internal(e.to_string())),
            }
        }
        Request::Explore {
            sequence,
            width,
            height,
            fsm_state_limit,
        } => {
            let _span = obs::span_arg("serve.exec.explore", sequence.len() as u64);
            let seq = AddressSequence::from_vec(sequence.clone());
            let shape = ArrayShape::new(*width, *height);
            let mut options = EvaluateOptions::default();
            if *fsm_state_limit > 0 {
                options.fsm_state_limit = *fsm_state_limit as usize;
            }
            // Serial evaluation: one request per worker is the only
            // parallelism, keeping every response payload independent
            // of the worker count.
            let eval = evaluate(&seq, shape, library, &options);
            let pareto = pareto_frontier(&eval.candidates)
                .into_iter()
                .map(|c| protocol::CandidateRow {
                    architecture: c.architecture.to_string(),
                    delay_ps: c.delay_ps,
                    area: c.area,
                    flip_flops: c.flip_flops as u32,
                })
                .collect();
            Response::Explored {
                pareto,
                rejected: eval.rejected.len() as u32,
            }
        }
        // Control kinds never reach the workers.
        Request::Ping | Request::Stats | Request::Shutdown => Response::Error(
            ServeError::Internal("control request routed to a worker".to_string()),
        ),
    }
}

/// The `Synthesize` answer for `price`.
fn synthesized(price: Price, truncated: bool) -> Response {
    Response::Synthesized(SynthReport {
        area: price.area,
        delay_ps: price.delay_ps,
        flip_flops: price.flip_flops as u32,
        truncated,
    })
}

/// Validates a compute request before admission.
fn validate(request: &Request) -> Result<(), ServeError> {
    let bad = |msg: String| Err(ServeError::BadRequest(msg));
    match request {
        Request::MapSequence { sequence } => {
            if sequence.is_empty() {
                return bad("sequence is empty".to_string());
            }
            if sequence.len() > MAX_SEQUENCE_LEN {
                return bad(format!(
                    "sequence length {} exceeds the admissible maximum {MAX_SEQUENCE_LEN}",
                    sequence.len()
                ));
            }
            // The reply's `num_lines` is the largest address plus one,
            // a `u32` on the wire.
            if sequence.contains(&u32::MAX) {
                return bad(format!(
                    "address {} leaves no room for num_lines (largest address + 1) in a u32",
                    u32::MAX
                ));
            }
        }
        Request::Synthesize {
            sequence,
            encoding,
            num_lines,
            generator,
            ..
        } => {
            if sequence.is_empty() {
                return bad("sequence is empty".to_string());
            }
            if sequence.len() > MAX_SEQUENCE_LEN {
                return bad(format!(
                    "sequence length {} exceeds the admissible maximum {MAX_SEQUENCE_LEN}",
                    sequence.len()
                ));
            }
            // The one-hot code space only bounds the dedicated FSM;
            // the affine pipeline's residual machine is always binary.
            if *generator == protocol::Generator::Fsm
                && *encoding == Encoding::OneHot
                && sequence.len() > MAX_ONE_HOT_STATES
            {
                return bad(format!(
                    "one-hot encoding is limited to {MAX_ONE_HOT_STATES} states, got {}",
                    sequence.len()
                ));
            }
            if *num_lines == 0 || *num_lines > 4096 {
                return bad(format!("num_lines {num_lines} out of range 1..=4096"));
            }
        }
        Request::Explore {
            sequence,
            width,
            height,
            ..
        } => {
            if sequence.is_empty() {
                return bad("sequence is empty".to_string());
            }
            if sequence.len() > MAX_SEQUENCE_LEN {
                return bad(format!(
                    "sequence length {} exceeds the admissible maximum {MAX_SEQUENCE_LEN}",
                    sequence.len()
                ));
            }
            if *width == 0 || *height == 0 || *width > 1024 || *height > 1024 {
                return bad(format!("array shape {width}x{height} out of range"));
            }
        }
        _ => {}
    }
    Ok(())
}

/// Flips the shutdown flag and closes the admission queue. Safe to
/// call repeatedly; only the first call acts. The reactor notices the
/// flag on its next tick and exits once every connection has
/// drained.
pub(crate) fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    shared.queue.close();
    // A throwaway connection to ourselves guarantees at least one
    // more readiness event, so even an idle event thread re-checks
    // the flag promptly.
    let _ = std::net::TcpStream::connect(shared.local_addr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::CompletionQueue;

    fn dummy_job(queue: &Arc<CompletionQueue>, ticket: u64) -> Job {
        Job {
            request: Request::MapSequence { sequence: vec![0] },
            key: CacheKey([0; 16]),
            deadline: Duration::from_secs(60),
            admitted: Instant::now(),
            reply: Reply::new(Arc::clone(queue), 0, ticket),
        }
    }

    #[test]
    fn queue_rejects_pushes_beyond_capacity() {
        let (cq, _wake_rx) = CompletionQueue::loopback();
        let q = AdmissionQueue::new(2);
        assert_eq!(q.push(dummy_job(&cq, 1)).unwrap(), 1);
        assert_eq!(q.push(dummy_job(&cq, 2)).unwrap(), 2);
        match q.push(dummy_job(&cq, 3)) {
            Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected QueueFull, got {:?}", other.map(|_| ())),
        }
        // Taking a job frees capacity again.
        assert!(q.pop().is_some());
        assert_eq!(q.push(dummy_job(&cq, 4)).unwrap(), 2);
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains() {
        let (cq, _wake_rx) = CompletionQueue::loopback();
        let q = AdmissionQueue::new(4);
        q.push(dummy_job(&cq, 1)).unwrap();
        q.close();
        assert!(matches!(
            q.push(dummy_job(&cq, 2)),
            Err(ServeError::Internal(_))
        ));
        assert!(q.pop().is_some(), "drains remaining work");
        assert!(q.pop().is_none(), "then reports closed");
    }

    #[test]
    fn pop_takes_jobs_in_admission_order() {
        let (cq, _wake_rx) = CompletionQueue::loopback();
        let q = AdmissionQueue::new(8);
        for ticket in 0..3 {
            q.push(dummy_job(&cq, ticket)).unwrap();
        }
        q.close();
        while let Some(job) = q.pop() {
            job.reply.send(Vec::new());
        }
        let order: Vec<u64> = cq.drain().iter().map(|c| c.ticket).collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn validate_rejects_degenerate_requests() {
        assert!(validate(&Request::MapSequence { sequence: vec![] }).is_err());
        assert!(validate(&Request::Synthesize {
            sequence: (0..100).collect(),
            encoding: Encoding::OneHot,
            num_lines: 128,
            effort_steps: 0,
            generator: protocol::Generator::Fsm,
        })
        .is_err());
        // The one-hot cap is an FSM-pipeline limit; the affine
        // pipeline ignores the encoding and admits the same length.
        assert!(validate(&Request::Synthesize {
            sequence: (0..100).collect(),
            encoding: Encoding::OneHot,
            num_lines: 128,
            effort_steps: 0,
            generator: protocol::Generator::Affine,
        })
        .is_ok());
        assert!(validate(&Request::Explore {
            sequence: vec![0, 1],
            width: 0,
            height: 4,
            fsm_state_limit: 0,
        })
        .is_err());
        assert!(validate(&Request::MapSequence {
            sequence: vec![0; MAX_SEQUENCE_LEN + 1],
        })
        .is_err());
        assert!(validate(&Request::MapSequence {
            sequence: vec![0, 0, 1, 1],
        })
        .is_ok());
    }

    #[test]
    fn validate_rejects_map_requests_whose_line_count_overflows_u32() {
        match validate(&Request::MapSequence {
            sequence: vec![0, u32::MAX, 1],
        }) {
            Err(ServeError::BadRequest(msg)) => assert!(msg.contains("num_lines"), "{msg}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // One below still fits: num_lines = u32::MAX.
        assert!(validate(&Request::MapSequence {
            sequence: vec![0, u32::MAX - 1],
        })
        .is_ok());
        match execute(
            &Request::MapSequence {
                sequence: vec![u32::MAX - 1, u32::MAX - 1],
            },
            &Library::vcl018(),
        ) {
            Response::Mapped(MapOutcome::Mapped { num_lines, .. }) => {
                assert_eq!(num_lines, u32::MAX);
            }
            other => panic!("expected a mapping, got {other:?}"),
        }
    }

    /// Server state over a fresh cache, with no reactor attached.
    fn unbound(config: ServeConfig) -> (Shared, ResultCache) {
        let stats = Arc::new(ServeStats::default());
        let cache = ResultCache::new_with(
            config.cache_entries,
            config.cache_dir.as_deref(),
            0,
            config.faults.clone(),
            Arc::clone(&stats),
        )
        .unwrap();
        let shared = Shared {
            stats,
            memory: cache.memory_tier(),
            queue: AdmissionQueue::new(16),
            shutdown: AtomicBool::new(false),
            local_addr: "127.0.0.1:0".parse().unwrap(),
            config,
        };
        (shared, cache)
    }

    #[test]
    fn identical_misses_wait_on_the_in_flight_leader() {
        // Two workers over a closed queue of K identical misses. The
        // leader's computation is stalled, so the other worker takes
        // every duplicate while the key is still in flight: exactly
        // one computation, whichever worker leads.
        const K: u64 = 4;
        let dir = std::env::temp_dir().join(format!("adgen-serve-coalesce-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = crate::faults::FaultPlan::parse("stall@serve.compute#1").unwrap();
        let (shared, cache) = unbound(ServeConfig {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            faults: Some(Arc::new(plan)),
            ..ServeConfig::default()
        });
        let (cq, _wake_rx) = CompletionQueue::loopback();
        let identical = Request::Synthesize {
            sequence: vec![0, 1, 2, 3],
            encoding: Encoding::Gray,
            num_lines: 4,
            effort_steps: 0,
            generator: protocol::Generator::Fsm,
        };
        for ticket in 0..K {
            let reply = Reply::new(Arc::clone(&cq), 0, ticket);
            assert_eq!(shared.admit(identical.clone(), 0, reply).unwrap(), None);
        }
        shared.queue.close();
        run_pool(&shared, cache);

        let completions = cq.drain();
        assert_eq!(completions.len(), K as usize, "every job was answered");
        for c in &completions[1..] {
            assert_eq!(
                c.payload, completions[0].payload,
                "waiters get the leader's exact bytes"
            );
        }
        assert!(matches!(
            Response::decode(&completions[0].payload).unwrap(),
            Response::Synthesized(_)
        ));
        let s = shared.stats.snapshot();
        assert_eq!(s.cache_miss, 1, "one computation");
        assert_eq!((s.coalesce_leaders, s.coalesce_waiters), (1, K - 1));
        assert_eq!(s.cache_hit_mem + s.cache_hit_disk, 0);
        assert_eq!(s.batches, K, "every job was taken by a worker");

        // The single computation populated the disk tier: a fresh pool
        // over it answers the same request without computing.
        let (shared2, cache2) = unbound(ServeConfig {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let reply = Reply::new(Arc::clone(&cq), 0, 10);
        assert_eq!(shared2.admit(identical, 0, reply).unwrap(), None);
        shared2.queue.close();
        run_pool(&shared2, cache2);
        let replay = cq.drain();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].payload, completions[0].payload);
        let s2 = shared2.stats.snapshot();
        assert_eq!((s2.cache_miss, s2.cache_hit_disk), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_hits_are_answered_at_admission() {
        let (shared, cache) = unbound(ServeConfig::default());
        let (cq, _wake_rx) = CompletionQueue::loopback();
        let request = Request::MapSequence {
            sequence: vec![0, 0, 1, 1],
        };
        let miss = Reply::new(Arc::clone(&cq), 0, 0);
        assert_eq!(shared.admit(request.clone(), 0, miss).unwrap(), None);
        shared.queue.close();
        run_pool(&shared, cache);
        let computed = cq.drain().remove(0).payload;

        // The queue is closed, so only the memory tier can answer.
        let hit = Reply::new(Arc::clone(&cq), 0, 1);
        assert_eq!(shared.admit(request, 0, hit).unwrap(), Some(computed));
        assert!(cq.drain().is_empty(), "a hit needs no completion");
        let s = shared.stats.snapshot();
        assert_eq!((s.req_map, s.cache_miss, s.cache_hit_mem), (2, 1, 1));
        assert_eq!(s.batches, 1, "only the miss reached a worker");
    }

    #[test]
    fn join_reports_a_panicked_worker_as_a_typed_error() {
        // Regression: join() used to `.expect()` the thread results,
        // turning one worker panic into a second panic in the caller.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let io = std::thread::Builder::new()
            .spawn(|| panic!("deliberate test panic"))
            .unwrap();
        while !io.is_finished() {
            std::thread::yield_now();
        }
        std::panic::set_hook(prev_hook);
        let pool = std::thread::Builder::new().spawn(|| None).unwrap();
        let handle = ServerHandle {
            local_addr: "127.0.0.1:0".parse().unwrap(),
            stats: Arc::new(ServeStats::default()),
            io,
            pool,
        };
        match handle.join() {
            Err(ServeError::WorkerPanicked(which)) => assert!(which.contains("io")),
            Err(other) => panic!("expected WorkerPanicked, got {other}"),
            Ok(_) => panic!("expected WorkerPanicked, got Ok"),
        }
    }

    /// The first `per_conn` misses of each of the `serve-mixed`
    /// benchmark's two connections, drawn as it draws them: 80 % of
    /// draws pick a hot request (skipped here), the rest are FSMs over
    /// permutations of 16 to 96 states, affine nests, explores of
    /// rotated 8×8 and 16×16 paper workloads, and ring mappings, each
    /// connection drawing sizes from its own residue class.
    fn mixed_misses(seed: u64, per_conn: usize) -> Vec<Request> {
        use adgen_exec::Prng;
        use adgen_seq::workloads;
        let lane = |prng: &mut Prng, conn: u64, lo: u64, hi: u64| {
            let first = lo + (conn + 2 - lo % 2) % 2;
            (first + 2 * prng.next_range((hi - first) / 2 + 1)) as u32
        };
        let encoding = |prng: &mut Prng, one_hot_ok: bool| match prng.next_range(if one_hot_ok {
            3
        } else {
            2
        }) {
            0 => Encoding::Binary,
            1 => Encoding::Gray,
            _ => Encoding::OneHot,
        };
        let permutation = |prng: &mut Prng, n: u32| {
            let mut v: Vec<u32> = (0..n).collect();
            prng.shuffle(&mut v);
            v
        };
        let miss = |prng: &mut Prng, conn: u64| match prng.next_range(10) {
            0..=2 => {
                let n = lane(prng, conn, 16, 96);
                Request::Synthesize {
                    sequence: permutation(prng, n),
                    encoding: encoding(prng, n <= 64),
                    num_lines: n,
                    effort_steps: 0,
                    generator: protocol::Generator::Fsm,
                }
            }
            3 | 4 => {
                let start = lane(prng, conn, 0, 1023);
                let (inner, a) = (prng.next_in(2, 33) as u32, prng.next_in(1, 9) as u32);
                let (outer, b) = (prng.next_in(2, 33) as u32, prng.next_in(1, 65) as u32);
                let sequence: Vec<u32> = (0..outer)
                    .flat_map(|j| (0..inner).map(move |i| start + i * a + j * b))
                    .collect();
                let num_lines = sequence.iter().max().copied().unwrap_or(0) + 1;
                Request::Synthesize {
                    sequence,
                    encoding: encoding(prng, true),
                    num_lines,
                    effort_steps: 0,
                    generator: protocol::Generator::Affine,
                }
            }
            draw @ 5..=7 => {
                let side = if draw == 7 { 16 } else { 8 };
                let shape = ArrayShape::new(side, side);
                let base = match prng.next_range(6) {
                    0 => workloads::raster(shape),
                    1 => workloads::motion_est_read(shape, 2, 2, 0),
                    2 => workloads::transpose_scan(shape),
                    3 => workloads::serpentine(shape),
                    4 => workloads::rotate90(shape),
                    _ => workloads::block_scan(shape, 4, 2),
                };
                let mut sequence = base.as_slice().to_vec();
                let start = prng.next_range(sequence.len() as u64) as usize;
                sequence.rotate_left(start);
                Request::Explore {
                    sequence,
                    width: side,
                    height: side,
                    fsm_state_limit: lane(prng, conn, 1, 64),
                }
            }
            _ => {
                let n = lane(prng, conn, 16, 256);
                let ring = permutation(prng, n);
                let hold = 1 + prng.next_range(4) as usize;
                let mut sequence: Vec<u32> = ring
                    .iter()
                    .chain(&ring)
                    .flat_map(|&a| std::iter::repeat_n(a, hold))
                    .collect();
                if prng.one_in(5) {
                    let at = prng.next_range(u64::from(n)) as usize * hold;
                    sequence.insert(at, sequence[at]);
                }
                Request::MapSequence { sequence }
            }
        };
        let mut out = Vec::new();
        let mut streams: Vec<Prng> = (0..2).map(|c| Prng::for_stream(seed, 1 + c)).collect();
        let mut issued = vec![std::collections::HashSet::new(); 2];
        for _ in 0..per_conn {
            for (conn, prng) in streams.iter_mut().enumerate() {
                while prng.next_range(100) < 80 {
                    prng.next_range(512);
                }
                // A repeated miss is drawn again, with no hot draw
                // between.
                loop {
                    let request = miss(prng, conn as u64);
                    let key = CacheKey::for_request(&request.encode(), request.effort_steps());
                    if issued[conn].insert(key) {
                        out.push(request);
                        break;
                    }
                }
            }
        }
        out
    }

    /// FSM, affine and explore requests whose sequences revisit
    /// addresses, so that select lines are multi-state functions and
    /// the explorer's ROMs hold repeated words.
    fn repeating_addresses(seed: u64, count: usize) -> Vec<Request> {
        let mut prng = adgen_exec::Prng::new(seed);
        (0..count)
            .map(|_| {
                // A short pool of addresses, revisited along the way.
                let lines = prng.next_in(2, 17) as u32;
                let len = prng.next_in(u64::from(lines), 3 * u64::from(lines) + 1) as usize;
                let sequence: Vec<u32> = (0..len)
                    .map(|_| prng.next_range(u64::from(lines)) as u32)
                    .collect();
                match prng.next_range(3) {
                    0 => Request::Synthesize {
                        sequence,
                        encoding: [Encoding::Binary, Encoding::Gray][prng.next_range(2) as usize],
                        num_lines: lines,
                        effort_steps: [0, 200][prng.next_range(2) as usize],
                        generator: protocol::Generator::Fsm,
                    },
                    1 => Request::Synthesize {
                        sequence,
                        encoding: Encoding::Gray,
                        num_lines: lines,
                        effort_steps: 0,
                        generator: protocol::Generator::Affine,
                    },
                    _ => Request::Explore {
                        sequence,
                        width: 4,
                        height: 4,
                        fsm_state_limit: 0,
                    },
                }
            })
            .collect()
    }

    /// Runs `requests` through `execute` without a memo, then again on
    /// two threads that share one memo and take alternate requests, as
    /// two workers would. Requires byte-identical responses, and that
    /// the memoized pass computed each distinct input once and answered
    /// every other call from the memo.
    fn memo_differential(requests: &[Request]) -> adgen_synth::MemoStats {
        let library = Library::vcl018();
        obs::start();
        let plain: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| execute(r, &library).encode())
            .collect();
        let calls = obs::take().counter(obs::Ctr::EspressoCalls);
        let memo = MinimizeMemo::new();
        let (mut computed, mut hits) = (0, 0);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let (memo, library) = (&memo, &library);
                    s.spawn(move || {
                        obs::start();
                        let answers: Vec<(usize, Vec<u8>)> = (w..requests.len())
                            .step_by(2)
                            .map(|i| (i, memo.scope(|| execute(&requests[i], library)).encode()))
                            .collect();
                        (answers, obs::take())
                    })
                })
                .collect();
            for worker in workers {
                let (answers, rec) = worker.join().expect("worker finished");
                for (i, bytes) in answers {
                    assert_eq!(bytes, plain[i], "response {i} to {:?}", requests[i]);
                }
                computed += rec.counter(obs::Ctr::EspressoCalls);
                hits += rec.counter(obs::Ctr::EspressoMemoHits);
            }
        });
        let stats = memo.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(computed, stats.entries as u64, "one computation per input");
        assert_eq!((hits, computed + hits), (stats.hits, calls));
        stats
    }

    #[test]
    fn the_minimization_memo_changes_no_response_byte() {
        for (stream, requests) in [
            ("serve-mixed misses", mixed_misses(2026, 150)),
            ("repeated addresses", repeating_addresses(2026, 300)),
        ] {
            let stats = memo_differential(&requests);
            assert!(stats.hits > 0, "{stream}: the memo answered nothing");
        }
    }
}
