//! The batch compilation server: admission queue, batched dispatch
//! over [`adgen_exec::par_map`], deadlines, single-flight coalescing
//! and the result cache.
//!
//! ## Threading
//!
//! Connection I/O is handled by a readiness-driven reactor
//! ([`crate::reactor`]): one epoll event thread, never a thread per
//! connection. Control requests (`Ping`, `Stats`,
//! `Shutdown`) are answered inline on the event thread; compute
//! requests are admitted into a bounded queue ([`Shared::admit`]) and
//! answered by the single *dispatcher* thread, which drains the queue
//! in batches, answers what it can from the two-tier cache, coalesces
//! identical misses and fans the distinct ones across `par_map`.
//! Results travel back through the event thread's completion queue
//! ([`crate::reactor::Reply`]); the reactor flushes them to sockets
//! in request order.
//!
//! ## Single-flight coalescing
//!
//! The dispatcher is the only thread that computes, so jobs in one
//! drained batch that share a [`CacheKey`] *are* concurrent identical
//! requests: they are grouped, the group leader's request is computed
//! once, and every member receives the same byte-identical payload
//! (duplicates in *later* batches are ordinary cache hits). A group
//! counts one cache miss; the extra members count as coalesce
//! waiters, not misses. A member whose deadline lapsed in the queue
//! is answered with a typed error and excluded from the group — but
//! the group still computes for its live members, so an expired
//! leader's waiters (and its own retry) are served from cache.
//!
//! ## Deadlines
//!
//! Each admitted job carries a deadline (from the request envelope,
//! or the server default). It is checked twice: at dequeue (the job
//! sat in the queue too long — the work is skipped entirely) and
//! after computation (the work ran long — the result is *still
//! cached*, so an immediate retry is cheap). Either way the client
//! receives a typed [`ServeError::Deadline`], never a hung socket.
//!
//! ## Observability
//!
//! Statistics are always-on process atomics ([`ServeStats`]), served
//! to clients via `Stats`. When [`ServeConfig::observe`] is set the
//! dispatcher additionally records an adgen-obs session (spans from
//! the pipeline plus the serve counters) and returns the
//! [`Recording`] from [`ServerHandle::join`]. The serve counters are
//! mirrored from the atomics in one `add` each at dispatcher exit, so
//! their totals are invariant under `--jobs` — including the queue
//! high-water counter, whose *total* equals the high-water mark.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use adgen_affine::{fit_sequence, AffineAgNetlist};
use adgen_core::mapper::map_sequence;
use adgen_exec::par_map;
use adgen_explorer::{evaluate, pareto_frontier, EvaluateOptions};
use adgen_netlist::{AreaReport, Library, TimingAnalysis};
use adgen_obs as obs;
use adgen_seq::{AddressSequence, ArrayShape};
use adgen_synth::{espresso::EffortBudget, Encoding, Fsm, OutputStyle};

use crate::cache::{CacheKey, ResultCache, Tier};
use crate::error::ServeError;
use crate::protocol::{self, MapOutcome, Request, Response, StatsSnapshot, SynthReport};
use crate::reactor::{EpollIo, Reply};

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
    /// Worker threads for batch execution (`0` = all cores).
    pub jobs: usize,
    /// Most compute jobs drained into one dispatch batch.
    pub batch_max: usize,
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
    /// Record an adgen-obs session on the dispatcher thread and
    /// return it from [`ServerHandle::join`].
    pub observe: bool,
    /// Per-connection I/O deadline, milliseconds: a connection that
    /// makes no progress (no complete frame parsed, no completion
    /// delivered, no bytes flushed) for this long is reaped — with a
    /// typed [`ServeError::IoTimeout`] if it left a partial frame
    /// behind (slowloris), silently otherwise. `0` disables reaping.
    pub conn_idle_ms: u64,
    /// Fault-injection plan for the disk tier; `None` in production.
    pub faults: Option<Arc<crate::faults::FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            batch_max: 32,
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

/// Always-on server statistics, shared across every thread.
#[derive(Debug, Default)]
pub struct ServeStats {
    pub(crate) req_map: AtomicU64,
    pub(crate) req_synthesize: AtomicU64,
    pub(crate) req_explore: AtomicU64,
    pub(crate) req_control: AtomicU64,
    pub(crate) cache_hit_mem: AtomicU64,
    pub(crate) cache_hit_disk: AtomicU64,
    pub(crate) cache_miss: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    pub(crate) queue_high_water: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) coalesce_leaders: AtomicU64,
    pub(crate) coalesce_waiters: AtomicU64,
    pub(crate) disk_evictions: AtomicU64,
    pub(crate) reactor_wakeups: AtomicU64,
    pub(crate) cache_corrupt: AtomicU64,
    pub(crate) disk_write_errors: AtomicU64,
    pub(crate) conn_malformed: AtomicU64,
    pub(crate) conn_timed_out: AtomicU64,
}

impl ServeStats {
    fn observe_queue_depth(&self, depth: u64) {
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            req_map: self.req_map.load(Ordering::Relaxed),
            req_synthesize: self.req_synthesize.load(Ordering::Relaxed),
            req_explore: self.req_explore.load(Ordering::Relaxed),
            req_control: self.req_control.load(Ordering::Relaxed),
            cache_hit_mem: self.cache_hit_mem.load(Ordering::Relaxed),
            cache_hit_disk: self.cache_hit_disk.load(Ordering::Relaxed),
            cache_miss: self.cache_miss.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            coalesce_leaders: self.coalesce_leaders.load(Ordering::Relaxed),
            coalesce_waiters: self.coalesce_waiters.load(Ordering::Relaxed),
            disk_evictions: self.disk_evictions.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            cache_corrupt: self.cache_corrupt.load(Ordering::Relaxed),
            disk_write_errors: self.disk_write_errors.load(Ordering::Relaxed),
            conn_malformed: self.conn_malformed.load(Ordering::Relaxed),
            conn_timed_out: self.conn_timed_out.load(Ordering::Relaxed),
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
/// the dispatcher sleeps on.
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
        let mut state = self.state.lock().expect("queue lock");
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

    /// Takes up to `max` jobs, blocking while the queue is empty.
    /// `None` once the queue is closed *and* drained.
    fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if !state.jobs.is_empty() {
                let n = state.jobs.len().min(max.max(1));
                return Some(state.jobs.drain(..n).collect());
            }
            if state.closed {
                return None;
            }
            state = self.nonempty.wait(state).expect("queue wait");
        }
    }

    /// Closes the queue: future pushes fail, the dispatcher drains
    /// what remains and exits.
    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
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
    dispatcher: std::thread::JoinHandle<Option<obs::Recording>>,
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
    /// the server was observing — the dispatcher's obs recording.
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
        let rec = match self.dispatcher.join() {
            Ok(rec) => rec,
            Err(_) => {
                panicked.push("dispatcher");
                None
            }
        };
        if !panicked.is_empty() {
            return Err(ServeError::WorkerPanicked(panicked.join(", ")));
        }
        Ok((self.stats.snapshot(), rec))
    }
}

/// Shared server state, visible to the reactor.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) stats: Arc<ServeStats>,
    queue: AdmissionQueue,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
}

impl Shared {
    /// Whether a shutdown has been initiated.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Validates and admits one compute request, minting the job that
    /// will answer through `reply`. On `Err` the caller still owns
    /// the response path (the reply handle is dropped unanswered —
    /// encode the error into the connection's slot instead).
    pub(crate) fn admit(
        &self,
        request: Request,
        deadline_ms: u32,
        reply: Reply,
    ) -> Result<(), ServeError> {
        validate(&request)?;

        let req_ctr = match &request {
            Request::MapSequence { .. } => &self.stats.req_map,
            Request::Synthesize { .. } => &self.stats.req_synthesize,
            Request::Explore { .. } => &self.stats.req_explore,
            _ => unreachable!("is_compute"),
        };

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

        let key = CacheKey::for_request(&request.encode(), request.effort_steps());
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
                Ok(())
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

/// Binds the listener and spawns the reactor and dispatcher threads.
///
/// # Errors
///
/// Propagates bind, cache-directory and reactor-setup failures.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    // Open the cache eagerly so a bad directory fails at startup, not
    // on the first request.
    let cache = ResultCache::new_with(
        config.cache_entries,
        config.cache_dir.as_deref(),
        config.disk_cap_bytes,
        config.faults.clone(),
    )?;
    let io = EpollIo::new(listener)?;

    let stats = Arc::new(ServeStats::default());
    let shared = Arc::new(Shared {
        queue: AdmissionQueue::new(config.queue_cap),
        stats: Arc::clone(&stats),
        shutdown: AtomicBool::new(false),
        local_addr,
        config,
    });

    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("adgen-serve-dispatch".to_string())
            .spawn(move || run_dispatcher(&shared, cache))?
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
        dispatcher,
    })
}

/// Mirrors the cache's take-delta counters into the shared atomics.
/// Called at dispatcher start (entries quarantined by the open-time
/// rescan must be visible to a `Stats` probe before any batch runs)
/// and after every batch.
fn mirror_cache_deltas(shared: &Shared, cache: &mut ResultCache) {
    for (delta, ctr) in [
        (cache.take_disk_evictions(), &shared.stats.disk_evictions),
        (cache.take_disk_corrupt(), &shared.stats.cache_corrupt),
        (
            cache.take_disk_write_errors(),
            &shared.stats.disk_write_errors,
        ),
    ] {
        if delta > 0 {
            ctr.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

fn run_dispatcher(shared: &Shared, mut cache: ResultCache) -> Option<obs::Recording> {
    if shared.config.observe {
        obs::start();
    }
    let library = Library::vcl018();
    mirror_cache_deltas(shared, &mut cache);

    while let Some(batch) = shared.queue.pop_batch(shared.config.batch_max) {
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        let _batch_span = obs::span_arg("serve.batch", batch.len() as u64);

        // Partition: expired at dequeue, cache hits, misses. Misses
        // sharing a cache key coalesce into one group (single-flight:
        // the dispatcher is the only computing thread, so same-batch
        // duplicates are exactly the concurrent identical requests).
        let mut groups: Vec<(CacheKey, Vec<Job>)> = Vec::new();
        let mut group_index: std::collections::HashMap<CacheKey, usize> =
            std::collections::HashMap::new();
        for job in batch {
            if job.expired() {
                shared
                    .stats
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                let waited_ms = job.waited_ms();
                job.fail(ServeError::Deadline { waited_ms });
                continue;
            }
            if let Some(&idx) = group_index.get(&job.key) {
                groups[idx].1.push(job);
                continue;
            }
            match cache.get(job.key) {
                Some((payload, tier)) => {
                    let ctr = match tier {
                        Tier::Memory => &shared.stats.cache_hit_mem,
                        Tier::Disk => &shared.stats.cache_hit_disk,
                    };
                    ctr.fetch_add(1, Ordering::Relaxed);
                    job.reply.send(payload);
                }
                None => {
                    shared.stats.cache_miss.fetch_add(1, Ordering::Relaxed);
                    group_index.insert(job.key, groups.len());
                    groups.push((job.key, vec![job]));
                }
            }
        }
        if groups.is_empty() {
            continue;
        }
        for (_, members) in &groups {
            if members.len() > 1 {
                shared
                    .stats
                    .coalesce_leaders
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .coalesce_waiters
                    .fetch_add(members.len() as u64 - 1, Ordering::Relaxed);
            }
        }

        // Fan the distinct misses across the worker pool. Each worker
        // handles one request serially; group-level parallelism is
        // the only parallelism, which keeps responses independent of
        // `jobs`.
        let responses = par_map(&groups, shared.config.jobs, |_, (_, members)| {
            execute(&members[0].request, &library).encode()
        });

        for ((key, members), payload) in groups.into_iter().zip(responses) {
            // A computed result is cached even when every member's
            // deadline lapsed mid-computation: the client's retry
            // (and any coalesced waiter's) then hits.
            cache.put(key, payload.clone());
            for job in members {
                if job.expired() {
                    shared
                        .stats
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                    let waited_ms = job.waited_ms();
                    job.fail(ServeError::Deadline { waited_ms });
                } else {
                    job.reply.send(payload.clone());
                }
            }
        }
        mirror_cache_deltas(shared, &mut cache);
    }

    if shared.config.observe {
        // Mirror the atomics into the typed obs counters — one `add`
        // per counter, at exit, so totals are jobs-invariant. The
        // high-water counter's total IS the high-water mark.
        let s = shared.stats.snapshot();
        for (ctr, v) in [
            (obs::Ctr::ServeReqMap, s.req_map),
            (obs::Ctr::ServeReqSynthesize, s.req_synthesize),
            (obs::Ctr::ServeReqExplore, s.req_explore),
            (obs::Ctr::ServeReqControl, s.req_control),
            (obs::Ctr::ServeCacheHitMem, s.cache_hit_mem),
            (obs::Ctr::ServeCacheHitDisk, s.cache_hit_disk),
            (obs::Ctr::ServeCacheMiss, s.cache_miss),
            (obs::Ctr::ServeQueueHighWater, s.queue_high_water),
            (obs::Ctr::ServeDeadline, s.deadline_expired),
            (obs::Ctr::ServeShed, s.shed),
            (obs::Ctr::ServeCoalesceLeaders, s.coalesce_leaders),
            (obs::Ctr::ServeCoalesceWaiters, s.coalesce_waiters),
            (obs::Ctr::ServeDiskEvictions, s.disk_evictions),
            (obs::Ctr::ServeReactorWakeups, s.reactor_wakeups),
            (obs::Ctr::ServeCacheCorrupt, s.cache_corrupt),
            (obs::Ctr::ServeDiskWriteErrors, s.disk_write_errors),
            (obs::Ctr::ServeConnMalformed, s.conn_malformed),
            (obs::Ctr::ServeConnTimedOut, s.conn_timed_out),
        ] {
            if v > 0 {
                obs::add(ctr, v);
            }
        }
        Some(obs::take())
    } else {
        None
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
            let synth = Fsm::cyclic_sequence(sequence)
                .and_then(|f| f.synthesize_budgeted(*encoding, style, budget));
            match synth {
                Ok(s) => match TimingAnalysis::run(&s.netlist, library) {
                    Ok(t) => Response::Synthesized(SynthReport {
                        area: AreaReport::of(&s.netlist, library).total(),
                        delay_ps: t.critical_path_ps(),
                        flip_flops: s.netlist.num_flip_flops() as u32,
                        truncated: s.truncated,
                    }),
                    Err(e) => Response::Error(ServeError::Internal(e.to_string())),
                },
                Err(e) => Response::Error(ServeError::BadRequest(e.to_string())),
            }
        }
        Request::Synthesize {
            sequence,
            generator: protocol::Generator::Affine,
            ..
        } => {
            let _span = obs::span_arg("serve.exec.synthesize.affine", sequence.len() as u64);
            execute_affine_synthesize(sequence, library)
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
            // Serial evaluation: the dispatcher's `par_map` over the
            // batch is the only parallelism, keeping every response
            // payload independent of the worker count.
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
        // Control kinds never reach the dispatcher.
        Request::Ping | Request::Stats | Request::Shutdown => Response::Error(
            ServeError::Internal("control request routed to the dispatcher".to_string()),
        ),
    }
}

/// The affine arm of `Synthesize`: fits the sequence, elaborates the
/// programmable AGU, and prices any residual as a side FSM — the same
/// accounting the explorer's affine candidate uses. `truncated`
/// propagates from the residual FSM's espresso run (always `false`
/// for an exact fit).
fn execute_affine_synthesize(sequence: &[u32], library: &Library) -> Response {
    let fit = match fit_sequence(sequence) {
        Ok(fit) => fit,
        Err(e) => return Response::Error(ServeError::BadRequest(e.to_string())),
    };
    let design = match AffineAgNetlist::elaborate(&fit.spec) {
        Ok(d) => d,
        Err(e) => return Response::Error(ServeError::Internal(e.to_string())),
    };
    let timing = match TimingAnalysis::run(&design.netlist, library) {
        Ok(t) => t,
        Err(e) => return Response::Error(ServeError::Internal(e.to_string())),
    };
    let mut report = SynthReport {
        area: AreaReport::of(&design.netlist, library).total(),
        delay_ps: timing.critical_path_ps(),
        flip_flops: design.netlist.num_flip_flops() as u32,
        truncated: false,
    };
    if !fit.residual.is_empty() {
        let style = OutputStyle::BinaryAddress {
            bits: fit.spec.addr_width as usize,
        };
        let synth = Fsm::cyclic_sequence(&fit.residual).and_then(|f| {
            f.synthesize_budgeted(Encoding::Binary, style, EffortBudget::synthesis_default())
        });
        let s = match synth {
            Ok(s) => s,
            Err(e) => return Response::Error(ServeError::BadRequest(e.to_string())),
        };
        let rt = match TimingAnalysis::run(&s.netlist, library) {
            Ok(t) => t,
            Err(e) => return Response::Error(ServeError::Internal(e.to_string())),
        };
        report.area += AreaReport::of(&s.netlist, library).total();
        report.delay_ps = report.delay_ps.max(rt.critical_path_ps());
        report.flip_flops += s.netlist.num_flip_flops() as u32;
        report.truncated = s.truncated;
    }
    Response::Synthesized(report)
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
        // Draining frees capacity again.
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(q.push(dummy_job(&cq, 4)).unwrap(), 1);
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
        assert_eq!(q.pop_batch(8).unwrap().len(), 1, "drains remaining work");
        assert!(q.pop_batch(8).is_none(), "then reports closed");
    }

    #[test]
    fn pop_batch_respects_the_batch_cap() {
        let (cq, _wake_rx) = CompletionQueue::loopback();
        let q = AdmissionQueue::new(8);
        for ticket in 0..5 {
            q.push(dummy_job(&cq, ticket)).unwrap();
        }
        assert_eq!(q.pop_batch(2).unwrap().len(), 2);
        assert_eq!(q.pop_batch(2).unwrap().len(), 2);
        assert_eq!(q.pop_batch(2).unwrap().len(), 1);
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
    fn a_batch_of_identical_misses_computes_once_and_coalesces() {
        // Drives the dispatcher directly over a closed queue, so the
        // batch composition — three identical misses plus one
        // distinct — is exact, making the single-flight accounting
        // deterministic (unlike the e2e variant, which depends on
        // concurrent arrival timing).
        let dir = std::env::temp_dir().join(format!("adgen-serve-coalesce-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared = Shared {
            config: ServeConfig {
                jobs: 1,
                cache_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
            stats: Arc::new(ServeStats::default()),
            queue: AdmissionQueue::new(16),
            shutdown: AtomicBool::new(false),
            local_addr: "127.0.0.1:0".parse().unwrap(),
        };
        let (cq, _wake_rx) = CompletionQueue::loopback();
        let identical = Request::Synthesize {
            sequence: vec![0, 1, 2, 3],
            encoding: Encoding::Gray,
            num_lines: 4,
            effort_steps: 0,
            generator: protocol::Generator::Fsm,
        };
        for ticket in 0..3 {
            shared
                .admit(identical.clone(), 0, Reply::new(Arc::clone(&cq), 0, ticket))
                .unwrap();
        }
        shared
            .admit(
                Request::MapSequence {
                    sequence: vec![0, 0, 1, 1],
                },
                0,
                Reply::new(Arc::clone(&cq), 0, 3),
            )
            .unwrap();
        shared.queue.close();
        let cache = ResultCache::new(16, shared.config.cache_dir.as_deref(), 0).unwrap();
        run_dispatcher(&shared, cache);

        let mut completions = cq.drain();
        completions.sort_by_key(|c| c.ticket);
        assert_eq!(completions.len(), 4, "every admitted job was answered");
        assert_eq!(
            completions[0].payload, completions[1].payload,
            "waiters get the leader's exact bytes"
        );
        assert_eq!(completions[0].payload, completions[2].payload);
        assert!(matches!(
            Response::decode(&completions[0].payload).unwrap(),
            Response::Synthesized(_)
        ));
        assert!(matches!(
            Response::decode(&completions[3].payload).unwrap(),
            Response::Mapped(_)
        ));

        let s = shared.stats.snapshot();
        assert_eq!(s.cache_miss, 2, "one compute per DISTINCT request");
        assert_eq!(s.coalesce_leaders, 1);
        assert_eq!(s.coalesce_waiters, 2);
        assert_eq!(s.cache_hit_mem + s.cache_hit_disk, 0);

        // The coalesced group's single computation populated the
        // cache: a fresh dispatcher over the same disk tier answers
        // the identical request without recomputing.
        let shared2 = Shared {
            config: shared.config.clone(),
            stats: Arc::new(ServeStats::default()),
            queue: AdmissionQueue::new(16),
            shutdown: AtomicBool::new(false),
            local_addr: "127.0.0.1:0".parse().unwrap(),
        };
        shared2
            .admit(identical, 0, Reply::new(Arc::clone(&cq), 0, 10))
            .unwrap();
        shared2.queue.close();
        let cache2 = ResultCache::new(16, shared2.config.cache_dir.as_deref(), 0).unwrap();
        run_dispatcher(&shared2, cache2);
        let replay = cq.drain();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].payload, completions[0].payload);
        let s2 = shared2.stats.snapshot();
        assert_eq!((s2.cache_miss, s2.cache_hit_disk), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
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
        let dispatcher = std::thread::Builder::new().spawn(|| None).unwrap();
        let handle = ServerHandle {
            local_addr: "127.0.0.1:0".parse().unwrap(),
            stats: Arc::new(ServeStats::default()),
            io,
            dispatcher,
        };
        match handle.join() {
            Err(ServeError::WorkerPanicked(which)) => assert!(which.contains("io")),
            Err(other) => panic!("expected WorkerPanicked, got {other}"),
            Ok(_) => panic!("expected WorkerPanicked, got Ok"),
        }
    }
}
