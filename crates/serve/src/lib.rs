//! adgen-serve: the batch compilation service.
//!
//! Turns the workspace's mapping, synthesis and exploration pipelines
//! into a long-lived TCP service: clients submit address-generation
//! problems over a versioned, length-prefixed binary protocol
//! ([`protocol`]), an epoll reactor ([`reactor`]) multiplexes
//! thousands of connections over one event thread and answers
//! memory-tier cache hits on it, an admission queue with per-request
//! deadlines feeds everything else to a pool of worker threads that
//! coalesce identical in-flight misses (single-flight), and a
//! two-tier content-addressed result cache ([`cache`]) — in-memory
//! LRU in front of a bounded, digest-sharded on-disk store — answers
//! repeats without recomputation. Cache keys bind the request's
//! canonical bytes *and* its espresso effort budget, so a truncated
//! low-effort synthesis can never poison a full-effort lookup.
//!
//! Entry points: [`serve`] to start a server in-process,
//! [`Client`] to talk to one, and the `adgen-serve` binary for the
//! command line. The `loadgen` benchmark in `adgen-bench` drives a
//! server over loopback and reports throughput, latency percentiles
//! and cache hit rates.
//!
//! The serving tier is chaos-hardened: every disk-cache entry is
//! framed and checksummed ([`cache`] — corrupt entries are
//! quarantined and recomputed, never served), a deterministic fault
//! plan ([`faults`]) injects crashes, stalls, panics and I/O errors
//! at named sites for the `chaoscamp` harness and the tests, a
//! panicking computation is answered with a typed error instead of
//! taking its worker down, idle or malformed connections are
//! reaped with typed errors, and [`Client`] retries shed or failed
//! calls with bounded, deterministically jittered backoff.
//!
//! The reactor is built directly on Linux `epoll`, so the crate builds
//! only for Linux targets.

#[cfg(not(target_os = "linux"))]
compile_error!("adgen-serve needs Linux: its reactor is built directly on epoll");

pub mod cache;
pub mod client;
pub mod error;
pub mod faults;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod stats;

pub use cache::{CacheKey, DiskStore, LruCache, ResultCache, Tier};
pub use client::{Client, ClientError, RetryPolicy};
pub use error::ServeError;
pub use faults::{FaultKind, FaultPlan};
pub use protocol::{
    Generator, MapOutcome, Request, Response, StatsSnapshot, SynthReport, MAGIC, PROTOCOL_VERSION,
};
pub use server::{serve, ServeConfig, ServeStats, ServerHandle, MAX_SEQUENCE_LEN};

/// Unwraps the result of taking one of this crate's locks: a
/// `Mutex::lock`, a `Condvar::wait` or a `Mutex::into_inner` on the
/// admission queue, the memory tier, the result cache, the in-flight
/// table, the pool's recordings or the completion queue.
///
/// Invariant: no thread panics while holding a serve lock, so no
/// serve lock is ever poisoned. Each critical section is bookkeeping
/// on plain collections, or disk I/O that reports failure as an
/// error. The one code that is expected to panic, a computation,
/// runs under `catch_unwind` with no lock held. (A fault-plan `panic`
/// armed at a disk site is the exception by design: it stands for a
/// bug, and it takes its thread down like one.) This is the crate's
/// only poisoned-lock panic site.
pub(crate) fn unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.expect("no thread panics while holding a serve lock")
}
