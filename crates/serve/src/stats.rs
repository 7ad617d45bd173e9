//! The serve counters, declared once.
//!
//! Each row of the one table below is a counter: its doc, its field
//! name and the [`Ctr`] it is mirrored into when the server
//! observes (`None` for `batches`, which has no obs counter). The
//! table generates the live atomics ([`ServeStats`]), the snapshot
//! clients receive ([`StatsSnapshot`]), the snapshot's wire order and
//! the list the pool mirrors into obs at exit and the `adgen-serve`
//! binary prints at shutdown. A new counter is one row here plus its
//! increment sites. The row order is the wire order of
//! `Response::Stats`, so new rows go at the end, under a protocol
//! version bump.

use std::sync::atomic::{AtomicU64, Ordering};

use adgen_obs::Ctr;

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident => $ctr:expr,)+) => {
        /// Always-on server statistics, shared across every thread.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $($(#[$doc])* pub(crate) $field: AtomicU64,)+
        }

        impl ServeStats {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }

        /// Server-side totals since start, via
        /// [`Request::Stats`](crate::protocol::Request::Stats). All
        /// monotonic; clients diff two snapshots to meter an interval.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl StatsSnapshot {
            /// Every counter in wire order: its field name, the obs
            /// counter it is mirrored into (if any) and its value.
            pub fn rows(&self) -> [(&'static str, Option<Ctr>, u64); NUM_STATS] {
                [$((stringify!($field), $ctr, self.$field)),+]
            }

            /// Reads a snapshot in wire order, one `next()` per
            /// counter.
            pub(crate) fn read<E>(
                mut next: impl FnMut() -> Result<u64, E>,
            ) -> Result<StatsSnapshot, E> {
                Ok(StatsSnapshot {
                    $($field: next()?,)+
                })
            }
        }

        const NUM_STATS: usize = [$(stringify!($field)),+].len();
    };
}

counters! {
    /// `MapSequence` requests admitted.
    req_map => Some(Ctr::ServeReqMap),
    /// `Synthesize` requests admitted.
    req_synthesize => Some(Ctr::ServeReqSynthesize),
    /// `Explore` requests admitted.
    req_explore => Some(Ctr::ServeReqExplore),
    /// Control-plane requests (ping/stats/shutdown) handled.
    req_control => Some(Ctr::ServeReqControl),
    /// Cache lookups answered by the in-memory LRU.
    cache_hit_mem => Some(Ctr::ServeCacheHitMem),
    /// Cache lookups answered by the on-disk store.
    cache_hit_disk => Some(Ctr::ServeCacheHitDisk),
    /// Cache lookups that fell through to computation.
    cache_miss => Some(Ctr::ServeCacheMiss),
    /// Requests answered with a deadline expiration.
    deadline_expired => Some(Ctr::ServeDeadline),
    /// Admission-queue depth high-water mark.
    queue_high_water => Some(Ctr::ServeQueueHighWater),
    /// Jobs the workers took from the admission queue.
    batches => None,
    /// Requests rejected at admission because the queue was full.
    shed => Some(Ctr::ServeShed),
    /// Miss groups that coalesced at least one duplicate (the member
    /// whose request was computed).
    coalesce_leaders => Some(Ctr::ServeCoalesceLeaders),
    /// Requests answered by another member's computation instead of
    /// their own (single-flight duplicates).
    coalesce_waiters => Some(Ctr::ServeCoalesceWaiters),
    /// Disk-tier entries evicted by the size bound.
    disk_evictions => Some(Ctr::ServeDiskEvictions),
    /// Times the reactor event thread was woken by a completion's
    /// wake datagram.
    reactor_wakeups => Some(Ctr::ServeReactorWakeups),
    /// Disk-cache entries that failed verification and were
    /// quarantined (corrupt bytes detected, never served).
    cache_corrupt => Some(Ctr::ServeCacheCorrupt),
    /// Disk-cache writes that failed; the entry degraded to
    /// memory-only caching.
    disk_write_errors => Some(Ctr::ServeDiskWriteErrors),
    /// Connections closed after sending a malformed frame.
    conn_malformed => Some(Ctr::ServeConnMalformed),
    /// Connections reaped by the per-connection I/O deadline.
    conn_timed_out => Some(Ctr::ServeConnTimedOut),
}

impl ServeStats {
    /// Raises the queue high-water mark to `depth`.
    pub(crate) fn observe_queue_depth(&self, depth: u64) {
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }
}
