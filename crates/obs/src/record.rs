//! The recording substrate: thread-local span arenas, typed
//! counters, and the capture/splice protocol that stitches worker
//! recordings back into the caller in deterministic order.
//!
//! ## Model
//!
//! A *session* is started with [`start`] and ended with [`take`],
//! which returns everything recorded on the calling thread as a
//! [`Recording`]. While at least one session is active anywhere in
//! the process, instrumentation points are live; otherwise every
//! entry point is a single relaxed atomic load and an immediate
//! return, so instrumented hot paths cost nothing in ordinary runs.
//!
//! Recording is strictly thread-local: a [`span`] or [`add`] on a
//! thread without a recorder (any thread that neither called
//! [`start`] nor is inside a [`capture`]) is dropped. The exec pool
//! bridges the gap: `adgen_exec::par_map` wraps each work item in
//! [`capture`] on the worker thread and [`splice`]s the per-item
//! recordings back into the caller **in input order**, so the merged
//! span tree and counter totals are byte-identical at any job count —
//! wall-clock durations are the only nondeterministic fields.
//!
//! ## Determinism contract
//!
//! Everything in a [`Recording`] except `dur_ns` values and the
//! [`Recording::timings`] map is a pure function of the instrumented
//! program's inputs. The exporters lean on this: under redaction they
//! elide exactly the two nondeterministic surfaces and nothing else,
//! which is what lets golden files and `--jobs` invariance tests
//! byte-compare profiler output.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Declares the typed counters: each row is one variant's doc, the
/// variant and its exported metric name. The row order is the
/// declaration order, so it fixes each counter's discriminant, its
/// arena slot and its place in [`Ctr::ALL`]; append new rows at the
/// end.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)+) => {
        /// The typed counters of the workspace, one variant per metric.
        ///
        /// A fixed enum (rather than string keys) keeps the enabled-path cost
        /// of [`add`] at an array index and makes the set of metrics a
        /// reviewable, exhaustive list. Counter *totals* are deterministic:
        /// they sum per-item contributions that [`splice`] merges in input
        /// order, so they are identical at any `--jobs` value.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Ctr {
            $($(#[$doc])* $variant,)+
        }

        /// Number of counter variants (the arena array length).
        pub const NUM_CTRS: usize = [$($name),+].len();

        impl Ctr {
            /// Every counter, in declaration order.
            pub const ALL: [Ctr; NUM_CTRS] = [$(Ctr::$variant),+];

            /// The exported metric name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Ctr::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    /// Runs of the espresso EXPAND/IRREDUNDANT/REDUCE loop: the
    /// minimizations actually computed, not the calls answered. A
    /// call a minimization memo answers counts in
    /// [`Ctr::EspressoMemoHits`] instead.
    EspressoCalls = "espresso.calls",
    /// Cube-interaction steps the loop actually spent, the same unit
    /// `adgen_synth::espresso::EffortBudget` meters — equals the sum
    /// of `MinimizeOutcome::steps` over the minimizations computed.
    EspressoSteps = "espresso.steps",
    /// Minimizations that ran out of budget and returned truncated.
    EspressoTruncated = "espresso.truncated",
    /// Minimizations an `adgen_synth::memo::MinimizeMemo` answered
    /// without running the loop, waits on another thread's run of the
    /// same input included.
    EspressoMemoHits = "espresso.memo.hits",
    /// Outcomes a minimization memo dropped because it was full.
    /// Calls and steps equal the distinct inputs' only while this is
    /// zero.
    EspressoMemoEvictions = "espresso.memo.evictions",
    /// Bit-packed cube-kernel word operations (u64 words touched by
    /// cofactor/conflict sweeps), counted at cover granularity.
    CubeWordOps = "cube.word_ops",
    /// `TimingContext` constructions — the memo *misses* of the STA
    /// layer.
    StaCtxBuilds = "sta.ctx.builds",
    /// Timing runs over an existing context; runs minus builds is the
    /// memo *hit* count.
    StaRuns = "sta.runs",
    /// Fig. 9 component sets built from an elaborated CntAG
    /// (`CntAgNetlist::components`: its kept counter cascade plus
    /// standalone row and column decoders).
    CntagComponentBuilds = "cntag.components.builds",
    /// `ComponentTimer::delays_at` queries; queries minus builds is
    /// the CntAG memo hit count.
    CntagComponentRuns = "cntag.components.runs",
    /// `par_map` invocations.
    ParMapCalls = "par_map.calls",
    /// Work items fanned out across all `par_map` invocations.
    ParMapItems = "par_map.items",
    /// Fuzz cases executed.
    FuzzCases = "fuzz.cases",
    /// Fuzz cases whose oracles diverged.
    FuzzFailures = "fuzz.failures",
    /// Shrink candidate evaluations spent minimizing counterexamples.
    FuzzShrinkSteps = "fuzz.shrink_steps",
    /// Fault replays (golden and faulty runs both count).
    FaultReplays = "fault.replays",
    /// Faults classified as detected (output divergence or alarm).
    FaultDetected = "fault.detected",
    /// Detected faults whose first detection was the alarm output.
    FaultAlarmed = "fault.alarmed",
    /// Faults classified as silent state corruption.
    FaultSilent = "fault.silent",
    /// Faults classified as benign.
    FaultBenign = "fault.benign",
    /// Architecture candidates enumerated by the explorer (one per
    /// family actually evaluated, implementable or rejected).
    ExplorerCandidates = "explorer.candidates",
    /// `MapSequence` requests admitted by the serve subsystem.
    ServeReqMap = "serve.req.map",
    /// `Synthesize` requests admitted by the serve subsystem.
    ServeReqSynthesize = "serve.req.synthesize",
    /// `Explore` requests admitted by the serve subsystem.
    ServeReqExplore = "serve.req.explore",
    /// Control-plane requests (`Ping`/`Stats`/`Shutdown`) handled
    /// inline by a connection thread.
    ServeReqControl = "serve.req.control",
    /// Result-cache lookups answered by the in-memory LRU tier.
    ServeCacheHitMem = "serve.cache.hit.mem",
    /// Result-cache lookups answered by the on-disk store.
    ServeCacheHitDisk = "serve.cache.hit.disk",
    /// Result-cache lookups that fell through to computation.
    ServeCacheMiss = "serve.cache.miss",
    /// Admission-queue depth high-water mark. Recorded as cumulative
    /// increments of the maximum, so the *total* equals the high
    /// water, jobs-invariantly.
    ServeQueueHighWater = "serve.queue.high_water",
    /// Requests answered with `ServeError::Deadline`.
    ServeDeadline = "serve.deadline.expired",
    /// Requests rejected at admission because the queue was full
    /// (`ServeError::QueueFull`).
    ServeShed = "serve.shed",
    /// Single-flight miss groups that absorbed at least one duplicate
    /// (the member whose request was actually computed).
    ServeCoalesceLeaders = "serve.coalesce.leaders",
    /// Requests answered by another member's computation instead of
    /// their own (single-flight duplicates).
    ServeCoalesceWaiters = "serve.coalesce.waiters",
    /// Disk-tier cache entries evicted by the size bound.
    ServeDiskEvictions = "serve.disk.evictions",
    /// Reactor event-thread wakeups triggered by compute completions.
    ServeReactorWakeups = "serve.reactor.wakeups",
    /// Disk-cache entries that failed verification and were
    /// quarantined (never served).
    ServeCacheCorrupt = "serve.cache.corrupt",
    /// Disk-cache writes that failed; the entry degraded to
    /// memory-only caching.
    ServeDiskWriteErrors = "serve.disk.write_errors",
    /// Connections closed after sending a malformed frame.
    ServeConnMalformed = "serve.conn.malformed",
    /// Connections reaped by the per-connection I/O deadline.
    ServeConnTimedOut = "serve.conn.timed_out",
    /// Combinational gate evaluations across all simulation engines.
    /// The unit is engine-specific (gates × cycles levelized, actual
    /// re-evaluations event-driven, gate-*words* sliced); see
    /// DESIGN.md §11.
    SimEvaluations = "sim.evaluations",
    /// Bit-sliced kernel word operations: gate evaluations plus
    /// flip-flop captures, one per 64-lane word — the sliced
    /// analogue of `cube.word_ops`.
    SimSlicedWordOps = "sim.sliced.word_ops",
    /// Lanes carried by sliced-simulator constructions; divide by
    /// 64 × `sim.sliced.passes` for mean lane utilization.
    SimSlicedLanes = "sim.sliced.lanes",
    /// Sliced-simulator constructions (one per packed pass).
    SimSlicedPasses = "sim.sliced.passes",
}

impl Ctr {
    /// The arena slot: the declaration-order discriminant, which is
    /// also the variant's position in [`Ctr::ALL`].
    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. Index order in [`Recording::spans`] is creation
/// order (a preorder walk of the tree: parents precede children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (dotted path convention, e.g.
    /// `espresso.expand`).
    pub name: &'static str,
    /// Optional integer argument (an item index, a size, …) carried
    /// into the trace exporter's `args`.
    pub arg: Option<u64>,
    /// Parent span index within the same recording, `None` for roots.
    pub parent: Option<u32>,
    /// Wall-clock duration, nanoseconds. The only nondeterministic
    /// span field.
    pub dur_ns: u64,
}

/// Everything one session recorded: the span arena, the typed
/// counter totals, and the free-form timing metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Spans in creation order; parents precede children.
    pub spans: Vec<SpanRecord>,
    counters: [u64; NUM_CTRS],
    /// Nondeterministic auxiliary metrics (per-worker busy time,
    /// queue fill, …), summed on key collision. Always elided by the
    /// redacting exporters.
    pub timings: BTreeMap<String, u64>,
}

// Not derived: `Default` for `[u64; N]` is only provided up to N=32.
impl Default for Recording {
    fn default() -> Self {
        Recording {
            spans: Vec::new(),
            counters: [0; NUM_CTRS],
            timings: BTreeMap::new(),
        }
    }
}

impl Recording {
    /// Total of one typed counter.
    pub fn counter(&self, ctr: Ctr) -> u64 {
        self.counters[ctr.index()]
    }

    /// `(counter, value)` pairs with nonzero values, sorted by
    /// exported name — the deterministic iteration order every
    /// exporter uses.
    pub fn nonzero_counters(&self) -> Vec<(Ctr, u64)> {
        let mut rows: Vec<(Ctr, u64)> = Ctr::ALL
            .iter()
            .map(|&c| (c, self.counter(c)))
            .filter(|&(_, v)| v != 0)
            .collect();
        rows.sort_by_key(|&(c, _)| c.name());
        rows
    }

    /// Adds `delta` to one typed counter of a finished recording — for
    /// totals known only after the session that recorded it ended.
    pub fn add(&mut self, ctr: Ctr, delta: u64) {
        let total = &mut self.counters[ctr.index()];
        *total = total.saturating_add(delta);
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.iter().all(|&v| v == 0) && self.timings.is_empty()
    }
}

struct Recorder {
    spans: Vec<SpanRecord>,
    stack: Vec<u32>,
    counters: [u64; NUM_CTRS],
    timings: BTreeMap<String, u64>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            spans: Vec::new(),
            stack: Vec::new(),
            counters: [0; NUM_CTRS],
            timings: BTreeMap::new(),
        }
    }

    fn into_recording(self) -> Recording {
        Recording {
            spans: self.spans,
            counters: self.counters,
            timings: self.timings,
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Count of live sessions process-wide. Refcounted (not a bool) so
/// concurrently running tests cannot disable each other's recording;
/// the per-thread recorders already keep their data apart.
static SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// Whether any session is active — the one-load fast path every
/// instrumentation point checks first.
#[inline]
pub fn enabled() -> bool {
    SESSIONS.load(Ordering::Relaxed) > 0
}

/// Starts a session on the current thread, resetting its recorder.
pub fn start() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
    SESSIONS.fetch_add(1, Ordering::SeqCst);
}

/// Ends the current thread's session and returns its recording.
/// Returns an empty recording if [`start`] was never called on this
/// thread.
pub fn take() -> Recording {
    let rec = RECORDER.with(|r| r.borrow_mut().take());
    if rec.is_some() {
        SESSIONS.fetch_sub(1, Ordering::SeqCst);
    }
    rec.map(Recorder::into_recording).unwrap_or_default()
}

/// RAII guard closing a span when dropped. Obtain via [`span`] /
/// [`span_arg`].
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    open: Option<(u32, Instant)>,
}

/// Opens a span named `name` under the innermost open span of the
/// current thread. A no-op (returning an inert guard) when no session
/// is active or the thread has no recorder.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None)
}

/// [`span`] with an integer argument (an index or size) attached.
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> SpanGuard {
    open_span(name, Some(arg))
}

fn open_span(name: &'static str, arg: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let open = RECORDER.with(|r| {
        let mut b = r.borrow_mut();
        let rec = b.as_mut()?;
        let idx = rec.spans.len() as u32;
        rec.spans.push(SpanRecord {
            name,
            arg,
            parent: rec.stack.last().copied(),
            dur_ns: 0,
        });
        rec.stack.push(idx);
        Some((idx, Instant::now()))
    });
    SpanGuard { open }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((idx, started)) = self.open.take() else {
            return;
        };
        let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                if let Some(s) = rec.spans.get_mut(idx as usize) {
                    s.dur_ns = dur_ns;
                }
                // Pop through any child guards leaked by an unwind so
                // the stack stays consistent.
                while let Some(top) = rec.stack.pop() {
                    if top == idx {
                        break;
                    }
                }
            }
        });
    }
}

/// Adds `delta` to a typed counter on the current thread's recorder.
#[inline]
pub fn add(ctr: Ctr, delta: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.counters[ctr.index()] = rec.counters[ctr.index()].saturating_add(delta);
        }
    });
}

/// Accumulates a nondeterministic timing metric (summed on key
/// collision). These land in [`Recording::timings`], which every
/// redacting exporter elides.
pub fn timing(key: String, delta: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.timings.entry(key).or_insert(0) += delta;
        }
    });
}

/// Runs `f` under a fresh recorder on the current thread and returns
/// its result together with everything `f` recorded. The previous
/// recorder (if any) is restored afterwards — also on panic, though
/// the captured data is lost then.
///
/// When no session is active this is exactly `f()` plus one atomic
/// load.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Recording) {
    if !enabled() {
        return (f(), Recording::default());
    }
    struct Restore(Option<Recorder>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let saved = self.0.take();
            RECORDER.with(|r| *r.borrow_mut() = saved);
        }
    }
    let saved = RECORDER.with(|r| r.borrow_mut().replace(Recorder::new()));
    let restore = Restore(saved);
    let result = f();
    let fresh = RECORDER.with(|r| r.borrow_mut().take());
    drop(restore); // reinstates the saved recorder (also runs on panic)
    (
        result,
        fresh.map(Recorder::into_recording).unwrap_or_default(),
    )
}

/// Appends a captured [`Recording`] to the current thread's recorder:
/// its root spans become children of the innermost open span, its
/// counters add into the totals, its timings sum in. Callers must
/// splice in a deterministic order (input order, for `par_map`) to
/// preserve the jobs-invariance of the merged recording.
pub fn splice(rec: Recording) {
    if !enabled() || rec.is_empty() {
        return;
    }
    RECORDER.with(|r| {
        let mut b = r.borrow_mut();
        let Some(cur) = b.as_mut() else {
            return;
        };
        let base = cur.spans.len() as u32;
        let attach = cur.stack.last().copied();
        for s in rec.spans {
            let parent = match s.parent {
                Some(p) => Some(p + base),
                None => attach,
            };
            cur.spans.push(SpanRecord { parent, ..s });
        }
        for (i, v) in rec.counters.iter().enumerate() {
            cur.counters[i] = cur.counters[i].saturating_add(*v);
        }
        for (k, v) in rec.timings {
            *cur.timings.entry(k).or_insert(0) += v;
        }
    });
}

/// Whether `OBS_REDACT=1` is set — the convention the binaries use to
/// ask the exporters for byte-comparable (timestamp-free) output.
pub fn redact_from_env() -> bool {
    std::env::var_os("OBS_REDACT").is_some_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_record_nothing() {
        // No session: everything is inert.
        {
            let _g = span("x");
            add(Ctr::EspressoSteps, 5);
        }
        let rec = take();
        assert!(rec.is_empty());
    }

    #[test]
    fn spans_nest_and_counters_sum() {
        start();
        {
            let _a = span("a");
            {
                let _b = span_arg("b", 7);
                add(Ctr::EspressoSteps, 3);
            }
            add(Ctr::EspressoSteps, 4);
        }
        let rec = take();
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[0].name, "a");
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].name, "b");
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].arg, Some(7));
        assert_eq!(rec.counter(Ctr::EspressoSteps), 7);
    }

    #[test]
    fn capture_and_splice_reattach_roots() {
        start();
        {
            let _root = span("root");
            let (value, inner) = capture(|| {
                let _c = span("child");
                add(Ctr::FuzzCases, 1);
                42
            });
            assert_eq!(value, 42);
            assert_eq!(inner.spans.len(), 1);
            splice(inner);
        }
        let rec = take();
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].name, "child");
        assert_eq!(rec.spans[1].parent, Some(0), "spliced under root");
        assert_eq!(rec.counter(Ctr::FuzzCases), 1);
    }

    #[test]
    fn capture_restores_outer_recorder() {
        start();
        let _outer = span("outer");
        let (_, _) = capture(|| {
            let _inner = span("inner");
        });
        // The outer recorder is back: new spans attach under "outer".
        {
            let _after = span("after");
        }
        let rec = take();
        let names: Vec<_> = rec.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["outer", "after"]);
        assert_eq!(rec.spans[1].parent, Some(0));
    }

    #[test]
    fn all_counters_have_unique_names() {
        let mut names: Vec<_> = Ctr::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_CTRS);
        for (i, &c) in Ctr::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{} is out of declaration order", c.name());
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn timings_sum_on_collision() {
        start();
        timing("w0.busy_ns".to_string(), 10);
        timing("w0.busy_ns".to_string(), 5);
        let rec = take();
        assert_eq!(rec.timings["w0.busy_ns"], 15);
    }
}
