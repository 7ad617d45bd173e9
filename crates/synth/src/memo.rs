//! A bounded, single-flight memo of minimizations, shared by the
//! threads that install it.
//!
//! A compile server minimizes the same functions over and over: an
//! FSM miss whose sequence is a permutation has next-state functions
//! that depend only on the state count and the encoding, and one
//! select line per state, each a one-state function; explore misses
//! rebuild the same ROMs and candidate FSMs. [`MinimizeMemo::scope`]
//! installs a memo on the calling thread for the duration of a
//! closure. Inside it, every minimization of at most
//! [`MAX_MEMO_ARITY`] inputs is looked up by a 128-bit digest of its
//! whole input — arity, effort budget, the on and dc covers, and the
//! off cover or, for a row-enumerated function whose loop complements
//! on ∪ dc, a sentinel and the off-set's row count — and the stored
//! [`MinimizeOutcome`] (cover, steps, truncation) is returned exactly
//! as the loop would have returned it.
//!
//! Outside any scope nothing is memoized, so batch callers (the paper
//! sweep, the fault campaigns, the reproduction binary) keep running,
//! and measuring, every minimization. There is deliberately no
//! process-global memo: it would make every benchmark iteration after
//! the first free.
//!
//! ## Single flight
//!
//! A key is computed by at most one thread at a time. A thread that
//! finds its key in flight waits for the leader and then counts a hit,
//! so with nothing evicted the minimizations actually run equal the
//! distinct inputs, and `espresso.calls` stays exact. A leader that
//! panics releases its key on unwind; its waiters then compute for
//! themselves.
//!
//! ## Memory
//!
//! Everything is allocated once, at construction: a slot index of
//! `u16`s, an entry table of [`MEMO_ENTRIES`] 24-byte entries (digest,
//! arena end, steps) and one flat arena of [`MEMO_WORDS`] cube words —
//! a cube of at most 32 variables is one `u64`. At the caps that is
//! 704 KiB, 44 bytes per entry, and pages an empty memo never touched
//! are never resident. No entry owns a heap allocation, so a
//! long-running server's malloc arenas never fill with thousands of
//! small long-lived chunks. When the entry table or the arena is full,
//! the memo starts over: every entry is dropped at once and counted as
//! an eviction.

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use adgen_exec::Fnv1a128;
use adgen_obs as obs;

use crate::cover::Cover;
use crate::cube::Cube;
use crate::espresso::MinimizeOutcome;

/// Widest function the memo stores: each of its cubes is one packed
/// word. Wider minimizations bypass the memo.
pub const MAX_MEMO_ARITY: usize = 32;

/// Entries held before the memo starts over: a third more than the
/// 12 600 distinct inputs of a 20 s `serve-mixed` benchmark run.
pub const MEMO_ENTRIES: usize = 1 << 14;

/// Cube words the arena holds before the memo starts over: two per
/// entry, where that run averaged 1.96.
pub const MEMO_WORDS: usize = 2 * MEMO_ENTRIES;

/// Open-addressing slots: a power of two, at most half full.
const MEMO_SLOTS: usize = 2 * MEMO_ENTRIES;

// A slot holds an entry index + 1 as a `u16`.
const _: () = assert!(MEMO_ENTRIES < u16::MAX as usize && MEMO_SLOTS.is_power_of_two());

/// Bytes per storage chunk, below glibc's 128 KiB mmap threshold.
const CHUNK_BYTES: usize = 96 << 10;

/// Set in [`Entry::steps`] for a truncated outcome; steps at or above
/// it are not stored.
const TRUNCATED: u32 = 1 << 31;

/// A 128-bit digest, kept as four `u32`s so an [`Entry`] packs into 24
/// bytes.
pub(crate) type Key = [u32; 4];

/// One stored outcome. Entries are appended in arena order, so an
/// entry's cubes start where the previous entry's end.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: Key,
    /// One past the entry's last cube word in the arena.
    end: u32,
    /// Steps spent, with [`TRUNCATED`] set for a truncated outcome.
    steps: u32,
}

/// How many minimizations a memo answered and dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Outcomes held now.
    pub entries: usize,
    /// Cube words held now.
    pub words: usize,
    /// Lookups answered without running the minimizer, including
    /// waits on another thread's computation of the same input.
    pub hits: u64,
    /// Entries dropped because the memo was full.
    pub evictions: u64,
}

/// A bounded minimization memo. Cloning shares it: one compile server
/// owns one memo and every worker installs a clone with
/// [`scope`](MinimizeMemo::scope).
#[derive(Clone, Default)]
pub struct MinimizeMemo {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for MinimizeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MinimizeMemo").field(&self.stats()).finish()
    }
}

#[derive(Default)]
struct Inner {
    table: Mutex<Table>,
    /// Signalled whenever a key leaves the in-flight list.
    done: Condvar,
}

struct Table {
    /// Entry index + 1 per slot; 0 is empty.
    slots: Box<[u16]>,
    entries: Chunked<Entry>,
    words: Chunked<u64>,
    /// Keys some thread is computing now.
    in_flight: Vec<Key>,
    /// Threads waiting for an in-flight key.
    waiting: usize,
    hits: u64,
    evictions: u64,
}

impl Default for Table {
    fn default() -> Self {
        Table {
            slots: vec![0; MEMO_SLOTS].into_boxed_slice(),
            entries: Chunked::new(MEMO_ENTRIES),
            words: Chunked::new(MEMO_WORDS),
            in_flight: Vec::new(),
            waiting: 0,
            hits: 0,
            evictions: 0,
        }
    }
}

impl Table {
    /// The slot holding `key`, or the empty slot where it would go.
    fn probe(&self, key: &Key) -> (usize, Option<usize>) {
        // FNV's high bits depend on every input byte; its low bits do
        // not, so the index comes from the top of the first half.
        let hash = u64::from(key[1]) << 32 | u64::from(key[0]);
        let mut slot = (hash >> (64 - MEMO_SLOTS.trailing_zeros())) as usize;
        loop {
            match self.slots[slot] {
                0 => return (slot, None),
                i if self.entries.get(i as usize - 1).key == *key => {
                    return (slot, Some(i as usize - 1))
                }
                _ => slot = (slot + 1) % MEMO_SLOTS,
            }
        }
    }

    /// The stored outcome of `key`, rebuilt as a cover over `n` inputs.
    fn get(&self, key: &Key, n: usize) -> Option<MinimizeOutcome> {
        let i = self.probe(key).1?;
        let e = self.entries.get(i);
        let start = if i == 0 {
            0
        } else {
            self.entries.get(i - 1).end
        };
        let cubes = (start..e.end)
            .map(|w| Cube::from_word(n, self.words.get(w as usize)))
            .collect();
        Some(MinimizeOutcome {
            cover: Cover::from_cubes(n, cubes),
            truncated: e.steps & TRUNCATED != 0,
            steps: u64::from(e.steps & !TRUNCATED),
        })
    }

    /// Stores `outcome` under `key`, starting over first when it does
    /// not fit. Outcomes too large to store at all are left out.
    fn insert(&mut self, key: Key, outcome: &MinimizeOutcome) {
        let cubes = outcome.cover.cubes();
        if outcome.steps >= u64::from(TRUNCATED) || cubes.len() > MEMO_WORDS {
            return;
        }
        if self.entries.len == MEMO_ENTRIES || self.words.len + cubes.len() > MEMO_WORDS {
            let dropped = self.entries.len as u64;
            self.evictions += dropped;
            obs::add(obs::Ctr::EspressoMemoEvictions, dropped);
            self.entries.clear();
            self.words.clear();
            self.slots.fill(0);
        }
        let (slot, found) = self.probe(&key);
        debug_assert!(found.is_none(), "only a key's leader stores it");
        for c in cubes {
            self.words.push(c.only_word().expect("one-word cubes"));
        }
        let mut steps = outcome.steps as u32;
        if outcome.truncated {
            steps |= TRUNCATED;
        }
        self.entries.push(Entry {
            key,
            end: self.words.len as u32,
            steps,
        });
        self.slots[slot] = self.entries.len as u16;
    }
}

/// A fixed-capacity list kept in chunks of [`CHUNK_BYTES`], all
/// reserved up front. Every chunk stays below glibc's mmap threshold
/// on purpose: freeing a larger, mmapped block raises that threshold
/// for the rest of the process, after which every large buffer comes
/// from the heap, grows by copying instead of `mremap`, and stays
/// resident after it is freed. One server's memo would otherwise
/// raise the peak resident set of everything that runs after it.
struct Chunked<T> {
    chunks: Box<[Vec<T>]>,
    len: usize,
}

impl<T: Copy> Chunked<T> {
    const PER_CHUNK: usize = CHUNK_BYTES / std::mem::size_of::<T>();

    fn new(cap: usize) -> Self {
        let chunks = (0..cap.div_ceil(Self::PER_CHUNK))
            .map(|_| Vec::with_capacity(Self::PER_CHUNK))
            .collect();
        Chunked { chunks, len: 0 }
    }

    fn get(&self, i: usize) -> T {
        self.chunks[i / Self::PER_CHUNK][i % Self::PER_CHUNK]
    }

    fn push(&mut self, v: T) {
        self.chunks[self.len / Self::PER_CHUNK].push(v);
        self.len += 1;
    }

    fn clear(&mut self) {
        self.chunks.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }
}

thread_local! {
    /// The memo installed on this thread by [`MinimizeMemo::scope`].
    static ACTIVE: RefCell<Option<MinimizeMemo>> = const { RefCell::new(None) };
}

impl MinimizeMemo {
    /// An empty memo, with its index, entry table and arena allocated
    /// at their caps.
    pub fn new() -> MinimizeMemo {
        MinimizeMemo::default()
    }

    /// Runs `f` with this memo answering the calling thread's
    /// minimizations. The previously installed memo, if any, is
    /// restored afterwards, also when `f` panics.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<MinimizeMemo>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let saved = self.0.take();
                ACTIVE.with(|a| *a.borrow_mut() = saved);
            }
        }
        let saved = ACTIVE.with(|a| a.borrow_mut().replace(self.clone()));
        let _restore = Restore(saved);
        f()
    }

    /// What the memo holds and has answered so far.
    pub fn stats(&self) -> MemoStats {
        let t = self.table();
        MemoStats {
            entries: t.entries.len,
            words: t.words.len,
            hits: t.hits,
            evictions: t.evictions,
        }
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        // A panic never happens under this lock, but a poisoned table
        // would still be consistent: every update completes in place.
        self.inner
            .table
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored outcome of `key` as a cover over `n` inputs, or
    /// `compute`'s, stored on the way out. Only one thread computes a
    /// key at a time; the others wait for it and count a hit.
    pub(crate) fn get_or_compute(
        &self,
        key: Key,
        n: usize,
        compute: impl FnOnce() -> MinimizeOutcome,
    ) -> MinimizeOutcome {
        let mut t = self.table();
        loop {
            if let Some(outcome) = t.get(&key, n) {
                t.hits += 1;
                obs::add(obs::Ctr::EspressoMemoHits, 1);
                return outcome;
            }
            if !t.in_flight.contains(&key) {
                t.in_flight.push(key);
                break;
            }
            t.waiting += 1;
            t = self
                .inner
                .done
                .wait(t)
                .unwrap_or_else(PoisonError::into_inner);
            t.waiting -= 1;
        }
        drop(t);
        let _lead = Lead { memo: self, key };
        let outcome = compute();
        self.table().insert(key, &outcome);
        outcome
    }
}

/// A thread's claim on an in-flight key. Dropping it — after the
/// outcome is stored, or on unwind from a panicking computation —
/// releases the key and wakes the waiters.
struct Lead<'a> {
    memo: &'a MinimizeMemo,
    key: Key,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let mut t = self.memo.table();
        t.in_flight.retain(|k| *k != self.key);
        drop(t);
        self.memo.inner.done.notify_all();
    }
}

/// The memo's digest: [`Fnv1a128`] over little-endian words, the
/// construction of the serve cache's request keys.
struct Digest(Fnv1a128);

impl Digest {
    fn word(&mut self, w: u64) {
        self.0.write(&w.to_le_bytes());
    }

    /// The cube count, then each cube's word. `None` for a cube wider
    /// than one word.
    fn cover(&mut self, cover: &Cover) -> Option<()> {
        self.word(cover.num_cubes() as u64);
        for c in cover.cubes() {
            self.word(c.only_word()?);
        }
        Some(())
    }

    fn key(self) -> Key {
        let b = self.0.finish();
        std::array::from_fn(|i| {
            u32::from_le_bytes([b[4 * i], b[4 * i + 1], b[4 * i + 2], b[4 * i + 3]])
        })
    }
}

/// Written where a digest holds the off cover's cube count, to mark a
/// key whose loop complements on ∪ dc: no cover has this many cubes.
const COMPLEMENT: u64 = u64::MAX;

/// What a key records of a minimization's off-set.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OffKey<'a> {
    /// A supplied cover, digested cube by cube.
    Listed(&'a Cover),
    /// The complement of on ∪ dc, which the loop computes itself, for a
    /// function whose off-set has `minterms` rows. The key holds
    /// `COMPLEMENT` and that count, so it differs from the key of
    /// every listed off-set of the same on and dc.
    Complement {
        /// Rows of the off-set.
        minterms: usize,
    },
}

/// The memo installed on this thread and the digest of one input, or
/// `None` when no memo is installed or the input is too wide to store.
pub(crate) fn installed(
    on: &Cover,
    dc: &Cover,
    off: OffKey<'_>,
    budget_steps: u64,
) -> Option<(MinimizeMemo, Key)> {
    let memo = ACTIVE.with(|a| a.borrow().clone())?;
    digest(on, dc, off, budget_steps).map(|key| (memo, key))
}

/// The digest of one input — arity, budget, on, dc and the off-set —
/// or `None` when it is too wide to store.
fn digest(on: &Cover, dc: &Cover, off: OffKey<'_>, budget_steps: u64) -> Option<Key> {
    let n = on.num_inputs();
    if n > MAX_MEMO_ARITY || dc.num_inputs() != n {
        return None;
    }
    let mut d = Digest(Fnv1a128::default());
    d.word(n as u64);
    d.word(budget_steps);
    d.cover(on)?;
    d.cover(dc)?;
    match off {
        OffKey::Listed(off) if off.num_inputs() == n => d.cover(off)?,
        OffKey::Listed(_) => return None,
        OffKey::Complement { minterms } => {
            d.word(COMPLEMENT);
            d.word(minterms as u64);
        }
    }
    Some(d.key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{Fsm, OutputStyle};
    use crate::Encoding;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn outcome(words: &[u64], steps: u64, truncated: bool) -> MinimizeOutcome {
        let cubes = words.iter().map(|&w| Cube::from_word(4, w)).collect();
        MinimizeOutcome {
            cover: Cover::from_cubes(4, cubes),
            truncated,
            steps,
        }
    }

    fn key(i: u32) -> Key {
        [i, i.rotate_left(16), !i, 7]
    }

    /// Blocks until `memo` has `n` waiters.
    /// Polls until `done` holds.
    fn until(done: impl Fn() -> bool) {
        while !done() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Until a second thread waits for the leader, or, should it
    /// compute instead, until it has started computing.
    fn until_second_arrives(memo: &MinimizeMemo, computed: &AtomicUsize) {
        until(|| memo.table().waiting == 1 || computed.load(Ordering::SeqCst) > 1);
    }

    #[test]
    fn a_hit_returns_every_field_of_the_stored_outcome() {
        let mut t = Table::default();
        let stored = [
            outcome(&[0xffff_ff5a, 0xffff_fff6], 1234, false),
            outcome(&[], 0, false),
            outcome(&[0xffff_ffff], u64::from(TRUNCATED) - 1, true),
        ];
        for (i, o) in stored.iter().enumerate() {
            t.insert(key(i as u32), o);
        }
        for (i, want) in stored.iter().enumerate() {
            let got = t.get(&key(i as u32), 4).expect("stored");
            assert_eq!(got.cover, want.cover);
            assert_eq!((got.steps, got.truncated), (want.steps, want.truncated));
        }
        assert!(t.get(&key(3), 4).is_none());
        // Steps that do not fit beside the truncation flag are not
        // stored at all.
        t.insert(
            key(4),
            &outcome(&[0xffff_fff5], u64::from(TRUNCATED), false),
        );
        assert!(t.get(&key(4), 4).is_none());
    }

    #[test]
    fn a_full_memo_starts_over_and_counts_what_it_dropped() {
        let mut t = Table::default();
        for i in 0..MEMO_ENTRIES as u32 {
            t.insert(key(i), &outcome(&[0xffff_fff5], 1, false));
        }
        assert_eq!((t.entries.len, t.evictions), (MEMO_ENTRIES, 0));
        t.insert(key(u32::MAX), &outcome(&[0xffff_fffa], 2, false));
        assert_eq!((t.entries.len, t.evictions), (1, MEMO_ENTRIES as u64));
        assert!(t.get(&key(0), 4).is_none());
        assert_eq!(t.get(&key(u32::MAX), 4).unwrap().steps, 2);

        // The arena has its own cap: one entry too many words starts
        // the memo over as well.
        let wide = vec![0xffff_ffff; MEMO_WORDS];
        t.insert(key(1), &outcome(&wide, 3, false));
        assert_eq!((t.entries.len, t.words.len), (1, MEMO_WORDS));
        assert_eq!(t.evictions, MEMO_ENTRIES as u64 + 1);
        assert_eq!(t.get(&key(1), 4).unwrap().cover.num_cubes(), MEMO_WORDS);
    }

    fn select_line_fsm() -> Fsm {
        Fsm::cyclic_sequence(&[3, 1, 4, 1, 5, 2, 6, 0, 7, 3]).expect("nonempty")
    }

    fn synthesize(fsm: &Fsm) -> String {
        let style = OutputStyle::SelectLines { num_lines: 8 };
        let s = fsm.synthesize(Encoding::Gray, style).expect("synthesizes");
        adgen_netlist::verilog::to_verilog(&s.netlist, false)
    }

    #[test]
    fn outside_a_scope_every_synthesis_runs_espresso() {
        let fsm = select_line_fsm();
        let run = || {
            obs::start();
            let v = synthesize(&fsm);
            let rec = obs::take();
            (
                v,
                rec.counter(obs::Ctr::EspressoCalls),
                rec.counter(obs::Ctr::EspressoMemoHits),
            )
        };
        let (first, calls, hits) = run();
        assert!(calls > 0);
        assert_eq!(hits, 0);
        let memo = MinimizeMemo::new();
        let (scoped, scoped_calls, scoped_hits) = memo.scope(run);
        assert_eq!(scoped, first);
        assert_eq!(scoped_calls + scoped_hits, calls);
        let (again, again_calls, again_hits) = memo.scope(run);
        assert_eq!(again, first);
        assert_eq!((again_calls, again_hits), (0, calls), "all answered");
        // The scope has ended: the same synthesis minimizes everything
        // again, so `espresso.calls` doubles over the two unscoped runs.
        let (after, after_calls, after_hits) = run();
        assert_eq!(after, first);
        assert_eq!((calls + after_calls, after_hits), (2 * calls, 0));
    }

    /// Every outcome of the lazy off-set entry, on random functions on
    /// both sides of the off-set rule: computed outside any memo, then
    /// inside one (a miss), then again (a hit).
    #[test]
    fn the_lazy_entry_returns_the_same_outcome_with_and_without_a_memo() {
        use crate::espresso::{minimize_with_lazy_off_budgeted, EffortBudget};
        let mut rng = adgen_exec::Prng::new(0x3E40);
        let functions: Vec<_> = (0..300)
            .map(|trial| crate::espresso::tests::random_rows(&mut rng, trial))
            .collect();
        let run = |(on, dc, off): &(Cover, Cover, Cover), budget| {
            let minterms = off.num_cubes();
            let o = minimize_with_lazy_off_budgeted(
                on.clone(),
                dc.clone(),
                minterms,
                || off.clone(),
                budget,
            );
            (o.cover, o.steps, o.truncated)
        };
        let memo = MinimizeMemo::new();
        for budget in [EffortBudget::UNLIMITED, EffortBudget::steps(64)] {
            for (i, f) in functions.iter().enumerate() {
                let plain = run(f, budget);
                let hits = memo.stats().hits;
                assert_eq!(
                    memo.scope(|| run(f, budget)),
                    plain,
                    "function {i} {budget:?}"
                );
                assert_eq!(
                    memo.scope(|| run(f, budget)),
                    plain,
                    "function {i} {budget:?}"
                );
                assert!(
                    memo.stats().hits > hits,
                    "function {i} {budget:?} never hit"
                );
            }
        }
    }

    #[test]
    fn an_fsm_select_line_and_a_rom_bit_of_one_function_share_an_entry() {
        // The Gray-coded 8-state machine lists its select lines' off
        // states in state order, the ROM its rows in index order: the
        // same one-minterm function, enumerated in two orders.
        let outputs: Vec<u32> = (0..8).collect();
        let fsm = Fsm::cyclic_sequence(&outputs).expect("nonempty");
        let style = OutputStyle::SelectLines { num_lines: 8 };
        let line = 5;
        let mut words = vec![0; 8];
        words[Encoding::Gray.code(line, 8) as usize] = 1;
        let memo = MinimizeMemo::new();
        memo.scope(|| fsm.synthesize(Encoding::Gray, style).expect("synthesizes"));
        let before = memo.stats();
        memo.scope(|| {
            let mut n = adgen_netlist::Netlist::new("rom");
            let index: Vec<_> = (0..3).map(|b| n.add_input(format!("a{b}"))).collect();
            crate::mapgen::build_rom(&mut n, &index, &words, 1).expect("builds");
        });
        let after = memo.stats();
        assert_eq!(after.hits, before.hits + 1, "the ROM bit was answered");
        assert_eq!(after.entries, before.entries, "and stored nothing new");
    }

    #[test]
    fn a_complement_key_never_equals_a_listed_key_of_the_same_on_and_dc() {
        let mut rng = adgen_exec::Prng::new(0x5E17);
        for trial in 0..300 {
            let (on, dc, off) = crate::espresso::tests::random_rows(&mut rng, trial);
            let listed = digest(&on, &dc, OffKey::Listed(&off), u64::MAX).expect("fits");
            let empty = Cover::empty(on.num_inputs());
            let listed_empty = digest(&on, &dc, OffKey::Listed(&empty), u64::MAX).expect("fits");
            // Every off-set size a complement key may carry, including
            // the listed off-set's own size and zero.
            for minterms in 0..=(1 << on.num_inputs()) {
                let complement = digest(&on, &dc, OffKey::Complement { minterms }, u64::MAX);
                let complement = complement.expect("fits");
                assert_ne!(complement, listed, "trial {trial}, {minterms} minterms");
                assert_ne!(
                    complement, listed_empty,
                    "trial {trial}, {minterms} minterms"
                );
            }
        }
    }

    /// One minimization of a fixed input through `memo`, counted in
    /// `computed`; a leader runs `hold` before it finishes.
    fn minimize(
        memo: &MinimizeMemo,
        computed: &AtomicUsize,
        hold: impl FnOnce(),
    ) -> MinimizeOutcome {
        memo.get_or_compute(key(42), 4, || {
            computed.fetch_add(1, Ordering::SeqCst);
            hold();
            outcome(&[0xffff_fff9, 0xffff_ffe6], 77, false)
        })
    }

    #[test]
    fn a_second_thread_waits_for_the_leader_of_its_key() {
        let memo = MinimizeMemo::new();
        let computed = AtomicUsize::new(0);
        let (a, b) = std::thread::scope(|s| {
            let leader =
                s.spawn(|| minimize(&memo, &computed, || until_second_arrives(&memo, &computed)));
            until(|| !memo.table().in_flight.is_empty());
            let waiter = s.spawn(|| minimize(&memo, &computed, || {}));
            (leader.join().unwrap(), waiter.join().unwrap())
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "one computation");
        assert_eq!(memo.stats().hits, 1, "one hit");
        assert_eq!(
            (a.cover, a.steps, a.truncated),
            (b.cover, b.steps, b.truncated)
        );
    }

    #[test]
    fn a_panicking_leader_releases_its_waiter() {
        let memo = MinimizeMemo::new();
        let computed = Arc::new(AtomicUsize::new(0));
        let leader = {
            let (memo, computed) = (memo.clone(), Arc::clone(&computed));
            std::thread::spawn(move || {
                minimize(&memo, &computed, || {
                    until_second_arrives(&memo, &computed);
                    panic!("deliberate leader panic");
                })
            })
        };
        until(|| !memo.table().in_flight.is_empty());
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let (memo, computed) = (memo.clone(), Arc::clone(&computed));
            std::thread::spawn(move || tx.send(minimize(&memo, &computed, || {})))
        };
        assert!(leader.join().is_err(), "the leader panicked");
        // A waiter never woken, or woken to a key still in flight,
        // would block here instead of failing the test.
        let waited = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the waiter finishes");
        waiter.join().unwrap().unwrap();
        assert_eq!(computed.load(Ordering::SeqCst), 2, "the waiter computed");
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.hits), (1, 0));
        // The memo is still usable: the next call is a hit.
        let hit = minimize(&memo, &computed, || {});
        assert_eq!(computed.load(Ordering::SeqCst), 2);
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(hit.cover, waited.cover);
    }
}
