//! Seed-deterministic request streams for the serve workloads.
//!
//! The hot set is the working set a build farm recompiles all day: 512
//! distinct small requests (maps, FSM and affine syntheses, 4×4 and
//! 8×8 explorations). It is capped at half the server's 1024-entry LRU
//! so the warm workload never evicts. Each client connection draws its
//! own stream from `(seed, connection)`; in `serve-mixed` one request
//! in five is a *miss*: a larger request no earlier request used, which
//! drives synthesis, STA, the explorer and the cache write path.
//!
//! Connections share no state: each draws its misses from a lane of the
//! parameter space no other connection uses, so a stream is the same
//! whatever the interleaving, and so are the per-layer counts it causes.

use std::collections::HashSet;

use adgen_exec::Prng;
use adgen_seq::{workloads, AddressSequence, ArrayShape};
use adgen_serve::{CacheKey, Generator, Request};
use adgen_synth::Encoding;

/// Client connections of the serve workloads, one thread each.
pub const CONNS: usize = 2;

/// Distinct requests in the hot set.
pub const HOT_SET: usize = 512;

/// Percentage of `serve-mixed` requests drawn from the hot set.
pub const MIXED_HOT_PCT: u64 = 80;

/// PRNG stream index of the hot set; connection `c` uses `c + 1`.
const HOT_STREAM: u64 = 0;

/// The server's cache key for `req`.
pub fn key_of(req: &Request) -> CacheKey {
    CacheKey::for_request(&req.encode(), req.effort_steps())
}

/// The residue class one connection owns in a miss parameter: values
/// congruent to `index` modulo `count`. Requests whose parameters lie
/// in different lanes differ, so connections cannot collide.
#[derive(Debug, Clone, Copy)]
struct Lane {
    index: u64,
    count: u64,
}

/// The lane of the hot set: every value.
const ANY: Lane = Lane { index: 0, count: 1 };

impl Lane {
    /// A uniform draw from `lo..=hi` within the lane.
    fn draw(self, prng: &mut Prng, lo: u32, hi: u32) -> u32 {
        let lo = u64::from(lo);
        let first = lo + (self.index + self.count - lo % self.count) % self.count;
        let slots = (u64::from(hi) - first) / self.count + 1;
        (first + self.count * prng.next_range(slots)) as u32
    }
}

fn permutation(prng: &mut Prng, n: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n).collect();
    prng.shuffle(&mut v);
    v
}

fn encoding(prng: &mut Prng, one_hot_ok: bool) -> Encoding {
    match prng.next_range(if one_hot_ok { 3 } else { 2 }) {
        0 => Encoding::Binary,
        1 => Encoding::Gray,
        _ => Encoding::OneHot,
    }
}

/// A shuffled ring of `n ∈ [lo, hi]` select lines, each held for one
/// to four `next` pulses, cycled twice. One in five gets one address
/// held a pulse longer, which the mapper must answer with a typed
/// restriction violation.
fn map_request(prng: &mut Prng, lo: u32, hi: u32, lane: Lane) -> Request {
    let n = lane.draw(prng, lo, hi);
    let ring = permutation(prng, n);
    let hold = 1 + prng.next_range(4) as usize;
    let mut sequence = Vec::with_capacity(2 * ring.len() * hold + 1);
    for _ in 0..2 {
        for &a in &ring {
            sequence.extend(std::iter::repeat_n(a, hold));
        }
    }
    if prng.one_in(5) {
        let at = prng.next_range(u64::from(n)) as usize * hold;
        sequence.insert(at, sequence[at]);
    }
    Request::MapSequence { sequence }
}

/// FSM synthesis of a shuffled sequence of `n ∈ [lo, hi]` distinct
/// addresses; one-hot only where the server's 64-state cap allows.
fn fsm_request(prng: &mut Prng, lo: u32, hi: u32, lane: Lane) -> Request {
    let n = lane.draw(prng, lo, hi);
    let sequence = permutation(prng, n);
    Request::Synthesize {
        sequence,
        encoding: encoding(prng, n <= 64),
        num_lines: n,
        effort_steps: 0,
        generator: Generator::Fsm,
    }
}

/// Affine synthesis of a two-level loop nest `s + i·a + j·b` with up
/// to `max_count` iterations per level (addresses stay below 4096, the
/// server's select-line cap).
fn affine_request(prng: &mut Prng, max_count: u32, lane: Lane) -> Request {
    let start = lane.draw(prng, 0, 1023);
    let mut draw = |lo: u64, hi: u64| prng.next_in(lo, hi + 1) as u32;
    let (inner, a) = (draw(2, u64::from(max_count)), draw(1, 8));
    let (outer, b) = (draw(2, u64::from(max_count)), draw(1, 64));
    let sequence: Vec<u32> = (0..outer)
        .flat_map(|j| (0..inner).map(move |i| start + i * a + j * b))
        .collect();
    let num_lines = sequence.iter().max().copied().unwrap_or(0) + 1;
    Request::Synthesize {
        sequence,
        encoding: encoding(prng, true),
        num_lines,
        effort_steps: 0,
        generator: Generator::Affine,
    }
}

/// Exploration of one of six scan patterns over a `side × side`
/// array, rotated to a random start, with an FSM state limit in
/// `1..=64` (so only sequences of at most 64 addresses try the FSM).
fn explore_request(prng: &mut Prng, side: u32, lane: Lane) -> Request {
    let shape = ArrayShape::new(side, side);
    let base: AddressSequence = match prng.next_range(6) {
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
        fsm_state_limit: lane.draw(prng, 1, 64),
    }
}

/// The hot set for `seed`: [`HOT_SET`] requests with distinct cache
/// keys, in a fixed order.
pub fn hot_set(seed: u64) -> Vec<Request> {
    let mut prng = Prng::for_stream(seed, HOT_STREAM);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(HOT_SET);
    while out.len() < HOT_SET {
        let req = match prng.next_range(5) {
            0 => map_request(&mut prng, 2, 16, ANY),
            1 => fsm_request(&mut prng, 4, 16, ANY),
            2 => affine_request(&mut prng, 4, ANY),
            3 => explore_request(&mut prng, 4, ANY),
            _ => explore_request(&mut prng, 8, ANY),
        };
        if seen.insert(key_of(&req)) {
            out.push(req);
        }
    }
    out
}

/// One miss candidate: FSM synthesis (30%), affine synthesis (20%),
/// 8×8 (20%) and 16×16 (10%) exploration, and maps (20%).
fn miss_request(prng: &mut Prng, lane: Lane) -> Request {
    match prng.next_range(10) {
        0..=2 => fsm_request(prng, 16, 96, lane),
        3 | 4 => affine_request(prng, 32, lane),
        5 | 6 => explore_request(prng, 8, lane),
        7 => explore_request(prng, 16, lane),
        _ => map_request(prng, 16, 256, lane),
    }
}

/// What a connection sends next.
#[derive(Debug, Clone, PartialEq)]
pub enum Next {
    /// The hot-set request at this index.
    Hot(usize),
    /// A request no earlier request of the run used.
    Miss(Request),
}

/// One connection's request stream.
#[derive(Debug, Clone)]
pub struct ConnStream {
    prng: Prng,
    hot_pct: u64,
    lane: Lane,
    /// Keys of the hot set and of every miss issued so far.
    issued: HashSet<CacheKey>,
}

impl ConnStream {
    /// Connection `conn`'s stream for `seed` (`conn < CONNS`);
    /// `hot_pct` percent of its requests come from `hot`.
    pub fn new(seed: u64, conn: usize, hot_pct: u64, hot: &[Request]) -> ConnStream {
        assert!(conn < CONNS, "connection {conn} of {CONNS}");
        ConnStream {
            prng: Prng::for_stream(seed, HOT_STREAM + 1 + conn as u64),
            hot_pct,
            lane: Lane {
                index: conn as u64,
                count: CONNS as u64,
            },
            issued: hot.iter().map(key_of).collect(),
        }
    }

    /// The next request. Miss candidates whose key was already issued
    /// are redrawn, so every miss is a real miss.
    pub fn draw(&mut self) -> Next {
        if self.prng.next_range(100) < self.hot_pct {
            return Next::Hot(self.prng.next_range(HOT_SET as u64) as usize);
        }
        loop {
            let req = miss_request(&mut self.prng, self.lane);
            if self.issued.insert(key_of(&req)) {
                return Next::Miss(req);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, conn: usize, n: usize) -> Vec<Next> {
        let hot = hot_set(seed);
        let mut s = ConnStream::new(seed, conn, MIXED_HOT_PCT, &hot);
        (0..n).map(|_| s.draw()).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        assert_eq!(hot_set(7), hot_set(7));
        assert_eq!(draw(7, 0, 400), draw(7, 0, 400));
        assert_eq!(draw(7, 1, 400), draw(7, 1, 400));
    }

    #[test]
    fn seeds_and_connections_get_different_streams() {
        assert_ne!(hot_set(7), hot_set(8));
        assert_ne!(draw(7, 0, 100), draw(8, 0, 100));
        assert_ne!(draw(7, 0, 100), draw(7, 1, 100));
    }

    #[test]
    fn lanes_partition_their_range() {
        let mut prng = Prng::new(1);
        for index in 0..3 {
            let lane = Lane { index, count: 3 };
            for _ in 0..200 {
                let v = lane.draw(&mut prng, 16, 96);
                assert!((16..=96).contains(&v) && u64::from(v) % 3 == index, "{v}");
            }
        }
        let all: HashSet<u32> = (0..2000).map(|_| ANY.draw(&mut prng, 1, 8)).collect();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn hot_set_is_distinct_and_mixed() {
        let hot = hot_set(2026);
        assert_eq!(hot.len(), HOT_SET);
        let keys: HashSet<CacheKey> = hot.iter().map(key_of).collect();
        assert_eq!(keys.len(), HOT_SET);
        let explores = hot
            .iter()
            .filter(|r| matches!(r, Request::Explore { .. }))
            .count();
        assert!(explores > HOT_SET / 5 && explores < HOT_SET / 2);
        assert!(hot.iter().all(Request::is_compute));
    }

    #[test]
    fn misses_never_repeat_or_hit_the_hot_set() {
        let hot = hot_set(3);
        let hot_keys: HashSet<CacheKey> = hot.iter().map(key_of).collect();
        let mut conns: Vec<ConnStream> = (0..CONNS)
            .map(|c| ConnStream::new(3, c, MIXED_HOT_PCT, &hot))
            .collect();
        let mut misses = HashSet::new();
        let mut hits = 0;
        for i in 0..4000 {
            match conns[i % CONNS].draw() {
                Next::Hot(h) => {
                    assert!(h < HOT_SET);
                    hits += 1;
                }
                Next::Miss(req) => {
                    let k = key_of(&req);
                    assert!(!hot_keys.contains(&k), "miss collides with a hot key");
                    assert!(misses.insert(k), "miss repeated");
                }
            }
        }
        // Roughly four hits per miss.
        assert!((2800..3600).contains(&hits), "{hits} hits");
    }
}
